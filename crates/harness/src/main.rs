//! `hx` — experiment orchestrator CLI.
//!
//! ```text
//! hx sweep SPEC [--resume] [--force] [--workers N] [--threads N]
//!               [--budget N] [--out PATH] [--store DIR] [--no-cache]
//!               [--expect-cached] [--metrics PATH [--metrics-interval N]]
//!               [--quiet]
//! hx report ROWS.jsonl
//! hx expand SPEC [--store DIR] [--digests]
//! hx status [SPEC ...] [--store DIR]
//! hx gc (--all | SPEC ...) [--dry-run] [--store DIR]
//! hx serve [--addr HOST:PORT] [--store DIR] [--lease-ms N]
//!          [--port-file PATH] [--quiet]
//! hx work --addr HOST:PORT [--threads N] [--max-points N]
//!         [--stall-after N] [--slow-ms N] [--quiet]
//! hx submit SPEC --addr HOST:PORT [--out PATH] [--force]
//!           [--expect-cached] [--quiet]
//! ```
//!
//! * `sweep` runs every point of a spec. Points whose digest already sits
//!   in the store are answered from cache, so sweeps are incremental by
//!   construction; `--resume` states that intent explicitly (for scripts
//!   re-launching after a kill — behavior is identical), `--force`
//!   recomputes everything. Merged JSONL rows stream to
//!   `results/<name>.jsonl` (or `--out`) in deterministic spec order.
//!   `--expect-cached` exits non-zero unless every point came from the
//!   store — CI uses it to pin the cache-hit path. `--metrics PATH`
//!   collects the cycle-level observability layer on every point
//!   (sampled every `--metrics-interval` cycles, default 2000) and writes
//!   one summary row per point to PATH; collection never changes results,
//!   but it recomputes every point — a cache hit runs no simulation.
//! * `report` prints the tables a merged JSONL file calls for: Figure 6
//!   for steady rows, delivered fraction and recovery cost for fault
//!   rows, the per-storm table for gray-failure rows (see `report.rs`).
//! * `expand` lists the point table with digests and cache state;
//!   `--digests` prints the bare digest list (one per line) so scripts
//!   can pre-check cache state without contacting a daemon.
//! * `status` summarizes the store, and per spec reports cached/missing.
//! * `gc` prunes entries not reachable from the given specs.
//! * `serve` / `work` / `submit` are the distributed mode: one daemon
//!   owns the sweep state and the store, workers execute points under
//!   leases, clients stream back the same byte-identical merged JSONL a
//!   local `hx sweep` would produce (see DESIGN.md "Distributed sweeps").

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hxharness::{
    digest_hex, point_digest, render_report, run_sweep, serve, spec_digests, submit_text, work,
    ExperimentSpec, Job, RowFile, ServeOpts, Store, SweepOpts, WorkOpts, DEFAULT_STORE_DIR,
};

const USAGE: &str = "usage:
  hx sweep SPEC [--resume] [--force] [--workers N] [--threads N] [--budget N]
                [--out PATH] [--store DIR] [--no-cache] [--expect-cached]
                [--metrics PATH [--metrics-interval N]] [--quiet]
  hx report ROWS.jsonl
  hx expand SPEC [--store DIR] [--digests]
  hx status [SPEC ...] [--store DIR]
  hx gc (--all | SPEC ...) [--dry-run] [--store DIR]
  hx serve [--addr HOST:PORT] [--store DIR] [--lease-ms N] [--port-file PATH] [--quiet]
  hx work --addr HOST:PORT [--threads N] [--max-points N] [--stall-after N]
          [--slow-ms N] [--quiet]
  hx submit SPEC --addr HOST:PORT [--out PATH] [--force] [--expect-cached] [--quiet]";

/// Hand-rolled argv walker: `hx` has subcommands and positional spec
/// paths, and its boolean flags must not swallow a following path the way
/// a generic `--key value` grammar would (`--resume spec.toml`).
struct Cli {
    positional: Vec<String>,
    named: Vec<(String, String)>,
    flags: Vec<String>,
}

const VALUE_FLAGS: &[&str] = &[
    "workers",
    "threads",
    "budget",
    "out",
    "store",
    "addr",
    "lease-ms",
    "port-file",
    "max-points",
    "stall-after",
    "slow-ms",
    "metrics",
    "metrics-interval",
];
const BOOL_FLAGS: &[&str] = &[
    "resume",
    "force",
    "no-cache",
    "expect-cached",
    "quiet",
    "dry-run",
    "all",
    "digests",
    "help",
];

impl Cli {
    fn parse(items: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            positional: Vec::new(),
            named: Vec::new(),
            flags: Vec::new(),
        };
        let mut items = items.peekable();
        while let Some(a) = items.next() {
            if let Some(key) = a.strip_prefix("--") {
                if VALUE_FLAGS.contains(&key) {
                    let v = items.next().ok_or(format!("--{key} needs a value"))?;
                    cli.named.push((key.to_string(), v));
                } else if BOOL_FLAGS.contains(&key) {
                    cli.flags.push(key.to_string());
                } else {
                    return Err(format!("unknown option --{key}"));
                }
            } else {
                cli.positional.push(a);
            }
        }
        Ok(cli)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid value {v:?} for --{key}: {e}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn store(&self) -> PathBuf {
        PathBuf::from(self.get("store").unwrap_or(DEFAULT_STORE_DIR))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let cli = Cli::parse(argv)?;
    if cli.flag("help") || cmd == "help" || cmd == "--help" {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    match cmd.as_str() {
        "sweep" => cmd_sweep(&cli),
        "report" => cmd_report(&cli),
        "expand" => cmd_expand(&cli),
        "status" => cmd_status(&cli),
        "gc" => cmd_gc(&cli),
        "serve" => cmd_serve(&cli),
        "work" => cmd_work(&cli),
        "submit" => cmd_submit(&cli),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn one_spec(cli: &Cli) -> Result<ExperimentSpec, String> {
    match cli.positional.as_slice() {
        [path] => ExperimentSpec::load(path),
        _ => Err(format!("expected exactly one SPEC path\n{USAGE}")),
    }
}

/// The shared tail of `hx sweep` and `hx submit`: the summary line, then
/// the exit code. `--expect-cached` fails unless every point came from
/// the store — an uncached point that failed instead of executing was
/// not served from the store either.
fn conclude(
    verb: &str,
    name: &str,
    [total, cached, executed, failed]: [usize; 4],
    out: &Path,
    expect_cached: bool,
) -> u8 {
    println!(
        "{verb} {name}: {total} points, {cached} cached, {executed} executed -> {}",
        out.display()
    );
    if expect_cached && cached < total {
        eprintln!(
            "--expect-cached: {} point(s) were not served from the store",
            total - cached
        );
        return 1;
    }
    if failed > 0 {
        eprintln!(
            "{verb} {name}: {failed} point(s) FAILED (kind=\"failed\" rows in {})",
            out.display()
        );
        return 1;
    }
    0
}

fn out_path(cli: &Cli, spec: &ExperimentSpec) -> PathBuf {
    cli.get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("results/{}.jsonl", spec.name)))
}

/// One row of the `--metrics` file.
#[derive(serde::Serialize)]
struct PointMetrics {
    kind: &'static str,
    pattern: String,
    algo: String,
    seed: u64,
    fails: usize,
    offered: f64,
    summary: hxsim::MetricsSummary,
}

fn cmd_sweep(cli: &Cli) -> Result<ExitCode, String> {
    let spec = one_spec(cli)?;
    let use_cache = !cli.flag("no-cache");
    let store;
    let store_ref = if use_cache {
        store = Store::open(&cli.store()).map_err(|e| format!("open store: {e}"))?;
        Some(&store)
    } else {
        None
    };
    let out = out_path(cli, &spec);
    let metrics_path = cli.get("metrics").map(PathBuf::from);
    let opts = SweepOpts {
        workers: cli.get_parsed("workers", 0usize)?,
        tick_threads: cli.get_parsed("threads", 0usize)?,
        budget: cli.get_parsed("budget", 0usize)?,
        force: cli.flag("force"),
        stop_after: None,
        metrics: match metrics_path {
            Some(_) => Some(hxsim::MetricsConfig {
                sample_interval: cli.get_parsed("metrics-interval", 2_000u64)?,
                ..hxsim::MetricsConfig::default()
            }),
            None => None,
        },
        progress: !cli.flag("quiet"),
    };
    let report = run_sweep(&spec, store_ref, Some(&out), &opts)?;
    if let Some(path) = &metrics_path {
        let points = spec.expand();
        let mut file = RowFile::create(Some(path))?;
        for (i, summary) in report.metrics {
            let p = &points[i];
            file.write(&hxsim::versioned_json_row(&PointMetrics {
                kind: "metrics",
                pattern: p.pattern.clone(),
                algo: p.algo.clone(),
                seed: p.seed,
                fails: p.fails,
                offered: p.load,
                summary,
            }))?;
        }
    }
    for (i, msg) in &report.failed {
        eprintln!("  point {i} FAILED: {msg}");
    }
    let tally = [
        report.total,
        report.cached,
        report.executed,
        report.failed.len(),
    ];
    Ok(ExitCode::from(conclude(
        "sweep",
        &spec.name,
        tally,
        &out,
        cli.flag("expect-cached"),
    )))
}

fn cmd_report(cli: &Cli) -> Result<ExitCode, String> {
    let [path] = cli.positional.as_slice() else {
        return Err(format!("expected exactly one ROWS.jsonl path\n{USAGE}"));
    };
    let rows = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    print!(
        "{}",
        render_report(&rows).map_err(|e| format!("{path}: {e}"))?
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_expand(cli: &Cli) -> Result<ExitCode, String> {
    let spec = one_spec(cli)?;
    if cli.flag("digests") {
        // Bare digest list, one per line in spec order: lets a script
        // intersect a spec with `ls results/store/` (or another node's
        // listing) without opening the store or contacting a daemon.
        for p in spec.expand() {
            println!("{}", digest_hex(point_digest(&p)));
        }
        return Ok(ExitCode::SUCCESS);
    }
    let store = Store::open(&cli.store()).map_err(|e| format!("open store: {e}"))?;
    println!(
        "{} ({}): {} on HyperX dims={} width={} terminals={}",
        spec.name,
        spec.kind.as_str(),
        spec.description,
        spec.network.dims,
        spec.network.width,
        spec.network.terminals
    );
    println!(
        "{:<18} {:>6} {:<8} {:<8} {:>7} {:>6} {:>5}  state",
        "digest", "#", "pattern", "algo", "load", "seed", "fails"
    );
    let job = Job::new(&spec, Some(&store));
    for i in 0..job.total() {
        let p = job.point(i);
        println!(
            "{:<18} {:>6} {:<8} {:<8} {:>7.3} {:>6} {:>5}  {}",
            digest_hex(job.digest(i)),
            i,
            p.pattern,
            p.algo,
            p.load,
            p.seed,
            p.fails,
            if job.is_filled(i) {
                "cached"
            } else {
                "pending"
            }
        );
    }
    println!("{} points, {} cached", job.total(), job.cached());
    Ok(ExitCode::SUCCESS)
}

fn cmd_status(cli: &Cli) -> Result<ExitCode, String> {
    let dir = cli.store();
    if !dir.exists() {
        println!("store {}: empty (not created yet)", dir.display());
        return Ok(ExitCode::SUCCESS);
    }
    let store = Store::open(&dir).map_err(|e| format!("open store: {e}"))?;
    let entries = store.scan().map_err(|e| format!("scan store: {e}"))?;
    let total_bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    println!(
        "store {}: {} entries, {} KiB",
        dir.display(),
        entries.len(),
        total_bytes / 1024
    );
    // Whole entries written under another schema version can never hit —
    // surface them here so a post-bump cold cache is explainable.
    let stale = entries
        .iter()
        .filter(|e| {
            e.schema_version
                .is_some_and(|v| v != i64::from(hxsim::SCHEMA_VERSION))
        })
        .count();
    if stale > 0 {
        println!(
            "  {stale} stale entries from other schema versions (current is {}; \
             misses recompute, `hx gc` removes them)",
            hxsim::SCHEMA_VERSION
        );
    }
    let (corrupt, tmp) = store.debris().map_err(|e| format!("scan store: {e}"))?;
    if corrupt > 0 {
        println!("  {corrupt} quarantined corrupt entries (`hx gc` removes them)");
    }
    if tmp > 0 {
        println!("  {tmp} orphaned temp files from killed writers (`hx gc` removes them)");
    }
    let mut by_exp: Vec<(String, usize)> = Vec::new();
    for e in &entries {
        let name = if e.experiment.is_empty() {
            "<unreadable>".to_string()
        } else {
            e.experiment.clone()
        };
        match by_exp.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => by_exp.push((name, 1)),
        }
    }
    by_exp.sort();
    for (name, count) in &by_exp {
        println!("  {count:>6}  {name}");
    }
    for path in &cli.positional {
        let spec = ExperimentSpec::load(path)?;
        let job = Job::new(&spec, Some(&store));
        println!(
            "  {path} ({}): {}/{} points cached",
            spec.name,
            job.cached(),
            job.total()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_gc(cli: &Cli) -> Result<ExitCode, String> {
    if cli.positional.is_empty() && !cli.flag("all") {
        return Err(format!(
            "gc needs spec paths to keep, or --all to clear everything\n{USAGE}"
        ));
    }
    let store = Store::open(&cli.store()).map_err(|e| format!("open store: {e}"))?;
    let mut keep: HashSet<u64> = HashSet::new();
    for path in &cli.positional {
        keep.extend(spec_digests(&ExperimentSpec::load(path)?));
    }
    let dry = cli.flag("dry-run");
    let (kept, removed, removed_bytes) =
        store.gc(&keep, dry).map_err(|e| format!("gc store: {e}"))?;
    println!(
        "gc {}: kept {kept}, {} {removed} entries ({} KiB)",
        store.dir().display(),
        if dry { "would remove" } else { "removed" },
        removed_bytes / 1024
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(cli: &Cli) -> Result<ExitCode, String> {
    if !cli.positional.is_empty() {
        return Err(format!("serve takes no positional arguments\n{USAGE}"));
    }
    let opts = ServeOpts {
        addr: cli.get("addr").unwrap_or("127.0.0.1:0").to_string(),
        store_dir: cli.store(),
        lease_ms: cli.get_parsed("lease-ms", 10_000u64)?,
        port_file: cli.get("port-file").map(PathBuf::from),
        quiet: cli.flag("quiet"),
    };
    serve(&opts)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_work(cli: &Cli) -> Result<ExitCode, String> {
    if !cli.positional.is_empty() {
        return Err(format!("work takes no positional arguments\n{USAGE}"));
    }
    let addr = cli
        .get("addr")
        .ok_or(format!("work needs --addr HOST:PORT\n{USAGE}"))?
        .to_string();
    let max_points = cli.get_parsed("max-points", 0usize)?;
    let stall_after = cli
        .get("stall-after")
        .map(str::parse)
        .transpose()
        .map_err(|e| format!("invalid --stall-after: {e}"))?;
    let opts = WorkOpts {
        addr,
        tick_threads: cli.get_parsed("threads", 0usize)?,
        max_points: (max_points > 0).then_some(max_points),
        stall_after,
        slow_ms: cli.get_parsed("slow-ms", 0u64)?,
        quiet: cli.flag("quiet"),
    };
    work(&opts)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_submit(cli: &Cli) -> Result<ExitCode, String> {
    let [path] = cli.positional.as_slice() else {
        return Err(format!("expected exactly one SPEC path\n{USAGE}"));
    };
    let addr = cli
        .get("addr")
        .ok_or(format!("submit needs --addr HOST:PORT\n{USAGE}"))?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let format = if path.ends_with(".json") {
        "json"
    } else {
        "toml"
    };
    // Parse locally first for a fast, well-located error message (the
    // daemon re-validates regardless) and to learn the output name.
    let spec = ExperimentSpec::parse(&text, format).map_err(|e| format!("{path}: {e}"))?;
    let out = out_path(cli, &spec);
    let report = submit_text(
        addr,
        &text,
        format,
        cli.flag("force"),
        Some(&out),
        !cli.flag("quiet"),
    )?;
    let tally = [report.total, report.cached, report.executed, report.failed].map(|n| n as usize);
    Ok(ExitCode::from(conclude(
        "submit",
        &spec.name,
        tally,
        &out,
        cli.flag("expect-cached"),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(s: &str) -> Cli {
        Cli::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn bool_flags_do_not_swallow_paths() {
        let c = cli("--resume spec.toml --threads 4");
        assert_eq!(c.positional, vec!["spec.toml"]);
        assert!(c.flag("resume"));
        assert_eq!(c.get_parsed("threads", 0usize).unwrap(), 4);
    }

    #[test]
    fn unknown_options_are_rejected() {
        assert!(Cli::parse(["--bogus".to_string()].into_iter()).is_err());
    }

    /// (total, cached, executed, failed) -> exit code, with and without
    /// `--expect-cached`. The third row is where the two rules the
    /// commands used to apply disagreed: an uncached point that failed
    /// executes nothing, yet was not served from the store.
    #[test]
    fn exit_code_follows_cached_and_failed_counts() {
        let cases = [
            ([4, 4, 0, 0], 0, 0),
            ([4, 1, 3, 0], 0, 1),
            ([4, 3, 0, 1], 1, 1),
            ([4, 0, 3, 1], 1, 1),
            ([0, 0, 0, 0], 0, 0),
        ];
        for (tally, plain, expecting) in cases {
            let out = Path::new("rows.jsonl");
            assert_eq!(conclude("sweep", "t", tally, out, false), plain);
            assert_eq!(conclude("submit", "t", tally, out, true), expecting);
        }
    }

    #[test]
    fn value_flags_require_values() {
        assert!(Cli::parse(["--workers".to_string()].into_iter()).is_err());
    }
}
