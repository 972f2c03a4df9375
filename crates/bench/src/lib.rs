//! # hxbench — experiment harnesses for every table and figure
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig2_scalability`  | Figure 2 — max nodes vs router radix |
//! | `fig2_sim`          | Figure 2 (simulated) — scale ladder to 100k+ terminals |
//! | `fig3_cabling`      | Figure 3 — Dragonfly:HyperX cabling cost |
//! | `fig4_topologies`   | Figure 4 — stencil time across topologies |
//! | `fig6_synthetic`    | Figure 6 — load/latency + throughput summary |
//! | `fig8_stencil`      | Figure 8 — stencil phase execution times |
//! | `tab1_comparison`   | Table 1 — implementation requirements |
//! | `sec42_atomic_queue`| Section 4.2 — atomic-allocation ceiling |
//!
//! Each accepts the uniform switches `--full` (the paper's 4,096-node
//! configuration; default is a reduced 256-node network that preserves
//! the qualitative shapes), `--seed N`, `--threads N` (deterministic
//! per-simulation tick threads), and `--json PATH` for machine-readable
//! output — see [`args::CommonArgs`]. This library holds the shared
//! plumbing: the CLI surface (re-exported from `hxharness`), a
//! crossbeam-based parallel sweep runner, and table/JSONL formatting.
//! `fig6_synthetic` and `fault_resilience` are thin wrappers over the
//! `hx` experiment orchestrator (`hxharness`); their sweeps can also be
//! driven from the declarative specs in `experiments/`.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hxharness::{run_sweep, submit_text, ExperimentSpec, Store, SweepOpts, SweepReport};
use hxsim::SimConfig;
use hxtopo::HyperX;
use parking_lot::Mutex;

pub mod args;

pub use args::{Args, CommonArgs, MetricsArgs};

/// Runs a spec locally ([`run_sweep`]) or, with `--submit HOST:PORT`,
/// ships it to an `hx serve` daemon and streams the rows back. Either
/// way the caller sees the same [`SweepReport`] with byte-identical rows
/// — the daemon owns the shared store and the in-order commit frontier,
/// so a submitted sweep is just a sweep that ran elsewhere.
pub fn sweep_or_submit(
    spec: &ExperimentSpec,
    store: Option<&Store>,
    out: Option<&Path>,
    opts: &SweepOpts,
    submit_addr: Option<&str>,
) -> Result<SweepReport, String> {
    let Some(addr) = submit_addr else {
        return run_sweep(spec, store, out, opts);
    };
    if opts.metrics.is_some() {
        return Err(
            "--submit cannot collect --metrics: the cycle-level metrics stream \
             stays on the worker that executed the point; run locally instead"
                .to_string(),
        );
    }
    let report = submit_text(
        addr,
        &spec.to_json(),
        "json",
        opts.force,
        out,
        opts.progress,
    )?;
    // Failed points are visible in the rows themselves (`kind = "failed"`),
    // exactly as in a local sweep's merged output.
    let failed: Vec<(usize, String)> = report
        .rows
        .iter()
        .enumerate()
        .filter(|(_, r)| r.contains("\"kind\":\"failed\""))
        .map(|(i, r)| (i, r.clone()))
        .collect();
    Ok(SweepReport {
        total: report.total as usize,
        cached: report.cached as usize,
        executed: report.executed as usize,
        rows: report.rows,
        metrics: Vec::new(),
        complete: true,
        failed,
    })
}

/// The evaluated HyperX network: the paper's 8x8x8 with 8 terminals per
/// router (4,096 nodes) at full scale, a 4x4x4 with 4 terminals per router
/// (256 nodes) by default.
pub fn evaluation_hyperx(full: bool) -> Arc<HyperX> {
    if full {
        Arc::new(HyperX::uniform(3, 8, 8))
    } else {
        Arc::new(HyperX::uniform(3, 4, 4))
    }
}

/// The paper's Section 6 simulator configuration.
pub fn evaluation_config() -> SimConfig {
    SimConfig::default()
}

/// Clamps a requested tick-thread count to the host's available CPUs,
/// returning `(effective_threads, host_cpus)`. Oversubscribing the tick
/// pool never changes results (the parallel tick is bit-deterministic)
/// but buys nothing — threads beyond the CPU count cannot run side by
/// side, they only add shard hand-off cost — so the bench binaries
/// clamp by default and record the effective count in every row. Pass
/// `allow = true` (`--allow-oversubscribe`) to keep the requested count,
/// e.g. to exercise the shard machinery itself; the warning still prints.
pub fn clamp_threads(requested: usize, allow: bool) -> (usize, usize) {
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let requested = requested.max(1);
    if requested <= host {
        return (requested, host);
    }
    if allow {
        eprintln!(
            "WARNING: running {requested} tick threads on {host} CPU(s) \
             (--allow-oversubscribe): results are identical but slower"
        );
        (requested, host)
    } else {
        eprintln!(
            "NOTE: clamping tick threads {requested} -> {host} (host CPUs); \
             pass --allow-oversubscribe to override"
        );
        (host, host)
    }
}

/// Order-preserving parallel map over `items`, using all cores (crossbeam
/// scoped threads pulling work off a shared index).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    parallel_map_threads(items, threads, f)
}

/// [`parallel_map`] with an explicit worker-thread count. Results are
/// slotted by item index, so the output — and any per-item seeded
/// simulation inside `f` — is identical for every thread count; the
/// determinism suite in `crates/bench/tests/determinism.rs` pins this.
pub fn parallel_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    crossbeam::scope(|s| {
        for _ in 0..threads {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i].lock().take().expect("work item taken twice");
                let r = f(item);
                *results[i].lock() = Some(r);
            });
        }
    })
    .expect("worker thread panicked");
    results
        .into_iter()
        .map(|m| m.into_inner().expect("missing result"))
        .collect()
}

/// One per-run observability record, written as a JSONL row by the
/// experiment binaries under `--metrics PATH`.
#[derive(serde::Serialize, Clone)]
pub struct MetricsRow {
    /// Run label (traffic pattern, fault count, ...).
    pub label: String,
    /// Routing algorithm.
    pub algo: String,
    /// Offered load of the run.
    pub offered: f64,
    /// End-of-run metric aggregates.
    pub summary: hxsim::MetricsSummary,
}

/// Renders the per-algorithm observability summary table aggregated over
/// `rows` (sums counters, maxes utilizations/occupancy quantiles).
pub fn render_metrics_table(rows: &[MetricsRow]) -> String {
    let mut algos: Vec<&str> = rows.iter().map(|r| r.algo.as_str()).collect();
    algos.dedup();
    algos.sort_unstable();
    algos.dedup();
    let header: Vec<String> = [
        "algo",
        "grants",
        "deroute%",
        "age-win%",
        "credit stalls",
        "claim stalls",
        "max util",
        "occ p99",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = algos
        .iter()
        .map(|a| {
            let sel: Vec<&MetricsRow> = rows.iter().filter(|r| r.algo == *a).collect();
            let sum = |f: &dyn Fn(&hxsim::MetricsSummary) -> u64| -> u64 {
                sel.iter().map(|r| f(&r.summary)).sum()
            };
            let fmax = |f: &dyn Fn(&hxsim::MetricsSummary) -> f64| -> f64 {
                sel.iter().map(|r| f(&r.summary)).fold(0.0, f64::max)
            };
            let grants = sum(&|s| s.grants);
            let net_grants = grants - sum(&|s| s.ejection_grants);
            let deroutes = sum(&|s| s.deroutes_total);
            let pct = |num: u64, den: u64| {
                if den == 0 {
                    "-".to_string()
                } else {
                    format!("{:.2}", 100.0 * num as f64 / den as f64)
                }
            };
            vec![
                a.to_string(),
                grants.to_string(),
                pct(deroutes, net_grants),
                pct(sum(&|s| s.age_wins), grants),
                sum(&|s| s.credit_stalls).to_string(),
                sum(&|s| s.claim_stalls).to_string(),
                format!("{:.3}", fmax(&|s| s.max_util)),
                format!("{:.1}", fmax(&|s| s.occ_p99)),
            ]
        })
        .collect();
    render_table(&header, &table)
}

/// Writes serializable rows as JSON lines to `path` (if given). Every
/// row leads with `schema_version` (via [`hxsim::versioned_json_row`]),
/// like all other JSONL the workspace emits under `results/`.
pub fn write_jsonl<T: serde::Serialize>(path: Option<&str>, rows: &[T]) {
    let Some(path) = path else { return };
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    for row in rows {
        writeln!(f, "{}", hxsim::versioned_json_row(row)).expect("write row");
    }
    eprintln!("wrote {} rows to {path}", rows.len());
}

/// Renders a fixed-width text table.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_thread_count_does_not_change_results() {
        let items: Vec<u64> = (0..64).collect();
        let one = parallel_map_threads(items.clone(), 1, |x| x * x + 1);
        let many = parallel_map_threads(items, 5, |x| x * x + 1);
        assert_eq!(one, many);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(t.contains(" a  bb"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn jsonl_rows_carry_schema_version() {
        #[derive(serde::Serialize)]
        struct R {
            x: u64,
        }
        let path = std::env::temp_dir().join(format!("hxbench_jsonl_{}.jsonl", std::process::id()));
        write_jsonl(path.to_str(), &[R { x: 7 }]);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            text,
            format!("{{\"schema_version\":{},\"x\":7}}\n", hxsim::SCHEMA_VERSION)
        );
    }

    #[test]
    fn evaluation_sizes() {
        use hxtopo::Topology;
        assert_eq!(evaluation_hyperx(false).num_terminals(), 256);
        assert_eq!(evaluation_hyperx(true).num_terminals(), 4096);
    }
}
