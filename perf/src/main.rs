//! `hxperf` command line. See `README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use hxharness::{parse_json, Value};
use hxperf::compare::compare_files;
use hxperf::host::HostInfo;
use hxperf::report::{contract_line, print_tables, results_json, Group, RunInfo};
use hxperf::run::{traced, untraced, Budget, DEFAULT_REPS, NOISY_SPREAD, SUB_SEEDS};
use hxperf::stats::Summary;
use hxperf::workloads::{all, Env};

#[global_allocator]
static ALLOC: hxsim::CountingAllocator = hxsim::CountingAllocator::new();

/// Result digests of the full-size workloads at the reference seed. A
/// mismatch is a warning, not a failure: a change that moves the random
/// stream on purpose re-records them.
const REFERENCE: &str = include_str!("../reference_digests.json");

const USAGE: &str = "usage:
  hxperf [--workload NAME]... [--seed N] [--reps R | --seconds S] [--trace 0|1]
         [--quick] [--out DIR]
  hxperf compare A.json B.json

Without --workload every workload runs. --trace 0 runs the untraced
repetitions only, --trace 1 a short baseline and the traced per-layer pass;
without --trace both run. Results go to DIR/results.json and DIR/trace.jsonl
(default: out/ beside hxperf's Cargo.toml). With exactly one workload the
last line of standard output is the driver's result object.";

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    budget: Option<Budget>,
    trace: Option<bool>,
    quick: bool,
    out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 1,
        budget: None,
        trace: None,
        quick: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => cli.workloads.push(value()?),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--reps" => {
                let v = value()?;
                let n: usize = v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| bad(&v))?;
                cli.budget = Some(Budget::Reps(n));
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().ok().filter(|&s| s > 0.0).ok_or_else(|| bad(&v))?;
                cli.budget = Some(Budget::Seconds(s));
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                })
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<(), String> {
    // The workloads pin the default engine and a serial tick; the daemon
    // and worker threads read these variables when they parse a spec.
    std::env::remove_var("HX_ENGINE");
    std::env::remove_var("HX_TICK_THREADS");

    let mut workloads = all();
    if !cli.workloads.is_empty() {
        for name in &cli.workloads {
            if !workloads.iter().any(|w| w.name == name) {
                let known: Vec<_> = workloads.iter().map(|w| w.name).collect();
                return Err(format!(
                    "unknown workload {name:?} (known: {})",
                    known.join(", ")
                ));
            }
        }
        workloads.retain(|w| cli.workloads.iter().any(|n| n == w.name));
    }
    let scratch = cli.out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let env = Env {
        alloc: &ALLOC,
        scratch: scratch.clone(),
        quick: cli.quick,
    };

    // --trace 1 needs only a baseline for its ratios; --quick is a smoke.
    let budget = match (cli.quick, cli.trace, cli.budget) {
        (true, _, _) => Budget::Reps(1),
        (_, Some(true), _) => Budget::Reps(3),
        (_, _, Some(b)) => b,
        (_, _, None) => Budget::Reps(DEFAULT_REPS),
    };
    let vary = cli.trace != Some(true);
    let (mut outcomes, calib) = untraced(&workloads, &env, cli.seed, budget, vary);
    let mut trace = String::new();
    if cli.trace != Some(false) {
        for (w, out) in workloads.iter().zip(&mut outcomes) {
            traced(w, &env, cli.seed, &calib, out, &mut trace);
        }
    }
    std::fs::remove_dir_all(&scratch).ok();

    let host = HostInfo::collect();
    let info = RunInfo {
        calib_ms: &calib,
        seed: cli.seed,
        quick: cli.quick,
        noisy: Summary::of(&calib).spread() > NOISY_SPREAD,
        host: &host,
    };
    print_tables(&outcomes, &info);
    let reference = parse_json(REFERENCE).map_err(|e| format!("reference_digests.json: {e}"))?;
    let same_seed = reference.get("seed").and_then(Value::as_i64) == Some(cli.seed as i64);
    if !cli.quick && vary && same_seed {
        // A digest covers one cycle of sub-seeds; shorter runs have none.
        for o in outcomes.iter().filter(|o| o.reps.len() >= SUB_SEEDS) {
            let want = reference
                .get_path(&format!("digests.{}", o.name))
                .and_then(Value::as_str);
            let got = format!("{:016x}", o.digest);
            if want != Some(got.as_str()) {
                println!(
                    "warning: {} sim_digest {got} differs from the reference {}",
                    o.name,
                    want.unwrap_or("(none recorded)")
                );
            }
        }
    }
    let write = |name: &str, body: &str| {
        let path = cli.out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("results.json", &results_json(&outcomes, &info))?;
    write("trace.jsonl", &trace)?;
    println!("wrote {}/results.json and trace.jsonl", cli.out.display());
    if let [only] = outcomes.as_slice() {
        let group = if cli.trace == Some(true) {
            Group::PerLayer
        } else {
            Group::EndToEnd
        };
        println!("{}", contract_line(only, group));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A run that printed its result exits 0 even when a check failed: the
    // result says so (`correct`, `failed`). `compare` is the gate.
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_cli(&args).and_then(|cli| run(&cli)).map(|()| true),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hxperf: {e}");
            ExitCode::from(2)
        }
    }
}
