//! Scale sweep: how large a HyperX the simulator itself can run.
//!
//! Figure 2 of the paper argues HyperX scales to very large node counts at
//! practical radices; `fig2_scalability` reproduces that *analytically*.
//! This binary is the simulation-side complement: it constructs and runs
//! the largest uniform HyperX networks the memory refactor allows, sweeps
//! terminal count from 1k to 100k+, and records simulation throughput
//! (cycles/sec, events/sec) plus the allocator high-water mark per point.
//!
//! ```text
//! cargo run --release -p hxbench --bin fig2_sim -- \
//!     [--full] [--load 0.02] [--warmup 500] [--cycles 1500] \
//!     [--algo DimWAR] [--seed 1] [--mem-budget-mb N] \
//!     [--json /tmp/scale.json]
//! ```
//!
//! The report is one JSON object led by `schema_version`; it measures the
//! host it ran on and is not committed (CHANGES.md's PR 15 entry tabulates
//! a two-vCPU `--full` run).
//!
//! The default (CI-sized) sweep stops at 65k terminals; `--full` adds the
//! 19x19x19 rung (6,859 routers, 109,744 terminals). `--mem-budget-mb N`
//! makes the run exit nonzero if any point's allocator high-water exceeds
//! the budget — CI's guard against memory-footprint regressions. The
//! baseline point re-runs the 4x4x4 evaluation network (OmniWAR, load
//! 0.1), so one file answers both "how big can it go" and "what does the
//! evaluation size run at on the same host".

use std::sync::Arc;
use std::time::Instant;

use hxbench::CommonArgs;
use hxcore::hyperx_algorithm;
use hxsim::{CountingAllocator, Engine, Sim, SimConfig};
use hxtopo::{HyperX, Topology};
use hxtraffic::{pattern_by_name, SyntheticWorkload};
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[derive(Serialize)]
struct PointResult {
    name: String,
    algo: String,
    dims: usize,
    width: usize,
    terms_per_router: usize,
    routers: usize,
    terminals: usize,
    radix: usize,
    load: f64,
    warmup_cycles: u64,
    measure_cycles: u64,
    construct_seconds: f64,
    run_seconds: f64,
    cycles_per_sec: f64,
    events_per_sec: Option<f64>,
    delivered_packets: u64,
    /// Allocator high-water mark over construction + run of this point,
    /// measured from the point's starting live-byte count.
    peak_alloc_bytes: u64,
}

#[derive(Serialize)]
struct Report {
    /// Default (`--algo`) algorithm; rungs may override, see their rows.
    algo: String,
    engine: String,
    seed: u64,
    host_cpus: usize,
    mem_budget_mb: Option<u64>,
    results: Vec<PointResult>,
}

struct Rung {
    name: &'static str,
    dims: usize,
    width: usize,
    terms: usize,
    load: f64,
    warmup: u64,
    cycles: u64,
    /// Per-rung algorithm override (the baseline rung pins OmniWAR, the
    /// evaluation default); `None` follows `--algo`.
    algo: Option<&'static str>,
}

fn run_point(rung: &Rung, default_algo: &str, seed: u64, engine: Engine) -> PointResult {
    let algo_name = rung.algo.unwrap_or(default_algo);
    ALLOC.reset_peak();
    let base = ALLOC.live_bytes();

    let t0 = Instant::now();
    let hx = Arc::new(HyperX::uniform(rung.dims, rung.width, rung.terms));
    let cfg = SimConfig {
        engine,
        ..SimConfig::default()
    };
    let algo: Arc<dyn hxcore::RoutingAlgorithm> =
        hyperx_algorithm(algo_name, hx.clone(), cfg.num_vcs)
            .unwrap_or_else(|e| panic!("{e}"))
            .into();
    let mut sim = Sim::new(hx.clone(), algo, cfg, seed);
    let pat = pattern_by_name("UR", hx.clone()).expect("UR pattern");
    let mut traffic = SyntheticWorkload::new(pat, hx.num_terminals(), rung.load, seed);
    let construct_seconds = t0.elapsed().as_secs_f64();

    let total = rung.warmup + rung.cycles;
    let t1 = Instant::now();
    sim.run(&mut traffic, total);
    let run_seconds = t1.elapsed().as_secs_f64();

    let peak = ALLOC.peak_bytes().saturating_sub(base);
    let radix = hx.num_ports(0);
    let eps = (engine == Engine::Event).then(|| sim.events_processed() as f64 / run_seconds);
    PointResult {
        name: rung.name.to_string(),
        algo: algo_name.to_string(),
        dims: rung.dims,
        width: rung.width,
        terms_per_router: rung.terms,
        routers: hx.num_routers(),
        terminals: hx.num_terminals(),
        radix,
        load: rung.load,
        warmup_cycles: rung.warmup,
        measure_cycles: rung.cycles,
        construct_seconds,
        run_seconds,
        cycles_per_sec: total as f64 / run_seconds,
        events_per_sec: eps,
        delivered_packets: sim.stats.total_delivered_packets,
        peak_alloc_bytes: peak,
    }
}

fn main() {
    let (common, args) =
        CommonArgs::parse_env(&["algo", "load", "warmup", "cycles", "mem-budget-mb"], &[]);
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let algo_name = args.get("algo").unwrap_or("DimWAR").to_string();
    let load: f64 = args.get_or("load", 0.02);
    let warmup: u64 = args.get_or("warmup", 500);
    let cycles: u64 = args.get_or("cycles", 1_500);
    let mem_budget_mb: Option<u64> = args.get("mem-budget-mb").map(|s| {
        s.parse()
            .unwrap_or_else(|e| panic!("bad --mem-budget-mb: {e}"))
    });

    // The scale ladder: t=16 terminals per router, width stepping the
    // terminal count 1k -> 100k+. The first rung instead runs the 4x4x4
    // t=4 evaluation network at load 0.1, so every output file carries a
    // same-host reading of the evaluation size next to the ladder.
    let mut ladder = vec![
        Rung {
            name: "baseline-4x4x4",
            dims: 3,
            width: 4,
            terms: 4,
            load: 0.1,
            warmup: 2_000,
            cycles: 6_000,
            algo: Some("OmniWAR"),
        },
        Rung {
            name: "1k",
            dims: 3,
            width: 4,
            terms: 16,
            load,
            warmup,
            cycles,
            algo: None,
        },
        Rung {
            name: "8k",
            dims: 3,
            width: 8,
            terms: 16,
            load,
            warmup,
            cycles,
            algo: None,
        },
        Rung {
            name: "27k",
            dims: 3,
            width: 12,
            terms: 16,
            load,
            warmup,
            cycles,
            algo: None,
        },
        Rung {
            name: "65k",
            dims: 3,
            width: 16,
            terms: 16,
            load,
            warmup,
            cycles,
            algo: None,
        },
    ];
    if common.full {
        ladder.push(Rung {
            name: "109k",
            dims: 3,
            width: 19,
            terms: 16,
            load,
            warmup,
            cycles,
            algo: None,
        });
    }

    eprintln!(
        "fig2_sim: {algo_name} UR, event engine, {} rungs up to {} terminals",
        ladder.len(),
        ladder.last().map_or(0, |r| r.width.pow(3) * r.terms),
    );

    let mut results = Vec::new();
    let mut over_budget = false;
    for rung in &ladder {
        let p = run_point(rung, &algo_name, common.seed, Engine::Event);
        let peak_mb = p.peak_alloc_bytes as f64 / (1024.0 * 1024.0);
        let eps_str = p
            .events_per_sec
            .map_or("-".to_string(), |e| format!("{e:.0}"));
        eprintln!(
            "  {:>14}: {:>7} terminals  construct {:.2}s  run {:.2}s  \
             {:.0} c/s  {eps_str} ev/s  peak {peak_mb:.1} MiB",
            p.name, p.terminals, p.construct_seconds, p.run_seconds, p.cycles_per_sec,
        );
        if let Some(budget) = mem_budget_mb {
            if peak_mb > budget as f64 {
                eprintln!(
                    "ERROR: {} exceeded the {budget} MiB budget ({peak_mb:.1} MiB)",
                    p.name
                );
                over_budget = true;
            }
        }
        results.push(p);
    }

    let report = Report {
        algo: algo_name,
        engine: "event".to_string(),
        seed: common.seed,
        host_cpus,
        mem_budget_mb,
        results,
    };
    let json = hxsim::versioned_json_row(&report);
    match common.json.as_deref() {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    if over_budget {
        std::process::exit(1);
    }
}
