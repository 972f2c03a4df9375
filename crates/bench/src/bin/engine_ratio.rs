//! Wall-clock speed of the event-driven engine against the cycle engine.
//! `hxperf` (`perf/README.md`) carries the tracked number
//! (`sim.engine_ratio`) at 256 and 8,192 terminals; this binary measures
//! it at the paper's 4,096-terminal size (`--full`) and across loads. Its
//! output is a measurement of the host it ran on, not a committed baseline
//! — quote a ratio only together with the load, the size and `host_cpus`.
//!
//! Runs the *same* seeded simulation — default 4x4x4 HyperX, OmniWAR,
//! uniform random traffic — once per (load, engine), timing each run and
//! asserting that every run of the same load's end-of-run statistics are
//! bit-identical (the engines' core guarantee: the event engine reproduces
//! the cycle-stepped run exactly). Runs execute one at a time, so each
//! timing owns the whole machine.
//!
//! ```text
//! cargo run --release -p hxbench --bin engine_ratio -- \
//!     [--engines-list cycle,event] [--loads-list 0.1,0.3,0.7] \
//!     [--warmup 2000] [--cycles 6000] [--algo OmniWAR] [--seed 1] \
//!     [--full] [--json out.json]
//! ```
//!
//! `--load X` is shorthand for a single-entry `--loads-list`. Per run the
//! JSON records wall seconds, cycles/sec, endpoint-tick events/sec (`null`
//! for the cycle engine, which has no event queue) and speedup vs the
//! cycle engine at the same load (`NaN` when the cycle engine has not run
//! at that load yet — list it first).

use std::sync::Arc;
use std::time::Instant;

use hxbench::{evaluation_hyperx, CommonArgs};
use hxcore::hyperx_algorithm;
use hxsim::{Engine, Sim, SimConfig};
use hxtopo::Topology;
use hxtraffic::{pattern_by_name, SyntheticWorkload};
use serde::Serialize;

#[derive(Serialize)]
struct RunResult {
    engine: String,
    load: f64,
    seconds: f64,
    cycles_per_sec: f64,
    /// Endpoint-tick events the event queue dispatched per second.
    /// `null` for the cycle engine: it ticks everything every cycle, so
    /// there is no event rate to report (a `0.0` here would read as a
    /// measured-but-idle queue).
    events_per_sec: Option<f64>,
    /// Speedup vs the cycle-stepped run at the same load.
    speedup_vs_cycle: f64,
}

#[derive(Serialize)]
struct Report {
    topology: String,
    algo: String,
    loads: Vec<f64>,
    warmup_cycles: u64,
    measure_cycles: u64,
    seed: u64,
    host_cpus: usize,
    digests_identical: bool,
    results: Vec<RunResult>,
}

/// End-of-run fingerprint: the integer `Stats` totals. Any divergence
/// between engines is a determinism bug, not a measurement artifact.
fn fingerprint(sim: &Sim) -> Vec<u64> {
    let s = &sim.stats;
    vec![
        s.total_generated_flits,
        s.total_delivered_flits,
        s.total_delivered_packets,
        s.latency_sum,
        s.net_latency_sum,
        s.latency_max,
        s.hops_sum,
        s.dropped_flits,
        s.flit_moves,
    ]
}

fn parse_engine(s: &str) -> Engine {
    match s.trim().to_ascii_lowercase().as_str() {
        "cycle" => Engine::Cycle,
        "event" => Engine::Event,
        other => panic!("unknown engine {other:?} (expected cycle or event)"),
    }
}

fn main() {
    let (common, args) = CommonArgs::parse_env(
        &[
            "warmup",
            "cycles",
            "algo",
            "loads-list",
            "load",
            "engines-list",
        ],
        &[],
    );
    let (full, seed) = (common.full, common.seed);
    let warmup: u64 = args.get_or("warmup", 2_000);
    let cycles: u64 = args.get_or("cycles", 6_000);
    let algo_name = args.get("algo").unwrap_or("OmniWAR").to_string();
    let loads: Vec<f64> = args
        .get("loads-list")
        .map(|s| {
            s.split(',')
                .map(|v| v.parse().expect("bad --loads-list"))
                .collect()
        })
        .unwrap_or_else(|| vec![args.get_or("load", 0.7)]);
    let engines: Vec<Engine> = args
        .get("engines-list")
        .map(|s| s.split(',').map(parse_engine).collect())
        .unwrap_or_else(|| vec![Engine::Cycle, Engine::Event]);
    let hx = evaluation_hyperx(full);
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    eprintln!(
        "engine_ratio: {} ({} terminals), {algo_name} UR loads {loads:?}, \
         {warmup}+{cycles} cycles, engines {}, {host_cpus} host cpus",
        hx.name(),
        hx.num_terminals(),
        engines
            .iter()
            .map(|e| format!("{e:?}"))
            .collect::<Vec<_>>()
            .join(","),
    );

    let mut digests_identical = true;
    let mut results = Vec::new();
    for &load in &loads {
        let mut load_fp: Option<Vec<u64>> = None;
        let mut cycle_secs = None;
        for &engine in &engines {
            let cfg = SimConfig {
                engine,
                ..SimConfig::default()
            };
            let algo: Arc<dyn hxcore::RoutingAlgorithm> =
                hyperx_algorithm(&algo_name, hx.clone(), cfg.num_vcs)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .into();
            let mut sim = Sim::new(hx.clone(), algo, cfg, seed);
            let pat = pattern_by_name("UR", hx.clone()).expect("UR pattern");
            let mut traffic = SyntheticWorkload::new(pat, hx.num_terminals(), load, seed);

            let t0 = Instant::now();
            sim.run(&mut traffic, warmup + cycles);
            let secs = t0.elapsed().as_secs_f64();

            let fp = fingerprint(&sim);
            match &load_fp {
                None => load_fp = Some(fp),
                Some(base) => {
                    if *base != fp {
                        digests_identical = false;
                        eprintln!("ERROR: {engine:?} run diverged at load {load}");
                    }
                }
            }
            if engine == Engine::Cycle {
                cycle_secs = Some(secs);
            }
            let vs_cycle = cycle_secs.map_or(f64::NAN, |s| s / secs);
            let cps = (warmup + cycles) as f64 / secs;
            let eps = (engine == Engine::Event).then(|| sim.events_processed() as f64 / secs);
            let eps_str = eps.map_or("-".to_string(), |e| format!("{e:.0}"));
            eprintln!(
                "  {engine:?} load {load}: {secs:.3}s  {cps:.0} c/s  {eps_str} ev/s  \
                 vs-cycle {vs_cycle:.2}x"
            );
            results.push(RunResult {
                engine: format!("{engine:?}").to_ascii_lowercase(),
                load,
                seconds: secs,
                cycles_per_sec: cps,
                events_per_sec: eps,
                speedup_vs_cycle: vs_cycle,
            });
        }
    }
    assert!(digests_identical, "engines produced divergent results");

    let report = Report {
        topology: hx.name(),
        algo: algo_name,
        loads,
        warmup_cycles: warmup,
        measure_cycles: cycles,
        seed,
        host_cpus,
        digests_identical,
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
}
