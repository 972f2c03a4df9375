//! Wall-clock speedup of the deterministic parallel tick and the
//! event-driven engine. `hxperf` (`perf/README.md`) carries the tracked
//! numbers (`sim.tick2_ratio`, `sim.engine_ratio`) at 256 and 8,192
//! terminals; this binary is what measures thread scaling at the paper's
//! 4,096-terminal size (`--full`). Its output is a measurement of the host
//! it ran on, not a committed baseline — quote a ratio only together with
//! the load, the size and `host_cpus`.
//!
//! Runs the *same* seeded simulation — default 4x4x4 HyperX, OmniWAR,
//! uniform random traffic — once per (engine, load, thread count), timing
//! each run and asserting that every run of the same load's end-of-run
//! statistics are bit-identical (the engines' core guarantee: the event
//! engine and any thread count reproduce the serial cycle-stepped run
//! exactly). Runs execute one at a time, so each timing owns the whole
//! machine.
//!
//! ```text
//! cargo run --release -p hxbench --bin parallel_tick -- \
//!     [--threads-list 1,2,4] [--engines-list cycle,event] \
//!     [--loads-list 0.1,0.3,0.7] [--warmup 2000] [--cycles 6000] \
//!     [--algo OmniWAR] [--seed 1] [--full] [--allow-oversubscribe] \
//!     [--json out.json]
//! ```
//!
//! The uniform `--threads N` / `--load X` switches are shorthand for
//! single-entry lists. Thread counts above the host CPU count are clamped
//! (oversubscription never changes results, only slows them down) unless
//! `--allow-oversubscribe` is given; every row records both the requested
//! and the effective count. Per run the JSON records wall seconds,
//! cycles/sec, endpoint-tick events/sec (`null` for the cycle engine,
//! which has no event queue), speedup vs the serial run of the same
//! engine and load, and speedup vs the serial *cycle* engine at the same
//! load — the low-load curve the event core is sized against. `host_cpus`
//! qualifies the thread scaling: it is only meaningful with at least as
//! many cores as threads.

use std::sync::Arc;
use std::time::Instant;

use hxbench::{evaluation_config, evaluation_hyperx, Args, CommonArgs};
use hxcore::hyperx_algorithm;
use hxsim::{Engine, Sim};
use hxtopo::Topology;
use hxtraffic::{pattern_by_name, SyntheticWorkload};
use serde::Serialize;

#[derive(Serialize)]
struct RunResult {
    engine: String,
    load: f64,
    /// Requested tick-thread count (`--threads-list` entry).
    threads: usize,
    /// Thread count the run actually used, after the host-CPU clamp.
    threads_effective: usize,
    seconds: f64,
    cycles_per_sec: f64,
    /// Endpoint-tick events the event queue dispatched per second.
    /// `null` for the cycle engine: it ticks everything every cycle, so
    /// there is no event rate to report (a `0.0` here would read as a
    /// measured-but-idle queue).
    events_per_sec: Option<f64>,
    /// Speedup vs this engine's own serial run at the same load.
    speedup_vs_serial: f64,
    /// Speedup vs the serial cycle-stepped run at the same load.
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
/// between engines or thread counts is a determinism bug, not a
/// measurement artifact.
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
    let args = Args::parse();
    let common = CommonArgs::parse(&args);
    let (full, seed) = (common.full, common.seed);
    let allow_oversub = args.flag("allow-oversubscribe");
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
    let threads_list: Vec<usize> = args
        .get("threads-list")
        .map(|s| {
            s.split(',')
                .map(|v| v.parse().expect("bad --threads-list"))
                .collect()
        })
        .or_else(|| args.get("threads").map(|_| vec![common.threads]))
        .unwrap_or_else(|| vec![1, 2, 4]);

    let hx = evaluation_hyperx(full);
    let host_cpus = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    eprintln!(
        "parallel_tick: {} ({} terminals), {algo_name} UR loads {loads:?}, \
         {warmup}+{cycles} cycles, engines {}, threads {threads_list:?}, {host_cpus} host cpus",
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
        let mut cycle_serial_secs = None;
        for &engine in &engines {
            let mut serial_secs = None;
            for &threads in &threads_list {
                let (threads_effective, _) = hxbench::clamp_threads(threads, allow_oversub);
                let mut cfg = evaluation_config();
                cfg.tick_threads = threads_effective;
                cfg.engine = engine;
                let algo: Arc<dyn hxcore::RoutingAlgorithm> =
                    hyperx_algorithm(&algo_name, hx.clone(), cfg.num_vcs)
                        .unwrap_or_else(|| panic!("unknown algorithm {algo_name}"))
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
                            eprintln!(
                                "ERROR: {engine:?}/{threads}-thread run diverged at load {load}"
                            );
                        }
                    }
                }
                if threads == 1 {
                    serial_secs = Some(secs);
                    if engine == Engine::Cycle {
                        cycle_serial_secs = Some(secs);
                    }
                }
                let speedup = serial_secs.map_or(f64::NAN, |s| s / secs);
                let vs_cycle = cycle_serial_secs.map_or(f64::NAN, |s| s / secs);
                let cps = (warmup + cycles) as f64 / secs;
                let eps = (engine == Engine::Event).then(|| sim.events_processed() as f64 / secs);
                let eps_str = eps.map_or("-".to_string(), |e| format!("{e:.0}"));
                eprintln!(
                    "  {engine:?} load {load} {threads_effective} threads: {secs:.3}s  \
                     {cps:.0} c/s  {eps_str} ev/s  speedup {speedup:.2}x  vs-cycle {vs_cycle:.2}x"
                );
                results.push(RunResult {
                    engine: format!("{engine:?}").to_ascii_lowercase(),
                    load,
                    threads,
                    threads_effective,
                    seconds: secs,
                    cycles_per_sec: cps,
                    events_per_sec: eps,
                    speedup_vs_serial: speedup,
                    speedup_vs_cycle: vs_cycle,
                });
            }
        }
    }
    assert!(
        digests_identical,
        "engines/thread counts produced divergent results"
    );

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
