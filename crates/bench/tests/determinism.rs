//! Sweep-runner determinism: a reduced `fig6_synthetic`-style sweep must
//! produce bit-identical results — `LoadPoint` values and metric-stream
//! digests — regardless of how many `parallel_map_threads` workers
//! execute it.
//! Each work item owns its seeded `Sim`, so scheduling order must not leak
//! into any output.

use std::sync::Arc;

use hxbench::parallel_map_threads;
use hxcore::hyperx_algorithm;
use hxsim::{run_steady_state, MetricsConfig, Sim, SimConfig, SteadyOpts};
use hxtopo::{HyperX, Topology};
use hxtraffic::{pattern_by_name, SyntheticWorkload};

/// Bit-exact fingerprint of one run: every `LoadPoint` float as raw bits,
/// the integer fields, and the deterministic metrics digest.
#[derive(Debug, PartialEq, Eq, Clone)]
struct RunDigest {
    offered: u64,
    accepted: u64,
    mean_latency: u64,
    p50: u64,
    p99: u64,
    mean_hops: u64,
    saturated: bool,
    delivered: u64,
    metrics: u64,
}

fn sweep(threads: usize) -> Vec<RunDigest> {
    let hx = Arc::new(HyperX::uniform(2, 3, 2));
    let cfg = SimConfig {
        buf_flits: 32,
        crossbar_latency: 5,
        router_chan_latency: 8,
        term_chan_latency: 2,
        ..SimConfig::default()
    };
    let opts = SteadyOpts {
        warmup_window: 400,
        max_warmup_windows: 3,
        measure_cycles: 800,
        stability_tol: 0.12,
    };
    let mut work = Vec::new();
    for algo in ["DOR", "DimWAR", "OmniWAR"] {
        for load in [0.1f64, 0.3] {
            work.push((algo, load));
        }
    }
    parallel_map_threads(work, threads, |(algo_name, load)| {
        let algo: Arc<dyn hxcore::RoutingAlgorithm> = hyperx_algorithm(algo_name, hx.clone(), 8)
            .expect("known algorithm")
            .into();
        let mut sim = Sim::new(hx.clone(), algo, cfg, 7);
        sim.enable_metrics(MetricsConfig {
            sample_interval: 200,
            timers: false,
        });
        let pattern = pattern_by_name("UR", hx.clone()).expect("UR pattern");
        let mut traffic = SyntheticWorkload::new(pattern, hx.num_terminals(), load, 7);
        let p = run_steady_state(&mut sim, &mut traffic, load, opts);
        RunDigest {
            offered: p.offered.to_bits(),
            accepted: p.accepted.to_bits(),
            mean_latency: p.mean_latency.to_bits(),
            p50: p.p50_latency.to_bits(),
            p99: p.p99_latency.to_bits(),
            mean_hops: p.mean_hops.to_bits(),
            saturated: p.saturated,
            delivered: p.delivered_packets,
            metrics: sim.metrics().expect("metrics enabled").digest(),
        }
    })
}

#[test]
fn sweep_results_identical_across_thread_counts() {
    let single = sweep(1);
    assert_eq!(single.len(), 6);
    for threads in [2, 3, 5] {
        let multi = sweep(threads);
        assert_eq!(
            single, multi,
            "sweep output depends on thread count ({threads} threads)"
        );
    }
}
