//! Determinism / golden harness for the cycle-level observability layer.
//!
//! Pins the three contracts the metrics subsystem ships with:
//! (a) identical seeds yield bit-identical metric streams,
//! (b) enabling metric collection changes no simulation result
//!     (`LoadPoint` values are byte-identical with metrics on or off),
//! (c) DimWAR's measured deroute behavior respects the paper's bound of
//!     at most one deroute per dimension per packet, even under
//!     adversarial traffic.
//! Plus a golden test: a tiny fixed run's deterministic JSONL must match
//! the committed snapshot exactly (regenerate with `HX_BLESS=1`).

use std::sync::Arc;

use hxcore::{hyperx_algorithm, RoutingAlgorithm};
use hxsim::{
    run_steady_state, IdleWorkload, LoadPoint, MetricsConfig, PacketDesc, Sim, SimConfig,
    SteadyOpts,
};
use hxtopo::{HyperX, Topology};
use hxtraffic::{pattern_by_name, SyntheticWorkload};

fn small_cfg() -> SimConfig {
    SimConfig {
        buf_flits: 32,
        crossbar_latency: 5,
        router_chan_latency: 8,
        term_chan_latency: 2,
        ..SimConfig::default()
    }
}

fn short_opts() -> SteadyOpts {
    SteadyOpts {
        warmup_window: 400,
        max_warmup_windows: 3,
        measure_cycles: 800,
        stability_tol: 0.12,
    }
}

/// Builds a sim over a 2x(3x3) HyperX with the given algorithm and seed,
/// metrics optionally enabled.
fn make_sim(algo_name: &str, seed: u64, metrics: bool) -> (Arc<HyperX>, Sim) {
    let hx = Arc::new(HyperX::uniform(2, 3, 2));
    let algo: Arc<dyn RoutingAlgorithm> = hyperx_algorithm(algo_name, hx.clone(), 8)
        .expect("known algorithm")
        .into();
    let mut sim = Sim::new(hx.clone(), algo, small_cfg(), seed);
    if metrics {
        sim.enable_metrics(MetricsConfig {
            sample_interval: 200,
            timers: false,
        });
    }
    (hx, sim)
}

fn steady_run(algo: &str, pattern: &str, load: f64, seed: u64, metrics: bool) -> (LoadPoint, Sim) {
    let (hx, mut sim) = make_sim(algo, seed, metrics);
    let pat = pattern_by_name(pattern, hx.clone()).expect("known pattern");
    let mut traffic = SyntheticWorkload::new(pat, hx.num_terminals(), load, seed);
    let point = run_steady_state(&mut sim, &mut traffic, load, short_opts());
    (point, sim)
}

/// (a) Same seed twice: the full deterministic metric stream (counters,
/// samples, events, summary) is bit-identical. A different seed diverges.
#[test]
fn identical_seeds_yield_bit_identical_metric_streams() {
    let (_, sim1) = steady_run("OmniWAR", "UR", 0.3, 11, true);
    let (_, sim2) = steady_run("OmniWAR", "UR", 0.3, 11, true);
    let s1 = sim1.metrics().unwrap().deterministic_jsonl();
    let s2 = sim2.metrics().unwrap().deterministic_jsonl();
    assert!(!s1.is_empty());
    assert_eq!(s1, s2, "same seed must reproduce the metric stream exactly");
    assert_eq!(
        sim1.metrics().unwrap().digest(),
        sim2.metrics().unwrap().digest()
    );

    let (_, sim3) = steady_run("OmniWAR", "UR", 0.3, 12, true);
    assert_ne!(
        s1,
        sim3.metrics().unwrap().deterministic_jsonl(),
        "a different seed must produce a different stream"
    );
}

/// (b) Metric collection is pure observation: every `LoadPoint` field is
/// byte-identical with metrics enabled or disabled.
#[test]
fn metrics_on_off_leaves_loadpoint_byte_identical() {
    for (algo, pattern, load) in [("DimWAR", "UR", 0.3), ("OmniWAR", "DCR", 0.2)] {
        let (off, _) = steady_run(algo, pattern, load, 5, false);
        let (on, sim) = steady_run(algo, pattern, load, 5, true);
        let m = sim.metrics().expect("metrics enabled");
        assert!(m.grants > 0, "{algo}/{pattern}: metrics saw no traffic");
        assert_eq!(off.offered.to_bits(), on.offered.to_bits());
        assert_eq!(
            off.accepted.to_bits(),
            on.accepted.to_bits(),
            "{algo}/{pattern}: accepted throughput changed"
        );
        assert_eq!(
            off.mean_latency.to_bits(),
            on.mean_latency.to_bits(),
            "{algo}/{pattern}: mean latency changed"
        );
        assert_eq!(off.p50_latency.to_bits(), on.p50_latency.to_bits());
        assert_eq!(off.p99_latency.to_bits(), on.p99_latency.to_bits());
        assert_eq!(off.mean_hops.to_bits(), on.mean_hops.to_bits());
        assert_eq!(off.saturated, on.saturated);
        assert_eq!(off.delivered_packets, on.delivered_packets);
    }
}

/// (c) DimWAR under adversarial dimension-congested-random traffic: the
/// measured deroute counts respect the paper's bound — a packet deroutes
/// at most once per dimension, so per-dimension deroutes can never exceed
/// the number of packets routed, and the total is bounded by dims x
/// packets. The path-length corollary (<= 2 hops/dimension) must hold too.
#[test]
fn dimwar_deroute_fraction_within_paper_bound_under_adversarial_traffic() {
    let dims = 3usize;
    let hx = Arc::new(HyperX::uniform(dims, 3, 2));
    let algo: Arc<dyn RoutingAlgorithm> = hyperx_algorithm("DimWAR", hx.clone(), 8)
        .expect("DimWAR")
        .into();
    let mut sim = Sim::new(hx.clone(), algo, small_cfg(), 3);
    sim.enable_metrics(MetricsConfig {
        sample_interval: 500,
        timers: false,
    });
    let pat = pattern_by_name("DCR", hx.clone()).expect("DCR pattern");
    let mut traffic = SyntheticWorkload::new(pat, hx.num_terminals(), 0.3, 3);
    sim.run(&mut traffic, 4_000);
    sim.run(&mut IdleWorkload, 20_000);

    let m = sim.metrics().expect("metrics enabled");
    // Every packet that ever received a network grant.
    let attempts =
        sim.stats.total_delivered_packets + sim.stats.dropped_packets + sim.pool.live() as u64;
    assert!(
        attempts > 100,
        "adversarial run injected too little traffic"
    );
    let per_dim = &m.deroutes[..dims];
    for (d, &n) in per_dim.iter().enumerate() {
        assert!(
            n <= attempts,
            "dimension {d}: {n} deroutes for {attempts} packets breaks the \
             <=1-deroute-per-dimension bound"
        );
    }
    assert!(
        m.deroutes_total() <= dims as u64 * attempts,
        "total deroutes {} exceed dims x packets = {}",
        m.deroutes_total(),
        dims as u64 * attempts
    );
    // DCR congests dimensions by design; DimWAR must actually deroute.
    assert!(
        m.deroutes_total() > 0,
        "DCR at 0.3 load produced no deroutes — instrumentation miswired?"
    );
    // <=1 deroute/dim also bounds the walk: at most 2 hops per dimension.
    assert!(
        sim.stats.mean_hops() <= (2 * dims) as f64,
        "mean hops {} exceed the 2/dimension ceiling",
        sim.stats.mean_hops()
    );
    // The summary view agrees with the raw counters.
    let s = m.summary();
    assert_eq!(s.deroutes_total, m.deroutes_total());
    assert_eq!(&s.deroutes_per_dim[..dims], per_dim);
    assert!(s.deroute_fraction > 0.0 && s.deroute_fraction < 1.0);
}

/// Golden test: a tiny fully-fixed run must reproduce the committed
/// deterministic JSONL byte for byte. `HX_BLESS=1 cargo test` regenerates
/// the snapshot after an intentional format/semantics change.
#[test]
fn golden_metric_stream_matches_committed_snapshot() {
    let hx = Arc::new(HyperX::uniform(2, 2, 1));
    let algo: Arc<dyn RoutingAlgorithm> = hyperx_algorithm("DimWAR", hx.clone(), 8)
        .expect("DimWAR")
        .into();
    let mut sim = Sim::new(hx.clone(), algo, small_cfg(), 42);
    sim.enable_metrics(MetricsConfig {
        sample_interval: 100,
        timers: false,
    });
    sim.mark_metrics_event("inject");
    let n = hx.num_terminals() as u32;
    for i in 0..2 * n {
        let src = i % n;
        let dst = (src + 1 + (i * 3) % (n - 1)) % n;
        sim.inject(PacketDesc {
            src,
            dst,
            len: 4,
            tag: i as u64,
        });
    }
    sim.run(&mut IdleWorkload, 400);
    sim.mark_metrics_event("done");
    let got = sim.metrics().unwrap().deterministic_jsonl();

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/observability_small.jsonl"
    );
    if std::env::var("HX_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(path, &got).expect("bless golden file");
        eprintln!("blessed {path}");
        return;
    }
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden file {path} ({e}); run with HX_BLESS=1"));
    assert_eq!(
        got, want,
        "metric stream diverged from the golden snapshot; if intentional, \
         regenerate with HX_BLESS=1"
    );
}

/// The exported stream's shape: every line is one versioned JSON object
/// with a known `kind`, `meta` first and `summary` last.
#[test]
fn jsonl_export_matches_deterministic_stream() {
    let (_, sim) = steady_run("DimWAR", "UR", 0.2, 9, true);
    let content = sim.metrics().unwrap().deterministic_jsonl();
    let prefix = format!("{{\"schema_version\":{},\"kind\":\"", hxsim::SCHEMA_VERSION);
    for line in content.lines() {
        assert!(line.starts_with(&prefix), "bad JSONL line: {line}");
        assert!(line.ends_with('}'));
    }
    let kinds: Vec<&str> = content
        .lines()
        .map(|l| {
            let rest = &l[prefix.len()..];
            &rest[..rest.find('"').unwrap()]
        })
        .collect();
    assert_eq!(kinds.first(), Some(&"meta"));
    assert_eq!(kinds.last(), Some(&"summary"));
    assert!(kinds.contains(&"net"));
    assert!(kinds.contains(&"event"));
}
