//! Golden snapshot for the event-driven engine at low load — the regime
//! the engine is built for (few live endpoints, long idle gaps between
//! wakes). The committed JSONL pins the exact metric stream a fixed
//! low-load run produces; the cycle engine produced the same bytes when it
//! was blessed, and debug builds audit the event engine's calendar on
//! every executed cycle and every dead-cycle skip of the run. Regenerate
//! with `HX_BLESS=1 cargo test` after an intentional format change.

use std::sync::Arc;

use hxcore::{hyperx_algorithm, RoutingAlgorithm};
use hxsim::{Engine, MetricsConfig, Sim, SimConfig};
use hxtopo::{HyperX, Topology};
use hxtraffic::{pattern_by_name, SyntheticWorkload};

fn metric_stream() -> String {
    let hx = Arc::new(HyperX::uniform(2, 3, 2));
    let algo: Arc<dyn RoutingAlgorithm> = hyperx_algorithm("OmniWAR", hx.clone(), 8)
        .expect("OmniWAR")
        .into();
    let cfg = SimConfig {
        buf_flits: 32,
        crossbar_latency: 5,
        router_chan_latency: 8,
        term_chan_latency: 2,
        engine: Engine::Event,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(hx.clone(), algo, cfg, 42);
    sim.enable_metrics(MetricsConfig {
        sample_interval: 200,
        timers: false,
    });
    let pat = pattern_by_name("UR", hx.clone()).expect("UR pattern");
    let mut traffic = SyntheticWorkload::new(pat, hx.num_terminals(), 0.1, 42);
    sim.run(&mut traffic, 800);
    sim.metrics().unwrap().deterministic_jsonl()
}

#[test]
fn golden_event_core_lowload_matches_snapshot() {
    let got = metric_stream();
    assert!(!got.is_empty());

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/event_core_lowload.jsonl"
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
        "event-engine metric stream diverged from the golden snapshot; \
         if intentional, regenerate with HX_BLESS=1"
    );
}
