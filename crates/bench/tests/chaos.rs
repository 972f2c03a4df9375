//! Chaos-campaign acceptance: under the committed
//! `experiments/chaos_reduced.toml` storm — bit-error corruption on every
//! cable, two flapping links, one degraded link, and (on half the points)
//! one router killed mid-run — every fault-aware algorithm must reach
//! 100% logical delivery. On the transient-only points the transport must
//! record **zero retransmits**: the link-level retry sublayer recovers
//! corruption and flaps entirely below it. Everything stays bit-identical
//! across both engines.
//!
//! The CI chaos-smoke job sweeps the same spec, so the gate here and the
//! gate there cannot drift apart.

use std::sync::OnceLock;

use hxharness::{parse_json, run_sweep, ExperimentSpec, SweepOpts, Value};
use hxsim::Engine;

fn spec() -> ExperimentSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../experiments/chaos_reduced.toml"
    );
    ExperimentSpec::load(path).expect("committed spec loads")
}

fn sweep_rows(engine: Engine) -> Vec<String> {
    let mut spec = spec();
    spec.sim.engine = engine;
    let report = run_sweep(&spec, None, None, &SweepOpts::default()).expect("sweep runs");
    assert!(report.complete && report.failed.is_empty());
    report.rows
}

/// The event-engine sweep is shared across tests (sweeps of a
/// 256-terminal network are not free).
fn rows_event() -> &'static [String] {
    static ROWS: OnceLock<Vec<String>> = OnceLock::new();
    ROWS.get_or_init(|| sweep_rows(Engine::Event))
}

fn num(v: &Value, k: &str) -> f64 {
    v.get(k)
        .and_then(|x| x.as_f64())
        .unwrap_or_else(|| panic!("row missing {k}"))
}

#[test]
fn chaos_storm_recovers_below_transport() {
    let spec = spec();
    let points = spec.expand();
    assert_eq!(points.len(), 6, "3 algorithms x router_fails {{0, 1}}");
    assert!(spec.sim.llr_enabled && spec.sim.error_ber > 0.0);
    assert!(spec.fault.flap_links >= 2 && spec.fault.degrade_links >= 1);

    for (p, line) in points.iter().zip(rows_event()) {
        let v = parse_json(line).expect("row is valid JSON");
        assert_eq!(
            v.get("algo").and_then(|x| x.as_str()),
            Some(p.algo.as_str())
        );

        // Invariant: 100% logical delivery, nothing dropped or abandoned.
        assert_eq!(
            num(&v, "delivered_fraction"),
            1.0,
            "{} (router_fails={}): storm must lose nothing, got: {line}",
            p.algo,
            p.router_fails
        );
        let sent = num(&v, "logical_sent");
        assert!(sent > 0.0, "{}: transport saw traffic", p.algo);
        assert_eq!(num(&v, "logical_delivered"), sent);
        assert_eq!(num(&v, "abandoned"), 0.0, "{}: no packet given up", p.algo);
        assert_eq!(
            v.get("wedged").and_then(|x| x.as_bool()),
            Some(false),
            "{}: watchdog must stay quiet",
            p.algo
        );

        // The storm must actually exercise the gray-failure layer.
        assert!(
            num(&v, "crc_errors") > 0.0,
            "{}: BER produced no corruption — storm is vacuous: {line}",
            p.algo
        );
        assert!(num(&v, "llr_replays") > 0.0, "{}: no LLR recovery", p.algo);
        assert!(
            num(&v, "flaps_survived") > 0.0,
            "{}: no flap down-edges landed",
            p.algo
        );

        // The headline: on transient-only storms the transport never has
        // to fire — corruption and flaps are recovered by link-level
        // retry alone.
        if p.router_fails == 0 {
            assert_eq!(
                num(&v, "retransmits"),
                0.0,
                "{}: transient-only storm leaked into the transport: {line}",
                p.algo
            );
        }
    }
}

#[test]
fn chaos_rows_bit_identical_across_engines() {
    // The row digest excludes the engine choice, so byte-equal rows mean
    // byte-equal results.
    assert_eq!(
        rows_event(),
        sweep_rows(Engine::Cycle),
        "engines must agree under the chaos storm"
    );
}
