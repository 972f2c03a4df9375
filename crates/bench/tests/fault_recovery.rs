//! End-to-end reliability acceptance: under a fault schedule that kills
//! one whole router AND two links mid-run (reviving them later), every
//! fault-aware algorithm — DimWAR, OmniWAR, and FT-WAR — must reach 100%
//! *logical* delivery once the source-retransmission transport is on,
//! the result rows must carry the retransmission/recovery metrics, and
//! the whole thing must stay bit-identical across both engines.
//!
//! Runs the committed `experiments/fault_recovery_reduced.toml` spec
//! (the same one CI sweeps), so the assertion here and the CI gate can
//! never drift apart.

use hxharness::{parse_json, run_sweep, ExperimentSpec, SweepOpts};
use hxsim::Engine;

fn spec() -> ExperimentSpec {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../experiments/fault_recovery_reduced.toml"
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

#[test]
fn retransmission_reaches_full_delivery_under_router_and_link_kills() {
    let spec = spec();
    let points = spec.expand();
    assert_eq!(points.len(), 3, "one point per fault-aware algorithm");
    for p in &points {
        assert!(
            p.fails >= 2 && p.router_fails >= 1,
            "schedule kills 2 links + 1 router"
        );
        assert!(p.fault.kill_cycle > 0, "faults strike mid-run");
        assert!(p.retransmit > 0, "transport is on");
    }

    let rows = sweep_rows(Engine::Event);
    for (p, line) in points.iter().zip(&rows) {
        let v = parse_json(line).expect("row is valid JSON");
        let num = |k: &str| {
            v.get(k)
                .and_then(|x| x.as_f64())
                .unwrap_or_else(|| panic!("row missing {k}: {line}"))
        };
        assert_eq!(
            v.get("algo").and_then(|x| x.as_str()),
            Some(p.algo.as_str())
        );
        assert_eq!(
            num("delivered_fraction"),
            1.0,
            "{} must recover every logical packet, got: {line}",
            p.algo
        );
        let sent = num("logical_sent");
        assert!(sent > 0.0, "{}: transport saw traffic", p.algo);
        assert_eq!(
            num("logical_delivered"),
            sent,
            "{}: every logical packet delivered",
            p.algo
        );
        // The recovery metrics must be present in the JSONL schema (their
        // values legitimately vary per algorithm — a lucky route may need
        // no retransmission at all).
        for k in [
            "retransmits",
            "duplicates_dropped",
            "recovery_p50",
            "recovery_p99",
            "goodput_overhead",
            "time_to_recover",
        ] {
            assert!(v.get(k).is_some(), "row missing {k}: {line}");
        }
        assert_eq!(num("abandoned"), 0.0, "{}: no packet given up on", p.algo);
    }
    // At least one algorithm had to actually retransmit: copies in
    // flight across the killed links/router were poisoned.
    let total_retransmits: f64 = rows
        .iter()
        .map(|l| {
            parse_json(l)
                .unwrap()
                .get("retransmits")
                .and_then(|x| x.as_f64())
                .unwrap()
        })
        .sum();
    assert!(
        total_retransmits > 0.0,
        "the schedule must force some recovery work"
    );
}

#[test]
fn recovery_sweep_is_bit_identical_across_engines() {
    assert_eq!(
        sweep_rows(Engine::Event),
        sweep_rows(Engine::Cycle),
        "the engine must not change recovery results"
    );
}
