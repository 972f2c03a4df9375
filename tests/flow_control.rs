//! Flow-control soundness under load: mid-flight credit accounting must
//! balance exactly (see `Network::audit_flow_control`), and a drained
//! network must be strictly quiescent with full credits everywhere.

use std::sync::Arc;

use hyperx::routing::{hyperx_algorithm, RoutingAlgorithm};
use hyperx::sim::{FaultSchedule, IdleWorkload, Sim, SimConfig};
use hyperx::topo::{HyperX, Topology};
use hyperx::traffic::{pattern_by_name, SyntheticWorkload};

/// Audit the credit ledger every 250 cycles of a loaded adversarial run,
/// for a representative algorithm of every deadlock-avoidance family.
#[test]
fn credit_ledger_balances_under_load() {
    for algo_name in ["DOR", "UGAL", "DimWAR", "OmniWAR"] {
        let hx = Arc::new(HyperX::uniform(3, 3, 3));
        let algo: Arc<dyn RoutingAlgorithm> =
            hyperx_algorithm(algo_name, hx.clone(), 8).unwrap().into();
        let mut sim = Sim::new(hx.clone(), algo, SimConfig::default(), 17);
        let pattern = pattern_by_name("UR", hx.clone()).unwrap();
        let mut traffic = SyntheticWorkload::new(pattern, hx.num_terminals(), 0.7, 17);
        for _ in 0..16 {
            sim.run(&mut traffic, 250);
            let errs = sim.net.audit_flow_control(&sim.pool);
            assert!(
                errs.is_empty(),
                "{algo_name}: flow-control violations: {:?}",
                &errs[..errs.len().min(5)]
            );
        }
    }
}

/// After the workload stops and the network drains, every credit must be
/// home: quiescence is strict, and the audit balances at zero claims.
#[test]
fn drain_restores_full_credits() {
    let hx = Arc::new(HyperX::uniform(3, 3, 2));
    let algo: Arc<dyn RoutingAlgorithm> =
        hyperx_algorithm("OmniWAR", hx.clone(), 8).unwrap().into();
    let mut sim = Sim::new(hx.clone(), algo, SimConfig::default(), 23);
    let pattern = pattern_by_name("UR", hx.clone()).unwrap();
    let mut traffic = SyntheticWorkload::new(pattern, hx.num_terminals(), 0.6, 23);
    sim.run(&mut traffic, 3_000);
    // Stop injecting; let everything drain.
    sim.run(&mut IdleWorkload, 30_000);
    assert!(sim.net.is_drained(), "network failed to drain");
    assert!(
        sim.net.is_quiescent(),
        "credits still in flight after drain"
    );
    assert_eq!(sim.pool.live(), 0, "leaked packets");
    assert!(sim.net.audit_flow_control(&sim.pool).is_empty());
    // Every router-to-router VC holds its full credit allotment again.
    let cap = sim.net.cfg.buf_flits as u32;
    for r in 0..hx.num_routers() {
        let router = sim.net.router(r);
        for p in hx.terms_per_router()..hx.num_ports(r) {
            for vc in 0..8 {
                assert_eq!(router.credits(p, vc), cap, "router {r} port {p} vc {vc}");
            }
        }
    }
}

/// The routers' derived allocation state (per-port occupancy counter,
/// routed-prefix counts; see `Network::audit_flow_control`) must follow
/// the credits and queues through its two non-obvious update sites: the
/// clamped refund when a poisoned packet is reaped and the credit rebuild
/// at a revival. A saturated 4x4x4 DimWAR network under DCR 0.9 loses and
/// regains a link and a router mid-run; the audit is called here, after
/// every cycle with no poison pending, so release builds (where the
/// simulator's own per-cycle audit is compiled out) check the same.
#[test]
fn derived_router_state_survives_faults_at_saturation() {
    let hx = Arc::new(HyperX::uniform(3, 4, 4));
    let algo: Arc<dyn RoutingAlgorithm> = hyperx_algorithm("DimWAR", hx.clone(), 8).unwrap().into();
    let mut sim = Sim::new(hx.clone(), algo, SimConfig::default(), 5);
    let port = hx.terms_per_router(); // router 21's first network port
    let faults = [400, 1_000, 1_600, 1_900];
    sim.set_fault_schedule(
        FaultSchedule::new()
            .kill_link_at(faults[0], 21, port)
            .kill_router_at(faults[1], 42)
            .revive_link_at(faults[2], 21, port)
            .revive_router_at(faults[3], 42),
    );
    let pattern = pattern_by_name("DCR", hx.clone()).unwrap();
    let mut traffic = SyntheticWorkload::new(pattern, hx.num_terminals(), 0.9, 5);
    // Audited cycles before the first fault, between each two, after the last.
    let mut audited = [0u32; 5];
    for cycle in 0..2_300 {
        sim.step(&mut traffic);
        if !sim.pool.any_poisoned() {
            let errs = sim.net.audit_flow_control(&sim.pool);
            assert!(
                errs.is_empty(),
                "cycle {cycle}: {:?}",
                &errs[..errs.len().min(5)]
            );
            audited[faults.iter().filter(|&&f| cycle >= f).count()] += 1;
        }
    }
    assert!(sim.stats.dropped_packets > 0, "the faults hit no traffic");
    assert!(
        audited.iter().all(|&n| n > 0),
        "poison-free cycles per fault window: {audited:?}"
    );
}
