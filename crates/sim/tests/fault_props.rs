//! Property tests for the fault layer: an *arbitrary* interleaving of
//! kill/revive events — links and whole routers, in any order, including
//! double-kills, revives of healthy targets, and strikes landing on the
//! same cycle — must never violate credit-based flow-control conservation
//! and must never break the engine-equivalence guarantee (the event and
//! cycle engines produce bit-identical stats). Unlike `engine_equiv.rs`'s
//! hand-picked schedules, the interleavings here are random.
//!
//! Delivery is deliberately NOT asserted here: a hostile schedule may
//! legitimately strand packets inside dead routers. The invariants under
//! test are the ones no schedule is allowed to break.

use std::sync::Arc;

use hxsim::{Engine, FaultSchedule, IdleWorkload, PacketDesc, Sim, SimConfig, Workload};
use hxtopo::{HyperX, PortTarget, Topology};
use proptest::prelude::*;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Minimal deterministic uniform-random traffic (hxsim cannot depend on
/// hxtraffic): every terminal flips a seeded coin each cycle and, on
/// heads, offers one 4-flit packet to a uniformly random other terminal.
struct RandomTraffic {
    terminals: u32,
    rng: u64,
}

impl Workload for RandomTraffic {
    fn pre_cycle(&mut self, _now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
        for src in 0..self.terminals {
            if !splitmix64(&mut self.rng).is_multiple_of(4) {
                continue;
            }
            let dst = (splitmix64(&mut self.rng) % self.terminals as u64) as u32;
            if dst == src {
                continue;
            }
            inject(PacketDesc {
                src,
                dst,
                len: 4,
                tag: 0,
            });
        }
    }
}

/// One raw generated fault event; `a`/`b` are mapped onto a concrete
/// router and network port by modulo so every draw is valid.
#[derive(Debug, Clone, Copy)]
struct RawEvent {
    cycle: u64,
    kind: u8,
    a: usize,
    b: usize,
}

fn schedule_of(hx: &HyperX, events: &[RawEvent]) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    for e in events {
        let r = e.a % hx.num_routers();
        match e.kind % 4 {
            k @ (0 | 1) => {
                let net_ports: Vec<usize> = (0..hx.num_ports(r))
                    .filter(|&p| matches!(hx.port_target(r, p), PortTarget::Router { .. }))
                    .collect();
                let p = net_ports[e.b % net_ports.len()];
                s = if k == 0 {
                    s.kill_link_at(e.cycle, r, p)
                } else {
                    s.revive_link_at(e.cycle, r, p)
                };
            }
            2 => s = s.kill_router_at(e.cycle, r),
            _ => s = s.revive_router_at(e.cycle, r),
        }
    }
    s
}

/// Runs the schedule under random traffic plus a drain window and returns
/// the bit-exact stats fingerprint; asserts the flow-control audit is
/// clean at the end (debug builds also audit every single tick inside
/// `Sim::run`).
fn run(hx: &Arc<HyperX>, events: &[RawEvent], engine: Engine) -> Vec<u64> {
    let cfg = SimConfig {
        engine,
        ..SimConfig::default()
    };
    let algo: Arc<dyn hxcore::RoutingAlgorithm> =
        hxcore::hyperx_algorithm("OmniWAR", hx.clone(), cfg.num_vcs)
            .expect("known algorithm")
            .into();
    let mut sim = Sim::new(hx.clone(), algo, cfg, 13);
    sim.set_fault_schedule(schedule_of(hx, events));
    let mut traffic = RandomTraffic {
        terminals: hx.num_terminals() as u32,
        rng: 13,
    };
    sim.run(&mut traffic, 700);
    sim.run(&mut IdleWorkload, 300);
    let errs = sim.net.audit_flow_control(&sim.pool);
    assert!(errs.is_empty(), "credit conservation violated: {errs:?}");
    let s = &sim.stats;
    vec![
        s.total_generated_flits,
        s.total_delivered_flits,
        s.total_delivered_packets,
        s.delivered_packets,
        s.latency_sum,
        s.net_latency_sum,
        s.latency_max,
        s.hops_sum,
        s.dropped_flits,
        s.dropped_packets,
        s.fault_events,
        s.flit_moves,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: for any interleaving of link and router
    /// kill/revive events, credits stay conserved and the event engine
    /// stays bit-identical to the cycle engine.
    #[test]
    fn arbitrary_kill_revive_interleavings_conserve_credits_and_determinism(
        raw in prop::collection::vec(
            (1u64..650, any::<u8>(), any::<usize>(), any::<usize>()),
            1..12,
        ),
    ) {
        let events: Vec<RawEvent> = raw
            .iter()
            .map(|&(cycle, kind, a, b)| RawEvent { cycle, kind, a, b })
            .collect();
        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let event = run(&hx, &events, Engine::Event);
        let cycle = run(&hx, &events, Engine::Cycle);
        prop_assert_eq!(event, cycle, "stats diverge across engines");
    }
}
