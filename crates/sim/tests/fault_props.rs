//! Property tests for the fault layer: an *arbitrary* interleaving of
//! kill/revive events — links and whole routers, in any order, including
//! double-kills, revives of healthy targets, and strikes landing on the
//! same cycle — must never violate credit-based flow-control conservation
//! and must never leave the event engine's calendar behind the state the
//! faults and their fallout rewrote (debug builds audit the calendar on
//! every executed cycle and every dead-cycle skip, fault cycles
//! included). Unlike `engine_equiv.rs`'s
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

/// Runs the schedule on the event engine under random traffic plus a
/// drain window, and asserts the flow-control audit is clean at the end
/// (debug builds also audit flow control and the calendar inside
/// `Sim::run`).
fn run(hx: &Arc<HyperX>, events: &[RawEvent]) {
    let cfg = SimConfig {
        engine: Engine::Event,
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: for any interleaving of link and router
    /// kill/revive events, credits stay conserved and the calendar audit
    /// stays clean.
    #[test]
    fn arbitrary_kill_revive_interleavings_conserve_credits_and_the_calendar(
        raw in prop::collection::vec(
            (1u64..650, any::<u8>(), any::<usize>(), any::<usize>()),
            1..12,
        ),
    ) {
        let events: Vec<RawEvent> = raw
            .iter()
            .map(|&(cycle, kind, a, b)| RawEvent { cycle, kind, a, b })
            .collect();
        run(&Arc::new(HyperX::uniform(2, 3, 1)), &events);
    }
}
