//! Pins the steady-state tick allocation-free on both engines (they share
//! one tick body, so both must hold together).
//!
//! The scale refactor's contract: once a simulation reaches steady state
//! (every router materialized, the flit-buffer arena and hint buffer grown
//! to their working size, the event queue warm), ticking allocates
//! *nothing* — all per-tick scratch is recycled. This is what lets the
//! 100k-terminal runs in `fig2_sim` spend their time simulating instead of
//! in the allocator, and it is easy to regress silently (one `Vec::new()`
//! in a hot path). The counting allocator makes it a hard assertion.
//!
//! One `#[test]` only: the counter is process-global, so a second test
//! running on another thread would perturb the delta. Traffic must be
//! *periodic*, not random: Bernoulli traffic keeps setting new occupancy
//! records forever (each record grows some queue's capacity — a trickle
//! of allocations that decays but never reaches zero), while a periodic
//! pattern revisits the same working set every period, so one warmup
//! pass over all phases pins every capacity at its true maximum.

use std::sync::Arc;

use hxcore::hyperx_algorithm;
use hxsim::{CountingAllocator, Engine, IdleWorkload, PacketDesc, Sim, SimConfig, Workload};
use hxtopo::{HyperX, Topology};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Deterministic rotating traffic at flit load 0.1: each terminal sends
/// one 4-flit packet every 40 cycles (staggered by source id), to a
/// destination offset that rotates through every non-self peer. The full
/// pattern repeats every `40 * (n - 1)` cycles.
struct RotatingTraffic {
    n: usize,
    tag: u64,
}

impl Workload for RotatingTraffic {
    fn pre_cycle(&mut self, now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
        let n = self.n as u64;
        for src in 0..n {
            if (now + src).is_multiple_of(40) {
                let offset = 1 + (now / 40) % (n - 1);
                let dst = (src + offset) % n;
                self.tag += 1;
                inject(PacketDesc {
                    src: src as u32,
                    dst: dst as u32,
                    len: 4,
                    tag: self.tag,
                });
            }
        }
    }
}

/// One warmed steady-state phase on `engine`; returns the allocation
/// delta over the measured window.
fn measure_phase(engine: Engine) -> u64 {
    let hx = Arc::new(HyperX::uniform(2, 3, 2));
    let cfg = SimConfig {
        engine,
        ..SimConfig::default()
    };
    let algo: Arc<dyn hxcore::RoutingAlgorithm> =
        hyperx_algorithm("DimWAR", hx.clone(), cfg.num_vcs)
            .unwrap()
            .into();
    let mut sim = Sim::new(hx.clone(), algo, cfg, 42);
    let mut traffic = RotatingTraffic {
        n: hx.num_terminals(),
        tag: 0,
    };

    // Warm up until every queue capacity has seen its true maximum.
    // The pattern period is 40 * 17 = 680 cycles (18 terminals), but the
    // event/channel wheels hash cycles into 256 slots, so a given slot
    // only sees every traffic phase after lcm(680, 256) = 21,760 cycles —
    // until then each new (slot, phase) pairing can set a capacity
    // record. One full lcm plus slack pins everything.
    sim.run(&mut traffic, 24_000);

    let before = ALLOC.allocations();
    sim.run(&mut traffic, 2_000);
    let delta = ALLOC.allocations() - before;

    // The run must have been doing real work, not idling.
    assert!(
        sim.stats.total_delivered_packets > 100,
        "too little traffic to trust the allocation check ({} packets)",
        sim.stats.total_delivered_packets
    );

    // Draining afterwards keeps the simulation healthy (sanity check that
    // the measured window wasn't wedged).
    sim.run(&mut IdleWorkload, 4_000);
    assert!(sim.net.is_drained(), "network failed to drain");
    delta
}

#[test]
fn steady_state_tick_is_allocation_free() {
    let event = measure_phase(Engine::Event);
    assert_eq!(
        event, 0,
        "event engine steady-state ticking allocated {event} times over 2000 cycles"
    );

    // The cycle engine runs the same tick body over its fixed due set.
    let cycle = measure_phase(Engine::Cycle);
    assert_eq!(
        cycle, 0,
        "cycle engine steady-state ticking allocated {cycle} times over 2000 cycles"
    );
}
