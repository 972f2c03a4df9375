//! # hxsim — cycle-accurate flit-level interconnection network simulator
//!
//! A from-scratch Rust rebuild of the simulation substrate the SC'19
//! HyperX-routing paper evaluates on (SuperSim): credit-based virtual
//! channel flow control, virtual cut-through ("packet buffer") allocation,
//! combined input/output-queued routers with crossbar speedup, age-based
//! arbitration, and latency-bearing channels. Topology-agnostic: any
//! `hxtopo::Topology` plus any `hxcore::RoutingAlgorithm` forms a network.
//!
//! ```
//! use std::sync::Arc;
//! use hxtopo::HyperX;
//! use hxcore::DimWar;
//! use hxsim::{Sim, SimConfig, PacketDesc, IdleWorkload};
//!
//! let hx = Arc::new(HyperX::uniform(2, 3, 1));
//! let algo = Arc::new(DimWar::new(hx.clone(), 8));
//! let mut sim = Sim::new(hx, algo, SimConfig::default(), 1);
//! sim.inject(PacketDesc { src: 0, dst: 8, len: 4, tag: 0 });
//! sim.run(&mut IdleWorkload, 500);
//! assert_eq!(sim.stats.total_delivered_packets, 1);
//! ```

#[allow(unsafe_code)]
mod alloc_track;
mod channel;
mod config;
mod credit;
mod event;
mod fault;
mod metrics;
mod network;
mod packet;
mod router;
mod runner;
mod schema;
#[allow(clippy::module_inception)]
mod sim;
mod slab;
mod stats;
mod terminal;
mod trace;
mod transport;
mod workload;

pub use alloc_track::CountingAllocator;
pub use channel::{Channel, WireSlab, MAX_LATENCY};
pub use config::{CanonicalSimConfig, Engine, SimConfig, MAX_VCS};
pub use event::{EventKind, EventQueue};
pub use fault::{FaultAction, FaultEvent, FaultSchedule, RouterDiag, WatchdogReport};
pub use metrics::{
    LogHist, Metrics, MetricsConfig, MetricsSummary, NetSample, PhaseTimers, PortSample,
};
pub use network::{Network, MAX_PORTS};
pub use packet::{Flit, Packet, PacketId, PacketPool};
pub use router::Router;
pub use runner::{run_steady_state, LoadPoint, SteadyOpts};
pub use schema::{fnv1a, versioned_json_row, SCHEMA_VERSION};
pub use sim::Sim;
pub use stats::{LatencyHist, Stats};
pub use terminal::Terminal;
pub use trace::{DropReason, DropRecord, HopRecord, Trace};
pub use transport::{Transport, TransportStats, TransportSummary};
pub use workload::{Delivered, IdleWorkload, PacketDesc, Workload};

#[cfg(test)]
mod tests {
    use super::*;
    use hxcore::hyperx_algorithm;
    use hxtopo::{HyperX, Topology};
    use std::sync::Arc;

    fn small_cfg() -> SimConfig {
        SimConfig {
            buf_flits: 32,
            crossbar_latency: 5,
            router_chan_latency: 8,
            term_chan_latency: 2,
            ..SimConfig::default()
        }
    }

    /// A single packet under every algorithm reaches its destination, the
    /// network fully drains, and the hop count respects the algorithm's
    /// bound.
    #[test]
    fn single_packet_delivery_all_algorithms() {
        for name in hxcore::HYPERX_ALGORITHMS {
            let hx = Arc::new(HyperX::uniform(3, 3, 2));
            let algo: Arc<dyn hxcore::RoutingAlgorithm> =
                hyperx_algorithm(name, hx.clone(), 8).unwrap().into();
            let mut sim = Sim::new(hx.clone(), algo, small_cfg(), 7);
            let dst = (hx.num_terminals() - 1) as u32;
            sim.inject(PacketDesc {
                src: 0,
                dst,
                len: 16,
                tag: 99,
            });
            sim.run(&mut IdleWorkload, 2_000);
            assert_eq!(
                sim.stats.total_delivered_packets, 1,
                "{name}: not delivered"
            );
            assert_eq!(sim.pool.live(), 0, "{name}: packet not released");
            assert!(sim.net.is_drained(), "{name}: network not drained");
        }
    }

    /// Latency of an uncontended DOR packet matches the pipeline model:
    /// per router ~ (1 cycle alloc + xbar) and per channel its latency.
    #[test]
    fn zero_load_latency_matches_model() {
        let hx = Arc::new(HyperX::uniform(1, 3, 1));
        let algo: Arc<dyn hxcore::RoutingAlgorithm> =
            hyperx_algorithm("DOR", hx.clone(), 8).unwrap().into();
        let cfg = small_cfg();
        let mut sim = Sim::new(hx.clone(), algo, cfg, 7);
        // Terminal 0 -> router 0 -> router 1 -> terminal 1.
        sim.inject(PacketDesc {
            src: 0,
            dst: 1,
            len: 1,
            tag: 0,
        });
        sim.run(&mut IdleWorkload, 500);
        assert_eq!(sim.stats.total_delivered_packets, 1);
        // Path: term chan (2) + r0 [<=2 + xbar 5] + router chan (8) +
        // r1 [<=2 + xbar 5] + term chan (2) ~= 24-28 cycles.
        let lat = sim.stats.mean_latency();
        assert!(
            (20.0..=32.0).contains(&lat),
            "unexpected zero-load latency {lat}"
        );
    }

    /// Latency decomposition: every delivery satisfies
    /// `(inject - birth) + net_latency == latency` — source-queue wait plus
    /// network time (head injection to tail ejection) is the total — and
    /// the `Stats` sums agree with the per-packet records. A burst from one
    /// terminal guarantees some packets actually wait in the queue, so the
    /// decomposition is exercised with nonzero queue time.
    #[test]
    fn queue_time_plus_network_time_is_total_latency() {
        struct RecordDeliveries(Vec<Delivered>);
        impl Workload for RecordDeliveries {
            fn pre_cycle(&mut self, _now: u64, _inject: &mut dyn FnMut(PacketDesc) -> bool) {}
            fn on_delivered(&mut self, d: &Delivered, _now: u64) {
                self.0.push(*d);
            }
        }

        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let algo: Arc<dyn hxcore::RoutingAlgorithm> =
            hyperx_algorithm("DimWAR", hx.clone(), 8).unwrap().into();
        let mut sim = Sim::new(hx.clone(), algo, small_cfg(), 13);
        for i in 0..40u64 {
            sim.inject(PacketDesc {
                src: 0,
                dst: 7,
                len: 8,
                tag: i,
            });
        }
        let mut rec = RecordDeliveries(Vec::new());
        sim.run(&mut rec, 20_000);
        assert_eq!(rec.0.len(), 40, "burst not fully delivered");

        let mut queue_sum = 0u64;
        for d in &rec.0 {
            assert!(d.inject >= d.birth, "injected before creation");
            assert_eq!(
                (d.inject - d.birth) + d.net_latency,
                d.latency,
                "queue time + network time != total latency for tag {}",
                d.tag
            );
            queue_sum += d.inject - d.birth;
        }
        // Serializing a 40-packet burst through one terminal must queue.
        assert!(queue_sum > 0, "burst produced no source-queue wait");
        // The aggregate counters decompose the same way.
        assert_eq!(sim.stats.latency_sum - sim.stats.net_latency_sum, queue_sum);
        assert!(sim.stats.mean_net_latency() < sim.stats.mean_latency());
    }

    /// Back-to-back packets on one VC keep packet-atomic ordering: flits of
    /// two packets never interleave at the destination (checked implicitly
    /// by tail-based accounting: all packets are delivered and released).
    #[test]
    fn many_packets_same_pair_all_delivered() {
        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let algo: Arc<dyn hxcore::RoutingAlgorithm> =
            hyperx_algorithm("OmniWAR", hx.clone(), 8).unwrap().into();
        let mut sim = Sim::new(hx.clone(), algo, small_cfg(), 3);
        for i in 0..50 {
            sim.inject(PacketDesc {
                src: 0,
                dst: 8,
                len: (i % 16) + 1,
                tag: i as u64,
            });
        }
        sim.run(&mut IdleWorkload, 10_000);
        assert_eq!(sim.stats.total_delivered_packets, 50);
        assert!(sim.net.is_drained());
        assert_eq!(sim.pool.live(), 0);
    }

    /// Atomic queue allocation throttles a single stream to roughly
    /// PktSize x NumVcs / RTT.
    #[test]
    fn atomic_queue_allocation_throttles() {
        let hx = Arc::new(HyperX::uniform(1, 2, 1));
        let mk = |atomic: bool| {
            let algo: Arc<dyn hxcore::RoutingAlgorithm> =
                hyperx_algorithm("DOR", hx.clone(), 8).unwrap().into();
            let cfg = SimConfig {
                atomic_queue_alloc: atomic,
                max_source_queue: 1_000,
                ..small_cfg()
            };
            let mut sim = Sim::new(hx.clone(), algo, cfg, 3);
            for i in 0..400 {
                sim.inject(PacketDesc {
                    src: 0,
                    dst: 1,
                    len: 1,
                    tag: i,
                });
            }
            sim.run(&mut IdleWorkload, 30_000);
            assert_eq!(sim.stats.total_delivered_packets, 400);
            // Time from first injection to last delivery approximates
            // 400 flits / channel-utilization.
            sim.stats.latency_max
        };
        let normal = mk(false);
        let atomic = mk(true);
        // Single-flit packets over 8 VCs with RTT ~ 2*8+5+slack: atomic
        // utilization ~ 8/21+ vs ~1.0 normally.
        assert!(
            atomic as f64 > 1.8 * normal as f64,
            "atomic allocation should stretch the stream: {atomic} vs {normal}"
        );
    }

    /// Deterministic: same seed, same outcome; different seed, different
    /// adaptive choices (weaker check: stats equal / likely different).
    #[test]
    fn seeded_runs_are_reproducible() {
        let run = |seed: u64| {
            let hx = Arc::new(HyperX::uniform(2, 3, 2));
            let algo: Arc<dyn hxcore::RoutingAlgorithm> =
                hyperx_algorithm("OmniWAR", hx.clone(), 8).unwrap().into();
            let mut sim = Sim::new(hx.clone(), algo, small_cfg(), seed);
            for i in 0..40u32 {
                sim.inject(PacketDesc {
                    src: i % 18,
                    dst: (i * 7 + 5) % 18,
                    len: (i % 16 + 1) as u16,
                    tag: i as u64,
                });
            }
            sim.run(&mut IdleWorkload, 4_000);
            (sim.stats.total_delivered_packets, sim.stats.latency_sum)
        };
        assert_eq!(run(11), run(11), "same seed must reproduce exactly");
    }

    /// Credits settle across a dead-cycle skip. When a packet's tail is
    /// delivered its last credits are still returning, and nothing is
    /// left to wake: the run that follows executes no cycle — the event
    /// engine jumps it whole — yet leaves the network quiescent with every
    /// router and terminal credit counter full, because the skip applies
    /// the credits maturing inside the span it jumps.
    #[test]
    fn credits_settle_across_a_dead_cycle_skip() {
        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let algo: Arc<dyn hxcore::RoutingAlgorithm> =
            hyperx_algorithm("DimWAR", hx.clone(), 8).unwrap().into();
        let cfg = SimConfig {
            engine: Engine::Event,
            ..small_cfg()
        };
        let cap = cfg.buf_flits as u32;
        let mut sim = Sim::new(hx.clone(), algo, cfg, 5);
        sim.inject(PacketDesc {
            src: 0,
            dst: 8,
            len: 16,
            tag: 0,
        });
        while sim.stats.total_delivered_packets == 0 {
            assert!(sim.now < 1_000, "packet not delivered");
            sim.step(&mut IdleWorkload);
        }
        assert!(sim.net.is_drained());
        assert!(!sim.net.is_quiescent(), "the tail's credits are returning");

        let events = sim.events_processed();
        sim.run(&mut IdleWorkload, 1_000);
        assert_eq!(sim.events_processed(), events, "the run executed a cycle");
        assert!(sim.net.is_quiescent(), "credits left on the wheel");
        for r in 0..hx.num_routers() {
            for p in 0..hx.num_ports(r) {
                for vc in 0..8 {
                    assert_eq!(
                        sim.net.router(r).credits(p, vc),
                        cap,
                        "router {r} port {p} vc {vc}"
                    );
                }
            }
        }
        for t in 0..hx.num_terminals() {
            for vc in 0..8 {
                assert_eq!(
                    sim.net.terminal_mut(t).credits(vc),
                    cap,
                    "terminal {t} vc {vc}"
                );
            }
        }
    }

    /// run_to_completion detects the drain point.
    #[test]
    fn run_to_completion_returns_finish_cycle() {
        struct OneShot(bool);
        impl Workload for OneShot {
            fn pre_cycle(&mut self, _now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
                if !self.0 {
                    self.0 = true;
                    assert!(inject(PacketDesc {
                        src: 0,
                        dst: 5,
                        len: 4,
                        tag: 0
                    }));
                }
            }
            fn is_done(&self) -> bool {
                self.0
            }
        }
        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let algo: Arc<dyn hxcore::RoutingAlgorithm> =
            hyperx_algorithm("DimWAR", hx.clone(), 8).unwrap().into();
        let mut sim = Sim::new(hx, algo, small_cfg(), 5);
        let done = sim.run_to_completion(&mut OneShot(false), 5_000);
        assert!(done.is_some(), "never completed");
        assert!(done.unwrap() < 1_000, "completion unreasonably late");
    }
}
