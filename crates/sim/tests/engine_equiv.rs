//! The event engine's calendar under load, faults, retransmission and
//! the gray-failure layer.
//!
//! Matrix: {DimWAR, OmniWAR, UGAL, FT-WAR} x {UR, DCR} x load {0.1, 0.7}
//! x {fault-free, link+router kill/revive, retransmission on, error
//! model}. Every cell runs the event engine alone. Debug builds audit its
//! calendar on every executed cycle and every dead-cycle skip
//! (`Network::audit_calendar`, `Network::audit_dead_span`): a non-due
//! endpoint holds no work, a due router's hints name every matured
//! arrival, and nothing on a wire outlives its maturity cycle. That is
//! the invariant that makes the engines bit-identical, so a cell needs no
//! second run; it asserts only that it exercised what it names.
//!
//! The matrix runs channel and crossbar latencies of 2/5/8 cycles, all far
//! inside the event queue's 64-cycle calendar. One more cell per fault
//! kind runs 300-cycle wires and crossbars, so every arrival key and
//! crossbar wake goes through the queue's overflow heap; those cells
//! still compare the event engine with the cycle engine byte for byte
//! (stats, metrics JSONL, delivery sequence). One cell runs 64 VCs, the
//! most a router's per-port VC mask holds, and one pins the hop cap's
//! outcome with a digest.
//!
//! hxsim cannot depend on hxtraffic, so the UR and DCR destination rules
//! are re-derived here over a reversal-symmetric HyperX with a local
//! splitmix64 stream.

use std::sync::Arc;

use hxcore::{hyperx_algorithm, RoutingAlgorithm};
use hxsim::{
    Delivered, Engine, FaultSchedule, MetricsConfig, PacketDesc, Sim, SimConfig, Workload,
};
use hxtopo::{HyperX, Topology};

const ALGOS: [&str; 4] = ["DimWAR", "OmniWAR", "UGAL", "FT-WAR"];
const PATTERNS: [Pattern; 2] = [Pattern::Ur, Pattern::Dcr];
const LOADS: [f64; 2] = [0.1, 0.7];
const CYCLES: u64 = 600;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy, PartialEq)]
enum Pattern {
    Ur,
    Dcr,
}

impl Pattern {
    fn name(self) -> &'static str {
        match self {
            Pattern::Ur => "UR",
            Pattern::Dcr => "DCR",
        }
    }

    /// Destination for `src`, mirroring hxtraffic's UR (uniform excluding
    /// self) and DCR (reverse-complement all but the last dimension,
    /// randomize the last) rules.
    fn dest(self, hx: &HyperX, src: usize, rng: &mut u64) -> usize {
        let n = hx.num_terminals();
        match self {
            Pattern::Ur => {
                let d = (splitmix64(rng) % (n as u64 - 1)) as usize;
                if d >= src {
                    d + 1
                } else {
                    d
                }
            }
            Pattern::Dcr => {
                let t = hx.terms_per_router();
                let sc = hx.coord_of(src / t);
                let nd = hx.dims();
                let mut c = sc;
                for d in 0..nd - 1 {
                    let from = nd - 1 - d;
                    c.set(d, hx.width(from) - 1 - sc.get(from));
                }
                c.set(nd - 1, (splitmix64(rng) % hx.width(nd - 1) as u64) as usize);
                hx.terminal_id(hx.router_at(&c), (splitmix64(rng) % t as u64) as usize)
            }
        }
    }
}

/// Bernoulli open-loop injection driven by a splitmix64 stream, recording
/// every delivery notification.
struct RecordingTraffic {
    hx: Arc<HyperX>,
    pattern: Pattern,
    /// Probability scaled to u64: inject when draw < threshold.
    threshold: u64,
    rng: u64,
    next_tag: u64,
    delivered: Vec<DeliveredRow>,
}

/// One delivery notification, every field the engines must agree on:
/// (src, dst, len, tag, birth, inject, latency, net_latency, hops).
type DeliveredRow = (u32, u32, u16, u64, u64, u64, u64, u64, u8);

impl RecordingTraffic {
    fn new(hx: Arc<HyperX>, pattern: Pattern, load: f64, seed: u64) -> Self {
        // Mean packet length 4 flits: per-cycle packet probability load/4.
        let threshold = ((load / 4.0) * u64::MAX as f64) as u64;
        RecordingTraffic {
            hx,
            pattern,
            threshold,
            rng: seed,
            next_tag: 0,
            delivered: Vec::new(),
        }
    }
}

impl Workload for RecordingTraffic {
    fn pre_cycle(&mut self, _now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
        for t in 0..self.hx.num_terminals() {
            if splitmix64(&mut self.rng) < self.threshold {
                let len = (splitmix64(&mut self.rng) % 7 + 1) as u16;
                let dst = self.pattern.dest(&self.hx, t, &mut self.rng) as u32;
                let _ = inject(PacketDesc {
                    src: t as u32,
                    dst,
                    len,
                    tag: self.next_tag,
                });
                self.next_tag += 1;
            }
        }
    }

    fn on_delivered(&mut self, d: &Delivered, _now: u64) {
        self.delivered.push((
            d.src,
            d.dst,
            d.len,
            d.tag,
            d.birth,
            d.inject,
            d.latency,
            d.net_latency,
            d.hops,
        ));
    }
}

#[derive(Clone, Copy)]
enum Scenario {
    FaultFree,
    Faults,
    Retransmit,
    /// LLR + bit-error corruption + link flaps + a degraded link: the
    /// gray-failure layer recovers everything below the transport.
    ErrorModel,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::FaultFree => "fault-free",
            Scenario::Faults => "faults",
            Scenario::Retransmit => "retransmit",
            Scenario::ErrorModel => "error-model",
        }
    }
}

/// A run's outcome: everything the two engines must agree on, byte for
/// byte. The last three stats are the LLR recovery counters (replays, CRC
/// errors, flaps) — zero outside the error-model scenario.
struct RunOutcome {
    stats: (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64),
    metrics_jsonl: String,
    delivered: Vec<DeliveredRow>,
}

/// Cycle counts of a run — its length and every fault-schedule time — are
/// multiplied by this when the wires are long.
const LONG_WIRE_SCALE: u64 = 10;

/// A cell's simulation and workload, ready to run for `CYCLES` (times
/// [`LONG_WIRE_SCALE`] with long wires).
fn build(
    algo_name: &str,
    pattern: Pattern,
    load: f64,
    scenario: Scenario,
    long_wires: bool,
    engine: Engine,
    num_vcs: usize,
) -> (Sim, RecordingTraffic) {
    let x = if long_wires { LONG_WIRE_SCALE } else { 1 };
    let hx = Arc::new(HyperX::uniform(2, 3, 2));
    let algo: Arc<dyn RoutingAlgorithm> = hyperx_algorithm(algo_name, hx.clone(), num_vcs)
        .expect("registered algorithm")
        .into();
    let mut cfg = SimConfig {
        num_vcs,
        buf_flits: 32,
        crossbar_latency: 5,
        router_chan_latency: 8,
        term_chan_latency: 2,
        engine,
        ..SimConfig::default()
    };
    if long_wires {
        // Beyond the event queue's calendar (64 cycles): every arrival
        // key and crossbar wake goes through its overflow heap.
        cfg.crossbar_latency = 300;
        cfg.router_chan_latency = 300;
        cfg.watchdog_stall_cycles = 40 * 300;
    }
    if matches!(scenario, Scenario::Retransmit) {
        cfg.retransmit_timeout = 250;
        cfg.retransmit_max_retries = 3;
    }
    if matches!(scenario, Scenario::ErrorModel) {
        cfg.llr_enabled = true;
        // ~5% per-flit corruption probability: enough CRC errors and
        // replays inside 600 cycles to make every matrix cell non-vacuous.
        cfg.error_ber = 1e-4;
        cfg.llr_window = 64;
    }
    let mut sim = Sim::new(hx.clone(), algo, cfg, 17);
    sim.enable_metrics(MetricsConfig {
        sample_interval: 200,
        timers: false,
    });
    match scenario {
        Scenario::FaultFree => {}
        Scenario::Faults => {
            let port = (0..hx.num_ports(1))
                .find(|&p| matches!(hx.port_target(1, p), hxtopo::PortTarget::Router { .. }))
                .expect("router 1 has a network port");
            sim.set_fault_schedule(
                FaultSchedule::new()
                    .kill_link_at(100 * x, 1, port)
                    .kill_router_at(180 * x, 4)
                    .revive_router_at(380 * x, 4)
                    .revive_link_at(430 * x, 1, port),
            );
        }
        // A transient router kill drops in-flight packets so the
        // source-retransmission path actually re-sends.
        Scenario::Retransmit => sim.set_fault_schedule(
            FaultSchedule::new()
                .kill_router_at(120 * x, 4)
                .revive_router_at(300 * x, 4),
        ),
        // Two flapping links plus one degraded link on top of the BER:
        // all transient, all recovered by LLR replay.
        Scenario::ErrorModel => {
            let port = |r: usize| {
                (0..hx.num_ports(r))
                    .find(|&p| matches!(hx.port_target(r, p), hxtopo::PortTarget::Router { .. }))
                    .expect("router has a network port")
            };
            sim.set_fault_schedule(
                FaultSchedule::new()
                    .flap_link(1, port(1), 120 * x, 150 * x, 30 * x, 2)
                    .flap_link(4, port(4), 200 * x, 120 * x, 20 * x, 2)
                    .degrade_link_at(90 * x, 2, port(2), 3, true)
                    .restore_link_at(480 * x, 2, port(2)),
            );
        }
    }
    let wl = RecordingTraffic::new(hx, pattern, load, 0xE11A_5EED ^ load.to_bits());
    (sim, wl)
}

fn run_once(
    algo_name: &str,
    pattern: Pattern,
    load: f64,
    scenario: Scenario,
    long_wires: bool,
    engine: Engine,
    num_vcs: usize,
) -> RunOutcome {
    let x = if long_wires { LONG_WIRE_SCALE } else { 1 };
    let (mut sim, mut wl) = build(
        algo_name, pattern, load, scenario, long_wires, engine, num_vcs,
    );
    sim.run(&mut wl, CYCLES * x);
    let s = &sim.stats;
    RunOutcome {
        stats: (
            s.total_generated_flits,
            s.total_delivered_flits,
            s.total_delivered_packets,
            s.latency_sum,
            s.net_latency_sum,
            s.latency_max,
            s.hops_sum,
            s.dropped_flits,
            s.flit_moves,
            s.llr_replays,
            s.crc_errors,
            s.flaps,
        ),
        metrics_jsonl: sim
            .metrics()
            .expect("metrics enabled")
            .deterministic_jsonl(),
        delivered: wl.delivered,
    }
}

fn check_matrix(scenario: Scenario) {
    for algo in ALGOS {
        for pattern in PATTERNS {
            for load in LOADS {
                check_cell(algo, pattern, load, scenario, false, Engine::Event, 8);
            }
        }
    }
}

/// One cell on `engine`: the run must deliver, and under the error model
/// the retry layer must have replayed, discarded corrupt frames and seen
/// flaps. Returns the outcome.
fn check_cell(
    algo: &str,
    pattern: Pattern,
    load: f64,
    scenario: Scenario,
    long_wires: bool,
    engine: Engine,
    num_vcs: usize,
) -> RunOutcome {
    let wires = if long_wires { "/long-wires" } else { "" };
    let cell = format!(
        "{algo}/{}/load={load}/{}{wires}/{num_vcs}-vcs/{engine:?}",
        pattern.name(),
        scenario.name()
    );
    let got = run_once(algo, pattern, load, scenario, long_wires, engine, num_vcs);
    assert!(
        got.stats.2 > 0,
        "{cell}: run delivered nothing — matrix cell is vacuous"
    );
    if matches!(scenario, Scenario::ErrorModel) {
        let (replays, crc, flaps) = (got.stats.9, got.stats.10, got.stats.11);
        assert!(
            replays > 0 && crc > 0 && flaps > 0,
            "{cell}: error model idle (replays={replays} crc={crc} \
             flaps={flaps}) — matrix cell is vacuous"
        );
    }
    got
}

/// Fault-free matrix: all algorithms, both patterns, both loads.
#[test]
fn event_engine_fault_free() {
    check_matrix(Scenario::FaultFree);
}

/// Same matrix under a link kill/revive plus a whole-router kill/revive.
#[test]
fn event_engine_under_faults() {
    check_matrix(Scenario::Faults);
}

/// Same matrix with source retransmission enabled and a transient router
/// kill forcing actual timeouts and re-sends.
#[test]
fn event_engine_with_retransmission() {
    check_matrix(Scenario::Retransmit);
}

/// Same matrix with the gray-failure layer live: link-level retry, a
/// corrupting bit-error rate, two flap schedules, and a degraded link.
#[test]
fn event_engine_with_error_model() {
    check_matrix(Scenario::ErrorModel);
}

/// 300-cycle wires and crossbars put every arrival and crossbar wake
/// beyond the event queue's calendar: one cell fault-free, one with links
/// and a router killed and revived (kills drop flits whose arrival keys
/// still wait in the overflow heap), one under the error model (LLR
/// deliveries set their arrival key in the row about to be popped). The
/// cycle engine is the reference, and the event engine must reproduce its
/// stats, metrics JSONL and delivery sequence byte for byte.
#[test]
fn engines_equivalent_beyond_the_calendar_horizon() {
    for scenario in [Scenario::FaultFree, Scenario::Faults, Scenario::ErrorModel] {
        let cell = |engine| check_cell("OmniWAR", Pattern::Ur, 0.1, scenario, true, engine, 8);
        let (reference, got) = (cell(Engine::Cycle), cell(Engine::Event));
        let name = scenario.name();
        assert_eq!(got.stats, reference.stats, "{name}: stats diverge");
        assert_eq!(
            got.metrics_jsonl, reference.metrics_jsonl,
            "{name}: metrics stream diverges"
        );
        assert_eq!(
            got.delivered, reference.delivered,
            "{name}: delivery sequence diverges"
        );
    }
}

/// 64 VCs, the most a router's per-port occupancy mask holds, under the
/// link and router kill/revive schedule. Terminals inject on a random
/// fully-credited VC, so input VC 63 — the mask's top bit — carries
/// traffic: a cycle-by-cycle run confirms it held flits.
#[test]
fn event_engine_at_64_vcs() {
    let (mut sim, mut wl) = build(
        "DimWAR",
        Pattern::Ur,
        0.7,
        Scenario::Faults,
        false,
        Engine::Event,
        64,
    );
    let topo = sim.net.topo.clone();
    let mut top_vc_flits = 0;
    for _ in 0..CYCLES {
        sim.step(&mut wl);
        for r in 0..topo.num_routers() {
            for p in 0..topo.num_ports(r) {
                top_vc_flits += sim.net.router(r).input_occupancy(p, 63);
            }
        }
    }
    assert!(!wl.delivered.is_empty(), "64-VC run delivered nothing");
    assert!(top_vc_flits > 0, "no flit was ever buffered on VC 63");
}

/// One hop-capped run: the outcome plus the trace's `(tag, cycle)` of
/// every hop-cap drop. The last three stats are dropped packets, packets
/// still live and undelivered flits.
fn run_hop_capped() -> (RunOutcome, Vec<(u64, u64)>) {
    let hx = Arc::new(HyperX::uniform(2, 3, 2));
    let algo: Arc<dyn RoutingAlgorithm> = hyperx_algorithm("UGAL", hx.clone(), 8)
        .expect("registered algorithm")
        .into();
    // One-cycle wires and crossbars stretch a packet over several
    // routers: when its head is capped, its body is still buffered or
    // arriving upstream, at routers that may tick later in the cycle.
    let cfg = SimConfig {
        buf_flits: 32,
        crossbar_latency: 1,
        router_chan_latency: 1,
        term_chan_latency: 1,
        max_packet_hops: 2,
        engine: Engine::Event,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(hx.clone(), algo, cfg, 17);
    sim.enable_metrics(MetricsConfig {
        sample_interval: 200,
        timers: false,
    });
    sim.enable_tracing();
    let mut wl = RecordingTraffic::new(hx, Pattern::Dcr, 0.5, 0x40B_CA9);
    sim.run(&mut wl, CYCLES);
    let s = &sim.stats;
    let drops = sim
        .trace
        .as_ref()
        .expect("tracing enabled")
        .drops()
        .iter()
        .map(|d| {
            assert_eq!(d.reason, hxsim::DropReason::HopCap, "no faults scheduled");
            (d.tag, d.cycle)
        })
        .collect();
    let outcome = RunOutcome {
        stats: (
            s.total_generated_flits,
            s.total_delivered_flits,
            s.total_delivered_packets,
            s.latency_sum,
            s.net_latency_sum,
            s.latency_max,
            s.hops_sum,
            s.dropped_flits,
            s.flit_moves,
            s.dropped_packets,
            sim.pool.live() as u64,
            s.total_generated_flits - s.total_delivered_flits,
        ),
        metrics_jsonl: sim
            .metrics()
            .expect("metrics enabled")
            .deterministic_jsonl(),
        delivered: wl.delivered,
    };
    (outcome, drops)
}

/// The livelock hop cap firing under load: UGAL's Valiant paths under DCR
/// at load 0.5 take up to four hops, and a cap of two drops every packet
/// that reaches a third router short of its destination. The poison lands
/// only after every endpoint of the cycle has ticked, so the digest pins
/// exactly which flits later routers still forwarded or accepted that
/// cycle — poisoning during the tick changes it.
#[test]
fn hop_cap_drops_match_their_digest() {
    let (outcome, drops) = run_hop_capped();
    let dropped = outcome.stats.9;
    assert!(
        dropped > 0 && outcome.stats.2 > 0,
        "hop cap never fired (dropped={dropped}) — cell is vacuous"
    );
    assert_eq!(drops.len() as u64, dropped, "every drop traced");
    let digest = hxsim::fnv1a(
        format!(
            "{:?}{}{:?}{:?}",
            outcome.stats, outcome.metrics_jsonl, outcome.delivered, drops
        )
        .as_bytes(),
    );
    // Captured from the two-phase (compute, then commit) tick under both
    // engines: 45 hop-cap drops, 203 dropped flits, 1,297 packets
    // delivered.
    assert_eq!(
        digest, 11159241852290580443,
        "hop-cap run drifted from its pinned digest"
    );
}
