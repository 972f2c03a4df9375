//! Differential equivalence harness: the event-driven engine must be
//! bit-identical to the legacy cycle-stepped engine.
//!
//! Matrix: {DimWAR, OmniWAR, UGAL, FT-WAR} x {UR, DCR} x load {0.1, 0.7}
//! x {fault-free, link+router kill/revive, retransmission on}. For every
//! cell the legacy engine is the reference; the event engine must
//! reproduce the same aggregate stats, the same deterministic metrics
//! JSONL byte for byte, and the same per-packet delivery sequence.
//!
//! The matrix runs channel and crossbar latencies of 2/5/8 cycles, all far
//! inside the event queue's 256-cycle calendar. One more cell per fault
//! kind runs 300-cycle wires and crossbars, so the queue's overflow heap
//! and an arrival ring longer than the calendar are compared too.
//!
//! hxsim cannot depend on hxtraffic, so the UR and DCR destination rules
//! are re-derived here over a reversal-symmetric HyperX with a local
//! splitmix64 stream — deterministic by construction, so both engines see
//! the exact same offered traffic.

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
/// every delivery notification for exact cross-engine comparison.
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

/// Everything the two engines must agree on, byte for byte. The last
/// three stats are the LLR recovery counters (replays, CRC errors,
/// flaps) — zero outside the error-model scenario.
struct RunOutcome {
    stats: (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64, u64),
    metrics_jsonl: String,
    delivered: Vec<DeliveredRow>,
}

/// Cycle counts of a run — its length and every fault-schedule time — are
/// multiplied by this when the wires are long.
const LONG_WIRE_SCALE: u64 = 10;

fn run_once(
    algo_name: &str,
    pattern: Pattern,
    load: f64,
    scenario: Scenario,
    long_wires: bool,
    engine: Engine,
) -> RunOutcome {
    let x = if long_wires { LONG_WIRE_SCALE } else { 1 };
    let hx = Arc::new(HyperX::uniform(2, 3, 2));
    let algo: Arc<dyn RoutingAlgorithm> = hyperx_algorithm(algo_name, hx.clone(), 8)
        .expect("registered algorithm")
        .into();
    let mut cfg = SimConfig {
        buf_flits: 32,
        crossbar_latency: 5,
        router_chan_latency: 8,
        term_chan_latency: 2,
        engine,
        ..SimConfig::default()
    };
    if long_wires {
        // Beyond the event queue's calendar (256 cycles): every arrival
        // and crossbar wake goes through its overflow heap, and the
        // arrival ring is longer than the calendar.
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
    let mut wl = RecordingTraffic::new(hx, pattern, load, 0xE11A_5EED ^ load.to_bits());
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
                check_cell(algo, pattern, load, scenario, false);
            }
        }
    }
}

/// One cell: the cycle engine is the reference; the event engine must
/// reproduce it.
fn check_cell(algo: &str, pattern: Pattern, load: f64, scenario: Scenario, long_wires: bool) {
    let wires = if long_wires { "/long-wires" } else { "" };
    let cell = format!(
        "{algo}/{}/load={load}/{}{wires}",
        pattern.name(),
        scenario.name()
    );
    let run = |engine| run_once(algo, pattern, load, scenario, long_wires, engine);
    let reference = run(Engine::Cycle);
    assert!(
        reference.stats.2 > 0,
        "{cell}: reference run delivered nothing — matrix cell is vacuous"
    );
    if matches!(scenario, Scenario::ErrorModel) {
        let (replays, crc, flaps) = (reference.stats.9, reference.stats.10, reference.stats.11);
        assert!(
            replays > 0 && crc > 0 && flaps > 0,
            "{cell}: error model idle (replays={replays} crc={crc} \
             flaps={flaps}) — matrix cell is vacuous"
        );
    }
    let got = run(Engine::Event);
    assert_eq!(
        got.stats, reference.stats,
        "{cell}: event engine stats diverge from the cycle engine's"
    );
    assert_eq!(
        got.metrics_jsonl, reference.metrics_jsonl,
        "{cell}: event engine metrics stream diverges from the cycle engine's"
    );
    assert_eq!(
        got.delivered, reference.delivered,
        "{cell}: event engine delivery sequence diverges from the cycle engine's"
    );
}

/// Fault-free matrix: both engines, all algorithms,
/// both patterns, both loads.
#[test]
fn engines_equivalent_fault_free() {
    check_matrix(Scenario::FaultFree);
}

/// Same matrix under a link kill/revive plus a whole-router kill/revive.
#[test]
fn engines_equivalent_under_faults() {
    check_matrix(Scenario::Faults);
}

/// Same matrix with source retransmission enabled and a transient router
/// kill forcing actual timeouts and re-sends.
#[test]
fn engines_equivalent_with_retransmission() {
    check_matrix(Scenario::Retransmit);
}

/// Same matrix with the gray-failure layer live: link-level retry, a
/// corrupting bit-error rate, two flap schedules, and a degraded link.
/// Every replay, CRC discard, and flap must land identically across
/// engines.
#[test]
fn engines_equivalent_with_error_model() {
    check_matrix(Scenario::ErrorModel);
}

/// 300-cycle wires and crossbars put every arrival and crossbar wake
/// beyond the event queue's calendar: one cell fault-free, one with links
/// and a router killed and revived (the resync plants 300-cycle arrivals
/// on every channel), one under the error model (LLR deliveries land in
/// the arrival row being walked).
#[test]
fn engines_equivalent_beyond_the_calendar_horizon() {
    for scenario in [Scenario::FaultFree, Scenario::Faults, Scenario::ErrorModel] {
        check_cell("OmniWAR", Pattern::Ur, 0.1, scenario, true);
    }
}
