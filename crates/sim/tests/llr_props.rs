//! Property tests for the link-level retry (LLR) sublayer.
//!
//! Two layers of laws:
//!
//! 1. **Channel-level go-back-N laws** — for an *arbitrary* interleaving
//!    of sends, link flaps, and degrade/restore events under an arbitrary
//!    bit-error rate, the receiver observes every flit **exactly once, in
//!    order**: never a duplicate, never a reorder, never a flit dropped
//!    past the replay window. (Returning credits never touch a channel:
//!    they ride the network's credit wheel, which the system-level flow
//!    control audit below covers.)
//!
//! 2. **System-level recovery laws** — for an arbitrary transient-only
//!    storm (BER + flap schedules + degraded links) on a real network,
//!    every generated packet is delivered exactly once with zero drops,
//!    and credit conservation holds. The storms run on the event engine,
//!    whose LLR calendar and endpoint calendar debug builds audit every
//!    executed cycle and every dead-cycle skip.

use std::collections::HashMap;
use std::sync::Arc;

use hxsim::{
    Channel, Delivered, Engine, FaultSchedule, Flit, PacketDesc, Sim, SimConfig, Stats, WireSlab,
    Workload,
};
use hxtopo::{HyperX, PortTarget, Topology};
use proptest::prelude::*;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn flit(idx: u16) -> Flit {
    Flit {
        pkt: 0,
        idx,
        len: 4,
    }
}

/// One raw channel-level command; interpreted modulo the legal action
/// space so every draw is valid.
#[derive(Debug, Clone, Copy)]
struct RawCmd {
    /// Idle cycles to run before the action (0..=3).
    gap: u8,
    /// Action selector.
    op: u8,
}

/// Drives one engine-ordered cycle on a standalone channel: LLR tick
/// first (start of cycle), then the consumer reads arrivals — the exact
/// order `Network::tick` uses.
fn drive_cycle(
    (ch, wire): (&mut Channel, &mut WireSlab),
    stats: &mut Stats,
    now: u64,
    got: &mut Vec<u16>,
) {
    ch.llr_tick(wire, now, stats);
    ch.recv_flits(wire, now, |f, _| got.push(f.idx));
}

/// The go-back-N laws under an arbitrary command interleaving: exactly
/// once, in order, nothing lost — no matter how hostile the BER or the
/// flap pattern, as long as the link eventually comes back up.
fn check_channel_laws(
    window: usize,
    ber: f64,
    seed: u64,
    cmds: &[RawCmd],
) -> Result<(), TestCaseError> {
    let mut ch = Channel::with_llr(3, window, ber, seed);
    let mut wire = WireSlab::new();
    let mut stats = Stats::default();
    let mut got: Vec<u16> = Vec::new();
    let mut sent: u16 = 0;
    let mut now: u64 = 0;
    let mut down = false;
    let mut flap_downs = 0u64;

    for cmd in cmds {
        for _ in 0..(cmd.gap % 4) {
            drive_cycle((&mut ch, &mut wire), &mut stats, now, &mut got);
            now += 1;
        }
        drive_cycle((&mut ch, &mut wire), &mut stats, now, &mut got);
        match cmd.op % 8 {
            // Sends dominate the distribution so the wire stays busy.
            0..=4 => {
                // The window gate is the producer contract: egress holds
                // the flit when the replay buffer is full.
                if ch.ready_for_flit() {
                    ch.send_flit(&mut wire, now, flit(sent), 0);
                    sent += 1;
                }
            }
            5 => {
                if down {
                    ch.flap_up();
                } else {
                    ch.flap_down(now, &mut stats);
                    flap_downs += 1;
                }
                down = !down;
            }
            6 => ch.degrade(1 + (cmd.op as u64 >> 4) % 4, cmd.op & 0x10 != 0),
            _ => ch.restore(),
        }
        now += 1;
    }

    // Recovery precondition: the link must end up healthy; LLR only
    // guarantees delivery across *transient* outages.
    if down {
        ch.flap_up();
    }
    ch.restore();

    // Drain: with the link up, go-back-N must finish the job. Bound is
    // generous — replays under a hostile BER take many round trips.
    let mut budget = 40_000u64;
    while !(ch.is_idle() && got.len() == sent as usize) && budget > 0 {
        drive_cycle((&mut ch, &mut wire), &mut stats, now, &mut got);
        now += 1;
        budget -= 1;
    }

    let expect: Vec<u16> = (0..sent).collect();
    prop_assert_eq!(
        &got,
        &expect,
        "receiver sequence violates exactly-once in-order delivery \
         (sent={}, got={} flits)",
        sent,
        got.len()
    );
    prop_assert!(ch.is_idle(), "channel failed to drain within budget");
    // Every corrupt frame is sent again later, and every down edge the
    // script issued is one flap.
    prop_assert!(stats.llr_replays >= stats.crc_errors);
    prop_assert_eq!(stats.flaps, flap_downs);
    if ber == 0.0 {
        prop_assert_eq!(stats.crc_errors, 0);
    }
    Ok(())
}

/// Deterministic uniform-random traffic at ~25% injection load (hxsim
/// cannot depend on hxtraffic), recording per-tag delivery counts so
/// duplicates and drops are both visible.
struct CountingTraffic {
    terminals: u32,
    rng: u64,
    next_tag: u64,
    /// Injection stops here; the remaining cycles drain the network while
    /// delivery notifications keep landing on this same workload.
    stop_at: u64,
    injected: u64,
    delivered: HashMap<u64, u32>,
}

impl Workload for CountingTraffic {
    fn pre_cycle(&mut self, now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
        if now >= self.stop_at {
            return;
        }
        for src in 0..self.terminals {
            if !splitmix64(&mut self.rng).is_multiple_of(16) {
                continue;
            }
            let dst = (splitmix64(&mut self.rng) % self.terminals as u64) as u32;
            if dst == src {
                continue;
            }
            let tag = self.next_tag;
            self.next_tag += 1;
            if inject(PacketDesc {
                src,
                dst,
                len: 4,
                tag,
            }) {
                self.injected += 1;
            }
        }
    }

    fn on_delivered(&mut self, d: &Delivered, _now: u64) {
        *self.delivered.entry(d.tag).or_insert(0) += 1;
    }
}

/// One raw transient fault; fields are mapped onto concrete links by
/// modulo so every draw is valid and flap parameters are always legal.
#[derive(Debug, Clone, Copy)]
struct RawStorm {
    a: usize,
    b: usize,
    first: u64,
    down: u64,
    slack: u64,
    count: u32,
    degrade: bool,
}

/// Maps raw storms onto a transient-only schedule, one per distinct link
/// so flap windows never overlap on the same channel.
fn storm_schedule(hx: &HyperX, storms: &[RawStorm]) -> FaultSchedule {
    let mut s = FaultSchedule::new();
    let mut used: Vec<(usize, usize)> = Vec::new();
    for e in storms {
        let r = e.a % hx.num_routers();
        let net_ports: Vec<usize> = (0..hx.num_ports(r))
            .filter(|&p| matches!(hx.port_target(r, p), PortTarget::Router { .. }))
            .collect();
        let p = net_ports[e.b % net_ports.len()];
        if used.contains(&(r, p)) {
            continue;
        }
        used.push((r, p));
        let first = 30 + e.first % 270;
        let down = 3 + e.down % 30;
        let period = down + 20 + e.slack % 80;
        let count = 1 + e.count % 3;
        if e.degrade {
            s = s
                .degrade_link_at(first, r, p, 1 + e.slack % 4, e.down % 2 == 0)
                .restore_link_at(first + 40 + e.down % 200, r, p);
        } else {
            s = s.flap_link(r, p, first, period, down, count);
        }
    }
    s
}

/// Runs an arbitrary transient-only storm over a live error model on the
/// event engine; asserts full exactly-once delivery and credit
/// conservation.
fn run_storm(hx: &Arc<HyperX>, storms: &[RawStorm], ber: f64) -> Result<(), TestCaseError> {
    let cfg = SimConfig {
        engine: Engine::Event,
        llr_enabled: true,
        error_ber: ber,
        llr_window: 64,
        ..SimConfig::default()
    };
    let algo: Arc<dyn hxcore::RoutingAlgorithm> =
        hxcore::hyperx_algorithm("OmniWAR", hx.clone(), cfg.num_vcs)
            .expect("known algorithm")
            .into();
    let mut sim = Sim::new(hx.clone(), algo, cfg, 13);
    sim.set_fault_schedule(storm_schedule(hx, storms));
    let mut traffic = CountingTraffic {
        terminals: hx.num_terminals() as u32,
        rng: 13,
        next_tag: 0,
        stop_at: 400,
        injected: 0,
        delivered: HashMap::new(),
    };
    sim.run(&mut traffic, 1300);
    let errs = sim.net.audit_flow_control(&sim.pool);
    prop_assert!(errs.is_empty(), "credit conservation violated: {:?}", errs);

    // Transient-only storm: the retry sublayer recovers everything, so
    // every injected packet arrives exactly once and nothing is dropped.
    prop_assert_eq!(sim.stats.dropped_flits, 0, "transient storm dropped flits");
    prop_assert_eq!(
        sim.stats.dropped_packets,
        0,
        "transient storm dropped packets"
    );
    prop_assert_eq!(
        traffic.delivered.len() as u64,
        traffic.injected,
        "not every injected packet was delivered"
    );
    for (&tag, &n) in &traffic.delivered {
        prop_assert_eq!(n, 1, "tag {} delivered {} times", tag, n);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Go-back-N laws on a standalone channel: arbitrary interleavings of
    /// sends, flaps, degrades, and CRC corruption never duplicate,
    /// reorder, or drop a flit past the replay window.
    #[test]
    fn gbn_delivers_exactly_once_in_order(
        window in 2usize..32,
        ber_sel in 0usize..5,
        seed in any::<u64>(),
        raw in prop::collection::vec((any::<u8>(), any::<u8>()), 1..120),
    ) {
        // Per-frame corruption probability is min(1, 512·ber): the menu
        // tops out at ~26% — brutal but recoverable (512·2e-3 would be a
        // certainly-corrupt link no retry scheme can ever drain).
        let ber = [0.0, 1e-5, 1e-4, 2e-4, 5e-4][ber_sel];
        let cmds: Vec<RawCmd> = raw
            .iter()
            .map(|&(gap, op)| RawCmd { gap, op })
            .collect();
        check_channel_laws(window, ber, seed, &cmds)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// System-level recovery: any transient-only storm (BER + flaps +
    /// degrades) yields exactly-once full delivery with zero drops.
    #[test]
    fn transient_storms_recover_below_transport(
        ber_sel in 0usize..3,
        raw in prop::collection::vec(
            (
                any::<usize>(),
                any::<usize>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u32>(),
                any::<bool>(),
            ),
            0..4,
        ),
    ) {
        let ber = [0.0, 1e-5, 1e-4][ber_sel];
        let storms: Vec<RawStorm> = raw
            .iter()
            .map(|&(a, b, first, down, slack, count, degrade)| RawStorm {
                a,
                b,
                first,
                down,
                slack,
                count,
                degrade,
            })
            .collect();
        run_storm(&Arc::new(HyperX::uniform(2, 3, 1)), &storms, ber)?;
    }
}

/// Injects one packet at cycle 0, then stays quiet; counts the cycles
/// the simulator executes (every executed cycle calls `pre_cycle`).
struct OnePacket {
    src: u32,
    dst: u32,
    executed: u64,
    delivered_at: Option<u64>,
}

impl Workload for OnePacket {
    fn pre_cycle(&mut self, now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool) {
        self.executed += 1;
        if now == 0 {
            assert!(inject(PacketDesc {
                src: self.src,
                dst: self.dst,
                len: 4,
                tag: 0,
            }));
        }
    }

    fn on_delivered(&mut self, _d: &Delivered, now: u64) {
        self.delivered_at = Some(now);
    }

    fn next_active_cycle(&self, now: u64) -> u64 {
        if now == 0 {
            0
        } else {
            u64::MAX
        }
    }
}

/// A drained LLR network goes quiet: once the one packet has landed and
/// its last ack has come home, the LLR calendar holds nothing and the
/// event engine skips the rest of the budget. A stale or
/// self-perpetuating calendar entry would keep the dead-cycle skip from
/// ever firing and execute all 20,000 cycles.
#[test]
fn drained_llr_network_goes_quiet() {
    let hx = Arc::new(HyperX::uniform(2, 3, 1));
    let cfg = SimConfig {
        engine: Engine::Event,
        llr_enabled: true,
        error_ber: 0.0,
        ..SimConfig::default()
    };
    let round_trip = 2 * cfg.router_chan_latency;
    let algo: Arc<dyn hxcore::RoutingAlgorithm> =
        hxcore::hyperx_algorithm("DOR", hx.clone(), cfg.num_vcs)
            .expect("known algorithm")
            .into();
    let mut sim = Sim::new(hx.clone(), algo, cfg, 5);
    let mut one = OnePacket {
        src: 0,
        dst: hx.num_terminals() as u32 - 1,
        executed: 0,
        delivered_at: None,
    };
    sim.run(&mut one, 20_000);
    let delivered_at = one.delivered_at.expect("the packet was delivered");
    assert!(sim.net.is_quiescent(), "network still busy after the run");
    assert!(
        one.executed <= delivered_at + 1 + round_trip,
        "{} cycles executed for one packet delivered at cycle {delivered_at}",
        one.executed
    );
}
