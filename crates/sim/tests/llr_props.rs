//! Property tests for the link-level retry (LLR) sublayer.
//!
//! Two layers of laws:
//!
//! 1. **Channel-level go-back-N laws** — for an *arbitrary* interleaving
//!    of sends, link flaps, and degrade/restore events under an arbitrary
//!    bit-error rate, the receiver observes every flit **exactly once, in
//!    order**: never a duplicate, never a reorder, never a flit dropped
//!    past the replay window. Credits (which bypass LLR by design) are
//!    conserved independently.
//!
//! 2. **System-level recovery laws** — for an arbitrary transient-only
//!    storm (BER + flap schedules + degraded links) on a real network,
//!    every generated packet is delivered exactly once with zero drops,
//!    credit conservation holds, and the event and cycle engines stay
//!    bit-identical.

use std::collections::HashMap;
use std::sync::Arc;

use hxsim::{
    Channel, Delivered, Engine, FaultSchedule, Flit, PacketDesc, Sim, SimConfig, Stats, Workload,
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
/// order `Network::tick` uses. Credits drain on the same cycle.
fn drive_cycle(
    ch: &mut Channel,
    stats: &mut Stats,
    now: u64,
    got: &mut Vec<u16>,
    credits: &mut u64,
) {
    ch.llr_tick(now, stats);
    ch.recv_flits(now, |f, _| got.push(f.idx));
    ch.recv_credits(now, |_| *credits += 1);
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
    let mut stats = Stats::default();
    let mut got: Vec<u16> = Vec::new();
    let mut credits_back: u64 = 0;
    let mut credits_sent: u64 = 0;
    let mut sent: u16 = 0;
    let mut now: u64 = 0;
    let mut down = false;

    for cmd in cmds {
        for _ in 0..(cmd.gap % 4) {
            drive_cycle(&mut ch, &mut stats, now, &mut got, &mut credits_back);
            now += 1;
        }
        drive_cycle(&mut ch, &mut stats, now, &mut got, &mut credits_back);
        match cmd.op % 8 {
            // Sends dominate the distribution so the wire stays busy.
            0..=4 => {
                // The window gate is the producer contract: egress holds
                // the flit when the replay buffer is full.
                if ch.ready_for_flit() {
                    ch.send_flit(now, flit(sent), 0);
                    sent += 1;
                    // Credits ride the legacy reverse path, LLR-exempt.
                    ch.send_credit(now, 0);
                    credits_sent += 1;
                }
            }
            5 => {
                if down {
                    ch.flap_up();
                } else {
                    ch.flap_down(now, &mut stats);
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
        drive_cycle(&mut ch, &mut stats, now, &mut got, &mut credits_back);
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
    prop_assert_eq!(credits_back, credits_sent, "credit conservation violated");
    let (crc, replays, flaps) = ch.llr_counters();
    prop_assert_eq!(stats.llr_replays, replays);
    prop_assert_eq!(stats.crc_errors, crc);
    prop_assert_eq!(stats.flaps, flaps);
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

/// Runs an arbitrary transient-only storm over a live error model and
/// returns the bit-exact stats fingerprint plus the per-tag delivery
/// counts; asserts full exactly-once delivery and credit conservation.
fn run_storm(
    hx: &Arc<HyperX>,
    storms: &[RawStorm],
    ber: f64,
    engine: Engine,
) -> Result<Vec<u64>, TestCaseError> {
    let cfg = SimConfig {
        engine,
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

    let s = &sim.stats;
    Ok(vec![
        s.total_generated_flits,
        s.total_delivered_flits,
        s.total_delivered_packets,
        s.latency_sum,
        s.net_latency_sum,
        s.latency_max,
        s.hops_sum,
        s.fault_events,
        s.flit_moves,
        s.llr_replays,
        s.crc_errors,
        s.flaps,
    ])
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
    /// degrades) yields exactly-once full delivery with zero drops, and
    /// the event engine stays bit-identical to the cycle engine —
    /// including the LLR recovery counters.
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
        let hx = Arc::new(HyperX::uniform(2, 3, 1));
        let event = run_storm(&hx, &storms, ber, Engine::Event)?;
        let cycle = run_storm(&hx, &storms, ber, Engine::Cycle)?;
        prop_assert_eq!(event, cycle, "stats diverge across engines");
    }
}
