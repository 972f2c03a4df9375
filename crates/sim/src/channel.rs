//! Fixed-latency channels: a flit pipeline from a sender to a receiver.
//!
//! Bandwidth is one flit per cycle (enforced by the sender, which calls
//! [`Channel::send_flit`] at most once per cycle per channel); latency is
//! the configured cable delay. A channel carries flits only. The credits
//! its receiver returns take the same delay back but ride the network's
//! credit wheel (`credit.rs`), not the channel, so the credit round trip
//! is still `2 x latency + receiver dwell time`.
//!
//! ## Link-level retry (LLR)
//!
//! With `SimConfig::llr_enabled`, every channel interposes a go-back-N
//! retry sublayer ([`Llr`]) between the egress and the wire. Flits handed
//! to [`Channel::send_flit`] enter a replay buffer and are serialized onto
//! the wire one per cycle with sequence numbers; the receiver accepts only
//! the next expected sequence, returning cumulative acks (and gap nacks)
//! on a reliable control sideband. A CRC-detected corruption (from the
//! per-seed bit-error model) or a frame lost across a link flap triggers a
//! nack; the sender rewinds to its oldest unacked frame and replays. The
//! result: transient wire faults recover below the transport with exact
//! credit conservation — returning credits never touch the error model,
//! so the flow-control audit holds bit-for-bit.
//!
//! The LLR pipeline costs one extra cycle per hop (CRC serialization: a
//! flit committed at cycle `t` is transmitted at `t + 1`), which is why
//! `llr_enabled = false` bypasses this module entirely and reproduces the
//! legacy path byte-for-byte.

use std::collections::VecDeque;

use crate::packet::Flit;
use crate::stats::Stats;

/// Bits per flit for the bit-error model: a 64-byte flit, matching the
/// paper's packet granularity.
const FLIT_BITS: f64 = 512.0;

/// Cycles per health-decay epoch (recent-error counters halve once per
/// epoch, folded lazily).
const HEALTH_EPOCH_CYCLES: u64 = 1024;

/// `splitmix64` step: the per-channel corruption RNG. Deterministic per
/// (run seed, channel id) and independent of everything else in the sim.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decays a recent-health counter: halves once per elapsed epoch since it
/// was last folded. Pure — reading a penalty never mutates state, which is
/// what keeps health scores identical across engines.
#[inline]
fn decayed(value: u64, folded_epoch: u64, now: u64) -> u64 {
    let shift = (now / HEALTH_EPOCH_CYCLES)
        .saturating_sub(folded_epoch)
        .min(63);
    value >> shift
}

/// Go-back-N link-level retry state for one directed channel.
///
/// The sender side (`tx_*`) lives at the channel's writing end, the
/// receiver side (`rx_next`, `nacked_at`) at the reading end; both ride
/// the same struct because a [`Channel`] is directed. Frames on `wire`
/// are *copies* of replay-buffer entries — the authoritative flit set is
/// `tx_buf` (unacked) plus the delivered-but-unconsumed legacy queue,
/// which is exactly what [`Channel::flits_in_flight`] reports.
#[derive(Debug)]
pub struct Llr {
    /// Replay-window depth: max unacked flits held in `tx_buf`.
    window: usize,
    /// Unacked flits in send order; the front has sequence `tx_base`.
    tx_buf: VecDeque<(Flit, u8)>,
    /// Sequence number of `tx_buf[0]`.
    tx_base: u64,
    /// Index into `tx_buf` of the next frame to put on the wire. A nack
    /// rewinds it to 0 (go-back-N).
    tx_next: usize,
    /// Replay accounting: `tx_buf` indices below this have been
    /// transmitted at least once, so re-sending one counts as a replay.
    sent_mark: usize,
    /// Frames in flight: `(deliver_cycle, seq, flit, vc, corrupted)`.
    /// Processed strictly front-first, so a latency change mid-flight
    /// serializes behind older frames instead of reordering past them.
    wire: VecDeque<(u64, u64, Flit, u8, bool)>,
    /// Reliable ack/nack sideband, receiver to sender:
    /// `(deliver_cycle, next_expected_seq, is_nack)`.
    ctrl: VecDeque<(u64, u64, bool)>,
    /// Receiver: next sequence accepted; anything else is dropped.
    rx_next: u64,
    /// Receiver: sequence a nack is outstanding for (`u64::MAX` = none).
    /// One nack per gap — re-armed when `rx_next` advances.
    nacked_at: u64,
    /// Per-frame corruption threshold against a uniform `u64` draw
    /// (`0` = error model off).
    ber_threshold: u64,
    /// splitmix64 state, seeded from `run_seed ^ channel_id`.
    rng: u64,
    /// False while the link is flapped down: the sender holds off and the
    /// wire silently loses its frames.
    up: bool,
    /// Gray degradation: extra one-way latency in cycles.
    extra_latency: u64,
    /// Gray degradation: serialize one frame every other cycle.
    half_bw: bool,
    /// Earliest cycle the sender may put the next frame on the wire.
    next_tx_allowed: u64,
    /// Lifetime CRC-detected corrupt frames seen by the receiver.
    crc_errors: u64,
    /// Lifetime frames retransmitted.
    replays: u64,
    /// Lifetime flap down-edges.
    flaps: u64,
    /// Decayed recent CRC errors (see [`decayed`]).
    recent_crc: u64,
    /// Decayed recent flap down-edges.
    recent_flaps: u64,
    /// Epoch `recent_*` were last folded at.
    health_epoch: u64,
}

impl Llr {
    fn new(window: usize, ber: f64, seed: u64) -> Self {
        assert!(window >= 1, "LLR window must hold at least one flit");
        // Per-frame corruption probability from the per-bit rate; the
        // threshold comparison keeps the hot path in integers.
        let p = (FLIT_BITS * ber).min(1.0);
        let ber_threshold = if p <= 0.0 {
            0
        } else {
            (p * u64::MAX as f64) as u64
        };
        Llr {
            window,
            tx_buf: VecDeque::new(),
            tx_base: 0,
            sent_mark: 0,
            tx_next: 0,
            wire: VecDeque::new(),
            ctrl: VecDeque::new(),
            rx_next: 0,
            nacked_at: u64::MAX,
            ber_threshold,
            rng: seed,
            up: true,
            extra_latency: 0,
            half_bw: false,
            next_tx_allowed: 0,
            crc_errors: 0,
            replays: 0,
            flaps: 0,
            recent_crc: 0,
            recent_flaps: 0,
            health_epoch: 0,
        }
    }

    /// Folds the lazy decay into the recent counters so an increment lands
    /// in the current epoch.
    fn fold_health(&mut self, now: u64) {
        let epoch = now / HEALTH_EPOCH_CYCLES;
        self.recent_crc = decayed(self.recent_crc, self.health_epoch, now);
        self.recent_flaps = decayed(self.recent_flaps, self.health_epoch, now);
        self.health_epoch = epoch;
    }

    /// Queues a nack for the receiver's current gap unless one is already
    /// outstanding for it.
    fn nack_once(&mut self, now: u64, latency: u64) {
        if self.nacked_at != self.rx_next {
            self.nacked_at = self.rx_next;
            self.ctrl.push_back((now + latency, self.rx_next, true));
        }
    }
}

/// A directed channel.
///
/// A channel can be *killed* by fault injection: a dead channel delivers
/// nothing, and flits sent into it pile up in a dead-drop bin that the
/// network sweeps each cycle (counting them as dropped and poisoning their
/// packets). The credit wheel drops credits returned over a dead channel
/// — the sender's credit state is rebuilt from the receiver's occupancy
/// at revival.
#[derive(Debug)]
pub struct Channel {
    latency: u64,
    alive: bool,
    flits: VecDeque<(u64, Flit, u8)>,
    /// Flits sent while the channel was dead, awaiting fault fallout.
    dead_drops: Vec<(Flit, u8)>,
    /// Lifetime flits accepted onto the wire (dead-drops excluded). The
    /// metrics layer diffs this per sample window for link utilization.
    flits_sent: u64,
    /// Link-level retry sublayer; `None` is the legacy reliable wire.
    llr: Option<Box<Llr>>,
}

// One per directed link: 589,874 of them on the 19x19x19 rung.
const _: () = assert!(std::mem::size_of::<Channel>() == 88);

impl Channel {
    /// Creates a channel with the given one-way latency (>= 1 cycle).
    pub(crate) fn new(latency: u64) -> Self {
        assert!(latency >= 1, "zero-latency channels break cycle ordering");
        Channel {
            latency,
            alive: true,
            flits: VecDeque::new(),
            dead_drops: Vec::new(),
            flits_sent: 0,
            llr: None,
        }
    }

    /// Creates a channel with an LLR sublayer: a `window`-deep replay
    /// buffer and a per-seed bit-error model at rate `ber`.
    pub fn with_llr(latency: u64, window: usize, ber: f64, seed: u64) -> Self {
        let mut ch = Channel::new(latency);
        ch.llr = Some(Box::new(Llr::new(window, ber, seed)));
        ch
    }

    /// Whether the egress may hand this channel a flit this cycle: always
    /// on a legacy channel, window-gated under LLR. The channel's one
    /// flit sender asks right before its one send of the cycle, so the
    /// answer is the window as `llr_tick` left it.
    #[inline]
    pub fn ready_for_flit(&self) -> bool {
        self.llr.as_ref().is_none_or(|l| l.tx_buf.len() < l.window)
    }

    /// One-way latency in cycles.
    pub(crate) fn latency(&self) -> u64 {
        self.latency
    }

    /// Whether the channel is up.
    pub(crate) fn is_alive(&self) -> bool {
        self.alive
    }

    /// Kills the channel: every flit in flight is lost. Returns the dropped
    /// flits so the caller can poison their packets.
    /// Under LLR the authoritative loss set is the delivered-but-unread
    /// queue plus the whole replay buffer; wire frames are copies of
    /// replay-buffer entries and are simply discarded.
    pub(crate) fn kill(&mut self) -> Vec<(Flit, u8)> {
        self.alive = false;
        let mut lost: Vec<(Flit, u8)> = self.flits.drain(..).map(|(_, f, vc)| (f, vc)).collect();
        if let Some(llr) = &mut self.llr {
            // Frames already accepted downstream (seq < rx_next) were in
            // the arrival queue or the receiver's buffers — only the
            // truly-undelivered tail of the replay buffer is lost here.
            let delivered = (llr.rx_next.saturating_sub(llr.tx_base)) as usize;
            lost.extend(llr.tx_buf.drain(..).skip(delivered));
            llr.wire.clear();
            llr.ctrl.clear();
            llr.tx_base = 0;
            llr.tx_next = 0;
            llr.sent_mark = 0;
            llr.rx_next = 0;
            llr.nacked_at = u64::MAX;
        }
        lost
    }

    /// Brings a dead channel back up. The caller must have drained the
    /// dead-drop bin (via [`Self::take_dead_drops`]) first.
    pub(crate) fn revive(&mut self) {
        debug_assert!(self.dead_drops.is_empty(), "revive with unswept dead drops");
        self.alive = true;
    }

    /// Drains flits that were sent into the dead channel.
    pub(crate) fn take_dead_drops(&mut self) -> Vec<(Flit, u8)> {
        std::mem::take(&mut self.dead_drops)
    }

    /// Sender side: puts a flit on the wire at cycle `now`, tagged with the
    /// downstream VC it will occupy. On a dead channel the flit goes to
    /// the dead-drop bin instead. Under LLR the flit enters the replay
    /// buffer; [`Self::llr_tick`] serializes it onto the wire next cycle.
    #[inline]
    pub fn send_flit(&mut self, now: u64, flit: Flit, vc: u8) {
        if !self.alive {
            self.dead_drops.push((flit, vc));
            return;
        }
        if let Some(llr) = &mut self.llr {
            debug_assert!(
                llr.tx_buf.len() < llr.window,
                "LLR replay window overrun: egress ignored ready_for_flit"
            );
            llr.tx_buf.push_back((flit, vc));
            return;
        }
        debug_assert!(
            self.flits
                .back()
                .is_none_or(|&(t, _, _)| t < now + self.latency),
            "channel bandwidth exceeded (two flits in one cycle)"
        );
        self.flits.push_back((now + self.latency, flit, vc));
        self.flits_sent += 1;
    }

    /// Advances the LLR sublayer one cycle: processes due acks/nacks,
    /// delivers due wire frames into the legacy arrival queue (dropping
    /// corrupt and out-of-sequence frames, nacking gaps), and serializes
    /// at most one frame onto the wire. Runs at the start of an executed
    /// cycle on the channels the network's LLR calendar holds due, serially
    /// in channel-id order, in both engines, so the mutation order is
    /// engine-independent. On a channel with nothing due
    /// ([`Self::llr_next_activity`] later than `now`) it is a no-op: no
    /// RNG draw, no counter.
    ///
    /// Returns `true` when a flit was delivered to the receiving end this
    /// cycle (the event engine uses this to wake the consumer).
    pub fn llr_tick(&mut self, now: u64, stats: &mut Stats) -> bool {
        let Some(llr) = &mut self.llr else {
            return false;
        };
        let latency = self.latency;
        let mut delivered = false;

        // 1. Sender: absorb due acks/nacks from the reliable sideband.
        while let Some(&(t, ack_next, is_nack)) = llr.ctrl.front() {
            if t > now {
                break;
            }
            llr.ctrl.pop_front();
            while llr.tx_base < ack_next && !llr.tx_buf.is_empty() {
                llr.tx_buf.pop_front();
                llr.tx_base += 1;
                llr.tx_next = llr.tx_next.saturating_sub(1);
                llr.sent_mark = llr.sent_mark.saturating_sub(1);
            }
            if is_nack {
                // Go-back-N: rewind to the oldest unacked frame.
                llr.tx_next = 0;
            }
        }

        // 2. Receiver: process due wire frames strictly in queue order.
        while let Some(&(t, seq, flit, vc, corrupted)) = llr.wire.front() {
            if t > now {
                break;
            }
            llr.wire.pop_front();
            if corrupted {
                llr.fold_health(now);
                llr.crc_errors += 1;
                llr.recent_crc += 1;
                stats.crc_errors += 1;
                // Always nack a CRC failure — a corrupted *replay* frame
                // must trigger another replay round even when a nack for
                // this gap already went out, or the sender would finish
                // its window believing everything was sent.
                llr.nacked_at = llr.rx_next;
                llr.ctrl.push_back((now + latency, llr.rx_next, true));
            } else if seq == llr.rx_next {
                llr.rx_next += 1;
                self.flits.push_back((now, flit, vc));
                delivered = true;
                // Cumulative ack; duplicates of later acks are harmless.
                llr.ctrl.push_back((now + latency, llr.rx_next, false));
            } else if seq < llr.rx_next {
                // Stale replay duplicate: drop, refresh the cumulative ack.
                llr.ctrl.push_back((now + latency, llr.rx_next, false));
            } else {
                // Gap: frames before `seq` were lost (flap); nack once.
                llr.nack_once(now, latency);
            }
        }

        // 3. Sender: serialize at most one frame onto the wire.
        if self.alive && llr.up && now >= llr.next_tx_allowed && llr.tx_next < llr.tx_buf.len() {
            let (flit, vc) = llr.tx_buf[llr.tx_next];
            let seq = llr.tx_base + llr.tx_next as u64;
            let corrupted = llr.ber_threshold > 0 && splitmix64(&mut llr.rng) < llr.ber_threshold;
            llr.wire
                .push_back((now + latency + llr.extra_latency, seq, flit, vc, corrupted));
            if llr.tx_next < llr.sent_mark {
                llr.replays += 1;
                stats.llr_replays += 1;
            } else {
                llr.sent_mark += 1;
            }
            llr.tx_next += 1;
            llr.next_tx_allowed = now + if llr.half_bw { 2 } else { 1 };
            self.flits_sent += 1;
            stats.flit_moves += 1;
        }
        delivered
    }

    /// Transient link-down edge: the sender holds off and frames in
    /// flight are silently lost (the replay buffer keeps their payloads).
    /// Unlike [`Self::kill`], nothing is poisoned and returning credits
    /// are untouched. No-op on a non-LLR channel.
    pub fn flap_down(&mut self, now: u64, stats: &mut Stats) {
        if let Some(llr) = &mut self.llr {
            if llr.up {
                llr.up = false;
                llr.wire.clear();
                llr.fold_health(now);
                llr.flaps += 1;
                llr.recent_flaps += 1;
                stats.flaps += 1;
            }
        }
    }

    /// Transient link-up edge: rewind to the oldest unacked frame and
    /// replay (the receiver discards duplicates).
    pub fn flap_up(&mut self) {
        if let Some(llr) = &mut self.llr {
            if !llr.up {
                llr.up = true;
                llr.tx_next = 0;
            }
        }
    }

    /// Gray degradation: adds one-way latency and optionally halves the
    /// serialization rate. No-op on a non-LLR channel.
    pub fn degrade(&mut self, extra_latency: u64, half_bw: bool) {
        if let Some(llr) = &mut self.llr {
            llr.extra_latency = extra_latency;
            llr.half_bw = half_bw;
        }
    }

    /// Clears a degradation back to nominal timing.
    pub fn restore(&mut self) {
        self.degrade(0, false);
    }

    /// The earliest cycle `>= now` the LLR sublayer has work due: a wire
    /// or ctrl frame maturing, or a pending transmission. `None` when
    /// fully quiet. After visiting a channel at cycle `c`, the network
    /// puts it back on its LLR calendar at `llr_next_activity(c + 1)`, and
    /// the calendar bounds the event engine's dead-cycle skip: work due at
    /// exactly `now` must report `now`, or the channel is visited a cycle
    /// late and the frame lands a cycle later than its schedule says.
    pub(crate) fn llr_next_activity(&self, now: u64) -> Option<u64> {
        let llr = self.llr.as_ref()?;
        let mut t = u64::MAX;
        if let Some(&(wt, ..)) = llr.wire.front() {
            t = t.min(wt);
        }
        if let Some(&(ct, ..)) = llr.ctrl.front() {
            t = t.min(ct);
        }
        if self.alive && llr.up && llr.tx_next < llr.tx_buf.len() {
            t = t.min(llr.next_tx_allowed);
        }
        (t != u64::MAX).then_some(t.max(now))
    }

    /// A routing penalty for this link's recent health: huge when the link
    /// is flapped down, otherwise scaled by decayed recent CRC errors and
    /// flaps, replay-buffer occupancy, and any standing degradation. Pure
    /// (no decay fold), so reads are engine-order independent. Zero for a
    /// clean or non-LLR link.
    pub(crate) fn health_penalty(&self, now: u64) -> u64 {
        let Some(llr) = &self.llr else {
            return 0;
        };
        if !self.alive || !llr.up {
            return 1_000_000;
        }
        decayed(llr.recent_crc, llr.health_epoch, now) * 200
            + decayed(llr.recent_flaps, llr.health_epoch, now) * 400
            + llr.tx_buf.len() as u64 * 50
            + llr.extra_latency * 20
            + if llr.half_bw { 500 } else { 0 }
    }

    /// Lifetime LLR health counters `(crc_errors, replays, flaps)`; zeros
    /// without LLR.
    pub fn llr_counters(&self) -> (u64, u64, u64) {
        self.llr
            .as_ref()
            .map_or((0, 0, 0), |l| (l.crc_errors, l.replays, l.flaps))
    }

    /// Lifetime flits accepted onto the wire (monotonic; excludes flits
    /// dead-dropped while the channel was down).
    #[inline]
    pub(crate) fn flits_sent(&self) -> u64 {
        self.flits_sent
    }

    /// Receiver side: takes the oldest flit that has arrived by `now` off
    /// the wire. A send made at `now` matures at `now + latency` or later,
    /// so it is never taken in the cycle it was made.
    #[inline]
    pub(crate) fn pop_flit(&mut self, now: u64) -> Option<(Flit, u8)> {
        let &(t, flit, vc) = self.flits.front()?;
        (t <= now).then(|| {
            self.flits.pop_front();
            (flit, vc)
        })
    }

    /// Debug builds: the cycle the oldest flit on the wire matures — what
    /// the next `pop_flit` compares with its cycle.
    #[cfg(debug_assertions)]
    pub(crate) fn next_arrival(&self) -> Option<u64> {
        self.flits.front().map(|&(t, ..)| t)
    }

    /// Receiver side: drains every flit that has arrived by `now`.
    pub fn recv_flits(&mut self, now: u64, mut f: impl FnMut(Flit, u8)) {
        while let Some((flit, vc)) = self.pop_flit(now) {
            f(flit, vc);
        }
    }

    /// Whether any flit is in flight or awaiting fault-fallout
    /// processing. An LLR channel is idle only once its replay buffer,
    /// wire, and ack sideband have all drained.
    pub fn is_idle(&self) -> bool {
        self.flits.is_empty()
            && self.dead_drops.is_empty()
            && self
                .llr
                .as_ref()
                .is_none_or(|l| l.tx_buf.is_empty() && l.wire.is_empty() && l.ctrl.is_empty())
    }

    /// Flits currently in flight (test/invariant support). Under LLR each
    /// flit is counted exactly once: delivered-but-unread frames in the
    /// arrival queue, plus replay-buffer entries not yet accepted
    /// downstream (`seq >= rx_next`); wire frames are copies and acked
    /// front entries are already counted downstream.
    pub(crate) fn flits_in_flight(&self) -> impl Iterator<Item = (Flit, u8)> + '_ {
        let skip = self
            .llr
            .as_ref()
            .map_or(0, |l| (l.rx_next.saturating_sub(l.tx_base)) as usize);
        self.flits.iter().map(|&(_, f, vc)| (f, vc)).chain(
            self.llr
                .iter()
                .flat_map(move |l| l.tx_buf.iter().skip(skip).map(|&(f, vc)| (f, vc))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(idx: u16) -> Flit {
        Flit {
            pkt: 0,
            idx,
            len: 4,
        }
    }

    #[test]
    fn flits_arrive_after_latency() {
        let mut ch = Channel::new(5);
        ch.send_flit(10, flit(0), 2);
        let mut got = Vec::new();
        ch.recv_flits(14, |f, vc| got.push((f, vc)));
        assert!(got.is_empty(), "arrived early");
        ch.recv_flits(15, |f, vc| got.push((f, vc)));
        assert_eq!(got, vec![(flit(0), 2)]);
    }

    #[test]
    fn flits_preserve_order() {
        let mut ch = Channel::new(3);
        for i in 0..4 {
            ch.send_flit(i as u64, flit(i), 0);
        }
        let mut got = Vec::new();
        ch.recv_flits(100, |f, _| got.push(f.idx));
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "bandwidth exceeded")]
    #[cfg(debug_assertions)]
    fn two_flits_same_cycle_panics() {
        let mut ch = Channel::new(2);
        ch.send_flit(0, flit(0), 0);
        ch.send_flit(0, flit(1), 0);
    }

    /// Drives one engine-ordered cycle: LLR tick first (start of cycle),
    /// then the consumer takes arrivals, then the egress makes at most
    /// one send (a send never matures the cycle it is made, so which end
    /// ticks first within the cycle is immaterial).
    fn llr_cycle(
        ch: &mut Channel,
        stats: &mut Stats,
        t: u64,
        send: Option<u16>,
        got: &mut Vec<u16>,
    ) {
        ch.llr_tick(t, stats);
        ch.recv_flits(t, |f, _| got.push(f.idx));
        if let Some(idx) = send {
            assert!(ch.ready_for_flit(), "test sent into a closed window");
            ch.send_flit(t, flit(idx), 0);
        }
    }

    /// Runs `llr_cycle` for `range`, sending flit `i` at the `i`-th cycle
    /// of the range while `i < sends`.
    fn llr_run(
        ch: &mut Channel,
        stats: &mut Stats,
        range: std::ops::Range<u64>,
        sends: u16,
        got: &mut Vec<u16>,
    ) {
        let start = range.start;
        for t in range {
            let i = t - start;
            let send = (i < sends as u64).then_some(i as u16);
            llr_cycle(ch, stats, t, send, got);
        }
    }

    #[test]
    fn llr_clean_link_delivers_in_order_with_one_cycle_overhead() {
        let mut ch = Channel::with_llr(5, 64, 0.0, 7);
        let mut stats = Stats::default();
        let mut got = Vec::new();
        llr_run(&mut ch, &mut stats, 0..80, 4, &mut got);
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(ch.is_idle(), "sideband failed to drain");
        assert_eq!(stats.llr_replays, 0);
        assert_eq!(stats.crc_errors, 0);

        // One cycle of serialization: a flit committed at cycle t goes on
        // the wire at t + 1 and arrives at t + 1 + latency.
        let mut ch2 = Channel::with_llr(5, 64, 0.0, 7);
        ch2.send_flit(10, flit(9), 3);
        let mut first = None;
        for t in 11..40 {
            ch2.llr_tick(t, &mut stats);
            ch2.recv_flits(t, |f, vc| first = first.or(Some((t, f.idx, vc))));
        }
        assert_eq!(first, Some((16, 9, 3)));
    }

    #[test]
    fn llr_corruption_is_replayed_without_loss_or_reorder() {
        // ~50% per-frame corruption, deterministic per seed: plenty of CRC
        // hits while still making progress.
        let ber = 0.5 / 512.0;
        let mut ch = Channel::with_llr(3, 64, ber, 1234);
        let mut stats = Stats::default();
        let mut got = Vec::new();
        llr_run(&mut ch, &mut stats, 0..600, 20, &mut got);
        assert_eq!(got, (0..20).collect::<Vec<_>>(), "lost/reordered/duped");
        assert!(stats.crc_errors > 0, "seed produced no corruption");
        assert!(stats.llr_replays >= stats.crc_errors);
        let (crc, replays, flaps) = ch.llr_counters();
        assert_eq!(crc, stats.crc_errors);
        assert_eq!(replays, stats.llr_replays);
        assert_eq!(flaps, 0);
        assert!(ch.is_idle(), "replay state failed to drain");
    }

    #[test]
    fn llr_flap_loses_wire_but_replays_after_up() {
        let mut ch = Channel::with_llr(8, 64, 0.0, 9);
        let mut stats = Stats::default();
        let mut got = Vec::new();
        // Send three flits; with latency 8 none is delivered by cycle 5.
        llr_run(&mut ch, &mut stats, 0..5, 3, &mut got);
        assert!(got.is_empty());
        ch.flap_down(5, &mut stats);
        assert_eq!(
            ch.health_penalty(5),
            1_000_000,
            "a flapped-down link repels routing"
        );
        llr_run(&mut ch, &mut stats, 5..20, 0, &mut got);
        assert!(got.is_empty(), "flapped-down link delivered");
        ch.flap_up();
        assert!(
            ch.health_penalty(20) < 1_000_000,
            "flap-up restores the link"
        );
        llr_run(&mut ch, &mut stats, 20..100, 0, &mut got);
        assert_eq!(got, vec![0, 1, 2], "replay after flap-up");
        assert_eq!(stats.flaps, 1);
        assert!(stats.llr_replays >= 1, "flap recovery must count replays");
        assert!(ch.is_idle());
    }

    #[test]
    fn llr_window_backpressures_and_reopens() {
        let mut ch = Channel::with_llr(2, 2, 0.0, 5);
        let mut stats = Stats::default();
        ch.send_flit(0, flit(0), 0);
        assert!(ch.ready_for_flit());
        ch.llr_tick(1, &mut stats);
        ch.send_flit(1, flit(1), 0);
        assert!(!ch.ready_for_flit(), "window of 2 must be full");
        let mut got = Vec::new();
        llr_run(&mut ch, &mut stats, 2..30, 0, &mut got);
        assert_eq!(got, vec![0, 1]);
        assert!(ch.ready_for_flit(), "acks must reopen the window");
        assert!(ch.is_idle());
    }

    #[test]
    fn llr_degraded_link_still_delivers_everything() {
        let mut ch = Channel::with_llr(3, 64, 0.0, 11);
        let mut stats = Stats::default();
        ch.degrade(7, true);
        assert!(ch.health_penalty(0) > 0);
        let mut got = Vec::new();
        llr_run(&mut ch, &mut stats, 0..120, 6, &mut got);
        assert_eq!(got, (0..6).collect::<Vec<_>>());
        ch.restore();
        assert_eq!(ch.health_penalty(120), 0);
        assert!(ch.is_idle());
    }

    #[test]
    fn llr_flits_in_flight_counts_each_flit_once() {
        let mut ch = Channel::with_llr(5, 64, 0.0, 3);
        let mut stats = Stats::default();
        let mut none = Vec::new();
        // Send four flits without ever reading arrivals.
        for t in 0..4 {
            ch.llr_tick(t, &mut stats);
            ch.send_flit(t, flit(t as u16), 0);
        }
        assert_eq!(ch.flits_in_flight().count(), 4);
        // Let some frames deliver into the (unread) arrival queue: still
        // four, each counted once.
        for t in 4..9 {
            ch.llr_tick(t, &mut stats);
        }
        assert_eq!(ch.flits_in_flight().count(), 4);
        // Consuming from the arrival queue removes them from the in-flight
        // set even though their acks are still pending.
        ch.recv_flits(9, |f, _| none.push(f.idx));
        assert!(!none.is_empty());
        assert_eq!(ch.flits_in_flight().count(), 4 - none.len());
    }

    #[test]
    fn llr_health_penalty_decays_over_epochs() {
        let ber = 0.5 / 512.0;
        let mut ch = Channel::with_llr(2, 64, ber, 42);
        let mut stats = Stats::default();
        let mut got = Vec::new();
        llr_run(&mut ch, &mut stats, 0..600, 30, &mut got);
        assert!(stats.crc_errors > 0);
        let hot = ch.health_penalty(600);
        assert!(hot > 0, "recent CRC errors must penalize");
        let cold = ch.health_penalty(600 + 64 * 1024);
        assert_eq!(cold, 0, "penalty must decay to zero after many epochs");
    }

    #[test]
    fn llr_kill_returns_unacked_and_unread_flits_once() {
        let mut ch = Channel::with_llr(3, 64, 0.0, 8);
        let mut stats = Stats::default();
        for t in 0..5 {
            ch.llr_tick(t, &mut stats);
            ch.send_flit(t, flit(t as u16), 0);
        }
        // Let a couple deliver (but stay unread in the arrival queue).
        for t in 5..8 {
            ch.llr_tick(t, &mut stats);
        }
        let lost = ch.kill();
        let mut idxs: Vec<u16> = lost.iter().map(|&(f, _)| f.idx).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4], "each flit lost exactly once");
        assert!(ch.take_dead_drops().is_empty());
        ch.revive();
        assert!(ch.is_idle());
        // The revived channel works from sequence zero again.
        ch.send_flit(100, flit(9), 1);
        let mut got = Vec::new();
        for t in 101..140 {
            ch.llr_tick(t, &mut stats);
            ch.recv_flits(t, |f, _| got.push(f.idx));
        }
        assert_eq!(got, vec![9]);
    }

    #[test]
    fn kill_drops_in_flight_and_dead_drops_sends() {
        let mut ch = Channel::new(3);
        ch.send_flit(0, flit(0), 1);
        let dropped = ch.kill();
        assert_eq!(dropped, vec![(flit(0), 1)]);
        assert!(!ch.is_alive());
        // Sends into a dead channel land in the dead-drop bin.
        ch.send_flit(5, flit(1), 0);
        let mut got = Vec::new();
        ch.recv_flits(100, |f, vc| got.push((f, vc)));
        assert!(got.is_empty(), "dead channel delivers nothing");
        assert_eq!(ch.take_dead_drops(), vec![(flit(1), 0)]);
        ch.revive();
        assert!(ch.is_alive());
        ch.send_flit(10, flit(2), 0);
        ch.recv_flits(13, |f, _| got.push((f, 0)));
        assert_eq!(got, vec![(flit(2), 0)]);
    }
}
