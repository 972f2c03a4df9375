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
//!
//! ## The wire slab
//!
//! A channel owns no flit storage. Every flit on every wire of the network
//! is a 20-byte [`Node`] of one [`WireSlab`], the list slab of `slab.rs`,
//! and a channel holds only its [`List`]: its flits in the order they
//! reach the receiver, each with the cycle it matures. Routers keep their
//! crossbar pipes and output queues as lists of the same slab, so a flit
//! keeps one node from switch traversal until the next ingress takes it
//! off the wire: the crossbar drain and the link egress relink it
//! ([`Slab::move_front`]) rather than copy it. The network owns the slab
//! next to its channels and lends it with them, so every flit method takes
//! it as a parameter. A freed node's slot is reused by the next push
//! anywhere, so the slab stops growing at the run's peak count of flits in
//! flight, however they spread over pipes, queues and channels.
//!
//! A node keeps only the low 32 bits of its maturity. Every latency is
//! below [`MAX_LATENCY`] = 2^31 cycles (`SimConfig::validate`,
//! [`Channel::degrade`]) and a node is read no later than the cycle it
//! matures, so the wrapping difference from the current cycle is exact.

use std::collections::VecDeque;

use crate::packet::Flit;
use crate::router::Router;
use crate::slab::{Linked, List, Slab, NIL};
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
/// `tx_buf` (unacked) plus the delivered-but-unconsumed flits on the
/// channel's list, which is exactly what [`Channel::flits_in_flight`]
/// reports.
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

/// The bound on every latency a node's maturity spans (crossbar and
/// channel, degraded or not): a node keeps only the low 32 bits of its
/// maturity, which stay unambiguous while the maturity lies less than
/// 2^31 cycles from the cycle that reads it.
pub const MAX_LATENCY: u64 = 1 << 31;

/// One in-flight flit: a record of the [`WireSlab`], on a router's
/// crossbar pipe, one of its output queues or a channel (20 bytes).
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// The low 32 bits of the cycle the flit leaves the crossbar (in a
    /// pipe) or reaches the receiver (on a channel); stale in an output
    /// queue. [`Node::due`] and [`Node::at`] read it by wrapping
    /// difference from the current cycle.
    maturity: u32,
    pub(crate) flit: Flit,
    /// The downstream VC it will occupy.
    pub(crate) vc: u8,
    /// In a crossbar pipe: the output port it goes to.
    pub(crate) port: u16,
    /// The next node on the same list, or the next free node.
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 20);

impl Node {
    /// The node of a flit maturing at `maturity`, bound for VC `vc` of
    /// output `port`.
    pub(crate) fn new(maturity: u64, flit: Flit, vc: u8, port: u16) -> Node {
        Node {
            maturity: maturity as u32,
            flit,
            vc,
            port,
            next: NIL,
        }
    }

    /// Whether the node has matured by cycle `now`.
    #[inline]
    pub(crate) fn due(&self, now: u64) -> bool {
        (now as u32).wrapping_sub(self.maturity) as i32 >= 0
    }

    /// The full cycle the node matures at, read from `now`.
    #[inline]
    pub(crate) fn at(&self, now: u64) -> u64 {
        now.wrapping_add_signed(i64::from(self.maturity.wrapping_sub(now as u32) as i32))
    }

    /// Sets the cycle the node matures at.
    #[inline]
    fn mature_at(&mut self, cycle: u64) {
        self.maturity = cycle as u32;
    }
}

impl Linked for Node {
    #[inline]
    fn next(&self) -> u32 {
        self.next
    }
    #[inline]
    fn set_next(&mut self, next: u32) {
        self.next = next;
    }
}

/// Every in-flight flit of the network, in one slab (see the module docs):
/// each channel's flits are a list in receiver order, and each router's
/// crossbar pipe and output queues are lists too.
pub type WireSlab = Slab<Node>;

impl WireSlab {
    /// Pushes a line onto `errs` for each fault of the lists of `channels`
    /// and of `routers`' crossbar pipes and output queues ([`Slab::audit`])
    /// and, if they are sound, for each channel or pipe whose maturities
    /// decrease (by wrapping difference, as [`Node::due`] reads them).
    pub(crate) fn audit_wire(
        &self,
        channels: &[Channel],
        routers: &[Router],
        errs: &mut Vec<String>,
    ) {
        let lists = (channels.iter().map(|ch| ch.flits))
            .chain(routers.iter().flat_map(Router::egress_lists));
        let name = |k: usize| {
            if k < channels.len() {
                return format!("channel {k}");
            }
            let mut k = k - channels.len();
            for r in routers {
                let n = r.egress_lists().count();
                match k {
                    0 => return format!("router {}'s crossbar pipe", r.id()),
                    k if k < n => {
                        return format!("router {} port {}'s output queue", r.id(), k - 1)
                    }
                    _ => k -= n,
                }
            }
            unreachable!("list {k} past the last router")
        };
        if !self.audit("wire slab", lists, name, errs) {
            return;
        }
        let in_order = |list: List| {
            let mut prev: Option<u32> = None;
            self.iter(list).all(|i| {
                let m = self[i].maturity;
                let sorted = prev.is_none_or(|p| m.wrapping_sub(p) as i32 >= 0);
                prev = Some(m);
                sorted
            })
        };
        for (c, ch) in channels.iter().enumerate() {
            if !in_order(ch.flits) {
                errs.push(format!(
                    "wire slab: channel {c}'s flits mature out of order"
                ));
            }
        }
        for r in routers {
            if r.egress_lists().next().is_some_and(|pipe| !in_order(pipe)) {
                errs.push(format!(
                    "wire slab: router {}'s crossbar pipe matures out of order",
                    r.id()
                ));
            }
        }
    }
}

/// A directed channel.
///
/// A channel can be *killed* by fault injection: a dead channel delivers
/// nothing and is handed nothing — the network counts a flit its egress
/// sends into a dead channel as lost instead (`TickCtx::send_flit`). The
/// credit wheel drops credits returned over a dead channel — the sender's
/// credit state is rebuilt from the receiver's occupancy at revival.
#[derive(Debug)]
pub struct Channel {
    latency: u64,
    alive: bool,
    /// Flits on the wire, in the order they reach the receiver: a list
    /// through the network's [`WireSlab`].
    flits: List,
    /// Lifetime flits accepted onto the wire. The metrics layer diffs this
    /// per sample window for link utilization.
    flits_sent: u64,
    /// Link-level retry sublayer; `None` is the legacy reliable wire.
    llr: Option<Box<Llr>>,
}

// One per directed link: 589,874 of them on the 19x19x19 rung.
const _: () = assert!(std::mem::size_of::<Channel>() == 40);

impl Channel {
    /// Creates a channel with the given one-way latency (>= 1 cycle, below
    /// [`MAX_LATENCY`]).
    pub(crate) fn new(latency: u64) -> Self {
        assert!(latency >= 1, "zero-latency channels break cycle ordering");
        assert!(
            latency < MAX_LATENCY,
            "channel latency {latency} is not below 2^31"
        );
        Channel {
            latency,
            alive: true,
            flits: List::EMPTY,
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

    /// Kills the channel: every flit in flight is lost. Appends the lost
    /// flits to `lost`, in wire order, so the caller can poison their
    /// packets; their nodes go back to `wire`'s free list.
    /// Under LLR the authoritative loss set is the delivered-but-unread
    /// list plus the whole replay buffer; wire frames are copies of
    /// replay-buffer entries and are simply discarded.
    pub(crate) fn kill(&mut self, wire: &mut WireSlab, lost: &mut Vec<Flit>) {
        self.alive = false;
        while let Some(node) = wire.pop_front(&mut self.flits) {
            lost.push(node.flit);
        }
        if let Some(llr) = &mut self.llr {
            // Frames already accepted downstream (seq < rx_next) were on
            // the channel's list or in the receiver's buffers — only the
            // truly-undelivered tail of the replay buffer is lost here.
            let delivered = (llr.rx_next.saturating_sub(llr.tx_base)) as usize;
            lost.extend(llr.tx_buf.drain(..).skip(delivered).map(|(flit, _)| flit));
            llr.wire.clear();
            llr.ctrl.clear();
            llr.tx_base = 0;
            llr.tx_next = 0;
            llr.sent_mark = 0;
            llr.rx_next = 0;
            llr.nacked_at = u64::MAX;
        }
    }

    /// Brings a dead channel back up.
    pub(crate) fn revive(&mut self) {
        self.alive = true;
    }

    /// Sender side: puts a flit on the wire at cycle `now`, tagged with the
    /// downstream VC it will occupy, in a new node. The channel must be
    /// alive. Under LLR the flit enters the replay buffer instead;
    /// [`Self::llr_tick`] serializes it onto the wire next cycle.
    #[inline]
    pub fn send_flit(&mut self, wire: &mut WireSlab, now: u64, flit: Flit, vc: u8) {
        if !self.replay(flit, vc) {
            let at = self.arrival(wire, now);
            wire.push_back(&mut self.flits, Node::new(at, flit, vc, 0));
        }
    }

    /// Sender side: [`Self::send_flit`] of the front node of `from` (an
    /// output queue), which keeps its slot and moves onto the wire. Under
    /// LLR its flit enters the replay buffer and the node is freed.
    #[inline]
    pub(crate) fn send_front(&mut self, wire: &mut WireSlab, from: &mut List, now: u64) {
        let n = wire.front(*from).expect("a flit to send");
        if self.replay(n.flit, n.vc) {
            wire.pop_front(from);
        } else {
            let at = self.arrival(wire, now);
            let s = wire.move_front(from, &mut self.flits);
            wire[s].mature_at(at);
        }
    }

    /// Under LLR, puts a flit sent this cycle in the replay buffer and
    /// returns `true`; a legacy channel returns `false`.
    #[inline]
    fn replay(&mut self, flit: Flit, vc: u8) -> bool {
        debug_assert!(self.alive, "flit sent into a dead channel");
        let Some(llr) = &mut self.llr else {
            return false;
        };
        debug_assert!(
            llr.tx_buf.len() < llr.window,
            "LLR replay window overrun: egress ignored ready_for_flit"
        );
        llr.tx_buf.push_back((flit, vc));
        true
    }

    /// Counts a flit sent at `now` onto the legacy wire and returns the
    /// cycle it matures: one latency later.
    #[inline]
    fn arrival(&mut self, wire: &WireSlab, now: u64) -> u64 {
        let at = now + self.latency;
        debug_assert!(
            self.flits.last == NIL || wire[self.flits.last].at(now) < at,
            "channel bandwidth exceeded (two flits in one cycle)"
        );
        self.flits_sent += 1;
        at
    }

    /// Advances the LLR sublayer one cycle: processes due acks/nacks,
    /// delivers due wire frames onto the channel's list in `wire` (dropping
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
    pub fn llr_tick(&mut self, wire: &mut WireSlab, now: u64, stats: &mut Stats) -> bool {
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
                wire.push_back(&mut self.flits, Node::new(now, flit, vc, 0));
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
    /// serialization rate. No-op on a non-LLR channel. The degraded
    /// latency must stay below [`MAX_LATENCY`].
    pub fn degrade(&mut self, extra_latency: u64, half_bw: bool) {
        assert!(
            self.latency.saturating_add(extra_latency) < MAX_LATENCY,
            "degraded latency {} + {extra_latency} is not below 2^31",
            self.latency
        );
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

    /// Lifetime flits accepted onto the wire (monotonic).
    #[inline]
    pub(crate) fn flits_sent(&self) -> u64 {
        self.flits_sent
    }

    /// Receiver side: takes the oldest flit that has arrived by `now` off
    /// the wire. A send made at `now` matures at `now + latency` or later,
    /// so it is never taken in the cycle it was made.
    #[inline]
    pub(crate) fn pop_flit(&mut self, wire: &mut WireSlab, now: u64) -> Option<(Flit, u8)> {
        if !wire.front(self.flits)?.due(now) {
            return None;
        }
        wire.pop_front(&mut self.flits).map(|n| (n.flit, n.vc))
    }

    /// Debug builds: the cycle the oldest flit on the wire matures, read
    /// at cycle `now` — what the next `pop_flit` compares with its cycle.
    #[cfg(debug_assertions)]
    pub(crate) fn next_arrival(&self, wire: &WireSlab, now: u64) -> Option<u64> {
        wire.front(self.flits).map(|n| n.at(now))
    }

    /// Receiver side: drains every flit that has arrived by `now`.
    pub fn recv_flits(&mut self, wire: &mut WireSlab, now: u64, mut f: impl FnMut(Flit, u8)) {
        while let Some((flit, vc)) = self.pop_flit(wire, now) {
            f(flit, vc);
        }
    }

    /// Whether any flit is in flight. An LLR channel is idle only once its
    /// replay buffer, wire, and ack sideband have all drained.
    pub fn is_idle(&self) -> bool {
        self.flits.first == NIL
            && self
                .llr
                .as_ref()
                .is_none_or(|l| l.tx_buf.is_empty() && l.wire.is_empty() && l.ctrl.is_empty())
    }

    /// Flits currently in flight (test/invariant support). Under LLR each
    /// flit is counted exactly once: delivered-but-unread frames on the
    /// channel's list, plus replay-buffer entries not yet accepted
    /// downstream (`seq >= rx_next`); wire frames are copies and acked
    /// front entries are already counted downstream.
    pub(crate) fn flits_in_flight<'a>(
        &'a self,
        wire: &'a WireSlab,
    ) -> impl Iterator<Item = (Flit, u8)> + 'a {
        let skip = self
            .llr
            .as_ref()
            .map_or(0, |l| (l.rx_next.saturating_sub(l.tx_base)) as usize);
        wire.iter(self.flits)
            .map(|i| (wire[i].flit, wire[i].vc))
            .chain(
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
        let (mut ch, mut wire) = (Channel::new(5), WireSlab::new());
        ch.send_flit(&mut wire, 10, flit(0), 2);
        let mut got = Vec::new();
        ch.recv_flits(&mut wire, 14, |f, vc| got.push((f, vc)));
        assert!(got.is_empty(), "arrived early");
        ch.recv_flits(&mut wire, 15, |f, vc| got.push((f, vc)));
        assert_eq!(got, vec![(flit(0), 2)]);
    }

    #[test]
    fn flits_preserve_order() {
        let (mut ch, mut wire) = (Channel::new(3), WireSlab::new());
        for i in 0..4 {
            ch.send_flit(&mut wire, i as u64, flit(i), 0);
        }
        let mut got = Vec::new();
        ch.recv_flits(&mut wire, 100, |f, _| got.push(f.idx));
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "bandwidth exceeded")]
    #[cfg(debug_assertions)]
    fn two_flits_same_cycle_panics() {
        let (mut ch, mut wire) = (Channel::new(2), WireSlab::new());
        ch.send_flit(&mut wire, 0, flit(0), 0);
        ch.send_flit(&mut wire, 0, flit(1), 0);
    }

    /// The slab audit's findings for `channels` (empty = sound).
    fn audit(wire: &WireSlab, channels: &[Channel]) -> Vec<String> {
        let mut errs = Vec::new();
        wire.audit_wire(channels, &[], &mut errs);
        errs
    }

    /// A flit sent two cycles before the 32-bit maturity wraps arrives
    /// exactly one latency later, past the wrap: not a cycle early, not
    /// a cycle late.
    #[test]
    fn a_flit_maturing_across_the_wrap_arrives_on_time() {
        let (mut ch, mut wire) = (Channel::new(5), WireSlab::new());
        let sent = (1u64 << 32) - 2;
        ch.send_flit(&mut wire, sent, flit(0), 1);
        assert_eq!(ch.next_arrival(&wire, sent), Some(sent + 5));
        for t in sent..sent + 5 {
            assert_eq!(ch.pop_flit(&mut wire, t), None, "arrived at cycle {t}");
        }
        assert_eq!(ch.pop_flit(&mut wire, sent + 5), Some((flit(0), 1)));
        assert!(ch.is_idle());
    }

    /// Three channels of different latencies share one slab, their sends
    /// interleaved cycle by cycle and read back at staggered cycles: each
    /// receives exactly its own flits, in its own send order, each at its
    /// own latency.
    #[test]
    fn interleaved_channels_keep_their_own_fifo_order() {
        let mut wire = WireSlab::new();
        let mut chans = [Channel::new(2), Channel::new(5), Channel::new(3)];
        let mut got: [Vec<(u64, u16)>; 3] = Default::default();
        for t in 0..40u64 {
            for (c, ch) in chans.iter_mut().enumerate() {
                // Channel c sends on cycles where t % (c + 1) == 0, tagged
                // with its own running count.
                if t % (c as u64 + 1) == 0 && t < 24 {
                    let idx = (t / (c as u64 + 1)) as u16;
                    ch.send_flit(&mut wire, t, flit(idx), c as u8);
                }
                if t % 4 == c as u64 {
                    ch.recv_flits(&mut wire, t, |f, vc| {
                        assert_eq!(vc as usize, c, "a flit crossed channels");
                        got[c].push((t, f.idx));
                    });
                }
            }
            assert_eq!(audit(&wire, &chans), Vec::<String>::new(), "cycle {t}");
        }
        for (c, ch) in chans.iter().enumerate() {
            let sends = 24u64.div_ceil(c as u64 + 1);
            let idxs: Vec<u16> = got[c].iter().map(|&(_, i)| i).collect();
            assert_eq!(idxs, (0..sends as u16).collect::<Vec<_>>(), "channel {c}");
            for &(t, i) in &got[c] {
                let sent = i as u64 * (c as u64 + 1);
                assert!(t >= sent + ch.latency(), "channel {c} flit {i} early");
            }
            assert!(ch.is_idle());
        }
    }

    /// A steady stream keeps a bounded number of flits in flight: once the
    /// slab has grown to that peak, popped nodes are reused and its
    /// capacity stops growing, however long the stream runs.
    #[test]
    fn freed_nodes_are_reused_so_the_slab_stops_growing() {
        let mut wire = WireSlab::new();
        let mut chans: Vec<Channel> = (1..=4).map(Channel::new).collect();
        let mut cap_at = Vec::new();
        for t in 0..2_000u64 {
            for ch in &mut chans {
                ch.send_flit(&mut wire, t, flit(t as u16), 0);
                ch.recv_flits(&mut wire, t, |_, _| {});
            }
            cap_at.push(wire.capacity());
        }
        // In flight after each cycle's reads: latency - 1 + 1 per channel.
        let peak = (1..=4).sum::<usize>();
        assert!(wire.len() <= peak + 4, "slab outgrew the peak");
        assert!(
            cap_at[10..].iter().all(|&c| c == cap_at[10]),
            "capacity grew late"
        );
        assert_eq!(audit(&wire, &chans), Vec::<String>::new());
    }

    /// Killing a channel returns its flits in wire order and frees their
    /// nodes, which the next sends reuse; other channels' lists are
    /// untouched.
    #[test]
    fn kill_returns_flits_in_wire_order_and_frees_their_nodes() {
        let mut wire = WireSlab::new();
        let mut chans = [Channel::new(10), Channel::new(10)];
        for t in 0..3 {
            for (c, ch) in chans.iter_mut().enumerate() {
                ch.send_flit(&mut wire, t, flit(10 * c as u16 + t as u16), c as u8);
            }
        }
        assert_eq!(wire.len(), 6);
        let mut lost = Vec::new();
        chans[0].kill(&mut wire, &mut lost);
        assert_eq!(lost, [flit(0), flit(1), flit(2)]);
        assert!(chans[0].is_idle());
        assert_eq!(audit(&wire, &chans), Vec::<String>::new());
        for t in 3..6 {
            chans[1].send_flit(&mut wire, t, flit(10 + t as u16), 1);
        }
        assert_eq!(wire.len(), 6, "the killed channel's nodes are reused");
        let mut got = Vec::new();
        chans[1].recv_flits(&mut wire, 100, |f, _| got.push(f.idx));
        assert_eq!(got, (10..16).collect::<Vec<_>>());
    }

    /// An LLR frame landing at the receiver goes on the channel's list in
    /// the shared slab, behind nothing and next to another channel's
    /// flits, with the landing cycle as its maturity.
    #[test]
    fn llr_delivery_lands_on_the_channels_list() {
        let mut wire = WireSlab::new();
        let mut stats = Stats::default();
        let mut plain = Channel::new(4);
        let mut ch = Channel::with_llr(5, 64, 0.0, 7);
        plain.send_flit(&mut wire, 0, flit(7), 0);
        ch.send_flit(&mut wire, 0, flit(9), 3);
        assert_eq!(wire.len(), 1, "the replay buffer holds the LLR flit");
        let mut landed = None;
        for t in 1..20 {
            if ch.llr_tick(&mut wire, t, &mut stats) {
                landed = Some(t);
                break;
            }
        }
        let at = landed.expect("the frame landed");
        assert_eq!(at, 6, "committed at 0, on the wire at 1, latency 5");
        assert_eq!(ch.next_arrival(&wire, at), Some(at));
        assert_eq!(wire.len(), 2);
        assert_eq!(
            ch.flits_in_flight(&wire).collect::<Vec<_>>(),
            vec![(flit(9), 3)]
        );
        assert_eq!(audit(&wire, &[plain, ch]), Vec::<String>::new());
    }

    /// The audit reports a corrupted link: a node pointed at another
    /// channel's node is then on two lists, and the first channel's list no
    /// longer ends at its `last`.
    #[test]
    fn audit_reports_a_node_on_two_lists() {
        let mut wire = WireSlab::new();
        let (mut a, mut b) = (Channel::new(3), Channel::new(3));
        a.send_flit(&mut wire, 0, flit(0), 0);
        b.send_flit(&mut wire, 0, flit(1), 0);
        let chans = [a, b];
        assert_eq!(audit(&wire, &chans), Vec::<String>::new());
        wire.relink(0, 1);
        assert_eq!(
            audit(&wire, &chans),
            vec![
                "wire slab: channel 0's last is node 0 but its list ends at node 1".to_string(),
                "wire slab: node 1 on channel 1's list is already on channel 0's list".into(),
            ]
        );
    }

    /// The wire's own audit line: a channel's flits must mature in list
    /// order.
    #[test]
    fn audit_reports_flits_maturing_out_of_order() {
        let (mut ch, mut wire) = (Channel::new(3), WireSlab::new());
        ch.send_flit(&mut wire, 0, flit(0), 0);
        ch.send_flit(&mut wire, 1, flit(1), 0);
        wire[1].mature_at(2);
        assert_eq!(
            audit(&wire, &[ch]),
            ["wire slab: channel 0's flits mature out of order"]
        );
    }

    /// Maturities are ordered by wrapping difference: a list that spans
    /// the 32-bit wrap is in order, and the same list reversed is not.
    #[test]
    fn audit_orders_maturities_across_the_wrap() {
        let (mut ch, mut wire) = (Channel::new(3), WireSlab::new());
        let start = (1u64 << 32) - 2;
        for t in start..start + 4 {
            ch.send_flit(&mut wire, t, flit(t as u16), 0);
        }
        assert_eq!(audit(&wire, &[ch]), Vec::<String>::new());
        let (mut ch, mut wire) = (Channel::new(3), WireSlab::new());
        ch.send_flit(&mut wire, start + 2, flit(0), 0);
        ch.send_flit(&mut wire, start + 3, flit(1), 0);
        wire[1].mature_at(start);
        assert_eq!(
            audit(&wire, &[ch]),
            ["wire slab: channel 0's flits mature out of order"]
        );
    }

    /// Drives one engine-ordered cycle: LLR tick first (start of cycle),
    /// then the consumer takes arrivals, then the egress makes at most
    /// one send (a send never matures the cycle it is made, so which end
    /// ticks first within the cycle is immaterial).
    fn llr_cycle(
        (ch, wire): (&mut Channel, &mut WireSlab),
        stats: &mut Stats,
        t: u64,
        send: Option<u16>,
        got: &mut Vec<u16>,
    ) {
        ch.llr_tick(wire, t, stats);
        ch.recv_flits(wire, t, |f, _| got.push(f.idx));
        if let Some(idx) = send {
            assert!(ch.ready_for_flit(), "test sent into a closed window");
            ch.send_flit(wire, t, flit(idx), 0);
        }
    }

    /// Runs `llr_cycle` for `range`, sending flit `i` at the `i`-th cycle
    /// of the range while `i < sends`.
    fn llr_run(
        (ch, wire): (&mut Channel, &mut WireSlab),
        stats: &mut Stats,
        range: std::ops::Range<u64>,
        sends: u16,
        got: &mut Vec<u16>,
    ) {
        let start = range.start;
        for t in range {
            let i = t - start;
            let send = (i < sends as u64).then_some(i as u16);
            llr_cycle((ch, wire), stats, t, send, got);
        }
    }

    #[test]
    fn llr_clean_link_delivers_in_order_with_one_cycle_overhead() {
        let (mut ch, mut wire) = (Channel::with_llr(5, 64, 0.0, 7), WireSlab::new());
        let mut stats = Stats::default();
        let mut got = Vec::new();
        llr_run((&mut ch, &mut wire), &mut stats, 0..80, 4, &mut got);
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(ch.is_idle(), "sideband failed to drain");
        assert_eq!(stats.llr_replays, 0);
        assert_eq!(stats.crc_errors, 0);

        // One cycle of serialization: a flit committed at cycle t goes on
        // the wire at t + 1 and arrives at t + 1 + latency.
        let mut ch2 = Channel::with_llr(5, 64, 0.0, 7);
        ch2.send_flit(&mut wire, 10, flit(9), 3);
        let mut first = None;
        for t in 11..40 {
            ch2.llr_tick(&mut wire, t, &mut stats);
            ch2.recv_flits(&mut wire, t, |f, vc| first = first.or(Some((t, f.idx, vc))));
        }
        assert_eq!(first, Some((16, 9, 3)));
    }

    #[test]
    fn llr_corruption_is_replayed_without_loss_or_reorder() {
        // ~50% per-frame corruption, deterministic per seed: plenty of CRC
        // hits while still making progress.
        let ber = 0.5 / 512.0;
        let (mut ch, mut wire) = (Channel::with_llr(3, 64, ber, 1234), WireSlab::new());
        let mut stats = Stats::default();
        let mut got = Vec::new();
        llr_run((&mut ch, &mut wire), &mut stats, 0..600, 20, &mut got);
        assert_eq!(got, (0..20).collect::<Vec<_>>(), "lost/reordered/duped");
        assert!(stats.crc_errors > 0, "seed produced no corruption");
        assert!(stats.llr_replays >= stats.crc_errors);
        assert_eq!(stats.flaps, 0);
        assert!(ch.is_idle(), "replay state failed to drain");
    }

    #[test]
    fn llr_flap_loses_wire_but_replays_after_up() {
        let (mut ch, mut wire) = (Channel::with_llr(8, 64, 0.0, 9), WireSlab::new());
        let mut stats = Stats::default();
        let mut got = Vec::new();
        // Send three flits; with latency 8 none is delivered by cycle 5.
        llr_run((&mut ch, &mut wire), &mut stats, 0..5, 3, &mut got);
        assert!(got.is_empty());
        ch.flap_down(5, &mut stats);
        assert_eq!(
            ch.health_penalty(5),
            1_000_000,
            "a flapped-down link repels routing"
        );
        llr_run((&mut ch, &mut wire), &mut stats, 5..20, 0, &mut got);
        assert!(got.is_empty(), "flapped-down link delivered");
        ch.flap_up();
        assert!(
            ch.health_penalty(20) < 1_000_000,
            "flap-up restores the link"
        );
        llr_run((&mut ch, &mut wire), &mut stats, 20..100, 0, &mut got);
        assert_eq!(got, vec![0, 1, 2], "replay after flap-up");
        assert_eq!(stats.flaps, 1);
        assert!(stats.llr_replays >= 1, "flap recovery must count replays");
        assert!(ch.is_idle());
    }

    #[test]
    fn llr_window_backpressures_and_reopens() {
        let (mut ch, mut wire) = (Channel::with_llr(2, 2, 0.0, 5), WireSlab::new());
        let mut stats = Stats::default();
        ch.send_flit(&mut wire, 0, flit(0), 0);
        assert!(ch.ready_for_flit());
        ch.llr_tick(&mut wire, 1, &mut stats);
        ch.send_flit(&mut wire, 1, flit(1), 0);
        assert!(!ch.ready_for_flit(), "window of 2 must be full");
        let mut got = Vec::new();
        llr_run((&mut ch, &mut wire), &mut stats, 2..30, 0, &mut got);
        assert_eq!(got, vec![0, 1]);
        assert!(ch.ready_for_flit(), "acks must reopen the window");
        assert!(ch.is_idle());
    }

    #[test]
    fn llr_degraded_link_still_delivers_everything() {
        let (mut ch, mut wire) = (Channel::with_llr(3, 64, 0.0, 11), WireSlab::new());
        let mut stats = Stats::default();
        ch.degrade(7, true);
        assert!(ch.health_penalty(0) > 0);
        let mut got = Vec::new();
        llr_run((&mut ch, &mut wire), &mut stats, 0..120, 6, &mut got);
        assert_eq!(got, (0..6).collect::<Vec<_>>());
        ch.restore();
        assert_eq!(ch.health_penalty(120), 0);
        assert!(ch.is_idle());
    }

    #[test]
    fn llr_flits_in_flight_counts_each_flit_once() {
        let (mut ch, mut wire) = (Channel::with_llr(5, 64, 0.0, 3), WireSlab::new());
        let mut stats = Stats::default();
        let mut none = Vec::new();
        // Send four flits without ever reading arrivals.
        for t in 0..4 {
            ch.llr_tick(&mut wire, t, &mut stats);
            ch.send_flit(&mut wire, t, flit(t as u16), 0);
        }
        assert_eq!(ch.flits_in_flight(&wire).count(), 4);
        // Let some frames deliver onto the (unread) channel list: still
        // four, each counted once.
        for t in 4..9 {
            ch.llr_tick(&mut wire, t, &mut stats);
        }
        assert_eq!(ch.flits_in_flight(&wire).count(), 4);
        // Consuming from the channel list removes them from the in-flight
        // set even though their acks are still pending.
        ch.recv_flits(&mut wire, 9, |f, _| none.push(f.idx));
        assert!(!none.is_empty());
        assert_eq!(ch.flits_in_flight(&wire).count(), 4 - none.len());
    }

    #[test]
    fn llr_health_penalty_decays_over_epochs() {
        let ber = 0.5 / 512.0;
        let (mut ch, mut wire) = (Channel::with_llr(2, 64, ber, 42), WireSlab::new());
        let mut stats = Stats::default();
        let mut got = Vec::new();
        llr_run((&mut ch, &mut wire), &mut stats, 0..600, 30, &mut got);
        assert!(stats.crc_errors > 0);
        let hot = ch.health_penalty(600);
        assert!(hot > 0, "recent CRC errors must penalize");
        let cold = ch.health_penalty(600 + 64 * 1024);
        assert_eq!(cold, 0, "penalty must decay to zero after many epochs");
    }

    #[test]
    fn llr_kill_returns_unacked_and_unread_flits_once() {
        let (mut ch, mut wire) = (Channel::with_llr(3, 64, 0.0, 8), WireSlab::new());
        let mut stats = Stats::default();
        for t in 0..5 {
            ch.llr_tick(&mut wire, t, &mut stats);
            ch.send_flit(&mut wire, t, flit(t as u16), 0);
        }
        // Let a couple deliver (but stay unread on the channel list).
        for t in 5..8 {
            ch.llr_tick(&mut wire, t, &mut stats);
        }
        let mut lost = Vec::new();
        ch.kill(&mut wire, &mut lost);
        let mut idxs: Vec<u16> = lost.iter().map(|f| f.idx).collect();
        idxs.sort_unstable();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4], "each flit lost exactly once");
        ch.revive();
        assert!(ch.is_idle());
        // The revived channel works from sequence zero again.
        ch.send_flit(&mut wire, 100, flit(9), 1);
        let mut got = Vec::new();
        for t in 101..140 {
            ch.llr_tick(&mut wire, t, &mut stats);
            ch.recv_flits(&mut wire, t, |f, _| got.push(f.idx));
        }
        assert_eq!(got, vec![9]);
    }

    /// Killing drops the flits in flight; the network loses what its
    /// egress sends into the dead channel (`network.rs`), and a revived
    /// channel delivers again.
    #[test]
    fn kill_drops_in_flight_and_revive_delivers_again() {
        let (mut ch, mut wire) = (Channel::new(3), WireSlab::new());
        ch.send_flit(&mut wire, 0, flit(0), 1);
        let mut dropped = Vec::new();
        ch.kill(&mut wire, &mut dropped);
        assert_eq!(dropped, [flit(0)]);
        assert!(!ch.is_alive());
        let mut got = Vec::new();
        ch.recv_flits(&mut wire, 100, |f, vc| got.push((f, vc)));
        assert!(got.is_empty(), "dead channel delivers nothing");
        ch.revive();
        assert!(ch.is_alive());
        ch.send_flit(&mut wire, 10, flit(2), 0);
        ch.recv_flits(&mut wire, 13, |f, _| got.push((f, 0)));
        assert_eq!(got, vec![(flit(2), 0)]);
    }
}
