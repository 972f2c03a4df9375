//! The combined input/output-queued (CIOQ) router model.
//!
//! Models the Section 6 router: per-input-port VC buffers with credit-based
//! flow control, virtual cut-through ("packet buffer") allocation, a
//! crossbar with configurable internal speedup ("sufficient speedup to
//! ensure the internal router datapath is not a bottleneck"), per-packet
//! input queues with no head-of-line blocking (the CIOQ organization of
//! the paper's reference [40]), 1-flit/cycle output links, and
//! **age-based arbitration** for both VC allocation and switch scheduling.
//!
//! Per-cycle pipeline:
//! 1. *Ingress* — accept flits whose channel delay expired. (Returning
//!    credits are applied before the cycle's first tick by the network's
//!    credit wheel, [`Router::absorb_credit`].)
//! 2. *Route + VC allocation* — for every unrouted head flit (oldest
//!    packet first), ask the routing algorithm for its candidates, weigh
//!    each from this router's output state ([`hxcore::weight::weigh`]) and
//!    grant the cheapest feasible `(port, vc)`: the VC must be unclaimed
//!    and hold credits for the *whole packet* (virtual cut-through), or be
//!    completely empty under atomic queue allocation (Section 4.2). Heads
//!    are weighed one after another against the live output state, so an
//!    older head's grant is already visible to a younger head's weights.
//! 3. *Switch traversal* — each input port forwards up to
//!    `crossbar_speedup` flits per cycle from its oldest routed packets
//!    into the crossbar, returning credits upstream.
//! 4. *Crossbar egress* — matured flits drop into per-port output queues.
//! 5. *Link egress* — each output port sends one flit per cycle.
//!
//! Scale notes (100k+ terminals): wiring arrays are u32 channel/terminal
//! ids (`u32::MAX` = unwired), and the constructor allocates the per-port
//! datapath state (input VC records, credit/owner/backlog arrays, output
//! queue heads) up front — deferring it to first use measured no saving in
//! peak bytes at any `fig2_sim` rung. The output side holds no flit
//! storage of its own. A flit crossing the crossbar is a record of the
//! network's one crossbar FIFO (`xbar.rs`), which the router drains by
//! position, and each output queue is a list through the network's wire
//! slab (`channel.rs`): a flit keeps one node from crossbar exit until
//! the next router's ingress takes it off the wire. The input side holds
//! no per-VC heap:
//! each input VC is one fixed [`InVc`] record, and its packets are a list
//! through one per-router slab of [`PktBuf`]s (`slab.rs`). A buffered
//! packet is three counters, not a flit queue: its flits are always the
//! consecutive indices `sent..arrived` (see [`PktBuf`]). Each input port
//! keeps a `u64` mask of the VCs holding flits, and the router one bit per
//! input port with a buffered flit and one per output port with a queued
//! flit, so allocation, switch traversal, link egress and
//! [`Router::next_wake`] touch only VCs and ports that have work.
//!
//! At saturation most heads are blocked and re-evaluated every cycle, so
//! the router keeps its heads as a persistent list in age order, each
//! carrying a copy of its packet's routing fields ([`Head`], 32 bytes).
//! Re-evaluating a blocked head then reads no packet-pool slot and no
//! input queue, and nothing is sorted per cycle; the list changes only
//! when a head flit lands, a head is granted or a fault reap runs.

use hxcore::weight::weigh;
use hxcore::{
    Candidate, ClassMap, Commit, Hop, PacketRouteState, RoutingAlgorithm, NO_INTERMEDIATE,
};
use hxtopo::Topology;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::channel::{Channel, Node, WireSlab};
use crate::config::SimConfig;
use crate::credit::CreditWheel;
use crate::metrics::lap;
use crate::network::TickCtx;
use crate::packet::{Flit, Packet, PacketId, PacketPool};
use crate::slab::{Linked, List, Slab, NIL};
use crate::stats::Stats;
use crate::trace::{DropReason, DropRecord, HopRecord, Trace};
use crate::xbar::{XbarFifo, XbarRec};

/// Sentinel for "no channel / no terminal" in the u32 wiring arrays.
pub(crate) const NO_WIRE: u32 = u32::MAX;
/// Sentinel for an unclaimed output VC in the packed owner array.
const NO_OWNER: PacketId = PacketId::MAX;

/// Arbitration sort key for routing candidates: `(weight, hops, random
/// salt)`, compared lexicographically — lower wins.
type CandKey = (u64, u8, u32);

/// An ingress arrival hint: `(router_id, port)`, a port whose incoming
/// channel has a flit maturing this cycle. Ascending order is the full
/// scan's visit order. The event engine decodes them from the port
/// arrival keys its calendar pops, which are numbered in that order.
pub(crate) type ArrivalHint = (u32, u16);

/// Poisons `id` (if not already) and records the drop.
pub(crate) fn poison_packet(
    pool: &mut PacketPool,
    stats: &mut Stats,
    trace: Option<&mut Trace>,
    id: PacketId,
    now: u64,
    reason: DropReason,
) {
    let tag = pool.get(id).tag;
    if pool.poison(id) {
        stats.dropped_packets += 1;
        if let Some(t) = trace {
            t.record_drop(DropRecord {
                pkt: id,
                tag,
                cycle: now,
                reason,
            });
        }
    }
}

/// One buffered (possibly still-arriving) packet inside an input VC.
///
/// Input buffers hold *packets*, not a single FIFO of flits: any fully
/// routed packet in the VC may be forwarded, which is what removes input
/// head-of-line blocking in the CIOQ architecture (Chuang et al.'s
/// combined input/output-queued switch, the paper's reference [40]).
/// Flit order is preserved per packet, and packets still serialize on any
/// single output VC through the ownership claim, so channels never see
/// interleaved packets on one VC.
///
/// That is also why the buffer stores no flits. Channels deliver each VC
/// in order (LLR replays go-back-N, in order too), and the upstream claim
/// keeps a VC to one packet until its tail, so the flits that reach a
/// buffer are the packet's indices `0, 1, 2, …` in turn; the crossbar
/// takes them from the front. The buffered flits are therefore exactly
/// `sent..arrived`, and a forwarded flit is rebuilt as `Flit { pkt, idx:
/// sent, len }`.
///
/// Buffers live in their router's slab ([`Router::slab`]); `next` links a
/// buffer to the next packet of its input VC, or a free slot to the next
/// free one.
#[derive(Clone, Copy)]
struct PktBuf {
    pkt: PacketId,
    /// Next slot on this buffer's list ([`NIL`] = end of list).
    next: u32,
    /// Packet creation cycle, cached for age-based arbitration scans.
    birth: u64,
    route: Option<(u16, u8)>,
    /// Packet length in flits.
    len: u16,
    /// Flits of this packet received so far.
    arrived: u16,
    /// Flits of this packet already forwarded out of this router (fault
    /// fallout uses this to refund exactly the unsent credit reservation).
    sent: u16,
}

const _: () = assert!(std::mem::size_of::<PktBuf>() == 32);

impl Linked for PktBuf {
    #[inline]
    fn next(&self) -> u32 {
        self.next
    }
    #[inline]
    fn set_next(&mut self, next: u32) {
        self.next = next;
    }
}

/// One input VC: its packet list in the router's slab, in arrival order,
/// and the counters ingress, grant and switch traversal read (20 bytes).
#[derive(Clone, Copy, Debug, PartialEq)]
struct InVc {
    list: List,
    /// Packets on the list.
    len: u32,
    /// Routed packets. They are always the list's prefix: only a VC's
    /// first unrouted packet is ever routed ([`Router::grant`]) and
    /// removals keep order, so the packet `routed` links from `first` is
    /// the VC's head awaiting a route, and the first `routed` packets are
    /// all the crossbar may forward.
    routed: u32,
    /// Buffered flits: `Σ (arrived − sent)` over the list's packets.
    flits: u32,
}

const _: () = assert!(std::mem::size_of::<InVc>() == 20);

impl InVc {
    const EMPTY: InVc = InVc {
        list: List::EMPTY,
        len: 0,
        routed: 0,
        flits: 0,
    };
}

/// One input VC's first unrouted packet, with the fields route + VC
/// allocation reads (32 bytes).
///
/// The fields are copied from the packet pool once, when the packet
/// becomes its VC's head, so re-evaluating a blocked head touches no pool
/// slot. The copy stays exact: while the head sits at this router only
/// this router's [`Router::grant`] writes the packet's route state and hop
/// count, and a grant takes the head off the list. The route state is
/// stored field by field, which packs it without padding.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Head {
    /// Packet creation cycle: the age-arbitration key, `pkt` breaking ties.
    birth: u64,
    pkt: PacketId,
    dst_router: u32,
    /// Destination terminal.
    dst: u32,
    /// [`PacketRouteState::intermediate`].
    intermediate: u32,
    /// Packet length in flits.
    len: u16,
    /// Input port the packet is buffered on.
    port: u16,
    /// [`PacketRouteState::phase`].
    phase: u8,
    /// [`PacketRouteState::deroute_mask`].
    deroute_mask: u8,
    /// Input VC the packet is buffered on.
    vc: u8,
    /// Router-to-router hops taken so far.
    hops: u8,
}

const _: () = assert!(std::mem::size_of::<Head>() == 32);

impl Head {
    fn new(pkt: PacketId, p: &Packet, port: usize, vc: usize) -> Self {
        Head {
            birth: p.birth,
            pkt,
            dst_router: p.dst_router,
            dst: p.dst,
            intermediate: p.route.intermediate,
            len: p.len,
            port: port as u16,
            phase: p.route.phase,
            deroute_mask: p.route.deroute_mask,
            vc: vc as u8,
            hops: p.hops,
        }
    }

    fn route(&self) -> PacketRouteState {
        PacketRouteState {
            intermediate: self.intermediate,
            phase: self.phase,
            deroute_mask: self.deroute_mask,
        }
    }

    /// Age order: oldest first. `pkt` is unique among a router's heads,
    /// so no two keys tie.
    fn key(&self) -> (u64, PacketId) {
        (self.birth, self.pkt)
    }
}

/// One router instance.
pub struct Router {
    id: usize,
    num_ports: usize,
    num_vcs: usize,
    buf_cap: u32,
    atomic: bool,
    xbar_speedup: usize,
    class_map: ClassMap,

    /// Input side, indexed [port * num_vcs + vc]: one record per input VC.
    in_vc: Vec<InVc>,
    /// Every buffered packet of every input VC, linked into per-VC lists
    /// ([`InVc`]).
    slab: Slab<PktBuf>,
    /// Per input port, bit `vc` set iff that VC's `flits` is non-zero
    /// (hence `num_vcs <= 64`). Walking the set bits upwards is the
    /// ascending VC order the allocation and crossbar scans need.
    vc_mask: Vec<u64>,
    /// Bit `port` set iff `vc_mask[port]` is non-zero, 64 ports per word.
    in_active: Vec<u64>,

    // Output side.
    out_credits: Vec<u32>,
    /// Occupied downstream flits per output port: `Σ_vc (buf_cap −
    /// out_credits)`, kept in step at every `out_credits` write so the
    /// congestion view reads a port's pressure without walking its VCs.
    out_occ: Vec<u32>,
    /// Downstream VC claims, [`NO_OWNER`] = unclaimed.
    out_owner: Vec<PacketId>,
    /// Flits per output port inside the crossbar + output queue.
    out_backlog: Vec<u32>,
    /// Per output port, the flits waiting for its link: a list through
    /// the network's [`WireSlab`].
    out_q: Vec<List>,
    /// Bit `port` set iff `out_q[port]` is non-empty, 64 ports per word.
    out_active: Vec<u64>,

    /// This router's flits inside the crossbar: its records in the
    /// network's [`XbarFifo`].
    in_xbar: u32,

    /// Outgoing channel id per port ([`NO_WIRE`] = unused port).
    pub(crate) out_chan: Vec<u32>,
    /// Incoming channel id per port ([`NO_WIRE`] = unused port).
    pub(crate) in_chan: Vec<u32>,
    /// Terminal id if the port is a terminal port ([`NO_WIRE`] otherwise).
    pub(crate) port_term: Vec<u32>,
    /// Link liveness per port (false = unwired or failed; routing skips
    /// and `pick_vc` refuses dead ports).
    pub(crate) live_ports: Vec<bool>,
    /// Livelock guard (`SimConfig::max_packet_hops`).
    hop_cap: u8,

    rng: SmallRng,
    /// Total flits buffered on the input side (fast-path skip).
    flits_buffered: u32,
    /// Every input VC's first unrouted packet (the one `routed` links
    /// from its list's `first`), ascending by [`Head::key`]: the order
    /// route + VC allocation visits them in. Maintained where a VC's first
    /// unrouted packet changes — a head flit landing in a VC with none, a
    /// grant (exposing the next packet after the pass) and a fault reap
    /// (rebuilt whole).
    heads: Vec<Head>,
    // Scratch buffers reused every cycle.
    /// Input `(port, vc)` of this pass's grants.
    granted: Vec<(u16, u8)>,
    cands: Vec<Candidate>,
}

impl Router {
    /// Creates router `id` with `num_ports` unwired ports (the network
    /// wires them immediately after construction), every VC empty and
    /// every downstream credit full.
    pub(crate) fn new(
        id: usize,
        num_ports: usize,
        cfg: &SimConfig,
        num_classes: usize,
        seed: u64,
    ) -> Self {
        let (n, v) = (num_ports, cfg.num_vcs);
        let buf_cap = cfg.buf_flits as u32;
        Router {
            id,
            num_ports,
            num_vcs: v,
            buf_cap,
            atomic: cfg.atomic_queue_alloc,
            xbar_speedup: cfg.crossbar_speedup.max(1),
            class_map: ClassMap::new(v, num_classes),
            in_vc: vec![InVc::EMPTY; n * v],
            slab: Slab::new(),
            vc_mask: vec![0; n],
            in_active: vec![0; n.div_ceil(64)],
            out_credits: vec![buf_cap; n * v],
            out_occ: vec![0; n],
            out_owner: vec![NO_OWNER; n * v],
            out_backlog: vec![0; n],
            out_q: vec![List::EMPTY; n],
            out_active: vec![0; n.div_ceil(64)],
            in_xbar: 0,
            out_chan: vec![NO_WIRE; num_ports],
            in_chan: vec![NO_WIRE; num_ports],
            port_term: vec![NO_WIRE; num_ports],
            live_ports: vec![false; num_ports],
            hop_cap: cfg.max_packet_hops,
            rng: SmallRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            flits_buffered: 0,
            heads: Vec::new(),
            granted: Vec::new(),
            cands: Vec::new(),
        }
    }

    #[inline]
    fn pv(&self, port: usize, vc: usize) -> usize {
        port * self.num_vcs + vc
    }

    /// Counts one more flit buffered on input `(port, vc)`.
    #[inline]
    fn buffer_flit(&mut self, port: usize, vc: usize) {
        let i = self.pv(port, vc);
        self.in_vc[i].flits += 1;
        self.vc_mask[port] |= 1u64 << vc;
        self.in_active[port >> 6] |= 1u64 << (port & 63);
        self.flits_buffered += 1;
    }

    /// Counts one flit leaving input `(port, vc)`, forwarded or reaped.
    #[inline]
    fn unbuffer_flit(&mut self, port: usize, vc: usize) {
        let i = self.pv(port, vc);
        self.in_vc[i].flits -= 1;
        if self.in_vc[i].flits == 0 {
            self.vc_mask[port] &= !(1u64 << vc);
            if self.vc_mask[port] == 0 {
                self.in_active[port >> 6] &= !(1u64 << (port & 63));
            }
        }
        self.flits_buffered -= 1;
    }

    /// Input VC `i`'s buffers, first to last.
    fn bufs(&self, i: usize) -> impl Iterator<Item = &PktBuf> + '_ {
        self.slab.iter(self.in_vc[i].list).map(|s| &self.slab[s])
    }

    /// Input VC `i`'s first unrouted packet, if it has one: `routed`
    /// links along its list.
    fn first_unrouted(&self, i: usize) -> Option<&PktBuf> {
        let q = &self.in_vc[i];
        (q.len > q.routed).then(|| self.bufs(i).nth(q.routed as usize))?
    }

    /// Whether any output queue holds a flit.
    #[inline]
    fn egress_pending(&self) -> bool {
        self.out_active.iter().any(|&w| w != 0)
    }

    /// Incoming channel of `port`, if wired.
    #[inline]
    pub(crate) fn in_ch(&self, port: usize) -> Option<usize> {
        let c = self.in_chan[port];
        (c != NO_WIRE).then_some(c as usize)
    }

    /// Outgoing channel of `port`, if wired.
    #[inline]
    pub(crate) fn out_ch(&self, port: usize) -> Option<usize> {
        let c = self.out_chan[port];
        (c != NO_WIRE).then_some(c as usize)
    }

    /// Router id.
    pub(crate) fn id(&self) -> usize {
        self.id
    }

    /// Whether the router holds no work at all: no buffered input flit, no
    /// flit in the crossbar and no output queue marked active (with the
    /// crossbar empty, every port's backlog is its output queue).
    pub(crate) fn is_idle(&self) -> bool {
        self.flits_buffered == 0 && self.in_xbar == 0 && !self.egress_pending()
    }

    /// Flits of this router inside the crossbar.
    pub(crate) fn in_xbar(&self) -> u32 {
        self.in_xbar
    }

    /// The router's lists in the network's [`WireSlab`]: each port's
    /// output queue.
    pub(crate) fn egress_lists(&self) -> &[List] {
        &self.out_q
    }

    /// Event engine: the next cycle this router must tick, given it just
    /// ticked at `now`. `None` means fully asleep — only a flit arrival
    /// wake can reactivate it. Returning credits wake nobody, and need
    /// not: a sleeping router has no buffered flits, so credits don't
    /// enable any work (allocation acts only on buffered heads), and the
    /// credit wheel applies them before the router next ticks.
    ///
    /// Buffered input flits or queued output flits mean per-cycle work
    /// (routing draws randomness, links send one flit per cycle), so the
    /// router stays awake. Flits inside the crossbar need no wake from
    /// here: the first push of each cycle planted the router's wake for
    /// the cycle they leave it (`TickCtx::push_xbar`). Queued output flits
    /// are read off the output-active mask words, not by visiting every
    /// port's queue.
    pub(crate) fn next_wake(&self, now: u64) -> Option<u64> {
        (self.flits_buffered > 0 || self.egress_pending()).then_some(now + 1)
    }

    /// Debug builds: whether a tick at `now` would find none of the
    /// router's own work — no buffered input flit, no active output queue
    /// and no crossbar record of its due in `xbar` (its channels report
    /// their arrivals themselves).
    #[cfg(debug_assertions)]
    pub(crate) fn idle_at(&self, now: u64, xbar: &XbarFifo) -> bool {
        self.flits_buffered == 0
            && !self.egress_pending()
            && (self.in_xbar == 0 || !xbar.has_due(self.id as u32, now))
    }

    /// Downstream credits for `(port, vc)` (test/invariant support).
    pub fn credits(&self, port: usize, vc: usize) -> u32 {
        self.out_credits[port * self.num_vcs + vc]
    }

    /// Input-buffer occupancy of `(port, vc)` in flits (test/invariant
    /// support).
    pub fn input_occupancy(&self, port: usize, vc: usize) -> usize {
        self.bufs(port * self.num_vcs + vc)
            .map(|buf| (buf.arrived - buf.sent) as usize)
            .sum()
    }

    /// Owner of the downstream VC claim on `(port, vc)` (invariant
    /// support).
    pub(crate) fn vc_owner(&self, port: usize, vc: usize) -> Option<PacketId> {
        let o = self.out_owner[port * self.num_vcs + vc];
        (o != NO_OWNER).then_some(o)
    }

    /// Whether `port`'s outgoing link is up (wired and not failed).
    pub(crate) fn port_live(&self, port: usize) -> bool {
        self.live_ports[port]
    }

    /// Flits inside the crossbar (`xbar`) or the output queue (`wire`)
    /// heading to `(port, vc)` (invariant support).
    pub(crate) fn in_flight_to(
        &self,
        port: usize,
        vc: usize,
        (wire, xbar): (&WireSlab, &XbarFifo),
    ) -> usize {
        let xbar = xbar
            .records_of(self.id as u32)
            .filter(|r| r.port as usize == port && r.vc as usize == vc)
            .count();
        let outq = wire
            .iter(self.out_q[port])
            .filter(|&s| wire[s].vc as usize == vc)
            .count();
        xbar + outq
    }

    /// Audits the derived allocation state against what it summarizes,
    /// on every port (dead ones too):
    /// - each port's occupancy counter equals `Σ_vc (buf_flits − credits)`;
    /// - every slab slot is on exactly one input VC's list or on the free
    ///   list ([`Slab::audit`]), and each list's last slot, length and
    ///   routed count fit its [`InVc`];
    /// - each input VC's routed packets are exactly its first `routed`;
    /// - every packet buffer has `sent <= arrived <= len`;
    /// - each input VC's flit count equals its packets' `Σ (arrived − sent)`;
    /// - each input port's VC mask marks exactly the VCs holding flits;
    /// - the input-active mask marks exactly the ports with a non-zero VC
    ///   mask;
    /// - `flits_buffered` is the total over all input VCs;
    /// - the output-active mask marks exactly the ports with a queued flit;
    /// - the head list holds exactly each input VC's first unrouted packet,
    ///   strictly ascending in `(birth, pkt)`, every copied field equal to
    ///   the pool's.
    ///
    /// Appends one line per violation.
    pub(crate) fn audit_derived_state(&self, pool: &PacketPool, errs: &mut Vec<String>) {
        let (v, what) = (self.num_vcs, format!("router {} slab", self.id));
        let name = |i: usize| format!("port {} vc {}", i / v, i % v);
        if !self
            .slab
            .audit(&what, self.in_vc.iter().map(|q| q.list), name, errs)
        {
            // A broken list cannot be walked; the checks below would only
            // repeat the damage.
            return;
        }
        let mut buffered = 0;
        let mut in_active = vec![0u64; self.in_active.len()];
        let mut out_active = vec![0u64; self.out_active.len()];
        for port in 0..self.num_ports {
            let base = port * self.num_vcs;
            let occupied: u32 = self.out_credits[base..base + self.num_vcs]
                .iter()
                .map(|&cr| self.buf_cap - cr)
                .sum();
            if self.out_occ[port] != occupied {
                errs.push(format!(
                    "router {} port {port}: occupancy counter {} but credits say {occupied}",
                    self.id, self.out_occ[port]
                ));
            }
            let mut mask = 0u64;
            for vc in 0..self.num_vcs {
                let q = &self.in_vc[base + vc];
                let len = self.bufs(base + vc).count() as u32;
                if len != q.len || q.routed > q.len {
                    errs.push(format!(
                        "router {} port {port} vc {vc}: list holds {len} packets, but the record \
                         says {q:?}",
                        self.id
                    ));
                }
                if self
                    .bufs(base + vc)
                    .enumerate()
                    .any(|(k, buf)| buf.route.is_some() != (k < q.routed as usize))
                {
                    errs.push(format!(
                        "router {} port {port} vc {vc}: routed packets are not the first {} of {}",
                        self.id, q.routed, q.len
                    ));
                }
                let bad = self
                    .bufs(base + vc)
                    .find(|b| b.sent > b.arrived || b.arrived > b.len);
                if let Some(buf) = bad {
                    errs.push(format!(
                        "router {} port {port} vc {vc}: packet {} has sent {} arrived {} len {}",
                        self.id, buf.pkt, buf.sent, buf.arrived, buf.len
                    ));
                    continue;
                }
                let held = self.input_occupancy(port, vc);
                if q.flits as usize != held {
                    errs.push(format!(
                        "router {} port {port} vc {vc}: flit count {} but the buffers hold {held}",
                        self.id, q.flits
                    ));
                }
                if held > 0 {
                    mask |= 1u64 << vc;
                }
                buffered += held;
            }
            if self.vc_mask[port] != mask {
                errs.push(format!(
                    "router {} port {port}: VC mask {:#x} but the VCs holding flits are {mask:#x}",
                    self.id, self.vc_mask[port]
                ));
            }
            if self.vc_mask[port] != 0 {
                in_active[port >> 6] |= 1u64 << (port & 63);
            }
            if self.out_q[port].first != NIL {
                out_active[port >> 6] |= 1u64 << (port & 63);
            }
        }
        if self.flits_buffered as usize != buffered {
            errs.push(format!(
                "router {}: flits_buffered {} but the buffers hold {buffered}",
                self.id, self.flits_buffered
            ));
        }
        if self.in_active != in_active {
            errs.push(format!(
                "router {}: input-active mask {:x?} but the ports with a VC mask are {in_active:x?}",
                self.id, self.in_active
            ));
        }
        if self.out_active != out_active {
            errs.push(format!(
                "router {}: output-active mask {:x?} but the queued ports are {out_active:x?}",
                self.id, self.out_active
            ));
        }
        self.audit_heads(pool, errs);
    }

    /// The head-list part of [`Self::audit_derived_state`].
    fn audit_heads(&self, pool: &PacketPool, errs: &mut Vec<String>) {
        let unrouted = self.in_vc.iter().filter(|q| q.len > q.routed).count();
        if self.heads.len() != unrouted {
            errs.push(format!(
                "router {}: {} listed heads but {unrouted} VCs hold an unrouted packet",
                self.id,
                self.heads.len()
            ));
        }
        for (k, head) in self.heads.iter().enumerate() {
            if k > 0 && self.heads[k - 1].key() >= head.key() {
                errs.push(format!(
                    "router {}: head {k} (packet {}) breaks the age order",
                    self.id, head.pkt
                ));
            }
            let (port, vc) = (head.port as usize, head.vc as usize);
            let first = (port < self.num_ports && vc < self.num_vcs)
                .then(|| self.first_unrouted(self.pv(port, vc)))
                .flatten();
            if first.is_none_or(|buf| buf.pkt != head.pkt) {
                errs.push(format!(
                    "router {} port {port} vc {vc}: listed head {} is not the first unrouted packet",
                    self.id, head.pkt
                ));
            } else if *head != Head::new(head.pkt, pool.get(head.pkt), port, vc) {
                errs.push(format!(
                    "router {} port {port} vc {vc}: head copy {head:?} differs from the pool's",
                    self.id
                ));
            }
        }
    }

    /// Total flits buffered anywhere inside this router.
    pub(crate) fn total_flits(&self) -> usize {
        self.flits_buffered as usize + self.out_backlog.iter().map(|&b| b as usize).sum::<usize>()
    }

    /// One simulation cycle: ingress, route + VC allocation, switch
    /// traversal, crossbar drain, link egress. Every effect lands in
    /// `ctx` as it happens — arrivals come off the wire as they are read,
    /// sends go onto it, pool and counter updates apply in place — except
    /// the hop-cap poison, which `ctx.hop_capped` holds for the network
    /// to apply after the last endpoint of the cycle.
    ///
    /// `hints`, when present (event engine), lists exactly the ports with
    /// matured flit arrivals this cycle (sorted ascending — the full
    /// scan's visit order), so ingress touches only those ports instead of
    /// scanning all `num_ports`. `None` (cycle engine) falls back to the
    /// full scan.
    pub(crate) fn tick(
        &mut self,
        topo: &dyn Topology,
        algo: &dyn RoutingAlgorithm,
        hints: Option<&[ArrivalHint]>,
        ctx: &mut TickCtx,
    ) {
        let mut stamp = ctx.timed.then(std::time::Instant::now);
        self.ingress(hints, ctx);
        lap(&mut stamp, &mut ctx.timers.ingress_ns);
        let route_before = ctx.timers.route_ns;
        self.allocate(topo, algo, ctx);
        if ctx.timed {
            lap(&mut stamp, &mut ctx.timers.vc_alloc_ns);
            // `lap` measured the whole allocate phase; carve the inner
            // route-computation time back out so the two don't double count.
            let route_delta = ctx.timers.route_ns - route_before;
            ctx.timers.vc_alloc_ns = ctx.timers.vc_alloc_ns.saturating_sub(route_delta);
        }
        self.switch_traverse(ctx);
        self.xbar_drain(ctx.xbar, ctx.wire, ctx.now);
        lap(&mut stamp, &mut ctx.timers.crossbar_ns);
        self.link_egress(ctx);
        lap(&mut stamp, &mut ctx.timers.channel_ns);
    }

    /// Phase 1: accept arriving flits. Flits of poisoned packets are
    /// discarded on arrival, with their buffer credit returned
    /// immediately.
    fn ingress(&mut self, hints: Option<&[ArrivalHint]>, ctx: &mut TickCtx) {
        match hints {
            // Ascending, unique ports reproduce the full scan's order. A
            // hinted port whose arrivals turn out empty (killed channel)
            // is a no-op exactly like the full scan visiting it.
            Some(hints) => {
                for &(_, port) in hints {
                    self.ingress_flits(port as usize, ctx);
                }
            }
            None => {
                for port in 0..self.num_ports {
                    self.ingress_flits(port, ctx);
                }
            }
        }
    }

    /// Accepts every matured flit on `port`'s incoming channel.
    fn ingress_flits(&mut self, port: usize, ctx: &mut TickCtx) {
        let Some(ch) = self.in_ch(port) else { return };
        while let Some((flit, vc)) = ctx.channels[ch].pop_flit(ctx.wire, ctx.now) {
            if ctx.pool.any_poisoned() && ctx.pool.is_poisoned(flit.pkt) {
                // Discard and return the buffer credit right away:
                // the flit never occupies a slot here.
                ctx.send_credit(ch, vc);
                ctx.stats.dropped_flits += 1;
                ctx.pool.note_flit_gone(flit.pkt);
                continue;
            }
            let i = self.pv(port, vc as usize);
            if flit.is_head() {
                let head = Head::new(flit.pkt, ctx.pool.get(flit.pkt), port, vc as usize);
                let buf = PktBuf {
                    pkt: flit.pkt,
                    next: NIL,
                    birth: head.birth,
                    route: None,
                    len: flit.len,
                    arrived: 0,
                    sent: 0,
                };
                self.slab.push_back(&mut self.in_vc[i].list, buf);
                self.in_vc[i].len += 1;
                // Landing behind routed packets only, it is the VC's
                // first unrouted packet.
                if self.in_vc[i].len == self.in_vc[i].routed + 1 {
                    self.insert_head(head);
                }
                // The buffer itself pins the packet slot until it
                // is dismantled (tail forwarded or fault-reaped).
                ctx.pool.note_flit_created(flit.pkt);
            }
            let last = self.in_vc[i].list.last;
            assert!(last != NIL, "body flit without a head");
            let back = &mut self.slab[last];
            debug_assert_eq!(back.pkt, flit.pkt, "packets interleaved on one VC");
            debug_assert_eq!(flit.idx, back.arrived, "flits out of order on one VC");
            back.arrived += 1;
            self.buffer_flit(port, vc as usize);
            ctx.stats.flit_moves += 1;
        }
    }

    /// Absorbs one returning credit for output `(port, vc)` (the credit
    /// wheel applies it before the cycle's first tick).
    #[inline]
    pub(crate) fn absorb_credit(&mut self, port: usize, vc: u8) {
        let i = self.pv(port, vc as usize);
        self.out_credits[i] += 1;
        self.out_occ[port] -= 1;
        debug_assert!(self.out_credits[i] <= self.buf_cap, "credit overflow");
    }

    /// Phase 2: route computation + virtual cut-through VC allocation,
    /// oldest packet first.
    ///
    /// The pass visits [`Self::heads`], the first unrouted packet of every
    /// input VC (the packet a real VC-state machine would be routing).
    /// Routed packets ahead of it keep draining independently, so routing
    /// pipelines across packets; and because every input VC's front is
    /// (re)considered every cycle, the class-ordered drain argument for
    /// deadlock freedom holds — no packet that could make progress is
    /// ever starved of route computation. Each head is weighed against the
    /// live output state: an older head's grant in this pass has already
    /// taken its credits (`out_credits`, `out_occ`) when a younger head's
    /// candidates are weighed. A granted head leaves the list, and its
    /// VC's next packet joins only after the pass, so it is first routed
    /// next cycle.
    fn allocate(&mut self, topo: &dyn Topology, algo: &dyn RoutingAlgorithm, ctx: &mut TickCtx) {
        if self.heads.is_empty() {
            return;
        }
        let mut heads = std::mem::take(&mut self.heads);
        let mut granted = std::mem::take(&mut self.granted);
        let mut cands = std::mem::take(&mut self.cands);
        let mut kept = 0;
        for idx in 0..heads.len() {
            let head = heads[idx];
            // For age-arbitration accounting: the first head is this
            // router's oldest waiting packet this cycle.
            if self.route_head(&head, idx == 0, topo, algo, ctx, &mut cands) {
                granted.push((head.port, head.vc));
            } else {
                heads[kept] = head;
                kept += 1;
            }
        }
        heads.truncate(kept);
        self.heads = heads;
        for &(port, vc) in &granted {
            self.expose_head(port as usize, vc as usize, ctx.pool);
        }
        granted.clear();
        self.granted = granted;
        self.cands = cands;
    }

    /// Routes one head and, if its chosen output VC is grantable, grants
    /// it. Returns whether it was granted.
    #[inline]
    fn route_head(
        &mut self,
        head: &Head,
        oldest: bool,
        topo: &dyn Topology,
        algo: &dyn RoutingAlgorithm,
        ctx: &mut TickCtx,
        cands: &mut Vec<Candidate>,
    ) -> bool {
        let pkt_id = head.pkt;
        if ctx.pool.any_poisoned() && ctx.pool.is_poisoned(pkt_id) {
            // Fault fallout will reap this buffer; don't route it.
            return false;
        }
        let dst_router = head.dst_router as usize;

        // The chosen output: (port, VC range, routing commit, ejection,
        // deroute).
        let (out_port, range, commit, ejection, nonminimal) = if dst_router == self.id {
            // Ejection: any VC of the destination terminal's port
            // (classes don't apply to the terminal link).
            let (_, eject_port) = topo.terminal_attach(head.dst as usize);
            (eject_port, 0..self.num_vcs, Commit::None, true, false)
        } else {
            // Livelock guard: a packet that has burned its hop budget
            // is dropped instead of granted another network hop. The
            // poison waits for the end of the cycle (see
            // `Network::tick`): routers after this one still read the
            // packet as live this cycle.
            if head.hops >= self.hop_cap {
                ctx.hop_capped.push(pkt_id);
                return false;
            }
            let route_t0 = ctx.timed.then(std::time::Instant::now);
            self.weighed_candidates(head, algo, ctx.channels, ctx.now, cands);
            if let Some(t0) = route_t0 {
                ctx.timers.route_ns += t0.elapsed().as_nanos() as u64;
            }
            // With every port up an empty candidate set is a routing
            // bug; under faults it just means "wait for a revival or a
            // reroute".
            debug_assert!(
                !cands.is_empty() || self.live_ports.iter().any(|&l| !l),
                "routing produced no candidates on a fault-free router"
            );

            // "Choose the output with the minimal weight" (Sections
            // 5.1/5.2): the best-weighted candidate is selected *before*
            // checking grantability; if its VC class is currently
            // claimed or credit-starved the packet waits and
            // re-evaluates next cycle. (Falling back to the cheapest
            // *grantable* candidate instead turns transient credit
            // exhaustion into spurious deroutes and destabilizes the
            // network near saturation.) Ties prefer fewer hops, then a
            // random draw to avoid systematic port bias.
            let mut best: Option<(CandKey, usize, u8, Commit)> = None;
            let mut min_hops = u8::MAX;
            for c in cands.iter() {
                let salt = self.rng.random::<u32>();
                let key = (c.weight, c.hops, salt);
                min_hops = min_hops.min(c.hops);
                if best.as_ref().is_none_or(|(k, ..)| *k > key) {
                    best = Some((key, c.port as usize, c.class, c.commit));
                }
            }
            let Some((key, out_port, class, commit)) = best else {
                return false;
            };
            // A grant whose hop count exceeds the cheapest offered path
            // is a deroute.
            let range = self.class_map.vcs_of(class as usize);
            (out_port, range, commit, false, key.1 > min_hops)
        };

        let Some(out_vc) = self.pick_vc(out_port, range.clone(), head.len) else {
            if let Some(m) = ctx.metrics.as_deref_mut() {
                let starved = self.has_unclaimed_vc(out_port, range);
                m.on_alloc_stall(self.id, out_port, starved);
            }
            return false;
        };
        self.grant(head, out_port, out_vc, commit, ctx.pool);
        if let Some(m) = ctx.metrics.as_deref_mut() {
            // DAL names a deroute's dimension in the commit; otherwise
            // the port's topology dimension attributes it.
            let dim = match commit {
                Commit::Deroute { dim } => Some(dim as usize),
                _ => None,
            };
            m.on_grant(self.id, out_port, oldest, ejection, nonminimal, dim);
        }
        if let Some(t) = ctx.trace.as_deref_mut() {
            t.record(HopRecord {
                pkt: pkt_id,
                tag: ctx.pool.get(pkt_id).tag,
                router: self.id as u32,
                out_port: out_port as u16,
                out_vc: out_vc as u8,
                ejection,
                cycle: ctx.now,
            });
        }
        true
    }

    /// Fills `cands` with `head`'s weighed candidates: the algorithm
    /// enumerates them (drawing its own randomness first), then each is
    /// weighed against this router's live output state.
    #[inline]
    fn weighed_candidates(
        &mut self,
        head: &Head,
        algo: &dyn RoutingAlgorithm,
        channels: &[Channel],
        now: u64,
        cands: &mut Vec<Candidate>,
    ) {
        let port = head.port as usize;
        let hop = Hop {
            router: self.id,
            input_port: port,
            input_class: self.class_map.class_of(head.vc as usize),
            from_terminal: self.port_term[port] != NO_WIRE,
            dst_router: head.dst_router as usize,
            dst_terminal: head.dst as usize,
            state: head.route(),
            live: &self.live_ports,
        };
        cands.clear();
        algo.candidates(&hop, &mut self.rng, cands);
        for c in cands.iter_mut() {
            self.weigh(c, channels, now);
        }
    }

    /// Weighs candidate `c` ([`weigh`]) from this router's output side:
    /// the credits of its class's VCs, its port's occupied-flits counter,
    /// and the port's backlog plus its link's health penalty. Only this
    /// router sends on its outgoing channels, and it routes before it
    /// sends, so `channels` reads this cycle's health.
    #[inline]
    fn weigh(&self, c: &mut Candidate, channels: &[Channel], now: u64) {
        let port = c.port as usize;
        let class_occ = self.range_occupancy(port, self.class_map.vcs_of(c.class as usize));
        let ch = self.out_chan[port];
        let health = if ch == NO_WIRE {
            0
        } else {
            channels[ch as usize].health_penalty(now)
        };
        let pressure = u64::from(self.out_backlog[port]) + health;
        weigh(
            c,
            &self.class_map,
            class_occ,
            u64::from(self.out_occ[port]),
            pressure,
        );
    }

    /// Occupied downstream flits of `port` over the VCs in `vcs`, from
    /// their credits.
    #[inline]
    fn range_occupancy(&self, port: usize, vcs: std::ops::Range<usize>) -> u64 {
        let base = port * self.num_vcs;
        let free: u32 = self.out_credits[base + vcs.start..base + vcs.end]
            .iter()
            .sum();
        vcs.len() as u64 * u64::from(self.buf_cap) - u64::from(free)
    }

    /// Puts `head` on the head list at its age rank.
    fn insert_head(&mut self, head: Head) {
        let at = self.heads.partition_point(|h| h.key() < head.key());
        self.heads.insert(at, head);
    }

    /// Lists input `(port, vc)`'s first unrouted packet, if it has one:
    /// after a grant took the previous one off the list.
    fn expose_head(&mut self, port: usize, vc: usize, pool: &PacketPool) {
        if let Some(buf) = self.first_unrouted(self.pv(port, vc)) {
            let head = Head::new(buf.pkt, pool.get(buf.pkt), port, vc);
            self.insert_head(head);
        }
    }

    /// Rebuilds the head list from the input VC lists.
    fn rebuild_heads(&mut self, pool: &PacketPool) {
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        for port in 0..self.num_ports {
            for vc in 0..self.num_vcs {
                if let Some(buf) = self.first_unrouted(self.pv(port, vc)) {
                    heads.push(Head::new(buf.pkt, pool.get(buf.pkt), port, vc));
                }
            }
        }
        heads.sort_unstable_by_key(Head::key);
        self.heads = heads;
    }

    /// Picks the feasible VC with most free space in `range` for a packet
    /// of `len` flits, honoring virtual cut-through (whole-packet credits)
    /// and atomic queue allocation.
    fn pick_vc(&self, port: usize, range: std::ops::Range<usize>, len: u16) -> Option<usize> {
        if self.out_chan[port] == NO_WIRE || !self.live_ports[port] {
            return None;
        }
        let mut best: Option<(u32, usize)> = None;
        for vc in range {
            let i = self.pv(port, vc);
            if self.out_owner[i] != NO_OWNER {
                continue;
            }
            let cr = self.out_credits[i];
            let ok = if self.atomic {
                cr == self.buf_cap
            } else {
                cr >= len as u32
            };
            if ok && best.is_none_or(|(b, _)| cr > b) {
                best = Some((cr, vc));
            }
        }
        best.map(|(_, vc)| vc)
    }

    /// Whether `port` is live and some VC in `range` is unclaimed. After a
    /// failed [`Self::pick_vc`] this classifies the stall: an unclaimed VC
    /// means the packet is credit-starved, otherwise every candidate VC is
    /// claimed by another packet.
    fn has_unclaimed_vc(&self, port: usize, range: std::ops::Range<usize>) -> bool {
        self.out_chan[port] != NO_WIRE
            && self.live_ports[port]
            && range.into_iter().any(|vc| {
                let i = self.pv(port, vc);
                self.out_owner[i] == NO_OWNER
            })
    }

    /// Commits a VC allocation: claims the downstream VC, reserves credits
    /// for the whole packet, and applies the packet-state update (routing
    /// commit + hop count) to `pool`. Nothing else reads that state this
    /// cycle — the packet's head is here, already routed, and the
    /// downstream router can't see it for at least one channel latency.
    /// Only a grant onto a router-to-router link counts a hop. The caller
    /// takes `head` off [`Self::heads`] and exposes the VC's next packet.
    fn grant(
        &mut self,
        head: &Head,
        out_port: usize,
        out_vc: usize,
        commit: Commit,
        pool: &mut PacketPool,
    ) {
        let (pkt_id, len) = (head.pkt, head.len);
        let i = self.pv(head.port as usize, head.vc as usize);
        let o = self.pv(out_port, out_vc);
        debug_assert!(self.out_owner[o] == NO_OWNER);
        debug_assert!(self.out_credits[o] >= len as u32);
        self.out_owner[o] = pkt_id;
        self.out_credits[o] -= len as u32;
        self.out_occ[out_port] += len as u32;
        // A head is its VC's first unrouted packet, and a VC's next
        // packet joins the list only after the pass, so the grantee still
        // sits there.
        let s = self
            .slab
            .iter(self.in_vc[i].list)
            .nth(self.in_vc[i].routed as usize)
            .expect("a listed head is buffered");
        let buf = &mut self.slab[s];
        debug_assert!(buf.pkt == pkt_id && buf.route.is_none());
        buf.route = Some((out_port as u16, out_vc as u8));
        self.in_vc[i].routed += 1;
        let p = pool.get_mut(pkt_id);
        apply_commit(&mut p.route, commit);
        if self.port_term[out_port] == NO_WIRE {
            p.hops = p.hops.saturating_add(1);
        }
    }

    /// Phase 3: each input port forwards up to `crossbar_speedup` flits
    /// (oldest routed packet first) into the crossbar, returning credits
    /// upstream. Only the ports the input-active mask marks are visited,
    /// ascending, as a full scan would.
    fn switch_traverse(&mut self, ctx: &mut TickCtx) {
        if self.flits_buffered == 0 {
            return;
        }
        let any_poisoned = ctx.pool.any_poisoned();
        // Forwarding from one port changes no other port's bit, so each
        // word's snapshot stays exact while its ports are visited.
        for w in 0..self.in_active.len() {
            let mut ports = self.in_active[w];
            while ports != 0 {
                let port = w << 6 | ports.trailing_zeros() as usize;
                ports &= ports - 1;
                self.forward_port(port, any_poisoned, ctx);
            }
        }
    }

    /// Switch traversal on one input port.
    #[inline]
    fn forward_port(&mut self, port: usize, any_poisoned: bool, ctx: &mut TickCtx) {
        for _ in 0..self.xbar_speedup {
            let mut vcs = self.vc_mask[port];
            if vcs == 0 {
                break;
            }
            // Oldest routed packet with buffered flits on this input port,
            // across the VCs that hold flits; routed packets are each
            // list's prefix, so the walk stops there. It keeps the pick's
            // predecessor so a forwarded tail unlinks in O(1).
            // (birth, pkt, vc, slot, predecessor slot)
            let mut pick: Option<(u64, PacketId, usize, u32, u32)> = None;
            while vcs != 0 {
                let vc = vcs.trailing_zeros() as usize;
                vcs &= vcs - 1;
                let q = self.in_vc[self.pv(port, vc)];
                let (mut prev, mut s) = (NIL, q.list.first);
                for _ in 0..q.routed {
                    let buf = &self.slab[s];
                    // Poisoned packets are held for the fault reaper.
                    if buf.arrived != buf.sent
                        && !(any_poisoned && ctx.pool.is_poisoned(buf.pkt))
                        && pick.is_none_or(|p| (p.0, p.1) > (buf.birth, buf.pkt))
                    {
                        pick = Some((buf.birth, buf.pkt, vc, s, prev));
                    }
                    (prev, s) = (s, buf.next);
                }
            }
            let Some((_, _, vc, s, prev)) = pick else {
                break;
            };
            let i = self.pv(port, vc);
            let buf = &mut self.slab[s];
            let (out_port, out_vc) = buf.route.expect("picked a routed packet");
            let flit = Flit {
                pkt: buf.pkt,
                idx: buf.sent,
                len: buf.len,
            };
            buf.sent += 1;
            self.unbuffer_flit(port, vc);
            ctx.stats.flit_moves += 1;
            if flit.is_tail() {
                let q = &mut self.in_vc[i];
                self.slab.unlink(&mut q.list, prev, s);
                (q.len, q.routed) = (q.len - 1, q.routed - 1);
                ctx.pool.note_flit_gone(flit.pkt); // the buffer's own pin
                let o = self.pv(out_port as usize, out_vc as usize);
                debug_assert_eq!(self.out_owner[o], flit.pkt);
                self.out_owner[o] = NO_OWNER;
            }
            ctx.push_xbar(XbarRec {
                flit,
                router: self.id as u32,
                vc: out_vc,
                port: out_port,
            });
            self.in_xbar += 1;
            self.out_backlog[out_port as usize] += 1;
            // Credit for the freed input-buffer slot.
            if let Some(ch) = self.in_ch(port) {
                ctx.send_credit(ch, vc as u8);
            }
        }
    }

    /// Phase 4: this router's matured records leave the front of `xbar`,
    /// each one a new node on its port's output queue in `wire`.
    fn xbar_drain(&mut self, xbar: &mut XbarFifo, wire: &mut WireSlab, now: u64) {
        if self.in_xbar == 0 {
            return;
        }
        xbar.drain(self.id as u32, now, |rec| {
            let port = rec.port as usize;
            wire.push_back(&mut self.out_q[port], Node::new(0, rec.flit, rec.vc));
            self.out_active[port >> 6] |= 1u64 << (port & 63);
            self.in_xbar -= 1;
        });
    }

    /// Phase 5: one flit per output port onto the wire, visiting only the
    /// ports the output-active mask marks (ascending, as a full scan
    /// would). A port whose LLR replay window is full holds its flit — the
    /// queue keeps the router awake ([`Self::next_wake`]) and the window
    /// reopens as acks arrive, so the backpressure is transient.
    fn link_egress(&mut self, ctx: &mut TickCtx) {
        for w in 0..self.out_active.len() {
            let mut ports = self.out_active[w];
            while ports != 0 {
                let port = w << 6 | ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let ch = self.out_ch(port).expect("queued flit on unwired port");
                if !ctx.channels[ch].ready_for_flit() {
                    continue;
                }
                ctx.send_front(ch, &mut self.out_q[port]);
                if self.out_q[port].first == NIL {
                    self.out_active[w] &= !(1u64 << (port & 63));
                }
                self.out_backlog[port] -= 1;
            }
        }
    }

    /// Fault fallout: poisons every packet committed to `port` and every
    /// packet still arriving (incomplete) on input `port`. Called when the
    /// link attached to `port` dies; the buffers themselves are removed by
    /// [`Self::reap_poisoned`].
    pub(crate) fn poison_port_traffic(
        &mut self,
        port: usize,
        pool: &mut PacketPool,
        stats: &mut Stats,
        mut trace: Option<&mut Trace>,
        now: u64,
    ) {
        // Packets granted the dead output port (from any input VC), then
        // incomplete packets whose remaining flits were on the dead wire.
        let granted = (0..self.in_vc.len())
            .flat_map(|i| self.bufs(i))
            .filter(|buf| buf.route.is_some_and(|(p, _)| p as usize == port));
        let cut = (0..self.num_vcs)
            .flat_map(|vc| self.bufs(self.pv(port, vc)))
            .filter(|buf| buf.arrived < buf.len);
        for buf in granted.chain(cut) {
            let trace = trace.as_deref_mut();
            poison_packet(pool, stats, trace, buf.pkt, now, DropReason::LinkFailed);
        }
    }

    /// Fault fallout: removes every buffered packet that has been poisoned,
    /// returning input-buffer credits upstream, releasing downstream VC
    /// claims, and refunding the unsent part of the cut-through credit
    /// reservation.
    pub(crate) fn reap_poisoned(
        &mut self,
        now: u64,
        pool: &mut PacketPool,
        stats: &mut Stats,
        channels: &[Channel],
        credits: &mut CreditWheel,
    ) {
        if !pool.any_poisoned() {
            return;
        }
        let mut reaped = false;
        for port in 0..self.num_ports {
            for vc in 0..self.num_vcs {
                let i = self.pv(port, vc);
                let (mut prev, mut s) = (NIL, self.in_vc[i].list.first);
                while s != NIL {
                    let next = self.slab[s].next;
                    if !pool.is_poisoned(self.slab[s].pkt) {
                        (prev, s) = (s, next);
                        continue;
                    }
                    reaped = true;
                    let q = &mut self.in_vc[i];
                    let buf = self.slab.unlink(&mut q.list, prev, s);
                    q.len -= 1;
                    s = next;
                    if let Some((op, ov)) = buf.route {
                        self.in_vc[i].routed -= 1;
                        let o = self.pv(op as usize, ov as usize);
                        debug_assert_eq!(self.out_owner[o], buf.pkt);
                        self.out_owner[o] = NO_OWNER;
                        // Refund the reservation for flits never forwarded.
                        // (Flits already sent return their credit from the
                        // receiver — or never, if they died on the wire; a
                        // revival rebuilds dead-port credits from scratch.)
                        // The refund clamps at capacity, so the port counter
                        // moves by what the credits actually gained.
                        let refund =
                            ((buf.len - buf.sent) as u32).min(self.buf_cap - self.out_credits[o]);
                        self.out_credits[o] += refund;
                        self.out_occ[op as usize] -= refund;
                    }
                    for _ in buf.sent..buf.arrived {
                        self.unbuffer_flit(port, vc);
                        stats.dropped_flits += 1;
                        if let Some(ch) = self.in_ch(port) {
                            credits.send(now, ch, &channels[ch], vc as u8);
                        }
                        pool.note_flit_gone(buf.pkt);
                    }
                    pool.note_flit_gone(buf.pkt); // the buffer's own pin
                }
            }
        }
        // A reap can remove heads and the packets ahead of them; faults
        // are rare, so the list is rebuilt whole. The surviving packets
        // are live, so their pool slots are theirs.
        if reaped {
            self.rebuild_heads(pool);
        }
    }

    /// Fault fallout: discards every crossbar and output-queue flit
    /// heading to `port`, removing their records from `xbar` and freeing
    /// their nodes in `wire`. Called before reviving the attached link so
    /// stale remnants of killed packets never reach the fresh wire.
    pub(crate) fn purge_egress(
        &mut self,
        port: usize,
        (wire, xbar): (&mut WireSlab, &mut XbarFifo),
        pool: &mut PacketPool,
        stats: &mut Stats,
    ) {
        let mut gone = Vec::new();
        if self.in_xbar > 0 {
            xbar.purge(self.id as u32, port as u16, |rec| gone.push(rec.flit));
            self.in_xbar -= gone.len() as u32;
        }
        while let Some(n) = wire.pop_front(&mut self.out_q[port]) {
            gone.push(n.flit);
        }
        self.out_active[port >> 6] &= !(1u64 << (port & 63));
        self.out_backlog[port] -= gone.len() as u32;
        stats.dropped_flits += gone.len() as u64;
        for flit in gone {
            pool.note_flit_gone(flit.pkt);
        }
    }

    /// Rebuilds downstream credit state for `port` after a link revival:
    /// capacity minus the receiver's actual buffer occupancy per VC.
    pub(crate) fn reset_out_credits(&mut self, port: usize, occupancy: &[usize]) {
        debug_assert_eq!(occupancy.len(), self.num_vcs);
        for (vc, &occ) in occupancy.iter().enumerate() {
            let i = self.pv(port, vc);
            debug_assert!(self.out_owner[i] == NO_OWNER, "claim survived a dead link");
            self.out_credits[i] = self.buf_cap - occ as u32;
        }
        self.out_occ[port] = occupancy.iter().sum::<usize>() as u32;
    }
}

/// Applies a routing commit to packet state.
fn apply_commit(state: &mut PacketRouteState, commit: Commit) {
    match commit {
        Commit::None => {}
        Commit::SetValiant {
            intermediate,
            phase,
        } => {
            debug_assert_ne!(intermediate, NO_INTERMEDIATE);
            state.intermediate = intermediate;
            state.phase = phase;
        }
        Commit::SetPhase(p) => state.phase = p,
        Commit::Deroute { dim } => state.deroute_mask |= 1 << dim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::EventState;
    use std::sync::Mutex;

    impl Router {
        /// Queues `flit` for `port`'s link, as the crossbar would.
        pub(crate) fn queue_egress(
            &mut self,
            wire: &mut WireSlab,
            port: usize,
            flit: Flit,
            vc: u8,
        ) {
            wire.push_back(&mut self.out_q[port], Node::new(0, flit, vc));
            self.out_active[port >> 6] |= 1u64 << (port & 63);
            self.out_backlog[port] += 1;
        }
    }

    /// An empty crossbar FIFO of the default latency.
    fn xbar() -> XbarFifo {
        XbarFifo::new(SimConfig::default().crossbar_latency)
    }

    /// What a tick context lends: the channels, the wire slab holding
    /// their flits and the crossbar FIFO.
    type Lent<'a> = (&'a mut [Channel], &'a mut WireSlab, &'a mut XbarFifo);

    /// Runs `f` with a tick context at cycle `now` over `lent` and `pool`
    /// (no trace, metrics or event engine).
    fn with_ctx<T>(
        now: u64,
        lent: Lent,
        pool: &mut PacketPool,
        f: impl FnOnce(&mut TickCtx) -> T,
    ) -> T {
        with_wakes(now, lent, pool, None, f)
    }

    /// [`with_ctx`] with the event engine's `wakes`.
    fn with_wakes<T>(
        now: u64,
        (channels, wire, xbar): Lent,
        pool: &mut PacketPool,
        wakes: Option<&mut EventState>,
        f: impl FnOnce(&mut TickCtx) -> T,
    ) -> T {
        f(&mut TickCtx {
            now,
            channels,
            wire,
            xbar,
            pool,
            stats: &mut Stats::default(),
            delivered: &mut Vec::new(),
            trace: None,
            metrics: None,
            hop_capped: &mut Vec::new(),
            lost: &mut Vec::new(),
            timed: false,
            timers: Default::default(),
            wakes,
            llr_due: None,
            credits: &mut CreditWheel::from_cycle(now, 1),
        })
    }

    /// A router with `ports` ports, each wired to channel `port` both
    /// ways and live, with one channel of latency 1 per port.
    fn wired_router(ports: usize, cfg: &SimConfig, classes: usize) -> (Router, Vec<Channel>) {
        let mut r = Router::new(0, ports, cfg, classes, 7);
        for p in 0..ports {
            r.out_chan[p] = p as u32;
            r.in_chan[p] = p as u32;
            r.live_ports[p] = true;
        }
        (r, (0..ports).map(|_| Channel::new(1)).collect())
    }

    /// A live packet of `len` flits born at `birth`, bound for router 1.
    fn packet(pool: &mut PacketPool, len: u16, birth: u64) -> PacketId {
        pool.alloc(crate::packet::Packet {
            src: 0,
            dst: 1,
            dst_router: 1,
            len,
            hops: 0,
            birth,
            inject: 0,
            route: PacketRouteState::default(),
            tag: 0,
            seq: 0,
        })
    }

    #[test]
    fn apply_commit_variants() {
        let mut s = PacketRouteState::default();
        apply_commit(
            &mut s,
            Commit::SetValiant {
                intermediate: 7,
                phase: 0,
            },
        );
        assert_eq!(s.intermediate, 7);
        assert_eq!(s.phase, 0);
        apply_commit(&mut s, Commit::SetPhase(1));
        assert_eq!(s.phase, 1);
        apply_commit(&mut s, Commit::Deroute { dim: 2 });
        apply_commit(&mut s, Commit::Deroute { dim: 0 });
        assert_eq!(s.deroute_mask, 0b101);
        apply_commit(&mut s, Commit::None);
        assert_eq!(s.intermediate, 7);
    }

    #[test]
    fn new_router_is_idle_with_full_credits() {
        let cfg = SimConfig::default();
        let r = Router::new(3, 10, &cfg, 2, 42);
        assert!(r.is_idle());
        assert_eq!(r.credits(0, 0), cfg.buf_flits as u32);
        assert_eq!(r.total_flits(), 0);
    }

    #[test]
    fn new_router_reports_defaults() {
        let cfg = SimConfig::default();
        let r = Router::new(0, 6, &cfg, 2, 1);
        assert_eq!(r.input_occupancy(3, 1), 0);
        assert_eq!(r.vc_owner(2, 0), None);
        assert_eq!(r.in_flight_to(1, 1, (&WireSlab::new(), &xbar())), 0);
        assert_eq!(r.next_wake(10), None);
        assert_eq!(r.credits(0, 0), cfg.buf_flits as u32);
        assert_eq!(r.input_occupancy(3, 1), 0);
    }

    /// A counter buffer cut off mid-packet: a 5-flit packet's head and
    /// first body flit are buffered on input port 0 when that port's link
    /// dies. The packet is incomplete (`arrived < len`), so it is poisoned;
    /// reaping it frees exactly the two buffered slots — two credits
    /// upstream, two dropped flits — and drops the last pin on its slot.
    #[test]
    fn reap_drops_exactly_the_buffered_prefix_of_a_cut_packet() {
        let (mut r, mut channels) = wired_router(2, &SimConfig::default(), 2);
        let (mut wire, mut xbar) = (WireSlab::new(), xbar());
        let mut pool = PacketPool::new();
        let id = packet(&mut pool, 5, 0);
        let vc = 3u8;
        for idx in 0..2 {
            channels[0].send_flit(
                &mut wire,
                idx as u64,
                Flit {
                    pkt: id,
                    idx,
                    len: 5,
                },
                vc,
            );
            pool.note_flit_created(id);
        }
        let mut stats = Stats::default();
        with_ctx(2, (&mut channels, &mut wire, &mut xbar), &mut pool, |ctx| {
            r.ingress_flits(0, ctx)
        });
        assert_eq!(r.input_occupancy(0, vc as usize), 2);
        assert_eq!(r.vc_mask[0], 1 << vc);
        assert_eq!(r.heads.len(), 1);
        let mut errs = Vec::new();
        r.audit_derived_state(&pool, &mut errs);
        assert_eq!(errs, Vec::<String>::new());

        r.poison_port_traffic(0, &mut pool, &mut stats, None, 2);
        assert!(pool.is_poisoned(id), "incomplete packet not poisoned");
        assert_eq!(stats.dropped_packets, 1);
        assert_eq!(
            pool.live(),
            1,
            "two flits and the buffer still pin the slot"
        );

        let mut credits = CreditWheel::from_cycle(2, 1);
        r.reap_poisoned(2, &mut pool, &mut stats, &channels, &mut credits);
        let returned: Vec<(usize, u8)> = credits.in_flight().collect();
        assert_eq!(
            returned,
            [(0, vc), (0, vc)],
            "two credits upstream on channel 0"
        );
        assert_eq!(stats.dropped_flits, 2);
        assert_eq!(pool.live(), 0, "refcount did not reach zero");
        assert!(!pool.any_poisoned());
        assert!(r.is_idle());
        assert_eq!(r.vc_mask[0], 0);
        assert!(r.heads.is_empty());
        r.audit_derived_state(&pool, &mut errs);
        assert_eq!(errs, Vec::<String>::new());
    }

    /// The router weighs a candidate from its class's VC range
    /// ([`Router::range_occupancy`], a slice sum over the credits) and its
    /// port's occupied-flits counter (`out_occ`). After grants, credit
    /// returns and a clamped refund, both must equal a per-VC
    /// recomputation from the credits, for every VC range.
    #[test]
    fn weighing_inputs_equal_per_vc_sums() {
        let cfg = SimConfig {
            buf_flits: 32,
            ..SimConfig::default()
        };
        let (ports, v) = (3, cfg.num_vcs);
        let (mut r, mut channels) = wired_router(ports, &cfg, 2);
        let (mut wire, mut xbar) = (WireSlab::new(), xbar());
        let mut pool = PacketPool::new();
        let check = |r: &Router, pool: &PacketPool| {
            let per_vc = |p: usize, vcs: std::ops::Range<usize>| -> u64 {
                vcs.map(|vc| u64::from(r.buf_cap - r.credits(p, vc))).sum()
            };
            for p in 0..ports {
                assert_eq!(u64::from(r.out_occ[p]), per_vc(p, 0..v), "port {p}");
                for (lo, hi) in (0..=v).flat_map(|lo| (lo..=v).map(move |hi| (lo, hi))) {
                    assert_eq!(
                        r.range_occupancy(p, lo..hi),
                        per_vc(p, lo..hi),
                        "port {p} vcs {lo}..{hi}"
                    );
                }
            }
            let mut errs = Vec::new();
            r.audit_derived_state(pool, &mut errs);
            assert_eq!(errs, Vec::<String>::new());
        };
        check(&r, &pool);

        // The heads of three packets arrive on input port 0, one
        // per VC, and are granted output VCs on ports 1 and 2.
        let grants = [(0usize, 1usize, 0usize, 8u16), (1, 1, 5, 12), (2, 2, 3, 5)];
        let mut ids = Vec::new();
        for &(in_vc, _, _, len) in &grants {
            let id = packet(&mut pool, len, 0);
            let head = Flit {
                pkt: id,
                idx: 0,
                len,
            };
            channels[0].send_flit(&mut wire, ids.len() as u64, head, in_vc as u8);
            // The head flit pins the packet slot (ingress adds the input
            // buffer's own pin).
            pool.note_flit_created(id);
            ids.push(id);
        }
        let mut stats = Stats::default();
        with_ctx(3, (&mut channels, &mut wire, &mut xbar), &mut pool, |ctx| {
            r.ingress_flits(0, ctx)
        });
        for (&(_, out_port, out_vc, _), &id) in grants.iter().zip(&ids) {
            let at = r.heads.iter().position(|h| h.pkt == id).unwrap();
            let head = r.heads.remove(at);
            r.grant(&head, out_port, out_vc, Commit::None, &mut pool);
            check(&r, &pool);
        }
        assert_eq!(r.out_occ, [0, 20, 5]);

        // Credits come home on port 1: two for VC 0, one for VC 5.
        for vc in [0, 0, 5] {
            r.absorb_credit(1, vc);
        }
        check(&r, &pool);
        assert_eq!(r.out_occ, [0, 17, 5]);

        // Reaping the first packet refunds its 8-flit reservation, but VC
        // 0 is only 6 short of capacity: the refund clamps and the port
        // counter moves by 6.
        pool.poison(ids[0]);
        let mut credits = CreditWheel::from_cycle(1, 1);
        r.reap_poisoned(1, &mut pool, &mut stats, &channels, &mut credits);
        check(&r, &pool);
        assert_eq!(r.out_occ, [0, 11, 5]);
        assert_eq!(r.credits(1, 0), r.buf_cap);
    }

    /// The two callers of the weighing rule agree: on a congested router
    /// (uneven credits on every port, an output backlog, an LLR-degraded
    /// link and a dead one), every algorithm's candidates as the router
    /// weighs them equal `RoutingAlgorithm::route`'s over a `MockView`
    /// holding the same numbers — so the routing unit tests and `hxperf`'s
    /// `core.route_ns.*` exercise the rule the simulator runs.
    #[test]
    fn router_weights_equal_mock_route_weights() {
        use hxcore::mock::MockView;
        use hxcore::{hyperx_algorithm, RouteCtx, HYPERX_ALGORITHMS};

        let hx = std::sync::Arc::new(hxtopo::HyperX::uniform(3, 3, 1));
        let ports = hx.max_ports();
        let cfg = SimConfig {
            buf_flits: 32,
            ..SimConfig::default()
        };
        let (v, now) = (cfg.num_vcs, 50);
        let (degraded, backlogged, dead) = (2, 3, 5);
        let key = |cs: &[Candidate]| -> Vec<(u32, u8, u64, u8, Commit)> {
            cs.iter()
                .map(|c| (c.port, c.class, c.weight, c.hops, c.commit))
                .collect()
        };
        let mut pool = PacketPool::new();
        for name in HYPERX_ALGORITHMS {
            let algo = hyperx_algorithm(name, hx.clone(), v).unwrap();
            let (mut r, mut channels) = wired_router(ports, &cfg, algo.num_classes());
            let mut view = MockView::idle(ports, v, 32);
            r.port_term[0] = 0;
            for p in 0..ports {
                let occ: Vec<usize> = (0..v).map(|vc| (p * 7 + vc * 5) % 33).collect();
                r.reset_out_credits(p, &occ);
                view.occ[p] = occ;
            }
            r.out_backlog[backlogged] = 9;
            view.queues[backlogged] = 9;
            channels[degraded] = Channel::with_llr(1, 8, 0.0, 1);
            channels[degraded].degrade(3, true);
            view.health[degraded] = channels[degraded].health_penalty(now);
            assert!(view.health[degraded] > 0);
            r.live_ports[dead] = false;
            view.kill_port(dead);

            // (input port, input VC, Valiant intermediate, phase): a
            // fresh packet from the terminal port, then packets mid-path
            // on class-0 and class-1 VCs of network ports.
            let arrivals = [(0, 0, NO_INTERMEDIATE, 0), (1, 1, 5, 0), (4, 4, 5, 1)];
            for dst in 1..hx.num_routers() {
                for (port, vc, intermediate, phase) in arrivals {
                    let route = PacketRouteState {
                        intermediate,
                        phase,
                        deroute_mask: 0b010,
                    };
                    let id = pool.alloc(crate::packet::Packet {
                        src: 0,
                        dst: dst as u32,
                        dst_router: dst as u32,
                        len: 4,
                        hops: 0,
                        birth: 0,
                        inject: 0,
                        route,
                        tag: 0,
                        seq: 0,
                    });
                    let head = Head::new(id, pool.get(id), port, vc);
                    let mut rng = r.rng.clone();
                    let mut got = Vec::new();
                    r.weighed_candidates(&head, &*algo, &channels, now, &mut got);
                    let ctx = RouteCtx {
                        router: 0,
                        input_port: port,
                        input_vc: vc,
                        from_terminal: port == 0,
                        dst_router: dst,
                        dst_terminal: dst,
                        pkt_len: 4,
                        state: route,
                        view: &view,
                    };
                    let mut want = Vec::new();
                    algo.route(&ctx, &mut rng, &mut want);
                    let case = format!("{name} dst {dst} port {port} vc {vc}");
                    assert_eq!(key(&got), key(&want), "{case}");
                    assert_eq!(r.rng.random::<u64>(), rng.random::<u64>(), "{case}");
                }
            }
        }
    }

    /// Routes every packet to one output port in class 0 and records, per
    /// call, the input port of the head it was asked about.
    struct Probe {
        port: usize,
        seen: Mutex<Vec<usize>>,
    }

    impl RoutingAlgorithm for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn num_classes(&self) -> usize {
            1
        }
        fn candidates(&self, hop: &Hop<'_>, _rng: &mut SmallRng, out: &mut Vec<Candidate>) {
            self.seen.lock().unwrap().push(hop.input_port);
            out.push(Candidate {
                port: self.port as u32,
                class: 0,
                weight: 0,
                hops: 1,
                commit: Commit::None,
            });
        }
    }

    /// A router of a 4-wide one-dimensional HyperX (one terminal port,
    /// three network ports) whose packets all route to port 3.
    fn probe_rig() -> (Router, Vec<Channel>, hxtopo::HyperX, Probe) {
        let cfg = SimConfig::default();
        let (r, channels) = wired_router(4, &cfg, 1);
        let probe = Probe {
            port: 3,
            seen: Mutex::new(Vec::new()),
        };
        (r, channels, hxtopo::HyperX::new(&[4], 1), probe)
    }

    /// Two one-flit packets queue on one input VC. A pass grants the
    /// first; the second, now the VC's first unrouted packet, is not
    /// routed in that pass but in the next one.
    #[test]
    fn packet_behind_a_grant_is_routed_next_pass() {
        let (mut r, mut channels, hx, probe) = probe_rig();
        let (mut wire, mut xbar) = (WireSlab::new(), xbar());
        let mut pool = PacketPool::new();
        let ids = [packet(&mut pool, 1, 0), packet(&mut pool, 1, 1)];
        for (t, &id) in ids.iter().enumerate() {
            let flit = Flit {
                pkt: id,
                idx: 0,
                len: 1,
            };
            channels[1].send_flit(&mut wire, t as u64, flit, 2);
            pool.note_flit_created(id);
        }
        let i = r.pv(1, 2);
        with_ctx(2, (&mut channels, &mut wire, &mut xbar), &mut pool, |ctx| {
            r.ingress_flits(1, ctx);
            assert_eq!(r.in_vc[i].len, 2);
            r.allocate(&hx, &probe, ctx);
            assert_eq!(r.in_vc[i].routed, 1, "the first packet is granted");
            let second = r.in_vc[i].list.last;
            assert!(r.slab[second].route.is_none(), "the second waits a pass");
            assert_eq!(probe.seen.lock().unwrap().len(), 1);
            r.allocate(&hx, &probe, ctx);
        });
        assert_eq!(
            r.in_vc[i].routed, 2,
            "the second packet is granted next pass"
        );
        assert_eq!(probe.seen.lock().unwrap().len(), 2);
        let mut errs = Vec::new();
        r.audit_derived_state(&pool, &mut errs);
        assert_eq!(errs, Vec::<String>::new());
    }

    /// Two heads compete for output port 3 in one pass. The older one
    /// (on the higher input port) is weighed first, at zero congestion;
    /// its grant reserves its 4 flits of credit on the spot, so the
    /// younger head's one-hop candidate, weighed last (it is what the
    /// candidate scratch holds after the pass), already sees port 3
    /// carrying 4 flits: weight 4 plus the 100-cycle hop latency.
    #[test]
    fn younger_head_weighs_the_older_heads_grant() {
        let (mut r, mut channels, hx, probe) = probe_rig();
        let (mut wire, mut xbar) = (WireSlab::new(), xbar());
        let mut pool = PacketPool::new();
        let older = packet(&mut pool, 4, 0);
        let younger = packet(&mut pool, 6, 1);
        for (port, id, len) in [(1, younger, 6), (2, older, 4)] {
            let flit = Flit {
                pkt: id,
                idx: 0,
                len,
            };
            channels[port].send_flit(&mut wire, 0, flit, 0);
            pool.note_flit_created(id);
        }
        with_ctx(1, (&mut channels, &mut wire, &mut xbar), &mut pool, |ctx| {
            r.ingress_flits(1, ctx);
            r.ingress_flits(2, ctx);
            r.allocate(&hx, &probe, ctx);
        });
        assert_eq!(*probe.seen.lock().unwrap(), [2, 1], "oldest first");
        assert_eq!(r.cands[0].weight, 4 + 100);
        assert_eq!(r.in_vc[r.pv(1, 0)].routed, 1);
        assert_eq!(r.in_vc[r.pv(2, 0)].routed, 1);
        assert_eq!(r.out_occ[3], 10);
    }

    /// The crossbar forwards the oldest routed packet of a port, which need
    /// not be first on its VC's list. Here a younger-born 2-flit packet
    /// reaches input VC 2 first and an older-born 1-flit packet queues
    /// behind it; once both are routed, the older one goes first and is
    /// unlinked from behind the survivor, its slot going to the free list.
    /// A third packet then lands in that slot, behind the survivor.
    #[test]
    fn forwarding_unlinks_mid_list_and_reuses_the_slot() {
        let cfg = SimConfig {
            crossbar_speedup: 1,
            ..SimConfig::default()
        };
        let (mut r, mut channels) = wired_router(4, &cfg, 1);
        let (hx, probe) = (hxtopo::HyperX::new(&[4], 1), probe_rig().3);
        let (mut wire, mut xbar) = (WireSlab::new(), xbar());
        let mut pool = PacketPool::new();
        let (younger, older, third) = (
            packet(&mut pool, 2, 5),
            packet(&mut pool, 1, 0),
            packet(&mut pool, 1, 9),
        );
        let flits = [(younger, 0, 2), (younger, 1, 2), (older, 0, 1)];
        for (t, &(pkt, idx, len)) in flits.iter().enumerate() {
            channels[1].send_flit(&mut wire, t as u64, Flit { pkt, idx, len }, 2);
            pool.note_flit_created(pkt);
        }
        let i = r.pv(1, 2);
        let mut errs = Vec::new();
        with_ctx(3, (&mut channels, &mut wire, &mut xbar), &mut pool, |ctx| {
            r.ingress_flits(1, ctx);
            r.allocate(&hx, &probe, ctx);
            r.allocate(&hx, &probe, ctx);
        });
        let List {
            first,
            last: second,
        } = r.in_vc[i].list;
        assert_eq!(r.slab[first].pkt, younger);
        assert_eq!(r.slab[second].pkt, older);
        assert_eq!((r.in_vc[i].len, r.in_vc[i].routed), (2, 2));

        with_ctx(3, (&mut channels, &mut wire, &mut xbar), &mut pool, |ctx| {
            r.switch_traverse(ctx)
        });
        let front = xbar.records().first().map(|rec| rec.flit.pkt);
        assert_eq!(front, Some(older), "oldest first");
        assert_eq!(r.in_vc[i].list.first, first, "the survivor stays first");
        assert_eq!(
            r.in_vc[i].list.last, first,
            "the older packet left the middle"
        );
        assert_eq!((r.in_vc[i].len, r.in_vc[i].routed), (1, 1));
        assert_eq!(r.slab.free_head(), second, "its slot is free");
        r.audit_derived_state(&pool, &mut errs);
        assert_eq!(errs, Vec::<String>::new());

        let flit = Flit {
            pkt: third,
            idx: 0,
            len: 1,
        };
        channels[1].send_flit(&mut wire, 3, flit, 2);
        pool.note_flit_created(third);
        with_ctx(4, (&mut channels, &mut wire, &mut xbar), &mut pool, |ctx| {
            r.ingress_flits(1, ctx)
        });
        assert_eq!(r.in_vc[i].list.first, first);
        assert_eq!(r.in_vc[i].list.last, second, "the freed slot is reused");
        assert_eq!(r.slab[second].pkt, third);
        assert_eq!((r.slab.len(), r.slab.free_head()), (2, NIL));
        r.audit_derived_state(&pool, &mut errs);
        assert_eq!(errs, Vec::<String>::new());
    }

    /// A flit enters a crossbar of the default 50-cycle latency ten cycles
    /// before the 32-bit cycle count wraps. The push plants the router's
    /// wake at the full 64-bit cycle the flit leaves, past the wrap; until
    /// then the drain moves nothing, at that cycle the flit drops into its
    /// output queue as a fresh node, and the link egress moves that node
    /// onto the wire.
    #[test]
    fn the_crossbar_matures_across_the_wrap() {
        let (mut r, mut channels, hx, probe) = probe_rig();
        let (mut wire, mut xbar) = (WireSlab::new(), xbar());
        let mut ev = EventState::new(std::slice::from_ref(&r), &[], channels.len());
        let mut pool = PacketPool::new();
        let id = packet(&mut pool, 1, 0);
        let flit = Flit {
            pkt: id,
            idx: 0,
            len: 1,
        };
        let now = (1u64 << 32) - 10;
        channels[1].send_flit(&mut wire, now - 1, flit, 0);
        pool.note_flit_created(id);
        let lent = (&mut channels[..], &mut wire, &mut xbar);
        with_wakes(now, lent, &mut pool, Some(&mut ev), |ctx| {
            r.ingress_flits(1, ctx);
            r.allocate(&hx, &probe, ctx);
            r.switch_traverse(ctx);
        });
        let out = now + xbar.latency();
        assert_eq!(out, (1 << 32) + 40);
        assert_eq!(ev.next_time(), Some(out), "the push planted the wake");
        assert_eq!(r.next_wake(now), None, "nothing else to wake for");
        for t in [now + 1, (1 << 32) - 1, 1 << 32, out - 1] {
            r.xbar_drain(&mut xbar, &mut wire, t);
            assert_eq!(r.out_q[3], List::EMPTY, "left the crossbar at cycle {t}");
            assert!(!xbar.has_due(0, t), "cycle {t}");
        }
        assert!(xbar.has_due(0, out));
        r.xbar_drain(&mut xbar, &mut wire, out);
        assert_eq!(
            (r.in_xbar, xbar.records(), xbar.marks()),
            (0, vec![], vec![])
        );
        assert_ne!(r.out_q[3], List::EMPTY);
        assert_eq!(r.next_wake(out), Some(out + 1), "egress pending");
        with_ctx(
            out,
            (&mut channels, &mut wire, &mut xbar),
            &mut pool,
            |ctx| r.link_egress(ctx),
        );
        assert_eq!(r.out_q[3], List::EMPTY);
        assert_eq!(wire.len(), 1, "one node from crossbar exit to wire");
        assert_eq!(channels[3].pop_flit(&mut wire, out), None);
        assert_eq!(
            channels[3].pop_flit(&mut wire, out + 1).map(|(f, _)| f),
            Some(flit)
        );
    }

    /// With no crossbar latency a flit leaves the crossbar in the tick it
    /// enters: the router's own drain takes it, and no wake is planted.
    #[test]
    fn a_zero_latency_crossbar_drains_in_the_tick_and_plants_no_wake() {
        let cfg = SimConfig {
            crossbar_latency: 0,
            ..SimConfig::default()
        };
        let (mut r, mut channels) = wired_router(4, &cfg, 1);
        let (hx, probe) = (hxtopo::HyperX::new(&[4], 1), probe_rig().3);
        let (mut wire, mut xbar) = (WireSlab::new(), XbarFifo::new(0));
        let mut ev = EventState::new(std::slice::from_ref(&r), &[], channels.len());
        let mut pool = PacketPool::new();
        let id = packet(&mut pool, 1, 0);
        let flit = Flit {
            pkt: id,
            idx: 0,
            len: 1,
        };
        channels[1].send_flit(&mut wire, 4, flit, 0);
        pool.note_flit_created(id);
        let lent = (&mut channels[..], &mut wire, &mut xbar);
        with_wakes(5, lent, &mut pool, Some(&mut ev), |ctx| {
            r.ingress_flits(1, ctx);
            r.allocate(&hx, &probe, ctx);
            r.switch_traverse(ctx);
            assert_eq!(r.in_xbar, 1);
            r.xbar_drain(ctx.xbar, ctx.wire, ctx.now);
        });
        assert_eq!(
            (r.in_xbar, xbar.records(), xbar.marks()),
            (0, vec![], vec![])
        );
        let queued: Vec<Flit> = wire.iter(r.out_q[3]).map(|s| wire[s].flit).collect();
        assert_eq!(queued, [flit]);
        assert_eq!(ev.next_time(), None, "no wake planted");
    }

    /// Reviving a port purges its flits from the crossbar and its output
    /// queue: the FIFO keeps every other record (another router's for the
    /// same port number too) and mark in order, the queue's nodes are
    /// freed, and the wire slab and the FIFO audit clean.
    #[test]
    fn purge_egress_frees_the_ports_crossbar_records_and_queue_nodes() {
        let (mut r, _) = wired_router(4, &SimConfig::default(), 1);
        let (mut wire, mut xbar) = (WireSlab::new(), xbar());
        let (mut pool, mut stats) = (PacketPool::new(), Stats::default());
        let ids: Vec<PacketId> = (0..7).map(|b| packet(&mut pool, 1, b)).collect();
        let flit = |k: usize| Flit {
            pkt: ids[k],
            idx: 0,
            len: 1,
        };
        for (k, router, port) in [(0, 0, 3), (1, 0, 2), (2, 0, 3), (3, 0, 2), (6, 1, 3)] {
            pool.note_flit_created(ids[k]);
            let rec = XbarRec {
                flit: flit(k),
                router,
                vc: 0,
                port,
            };
            xbar.push(k.min(3) as u64, rec);
            if router == 0 {
                r.in_xbar += 1;
                r.out_backlog[port as usize] += 1;
            }
        }
        for (k, port) in [(4, 3), (5, 2)] {
            pool.note_flit_created(ids[k]);
            r.queue_egress(&mut wire, port, flit(k), 0);
        }
        r.purge_egress(3, (&mut wire, &mut xbar), &mut pool, &mut stats);
        let left: Vec<Flit> = xbar.records().iter().map(|rec| rec.flit).collect();
        assert_eq!(left, [flit(1), flit(3), flit(6)]);
        assert_eq!(xbar.marks(), [(51, 1), (53, 2)]);
        assert_eq!((r.out_q[3], r.out_backlog[3]), (List::EMPTY, 0));
        let in_flight = r.in_flight_to(2, 0, (&wire, &xbar));
        assert_eq!((in_flight, r.total_flits(), r.in_xbar), (3, 3, 2));
        assert_eq!(stats.dropped_flits, 3);
        assert_eq!(wire.len(), 2, "the purge frees, it does not shrink");
        let mut errs = Vec::new();
        wire.audit_wire(&[], std::slice::from_ref(&r), &mut errs);
        xbar.audit(2, |k| [r.in_xbar, 1][k], &mut errs);
        r.audit_derived_state(&pool, &mut errs);
        assert_eq!(errs, Vec::<String>::new());
    }

    /// The wire audit walks each router's output queues with the
    /// channels, and names them: a queue node linked into another queue
    /// breaks both lists.
    #[test]
    fn wire_audit_names_the_output_queues() {
        let (mut r, _) = wired_router(3, &SimConfig::default(), 1);
        let mut wire = WireSlab::new();
        let flit = Flit {
            pkt: 0,
            idx: 0,
            len: 1,
        };
        r.queue_egress(&mut wire, 1, flit, 0);
        r.queue_egress(&mut wire, 2, flit, 0);
        let audit = |wire: &WireSlab, r: &Router| {
            let mut errs = Vec::new();
            wire.audit_wire(&[], std::slice::from_ref(r), &mut errs);
            errs
        };
        assert_eq!(audit(&wire, &r), Vec::<String>::new());
        wire.relink(0, 1);
        assert_eq!(
            audit(&wire, &r),
            [
                "wire slab: router 0 port 1's output queue's last is node 0 but its list ends \
                 at node 1",
                "wire slab: node 1 on router 0 port 2's output queue's list is already on router \
                 0 port 1's output queue's list",
            ]
        );
    }
}
