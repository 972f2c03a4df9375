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
//! 1. *Ingress* — accept flits/credits whose channel delay expired.
//! 2. *Route + VC allocation* — for every unrouted head flit (oldest
//!    packet first), ask the routing algorithm for weighted candidates and
//!    grant the cheapest feasible `(port, vc)`: the VC must be unclaimed
//!    and hold credits for the *whole packet* (virtual cut-through), or be
//!    completely empty under atomic queue allocation (Section 4.2).
//! 3. *Switch traversal* — each input port forwards up to
//!    `crossbar_speedup` flits per cycle from its oldest routed packets
//!    into the crossbar delay pipe, returning credits upstream.
//! 4. *Crossbar egress* — matured flits drop into per-port output queues.
//! 5. *Link egress* — each output port sends one flit per cycle.
//!
//! Scale notes (100k+ terminals): wiring arrays are u32 channel/terminal
//! ids (`u32::MAX` = unwired), and the constructor allocates the per-port
//! datapath state (input VC queues, credit/owner/backlog arrays, output
//! queues) up front — empty queues hold no heap, and deferring the rest to
//! first use measured no saving in peak bytes at any `fig2_sim` rung.
//! Per-packet input buffers recycle their flit deques through an arena
//! ([`Self::recycle_buf`]), keeping the steady-state tick allocation-free.

use std::collections::VecDeque;

use hxcore::{
    Candidate, ClassMap, Commit, PacketRouteState, RouteCtx, RouterView, RoutingAlgorithm,
    NO_INTERMEDIATE,
};
use hxtopo::Topology;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::channel::Channel;
use crate::config::SimConfig;
use crate::metrics::lap;
use crate::packet::{Flit, PacketId, PacketPool};
use crate::sink::{MetricEvent, PoolOp, TickSink};
use crate::stats::Stats;
use crate::trace::{DropReason, DropRecord, HopRecord, Trace};

/// Sentinel for "no channel / no terminal" in the u32 wiring arrays.
pub(crate) const NO_WIRE: u32 = u32::MAX;
/// Sentinel for an unclaimed output VC in the packed owner array.
const NO_OWNER: PacketId = PacketId::MAX;

/// Arbitration sort key for routing candidates: `(weight, hops, random
/// salt)`, compared lexicographically — lower wins.
type CandKey = (u64, u8, u32);

/// An ingress arrival hint: `(router_id, port << 1 | is_credit)`. Ascending
/// order is the full scan's visit order (ports ascending, flits before
/// credits per port). The event engine reads them off its arrival ring,
/// whose keys are numbered in that order.
pub(crate) type ArrivalHint = (u32, u16);

/// Congestion view over a router's output side (credits, per-port
/// occupancy, backlog, link liveness, link health).
struct OutView<'a> {
    num_vcs: usize,
    cap: usize,
    credits: &'a [u32],
    /// [`Router::out_occ`]: occupied downstream flits per port.
    occ: &'a [u32],
    backlog: &'a [u32],
    live: &'a [bool],
    /// Outgoing channel per port (`NO_WIRE` sentinel), for link-health
    /// sensing.
    out_chan: &'a [u32],
    /// Pre-cycle channel state (read-only during compute).
    channels: &'a [Channel],
    now: u64,
}

impl RouterView for OutView<'_> {
    fn num_vcs(&self) -> usize {
        self.num_vcs
    }
    fn free_space(&self, port: usize, vc: usize) -> usize {
        self.credits[port * self.num_vcs + vc] as usize
    }
    fn capacity(&self, _port: usize, _vc: usize) -> usize {
        self.cap
    }
    fn range_occupancy(&self, port: usize, vcs: std::ops::Range<usize>) -> usize {
        let base = port * self.num_vcs;
        let free: u32 = self.credits[base + vcs.start..base + vcs.end].iter().sum();
        vcs.len() * self.cap - free as usize
    }
    fn port_occupancy(&self, port: usize) -> usize {
        self.occ[port] as usize
    }
    fn queue_len(&self, port: usize) -> usize {
        self.backlog[port] as usize
    }
    fn port_live(&self, port: usize) -> bool {
        self.live[port]
    }
    fn link_health_penalty(&self, port: usize) -> u64 {
        let ch = self.out_chan[port];
        if ch == NO_WIRE {
            return 0;
        }
        self.channels[ch as usize].health_penalty(self.now)
    }
}

/// Poisons `id` (if not already) and records the drop.
pub(crate) fn poison_packet(
    pool: &mut PacketPool,
    stats: &mut Stats,
    trace: Option<&mut Trace>,
    id: PacketId,
    now: u64,
    reason: DropReason,
) {
    let tag = pool.cold(id).tag;
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
struct PktBuf {
    pkt: PacketId,
    /// Packet creation cycle, cached for age-based arbitration scans.
    birth: u64,
    route: Option<(u16, u8)>,
    flits: VecDeque<Flit>,
    /// Flits of this packet already forwarded out of this router (fault
    /// fallout uses this to refund exactly the unsent credit reservation).
    sent: u16,
}

/// One router instance.
pub struct Router {
    id: usize,
    num_ports: usize,
    num_vcs: usize,
    buf_cap: u32,
    atomic: bool,
    xbar_latency: u64,
    xbar_speedup: usize,
    class_map: ClassMap,

    // Input side, indexed [port * num_vcs + vc]: per-VC packet queues.
    in_q: Vec<VecDeque<PktBuf>>,
    /// Routed packets per input VC. They are always the queue's prefix:
    /// only a VC's first unrouted packet is ever routed ([`Self::grant`])
    /// and removals keep order, so `in_q[i][routed[i]]` is the VC's head
    /// awaiting a route and `in_q[i][..routed[i]]` is all the crossbar may
    /// forward.
    routed: Vec<u32>,

    // Output side.
    out_credits: Vec<u32>,
    /// Occupied downstream flits per output port: `Σ_vc (buf_cap −
    /// out_credits)`, kept in step at every `out_credits` write so the
    /// congestion view reads a port's pressure without walking its VCs.
    out_occ: Vec<u32>,
    /// Downstream VC claims, [`NO_OWNER`] = unclaimed.
    out_owner: Vec<PacketId>,
    /// Flits per output port inside the crossbar pipe + output queue.
    out_backlog: Vec<u32>,
    out_q: Vec<VecDeque<(Flit, u8)>>,

    /// Crossbar delay pipe: (ready_cycle, flit, out_port, out_vc).
    xbar: VecDeque<(u64, Flit, u16, u8)>,

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
    /// Flits buffered per input port (skips the per-port VC/buffer scans
    /// in allocation and switch traversal when a port holds nothing).
    port_flits: Vec<u32>,
    // Scratch buffers reused every cycle.
    heads: Vec<(u64, PacketId, u16, u8)>,
    cands: Vec<Candidate>,
    /// Recycled flit deques for dismantled [`PktBuf`]s: head arrivals pop
    /// from here instead of allocating, so the steady-state tick touches
    /// the allocator only while the in-flight packet count is still
    /// growing toward its high-water mark.
    buf_pool: Vec<VecDeque<Flit>>,
}

impl Router {
    /// Creates router `id` with `num_ports` unwired ports (the network
    /// wires them immediately after construction), every VC empty and
    /// every downstream credit full.
    pub fn new(
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
            xbar_latency: cfg.crossbar_latency,
            xbar_speedup: cfg.crossbar_speedup.max(1),
            class_map: ClassMap::new(v, num_classes),
            in_q: (0..n * v).map(|_| VecDeque::new()).collect(),
            routed: vec![0; n * v],
            out_credits: vec![buf_cap; n * v],
            out_occ: vec![0; n],
            out_owner: vec![NO_OWNER; n * v],
            out_backlog: vec![0; n],
            out_q: (0..n).map(|_| VecDeque::new()).collect(),
            xbar: VecDeque::new(),
            out_chan: vec![NO_WIRE; num_ports],
            in_chan: vec![NO_WIRE; num_ports],
            port_term: vec![NO_WIRE; num_ports],
            live_ports: vec![false; num_ports],
            hop_cap: cfg.max_packet_hops,
            rng: SmallRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            flits_buffered: 0,
            port_flits: vec![0; n],
            heads: Vec::new(),
            cands: Vec::new(),
            buf_pool: Vec::new(),
        }
    }

    #[inline]
    fn pv(&self, port: usize, vc: usize) -> usize {
        port * self.num_vcs + vc
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
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the router holds no work at all (fast-path skip helper).
    pub fn is_idle(&self) -> bool {
        self.flits_buffered == 0 && self.xbar.is_empty() && self.out_backlog.iter().all(|&b| b == 0)
    }

    /// Event engine: the next cycle this router must tick, given it just
    /// ticked at `now`. `None` means fully asleep — only an arrival wake
    /// (flit or credit) can reactivate it, and credits alone never can:
    /// a sleeping router has no buffered flits, so absorbed credits don't
    /// enable any work (allocation acts only on buffered heads).
    ///
    /// Buffered input flits or queued output flits mean per-cycle work
    /// (routing draws randomness, links send one flit per cycle), so the
    /// router stays awake; with only crossbar-pipe flits in flight it
    /// sleeps until the earliest maturity (the pipe is pushed in
    /// monotonically increasing ready order, so the front is the minimum).
    pub(crate) fn next_wake(&self, now: u64) -> Option<u64> {
        if self.flits_buffered > 0 || self.out_q.iter().any(|q| !q.is_empty()) {
            return Some(now + 1);
        }
        self.xbar.front().map(|&(t, ..)| t.max(now + 1))
    }

    /// Downstream credits for `(port, vc)` (test/invariant support).
    pub fn credits(&self, port: usize, vc: usize) -> u32 {
        self.out_credits[port * self.num_vcs + vc]
    }

    /// Input-buffer occupancy of `(port, vc)` in flits (test/invariant
    /// support).
    pub fn input_occupancy(&self, port: usize, vc: usize) -> usize {
        self.in_q[port * self.num_vcs + vc]
            .iter()
            .map(|p| p.flits.len())
            .sum()
    }

    /// Owner of the downstream VC claim on `(port, vc)` (invariant
    /// support).
    pub fn vc_owner(&self, port: usize, vc: usize) -> Option<PacketId> {
        let o = self.out_owner[port * self.num_vcs + vc];
        (o != NO_OWNER).then_some(o)
    }

    /// Whether `port`'s outgoing link is up (wired and not failed).
    pub fn port_live(&self, port: usize) -> bool {
        self.live_ports[port]
    }

    /// Flits inside the crossbar pipe or output queue heading to
    /// `(port, vc)` (invariant support).
    pub fn in_flight_to(&self, port: usize, vc: usize) -> usize {
        let xbar = self
            .xbar
            .iter()
            .filter(|&&(_, _, p, v)| p as usize == port && v as usize == vc)
            .count();
        let outq = self.out_q[port]
            .iter()
            .filter(|&&(_, v)| v as usize == vc)
            .count();
        xbar + outq
    }

    /// Audits the derived allocation state against what it summarizes,
    /// on every port (dead ones too): each port's occupancy counter must
    /// equal `Σ_vc (buf_flits − credits)`, and each input VC's routed
    /// packets must be exactly its first `routed` ones. Appends one line
    /// per violation.
    pub(crate) fn audit_derived_state(&self, errs: &mut Vec<String>) {
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
            for vc in 0..self.num_vcs {
                let routed = self.routed[base + vc] as usize;
                let q = &self.in_q[base + vc];
                if routed > q.len()
                    || q.iter()
                        .enumerate()
                        .any(|(bi, buf)| buf.route.is_some() != (bi < routed))
                {
                    errs.push(format!(
                        "router {} port {port} vc {vc}: routed packets are not the first {routed} of {}",
                        self.id,
                        q.len()
                    ));
                }
            }
        }
    }

    /// Total flits buffered anywhere inside this router.
    pub fn total_flits(&self) -> usize {
        self.flits_buffered as usize
            + self.xbar.len()
            + self.out_q.iter().map(|q| q.len()).sum::<usize>()
    }

    /// One simulation cycle's compute phase. Reads the pre-cycle state of
    /// `channels` and `pool` (both read-only during compute) and
    /// defers every externally visible effect into `sink`, which the
    /// network's commit phase replays in router-id order. Trace/metric
    /// observation rides the sink too, gated by its `want_*` flags.
    ///
    /// `hints`, when present (event engine), lists exactly the ports with
    /// matured flit/credit arrivals this cycle (sorted ascending, flits
    /// before credits per port — the full scan's visit order), so ingress
    /// touches only those ports instead of scanning all `num_ports`.
    /// `None` (cycle engine) falls back to the full scan.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn tick(
        &mut self,
        now: u64,
        topo: &dyn Topology,
        algo: &dyn RoutingAlgorithm,
        pool: &PacketPool,
        channels: &[Channel],
        hints: Option<&[ArrivalHint]>,
        sink: &mut TickSink,
    ) {
        let mut stamp = sink.timed.then(std::time::Instant::now);
        self.ingress(now, pool, channels, hints, sink);
        lap(&mut stamp, &mut sink.timers.ingress_ns);
        let route_before = sink.timers.route_ns;
        self.allocate(now, topo, algo, pool, channels, sink);
        if sink.timed {
            lap(&mut stamp, &mut sink.timers.vc_alloc_ns);
            // `lap` measured the whole allocate phase; carve the inner
            // route-computation time back out so the two don't double count.
            let route_delta = sink.timers.route_ns - route_before;
            sink.timers.vc_alloc_ns = sink.timers.vc_alloc_ns.saturating_sub(route_delta);
        }
        self.switch_traverse(now, pool, sink);
        self.xbar_drain(now);
        lap(&mut stamp, &mut sink.timers.crossbar_ns);
        self.link_egress(channels, sink);
        lap(&mut stamp, &mut sink.timers.channel_ns);
    }

    /// Phase 1: accept arriving flits and returning credits. Flits of
    /// poisoned packets are discarded on arrival, with their buffer
    /// credit returned immediately.
    fn ingress(
        &mut self,
        now: u64,
        pool: &PacketPool,
        channels: &[Channel],
        hints: Option<&[ArrivalHint]>,
        sink: &mut TickSink,
    ) {
        match hints {
            Some(hints) => {
                // Ascending, unique (port, kind) keys reproduce the full
                // scan's order: ports ascending, flits (bit 0 clear) before
                // credits. A hinted port whose arrivals turn out empty
                // (killed channel) is a no-op exactly like the full scan
                // visiting it.
                for &(_, key) in hints {
                    let port = (key >> 1) as usize;
                    if key & 1 == 0 {
                        self.ingress_flits(now, port, pool, channels, sink);
                    } else {
                        self.ingress_credits(now, port, channels);
                    }
                }
            }
            None => {
                for port in 0..self.num_ports {
                    self.ingress_flits(now, port, pool, channels, sink);
                    self.ingress_credits(now, port, channels);
                }
            }
        }
    }

    /// Accepts every matured flit on `port`'s incoming channel.
    fn ingress_flits(
        &mut self,
        now: u64,
        port: usize,
        pool: &PacketPool,
        channels: &[Channel],
        sink: &mut TickSink,
    ) {
        let Some(ch) = self.in_ch(port) else { return };
        for (flit, vc) in channels[ch].arrived_flits(now) {
            if pool.is_poisoned(flit.pkt) {
                // Discard and return the buffer credit right away:
                // the flit never occupies a slot here.
                sink.credits.push((ch, vc));
                sink.stats.dropped_flits += 1;
                sink.pool_ops.push(PoolOp::Gone(flit.pkt));
                continue;
            }
            let q = &mut self.in_q[port * self.num_vcs + vc as usize];
            if flit.is_head() {
                let mut flits = self.buf_pool.pop().unwrap_or_default();
                flits.clear();
                q.push_back(PktBuf {
                    pkt: flit.pkt,
                    birth: pool.hot(flit.pkt).birth,
                    route: None,
                    flits,
                    sent: 0,
                });
                // The buffer itself pins the packet slot until it
                // is dismantled (tail forwarded or fault-reaped).
                sink.pool_ops.push(PoolOp::Created(flit.pkt));
            }
            let back = q.back_mut().expect("body flit without a head");
            debug_assert_eq!(back.pkt, flit.pkt, "packets interleaved on one VC");
            back.flits.push_back(flit);
            self.flits_buffered += 1;
            self.port_flits[port] += 1;
            sink.stats.flit_moves += 1;
        }
    }

    /// Absorbs every matured returning credit on `port`'s outgoing channel.
    fn ingress_credits(&mut self, now: u64, port: usize, channels: &[Channel]) {
        let Some(ch) = self.out_ch(port) else { return };
        let base = port * self.num_vcs;
        for vc in channels[ch].arrived_credits(now) {
            self.out_credits[base + vc as usize] += 1;
            self.out_occ[port] -= 1;
            debug_assert!(
                self.out_credits[base + vc as usize] <= self.buf_cap,
                "credit overflow"
            );
        }
    }

    /// Returns a dismantled packet buffer's flit deque to the arena.
    #[inline]
    fn recycle_buf(&mut self, buf: PktBuf) {
        debug_assert!(buf.flits.is_empty());
        self.buf_pool.push(buf.flits);
    }

    /// Phase 2: route computation + virtual cut-through VC allocation,
    /// oldest packet first.
    #[allow(clippy::too_many_arguments)]
    fn allocate(
        &mut self,
        now: u64,
        topo: &dyn Topology,
        algo: &dyn RoutingAlgorithm,
        pool: &PacketPool,
        channels: &[Channel],
        sink: &mut TickSink,
    ) {
        if self.flits_buffered == 0 {
            return;
        }
        // Collect the first unrouted packet of every input VC (the packet a
        // real VC-state machine would be routing). Routed packets ahead of
        // it keep draining independently, so routing pipelines across
        // packets; and because every input VC's front is (re)considered
        // every cycle, the class-ordered drain argument for deadlock
        // freedom holds — no packet that could make progress is ever
        // starved of route computation.
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        for port in 0..self.num_ports {
            // An unrouted packet with buffered flits implies a buffered
            // flit on this port (routed packets may sit empty mid-stream,
            // unrouted ones cannot), so empty ports have no heads.
            if self.port_flits[port] == 0 {
                continue;
            }
            for vc in 0..self.num_vcs {
                let i = self.pv(port, vc);
                if let Some(buf) = self.in_q[i].get(self.routed[i] as usize) {
                    if !buf.flits.is_empty() {
                        heads.push((buf.birth, buf.pkt, port as u16, vc as u8));
                    }
                }
            }
        }
        // Age-based arbitration: oldest packet claims resources first.
        heads.sort_unstable();

        let mut cands = std::mem::take(&mut self.cands);
        for (head_idx, &(_, pkt_id, port16, vc8)) in heads.iter().enumerate() {
            let (port, vc) = (port16 as usize, vc8 as usize);
            // For age-arbitration accounting: the first sorted head is this
            // router's oldest waiting packet this cycle.
            let oldest = head_idx == 0;
            if pool.is_poisoned(pkt_id) {
                // Fault fallout will reap this buffer; don't route it.
                continue;
            }
            let pkt = pool.hot(pkt_id);
            let (dst_router, dst_term, len) = (pkt.dst_router as usize, pkt.dst as usize, pkt.len);
            let state = pkt.route;
            let hops = pkt.hops;

            cands.clear();
            if dst_router == self.id {
                // Ejection: any VC of the destination terminal's port
                // (classes don't apply to the terminal link).
                let (_, eject_port) = topo.terminal_attach(dst_term);
                if let Some(out_vc) = self.pick_vc(eject_port, 0..self.num_vcs, len) {
                    self.grant(
                        pkt_id,
                        port,
                        vc,
                        eject_port,
                        out_vc,
                        len,
                        Commit::None,
                        false,
                        sink,
                    );
                    if sink.want_metrics {
                        sink.events.push(MetricEvent::Grant {
                            router: self.id as u32,
                            out_port: eject_port as u16,
                            oldest,
                            ejection: true,
                            nonminimal: false,
                            commit_dim: None,
                        });
                    }
                    if sink.want_trace {
                        sink.hops.push(HopRecord {
                            pkt: pkt_id,
                            tag: pool.cold(pkt_id).tag,
                            router: self.id as u32,
                            out_port: eject_port as u16,
                            out_vc: out_vc as u8,
                            ejection: true,
                            cycle: now,
                        });
                    }
                } else if sink.want_metrics {
                    let starved = self.has_unclaimed_vc(eject_port, 0..self.num_vcs);
                    sink.events.push(MetricEvent::Stall {
                        router: self.id as u32,
                        out_port: eject_port as u16,
                        credit_starved: starved,
                    });
                }
                continue;
            }

            // Livelock guard: a packet that has burned its hop budget is
            // dropped instead of granted another network hop. The poison
            // itself lands at commit time, like every other effect, so it
            // becomes visible network-wide at the next cycle regardless of
            // router ids.
            if hops >= self.hop_cap {
                sink.pool_ops.push(PoolOp::HopPoison(pkt_id));
                continue;
            }

            let view = OutView {
                num_vcs: self.num_vcs,
                cap: self.buf_cap as usize,
                credits: &self.out_credits,
                occ: &self.out_occ,
                backlog: &self.out_backlog,
                live: &self.live_ports,
                out_chan: &self.out_chan,
                channels,
                now,
            };
            let ctx = RouteCtx {
                router: self.id,
                input_port: port,
                input_vc: vc,
                from_terminal: self.port_term[port] != NO_WIRE,
                dst_router,
                dst_terminal: dst_term,
                pkt_len: len as usize,
                state,
                view: &view,
            };
            let route_t0 = sink.timed.then(std::time::Instant::now);
            algo.route(&ctx, &mut self.rng, &mut cands);
            if let Some(t0) = route_t0 {
                sink.timers.route_ns += t0.elapsed().as_nanos() as u64;
            }
            // With every port up an empty candidate set is a routing bug;
            // under faults it just means "wait for a revival or a reroute".
            debug_assert!(
                !cands.is_empty() || self.live_ports.iter().any(|&l| !l),
                "routing produced no candidates on a fault-free router"
            );

            // "Choose the output with the minimal weight" (Sections 5.1/5.2):
            // the best-weighted candidate is selected *before* checking
            // grantability; if its VC class is currently claimed or
            // credit-starved the packet waits and re-evaluates next cycle.
            // (Falling back to the cheapest *grantable* candidate instead
            // turns transient credit exhaustion into spurious deroutes and
            // destabilizes the network near saturation.) Ties prefer fewer
            // hops, then a random draw to avoid systematic port bias.
            let mut best: Option<(CandKey, usize, u8, Commit)> = None;
            let mut min_hops = u8::MAX;
            for c in &cands {
                let salt = self.rng.random::<u32>();
                let key = (c.weight, c.hops, salt);
                min_hops = min_hops.min(c.hops);
                if best.as_ref().is_none_or(|(k, ..)| *k > key) {
                    best = Some((key, c.port as usize, c.class, c.commit));
                }
            }
            if let Some((key, out_port, class, commit)) = best {
                let range = self.class_map.vcs_of(class as usize);
                if let Some(out_vc) = self.pick_vc(out_port, range.clone(), len) {
                    self.grant(pkt_id, port, vc, out_port, out_vc, len, commit, true, sink);
                    if sink.want_metrics {
                        // A grant whose hop count exceeds the cheapest
                        // offered path is a deroute; DAL names its dimension
                        // in the commit, otherwise the port's topology
                        // dimension attributes it.
                        let nonminimal = key.1 > min_hops;
                        let dim = match commit {
                            Commit::Deroute { dim } => Some(dim),
                            _ => None,
                        };
                        sink.events.push(MetricEvent::Grant {
                            router: self.id as u32,
                            out_port: out_port as u16,
                            oldest,
                            ejection: false,
                            nonminimal,
                            commit_dim: dim,
                        });
                    }
                    if sink.want_trace {
                        sink.hops.push(HopRecord {
                            pkt: pkt_id,
                            tag: pool.cold(pkt_id).tag,
                            router: self.id as u32,
                            out_port: out_port as u16,
                            out_vc: out_vc as u8,
                            ejection: false,
                            cycle: now,
                        });
                    }
                } else if sink.want_metrics {
                    let starved = self.has_unclaimed_vc(out_port, range);
                    sink.events.push(MetricEvent::Stall {
                        router: self.id as u32,
                        out_port: out_port as u16,
                        credit_starved: starved,
                    });
                }
            }
        }
        self.heads = heads;
        self.cands = cands;
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
    /// for the whole packet, and defers the packet-state update (routing
    /// commit + hop count) to the commit phase. Nothing reads that state
    /// again before the next cycle — the packet is routed here and the
    /// downstream router can't see its head for at least one channel
    /// latency — so deferral is invisible.
    #[allow(clippy::too_many_arguments)]
    fn grant(
        &mut self,
        pkt_id: PacketId,
        in_port: usize,
        in_vc: usize,
        out_port: usize,
        out_vc: usize,
        len: u16,
        commit: Commit,
        network_hop: bool,
        sink: &mut TickSink,
    ) {
        let o = self.pv(out_port, out_vc);
        debug_assert!(self.out_owner[o] == NO_OWNER);
        debug_assert!(self.out_credits[o] >= len as u32);
        self.out_owner[o] = pkt_id;
        self.out_credits[o] -= len as u32;
        self.out_occ[out_port] += len as u32;
        let i = self.pv(in_port, in_vc);
        // Heads are collected as each VC's first unrouted packet, and at
        // most one per VC per cycle, so the grantee still sits there.
        let buf = &mut self.in_q[i][self.routed[i] as usize];
        debug_assert!(buf.pkt == pkt_id && buf.route.is_none());
        buf.route = Some((out_port as u16, out_vc as u8));
        self.routed[i] += 1;
        let count_hop = network_hop && self.port_term[out_port] == NO_WIRE;
        if count_hop || !matches!(commit, Commit::None) {
            sink.pool_ops.push(PoolOp::Commit {
                pkt: pkt_id,
                commit,
                count_hop,
            });
        }
    }

    /// Phase 3: each input port forwards up to `crossbar_speedup` flits
    /// (oldest routed packet first) into the crossbar, returning credits
    /// upstream.
    fn switch_traverse(&mut self, now: u64, pool: &PacketPool, sink: &mut TickSink) {
        if self.flits_buffered == 0 {
            return;
        }
        let any_poisoned = pool.any_poisoned();
        for port in 0..self.num_ports {
            for _ in 0..self.xbar_speedup {
                if self.port_flits[port] == 0 {
                    break;
                }
                // Oldest routed packet with buffered flits on this input
                // port, across all VCs; routed packets are each queue's
                // prefix, so the scan stops there.
                let mut pick: Option<(u64, PacketId, usize, usize)> = None;
                for vc in 0..self.num_vcs {
                    let i = self.pv(port, vc);
                    let routed = self.routed[i] as usize;
                    for (bi, buf) in self.in_q[i].iter().take(routed).enumerate() {
                        if buf.flits.is_empty() {
                            continue;
                        }
                        if any_poisoned && pool.is_poisoned(buf.pkt) {
                            // Held for the fault reaper; don't forward.
                            continue;
                        }
                        if pick.is_none_or(|p| (p.0, p.1) > (buf.birth, buf.pkt)) {
                            pick = Some((buf.birth, buf.pkt, vc, bi));
                        }
                    }
                }
                let Some((_, _, vc, bi)) = pick else { break };
                let i = self.pv(port, vc);
                let buf = &mut self.in_q[i][bi];
                let (out_port, out_vc) = buf.route.expect("picked a routed packet");
                let flit = buf.flits.pop_front().expect("picked a non-empty packet");
                buf.sent += 1;
                self.flits_buffered -= 1;
                self.port_flits[port] -= 1;
                sink.stats.flit_moves += 1;
                if flit.is_tail() {
                    let buf = self.in_q[i].remove(bi).expect("indexed buffer exists");
                    self.routed[i] -= 1;
                    self.recycle_buf(buf);
                    sink.pool_ops.push(PoolOp::Gone(flit.pkt)); // the buffer's own pin
                    let o = self.pv(out_port as usize, out_vc as usize);
                    debug_assert_eq!(self.out_owner[o], flit.pkt);
                    self.out_owner[o] = NO_OWNER;
                }
                self.xbar
                    .push_back((now + self.xbar_latency, flit, out_port, out_vc));
                self.out_backlog[out_port as usize] += 1;
                // Credit for the freed input-buffer slot.
                if let Some(ch) = self.in_ch(port) {
                    sink.credits.push((ch, vc as u8));
                }
            }
        }
    }

    /// Phase 4: matured crossbar flits drop into output queues.
    fn xbar_drain(&mut self, now: u64) {
        while let Some(&(t, flit, out_port, out_vc)) = self.xbar.front() {
            if t > now {
                break;
            }
            self.xbar.pop_front();
            self.out_q[out_port as usize].push_back((flit, out_vc));
        }
    }

    /// Phase 5: one flit per output port onto the wire (sent at commit).
    /// A port whose LLR replay window is full holds its flit — the queue
    /// keeps the router awake ([`Self::next_wake`]) and the window reopens
    /// as acks arrive, so the backpressure is transient.
    fn link_egress(&mut self, channels: &[Channel], sink: &mut TickSink) {
        for port in 0..self.num_ports {
            if self.out_q[port].is_empty() {
                continue;
            }
            let ch = self.out_ch(port).expect("queued flit on unwired port");
            if !channels[ch].ready_for_flit() {
                continue;
            }
            let (flit, vc) = self.out_q[port].pop_front().expect("checked non-empty");
            self.out_backlog[port] -= 1;
            sink.flits.push((ch, flit, vc));
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
        // Packets granted the dead output port (from any input VC).
        for q in &self.in_q {
            for buf in q {
                if buf.route.is_some_and(|(p, _)| p as usize == port) {
                    poison_packet(
                        pool,
                        stats,
                        trace.as_deref_mut(),
                        buf.pkt,
                        now,
                        DropReason::LinkFailed,
                    );
                }
            }
        }
        // Incomplete packets whose remaining flits were on the dead wire.
        for vc in 0..self.num_vcs {
            let i = self.pv(port, vc);
            for buf in &self.in_q[i] {
                let len = pool.hot(buf.pkt).len;
                if (buf.sent as usize + buf.flits.len()) < len as usize {
                    poison_packet(
                        pool,
                        stats,
                        trace.as_deref_mut(),
                        buf.pkt,
                        now,
                        DropReason::LinkFailed,
                    );
                }
            }
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
        channels: &mut [Channel],
    ) {
        if !pool.any_poisoned() {
            return;
        }
        for port in 0..self.num_ports {
            for vc in 0..self.num_vcs {
                let i = self.pv(port, vc);
                let mut bi = 0;
                while bi < self.in_q[i].len() {
                    if !pool.is_poisoned(self.in_q[i][bi].pkt) {
                        bi += 1;
                        continue;
                    }
                    let mut buf = self.in_q[i].remove(bi).expect("indexed buffer exists");
                    let len = pool.hot(buf.pkt).len;
                    if let Some((op, ov)) = buf.route {
                        self.routed[i] -= 1;
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
                            ((len - buf.sent) as u32).min(self.buf_cap - self.out_credits[o]);
                        self.out_credits[o] += refund;
                        self.out_occ[op as usize] -= refund;
                    }
                    for flit in buf.flits.drain(..) {
                        self.flits_buffered -= 1;
                        self.port_flits[port] -= 1;
                        stats.dropped_flits += 1;
                        if self.in_chan[port] != NO_WIRE {
                            channels[self.in_chan[port] as usize].send_credit(now, vc as u8);
                        }
                        pool.note_flit_gone(flit.pkt);
                    }
                    pool.note_flit_gone(buf.pkt); // the buffer's own pin
                    self.recycle_buf(buf);
                }
            }
        }
    }

    /// Fault fallout: discards every crossbar-pipe and output-queue flit
    /// heading to `port`. Called before reviving the attached link so stale
    /// remnants of killed packets never reach the fresh wire.
    pub(crate) fn purge_egress(&mut self, port: usize, pool: &mut PacketPool, stats: &mut Stats) {
        let xbar = std::mem::take(&mut self.xbar);
        for (t, flit, op, ov) in xbar {
            if op as usize == port {
                self.out_backlog[port] -= 1;
                stats.dropped_flits += 1;
                pool.note_flit_gone(flit.pkt);
            } else {
                self.xbar.push_back((t, flit, op, ov));
            }
        }
        let q = std::mem::take(&mut self.out_q[port]);
        for (flit, _) in q {
            self.out_backlog[port] -= 1;
            stats.dropped_flits += 1;
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
pub(crate) fn apply_commit(state: &mut PacketRouteState, commit: Commit) {
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
        assert_eq!(r.in_flight_to(1, 1), 0);
        assert_eq!(r.next_wake(10), None);
        assert_eq!(r.credits(0, 0), cfg.buf_flits as u32);
        assert_eq!(r.input_occupancy(3, 1), 0);
    }

    /// A view that answers only the per-VC primitives, so the aggregate
    /// reads fall through to the trait's provided per-VC loops.
    struct PerVc<'a>(&'a OutView<'a>);

    impl RouterView for PerVc<'_> {
        fn num_vcs(&self) -> usize {
            self.0.num_vcs()
        }
        fn free_space(&self, port: usize, vc: usize) -> usize {
            self.0.free_space(port, vc)
        }
        fn capacity(&self, port: usize, vc: usize) -> usize {
            self.0.capacity(port, vc)
        }
        fn queue_len(&self, port: usize) -> usize {
            self.0.queue_len(port)
        }
    }

    /// `OutView` answers the aggregate reads from the router's port
    /// counter and a slice sum over the credits; after grants, credit
    /// returns and a clamped refund both must equal the per-VC defaults.
    #[test]
    fn out_view_aggregates_equal_per_vc_defaults() {
        let cfg = SimConfig {
            buf_flits: 32,
            ..SimConfig::default()
        };
        let (ports, v) = (3, cfg.num_vcs);
        let mut r = Router::new(0, ports, &cfg, 2, 7);
        let mut channels: Vec<Channel> = (0..ports).map(|_| Channel::new(1)).collect();
        for p in 0..ports {
            r.out_chan[p] = p as u32;
            r.in_chan[p] = p as u32;
            r.live_ports[p] = true;
        }
        let mut pool = PacketPool::new();
        let mut sink = TickSink::default();
        let check = |r: &Router, channels: &[Channel]| {
            let view = OutView {
                num_vcs: v,
                cap: r.buf_cap as usize,
                credits: &r.out_credits,
                occ: &r.out_occ,
                backlog: &r.out_backlog,
                live: &r.live_ports,
                out_chan: &r.out_chan,
                channels,
                now: 0,
            };
            let per_vc = PerVc(&view);
            for p in 0..ports {
                assert_eq!(view.port_occupancy(p), per_vc.port_occupancy(p));
                for (lo, hi) in (0..=v).flat_map(|lo| (lo..=v).map(move |hi| (lo, hi))) {
                    assert_eq!(
                        view.range_occupancy(p, lo..hi),
                        per_vc.range_occupancy(p, lo..hi),
                        "port {p} vcs {lo}..{hi}"
                    );
                }
            }
            let mut errs = Vec::new();
            r.audit_derived_state(&mut errs);
            assert_eq!(errs, Vec::<String>::new());
        };
        check(&r, &channels);

        // The heads of three packets arrive on input port 0, one
        // per VC, and are granted output VCs on ports 1 and 2.
        let grants = [(0usize, 1usize, 0usize, 8u16), (1, 1, 5, 12), (2, 2, 3, 5)];
        let mut ids = Vec::new();
        for &(in_vc, _, _, len) in &grants {
            let id = pool.alloc(crate::packet::Packet {
                src: 0,
                dst: 1,
                dst_router: 1,
                len,
                hops: 0,
                birth: 0,
                inject: 0,
                route: PacketRouteState::default(),
                tag: 0,
                seq: 0,
            });
            let head = Flit {
                pkt: id,
                idx: 0,
                len,
            };
            channels[0].send_flit(ids.len() as u64, head, in_vc as u8);
            // The head flit and the input buffer each pin the packet slot
            // (the sink's deferred `PoolOp::Created`, applied by hand).
            pool.note_flit_created(id);
            pool.note_flit_created(id);
            ids.push(id);
        }
        r.ingress_flits(3, 0, &pool, &channels, &mut sink);
        for (&(in_vc, out_port, out_vc, len), &id) in grants.iter().zip(&ids) {
            r.grant(
                id,
                0,
                in_vc,
                out_port,
                out_vc,
                len,
                Commit::None,
                true,
                &mut sink,
            );
            check(&r, &channels);
        }
        assert_eq!(r.out_occ, [0, 20, 5]);

        // Credits come home on port 1: two for VC 0, one for VC 5.
        for vc in [0, 0, 5] {
            channels[1].send_credit(0, vc);
        }
        r.ingress_credits(1, 1, &channels);
        check(&r, &channels);
        assert_eq!(r.out_occ, [0, 17, 5]);

        // Reaping the first packet refunds its 8-flit reservation, but VC
        // 0 is only 6 short of capacity: the refund clamps and the port
        // counter moves by 6.
        let mut stats = Stats::default();
        pool.poison(ids[0]);
        r.reap_poisoned(1, &mut pool, &mut stats, &mut channels);
        check(&r, &channels);
        assert_eq!(r.out_occ, [0, 11, 5]);
        assert_eq!(r.credits(1, 0), r.buf_cap);
    }
}
