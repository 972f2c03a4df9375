//! Network assembly: instantiates routers, terminals, and channels from a
//! [`Topology`] + [`RoutingAlgorithm`] pair and advances them cycle by
//! cycle.

use std::sync::Arc;

use hxcore::RoutingAlgorithm;
use hxtopo::{ChannelKind, PortTarget, Topology};

use crate::bitset::BitRows;
use crate::channel::Channel;
use crate::config::{Engine, SimConfig};
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultAction;
use crate::metrics::{Metrics, PhaseTimers};
use crate::packet::{Flit, PacketId, PacketPool};
use crate::router::{poison_packet, ArrivalHint, Router};
use crate::stats::Stats;
use crate::terminal::Terminal;
use crate::trace::{DropReason, Trace};
use crate::workload::Delivered;

/// A fully wired simulated network.
pub struct Network {
    /// The topology being simulated.
    pub topo: Arc<dyn Topology>,
    /// The routing algorithm shared by every router.
    pub(crate) algo: Arc<dyn RoutingAlgorithm>,
    /// Simulation parameters.
    pub cfg: SimConfig,
    routers: Vec<Router>,
    terminals: Vec<Terminal>,
    channels: Vec<Channel>,
    /// This cycle's due endpoint ids, ascending: routers (`0..nr`) then
    /// terminals (`nr..nr + nt`) — the order they tick in. The event
    /// engine refills it from its queue every cycle; the cycle engine
    /// fills it once, with every id.
    due: Vec<u32>,
    /// Event engine: this cycle's arrival hints, the matured router ends
    /// in key order (scratch, reused; empty under the cycle engine).
    hints: Vec<ArrivalHint>,
    /// This cycle's hop-capped packets, poisoned once every due endpoint
    /// has ticked (scratch, reused).
    hop_capped: Vec<PacketId>,
    /// Event-engine wake state (`None` when `cfg.engine == Engine::Cycle`).
    event: Option<Box<EventState>>,
}

/// The shared state one cycle's due routers and terminals write, lent to
/// each in turn. An endpoint takes its matured arrivals off `channels` as
/// it reads them and applies every effect where it lands: sends on the
/// wire, refcounts, releases, route commits and inject stamps in `pool`,
/// counters in `stats`, deliveries in `delivered`, grants and stalls in
/// `metrics`, hops in `trace`. The one effect it defers is the hop-cap
/// poison (`hop_capped`; see [`Network::tick`]).
pub(crate) struct TickCtx<'a> {
    pub(crate) now: u64,
    pub(crate) channels: &'a mut [Channel],
    pub(crate) pool: &'a mut PacketPool,
    pub(crate) stats: &'a mut Stats,
    pub(crate) delivered: &'a mut Vec<Delivered>,
    pub(crate) trace: Option<&'a mut Trace>,
    pub(crate) metrics: Option<&'a mut Metrics>,
    /// Packets over the hop cap, in grant-evaluation order.
    pub(crate) hop_capped: &'a mut Vec<PacketId>,
    /// Whether `timers` measures (metrics on with timers).
    pub(crate) timed: bool,
    /// Phase wall time of this cycle, folded into `metrics` at its end.
    pub(crate) timers: PhaseTimers,
    /// Event engine: sends plant their arrival wakes here.
    pub(crate) wakes: Option<&'a mut EventState>,
}

impl TickCtx<'_> {
    /// Puts `flit` on channel `ch`, bound for downstream VC `vc`. Under
    /// the event engine this also plants its arrival — except under LLR,
    /// where the flit only enters the sender's replay buffer and
    /// `llr_tick` reports the delivery when the frame lands.
    #[inline]
    pub(crate) fn send_flit(&mut self, ch: usize, flit: Flit, vc: u8) {
        self.channels[ch].send_flit(self.now, flit, vc);
        if let Some(ev) = self.wakes.as_deref_mut() {
            if !ev.llr {
                ev.on_send(self.now, ch, true);
            }
        }
    }

    /// Returns one credit for `vc` on channel `ch` (and plants its
    /// arrival under the event engine).
    #[inline]
    pub(crate) fn send_credit(&mut self, ch: usize, vc: u8) {
        self.channels[ch].send_credit(self.now, vc);
        if let Some(ev) = self.wakes.as_deref_mut() {
            ev.on_send(self.now, ch, false);
        }
    }
}

/// Wake-scheduling state for the event-driven engine, keyed by the
/// endpoint ids of `Network::due`.
///
/// Every channel has two *ends*: the endpoint that consumes its flits and
/// the endpoint that consumes its returning credits. Each end has an
/// *arrival key*, numbered in the order a full ingress scan visits ends
/// (see [`arrival_ends`]), so a row of key bits read upwards is the hint
/// list in the scan's order, already unique.
pub(crate) struct EventState {
    queue: EventQueue,
    /// Per channel: latency and the keys of its two ends.
    chans: Vec<ChanEnds>,
    /// Per arrival key: the end it names.
    ends: Vec<ArrivalEnd>,
    /// Row `c % arrivals_len` holds the keys with a send maturing at cycle
    /// `c`. Every set bit comes with a wake of its consumer at `c`, so
    /// cycle `c` is executed and walks the row clean before the ring comes
    /// round to it again (`arrivals_len` exceeds the longest latency).
    arrivals: BitRows,
    arrivals_len: u64,
    /// LLR on: a flit send reaches the wire through `llr_tick`, which
    /// plants the arrival itself.
    llr: bool,
    /// Lifetime endpoint wakes executed.
    events_processed: u64,
}

/// A channel as the wake scheduler sees it.
struct ChanEnds {
    /// One-way latency in cycles.
    latency: u64,
    /// `(consumer endpoint, arrival key)` of the credit end and the flit
    /// end, indexed by `is_flit`.
    ends: [(u32, u32); 2],
}

/// What an arrival key names: one end of one channel.
#[derive(Clone, Copy, Debug, PartialEq)]
struct ArrivalEnd {
    /// The channel end, packed: `ch << 1 | is_flit`.
    chan_end: u32,
    /// Consuming endpoint id. Only routers (ids below the router count)
    /// take hints; terminals scan their two channels directly.
    consumer: u32,
    /// The consumer's ingress step for this end: `port << 1 | is_credit`.
    step: u16,
}

/// Every channel end in arrival-key order — the order the full scan of
/// `Router::ingress` visits them: routers ascending, ports ascending, a
/// port's incoming flits before its returning credits; then the terminal
/// ends, which yield no hint and so need no particular place.
fn arrival_ends(routers: &[Router], terminals: &[Terminal]) -> Vec<ArrivalEnd> {
    let mut ends = Vec::new();
    // One port's flit end (its incoming channel), then its credit end.
    let mut port_ends = |consumer: usize, port: usize, chans: [Option<usize>; 2]| {
        for (is_credit, ch) in chans.into_iter().enumerate() {
            if let Some(ch) = ch {
                ends.push(ArrivalEnd {
                    chan_end: (ch as u32) << 1 | (is_credit ^ 1) as u32,
                    consumer: consumer as u32,
                    step: (port << 1 | is_credit) as u16,
                });
            }
        }
    };
    for r in routers {
        for p in 0..r.in_chan.len() {
            port_ends(r.id(), p, [r.in_ch(p), r.out_ch(p)]);
        }
    }
    for t in terminals {
        let chans = [Some(t.in_chan), Some(t.out_chan)];
        port_ends(routers.len() + t.id(), 0, chans);
    }
    ends
}

impl EventState {
    fn new(routers: &[Router], terminals: &[Terminal], channels: &[Channel], llr: bool) -> Self {
        let ends = arrival_ends(routers, terminals);
        let mut chans: Vec<ChanEnds> = channels
            .iter()
            .map(|c| ChanEnds {
                latency: c.latency(),
                ends: [(u32::MAX, u32::MAX); 2],
            })
            .collect();
        for (key, end) in ends.iter().enumerate() {
            let slot = &mut chans[(end.chan_end >> 1) as usize].ends[(end.chan_end & 1) as usize];
            debug_assert_eq!(slot.0, u32::MAX, "channel end consumed twice");
            *slot = (end.consumer, key as u32);
        }
        debug_assert!(chans
            .iter()
            .all(|c| c.ends.iter().all(|&(consumer, _)| consumer != u32::MAX)));
        let arrivals_len = chans.iter().map(|c| c.latency).max().unwrap_or(0) + 2;
        EventState {
            queue: EventQueue::new(routers.len() + terminals.len()),
            arrivals: BitRows::new(arrivals_len as usize, ends.len()),
            arrivals_len,
            chans,
            ends,
            llr,
            events_processed: 0,
        }
    }

    /// Walks the arrivals matured at `now` once, in key order, into
    /// `hints`: the router ends (consumer ids below `nr`), so the busy tick
    /// touches only ports with actual arrivals, in the full scan's visit
    /// order. Terminal ends yield no hint — a terminal reads its two
    /// channels whenever it ticks. `due` is this cycle's due set.
    fn collect_arrivals(&mut self, now: u64, nr: u32, due: &[u32], hints: &mut Vec<ArrivalHint>) {
        let row = (now % self.arrivals_len) as usize;
        let ends = &self.ends;
        hints.clear();
        self.arrivals.drain(row, |key| {
            let end = ends[key as usize];
            debug_assert!(
                due.binary_search(&end.consumer).is_ok(),
                "arrival at cycle {now} without a wake of its consumer: {end:?}"
            );
            if end.consumer < nr {
                hints.push((end.consumer, end.step));
            }
        });
        debug_assert!(self.arrivals.row_is_clear(row));
    }

    /// A flit or credit on channel `ch` reaches its consumer `delay`
    /// cycles after `now`: mark the arrival and wake the consumer then.
    #[inline]
    fn arrival(&mut self, now: u64, delay: u64, ch: usize, is_flit: bool) {
        debug_assert!(delay < self.arrivals_len, "arrival beyond the ring");
        let (consumer, key) = self.chans[ch].ends[is_flit as usize];
        let t = now + delay;
        self.arrivals.set((t % self.arrivals_len) as usize, key);
        let kind = [EventKind::CreditArrival, EventKind::FlitArrival][is_flit as usize];
        self.queue.schedule(t, consumer, kind);
    }

    /// A flit or credit went onto channel `ch` at `now`: it matures one
    /// channel latency later.
    #[inline]
    fn on_send(&mut self, now: u64, ch: usize, is_flit: bool) {
        let latency = self.chans[ch].latency;
        debug_assert!(latency >= 1, "zero-latency channel");
        self.arrival(now, latency, ch, is_flit);
    }
}

impl Network {
    /// Builds the network. `seed` derives every router/terminal RNG, so a
    /// fixed seed reproduces the run exactly.
    pub(crate) fn new(
        topo: Arc<dyn Topology>,
        algo: Arc<dyn RoutingAlgorithm>,
        cfg: SimConfig,
        seed: u64,
    ) -> Self {
        cfg.validate();
        assert!(
            algo.num_classes() <= cfg.num_vcs,
            "{} needs {} resource classes but only {} VCs configured",
            algo.name(),
            algo.num_classes(),
            cfg.num_vcs
        );
        let nr = topo.num_routers();
        let nt = topo.num_terminals();
        let mut routers: Vec<Router> = (0..nr)
            .map(|r| Router::new(r, topo.num_ports(r), &cfg, algo.num_classes(), seed))
            .collect();
        let mut channels: Vec<Channel> = Vec::new();
        let mut term_wiring: Vec<Option<(usize, usize)>> = vec![None; nt];

        // With LLR enabled every channel (terminal links included) carries
        // the retry sublayer, each with its own error-model RNG stream
        // derived from (run seed, channel id).
        let mk_chan = |id: usize, latency: u64| {
            if cfg.llr_enabled {
                let chan_seed = seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Channel::with_llr(latency, cfg.llr_window, cfg.error_ber, chan_seed)
            } else {
                Channel::new(latency)
            }
        };

        for r in 0..nr {
            for p in 0..topo.num_ports(r) {
                let latency = match topo.channel_kind(r, p) {
                    ChannelKind::Terminal => cfg.term_chan_latency,
                    ChannelKind::Short => cfg.short_chan_latency,
                    ChannelKind::Long => cfg.router_chan_latency,
                };
                match topo.port_target(r, p) {
                    PortTarget::Router { router, port } => {
                        // One directed channel per (source router, port).
                        let id = channels.len();
                        channels.push(mk_chan(id, latency));
                        routers[r].out_chan[p] = id as u32;
                        routers[r].live_ports[p] = true;
                        routers[router].in_chan[port] = id as u32;
                    }
                    PortTarget::Terminal(t) => {
                        let eject = channels.len();
                        channels.push(mk_chan(eject, latency));
                        let inject = channels.len();
                        channels.push(mk_chan(inject, latency));
                        routers[r].out_chan[p] = eject as u32;
                        routers[r].in_chan[p] = inject as u32;
                        routers[r].port_term[p] = t as u32;
                        routers[r].live_ports[p] = true;
                        term_wiring[t] = Some((inject, eject));
                    }
                    PortTarget::Unused => {}
                }
            }
        }

        let terminals: Vec<Terminal> = term_wiring
            .into_iter()
            .enumerate()
            .map(|(t, w)| {
                let (out_chan, in_chan) = w.unwrap_or_else(|| panic!("terminal {t} unwired"));
                Terminal::new(t, &cfg, out_chan, in_chan, seed)
            })
            .collect();

        let event = (cfg.engine == Engine::Event).then(|| {
            Box::new(EventState::new(
                &routers,
                &terminals,
                &channels,
                cfg.llr_enabled,
            ))
        });

        Network {
            topo,
            algo,
            cfg,
            routers,
            terminals,
            channels,
            due: if event.is_some() {
                Vec::new()
            } else {
                (0..(nr + nt) as u32).collect()
            },
            hints: Vec::new(),
            hop_capped: Vec::new(),
            event,
        }
    }

    /// Whether the event-driven engine drives this network.
    pub(crate) fn engine_is_event(&self) -> bool {
        self.event.is_some()
    }

    /// Endpoint wakes executed by the event engine so far (0 under the
    /// cycle engine, which has no notion of a wake).
    pub(crate) fn events_processed(&self) -> u64 {
        self.event.as_ref().map_or(0, |ev| ev.events_processed)
    }

    /// Event engine: wakes terminal `t` at `now` — a packet just entered
    /// its injection queue. No-op under the cycle engine.
    pub(crate) fn wake_terminal(&mut self, t: usize, now: u64) {
        let nr = self.routers.len();
        if let Some(ev) = &mut self.event {
            ev.queue.schedule(now, (nr + t) as u32, EventKind::Wake);
        }
    }

    /// Event engine: earliest pending wake time, if any. With LLR enabled
    /// this also covers the retry sublayer's own activity (wire/ctrl
    /// maturities, pending transmissions) — `llr_tick` runs on every
    /// executed cycle, so dead-cycle skips must never jump past a cycle
    /// where it would act.
    pub(crate) fn next_event_time(&self, now: u64) -> Option<u64> {
        let queued = self.event.as_ref().and_then(|ev| ev.queue.next_time());
        if !self.cfg.llr_enabled {
            return queued;
        }
        let llr = self
            .channels
            .iter()
            .filter_map(|c| c.llr_next_activity(now))
            .min();
        match (queued, llr) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Event engine: fault actions and fault fallout mutate state outside
    /// the tick's send helpers (channel kills, direct credit sends from
    /// the reaper, credit rebuilds at revival), so resynchronize
    /// conservatively: wake every endpoint at `now` and both consumers of
    /// every channel one latency out, covering sends made behind the
    /// queue's back. Spurious wakes are no-op ticks, so over-scheduling
    /// never perturbs results.
    pub(crate) fn fault_resync(&mut self, now: u64) {
        let n = (self.routers.len() + self.terminals.len()) as u32;
        if let Some(ev) = &mut self.event {
            for e in 0..n {
                ev.queue.schedule(now, e, EventKind::Fault);
            }
            for ch in 0..ev.chans.len() {
                ev.on_send(now, ch, true);
                ev.on_send(now, ch, false);
            }
        }
    }

    /// Advances the network by one cycle. `metrics`, like `trace`, is pure
    /// observation and never perturbs simulation state.
    ///
    /// One body serves both engines; they differ only in where the due
    /// set comes from. The event engine pops it from its queue (with
    /// arrival hints from the arrival ring), the cycle engine's is every
    /// endpoint id, unhinted. Then, the same for both: the due routers,
    /// then the due terminals, tick in id order, each writing its effects
    /// straight into the shared state ([`TickCtx`]).
    ///
    /// Every channel has latency >= 1, so nothing sent at `now` is read
    /// by anyone before `now + 1`, and each channel has one flit sender
    /// and one credit sender: an endpoint's reads do not depend on which
    /// endpoints ticked before it. The one exception is the hop-cap
    /// poison — `is_poisoned` is read by every later router this cycle —
    /// so hop-capped packets are poisoned only after the last endpoint
    /// has ticked.
    ///
    /// Bit-identity across engines holds because a non-due endpoint is
    /// provably a no-op under the cycle engine that cycle (no matured
    /// arrivals, no buffered or queued work — and no randomness is drawn on
    /// those paths), and due endpoints run the identical code in the
    /// identical id order.
    pub(crate) fn tick(
        &mut self,
        now: u64,
        pool: &mut PacketPool,
        stats: &mut Stats,
        delivered: &mut Vec<Delivered>,
        trace: Option<&mut Trace>,
        metrics: Option<&mut Metrics>,
    ) {
        let nr = self.routers.len();

        // ---- LLR sublayer: runs first so frames landing this cycle are
        // on the wire when their consumer reads it, exactly like plain
        // arrivals. In channel-id order, so the error-model RNG draws are
        // engine independent.
        if self.cfg.llr_enabled {
            for (i, ch) in self.channels.iter_mut().enumerate() {
                if ch.llr_tick(now, stats) {
                    if let Some(ev) = self.event.as_deref_mut() {
                        // The frame lands this very cycle: the arrival
                        // joins the row about to be walked and the wake
                        // the row about to be popped.
                        ev.arrival(now, 0, i, true);
                    }
                }
            }
        }

        // ---- Due set: the only step that knows the engine's nature. The
        // cycle engine's `due` is every id, filled once at construction.
        if let Some(ev) = self.event.as_deref_mut() {
            ev.queue.pop_due(now, &mut self.due);
            ev.events_processed += self.due.len() as u64;
            ev.collect_arrivals(now, nr as u32, &self.due, &mut self.hints);
            if self.due.is_empty() {
                return;
            }
        }
        let hinted = self.event.is_some();
        let split = self.due.partition_point(|&e| (e as usize) < nr);
        let (r_ids, t_ids) = self.due.split_at(split);

        let timed = metrics.as_ref().is_some_and(|m| m.timers_enabled());
        let mut ctx = TickCtx {
            now,
            channels: &mut self.channels,
            pool,
            stats,
            delivered,
            trace,
            metrics,
            hop_capped: &mut self.hop_capped,
            timed,
            timers: PhaseTimers::default(),
            wakes: self.event.as_deref_mut(),
        };

        // ---- Compute: the due routers, then the due terminals. Hints are
        // sorted by router id like the due ids, so one cursor walks both.
        let (topo, algo, hints) = (&*self.topo, &*self.algo, &self.hints[..]);
        let mut hc = 0;
        for &e in r_ids {
            let arrivals = hinted.then(|| {
                while hc < hints.len() && hints[hc].0 < e {
                    hc += 1;
                }
                let s = hc;
                while hc < hints.len() && hints[hc].0 == e {
                    hc += 1;
                }
                &hints[s..hc]
            });
            self.routers[e as usize].tick(topo, algo, arrivals, &mut ctx);
        }
        let mut stamp = timed.then(std::time::Instant::now);
        for &e in t_ids {
            self.terminals[e as usize - nr].tick(&mut ctx);
        }
        crate::metrics::lap(&mut stamp, &mut ctx.timers.channel_ns);

        // ---- The one deferred effect, in the order the routers decided
        // it.
        for pkt in ctx.hop_capped.drain(..) {
            let trace = ctx.trace.as_deref_mut();
            poison_packet(ctx.pool, ctx.stats, trace, pkt, now, DropReason::HopCap);
        }
        if let Some(m) = ctx.metrics {
            m.timers.accumulate(&ctx.timers);
        }

        // ---- Reschedule: ticked endpoints self-wake from their post-tick
        // state ([`Router::next_wake`] / `Terminal::is_active`).
        if let Some(ev) = self.event.as_deref_mut() {
            for &e in &self.due {
                let wake = if (e as usize) < nr {
                    self.routers[e as usize].next_wake(now)
                } else {
                    let term = &self.terminals[e as usize - nr];
                    term.is_active().then_some(now + 1)
                };
                if let Some(t) = wake {
                    ev.queue.schedule(t, e, EventKind::Wake);
                }
            }
        }
    }

    /// Resolves the far end of a router-to-router link.
    fn peer_of(&self, router: usize, port: usize) -> (usize, usize) {
        match self.topo.port_target(router, port) {
            PortTarget::Router {
                router: r2,
                port: p2,
            } => (r2, p2),
            other => panic!(
                "fault injection targets router-to-router links; \
                 router {router} port {port} leads to {other:?}"
            ),
        }
    }

    /// The router-to-router ports of `router` (terminal and unused ports
    /// excluded) — the set a whole-router fault touches.
    fn network_ports(&self, router: usize) -> Vec<usize> {
        (0..self.topo.num_ports(router))
            .filter(|&p| matches!(self.topo.port_target(router, p), PortTarget::Router { .. }))
            .collect()
    }

    /// Kills both directions of the cable at `(router, port)`: flits on
    /// either wire are dropped (their packets poisoned), packets committed
    /// to either dead port or left incomplete by the cut are poisoned, and
    /// the routers' liveness masks flip so routing stops considering the
    /// ports. Killing an already-dead link is a no-op, so overlapping
    /// link- and router-kill schedules compose.
    fn kill_link(
        &mut self,
        router: usize,
        port: usize,
        now: u64,
        pool: &mut PacketPool,
        stats: &mut Stats,
        mut trace: Option<&mut Trace>,
    ) {
        if !self.routers[router].live_ports[port] {
            return;
        }
        let (r2, p2) = self.peer_of(router, port);
        for &(r, p) in &[(router, port), (r2, p2)] {
            self.routers[r].live_ports[p] = false;
            let ch = self.routers[r].out_ch(p).expect("killing an unwired port");
            for (flit, _) in self.channels[ch].kill() {
                poison_packet(
                    pool,
                    stats,
                    trace.as_deref_mut(),
                    flit.pkt,
                    now,
                    DropReason::LinkFailed,
                );
                stats.dropped_flits += 1;
                pool.note_flit_gone(flit.pkt);
            }
            self.routers[r].poison_port_traffic(p, pool, stats, trace.as_deref_mut(), now);
        }
    }

    /// Revives both directions of the cable at `(router, port)`: purges
    /// stale egress remnants, clears the drop bins, and rebuilds sender
    /// credits from the receivers' actual occupancy. Reviving a live link
    /// is a no-op.
    fn revive_link(
        &mut self,
        router: usize,
        port: usize,
        now: u64,
        pool: &mut PacketPool,
        stats: &mut Stats,
        mut trace: Option<&mut Trace>,
    ) {
        if self.routers[router].live_ports[port] {
            return;
        }
        let (r2, p2) = self.peer_of(router, port);
        for &(r, p, pr, pp) in &[(router, port, r2, p2), (r2, p2, router, port)] {
            self.routers[r].purge_egress(p, pool, stats);
            let ch = self.routers[r].out_ch(p).expect("reviving an unwired port");
            for (flit, _) in self.channels[ch].take_dead_drops() {
                poison_packet(
                    pool,
                    stats,
                    trace.as_deref_mut(),
                    flit.pkt,
                    now,
                    DropReason::LinkFailed,
                );
                stats.dropped_flits += 1;
                pool.note_flit_gone(flit.pkt);
            }
            self.channels[ch].revive();
            let occ: Vec<usize> = (0..self.cfg.num_vcs)
                .map(|vc| self.routers[pr].input_occupancy(pp, vc))
                .collect();
            self.routers[r].reset_out_credits(p, &occ);
            self.routers[r].live_ports[p] = true;
        }
    }

    /// Applies one fault action to the running network.
    ///
    /// Link actions operate on one cable (see [`Self::kill_link`] /
    /// [`Self::revive_link`]); router actions apply the same treatment to
    /// every router-to-router cable of the victim atomically, within one
    /// cycle boundary. Terminal links stay wired — a dead router's
    /// terminals simply cannot reach (or be reached by) the rest of the
    /// fabric until revival, matching `DegradedTopology` semantics.
    /// Already-dead links are skipped on kill and already-live links on
    /// revival, so arbitrary interleavings of link and router events
    /// compose; each scheduled action counts once in
    /// `Stats::fault_events`.
    pub(crate) fn apply_fault(
        &mut self,
        action: FaultAction,
        now: u64,
        pool: &mut PacketPool,
        stats: &mut Stats,
        mut trace: Option<&mut Trace>,
    ) {
        match action {
            FaultAction::KillLink { router, port } => {
                self.kill_link(router, port, now, pool, stats, trace.as_deref_mut());
            }
            FaultAction::ReviveLink { router, port } => {
                self.revive_link(router, port, now, pool, stats, trace.as_deref_mut());
            }
            FaultAction::KillRouter { router } => {
                for port in self.network_ports(router) {
                    self.kill_link(router, port, now, pool, stats, trace.as_deref_mut());
                }
            }
            FaultAction::ReviveRouter { router } => {
                for port in self.network_ports(router) {
                    self.revive_link(router, port, now, pool, stats, trace.as_deref_mut());
                }
            }
            // Transient (gray) faults act on the LLR sublayer of both
            // directions of the cable and never drop flits or touch
            // liveness masks — in-flight frames replay from the sender's
            // buffer, and routing steers away via the health penalty
            // instead of a topology change.
            FaultAction::FlapDown { router, port } => {
                debug_assert!(self.cfg.llr_enabled, "flap faults require llr_enabled");
                let (r2, p2) = self.peer_of(router, port);
                for &(r, p) in &[(router, port), (r2, p2)] {
                    let ch = self.routers[r].out_ch(p).expect("flapping an unwired port");
                    self.channels[ch].flap_down(now, stats);
                }
            }
            FaultAction::FlapUp { router, port } => {
                let (r2, p2) = self.peer_of(router, port);
                for &(r, p) in &[(router, port), (r2, p2)] {
                    let ch = self.routers[r].out_ch(p).expect("flapping an unwired port");
                    self.channels[ch].flap_up();
                }
            }
            FaultAction::DegradeLink {
                router,
                port,
                extra_latency,
                half_bw,
            } => {
                debug_assert!(self.cfg.llr_enabled, "degrade faults require llr_enabled");
                let (r2, p2) = self.peer_of(router, port);
                for &(r, p) in &[(router, port), (r2, p2)] {
                    let ch = self.routers[r]
                        .out_ch(p)
                        .expect("degrading an unwired port");
                    self.channels[ch].degrade(extra_latency, half_bw);
                }
            }
            FaultAction::RestoreLink { router, port } => {
                let (r2, p2) = self.peer_of(router, port);
                for &(r, p) in &[(router, port), (r2, p2)] {
                    let ch = self.routers[r]
                        .out_ch(p)
                        .expect("restoring an unwired port");
                    self.channels[ch].restore();
                }
            }
        }
        stats.fault_events += 1;
    }

    /// Sweeps fault fallout: drains dead channels' drop bins (poisoning the
    /// owning packets) and reaps every poisoned buffer from routers and
    /// terminals. Cheap when nothing is poisoned. Returns whether anything
    /// happened (the event engine resynchronizes its wake state when so —
    /// the reaper sends credits outside the sink discipline).
    pub(crate) fn collect_fault_fallout(
        &mut self,
        now: u64,
        pool: &mut PacketPool,
        stats: &mut Stats,
        mut trace: Option<&mut Trace>,
    ) -> bool {
        let mut acted = false;
        for ch in 0..self.channels.len() {
            if !self.channels[ch].has_dead_drops() {
                continue;
            }
            acted = true;
            for (flit, _) in self.channels[ch].take_dead_drops() {
                poison_packet(
                    pool,
                    stats,
                    trace.as_deref_mut(),
                    flit.pkt,
                    now,
                    DropReason::LinkFailed,
                );
                stats.dropped_flits += 1;
                pool.note_flit_gone(flit.pkt);
            }
        }
        if pool.any_poisoned() {
            acted = true;
            for r in &mut self.routers {
                r.reap_poisoned(now, pool, stats, &mut self.channels);
            }
            for t in &mut self.terminals {
                t.reap_poisoned(pool);
            }
        }
        acted
    }

    /// Access to a terminal (injection queues).
    pub(crate) fn terminal_mut(&mut self, t: usize) -> &mut Terminal {
        &mut self.terminals[t]
    }

    /// Read access to a router (tests/invariants).
    pub fn router(&self, r: usize) -> &Router {
        &self.routers[r]
    }

    /// Read access to a channel by id (metrics/invariants).
    pub(crate) fn channel(&self, ch: usize) -> &Channel {
        &self.channels[ch]
    }

    /// Number of terminals.
    pub fn num_terminals(&self) -> usize {
        self.terminals.len()
    }

    /// Whether the whole network holds no flits, no queued packets, and no
    /// in-flight channel traffic — i.e. it has fully drained.
    pub fn is_drained(&self) -> bool {
        self.routers.iter().all(|r| r.is_idle())
            && self.terminals.iter().all(|t| t.queued() == 0)
            && self.channels.iter().all(|c| {
                // Credits may still be in flight after the last flit lands;
                // only flits count as undrained work.
                c.flits_in_flight().next().is_none()
            })
    }

    /// Whether every credit has also returned home (strict quiescence).
    pub fn is_quiescent(&self) -> bool {
        self.is_drained() && self.channels.iter().all(|c| c.is_idle())
    }

    /// Audits credit-based flow control on every router-to-router channel:
    /// the credits a sender has consumed for `(port, vc)` must exactly
    /// account for the flits it has in its crossbar/output queue, on the
    /// wire, buffered downstream, and the credits still in flight back —
    /// plus at most one in-progress packet's whole-packet reservation when
    /// the VC is claimed. Every router's derived allocation
    /// state (per-port occupancy counter, routed-prefix counts, packet
    /// buffer counters, per-VC flit counts, VC and output-active masks,
    /// head list) is checked against the credits, queues and `pool` slots
    /// it summarizes, dead ports included.
    /// Returns the list of violations (empty = sound).
    pub fn audit_flow_control(&self, pool: &PacketPool) -> Vec<String> {
        let mut errs = Vec::new();
        let cap = self.cfg.buf_flits;
        let max_pkt = self.cfg.max_packet_flits;
        for r in &self.routers {
            r.audit_derived_state(pool, &mut errs);
            for port in 0..self.topo.num_ports(r.id()) {
                let Some(ch) = r.out_ch(port) else { continue };
                if !r.port_live(port) || !self.channels[ch].is_alive() {
                    continue; // dead links settle their books at revival
                }
                let PortTarget::Router {
                    router: r2,
                    port: p2,
                } = self.topo.port_target(r.id(), port)
                else {
                    continue; // terminal links return credits instantly
                };
                for vc in 0..self.cfg.num_vcs {
                    let claimed = cap - r.credits(port, vc) as usize;
                    let chan = &self.channels[ch];
                    let in_chan = chan
                        .flits_in_flight()
                        .filter(|&(_, v)| v as usize == vc)
                        .count();
                    let creds_back = chan
                        .credits_in_flight()
                        .filter(|&v| v as usize == vc)
                        .count();
                    let observable = r.in_flight_to(port, vc)
                        + in_chan
                        + creds_back
                        + self.routers[r2].input_occupancy(p2, vc);
                    let slack = if r.vc_owner(port, vc).is_some() {
                        max_pkt
                    } else {
                        0
                    };
                    if claimed < observable || claimed > observable + slack {
                        errs.push(format!(
                            "router {} port {port} vc {vc}: claimed {claimed} observable {observable} slack {slack}",
                            r.id()
                        ));
                    }
                }
            }
        }
        errs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxcore::hyperx_algorithm;
    use hxtopo::HyperX;

    fn small_net() -> Network {
        let hx = Arc::new(HyperX::uniform(2, 2, 1));
        let algo: Arc<dyn RoutingAlgorithm> =
            hyperx_algorithm("DOR", hx.clone(), 8).expect("DOR").into();
        let cfg = SimConfig {
            buf_flits: 32,
            crossbar_latency: 5,
            router_chan_latency: 8,
            term_chan_latency: 2,
            ..SimConfig::default()
        };
        Network::new(hx, algo, cfg, 1)
    }

    /// The arrival-key table on a 3x3 HyperX with two terminals per
    /// router: keys in ascending order name the ends in exactly the order
    /// `Router::ingress`'s full scan visits them, every channel's two ends
    /// have keys of their own, and a terminal end wakes its consumer but
    /// yields no hint.
    #[test]
    fn arrival_keys_enumerate_ends_in_full_scan_order() {
        let hx = Arc::new(HyperX::uniform(2, 3, 2));
        let algo: Arc<dyn RoutingAlgorithm> =
            hyperx_algorithm("DOR", hx.clone(), 8).expect("DOR").into();
        let cfg = SimConfig {
            engine: Engine::Event,
            ..SimConfig::default()
        };
        let mut net = Network::new(hx, algo, cfg, 1);
        let nr = net.routers.len();
        let ev = net.event.as_deref_mut().expect("event engine");

        // The full scan, spelled out: per router, per port, the incoming
        // channel's flits and then the outgoing channel's credits.
        let mut scan = Vec::new();
        for r in &net.routers {
            for p in 0..r.in_chan.len() {
                scan.extend(r.in_ch(p).map(|ch| (r.id(), p, ch, true)));
                scan.extend(r.out_ch(p).map(|ch| (r.id(), p, ch, false)));
            }
        }
        let router_ends = scan.len();
        assert_eq!(ev.ends.len(), 2 * net.channels.len());
        assert_eq!(router_ends, ev.ends.len() - 2 * net.terminals.len());
        for (end, &(r, p, ch, is_flit)) in ev.ends.iter().zip(&scan) {
            let want = ArrivalEnd {
                chan_end: (ch as u32) << 1 | is_flit as u32,
                consumer: r as u32,
                step: (p << 1 | !is_flit as usize) as u16,
            };
            assert_eq!(*end, want);
        }
        assert!(ev.ends[router_ends..]
            .iter()
            .all(|e| e.consumer as usize >= nr));

        // Channel -> ends is the inverse of key -> end, two keys apiece.
        for (ch, c) in ev.chans.iter().enumerate() {
            let [(credit_consumer, credit_key), (flit_consumer, flit_key)] = c.ends;
            assert_ne!(credit_key, flit_key, "channel {ch}");
            assert_ne!(credit_consumer, flit_consumer, "channel {ch}");
            for (is_flit, (consumer, key)) in c.ends.into_iter().enumerate() {
                let end = ev.ends[key as usize];
                assert_eq!(end.chan_end, (ch as u32) << 1 | is_flit as u32);
                assert_eq!(end.consumer, consumer);
            }
        }

        // A flit ejected to terminal 0 and one injected by it mature
        // together: both consumers wake, only the router's end is hinted.
        let eject = net.terminals[0].in_chan;
        let inject = net.terminals[0].out_chan;
        assert_eq!(ev.chans[eject].latency, ev.chans[inject].latency);
        ev.on_send(7, eject, true);
        ev.on_send(7, inject, true);
        let at = 7 + ev.chans[eject].latency;
        let mut due = Vec::new();
        ev.queue.pop_due(at, &mut due);
        assert_eq!(due.len(), 2, "router and terminal both woken");
        let mut hints = Vec::new();
        ev.collect_arrivals(at, nr as u32, &due, &mut hints);
        // Key order: the router's end first, the terminal's after it.
        let (inject_key, eject_key) = (ev.chans[inject].ends[1].1, ev.chans[eject].ends[1].1);
        assert!(inject_key < eject_key);
        let inject_end = ev.ends[inject_key as usize];
        assert_eq!(hints, [(inject_end.consumer, inject_end.step)]);
        assert!(ev.queue.is_empty());
    }

    /// A forced flow-control violation renders as exactly one clean
    /// diagnostic line: no embedded newlines, no runs of spaces.
    #[test]
    fn audit_violation_renders_on_one_clean_line() {
        let mut net = small_net();
        assert!(
            net.audit_flow_control(&PacketPool::new()).is_empty(),
            "idle net must audit clean"
        );
        // Fake occupancy on a router-to-router port: the sender now thinks
        // 5 credits are consumed on VC 0 while nothing is observable.
        let port = (0..net.topo.num_ports(0))
            .find(|&p| matches!(net.topo.port_target(0, p), PortTarget::Router { .. }))
            .expect("router 0 has a network port");
        let mut occ = vec![0usize; net.cfg.num_vcs];
        occ[0] = 5;
        net.routers[0].reset_out_credits(port, &occ);
        let errs = net.audit_flow_control(&PacketPool::new());
        assert!(!errs.is_empty(), "forced violation must be reported");
        for e in &errs {
            assert!(!e.contains('\n'), "violation spans lines: {e:?}");
            assert!(!e.contains("  "), "violation has run of spaces: {e:?}");
            assert!(
                e.contains("claimed 5 observable 0 slack 0"),
                "unexpected: {e:?}"
            );
        }
    }
}
