//! Network assembly: instantiates routers, terminals, and channels from a
//! [`Topology`] + [`RoutingAlgorithm`] pair and advances them cycle by
//! cycle.

use std::sync::Arc;

use hxcore::RoutingAlgorithm;
use hxtopo::{ChannelKind, PortTarget, Topology};

use crate::channel::{Channel, WireSlab};
use crate::config::{Engine, SimConfig};
use crate::credit::{CreditSink, CreditWheel, MAX_CHANNELS};
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultAction;
use crate::metrics::{Metrics, PhaseTimers};
use crate::packet::{Flit, PacketId, PacketPool};
use crate::router::{poison_packet, ArrivalHint, Router, NO_WIRE};
use crate::slab::List;
use crate::stats::Stats;
use crate::terminal::Terminal;
use crate::trace::{DropReason, Trace};
use crate::workload::Delivered;
use crate::xbar::{XbarFifo, XbarRec};

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
    /// Every flit past a crossbar: each channel's flits, and each
    /// router's output queues, are lists through this one slab.
    wire: WireSlab,
    /// Every flit inside a crossbar, in the order they leave.
    xbar: XbarFifo,
    /// This cycle's due endpoint ids, ascending: routers (`0..nr`) then
    /// terminals (`nr..nr + nt`) — the order they tick in. The event
    /// engine refills it from its queue every cycle; the cycle engine
    /// fills it once, with every id.
    due: Vec<u32>,
    /// Event engine: this cycle's arrival hints, the matured router ports
    /// in key order (scratch, reused; empty under the cycle engine).
    hints: Vec<ArrivalHint>,
    /// This cycle's hop-capped packets, poisoned once every due endpoint
    /// has ticked (scratch, reused).
    hop_capped: Vec<PacketId>,
    /// Event-engine wake state (`None` when `cfg.engine == Engine::Cycle`).
    event: Option<Box<EventState>>,
    /// The LLR calendar, keyed by channel id (`Some` iff
    /// `cfg.llr_enabled`, under either engine): every channel whose retry
    /// sublayer has work pending is scheduled at or before the cycle that
    /// work falls due. Stale entries are no-op visits.
    llr_due: Option<EventQueue>,
    /// This cycle's due channel ids, ascending (scratch, reused).
    llr_chans: Vec<u32>,
    /// Flits lost on dead links, in the order lost, awaiting
    /// [`Self::drop_lost`]: those a kill took off the wire, and those this
    /// cycle's egress sent into dead channels.
    lost: Vec<Flit>,
    /// Every returning credit in flight, under either engine.
    credits: CreditWheel,
}

/// The shared state one cycle's due routers and terminals write, lent to
/// each in turn. An endpoint takes its matured arrivals off `channels`
/// (their flits live in `wire`) as it reads them and applies every effect
/// where it lands: flits into and out of the crossbar FIFO `xbar`, flit
/// sends on the wire, credits on the credit wheel,
/// refcounts, releases, route commits and inject stamps in `pool`,
/// counters in `stats`, deliveries in `delivered`, grants and stalls in
/// `metrics`, hops in `trace`. It defers two effects: the hop-cap poison
/// (`hop_capped`; see [`Network::tick`]) and the drop of a flit sent into
/// a dead channel (`lost`; see [`Network::collect_fault_fallout`]).
pub(crate) struct TickCtx<'a> {
    pub(crate) now: u64,
    pub(crate) channels: &'a mut [Channel],
    pub(crate) wire: &'a mut WireSlab,
    pub(crate) xbar: &'a mut XbarFifo,
    pub(crate) pool: &'a mut PacketPool,
    pub(crate) stats: &'a mut Stats,
    pub(crate) delivered: &'a mut Vec<Delivered>,
    pub(crate) trace: Option<&'a mut Trace>,
    pub(crate) metrics: Option<&'a mut Metrics>,
    /// Packets over the hop cap, in grant-evaluation order.
    pub(crate) hop_capped: &'a mut Vec<PacketId>,
    /// Flits sent into dead channels, in send order.
    pub(crate) lost: &'a mut Vec<Flit>,
    /// Whether `timers` measures (metrics on with timers).
    pub(crate) timed: bool,
    /// Phase wall time of this cycle, folded into `metrics` at its end.
    pub(crate) timers: PhaseTimers,
    /// Event engine: flit sends plant their arrival keys here, and
    /// crossbar pushes their router's self-wake.
    pub(crate) wakes: Option<&'a mut EventState>,
    /// LLR on: flit sends schedule their channel's serialization here.
    pub(crate) llr_due: Option<&'a mut EventQueue>,
    /// Credit sends go here.
    pub(crate) credits: &'a mut CreditWheel,
}

impl TickCtx<'_> {
    /// Puts `flit` on channel `ch`, bound for downstream VC `vc`. Under
    /// LLR the flit only enters the sender's replay buffer: the channel
    /// goes on the LLR calendar for next cycle, when `llr_tick` serializes
    /// the frame (and reports the delivery when it lands). Otherwise the
    /// event engine schedules the channel's arrival key for the cycle the
    /// flit matures. A flit sent into a dead channel goes on `lost`
    /// instead, and nothing is scheduled.
    #[inline]
    pub(crate) fn send_flit(&mut self, ch: usize, flit: Flit, vc: u8) {
        let chan = &mut self.channels[ch];
        if !chan.is_alive() {
            self.lost.push(flit);
            return;
        }
        chan.send_flit(self.wire, self.now, flit, vc);
        self.schedule_send(ch);
    }

    /// [`Self::send_flit`] of the front flit of `from` (an output queue):
    /// its node moves onto the wire ([`Channel::send_front`]), or is freed
    /// when the flit enters a replay buffer or goes on `lost`.
    #[inline]
    pub(crate) fn send_front(&mut self, ch: usize, from: &mut List) {
        let chan = &mut self.channels[ch];
        if !chan.is_alive() {
            let node = self.wire.pop_front(from).expect("a flit to send");
            self.lost.push(node.flit);
            return;
        }
        chan.send_front(self.wire, from, self.now);
        self.schedule_send(ch);
    }

    /// Schedules what a send on live channel `ch` this cycle sets off.
    #[inline]
    fn schedule_send(&mut self, ch: usize) {
        if let Some(llr_due) = self.llr_due.as_deref_mut() {
            llr_due.schedule(self.now + 1, ch as u32, EventKind::Llr);
        } else if let Some(ev) = self.wakes.as_deref_mut() {
            ev.arrival(self.now + self.channels[ch].latency(), ch);
        }
    }

    /// Puts `rec` into the crossbar at `now`. Its router's first push of
    /// the cycle wakes the router (event engine) for the cycle the flit
    /// leaves, as a channel send plants its arrival: every router with a
    /// record maturing at a cycle is due at it, which is what lets each
    /// drain find its records at the FIFO's front. With no crossbar
    /// latency the push drains in this very tick, so it plants nothing.
    #[inline]
    pub(crate) fn push_xbar(&mut self, rec: XbarRec) {
        let first = self.xbar.push(self.now, rec);
        let lat = self.xbar.latency();
        if first && lat > 0 {
            if let Some(ev) = self.wakes.as_deref_mut() {
                ev.wake(self.now + lat, rec.router as usize);
            }
        }
    }

    /// Returns one credit for `vc` to the sender of channel `ch`: it goes
    /// on the credit wheel, to be applied one channel latency from now
    /// before that cycle's first tick. It wakes nobody (see
    /// [`Router::next_wake`]), and no wake key names it.
    #[inline]
    pub(crate) fn send_credit(&mut self, ch: usize, vc: u8) {
        self.credits.send(self.now, ch, &self.channels[ch], vc);
    }
}

/// Wake-scheduling state for the event-driven engine: one calendar of
/// *wake keys*.
///
/// Endpoint `e` (the ids of `Network::due`: routers, then terminals) owns
/// the keys `first_key[e]..first_key[e + 1]`. Offset 0 is its self-wake;
/// offset `1 + p` is the arrival key of its input port `p`, set when a
/// flit on that port's incoming channel matures. Every router port has a
/// key, wired or not, so the offset is the port; a terminal has one input,
/// the channel from its router. Keys ascend with endpoint id, then port,
/// so a popped row read upwards lists the due endpoints ascending, each
/// followed by its matured ports ascending: one walk decodes it into the
/// due set and the arrival hints, both in the full ingress scan's order.
/// (A channel's returning credits ride the credit wheel and have no key.)
pub(crate) struct EventState {
    queue: EventQueue,
    /// Per endpoint: its self-wake key, the first of its keys; then the
    /// key count.
    first_key: Vec<u32>,
    /// Per key: the endpoint owning it.
    owner: Vec<u32>,
    /// Per channel: the arrival key of the port consuming its flits.
    chan_key: Vec<u32>,
    /// This cycle's popped keys (scratch, reused).
    keys: Vec<u32>,
    /// Lifetime endpoint wakes executed.
    events_processed: u64,
}

/// The most ports a router may have: the event engine names a port's
/// ingress step in a `u16`.
pub const MAX_PORTS: usize = 1 << 16;

impl EventState {
    pub(crate) fn new(routers: &[Router], terminals: &[Terminal], channels: usize) -> Self {
        let mut first_key = Vec::with_capacity(routers.len() + terminals.len() + 1);
        // Sized exactly: it lives as long as the network.
        let ports: usize = routers.iter().map(|r| r.in_chan.len()).sum();
        let mut owner = Vec::with_capacity(routers.len() + ports + 2 * terminals.len());
        let mut chan_key = vec![NO_WIRE; channels];
        // The next endpoint claims its self key, then one key per input
        // port in port order.
        let mut claim = |inputs: &[u32]| {
            let e = first_key.len() as u32;
            first_key.push(owner.len() as u32);
            owner.push(e);
            for &ch in inputs {
                if ch != NO_WIRE {
                    debug_assert_eq!(chan_key[ch as usize], NO_WIRE, "channel consumed twice");
                    chan_key[ch as usize] = owner.len() as u32;
                }
                owner.push(e);
            }
        };
        for r in routers {
            claim(&r.in_chan);
        }
        for t in terminals {
            claim(&[t.in_chan as u32]);
        }
        first_key.push(owner.len() as u32);
        debug_assert!(!chan_key.contains(&NO_WIRE), "a channel without a consumer");
        EventState {
            queue: EventQueue::new(owner.len()),
            first_key,
            owner,
            chan_key,
            keys: Vec::new(),
            events_processed: 0,
        }
    }

    /// Pops the keys due at `now` and decodes them in one walk: each
    /// owning endpoint once into `due`, each matured router port into
    /// `hints`, both ascending. Terminal arrival keys wake their terminal
    /// but yield no hint — a terminal reads its incoming channel whenever
    /// it ticks.
    fn pop_due(&mut self, now: u64, nr: u32, due: &mut Vec<u32>, hints: &mut Vec<ArrivalHint>) {
        self.queue.pop_due(now, &mut self.keys);
        due.clear();
        hints.clear();
        let mut first = 0;
        for &key in &self.keys {
            let e = self.owner[key as usize];
            if due.last() != Some(&e) {
                due.push(e);
                first = self.first_key[e as usize];
            }
            if e < nr && key > first {
                hints.push((e, (key - first - 1) as u16));
            }
        }
        self.events_processed += due.len() as u64;
    }

    /// Wakes endpoint `e` at cycle `t`.
    #[inline]
    fn wake(&mut self, t: u64, e: usize) {
        self.queue.schedule(t, self.first_key[e], EventKind::Wake);
    }

    /// A flit on channel `ch` matures at cycle `t`: wakes its consumer
    /// with the hint for the port it arrives on.
    #[inline]
    fn arrival(&mut self, t: u64, ch: usize) {
        self.queue
            .schedule(t, self.chan_key[ch], EventKind::FlitArrival);
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
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        let nr = topo.num_routers();
        let nt = topo.num_terminals();
        assert!(
            (0..nr).all(|r| topo.num_ports(r) <= MAX_PORTS),
            "a router has more than the {MAX_PORTS} ports an ingress step can name"
        );
        assert!(
            algo.num_classes() <= cfg.num_vcs,
            "{} needs {} resource classes but only {} VCs configured",
            algo.name(),
            algo.num_classes(),
            cfg.num_vcs
        );
        let mut routers: Vec<Router> = (0..nr)
            .map(|r| Router::new(r, topo.num_ports(r), &cfg, algo.num_classes(), seed))
            .collect();
        // A router port wires one directed channel, a terminal port two.
        let num_chans = (0..nr)
            .flat_map(|r| (0..topo.num_ports(r)).map(move |p| (r, p)))
            .map(|(r, p)| match topo.port_target(r, p) {
                PortTarget::Router { .. } => 1,
                PortTarget::Terminal(_) => 2,
                PortTarget::Unused => 0,
            })
            .sum();
        let mut channels: Vec<Channel> = Vec::with_capacity(num_chans);
        // Per channel, who its returning credits go to: its sender.
        let mut sinks: Vec<CreditSink> = Vec::with_capacity(num_chans);
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
                let router_sink = CreditSink {
                    endpoint: r as u32,
                    port: p as u32,
                };
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
                        sinks.push(router_sink);
                        routers[r].out_chan[p] = id as u32;
                        routers[r].live_ports[p] = true;
                        routers[router].in_chan[port] = id as u32;
                    }
                    PortTarget::Terminal(t) => {
                        let eject = channels.len();
                        channels.push(mk_chan(eject, latency));
                        sinks.push(router_sink);
                        let inject = channels.len();
                        channels.push(mk_chan(inject, latency));
                        sinks.push(CreditSink {
                            endpoint: (nr + t) as u32,
                            port: 0,
                        });
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

        debug_assert_eq!(channels.len(), num_chans);
        assert!(
            num_chans < MAX_CHANNELS,
            "{num_chans} channels: a credit names at most {MAX_CHANNELS}"
        );

        let terminals: Vec<Terminal> = term_wiring
            .into_iter()
            .enumerate()
            .map(|(t, w)| {
                let (out_chan, in_chan) = w.unwrap_or_else(|| panic!("terminal {t} unwired"));
                Terminal::new(t, &cfg, out_chan, in_chan, seed)
            })
            .collect();

        let event = (cfg.engine == Engine::Event)
            .then(|| Box::new(EventState::new(&routers, &terminals, channels.len())));
        let llr_due = cfg.llr_enabled.then(|| EventQueue::new(channels.len()));
        let max_latency = channels.iter().map(Channel::latency).max().unwrap_or(1);
        let credits = CreditWheel::new(max_latency, sinks);

        Network {
            topo,
            algo,
            cfg,
            routers,
            terminals,
            channels,
            wire: WireSlab::new(),
            xbar: XbarFifo::new(cfg.crossbar_latency),
            due: if event.is_some() {
                Vec::new()
            } else {
                (0..(nr + nt) as u32).collect()
            },
            hints: Vec::new(),
            hop_capped: Vec::new(),
            event,
            llr_due,
            llr_chans: Vec::new(),
            lost: Vec::new(),
            credits,
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
            ev.wake(now, nr + t);
        }
    }

    /// Event engine: earliest pending wake time, if any — of an endpoint
    /// or, with LLR enabled, of a channel on the LLR calendar. The
    /// calendar holds every channel with retry work (wire/ctrl maturities,
    /// pending transmissions) at or before that work's cycle, so a
    /// dead-cycle skip never jumps past a cycle where `llr_tick` would act.
    pub(crate) fn next_event_time(&self) -> Option<u64> {
        let queued = self.event.as_ref().and_then(|ev| ev.queue.next_time());
        let llr = self.llr_due.as_ref().and_then(EventQueue::next_time);
        queued.into_iter().chain(llr).min()
    }

    /// Applies every returning credit maturing at or before `through` to
    /// its sender's counter. [`Self::tick`] settles its own cycle first
    /// thing; the dead-cycle skip settles the span it jumps, so between
    /// steps the counters always hold every credit matured so far.
    pub(crate) fn settle_credits(&mut self, through: u64) {
        let (routers, terminals) = (&mut self.routers, &mut self.terminals);
        let nr = routers.len() as u32;
        self.credits.settle(through, |sink, vc| {
            if sink.endpoint < nr {
                routers[sink.endpoint as usize].absorb_credit(sink.port as usize, vc);
            } else {
                terminals[(sink.endpoint - nr) as usize].absorb_credit(vc);
            }
        });
    }

    /// Advances the network by one cycle. `metrics`, like `trace`, is pure
    /// observation and never perturbs simulation state.
    ///
    /// First the cycle's returning credits are applied from the credit
    /// wheel ([`Self::settle_credits`]), under either engine: a credit is
    /// read only by its consumer's own allocation or injection, inside
    /// that consumer's tick, so applying every matured credit before any
    /// tick is what absorbing it at the consumer's ingress did, and
    /// increments commute.
    ///
    /// One body serves both engines; they differ only in where the due
    /// set comes from. The event engine decodes it from the keys its
    /// calendar pops (with the arrival hints), the cycle engine's is every
    /// endpoint id, unhinted. Then, the same for both: the due routers,
    /// then the due terminals, tick in id order, each writing its effects
    /// straight into the shared state ([`TickCtx`]).
    ///
    /// Every channel has latency >= 1, so nothing sent at `now` is read
    /// by anyone before `now + 1`, and each channel has one flit sender:
    /// an endpoint's reads do not depend on which endpoints ticked before
    /// it. The one exception is the hop-cap poison — `is_poisoned` is read
    /// by every later router this cycle — so hop-capped packets are
    /// poisoned only after the last endpoint has ticked.
    ///
    /// Bit-identity across engines holds because a non-due endpoint is a
    /// no-op under the cycle engine that cycle (no matured flit arrivals,
    /// no buffered or queued work — and no randomness is drawn on those
    /// paths), a due router's arrival hints name every port with a matured
    /// flit, and due endpoints run the identical code in the identical id
    /// order. Debug builds check the first two every executed cycle of the
    /// event engine ([`Self::audit_calendar`]).
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
        self.settle_credits(now);

        // ---- LLR sublayer: runs first so frames landing this cycle are
        // on the wire when their consumer reads it, exactly like plain
        // arrivals. Only the channels the calendar holds due run it (on any
        // other, `llr_tick` would be a no-op), in channel-id order, so the
        // error-model RNG draws are engine independent. Each visited
        // channel goes back on the calendar for its next retry work.
        if let Some(llr_due) = &mut self.llr_due {
            llr_due.pop_due(now, &mut self.llr_chans);
            for &i in &self.llr_chans {
                let ch = &mut self.channels[i as usize];
                if ch.llr_tick(&mut self.wire, now, stats) {
                    if let Some(ev) = self.event.as_deref_mut() {
                        // The frame lands this very cycle: its arrival
                        // key joins the row about to be popped.
                        ev.arrival(now, i as usize);
                    }
                }
                if let Some(t) = ch.llr_next_activity(now + 1) {
                    llr_due.schedule(t, i, EventKind::Llr);
                }
            }
            #[cfg(debug_assertions)]
            self.audit_llr_calendar(now);
        }

        // ---- Due set: the only step that knows the engine's nature. The
        // cycle engine's `due` is every id, filled once at construction.
        if let Some(ev) = self.event.as_deref_mut() {
            ev.pop_due(now, nr as u32, &mut self.due, &mut self.hints);
            #[cfg(debug_assertions)]
            self.audit_calendar(now);
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
            wire: &mut self.wire,
            xbar: &mut self.xbar,
            pool,
            stats,
            delivered,
            trace,
            metrics,
            hop_capped: &mut self.hop_capped,
            lost: &mut self.lost,
            timed,
            timers: PhaseTimers::default(),
            wakes: self.event.as_deref_mut(),
            llr_due: self.llr_due.as_mut(),
            credits: &mut self.credits,
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
                    ev.wake(t, e as usize);
                }
            }
        }
    }

    /// Debug builds, right after the LLR pass: no channel has retry work
    /// due at `now` any more. A channel the pass visited consumed its due
    /// frames and serialized if it could, so this holds for it by
    /// construction; for a channel the calendar skipped it says the skip
    /// was sound — `llr_tick` would have been a no-op.
    #[cfg(debug_assertions)]
    fn audit_llr_calendar(&self, now: u64) {
        for (i, ch) in self.channels.iter().enumerate() {
            assert!(
                ch.llr_next_activity(now) != Some(now),
                "channel {i} has retry work due at cycle {now} but was not on the LLR calendar"
            );
        }
    }

    /// Debug builds, event engine, once per executed cycle between the due
    /// set and the first endpoint tick: the calendar left out nothing the
    /// cycle engine would have done this cycle. It walks every endpoint's
    /// incoming channels the way a full ingress scan does, reading state
    /// only.
    /// - (a) A router not in `due` holds no work ([`Router::idle_at`]) and
    ///   has no flit matured by `now` on its incoming channels.
    /// - (b) A terminal not in `due` is not active and has no matured
    ///   flit.
    /// - (c) A due router's hints name every port with a matured flit, in
    ///   ascending order. A hint with nothing behind it (a killed channel)
    ///   is allowed.
    /// - (d) Nothing on a wire matured before `now`: the cycle engine
    ///   consumes every arrival on its maturity cycle, so a late wake or an
    ///   over-long skip shows here.
    /// - (e) After this cycle's settle, no credit on the wheel matures at
    ///   or before `now`, and each sits in its own cycle's row.
    #[cfg(debug_assertions)]
    fn audit_calendar(&self, now: u64) {
        let (due, hints) = (&self.due[..], &self.hints[..]);
        assert!(
            hints.windows(2).all(|w| w[0] < w[1]),
            "calendar audit (c): hints at cycle {now} do not ascend"
        );
        if let Err(e) = self.credits.audit(now) {
            panic!("calendar audit (e): {e}");
        }
        // Cursors: `due` and `hints` ascend like the walk below.
        let (mut d, mut h) = (0, 0);
        let mut is_due = |e: u32| {
            while d < due.len() && due[d] < e {
                d += 1;
            }
            due.get(d) == Some(&e)
        };
        // Whether channel `ch` has a flit matured by `now`, which then
        // must have matured at `now` exactly.
        let matured = |ch: usize| {
            let at = self.channels[ch]
                .next_arrival(&self.wire, now)
                .filter(|&at| at <= now);
            assert!(
                at.is_none_or(|at| at == now),
                "calendar audit (d): channel {ch} holds a flit from cycle {} still unread at {now}",
                at.unwrap_or(now)
            );
            at.is_some()
        };
        for r in &self.routers {
            let id = r.id() as u32;
            let due_now = is_due(id);
            assert!(
                due_now || r.idle_at(now, &self.xbar),
                "calendar audit (a): router {id} holds work at cycle {now} but is not due"
            );
            for p in 0..r.in_chan.len() {
                if !r.in_ch(p).is_some_and(matured) {
                    continue;
                }
                assert!(
                    due_now,
                    "calendar audit (a): router {id} port {p} has an arrival at cycle \
                     {now} but is not due"
                );
                let hint = (id, p as u16);
                while h < hints.len() && hints[h] < hint {
                    h += 1;
                }
                assert!(
                    hints.get(h) == Some(&hint),
                    "calendar audit (c): router {id} has an arrival at cycle {now} \
                     but no hint {hint:?}"
                );
            }
        }
        let nr = self.routers.len();
        for t in &self.terminals {
            assert!(
                (!matured(t.in_chan) && !t.is_active()) || is_due((nr + t.id()) as u32),
                "calendar audit (b): terminal {} has work at cycle {now} but is not due",
                t.id()
            );
        }
    }

    /// Debug builds, event engine: cycles `now..target` are dead, as the
    /// dead-cycle skip about to jump them claims — no endpoint holds work
    /// due before `target`, and no channel has a flit arrival or retry
    /// work due before it. Credits maturing inside the span are not work:
    /// the skip settles them.
    #[cfg(debug_assertions)]
    pub(crate) fn audit_dead_span(&self, now: u64, target: u64) {
        let last = target - 1;
        for r in &self.routers {
            assert!(
                r.idle_at(last, &self.xbar),
                "skip audit: router {} holds work before cycle {target} (skip from {now})",
                r.id()
            );
        }
        for t in &self.terminals {
            assert!(
                !t.is_active(),
                "skip audit: terminal {} is active (skip from {now} to {target})",
                t.id()
            );
        }
        for (ch, c) in self.channels.iter().enumerate() {
            let retry = c.llr_next_activity(now);
            for at in [c.next_arrival(&self.wire, now), retry]
                .into_iter()
                .flatten()
            {
                assert!(
                    at >= target,
                    "skip audit: channel {ch} has work at cycle {at} (skip from {now} to {target})"
                );
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

    /// The two directed channels of the cable at `(router, port)`.
    fn cable(&self, router: usize, port: usize) -> [usize; 2] {
        let (r2, p2) = self.peer_of(router, port);
        [(router, port), (r2, p2)].map(|(r, p)| self.routers[r].out_ch(p).expect("wired"))
    }

    /// The router-to-router ports of `router` (terminal and unused ports
    /// excluded) — the set a whole-router fault touches.
    fn network_ports(&self, router: usize) -> Vec<usize> {
        (0..self.topo.num_ports(router))
            .filter(|&p| matches!(self.topo.port_target(router, p), PortTarget::Router { .. }))
            .collect()
    }

    /// Kills both directions of the cable at `(router, port)`: flits on
    /// either wire are dropped (their packets poisoned), credits returning
    /// over either are dropped from the credit wheel, packets committed
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
            self.credits.purge(ch);
            self.channels[ch].kill(&mut self.wire, &mut self.lost);
            self.drop_lost(now, pool, stats, trace.as_deref_mut());
            self.routers[r].poison_port_traffic(p, pool, stats, trace.as_deref_mut(), now);
        }
    }

    /// Revives both directions of the cable at `(router, port)`: purges
    /// stale egress remnants and rebuilds sender credits from the
    /// receivers' actual occupancy. Reviving a live link is a no-op. No
    /// lost flit is pending: once a fault has struck, every step ends with
    /// [`Self::collect_fault_fallout`].
    fn revive_link(
        &mut self,
        router: usize,
        port: usize,
        pool: &mut PacketPool,
        stats: &mut Stats,
    ) {
        if self.routers[router].live_ports[port] {
            return;
        }
        debug_assert!(self.lost.is_empty(), "revival with lost flits unswept");
        let (r2, p2) = self.peer_of(router, port);
        for &(r, p, pr, pp) in &[(router, port, r2, p2), (r2, p2, router, port)] {
            self.routers[r].purge_egress(p, (&mut self.wire, &mut self.xbar), pool, stats);
            let ch = self.routers[r].out_ch(p).expect("reviving an unwired port");
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
                self.revive_link(router, port, pool, stats);
            }
            FaultAction::KillRouter { router } => {
                for port in self.network_ports(router) {
                    self.kill_link(router, port, now, pool, stats, trace.as_deref_mut());
                }
            }
            FaultAction::ReviveRouter { router } => {
                for port in self.network_ports(router) {
                    self.revive_link(router, port, pool, stats);
                }
            }
            // Transient (gray) faults act on the LLR sublayer of both
            // directions of the cable and never drop flits or touch
            // liveness masks — in-flight frames replay from the sender's
            // buffer, and routing steers away via the health penalty
            // instead of a topology change.
            FaultAction::FlapDown { router, port } => {
                debug_assert!(self.cfg.llr_enabled, "flap faults require llr_enabled");
                for ch in self.cable(router, port) {
                    self.channels[ch].flap_down(now, stats);
                }
            }
            FaultAction::FlapUp { router, port } => {
                for ch in self.cable(router, port) {
                    self.channels[ch].flap_up();
                    // The sender replays from this very cycle on.
                    if let Some(llr_due) = &mut self.llr_due {
                        llr_due.schedule(now, ch as u32, EventKind::Llr);
                    }
                }
            }
            FaultAction::DegradeLink {
                router,
                port,
                extra_latency,
                half_bw,
            } => {
                debug_assert!(self.cfg.llr_enabled, "degrade faults require llr_enabled");
                for ch in self.cable(router, port) {
                    self.channels[ch].degrade(extra_latency, half_bw);
                }
            }
            FaultAction::RestoreLink { router, port } => {
                for ch in self.cable(router, port) {
                    self.channels[ch].restore();
                }
            }
        }
        stats.fault_events += 1;
    }

    /// Sweeps fault fallout: drops the flits sent into dead channels
    /// (poisoning the owning packets) and reaps every poisoned buffer from
    /// routers and terminals. Cheap when nothing is poisoned. It needs no
    /// wake: it only removes work, and the credits the reaper returns go
    /// on the credit wheel, which wakes nobody.
    ///
    /// The lost flits drop in send order, which is ascending channel id:
    /// only router egress sends on a channel that can die, one flit per
    /// port per cycle, and routers tick in id order and egress in port
    /// order.
    pub(crate) fn collect_fault_fallout(
        &mut self,
        now: u64,
        pool: &mut PacketPool,
        stats: &mut Stats,
        trace: Option<&mut Trace>,
    ) {
        self.drop_lost(now, pool, stats, trace);
        if pool.any_poisoned() {
            for r in &mut self.routers {
                r.reap_poisoned(now, pool, stats, &self.channels, &mut self.credits);
            }
            for t in &mut self.terminals {
                t.reap_poisoned(pool);
            }
        }
    }

    /// Drops every lost flit, in the order lost: poisons its packet
    /// (recording the drop once per packet) and counts the flit gone.
    fn drop_lost(
        &mut self,
        now: u64,
        pool: &mut PacketPool,
        stats: &mut Stats,
        mut trace: Option<&mut Trace>,
    ) {
        for flit in self.lost.drain(..) {
            let trace = trace.as_deref_mut();
            poison_packet(pool, stats, trace, flit.pkt, now, DropReason::LinkFailed);
            stats.dropped_flits += 1;
            pool.note_flit_gone(flit.pkt);
        }
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
                c.flits_in_flight(&self.wire).next().is_none()
            })
    }

    /// Whether every credit has also returned home and no lost flit awaits
    /// fault fallout (strict quiescence).
    pub fn is_quiescent(&self) -> bool {
        self.is_drained()
            && self.channels.iter().all(|c| c.is_idle())
            && self.credits.is_empty()
            && self.lost.is_empty()
    }

    /// Audits credit-based flow control on every link, both directions:
    /// - Router to router or terminal: the credits a sender has consumed
    ///   for `(port, vc)` must exactly account for the flits it has in its
    ///   crossbar/output queue, on the wire, buffered downstream (a
    ///   terminal buffers nothing), and the credits on their way back —
    ///   plus at most one in-progress packet's whole-packet reservation
    ///   when the VC is claimed.
    /// - Terminal to router: the credits a terminal has consumed for `vc`
    ///   are exactly the unsent flits of the packet it is injecting on
    ///   `vc`, the flits on the wire, the router's input occupancy and the
    ///   credits on their way back.
    ///
    /// Every router's derived allocation state (per-port occupancy
    /// counter, routed-prefix counts, packet buffer counters, per-VC flit
    /// counts, VC and output-active masks, head list) is checked against
    /// the credits, queues and `pool` slots it summarizes, dead ports
    /// included. Returns the list of violations (empty = sound).
    ///
    /// The wire slab ([`WireSlab::audit_wire`]) and the crossbar FIFO
    /// ([`XbarFifo::audit`], with each router's count of its records) are
    /// checked first, and a broken one is reported alone, since counting
    /// flits on the links would walk its broken lists or rely on its
    /// broken order.
    pub fn audit_flow_control(&self, pool: &PacketPool) -> Vec<String> {
        let mut errs = Vec::new();
        self.wire
            .audit_wire(&self.channels, &self.routers, &mut errs);
        let in_xbar = |r: usize| self.routers[r].in_xbar();
        if !errs.is_empty() || !self.xbar.audit(self.routers.len(), in_xbar, &mut errs) {
            return errs;
        }
        let cap = self.cfg.buf_flits;
        let max_pkt = self.cfg.max_packet_flits;
        let v = self.cfg.num_vcs;
        // Credits in flight per (channel, vc), from one walk of the wheel.
        let mut returning = vec![0usize; self.channels.len() * v];
        for (ch, vc) in self.credits.in_flight() {
            returning[ch * v + vc as usize] += 1;
        }
        // Flits on channel `ch` plus credits returning over it, for `vc`.
        let in_transit = |ch: usize, vc: usize| {
            let flits = self.channels[ch]
                .flits_in_flight(&self.wire)
                .filter(|&(_, f)| f as usize == vc)
                .count();
            flits + returning[ch * v + vc]
        };
        for r in &self.routers {
            r.audit_derived_state(pool, &mut errs);
            for port in 0..self.topo.num_ports(r.id()) {
                let Some(ch) = r.out_ch(port) else { continue };
                if !r.port_live(port) || !self.channels[ch].is_alive() {
                    continue; // dead links settle their books at revival
                }
                // The far end's input buffer; a terminal buffers nothing.
                let far = match self.topo.port_target(r.id(), port) {
                    PortTarget::Router { router, port } => Some((router, port)),
                    _ => None,
                };
                for vc in 0..v {
                    let claimed = cap - r.credits(port, vc) as usize;
                    let buffered =
                        far.map_or(0, |(r2, p2)| self.routers[r2].input_occupancy(p2, vc));
                    let observable = r.in_flight_to(port, vc, (&self.wire, &self.xbar))
                        + in_transit(ch, vc)
                        + buffered;
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
        for t in &self.terminals {
            let (r, port) = self.topo.terminal_attach(t.id());
            for vc in 0..v {
                let claimed = cap - t.credits(vc) as usize;
                let observable = t.unsent_on(vc, pool)
                    + in_transit(t.out_chan, vc)
                    + self.routers[r].input_occupancy(port, vc);
                if claimed != observable {
                    errs.push(format!(
                        "terminal {} vc {vc}: claimed {claimed} observable {observable}",
                        t.id()
                    ));
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

    impl EventState {
        /// Test support: the cycle of the earliest pending wake.
        pub(crate) fn next_time(&self) -> Option<u64> {
            self.queue.next_time()
        }
    }

    fn small_net() -> Network {
        let hx = Arc::new(HyperX::uniform(2, 2, 1));
        let algo: Arc<dyn RoutingAlgorithm> =
            hyperx_algorithm("DOR", hx.clone(), 8).expect("DOR").into();
        let cfg = SimConfig {
            buf_flits: 32,
            crossbar_latency: 5,
            router_chan_latency: 8,
            term_chan_latency: 2,
            engine: Engine::Event,
            ..SimConfig::default()
        };
        Network::new(hx, algo, cfg, 1)
    }

    /// The wake-key layout on a 3x3 HyperX with two terminals per router,
    /// and the decode of a popped row: every endpoint's keys are its self
    /// key then one per input port, in endpoint order; a router woken by
    /// itself and by two ports in one cycle is one due id with two
    /// ascending hints; a terminal's arrival wakes it with no hint.
    #[test]
    fn wake_keys_pin_the_layout_and_the_decode() {
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

        // Routers: self key, then port p at offset 1 + p.
        let mut next = 0;
        for r in &net.routers {
            let id = r.id();
            assert_eq!(ev.first_key[id], next, "router {id} self key");
            for p in 0..r.in_chan.len() {
                let ch = r.in_ch(p).expect("a uniform HyperX wires every port");
                assert_eq!(ev.chan_key[ch], next + 1 + p as u32, "router {id} port {p}");
            }
            next += 1 + r.in_chan.len() as u32;
        }
        // Terminals: self key, then the end of the channel from the router.
        for t in &net.terminals {
            let id = t.id();
            assert_eq!(ev.first_key[nr + id], next, "terminal {id} self key");
            assert_eq!(ev.chan_key[t.in_chan], next + 1, "terminal {id} end");
            next += 2;
        }
        assert_eq!(ev.first_key.last(), Some(&next));
        assert_eq!(ev.owner.len(), next as usize);
        for (e, keys) in ev.first_key.windows(2).enumerate() {
            let owners = &ev.owner[keys[0] as usize..keys[1] as usize];
            assert!(
                owners.iter().all(|&o| o as usize == e),
                "endpoint {e}'s keys"
            );
        }

        // Router 4 woken by itself and by ports 3 and 1 (planted in that
        // order), terminal 0 by its end, all at one cycle.
        let (r, at) = (4, 17);
        let in_ch = |p| net.routers[r].in_ch(p).expect("wired");
        ev.arrival(at, in_ch(3));
        ev.wake(at, r);
        ev.arrival(at, net.terminals[0].in_chan);
        ev.arrival(at, in_ch(1));
        let (mut due, mut hints) = (Vec::new(), Vec::new());
        ev.pop_due(at, nr as u32, &mut due, &mut hints);
        assert_eq!(due, [r as u32, nr as u32]);
        assert_eq!(hints, [(r as u32, 1), (r as u32, 3)]);
        assert_eq!(ev.events_processed, 2);
        assert!(ev.queue.is_empty());
    }

    /// The one flit the calendar-audit tests put on a wire.
    #[cfg(debug_assertions)]
    const FLIT: Flit = Flit {
        pkt: 0,
        idx: 0,
        len: 1,
    };

    /// `small_net` with the outgoing channel of router 0's first network
    /// port, whose flits another router consumes.
    #[cfg(debug_assertions)]
    fn net_and_router_link() -> (Network, usize) {
        let net = small_net();
        let port = (0..net.topo.num_ports(0))
            .find(|&p| matches!(net.topo.port_target(0, p), PortTarget::Router { .. }))
            .expect("router 0 has a network port");
        let ch = net.routers[0].out_ch(port).expect("wired");
        (net, ch)
    }

    /// Ticks `net` once at `now` with fresh shared state.
    #[cfg(debug_assertions)]
    fn tick_at(net: &mut Network, now: u64) {
        let (mut pool, mut stats) = (PacketPool::new(), Stats::default());
        net.tick(now, &mut pool, &mut stats, &mut Vec::new(), None, None);
    }

    /// The channel array is sized from a count taken before wiring, so
    /// it holds no doubled-capacity tail: 64 routers with 9 router ports
    /// and 4 terminal ports each wire 64 * (9 + 2 * 4) = 1,088 channels.
    #[test]
    fn channel_array_is_allocated_exactly() {
        let hx = Arc::new(HyperX::uniform(3, 4, 4));
        let algo: Arc<dyn RoutingAlgorithm> =
            hyperx_algorithm("DOR", hx.clone(), 8).expect("DOR").into();
        let net = Network::new(hx, algo, SimConfig::default(), 1);
        assert_eq!(net.channels.len(), 1_088);
        assert_eq!(net.channels.capacity(), net.channels.len());
    }

    /// A flit put on the wire behind the calendar's back (no arrival
    /// wake): the audit stops the tick at the cycle it matures.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not due")]
    fn calendar_audit_catches_an_arrival_without_a_wake() {
        let (mut net, ch) = net_and_router_link();
        net.channels[ch].send_flit(&mut net.wire, 0, FLIT, 0);
        let at = net.channels[ch].latency();
        tick_at(&mut net, at);
    }

    /// The consumer router is due through its self key, but the flit's
    /// arrival key is never set: the audit catches the router ticking
    /// blind to the port.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "but no hint")]
    fn calendar_audit_catches_a_missing_hint() {
        let (mut net, ch) = net_and_router_link();
        net.channels[ch].send_flit(&mut net.wire, 0, FLIT, 0);
        let at = net.channels[ch].latency();
        let ev = net.event.as_deref_mut().expect("event engine");
        let consumer = ev.owner[ev.chan_key[ch] as usize] as usize;
        ev.wake(at, consumer);
        tick_at(&mut net, at);
    }

    /// The flow-control audit checks the wire slab first: flits on two
    /// channels are sound, but once one link in the slab points at the
    /// other channel's flit, the audit reports the slab's breakage alone.
    #[test]
    fn flow_control_audit_reports_a_corrupted_wire_link() {
        let mut net = small_net();
        let a = net.routers[0].out_ch(0).expect("wired");
        let b = net.routers[1].out_ch(0).expect("wired");
        assert!(a < b, "the audit walks channels in id order");
        let flit = |idx| Flit {
            pkt: 0,
            idx,
            len: 2,
        };
        net.channels[a].send_flit(&mut net.wire, 0, flit(0), 0);
        net.channels[b].send_flit(&mut net.wire, 0, flit(1), 0);
        // Unconsumed credits make the link counts disagree, but the slab
        // itself is sound.
        let errs = net.audit_flow_control(&PacketPool::new());
        assert!(!errs.iter().any(|e| e.starts_with("wire slab")), "{errs:?}");
        net.wire.relink(0, 1);
        let errs = net.audit_flow_control(&PacketPool::new());
        assert_eq!(
            errs,
            [
                format!("wire slab: channel {a}'s last is node 0 but its list ends at node 1"),
                format!("wire slab: node 1 on channel {b}'s list is already on channel {a}'s list"),
            ]
        );
    }

    /// The flow-control audit checks the crossbar FIFO next: a record no
    /// router counts is reported alone, before any link's books.
    #[test]
    fn flow_control_audit_reports_an_uncounted_crossbar_record() {
        let mut net = small_net();
        let rec = XbarRec {
            flit: Flit {
                pkt: 0,
                idx: 0,
                len: 1,
            },
            router: 2,
            vc: 0,
            port: 0,
        };
        net.xbar.push(0, rec);
        assert_eq!(
            net.audit_flow_control(&PacketPool::new()),
            ["crossbar FIFO: router 2 has 1 records but counts 0"]
        );
    }

    /// Router egress sends into dead links: four output queues, on both
    /// directions of router 0's two network links, hold one single-flit
    /// packet each when both links die. The next tick's egress loses the
    /// four flits, planting no arrival, and the end-of-step fallout drops
    /// them in ascending channel order — the order a walk over the dead
    /// channels would take — whatever order the packets were made in.
    /// Then nothing is left anywhere.
    #[test]
    fn flits_sent_into_dead_links_drop_in_channel_order() {
        let mut net = small_net();
        let (mut pool, mut stats, mut trace) = (PacketPool::new(), Stats::default(), Trace::new());
        // (router, port) of each sender, ascending by channel id.
        let mut senders = Vec::new();
        for p in net.network_ports(0) {
            let (r2, p2) = net.peer_of(0, p);
            senders.extend([(0, p), (r2, p2)]);
        }
        let chan = |net: &Network, (r, p): (usize, usize)| net.routers[r].out_ch(p).unwrap();
        senders.sort_by_key(|&s| chan(&net, s));
        assert_eq!(senders.len(), 4);
        // Packets made newest channel first, tagged with their channel.
        for &(r, p) in senders.iter().rev() {
            let pkt = pool.alloc(crate::packet::Packet {
                src: 0,
                dst: 1,
                dst_router: 1,
                len: 1,
                hops: 0,
                birth: 0,
                inject: 0,
                route: Default::default(),
                tag: chan(&net, (r, p)) as u64,
                seq: 0,
            });
            pool.note_flit_created(pkt);
            net.routers[r].queue_egress(
                &mut net.wire,
                p,
                Flit {
                    pkt,
                    idx: 0,
                    len: 1,
                },
                0,
            );
        }
        let now = 3;
        for p in net.network_ports(0) {
            let kill = FaultAction::KillLink { router: 0, port: p };
            net.apply_fault(kill, now, &mut pool, &mut stats, Some(&mut trace));
        }
        assert_eq!((stats.dropped_flits, stats.dropped_packets), (0, 0));
        for &(r, _) in &senders {
            net.event.as_deref_mut().unwrap().wake(now, r);
        }
        let mut delivered = Vec::new();
        net.tick(
            now,
            &mut pool,
            &mut stats,
            &mut delivered,
            Some(&mut trace),
            None,
        );
        assert_eq!(net.lost.len(), 4);
        assert!(!net.is_quiescent(), "lost flits await the fallout");
        assert_eq!(net.next_event_time(), None, "a lost flit plants no arrival");
        net.collect_fault_fallout(now, &mut pool, &mut stats, Some(&mut trace));
        assert_eq!((stats.dropped_flits, stats.dropped_packets), (4, 4));
        let drops: Vec<_> = trace
            .drops()
            .iter()
            .map(|d| (d.tag, d.cycle, d.reason))
            .collect();
        let want: Vec<_> = senders
            .iter()
            .map(|&s| (chan(&net, s) as u64, now, DropReason::LinkFailed))
            .collect();
        assert_eq!(drops, want);
        assert_eq!(pool.live(), 0);
        assert!(net.is_quiescent());
    }

    /// The spec loader reports an inconsistent config as an error; a
    /// direct caller still gets the same message as a panic.
    #[test]
    #[should_panic(expected = "virtual cut-through")]
    fn new_panics_on_an_inconsistent_config() {
        let hx = Arc::new(HyperX::uniform(2, 2, 1));
        let algo: Arc<dyn RoutingAlgorithm> =
            hyperx_algorithm("DOR", hx.clone(), 8).expect("DOR").into();
        let cfg = SimConfig {
            buf_flits: 4,
            ..SimConfig::default()
        };
        Network::new(hx, algo, cfg, 1);
    }

    /// One port more than a `u16` ingress step can name.
    #[test]
    #[should_panic(expected = "ingress step")]
    fn new_panics_on_more_ports_than_a_step_names() {
        let hx = Arc::new(HyperX::uniform(1, 2, MAX_PORTS));
        let algo: Arc<dyn RoutingAlgorithm> =
            hyperx_algorithm("DOR", hx.clone(), 8).expect("DOR").into();
        Network::new(hx, algo, SimConfig::default(), 1);
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
