//! The simulation driver: glues a [`Network`], a [`PacketPool`], and a
//! [`Workload`] together and advances time.

use std::sync::Arc;

use hxcore::{PacketRouteState, RoutingAlgorithm};
use hxtopo::Topology;

use crate::config::SimConfig;
use crate::fault::{FaultSchedule, RouterDiag, WatchdogReport};
use crate::metrics::{Metrics, MetricsConfig};
use crate::network::Network;
use crate::packet::{Packet, PacketPool};
use crate::stats::Stats;
use crate::trace::Trace;
use crate::transport::{Transport, TransportStats};
use crate::workload::{Delivered, PacketDesc, Workload};

/// A running simulation.
pub struct Sim {
    /// The simulated network.
    pub net: Network,
    /// In-flight packet metadata.
    pub pool: PacketPool,
    /// Windowed statistics.
    pub stats: Stats,
    /// Current cycle.
    pub now: u64,
    /// Packets refused because their source queue was full (post-
    /// saturation open-loop pressure).
    pub refused_packets: u64,
    /// Hop-level trace, populated when enabled via [`Sim::enable_tracing`].
    pub trace: Option<Trace>,
    /// Metrics collector, populated via [`Sim::enable_metrics`]. Boxed: the
    /// disabled (default) case costs one null check per cycle.
    metrics: Option<Box<Metrics>>,
    delivered_buf: Vec<Delivered>,
    /// Source-retransmission transport, present when
    /// `SimConfig::retransmit_enabled()` (see [`crate::transport`]).
    transport: Option<Box<Transport>>,
    /// Pending fault injections, if any.
    fault_schedule: Option<FaultSchedule>,
    /// Whether any fault has ever been applied (enables fallout sweeps
    /// and the debug-build credit audit).
    fault_mode: bool,
    /// The first cycle of the current stall: the cycle after the last
    /// one that moved a flit or had no packet live.
    stall_start: u64,
    /// Set when the watchdog aborts the run.
    watchdog: Option<WatchdogReport>,
}

impl Sim {
    /// Builds a simulation over `topo` routed by `algo`.
    pub fn new(
        topo: Arc<dyn Topology>,
        algo: Arc<dyn RoutingAlgorithm>,
        cfg: SimConfig,
        seed: u64,
    ) -> Self {
        let transport = cfg
            .retransmit_enabled()
            .then(|| Box::new(Transport::new(&cfg)));
        Sim {
            net: Network::new(topo, algo, cfg, seed),
            pool: PacketPool::new(),
            stats: Stats::new(),
            now: 0,
            refused_packets: 0,
            trace: None,
            metrics: None,
            delivered_buf: Vec::new(),
            transport,
            fault_schedule: None,
            fault_mode: false,
            stall_start: 0,
            watchdog: None,
        }
    }

    /// Attaches a fault schedule; its actions fire as the simulation
    /// reaches their cycles. Replaces any previous schedule. Transient
    /// (gray) faults — flaps, degrades — act on the LLR sublayer, so they
    /// require `SimConfig::llr_enabled`.
    pub fn set_fault_schedule(&mut self, mut schedule: FaultSchedule) {
        schedule.finalize();
        assert!(
            !schedule.has_transient() || self.net.cfg.llr_enabled,
            "transient faults (flaps/degrades) require llr_enabled"
        );
        self.fault_schedule = Some(schedule);
    }

    /// The watchdog's diagnostic report, if the run was aborted as wedged.
    pub fn watchdog_report(&self) -> Option<&WatchdogReport> {
        self.watchdog.as_ref()
    }

    /// Turns on hop-level tracing (records every VC-allocation grant; see
    /// [`Trace`]). Tracing grows memory with traffic — intended for short
    /// diagnostic runs and the Figure 5 semantics tests.
    pub fn enable_tracing(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::new());
        }
    }

    /// Turns on the metrics subsystem (see [`crate::metrics`]). Collection
    /// is pure observation: enabling it changes no simulation result.
    pub fn enable_metrics(&mut self, cfg: MetricsConfig) {
        if self.metrics.is_none() {
            self.metrics = Some(Box::new(Metrics::new(
                cfg,
                &*self.net.topo,
                self.net.cfg.num_vcs,
            )));
        }
    }

    /// The metrics collector, if enabled.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.metrics.as_deref()
    }

    /// Records a labeled event (e.g. a measurement-window boundary) into
    /// the metric stream, if metrics are enabled.
    pub fn mark_metrics_event(&mut self, label: &str) {
        if let Some(m) = self.metrics.as_deref_mut() {
            m.mark_event(self.now, label);
        }
    }

    /// Creates a packet and queues it at its source terminal. Returns
    /// false (refusing the packet) when the terminal's source queue is at
    /// `max_source_queue` capacity. With the retransmission transport
    /// enabled the packet is registered for delivery tracking and stamped
    /// with a fresh sequence number.
    pub fn inject(&mut self, desc: PacketDesc) -> bool {
        if self.source_queue_full(desc.src) {
            return false;
        }
        let now = self.now;
        let seq = self.transport.as_mut().map_or(0, |t| t.register(desc, now));
        self.inject_physical(desc, seq, now);
        true
    }

    /// Whether `src`'s injection queue is at capacity (counts a refusal).
    fn source_queue_full(&mut self, src: u32) -> bool {
        if self.net.terminal_mut(src as usize).queued() >= self.net.cfg.max_source_queue {
            self.refused_packets += 1;
            return true;
        }
        false
    }

    /// Allocates and enqueues one physical copy of a logical packet.
    /// `birth` is the logical packet's creation cycle, so a retransmitted
    /// copy's delivery latency spans the whole outage it recovered from.
    fn inject_physical(&mut self, desc: PacketDesc, seq: u64, birth: u64) {
        debug_assert!(desc.len >= 1 && desc.len as usize <= self.net.cfg.max_packet_flits);
        let dst_router = self.net.topo.router_of_terminal(desc.dst as usize) as u32;
        let id = self.pool.alloc(Packet {
            src: desc.src,
            dst: desc.dst,
            dst_router,
            len: desc.len,
            hops: 0,
            birth,
            inject: u64::MAX,
            route: PacketRouteState::default(),
            tag: desc.tag,
            seq,
        });
        self.stats.record_generation(desc.len);
        self.net.terminal_mut(desc.src as usize).enqueue(id);
        // The terminal has injection work this cycle (wake is a no-op
        // under the cycle engine).
        self.net.wake_terminal(desc.src as usize, self.now);
    }

    /// Endpoint wakes executed so far (0 under the cycle engine, which
    /// ticks everything every cycle instead of processing wake events).
    pub fn events_processed(&self) -> u64 {
        self.net.events_processed()
    }

    /// The retransmission transport's counters, if enabled.
    pub fn transport_stats(&self) -> Option<&TransportStats> {
        self.transport.as_ref().map(|t| &t.stats)
    }

    /// Advances one cycle under `workload`.
    pub fn step(&mut self, workload: &mut dyn Workload) {
        let now = self.now;
        let moves = self.stats.flit_moves;
        // Scheduled faults land at the start of their cycle. No action
        // needs a wake: kills and the fallout reap only remove work,
        // revivals only rebuild credits, and transient actions touch only
        // LLR sublayer state, which the LLR calendar covers (a flap-up
        // puts its channels on it for this cycle).
        if let Some(mut schedule) = self.fault_schedule.take() {
            while let Some(action) = schedule.pop_due(now) {
                self.fault_mode = true;
                self.net.apply_fault(
                    action,
                    now,
                    &mut self.pool,
                    &mut self.stats,
                    self.trace.as_mut(),
                );
            }
            self.fault_schedule = Some(schedule);
        }
        if self.pool.any_poisoned() {
            // Reap the kill's casualties before they are ticked.
            self.net.collect_fault_fallout(
                now,
                &mut self.pool,
                &mut self.stats,
                self.trace.as_mut(),
            );
        }

        // Retransmissions fire before the workload injects: recovery
        // traffic takes source-queue priority over new traffic. The
        // transport is detached while pumping so the inject closure can
        // borrow the rest of `self`.
        if let Some(mut t) = self.transport.take() {
            t.pump(now, &mut |desc, seq, birth| {
                if self.source_queue_full(desc.src) {
                    return false;
                }
                self.inject_physical(desc, seq, birth);
                true
            });
            self.transport = Some(t);
        }

        // The closure injects directly so the workload observes refusals
        // (source-queue backpressure) synchronously.
        workload.pre_cycle(now, &mut |d| self.inject(d));

        let mut delivered = std::mem::take(&mut self.delivered_buf);
        delivered.clear();
        self.net.tick(
            self.now,
            &mut self.pool,
            &mut self.stats,
            &mut delivered,
            self.trace.as_mut(),
            self.metrics.as_deref_mut(),
        );
        for d in &delivered {
            // Duplicate suppression: with the transport on, only the
            // first copy of each sequence reaches the workload.
            let first_copy = match self.transport.as_mut() {
                Some(t) => t.on_delivered(d, self.now),
                None => true,
            };
            if first_copy {
                workload.on_delivered(d, self.now);
            }
        }
        self.delivered_buf = delivered;

        if let Some(m) = self.metrics.as_deref_mut() {
            if m.sample_due(self.now) {
                m.sample(self.now, &self.net);
            }
        }

        if self.fault_mode {
            self.net.collect_fault_fallout(
                now,
                &mut self.pool,
                &mut self.stats,
                self.trace.as_mut(),
            );
            // With faults settled and nothing mid-drop, flow control must
            // balance exactly (debug builds only; the audit walks every
            // channel).
            #[cfg(debug_assertions)]
            if !self.pool.any_poisoned() {
                let errs = self.net.audit_flow_control(&self.pool);
                assert!(errs.is_empty(), "credit conservation violated: {errs:?}");
            }
        }

        self.check_watchdog(moves);
        self.now += 1;
    }

    /// Stall detection: abort when no flit has moved anywhere for
    /// `watchdog_stall_cycles` consecutive cycles while packets are live.
    /// `moves` is `stats.flit_moves` before this cycle; only
    /// `Network::tick` moves flits.
    fn check_watchdog(&mut self, moves: u64) {
        if self.pool.live() == 0 || self.stats.flit_moves != moves {
            self.stall_start = self.now + 1;
        } else if self.now + 1 - self.stall_start >= self.net.cfg.watchdog_stall_cycles
            && self.watchdog.is_none()
        {
            self.watchdog = Some(self.build_watchdog_report());
        }
    }

    /// Snapshots the wedged network for the abort diagnostic.
    fn build_watchdog_report(&self) -> WatchdogReport {
        let (mut oldest_tag, mut oldest_age) = (0, 0);
        for (_, p, ()) in self.pool.live_packets() {
            let age = self.now.saturating_sub(p.birth);
            if age >= oldest_age {
                oldest_age = age;
                oldest_tag = p.tag;
            }
        }
        let mut routers = Vec::new();
        for r in 0..self.net.topo.num_routers() {
            let router = self.net.router(r);
            let mut occupancy = Vec::new();
            let mut claimed = Vec::new();
            for port in 0..self.net.topo.num_ports(r) {
                for vc in 0..self.net.cfg.num_vcs {
                    let occ = router.input_occupancy(port, vc);
                    if occ > 0 {
                        occupancy.push((port as u16, vc as u8, occ));
                    }
                    if let Some(owner) = router.vc_owner(port, vc) {
                        claimed.push((port as u16, vc as u8, owner));
                    }
                }
            }
            if !occupancy.is_empty() || !claimed.is_empty() {
                routers.push(RouterDiag {
                    router: r,
                    buffered_flits: router.total_flits(),
                    occupancy,
                    claimed,
                });
            }
        }
        WatchdogReport {
            cycle: self.now,
            stall_cycles: self.now + 1 - self.stall_start,
            live_packets: self.pool.live(),
            oldest_tag,
            oldest_age,
            routers,
        }
    }

    /// Event engine: fast-forwards `self.now` over cycles that provably
    /// execute nothing — no due endpoint wake, no workload activity, no
    /// fault event, no retransmission deadline, no metrics sample boundary
    /// — never past `deadline`. A skipped cycle with packets live is a
    /// stalled one, so the watchdog's stall start stands, and the skip
    /// stops at the precise cycle a stall report would fire so the
    /// report's cycle matches the cycle engine's bit for bit. Returning
    /// credits maturing inside the span are applied as it is jumped
    /// ([`Network::settle_credits`]). Debug builds check that the skipped
    /// span is dead ([`Network::audit_dead_span`]).
    fn skip_dead_cycles(&mut self, workload: &dyn Workload, deadline: u64) {
        if self.pool.any_poisoned() {
            return; // fallout sweeps run per-cycle until poisons clear
        }
        let now = self.now;
        let mut target = deadline.min(workload.next_active_cycle(now));
        if let Some(s) = &self.fault_schedule {
            if let Some(c) = s.next_cycle() {
                target = target.min(c);
            }
        }
        if let Some(t) = &self.transport {
            target = target.min(t.next_due());
        }
        if let Some(t) = self.net.next_event_time() {
            target = target.min(t);
        }
        if let Some(m) = &self.metrics {
            target = target.min(m.next_sample_cycle(now));
        }
        if target <= now {
            return;
        }
        if self.pool.live() == 0 {
            // Dead cycles with nothing live end any stall.
            self.stall_start = target;
        } else {
            // With packets live every skipped cycle stalls; cap the skip
            // before the cycle the watchdog would fire on and let a real
            // step execute it, so the report matches the cycle engine's.
            target = target.min(self.stall_start + self.net.cfg.watchdog_stall_cycles - 1);
            if target <= now {
                return;
            }
        }
        #[cfg(debug_assertions)]
        self.net.audit_dead_span(now, target);
        // Credits wake nobody, so the span may hold credit maturities:
        // apply them, so the counters read between steps (and by the
        // fault actions at the start of the next step) are current.
        self.net.settle_credits(target - 1);
        self.now = target;
    }

    /// One `run`-loop iteration: skip dead cycles (event engine only),
    /// then execute one real cycle unless the skip consumed the remaining
    /// budget.
    fn advance(&mut self, workload: &mut dyn Workload, deadline: u64) {
        if self.net.engine_is_event() {
            self.skip_dead_cycles(workload, deadline);
            if self.now >= deadline {
                return;
            }
        }
        self.step(workload);
    }

    /// Advances `cycles` cycles, stopping early on a watchdog abort. Under
    /// the event engine, dead cycles within the budget are skipped rather
    /// than executed; the final cycle count and all results are identical.
    pub fn run(&mut self, workload: &mut dyn Workload, cycles: u64) {
        let deadline = self.now + cycles;
        while self.now < deadline {
            self.advance(workload, deadline);
            if self.watchdog.is_some() {
                break;
            }
        }
    }

    /// The `run_to_completion` termination condition.
    fn completed(&self, workload: &dyn Workload) -> bool {
        workload.is_done()
            && self.pool.live() == 0
            && self.net.is_drained()
            && self.transport.as_ref().is_none_or(|t| t.is_idle())
    }

    /// Runs until the workload reports done *and* the network drains, or
    /// `max_cycles` elapses. Returns the cycle at which everything
    /// completed, or `None` on timeout or watchdog abort (check
    /// [`Sim::watchdog_report`] to distinguish).
    pub fn run_to_completion(
        &mut self,
        workload: &mut dyn Workload,
        max_cycles: u64,
    ) -> Option<u64> {
        let deadline = self.now + max_cycles;
        while self.now < deadline {
            if self.completed(&*workload) {
                // Already complete at entry: take one plain step (the
                // cycle engine always steps before checking) instead of
                // skipping ahead, so the returned cycle matches it.
                self.step(workload);
            } else {
                self.advance(workload, deadline);
            }
            if self.watchdog.is_some() {
                return None;
            }
            if self.completed(&*workload) {
                return Some(self.now);
            }
        }
        None
    }
}
