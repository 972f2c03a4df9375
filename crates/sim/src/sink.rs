//! Deferred side effects of the network tick.
//!
//! Every channel has latency >= 1 (`Channel::new` asserts it), so nothing
//! an endpoint sends at cycle `t` is visible anywhere before `t + 1` —
//! router and terminal ticks within one cycle commute. `Network::tick`
//! runs a two-phase cycle over the cycle's *due* endpoints (sorted by id:
//! every endpoint under the cycle engine, the set popped from
//! `crate::event`'s queue under the event engine):
//!
//! 1. **Compute**: the due routers, then the due terminals, tick against
//!    an immutable pre-cycle view of the channels and the packet pool,
//!    writing every side effect — flit/credit sends, pool refcount deltas,
//!    stat counters, metric events, trace hops, deliveries — into a
//!    [`TickSink`] outbox (one for routers, one for terminals) instead of
//!    shared state.
//! 2. **Commit**: the router outbox, then the terminal outbox, replays
//!    against the shared state. The due set and the replay order derive
//!    from endpoint ids alone, so both engines commit identically.
//!
//! The free-list order of `PacketPool` is simulation-visible (future
//! `PacketId`s feed age-based arbitration tie-breaks), which is why pool
//! mutations ride the outbox as [`PoolOp`]s and replay in order.

use hxcore::Commit;

use crate::metrics::PhaseTimers;
use crate::packet::{Flit, PacketId};
use crate::stats::Stats;
use crate::trace::HopRecord;
use crate::workload::Delivered;

/// A deferred `PacketPool` / packet mutation, replayed at commit time in
/// endpoint-id order.
pub(crate) enum PoolOp {
    /// `PacketPool::note_flit_created` (buffer pins and wire flits).
    Created(PacketId),
    /// `PacketPool::note_flit_gone`.
    Gone(PacketId),
    /// `PacketPool::release` (terminal consumed the tail).
    Release(PacketId),
    /// A VC-allocation grant's packet-state update: routing commit plus
    /// the hop count when the grant crosses a router-to-router link.
    Commit {
        pkt: PacketId,
        commit: Commit,
        count_hop: bool,
    },
    /// Stamp `Packet::inject` (head flit left the source terminal queue).
    Inject { pkt: PacketId, cycle: u64 },
    /// Livelock hop-cap drop: poison the packet and record the drop.
    HopPoison(PacketId),
}

/// A deferred metrics callback (the only in-tick metric mutations).
pub(crate) enum MetricEvent {
    Grant {
        router: u32,
        out_port: u16,
        oldest: bool,
        ejection: bool,
        nonminimal: bool,
        commit_dim: Option<u8>,
    },
    Stall {
        router: u32,
        out_port: u16,
        credit_starved: bool,
    },
}

/// Outbox: everything the compute phase wants to do to shared state,
/// buffered for the commit phase.
#[derive(Default)]
pub(crate) struct TickSink {
    /// Record trace hop events (trace enabled this cycle).
    pub want_trace: bool,
    /// Record metric grant/stall events (metrics enabled this cycle).
    pub want_metrics: bool,
    /// Measure phase wall time (metrics timers enabled this cycle).
    pub timed: bool,
    /// Flit sends: (channel id, flit, vc).
    pub flits: Vec<(usize, Flit, u8)>,
    /// Credit sends: (channel id, vc).
    pub credits: Vec<(usize, u8)>,
    /// Deferred pool mutations, in program order.
    pub pool_ops: Vec<PoolOp>,
    /// Counter deltas (merged via `Stats::merge_delta`).
    pub stats: Stats,
    /// Deliveries, in terminal-tick order.
    pub delivered: Vec<Delivered>,
    /// Metric events, in grant/stall order.
    pub events: Vec<MetricEvent>,
    /// Trace hop records.
    pub hops: Vec<HopRecord>,
    /// Phase wall time attributed to this outbox's endpoints.
    pub timers: PhaseTimers,
}

impl TickSink {
    /// Empties the outbox (keeping capacity) and arms the observation
    /// flags for the coming cycle.
    pub fn reset(&mut self, want_trace: bool, want_metrics: bool, timed: bool) {
        self.want_trace = want_trace;
        self.want_metrics = want_metrics;
        self.timed = timed;
        self.flits.clear();
        self.credits.clear();
        self.pool_ops.clear();
        self.stats = Stats::default();
        self.delivered.clear();
        self.events.clear();
        self.hops.clear();
        self.timers = PhaseTimers::default();
    }
}
