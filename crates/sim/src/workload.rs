//! The workload abstraction: anything that injects packets and reacts to
//! deliveries.
//!
//! Steady-state synthetic traffic (hxtraffic) and the 27-point stencil
//! application model (hxapp) both implement [`Workload`]; the simulator
//! calls [`Workload::pre_cycle`] before every network cycle and
//! [`Workload::on_delivered`] for every packet whose tail reaches its
//! destination terminal.

/// A request to send one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketDesc {
    /// Source terminal.
    pub src: u32,
    /// Destination terminal.
    pub dst: u32,
    /// Length in flits (1 ..= `SimConfig::max_packet_flits`).
    pub len: u16,
    /// Opaque tag returned on delivery (message ids etc.).
    pub tag: u64,
}

/// Delivery notification.
#[derive(Clone, Copy, Debug)]
pub struct Delivered {
    /// Source terminal.
    pub src: u32,
    /// Destination terminal.
    pub dst: u32,
    /// Length in flits.
    pub len: u16,
    /// Tag from the originating [`PacketDesc`].
    pub tag: u64,
    /// Cycle the packet was created.
    pub birth: u64,
    /// Cycle the head flit left the source terminal's queue onto the wire
    /// (`birth..inject` is source-queue wait).
    pub inject: u64,
    /// Total latency (creation to tail ejection), in cycles.
    pub latency: u64,
    /// Network-only latency (head injection to tail ejection), in cycles.
    /// Invariant: `(inject - birth) + net_latency == latency`.
    pub net_latency: u64,
    /// Router-to-router hops taken.
    pub hops: u8,
    /// Transport sequence number (0 when retransmission is disabled).
    /// Retransmitted copies of one logical packet share a `seq`; the
    /// simulator suppresses duplicates before workloads see them.
    pub(crate) seq: u64,
}

/// A packet-injecting workload driven by the simulator.
pub trait Workload {
    /// Called once per cycle before the network advances; offer packets to
    /// `inject`, which returns `false` when the source terminal's queue is
    /// full (the workload may retry later or drop, as fits its semantics).
    fn pre_cycle(&mut self, now: u64, inject: &mut dyn FnMut(PacketDesc) -> bool);

    /// Called for every delivered packet after the network advances.
    fn on_delivered(&mut self, delivered: &Delivered, now: u64) {
        let _ = (delivered, now);
    }

    /// Whether the workload has finished (always false for steady-state
    /// traffic; the stencil model finishes after its last iteration).
    fn is_done(&self) -> bool {
        false
    }

    /// The earliest cycle `>= now` at which `pre_cycle` must run. The
    /// event engine skips dead cycles only up to this bound, so a workload
    /// that draws randomness or injects every cycle keeps the default
    /// (`now` — always active); a quiescent workload may return
    /// `u64::MAX` to let the engine fast-forward through drain phases.
    fn next_active_cycle(&self, now: u64) -> u64 {
        now
    }
}

/// A workload that injects nothing — used to drain a network in tests.
pub struct IdleWorkload;

impl Workload for IdleWorkload {
    fn pre_cycle(&mut self, _now: u64, _inject: &mut dyn FnMut(PacketDesc) -> bool) {}

    fn next_active_cycle(&self, _now: u64) -> u64 {
        u64::MAX
    }
}
