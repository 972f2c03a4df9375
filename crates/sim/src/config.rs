//! Simulator configuration.

/// Which inner-loop engine drives the simulation.
///
/// Both engines produce bit-identical results (the differential
/// equivalence suite in `tests/engine_equiv.rs` pins this); the choice is
/// purely a performance knob, so it is excluded from
/// [`CanonicalSimConfig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Tick every router and terminal every cycle. This is the reference
    /// the differential suite compares the event engine against
    /// (`tests/engine_equiv.rs`, the root `tests/event_core_golden.rs`,
    /// `hxperf`'s cycle-engine digest check). Measured by `hxperf`'s
    /// `sim.engine_ratio` (event wall ÷ cycle wall, 2-vCPU host, three
    /// reads each) it is level with or behind the event
    /// engine on the busy 256-terminal workloads (`fig6_ur` 0.65–0.93,
    /// `dcr_sat` 1.03–1.15) and loses where most endpoints idle
    /// (`ladder_8k`, 8,192 terminals at load 0.02: 0.48–0.57). It is
    /// still the faster of the two on large saturated networks: at 4,096
    /// terminals and load 0.7, `engine_ratio --full` has the event
    /// engine at 0.89–0.95× its speed (1.2× at load 0.3).
    Cycle,
    /// Event-driven: endpoints schedule wakes on a deterministic event
    /// queue, only due endpoints tick, and dead cycles are skipped.
    Event,
}

/// Timing and buffering parameters of the simulated network.
///
/// One simulator cycle equals one nanosecond at the paper's flit rate; the
/// defaults reproduce the Section 6 experimental setup: 8 VCs, 50 ns
/// router-to-router channels (10 m), 5 ns router-to-terminal channels
/// (1 m), 50 ns crossbar traversal, and per-VC input buffers sized so a
/// port's aggregate buffering covers more than the credit round trip
/// without becoming so deep that congestion back-pressure turns mushy.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Virtual channels per port.
    pub num_vcs: usize,
    /// Input buffer depth per VC, in flits. Must be at least
    /// `max_packet_flits` (virtual cut-through reserves whole packets).
    pub buf_flits: usize,
    /// Crossbar traversal latency in cycles.
    pub crossbar_latency: u64,
    /// Internal datapath speedup: flits each input port may forward into
    /// the crossbar per cycle. The paper's CIOQ router has "sufficient
    /// speedup to ensure the internal router datapath is not a
    /// bottleneck"; without it, buffered bursts drain at line rate and a
    /// packet's virtual-cut-through claim on its downstream VC stretches
    /// out, strangling algorithms whose resource classes own few VCs.
    pub crossbar_speedup: usize,
    /// Router-to-router channel latency in cycles (long cables, e.g. the
    /// 10 m HyperX links or Dragonfly globals).
    pub router_chan_latency: u64,
    /// Short router-to-router channel latency in cycles (e.g. intra-group
    /// Dragonfly locals, intra-pod fat-tree links).
    pub short_chan_latency: u64,
    /// Router-to-terminal channel latency in cycles.
    pub term_chan_latency: u64,
    /// Largest packet the network carries, in flits.
    pub max_packet_flits: usize,
    /// Per-terminal source-queue capacity in packets: above-saturation
    /// open-loop traffic parks excess packets here and further generation
    /// is refused until space frees (a finite-NIC-queue model that bounds
    /// memory; accepted-throughput measurement is unaffected).
    pub max_source_queue: usize,
    /// Atomic queue allocation (Section 4.2): a packet may claim a
    /// downstream VC only when that VC is *completely empty*. Models the
    /// escape-path requirement that makes DAL impractical; caps channel
    /// utilization at `PktSize x NumVcs / CreditRoundTrip`.
    pub atomic_queue_alloc: bool,
    /// Watchdog: abort the simulation with a diagnostic report when no
    /// flit moves anywhere for this many consecutive cycles while packets
    /// are live (a wedged network). Must comfortably exceed the longest
    /// channel latency; tests of deliberately wedged configurations lower
    /// it for speed.
    pub watchdog_stall_cycles: u64,
    /// Livelock guard: a packet that accumulates this many router-to-router
    /// hops is dropped (and counted) instead of being granted another hop.
    /// Legitimate paths are bounded by `dims + deroutes`, so the generous
    /// default only catches true routing livelock.
    pub max_packet_hops: u8,
    /// Source retransmission: cycles a packet may remain undelivered
    /// before its source terminal re-sends it. 0 (the default) disables
    /// the transport entirely. When enabled, attempt `k` waits
    /// `retransmit_timeout << k` cycles (capped by
    /// `retransmit_backoff_cap`) and the receiver side suppresses
    /// duplicate deliveries by (source, sequence) tracking.
    pub retransmit_timeout: u64,
    /// Source retransmission: retries allowed per packet before the
    /// transport abandons it (counted in `TransportStats::abandoned`).
    pub retransmit_max_retries: u32,
    /// Source retransmission: upper bound on the exponential backoff
    /// interval, in cycles. 0 means `8 x retransmit_timeout`.
    pub retransmit_backoff_cap: u64,
    /// Link-level retry (LLR): when true every channel carries a go-back-N
    /// retry sublayer (sequence numbers, a replay buffer of `llr_window`
    /// flits, cumulative acks / gap nacks on a reliable sideband modeled
    /// after the credit path). Transient losses — CRC-detected corruption
    /// from `error_ber`, flits in flight across a link flap — are replayed
    /// below the transport, so source retransmission only fires for hard
    /// faults. Adds one cycle of per-hop latency (CRC serialization);
    /// `false` (the default) is the byte-identical legacy path.
    pub llr_enabled: bool,
    /// Per-bit error rate applied to every flit crossing a channel
    /// (deterministic per seed). A 512-bit flit is corrupted with
    /// probability `~ 512 * error_ber`; corrupted flits fail CRC at the
    /// receiver and are recovered by LLR, which must be enabled when this
    /// is nonzero. 0.0 (the default) disables the error model.
    pub error_ber: f64,
    /// LLR replay-window depth in flits: unacked flits a sender may hold.
    /// A full window back-pressures the upstream egress (the flit stays
    /// queued, no loss). Must cover the channel round trip to avoid
    /// throttling clean links; the default comfortably covers the 50-cycle
    /// paper channels.
    pub llr_window: usize,
    /// Accepted and ignored: a simulation runs on one thread. Kept only
    /// because the benchmark package (`perf/`) still sets it; the next
    /// `[benchmark]` change deletes it together with `sim.tick2_ratio`.
    pub tick_threads: usize,
    /// Inner-loop engine. Defaults to [`Engine::Event`]; the `HX_ENGINE`
    /// environment variable (`cycle` or `event`) overrides the default.
    /// Results are bit-identical either way.
    pub engine: Engine,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            num_vcs: 8,
            buf_flits: 160,
            crossbar_latency: 50,
            crossbar_speedup: 4,
            router_chan_latency: 50,
            short_chan_latency: 10,
            term_chan_latency: 5,
            max_packet_flits: 16,
            max_source_queue: 256,
            atomic_queue_alloc: false,
            watchdog_stall_cycles: 10_000,
            max_packet_hops: 64,
            retransmit_timeout: 0,
            retransmit_max_retries: 16,
            retransmit_backoff_cap: 0,
            llr_enabled: false,
            error_ber: 0.0,
            llr_window: 128,
            tick_threads: 1,
            engine: default_engine(),
        }
    }
}

/// `HX_ENGINE` override for the default engine: `cycle` selects the
/// cycle engine, anything else (or unset) the event engine.
fn default_engine() -> Engine {
    match std::env::var("HX_ENGINE") {
        Ok(v) if v.trim().eq_ignore_ascii_case("cycle") => Engine::Cycle,
        _ => Engine::Event,
    }
}

/// The semantically meaningful subset of [`SimConfig`], serialized with a
/// fixed field order for content-addressed hashing (the `hx` result
/// store). Excludes `engine`, an execution knob (the two engines are
/// bit-identical to each other) rather than part of the experiment's
/// identity — hashing it would spuriously miss the cache — and the ignored
/// `tick_threads`.
#[derive(serde::Serialize, Clone, Copy, Debug, PartialEq)]
pub struct CanonicalSimConfig {
    pub num_vcs: usize,
    pub buf_flits: usize,
    pub crossbar_latency: u64,
    pub crossbar_speedup: usize,
    pub router_chan_latency: u64,
    pub short_chan_latency: u64,
    pub term_chan_latency: u64,
    pub max_packet_flits: usize,
    pub max_source_queue: usize,
    pub atomic_queue_alloc: bool,
    pub watchdog_stall_cycles: u64,
    pub max_packet_hops: u8,
    pub retransmit_timeout: u64,
    pub retransmit_max_retries: u32,
    pub retransmit_backoff_cap: u64,
    pub llr_enabled: bool,
    pub error_ber: f64,
    pub llr_window: usize,
}

impl SimConfig {
    /// The canonical (hashable) view of this configuration; see
    /// [`CanonicalSimConfig`].
    pub fn canonical(&self) -> CanonicalSimConfig {
        CanonicalSimConfig {
            num_vcs: self.num_vcs,
            buf_flits: self.buf_flits,
            crossbar_latency: self.crossbar_latency,
            crossbar_speedup: self.crossbar_speedup,
            router_chan_latency: self.router_chan_latency,
            short_chan_latency: self.short_chan_latency,
            term_chan_latency: self.term_chan_latency,
            max_packet_flits: self.max_packet_flits,
            max_source_queue: self.max_source_queue,
            atomic_queue_alloc: self.atomic_queue_alloc,
            watchdog_stall_cycles: self.watchdog_stall_cycles,
            max_packet_hops: self.max_packet_hops,
            retransmit_timeout: self.retransmit_timeout,
            retransmit_max_retries: self.retransmit_max_retries,
            retransmit_backoff_cap: self.retransmit_backoff_cap,
            llr_enabled: self.llr_enabled,
            error_ber: self.error_ber,
            llr_window: self.llr_window,
        }
    }

    /// Validates internal consistency (buffer must hold a whole packet).
    pub fn validate(&self) {
        assert!(self.num_vcs >= 1, "need at least one VC");
        assert!(
            self.buf_flits >= self.max_packet_flits,
            "virtual cut-through needs buf_flits ({}) >= max_packet_flits ({})",
            self.buf_flits,
            self.max_packet_flits
        );
        assert!(self.max_packet_flits >= 1);
        assert!(
            self.watchdog_stall_cycles > self.router_chan_latency,
            "watchdog window must exceed the longest channel latency"
        );
        assert!(self.max_packet_hops >= 1);
        if self.retransmit_timeout > 0 {
            assert!(
                self.retransmit_backoff_cap == 0
                    || self.retransmit_backoff_cap >= self.retransmit_timeout,
                "retransmit_backoff_cap ({}) must be 0 (auto) or >= retransmit_timeout ({})",
                self.retransmit_backoff_cap,
                self.retransmit_timeout
            );
        }
        assert!(
            (0.0..1.0).contains(&self.error_ber) && self.error_ber.is_finite(),
            "error_ber ({}) must be a finite rate in [0, 1)",
            self.error_ber
        );
        if self.error_ber > 0.0 {
            assert!(
                self.llr_enabled,
                "error_ber > 0 corrupts flits that only LLR can recover; enable llr_enabled"
            );
        }
        if self.llr_enabled {
            assert!(
                self.llr_window >= 1,
                "llr_window must hold at least one flit"
            );
        }
    }

    /// Whether the source-retransmission transport is enabled.
    pub fn retransmit_enabled(&self) -> bool {
        self.retransmit_timeout > 0
    }

    /// The effective backoff cap in cycles (resolves the 0 = auto default).
    pub fn effective_backoff_cap(&self) -> u64 {
        if self.retransmit_backoff_cap == 0 {
            self.retransmit_timeout.saturating_mul(8)
        } else {
            self.retransmit_backoff_cap
        }
    }

    /// Approximate credit round-trip latency in cycles for a
    /// router-to-router hop: channel there + crossbar + channel back, plus
    /// a couple of cycles of router pipelining. Used by the Section 4.2
    /// analytic model.
    pub fn credit_round_trip(&self) -> u64 {
        self.router_chan_latency + self.crossbar_latency + self.router_chan_latency + 2
    }

    /// The Section 4.2 throughput ceiling under atomic queue allocation:
    /// `PktSize x NumVcs / CreditRoundTrip`, clamped to 1.0.
    pub fn atomic_throughput_ceiling(&self, pkt_flits: f64) -> f64 {
        (pkt_flits * self.num_vcs as f64 / self.credit_round_trip() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.num_vcs, 8);
        assert_eq!(c.router_chan_latency, 50);
        assert_eq!(c.term_chan_latency, 5);
        assert_eq!(c.crossbar_latency, 50);
        assert_eq!(c.max_packet_flits, 16);
        c.validate();
    }

    #[test]
    fn atomic_ceiling_shape() {
        let c = SimConfig::default();
        // Single-flit packets: 8 VCs / ~152-cycle RTT ~= 5%, the same order
        // as the paper's 8% quote (their RTT differs slightly).
        let single = c.atomic_throughput_ceiling(1.0);
        assert!(single < 0.10, "{single}");
        // 16-flit packets do ~16x better but still under line rate.
        let big = c.atomic_throughput_ceiling(16.0);
        assert!(big > 0.5 && big <= 1.0, "{big}");
    }

    #[test]
    #[should_panic(expected = "enable llr_enabled")]
    fn ber_without_llr_is_rejected() {
        let c = SimConfig {
            error_ber: 1e-6,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    fn llr_knobs_validate_and_hash() {
        let c = SimConfig {
            llr_enabled: true,
            error_ber: 1e-5,
            ..SimConfig::default()
        };
        c.validate();
        let canon = c.canonical();
        assert!(canon.llr_enabled);
        assert_eq!(canon.error_ber, 1e-5);
        assert_ne!(canon, SimConfig::default().canonical());
    }

    #[test]
    #[should_panic(expected = "virtual cut-through")]
    fn rejects_buffer_smaller_than_packet() {
        let c = SimConfig {
            buf_flits: 8,
            max_packet_flits: 16,
            ..SimConfig::default()
        };
        c.validate();
    }
}
