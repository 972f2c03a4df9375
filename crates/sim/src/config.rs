//! Simulator configuration.

use hxcore::MAX_VCS;

use crate::channel::MAX_LATENCY;

/// Which inner-loop engine drives the simulation.
///
/// Both engines produce bit-identical results; the choice is purely a
/// performance knob, so it is left out of the config's serialized form
/// (the content digest a sweep point is cached under). Debug
/// builds audit the event engine's calendar every executed cycle
/// (`Network::audit_calendar`); the engines are still compared by
/// `crates/sim/tests/engine_equiv.rs`'s horizon cells,
/// `crates/sim/tests/alloc_regression.rs` and CI's three release-mode
/// sweep `cmp`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Tick every router and terminal every cycle. Measured by `hxperf`'s
    /// `sim.engine_ratio` (event wall ÷ cycle wall) and `engine_ratio`;
    /// README § Engines has the latest reads and the host they ran on.
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
///
/// Its `Serialize` form, in field order, is the config a sweep point's
/// content digest and a spec's canonical JSON carry; the two execution
/// knobs, `tick_threads` and `engine`, are skipped.
#[derive(serde::Serialize, Clone, Copy, Debug)]
pub struct SimConfig {
    /// Virtual channels per port, 1 to [`MAX_VCS`].
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
    /// are live (a wedged network). Must exceed `crossbar_latency` plus the
    /// longest channel latency; tests of deliberately wedged
    /// configurations lower it for speed.
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
    #[serde(skip)]
    pub tick_threads: usize,
    /// Inner-loop engine. Defaults to [`Engine::Event`]; the `HX_ENGINE`
    /// environment variable (`cycle` or `event`, nothing else) overrides
    /// the default. Results are bit-identical either way.
    #[serde(skip)]
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

/// The default engine, as `HX_ENGINE` selects it ([`parse_engine`]).
/// Panics on a value it refuses: a misspelt engine must not quietly run
/// the other one.
fn default_engine() -> Engine {
    let v = std::env::var_os("HX_ENGINE");
    parse_engine(v.as_ref().map(|v| v.to_string_lossy()).as_deref())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Reads an `HX_ENGINE` value: unset is the event engine, `cycle` and
/// `event` (any case, surrounding blanks ignored) name theirs, and
/// anything else is an error naming the variable and both values.
fn parse_engine(value: Option<&str>) -> Result<Engine, String> {
    let Some(v) = value else {
        return Ok(Engine::Event);
    };
    match v.trim().to_ascii_lowercase().as_str() {
        "cycle" => Ok(Engine::Cycle),
        "event" => Ok(Engine::Event),
        _ => Err(format!("HX_ENGINE={v:?}: expected `cycle` or `event`")),
    }
}

impl SimConfig {
    /// Checks internal consistency (a buffer must hold a whole packet, a
    /// bit-error rate needs link-level retry, ...). `Network::new` panics
    /// with the message; a sweep spec reports it at load time.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_vcs < 1 {
            return Err("need at least one VC".into());
        }
        if self.num_vcs > MAX_VCS {
            return Err(format!(
                "num_vcs ({}) exceeds the {MAX_VCS} VCs a router's occupancy mask holds",
                self.num_vcs
            ));
        }
        let channels = [
            ("router_chan_latency", self.router_chan_latency),
            ("short_chan_latency", self.short_chan_latency),
            ("term_chan_latency", self.term_chan_latency),
        ];
        if let Some((name, lat)) = channels.iter().find(|&&(_, l)| l >= MAX_LATENCY) {
            return Err(format!(
                "{name} ({lat}) must be below 2^31: a flit on a channel keeps the low 32 bits \
                 of its maturity"
            ));
        }
        if self.buf_flits < self.max_packet_flits {
            return Err(format!(
                "virtual cut-through needs buf_flits ({}) >= max_packet_flits ({})",
                self.buf_flits, self.max_packet_flits
            ));
        }
        if self.max_packet_flits < 1 {
            return Err("max_packet_flits must be at least 1".into());
        }
        let longest = channels.iter().map(|&(_, l)| l).max().unwrap_or(0);
        if self
            .crossbar_latency
            .checked_add(longest)
            .is_none_or(|l| self.watchdog_stall_cycles <= l)
        {
            return Err(format!(
                "watchdog_stall_cycles ({}) must exceed crossbar_latency ({}) plus the longest \
                 channel latency ({longest}): a lone flit makes no counted move from its switch \
                 traversal to its next ingress",
                self.watchdog_stall_cycles, self.crossbar_latency
            ));
        }
        if self.max_packet_hops < 1 {
            return Err("max_packet_hops must be at least 1".into());
        }
        if self.retransmit_timeout > 0
            && self.retransmit_backoff_cap != 0
            && self.retransmit_backoff_cap < self.retransmit_timeout
        {
            return Err(format!(
                "retransmit_backoff_cap ({}) must be 0 (auto) or >= retransmit_timeout ({})",
                self.retransmit_backoff_cap, self.retransmit_timeout
            ));
        }
        if !(0.0..1.0).contains(&self.error_ber) {
            return Err(format!(
                "error_ber ({}) must be a finite rate in [0, 1)",
                self.error_ber
            ));
        }
        if self.error_ber > 0.0 && !self.llr_enabled {
            return Err(
                "error_ber > 0 corrupts flits that only LLR can recover; enable llr_enabled".into(),
            );
        }
        if self.llr_enabled && self.llr_window < 1 {
            return Err("llr_window must hold at least one flit".into());
        }
        Ok(())
    }

    /// Whether the source-retransmission transport is enabled.
    pub(crate) fn retransmit_enabled(&self) -> bool {
        self.retransmit_timeout > 0
    }

    /// The effective backoff cap in cycles (resolves the 0 = auto default).
    pub(crate) fn effective_backoff_cap(&self) -> u64 {
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
    pub(crate) fn credit_round_trip(&self) -> u64 {
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
        c.validate().unwrap();
    }

    /// `HX_ENGINE` takes `cycle` or `event` in any case, or nothing; a
    /// typo is an error naming the variable and both accepted values.
    #[test]
    fn hx_engine_accepts_two_names_and_refuses_the_rest() {
        assert_eq!(parse_engine(None), Ok(Engine::Event));
        for v in ["cycle", "CYCLE", " Cycle\n"] {
            assert_eq!(parse_engine(Some(v)), Ok(Engine::Cycle), "{v:?}");
        }
        for v in ["event", "Event"] {
            assert_eq!(parse_engine(Some(v)), Ok(Engine::Event), "{v:?}");
        }
        for v in ["cylce", "", "cycle-engine", "1"] {
            let e = parse_engine(Some(v)).expect_err(v);
            assert!(
                e.contains("HX_ENGINE") && e.contains("`cycle`") && e.contains("`event`"),
                "{e}"
            );
        }
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
    fn ber_without_llr_is_rejected() {
        let c = SimConfig {
            error_ber: 1e-6,
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("enable llr_enabled"));
    }

    #[test]
    fn llr_knobs_validate_and_hash() {
        let c = SimConfig {
            llr_enabled: true,
            error_ber: 1e-5,
            ..SimConfig::default()
        };
        c.validate().unwrap();
        let json = |c: &SimConfig| {
            let mut s = String::new();
            serde::Serialize::to_json(c, &mut s);
            s
        };
        let canon = json(&c);
        assert!(
            canon.contains("\"llr_enabled\":true,\"error_ber\":1e-5,"),
            "{canon}"
        );
        assert_ne!(canon, json(&SimConfig::default()));
        // The execution knobs stay out of the hashed form.
        let knobs = SimConfig {
            tick_threads: 4,
            engine: match c.engine {
                Engine::Cycle => Engine::Event,
                Engine::Event => Engine::Cycle,
            },
            ..c
        };
        assert_eq!(json(&knobs), canon);
        assert!(canon.ends_with("\"llr_window\":128}"), "{canon}");
    }

    #[test]
    fn vc_count_is_bounded_by_the_mask_width() {
        let mut c = SimConfig {
            num_vcs: MAX_VCS,
            ..SimConfig::default()
        };
        c.validate().unwrap();
        c.num_vcs += 1;
        assert!(c.validate().unwrap_err().contains("num_vcs (65) exceeds"));
    }

    #[test]
    fn latencies_are_bounded_by_the_maturity_wrap() {
        let ok = SimConfig {
            crossbar_latency: MAX_LATENCY - 1,
            term_chan_latency: MAX_LATENCY - 1,
            watchdog_stall_cycles: 2 * MAX_LATENCY,
            ..SimConfig::default()
        };
        ok.validate().unwrap();
        let d = || SimConfig {
            watchdog_stall_cycles: 4 * MAX_LATENCY,
            ..SimConfig::default()
        };
        let bad = [
            (
                "router_chan_latency",
                SimConfig {
                    router_chan_latency: MAX_LATENCY,
                    ..d()
                },
            ),
            (
                "short_chan_latency",
                SimConfig {
                    short_chan_latency: MAX_LATENCY,
                    ..d()
                },
            ),
            (
                "term_chan_latency",
                SimConfig {
                    term_chan_latency: MAX_LATENCY,
                    ..d()
                },
            ),
        ];
        for (name, c) in bad {
            let err = c.validate().unwrap_err();
            assert!(
                err.starts_with(&format!(
                    "{name} (2147483648) must be below 2^31: a flit on a channel"
                )),
                "{err}"
            );
        }
    }

    /// Crossbar maturities are whole `u64` cycles, so the crossbar's
    /// latency is bounded only by the watchdog, which must outlast a lone
    /// flit's crossbar and channel.
    #[test]
    fn the_watchdog_outlasts_a_crossbar_and_a_channel() {
        let c = SimConfig {
            crossbar_latency: 5_000,
            watchdog_stall_cycles: 1_000,
            ..SimConfig::default()
        };
        let err = c.validate().unwrap_err();
        assert!(
            err.starts_with(
                "watchdog_stall_cycles (1000) must exceed crossbar_latency (5000) plus the \
                 longest channel latency (50)"
            ),
            "{err}"
        );
        let edge = |watchdog_stall_cycles| SimConfig {
            crossbar_latency: MAX_LATENCY,
            short_chan_latency: 70,
            watchdog_stall_cycles,
            ..SimConfig::default()
        };
        assert!(edge(MAX_LATENCY + 70).validate().is_err());
        edge(MAX_LATENCY + 71).validate().unwrap();
        let huge = SimConfig {
            crossbar_latency: u64::MAX,
            watchdog_stall_cycles: u64::MAX,
            ..SimConfig::default()
        };
        assert!(huge
            .validate()
            .unwrap_err()
            .starts_with("watchdog_stall_cycles"));
    }

    #[test]
    fn rejects_buffer_smaller_than_packet() {
        let c = SimConfig {
            buf_flits: 8,
            max_packet_flits: 16,
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("virtual cut-through"));
    }
}
