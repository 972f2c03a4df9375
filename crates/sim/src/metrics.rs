//! Cycle-level observability: counters, log-bucketed histograms, sampled
//! per-router/per-port/per-VC time series, and scoped phase timers.
//!
//! The layer is strictly opt-in: a [`Sim`](crate::Sim) carries
//! `Option<Box<Metrics>>`, routers receive `Option<&mut Metrics>` exactly
//! like the hop [`Trace`](crate::Trace), and every instrumentation point is
//! a branch on that option — with metrics disabled the simulator does no
//! metric work at all, and enabling metrics never perturbs simulation
//! state (no RNG draws, no flow-control effects), so results are
//! bit-identical either way. The determinism suite in
//! `tests/observability.rs` asserts both properties.
//!
//! Two kinds of output coexist:
//!
//! * **Deterministic streams** — counters, [`PortSample`]/[`NetSample`]
//!   rows, window events, and the occupancy histogram. For a fixed seed
//!   these are bit-identical run to run; [`Metrics::digest`] hashes them
//!   for golden tests.
//! * **Wall-clock phase timers** ([`PhaseTimers`]) — enabled separately
//!   via [`MetricsConfig::timers`] because wall time is inherently
//!   non-deterministic. They attribute host time to the
//!   route-compute / VC-allocation / crossbar / channel phases of the
//!   cycle loop, which is what the ROADMAP's hot-loop optimization work
//!   needs.

use std::time::Instant;

use hxtopo::Topology;

use crate::network::Network;

/// Maximum dimensions tracked for per-dimension deroute attribution
/// (`PacketRouteState::deroute_mask` is a `u8`, so 8 covers every
/// supported topology).
pub(crate) const MAX_DIMS: usize = 8;

/// Log2-bucketed histogram of `u64` samples with quantile extraction.
///
/// Bucket `i` holds values in `[2^i, 2^(i+1))`; bucket 0 holds 0 and 1.
/// Used for packet latencies ([`crate::Stats::hist`]) and for
/// sampled buffer occupancies. Merging is bucket-wise addition, so merges
/// are associative and commutative — the property suite in
/// `crates/sim/tests/metrics_props.rs` pins this down along with the
/// "quantile lands in the exact value's bucket" guarantee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHist {
    buckets: [u64; 40],
    count: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: [0; 40],
            count: 0,
        }
    }
}

impl LogHist {
    /// Index of the bucket holding `v`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.max(1).leading_zeros() as usize - 1).min(39)
    }

    /// `[lo, hi]` value range of bucket `i` (as used by interpolation).
    #[inline]
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
        (lo, (1u64 << (i + 1)) as f64)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Approximate quantile (`q` in `[0, 1]`), linearly interpolated within
    /// the winning bucket. Returns 0 with no samples. The estimate always
    /// falls inside the bucket containing the exact (sorted-vector)
    /// quantile of the same rank.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = (target - seen) as f64 / n as f64;
                return lo + frac * (hi - lo);
            }
            seen += n;
        }
        unreachable!("quantile target exceeds sample count");
    }

    /// Adds every sample of `other` into `self` (bucket-wise).
    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Clears all samples.
    pub(crate) fn reset(&mut self) {
        self.buckets = [0; 40];
        self.count = 0;
    }
}

/// Configuration of the observability layer.
#[derive(Clone, Copy, Debug)]
pub struct MetricsConfig {
    /// Cycles between time-series samples (per-port utilization, VC
    /// occupancy, stall/deroute deltas). Samples land at cycles where
    /// `(cycle + 1) % sample_interval == 0`.
    pub sample_interval: u64,
    /// Enables wall-clock phase timers. Off by default: timers are the one
    /// non-deterministic metric, and they cost two `Instant::now` calls
    /// per router phase per cycle.
    pub timers: bool,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            sample_interval: 1_000,
            timers: false,
        }
    }
}

/// Wall-time attribution of the cycle loop, in nanoseconds.
///
/// Excluded from [`Metrics::digest`] and from the deterministic JSONL
/// stream: wall time varies run to run by nature.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct PhaseTimers {
    /// Flit/credit ingress from channels into router buffers.
    pub ingress_ns: u64,
    /// Route computation (`RoutingAlgorithm::route` calls).
    pub route_ns: u64,
    /// VC allocation around route computation (the head-list walk,
    /// candidate selection, grants).
    pub vc_alloc_ns: u64,
    /// Switch traversal + crossbar drain.
    pub crossbar_ns: u64,
    /// Link egress plus terminal injection/ejection (channel endpoints).
    pub channel_ns: u64,
}

impl PhaseTimers {
    /// Total attributed nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ingress_ns + self.route_ns + self.vc_alloc_ns + self.crossbar_ns + self.channel_ns
    }

    /// Adds another attribution (a cycle's timers, folded at its end).
    pub fn accumulate(&mut self, o: &PhaseTimers) {
        self.ingress_ns += o.ingress_ns;
        self.route_ns += o.route_ns;
        self.vc_alloc_ns += o.vc_alloc_ns;
        self.crossbar_ns += o.crossbar_ns;
        self.channel_ns += o.channel_ns;
    }
}

/// One non-zero `(vc, occupancy)` entry of a sampled input port.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct OccEntry {
    /// Virtual channel.
    pub(crate) vc: u8,
    /// Buffered flits in that VC at sample time.
    pub(crate) flits: u32,
}

/// One sampled `(router, port)` time-series row. Only ports with activity
/// in the window (egressed flits, allocation stalls, or buffered flits)
/// emit a row, which keeps the stream proportional to traffic rather than
/// to network size.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PortSample {
    /// Row discriminator for JSONL consumers (`"port"`).
    pub(crate) kind: &'static str,
    /// Sample cycle.
    pub(crate) cycle: u64,
    /// Router id.
    pub(crate) router: u32,
    /// Port index on that router.
    pub(crate) port: u16,
    /// Flits sent into the attached outgoing channel during the window.
    pub(crate) flits: u64,
    /// `flits / sample_interval` — link utilization in flits/cycle.
    pub(crate) util: f64,
    /// VC-allocation failures that targeted this output port during the
    /// window (credit- or claim-starved).
    pub(crate) stalls: u64,
    /// Non-zero input-buffer occupancy per VC at sample time.
    pub(crate) occ: Vec<OccEntry>,
}

/// One sampled network-wide delta row (emitted every sample).
#[derive(Clone, Debug, serde::Serialize)]
pub struct NetSample {
    /// Row discriminator for JSONL consumers (`"net"`).
    pub(crate) kind: &'static str,
    /// Sample cycle.
    pub(crate) cycle: u64,
    /// VC-allocation grants in the window.
    pub(crate) grants: u64,
    /// Grants that went to the locally oldest waiting packet (age-based
    /// arbitration wins).
    pub(crate) age_wins: u64,
    /// Non-minimal (deroute) grants per dimension in the window.
    pub(crate) deroutes: Vec<u64>,
    /// Allocation failures with an unclaimed but credit-starved VC.
    pub(crate) credit_stalls: u64,
    /// Allocation failures with every candidate VC claimed.
    pub(crate) claim_stalls: u64,
}

/// A labeled protocol event (warm-up/measurement window boundaries).
#[derive(Clone, Debug, serde::Serialize)]
pub struct EventRow {
    /// Row discriminator for JSONL consumers (`"event"`).
    pub(crate) kind: &'static str,
    /// Cycle the event was recorded.
    pub(crate) cycle: u64,
    /// Event label, e.g. `"measure_start"`.
    pub(crate) label: String,
}

/// End-of-run aggregate view, serializable for the bench JSONL outputs.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MetricsSummary {
    /// Total VC-allocation grants (network + ejection).
    pub grants: u64,
    /// Grants that ejected a packet to its terminal.
    pub ejection_grants: u64,
    /// Grants to the locally oldest waiting packet.
    pub(crate) age_wins: u64,
    /// Total non-minimal (deroute) grants.
    pub deroutes_total: u64,
    /// Deroute grants per dimension.
    pub deroutes_per_dim: Vec<u64>,
    /// `deroutes_total / network grants` (0 when no network grant).
    pub deroute_fraction: f64,
    /// Allocation failures that were credit-starved.
    pub credit_stalls: u64,
    /// Allocation failures with all candidate VCs claimed.
    pub claim_stalls: u64,
    /// Median of sampled per-port input-buffer occupancy (flits).
    pub(crate) occ_p50: f64,
    /// 99th percentile of sampled per-port occupancy (flits).
    pub(crate) occ_p99: f64,
    /// Number of occupancy samples taken.
    pub(crate) occ_samples: u64,
    /// Mean link utilization over all ports and sampled cycles
    /// (flits/port/cycle).
    pub(crate) mean_util: f64,
    /// Highest single-port single-window utilization observed.
    pub(crate) max_util: f64,
    /// Number of time-series samples taken.
    pub(crate) samples: u64,
}

/// Snapshot of the network-wide counters, for window deltas.
#[derive(Clone, Copy, Debug, Default)]
struct NetSnapshot {
    grants: u64,
    age_wins: u64,
    credit_stalls: u64,
    claim_stalls: u64,
    deroutes: [u64; MAX_DIMS],
}

/// The metrics collector attached to a running [`Sim`](crate::Sim).
pub struct Metrics {
    cfg: MetricsConfig,
    /// Flat port indexing: `port_base[r] + p`; `port_base[num_routers]` is
    /// the total port count.
    port_base: Vec<usize>,
    /// Dimension of each flat port (`u8::MAX` = no dimension: terminal,
    /// unused, or non-dimensional topology).
    port_dim: Vec<u8>,
    num_vcs: usize,

    // Lifetime counters (monotonic).
    /// Total VC-allocation grants.
    pub grants: u64,
    /// Grants that ejected a packet.
    pub(crate) ejection_grants: u64,
    /// Grants to the locally oldest waiting packet.
    pub(crate) age_wins: u64,
    /// Non-minimal grants per dimension.
    pub deroutes: [u64; MAX_DIMS],
    /// Allocation failures with an unclaimed but credit-starved VC.
    pub(crate) credit_stalls: u64,
    /// Allocation failures with every candidate VC claimed.
    pub(crate) claim_stalls: u64,
    /// Per-port allocation failures (flat index).
    port_stalls: Vec<u64>,

    // Sampling bookkeeping.
    last_chan_flits: Vec<u64>,
    last_port_stalls: Vec<u64>,
    last_net: NetSnapshot,
    sampled_cycles: u64,
    sum_sample_flits: u64,
    max_util: f64,

    // Output streams.
    /// Per-port time series.
    pub(crate) port_samples: Vec<PortSample>,
    /// Network-wide delta series.
    pub(crate) net_samples: Vec<NetSample>,
    /// Protocol window events.
    pub(crate) events: Vec<EventRow>,
    /// Histogram of sampled per-port input-buffer occupancies.
    pub(crate) occ_hist: LogHist,
    /// Wall-clock phase attribution (all zero unless
    /// [`MetricsConfig::timers`]).
    pub timers: PhaseTimers,
}

impl Metrics {
    /// Builds a collector for a network over `topo` with `num_vcs` VCs.
    pub(crate) fn new(cfg: MetricsConfig, topo: &dyn Topology, num_vcs: usize) -> Self {
        assert!(cfg.sample_interval >= 1, "sample_interval must be >= 1");
        let nr = topo.num_routers();
        let mut port_base = Vec::with_capacity(nr + 1);
        let mut total = 0usize;
        for r in 0..nr {
            port_base.push(total);
            total += topo.num_ports(r);
        }
        port_base.push(total);
        let mut port_dim = vec![u8::MAX; total];
        for r in 0..nr {
            for p in 0..topo.num_ports(r) {
                if let Some(d) = topo.port_dim(r, p) {
                    port_dim[port_base[r] + p] = d.min(MAX_DIMS - 1) as u8;
                }
            }
        }
        Metrics {
            cfg,
            port_base,
            port_dim,
            num_vcs,
            grants: 0,
            ejection_grants: 0,
            age_wins: 0,
            deroutes: [0; MAX_DIMS],
            credit_stalls: 0,
            claim_stalls: 0,
            port_stalls: vec![0; total],
            last_chan_flits: vec![0; total],
            last_port_stalls: vec![0; total],
            last_net: NetSnapshot::default(),
            sampled_cycles: 0,
            sum_sample_flits: 0,
            max_util: 0.0,
            port_samples: Vec::new(),
            net_samples: Vec::new(),
            events: Vec::new(),
            occ_hist: LogHist::default(),
            timers: PhaseTimers::default(),
        }
    }

    /// Whether wall-clock phase timers are on.
    #[inline]
    pub(crate) fn timers_enabled(&self) -> bool {
        self.cfg.timers
    }

    #[inline]
    fn flat(&self, router: usize, port: usize) -> usize {
        self.port_base[router] + port
    }

    /// Records a granted VC allocation. `oldest` marks a grant that went to
    /// the locally oldest waiting packet (an age-arbitration win);
    /// `ejection` marks terminal delivery. For network grants, `nonminimal`
    /// flags a deroute and `commit_dim` carries an explicit dimension from
    /// the routing commit (DAL); otherwise the dimension is derived from
    /// the output port's topology dimension.
    #[inline]
    pub(crate) fn on_grant(
        &mut self,
        router: usize,
        out_port: usize,
        oldest: bool,
        ejection: bool,
        nonminimal: bool,
        commit_dim: Option<usize>,
    ) {
        self.grants += 1;
        if oldest {
            self.age_wins += 1;
        }
        if ejection {
            self.ejection_grants += 1;
        } else if nonminimal {
            let dim = commit_dim.map(|d| d.min(MAX_DIMS - 1)).unwrap_or_else(|| {
                match self.port_dim[self.flat(router, out_port)] {
                    u8::MAX => 0,
                    d => d as usize,
                }
            });
            self.deroutes[dim] += 1;
        }
    }

    /// Records a VC-allocation failure for the chosen output port.
    /// `credit_starved` distinguishes "an unclaimed VC existed but lacked
    /// credits" from "every candidate VC is claimed".
    #[inline]
    pub(crate) fn on_alloc_stall(&mut self, router: usize, out_port: usize, credit_starved: bool) {
        let i = self.flat(router, out_port);
        self.port_stalls[i] += 1;
        if credit_starved {
            self.credit_stalls += 1;
        } else {
            self.claim_stalls += 1;
        }
    }

    /// Records a protocol event (e.g. measurement window boundaries).
    pub(crate) fn mark_event(&mut self, cycle: u64, label: &str) {
        self.events.push(EventRow {
            kind: "event",
            cycle,
            label: label.to_string(),
        });
    }

    /// Whether cycle `now` completes a sample window.
    #[inline]
    pub(crate) fn sample_due(&self, now: u64) -> bool {
        (now + 1).is_multiple_of(self.cfg.sample_interval)
    }

    /// The earliest cycle `>= now` whose execution completes a sample
    /// window. The event engine must execute (not skip) that cycle so
    /// time-series rows land on the same cycles as the cycle engine's.
    #[inline]
    pub(crate) fn next_sample_cycle(&self, now: u64) -> u64 {
        (now + 1).div_ceil(self.cfg.sample_interval) * self.cfg.sample_interval - 1
    }

    /// Takes one time-series sample over the network state at cycle `now`.
    /// Called by [`Sim::step`](crate::Sim::step) at every due cycle; safe
    /// to call directly for a final partial-window snapshot.
    pub(crate) fn sample(&mut self, now: u64, net: &Network) {
        let interval = self.cfg.sample_interval as f64;
        let nr = net.topo.num_routers();
        for r in 0..nr {
            let router = net.router(r);
            for p in 0..net.topo.num_ports(r) {
                let i = self.flat(r, p);
                let flits = match router.out_ch(p) {
                    Some(ch) => {
                        let total = net.channel(ch).flits_sent();
                        let delta = total - self.last_chan_flits[i];
                        self.last_chan_flits[i] = total;
                        delta
                    }
                    None => 0,
                };
                let stalls = self.port_stalls[i] - self.last_port_stalls[i];
                self.last_port_stalls[i] = self.port_stalls[i];

                let mut occ = Vec::new();
                let mut port_occ = 0u64;
                for vc in 0..self.num_vcs {
                    let o = router.input_occupancy(p, vc);
                    if o > 0 {
                        occ.push(OccEntry {
                            vc: vc as u8,
                            flits: o as u32,
                        });
                        port_occ += o as u64;
                    }
                }
                self.occ_hist.record(port_occ);

                if flits > 0 || stalls > 0 || !occ.is_empty() {
                    let util = flits as f64 / interval;
                    self.sum_sample_flits += flits;
                    if util > self.max_util {
                        self.max_util = util;
                    }
                    self.port_samples.push(PortSample {
                        kind: "port",
                        cycle: now,
                        router: r as u32,
                        port: p as u16,
                        flits,
                        util,
                        stalls,
                        occ,
                    });
                }
            }
        }

        let prev = self.last_net;
        let mut deroute_delta = Vec::with_capacity(MAX_DIMS);
        for d in 0..MAX_DIMS {
            deroute_delta.push(self.deroutes[d] - prev.deroutes[d]);
        }
        while deroute_delta.len() > 1 && *deroute_delta.last().unwrap() == 0 {
            deroute_delta.pop();
        }
        self.net_samples.push(NetSample {
            kind: "net",
            cycle: now,
            grants: self.grants - prev.grants,
            age_wins: self.age_wins - prev.age_wins,
            deroutes: deroute_delta,
            credit_stalls: self.credit_stalls - prev.credit_stalls,
            claim_stalls: self.claim_stalls - prev.claim_stalls,
        });
        self.last_net = NetSnapshot {
            grants: self.grants,
            age_wins: self.age_wins,
            credit_stalls: self.credit_stalls,
            claim_stalls: self.claim_stalls,
            deroutes: self.deroutes,
        };
        self.sampled_cycles += self.cfg.sample_interval;
    }

    /// Total deroute grants across all dimensions.
    pub fn deroutes_total(&self) -> u64 {
        self.deroutes.iter().sum()
    }

    /// End-of-run aggregate summary.
    pub fn summary(&self) -> MetricsSummary {
        let network_grants = self.grants - self.ejection_grants;
        let deroutes_total = self.deroutes_total();
        let ports = self.port_stalls.len() as u64;
        let port_cycles = ports * self.sampled_cycles;
        MetricsSummary {
            grants: self.grants,
            ejection_grants: self.ejection_grants,
            age_wins: self.age_wins,
            deroutes_total,
            deroutes_per_dim: self.deroutes.to_vec(),
            deroute_fraction: if network_grants == 0 {
                0.0
            } else {
                deroutes_total as f64 / network_grants as f64
            },
            credit_stalls: self.credit_stalls,
            claim_stalls: self.claim_stalls,
            occ_p50: self.occ_hist.quantile(0.5),
            occ_p99: self.occ_hist.quantile(0.99),
            occ_samples: self.occ_hist.count(),
            mean_util: if port_cycles == 0 {
                0.0
            } else {
                self.sum_sample_flits as f64 / port_cycles as f64
            },
            max_util: self.max_util,
            samples: self.net_samples.len() as u64,
        }
    }

    /// The deterministic part of the metric stream as JSONL: one meta row,
    /// every event, every net/port sample, and the summary. Timers are
    /// deliberately excluded (see module docs). For a fixed seed this
    /// string is bit-identical across runs and engines.
    pub fn deterministic_jsonl(&self) -> String {
        #[derive(serde::Serialize)]
        struct MetaRow {
            kind: &'static str,
            sample_interval: u64,
            ports: u64,
            num_vcs: u64,
        }
        #[derive(serde::Serialize)]
        struct SummaryRow {
            kind: &'static str,
            summary: MetricsSummary,
        }
        let mut out = String::new();
        let mut push = |row: &dyn serde::Serialize| {
            out.push_str(&crate::schema::versioned_json_row(row));
            out.push('\n');
        };
        push(&MetaRow {
            kind: "meta",
            sample_interval: self.cfg.sample_interval,
            ports: self.port_stalls.len() as u64,
            num_vcs: self.num_vcs as u64,
        });
        for e in &self.events {
            push(e);
        }
        for s in &self.net_samples {
            push(s);
        }
        for s in &self.port_samples {
            push(s);
        }
        push(&SummaryRow {
            kind: "summary",
            summary: self.summary(),
        });
        out
    }

    /// FNV-1a hash of [`Self::deterministic_jsonl`] — a compact fingerprint
    /// for golden/determinism tests.
    pub fn digest(&self) -> u64 {
        crate::schema::fnv1a(self.deterministic_jsonl().as_bytes())
    }
}

/// Accumulates elapsed time into `acc` and restarts the stopwatch. A
/// `None` stopwatch (timers disabled) is a no-op.
#[inline]
pub(crate) fn lap(stamp: &mut Option<Instant>, acc: &mut u64) {
    if let Some(s) = stamp {
        let now = Instant::now();
        *acc += now.duration_since(*s).as_nanos() as u64;
        *s = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loghist_merge_equals_union() {
        let (mut a, mut b, mut all) = (LogHist::default(), LogHist::default(), LogHist::default());
        for v in [0u64, 1, 2, 100, 5000] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 70, 70, 1 << 20] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        assert_eq!(a.count(), 9);
    }

    #[test]
    fn loghist_empty_behaviour() {
        let mut h = LogHist::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0.0);
        let other = LogHist::default();
        h.merge(&other);
        assert!(h.is_empty());
    }

    #[test]
    fn bucket_of_matches_bounds() {
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            let b = LogHist::bucket_of(v);
            let (lo, hi) = LogHist::bucket_bounds(b);
            if b < 39 {
                assert!((v.max(1) as f64) >= lo && (v as f64) < hi, "v={v} b={b}");
            } else {
                assert!(v as f64 >= lo);
            }
        }
    }

    #[test]
    fn phase_timers_total() {
        let t = PhaseTimers {
            ingress_ns: 1,
            route_ns: 2,
            vc_alloc_ns: 3,
            crossbar_ns: 4,
            channel_ns: 5,
        };
        assert_eq!(t.total_ns(), 15);
    }

    #[test]
    fn lap_accumulates_only_when_armed() {
        let mut acc = 0u64;
        let mut none = None;
        lap(&mut none, &mut acc);
        assert_eq!(acc, 0);
        let mut some = Some(Instant::now());
        lap(&mut some, &mut acc);
        // Can't assert a specific duration, but the stopwatch must rearm.
        assert!(some.is_some());
    }
}
