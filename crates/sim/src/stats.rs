//! Simulation statistics: windowed counters and a log-bucketed latency
//! histogram for percentile estimates.

use crate::metrics::LogHist;

/// Windowed simulation counters. `reset_window` starts a fresh measurement
/// window; lifetime totals keep accumulating.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Cycle the current window began.
    pub(crate) window_start: u64,
    /// Flits handed to terminals (generated) in the window.
    pub generated_flits: u64,
    /// Flits that left a terminal into the network in the window.
    pub injected_flits: u64,
    /// Flits delivered to destination terminals in the window.
    pub(crate) delivered_flits: u64,
    /// Packets delivered in the window.
    pub delivered_packets: u64,
    /// Sum of delivered packet latencies (birth -> tail ejection).
    pub latency_sum: u64,
    /// Sum of delivered network-only latencies (head injection -> tail
    /// ejection); `latency_sum - net_latency_sum` is time spent waiting in
    /// source queues.
    pub net_latency_sum: u64,
    /// Max delivered packet latency in the window.
    pub latency_max: u64,
    /// Sum of router-to-router hop counts of delivered packets.
    pub hops_sum: u64,
    /// Latency histogram for the window.
    pub hist: LogHist,
    /// Lifetime totals (never reset).
    pub total_generated_flits: u64,
    /// Lifetime delivered flits.
    pub total_delivered_flits: u64,
    /// Lifetime delivered packets.
    pub total_delivered_packets: u64,
    /// Lifetime flits discarded by fault fallout (dead wires, poisoned
    /// buffers, stranded egress remnants).
    pub dropped_flits: u64,
    /// Lifetime packets dropped by faults or the livelock hop cap.
    pub dropped_packets: u64,
    /// Lifetime fault-schedule actions applied (kills + revivals).
    pub fault_events: u64,
    /// Lifetime count of flit movements anywhere in the network (ingress
    /// accepts, switch traversals, injections, ejections, and LLR wire
    /// transmissions). The watchdog compares successive values to detect a
    /// wedged network — replay storms count as progress.
    pub flit_moves: u64,
    /// Lifetime LLR frame retransmissions (a frame put on the wire again
    /// after its first transmission).
    pub llr_replays: u64,
    /// Lifetime CRC-detected corrupted frames discarded at LLR receivers.
    pub crc_errors: u64,
    /// Lifetime link flap down-edges applied.
    pub flaps: u64,
}

impl Stats {
    /// Creates zeroed stats.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a delivered packet. `latency` is birth -> tail ejection,
    /// `net_latency` is head injection -> tail ejection (the in-network
    /// part; the difference is source-queue wait).
    pub(crate) fn record_delivery(&mut self, latency: u64, net_latency: u64, hops: u8, len: u16) {
        debug_assert!(net_latency <= latency, "network time exceeds total");
        self.delivered_flits += len as u64;
        self.delivered_packets += 1;
        self.latency_sum += latency;
        self.net_latency_sum += net_latency;
        self.latency_max = self.latency_max.max(latency);
        self.hops_sum += hops as u64;
        self.hist.record(latency);
        self.total_delivered_flits += len as u64;
        self.total_delivered_packets += 1;
    }

    /// Records a generated packet (entered a terminal queue).
    pub(crate) fn record_generation(&mut self, len: u16) {
        self.generated_flits += len as u64;
        self.total_generated_flits += len as u64;
    }

    /// Records one flit leaving a terminal.
    pub(crate) fn record_injection(&mut self) {
        self.injected_flits += 1;
    }

    /// Mean delivered-packet latency in the window.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Mean network-only latency (injection -> ejection) in the window.
    pub fn mean_net_latency(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.net_latency_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Mean hops per delivered packet in the window.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.hops_sum as f64 / self.delivered_packets as f64
        }
    }

    /// Delivered flits per terminal per cycle over the window.
    pub fn accepted_throughput(&self, now: u64, terminals: usize) -> f64 {
        let cycles = now.saturating_sub(self.window_start);
        if cycles == 0 || terminals == 0 {
            0.0
        } else {
            self.delivered_flits as f64 / (cycles as f64 * terminals as f64)
        }
    }

    /// Generated-but-undelivered flit backlog over the whole run.
    pub(crate) fn backlog_flits(&self) -> u64 {
        self.total_generated_flits
            .saturating_sub(self.total_delivered_flits)
    }

    /// Starts a fresh measurement window at `now`.
    pub fn reset_window(&mut self, now: u64) {
        self.window_start = now;
        self.generated_flits = 0;
        self.injected_flits = 0;
        self.delivered_flits = 0;
        self.delivered_packets = 0;
        self.latency_sum = 0;
        self.net_latency_sum = 0;
        self.latency_max = 0;
        self.hops_sum = 0;
        self.hist.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_bracket_samples() {
        let mut h = LogHist::default();
        for lat in [10u64, 20, 30, 40, 1000] {
            h.record(lat);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile(0.5);
        assert!((16.0..=64.0).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((512.0..=2048.0).contains(&p99), "p99={p99}");
    }

    #[test]
    fn hist_empty_is_zero() {
        let h = LogHist::default();
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn window_reset_preserves_totals() {
        let mut s = Stats::new();
        s.record_generation(4);
        s.record_delivery(100, 80, 3, 4);
        s.reset_window(50);
        assert_eq!(s.delivered_packets, 0);
        assert_eq!(s.total_delivered_packets, 1);
        assert_eq!(s.total_generated_flits, 4);
        assert_eq!(s.backlog_flits(), 0);
    }

    #[test]
    fn throughput_normalizes_by_cycles_and_terminals() {
        let mut s = Stats::new();
        s.reset_window(100);
        s.record_delivery(10, 10, 1, 50);
        // 50 flits over 100 cycles and 2 terminals = 0.25.
        assert!((s.accepted_throughput(200, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mean_latency_and_hops() {
        let mut s = Stats::new();
        s.record_delivery(100, 60, 2, 1);
        s.record_delivery(300, 240, 4, 1);
        assert!((s.mean_latency() - 200.0).abs() < 1e-12);
        assert!((s.mean_hops() - 3.0).abs() < 1e-12);
    }
}
