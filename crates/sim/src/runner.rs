//! Steady-state experiment protocol (paper Section 6.1).
//!
//! "Before any measurements are taken, the network is warmed up with
//! traffic until packet latency stabilizes. [...] If the network never
//! reaches a state where latency stabilizes, the network is declared
//! saturated." This module implements exactly that: fixed-size warm-up
//! windows compared for latency stability and backlog growth, then a
//! measurement window.

use crate::sim::Sim;
use crate::workload::Workload;

/// Parameters of the warm-up / measurement protocol.
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct SteadyOpts {
    /// Cycles per warm-up window.
    pub warmup_window: u64,
    /// Maximum warm-up windows before declaring saturation.
    pub max_warmup_windows: u32,
    /// Measurement duration in cycles.
    pub measure_cycles: u64,
    /// Relative mean-latency change below which two consecutive windows
    /// count as stable.
    pub stability_tol: f64,
}

impl Default for SteadyOpts {
    fn default() -> Self {
        SteadyOpts {
            warmup_window: 2_000,
            max_warmup_windows: 12,
            measure_cycles: 6_000,
            stability_tol: 0.12,
        }
    }
}

/// Results of one steady-state load point.
#[derive(Clone, Copy, Debug)]
pub struct LoadPoint {
    /// Offered load in flits/terminal/cycle.
    pub offered: f64,
    /// Accepted throughput in flits/terminal/cycle over the measurement
    /// window.
    pub accepted: f64,
    /// Mean packet latency (cycles) over the measurement window.
    pub mean_latency: f64,
    /// Mean network-only latency (head injection to tail ejection),
    /// excluding source-queue wait.
    pub mean_net_latency: f64,
    /// Median packet latency.
    pub p50_latency: f64,
    /// 99th-percentile packet latency.
    pub p99_latency: f64,
    /// Mean router-to-router hops per packet.
    pub mean_hops: f64,
    /// Whether latency failed to stabilize during warm-up.
    pub saturated: bool,
    /// Packets delivered during measurement.
    pub delivered_packets: u64,
}

/// Runs the warm-up-then-measure protocol on `sim` under `workload` with
/// nominal offered load `offered` (recorded in the result; the workload
/// itself controls actual injection).
pub fn run_steady_state(
    sim: &mut Sim,
    workload: &mut dyn Workload,
    offered: f64,
    opts: SteadyOpts,
) -> LoadPoint {
    // Warm-up: windows until mean latency stabilizes and the generated
    // backlog stops growing faster than the network drains it.
    sim.mark_metrics_event("warmup_start");
    let mut prev_latency = f64::NAN;
    let mut prev_backlog = 0u64;
    let mut stable = false;
    for w in 0..opts.max_warmup_windows {
        sim.stats.reset_window(sim.now);
        sim.run(workload, opts.warmup_window);
        let lat = sim.stats.mean_latency();
        let backlog = sim.stats.backlog_flits();
        let backlog_grew = backlog.saturating_sub(prev_backlog) as f64
            > 0.10 * sim.stats.generated_flits.max(1) as f64;
        let lat_stable = prev_latency.is_finite()
            && lat > 0.0
            && ((lat - prev_latency) / prev_latency).abs() < opts.stability_tol;
        if w >= 1 && lat_stable && !backlog_grew {
            stable = true;
            break;
        }
        prev_latency = lat;
        prev_backlog = backlog;
    }

    // Measurement window.
    sim.mark_metrics_event("measure_start");
    sim.stats.reset_window(sim.now);
    sim.run(workload, opts.measure_cycles);
    sim.mark_metrics_event("measure_end");
    let terminals = sim.net.num_terminals();
    LoadPoint {
        offered,
        accepted: sim.stats.accepted_throughput(sim.now, terminals),
        mean_latency: sim.stats.mean_latency(),
        mean_net_latency: sim.stats.mean_net_latency(),
        p50_latency: sim.stats.hist.quantile(0.5),
        p99_latency: sim.stats.hist.quantile(0.99),
        mean_hops: sim.stats.mean_hops(),
        saturated: !stable,
        delivered_packets: sim.stats.delivered_packets,
    }
}
