//! Executes one sweep point and renders its result row.
//!
//! The row deliberately contains nothing run-dependent beyond the
//! simulation's deterministic outcome — no wall-clock, no engine, no
//! experiment name — so the same point always produces the same bytes
//! and the store can splice cached rows into fresh output verbatim.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Instant;

use hxsim::{run_steady_state, FaultSchedule, IdleWorkload, MetricsConfig, MetricsSummary, Sim};
use hxtopo::{FaultSet, Topology};
use hxtraffic::SyntheticWorkload;

use crate::digest::{digest_hex, point_digest};
use crate::spec::{Kind, Point};

/// One sweep point's merged-output row. Serialized through
/// [`hxsim::versioned_json_row`], so the on-disk form leads with
/// `schema_version`.
#[derive(serde::Serialize, Clone, Debug)]
pub struct PointRow {
    pub(crate) digest: String,
    pub(crate) kind: &'static str,
    pub(crate) dims: usize,
    pub(crate) width: usize,
    pub(crate) terminals: usize,
    pub(crate) pattern: String,
    pub(crate) algo: String,
    pub(crate) seed: u64,
    pub(crate) fails: usize,
    pub(crate) router_fails: usize,
    /// Retransmission timeout axis value (0 = transport off).
    pub(crate) retransmit: u64,
    pub(crate) offered: f64,
    pub(crate) accepted: f64,
    pub(crate) mean_latency: f64,
    pub(crate) mean_net_latency: f64,
    pub(crate) p50_latency: f64,
    pub(crate) p99_latency: f64,
    pub(crate) mean_hops: f64,
    pub(crate) saturated: bool,
    pub(crate) attempted_packets: u64,
    pub(crate) delivered_packets: u64,
    pub(crate) dropped_packets: u64,
    pub(crate) stranded_packets: u64,
    pub(crate) delivered_fraction: f64,
    pub(crate) wedged: bool,
    /// Transport accounting; all zero when the transport is off.
    pub(crate) logical_sent: u64,
    pub(crate) logical_delivered: u64,
    pub(crate) retransmits: u64,
    pub(crate) duplicates_dropped: u64,
    pub(crate) abandoned: u64,
    pub(crate) recovered: u64,
    pub(crate) recovery_p50: f64,
    pub(crate) recovery_p99: f64,
    /// Flits injected for retransmitted copies per delivered flit — the
    /// bandwidth price of reliability.
    pub(crate) goodput_overhead: f64,
    /// Cycles from the fault strike to the last timeout-recovered
    /// delivery (0 when nothing needed recovery).
    pub(crate) time_to_recover: u64,
    /// Gray-failure recovery metrics; all zero without `llr_enabled`.
    /// Frames resent by the link-level retry sublayer.
    pub(crate) llr_replays: u64,
    /// Flits discarded at a receiver for CRC failure (all recovered by
    /// replay).
    pub(crate) crc_errors: u64,
    /// Link down-edges (flaps) survived.
    pub(crate) flaps_survived: u64,
}

/// One executed point: its row, its metrics summary when collection was
/// requested, and the wall-clock cost the store's meta line records.
pub struct PointRun {
    pub(crate) row: String,
    pub(crate) metrics: Option<MetricsSummary>,
    pub(crate) elapsed_ms: u64,
}

/// [`execute_point`] for a sweep: a panicking point must not take the
/// sweep (and every completed-but-uncommitted row) down with it, so the
/// panic is caught and returned as its message — what `Job::fill` turns
/// into a `kind = "failed"` row. The local pool and `hx work` both run
/// points through here.
pub fn run_point(point: &Point, metrics: Option<MetricsConfig>) -> Result<PointRun, String> {
    let t0 = Instant::now();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| execute_point(point, 1, metrics)));
    let elapsed_ms = t0.elapsed().as_millis() as u64;
    match result {
        Ok((row, metrics)) => Ok(PointRun {
            row,
            metrics,
            elapsed_ms,
        }),
        Err(e) => Err(if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }),
    }
}

/// Runs `point` to completion and returns its serialized row (plus the
/// metrics summary when collection was requested — collection never
/// changes simulation results, see the observability suite).
///
/// `_tick_threads` is accepted and ignored: a point runs on one thread.
/// It stays only because the benchmark package (`perf/`) still passes it;
/// the next `[benchmark]` change deletes it together with
/// `sim.tick2_ratio`.
pub fn execute_point(
    point: &Point,
    _tick_threads: usize,
    metrics: Option<MetricsConfig>,
) -> (String, Option<MetricsSummary>) {
    let hx = Arc::new(point.network.build());
    let cfg = point.sim;
    let algo: Arc<dyn hxcore::RoutingAlgorithm> =
        hxcore::hyperx_algorithm(&point.algo, hx.clone(), cfg.num_vcs)
            .unwrap_or_else(|e| panic!("{e} (spec was validated)"))
            .into();
    let mut sim = Sim::new(hx.clone(), algo, cfg, point.seed);
    if let Some(mc) = metrics {
        sim.enable_metrics(mc);
    }
    let pattern = hxtraffic::pattern_by_name(&point.pattern, hx.clone())
        .unwrap_or_else(|e| panic!("{e} (spec was validated)"));
    let mut traffic = SyntheticWorkload::new(pattern, hx.num_terminals(), point.load, point.seed);

    let steady = match point.kind {
        Kind::Steady => Some(run_steady_state(
            &mut sim,
            &mut traffic,
            point.load,
            point.steady,
        )),
        Kind::Fault => {
            // The same seed picks the same dead cables and routers for
            // every algorithm, keeping comparisons apples-to-apples; the
            // router draw accounts for the link draw so the combined set
            // keeps the surviving routers connected.
            let mut faults = FaultSet::random_links(&*hx, point.fails, point.seed);
            faults.extend_random_routers(&*hx, point.router_fails, point.seed);
            let kill = point.fault.kill_cycle;
            let revive = point.fault.revive_cycle;
            let mut schedule = FaultSchedule::new();
            for (r, p) in faults.links() {
                schedule = schedule.kill_link_at(kill, r, p);
                if revive > 0 {
                    schedule = schedule.revive_link_at(revive, r, p);
                }
            }
            for r in faults.routers() {
                schedule = schedule.kill_router_at(kill, r);
                if revive > 0 {
                    schedule = schedule.revive_router_at(revive, r);
                }
            }
            // Gray failures ride on extra cables disjoint from the hard
            // kill set (a flap on an already-dead cable is invisible) and
            // from killed routers' ports. The draw is salted so the same
            // seed yields independent kill and gray sets, and oversized so
            // filtering still leaves enough cables.
            let fp = &point.fault;
            let wanted = fp.flap_links + fp.degrade_links;
            if wanted > 0 {
                let killed: std::collections::BTreeSet<(usize, usize)> = faults.links().collect();
                let dead_routers: std::collections::BTreeSet<usize> = faults.routers().collect();
                let pool = FaultSet::random_links(
                    &*hx,
                    killed.len() + dead_routers.len() * hx.num_ports(0) + wanted,
                    point.seed ^ 0xC4A0_5F0D_9B1E_2D77,
                );
                let gray: Vec<(usize, usize)> = pool
                    .links()
                    .filter(|&(r, p)| {
                        let peer = match hx.port_target(r, p) {
                            hxtopo::PortTarget::Router { router, .. } => router,
                            _ => return false,
                        };
                        !killed.contains(&(r, p))
                            && !dead_routers.contains(&r)
                            && !dead_routers.contains(&peer)
                    })
                    .take(wanted)
                    .collect();
                assert!(
                    gray.len() == wanted,
                    "topology too small for {wanted} gray links on top of the kill set"
                );
                for &(r, p) in gray.iter().take(fp.flap_links) {
                    schedule = schedule.flap_link(
                        r,
                        p,
                        fp.flap_first,
                        fp.flap_period,
                        fp.flap_down_cycles,
                        fp.flap_count,
                    );
                }
                for &(r, p) in gray.iter().skip(fp.flap_links) {
                    schedule = schedule.degrade_link_at(
                        kill,
                        r,
                        p,
                        fp.degrade_extra_latency,
                        fp.degrade_half_bw,
                    );
                    if revive > 0 {
                        schedule = schedule.restore_link_at(revive, r, p);
                    }
                }
            }
            // The spec's load-time check keeps every action before the
            // run's end; the distinct kill set and the disjoint gray links
            // give no target two overlapping faults.
            sim.set_fault_schedule(schedule);
            sim.run(&mut traffic, point.fault.cycles);
            // Stop injecting and let survivors drain (ends early if
            // wedged); the transport keeps retransmitting during the
            // drain, so timed-out packets still recover here.
            sim.run(
                &mut IdleWorkload,
                point.fault.drain_factor * point.fault.cycles,
            );
            None
        }
    };

    let delivered = sim.stats.total_delivered_packets;
    let dropped = sim.stats.dropped_packets;
    let stranded = sim.pool.live() as u64;
    let attempted = delivered + dropped + stranded;
    let terminals = hx.num_terminals();
    // With the transport on, delivery is judged logically: a packet
    // counts once no matter how many physical copies raced, and a copy
    // lost to a fault is recovered by retransmission rather than charged
    // against the algorithm.
    let transport = sim.transport_stats().map(|t| t.summary());
    let delivered_fraction = match &transport {
        Some(t) if t.logical_sent > 0 => t.logical_delivered as f64 / t.logical_sent as f64,
        Some(_) => 1.0,
        None if attempted == 0 => 1.0,
        None => delivered as f64 / attempted as f64,
    };
    let row = PointRow {
        digest: digest_hex(point_digest(point)),
        kind: point.kind.as_str(),
        dims: point.network.dims,
        width: point.network.width,
        terminals: point.network.terminals,
        pattern: point.pattern.clone(),
        algo: point.algo.clone(),
        seed: point.seed,
        fails: point.fails,
        router_fails: point.router_fails,
        retransmit: point.retransmit,
        offered: point.load,
        accepted: match &steady {
            Some(p) => p.accepted,
            // Fault runs have no warm-up protocol; report delivered flits
            // per terminal-cycle over the injection window.
            None => {
                sim.stats.total_delivered_flits as f64
                    / (point.fault.cycles * terminals as u64) as f64
            }
        },
        mean_latency: match &steady {
            Some(p) => p.mean_latency,
            None => sim.stats.mean_latency(),
        },
        mean_net_latency: match &steady {
            Some(p) => p.mean_net_latency,
            None => sim.stats.mean_net_latency(),
        },
        p50_latency: match &steady {
            Some(p) => p.p50_latency,
            None => sim.stats.hist.quantile(0.5),
        },
        p99_latency: match &steady {
            Some(p) => p.p99_latency,
            None => sim.stats.hist.quantile(0.99),
        },
        mean_hops: match &steady {
            Some(p) => p.mean_hops,
            None => sim.stats.mean_hops(),
        },
        saturated: steady.as_ref().is_some_and(|p| p.saturated),
        attempted_packets: attempted,
        delivered_packets: delivered,
        dropped_packets: dropped,
        stranded_packets: stranded,
        delivered_fraction,
        wedged: sim.watchdog_report().is_some(),
        logical_sent: transport.as_ref().map_or(0, |t| t.logical_sent),
        logical_delivered: transport.as_ref().map_or(0, |t| t.logical_delivered),
        retransmits: transport.as_ref().map_or(0, |t| t.retransmits),
        duplicates_dropped: transport.as_ref().map_or(0, |t| t.duplicates_dropped),
        abandoned: transport.as_ref().map_or(0, |t| t.abandoned),
        recovered: transport.as_ref().map_or(0, |t| t.recovered),
        recovery_p50: transport.as_ref().map_or(0.0, |t| t.recovery_p50),
        recovery_p99: transport.as_ref().map_or(0.0, |t| t.recovery_p99),
        goodput_overhead: transport.as_ref().map_or(0.0, |t| {
            t.retransmitted_flits as f64 / sim.stats.total_delivered_flits.max(1) as f64
        }),
        time_to_recover: transport.as_ref().map_or(0, |t| {
            if t.recovered > 0 {
                t.last_recovery_cycle.saturating_sub(point.fault.kill_cycle)
            } else {
                0
            }
        }),
        llr_replays: sim.stats.llr_replays,
        crc_errors: sim.stats.crc_errors,
        flaps_survived: sim.stats.flaps,
    };
    let summary = sim.metrics().map(|m| m.summary());
    (hxsim::versioned_json_row(&row), summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultProtocol, NetworkSpec};

    fn point(algo: &str) -> Point {
        Point {
            kind: Kind::Steady,
            network: NetworkSpec {
                dims: 2,
                width: 2,
                terminals: 1,
            },
            pattern: "UR".to_string(),
            algo: algo.to_string(),
            load: 0.1,
            seed: 1,
            fails: 0,
            router_fails: 0,
            retransmit: 0,
            sim: hxsim::SimConfig::default(),
            steady: hxsim::SteadyOpts {
                warmup_window: 64,
                max_warmup_windows: 2,
                measure_cycles: 64,
                ..hxsim::SteadyOpts::default()
            },
            fault: FaultProtocol::default(),
        }
    }

    /// `run_point` returns a point's panic as its message instead of
    /// unwinding into the pool, and a sound point's row names its digest.
    #[test]
    fn run_point_catches_the_panic_of_an_unknown_algorithm() {
        let error = run_point(&point("NoSuchAlgo"), None)
            .err()
            .expect("execute_point panics on an unknown algorithm");
        assert!(error.contains("unknown algorithm NoSuchAlgo"), "{error}");

        let good = point("DOR");
        let run = run_point(&good, None).expect("DOR runs");
        assert!(run.metrics.is_none());
        assert!(run.row.contains(&format!(
            "\"digest\":\"{}\"",
            digest_hex(point_digest(&good))
        )));
    }
}
