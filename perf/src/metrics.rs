//! The metric tables: every name the benchmark prints, with its unit, its
//! direction, and — for end-to-end metrics — the share of the baseline
//! median by which it may worsen before `compare` calls it a regression.
//! `BENCHMARK.json` repeats these tables; `tests/tables.rs` keeps the two in
//! step.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics, each reported for every workload. `sim_*` are
/// simulated time and repeat exactly for a seed; the rest are host time.
///
/// The bounds are what a 12-second run on a shared 2-vCPU host resolves,
/// not what the issue hoped for (10 % on the host times, 3 % on memory,
/// 2 % on accepted load). The driver accepts a benchmark only if, over ten
/// runs at ten seeds, each metric's quartile spread stays within its bound
/// (it advises a third of it). Measured that way on the host this was
/// written on, after scaling by the calibration loop: `wall_s` and `cpu_s`
/// spread 3-10 %, `setup_s` 1-5 %, `peak_alloc_mb` 9-18 % on `chaos_llr`
/// (which router the seed kills) and under 0.5 % elsewhere, `sim_accepted`
/// up to 2 % (`svc_*`, whose points share few injection streams),
/// `sim_p99_cycles` under 0.6 %. At one seed the simulated metrics repeat
/// exactly, so two commits compared at the same seeds differ in them only
/// if their simulated behaviour does.
///
/// `fail_frac` (failed / attempted operations, bound 0 absolute) is the
/// seventh: the driver's contract carries it as the `failed` / `attempted`
/// keys of a result rather than as a metric, because a metric there may
/// never read 0.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_alloc_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_accepted",
        unit: "flits/term/cyc",
        better: Better::Higher,
        bound: 0.06,
    },
    EndToEnd {
        name: "sim_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// `compare` does not judge set-up times below this (the issue's "floor
/// 0.02 s"): a millisecond of jitter on a short set-up is not a regression.
pub const SETUP_FLOOR_S: f64 = 0.02;

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// The per-layer metrics of the traced pass, grouped by layer (module).
/// A metric a workload does not exercise reads 0 on that workload.
pub const PER_LAYER: [PerLayer; 70] = [
    // hxtopo / hxcore construction
    layer("topo.build_us", "us", Lower),
    layer("core.build_us.DOR", "us", Lower),
    layer("core.build_us.DimWAR", "us", Lower),
    layer("core.build_us.OmniWAR", "us", Lower),
    layer("core.build_us.UGAL", "us", Lower),
    // hxcore routing
    layer("core.route_ns.DOR", "ns", Lower),
    layer("core.route_ns.DimWAR", "ns", Lower),
    layer("core.route_ns.OmniWAR", "ns", Lower),
    layer("core.route_ns.UGAL", "ns", Lower),
    layer("core.route_candidates.DOR", "count", Lower),
    layer("core.route_candidates.DimWAR", "count", Lower),
    layer("core.route_candidates.OmniWAR", "count", Lower),
    layer("core.route_candidates.UGAL", "count", Lower),
    layer("sim.route_share", "ratio", Lower),
    layer("sim.vc_alloc_share", "ratio", Lower),
    // hxtraffic
    layer("traffic.inject_ns_per_terminal_cycle", "ns", Lower),
    layer("traffic.inject_share", "ratio", Lower),
    layer("traffic.dest_ns.UR", "ns", Lower),
    layer("traffic.dest_ns.DCR", "ns", Lower),
    // hxapp
    layer("app.pre_cycle_share", "ratio", Lower),
    layer("app.on_delivered_share", "ratio", Lower),
    layer("app.exec_cycles", "cycles", Lower),
    // hxsim::sim / network
    layer("sim.new_ms", "ms", Lower),
    layer("sim.slice64_us_p50", "us", Lower),
    layer("sim.slice64_us_p99", "us", Lower),
    layer("sim.ns_per_event", "ns", Lower),
    layer("sim.ns_per_flit_move", "ns", Lower),
    layer("sim.events", "count", Lower),
    layer("sim.flit_moves", "count", Lower),
    layer("sim.events_per_cycle", "count", Lower),
    layer("sim.executed_cycle_frac", "ratio", Lower),
    layer("sim.unattributed_share", "ratio", Lower),
    // hxsim::router / channel phases
    layer("sim.ingress_share", "ratio", Lower),
    layer("sim.crossbar_share", "ratio", Lower),
    layer("sim.channel_share", "ratio", Lower),
    // hxsim waste ratios
    layer("sim.stall_per_grant", "ratio", Lower),
    layer("sim.deroute_frac", "ratio", Lower),
    layer("sim.refused_frac", "ratio", Lower),
    layer("sim.llr_replays", "count", Lower),
    layer("sim.crc_errors", "count", Lower),
    layer("sim.retransmits", "count", Lower),
    // hxsim::event
    layer("event.schedule_ns.sparse", "ns", Lower),
    layer("event.schedule_ns.dense", "ns", Lower),
    layer("event.pop_due_ns.sparse", "ns", Lower),
    layer("event.pop_due_ns.dense", "ns", Lower),
    // hxsim modes
    layer("sim.engine_ratio", "ratio", Lower),
    layer("sim.tick2_ratio", "ratio", Lower),
    layer("sim.metrics_overhead_frac", "ratio", Lower),
    layer("sim.trace_overhead_frac", "ratio", Lower),
    // hxsim memory
    layer("sim.bytes_per_terminal", "B", Lower),
    layer("sim.allocs_per_cycle", "count", Lower),
    // hxharness::spec / digest / value
    layer("spec.parse_us", "us", Lower),
    layer("spec.expand_us_per_point", "us", Lower),
    layer("digest.point_ns", "ns", Lower),
    layer("value.parse_json_mb_per_s", "MiB/s", Higher),
    // hxharness::store
    layer("store.insert_us_p50", "us", Lower),
    layer("store.insert_us_p99", "us", Lower),
    layer("store.lookup_us_p50", "us", Lower),
    layer("store.lookup_us_p99", "us", Lower),
    // hxharness::proto
    layer("proto.encode_ns_per_frame", "ns", Lower),
    layer("proto.decode_ns_per_frame", "ns", Lower),
    layer("proto.bytes_per_point", "B", Lower),
    // hxharness::runner / sched / serve
    layer("runner.point_fixed_ms", "ms", Lower),
    layer("sched.overhead_frac", "ratio", Lower),
    layer("sched.par_eff_2w", "ratio", Higher),
    layer("serve.overhead_frac", "ratio", Lower),
    layer("serve.first_row_ms", "ms", Lower),
    layer("serve.warm_points_per_s", "1/s", Higher),
    // host
    layer("host.calib_ms_p50", "ms", Lower),
    layer("host.calib_spread", "ratio", Lower),
];
