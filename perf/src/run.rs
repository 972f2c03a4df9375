//! The run loop: untraced repetitions (interleaved round-robin across
//! workloads so host drift is shared), then one traced pass per workload.
//! End-to-end metrics come from the untraced repetitions only.

use std::collections::BTreeMap;
use std::time::Instant;

use hxharness::{execute_point, ExperimentSpec};

use crate::host::calibrate_ms;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::micro::{self, Samples};
use crate::span::Tracer;
use crate::stats::{median, Summary};
use crate::workloads::{Env, Rep, Variant, Workload, FIG6_SPEC, SVC_SPEC};

/// Repetitions of a run when neither `--reps` nor `--seconds` says.
pub const DEFAULT_REPS: usize = 7;
/// A timed run never makes fewer repetitions than this.
pub const MIN_REPS: usize = 5;
/// Seeds a run cycles through, one per repetition (see [`sub_seed`]).
pub const SUB_SEEDS: usize = 5;
/// Calibration time every repetition's host times are scaled to, in
/// milliseconds (see [`Outcome::rep_scales`]); what the loop takes on the
/// 2.1 GHz Xeon the benchmark was written on.
pub const CALIB_REF_MS: f64 = 7.0;
/// Calibration spread above which a run is marked noisy.
pub const NOISY_SPREAD: f64 = 0.10;

/// How long to keep repeating.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Reps(usize),
    /// At least [`MIN_REPS`] repetitions, then until this many seconds have
    /// been measured.
    Seconds(f64),
}

/// The seed of repetition `round` in a run at `seed`.
///
/// The driver accepts a benchmark only if each metric stays put from one
/// `--seed` to the next, and some of what is measured here depends on the
/// seed far more than on the code: which router `chaos_llr` kills moves its
/// allocator high-water between 31 and 57 MiB, the injection stream moves
/// `svc_*`'s mean accepted load by 10 %, the placement moves
/// `stencil_burst`'s run time by 5 %. So a run covers [`SUB_SEEDS`] seeds
/// derived from `seed`, cycling one per repetition, and reports medians
/// across them; repetitions `r` and `r + SUB_SEEDS` simulate the same thing
/// and must agree.
pub fn sub_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64)
        .wrapping_add((round % SUB_SEEDS) as u64)
}

/// Everything measured for one workload.
pub struct Outcome {
    pub name: &'static str,
    pub why: &'static str,
    pub open_loop: bool,
    /// Untraced repetitions, in order, and the seed each ran at.
    pub reps: Vec<Rep>,
    pub rep_seeds: Vec<u64>,
    /// Per repetition, [`CALIB_REF_MS`] over the mean of the calibration
    /// loops run just before and just after it. The host this was written
    /// on moves between a faster and a slower state every few seconds to
    /// minutes; unscaled, whole runs read 10-25 % apart. The calibration
    /// loop moves with it, so a repetition's host times are reported times
    /// this factor — seconds as they would read with the loop at 7 ms —
    /// which halves the run-to-run spread (README, "Calibration").
    pub rep_scales: Vec<f64>,
    /// Reported value and summary per end-to-end metric, from `reps`.
    pub end_to_end: BTreeMap<&'static str, Metric>,
    /// Per-layer values and sample counts (traced pass; empty if skipped).
    pub per_layer: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub digest: u64,
}

/// One end-to-end metric of a run.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// What the run reports: the median of `summary`, except for
    /// `peak_alloc_mb`, which reports the mean — `chaos_llr`'s allocator
    /// high-water takes a few discrete levels (a buffer doubles or does
    /// not, depending on which router the seed kills), and a median of
    /// five flips between them.
    pub value: f64,
    /// Over every repetition, scaled, for host times; over one cycle of
    /// sub-seeds for what a seed determines exactly.
    pub summary: Summary,
}

impl Outcome {
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }
}

fn metric_of(rep: &Rep, name: &str) -> f64 {
    match name {
        "setup_s" => rep.setup_s,
        "wall_s" => rep.wall_s,
        "cpu_s" => rep.cpu_s,
        "peak_alloc_mb" => rep.peak_alloc_mb,
        "sim_accepted" => rep.sim_accepted,
        "sim_p99_cycles" => rep.sim_p99_cycles,
        other => unreachable!("no end-to-end metric named {other}"),
    }
}

/// Runs the untraced repetitions of `workloads` at `seed`, round-robin,
/// with the calibration loop before and after each. Repetitions cycle
/// through the run's sub-seeds, or all use the first when `vary` is false
/// (the baseline of a traced-only run). Returns the outcomes and the
/// calibration samples (milliseconds).
pub fn untraced(
    workloads: &[Workload],
    env: &Env,
    seed: u64,
    budget: Budget,
    vary: bool,
) -> (Vec<Outcome>, Vec<f64>) {
    let mut outcomes: Vec<Outcome> = workloads
        .iter()
        .map(|w| Outcome {
            name: w.name,
            why: w.why,
            open_loop: w.open_loop,
            reps: Vec::new(),
            rep_seeds: Vec::new(),
            rep_scales: Vec::new(),
            end_to_end: BTreeMap::new(),
            per_layer: Samples::new(),
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            digest: 0,
        })
        .collect();
    let mut calib = vec![calibrate_ms()];
    let started = Instant::now();
    let mut round = 0;
    loop {
        let more = match budget {
            Budget::Reps(n) => round < n,
            Budget::Seconds(s) => round < MIN_REPS || started.elapsed().as_secs_f64() < s,
        };
        if !more {
            break;
        }
        let rep_seed = sub_seed(seed, if vary { round } else { 0 });
        for (w, out) in workloads.iter().zip(&mut outcomes) {
            let mut tr = Tracer::new(false, w.name, round as u32);
            let mut rep = w.rep(env, rep_seed, Variant::Plain, &mut tr);
            // The calibration loop that opened the repetition counts as
            // set-up. Its ~7 ms are the floor of `setup_s`: five workloads
            // set up in well under a millisecond, nearly all of it
            // thread-start and file-system jitter that reads +-50 % from
            // one run to the next.
            let before = *calib.last().expect("seeded with one sample");
            rep.setup_s += before / 1e3;
            let after = calibrate_ms();
            calib.push(after);
            out.reps.push(rep);
            out.rep_seeds.push(rep_seed);
            out.rep_scales.push(CALIB_REF_MS / ((before + after) / 2.0));
        }
        round += 1;
    }
    for out in &mut outcomes {
        // Host times use every repetition, each scaled by its own factor.
        // What a seed determines exactly (simulated results, allocator
        // high-water) uses one cycle of sub-seeds, so it reads the same
        // however many repetitions fit.
        let cycle = out.reps.len().min(SUB_SEEDS);
        for m in &END_TO_END {
            let host_time = matches!(m.name, "setup_s" | "wall_s" | "cpu_s");
            let values: Vec<f64> = if host_time {
                let scaled = out.reps.iter().zip(&out.rep_scales);
                scaled.map(|(r, s)| metric_of(r, m.name) * s).collect()
            } else {
                let exact = out.reps[..cycle].iter();
                exact.map(|r| metric_of(r, m.name)).collect()
            };
            let summary = Summary::of(&values);
            let value = if m.name == "peak_alloc_mb" {
                summary.mean
            } else {
                summary.median
            };
            out.end_to_end.insert(m.name, Metric { value, summary });
        }
        out.attempted = out.reps.iter().map(|r| r.attempted).sum();
        out.failed = out.reps.iter().map(|r| r.failed).sum();
        out.notes = out.reps.iter().flat_map(|r| r.notes.clone()).collect();
        let digests: Vec<String> = out.reps[..cycle]
            .iter()
            .map(|r| format!("{:016x}", r.digest))
            .collect();
        out.digest = hxsim::fnv1a(digests.join(",").as_bytes());
        // One seed, one result: a repetition must reproduce the earlier
        // one that ran at its seed.
        for i in 0..out.reps.len() {
            let first = out.rep_seeds.iter().position(|&s| s == out.rep_seeds[i]);
            let first = first.expect("a repetition's own seed is in the list");
            if out.reps[i].digest != out.reps[first].digest {
                let (a, b) = (out.reps[first].digest, out.reps[i].digest);
                out.fail(format!(
                    "repetition {i} produced digest {b:016x}, repetition {first} {a:016x} at the same seed"
                ));
            }
        }
    }
    (outcomes, calib)
}

/// The traced pass for one workload: one traced repetition, the variant
/// repetitions behind the mode ratios, and the microdrivers. Fills
/// `out.per_layer` (every name of [`PER_LAYER`]; 0 where the workload does
/// not exercise the layer), appends the spans to `trace`, and counts a
/// failed expectation as a failed operation.
pub fn traced(
    w: &Workload,
    env: &Env,
    seed: u64,
    calib: &[f64],
    out: &mut Outcome,
    trace: &mut String,
) {
    // Everything here runs at the seed of repetition 0 and is compared
    // with the untraced repetitions that ran at that seed.
    let rep_seed = out.rep_seeds[0];
    let base: Vec<&Rep> = out
        .reps
        .iter()
        .zip(&out.rep_seeds)
        .filter(|(_, &s)| s == rep_seed)
        .map(|(r, _)| r)
        .collect();
    let base_digest = base[0].digest;
    let base_rows = base[0].rows.clone();
    let base_wall = median(&base.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let base_allocs = median(&base.iter().map(|r| r.allocs as f64).collect::<Vec<_>>());
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut samples = Samples::new();

    // The traced repetition.
    let mut tr = Tracer::new(true, w.name, out.reps.len() as u32);
    let rep = w.rep(env, rep_seed, Variant::Plain, &mut tr);
    tr.write_jsonl(trace);
    layer.extend(rep.layer.iter().map(|(k, v)| (*k, *v)));
    layer.insert("sim.trace_overhead_frac", rep.wall_s / base_wall - 1.0);
    if rep.digest != base_digest || rep.rows != base_rows {
        out.fail(format!(
            "traced repetition produced digest {:016x}, untraced {base_digest:016x}",
            rep.digest
        ));
    }
    out.attempted += rep.attempted;
    out.failed += rep.failed;
    out.notes
        .extend(rep.notes.iter().map(|n| format!("traced: {n}")));
    // Self times over the timed subtree must add up to the phase's wall
    // time, measured independently around it.
    let frac = tr.self_ns_under("timed") as f64 / (rep.wall_s * 1e9);
    if (frac - 1.0).abs() > 0.05 {
        out.fail(format!(
            "span self times sum to {frac:.3} of the traced wall time"
        ));
    }
    let sim_cycles = tr.count_total("sim.cycles");
    let events = layer.get("sim.events").copied().unwrap_or(0.0);
    let moves = layer.get("sim.flit_moves").copied().unwrap_or(0.0);

    // Mode ratios, each from one more repetition.
    if !w.is_served() {
        let mut off = Tracer::new(false, w.name, 0);
        let cycle = w.rep(env, rep_seed, Variant::CycleEngine, &mut off);
        layer.insert("sim.engine_ratio", base_wall / cycle.wall_s);
        if cycle.digest != base_digest {
            out.fail("the cycle engine produced a different result".into());
        }
        let metrics = w.rep(env, rep_seed, Variant::MetricsOn, &mut off);
        layer.insert(
            "sim.metrics_overhead_frac",
            metrics.wall_s / base_wall - 1.0,
        );
        for (k, v) in &metrics.layer {
            layer.entry(k).or_insert(*v);
        }
    }
    if w.is_sweep() {
        let executed = tr.total_ns("runner.execute_point") as f64 / 1e9;
        if executed > 0.0 {
            layer.insert("sched.overhead_frac", (base_wall - executed) / base_wall);
        }
    }
    if w.name == "fig6_ur" {
        let mut spec = ExperimentSpec::parse(FIG6_SPEC, "toml").expect("frozen spec parses");
        spec.axes.seeds = vec![rep_seed];
        let point = spec
            .expand()
            .into_iter()
            .find(|p| p.algo == "OmniWAR" && p.load == 0.5)
            .expect("fig6_ur holds the OmniWAR 0.5 point");
        let time = |threads: usize| {
            let t = Instant::now();
            std::hint::black_box(execute_point(&point, threads, None));
            t.elapsed().as_secs_f64()
        };
        let serial = time(1);
        layer.insert("sim.tick2_ratio", time(2) / serial);
    }
    if w.name == "svc_cold" {
        let mut off = Tracer::new(false, w.name, 0);
        let local = w.rep(env, rep_seed, Variant::Local, &mut off);
        if local.rows != base_rows {
            out.fail("served rows differ from the local sweep's".into());
        }
        layer.insert(
            "serve.overhead_frac",
            (base_wall - local.wall_s) / local.wall_s,
        );
        let two = w.rep(env, rep_seed, Variant::TwoWorkers, &mut off);
        layer.insert("sched.par_eff_2w", local.wall_s / (2.0 * two.wall_s));
    }
    if w.name == "svc_warm" {
        layer.insert(
            "serve.warm_points_per_s",
            tr.count_total("svc.points") / base_wall,
        );
    }
    if events > 0.0 {
        layer.insert("sim.ns_per_event", base_wall * 1e9 / events);
    }
    if moves > 0.0 {
        layer.insert("sim.ns_per_flit_move", base_wall * 1e9 / moves);
    }
    if sim_cycles > 0.0 {
        layer.insert("sim.allocs_per_cycle", base_allocs / sim_cycles);
    }

    // What the workload is for.
    let routing = layer.get("sim.route_share").copied().unwrap_or(0.0)
        + layer.get("sim.vc_alloc_share").copied().unwrap_or(0.0);
    if w.name == "dcr_sat" && routing < 0.5 && !env.quick {
        out.fail(format!(
            "route + VC allocation are {routing:.2} of dcr_sat, expected at least 0.5"
        ));
    }
    if w.name == "ladder_8k" && routing > 0.3 && !env.quick {
        out.fail(format!(
            "route + VC allocation are {routing:.2} of ladder_8k, expected at most 0.3"
        ));
    }

    // Microdrivers: a fixed seeded input set each.
    let n = if env.quick { 20 } else { 100 };
    micro::construction(w.network(), if env.quick { 3 } else { 9 }, &mut samples);
    micro::routing(seed, n, &mut samples);
    micro::traffic(seed, n, &mut samples);
    micro::event_queue(seed, if env.quick { 64 } else { 512 }, &mut samples);
    micro::service(SVC_SPEC, env, seed, n, &mut samples);

    let cal = Summary::of(calib);
    layer.insert("host.calib_ms_p50", cal.median);
    layer.insert("host.calib_spread", cal.spread());
    for m in &PER_LAYER {
        if let Some(&value) = layer.get(m.name) {
            let n = if m.name.starts_with("host.") {
                cal.n
            } else {
                1
            };
            samples.insert(m.name.to_string(), micro::Sample { value, n });
        }
        samples
            .entry(m.name.to_string())
            .or_insert(micro::Sample { value: 0.0, n: 0 });
    }
    out.per_layer = samples;
}
