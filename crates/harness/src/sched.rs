//! Point-level sweep scheduler: the local driver of a [`Job`].
//!
//! Independent sweep points run across a worker pool (coarse-grained
//! parallelism, composed with per-point `tick_threads` under a
//! points×threads core budget). Completed points are announced on stderr
//! in completion order; the merged JSONL output streams in deterministic
//! spec order through the job's commit frontier, so the output file is
//! always a prefix of the final result.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Mutex;

use hxsim::{MetricsConfig, MetricsSummary};

use crate::digest::point_digest;
use crate::job::{Fill, Job, RowFile};
use crate::runner::{resolve_tick_threads, run_point};
use crate::spec::ExperimentSpec;
use crate::store::Store;

/// Execution options for [`run_sweep`].
#[derive(Clone, Debug, Default)]
pub struct SweepOpts {
    /// Worker threads executing points concurrently. 0 = derive from the
    /// budget.
    pub workers: usize,
    /// `tick_threads` per point (intra-simulation parallelism). 0 = the
    /// `HX_TICK_THREADS` default.
    pub tick_threads: usize,
    /// Core budget: workers × tick_threads is kept at or under this.
    /// 0 = all cores.
    pub budget: usize,
    /// Recompute every point, ignoring cached results (fresh entries are
    /// still written back).
    pub force: bool,
    /// Execute at most this many uncached points, then stop committing —
    /// deliberately equivalent to killing the sweep mid-run. Drives the
    /// interruption/resume tests.
    pub stop_after: Option<usize>,
    /// Collect the cycle-level metrics layer on every executed point.
    /// Implies `force`: a cache hit runs no simulation, so it cannot
    /// produce a metrics stream.
    pub metrics: Option<MetricsConfig>,
    /// Emit progress lines on stderr.
    pub progress: bool,
}

/// Outcome of a sweep.
pub struct SweepReport {
    /// Total points in the spec.
    pub total: usize,
    /// Points answered from the store.
    pub cached: usize,
    /// Points actually simulated.
    pub executed: usize,
    /// Result rows in spec order (serialized JSON, no trailing newline).
    /// Shorter than `total` only when `stop_after` interrupted the run.
    pub rows: Vec<String>,
    /// Per-point metrics summaries (point index, summary), when requested.
    pub metrics: Vec<(usize, MetricsSummary)>,
    /// Whether every point completed.
    pub complete: bool,
    /// Points whose execution panicked: `(spec index, description)`. The
    /// sweep keeps running past a panic — the point's slot is filled with
    /// a `kind = "failed"` row (so the in-order commit frontier advances
    /// and every other result is preserved) and nothing is cached for it.
    pub failed: Vec<(usize, String)>,
}

/// What the pool's threads share: the job, its output file, and what the
/// report collects on the side.
struct Shared {
    job: Job,
    out: RowFile,
    /// Points handed out so far (indices into the to-do list).
    claimed: usize,
    metrics: Vec<(usize, MetricsSummary)>,
    failed: Vec<(usize, String)>,
    /// The store or output write failure that aborts the sweep.
    error: Option<String>,
}

impl Shared {
    /// Streams newly contiguous rows to the output file.
    fn commit(&mut self) -> Result<(), String> {
        let out = &mut self.out;
        self.job.drain(|_, row| out.write(row))
    }
}

/// Runs every point of `spec`: cached points are answered from `store`,
/// the rest execute on the worker pool. Completed rows stream to `out`
/// (truncated first) in spec order. Returns the report with all committed
/// rows, also in spec order.
pub fn run_sweep(
    spec: &ExperimentSpec,
    store: Option<&Store>,
    out: Option<&Path>,
    opts: &SweepOpts,
) -> Result<SweepReport, String> {
    let force = opts.force || opts.metrics.is_some();
    let job = Job::new(spec, store.filter(|_| !force));
    let todo = job.todo();

    // Resolve the parallelism triple: budget >= workers * tick_threads.
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let budget = if opts.budget == 0 { cores } else { opts.budget };
    let tick_threads = resolve_tick_threads(opts.tick_threads);
    let workers = if opts.workers == 0 {
        (budget / tick_threads).max(1)
    } else {
        opts.workers.min((budget / tick_threads).max(1))
    }
    .min(job.total().max(1));
    if opts.progress {
        eprintln!(
            "sweep {}: {} points ({} cached, {} to run) on {} worker(s) x {} tick-thread(s)",
            spec.name,
            job.total(),
            job.cached(),
            todo.len(),
            workers,
            tick_threads
        );
    }

    let mut shared = Shared {
        job,
        out: RowFile::create(out)?,
        claimed: 0,
        metrics: Vec::new(),
        failed: Vec::new(),
        error: None,
    };
    shared.commit()?;
    let shared = Mutex::new(shared);

    // `run_point` is the only `catch_unwind`: it turns a point's panic into
    // a failed row. Any other panic in a worker (and the poisoned-lock
    // panics it then causes in the others) re-raises from the scope once
    // every worker has been joined.
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let (i, point) = {
                    let mut sh = shared.lock().expect("another sweep worker panicked");
                    let stop = sh.error.is_some()
                        || sh.claimed == todo.len()
                        || opts.stop_after.is_some_and(|cap| sh.claimed >= cap);
                    if stop {
                        break;
                    }
                    let i = todo[sh.claimed];
                    sh.claimed += 1;
                    (i, sh.job.point(i).clone())
                };
                let (outcome, summary, elapsed_ms) =
                    match run_point(&point, tick_threads, opts.metrics) {
                        Ok(run) => (Ok((run.row, run.elapsed_ms)), run.metrics, run.elapsed_ms),
                        Err(msg) => (Err(msg), None, 0),
                    };
                let mut sh = shared.lock().expect("another sweep worker panicked");
                match sh.job.fill(i, outcome, store) {
                    Ok(Fill::Executed) => {
                        if let Some(sum) = summary {
                            sh.metrics.push((i, sum));
                        }
                        if opts.progress {
                            eprintln!(
                                "  [{}/{}] {point} ({elapsed_ms} ms)",
                                sh.job.executed(),
                                todo.len()
                            );
                        }
                    }
                    Ok(Fill::Failed(msg)) => {
                        eprintln!("sweep {}: point {point} FAILED: {msg}", spec.name);
                        sh.failed.push((i, format!("{point}: {msg}")));
                    }
                    // Every to-do index is claimed once.
                    Ok(Fill::Dropped) => {}
                    Err(e) => {
                        sh.error = Some(e);
                        break;
                    }
                }
                if let Err(e) = sh.commit() {
                    sh.error = Some(e);
                    break;
                }
            });
        }
    });

    let Shared {
        job,
        mut metrics,
        mut failed,
        error,
        ..
    } = shared.into_inner().expect("a sweep worker panicked");
    if let Some(e) = error {
        return Err(e);
    }
    let complete = job.is_complete();
    metrics.sort_by_key(|(i, _)| *i);
    failed.sort_by_key(|(i, _)| *i);
    if opts.progress {
        let interrupted = if complete { "" } else { " (interrupted)" };
        eprintln!("sweep {job}{interrupted}");
    }
    Ok(SweepReport {
        total: job.total(),
        cached: job.cached(),
        executed: job.executed(),
        rows: job.into_rows(),
        metrics,
        complete,
        failed,
    })
}

/// All digests a spec's points reach (for `hx gc`).
pub fn spec_digests(spec: &ExperimentSpec) -> HashSet<u64> {
    spec.expand().iter().map(point_digest).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::parse_toml;

    const SPEC: &str = r#"
[experiment]
name = "panics"
[network]
dims = 2
width = 2
terminals = 1
[axes]
pattern = ["UR"]
algo = ["DOR", "DimWAR"]
load = [0.1]
seed = [1]
[steady]
warmup_window = 64
max_warmup_windows = 2
measure_cycles = 64
"#;

    /// A sweep runs past a panicking point. The panic is a real one: the
    /// spec is edited after validation to name an algorithm nobody
    /// implements, which `execute_point` panics on.
    #[test]
    fn panicking_point_degrades_gracefully() {
        let mut spec = ExperimentSpec::from_value(&parse_toml(SPEC).unwrap()).unwrap();
        spec.axes.algos[0] = "NoSuchAlgo".to_string();
        let report = run_sweep(&spec, None, None, &SweepOpts::default()).unwrap();

        assert_eq!(report.total, 2);
        assert!(report.complete, "sweep must run past the panic");
        assert_eq!(report.rows.len(), 2, "frontier advanced past the failure");
        assert_eq!(
            report.executed, 1,
            "the panicking point must not count as executed"
        );
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].0, 0, "the edited algorithm expands first");
        assert!(report.failed[0].1.contains("NoSuchAlgo"));
        assert!(report.rows[0].contains("\"kind\":\"failed\""));
        assert!(report.rows[0].contains("unknown algorithm NoSuchAlgo"));
        assert!(report.rows[1].contains("\"algo\":\"DimWAR\""));
        assert!(report.rows[1].contains("\"kind\":\"steady\""));
    }
}
