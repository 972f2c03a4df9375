//! One sweep, from spec to merged rows — the only implementation of the
//! lifecycle both drivers run:
//!
//! ```text
//! expand → point_digest → Store::lookup → slots
//!        → fill(index, Ok(row, elapsed_ms) | Err(message))
//!        → Store::insert or a kind = "failed" row
//!        → in-order drain(sink) → cached / executed / failed counts
//! ```
//!
//! `sched::run_sweep` drives a [`Job`] with a thread pool and a file
//! sink; `serve` drives one per submission with TCP workers under its
//! lease state machine and a `Frame::Row` sink. Neither keeps slots, a
//! frontier or counts of its own, so the merged JSONL is byte-identical
//! between them by construction: a row is committed as soon as every
//! earlier point has one (the in-order commit frontier), so what a sink
//! has seen is always a prefix of the final result — whichever point
//! finished first, for every worker and thread count.

use std::io::Write;
use std::path::Path;

use crate::digest::{digest_hex, point_digest};
use crate::spec::{ExperimentSpec, Point};
use crate::store::{Store, StoreMeta};
use crate::value::{object_member, Value};

/// The merged-output row a point leaves behind when it produced no
/// usable result: it panicked, or its row failed validation.
#[derive(serde::Serialize)]
struct FailedRow {
    kind: &'static str,
    digest: String,
    pattern: String,
    algo: String,
    seed: u64,
    fails: u64,
    router_fails: u64,
    retransmit: u64,
    offered: f64,
    error: String,
}

fn failed_row(point: &Point, digest: u64, error: &str) -> String {
    hxsim::versioned_json_row(&FailedRow {
        kind: "failed",
        digest: digest_hex(digest),
        pattern: point.pattern.clone(),
        algo: point.algo.clone(),
        seed: point.seed,
        fails: point.fails as u64,
        router_fails: point.router_fails as u64,
        retransmit: point.retransmit,
        offered: point.load,
        error: error.to_string(),
    })
}

/// A row is spliced verbatim into JSONL output and into a two-line store
/// entry, and a remote worker is outside this process: anything but one
/// line holding a JSON object that names the slot's digest would split
/// the output or poison the cache under that digest.
fn check_row(row: &str, digest: u64) -> Result<(), String> {
    if row.contains(['\n', '\r']) {
        return Err("result row contains a line break".to_string());
    }
    let got = object_member(row, "digest")
        .map_err(|e| format!("result row is not a JSON object: {e}"))?;
    let want = digest_hex(digest);
    match got.as_ref().and_then(Value::as_str) {
        Some(got) if got == want => Ok(()),
        got => Err(format!(
            "result row carries digest {got:?}, the point's is {want}"
        )),
    }
}

/// What [`Job::fill`] did with an outcome.
#[derive(Debug, PartialEq)]
pub enum Fill {
    /// The slot already held a row (or the index is out of range): a
    /// duplicate or stale result. Nothing changed — the simulation is
    /// deterministic, so the duplicate is byte-identical anyway, and a
    /// filled slot is never overwritten.
    Dropped,
    /// The row was committed to the slot.
    Executed,
    /// The slot holds a `kind = "failed"` row carrying this message;
    /// nothing was cached.
    Failed(String),
}

/// The state of one sweep: its points, their digests, one output slot per
/// point, the commit frontier and the outcome counts.
pub struct Job {
    name: String,
    points: Vec<Point>,
    digests: Vec<u64>,
    slots: Vec<Option<String>>,
    frontier: usize,
    cached: usize,
    executed: usize,
    failed: usize,
}

impl Job {
    /// Expands and digests `spec`, answering every point `cache` holds.
    /// `None` looks nothing up (a forced or uncached sweep).
    pub fn new(spec: &ExperimentSpec, cache: Option<&Store>) -> Job {
        let points = spec.expand();
        let digests: Vec<u64> = points.iter().map(point_digest).collect();
        let slots: Vec<Option<String>> = match cache {
            Some(store) => digests.iter().map(|&d| store.lookup(d)).collect(),
            None => vec![None; points.len()],
        };
        Job {
            name: spec.name.clone(),
            cached: slots.iter().flatten().count(),
            points,
            digests,
            slots,
            frontier: 0,
            executed: 0,
            failed: 0,
        }
    }

    pub fn total(&self) -> usize {
        self.points.len()
    }

    /// Points answered from the store.
    pub fn cached(&self) -> usize {
        self.cached
    }

    /// Points filled with a simulated row.
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Points degraded to a `kind = "failed"` row.
    pub fn failed(&self) -> usize {
        self.failed
    }

    pub fn point(&self, index: usize) -> &Point {
        &self.points[index]
    }

    pub fn digest(&self, index: usize) -> u64 {
        self.digests[index]
    }

    pub fn is_filled(&self, index: usize) -> bool {
        self.slots[index].is_some()
    }

    /// Indices still waiting for a row, in spec order.
    pub fn todo(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].is_none())
            .collect()
    }

    /// Whether every row has been drained.
    pub fn is_complete(&self) -> bool {
        self.frontier == self.slots.len()
    }

    /// Records the outcome of point `index`: a simulated `(row,
    /// elapsed_ms)`, or the message of the panic that ended it. A row that
    /// fails [`check_row`] is treated as a failure too. Failures fill the
    /// slot with a `kind = "failed"` row — so the frontier advances and
    /// every other result is preserved — and are never cached.
    ///
    /// `Err` is a failed write of an executed row to `store`. The slot is
    /// filled regardless, so the caller chooses the policy: abort the
    /// sweep, or log and keep committing.
    pub fn fill(
        &mut self,
        index: usize,
        outcome: Result<(String, u64), String>,
        store: Option<&Store>,
    ) -> Result<Fill, String> {
        if self.slots.get(index).is_none_or(Option::is_some) {
            return Ok(Fill::Dropped);
        }
        let digest = self.digests[index];
        let point = &self.points[index];
        let checked = outcome.and_then(|(row, elapsed_ms)| {
            check_row(&row, digest)?;
            Ok((row, elapsed_ms))
        });
        match checked {
            Ok((row, elapsed_ms)) => {
                let stored = store.map_or(Ok(()), |store| {
                    let meta = StoreMeta {
                        kind: "store_meta",
                        digest: digest_hex(digest),
                        experiment: self.name.clone(),
                        pattern: point.pattern.clone(),
                        algo: point.algo.clone(),
                        load: point.load,
                        seed: point.seed,
                        fails: point.fails as u64,
                        elapsed_ms,
                    };
                    store.insert(digest, &meta, &row)
                });
                self.slots[index] = Some(row);
                self.executed += 1;
                stored
                    .map(|()| Fill::Executed)
                    .map_err(|e| format!("store write failed: {e}"))
            }
            Err(error) => {
                self.slots[index] = Some(failed_row(point, digest, &error));
                self.failed += 1;
                Ok(Fill::Failed(error))
            }
        }
    }

    /// Advances the frontier over every contiguous filled slot, handing
    /// `(index, row)` to `sink` in spec order. Stops at the sink's first
    /// error, leaving that row undrained.
    pub fn drain<E>(
        &mut self,
        mut sink: impl FnMut(usize, &str) -> Result<(), E>,
    ) -> Result<(), E> {
        while let Some(Some(row)) = self.slots.get(self.frontier) {
            sink(self.frontier, row)?;
            self.frontier += 1;
        }
        Ok(())
    }

    /// The drained rows, in spec order.
    pub fn into_rows(self) -> Vec<String> {
        self.slots
            .into_iter()
            .take(self.frontier)
            .map(|s| s.expect("drained slots are filled"))
            .collect()
    }
}

/// `fig6 (9 points, 2 cached, 7 executed, 0 failed)`.
impl std::fmt::Display for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} points, {} cached, {} executed, {} failed)",
            self.name,
            self.total(),
            self.cached,
            self.executed,
            self.failed
        )
    }
}

/// The merged-JSONL output file of `hx sweep` and `hx submit`: created
/// (with its parent directory) and truncated up front, one row per line.
/// `None` discards rows.
pub struct RowFile(Option<std::fs::File>);

impl RowFile {
    pub fn create(path: Option<&Path>) -> Result<RowFile, String> {
        let Some(p) = path else {
            return Ok(RowFile(None));
        };
        if let Some(parent) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
        let file =
            std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))?;
        Ok(RowFile(Some(file)))
    }

    /// Appends one row, unbuffered: a reader (or a kill) finds every
    /// committed row whole in the file.
    pub fn write(&mut self, row: &str) -> Result<(), String> {
        match &mut self.0 {
            Some(file) => file
                .write_all(format!("{row}\n").as_bytes())
                .map_err(|e| format!("write merged output: {e}")),
            None => Ok(()),
        }
    }
}
