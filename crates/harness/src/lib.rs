//! # hxharness — the `hx` experiment orchestrator
//!
//! The paper's evaluation is a sweep, and this crate is the one place a
//! sweep is implemented:
//!
//! * **Declarative sweep specs** ([`spec`]): a TOML/JSON file names the
//!   network, the axes (pattern × algorithm × load × seed × fault count),
//!   and simulator settings shared by every point; the spec expands to a
//!   deterministic point list.
//! * **Content-addressed result store** (`store.rs`, `digest.rs`): each
//!   point is keyed by the FNV digest of its canonicalized configuration
//!   (excluding execution knobs like the engine, which cannot change a
//!   result). `hx sweep` skips completed points, `--resume`
//!   continues an interrupted run, and `hx status` / `hx gc` inspect and
//!   prune the store.
//! * **One sweep path** (`job.rs`, `runner.rs`): a [`Job`] is a sweep's
//!   whole lifecycle — expand, digest, answer from the store, fill slots
//!   with executed (and validated) rows or `kind = "failed"` rows, cache,
//!   and drain merged JSONL rows in deterministic spec order whatever the
//!   completion order — and [`run_point`] is the one place a point
//!   executes and a panic is caught.
//! * **Two drivers**: `sched.rs` (`hx sweep`) feeds a `Job` from a local
//!   thread pool, one point per thread; `serve.rs` + `worker.rs` +
//!   `client.rs` (`hx serve` / `work` / `submit`) feed one per submission
//!   from TCP workers under leases. Same `Job`, same bytes.
//! * **Tables** (`report.rs`): `hx report ROWS.jsonl` renders the paper's
//!   tables from merged rows alone.
//!
//! The `hx` binary (`src/main.rs`) is the CLI; the sweeps themselves are
//! the specs in `experiments/`.

mod args;
mod client;
mod digest;
mod job;
pub mod proto;
mod report;
mod runner;
mod sched;
mod serve;
pub mod spec;
mod store;
pub mod value;
mod worker;

pub use args::Args;
pub use client::{submit_text, SubmitReport};
pub use digest::{digest_hex, point_digest};
pub use job::{Fill, Job, RowFile};
pub use proto::{Frame, ProtoError};
pub use report::{render_report, render_table};
pub use runner::{execute_point, run_point, PointRow, PointRun};
pub use sched::{run_sweep, spec_digests, SweepOpts, SweepReport};
pub use serve::{serve, ServeOpts};
pub use spec::{ExperimentSpec, FaultProtocol, Kind, NetworkSpec, Point};
pub use store::{Store, StoreMeta, DEFAULT_STORE_DIR};
pub use value::{parse_json, well_formed, Value};
pub use worker::{work, WorkOpts};
