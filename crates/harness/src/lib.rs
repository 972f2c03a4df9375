//! # hxharness — the `hx` experiment orchestrator
//!
//! The paper's evaluation is a sweep, and this crate is the one place a
//! sweep is implemented:
//!
//! * **Declarative sweep specs** ([`spec`]): a TOML/JSON file names the
//!   network, the axes (pattern × algorithm × load × seed × fault count),
//!   simulator overrides, and per-axis-value patches; the spec expands to
//!   a deterministic point list.
//! * **Content-addressed result store** ([`store`], [`digest`]): each
//!   point is keyed by the FNV digest of its canonicalized configuration
//!   (excluding execution knobs like `tick_threads`, which PR 3 made
//!   result-invariant). `hx sweep` skips completed points, `--resume`
//!   continues an interrupted run, and `hx status` / `hx gc` inspect and
//!   prune the store.
//! * **One sweep path** ([`job`], [`runner`]): a [`Job`] is a sweep's
//!   whole lifecycle — expand, digest, answer from the store, fill slots
//!   with executed (and validated) rows or `kind = "failed"` rows, cache,
//!   and drain merged JSONL rows in deterministic spec order whatever the
//!   completion order — and [`run_point`] is the one place a point
//!   executes and a panic is caught.
//! * **Two drivers**: [`sched`] (`hx sweep`) feeds a `Job` from a local
//!   thread pool composed with per-point tick threading under a core
//!   budget; [`serve`] + [`worker`] + [`client`] (`hx serve` / `work` /
//!   `submit`) feed one per submission from TCP workers under leases.
//!   Same `Job`, same bytes.
//! * **Tables** ([`report`]): `hx report ROWS.jsonl` renders the paper's
//!   tables from merged rows alone.
//!
//! The `hx` binary (`src/main.rs`) is the CLI; the sweeps themselves are
//! the specs in `experiments/`.

pub mod args;
pub mod client;
pub mod digest;
pub mod job;
pub mod proto;
pub mod report;
pub mod runner;
pub mod sched;
pub mod serve;
pub mod spec;
pub mod store;
pub mod value;
pub mod worker;

pub use args::Args;
pub use client::{submit_text, SubmitReport};
pub use digest::{canonical_json, digest_hex, point_digest, WORKSPACE_VERSION};
pub use job::{Fill, Job, RowFile};
pub use proto::{Frame, ProtoError, PROTO_VERSION};
pub use report::{render_report, render_table};
pub use runner::{execute_point, run_point, PointRow, PointRun};
pub use sched::{run_sweep, spec_digests, SweepOpts, SweepReport};
pub use serve::{serve, ServeOpts};
pub use spec::{ExperimentSpec, FaultProtocol, Kind, NetworkSpec, Point};
pub use store::{Store, StoreMeta, DEFAULT_STORE_DIR};
pub use value::{parse_json, parse_toml, well_formed, Value};
pub use worker::{work, WorkOpts};
