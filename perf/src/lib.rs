//! `hxperf` — one benchmark for the HyperX simulator and the `hx` sweep
//! service: seven workloads, end-to-end metrics from untraced repetitions,
//! per-layer metrics from a traced pass and from microdrivers. See
//! `README.md` for the tables and how to read the output.

pub mod compare;
pub mod host;
pub mod metrics;
pub mod micro;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
