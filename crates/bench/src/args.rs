//! Uniform CLI surface for the experiment binaries.
//!
//! [`Args`] is the workspace-shared parser — one implementation, living in
//! `hxharness::args`, used by both the `hx` orchestrator and all nine
//! experiment binaries (this module re-exports it). [`CommonArgs`] bundles
//! the switches every binary accepts the same way:
//!
//! * `--seed N` — base RNG seed (default 1);
//! * `--threads N` — per-simulation tick threads (deterministic: results
//!   are bit-identical for any N; default follows `HX_TICK_THREADS`);
//! * `--full` / `HX_FULL=1` — the paper-scale configuration;
//! * `--json PATH` — machine-readable JSONL output.

pub use hxharness::Args;

/// The switches shared by every experiment binary, parsed identically.
pub struct CommonArgs {
    /// Base RNG seed (`--seed`, default 1).
    pub seed: u64,
    /// Tick threads per simulation (`--threads`, default `HX_TICK_THREADS`
    /// via `SimConfig::default()`).
    pub threads: usize,
    /// Paper-scale configuration requested (`--full` or `HX_FULL=1`).
    pub full: bool,
    /// JSONL output path (`--json`), if requested.
    pub json: Option<String>,
}

impl CommonArgs {
    /// Parses the common switches out of `args`.
    pub fn parse(args: &Args) -> Self {
        CommonArgs {
            seed: args.get_or("seed", 1),
            threads: args.get_or("threads", hxsim::SimConfig::default().tick_threads),
            full: args.full_scale(),
            json: args.get("json").map(str::to_string),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_args_parse_uniformly() {
        let a = Args::from_args(
            "--seed 9 --threads 3 --full --json out.jsonl"
                .split_whitespace()
                .map(String::from),
        );
        let c = CommonArgs::parse(&a);
        assert_eq!(c.seed, 9);
        assert_eq!(c.threads, 3);
        assert!(c.full);
        assert_eq!(c.json.as_deref(), Some("out.jsonl"));
    }

    #[test]
    fn common_args_defaults() {
        let a = Args::from_args(std::iter::empty());
        let c = CommonArgs::parse(&a);
        assert_eq!(c.seed, 1);
        assert_eq!(c.threads, hxsim::SimConfig::default().tick_threads);
        assert!(c.json.is_none());
    }
}
