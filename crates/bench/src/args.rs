//! Uniform CLI surface for the experiment binaries.
//!
//! [`Args`] is the workspace-shared parser — one implementation, living in
//! `hxharness::args`, used by both the `hx` orchestrator and all nine
//! experiment binaries (this module re-exports it). [`CommonArgs`] bundles
//! the switches every binary accepts the same way:
//!
//! * `--seed N` — base RNG seed (default 1);
//! * `--full` / `HX_FULL=1` — the paper-scale configuration;
//! * `--json PATH` — machine-readable JSONL output.
//!
//! Any option a binary does not accept exits with status 2, naming it.

pub use hxharness::Args;

/// Value options every binary accepts.
const COMMON_VALUES: &[&str] = &["seed", "json"];
/// Bool flags every binary accepts.
const COMMON_FLAGS: &[&str] = &["full"];

/// The switches shared by every experiment binary, parsed identically.
pub struct CommonArgs {
    /// Base RNG seed (`--seed`, default 1).
    pub seed: u64,
    /// Paper-scale configuration requested (`--full` or `HX_FULL=1`).
    pub full: bool,
    /// JSONL output path (`--json`), if requested.
    pub json: Option<String>,
}

impl CommonArgs {
    /// Parses the process arguments: the common switches plus a binary's
    /// own value options `values` and bool flags `flags`. Exits with
    /// status 2 on any other option.
    pub fn parse_env(values: &[&str], flags: &[&str]) -> (Self, Args) {
        let args = Args::parse(
            &[COMMON_VALUES, values].concat(),
            &[COMMON_FLAGS, flags].concat(),
        );
        (Self::parse(&args), args)
    }

    /// Parses the common switches out of `args`.
    fn parse(args: &Args) -> Self {
        CommonArgs {
            seed: args.get_or("seed", 1),
            full: args.full_scale(),
            json: args.get("json").map(str::to_string),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::from_args(
            s.split_whitespace().map(String::from),
            COMMON_VALUES,
            COMMON_FLAGS,
        )
    }

    #[test]
    fn common_args_parse_uniformly() {
        let c = CommonArgs::parse(&args("--seed 9 --full --json out.jsonl").unwrap());
        assert_eq!(c.seed, 9);
        assert!(c.full);
        assert_eq!(c.json.as_deref(), Some("out.jsonl"));
    }

    #[test]
    fn common_args_defaults() {
        let c = CommonArgs::parse(&args("").unwrap());
        assert_eq!(c.seed, 1);
        assert!(c.json.is_none());
    }
}
