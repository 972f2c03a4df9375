//! The workspace's shared dependency-free CLI parser.
//!
//! One implementation serves both the `hx` orchestrator and (re-exported
//! as `hxbench::args`) all nine experiment binaries, instead of the
//! hand-rolled per-binary parsers this grew out of. Grammar: `--key value`
//! pairs, bare `--flag`s, and positional operands (tokens not starting
//! with `--` that were not consumed as a value).

use std::collections::HashMap;

/// Minimal `--key value` / `--flag` / positional command-line parser.
pub struct Args {
    named: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()`.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (tests).
    pub fn from_args(items: impl IntoIterator<Item = String>) -> Self {
        let mut named = HashMap::new();
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut items = items.into_iter().peekable();
        while let Some(a) = items.next() {
            if let Some(key) = a.strip_prefix("--") {
                match items.peek() {
                    Some(v) if !v.starts_with("--") => {
                        named.insert(key.to_string(), items.next().unwrap());
                    }
                    _ => flags.push(key.to_string()),
                }
            } else {
                positional.push(a);
            }
        }
        Args {
            named,
            flags,
            positional,
        }
    }

    /// Value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.named.get(key).map(String::as_str)
    }

    /// Whether `--flag` was passed (with no value).
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Positional operands, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Parsed value of `--key`, or `default` when the key is absent.
    /// Returns an error when the key is present but its value does not
    /// parse — silently falling back to the default would make a typo like
    /// `--seed abc` run a different experiment than requested.
    pub fn try_get_or<T>(&self, key: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("invalid value {v:?} for --{key}: {e}")),
        }
    }

    /// Parsed value of `--key`, or `default` when absent. Aborts the
    /// process with a message on a malformed value.
    pub fn get_or<T>(&self, key: &str, default: T) -> T
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.try_get_or(key, default).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Whether the paper-scale configuration was requested (`--full` or
    /// `HX_FULL=1`).
    pub fn full_scale(&self) -> bool {
        self.flag("full") || std::env::var("HX_FULL").is_ok_and(|v| v == "1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_named_and_flags() {
        let a = args("--pattern UR --full --seed 7");
        assert_eq!(a.get("pattern"), Some("UR"));
        assert!(a.flag("full"));
        assert_eq!(a.get_or("seed", 0u64), 7);
        assert_eq!(a.get_or("missing", 42u64), 42);
        assert!(!a.flag("json"));
    }

    #[test]
    fn trailing_flag_parses() {
        let a = args("--verbose");
        assert!(a.flag("verbose"));
    }

    #[test]
    fn positionals_are_kept_in_order() {
        let a = args("sweep spec.toml --threads 4 --resume");
        assert_eq!(a.positional(), &["sweep", "spec.toml"]);
        assert_eq!(a.get_or("threads", 1usize), 4);
        assert!(a.flag("resume"));
    }

    #[test]
    fn malformed_value_is_an_error_not_the_default() {
        let a = args("--seed abc --load 0.x5");
        let seed: Result<u64, _> = a.try_get_or("seed", 0);
        let err = seed.unwrap_err();
        assert!(err.contains("--seed") && err.contains("abc"), "err={err}");
        let load: Result<f64, _> = a.try_get_or("load", 0.5);
        assert!(load.is_err());
        // Absent keys still yield the default; valid values still parse.
        assert_eq!(a.try_get_or("missing", 42u64), Ok(42));
        let a2 = args("--seed 7");
        assert_eq!(a2.try_get_or("seed", 0u64), Ok(7));
    }
}
