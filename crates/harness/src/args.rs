//! The workspace's shared dependency-free CLI parser.
//!
//! One implementation serves both the `hx` orchestrator and (re-exported
//! as `hxbench::args`) all nine experiment binaries. Grammar: `--key
//! value` pairs, bare `--flag`s, and positional operands. Each caller
//! names the options it accepts, which is what tells a value option (it
//! always takes the next token) from a bool flag (it never does, so
//! `--force spec.toml` keeps the path positional). Any other `--option`
//! is an error: a typo must not quietly run a different experiment.

use std::collections::HashMap;

/// Minimal `--key value` / `--flag` / positional command-line parser.
pub struct Args {
    named: HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()` accepting the value options `values` and
    /// the bool flags `flags`. Exits with status 2 and a message naming the
    /// offending option on anything else.
    pub fn parse(values: &[&str], flags: &[&str]) -> Self {
        Self::from_args(std::env::args().skip(1), values, flags).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parses an explicit argument list; see [`Self::parse`].
    pub fn from_args(
        items: impl IntoIterator<Item = String>,
        values: &[&str],
        flags: &[&str],
    ) -> Result<Self, String> {
        let mut args = Args {
            named: HashMap::new(),
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut items = items.into_iter();
        while let Some(a) = items.next() {
            let Some(key) = a.strip_prefix("--") else {
                args.positional.push(a);
                continue;
            };
            if values.contains(&key) {
                let v = items.next().ok_or(format!("--{key} needs a value"))?;
                args.named.insert(key.to_string(), v);
            } else if flags.contains(&key) {
                args.flags.push(key.to_string());
            } else {
                return Err(format!("unknown option --{key}"));
            }
        }
        Ok(args)
    }

    /// Value of `--key`, if present (the last one when repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.named.get(key).map(String::as_str)
    }

    /// Whether `--flag` was passed.
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

    const VALUES: &[&str] = &["pattern", "seed", "load", "workers"];
    const FLAGS: &[&str] = &["full", "force", "verbose"];

    fn try_args(s: &str) -> Result<Args, String> {
        Args::from_args(s.split_whitespace().map(String::from), VALUES, FLAGS)
    }

    fn args(s: &str) -> Args {
        try_args(s).unwrap()
    }

    #[test]
    fn parses_named_and_flags() {
        let a = args("--pattern UR --full --seed 7");
        assert_eq!(a.get("pattern"), Some("UR"));
        assert!(a.flag("full"));
        assert_eq!(a.get_or("seed", 0u64), 7);
        assert_eq!(a.get_or("load", 42u64), 42);
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn trailing_flag_parses() {
        let a = args("--verbose");
        assert!(a.flag("verbose"));
    }

    #[test]
    fn positionals_are_kept_in_order() {
        let a = args("sweep spec.toml --workers 4 --force");
        assert_eq!(a.positional(), &["sweep", "spec.toml"]);
        assert_eq!(a.get_or("workers", 1usize), 4);
        assert!(a.flag("force"));
    }

    /// A bool flag never takes a value, so a path after it stays
    /// positional.
    #[test]
    fn bool_flags_do_not_swallow_positionals() {
        let a = args("--force spec.toml --workers 4");
        assert_eq!(a.positional(), &["spec.toml"]);
        assert!(a.flag("force"));
        assert_eq!(a.get("workers"), Some("4"));
    }

    /// An option the caller did not name is an error, whether it looks
    /// like a value option or a flag — a misspelt `--laod 0.5` must not
    /// run the default load.
    #[test]
    fn unknown_options_are_errors() {
        let err = try_args("--laod 0.5").err().expect("--laod is unknown");
        assert!(err.contains("--laod"), "{err}");
        assert!(try_args("--seed 1 --threads 2").is_err());
        assert!(try_args("spec.toml --bogus").is_err());
    }

    #[test]
    fn value_options_require_values() {
        let err = try_args("--seed").err().expect("--seed needs a value");
        assert!(err.contains("--seed"), "{err}");
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
        assert_eq!(a.try_get_or("workers", 42u64), Ok(42));
        let a2 = args("--seed 7");
        assert_eq!(a2.try_get_or("seed", 0u64), Ok(7));
    }
}
