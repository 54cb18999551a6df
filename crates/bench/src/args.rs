//! Minimal `--key value` argument parsing for the experiment binaries.
//!
//! Every binary accepts the same knobs (all optional):
//!
//! ```text
//! --scale <f64>          dataset scale factor (fraction of the real vertex count)
//! --adds <usize>         edge additions per batch
//! --dels <usize>         edge deletions per batch
//! --batches <usize>      number of batches to stream
//! --queries <usize>      number of random pairwise queries to average over
//! --seed <u64>           RNG seed
//! --dataset <name>       dataset stand-in, or|lj|uk (fig2, fig5a, fig5b)
//! --full                 paper-scale batches (50K + 50K)
//! --metrics-out <path>   write a cisgraph-obs metrics snapshot (JSON)
//! --trace-out <path>     write a Chrome trace_event file (implies metrics)
//! --trace-jsonl <path>   stream span events to a JSONL file incrementally
//! ```
//!
//! The observability flags are consumed by
//! [`ObsSession`](crate::obsout::ObsSession); see `docs/observability.md`.

use std::collections::HashMap;

/// Parsed command-line arguments.
///
/// # Examples
///
/// ```
/// use cisgraph_bench::args::Args;
///
/// let a = Args::parse_from(["--scale", "0.01", "--full"].iter().map(|s| s.to_string()));
/// assert_eq!(a.get_f64("scale"), Some(0.01));
/// assert!(a.flag("full"));
/// assert_eq!(a.get_usize("batches"), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments (skipping the binary name).
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                cisgraph_obs::log!(warn, "ignoring positional argument `{arg}`");
                continue;
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    out.values.insert(key.to_string(), value);
                }
                _ => out.flags.push(key.to_string()),
            }
        }
        out
    }

    /// A `--key value` as f64, if present and parseable.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    /// A `--key value` as usize, if present and parseable.
    pub fn get_usize(&self, key: &str) -> Option<usize> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    /// A `--key value` as u64, if present and parseable.
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    /// A `--key value` as a raw string, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Whether a bare `--flag` was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Picks the dataset stand-in from `--dataset or|lj|uk` (default OR; the
/// long names `orkut`, `livejournal` and `uk2002` and any letter case are
/// accepted too). Exits with status 2 on any other name.
pub fn pick_dataset(args: &Args) -> cisgraph_datasets::Dataset {
    use cisgraph_datasets::registry;
    match args
        .get_str("dataset")
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        None | Some("or") | Some("orkut") => registry::orkut_like(),
        Some("lj") | Some("livejournal") => registry::livejournal_like(),
        Some("uk") | Some("uk2002") => registry::uk2002_like(),
        Some(other) => {
            cisgraph_obs::log!(error, "unknown --dataset `{other}` (or|lj|uk)");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(|x| x.to_string()))
    }

    #[test]
    fn values_and_flags() {
        let a = parse(&["--scale", "0.5", "--full", "--seed", "7"]);
        assert_eq!(a.get_f64("scale"), Some(0.5));
        assert_eq!(a.get_u64("seed"), Some(7));
        assert!(a.flag("full"));
        assert!(!a.flag("quick"));
    }

    #[test]
    fn missing_keys_are_none() {
        let a = parse(&[]);
        assert_eq!(a.get_usize("batches"), None);
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["--full"]);
        assert!(a.flag("full"));
    }

    #[test]
    fn datasets_by_short_and_long_name() {
        for (name, expected) in [("OR", "orkut_like"), ("livejournal", "livejournal_like")] {
            assert_eq!(pick_dataset(&parse(&["--dataset", name])).name, expected);
        }
        assert_eq!(pick_dataset(&parse(&[])).name, "orkut_like");
    }

    #[test]
    fn unparsable_value_is_none() {
        let a = parse(&["--scale", "abc"]);
        assert_eq!(a.get_f64("scale"), None);
    }
}
