//! JSON artifact output for experiment binaries.
//!
//! Every bin can persist its raw results under `target/experiments/` so
//! runs are diffable across machines and commits; `EXPERIMENTS.md` records
//! the curated numbers, these files carry everything.

use serde::Serialize;
use std::path::PathBuf;

/// Writes `value` as pretty JSON to `target/experiments/<name>.json`,
/// creating the directory as needed. Failures are reported on stderr and
/// swallowed — artifact persistence must never fail an experiment run.
///
/// Returns the path on success.
///
/// # Examples
///
/// ```
/// let path = cisgraph_bench::artifacts::write_json("doctest_artifact", &vec![1, 2, 3]);
/// assert!(path.is_some());
/// std::fs::remove_file(path.unwrap()).ok();
/// ```
pub fn write_json<T: Serialize>(name: &str, value: &T) -> Option<PathBuf> {
    let dir = PathBuf::from("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        cisgraph_obs::log!(warn, "cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    let json = match serde_json::to_string_pretty(value) {
        Ok(j) => j,
        Err(e) => {
            cisgraph_obs::log!(warn, "cannot serialize {name}: {e}");
            return None;
        }
    };
    match std::fs::write(&path, json) {
        Ok(()) => {
            cisgraph_obs::log!(info, "raw results written to {}", path.display());
            Some(path)
        }
        Err(e) => {
            cisgraph_obs::log!(warn, "cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_pretty_json() {
        let path = write_json("artifact_unit_test", &vec![1, 2]).expect("write succeeds");
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "[\n  1,\n  2\n]");
        std::fs::remove_file(path).ok();
    }
}
