//! `--metrics-out` / `--trace-out` / `--trace-jsonl` wiring for the
//! experiment binaries.
//!
//! Every bin calls [`ObsSession::init`] right after argument parsing and
//! [`ObsSession::finish`] on its way out. Passing `--metrics-out m.json`
//! enables the [`cisgraph_obs`] sink and writes the final
//! [`cisgraph_obs::MetricsSnapshot`] there; `--trace-out t.json`
//! additionally records spans and writes a Chrome `trace_event` file
//! loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! `--trace-jsonl t.jsonl` streams span events to disk **as they
//! complete** (one JSON line per span, bounded memory, crash-safe up to
//! the last flush) instead of buffering them. With no flag,
//! instrumentation stays disabled and every hook in the engines/simulator
//! costs one relaxed atomic load.

use crate::args::Args;
use cisgraph_obs as obs;
use std::path::PathBuf;

/// One binary's observability session. Construct with
/// [`ObsSession::init`]; [`ObsSession::finish`] writes the requested
/// artifacts.
///
/// # Examples
///
/// ```
/// use cisgraph_bench::args::Args;
/// use cisgraph_bench::obsout::ObsSession;
///
/// // No flags: instrumentation stays off and finish() writes nothing.
/// let session = ObsSession::init(&Args::default());
/// assert!(!session.active());
/// session.finish();
/// ```
#[derive(Debug)]
pub struct ObsSession {
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    trace_jsonl: Option<PathBuf>,
}

impl ObsSession {
    /// Reads `--metrics-out` / `--trace-out` / `--trace-jsonl` and switches
    /// the global [`cisgraph_obs`] sink on accordingly.
    pub fn init(args: &Args) -> Self {
        let session = Self {
            metrics_out: args.get_str("metrics-out").map(PathBuf::from),
            trace_out: args.get_str("trace-out").map(PathBuf::from),
            trace_jsonl: args.get_str("trace-jsonl").map(PathBuf::from),
        };
        if let Some(path) = &session.trace_jsonl {
            // Streaming implies tracing; events bypass the in-memory log.
            if let Err(e) = obs::stream_trace_to(path) {
                obs::log!(warn, "cannot stream trace to {}: {e}", path.display());
            }
        }
        if session.trace_out.is_some() {
            obs::enable_tracing();
        } else if session.metrics_out.is_some() {
            obs::enable();
        }
        session
    }

    /// Whether any output was requested (instrumentation is recording).
    pub fn active(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some() || self.trace_jsonl.is_some()
    }

    /// Writes the requested artifacts and prints a one-line metrics
    /// summary to stdout. Write failures are reported as warnings and
    /// swallowed — observability must never fail an experiment run.
    pub fn finish(self) {
        if !self.active() {
            return;
        }
        let snap = obs::snapshot();
        if let Some(path) = &self.metrics_out {
            match std::fs::write(path, snap.to_json_string()) {
                Ok(()) => obs::log!(info, "metrics snapshot written to {}", path.display()),
                Err(e) => obs::log!(warn, "cannot write {}: {e}", path.display()),
            }
        }
        if let Some(path) = &self.trace_out {
            match std::fs::write(path, obs::export_chrome_trace()) {
                Ok(()) => obs::log!(
                    info,
                    "chrome trace ({} events) written to {}",
                    obs::num_trace_events(),
                    path.display()
                ),
                Err(e) => obs::log!(warn, "cannot write {}: {e}", path.display()),
            }
        }
        if let Some(path) = &self.trace_jsonl {
            match obs::close_trace_stream() {
                Ok(()) => obs::log!(info, "streamed trace flushed to {}", path.display()),
                Err(e) => obs::log!(warn, "cannot flush {}: {e}", path.display()),
            }
        }
        println!("{}", snap.summary_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::parse_from(s.iter().map(|x| x.to_string()))
    }

    /// The trace stream is process-global: tests touching tracing must not
    /// interleave.
    fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap()
    }

    /// A fresh directory of this process's own, so concurrent test runs
    /// never share one.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn inactive_without_flags() {
        let s = ObsSession::init(&args(&[]));
        assert!(!s.active());
        s.finish(); // must not write or panic
    }

    #[test]
    fn trace_jsonl_streams_span_lines() {
        let _guard = obs_test_lock();
        let dir = scratch_dir("cisgraph_obsout_stream_test");
        let j = dir.join("t.jsonl");
        let s = ObsSession::init(&args(&["--trace-jsonl", j.to_str().unwrap()]));
        assert!(s.active());
        assert!(obs::trace_stream_active());
        drop(cisgraph_obs::span("obsout.test.streamed"));
        s.finish();
        assert!(!obs::trace_stream_active());
        let lines = std::fs::read_to_string(&j).unwrap();
        assert!(lines
            .lines()
            .any(|l| l.contains("obsout.test.streamed") && l.starts_with('{')));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn metrics_out_writes_valid_json() {
        let _guard = obs_test_lock();
        let dir = scratch_dir("cisgraph_obsout_test");
        let m = dir.join("m.json");
        let t = dir.join("t.json");
        let s = ObsSession::init(&args(&[
            "--metrics-out",
            m.to_str().unwrap(),
            "--trace-out",
            t.to_str().unwrap(),
        ]));
        assert!(s.active());
        assert!(obs::enabled());
        cisgraph_obs::counter("obsout.test.counter").inc();
        drop(cisgraph_obs::span("obsout.test.span"));
        s.finish();
        let metrics = std::fs::read_to_string(&m).unwrap();
        assert!(metrics.contains("\"counters\""));
        assert!(metrics.contains("obsout.test.counter"));
        let trace = std::fs::read_to_string(&t).unwrap();
        assert!(trace.contains("\"traceEvents\""));
        std::fs::remove_dir_all(dir).ok();
    }
}
