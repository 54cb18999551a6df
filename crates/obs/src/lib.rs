//! In-process tracing and metrics for the CISGraph reproduction.
//!
//! The paper's evaluation hinges on *per-phase attribution* — how much work
//! update classification, priority scheduling, and early response each
//! save — and external black-box timing cannot see any of it. This crate is
//! the one instrumentation layer every other crate records into:
//!
//! * [`counter`] / [`gauge`] — named monotonic counters and last-value
//!   gauges behind a sharded atomic registry,
//! * [`histogram`] — fixed-bucket log2 latency [`Histogram`]s with
//!   nearest-rank p50/p95/p99/max (the single percentile implementation the
//!   serving layer and the bench binaries share),
//! * [`span`] — lightweight phase spans that record wall time into a
//!   `span.<name>` histogram and, when tracing is on, append to an event
//!   log exportable as a Chrome `trace_event` file
//!   ([`export_chrome_trace`], viewable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)) or stream to a JSONL file as
//!   they complete ([`stream_trace_to`]),
//! * [`snapshot`] — a [`MetricsSnapshot`] of every registered metric,
//!   rendered to JSON for the bench artifact pipeline,
//! * [`log!`] — a leveled stderr logging macro gated by the `CISGRAPH_LOG`
//!   environment variable (off by default, so bench stdout/stderr stay
//!   machine-parseable).
//!
//! # Cost model
//!
//! Everything is **disabled by default**. Until [`enable`] is called, every
//! hook short-circuits after one relaxed atomic load: counters don't add,
//! histograms don't record, [`span`] returns a guard that never reads the
//! clock. Tracing (the event log behind the exports) is a second, separate
//! switch ([`enable_tracing`]) because it allocates per span.
//!
//! # Examples
//!
//! ```
//! use cisgraph_obs as obs;
//!
//! obs::enable();
//! obs::counter("doc.batches").inc();
//! obs::histogram("doc.latency_ns").record(1500);
//! {
//!     let _phase = obs::span("doc.phase");
//!     // ... timed work ...
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counters["doc.batches"], 1);
//! assert_eq!(snap.histograms["doc.latency_ns"].count, 1);
//! assert!(snap.to_json_string().contains("\"counters\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod logging;
mod registry;
mod snapshot;
mod span;

pub use hist::{percentile, percentile_f64, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use logging::{log_enabled, log_message, Level};
pub use registry::{counter, gauge, histogram, Counter, Gauge};
pub use snapshot::{snapshot, MetricsSnapshot};
pub use span::{
    close_trace_stream, enable_tracing, export_chrome_trace, num_trace_events, span,
    stream_trace_to, trace_enabled, trace_stream_active, Span,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the global metrics sink on. Idempotent; never turned off implicitly.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the global metrics sink off again (counters keep their values;
/// recording just stops). Primarily for tests.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the metrics sink is on. This is the one relaxed load every
/// disabled hook pays.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_hooks_record_nothing() {
        // Uses names no other test touches; the sink may be enabled by a
        // concurrently running test, so exercise the handle directly.
        let c = Counter::default();
        let h = Histogram::default();
        c.add_unconditional(0); // establish the handle works at all
        assert_eq!(c.get(), 0);
        h.snapshot(); // empty snapshot must be well-formed
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn enable_then_record_round_trips() {
        enable();
        counter("lib.test.counter").add(3);
        gauge("lib.test.gauge").set(17);
        histogram("lib.test.hist").record(1024);
        let snap = snapshot();
        assert_eq!(snap.counters["lib.test.counter"], 3);
        assert_eq!(snap.gauges["lib.test.gauge"], 17);
        assert_eq!(snap.histograms["lib.test.hist"].max, 1024);
    }
}
