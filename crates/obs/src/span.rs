//! Phase spans and the trace event log.
//!
//! A [`span`] measures the wall time of one phase (engine identification,
//! shard fan-out, delayed drain, …). Every finished span records into the
//! `span.<name>` histogram; when tracing is additionally enabled
//! ([`enable_tracing`]) it also appends a complete event — name, start,
//! duration, thread — to an in-memory log that exports as a Chrome
//! `trace_event` JSON document ([`export_chrome_trace`]) loadable in
//! `chrome://tracing` or Perfetto, or streams to a JSONL file as events
//! complete ([`stream_trace_to`]).

use crate::snapshot::escape_json;
use std::collections::hash_map::DefaultHasher;
use std::fs::File;
use std::hash::{Hash, Hasher};
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static STREAMING: AtomicBool = AtomicBool::new(false);

/// Turns the trace event log on (and the metrics sink with it — a trace
/// without its histograms would be half a picture).
pub fn enable_tracing() {
    crate::enable();
    TRACING.store(true, Ordering::Relaxed);
}

/// Whether span events are being appended to the trace log.
#[inline]
pub fn trace_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One completed span in the event log.
#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    /// Microseconds since the process-wide trace epoch.
    start_us: u64,
    dur_us: u64,
    /// Stable per-thread id (hash of `std::thread::ThreadId`).
    tid: u64,
}

fn events() -> &'static Mutex<Vec<TraceEvent>> {
    static EVENTS: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn stream_sink() -> &'static Mutex<Option<BufWriter<File>>> {
    static SINK: OnceLock<Mutex<Option<BufWriter<File>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Streams trace events to `path` as JSON Lines **as they complete**,
/// instead of buffering them in the in-memory log. One line per span with
/// `name`, `start_us`, `dur_us`, and `tid` fields, appended incrementally
/// through a buffered writer — so arbitrarily long runs trace in bounded
/// memory and a crashed run keeps everything flushed so far.
///
/// Implies [`enable_tracing`]. While a stream is active the in-memory log
/// stays empty (and [`export_chrome_trace`] accordingly renders only what
/// was buffered before the stream started).
pub fn stream_trace_to(path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = File::create(path)?;
    *stream_sink().lock().expect("trace stream poisoned") = Some(BufWriter::new(file));
    STREAMING.store(true, Ordering::Relaxed);
    enable_tracing();
    Ok(())
}

/// Whether a streaming JSONL sink is installed.
#[inline]
pub fn trace_stream_active() -> bool {
    STREAMING.load(Ordering::Relaxed)
}

/// Flushes and closes the streaming sink (tracing itself stays on;
/// subsequent events buffer in memory again).
pub fn close_trace_stream() -> std::io::Result<()> {
    STREAMING.store(false, Ordering::Relaxed);
    let mut sink = stream_sink().lock().expect("trace stream poisoned");
    if let Some(mut writer) = sink.take() {
        writer.flush()?;
    }
    Ok(())
}

/// Writes one event line to the streaming sink; returns false when no sink
/// is installed (caller falls back to the in-memory log). Write errors are
/// swallowed — this runs inside `Drop`.
fn stream_event(e: &TraceEvent) -> bool {
    if !trace_stream_active() {
        return false;
    }
    let mut sink = stream_sink().lock().expect("trace stream poisoned");
    let Some(writer) = sink.as_mut() else {
        return false;
    };
    let _ = writeln!(
        writer,
        "{{\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"tid\":{}}}",
        escape_json(&e.name),
        e.start_us,
        e.dur_us,
        e.tid
    );
    true
}

/// The instant all trace timestamps are relative to (first use wins).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn current_tid() -> u64 {
    let mut h = DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

/// An in-flight phase measurement; created by [`span`], recorded on drop.
///
/// While the sink is disabled this is an empty guard: no clock read on
/// entry, nothing on drop.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped; binding it to `_` drops it immediately"]
pub struct Span {
    active: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: String,
    start: Instant,
    start_us: u64,
}

/// Starts a span named `name`. On drop it records the elapsed wall time
/// into the `span.<name>` histogram (nanoseconds) and, when tracing is on,
/// appends a trace event.
///
/// # Examples
///
/// ```
/// cisgraph_obs::enable();
/// {
///     let _phase = cisgraph_obs::span("doc.span.phase");
/// }
/// assert!(cisgraph_obs::snapshot().histograms["span.doc.span.phase"].count >= 1);
/// ```
pub fn span(name: &str) -> Span {
    if !crate::enabled() {
        return Span { active: None };
    }
    let start = Instant::now();
    Span {
        active: Some(SpanInner {
            name: name.to_string(),
            start,
            start_us: u64::try_from(start.duration_since(epoch()).as_micros()).unwrap_or(u64::MAX),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.active.take() else {
            return;
        };
        let elapsed = inner.start.elapsed();
        crate::histogram(&format!("span.{}", inner.name)).record_duration(elapsed);
        if trace_enabled() {
            let event = TraceEvent {
                name: inner.name,
                start_us: inner.start_us,
                dur_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
                tid: current_tid(),
            };
            if !stream_event(&event) {
                let mut log = events().lock().expect("trace log poisoned");
                log.push(event);
            }
        }
    }
}

/// Number of events currently in the trace log.
pub fn num_trace_events() -> usize {
    events().lock().expect("trace log poisoned").len()
}

/// Renders the trace log as a Chrome `trace_event` JSON document
/// (complete `"ph":"X"` events), loadable in `chrome://tracing` or
/// [Perfetto](https://ui.perfetto.dev).
pub fn export_chrome_trace() -> String {
    let log = events().lock().expect("trace log poisoned");
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, e) in log.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            escape_json(&e.name),
            e.start_us,
            e.dur_us,
            // Chrome renders tids as 32-bit-ish lane labels; fold the hash.
            e.tid % 100_000
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream sink is process-global: tests that install or depend on
    /// its absence must not interleave.
    fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap()
    }

    #[test]
    fn span_records_into_histogram() {
        crate::enable();
        {
            let _s = span("span.test.unit");
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        let snap = crate::snapshot();
        let h = &snap.histograms["span.span.test.unit"];
        assert!(h.count >= 1);
        assert!(h.max >= 50_000, "recorded ns, got {}", h.max);
    }

    #[test]
    fn streaming_sink_appends_incrementally_and_bypasses_the_buffer() {
        let _guard = trace_test_lock();
        let path =
            std::env::temp_dir().join(format!("cisgraph_obs_stream_{}.jsonl", std::process::id()));
        stream_trace_to(&path).unwrap();
        let buffered_before = num_trace_events();
        {
            let _s = span("span.test.stream.one");
        }
        {
            let _s = span("span.test.stream.two");
        }
        // Streamed events must not land in the in-memory log.
        assert_eq!(num_trace_events(), buffered_before);
        close_trace_stream().unwrap();
        assert!(!trace_stream_active());
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        assert!(lines.iter().any(|l| l.contains("span.test.stream.one")));
        assert!(lines.iter().any(|l| l.contains("span.test.stream.two")));
        for line in &lines {
            assert!(line.starts_with("{\"name\":\"") && line.ends_with('}'));
        }
        // With the stream closed, events buffer in memory again.
        {
            let _s = span("span.test.stream.after");
        }
        assert!(export_chrome_trace().contains("span.test.stream.after"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_log_exports_a_chrome_trace() {
        let _guard = trace_test_lock();
        enable_tracing();
        {
            let _s = span("span.test.trace");
        }
        assert!(num_trace_events() >= 1);
        let chrome = export_chrome_trace();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("span.test.trace"));
    }
}
