//! Parallel multi-query serving.
//!
//! The paper scopes itself to single queries; [`MultiQuery`] generalizes to
//! a standing query *set*. This module adds the serving layer on top: a
//! [`QueryServer`] owns the shared graph, shards the registered queries by
//! source vertex (reusing [`MultiQuery`]'s source grouping, so same-source
//! queries share one converged state array), and fans each update batch out
//! across a scoped thread pool — one worker per shard, every worker reading
//! the same immutable post-batch topology through a
//! [`SharedGraph`] handle.
//!
//! Sharding rule: distinct sources are sorted ascending and dealt
//! round-robin across shards. The assignment depends only on the query set
//! and the shard count, and each group's incremental state is touched by
//! exactly one thread — so answers are bit-identical for *any* thread
//! count, which the tests pin down.
//!
//! Per-shard, per-group [`BatchReport`]s are merged into one
//! [`ServeReport`]: summed ⊕/⊗ work and classification, a response-time
//! distribution (p50 / p95 / p99 / max across source groups), the batch
//! wall-clock, and every standing query's answer.
//!
//! When [`cisgraph_obs`] instrumentation is enabled, each served batch also
//! publishes fan-out latency, per-query response-time histograms,
//! per-shard queue-depth gauges, and a `serve.shard.<i>` span per worker
//! inside the fan-out (see `docs/observability.md`).
//!
//! With a [`DurableStore`] attached ([`QueryServer::attach_durability`]),
//! every batch is applied, appended to the write-ahead log, and only then
//! served. [`SharedGraph::apply_batch_undoable`] is atomic, so a batch the
//! graph rejects leaves it untouched and never reaches the WAL; a batch the
//! WAL refuses is undone before anything reads it. The graph is
//! checkpointed on the store's cadence (full or delta, inline or on a
//! background worker), so a crashed server recovers to a consistent prefix
//! of the acknowledged stream (see `docs/persistence.md`).

use crate::{BatchReport, MultiQuery, ReportCore};
use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::MonotonicAlgorithm;
use cisgraph_graph::{DynamicGraph, GraphError, SharedGraph};
use cisgraph_persist::{CheckpointMode, DurableStore};
use cisgraph_types::{EdgeUpdate, PairQuery, State, VertexId};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Tuning for a [`QueryServer`].
///
/// # Examples
///
/// ```
/// use cisgraph_engines::ServeConfig;
///
/// assert_eq!(ServeConfig::with_threads(4).threads, 4);
/// assert!(ServeConfig::default().threads >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads the per-batch work fans out over (also the maximum
    /// shard count; the server never creates more shards than distinct
    /// query sources).
    pub threads: usize,
}

impl ServeConfig {
    /// A config with an explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }
}

impl Default for ServeConfig {
    /// One worker per available hardware thread.
    fn default() -> Self {
        Self::with_threads(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }
}

/// Aggregate outcome of serving one batch to every standing query.
///
/// `wall_time` is the parallel wall-clock of the fan-out; the times inside
/// [`work`](ServeReport::work) are summed across groups and therefore
/// measure *sequential-equivalent* work — their ratio is the observed
/// speedup.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Standing queries served.
    pub queries: usize,
    /// Shards (worker threads actually used) for this batch.
    pub shards: usize,
    /// Source groups across all shards.
    pub groups: usize,
    /// Wall-clock time of the parallel fan-out.
    pub wall_time: Duration,
    /// Median per-group response time, at log2-bucket resolution (the
    /// inclusive upper bound of the exact median's power-of-two bucket,
    /// clamped by [`response_max`](ServeReport::response_max)).
    pub response_p50: Duration,
    /// 95th-percentile per-group response time (log2-bucket resolution).
    pub response_p95: Duration,
    /// 99th-percentile per-group response time (log2-bucket resolution).
    pub response_p99: Duration,
    /// Worst per-group response time (exact, not bucketed).
    pub response_max: Duration,
    /// Summed work across every group: ⊕/⊗ counters, activations, and
    /// sequential-equivalent times. The answer slot carries the first
    /// standing query's answer.
    pub work: ReportCore,
    /// Summed Algorithm 1 classification outcome across groups.
    pub classification: ClassificationSummary,
    /// Every standing query's post-batch answer, sorted by
    /// (source, destination).
    pub answers: Vec<(PairQuery, State)>,
    /// Why the checkpoint this batch triggered failed, if it did. The
    /// batch itself is logged, applied, and served either way; the next
    /// checkpoint is written full so the chain heals.
    pub checkpoint_error: Option<String>,
}

impl ServeReport {
    /// Queries served per second of wall-clock for this batch.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.queries as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// Speedup of the parallel fan-out over sequential-equivalent work
    /// (summed per-group total time ÷ wall-clock).
    pub fn parallel_speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall > 0.0 {
            self.work.total_time.as_secs_f64() / wall
        } else {
            1.0
        }
    }
}

/// A server answering a registry of standing pairwise queries over one
/// update stream, fanning per-batch work across threads.
///
/// The server owns the graph: [`QueryServer::process_batch`] first applies
/// the batch to the owned [`SharedGraph`] (copy-on-write if snapshot
/// handles are still alive), then lets every shard process the batch
/// against the immutable post-batch view.
///
/// # Examples
///
/// ```
/// use cisgraph_engines::{QueryServer, ServeConfig};
/// use cisgraph_algo::Ppsp;
/// use cisgraph_graph::DynamicGraph;
/// use cisgraph_types::{EdgeUpdate, PairQuery, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(3);
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(1.0)?))?;
/// g.apply(EdgeUpdate::insert(VertexId::new(1), VertexId::new(2), Weight::new(1.0)?))?;
/// let queries = vec![
///     PairQuery::new(VertexId::new(0), VertexId::new(2))?,
///     PairQuery::new(VertexId::new(1), VertexId::new(2))?,
/// ];
/// let mut server = QueryServer::<Ppsp>::new(g, &queries, &ServeConfig::with_threads(2));
///
/// let report = server.process_batch(&[EdgeUpdate::insert(
///     VertexId::new(0),
///     VertexId::new(2),
///     Weight::new(1.5)?,
/// )])?;
/// assert_eq!(report.queries, 2);
/// assert_eq!(server.answer(queries[0]).unwrap().get(), 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QueryServer<A: MonotonicAlgorithm> {
    graph: SharedGraph,
    shards: Vec<MultiQuery<A>>,
    /// Precomputed `serve.shard.<i>` span names, one per shard, so the
    /// per-batch fan-out never formats strings on the hot path.
    shard_span_names: Vec<String>,
    /// Write-ahead durability, when attached: every batch is logged here
    /// before any shard serves it (see [`QueryServer::attach_durability`]).
    persist: Option<DurableStore>,
}

impl<A: MonotonicAlgorithm> QueryServer<A> {
    /// Takes ownership of `graph`, registers `queries`, and converges every
    /// distinct source — shards converge concurrently, one thread each.
    ///
    /// # Panics
    ///
    /// Panics if any query endpoint is outside `graph` (same contract as
    /// [`MultiQuery::new`]).
    pub fn new(graph: DynamicGraph, queries: &[PairQuery], config: &ServeConfig) -> Self {
        let graph = SharedGraph::new(graph);
        // Deterministic sharding: sort distinct sources, deal round-robin.
        let mut by_source: BTreeMap<VertexId, Vec<PairQuery>> = BTreeMap::new();
        for &q in queries {
            by_source.entry(q.source()).or_default().push(q);
        }
        let n = config.threads.max(1).min(by_source.len().max(1));
        let mut shard_queries: Vec<Vec<PairQuery>> = vec![Vec::new(); n];
        for (i, (_, qs)) in by_source.into_iter().enumerate() {
            shard_queries[i % n].extend(qs);
        }
        let view = graph.graph();
        let shards = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = shard_queries
                .iter()
                .map(|qs| s.spawn(move |_| MultiQuery::new(view, qs)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard convergence thread panicked"))
                .collect::<Vec<_>>()
        })
        .expect("thread scope");
        let shard_span_names = (0..shards.len())
            .map(|i| format!("serve.shard.{i}"))
            .collect();
        Self {
            graph,
            shards,
            shard_span_names,
            persist: None,
        }
    }

    /// Attaches a durability handle: from now on every
    /// [`process_batch`](QueryServer::process_batch) call applies the
    /// batch, logs it to the WAL, serves it, and checkpoints on the
    /// store's configured cadence. The store should have been opened
    /// against this server's graph (i.e. the graph passed to
    /// [`QueryServer::new`] came out of the same [`DurableStore::open`]
    /// recovery).
    ///
    /// A delta-mode store needs the graph to track which CSR rows changed
    /// since the last checkpoint, so this enables dirty-row tracking
    /// (idempotent; recovery under a delta-mode store already turned it
    /// on).
    pub fn attach_durability(&mut self, store: DurableStore) {
        if store.mode() == CheckpointMode::Delta {
            self.graph.graph_mut().enable_dirty_rows();
        }
        self.persist = Some(store);
    }

    /// Whether a durability handle is attached.
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// Forces an immediate checkpoint of the current graph (and a WAL
    /// sync). No-op without an attached durability handle.
    ///
    /// # Errors
    ///
    /// Propagates persistence I/O failures as [`GraphError::Io`].
    pub fn checkpoint_now(&mut self) -> Result<(), GraphError> {
        if let Some(store) = &mut self.persist {
            store
                .checkpoint(self.graph.graph_mut())
                .map_err(|e| GraphError::Io(e.into()))?;
        }
        Ok(())
    }

    /// Number of shards (the per-batch fan-out width).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of standing queries.
    pub fn num_queries(&self) -> usize {
        self.shards.iter().map(MultiQuery::num_queries).sum()
    }

    /// The current (post-batch) topology.
    pub fn graph(&self) -> &DynamicGraph {
        self.graph.graph()
    }

    /// A cheap handle to the current topology snapshot. The handle keeps
    /// observing this snapshot even as further batches are served
    /// (copy-on-write on the server's side).
    pub fn snapshot_handle(&self) -> SharedGraph {
        self.graph.clone()
    }

    /// All standing queries with their current answers, sorted by
    /// (source, destination).
    pub fn answers(&self) -> Vec<(PairQuery, State)> {
        let mut out: Vec<(PairQuery, State)> =
            self.shards.iter().flat_map(MultiQuery::answers).collect();
        out.sort_by_key(|(q, _)| (q.source(), q.destination()));
        out
    }

    /// The current answer for one standing query, `None` if it was never
    /// registered.
    pub fn answer(&self, query: PairQuery) -> Option<State> {
        self.shards.iter().find_map(|s| s.answer(query))
    }

    /// Applies `batch` to the owned graph, appends it to the WAL (when
    /// durable), then serves it to every shard concurrently and merges the
    /// per-group reports. Finally it runs the checkpoint cadence.
    ///
    /// # Errors
    ///
    /// A failed call leaves the graph, the durable log, and all standing
    /// query state exactly as they were:
    ///
    /// - an invalid batch (deleting an absent edge, out-of-bounds
    ///   endpoints) is rolled back by the atomic apply before it is logged;
    /// - a batch the WAL refuses ([`GraphError::Io`]) is undone before any
    ///   shard reads it. The WAL is then poisoned and refuses every later
    ///   batch until the store is reopened through recovery.
    ///
    /// A failed checkpoint is *not* a failed batch: the batch is already
    /// logged, applied, and served, so the call returns `Ok` with the
    /// failure in [`ServeReport::checkpoint_error`] (and the
    /// `serve.checkpoint_failures` counter). Retrying would apply the
    /// batch twice.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn process_batch(&mut self, batch: &[EdgeUpdate]) -> Result<ServeReport, GraphError> {
        let _span = cisgraph_obs::span("serve.batch");
        // Apply, then log: the apply is atomic, so a batch the graph
        // rejects leaves no trace and never reaches the WAL.
        let undo = {
            let _ingest = cisgraph_obs::span("serve.ingest");
            self.graph.apply_batch_undoable(batch)?
        };
        if let Some(store) = &mut self.persist {
            let _wal = cisgraph_obs::span("serve.wal_append");
            if let Err(e) = store.log_batch(batch) {
                // The WAL took its frame back; no shard has read the batch.
                self.graph.undo(undo);
                return Err(GraphError::Io(e.into()));
            }
        }
        let view = self.graph.graph();
        let shards = &mut self.shards;
        let span_names = &self.shard_span_names;
        let start = Instant::now();
        let per_shard: Vec<Vec<BatchReport>> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = shards
                .iter_mut()
                .zip(span_names)
                .map(|(shard, span_name)| {
                    s.spawn(move |_| {
                        let _shard_span = cisgraph_obs::span(span_name);
                        shard.process_batch_per_group(view, batch)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker thread panicked"))
                .collect()
        })
        .expect("thread scope");
        let wall_time = start.elapsed();
        let mut report = self.merge(&per_shard, wall_time);
        self.record_obs(&per_shard, &report);
        if let Some(store) = &mut self.persist {
            if let Err(e) = store.maybe_checkpoint(self.graph.graph_mut()) {
                cisgraph_obs::counter("serve.checkpoint_failures").inc();
                cisgraph_obs::log!(warn, "checkpoint failed; the batch stands: {e}");
                report.checkpoint_error = Some(e.to_string());
            }
        }
        Ok(report)
    }

    /// Publishes serving metrics to the [`cisgraph_obs`] registry: the
    /// fan-out latency and per-query response-time histograms, plus
    /// per-shard queue depth (group count) gauges and response-time
    /// histograms. No-op unless instrumentation is enabled.
    fn record_obs(&self, per_shard: &[Vec<BatchReport>], report: &ServeReport) {
        if !cisgraph_obs::enabled() {
            return;
        }
        cisgraph_obs::counter("serve.batches").inc();
        cisgraph_obs::counter("serve.queries").add(report.queries as u64);
        cisgraph_obs::histogram("serve.fanout_ns").record_duration(report.wall_time);
        for (i, shard) in per_shard.iter().enumerate() {
            cisgraph_obs::gauge(&format!("serve.shard.{i}.groups")).set(shard.len() as u64);
            let hist = cisgraph_obs::histogram(&format!("serve.shard.{i}.response_ns"));
            for r in shard {
                hist.record_duration(r.response_time);
                cisgraph_obs::histogram("serve.response_ns").record_duration(r.response_time);
            }
        }
    }

    fn merge(&self, per_shard: &[Vec<BatchReport>], wall_time: Duration) -> ServeReport {
        let answers = self.answers();
        let first = answers
            .first()
            .map(|&(_, s)| s)
            .unwrap_or_else(A::unreached);
        let mut work = ReportCore::new(first);
        let mut classification = ClassificationSummary::default();
        // Per-group response times go into an owned log2 histogram — the
        // same distribution `record_obs` publishes — instead of a sorted
        // vector. Quantiles are bucket-resolution (each reported value is
        // the inclusive upper bound of the exact percentile's power-of-two
        // bucket, clamped by the exact max, which is still tracked
        // directly); the O(groups log groups) per-batch sort is gone.
        let mut responses = cisgraph_obs::HistogramSnapshot::default();
        let mut response_max = Duration::ZERO;
        for report in per_shard.iter().flatten() {
            work.accumulate(&report.core);
            if let Some(s) = report.classification {
                classification += s;
            }
            responses.record(duration_to_nanos(report.response_time));
            response_max = response_max.max(report.response_time);
        }
        ServeReport {
            queries: answers.len(),
            shards: per_shard.len(),
            groups: responses.count as usize,
            wall_time,
            response_p50: Duration::from_nanos(responses.quantile(0.50)),
            response_p95: Duration::from_nanos(responses.quantile(0.95)),
            response_p99: Duration::from_nanos(responses.quantile(0.99)),
            response_max,
            work,
            classification,
            answers,
            checkpoint_error: None,
        }
    }
}

/// A duration as saturating nanoseconds (the histogram's unit).
fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile of an ascending-sorted sample. Thin wrapper over
/// the single shared implementation in [`cisgraph_obs::percentile`] — the
/// *exact* path, kept (test-only now) as the reference the histogram
/// quantiles are pinned against.
#[cfg(test)]
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    cisgraph_obs::percentile(sorted, p).unwrap_or(Duration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColdStart, StreamingEngine};
    use cisgraph_algo::{Ppsp, Reach};
    use cisgraph_datasets::erdos_renyi;
    use cisgraph_datasets::weights::WeightDistribution;
    use cisgraph_graph::GraphView;
    use cisgraph_types::Weight;

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    /// A small streaming scenario: a graph, a query set with shared
    /// sources, and deletion-heavy batches.
    fn scenario() -> (DynamicGraph, Vec<PairQuery>, Vec<Vec<EdgeUpdate>>) {
        let edges = erdos_renyi::generate(60, 500, WeightDistribution::paper_default(), 23);
        let g = DynamicGraph::from_edges(60, edges.clone());
        let mut batches: Vec<Vec<EdgeUpdate>> = vec![Vec::new(); 3];
        for (i, &(a, b, wt)) in edges.iter().enumerate() {
            if i % 4 == 0 {
                batches[i % 3].push(EdgeUpdate::delete(a, b, wt));
            }
        }
        let mut queries = Vec::new();
        for s in 0..12u32 {
            queries.push(PairQuery::new(v(s), v((s + 13) % 60)).unwrap());
            if s % 3 == 0 {
                // Same-source pair: shares the group's converged state.
                queries.push(PairQuery::new(v(s), v((s + 29) % 60)).unwrap());
            }
        }
        (g, queries, batches)
    }

    fn serve_all(threads: usize) -> (Vec<(PairQuery, State)>, Vec<ServeReport>) {
        let (g, queries, batches) = scenario();
        let mut server = QueryServer::<Ppsp>::new(g, &queries, &ServeConfig::with_threads(threads));
        let reports = batches
            .iter()
            .map(|b| server.process_batch(b).expect("batch applies"))
            .collect();
        (server.answers(), reports)
    }

    #[test]
    fn answers_are_identical_across_thread_counts() {
        let (baseline, _) = serve_all(1);
        for threads in [2, 3, 8] {
            let (answers, _) = serve_all(threads);
            assert_eq!(answers, baseline, "threads = {threads}");
            // Byte-identical, not merely PartialEq-equal.
            assert_eq!(
                serde_json::to_string(&answers).unwrap(),
                serde_json::to_string(&baseline).unwrap(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn work_counters_are_identical_across_thread_counts() {
        let (_, baseline) = serve_all(1);
        let (_, parallel) = serve_all(8);
        for (a, b) in baseline.iter().zip(&parallel) {
            assert_eq!(a.work.counters, b.work.counters);
            assert_eq!(a.classification, b.classification);
            assert_eq!(a.groups, b.groups);
        }
    }

    #[test]
    fn matches_sequential_multi_query() {
        let (g, queries, batches) = scenario();
        let mut reference_graph = g.clone();
        let mut reference = MultiQuery::<Ppsp>::new(&reference_graph, &queries);
        let mut server = QueryServer::<Ppsp>::new(g, &queries, &ServeConfig::with_threads(4));
        for batch in &batches {
            reference_graph.apply_batch(batch).unwrap();
            reference.process_batch(&reference_graph, batch);
            server.process_batch(batch).unwrap();
        }
        assert_eq!(server.answers(), reference.answers());
    }

    #[test]
    fn matches_cold_start_per_query() {
        let (g, queries, batches) = scenario();
        let mut check_graph = g.clone();
        let mut server = QueryServer::<Ppsp>::new(g, &queries, &ServeConfig::default());
        for batch in &batches {
            check_graph.apply_batch(batch).unwrap();
            server.process_batch(batch).unwrap();
        }
        for &q in &queries {
            let mut cs = ColdStart::<Ppsp>::new(q);
            let expected = cs.process_batch(&check_graph, &[]).answer;
            assert_eq!(server.answer(q).unwrap(), expected, "query {q}");
        }
    }

    #[test]
    fn report_shape_is_sane() {
        let (_, reports) = serve_all(4);
        for r in &reports {
            assert_eq!(r.queries, 16);
            assert!(r.shards <= 4);
            assert!(r.groups >= r.shards);
            assert!(r.response_p50 <= r.response_p95);
            assert!(r.response_p95 <= r.response_p99);
            assert!(r.response_p99 <= r.response_max);
            assert!(r.work.total_time >= r.work.response_time);
            assert!(r.throughput() > 0.0);
            assert!(r.parallel_speedup() > 0.0);
            assert_eq!(r.answers.len(), r.queries);
        }
    }

    #[test]
    fn snapshot_handles_pin_their_batch() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), Weight::ONE).unwrap();
        let queries = vec![PairQuery::new(v(0), v(1)).unwrap()];
        let mut server = QueryServer::<Reach>::new(g, &queries, &ServeConfig::with_threads(2));
        let before = server.snapshot_handle();
        server
            .process_batch(&[EdgeUpdate::delete(v(0), v(1), Weight::ONE)])
            .unwrap();
        assert_eq!(before.graph().num_edges(), 1);
        assert_eq!(server.graph().num_edges(), 0);
        assert_eq!(server.answer(queries[0]).unwrap(), State::ZERO);
    }

    #[test]
    fn bad_batch_leaves_standing_state_untouched() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), Weight::ONE).unwrap();
        let queries = vec![PairQuery::new(v(0), v(1)).unwrap()];
        let mut server = QueryServer::<Ppsp>::new(g, &queries, &ServeConfig::with_threads(1));
        let err = server.process_batch(&[EdgeUpdate::delete(v(1), v(2), Weight::ONE)]);
        assert!(err.is_err());
        assert_eq!(server.answer(queries[0]).unwrap().get(), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 0.50), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 0.95), Duration::from_millis(95));
        assert_eq!(percentile(&ms, 1.0), Duration::from_millis(100));
        assert_eq!(percentile(&[], 0.5), Duration::ZERO);
        assert_eq!(
            percentile(&[Duration::from_millis(7)], 0.5),
            Duration::from_millis(7)
        );
    }

    /// Pins the histogram-quantile approximation error to one log2 bucket:
    /// the reported value is never below the exact-sort percentile and
    /// never above the inclusive upper bound of the exact value's
    /// power-of-two bucket.
    #[test]
    fn histogram_percentiles_are_within_one_bucket_of_exact_sort() {
        let mut durations: Vec<Duration> = (0..500u64)
            .map(|i| Duration::from_nanos(i * 7919 % 100_000 + 1))
            .collect();
        let mut hist = cisgraph_obs::HistogramSnapshot::default();
        for d in &durations {
            hist.record(duration_to_nanos(*d));
        }
        durations.sort_unstable();
        let max = duration_to_nanos(*durations.last().unwrap());
        for p in [0.50, 0.95, 0.99] {
            let exact = duration_to_nanos(percentile(&durations, p));
            let approx = hist.quantile(p);
            assert!(approx >= exact, "p{p}: {approx} below exact {exact}");
            let bucket_upper = match 64 - exact.leading_zeros() {
                0 => 0,
                i if i >= 64 => u64::MAX,
                i => (1u64 << i) - 1,
            };
            assert!(
                approx <= bucket_upper.min(max).max(exact),
                "p{p}: {approx} more than one bucket above exact {exact}"
            );
        }
        assert_eq!(hist.quantile(1.0), max, "p100 stays exact");
    }

    #[test]
    fn shard_spans_record_per_shard_histograms() {
        cisgraph_obs::enable();
        let (_, _) = serve_all(3);
        let snap = cisgraph_obs::snapshot();
        let shard_spans = snap
            .histograms
            .keys()
            .filter(|k| k.starts_with("span.serve.shard."))
            .count();
        assert!(
            shard_spans >= 2,
            "expected per-shard spans, saw {:?}",
            snap.histograms.keys().collect::<Vec<_>>()
        );
        assert!(snap.histograms.contains_key("span.serve.batch"));
    }

    #[test]
    fn durable_server_recovers_to_identical_answers() {
        use cisgraph_persist::{DurableStore, PersistConfig};

        let dir =
            std::env::temp_dir().join(format!("cisgraph_serve_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (g, queries, batches) = scenario();
        let bootstrap = move || g.clone();

        // Durable run: every batch logged before application.
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(2);
        let (store, recovered) = DurableStore::open(cfg.clone(), bootstrap.clone()).unwrap();
        let mut server =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(2));
        server.attach_durability(store);
        assert!(server.is_durable());
        for batch in &batches {
            server.process_batch(batch).unwrap();
        }
        let expected_answers = server.answers();
        let expected_snapshot = server.graph().snapshot();
        drop(server); // "crash" after the last batch

        // Restart: recovery + re-registration must reproduce both the
        // graph (byte-identically) and every standing answer.
        let (_store, recovered) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(recovered.graph.snapshot(), expected_snapshot);
        let server2 =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(3));
        assert_eq!(server2.answers(), expected_answers);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a batch the graph rejects must never reach the WAL, or
    /// every later recovery would replay the bad frame. The atomic apply
    /// runs before the append, so the rejected batch is never logged.
    #[test]
    fn rejected_batch_never_reaches_the_wal() {
        use cisgraph_persist::{DurableStore, PersistConfig};

        let dir =
            std::env::temp_dir().join(format!("cisgraph_serve_wal_poison_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), Weight::ONE).unwrap();
        let bootstrap = move || g.clone();

        let cfg = PersistConfig::new(&dir);
        let (store, recovered) = DurableStore::open(cfg.clone(), bootstrap.clone()).unwrap();
        let queries = vec![PairQuery::new(v(0), v(1)).unwrap()];
        let mut server =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(1));
        server.attach_durability(store);

        let good = [EdgeUpdate::insert(v(1), v(2), Weight::ONE)];
        server.process_batch(&good).unwrap();
        let expected_snapshot = server.graph().snapshot();
        let expected_answers = server.answers();

        // Deleting an edge that was never inserted is rejected up front.
        let bad = [EdgeUpdate::delete(v(2), v(0), Weight::ONE)];
        assert!(server.process_batch(&bad).is_err());
        assert_eq!(server.graph().snapshot(), expected_snapshot);
        assert_eq!(server.answers(), expected_answers);
        drop(server); // "crash" after the rejected batch

        // Restart: only the good batch was logged, so recovery replays a
        // clean WAL and lands on the pre-rejection state.
        let (_store, recovered) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(recovered.stats.replayed_batches, 1);
        assert_eq!(recovered.graph.snapshot(), expected_snapshot);
        let server2 =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(1));
        assert_eq!(server2.answers(), expected_answers);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a batch the WAL refuses must leave no trace. Before
    /// apply → log, the frame the failed rotation had already written
    /// stayed in the segment and recovery replayed a batch the server had
    /// reported as failed.
    #[test]
    fn failed_wal_append_undoes_the_batch() {
        use cisgraph_persist::{snapshot_digest, DurableStore, PersistConfig};

        let dir = std::env::temp_dir().join(format!(
            "cisgraph_serve_wal_append_fail_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (g, queries, batches) = scenario();
        let bootstrap = move || g.clone();
        let mut cfg = PersistConfig::new(&dir);
        cfg.segment_bytes = 1; // every append rotates to a new segment
        let (store, recovered) = DurableStore::open(cfg.clone(), bootstrap.clone()).unwrap();
        let mut server =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(2));
        server.attach_durability(store);
        server.process_batch(&batches[0]).unwrap();
        let digest = snapshot_digest(&server.graph().snapshot());
        let answers = server.answers();

        // Batch 1 gets seq 1; the rotation after it opens segment 2, which
        // a directory now squats on, so the append fails after its frame
        // was written and synced.
        let squat = dir.join(format!("wal-{:016x}.seg", 2));
        std::fs::create_dir(&squat).unwrap();
        let err = server.process_batch(&batches[1]).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err:?}");
        assert_eq!(snapshot_digest(&server.graph().snapshot()), digest);
        assert_eq!(server.answers(), answers);
        // The WAL is poisoned until the store is reopened.
        assert!(server.process_batch(&batches[2]).is_err());
        assert_eq!(snapshot_digest(&server.graph().snapshot()), digest);
        drop(server);

        std::fs::remove_dir(&squat).unwrap();
        let (_store, recovered) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(
            recovered.stats.replayed_batches, 1,
            "only batch 0 was logged"
        );
        assert_eq!(snapshot_digest(&recovered.graph.snapshot()), digest);
        let server2 =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(1));
        assert_eq!(server2.answers(), answers);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a checkpoint failure used to turn an applied, logged,
    /// and served batch into an `Err`, inviting a retry that would apply
    /// it twice.
    #[test]
    fn failed_checkpoint_does_not_fail_the_batch() {
        use cisgraph_persist::{DurableStore, PersistConfig};

        let dir =
            std::env::temp_dir().join(format!("cisgraph_serve_ckpt_fail_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (g, queries, batches) = scenario();
        let mut reference = g.clone();
        let bootstrap = move || g.clone();
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(1);
        let (store, recovered) = DurableStore::open(cfg.clone(), bootstrap.clone()).unwrap();
        // The checkpoint after batch `i` covers seq `i + 1`; a directory
        // on its temp-file path makes the write fail even as root.
        for seq in 1..=batches.len() {
            std::fs::create_dir(dir.join(format!("ckpt-{seq:016x}.ckpt.tmp"))).unwrap();
        }
        let mut server =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(2));
        server.attach_durability(store);
        cisgraph_obs::enable();
        for batch in &batches {
            let before = server.answers();
            let report = server.process_batch(batch).expect("the batch stands");
            assert!(report.checkpoint_error.is_some());
            assert_eq!(report.answers, server.answers());
            reference.apply_batch(batch).unwrap();
            assert_ne!(report.answers, before, "answers moved with the batch");
        }
        assert!(
            cisgraph_obs::snapshot().counters["serve.checkpoint_failures"] >= batches.len() as u64
        );
        let expected = server.graph().snapshot();
        assert_eq!(expected, reference.snapshot());
        drop(server);

        let (_store, recovered) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(recovered.stats.replayed_batches, batches.len() as u64);
        assert_eq!(recovered.graph.snapshot(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// End-to-end serve with delta checkpoints on the background worker:
    /// restart must land on the same graph bytes and standing answers as
    /// the uninterrupted run.
    #[test]
    fn durable_server_with_background_delta_checkpoints_recovers() {
        use cisgraph_persist::{DurableStore, PersistConfig};

        let dir =
            std::env::temp_dir().join(format!("cisgraph_serve_delta_bg_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (g, queries, batches) = scenario();
        let bootstrap = move || g.clone();

        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(1);
        cfg.mode = CheckpointMode::Delta;
        cfg.full_every = 3;
        cfg.background = true;
        let (store, recovered) = DurableStore::open(cfg.clone(), bootstrap.clone()).unwrap();
        let mut server =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(2));
        server.attach_durability(store);
        for batch in &batches {
            server.process_batch(batch).unwrap();
        }
        server.checkpoint_now().unwrap();
        let expected_answers = server.answers();
        let expected_snapshot = server.graph().snapshot();
        drop(server);

        let (_store, recovered) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(recovered.graph.snapshot(), expected_snapshot);
        let server2 =
            QueryServer::<Ppsp>::new(recovered.graph, &queries, &ServeConfig::with_threads(3));
        assert_eq!(server2.answers(), expected_answers);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serde_report_round_trip() {
        let (_, reports) = serve_all(2);
        let json = serde_json::to_string(&reports[0]).unwrap();
        assert!(json.contains("wall_time"));
        assert!(json.contains("answers"));
    }
}
