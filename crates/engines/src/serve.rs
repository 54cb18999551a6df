//! Parallel multi-query serving.
//!
//! The paper scopes itself to single queries; [`MultiQuery`] generalizes to
//! a standing query *set*. This module adds the serving layer on top: a
//! [`QueryServer`] owns the graph and one [`MultiQuery`] (same-source
//! queries share one converged state array), and fans each update batch out
//! over up to [`ServeConfig::threads`] scoped workers, every worker reading
//! the same post-batch [`DynamicGraph`] through a shared borrow.
//!
//! Work claiming: workers take source groups one at a time from a shared
//! atomic cursor, so a group with a heavy repair never holds light groups
//! behind it. Each group's incremental state is touched by exactly one
//! worker and reports come back in source order, so answers and work
//! counters are bit-identical for *any* thread count, which the tests pin
//! down.
//!
//! Per-group [`BatchReport`]s are merged into one [`ServeReport`]: summed
//! ⊕/⊗ work and classification, a response-time distribution (p50 / p95 /
//! p99 / max across source groups), and the batch wall-clock. The answers
//! stay in the server ([`QueryServer::answers`], [`QueryServer::answer`]).
//!
//! When [`cisgraph_obs`] instrumentation is enabled, each served batch also
//! publishes fan-out latency, per-group response-time histograms, per-worker
//! claimed-group gauges and busy-time histograms, the merged work as one
//! `engine.MultiQuery.*` record, and a `serve.worker.<i>` span per worker
//! inside the fan-out (see `docs/observability.md`). Every handle and span
//! name is resolved when the server is built.
//!
//! With a [`DurableStore`] attached ([`QueryServer::attach_durability`]),
//! every batch is applied, appended to the write-ahead log, and only then
//! served. [`DynamicGraph::apply_batch_undoable`] is atomic, so a batch the
//! graph rejects leaves it untouched and never reaches the WAL; a batch the
//! WAL refuses is undone before anything reads it. The graph is
//! checkpointed on the store's cadence (full or delta, inline or on a
//! background worker), so a crashed server recovers to a consistent prefix
//! of the acknowledged stream (see `docs/persistence.md`).

use crate::multi::WorkerLoad;
use crate::{BatchReport, MultiQuery};
use cisgraph_algo::MonotonicAlgorithm;
use cisgraph_graph::{DynamicGraph, GraphError};
use cisgraph_obs::{Counter, Gauge, Histogram};
use cisgraph_persist::{CheckpointMode, DurableStore};
use cisgraph_types::{EdgeUpdate, PairQuery, State};
use serde::Serialize;
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
    /// Worker threads the per-batch work fans out over (the server never
    /// runs more workers than distinct query sources).
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
/// speedup. Read the answers from the server ([`QueryServer::answers`]).
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Standing queries served.
    pub queries: usize,
    /// Workers (threads, the calling one included) that served this batch.
    pub workers: usize,
    /// Source groups served.
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
    /// Summed work across every group: ⊕/⊗ counters, activations,
    /// Algorithm 1 classification, and sequential-equivalent times. The
    /// answer slot carries the first standing query's answer.
    pub work: BatchReport,
    /// Why the checkpoint this batch triggered failed, if it did. The
    /// batch itself is logged, applied, and served either way; the next
    /// checkpoint is written full so the chain heals.
    pub checkpoint_error: Option<String>,
}

/// A server answering a registry of standing pairwise queries over one
/// update stream, fanning per-batch work across threads.
///
/// The server owns the graph: [`QueryServer::process_batch`] first applies
/// the batch to the owned [`DynamicGraph`], then lets the workers process
/// every source group against the post-batch graph, which none of them
/// mutates.
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
    graph: DynamicGraph,
    queries: MultiQuery<A>,
    obs: ServeObs,
    /// Write-ahead durability, when attached: every batch is logged here
    /// before any worker serves it (see [`QueryServer::attach_durability`]).
    persist: Option<DurableStore>,
}

/// The server's metric handles and span names, resolved once at
/// construction so serving a batch never formats a name or looks one up.
#[derive(Debug)]
struct ServeObs {
    batches: &'static Counter,
    queries: &'static Counter,
    checkpoint_failures: &'static Counter,
    fanout: &'static Histogram,
    response: &'static Histogram,
    /// `serve.worker.<i>`, one per worker slot.
    worker_spans: Vec<String>,
    /// `serve.worker.<i>.groups` and `serve.worker.<i>.busy_ns`.
    workers: Vec<(&'static Gauge, &'static Histogram)>,
}

impl ServeObs {
    fn new(workers: usize) -> Self {
        Self {
            batches: cisgraph_obs::counter("serve.batches"),
            queries: cisgraph_obs::counter("serve.queries"),
            checkpoint_failures: cisgraph_obs::counter("serve.checkpoint_failures"),
            fanout: cisgraph_obs::histogram("serve.fanout_ns"),
            response: cisgraph_obs::histogram("serve.response_ns"),
            worker_spans: (0..workers).map(|i| format!("serve.worker.{i}")).collect(),
            workers: (0..workers)
                .map(|i| {
                    (
                        cisgraph_obs::gauge(&format!("serve.worker.{i}.groups")),
                        cisgraph_obs::histogram(&format!("serve.worker.{i}.busy_ns")),
                    )
                })
                .collect(),
        }
    }
}

impl<A: MonotonicAlgorithm> QueryServer<A> {
    /// Takes ownership of `graph`, registers `queries`, and converges every
    /// distinct source, with workers claiming source groups one at a time.
    ///
    /// # Panics
    ///
    /// Panics if any query endpoint is outside `graph` (same contract as
    /// [`MultiQuery::new`]).
    pub fn new(graph: DynamicGraph, queries: &[PairQuery], config: &ServeConfig) -> Self {
        let queries = MultiQuery::with_workers(&graph, queries, config.threads);
        let obs = ServeObs::new(queries.num_workers());
        Self {
            graph,
            queries,
            obs,
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
            self.graph.enable_dirty_rows();
        }
        self.persist = Some(store);
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
                .checkpoint(&mut self.graph)
                .map_err(|e| GraphError::Io(e.into()))?;
        }
        Ok(())
    }

    /// Number of worker slots (the per-batch fan-out width).
    pub fn num_workers(&self) -> usize {
        self.queries.num_workers()
    }

    /// Number of standing queries.
    pub fn num_queries(&self) -> usize {
        self.queries.num_queries()
    }

    /// The current (post-batch) topology.
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// All standing queries with their current answers, sorted by
    /// (source, destination).
    pub fn answers(&self) -> Vec<(PairQuery, State)> {
        self.queries.answers()
    }

    /// The current answer for one standing query, `None` if it was never
    /// registered.
    pub fn answer(&self, query: PairQuery) -> Option<State> {
        self.queries.answer(query)
    }

    /// Applies `batch` to the owned graph, appends it to the WAL (when
    /// durable), then serves it to every source group on the workers and
    /// merges the per-group reports. Finally it runs the checkpoint
    /// cadence.
    ///
    /// # Errors
    ///
    /// A failed call leaves the graph, the durable log, and all standing
    /// query state exactly as they were:
    ///
    /// - an invalid batch (deleting an absent edge, out-of-bounds
    ///   endpoints) is rolled back by the atomic apply before it is logged;
    /// - a batch the WAL refuses ([`GraphError::Io`]) is undone before any
    ///   worker reads it. The WAL is then poisoned and refuses every later
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
                // The WAL took its frame back; no worker has read the batch.
                self.graph.undo(undo);
                return Err(GraphError::Io(e.into()));
            }
        }
        let start = Instant::now();
        let (reports, loads) =
            self.queries
                .process_batch_claimed(&self.graph, batch, &self.obs.worker_spans);
        let wall_time = start.elapsed();
        let mut report = self.merge(&reports, loads.len(), wall_time);
        self.record_obs(&reports, &loads, &report);
        if let Some(store) = &mut self.persist {
            if let Err(e) = store.maybe_checkpoint(&mut self.graph) {
                self.obs.checkpoint_failures.inc();
                cisgraph_obs::log!(warn, "checkpoint failed; the batch stands: {e}");
                report.checkpoint_error = Some(e.to_string());
            }
        }
        Ok(report)
    }

    /// Publishes serving metrics to the [`cisgraph_obs`] registry: the
    /// fan-out latency and per-group response-time histograms, the merged
    /// work as one `engine.MultiQuery.*` record, plus each worker's
    /// claimed-group gauge and busy-time histogram. No-op unless
    /// instrumentation is enabled.
    fn record_obs(&self, reports: &[BatchReport], loads: &[WorkerLoad], report: &ServeReport) {
        if !cisgraph_obs::enabled() {
            return;
        }
        let obs = &self.obs;
        obs.batches.inc();
        obs.queries.add(report.queries as u64);
        obs.fanout.record_duration(report.wall_time);
        for r in reports {
            obs.response.record_duration(r.response_time);
        }
        crate::multi::OBS.record(&report.work);
        for (load, (groups, busy)) in loads.iter().zip(&obs.workers) {
            groups.set(load.groups as u64);
            busy.record_duration(load.busy);
        }
    }

    fn merge(&self, reports: &[BatchReport], workers: usize, wall_time: Duration) -> ServeReport {
        let mut work = BatchReport::new(self.queries.first_answer());
        // Per-group response times go into an owned log2 histogram — the
        // same distribution `record_obs` publishes — instead of a sorted
        // vector. Quantiles are bucket-resolution (each reported value is
        // the inclusive upper bound of the exact percentile's power-of-two
        // bucket, clamped by the exact max, which is still tracked
        // directly); the O(groups log groups) per-batch sort is gone.
        let mut responses = cisgraph_obs::HistogramSnapshot::default();
        let mut response_max = Duration::ZERO;
        for report in reports {
            work.accumulate(report);
            responses.record(duration_to_nanos(report.response_time));
            response_max = response_max.max(report.response_time);
        }
        ServeReport {
            queries: self.num_queries(),
            workers,
            groups: responses.count as usize,
            wall_time,
            response_p50: Duration::from_nanos(responses.quantile(0.50)),
            response_p95: Duration::from_nanos(responses.quantile(0.95)),
            response_p99: Duration::from_nanos(responses.quantile(0.99)),
            response_max,
            work,
            checkpoint_error: None,
        }
    }
}

/// A duration as saturating nanoseconds (the histogram's unit).
fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColdStart, StreamingEngine};
    use cisgraph_algo::Ppsp;
    use cisgraph_datasets::erdos_renyi;
    use cisgraph_datasets::weights::WeightDistribution;
    use cisgraph_types::{VertexId, Weight};

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

    /// A heavy-tailed query set: source 0's shortest-path tree spans most
    /// of the graph, while many light sources each reach one vertex. The
    /// batches cut the heavy tree's spine, so one group's repairs dominate
    /// every batch (checked in `matches_sequential_multi_query`).
    fn skewed_scenario() -> (DynamicGraph, Vec<PairQuery>, Vec<Vec<EdgeUpdate>>) {
        const HEAVY: u32 = 150;
        const LIGHT: u32 = 30;
        let mut edges =
            erdos_renyi::generate(HEAVY as usize, 600, WeightDistribution::paper_default(), 29);
        let random = edges.clone();
        let spine = |i: u32| (v(i), v(i + 1), Weight::ONE);
        let light = |k: u32| (v(HEAVY + 2 * k), v(HEAVY + 2 * k + 1), Weight::ONE);
        edges.extend((0..HEAVY - 1).map(spine));
        edges.extend((0..LIGHT).map(light));
        let g = DynamicGraph::from_edges((HEAVY + 2 * LIGHT) as usize, edges);

        let del = |(a, b, w): (VertexId, VertexId, Weight)| EdgeUpdate::delete(a, b, w);
        let ins = |(a, b, w): (VertexId, VertexId, Weight)| EdgeUpdate::insert(a, b, w);
        let mut batches = vec![Vec::new(); 3];
        batches[0].extend((0..HEAVY - 1).step_by(10).map(|i| del(spine(i))));
        batches[0].extend((0..LIGHT).map(|k| {
            let (a, b, w) = light(k);
            ins((b, a, w))
        }));
        batches[1].extend(random.iter().step_by(7).map(|&e| del(e)));
        batches[1].extend((0..LIGHT).step_by(2).map(|k| del(light(k))));
        batches[2].extend((5..HEAVY - 1).step_by(10).map(|i| del(spine(i))));
        batches[2].extend((0..LIGHT).step_by(2).map(|k| ins(light(k))));
        batches[2].push(ins((v(0), v(HEAVY / 2), Weight::new(3.0).unwrap())));

        let mut queries = vec![
            PairQuery::new(v(0), v(HEAVY - 1)).unwrap(),
            PairQuery::new(v(0), v(HEAVY / 2 + 7)).unwrap(),
        ];
        queries.extend((0..LIGHT).map(|k| {
            let (a, b, _) = light(k);
            PairQuery::new(a, b).unwrap()
        }));
        (g, queries, batches)
    }

    type Scenario = fn() -> (DynamicGraph, Vec<PairQuery>, Vec<Vec<EdgeUpdate>>);

    const SCENARIOS: [Scenario; 2] = [scenario, skewed_scenario];

    const THREAD_COUNTS: [usize; 4] = [2, 3, 8, 64];

    fn serve_all(threads: usize) -> (Vec<(PairQuery, State)>, Vec<ServeReport>) {
        serve_scenario(scenario, threads)
    }

    fn serve_scenario(
        scenario: Scenario,
        threads: usize,
    ) -> (Vec<(PairQuery, State)>, Vec<ServeReport>) {
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
        for (s, scenario) in SCENARIOS.into_iter().enumerate() {
            let (baseline, _) = serve_scenario(scenario, 1);
            for threads in THREAD_COUNTS {
                let (answers, _) = serve_scenario(scenario, threads);
                assert_eq!(answers, baseline, "scenario {s}, threads = {threads}");
                // Byte-identical, not merely PartialEq-equal.
                assert_eq!(
                    serde_json::to_string(&answers).unwrap(),
                    serde_json::to_string(&baseline).unwrap(),
                    "scenario {s}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn work_counters_are_identical_across_thread_counts() {
        for (s, scenario) in SCENARIOS.into_iter().enumerate() {
            let (_, baseline) = serve_scenario(scenario, 1);
            let fallbacks: u64 = baseline
                .iter()
                .map(|r| r.work.counters.fallback_solves)
                .sum();
            assert!(
                fallbacks > 0,
                "scenario {s}: no repair fell back to a solve"
            );
            for threads in THREAD_COUNTS {
                let (_, parallel) = serve_scenario(scenario, threads);
                assert_eq!(baseline.len(), parallel.len());
                for (a, b) in baseline.iter().zip(&parallel) {
                    let context = format!("scenario {s}, threads = {threads}");
                    assert_eq!(a.work.counters, b.work.counters, "{context}");
                    assert_eq!(a.work.classification, b.work.classification, "{context}");
                    assert_eq!(a.groups, b.groups, "{context}");
                }
            }
        }
    }

    #[test]
    fn matches_sequential_multi_query() {
        for (s, scenario) in SCENARIOS.into_iter().enumerate() {
            let (g, queries, batches) = scenario();
            let mut reference_graph = g.clone();
            let mut reference = MultiQuery::<Ppsp>::new(&reference_graph, &queries);
            let mut server = QueryServer::<Ppsp>::new(g, &queries, &ServeConfig::with_threads(4));
            for batch in &batches {
                reference_graph.apply_batch(batch).unwrap();
                let per_group = reference.process_batch_per_group(&reference_graph, batch);
                server.process_batch(batch).unwrap();
                let work: Vec<u64> = per_group.iter().map(|r| r.counters.computations).collect();
                if s == 1 {
                    // The skewed scenario: group 0's repairs dominate.
                    assert!(work[0] > 5 * work[1..].iter().max().unwrap(), "{work:?}");
                }
            }
            assert_eq!(server.answers(), reference.answers(), "scenario {s}");
        }
    }

    #[test]
    fn matches_cold_start_per_query() {
        for scenario in SCENARIOS {
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
    }

    #[test]
    fn report_shape_is_sane() {
        let (answers, reports) = serve_all(4);
        let last = reports.last().expect("three batches");
        assert_eq!(last.work.answer, answers[0].1, "first registered query");
        for r in &reports {
            assert_eq!(r.queries, 16);
            assert!(r.workers >= 1 && r.workers <= 4);
            assert!(r.groups >= r.workers);
            assert!(r.response_p50 <= r.response_p95);
            assert!(r.response_p95 <= r.response_p99);
            assert!(r.response_p99 <= r.response_max);
            assert!(r.work.total_time >= r.work.response_time);
        }
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
            let exact = duration_to_nanos(cisgraph_obs::percentile(&durations, p).unwrap());
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
    fn worker_spans_and_metrics_are_recorded() {
        cisgraph_obs::enable();
        let (_, _) = serve_all(3);
        let snap = cisgraph_obs::snapshot();
        for i in 0..3 {
            assert!(
                snap.histograms
                    .contains_key(&format!("span.serve.worker.{i}")),
                "no span for worker {i}, saw {:?}",
                snap.histograms.keys().collect::<Vec<_>>()
            );
            assert!(snap.histograms[&format!("serve.worker.{i}.busy_ns")].count >= 1);
            assert!(snap
                .gauges
                .contains_key(&format!("serve.worker.{i}.groups")));
        }
        assert!(snap.histograms.contains_key("span.serve.batch"));
    }

    #[test]
    fn serde_report_round_trip() {
        let (_, reports) = serve_all(2);
        let json = serde_json::to_string(&reports[0]).unwrap();
        assert!(json.contains("wall_time"));
        assert!(json.contains("\"work\""));
    }
}
