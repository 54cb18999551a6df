//! Multi-query extension.
//!
//! The paper scopes itself to single queries ("we focus on single-query
//! scenarios and leave the study of multi-query cases in future work",
//! §III-A). This module implements the natural generalization: a set of
//! standing pairwise queries served together.
//!
//! Queries are grouped by source — all queries `Q(s -> d_i)` share one
//! converged result for `s`, so propagation work is shared. Each group runs
//! CISGraph-O's workflow on the *union* of the group's global key paths: a
//! supporting deletion is repaired before the response iff its target lies
//! on any member query's key path, which preserves the early-response
//! exactness argument for every destination simultaneously.
//!
//! Groups are independent, so a batch fans out over worker threads that
//! claim groups one at a time (see [`MultiQuery::with_workers`]).

use crate::ciso::run_workflow;
use crate::engine::EngineObs;
use crate::BatchReport;
use cisgraph_algo::incremental::{PendingDeletions, RepairScratch};
use cisgraph_algo::{solver, ConvergedResult, Counters, MonotonicAlgorithm};
use cisgraph_graph::DynamicGraph;
use cisgraph_types::{EdgeUpdate, PairQuery, State, VertexId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One source group: a shared converged result serving many destinations.
#[derive(Debug, Clone)]
struct SourceGroup<A: MonotonicAlgorithm> {
    /// The group's standing queries, by ascending destination, deduplicated.
    queries: Vec<PairQuery>,
    result: ConvergedResult<A>,
}

/// What one worker did during a [`MultiQuery`] fan-out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerLoad {
    /// Source groups the worker claimed.
    pub(crate) groups: usize,
    /// Wall time from the worker's start until its last group finished.
    pub(crate) busy: Duration,
}

/// Runs `work` once per item on up to `workers.len()` scoped threads that
/// claim items one at a time through a shared atomic cursor, so a heavy
/// item never holds a queue of light ones behind it. Worker `i` owns
/// `workers[i]` (the calling thread is worker 0) and runs inside the span
/// `spans[i]` when one is given. Results come back in item order, and every
/// item is touched by exactly one worker with nothing shared between items,
/// so the results do not depend on the worker count or on timing.
///
/// # Panics
///
/// Panics if `workers` is empty or a worker panics.
fn claim<T: Send, W: Send, R: Send>(
    items: &mut [T],
    workers: &mut [W],
    spans: &[String],
    work: impl Fn(&mut T, &mut W) -> R + Sync,
) -> (Vec<R>, Vec<WorkerLoad>) {
    let n = workers.len().min(items.len()).max(1);
    let len = items.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    let run = |worker: &mut W, span: Option<&String>| {
        let _span = span.map(|name| cisgraph_obs::span(name));
        let start = Instant::now();
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor publishes no data; the slot's lock and
            // the scope's join order the group's state.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(i) else { break };
            // Each index is claimed once, so the lock is never contended.
            let mut item = slot.lock().expect("group slot poisoned");
            done.push((i, work(&mut item, worker)));
        }
        let load = WorkerLoad {
            groups: done.len(),
            busy: start.elapsed(),
        };
        (done, load)
    };
    let (first, rest) = workers[..n]
        .split_first_mut()
        .expect("at least one worker slot");
    let per_worker = std::thread::scope(|s| {
        let run = &run;
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, worker)| s.spawn(move || run(worker, spans.get(i + 1))))
            .collect();
        let mut all = vec![run(first, spans.first())];
        all.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("group worker thread panicked")),
        );
        all
    });
    let mut results = Vec::with_capacity(len);
    let mut loads = Vec::with_capacity(n);
    for (done, load) in per_worker {
        results.extend(done);
        loads.push(load);
    }
    results.sort_unstable_by_key(|&(i, _)| i);
    (results.into_iter().map(|(_, r)| r).collect(), loads)
}

/// `engine.MultiQuery.*`: recorded once per [`MultiQuery::process_batch`]
/// and once per served batch by [`crate::QueryServer`].
pub(crate) static OBS: EngineObs = EngineObs::new("MultiQuery");

/// A set of standing pairwise queries answered together over one update
/// stream.
///
/// # Examples
///
/// ```
/// use cisgraph_engines::MultiQuery;
/// use cisgraph_algo::Ppsp;
/// use cisgraph_graph::DynamicGraph;
/// use cisgraph_types::{EdgeUpdate, PairQuery, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(3);
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(1.0)?))?;
/// g.apply(EdgeUpdate::insert(VertexId::new(1), VertexId::new(2), Weight::new(1.0)?))?;
/// let queries = vec![
///     PairQuery::new(VertexId::new(0), VertexId::new(1))?,
///     PairQuery::new(VertexId::new(0), VertexId::new(2))?,
/// ];
/// let mut mq = MultiQuery::<Ppsp>::new(&g, &queries);
/// assert_eq!(mq.answer(queries[1]).unwrap().get(), 2.0);
///
/// let batch = vec![EdgeUpdate::insert(VertexId::new(0), VertexId::new(2), Weight::new(1.5)?)];
/// g.apply_batch(&batch)?;
/// mq.process_batch(&g, &batch);
/// assert_eq!(mq.answer(queries[1]).unwrap().get(), 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiQuery<A: MonotonicAlgorithm> {
    /// Source groups by ascending source.
    groups: Vec<SourceGroup<A>>,
    /// One deletion-repair scratch per worker slot, reused across batches.
    scratch: Vec<RepairScratch>,
}

impl<A: MonotonicAlgorithm> MultiQuery<A> {
    /// Converges every distinct source on the initial snapshot, with one
    /// worker slot (batches are served on the calling thread).
    ///
    /// # Panics
    ///
    /// Panics if any query endpoint is outside `graph`.
    pub fn new(graph: &DynamicGraph, queries: &[PairQuery]) -> Self {
        Self::with_workers(graph, queries, 1)
    }

    /// Converges every distinct source on the initial snapshot with up to
    /// `workers` worker slots (at least one, at most one per source group).
    /// Convergence and every later batch run on that many scoped threads,
    /// which claim source groups one at a time; answers and work counters
    /// are identical for any worker count.
    ///
    /// # Panics
    ///
    /// Panics if any query endpoint is outside `graph`.
    pub(crate) fn with_workers(
        graph: &DynamicGraph,
        queries: &[PairQuery],
        workers: usize,
    ) -> Self {
        let mut by_source: BTreeMap<VertexId, Vec<PairQuery>> = BTreeMap::new();
        for &q in queries {
            by_source.entry(q.source()).or_default().push(q);
        }
        let mut sources: Vec<(VertexId, Vec<PairQuery>)> = by_source.into_iter().collect();
        let workers = workers.clamp(1, sources.len().max(1));
        let (results, _) = claim(
            &mut sources,
            &mut vec![(); workers],
            &[],
            |(source, _), ()| solver::best_first::<A, _>(graph, *source, &mut Counters::new()),
        );
        let groups = sources
            .into_iter()
            .zip(results)
            .map(|((_, mut queries), result)| {
                queries.sort_by_key(|q| q.destination());
                queries.dedup();
                SourceGroup { queries, result }
            })
            .collect();
        Self {
            groups,
            scratch: vec![RepairScratch::new(); workers],
        }
    }

    /// Number of distinct source groups (shared converged results).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of worker slots a batch fans out over.
    pub(crate) fn num_workers(&self) -> usize {
        self.scratch.len()
    }

    /// All standing queries with their current answers, sorted by
    /// (source, destination).
    pub fn answers(&self) -> Vec<(PairQuery, State)> {
        self.groups
            .iter()
            .flat_map(|g| {
                g.queries
                    .iter()
                    .map(|&q| (q, g.result.state(q.destination())))
            })
            .collect()
    }

    /// The current answer for one standing query, `None` if it was never
    /// registered.
    pub fn answer(&self, query: PairQuery) -> Option<State> {
        let gi = self
            .groups
            .binary_search_by_key(&query.source(), |g| g.result.source())
            .ok()?;
        let group = &self.groups[gi];
        group
            .queries
            .binary_search_by_key(&query.destination(), |q| q.destination())
            .ok()?;
        Some(group.result.state(query.destination()))
    }

    /// Number of standing queries across all groups.
    pub fn num_queries(&self) -> usize {
        self.groups.iter().map(|g| g.queries.len()).sum()
    }

    /// Processes one batch, returning one [`BatchReport`] per source group
    /// in source order. This is the serving layer's unit of work: each
    /// group's times are measured in isolation, so a parallel harness can
    /// build a response-time distribution across groups. Nothing is
    /// recorded in `engine.MultiQuery.*`; the caller records the batch.
    pub fn process_batch_per_group(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
    ) -> Vec<BatchReport> {
        self.process_batch_claimed(graph, batch, &[]).0
    }

    /// [`process_batch_per_group`](MultiQuery::process_batch_per_group) that
    /// also reports what each worker did. Up to
    /// [`num_workers`](MultiQuery::num_workers) scoped threads claim source
    /// groups one at a time (the calling thread is worker 0); worker `i`
    /// runs inside the span `worker_spans[i]` when one is given. Reports
    /// come back in source order whichever worker produced them.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub(crate) fn process_batch_claimed(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
        worker_spans: &[String],
    ) -> (Vec<BatchReport>, Vec<WorkerLoad>) {
        let _batch_span = cisgraph_obs::span("multi.batch");
        let pending = PendingDeletions::from_batch(batch.iter().copied());
        claim(
            &mut self.groups,
            &mut self.scratch,
            worker_spans,
            |group, scratch| {
                // Timed in isolation: `response_time` covers classification,
                // valuable propagation, key-path repairs and the promotion
                // loop; `total_time` adds the drain.
                run_workflow(
                    &mut group.result,
                    &group.queries,
                    graph,
                    batch,
                    Some(&pending),
                    scratch,
                    |_| Duration::ZERO,
                )
            },
        )
    }

    /// The first registered query's answer — the smallest (source,
    /// destination) pair — or `A::unreached()` with no query at all. The
    /// answer slot of an aggregate report carries it.
    pub(crate) fn first_answer(&self) -> State {
        self.groups
            .first()
            .and_then(|g| g.queries.first().map(|q| g.result.state(q.destination())))
            .unwrap_or_else(A::unreached)
    }

    /// Processes one batch for every source group; the report aggregates
    /// across groups (counters, times, and classification summed; the
    /// answer slot carries the first registered query's answer — use
    /// [`MultiQuery::answers`] for the full set). The aggregate is recorded
    /// once as `engine.MultiQuery.*`.
    pub fn process_batch(&mut self, graph: &DynamicGraph, batch: &[EdgeUpdate]) -> BatchReport {
        let per_group = self.process_batch_per_group(graph, batch);
        let mut report = BatchReport::new(self.first_answer());
        for group_report in &per_group {
            report.accumulate(group_report);
        }
        OBS.record(&report);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColdStart, StreamingEngine};
    use cisgraph_algo::{Ppsp, Reach};
    use cisgraph_datasets::erdos_renyi;
    use cisgraph_datasets::weights::WeightDistribution;
    use cisgraph_types::Weight;

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    #[test]
    fn shares_groups_by_source() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let queries = vec![
            PairQuery::new(v(0), v(1)).unwrap(),
            PairQuery::new(v(0), v(2)).unwrap(),
            PairQuery::new(v(3), v(1)).unwrap(),
            PairQuery::new(v(0), v(1)).unwrap(), // a duplicate counts once
        ];
        let mq = MultiQuery::<Ppsp>::new(&g, &queries);
        assert_eq!(mq.num_groups(), 2);
        assert_eq!(mq.num_queries(), 3);
        assert_eq!(mq.answers().len(), 3);
        assert_eq!(mq.answer(queries[0]).unwrap().get(), 1.0);
        assert!(mq.answer(PairQuery::new(v(2), v(3)).unwrap()).is_none());
    }

    #[test]
    fn answers_match_cold_start_over_stream() {
        let edges = erdos_renyi::generate(40, 300, WeightDistribution::paper_default(), 17);
        let mut g = DynamicGraph::from_edges(40, edges.clone());
        // Keep half the edges as a stream source.
        let mut pool: Vec<EdgeUpdate> = Vec::new();
        for (i, &(a, b, wt)) in edges.iter().enumerate() {
            if i % 3 == 0 {
                pool.push(EdgeUpdate::delete(a, b, wt));
            }
        }
        let queries = vec![
            PairQuery::new(v(0), v(7)).unwrap(),
            PairQuery::new(v(0), v(23)).unwrap(),
            PairQuery::new(v(5), v(31)).unwrap(),
        ];
        let mut mq = MultiQuery::<Ppsp>::new(&g, &queries);
        for chunk in pool.chunks(20) {
            g.apply_batch(chunk).unwrap();
            mq.process_batch(&g, chunk);
            for &q in &queries {
                let mut cs = ColdStart::<Ppsp>::new(q);
                let expected = cs.process_batch(&g, &[]).answer;
                assert_eq!(mq.answer(q).unwrap(), expected, "query {q}");
            }
        }
    }

    #[test]
    fn per_group_reports_sum_to_aggregate() {
        let mut g = DynamicGraph::new(5);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(2), v(3), w(1.0)).unwrap();
        let queries = vec![
            PairQuery::new(v(0), v(1)).unwrap(),
            PairQuery::new(v(2), v(3)).unwrap(),
        ];
        let mut a = MultiQuery::<Ppsp>::new(&g, &queries);
        let mut b = a.clone();
        let batch = vec![EdgeUpdate::insert(v(0), v(3), w(0.5))];
        g.apply_batch(&batch).unwrap();
        let per_group = a.process_batch_per_group(&g, &batch);
        let aggregate = b.process_batch(&g, &batch);
        assert_eq!(per_group.len(), 2);
        let summed: u64 = per_group.iter().map(|r| r.counters.computations).sum();
        assert_eq!(summed, aggregate.counters.computations);
        assert_eq!(a.answers(), b.answers());
    }

    #[test]
    fn claimed_workers_match_one_worker() {
        let mut g = DynamicGraph::new(8);
        for i in 0..7 {
            g.insert_edge(v(i), v(i + 1), w(1.0)).unwrap();
        }
        let queries: Vec<PairQuery> = (0..7)
            .map(|i| PairQuery::new(v(i), v(7)).unwrap())
            .collect();
        let mut one = MultiQuery::<Ppsp>::new(&g, &queries);
        let mut three = MultiQuery::<Ppsp>::with_workers(&g, &queries, 3);
        assert_eq!(three.num_workers(), 3);
        assert_eq!(three.answers(), one.answers());

        let batch = vec![EdgeUpdate::delete(v(3), v(4), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let expected = one.process_batch_per_group(&g, &batch);
        let spans: Vec<String> = (0..3).map(|i| format!("multi.test.worker.{i}")).collect();
        let (reports, loads) = three.process_batch_claimed(&g, &batch, &spans);
        assert_eq!(three.answers(), one.answers());
        assert_eq!(reports.len(), expected.len());
        for (a, b) in reports.iter().zip(&expected) {
            assert_eq!(a.answer, b.answer, "reports come back in source order");
            assert_eq!(a.counters, b.counters);
        }
        assert!(!loads.is_empty() && loads.len() <= 3);
        assert_eq!(loads.iter().map(|l| l.groups).sum::<usize>(), 7);

        // More workers than groups clamps; zero means one.
        for (asked, qs, slots) in [(99, &queries[..], 7), (0, &queries[..], 1), (4, &[][..], 1)] {
            let mq = MultiQuery::<Ppsp>::with_workers(&g, qs, asked);
            assert_eq!(mq.num_workers(), slots);
        }
    }

    #[test]
    fn reach_multi_query() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let queries = vec![
            PairQuery::new(v(0), v(2)).unwrap(),
            PairQuery::new(v(0), v(3)).unwrap(),
        ];
        let mut mq = MultiQuery::<Reach>::new(&g, &queries);
        assert_eq!(mq.answer(queries[0]).unwrap(), State::ONE);
        assert_eq!(mq.answer(queries[1]).unwrap(), State::ZERO);

        let batch = vec![EdgeUpdate::delete(v(1), v(2), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let report = mq.process_batch(&g, &batch);
        assert_eq!(mq.answer(queries[0]).unwrap(), State::ZERO);
        assert!(report.classification.is_some());
    }
}
