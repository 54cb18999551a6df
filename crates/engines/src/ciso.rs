//! CISGraph-O: the contribution-aware software workflow (§III-A).

use crate::{BatchReport, StreamingEngine};
use cisgraph_algo::classify::{
    classify_addition, classify_deletion_dependence, ClassificationSummary,
};
use cisgraph_algo::incremental::{self, PendingDeletions, RepairScratch};
use cisgraph_algo::{solver, ConvergedResult, Counters, KeyPath, MonotonicAlgorithm};
use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_types::{Contribution, EdgeUpdate, PairQuery, State, VertexId};
use std::time::{Duration, Instant};

/// The union of the global key paths of queries sharing one source:
/// vertices ascending, deduplicated.
struct KeyPathUnion(Vec<VertexId>);

impl KeyPathUnion {
    fn extract<A: MonotonicAlgorithm>(result: &ConvergedResult<A>, queries: &[PairQuery]) -> Self {
        let mut members = Vec::new();
        for &q in queries {
            members.extend_from_slice(KeyPath::extract(result, q).vertices());
        }
        members.sort_unstable();
        members.dedup();
        Self(members)
    }

    fn contains(&self, v: VertexId) -> bool {
        self.0.binary_search(&v).is_ok()
    }
}

/// The CISGraph-O workflow for one converged result serving `queries`, all
/// from the result's source. Deletions split on the union of the queries'
/// key paths: a supporting deletion is non-delayed iff its source lies on
/// any of them, which keeps the early answer exact for every destination at
/// once. The report's answer is the first query's.
///
/// Without a shared `pending`, the batch's deletion links are built inside
/// the response window. `boundary` runs after the additions and again at
/// the response; the time it returns (measurement bookkeeping) is left out
/// of the reported times.
pub(crate) fn run_workflow<A: MonotonicAlgorithm>(
    result: &mut ConvergedResult<A>,
    queries: &[PairQuery],
    graph: &DynamicGraph,
    batch: &[EdgeUpdate],
    pending: Option<&PendingDeletions>,
    scratch: &mut RepairScratch,
    mut boundary: impl FnMut(&ConvergedResult<A>) -> Duration,
) -> BatchReport {
    let start = Instant::now();
    let mut excluded = Duration::ZERO;
    let mut counters = Counters::new();
    let mut summary = ClassificationSummary::default();
    result.grow(graph.num_vertices());

    // Phase 1a: identify + propagate valuable additions (additions stream
    // first per the §IV-A fairness rule, and their identification sees the
    // pre-batch converged states).
    let mut valuable_additions = Vec::new();
    for &update in batch.iter().filter(|u| u.kind().is_insert()) {
        counters.computations += 1;
        if classify_addition(result, update) == Contribution::Valuable {
            summary.valuable_additions += 1;
            valuable_additions.push(update);
        } else {
            summary.useless_additions += 1;
            counters.updates_dropped += 1;
        }
    }
    incremental::apply_additions(graph, result, &valuable_additions, &mut counters);
    excluded += boundary(result);

    // Dependence links of every deletion in the batch: required by repair
    // tagging so subtrees hanging off not-yet-processed deletions are reset
    // too.
    let built;
    let pending = match pending {
        Some(shared) => shared,
        None => {
            built = PendingDeletions::from_batch(batch.iter().copied());
            &built
        }
    };

    // Phase 1b: identify deletions against the post-addition states (the
    // prefetchers read the live SPM image, which already holds the addition
    // results by the time deletions stream in).
    let mut key_paths = KeyPathUnion::extract(result, queries);
    let mut non_delayed = Vec::new();
    let mut delayed = Vec::new();
    for &update in batch.iter().filter(|u| u.kind().is_delete()) {
        counters.computations += 1;
        match classify_deletion_dependence(result, |u| key_paths.contains(u), update) {
            Contribution::Valuable => {
                summary.valuable_deletions += 1;
                non_delayed.push(update);
            }
            Contribution::Delayed => {
                summary.delayed_deletions += 1;
                delayed.push(update);
            }
            Contribution::Useless => {
                summary.useless_deletions += 1;
                counters.updates_dropped += 1;
            }
        }
    }

    // Phase 2: process non-delayed deletions preemptively; each repair can
    // move a key path, so delayed updates are re-scanned and promoted when
    // they become valuable ("when detecting a valuable update, we assign it
    // the highest priority", §III-A). After this loop no pending deletion
    // can touch a key path, which makes the early answer exact.
    while !non_delayed.is_empty() {
        for del in non_delayed.drain(..) {
            incremental::apply_deletion_with(graph, result, del, pending, scratch, &mut counters);
        }
        key_paths = KeyPathUnion::extract(result, queries);
        let (promoted, rest): (Vec<_>, Vec<_>) = delayed.into_iter().partition(|&del| {
            classify_deletion_dependence(result, |u| key_paths.contains(u), del)
                == Contribution::Valuable
        });
        non_delayed = promoted;
        delayed = rest;
    }

    // Phase 3: respond.
    let answer = queries
        .first()
        .map_or_else(A::unreached, |q| result.state(q.destination()));
    let response_time = start.elapsed().saturating_sub(excluded);
    excluded += boundary(result);

    // Phase 4: drain delayed deletions for future correctness.
    for del in delayed {
        incremental::apply_deletion_with(graph, result, del, pending, scratch, &mut counters);
    }

    let mut report = BatchReport::new(answer);
    report.response_time = response_time;
    report.total_time = start.elapsed().saturating_sub(excluded);
    report.counters = counters;
    report.classification = Some(summary);
    report
}

/// Copies `states` into `buf`, reusing its allocation; returns the time
/// the copy took.
fn copy_states(buf: &mut Vec<State>, states: &[State]) -> Duration {
    let clock = Instant::now();
    buf.clear();
    buf.extend_from_slice(states);
    clock.elapsed()
}

/// Vertices whose state differs between two phase boundaries.
fn changed(before: &[State], after: &[State]) -> u64 {
    before.iter().zip(after).filter(|(a, b)| a != b).count() as u64
}

/// The software implementation of the CISGraph workflow:
///
/// 1. **Identify** — run Algorithm 1 over the batch against the previous
///    converged states and global key path,
/// 2. **Schedule** — drop useless updates; propagate valuable additions,
///    then non-delayed valuable deletions preemptively,
/// 3. **Respond** — the query answer is ready as soon as no valuable update
///    remains (`response_time`),
/// 4. **Drain** — process delayed deletions to keep future batches correct
///    (`total_time`).
///
/// Final states after the drain are bit-identical to a full recomputation
/// on the new snapshot (verified by the cross-engine equivalence tests).
#[derive(Debug, Clone)]
pub struct CisGraphO<A: MonotonicAlgorithm> {
    query: PairQuery,
    result: ConvergedResult<A>,
    /// Deletion-repair working memory, reused across batches.
    scratch: RepairScratch,
    /// States before additions, after additions, and at response: the
    /// phase boundaries the activation counts diff.
    phase_states: [Vec<State>; 3],
}

impl<A: MonotonicAlgorithm> CisGraphO<A> {
    /// Converges the initial snapshot and installs the standing query.
    ///
    /// # Panics
    ///
    /// Panics if a query endpoint is outside `graph`.
    pub fn new(graph: &DynamicGraph, query: PairQuery) -> Self {
        let mut counters = Counters::new();
        let result = solver::best_first::<A, _>(graph, query.source(), &mut counters);
        Self {
            query,
            result,
            scratch: RepairScratch::new(),
            phase_states: Default::default(),
        }
    }

    /// The standing query.
    pub fn query(&self) -> PairQuery {
        self.query
    }

    /// Read access to the converged result (used by the accelerator model
    /// to seed its simulated memory image).
    pub fn result(&self) -> &ConvergedResult<A> {
        &self.result
    }
}

impl<A: MonotonicAlgorithm> StreamingEngine<A> for CisGraphO<A> {
    fn name(&self) -> &'static str {
        "CISGraph-O"
    }

    fn process_batch(&mut self, graph: &DynamicGraph, batch: &[EdgeUpdate]) -> BatchReport {
        let _batch_span = cisgraph_obs::span("ciso.batch");
        let Self {
            query,
            result,
            scratch,
            phase_states,
        } = self;
        // Fig. 5(b) activation counts are *net* state changes per phase, so
        // states are copied at each phase boundary. The copies are
        // measurement bookkeeping: the first is taken before the workflow's
        // clock starts, the others are left out of its times, and the diffs
        // run after it stops.
        result.grow(graph.num_vertices());
        copy_states(&mut phase_states[0], result.states());
        let mut phase = 0;
        let mut span = cisgraph_obs::span("ciso.additions");
        let mut report = run_workflow(result, &[*query], graph, batch, None, scratch, |r| {
            phase += 1;
            span = cisgraph_obs::span(["ciso.deletions", "ciso.drain"][phase - 1]);
            copy_states(&mut phase_states[phase], r.states())
        });
        drop(span);
        let [before_adds, after_adds, at_response] = &*phase_states;
        report.addition_activations = changed(before_adds, after_adds);
        report.deletion_activations = changed(after_adds, at_response);
        report.drain_activations = changed(at_response, result.states());
        crate::engine::obs_record_batch(self.name(), &report);
        report
    }

    fn answer(&self) -> State {
        self.result.state(self.query.destination())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_algo::{Ppsp, Reach};
    use cisgraph_types::{VertexId, Weight};

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    #[test]
    fn initial_convergence_answers_query() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let engine = CisGraphO::<Ppsp>::new(&g, PairQuery::new(v(0), v(2)).unwrap());
        assert_eq!(engine.answer().get(), 2.0);
    }

    #[test]
    fn valuable_addition_improves_answer() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(2), w(5.0)).unwrap();
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let mut engine = CisGraphO::<Ppsp>::new(&g, PairQuery::new(v(0), v(2)).unwrap());

        let batch = vec![EdgeUpdate::insert(v(1), v(2), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let r = engine.process_batch(&g, &batch);
        assert_eq!(activations(&r), [1, 0, 0]);
        assert_eq!(r.answer.get(), 2.0);
        let summary = r.classification.unwrap();
        assert_eq!(summary.valuable_additions, 1);
    }

    #[test]
    fn useless_updates_are_dropped_without_propagation() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let mut engine = CisGraphO::<Ppsp>::new(&g, PairQuery::new(v(0), v(1)).unwrap());

        let batch = vec![EdgeUpdate::insert(v(0), v(1), w(9.0))];
        g.apply_batch(&batch).unwrap();
        let r = engine.process_batch(&g, &batch);
        assert_eq!(r.answer.get(), 1.0);
        assert_eq!(r.counters.updates_dropped, 1);
        assert_eq!(r.addition_activations, 0);
    }

    #[test]
    fn key_path_deletion_changes_answer() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(2), w(2.0)).unwrap();
        g.insert_edge(v(0), v(1), w(3.0)).unwrap();
        g.insert_edge(v(1), v(2), w(3.0)).unwrap();
        let mut engine = CisGraphO::<Ppsp>::new(&g, PairQuery::new(v(0), v(2)).unwrap());
        assert_eq!(engine.answer().get(), 2.0);

        let batch = vec![EdgeUpdate::delete(v(0), v(2), w(2.0))];
        g.apply_batch(&batch).unwrap();
        let r = engine.process_batch(&g, &batch);
        assert_eq!(activations(&r), [0, 1, 0]);
        assert_eq!(r.answer.get(), 6.0, "answer re-routes through v1");
        assert_eq!(r.classification.unwrap().valuable_deletions, 1);
    }

    #[test]
    fn delayed_deletion_keeps_answer_and_fixes_state() {
        // Key path v0 -> v2 direct; side chain v0 -> v1 -> v3 (v1, v3 off
        // the key path). Deleting v1 -> v3 is delayed: answer unchanged but
        // v3's state must eventually be repaired.
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(2), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(3), w(1.0)).unwrap();
        let mut engine = CisGraphO::<Ppsp>::new(&g, PairQuery::new(v(0), v(2)).unwrap());

        let batch = vec![EdgeUpdate::delete(v(1), v(3), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let r = engine.process_batch(&g, &batch);
        assert_eq!(activations(&r), [0, 0, 1]);
        assert_eq!(r.answer.get(), 1.0);
        assert_eq!(r.classification.unwrap().delayed_deletions, 1);
        // After the drain, v3 is unreached.
        assert_eq!(engine.result().state(v(3)), State::POS_INF);
        assert!(r.response_time <= r.total_time);
    }

    #[test]
    fn reach_engine_tracks_disconnection() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let mut engine = CisGraphO::<Reach>::new(&g, PairQuery::new(v(0), v(2)).unwrap());
        assert_eq!(engine.answer().get(), 1.0);

        let batch = vec![EdgeUpdate::delete(v(0), v(1), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let r = engine.process_batch(&g, &batch);
        assert_eq!(activations(&r), [0, 2, 0]);
        assert_eq!(r.answer.get(), 0.0, "destination no longer reachable");
    }

    #[test]
    fn grows_with_graph() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let mut engine = CisGraphO::<Ppsp>::new(&g, PairQuery::new(v(0), v(1)).unwrap());

        // A batch that references a brand-new vertex id 5.
        let batch = vec![EdgeUpdate::insert(v(1), v(5), w(1.0))];
        let mut g2 = DynamicGraph::from_edges(6, g.iter_edges().collect::<Vec<_>>());
        g2.apply_batch(&batch).unwrap();
        let r = engine.process_batch(&g2, &batch);
        assert_eq!(r.answer.get(), 1.0);
        assert_eq!(engine.result().state(v(5)).get(), 2.0);
    }

    /// Fig. 5(b) activation counts (additions, deletions, drain); pinned
    /// in the tests above and below. They are computed off the response
    /// timer and must not move with it.
    fn activations(r: &BatchReport) -> [u64; 3] {
        [
            r.addition_activations,
            r.deletion_activations,
            r.drain_activations,
        ]
    }

    #[test]
    fn activation_counts_are_unchanged_on_a_mixed_stream() {
        let edges = cisgraph_datasets::erdos_renyi::generate(
            60,
            480,
            cisgraph_datasets::weights::WeightDistribution::paper_default(),
            31,
        );
        let mut g = DynamicGraph::from_edges(60, edges.clone());
        let mut engine = CisGraphO::<Ppsp>::new(&g, PairQuery::new(v(0), v(41)).unwrap());
        let mut trace = Vec::new();
        for (i, chunk) in edges.chunks(60).enumerate().take(6) {
            let dels = chunk.iter().step_by(2);
            let mut batch: Vec<EdgeUpdate> = dels
                .map(|&(a, b, wt)| EdgeUpdate::delete(a, b, wt))
                .collect();
            for j in 0..20u32 {
                let (a, b) = ((j * 7 + i as u32 * 3) % 60, (j * 13 + 5) % 60);
                if a != b {
                    batch.push(EdgeUpdate::insert(v(a), v(b), w(f64::from(1 + j % 4))));
                }
            }
            g.apply_batch(&batch).unwrap();
            trace.push(activations(&engine.process_batch(&g, &batch)));
        }
        let expected = [
            [47, 0, 1],
            [41, 19, 0],
            [49, 0, 2],
            [35, 0, 0],
            [29, 0, 3],
            [29, 2, 2],
        ];
        assert_eq!(trace, expected);
    }
}
