//! CISGraph-O: the contribution-aware software workflow (§III-A).

use crate::engine::EngineObs;
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
            KeyPath::push_reversed(result, q, &mut members);
        }
        members.sort_unstable();
        members.dedup();
        Self(members)
    }

    fn contains(&self, v: VertexId) -> bool {
        self.0.binary_search(&v).is_ok()
    }

    /// Whether repairing `del` can move a key path: `del` still supports
    /// its target (`parent(v) == u`) and the target lies on the union.
    /// Repairing `u -> v` resets only `v`'s dependence subtree, and a
    /// key-path vertex inside it would make `v` its ancestor, so on the key
    /// path too: every other deletion leaves the key paths and their states
    /// as they are.
    fn moved_by<A: MonotonicAlgorithm>(
        &self,
        result: &ConvergedResult<A>,
        del: EdgeUpdate,
    ) -> bool {
        result.parent(del.dst()) == Some(del.src()) && self.contains(del.dst())
    }
}

/// The CISGraph-O workflow for one converged result serving `queries`, all
/// from the result's source. Deletions are labelled on the union of the
/// queries' key paths with Algorithm 1's source test (the classification
/// summary), but only those whose *target* lies on the union are repaired
/// before the response; every other supporting deletion waits for the
/// drain. That keeps the early answer exact for every destination at once
/// (see [`KeyPathUnion::moved_by`]). The report's answer is the first
/// query's.
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
    incremental::apply_additions_with(graph, result, &valuable_additions, scratch, &mut counters);
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
    // Non-delayed deletions off the key paths drain first, in batch order,
    // then the delayed ones.
    let mut preempt = Vec::new();
    let mut drain = Vec::new();
    let mut delayed = Vec::new();
    for &update in batch.iter().filter(|u| u.kind().is_delete()) {
        counters.computations += 1;
        match classify_deletion_dependence(result, |u| key_paths.contains(u), update) {
            Contribution::Valuable => {
                summary.valuable_deletions += 1;
                if key_paths.contains(update.dst()) {
                    preempt.push(update);
                } else {
                    drain.push(update);
                }
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
    drain.extend(delayed);

    // Phase 2: repair the deletions that can move a key path preemptively;
    // each repair can move one, so the drain list is re-scanned and a
    // deletion is promoted once its target joins a key path ("when
    // detecting a valuable update, we assign it the highest priority",
    // §III-A). After this loop no pending deletion can touch a key path,
    // which makes the early answer exact.
    while !preempt.is_empty() {
        for del in preempt.drain(..) {
            incremental::apply_deletion_with(graph, result, del, pending, scratch, &mut counters);
        }
        key_paths = KeyPathUnion::extract(result, queries);
        let (promoted, rest): (Vec<_>, Vec<_>) = drain
            .into_iter()
            .partition(|&del| key_paths.moved_by(result, del));
        preempt = promoted;
        drain = rest;
    }

    // Phase 3: respond.
    let answer = queries
        .first()
        .map_or_else(A::unreached, |q| result.state(q.destination()));
    let response_time = start.elapsed().saturating_sub(excluded);
    excluded += boundary(result);

    // Phase 4: drain the remaining deletions for future correctness.
    for del in drain {
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
///    then repair preemptively the deletions whose target lies on the key
///    path,
/// 3. **Respond** — the query answer is ready as soon as no update that can
///    change it remains (`response_time`),
/// 4. **Drain** — repair the other non-delayed deletions, then the delayed
///    ones, to keep future batches correct (`total_time`).
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

static OBS: EngineObs = EngineObs::new("CISGraph-O");

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
        OBS.record(&report);
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
    fn off_key_path_repair_waits_for_the_drain() {
        // Key path v0 -> v1 -> v2; side branch v1 -> v3 -> v4. Deleting
        // v1 -> v3 is non-delayed by Algorithm 1 (v1 is on the key path),
        // but its target v3 is not, so the repair runs after the response.
        let mut g = DynamicGraph::new(5);
        for (a, b) in [(0, 1), (1, 2), (1, 3), (3, 4)] {
            g.insert_edge(v(a), v(b), w(1.0)).unwrap();
        }
        let q = PairQuery::new(v(0), v(2)).unwrap();
        let mut engine = CisGraphO::<Ppsp>::new(&g, q);

        let batch = vec![EdgeUpdate::delete(v(1), v(3), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let r = engine.process_batch(&g, &batch);
        assert_eq!(activations(&r), [0, 0, 2], "v3 and v4 reset in the drain");
        assert_eq!(r.answer.get(), 2.0, "the early answer");
        assert_eq!(r.classification.unwrap().valuable_deletions, 1);
        assert_eq!(engine.result().state(v(4)), State::POS_INF);
    }

    /// Runs the workflow for one group and returns every destination's
    /// state as the `boundary` callback sees it at the response, with the
    /// batch's count of repairs that fell back to a solve.
    fn states_at_response<A: MonotonicAlgorithm>(
        result: &mut ConvergedResult<A>,
        queries: &[PairQuery],
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
    ) -> (Vec<State>, u64) {
        let mut boundaries = 0;
        let mut early = Vec::new();
        let mut scratch = RepairScratch::new();
        let report = run_workflow(result, queries, graph, batch, None, &mut scratch, |r| {
            boundaries += 1;
            if boundaries == 2 {
                early = queries.iter().map(|q| r.state(q.destination())).collect();
            }
            Duration::ZERO
        });
        (early, report.counters.fallback_solves)
    }

    /// Groups of 2-4 destinations over random mixed streams: at the
    /// response, every destination already holds its cold-solve state.
    /// Returns how many repairs fell back to a solve.
    fn check_early_response_per_destination<A: MonotonicAlgorithm>() -> u64 {
        use cisgraph_datasets::{erdos_renyi, weights::WeightDistribution, StreamConfig};
        let mut fallbacks = 0;
        for seed in 0..6u64 {
            let edges = erdos_renyi::generate(80, 560, WeightDistribution::paper_default(), seed);
            let mut workload = StreamConfig::paper_default()
                .with_batch_size(30, 30)
                .build(edges, seed + 1);
            let n = workload.num_vertices() as u32;
            let mut g = DynamicGraph::new(n as usize);
            for &(a, b, wt) in workload.initial_edges() {
                g.insert_edge(a, b, wt).unwrap();
            }
            let source = v(seed as u32 % n);
            let queries: Vec<PairQuery> = (1..=2 + seed as u32 % 3)
                .map(|k| PairQuery::new(source, v((source.raw() + 17 * k) % n)).unwrap())
                .collect();
            let mut result = solver::best_first::<A, _>(&g, source, &mut Counters::new());
            for round in 0..4 {
                let Some(batch) = workload.next_batch() else {
                    break;
                };
                g.apply_batch(&batch).unwrap();
                let (early, fell_back) = states_at_response(&mut result, &queries, &g, &batch);
                fallbacks += fell_back;
                let cold = solver::best_first::<A, _>(&g, source, &mut Counters::new());
                assert_eq!(early.len(), queries.len(), "no response boundary");
                for (q, &state) in queries.iter().zip(&early) {
                    assert_eq!(
                        state,
                        cold.state(q.destination()),
                        "{} {q}, seed {seed} round {round}",
                        A::NAME
                    );
                }
            }
        }
        fallbacks
    }

    #[test]
    fn early_response_is_exact_for_every_destination() {
        use cisgraph_algo::{Ppnp, Ppwp, Viterbi};
        let fallbacks = check_early_response_per_destination::<Ppsp>()
            + check_early_response_per_destination::<Ppwp>()
            + check_early_response_per_destination::<Ppnp>()
            + check_early_response_per_destination::<Viterbi>()
            + check_early_response_per_destination::<Reach>();
        assert!(fallbacks > 0, "no repair fell back to a solve");
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
            // A non-delayed deletion whose target is off the key path: its
            // repair, and so its two net state changes, land in the drain.
            [29, 0, 4],
        ];
        assert_eq!(trace, expected);
    }
}
