//! JetStream-like coalescing baseline (§II-A / §V related work).
//!
//! JetStream "encodes graph updates into events, coalesces multiple events
//! once they target the same vertex, and applies the merged state value to
//! out-degree neighbors together". This engine reproduces that idea in
//! software: per batch, all addition events targeting the same destination
//! are merged into the single best candidate before seeding, and deletion
//! repairs of the same destination collapse into one. It remains
//! contribution-*unaware* — nothing is dropped, every merged event
//! propagates — so comparing it with [`CisGraphO`](crate::CisGraphO)
//! isolates exactly what the paper's classification adds on top of
//! coalescing.

use crate::{BatchReport, StreamingEngine};
use cisgraph_algo::incremental::{self, RepairScratch};
use cisgraph_algo::{solver, ConvergedResult, Counters, MonotonicAlgorithm};
use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_types::{EdgeUpdate, PairQuery, State, VertexId};
use std::collections::HashMap;
use std::time::Instant;

/// The coalescing incremental engine.
#[derive(Debug, Clone)]
pub struct Coalescing<A: MonotonicAlgorithm> {
    query: PairQuery,
    result: ConvergedResult<A>,
    scratch: RepairScratch,
}

impl<A: MonotonicAlgorithm> Coalescing<A> {
    /// Converges the initial snapshot and installs the standing query.
    ///
    /// # Panics
    ///
    /// Panics if a query endpoint is outside `graph`.
    pub fn new(graph: &DynamicGraph, query: PairQuery) -> Self {
        let result = solver::best_first::<A, _>(graph, query.source(), &mut Counters::new());
        Self {
            query,
            result,
            scratch: RepairScratch::new(),
        }
    }

    /// The standing query.
    pub fn query(&self) -> PairQuery {
        self.query
    }

    /// Read access to the converged result.
    pub fn result(&self) -> &ConvergedResult<A> {
        &self.result
    }
}

impl<A: MonotonicAlgorithm> StreamingEngine<A> for Coalescing<A> {
    fn name(&self) -> &'static str {
        "Coalescing"
    }

    fn process_batch(&mut self, graph: &DynamicGraph, batch: &[EdgeUpdate]) -> BatchReport {
        let _batch_span = cisgraph_obs::span("coalescing.batch");
        let start = Instant::now();
        let mut counters = Counters::new();
        self.result.grow(graph.num_vertices());

        // Event coalescing: per destination keep only the best addition
        // candidate (the merged event JetStream would apply).
        let mut merged: HashMap<VertexId, EdgeUpdate> = HashMap::new();
        for update in batch.iter().filter(|u| u.kind().is_insert()) {
            counters.computations += 1;
            match merged.entry(update.dst()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(*update);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let old = A::combine(self.result.state(e.get().src()), e.get().weight());
                    let new = A::combine(self.result.state(update.src()), update.weight());
                    if A::improves(new, old) {
                        e.insert(*update);
                    }
                }
            }
        }
        let mut additions: Vec<EdgeUpdate> = merged.into_values().collect();
        additions.sort_by_key(|u| (u.dst(), u.src()));
        incremental::apply_additions(graph, &mut self.result, &additions, &mut counters);

        // Deletions coalesce into one shared repair pass (the batch-event
        // processing JetStream's event model implies).
        let deletions: Vec<EdgeUpdate> = batch
            .iter()
            .copied()
            .filter(|u| u.kind().is_delete())
            .collect();
        incremental::apply_deletions_batched(
            graph,
            &mut self.result,
            &deletions,
            &mut self.scratch,
            &mut counters,
        );

        let elapsed = start.elapsed();
        let mut report = BatchReport::new(self.result.state(self.query.destination()));
        report.response_time = elapsed;
        report.total_time = elapsed;
        report.counters = counters;
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
    use crate::ColdStart;
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
    fn coalesces_same_destination_additions() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(9.0)).unwrap();
        let q = PairQuery::new(v(0), v(1)).unwrap();
        let mut e = Coalescing::<Ppsp>::new(&g, q);
        // Three additions to the same destination; only the best candidate
        // should seed a propagation.
        let batch = vec![
            EdgeUpdate::insert(v(0), v(1), w(5.0)),
            EdgeUpdate::insert(v(0), v(1), w(2.0)),
            EdgeUpdate::insert(v(0), v(1), w(7.0)),
        ];
        g.apply_batch(&batch).unwrap();
        let r = e.process_batch(&g, &batch);
        assert_eq!(r.answer.get(), 2.0);
        // One merged event processed, nothing else seeded.
        assert_eq!(r.counters.updates_processed, 1);
    }

    #[test]
    fn answers_match_cold_start_over_stream() {
        use cisgraph_datasets::StreamConfig;
        for seed in 0..3u64 {
            let edges = erdos_renyi::generate(50, 500, WeightDistribution::paper_default(), seed);
            let mut stream = StreamConfig::paper_default()
                .with_batch_size(40, 40)
                .build(edges, seed);
            let mut g = DynamicGraph::new(stream.num_vertices());
            for &(a, b, wt) in stream.initial_edges() {
                g.insert_edge(a, b, wt).unwrap();
            }
            let q = PairQuery::new(v(0), v(37)).unwrap();
            let mut coal = Coalescing::<Ppsp>::new(&g, q);
            let mut cs = ColdStart::<Ppsp>::new(q);
            for _ in 0..3 {
                let Some(batch) = stream.next_batch() else {
                    break;
                };
                g.apply_batch(&batch).unwrap();
                assert_eq!(
                    coal.process_batch(&g, &batch).answer,
                    cs.process_batch(&g, &batch).answer,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn reach_disconnection() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let q = PairQuery::new(v(0), v(2)).unwrap();
        let mut e = Coalescing::<Reach>::new(&g, q);
        assert_eq!(e.answer(), State::ONE);
        let batch = vec![EdgeUpdate::delete(v(0), v(1), w(1.0))];
        g.apply_batch(&batch).unwrap();
        assert_eq!(e.process_batch(&g, &batch).answer, State::ZERO);
    }
}
