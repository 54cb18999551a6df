//! The contribution-*unaware* incremental engine, used as the ablation
//! baseline ("what if CISGraph processed every update like JetStream-style
//! incremental systems do").
//!
//! It reuses the same incremental machinery as CISGraph-O but skips
//! Algorithm 1 entirely: every addition is seeded, every deletion examined,
//! in arrival order. The per-update instrumentation it returns also powers
//! the Fig. 2 breakdown (how much computation and time is spent on updates
//! that a classifier would have dropped).

use cisgraph_algo::{incremental, solver, ConvergedResult, Counters, MonotonicAlgorithm};
use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_types::{EdgeUpdate, PairQuery, State};
use std::time::{Duration, Instant};

/// Per-update cost record from an instrumented naive run.
#[derive(Debug, Clone, Copy)]
pub struct UpdateCost {
    /// The update this record describes.
    pub update: EdgeUpdate,
    /// ⊕ evaluations attributable to this update's propagation.
    pub computations: u64,
    /// State changes attributable to this update's propagation.
    pub activations: u64,
    /// Wall-clock time spent propagating this update.
    pub time: Duration,
}

/// How the contribution-unaware baseline repairs deletions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeletionPolicy {
    /// Reachability tagging, the prior-work recipe the paper measures
    /// against (§II-A: GraphFly "traverses graph topology originated from
    /// deleted edges and resets all reachable vertices to initial states").
    /// Every deletion — useless or not — pays a traversal plus a
    /// re-convergence of the reset region, which is what makes deletions so
    /// wasteful in Fig. 2.
    #[default]
    ReachabilityReset,
    /// Dependence tagging (KickStarter-style), the efficient repair the
    /// CISGraph engines use. With this policy the baseline only differs
    /// from CISGraph-O by not classifying.
    DependenceTag,
}

/// The naive incremental engine.
#[derive(Debug, Clone)]
pub struct NaiveIncremental<A: MonotonicAlgorithm> {
    query: PairQuery,
    result: ConvergedResult<A>,
    policy: DeletionPolicy,
}

impl<A: MonotonicAlgorithm> NaiveIncremental<A> {
    /// Converges the initial snapshot with the default (prior-work)
    /// deletion policy.
    ///
    /// # Panics
    ///
    /// Panics if a query endpoint is outside `graph`.
    pub fn new(graph: &DynamicGraph, query: PairQuery) -> Self {
        Self::with_policy(graph, query, DeletionPolicy::default())
    }

    /// Converges the initial snapshot with an explicit deletion policy.
    ///
    /// # Panics
    ///
    /// Panics if a query endpoint is outside `graph`.
    pub fn with_policy(graph: &DynamicGraph, query: PairQuery, policy: DeletionPolicy) -> Self {
        let result = solver::best_first::<A, _>(graph, query.source(), &mut Counters::new());
        Self {
            query,
            result,
            policy,
        }
    }

    /// GraphFly-style deletion: BFS everything reachable from the deleted
    /// edge's destination, reset it, then re-converge the region from its
    /// untouched frontier.
    fn reachability_reset(
        &mut self,
        graph: &DynamicGraph,
        deletion: EdgeUpdate,
        counters: &mut Counters,
    ) {
        let v = deletion.dst();
        if v == self.result.source() {
            counters.updates_dropped += 1;
            return;
        }
        counters.updates_processed += 1;
        // Tag everything reachable from v (over-approximation of the
        // dependence set — the prior-work safety recipe).
        let mut tagged = vec![v];
        let mut mark = std::collections::HashSet::new();
        mark.insert(v);
        let mut cursor = 0;
        while cursor < tagged.len() {
            let x = tagged[cursor];
            cursor += 1;
            for edge in graph.out_edges(x) {
                counters.computations += 1;
                let y = edge.to();
                if y != self.result.source() && mark.insert(y) {
                    tagged.push(y);
                }
            }
        }
        for &x in &tagged {
            self.result.set_state(x, A::unreached(), None);
            counters.resets += 1;
        }
        // Re-converge: seed every tagged vertex from untagged in-neighbors.
        let mut frontier = Vec::new();
        for &x in &tagged {
            let mut best = A::unreached();
            let mut best_parent = None;
            for edge in graph.in_edges(x) {
                counters.computations += 1;
                let cand = A::combine(self.result.state(edge.to()), edge.weight());
                if A::improves(cand, best) {
                    best = cand;
                    best_parent = Some(edge.to());
                }
            }
            if A::improves(best, self.result.state(x)) {
                self.result.set_state(x, best, best_parent);
                counters.activations += 1;
                frontier.push(x);
            }
        }
        // Drain to quiescence with a plain worklist.
        let mut queue: std::collections::VecDeque<_> = frontier.into();
        while let Some(x) = queue.pop_front() {
            let x_state = self.result.state(x);
            for edge in graph.out_edges(x) {
                counters.computations += 1;
                let cand = A::combine(x_state, edge.weight());
                if A::improves(cand, self.result.state(edge.to())) {
                    self.result.set_state(edge.to(), cand, Some(x));
                    counters.activations += 1;
                    queue.push_back(edge.to());
                }
            }
        }
    }

    /// The current answer.
    pub fn answer(&self) -> State {
        self.result.state(self.query.destination())
    }

    /// Read access to the converged result.
    pub fn result(&self) -> &ConvergedResult<A> {
        &self.result
    }

    /// Processes a batch update-by-update (additions first, then deletions,
    /// per the evaluation's fairness rule), recording the cost of each.
    ///
    /// `graph` must reflect the post-batch topology.
    pub fn process_batch_instrumented(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
    ) -> Vec<UpdateCost> {
        self.result.grow(graph.num_vertices());
        let pending = incremental::PendingDeletions::from_batch(batch.iter().copied());
        let mut scratch = incremental::RepairScratch::new();
        let mut costs = Vec::with_capacity(batch.len());
        let ordered = batch
            .iter()
            .filter(|u| u.kind().is_insert())
            .chain(batch.iter().filter(|u| u.kind().is_delete()));
        for &update in ordered {
            let mut counters = Counters::new();
            let start = Instant::now();
            if update.kind().is_insert() {
                incremental::apply_additions(graph, &mut self.result, &[update], &mut counters);
            } else {
                match self.policy {
                    DeletionPolicy::ReachabilityReset => {
                        self.reachability_reset(graph, update, &mut counters)
                    }
                    DeletionPolicy::DependenceTag => {
                        incremental::apply_deletion_with(
                            graph,
                            &mut self.result,
                            update,
                            &pending,
                            &mut scratch,
                            &mut counters,
                        );
                    }
                }
            }
            costs.push(UpdateCost {
                update,
                computations: counters.computations,
                activations: counters.activations,
                time: start.elapsed(),
            });
        }
        costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_algo::Ppsp;
    use cisgraph_types::{VertexId, Weight};

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    #[test]
    fn matches_full_recompute() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(2.0)).unwrap();
        g.insert_edge(v(1), v(3), w(2.0)).unwrap();
        let q = PairQuery::new(v(0), v(3)).unwrap();
        let mut e = NaiveIncremental::<Ppsp>::new(&g, q);
        let batch = vec![
            EdgeUpdate::insert(v(0), v(3), w(3.0)),
            EdgeUpdate::delete(v(1), v(3), w(2.0)),
        ];
        g.apply_batch(&batch).unwrap();
        let costs = e.process_batch_instrumented(&g, &batch);
        assert_eq!(costs.len(), 2);
        assert_eq!(e.answer().get(), 3.0);
    }

    #[test]
    fn per_update_costs_are_attributed() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(5.0)).unwrap();
        let q = PairQuery::new(v(0), v(1)).unwrap();
        let mut e = NaiveIncremental::<Ppsp>::new(&g, q);
        let batch = vec![
            EdgeUpdate::insert(v(0), v(1), w(1.0)), // improves -> work
            EdgeUpdate::insert(v(0), v(1), w(9.0)), // useless -> ~no work
        ];
        g.apply_batch(&batch).unwrap();
        let costs = e.process_batch_instrumented(&g, &batch);
        assert!(costs[0].activations >= 1);
        assert_eq!(costs[1].activations, 0);
    }
}
