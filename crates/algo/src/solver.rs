//! Static (from-scratch) solvers.
//!
//! * [`best_first`] — generalized Dijkstra over the algorithm's rank order.
//!   Valid for every [`MonotonicAlgorithm`] whose ⊕ never improves on its
//!   input state (property-tested in `algorithms.rs`).
//! * [`worklist`] — Bellman-Ford-style fixpoint, slower but assumption-free;
//!   used to cross-validate the best-first solver.

use crate::incremental::{ConvergedResult, Frontier};
use crate::{Counters, MonotonicAlgorithm};
use cisgraph_graph::GraphView;
use cisgraph_types::VertexId;
use std::collections::VecDeque;

/// Converges all states reachable from `source` (one-to-all), best-first.
///
/// This is the Cold-Start computation of the paper's baseline: full
/// computation from the initial state.
///
/// # Panics
///
/// Panics if `source` is out of bounds.
///
/// # Examples
///
/// ```
/// use cisgraph_algo::{solver, Counters, Ppsp};
/// use cisgraph_graph::DynamicGraph;
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(3);
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(2), Weight::new(7.0)?))?;
/// let r = solver::best_first::<Ppsp, _>(&g, VertexId::new(0), &mut Counters::new());
/// assert_eq!(r.state(VertexId::new(2)).get(), 7.0);
/// # Ok(())
/// # }
/// ```
pub fn best_first<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    source: VertexId,
    counters: &mut Counters,
) -> ConvergedResult<A> {
    let mut result = ConvergedResult::fresh(graph.num_vertices(), source);
    let mut frontier = Frontier::default();
    frontier.push(A::rank(result.state(source)), source);
    crate::incremental::propagate(graph, &mut result, &mut frontier, counters);
    result
}

/// Fixpoint solver: repeatedly relaxes out-edges of dirty vertices (FIFO)
/// until nothing changes. Makes no monotonicity assumption beyond ⊗ being a
/// selection, so it serves as the reference for cross-validating
/// [`best_first`].
///
/// # Panics
///
/// Panics if `source` is out of bounds.
pub fn worklist<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    source: VertexId,
    counters: &mut Counters,
) -> ConvergedResult<A> {
    let mut result = ConvergedResult::fresh(graph.num_vertices(), source);
    let mut queue = VecDeque::new();
    let mut queued = vec![false; graph.num_vertices()];
    queue.push_back(source);
    queued[source.index()] = true;
    while let Some(u) = queue.pop_front() {
        queued[u.index()] = false;
        let u_state = result.state(u);
        for edge in graph.out_edges(u) {
            counters.computations += 1;
            let candidate = A::combine(u_state, edge.weight());
            let v = edge.to();
            if A::improves(candidate, result.state(v)) {
                result.set(v, candidate, Some(u));
                counters.activations += 1;
                if !queued[v.index()] {
                    queued[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ppnp, Ppsp, Ppwp, Reach, Viterbi};
    use cisgraph_datasets::erdos_renyi;
    use cisgraph_datasets::weights::WeightDistribution;
    use cisgraph_graph::DynamicGraph;
    use cisgraph_types::{State, Weight};

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    fn diamond() -> DynamicGraph {
        // 0 -> 1 (1), 0 -> 2 (4), 1 -> 3 (5), 2 -> 3 (1)
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(0), v(2), w(4.0)).unwrap();
        g.insert_edge(v(1), v(3), w(5.0)).unwrap();
        g.insert_edge(v(2), v(3), w(1.0)).unwrap();
        g
    }

    #[test]
    fn ppsp_diamond() {
        let r = best_first::<Ppsp, _>(&diamond(), v(0), &mut Counters::new());
        assert_eq!(r.state(v(3)).get(), 5.0);
        assert_eq!(r.parent(v(3)), Some(v(2)));
    }

    #[test]
    fn ppwp_diamond() {
        // widest: via 2 -> bottleneck min(4,1)=1; via 1 -> min(1,5)=1; both 1
        let r = best_first::<Ppwp, _>(&diamond(), v(0), &mut Counters::new());
        assert_eq!(r.state(v(3)).get(), 1.0);
        assert_eq!(r.state(v(2)).get(), 4.0);
    }

    #[test]
    fn ppnp_diamond() {
        // narrowest: via 1 -> max(1,5)=5; via 2 -> max(4,1)=4; best 4
        let r = best_first::<Ppnp, _>(&diamond(), v(0), &mut Counters::new());
        assert_eq!(r.state(v(3)).get(), 4.0);
        assert_eq!(r.parent(v(3)), Some(v(2)));
    }

    #[test]
    fn viterbi_diamond() {
        // probabilities: 1/w. via 1: 1/1 * 1/5 = 0.2; via 2: 1/4 * 1/1 = 0.25
        let r = best_first::<Viterbi, _>(&diamond(), v(0), &mut Counters::new());
        assert_eq!(r.state(v(3)).get(), 0.25);
        assert_eq!(r.parent(v(3)), Some(v(2)));
    }

    #[test]
    fn reach_diamond() {
        let r = best_first::<Reach, _>(&diamond(), v(0), &mut Counters::new());
        for i in 0..4 {
            assert!(r.is_reached(v(i)));
        }
        let r = best_first::<Reach, _>(&diamond(), v(1), &mut Counters::new());
        assert!(!r.is_reached(v(2)), "v2 not reachable from v1");
    }

    #[test]
    fn unreachable_stays_unreached() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        assert_eq!(r.state(v(2)), State::POS_INF);
        assert_eq!(r.parent(v(2)), None);
    }

    /// Cross-validation: best-first and worklist agree on random graphs for
    /// all five algorithms.
    #[test]
    fn best_first_agrees_with_worklist_on_random_graphs() {
        for seed in 0..5u64 {
            let edges = erdos_renyi::generate(60, 300, WeightDistribution::paper_default(), seed);
            let g = DynamicGraph::from_edges(60, edges);
            macro_rules! check {
                ($a:ty) => {
                    let bf = best_first::<$a, _>(&g, v(0), &mut Counters::new());
                    let wl = worklist::<$a, _>(&g, v(0), &mut Counters::new());
                    for i in 0..g_num(&g) {
                        assert_eq!(
                            bf.state(VertexId::from_index(i)),
                            wl.state(VertexId::from_index(i)),
                            "{} seed {seed} vertex {i}",
                            <$a as MonotonicAlgorithm>::NAME
                        );
                    }
                };
            }
            check!(Ppsp);
            check!(Ppwp);
            check!(Ppnp);
            check!(Viterbi);
            check!(Reach);
        }
    }

    fn g_num(g: &DynamicGraph) -> usize {
        g.num_vertices()
    }

    #[test]
    fn parents_witness_states() {
        // Every reached non-source vertex: combine(state[parent], w(parent->v)) == state[v].
        let edges = erdos_renyi::generate(80, 400, WeightDistribution::paper_default(), 13);
        let g = DynamicGraph::from_edges(80, edges);
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        for i in 0..80u32 {
            let x = v(i);
            if x == r.source() || !r.is_reached(x) {
                continue;
            }
            let p = r.parent(x).expect("reached vertex must have a parent");
            let witnessed = g
                .out_edges(p)
                .iter()
                .filter(|e| e.to() == x)
                .any(|e| Ppsp::combine(r.state(p), e.weight()) == r.state(x));
            assert!(witnessed, "parent of v{i} does not witness its state");
        }
    }
}
