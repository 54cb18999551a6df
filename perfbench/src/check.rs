//! Correctness checks: every checked answer against a Cold-Start
//! recompute, and recovered graphs against an in-memory replay.

use cisgraph_algo::Ppsp;
use cisgraph_engines::{ColdStart, StreamingEngine};
use cisgraph_graph::DynamicGraph;
use cisgraph_persist::snapshot_digest;
use cisgraph_types::{PairQuery, State};

/// The Cold-Start answer of `query` on `graph`.
pub fn cold_start_answer(graph: &DynamicGraph, query: PairQuery) -> State {
    ColdStart::<Ppsp>::new(query)
        .process_batch(graph, &[])
        .answer
}

/// How many of `answers` differ from a Cold-Start recompute on `graph`.
/// The recomputes run on two threads; nothing here is timed.
pub fn cold_start_mismatches(graph: &DynamicGraph, answers: &[(PairQuery, State)]) -> u64 {
    let count = |chunk: &[(PairQuery, State)]| {
        chunk
            .iter()
            .filter(|&&(q, s)| cold_start_answer(graph, q) != s)
            .count() as u64
    };
    let (left, right) = answers.split_at(answers.len() / 2);
    std::thread::scope(|s| {
        let other = s.spawn(|| count(right));
        count(left) + other.join().expect("Cold-Start check thread panicked")
    })
}

/// The digest of `graph`'s CSR snapshot, as checkpoints record it.
pub fn digest(graph: &DynamicGraph) -> u32 {
    snapshot_digest(&graph.snapshot())
}

/// 1 when `graph`'s digest differs from `expected`, else 0.
pub fn digest_mismatch(graph: &DynamicGraph, expected: u32) -> u64 {
    u64::from(digest(graph) != expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_types::{VertexId, Weight};

    fn path_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(VertexId::new(0), VertexId::new(1), Weight::ONE)
            .unwrap();
        g.insert_edge(VertexId::new(1), VertexId::new(2), Weight::ONE)
            .unwrap();
        g
    }

    #[test]
    fn cold_start_check_flags_a_perturbed_answer() {
        let g = path_graph();
        let q = PairQuery::new(VertexId::new(0), VertexId::new(2)).unwrap();
        let right = cold_start_answer(&g, q);
        assert_eq!(cold_start_mismatches(&g, &[(q, right)]), 0);
        let perturbed = State::new(right.get() + 1.0).unwrap();
        assert_eq!(cold_start_mismatches(&g, &[(q, right), (q, perturbed)]), 1);
    }

    #[test]
    fn digest_check_flags_a_perturbed_digest() {
        let g = path_graph();
        let d = digest(&g);
        assert_eq!(digest_mismatch(&g, d), 0);
        assert_eq!(digest_mismatch(&g, d ^ 1), 1);
    }
}
