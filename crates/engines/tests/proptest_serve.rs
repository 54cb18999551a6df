//! Property tests for the serving layer: for random graphs, random query
//! registries, and random deletion splits, the work-claiming
//! [`QueryServer`] must answer exactly like sequential per-query engines —
//! at every thread count.

use cisgraph_algo::Ppsp;
use cisgraph_datasets::erdos_renyi;
use cisgraph_datasets::weights::WeightDistribution;
use cisgraph_engines::{ColdStart, MultiQuery, QueryServer, ServeConfig, StreamingEngine};
use cisgraph_graph::DynamicGraph;
use cisgraph_types::{EdgeUpdate, PairQuery, State, VertexId};
use proptest::prelude::*;

const N: u32 = 40;
const EDGES: usize = 240;

/// A query pair with a guaranteed distinct destination.
fn query_strategy() -> impl Strategy<Value = PairQuery> {
    (0..N, 1..N).prop_map(|(s, off)| {
        PairQuery::new(VertexId::new(s), VertexId::new((s + off) % N)).expect("distinct endpoints")
    })
}

/// A random scenario: an Erdős–Rényi snapshot plus `batches` deletion
/// batches carved from disjoint slices of the initial edge list (so every
/// deletion names an edge that is still present when its batch applies).
fn scenario(seed: u64, stride: usize, batches: usize) -> (DynamicGraph, Vec<Vec<EdgeUpdate>>) {
    let edges = erdos_renyi::generate(N as usize, EDGES, WeightDistribution::paper_default(), seed);
    let graph = DynamicGraph::from_edges(N as usize, edges.clone());
    let mut out = vec![Vec::new(); batches];
    for (i, &(a, b, wt)) in edges.iter().enumerate() {
        if i % stride == 0 {
            out[i % batches].push(EdgeUpdate::delete(a, b, wt));
        }
    }
    (graph, out)
}

/// Streams the scenario through the server at `threads` workers and
/// returns the final answers in canonical order.
fn serve(
    graph: &DynamicGraph,
    queries: &[PairQuery],
    batches: &[Vec<EdgeUpdate>],
    threads: usize,
) -> Vec<(PairQuery, State)> {
    let mut server =
        QueryServer::<Ppsp>::new(graph.clone(), queries, &ServeConfig::with_threads(threads));
    for batch in batches {
        server
            .process_batch(batch)
            .expect("disjoint deletions apply");
    }
    server.answers()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel serving equals sequential per-query Cold-Start
    /// recomputation — the strongest oracle: a from-scratch engine that
    /// shares no incremental machinery with the serving layer.
    #[test]
    fn sharded_serving_matches_sequential_cold_start(
        seed in 0..1_000u64,
        stride in 2..6usize,
        num_batches in 1..4usize,
        queries in proptest::collection::vec(query_strategy(), 1..12),
        threads in 1..6usize,
    ) {
        let (graph, batches) = scenario(seed, stride, num_batches);
        let served = serve(&graph, &queries, &batches, threads);

        let mut expected: Vec<(PairQuery, State)> = queries
            .iter()
            .map(|&q| {
                let mut g = graph.clone();
                let mut cs = ColdStart::<Ppsp>::new(q);
                let mut answer = cs.process_batch(&g, &[]).answer;
                for batch in &batches {
                    g.apply_batch(batch).expect("disjoint deletions apply");
                    answer = cs.process_batch(&g, batch).answer;
                }
                (q, answer)
            })
            .collect();
        expected.sort_by_key(|(q, _)| (q.source(), q.destination()));
        expected.dedup();

        prop_assert_eq!(served, expected);
    }

    /// Every thread count yields byte-identical answers and identical
    /// functional work to the sequential single-worker [`MultiQuery`].
    #[test]
    fn thread_count_never_changes_answers_or_work(
        seed in 0..1_000u64,
        queries in proptest::collection::vec(query_strategy(), 1..10),
    ) {
        let (graph, batches) = scenario(seed, 3, 2);

        let mut reference_graph = graph.clone();
        let mut reference = MultiQuery::<Ppsp>::new(&reference_graph, &queries);
        for batch in &batches {
            reference_graph.apply_batch(batch).expect("disjoint deletions apply");
            reference.process_batch(&reference_graph, batch);
        }
        let baseline = reference.answers();
        let baseline_json = serde_json::to_string(&baseline).expect("answers serialize");

        for threads in [1, 2, 5] {
            let served = serve(&graph, &queries, &batches, threads);
            let served_json = serde_json::to_string(&served).expect("answers serialize");
            prop_assert_eq!(&served, &baseline, "threads = {}", threads);
            prop_assert_eq!(&served_json, &baseline_json, "threads = {}", threads);
        }
    }
}
