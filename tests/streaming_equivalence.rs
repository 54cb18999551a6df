//! Workspace-level integration: every engine and the accelerator agree on
//! the answers of realistic streaming workloads built with the dataset
//! generators, across multiple batches and all five algorithms.

use cisgraph::prelude::*;
use cisgraph_datasets::queries::random_connected_pairs;

fn workload(scale: f64, adds: usize, dels: usize, seed: u64) -> (DynamicGraph, StreamingWorkload) {
    let dataset = registry::orkut_like();
    let edges = dataset.generate(scale, seed);
    let stream = StreamConfig::paper_default()
        .with_batch_size(adds, dels)
        .build(edges, seed + 1);
    let mut g = DynamicGraph::new(stream.num_vertices());
    for &(u, v, w) in stream.initial_edges() {
        g.insert_edge(u, v, w).expect("in bounds");
    }
    (g, stream)
}

fn check_all_engines<A: MonotonicAlgorithm>(seed: u64) {
    let (mut g, mut stream) = workload(0.0008, 120, 120, seed);
    let query = random_connected_pairs(&g, 1, seed + 7)[0];

    let mut cs = ColdStart::<A>::new(query);
    let mut sgraph = SGraph::<A>::new(&g, query, SGraphConfig { num_hubs: 8 });
    let mut ciso = CisGraphO::<A>::new(&g, query);
    let mut accel = CisGraphAccel::<A>::new(&g, query, AcceleratorConfig::date2025());

    for round in 0..3 {
        let Some(batch) = stream.next_batch() else {
            break;
        };
        g.apply_batch(&batch).expect("consistent batch");
        let expected = cs.process_batch(&g, &batch).answer;
        assert_eq!(
            sgraph.process_batch(&g, &batch).answer,
            expected,
            "{} SGraph, seed {seed} round {round}",
            A::NAME
        );
        assert_eq!(
            ciso.process_batch(&g, &batch).answer,
            expected,
            "{} CISGraph-O, seed {seed} round {round}",
            A::NAME
        );
        assert_eq!(
            accel.process_batch(&g, &batch).answer,
            expected,
            "{} accel, seed {seed} round {round}",
            A::NAME
        );
    }
}

#[test]
fn ppsp_streaming_equivalence() {
    check_all_engines::<Ppsp>(1);
}

#[test]
fn ppwp_streaming_equivalence() {
    check_all_engines::<Ppwp>(2);
}

#[test]
fn ppnp_streaming_equivalence() {
    check_all_engines::<Ppnp>(3);
}

#[test]
fn viterbi_streaming_equivalence() {
    check_all_engines::<Viterbi>(4);
}

#[test]
fn reach_streaming_equivalence() {
    check_all_engines::<Reach>(5);
}

/// The accelerator's early answer (before the delayed-deletion drain) must
/// already equal the fully converged answer — the promotion loop makes the
/// early response exact.
#[test]
fn early_response_is_exact() {
    for seed in 0..4u64 {
        let (mut g, mut stream) = workload(0.0008, 150, 150, seed + 100);
        let query = random_connected_pairs(&g, 1, seed)[0];
        let mut accel = CisGraphAccel::<Ppsp>::new(&g, query, AcceleratorConfig::date2025());
        for _ in 0..2 {
            let Some(batch) = stream.next_batch() else {
                break;
            };
            g.apply_batch(&batch).expect("consistent batch");
            let report = accel.process_batch(&g, &batch);
            let mut counters = Counters::new();
            let fresh = solver::best_first::<Ppsp, _>(&g, query.source(), &mut counters);
            // report.answer was captured at the early-response point.
            assert_eq!(
                report.answer,
                fresh.state(query.destination()),
                "seed {seed}"
            );
        }
    }
}

/// Every engine with an early response captures its answer before the drain
/// (CISGraph-O at the end of its promotion loop, the accelerator at its
/// response cycle); for all five algorithms that answer must already equal a
/// cold solve of the post-batch graph.
fn check_early_response<A: MonotonicAlgorithm>(seed: u64) {
    let (g, stream) = workload(0.0008, 100, 400, seed);
    for query in random_connected_pairs(&g, 4, seed + 3) {
        let mut g = g.clone();
        let mut stream = stream.clone();
        let mut ciso = CisGraphO::<A>::new(&g, query);
        let mut accel = CisGraphAccel::<A>::new(&g, query, AcceleratorConfig::date2025());
        for round in 0..3 {
            let Some(batch) = stream.next_batch() else {
                break;
            };
            g.apply_batch(&batch).expect("consistent batch");
            let fresh = solver::best_first::<A, _>(&g, query.source(), &mut Counters::new());
            let expected = fresh.state(query.destination());
            let context = format!("{} {query}, seed {seed} round {round}", A::NAME);
            assert_eq!(
                ciso.process_batch(&g, &batch).answer,
                expected,
                "CISGraph-O {context}"
            );
            assert_eq!(
                accel.process_batch(&g, &batch).answer,
                expected,
                "accel {context}"
            );
        }
    }
}

#[test]
fn early_response_is_exact_all_algorithms() {
    check_early_response::<Ppsp>(201);
    check_early_response::<Ppwp>(202);
    check_early_response::<Ppnp>(203);
    check_early_response::<Viterbi>(204);
    check_early_response::<Reach>(205);
}

/// Streaming through many batches never corrupts the incremental state:
/// after the last batch, every vertex state matches a cold solve.
#[test]
fn long_stream_state_fidelity() {
    let (mut g, mut stream) = workload(0.0008, 80, 80, 77);
    let query = random_connected_pairs(&g, 1, 9)[0];
    let mut ciso = CisGraphO::<Ppsp>::new(&g, query);
    for _ in 0..6 {
        let Some(batch) = stream.next_batch() else {
            break;
        };
        g.apply_batch(&batch).expect("consistent batch");
        ciso.process_batch(&g, &batch);
    }
    let mut counters = Counters::new();
    let fresh = solver::best_first::<Ppsp, _>(&g, query.source(), &mut counters);
    for i in 0..g.num_vertices() {
        let v = VertexId::from_index(i);
        assert_eq!(ciso.result().state(v), fresh.state(v), "state of v{i}");
    }
}
