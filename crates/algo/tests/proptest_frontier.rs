//! Property tests: the radix-heap [`Frontier`] pops exactly the order of a
//! `BinaryHeap<Reverse<(State, u32)>>` — ascending rank, ascending vertex
//! id among equal ranks — so the best-first loops built on it give the
//! states, parents and counters a binary-heap best-first gives.

use cisgraph_algo::{
    incremental, solver, ConvergedResult, Counters, Frontier, MonotonicAlgorithm, Ppnp, Ppsp, Ppwp,
    Reach, Viterbi,
};
use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_types::{EdgeUpdate, State, VertexId, Weight};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type Reference = BinaryHeap<Reverse<(State, u32)>>;

/// Ranks a push may carry while nothing has been popped since the frontier
/// last drained: negative ranks (max-select algorithms), both infinities
/// (PPWP's source state is +inf, so its source rank is -inf) and repeats.
const SEEDS: [f64; 10] = [
    f64::NEG_INFINITY,
    -8.0,
    -2.5,
    -1.0,
    -1.0,
    0.0,
    1.0,
    3.0,
    7.5,
    f64::INFINITY,
];

/// Steps up from the last pop; the zeros make equal ranks common.
const STEPS: [f64; 6] = [0.0, 0.0, 0.0, 0.5, 1.0, 2.0];

fn state(x: f64) -> State {
    State::new(x).unwrap()
}

/// Replays `ops` on both queues. `(0, _, _)` pops; `(_, a, id)` pushes
/// `id` at a rank picked by `a`: any seed while nothing has been popped
/// since the last drain, otherwise the last pop plus a step (or +inf).
fn replay(ops: &[(u8, u8, u32)]) -> Result<(), TestCaseError> {
    let mut frontier = Frontier::new();
    let mut reference = Reference::new();
    // The rank of the last pop, while the queues have not drained since.
    let mut floor: Option<State> = None;
    for &(kind, a, id) in ops {
        if kind == 0 {
            let expected = reference
                .pop()
                .map(|Reverse((rank, id))| (rank, VertexId::new(id)));
            prop_assert_eq!(frontier.pop(), expected);
            floor = expected
                .map(|(rank, _)| rank)
                .filter(|_| !reference.is_empty());
            continue;
        }
        let rank = match floor {
            None => state(SEEDS[usize::from(a) % SEEDS.len()]),
            Some(_) if a % 8 == 7 => state(f64::INFINITY),
            Some(f) => state(f.get() + STEPS[usize::from(a) % STEPS.len()]),
        };
        frontier.push(rank, VertexId::new(id));
        reference.push(Reverse((rank, id)));
    }
    while let Some(Reverse((rank, id))) = reference.pop() {
        prop_assert_eq!(frontier.pop(), Some((rank, VertexId::new(id))));
    }
    prop_assert_eq!(frontier.pop(), None);
    prop_assert!(frontier.is_empty());
    Ok(())
}

/// A graph on `n` vertices with small integer weights, so equal ranks are
/// common and the tie order decides parents.
fn graph_from(n: usize, triples: &[(u32, u32, u32)]) -> DynamicGraph {
    let mut g = DynamicGraph::new(n);
    for &(u, v, w) in triples {
        g.insert_edge(VertexId::new(u), VertexId::new(v), weight(w))
            .unwrap();
    }
    g
}

fn weight(w: u32) -> Weight {
    Weight::new(f64::from(w)).unwrap()
}

/// The propagation loop of `incremental` over the reference heap.
fn reference_propagate<A: MonotonicAlgorithm>(
    graph: &DynamicGraph,
    result: &mut ConvergedResult<A>,
    heap: &mut Reference,
    counters: &mut Counters,
) {
    while let Some(Reverse((rank, raw))) = heap.pop() {
        let u = VertexId::new(raw);
        if rank != A::rank(result.state(u)) {
            continue;
        }
        let u_state = result.state(u);
        for edge in graph.out_edges(u) {
            counters.computations += 1;
            let candidate = A::combine(u_state, edge.weight());
            let v = edge.to();
            if A::improves(candidate, result.state(v)) {
                result.set_state(v, candidate, Some(u));
                counters.activations += 1;
                heap.push(Reverse((A::rank(candidate), v.raw())));
            }
        }
    }
}

fn reference_best_first<A: MonotonicAlgorithm>(
    graph: &DynamicGraph,
    source: VertexId,
    counters: &mut Counters,
) -> ConvergedResult<A> {
    let mut result = ConvergedResult::fresh(graph.num_vertices(), source);
    let mut heap = Reference::new();
    heap.push(Reverse((A::rank(result.state(source)), source.raw())));
    reference_propagate(graph, &mut result, &mut heap, counters);
    result
}

/// `incremental::apply_additions` over the reference heap.
fn reference_apply_additions<A: MonotonicAlgorithm>(
    graph: &DynamicGraph,
    result: &mut ConvergedResult<A>,
    additions: &[EdgeUpdate],
    counters: &mut Counters,
) -> usize {
    let mut heap = Reference::new();
    let mut valuable = 0;
    for add in additions {
        counters.computations += 1;
        let candidate = A::combine(result.state(add.src()), add.weight());
        if A::improves(candidate, result.state(add.dst())) {
            result.set_state(add.dst(), candidate, Some(add.src()));
            counters.activations += 1;
            heap.push(Reverse((A::rank(candidate), add.dst().raw())));
            valuable += 1;
            counters.updates_processed += 1;
        } else {
            counters.updates_dropped += 1;
        }
    }
    reference_propagate(graph, result, &mut heap, counters);
    valuable
}

/// A result's states and parents, for exact comparison.
fn image<A: MonotonicAlgorithm>(r: &ConvergedResult<A>) -> (Vec<State>, Vec<Option<VertexId>>) {
    let parents = (0..r.num_vertices())
        .map(|i| r.parent(VertexId::from_index(i)))
        .collect();
    (r.states().to_vec(), parents)
}

/// Solves from `source`, then applies `additions` in three slices, through
/// the library and through the reference, comparing results and counters
/// after each. The first slice goes through `apply_additions`; the other
/// two share one scratch through `apply_additions_with`, so the second
/// starts on a frontier whose floor the first one left behind.
fn check_against_reference<A: MonotonicAlgorithm>(
    n: usize,
    initial: &[(u32, u32, u32)],
    additions: &[(u32, u32, u32)],
    source: u32,
) -> Result<(), TestCaseError> {
    let mut g = graph_from(n, initial);
    let source = VertexId::new(source);
    let (mut c, mut rc) = (Counters::new(), Counters::new());
    let mut r = solver::best_first::<A, _>(&g, source, &mut c);
    let mut expected = reference_best_first::<A>(&g, source, &mut rc);
    prop_assert_eq!(image(&r), image(&expected), "{} best_first", A::NAME);
    prop_assert_eq!(c, rc, "{} best_first counters", A::NAME);

    let batch: Vec<EdgeUpdate> = additions
        .iter()
        .map(|&(u, v, w)| EdgeUpdate::insert(VertexId::new(u), VertexId::new(v), weight(w)))
        .collect();
    g.apply_batch(&batch).unwrap();
    let mut scratch = incremental::RepairScratch::new();
    let third = batch.len().div_ceil(3).max(1);
    for (i, slice) in batch.chunks(third).enumerate() {
        let valuable = if i == 0 {
            incremental::apply_additions(&g, &mut r, slice, &mut c)
        } else {
            incremental::apply_additions_with(&g, &mut r, slice, &mut scratch, &mut c)
        };
        let expected_valuable = reference_apply_additions(&g, &mut expected, slice, &mut rc);
        prop_assert_eq!(
            valuable,
            expected_valuable,
            "{} valuable additions, slice {}",
            A::NAME,
            i
        );
        prop_assert_eq!(
            image(&r),
            image(&expected),
            "{} apply_additions, slice {}",
            A::NAME,
            i
        );
        prop_assert_eq!(c, rc, "{} apply_additions counters, slice {}", A::NAME, i);
    }
    Ok(())
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, u32)>> {
    // Kinds 0..3 make a third of the operations pops, so the queue drains
    // and refills many times over a sequence.
    proptest::collection::vec((0u8..3, 0u8..=255, 0u32..12), 0..160)
}

const N: u32 = 16;

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec(
        (0..N, 0..N, 1..4u32).prop_filter("no self loops", |(u, v, _)| u != v),
        0..64,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frontier_pops_the_binary_heap_order(ops in ops_strategy()) {
        replay(&ops)?;
    }

    #[test]
    fn best_first_and_additions_match_a_binary_heap(
        initial in edges_strategy(),
        additions in edges_strategy(),
        source in 0..N,
    ) {
        let n = N as usize;
        check_against_reference::<Ppsp>(n, &initial, &additions, source)?;
        check_against_reference::<Ppwp>(n, &initial, &additions, source)?;
        check_against_reference::<Ppnp>(n, &initial, &additions, source)?;
        check_against_reference::<Viterbi>(n, &initial, &additions, source)?;
        check_against_reference::<Reach>(n, &initial, &additions, source)?;
    }
}

/// A long drain-and-refill sequence with every seed rank, including a
/// refill far below the previous floor.
#[test]
fn drain_then_push_below_the_old_floor() {
    let mut ops = Vec::new();
    for round in 0..SEEDS.len() as u8 {
        let seed = SEEDS.len() as u8 - 1 - round;
        ops.extend([(1, seed, 5), (1, seed, 2), (1, round, 9), (0, 0, 0)]);
        ops.extend((0..6).map(|i| (1, i, u32::from(i))));
        ops.extend([(0, 0, 0); 10]);
    }
    replay(&ops).unwrap();
}
