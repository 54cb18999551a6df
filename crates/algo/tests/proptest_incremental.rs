//! Property tests: incremental computation (additions + deletion repair)
//! always converges to the same states as a from-scratch solve, for every
//! algorithm, over random graphs and random batches.

use cisgraph_algo::classify::classify_addition;
use cisgraph_algo::incremental::{PendingDeletions, RepairScratch};
use cisgraph_algo::{
    incremental, solver, ConvergedResult, Counters, MonotonicAlgorithm, Ppnp, Ppsp, Ppwp, Reach,
    Viterbi,
};
use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_types::{Contribution, EdgeUpdate, State, VertexId, Weight};
use proptest::prelude::*;

const N: u32 = 14;

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec(
        (0..N, 0..N, 1..9u32).prop_filter("no self loops", |(u, v, _)| u != v),
        5..60,
    )
}

fn graph_from(triples: &[(u32, u32, u32)]) -> DynamicGraph {
    let mut g = DynamicGraph::new(N as usize);
    for &(u, v, w) in triples {
        g.insert_edge(
            VertexId::new(u),
            VertexId::new(v),
            Weight::new(f64::from(w)).unwrap(),
        )
        .unwrap();
    }
    g
}

/// Apply a random batch (some additions, some deletions of existing edges)
/// incrementally and compare every state with a fresh solve.
fn check_batch_convergence<A: MonotonicAlgorithm>(
    initial: &[(u32, u32, u32)],
    additions: &[(u32, u32, u32)],
    delete_every: usize,
) -> Result<(), TestCaseError> {
    let mut g = graph_from(initial);
    let source = VertexId::new(0);
    let mut counters = Counters::new();
    let mut result = solver::best_first::<A, _>(&g, source, &mut counters);

    let mut batch: Vec<EdgeUpdate> = additions
        .iter()
        .map(|&(u, v, w)| {
            EdgeUpdate::insert(
                VertexId::new(u),
                VertexId::new(v),
                Weight::new(f64::from(w)).unwrap(),
            )
        })
        .collect();
    for (i, &(u, v, w)) in initial.iter().enumerate() {
        if delete_every > 0 && i % delete_every == 0 {
            batch.push(EdgeUpdate::delete(
                VertexId::new(u),
                VertexId::new(v),
                Weight::new(f64::from(w)).unwrap(),
            ));
        }
    }

    g.apply_batch(&batch).expect("batch is consistent");
    incremental::apply_batch(&g, &mut result, &batch, &mut counters);

    let fresh = solver::best_first::<A, _>(&g, source, &mut Counters::new());
    for i in 0..g.num_vertices() {
        let v = VertexId::from_index(i);
        prop_assert_eq!(
            result.state(v),
            fresh.state(v),
            "{} diverged at v{}",
            A::NAME,
            i
        );
    }
    Ok(())
}

/// A result's states and parents, for exact comparison.
fn image<A: MonotonicAlgorithm>(r: &ConvergedResult<A>) -> (Vec<State>, Vec<Option<VertexId>>) {
    let parents = (0..r.num_vertices())
        .map(|i| r.parent(VertexId::from_index(i)))
        .collect();
    (r.states().to_vec(), parents)
}

/// Each round grows a converged result to `N + extra` vertices, hangs a
/// chain of the new vertices off `v(N-1)`, then deletes every `k`-th base
/// edge plus the chain's first link, one by one. One scratch serves every
/// call of every round; it must match a fresh scratch per call in results,
/// states, parents, and counters after every call.
fn check_scratch_reuse<A: MonotonicAlgorithm>(
    initial: &[(u32, u32, u32)],
    k: usize,
    extras: &[u32],
) -> Result<(), TestCaseError> {
    let update = |insert: bool, (u, v, w): (u32, u32, u32)| {
        let (u, v, w) = (
            VertexId::new(u),
            VertexId::new(v),
            Weight::new(f64::from(w)),
        );
        if insert {
            EdgeUpdate::insert(u, v, w.unwrap())
        } else {
            EdgeUpdate::delete(u, v, w.unwrap())
        }
    };
    let mut shared = RepairScratch::new();
    for &extra in extras {
        let n = N + extra;
        let base = graph_from(initial);
        let mut start = solver::best_first::<A, _>(&base, VertexId::new(0), &mut Counters::new());
        start.grow(n as usize);
        let mut g = DynamicGraph::from_edges(n as usize, base.iter_edges());
        let links: Vec<_> = (N - 1..n - 1).map(|x| (x, x + 1, 1 + x % 3)).collect();
        let chain: Vec<EdgeUpdate> = links.iter().map(|&l| update(true, l)).collect();
        g.apply_batch(&chain).unwrap();
        incremental::apply_additions(&g, &mut start, &chain, &mut Counters::new());
        let deletions: Vec<EdgeUpdate> = initial
            .iter()
            .step_by(k)
            .chain(links.first())
            .map(|&l| update(false, l))
            .collect();
        g.apply_batch(&deletions).unwrap();
        let pending = PendingDeletions::from_batch(deletions.iter().copied());

        let mut run = |reuse: bool| {
            let (mut r, mut c) = (start.clone(), Counters::new());
            let mut trace = Vec::new();
            for &del in &deletions {
                let mut fresh = RepairScratch::new();
                let scratch = if reuse { &mut shared } else { &mut fresh };
                let fired =
                    incremental::apply_deletion_with(&g, &mut r, del, &pending, scratch, &mut c);
                trace.push((fired, image(&r), c));
            }
            trace
        };
        let fresh = run(false);
        prop_assert_eq!(
            run(true),
            fresh,
            "{} diverged with extra {}",
            A::NAME,
            extra
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ppsp_incremental_converges(initial in edges_strategy(), adds in edges_strategy(), k in 1usize..5) {
        check_batch_convergence::<Ppsp>(&initial, &adds, k)?;
    }

    #[test]
    fn ppwp_incremental_converges(initial in edges_strategy(), adds in edges_strategy(), k in 1usize..5) {
        check_batch_convergence::<Ppwp>(&initial, &adds, k)?;
    }

    #[test]
    fn ppnp_incremental_converges(initial in edges_strategy(), adds in edges_strategy(), k in 1usize..5) {
        check_batch_convergence::<Ppnp>(&initial, &adds, k)?;
    }

    #[test]
    fn viterbi_incremental_converges(initial in edges_strategy(), adds in edges_strategy(), k in 1usize..5) {
        check_batch_convergence::<Viterbi>(&initial, &adds, k)?;
    }

    #[test]
    fn reach_incremental_converges(initial in edges_strategy(), adds in edges_strategy(), k in 1usize..5) {
        check_batch_convergence::<Reach>(&initial, &adds, k)?;
    }

    /// One repair scratch reused across results of different sizes and
    /// many deletions is indistinguishable from a fresh scratch per call.
    #[test]
    fn reused_repair_scratch_matches_fresh(
        initial in edges_strategy(),
        k in 1usize..4,
        extras in proptest::collection::vec(0u32..12, 2..6),
    ) {
        check_scratch_reuse::<Ppsp>(&initial, k, &extras)?;
        check_scratch_reuse::<Reach>(&initial, k, &extras)?;
        check_scratch_reuse::<Viterbi>(&initial, k, &extras)?;
    }

    /// An addition is classified valuable iff applying it (alone) improves
    /// the destination state.
    #[test]
    fn addition_classification_is_exact(initial in edges_strategy(), add in (0..N, 0..N, 1..9u32)) {
        prop_assume!(add.0 != add.1);
        let mut g = graph_from(&initial);
        let source = VertexId::new(0);
        let mut result = solver::best_first::<Ppsp, _>(&g, source, &mut Counters::new());
        let update = EdgeUpdate::insert(
            VertexId::new(add.0),
            VertexId::new(add.1),
            Weight::new(f64::from(add.2)).unwrap(),
        );
        let label = classify_addition(&result, update);
        g.apply(update).unwrap();
        let before = result.state(update.dst());
        incremental::apply_additions(&g, &mut result, &[update], &mut Counters::new());
        let changed = result.state(update.dst()) != before;
        prop_assert_eq!(label == Contribution::Valuable, changed);
    }

    /// Deleting and re-inserting the same edge is an identity on states.
    #[test]
    fn delete_reinsert_is_identity(initial in edges_strategy(), idx in 0usize..60) {
        let g0 = graph_from(&initial);
        prop_assume!(g0.num_edges() > 0);
        let edge = initial[idx % initial.len()];
        let (u, v, w) = (
            VertexId::new(edge.0),
            VertexId::new(edge.1),
            Weight::new(f64::from(edge.2)).unwrap(),
        );
        let source = VertexId::new(0);
        let mut g = g0.clone();
        let mut result = solver::best_first::<Ppsp, _>(&g, source, &mut Counters::new());
        let baseline = result.clone();

        let del = EdgeUpdate::delete(u, v, w);
        g.apply(del).unwrap();
        incremental::apply_deletion(&g, &mut result, del, &mut Counters::new());

        let add = EdgeUpdate::insert(u, v, w);
        g.apply(add).unwrap();
        incremental::apply_additions(&g, &mut result, &[add], &mut Counters::new());

        for i in 0..g.num_vertices() {
            let x = VertexId::from_index(i);
            prop_assert_eq!(result.state(x), baseline.state(x), "state of v{} changed", i);
        }
    }

    /// Deletion repair never leaves a reached vertex without a valid
    /// witness in the topology.
    #[test]
    fn repair_preserves_witness_invariant(initial in edges_strategy(), k in 1usize..4) {
        let mut g = graph_from(&initial);
        let source = VertexId::new(0);
        let mut result = solver::best_first::<Ppsp, _>(&g, source, &mut Counters::new());
        let deletions: Vec<EdgeUpdate> = initial
            .iter()
            .enumerate()
            .filter(|(i, _)| i % k == 0)
            .map(|(_, &(u, v, w))| EdgeUpdate::delete(
                VertexId::new(u),
                VertexId::new(v),
                Weight::new(f64::from(w)).unwrap(),
            ))
            .collect();
        let pending = PendingDeletions::from_batch(deletions.iter().copied());
        for &del in &deletions {
            g.apply(del).unwrap();
        }
        let mut scratch = RepairScratch::new();
        for &del in &deletions {
            incremental::apply_deletion_with(&g, &mut result, del, &pending, &mut scratch, &mut Counters::new());
        }
        for i in 0..g.num_vertices() {
            let x = VertexId::from_index(i);
            if x == source || !result.is_reached(x) {
                continue;
            }
            let p = result.parent(x).expect("reached vertex has a parent");
            let witnessed = g.out_edges(p).iter().any(|e| {
                e.to() == x && Ppsp::combine(result.state(p), e.weight()) == result.state(x)
            });
            prop_assert!(witnessed, "v{} has no witnessing edge from its parent", i);
        }
    }
}
