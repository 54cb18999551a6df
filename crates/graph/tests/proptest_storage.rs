//! Storage-equivalence property tests: the degree-adaptive hybrid
//! adjacency must be **observationally identical** to the naive
//! (never-indexed) representation under any update sequence — same
//! adjacency slices in the same order, same snapshots, same error values.
//!
//! The hybrid side runs with a tiny promotion threshold so essentially
//! every list crosses it; the naive side pins `usize::MAX` (never
//! promotes). Generated sequences are biased toward parallel edges (small
//! vertex/weight domains) and toward a hub vertex whose lists blow far past
//! the threshold, and snapshots are interleaved mid-sequence so promotion
//! state at arbitrary points is exercised, not just at the end.

use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_types::{EdgeUpdate, VertexId, Weight};
use proptest::prelude::*;

const N: u32 = 16;
/// Every generated graph gets hub-biased traffic on this vertex.
const HUB: u32 = 0;
/// Hybrid-side promotion threshold: low enough that parallel-edge runs and
/// the hub cross it quickly.
const THRESHOLD: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    /// Insert `src -> dst` with the given small weight (parallel edges are
    /// frequent by construction).
    Insert(u32, u32, u32),
    /// Remove with an exact-weight hint (the streaming-delete shape).
    RemoveWeighted(u32, u32, u32),
    /// Remove whatever `src -> dst` edge comes first.
    RemoveAny(u32, u32),
    /// Materialize and compare snapshots mid-sequence.
    Snapshot,
}

fn vertex() -> impl Strategy<Value = u32> {
    // Half the traffic hits the hub so its lists cross the threshold.
    prop_oneof![Just(HUB), 0..N]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Arms are chosen uniformly; inserts are repeated to bias the mix
    // toward growth (so hub lists actually cross the threshold) while
    // keeping deletes frequent.
    prop_oneof![
        (vertex(), vertex(), 1..6u32).prop_map(|(u, v, w)| Op::Insert(u, v, w)),
        (vertex(), vertex(), 1..6u32).prop_map(|(u, v, w)| Op::Insert(u, v, w)),
        (vertex(), vertex(), 1..6u32).prop_map(|(u, v, w)| Op::Insert(u, v, w)),
        (vertex(), vertex(), 1..6u32).prop_map(|(u, v, w)| Op::Insert(u, v, w)),
        (vertex(), vertex(), 1..6u32).prop_map(|(u, v, w)| Op::RemoveWeighted(u, v, w)),
        (vertex(), vertex(), 1..6u32).prop_map(|(u, v, w)| Op::RemoveWeighted(u, v, w)),
        (vertex(), vertex()).prop_map(|(u, v)| Op::RemoveAny(u, v)),
        Just(Op::Snapshot),
    ]
}

fn v(x: u32) -> VertexId {
    VertexId::new(x)
}

fn w(x: u32) -> Weight {
    Weight::new(f64::from(x)).unwrap()
}

/// Asserts both representations expose bit-identical adjacency: the exact
/// slice order matters, not just the multiset.
fn assert_same_view(hybrid: &DynamicGraph, naive: &DynamicGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(hybrid.num_edges(), naive.num_edges());
    prop_assert_eq!(hybrid.num_vertices(), naive.num_vertices());
    for x in 0..N {
        prop_assert_eq!(
            hybrid.out_edges(v(x)),
            naive.out_edges(v(x)),
            "out-adjacency order of {} diverged",
            x
        );
        prop_assert_eq!(
            hybrid.in_edges(v(x)),
            naive.in_edges(v(x)),
            "in-adjacency order of {} diverged",
            x
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The central guarantee: identical operation sequences produce
    /// identical views, identical snapshots, and identical outcomes
    /// (success/error, removed weights) from both representations.
    #[test]
    fn hybrid_storage_is_bit_identical_to_naive(
        ops in proptest::collection::vec(op_strategy(), 0..300)
    ) {
        let mut hybrid = DynamicGraph::with_promotion_threshold(N as usize, THRESHOLD);
        let mut naive = DynamicGraph::with_promotion_threshold(N as usize, usize::MAX);
        for op in ops {
            match op {
                Op::Insert(u, d, wt) => {
                    hybrid.insert_edge(v(u), v(d), w(wt)).unwrap();
                    naive.insert_edge(v(u), v(d), w(wt)).unwrap();
                }
                Op::RemoveWeighted(u, d, wt) => {
                    let a = hybrid.remove_edge(v(u), v(d), Some(w(wt)));
                    let b = naive.remove_edge(v(u), v(d), Some(w(wt)));
                    // GraphError carries no PartialEq; its Debug rendering
                    // includes every field, so string equality is value
                    // equality.
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "weighted removal diverged");
                }
                Op::RemoveAny(u, d) => {
                    let a = hybrid.remove_edge(v(u), v(d), None);
                    let b = naive.remove_edge(v(u), v(d), None);
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "unweighted removal diverged");
                }
                Op::Snapshot => {
                    prop_assert_eq!(hybrid.snapshot(), naive.snapshot(), "mid-sequence snapshots diverged");
                }
            }
            // Point lookups agree at every step (these take the indexed
            // path on the hybrid side once lists promote).
            for d in 0..N {
                prop_assert_eq!(hybrid.contains_edge(v(HUB), v(d)), naive.contains_edge(v(HUB), v(d)));
                prop_assert_eq!(hybrid.edge_weight(v(HUB), v(d)), naive.edge_weight(v(HUB), v(d)));
            }
        }
        assert_same_view(&hybrid, &naive)?;
        prop_assert_eq!(hybrid.snapshot(), naive.snapshot());
    }

    /// A hub whose out-list crosses the promotion threshold mid-batch:
    /// `apply_batch` (pre-grouping fast path) must agree with the naive
    /// side in both the success case and the error-prefix case.
    #[test]
    fn hub_batches_agree_across_representations(
        inserts in proptest::collection::vec((vertex(), 1..6u32), 64..200),
        delete_every in 2..5usize,
    ) {
        let batch: Vec<EdgeUpdate> = inserts
            .iter()
            .map(|&(d, wt)| EdgeUpdate::insert(v(HUB), v(d), w(wt)))
            .collect();
        let deletes: Vec<EdgeUpdate> = batch
            .iter()
            .step_by(delete_every)
            .map(|e| EdgeUpdate::delete(e.src(), e.dst(), e.weight()))
            .collect();
        let mut hybrid = DynamicGraph::with_promotion_threshold(N as usize, THRESHOLD);
        let mut naive = DynamicGraph::with_promotion_threshold(N as usize, usize::MAX);
        hybrid.apply_batch(&batch).unwrap();
        naive.apply_batch(&batch).unwrap();
        prop_assert!(hybrid.index_promotions() > 0, "hub must promote");
        hybrid.apply_batch(&deletes).unwrap();
        naive.apply_batch(&deletes).unwrap();
        assert_same_view(&hybrid, &naive)?;

        // Now a possibly-failing batch (the appended delete names a weight
        // that may not exist): outcome and retained prefix must match,
        // identically on both sides.
        let mut failing = deletes.clone();
        failing.push(EdgeUpdate::delete(v(HUB), v(1), w(99)));
        let mut hybrid2 = DynamicGraph::with_promotion_threshold(N as usize, THRESHOLD);
        let mut naive2 = DynamicGraph::with_promotion_threshold(N as usize, usize::MAX);
        hybrid2.apply_batch(&batch).unwrap();
        naive2.apply_batch(&batch).unwrap();
        let a = hybrid2.apply_batch(&failing);
        let b = naive2.apply_batch(&failing);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_same_view(&hybrid2, &naive2)?;
    }
}
