//! The accelerator simulates on a read-only image of the live adjacency
//! (`process_batch`) instead of a materialized snapshot
//! (`process_batch_on_snapshot`). The two must produce identical reports,
//! cycle for cycle, because the simulated timing depends on CSR row order.
//!
//! Generated graphs are small and dense with parallel edges of differing
//! weights (tiny vertex and weight domains), run with a promotion threshold
//! low enough that hub lists grow their index, and are driven by
//! deletion-heavy batches whose swap-removals leave in-lists out of
//! transpose order. A small scratchpad forces evictions, so the memory
//! system's state carried between batches is compared too.

use cisgraph_algo::Ppsp;
use cisgraph_core::{AcceleratorConfig, CisGraphAccel};
use cisgraph_graph::DynamicGraph;
use cisgraph_sim::SpmConfig;
use cisgraph_types::{EdgeUpdate, PairQuery, VertexId, Weight};
use proptest::prelude::*;

const N: u32 = 6;
const HUB: u32 = 0;
const THRESHOLD: usize = 3;

fn v(x: u32) -> VertexId {
    VertexId::new(x)
}

fn w(x: u32) -> Weight {
    Weight::new(f64::from(x)).unwrap()
}

fn vertex() -> impl Strategy<Value = u32> {
    prop_oneof![Just(HUB), 0..N]
}

fn config() -> AcceleratorConfig {
    let mut config = AcceleratorConfig::date2025();
    config.spm = SpmConfig::date2025().with_capacity(16 * 1024);
    config
}

/// One generated batch: inserts, and deletes given as indices into the
/// edges standing when the batch is built (so every delete is valid).
type BatchPlan = (Vec<(u32, u32, u32)>, Vec<u32>);

fn batch_plan() -> impl Strategy<Value = BatchPlan> {
    (
        proptest::collection::vec((vertex(), vertex(), 1..5u32), 0..8),
        proptest::collection::vec(0..u32::MAX, 4..16),
    )
}

/// Turns a plan into a batch valid against `g`, deletes first so they
/// pick among the standing (parallel) edges.
fn build_batch(g: &DynamicGraph, (inserts, deletes): &BatchPlan) -> Vec<EdgeUpdate> {
    let mut standing: Vec<(VertexId, VertexId, Weight)> = g.iter_edges().collect();
    let mut batch = Vec::new();
    for &pick in deletes {
        if standing.is_empty() {
            break;
        }
        let (a, b, weight) = standing.swap_remove(pick as usize % standing.len());
        batch.push(EdgeUpdate::delete(a, b, weight));
    }
    batch.extend(
        inserts
            .iter()
            .map(|&(a, b, x)| EdgeUpdate::insert(v(a), v(b), w(x))),
    );
    batch
}

proptest! {
    #[test]
    fn live_image_reports_match_snapshot_reports(
        initial in proptest::collection::vec((vertex(), vertex(), 1..5u32), 20..60),
        plans in proptest::collection::vec(batch_plan(), 1..4),
        dest in 1..N,
    ) {
        let mut g = DynamicGraph::with_promotion_threshold(N as usize, THRESHOLD);
        for &(a, b, x) in &initial {
            g.insert_edge(v(a), v(b), w(x)).unwrap();
        }
        let query = PairQuery::new(v(HUB), v(dest)).unwrap();
        let mut live = CisGraphAccel::<Ppsp>::new(&g, query, config());
        let mut snap = live.clone();

        for plan in &plans {
            let batch = build_batch(&g, plan);
            g.apply_batch(&batch).unwrap();
            let snapshot = g.snapshot();
            prop_assert_eq!(
                live.process_batch(&g, &batch),
                snap.process_batch_on_snapshot(&snapshot, &batch)
            );
        }
        prop_assert!(g.index_promotions() > 0, "hub lists must cross the threshold");
    }
}
