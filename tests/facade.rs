//! The facade crate exposes the full public API: everything a downstream
//! user needs is reachable through `cisgraph::...` and the prelude.

use cisgraph::prelude::*;

#[test]
fn prelude_covers_the_quickstart_flow() {
    let mut g = DynamicGraph::new(3);
    g.apply(EdgeUpdate::insert(
        VertexId::new(0),
        VertexId::new(1),
        Weight::new(1.5).unwrap(),
    ))
    .unwrap();
    g.apply(EdgeUpdate::insert(
        VertexId::new(1),
        VertexId::new(2),
        Weight::new(2.5).unwrap(),
    ))
    .unwrap();

    let q = PairQuery::new(VertexId::new(0), VertexId::new(2)).unwrap();
    let mut engine = CisGraphO::<Ppsp>::new(&g, q);
    assert_eq!(engine.answer().get(), 4.0);

    let batch = vec![EdgeUpdate::insert(
        VertexId::new(0),
        VertexId::new(2),
        Weight::new(3.0).unwrap(),
    )];
    g.apply_batch(&batch).unwrap();
    assert_eq!(engine.process_batch(&g, &batch).answer.get(), 3.0);
}

#[test]
fn module_reexports_are_reachable() {
    // One symbol per re-exported crate proves the wiring.
    let _ = cisgraph::types::VertexId::new(0);
    let _ = cisgraph::graph::DynamicGraph::new(1);
    let _ = cisgraph::datasets::registry::orkut_like();
    let _ = cisgraph::algo::AlgorithmKind::ALL;
    let _ = cisgraph::engines::SGraphConfig::paper_default();
    let _ = cisgraph::sim::DramConfig::ddr4_3200();
    let _ = cisgraph::core::AcceleratorConfig::date2025();
    let _ = cisgraph::core::CycleMilestones::default();
}

#[test]
fn all_five_algorithms_are_usable_through_the_facade() {
    let mut g = DynamicGraph::new(2);
    g.apply(EdgeUpdate::insert(
        VertexId::new(0),
        VertexId::new(1),
        Weight::new(2.0).unwrap(),
    ))
    .unwrap();
    let q = PairQuery::new(VertexId::new(0), VertexId::new(1)).unwrap();

    assert_eq!(CisGraphO::<Ppsp>::new(&g, q).answer().get(), 2.0);
    assert_eq!(CisGraphO::<Ppwp>::new(&g, q).answer().get(), 2.0);
    assert_eq!(CisGraphO::<Ppnp>::new(&g, q).answer().get(), 2.0);
    assert_eq!(CisGraphO::<Viterbi>::new(&g, q).answer().get(), 0.5);
    assert_eq!(CisGraphO::<Reach>::new(&g, q).answer(), State::ONE);
}

#[test]
fn accelerator_through_the_facade() {
    let mut g = DynamicGraph::new(2);
    g.apply(EdgeUpdate::insert(
        VertexId::new(0),
        VertexId::new(1),
        Weight::new(2.0).unwrap(),
    ))
    .unwrap();
    let q = PairQuery::new(VertexId::new(0), VertexId::new(1)).unwrap();
    let mut accel = CisGraphAccel::<Ppsp>::new(&g, q, AcceleratorConfig::date2025());
    let report = accel.process_batch(&g, &[]);
    assert_eq!(report.answer.get(), 2.0);
}
