//! Every engine — including the cycle-level accelerator — is usable through
//! the common `StreamingEngine` trait, statically and as a trait object.

use cisgraph::prelude::*;

fn build() -> (DynamicGraph, PairQuery, Vec<EdgeUpdate>) {
    let edges = registry::livejournal_like().generate(0.0005, 23);
    let mut stream = StreamConfig::paper_default()
        .with_batch_size(80, 80)
        .build(edges, 23);
    let mut g = DynamicGraph::new(stream.num_vertices());
    for &(u, v, w) in stream.initial_edges() {
        g.insert_edge(u, v, w).unwrap();
    }
    let q = cisgraph::datasets::queries::random_connected_pairs(&g, 1, 5)[0];
    let batch = stream.next_batch().unwrap();
    (g, q, batch)
}

#[test]
fn all_engines_behind_one_trait_object() {
    let (mut g, q, batch) = build();
    let mut engines: Vec<Box<dyn StreamingEngine<Ppsp>>> = vec![
        Box::new(ColdStart::<Ppsp>::new(q)),
        Box::new(SGraph::<Ppsp>::new(&g, q, SGraphConfig { num_hubs: 4 })),
        Box::new(CisGraphO::<Ppsp>::new(&g, q)),
        Box::new(CisGraphAccel::<Ppsp>::new(
            &g,
            q,
            AcceleratorConfig::date2025(),
        )),
    ];
    g.apply_batch(&batch).unwrap();
    let reports: Vec<BatchReport> = engines
        .iter_mut()
        .map(|e| e.process_batch(&g, &batch))
        .collect();

    // All four agree on the answer.
    let expected = reports[0].answer;
    for (engine, report) in engines.iter().zip(&reports) {
        assert_eq!(report.answer, expected, "{} diverged", engine.name());
        assert_eq!(
            engine.answer(),
            expected,
            "{} answer() diverged",
            engine.name()
        );
    }

    // Names are the paper's labels.
    let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
    assert_eq!(names, vec!["CS", "SGraph", "CISGraph-O", "CISGraph"]);
}

#[test]
fn accelerator_reports_simulated_durations_through_the_trait() {
    let (mut g, q, batch) = build();
    let mut accel: Box<dyn StreamingEngine<Ppsp>> = Box::new(CisGraphAccel::<Ppsp>::new(
        &g,
        q,
        AcceleratorConfig::date2025(),
    ));
    g.apply_batch(&batch).unwrap();
    let report = accel.process_batch(&g, &batch);
    assert!(report.response_time <= report.total_time);
    assert!(report.classification.is_some());
    // Simulated times at 1 GHz: sub-millisecond for this tiny batch.
    assert!(report.total_time.as_secs_f64() < 0.1);
}
