//! The engines' metrics: nothing is registered while the sink is disabled,
//! and `QueryServer` records the merged work of each batch once as
//! `engine.MultiQuery.*`, however many source groups and workers served it.
//!
//! This is its own test binary because the metric registry is global: no
//! other test in this process records `engine.MultiQuery.*` while these
//! counters are read.

use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::Ppsp;
use cisgraph_datasets::erdos_renyi;
use cisgraph_datasets::weights::WeightDistribution;
use cisgraph_engines::{
    CisGraphO, ColdStart, MultiQuery, QueryServer, SGraph, SGraphConfig, ServeConfig,
    StreamingEngine,
};
use cisgraph_graph::DynamicGraph;
use cisgraph_types::{EdgeUpdate, PairQuery, VertexId};

const CLASS: [&str; 5] = [
    "valuable_additions",
    "useless_additions",
    "valuable_deletions",
    "delayed_deletions",
    "useless_deletions",
];

fn counter_of(engine: &str, name: &str) -> u64 {
    cisgraph_obs::counter(&format!("engine.{engine}.{name}")).get()
}

fn counter(name: &str) -> u64 {
    counter_of("MultiQuery", name)
}

fn class_counters() -> [u64; 5] {
    CLASS.map(|outcome| counter(&format!("class.{outcome}")))
}

fn class_counts(c: &ClassificationSummary) -> [u64; 5] {
    [
        c.valuable_additions,
        c.useless_additions,
        c.valuable_deletions,
        c.delayed_deletions,
        c.useless_deletions,
    ]
    .map(|n| n as u64)
}

/// Serves one batch, on top of `graph`, through every software engine:
/// the single-query engines, `MultiQuery`, and a `QueryServer`.
fn serve_everywhere(graph: &DynamicGraph, queries: &[PairQuery], batch: &[EdgeUpdate]) {
    let mut after = graph.clone();
    after.apply_batch(batch).expect("consistent workload");
    let q = queries[0];
    let mut engines: Vec<Box<dyn StreamingEngine<Ppsp>>> = vec![
        Box::new(ColdStart::new(q)),
        Box::new(CisGraphO::new(graph, q)),
        Box::new(SGraph::new(graph, q, SGraphConfig { num_hubs: 2 })),
    ];
    for engine in &mut engines {
        engine.process_batch(&after, batch);
    }
    MultiQuery::<Ppsp>::new(graph, queries).process_batch(&after, batch);
    let config = ServeConfig::with_threads(2);
    QueryServer::<Ppsp>::new(graph.clone(), queries, &config)
        .process_batch(batch)
        .expect("consistent workload");
}

fn engine_metric_names() -> Vec<String> {
    let snap = cisgraph_obs::snapshot();
    let names = snap.counters.keys().chain(snap.histograms.keys());
    names
        .filter(|n| n.starts_with("engine."))
        .cloned()
        .collect()
}

#[test]
fn engine_metrics_are_recorded_once_per_served_batch() {
    const BATCHES: usize = 4;
    let edges = erdos_renyi::generate(60, 480, WeightDistribution::paper_default(), 31);
    let graph = DynamicGraph::from_edges(60, edges.clone());
    let mut batches = vec![Vec::new(); BATCHES];
    for (i, &(a, b, w)) in edges.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
        batches[i % BATCHES].push(EdgeUpdate::delete(a, b, w));
        batches[(i + 1) % BATCHES].push(EdgeUpdate::insert(b, a, w));
    }
    let queries: Vec<PairQuery> = (0..9u32)
        .map(|s| PairQuery::new(VertexId::new(s), VertexId::new(s + 20)).unwrap())
        .collect();

    // With the sink off, no engine resolves, and so registers, a metric.
    serve_everywhere(&graph, &queries, &batches[0]);
    assert_eq!(engine_metric_names(), Vec::<String>::new());

    cisgraph_obs::enable();
    serve_everywhere(&graph, &queries, &batches[0]);
    for name in ["CS", "CISGraph-O", "SGraph"] {
        assert_eq!(counter_of(name, "batches"), 1, "{name}");
    }
    assert_eq!(counter("batches"), 2, "MultiQuery and QueryServer");

    let mut server = QueryServer::<Ppsp>::new(graph, &queries, &ServeConfig::with_threads(3));
    let (batches_before, computations_before) = (counter("batches"), counter("computations"));
    let fallbacks_before = counter("fallback_solves");
    let class_before = class_counters();

    let mut groups = 0;
    let mut computations = 0;
    let mut fallbacks = 0;
    let mut class = ClassificationSummary::default();
    for batch in &batches {
        let report = server.process_batch(batch).expect("consistent workload");
        groups += report.groups;
        computations += report.work.counters.computations;
        fallbacks += report.work.counters.fallback_solves;
        class += report.work.classification.expect("groups classify");
    }

    assert_eq!(groups, 9 * BATCHES, "every source is its own group");
    assert_eq!(
        counter("batches") - batches_before,
        BATCHES as u64,
        "one record per batch, not per group"
    );
    assert_eq!(counter("computations") - computations_before, computations);
    assert_eq!(counter("fallback_solves") - fallbacks_before, fallbacks);
    let recorded: Vec<u64> = class_counters()
        .iter()
        .zip(class_before)
        .map(|(after, before)| after - before)
        .collect();
    assert_eq!(recorded, class_counts(&class));
    assert!(class.total() > 0, "the batches were classified");
}
