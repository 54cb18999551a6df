//! The serving layer's engine metrics: `QueryServer` records the merged
//! work of each batch once as `engine.MultiQuery.*`, however many source
//! groups and workers served it.
//!
//! This is its own test binary because the metric registry is global: no
//! other test in this process records `engine.MultiQuery.*` while these
//! counters are read.

use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::Ppsp;
use cisgraph_datasets::erdos_renyi;
use cisgraph_datasets::weights::WeightDistribution;
use cisgraph_engines::{QueryServer, ServeConfig};
use cisgraph_graph::DynamicGraph;
use cisgraph_types::{EdgeUpdate, PairQuery, VertexId};

const CLASS: [&str; 5] = [
    "valuable_additions",
    "useless_additions",
    "valuable_deletions",
    "delayed_deletions",
    "useless_deletions",
];

fn counter(name: &str) -> u64 {
    cisgraph_obs::counter(&format!("engine.MultiQuery.{name}")).get()
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

    cisgraph_obs::enable();
    let mut server = QueryServer::<Ppsp>::new(graph, &queries, &ServeConfig::with_threads(3));
    let (batches_before, computations_before) = (counter("batches"), counter("computations"));
    let class_before = class_counters();

    let mut groups = 0;
    let mut computations = 0;
    let mut class = ClassificationSummary::default();
    for batch in &batches {
        let report = server.process_batch(batch).expect("consistent workload");
        groups += report.groups;
        computations += report.work.counters.computations;
        class += report.work.classification.expect("groups classify");
    }

    assert_eq!(groups, 9 * BATCHES, "every source is its own group");
    assert_eq!(
        counter("batches") - batches_before,
        BATCHES as u64,
        "one record per batch, not per group"
    );
    assert_eq!(counter("computations") - computations_before, computations);
    let recorded: Vec<u64> = class_counters()
        .iter()
        .zip(class_before)
        .map(|(after, before)| after - before)
        .collect();
    assert_eq!(recorded, class_counts(&class));
    assert!(class.total() > 0, "the batches were classified");
}
