//! Multi-query extension: several standing pairwise queries served together
//! over one update stream — the paper's stated future work (§III-A),
//! implemented in `cisgraph_engines::MultiQuery`.
//!
//! Queries sharing a source share one converged result, so a dispatch
//! center watching routes from one depot to many destinations pays for a
//! single propagation per batch.
//!
//! ```text
//! cargo run --release --example multi_query
//! ```

use cisgraph::prelude::*;
use cisgraph_engines::MultiQuery;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = registry::livejournal_like();
    let edges = dataset.generate(0.001, 21);
    let mut stream = StreamConfig::paper_default()
        .with_batch_size(500, 500)
        .build(edges, 21);
    let n = stream.num_vertices();
    let mut g = DynamicGraph::new(n);
    for &(u, v, w) in stream.initial_edges() {
        g.insert_edge(u, v, w)?;
    }

    // One depot (high-degree source), five destinations; plus one query
    // from a second source to show grouping.
    let picks = cisgraph::datasets::queries::random_connected_pairs(&g, 6, 3);
    let depot = picks[0].source();
    let mut queries: Vec<PairQuery> = picks[..5]
        .iter()
        .filter_map(|q| PairQuery::new(depot, q.destination()).ok())
        .collect();
    queries.push(picks[5]);

    let mut mq = MultiQuery::<Ppsp>::new(&g, &queries);
    println!(
        "{} standing queries share {} converged results ({} vertices, {} edges)",
        queries.len(),
        mq.num_groups(),
        n,
        g.num_edges()
    );
    for (q, a) in mq.answers() {
        println!("  {q} = {a}");
    }

    for round in 1..=3 {
        let batch = stream.next_batch().expect("dataset large enough");
        g.apply_batch(&batch)?;
        let report = mq.process_batch(&g, &batch);
        println!(
            "\nbatch {round}: {} updates, {} dropped as useless, total {:?}",
            batch.len(),
            report.counters.updates_dropped,
            report.total_time
        );
        for (q, a) in mq.answers() {
            // Verify each against a cold solve.
            let fresh = solver::best_first::<Ppsp, _>(&g, q.source(), &mut Counters::new());
            assert_eq!(a, fresh.state(q.destination()), "{q} diverged");
            println!("  {q} = {a}");
        }
    }
    println!("\nall answers verified against full recomputation");
    Ok(())
}
