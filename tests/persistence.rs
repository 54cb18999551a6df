//! Report-serialization and edge-list file tests: every reportable artifact
//! serializes to JSON, infinite states included, and an edge list survives
//! a write/read round trip through a file.

mod temp_dir;

use cisgraph::prelude::*;
use temp_dir::TempDir;

fn build() -> (DynamicGraph, PairQuery) {
    let edges = registry::orkut_like().generate(0.0005, 13);
    let mut g = DynamicGraph::new(2048);
    for (u, v, w) in edges {
        let needed = u.index().max(v.index()) + 1;
        if needed > g.num_vertices() {
            continue;
        }
        g.insert_edge(u, v, w).unwrap();
    }
    let q = cisgraph::datasets::queries::random_connected_pairs(&g, 1, 3)[0];
    (g, q)
}

#[test]
fn batch_report_serializes_with_infinities() {
    let (mut g, q) = build();
    let mut engine = CisGraphO::<Reach>::new(&g, q);
    let some_edges: Vec<_> = g.iter_edges().take(10).collect();
    let batch: Vec<EdgeUpdate> = some_edges
        .iter()
        .map(|&(u, v, w)| EdgeUpdate::delete(u, v, w))
        .collect();
    g.apply_batch(&batch).unwrap();
    let mut report = engine.process_batch(&g, &batch);
    let json = serde_json::to_string(&report).expect("serialize");
    let answer = serde_json::to_string(&report.answer).unwrap();
    assert!(json.contains(&format!("\"answer\":{answer}")), "{json}");
    for (state, text) in [(State::POS_INF, "\"inf\""), (State::NEG_INF, "\"-inf\"")] {
        report.answer = state;
        let json = serde_json::to_string(&report).expect("serialize an infinite answer");
        assert!(json.contains(&format!("\"answer\":{text}")), "{json}");
    }
}

#[test]
fn accel_report_serializes() {
    let (mut g, q) = build();
    let mut accel = CisGraphAccel::<Ppsp>::new(&g, q, AcceleratorConfig::date2025());
    let some_edges: Vec<_> = g.iter_edges().take(10).collect();
    let batch: Vec<EdgeUpdate> = some_edges
        .iter()
        .map(|&(u, v, w)| EdgeUpdate::delete(u, v, w))
        .collect();
    g.apply_batch(&batch).unwrap();
    let report = accel.process_batch(&g, &batch);
    let json = serde_json::to_string(&report).expect("serialize");
    let response = format!("\"response_cycles\":{}", report.response_cycles);
    assert!(json.contains(&response), "{json}");
    let drain_done = format!("\"drain_done\":{}", report.milestones.drain_done);
    assert!(json.contains(&drain_done), "{json}");
}

#[test]
fn config_serializes() {
    let cfg = AcceleratorConfig::date2025().with_pipelines(2);
    let json = serde_json::to_string(&cfg).expect("serialize");
    assert!(json.contains("\"pipelines\":2"), "{json}");
}

#[test]
fn edge_list_file_roundtrip() {
    let (g, _) = build();
    let edges: Vec<_> = g.iter_edges().collect();
    let dir = TempDir::new("edge_list_file_roundtrip");
    let path = dir.path().join("edges.txt");
    {
        let file = std::fs::File::create(&path).expect("create temp file");
        cisgraph::graph::write_edge_list(std::io::BufWriter::new(file), &edges)
            .expect("write edges");
    }
    let file = std::fs::File::open(&path).expect("open temp file");
    let back = cisgraph::graph::read_edge_list(std::io::BufReader::new(file)).expect("read edges");
    assert_eq!(back, edges);
}
