//! Update-ingestion micro-benchmarks for the storage layer: hub-vertex
//! deletes (the degree-adaptive index's reason to exist), batch insertion
//! through the `apply_batch` fast path, and snapshot materialization.
//!
//! The `ingest` experiment binary runs the paper-scale version of the
//! hub-delete study (50K deletes) and writes `BENCH_ingest.json`; this
//! bench keeps the sizes small enough for the CI `--quick` smoke.

use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_types::{EdgeUpdate, VertexId, Weight};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

/// Hub out-degree (and delete count) of the hub-delete scenario — small
/// enough for `--quick`, large enough that the naive quadratic scan shows.
const HUB_DEGREE: usize = 4096;

fn w(x: u32) -> Weight {
    Weight::new(f64::from(x)).unwrap()
}

/// Inserts giving vertex 0 an out-edge to each of `1..=HUB_DEGREE`.
fn hub_inserts() -> Vec<EdgeUpdate> {
    (0..HUB_DEGREE)
        .map(|i| {
            EdgeUpdate::insert(
                VertexId::new(0),
                VertexId::new(i as u32 + 1),
                w(i as u32 % 7 + 1),
            )
        })
        .collect()
}

/// The matching deletes in reverse insertion order, so the naive scan pays
/// the full list length on every removal.
fn hub_deletes(inserts: &[EdgeUpdate]) -> Vec<EdgeUpdate> {
    inserts
        .iter()
        .rev()
        .map(|e| EdgeUpdate::delete(e.src(), e.dst(), e.weight()))
        .collect()
}

fn bench_hub_delete(c: &mut Criterion) {
    let inserts = hub_inserts();
    let deletes = hub_deletes(&inserts);
    let n = HUB_DEGREE + 1;
    let mut group = c.benchmark_group("ingest/hub_delete");
    group.throughput(Throughput::Elements(deletes.len() as u64));
    group.sample_size(10);
    group.bench_function("naive_scan", |b| {
        b.iter(|| {
            let mut g = DynamicGraph::with_promotion_threshold(n, usize::MAX);
            g.apply_batch(&inserts).unwrap();
            g.apply_batch(black_box(&deletes)).unwrap();
            black_box(g.num_edges())
        });
    });
    group.bench_function("hybrid_indexed", |b| {
        b.iter(|| {
            let mut g = DynamicGraph::new(n);
            g.apply_batch(&inserts).unwrap();
            g.apply_batch(black_box(&deletes)).unwrap();
            black_box(g.num_edges())
        });
    });
    group.finish();
}

fn bench_batch_insert(c: &mut Criterion) {
    // 8K inserts over 1K sources: enough per-source repetition that the
    // pre-grouped reservation pass has something to coalesce.
    let updates: Vec<EdgeUpdate> = (0..8192u32)
        .map(|i| {
            EdgeUpdate::insert(
                VertexId::new(i % 1024),
                VertexId::new(i % 977),
                w(i % 5 + 1),
            )
        })
        .collect();
    let n = 1024;
    let mut group = c.benchmark_group("ingest/batch_insert");
    group.throughput(Throughput::Elements(updates.len() as u64));
    group.bench_function("per_update", |b| {
        b.iter(|| {
            let mut g = DynamicGraph::new(n);
            for u in &updates {
                g.insert_edge(u.src(), u.dst(), u.weight()).unwrap();
            }
            black_box(g.num_edges())
        });
    });
    group.bench_function("apply_batch", |b| {
        b.iter(|| {
            let mut g = DynamicGraph::new(n);
            g.apply_batch(black_box(&updates)).unwrap();
            black_box(g.num_edges())
        });
    });
    group.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    // 4K vertices x 24 edges = 96K edges.
    let n = 4096u32;
    let mut g = DynamicGraph::new(n as usize);
    for u in 0..n {
        for k in 0..24 {
            g.insert_edge(
                VertexId::new(u),
                VertexId::new((u * 31 + k * 7) % n),
                w(k % 6 + 1),
            )
            .unwrap();
        }
    }
    let mut group = c.benchmark_group("ingest/snapshot");
    group.throughput(Throughput::Elements(g.num_edges() as u64));
    group.bench_function("serial", |b| {
        b.iter(|| black_box(g.snapshot()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hub_delete,
    bench_batch_insert,
    bench_snapshot
);
criterion_main!(benches);
