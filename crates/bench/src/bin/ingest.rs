//! Storage-layer ingestion study: the paper-scale hub-delete microbench
//! (50K deletes against one high-degree vertex, §IV-A batch shape) run
//! against both adjacency representations, plus a snapshot
//! materialization timing.
//!
//! The "naive" rows pin the promotion threshold to `usize::MAX`, which is
//! exactly the pre-hybrid `Vec<Vec<Edge>>` behavior, so one run records
//! before *and* after numbers. The JSON written by `--out` is the
//! checked-in `BENCH_ingest.json` baseline.
//!
//! ```text
//! cargo run --release -p cisgraph-bench --bin ingest -- \
//!     --deletes 50000 --assert-speedup 2.0 --out BENCH_ingest.json
//! ```
//!
//! Knobs: `--deletes <n>` (default 50000), `--repeats <n>` best-of timing
//! repeats (default 3), `--assert-speedup <x>` exits non-zero unless the
//! hybrid hub-delete speedup reaches `x`, `--out <path>` writes the JSON
//! report there in addition to `target/experiments/ingest.json`, and the
//! usual `--metrics-out`/`--trace-out` (whose `graph.*` counters feed
//! `metricsdiff`). `--naive` pins every graph in the study to the pre-PR
//! representation, so two `--metrics-out` snapshots (one `--naive`, one
//! not) diff into the before/after story:
//!
//! ```text
//! ingest --naive --metrics-out before.json
//! ingest --metrics-out after.json
//! metricsdiff before.json after.json
//! ```

use cisgraph_bench::args::Args;
use cisgraph_bench::artifacts;
use cisgraph_bench::obsout::ObsSession;
use cisgraph_graph::{DynamicGraph, GraphView};
use cisgraph_obs as obs;
use cisgraph_types::{EdgeUpdate, VertexId, Weight};
use serde_json::json;
use std::hint::black_box;
use std::time::Instant;

fn w(x: u32) -> Weight {
    Weight::new(f64::from(x)).expect("small positive weight")
}

/// Best-of-`repeats` wall time of `f`, in nanoseconds.
fn best_ns(repeats: usize, mut f: impl FnMut()) -> u64 {
    (0..repeats.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .min()
        .expect("at least one repeat")
}

/// Hub scenario: vertex 0 gains `deletes` out-edges (distinct
/// destinations), then loses them all in reverse insertion order — the
/// order that makes the naive linear scan pay the full remaining list
/// length per removal.
fn hub_workload(deletes: usize) -> (Vec<EdgeUpdate>, Vec<EdgeUpdate>) {
    let inserts: Vec<EdgeUpdate> = (0..deletes)
        .map(|i| {
            EdgeUpdate::insert(
                VertexId::new(0),
                VertexId::new(i as u32 + 1),
                w(i as u32 % 7 + 1),
            )
        })
        .collect();
    let dels = inserts
        .iter()
        .rev()
        .map(|e| EdgeUpdate::delete(e.src(), e.dst(), e.weight()))
        .collect();
    (inserts, dels)
}

fn main() {
    let args = Args::parse();
    let obs_session = ObsSession::init(&args);
    let deletes = args.get_usize("deletes").unwrap_or(50_000);
    let repeats = args.get_usize("repeats").unwrap_or(3);
    let naive_mode = args.flag("naive");
    let threshold = if naive_mode {
        usize::MAX
    } else {
        cisgraph_graph::DEFAULT_PROMOTION_THRESHOLD
    };
    obs::log!(
        info,
        "ingest study: {deletes} hub deletes, best of {repeats}{}",
        if naive_mode { ", naive storage" } else { "" }
    );

    // --- Hub-delete: naive (pre-hybrid) vs degree-adaptive hybrid -------
    let (inserts, dels) = hub_workload(deletes);
    let n = deletes + 1;
    // Measure the delete phase alone: build once per repeat, time only
    // the delete batch.
    let measure = |threshold: usize| {
        let mut best = u64::MAX;
        for _ in 0..repeats.max(1) {
            let mut g = DynamicGraph::with_promotion_threshold(n, threshold);
            g.apply_batch(&inserts).expect("hub inserts");
            let start = Instant::now();
            g.apply_batch(&dels).expect("hub deletes");
            best = best.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            assert_eq!(g.num_edges(), 0, "every delete must land");
        }
        best
    };
    let naive_ns = measure(usize::MAX);
    let hybrid_ns = measure(threshold);
    let speedup = naive_ns as f64 / hybrid_ns.max(1) as f64;
    println!(
        "hub_delete ({deletes} deletes): naive {:.3} ms, hybrid {:.3} ms, speedup {speedup:.1}x",
        naive_ns as f64 / 1e6,
        hybrid_ns as f64 / 1e6,
    );

    // --- Snapshot materialization --------------------------------------
    // A non-degenerate multi-row graph (the hub graph has one giant row).
    let sv = 4096u32;
    let mut sg = DynamicGraph::with_promotion_threshold(sv as usize, threshold);
    for u in 0..sv {
        for k in 0..24 {
            sg.insert_edge(
                VertexId::new(u),
                VertexId::new((u * 31 + k * 7) % sv),
                w(k % 6 + 1),
            )
            .expect("snapshot graph insert");
        }
    }
    let serial_ns = best_ns(repeats, || {
        black_box(sg.snapshot());
    });
    println!(
        "snapshot ({} edges): {:.3} ms",
        sg.num_edges(),
        serial_ns as f64 / 1e6,
    );

    // The vendored `json!` macro takes each value as one token tree, so
    // multi-token expressions are parenthesized.
    let report = json!({
        "config": {
            "deletes": deletes,
            "repeats": repeats,
            "naive": naive_mode,
            "snapshot_vertices": (sv as usize),
            "snapshot_edges": (sg.num_edges())
        },
        "hub_delete": {
            "naive_ns": naive_ns,
            "hybrid_ns": hybrid_ns,
            "speedup": speedup
        },
        "snapshot": {
            "serial_ns": serial_ns
        }
    });
    artifacts::write_json("ingest", &report);
    if let Some(path) = args.get_str("out") {
        match serde_json::to_string_pretty(&report) {
            Ok(text) => match std::fs::write(path, text + "\n") {
                Ok(()) => obs::log!(info, "baseline written to {path}"),
                Err(e) => obs::log!(warn, "cannot write {path}: {e}"),
            },
            Err(e) => obs::log!(warn, "cannot serialize report: {e}"),
        }
    }
    obs_session.finish();

    if let Some(required) = args.get_f64("assert-speedup") {
        assert!(
            speedup >= required,
            "hub-delete speedup {speedup:.2}x is below the required {required:.2}x"
        );
        println!("speedup gate ok: {speedup:.1}x >= {required:.1}x");
    }
}
