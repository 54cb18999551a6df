//! Recovery's metrics: the three phase histograms split the whole call,
//! so per recovery `chain_ns + build_ns + tail_ns` equals `replay_ns`, and
//! nothing registers while the sink is off.
//!
//! This is its own test binary because the metric registry is global: no
//! other test in this process recovers while these histograms are read.

use std::path::PathBuf;

use cisgraph_graph::DynamicGraph;
use cisgraph_persist::{recover, CheckpointMode, DurableStore, FsyncPolicy, PersistConfig};
use cisgraph_types::{EdgeUpdate, VertexId, Weight};

const PHASES: [&str; 3] = [
    "persist.recover.chain_ns",
    "persist.recover.build_ns",
    "persist.recover.tail_ns",
];

fn w(x: u32) -> Weight {
    Weight::new(f64::from(x)).unwrap()
}

/// 32 vertices, each with edges to its next three.
fn bootstrap() -> DynamicGraph {
    let mut g = DynamicGraph::with_promotion_threshold(32, 4);
    for u in 0..32 {
        for d in 1..=3 {
            g.insert_edge(VertexId::new(u), VertexId::new((u + d) % 32), w(d))
                .unwrap();
        }
    }
    g
}

/// A delta-mode store of 10 batches, each rewriting two of the 32 rows,
/// checkpointed every 4: recovery reads a base and two deltas, then
/// replays a tail of 2 batches.
fn store_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cisgraph_recover_obs_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = PersistConfig::new(&dir);
    cfg.fsync = FsyncPolicy::Never;
    cfg.checkpoint_every = Some(4);
    cfg.mode = CheckpointMode::Delta;
    let (mut store, recovered) = DurableStore::open(cfg, bootstrap).unwrap();
    let mut graph = recovered.graph;
    for b in 0..10u32 {
        let batch: Vec<_> = (0..8)
            .map(|i| {
                EdgeUpdate::insert(
                    VertexId::new(b % 4 + 16 * (i % 2)),
                    VertexId::new((b * 7 + i * 3 + 1) % 32),
                    w(i % 3 + 1),
                )
            })
            .collect();
        graph.apply_batch(&batch).unwrap();
        store.log_batch(&batch).unwrap();
        store.maybe_checkpoint(&mut graph).unwrap();
    }
    dir
}

#[test]
fn phases_sum_to_the_whole_recovery() {
    let dir = store_dir();

    let off = recover(&dir, bootstrap).unwrap();
    assert_eq!(off.stats.delta_checkpoints, 2);
    assert_eq!(off.stats.replayed_batches, 2);
    let registered = cisgraph_obs::snapshot().histograms;
    for name in PHASES.iter().chain(&["persist.recover.replay_ns"]) {
        assert!(
            !registered.contains_key(*name),
            "{name} registered while off"
        );
    }

    cisgraph_obs::enable();
    for _ in 0..3 {
        recover(&dir, bootstrap).unwrap();
    }
    cisgraph_obs::disable();
    let histograms = cisgraph_obs::snapshot().histograms;
    let whole = &histograms["persist.recover.replay_ns"];
    assert_eq!(whole.count, 3);
    let mut phases = 0;
    for name in PHASES {
        let phase = &histograms[name];
        assert_eq!(phase.count, 3, "{name}: one sample per recovery");
        assert!(phase.sum > 0, "{name} took no time");
        phases += phase.sum;
    }
    // The laps share their end points, so the sums agree to the nanosecond.
    assert_eq!(phases, whole.sum);
    let _ = std::fs::remove_dir_all(&dir);
}
