//! Durability microbenchmark and crash-recovery smoke driver.
//!
//! Bench mode (the default) measures, against one deterministic workload:
//! raw WAL append throughput under every fsync policy, the end-to-end
//! ingest overhead of write-ahead logging versus plain `apply_batch`,
//! recovery replay speed, checkpoint write amplification (bytes written by
//! a full-checkpoint cadence versus a delta-chain cadence over the same
//! history), and the per-batch ingest stall that background delta
//! checkpointing adds over plain ingest. The JSON written by `--out` is
//! the checked-in `BENCH_wal.json` baseline.
//!
//! ```text
//! cargo run --release -p cisgraph-bench --bin walbench -- \
//!     --batches 64 --assert-overhead 1.15 --assert-stall 10 --out BENCH_wal.json
//! ```
//!
//! The crash modes drive CI's cross-process recovery smoke: three
//! invocations against one directory prove that a killed ingest recovers
//! to the byte-identical snapshot an uninterrupted run produces.
//!
//! ```text
//! walbench --mode crash    --dir /tmp/wal   # ingest, torn tail, record digest
//! walbench --mode recover  --dir /tmp/wal   # recover, assert digest matches
//! walbench --mode baseline                  # no-WAL ingest, same digest
//! ```
//!
//! Knobs: `--mode bench|crash|recover|baseline`, `--dir <path>` (crash /
//! recover state directory), `--repeats <n>` best-of timing repeats,
//! `--assert-overhead <x>` exits non-zero if fsync-off durable ingest
//! exceeds `x`× the no-WAL ingest time, `--assert-stall <x>` exits
//! non-zero if the p99 per-batch latency of ingest with background delta
//! checkpointing exceeds `x`× the plain-ingest p99, `--out <path>`, and
//! the usual workload knobs (`--scale`, `--adds`, `--dels`, `--batches`,
//! `--seed`).

use cisgraph_bench::args::Args;
use cisgraph_bench::obsout::ObsSession;
use cisgraph_bench::{artifacts, build_workload, RunConfig, WorkloadBundle};
use cisgraph_datasets::registry;
use cisgraph_graph::DynamicGraph;
use cisgraph_obs as obs;
use cisgraph_persist::{
    recover, snapshot_digest, CheckpointMode, DurableStore, FsyncPolicy, PersistConfig, Wal,
    WalConfig, WalFrame,
};
use serde::Serialize;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Raw WAL append throughput under one fsync policy.
#[derive(Debug, Serialize)]
struct AppendRow {
    fsync: String,
    mb_per_sec: f64,
    updates_per_sec: f64,
}

/// Checkpoint bytes written over the whole history under one mode.
#[derive(Debug, Serialize)]
struct AmplificationRow {
    mode: String,
    checkpoints: usize,
    delta_checkpoints: usize,
    bytes: u64,
}

/// Per-batch ingest-latency tail with background delta checkpointing
/// versus plain (no-persistence) ingest.
#[derive(Debug, Serialize)]
struct StallRow {
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
}

/// The `BENCH_wal.json` baseline document.
#[derive(Debug, Serialize)]
struct Report {
    batches: usize,
    updates: usize,
    repeats: usize,
    append: Vec<AppendRow>,
    plain_ingest_ns: u64,
    durable_fsync_off_ns: u64,
    overhead: f64,
    recovery_replay_ns: u64,
    recovery_updates_per_sec: f64,
    amplification: Vec<AmplificationRow>,
    checkpoint_bytes_ratio: f64,
    stall_plain: StallRow,
    stall_durable: StallRow,
    stall_ratio: f64,
}

/// The deterministic workload every mode shares (so digests agree across
/// processes given the same knobs).
fn workload(args: &Args) -> WorkloadBundle {
    // Big enough that per-update apply cost is realistic (the overhead
    // gate compares against it); small enough for the CI smoke.
    let cfg = RunConfig::builder(registry::orkut_like())
        .scale(0.01)
        .batch_size(2000, 500)
        .batches(16)
        .queries(1)
        .build()
        .with_args(args);
    build_workload(&cfg)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cisgraph_walbench_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Applies every batch to a clone of the initial graph; returns the final
/// graph and the elapsed nanoseconds.
fn plain_ingest(bundle: &WorkloadBundle) -> (DynamicGraph, u64) {
    let mut graph = bundle.initial.clone();
    let start = Instant::now();
    for batch in &bundle.batches {
        graph.apply_batch(batch).expect("consistent workload");
    }
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (graph, ns)
}

/// Raw append throughput of one fsync policy: bytes/sec and updates/sec
/// over the whole batch stream, best of `repeats`.
fn append_throughput(bundle: &WorkloadBundle, fsync: FsyncPolicy, repeats: usize) -> (f64, f64) {
    let updates: usize = bundle.batches.iter().map(Vec::len).sum();
    // Frame sizes are deterministic: header + count word per batch, one
    // fixed-width record per update.
    let bytes = bundle.batches.len() * (cisgraph_persist::FRAME_HEADER_BYTES + 4)
        + updates * cisgraph_persist::UPDATE_BYTES;
    let mut best_ns = u64::MAX;
    for r in 0..repeats.max(1) {
        let dir = fresh_dir(&format!("append_{fsync}_{r}"));
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = fsync;
        let mut wal = Wal::open(cfg, 0).expect("open wal");
        let start = Instant::now();
        for batch in &bundle.batches {
            wal.append(batch).expect("append");
        }
        wal.sync().expect("final sync");
        best_ns = best_ns.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let secs = best_ns as f64 / 1e9;
    (
        bytes as f64 / secs.max(1e-12),
        updates as f64 / secs.max(1e-12),
    )
}

/// Runs the whole history through a checkpointing store in `mode` and
/// sums the bytes of every checkpoint file left behind (pruning disabled),
/// excluding the bootstrap checkpoint both modes share.
fn checkpoint_amplification(bundle: &WorkloadBundle, mode: CheckpointMode) -> AmplificationRow {
    let dir = fresh_dir(&format!("amp_{mode:?}"));
    let mut cfg = PersistConfig::new(&dir);
    cfg.fsync = FsyncPolicy::Never;
    cfg.checkpoint_every = Some(4);
    cfg.keep_checkpoints = usize::MAX; // measure every write; never prune
    cfg.mode = mode;
    cfg.full_every = 8;
    let initial = bundle.initial.clone();
    let (mut store, recovered) = DurableStore::open(cfg, move || initial).expect("open store");
    let bootstrap_bytes: u64 = checkpoint_sizes(&dir).iter().map(|(_, b)| b).sum();
    let mut graph = recovered.graph;
    for batch in &bundle.batches {
        graph.apply_batch(batch).expect("consistent workload");
        store.log_batch(batch).expect("log");
        store.maybe_checkpoint(&mut graph).expect("checkpoint");
    }
    drop(store);
    let sizes = checkpoint_sizes(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    AmplificationRow {
        mode: format!("{mode:?}").to_lowercase(),
        checkpoints: sizes.len() - 1, // minus the bootstrap
        delta_checkpoints: sizes.iter().filter(|(is_delta, _)| *is_delta).count(),
        bytes: sizes.iter().map(|(_, b)| b).sum::<u64>() - bootstrap_bytes,
    }
}

/// `(is_delta, bytes)` for every checkpoint file in `dir`.
fn checkpoint_sizes(dir: &Path) -> Vec<(bool, u64)> {
    std::fs::read_dir(dir)
        .expect("read checkpoint dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?;
            if !name.starts_with("ckpt-") || name.ends_with(".tmp") {
                return None;
            }
            Some((name.ends_with(".dckpt"), std::fs::metadata(&p).ok()?.len()))
        })
        .collect()
}

fn stall_row(mut samples_ns: Vec<u64>) -> StallRow {
    samples_ns.sort_unstable();
    let us = |p| obs::percentile(&samples_ns, p).map_or(0.0, |ns| ns as f64 / 1e3);
    StallRow {
        p50_us: us(0.50),
        p99_us: us(0.99),
        max_us: us(1.0),
    }
}

/// Per-batch latency samples: plain ingest versus durable ingest with
/// background delta checkpoints (fsync off, so the stall isolated here is
/// the checkpoint work itself, not the WAL's group commit). The checkpoint
/// cadence fires four times across the stream; with an inline writer those
/// batches would each absorb a full serialize + fsync, with the background
/// worker they only pay the snapshot handoff.
fn ingest_stall(bundle: &WorkloadBundle, repeats: usize) -> (StallRow, StallRow) {
    let mut plain_ns = Vec::new();
    let mut durable_ns = Vec::new();
    for r in 0..repeats.max(1) {
        let mut plain_graph = bundle.initial.clone();
        for batch in &bundle.batches {
            let start = Instant::now();
            plain_graph.apply_batch(batch).expect("consistent workload");
            plain_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }

        let dir = fresh_dir(&format!("stall_{r}"));
        let mut cfg = PersistConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Never;
        cfg.checkpoint_every = Some(4);
        cfg.mode = CheckpointMode::Delta;
        cfg.full_every = 8;
        cfg.background = true;
        let initial = bundle.initial.clone();
        let (mut store, recovered) = DurableStore::open(cfg, move || initial).expect("open store");
        let mut graph = recovered.graph;
        for batch in &bundle.batches {
            let start = Instant::now();
            graph.apply_batch(batch).expect("consistent workload");
            store.log_batch(batch).expect("log");
            store.maybe_checkpoint(&mut graph).expect("checkpoint");
            durable_ns.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        drop(store); // drains the in-flight background write
        let _ = std::fs::remove_dir_all(&dir);
    }
    (stall_row(plain_ns), stall_row(durable_ns))
}

fn bench(args: &Args, bundle: &WorkloadBundle) {
    let repeats = args.get_usize("repeats").unwrap_or(3);
    let updates: usize = bundle.batches.iter().map(Vec::len).sum();
    obs::log!(
        info,
        "walbench: {} batches / {updates} updates, best of {repeats}",
        bundle.batches.len()
    );

    // --- Raw append throughput per fsync policy -------------------------
    let policies = [
        FsyncPolicy::EveryBatch,
        FsyncPolicy::EveryN(32),
        FsyncPolicy::Never,
    ];
    let mut append = Vec::new();
    for &fsync in &policies {
        let (bps, ups) = append_throughput(bundle, fsync, repeats);
        println!(
            "append ({fsync} fsync): {:.1} MB/s, {:.0} updates/s",
            bps / 1e6,
            ups
        );
        append.push(AppendRow {
            fsync: fsync.to_string(),
            mb_per_sec: bps / 1e6,
            updates_per_sec: ups,
        });
    }

    // --- End-to-end ingest: plain vs durable (fsync off) ----------------
    // The two variants interleave at *batch* granularity: each batch is
    // applied plain and applied-and-logged durable, and the two running
    // sums are compared. Scheduler and writeback noise lands on both sides
    // of the pair almost equally, where phase-level timing would charge an
    // unlucky interval to one variant. Which side runs first alternates
    // from batch to batch: the second side of a pair runs on caches the
    // first one left, so a fixed order charges that to one side only. The
    // gate reads the median ratio across repeats.
    let mut plain_ns = u64::MAX;
    let mut durable_ns = u64::MAX;
    let mut ratios = Vec::new();
    let mut last_dir = None;
    let mut last_digest = 0u32;
    for r in 0..repeats.max(1) {
        // Open the store (initial checkpoint: a multi-MB write + fsync)
        // before the timed loop, so its I/O pressure precedes both sides.
        let dir = fresh_dir(&format!("durable_{r}"));
        let mut cfg = PersistConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Never;
        let initial = bundle.initial.clone();
        let (mut store, recovered) = DurableStore::open(cfg, move || initial).expect("open store");
        // Apply onto a clone identical to the plain side's — the recovered
        // graph holds the same state but a checkpoint-rebuilt allocation
        // layout, which would skew the apply-cost comparison.
        drop(recovered);
        let mut durable_graph = bundle.initial.clone();
        let mut plain_graph = bundle.initial.clone();

        let mut plain_r = 0u64;
        let mut durable_r = 0u64;
        for (i, batch) in bundle.batches.iter().enumerate() {
            let mut plain = || {
                let start = Instant::now();
                plain_graph.apply_batch(batch).expect("consistent workload");
                plain_r += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            };
            let mut durable = || {
                let start = Instant::now();
                durable_graph
                    .apply_batch(batch)
                    .expect("consistent workload");
                store.log_batch(batch).expect("log");
                durable_r += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            };
            if i % 2 == 0 {
                plain();
                durable();
            } else {
                durable();
                plain();
            }
        }
        plain_ns = plain_ns.min(plain_r);
        durable_ns = durable_ns.min(durable_r);
        ratios.push(durable_r as f64 / plain_r.max(1) as f64);
        // Teardown durability (one fsync) happens outside the steady-state
        // window the overhead gate measures.
        store.sync().expect("final sync");
        drop(store);
        if let Some(prev) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(prev);
        }
        last_digest = snapshot_digest(&durable_graph.snapshot());
    }
    // WAL-tail replay speed, measured once against the surviving log.
    let dir = last_dir.expect("at least one durable repeat");
    let initial = bundle.initial.clone();
    let start = Instant::now();
    let r2 = recover(&dir, move || initial).expect("recover");
    let recover_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    assert_eq!(r2.stats.replayed_batches, bundle.batches.len() as u64);
    assert_eq!(snapshot_digest(&r2.graph.snapshot()), last_digest);
    let _ = std::fs::remove_dir_all(&dir);
    ratios.sort_by(f64::total_cmp);
    let overhead = obs::percentile_f64(&ratios, 0.5).expect("at least one durable repeat");
    let recover_ups = updates as f64 / (recover_ns as f64 / 1e9).max(1e-12);
    println!(
        "ingest: plain {:.3} ms, durable(off) {:.3} ms ({overhead:.3}x paired overhead)",
        plain_ns as f64 / 1e6,
        durable_ns as f64 / 1e6,
    );
    println!(
        "recovery: {:.3} ms for {updates} updates ({recover_ups:.0} updates/s)",
        recover_ns as f64 / 1e6,
    );

    // --- Checkpoint write amplification: full cadence vs delta chain ----
    let amp_full = checkpoint_amplification(bundle, CheckpointMode::Full);
    let amp_delta = checkpoint_amplification(bundle, CheckpointMode::Delta);
    let bytes_ratio = amp_delta.bytes as f64 / (amp_full.bytes as f64).max(1.0);
    println!(
        "checkpoint bytes: full {:.2} MB ({} ckpts), delta {:.2} MB ({} ckpts, {} deltas) \
         — {bytes_ratio:.3}x",
        amp_full.bytes as f64 / 1e6,
        amp_full.checkpoints,
        amp_delta.bytes as f64 / 1e6,
        amp_delta.checkpoints,
        amp_delta.delta_checkpoints,
    );

    // --- Ingest stall: background delta checkpointing vs plain ----------
    let (stall_plain, stall_durable) = ingest_stall(bundle, repeats);
    let stall_ratio = stall_durable.p99_us / stall_plain.p99_us.max(1e-9);
    println!(
        "ingest stall p99: plain {:.1} us, durable(bg delta) {:.1} us ({stall_ratio:.3}x); \
         max {:.1} us vs {:.1} us",
        stall_plain.p99_us, stall_durable.p99_us, stall_plain.max_us, stall_durable.max_us,
    );

    let report = Report {
        batches: bundle.batches.len(),
        updates,
        repeats,
        append,
        plain_ingest_ns: plain_ns,
        durable_fsync_off_ns: durable_ns,
        overhead,
        recovery_replay_ns: recover_ns,
        recovery_updates_per_sec: recover_ups,
        amplification: vec![amp_full, amp_delta],
        checkpoint_bytes_ratio: bytes_ratio,
        stall_plain,
        stall_durable,
        stall_ratio,
    };
    artifacts::write_json("walbench", &report);
    if let Some(path) = args.get_str("out") {
        match serde_json::to_string_pretty(&report) {
            Ok(text) => match std::fs::write(path, text + "\n") {
                Ok(()) => obs::log!(info, "baseline written to {path}"),
                Err(e) => obs::log!(warn, "cannot write {path}: {e}"),
            },
            Err(e) => obs::log!(warn, "cannot serialize report: {e}"),
        }
    }
    if let Some(limit) = args.get_f64("assert-overhead") {
        assert!(
            overhead <= limit,
            "durable ingest overhead {overhead:.3}x exceeds the allowed {limit:.2}x"
        );
        println!("overhead gate ok: {overhead:.3}x <= {limit:.2}x");
    }
    if let Some(limit) = args.get_f64("assert-stall") {
        assert!(
            report.stall_ratio <= limit,
            "p99 ingest stall {:.3}x under background delta checkpointing exceeds \
             the allowed {limit:.2}x",
            report.stall_ratio
        );
        // Delta chains must also beat full checkpoints on bytes for this
        // mostly-stable workload — the write-amplification claim.
        assert!(
            report.checkpoint_bytes_ratio < 1.0,
            "delta checkpoints wrote {:.3}x the bytes of full checkpoints",
            report.checkpoint_bytes_ratio
        );
        println!(
            "stall gate ok: {:.3}x <= {limit:.2}x (delta bytes ratio {:.3})",
            report.stall_ratio, report.checkpoint_bytes_ratio
        );
    }
}

/// Ingests the whole workload durably, then simulates a crash: drop the
/// store without a final checkpoint and leave a torn half-written frame at
/// the WAL tail. Records the expected digest for `--mode recover`.
fn crash(args: &Args, bundle: &WorkloadBundle, dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = PersistConfig::new(dir);
    cfg.fsync = FsyncPolicy::EveryBatch;
    cfg.checkpoint_every = args.get_u64("checkpoint-every");
    let initial = bundle.initial.clone();
    let (mut store, recovered) = DurableStore::open(cfg, move || initial).expect("open store");
    let mut graph = recovered.graph;
    for batch in &bundle.batches {
        graph.apply_batch(batch).expect("consistent workload");
        store.log_batch(batch).expect("log");
        store.maybe_checkpoint(&mut graph).expect("checkpoint");
    }
    store.sync().expect("sync");
    drop(store);

    // Torn write: the process died mid-append of one more frame. Recovery
    // must truncate it and land exactly on the full logged prefix.
    let next_seq = bundle.batches.len() as u64;
    let mut buf = Vec::new();
    let torn_batch = &bundle.batches[0];
    let len = WalFrame::encode(next_seq, torn_batch, &mut buf);
    let torn = &buf[..len / 2];
    let mut seg: Vec<_> = std::fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    seg.sort();
    let last = seg.last().expect("at least one segment");
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(last)
        .expect("open segment");
    f.write_all(torn).expect("torn append");
    drop(f);

    let digest = snapshot_digest(&graph.snapshot());
    std::fs::write(dir.join("expected.digest"), format!("{digest:08x}\n"))
        .expect("write expected digest");
    println!(
        "crash: {} batches logged, torn tail of {} bytes appended, digest=0x{digest:08x}",
        bundle.batches.len(),
        len / 2,
    );
}

/// Recovers the directory `--mode crash` damaged and asserts the snapshot
/// digest matches the recorded expectation.
fn recover_mode(bundle: &WorkloadBundle, dir: &Path) {
    let initial = bundle.initial.clone();
    let start = Instant::now();
    let r = recover(dir, move || initial).expect("recover");
    let elapsed = start.elapsed();
    let digest = snapshot_digest(&r.graph.snapshot());
    println!(
        "recover: {} batches ({} replayed, {} torn bytes truncated) in {:.2} ms, \
         digest=0x{digest:08x}",
        r.next_seq,
        r.stats.replayed_batches,
        r.stats.truncated_bytes,
        elapsed.as_secs_f64() * 1e3,
    );
    assert!(
        r.stats.truncated_bytes > 0,
        "the crash mode left a torn tail; recovery must have truncated it"
    );
    let expected = std::fs::read_to_string(dir.join("expected.digest"))
        .expect("crash mode records expected.digest");
    assert_eq!(
        format!("{digest:08x}"),
        expected.trim(),
        "recovered snapshot diverges from the pre-crash state"
    );
    println!("recovery smoke ok: snapshot is byte-identical to the pre-crash state");
}

/// No-WAL reference: the digest an uninterrupted plain ingest produces.
fn baseline(bundle: &WorkloadBundle) {
    let (graph, ns) = plain_ingest(bundle);
    let digest = snapshot_digest(&graph.snapshot());
    println!(
        "baseline: {} batches in {:.2} ms, digest=0x{digest:08x}",
        bundle.batches.len(),
        ns as f64 / 1e6,
    );
}

fn main() {
    let args = Args::parse();
    let obs_session = ObsSession::init(&args);
    let bundle = workload(&args);
    let dir = PathBuf::from(args.get_str("dir").unwrap_or("target/walbench"));
    match args.get_str("mode").unwrap_or("bench") {
        "bench" => bench(&args, &bundle),
        "crash" => crash(&args, &bundle, &dir),
        "recover" => recover_mode(&bundle, &dir),
        "baseline" => baseline(&bundle),
        other => panic!("unknown --mode {other}; expected bench|crash|recover|baseline"),
    }
    obs_session.finish();
}
