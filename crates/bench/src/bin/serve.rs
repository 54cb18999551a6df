//! Serving-layer benchmark — aggregate multi-query throughput as the
//! worker-thread count scales.
//!
//! For every thread count, a [`QueryServer`] converges the query registry
//! on the initial snapshot and then serves the streamed batches, fanning
//! the per-batch work over worker threads that claim source groups one at
//! a time. The sweep reports per-batch wall-clock, aggregate query
//! throughput (queries served per second of wall-clock), the speedup over
//! the single-thread run of the same workload, and the response-time tail
//! across source groups — and asserts that every thread count produces
//! byte-identical per-query answers.
//!
//! ```text
//! cargo run --release -p cisgraph-bench --bin serve -- --queries 64 --threads 8
//! ```
//!
//! `--threads N` sets the largest thread count of the sweep (1, 2, 4, …
//! up to N); `--queries` sets the standing-query registry size (default
//! 64). The usual workload knobs (`--scale`, `--adds`, `--dels`,
//! `--batches`, `--seed`) apply.
//!
//! # Durable serving
//!
//! `--wal-dir <dir>` switches the binary into a durable serving run: the
//! server recovers from whatever checkpoint + WAL tail the directory
//! holds, applies every batch and then logs it to the WAL (undoing the
//! batch if the append fails), and checkpoints on exit.
//! `--fsync batch|<n>|off` picks the group-commit policy (default
//! `batch`), `--checkpoint-every <n>` checkpoints every
//! `n` batches mid-run, `--checkpoint-mode full|delta` picks full or
//! incremental checkpoints (default `full`; `--full-every <n>` bounds a
//! delta chain), and checkpoints are written on a background worker
//! unless `--checkpoint-sync` forces them inline. See
//! `docs/persistence.md`.
//!
//! ```text
//! cargo run --release -p cisgraph-bench --bin serve -- \
//!     --wal-dir /tmp/wal --fsync 32 --checkpoint-every 64 \
//!     --checkpoint-mode delta --queries 64
//! ```

use cisgraph_algo::Ppsp;
use cisgraph_bench::args::Args;
use cisgraph_bench::obsout::ObsSession;
use cisgraph_bench::table::fmt_speedup;
use cisgraph_bench::{artifacts, build_workload, RunConfig, Table};
use cisgraph_datasets::registry;
use cisgraph_engines::{QueryServer, ServeConfig};
use cisgraph_obs as obs;
use cisgraph_persist::{snapshot_digest, DurableStore, FsyncPolicy, PersistConfig};
use serde::Serialize;
use std::time::{Duration, Instant};

/// One sweep cell's measurements.
#[derive(Debug, Clone, Serialize)]
struct Cell {
    queries: usize,
    threads: usize,
    workers: usize,
    groups: usize,
    batches: usize,
    wall_seconds: f64,
    throughput_qps: f64,
    speedup_vs_one_thread: f64,
    response_p50_us: f64,
    response_p95_us: f64,
    response_p99_us: f64,
    response_max_us: f64,
}

/// Thread counts to sweep: powers of two up to `max`, plus `max` itself.
fn thread_sweep(max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut t = 1;
    while t < max {
        out.push(t);
        t *= 2;
    }
    out.push(max.max(1));
    out.dedup();
    out
}

/// Serves the whole batch stream with `threads` workers; returns the
/// summed wall-clock, the per-group response times of the final batch,
/// and the canonical JSON encoding of the final answers.
fn serve(
    bundle: &cisgraph_bench::WorkloadBundle,
    threads: usize,
) -> (Duration, usize, usize, Vec<Duration>, String) {
    let mut server = QueryServer::<Ppsp>::new(
        bundle.initial.clone(),
        &bundle.queries,
        &ServeConfig::with_threads(threads),
    );
    let mut wall = Duration::ZERO;
    let mut workers = 0;
    let mut groups = 0;
    let mut tail = Vec::new();
    for batch in &bundle.batches {
        let report = server
            .process_batch(batch)
            .expect("workload batches are consistent");
        wall += report.wall_time;
        workers = report.workers;
        groups = report.groups;
        tail = vec![
            report.response_p50,
            report.response_p95,
            report.response_p99,
            report.response_max,
        ];
    }
    let answers = serde_json::to_string(&server.answers()).expect("answers serialize");
    (wall, workers, groups, tail, answers)
}

/// Durable serving run: recover from `wal_dir`, apply then log every batch
/// (a failed append undoes it), checkpoint on exit. Re-running against the
/// same directory resumes where the previous run stopped (already-logged
/// batches are skipped), so a kill at any point loses at most the unsynced
/// tail.
fn serve_durable(args: &Args, wal_dir: &str, threads: usize) {
    let fsync: FsyncPolicy = args
        .get_str("fsync")
        .map(|s| s.parse().expect("--fsync takes batch|<n>|off"))
        .unwrap_or(FsyncPolicy::EveryBatch);
    let mut cfg = PersistConfig::new(wal_dir);
    cfg.fsync = fsync;
    cfg.checkpoint_every = args.get_u64("checkpoint-every");
    cfg.mode = args
        .get_str("checkpoint-mode")
        .map(|s| s.parse().expect("--checkpoint-mode takes full|delta"))
        .unwrap_or_default();
    if let Some(n) = args.get_u64("full-every") {
        cfg.full_every = n;
    }
    // Checkpoints go to the background worker by default so the ingest
    // thread never stalls on serialization + fsync; `--checkpoint-sync`
    // restores the inline (blocking) behavior.
    cfg.background = !args.flag("checkpoint-sync");

    let num_queries = args.get_usize("queries").unwrap_or(64);
    let run = RunConfig::builder(registry::orkut_like())
        .queries(num_queries)
        .build()
        .with_args(args);
    let bundle = build_workload(&run);

    let initial = bundle.initial.clone();
    let (store, recovered) = DurableStore::open(cfg, move || initial).expect("open durable store");
    let resume_at = usize::try_from(recovered.next_seq)
        .unwrap_or(usize::MAX)
        .min(bundle.batches.len());
    obs::log!(
        info,
        "durable serve: recovered {} batches ({} replayed, {} truncated bytes), \
         resuming at batch {resume_at}/{}",
        recovered.next_seq,
        recovered.stats.replayed_batches,
        recovered.stats.truncated_bytes,
        bundle.batches.len(),
    );

    let mut server = QueryServer::<Ppsp>::new(
        recovered.graph,
        &bundle.queries,
        &ServeConfig::with_threads(threads),
    );
    server.attach_durability(store);
    let start = Instant::now();
    let mut wall = Duration::ZERO;
    for batch in &bundle.batches[resume_at..] {
        let report = server.process_batch(batch).expect("consistent workload");
        wall += report.wall_time;
    }
    server.checkpoint_now().expect("final checkpoint");
    let served = (bundle.batches.len() - resume_at) * num_queries;
    let digest = snapshot_digest(&server.graph().snapshot());
    println!(
        "durable serve ({fsync} fsync): {} batches in {:.2} ms wall ({:.2} ms total), \
         {:.0} queries/s, digest=0x{digest:08x}",
        bundle.batches.len() - resume_at,
        wall.as_secs_f64() * 1e3,
        start.elapsed().as_secs_f64() * 1e3,
        served as f64 / wall.as_secs_f64().max(1e-12),
    );
}

fn main() {
    let args = Args::parse();
    let obs_session = ObsSession::init(&args);
    let max_threads = args.get_usize("threads").unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    if let Some(dir) = args.get_str("wal-dir") {
        serve_durable(&args, dir, max_threads);
        obs_session.finish();
        return;
    }
    let num_queries = args.get_usize("queries").unwrap_or(64);
    obs::log!(
        info,
        "serve sweep: {num_queries} queries x threads {:?} (host parallelism {})",
        thread_sweep(max_threads),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );

    let cfg = RunConfig::builder(registry::orkut_like())
        .queries(num_queries)
        .build()
        .with_args(&args);
    let bundle = build_workload(&cfg);
    let served = num_queries * bundle.batches.len();
    let mut table = Table::new(
        [
            "queries",
            "threads",
            "workers",
            "wall ms",
            "queries/s",
            "speedup",
            "p50 us",
            "p95 us",
            "p99 us",
            "max us",
        ]
        .map(String::from)
        .to_vec(),
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut baseline_qps = 0.0;
    let mut baseline_answers = String::new();
    for &threads in &thread_sweep(max_threads) {
        let (wall, workers, groups, tail, answers) = serve(&bundle, threads);
        let qps = served as f64 / wall.as_secs_f64().max(1e-12);
        if threads == 1 {
            baseline_qps = qps;
            baseline_answers = answers.clone();
        }
        // The serving layer's contract: the worker count must never
        // change an answer, bit for bit.
        assert_eq!(
            answers, baseline_answers,
            "answers diverged between 1 and {threads} threads"
        );
        let speedup = qps / baseline_qps.max(1e-12);
        table.row(vec![
            num_queries.to_string(),
            threads.to_string(),
            workers.to_string(),
            format!("{:.2}", wall.as_secs_f64() * 1e3),
            format!("{qps:.0}"),
            fmt_speedup(speedup),
            format!("{:.1}", tail[0].as_secs_f64() * 1e6),
            format!("{:.1}", tail[1].as_secs_f64() * 1e6),
            format!("{:.1}", tail[2].as_secs_f64() * 1e6),
            format!("{:.1}", tail[3].as_secs_f64() * 1e6),
        ]);
        cells.push(Cell {
            queries: num_queries,
            threads,
            workers,
            groups,
            batches: bundle.batches.len(),
            wall_seconds: wall.as_secs_f64(),
            throughput_qps: qps,
            speedup_vs_one_thread: speedup,
            response_p50_us: tail[0].as_secs_f64() * 1e6,
            response_p95_us: tail[1].as_secs_f64() * 1e6,
            response_p99_us: tail[2].as_secs_f64() * 1e6,
            response_max_us: tail[3].as_secs_f64() * 1e6,
        });
    }

    println!("{}", table.render());
    if let Some(top) = cells.iter().find(|c| c.threads == max_threads) {
        println!(
            "aggregate throughput at {max_threads} threads: {} vs 1 thread \
             (answers byte-identical across all thread counts)",
            fmt_speedup(top.speedup_vs_one_thread)
        );
    }
    artifacts::write_json("serve", &cells);
    // Shadow accelerator pass (instrumented runs only, after all timing):
    // replays the stream through the cycle-level model for one standing
    // query, so the metrics snapshot also carries the simulator's DRAM and
    // scratchpad gauges alongside the serving-layer metrics.
    if obs_session.active() {
        obs::log!(info, "shadow accelerator pass for simulator gauges");
        let mut graph = bundle.initial.clone();
        let mut accel = cisgraph_core::CisGraphAccel::<Ppsp>::new(
            &graph,
            bundle.queries[0],
            cisgraph_core::AcceleratorConfig::date2025(),
        );
        for batch in &bundle.batches {
            graph.apply_batch(batch).expect("consistent workload");
            accel.process_batch(&graph, batch);
        }
    }
    obs_session.finish();
}
