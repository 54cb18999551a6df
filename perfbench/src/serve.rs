//! The serving workloads. `serve-mixed` serves 64 standing queries from
//! memory; `ingest-durable` serves 4 with a [`DurableStore`] attached (WAL
//! fsync every batch, background delta checkpoints every 8 batches) after
//! recovering a store an untimed preparation logged.
//!
//! A pass sets up a server (timed as set-up), serves every batch through
//! [`QueryServer::process_batch`] and then checks the final answers against
//! Cold-Start; a durable pass also checks the recovered graph's digest
//! before serving and after a reopen at the end. The traced run alternates
//! such passes with passes of a replica pipeline that calls each layer's
//! public function in the order `process_batch` does and times each call.

use crate::stats::{mean, median, ms, quantile, ratio, tail_q, us};
use crate::{check, repeat_until, Outcome, Settings, Workload};
use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::Ppsp;
use cisgraph_bench::WorkloadBundle;
use cisgraph_engines::{BatchReport, MultiQuery, QueryServer, ServeConfig};
use cisgraph_graph::{DynamicGraph, SharedGraph};
use cisgraph_persist::{
    CheckpointMode, DurableStore, FsyncPolicy, PersistConfig, FRAME_HEADER_BYTES, UPDATE_BYTES,
};
use cisgraph_types::{EdgeUpdate, PairQuery, State, VertexId};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// WAL fsync every batch, background delta checkpoints every 8 batches.
fn persist_config(dir: &Path) -> PersistConfig {
    let mut cfg = PersistConfig::new(dir);
    cfg.fsync = FsyncPolicy::EveryBatch;
    cfg.checkpoint_every = Some(8);
    cfg.mode = CheckpointMode::Delta;
    cfg.background = true;
    cfg
}

/// Everything a pass starts from.
struct Prepared<'a> {
    /// Independent standing-query sets; pass `i` registers set `i mod len`.
    query_sets: Vec<&'a [PairQuery]>,
    /// The graph a pass starts serving on.
    start: DynamicGraph,
    /// The batches a pass serves.
    served: &'a [Vec<EdgeUpdate>],
    threads: usize,
    durable: Option<Durable>,
}

/// The durable workload's directories and reference digests.
struct Durable {
    /// The store the preparation logged; each pass starts from a copy.
    pristine: PathBuf,
    /// The copy a pass serves into.
    work: PathBuf,
    /// Digest of the in-memory replay of the logged prefix.
    start_digest: u32,
    /// Digest of the in-memory replay of the prefix and the served batches.
    end_digest: u32,
}

/// Logs and applies `prefix` through the store protocol, checkpointing on
/// the store's cadence, and waits for the last checkpoint.
fn prepare_store(dir: &Path, initial: &DynamicGraph, prefix: &[Vec<EdgeUpdate>]) -> io::Result<()> {
    let _ = fs::remove_dir_all(dir);
    let (mut store, recovered) = DurableStore::open(persist_config(dir), || initial.clone())?;
    let mut graph = recovered.graph;
    for batch in prefix {
        store.log_batch(batch)?;
        graph.apply_batch(batch).map_err(io::Error::other)?;
        store.maybe_checkpoint(&mut graph)?;
    }
    store.drain_checkpoints()?;
    Ok(())
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Bytes of checkpoint files (full and delta) in `dir`.
fn checkpoint_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".ckpt") || name.ends_with(".dckpt") {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Reopens the served store (recovery after the last batch) and checks
/// the recovered graph against the in-memory replay; removes the copy.
fn verify_reopen(durable: &Durable) -> io::Result<u64> {
    let (store, recovered) =
        DurableStore::open(persist_config(&durable.work), || DynamicGraph::new(0))?;
    drop(store);
    let wrong = check::digest_mismatch(&recovered.graph, durable.end_digest);
    fs::remove_dir_all(&durable.work)?;
    Ok(wrong)
}

fn prepare<'a>(settings: &Settings, bundle: &'a WorkloadBundle) -> io::Result<Prepared<'a>> {
    let size = &settings.size;
    let prefix = &bundle.batches[..size.prefix_batches];
    let served = &bundle.batches[size.prefix_batches..];
    let mut start = bundle.initial.clone();
    for batch in prefix {
        start.apply_batch(batch).map_err(io::Error::other)?;
    }
    let durable = if settings.workload == Workload::IngestDurable {
        let pristine = settings.work_dir.join("pristine");
        prepare_store(&pristine, &bundle.initial, prefix)?;
        let mut end = start.clone();
        for batch in served {
            end.apply_batch(batch).map_err(io::Error::other)?;
        }
        Some(Durable {
            pristine,
            work: settings.work_dir.join("pass"),
            start_digest: check::digest(&start),
            end_digest: check::digest(&end),
        })
    } else {
        None
    };
    Ok(Prepared {
        query_sets: bundle.queries.chunks(size.queries.max(1)).collect(),
        start,
        served,
        threads: size.threads,
        durable,
    })
}

/// Tallies of untimed-layer (end-to-end) passes.
#[derive(Debug, Default)]
struct Plain {
    setups_s: Vec<f64>,
    batch_ms: Vec<f64>,
    batches: u64,
    failed: u64,
    wrong: u64,
    updates: u64,
    group_response_us: Vec<f64>,
}

/// Sets up a server the way a user does: `QueryServer::new` on the start
/// graph, or, durable, `DurableStore::open` recovery + `QueryServer::new`
/// + `attach_durability`. The digest check between them is not timed.
fn setup_server(
    p: &Prepared,
    queries: &[PairQuery],
    wrong: &mut u64,
) -> io::Result<(QueryServer<Ppsp>, Duration)> {
    let cfg = ServeConfig::with_threads(p.threads);
    let Some(durable) = &p.durable else {
        let graph = p.start.clone();
        let clock = Instant::now();
        let server = QueryServer::new(graph, queries, &cfg);
        return Ok((server, clock.elapsed()));
    };
    copy_dir(&durable.pristine, &durable.work)?;
    let clock = Instant::now();
    let (store, recovered) =
        DurableStore::open(persist_config(&durable.work), || DynamicGraph::new(0))?;
    let open = clock.elapsed();
    *wrong += check::digest_mismatch(&recovered.graph, durable.start_digest);
    let clock = Instant::now();
    let mut server = QueryServer::new(recovered.graph, queries, &cfg);
    server.attach_durability(store);
    Ok((server, open + clock.elapsed()))
}

/// One end-to-end pass, timed by the caller around each
/// `QueryServer::process_batch`.
fn plain_pass(p: &Prepared, queries: &[PairQuery], t: &mut Plain) -> io::Result<()> {
    let (mut server, setup) = setup_server(p, queries, &mut t.wrong)?;
    t.setups_s.push(setup.as_secs_f64());
    for batch in p.served {
        let clock = Instant::now();
        let result = server.process_batch(batch);
        let wall = clock.elapsed();
        t.batches += 1;
        let Ok(report) = result else {
            t.failed += 1;
            break;
        };
        t.batch_ms.push(ms(wall));
        t.updates += batch.len() as u64;
        t.group_response_us
            .push(ratio(us(report.work.response_time), report.groups as f64));
    }
    t.wrong += check::cold_start_mismatches(server.graph(), &server.answers());
    drop(server);
    if let Some(durable) = &p.durable {
        t.wrong += verify_reopen(durable)?;
    }
    Ok(())
}

/// Groups queries by source, sorts the sources and deals them round-robin
/// over at most `threads` shards, converging each shard on its own thread:
/// the split `QueryServer::new` makes.
fn build_shards(
    graph: &DynamicGraph,
    queries: &[PairQuery],
    threads: usize,
) -> Vec<MultiQuery<Ppsp>> {
    let mut by_source: BTreeMap<VertexId, Vec<PairQuery>> = BTreeMap::new();
    for &q in queries {
        by_source.entry(q.source()).or_default().push(q);
    }
    let n = threads.max(1).min(by_source.len().max(1));
    let mut shard_queries: Vec<Vec<PairQuery>> = vec![Vec::new(); n];
    for (i, (_, qs)) in by_source.into_iter().enumerate() {
        shard_queries[i % n].extend(qs);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = shard_queries
            .iter()
            .map(|qs| s.spawn(move || MultiQuery::new(graph, qs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard convergence thread panicked"))
            .collect()
    })
}

/// All standing answers sorted by (source, destination), as
/// `QueryServer::answers` merges them.
fn merge_answers(shards: &[MultiQuery<Ppsp>]) -> Vec<(PairQuery, State)> {
    let mut out: Vec<(PairQuery, State)> = shards.iter().flat_map(MultiQuery::answers).collect();
    out.sort_by_key(|(q, _)| (q.source(), q.destination()));
    out
}

/// Per-layer sums over traced passes.
#[derive(Debug, Default)]
struct Layers {
    batches: u64,
    failed: u64,
    wrong: u64,
    batch_ms: Vec<f64>,
    layer_ms: Vec<f64>,
    validate: Duration,
    wal: Duration,
    wal_bytes: u64,
    apply: Duration,
    fanout: Duration,
    shard_busy: Duration,
    skew_sum: f64,
    merge: Duration,
    ckpt: Duration,
    ckpt_max: Duration,
    ckpt_bytes: Vec<f64>,
    recover_s: Vec<f64>,
    replayed: u64,
    converge_ms: Vec<f64>,
    group_response_us: Vec<f64>,
    response: Duration,
    drain: Duration,
    computations: u64,
    dropped: u64,
    activations: u64,
    class: ClassificationSummary,
}

/// A server assembled from the layers `QueryServer` is made of.
struct Replica {
    graph: SharedGraph,
    shards: Vec<MultiQuery<Ppsp>>,
    store: Option<DurableStore>,
}

fn replica_setup(p: &Prepared, queries: &[PairQuery], l: &mut Layers) -> io::Result<Replica> {
    let (graph, store) = match &p.durable {
        None => (p.start.clone(), None),
        Some(durable) => {
            copy_dir(&durable.pristine, &durable.work)?;
            let clock = Instant::now();
            let (store, recovered) =
                DurableStore::open(persist_config(&durable.work), || DynamicGraph::new(0))?;
            l.recover_s.push(clock.elapsed().as_secs_f64());
            l.replayed = recovered.stats.replayed_batches;
            l.wrong += check::digest_mismatch(&recovered.graph, durable.start_digest);
            (recovered.graph, Some(store))
        }
    };
    let mut graph = SharedGraph::new(graph);
    let clock = Instant::now();
    let shards = build_shards(graph.graph(), queries, p.threads);
    l.converge_ms.push(ms(clock.elapsed()));
    if store
        .as_ref()
        .is_some_and(|s| s.mode() == CheckpointMode::Delta)
    {
        graph.graph_mut().enable_dirty_rows();
    }
    Ok(Replica {
        graph,
        shards,
        store,
    })
}

/// One batch through validate → WAL append → apply → per-shard fan-out on
/// scoped threads → answer merge → checkpoint cadence, each call timed.
fn replica_batch(r: &mut Replica, batch: &[EdgeUpdate], l: &mut Layers) -> io::Result<bool> {
    let whole = Instant::now();
    let clock = Instant::now();
    if r.graph.graph().validate_batch(batch).is_err() {
        return Ok(false);
    }
    let validate = clock.elapsed();
    let clock = Instant::now();
    if let Some(store) = &mut r.store {
        store.log_batch(batch)?;
        // Header, the u32 update count, then one record per update.
        l.wal_bytes += (FRAME_HEADER_BYTES + 4 + UPDATE_BYTES * batch.len()) as u64;
    }
    let wal = clock.elapsed();
    let clock = Instant::now();
    if r.graph.apply_batch(batch).is_err() {
        return Ok(false);
    }
    let apply = clock.elapsed();
    let view = r.graph.graph();
    let clock = Instant::now();
    let per_shard: Vec<(Vec<BatchReport>, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = r
            .shards
            .iter_mut()
            .map(|shard| {
                s.spawn(move || {
                    let busy = Instant::now();
                    let reports = shard.process_batch_per_group(view, batch);
                    (reports, busy.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker thread panicked"))
            .collect()
    });
    let fanout = clock.elapsed();
    let clock = Instant::now();
    std::hint::black_box(merge_answers(&r.shards));
    let merge = clock.elapsed();
    let clock = Instant::now();
    if let Some(store) = &mut r.store {
        store.maybe_checkpoint(r.graph.graph_mut())?;
    }
    let ckpt = clock.elapsed();
    l.batch_ms.push(ms(whole.elapsed()));
    l.layer_ms
        .push(ms(validate + wal + apply + fanout + merge + ckpt));
    l.validate += validate;
    l.wal += wal;
    l.apply += apply;
    l.fanout += fanout;
    l.merge += merge;
    l.ckpt += ckpt;
    l.ckpt_max = l.ckpt_max.max(ckpt);
    let busy: Vec<f64> = per_shard.iter().map(|(_, d)| d.as_secs_f64()).collect();
    l.shard_busy += per_shard.iter().map(|(_, d)| *d).sum::<Duration>();
    l.skew_sum += ratio(busy.iter().copied().fold(0.0, f64::max), mean(&busy));
    for report in per_shard.iter().flat_map(|(reports, _)| reports) {
        l.group_response_us.push(us(report.response_time));
        l.response += report.response_time;
        l.drain += report.total_time.saturating_sub(report.response_time);
        l.computations += report.counters.computations;
        l.dropped += report.counters.updates_dropped;
        l.activations += report.counters.activations;
        if let Some(c) = report.classification {
            l.class += c;
        }
    }
    Ok(true)
}

fn traced_pass(p: &Prepared, queries: &[PairQuery], l: &mut Layers) -> io::Result<()> {
    let mut replica = replica_setup(p, queries, l)?;
    for batch in p.served {
        l.batches += 1;
        if !replica_batch(&mut replica, batch, l)? {
            l.failed += 1;
            break;
        }
    }
    l.wrong += check::cold_start_mismatches(replica.graph.graph(), &merge_answers(&replica.shards));
    if let Some(durable) = &p.durable {
        let mut store = replica.store.take().expect("durable replica has a store");
        store.drain_checkpoints()?;
        l.ckpt_bytes.push(checkpoint_bytes(&durable.work)? as f64);
        drop(store);
        l.wrong += verify_reopen(durable)?;
    }
    Ok(())
}

fn per_layer(l: &Layers, plain: &Plain, out: &mut Outcome) {
    let n = l.batches as f64;
    let per_batch = |d: Duration| ratio(ms(d), n);
    let plain_p50 = median(&plain.batch_ms);
    out.set("graph.validate_ms", per_batch(l.validate));
    out.set("graph.apply_ms", per_batch(l.apply));
    if !l.recover_s.is_empty() {
        out.set("persist.wal_append_ms", per_batch(l.wal));
        out.set("persist.wal_bytes", ratio(l.wal_bytes as f64, n));
        out.set("persist.ckpt_ms", per_batch(l.ckpt));
        out.set("persist.ckpt_max_ms", ms(l.ckpt_max));
        out.set("persist.ckpt_bytes", median(&l.ckpt_bytes));
        out.set("persist.recover_s", median(&l.recover_s));
        out.set("persist.replayed_batches", l.replayed as f64);
    }
    out.set("multi.converge_ms", median(&l.converge_ms));
    out.set("multi.shard_busy_ms", per_batch(l.shard_busy));
    out.set("multi.response_ms", per_batch(l.response));
    out.set("multi.drain_ms", per_batch(l.drain));
    out.set(
        "multi.group_response_p99_us",
        quantile(&l.group_response_us, 0.99),
    );
    out.set("multi.computations", ratio(l.computations as f64, n));
    out.set("multi.updates_dropped", ratio(l.dropped as f64, n));
    out.set("multi.activations", ratio(l.activations as f64, n));
    out.set("multi.useless_share", l.class.useless_fraction());
    out.set("serve.fanout_ms", per_batch(l.fanout));
    out.set("serve.shard_skew", ratio(l.skew_sum, n));
    out.set(
        "serve.parallel_speedup",
        ratio(l.shard_busy.as_secs_f64(), l.fanout.as_secs_f64()),
    );
    out.set("serve.merge_ms", per_batch(l.merge));
    out.set(
        "serve.unattributed_share",
        1.0 - ratio(median(&l.layer_ms), plain_p50),
    );
    out.set("trace.overhead", ratio(median(&l.batch_ms), plain_p50));
}

fn end_to_end(t: &Plain, out: &mut Outcome) {
    let n = t.batch_ms.len();
    out.set("batch_p50_ms", median(&t.batch_ms));
    out.set("batch_tail_ms", quantile(&t.batch_ms, tail_q(n)));
    out.set(
        "updates_per_s",
        ratio(t.updates as f64, t.batch_ms.iter().sum::<f64>() / 1e3),
    );
    out.set("response_p50_us", median(&t.group_response_us));
    out.set("setup_s", median(&t.setups_s));
}

/// Runs `serve-mixed` or `ingest-durable`.
///
/// # Errors
///
/// Fails when the durable store's directories cannot be written.
pub fn run(settings: &Settings, bundle: &WorkloadBundle) -> io::Result<Outcome> {
    let p = prepare(settings, bundle)?;
    let mut out = Outcome::default();
    let mut plain = Plain::default();
    let mut result = Ok(());
    let passes = if settings.trace {
        let mut layers = Layers::default();
        // Every pass serves query set 0, so the traced passes repeat the
        // same work and their counts repeat exactly under one seed.
        let queries = p.query_sets[0];
        let passes = repeat_until(settings.seconds, 2, |i| {
            if result.is_ok() {
                result = if i % 2 == 0 {
                    plain_pass(&p, queries, &mut plain)
                } else {
                    traced_pass(&p, queries, &mut layers)
                };
            }
        });
        result?;
        per_layer(&layers, &plain, &mut out);
        out.attempted += layers.batches;
        out.failed += layers.failed;
        out.wrong_answers += layers.wrong;
        out.notes.push(format!(
            "traced batches n={}; group responses n={} (p99)",
            layers.batches,
            layers.group_response_us.len()
        ));
        passes
    } else {
        let passes = repeat_until(settings.seconds, 1, |i| {
            let queries = p.query_sets[i % p.query_sets.len()];
            if result.is_ok() {
                result = plain_pass(&p, queries, &mut plain);
            }
        });
        result?;
        while plain.setups_s.len() < crate::MIN_SETUPS {
            let mut ignored = 0;
            let queries = p.query_sets[plain.setups_s.len() % p.query_sets.len()];
            let (server, setup) = setup_server(&p, queries, &mut ignored)?;
            plain.setups_s.push(setup.as_secs_f64());
            drop(server);
        }
        end_to_end(&plain, &mut out);
        passes
    };
    out.attempted += plain.batches;
    out.failed += plain.failed;
    out.wrong_answers += plain.wrong;
    let n = plain.batch_ms.len();
    out.notes.push(format!(
        "{passes} passes of {} batches x {} queries (query set per pass, {} sets), {} threads; \
         batch samples n={n} (tail q={:.3}); set-ups {}",
        p.served.len(),
        p.query_sets[0].len(),
        p.query_sets.len(),
        p.threads,
        tail_q(n),
        plain.setups_s.len()
    ));
    Ok(out)
}
