//! [`DurableStore`]: the one handle the serving layer and the bench
//! harness hold — open (which recovers), log each batch *before* applying
//! it, checkpoint every N batches (full or delta, inline or on a
//! background worker), prune what the newest chains make redundant.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::mpsc;
use std::thread;

use bytes::BufMut;
use cisgraph_graph::{Csr, DynamicGraph, Snapshot};
use cisgraph_types::EdgeUpdate;

use crate::checkpoint::CkptKind;
use crate::crc::crc32;
use crate::error::PersistError;
use crate::recover::{recover_with, Recovered};
use crate::wal::{FsyncPolicy, Wal, WalConfig, DEFAULT_SEGMENT_BYTES};
use crate::{checkpoint, delta, Result};

/// What kind of checkpoints the automatic cadence writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointMode {
    /// Every checkpoint serializes the whole forward CSR.
    #[default]
    Full,
    /// Checkpoints record only rows changed since the parent (with a full
    /// one every [`PersistConfig::full_every`] to bound chain length).
    /// Requires dirty-row tracking, which [`DurableStore::open`] enables
    /// on the recovered graph automatically.
    Delta,
}

impl FromStr for CheckpointMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "full" => Ok(Self::Full),
            "delta" => Ok(Self::Delta),
            other => Err(format!("unknown checkpoint mode {other:?} (full|delta)")),
        }
    }
}

/// Configuration for a [`DurableStore`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Directory holding segments and checkpoints.
    pub dir: PathBuf,
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
    /// WAL segment rotation threshold.
    pub segment_bytes: u64,
    /// Write a checkpoint automatically every this many logged batches
    /// (`None` = only on explicit [`DurableStore::checkpoint`] calls).
    pub checkpoint_every: Option<u64>,
    /// How many recent checkpoints to retain when pruning (a retained
    /// delta also retains its whole ancestor chain).
    pub keep_checkpoints: usize,
    /// Full or delta checkpoints (see [`CheckpointMode`]).
    pub mode: CheckpointMode,
    /// In [`CheckpointMode::Delta`], every `full_every`-th checkpoint is
    /// written full anyway, bounding recovery chain length. `1` means
    /// every checkpoint is full; values are clamped to at least 1.
    pub full_every: u64,
    /// Serialize + fsync + rename on a background worker thread instead of
    /// the ingest thread. The ingest thread syncs the WAL and captures the
    /// payload before handing off — the forward CSR for a full checkpoint,
    /// just the changed rows for a delta — and completions are drained by
    /// the next [`DurableStore::maybe_checkpoint`] call. At most one checkpoint is
    /// in flight — while one is, the cadence simply re-fires on a later
    /// batch.
    pub background: bool,
}

impl PersistConfig {
    /// Defaults: fsync every batch, 8 MiB segments, no automatic
    /// checkpoints, keep the 2 newest checkpoints, full checkpoints
    /// written inline (a full one every 8 in delta mode).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryBatch,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            checkpoint_every: None,
            keep_checkpoints: 2,
            mode: CheckpointMode::default(),
            full_every: 8,
            background: false,
        }
    }
}

/// What gets written: decided (and fully materialized) on the ingest
/// thread, executed wherever. A full checkpoint carries the forward CSR;
/// a delta carries only the changed rows — so delta submissions never pay
/// the CSR materialization at all.
enum WritePayload {
    Full(Csr),
    Delta {
        parent_seq: u64,
        num_rows: u64,
        rows: Vec<delta::DeltaRow>,
    },
}

/// One checkpoint's worth of work, self-contained so it can cross the
/// channel to the worker.
struct WriteJob {
    next_seq: u64,
    threshold: u64,
    payload: WritePayload,
}

/// The worker's answer.
struct WriteDone {
    next_seq: u64,
    wrote_full: bool,
    result: Result<()>,
}

/// Executes one job: write the file, then prune best-effort. Never fails
/// after the checkpoint itself is durable.
fn run_write_job(dir: &Path, keep: usize, job: WriteJob) -> WriteDone {
    let (wrote_full, result) = match job.payload {
        WritePayload::Full(forward) => {
            let result = checkpoint::write_snapshot(dir, job.next_seq, job.threshold, &forward);
            (true, result.map(|_| ()))
        }
        WritePayload::Delta {
            parent_seq,
            num_rows,
            rows,
        } => {
            let result = delta::write(
                dir,
                job.next_seq,
                parent_seq,
                job.threshold,
                num_rows,
                &rows,
            );
            (false, result.map(|_| ()))
        }
    };
    if result.is_ok() {
        prune_best_effort(dir, keep);
    }
    WriteDone {
        next_seq: job.next_seq,
        wrote_full,
        result,
    }
}

/// The background checkpointer: a long-lived thread plus both channel
/// endpoints the ingest side holds.
struct CheckpointWorker {
    jobs: mpsc::Sender<WriteJob>,
    done: mpsc::Receiver<WriteDone>,
    handle: thread::JoinHandle<()>,
    in_flight: bool,
}

impl CheckpointWorker {
    fn spawn(dir: PathBuf, keep: usize) -> Self {
        let (jobs, job_rx) = mpsc::channel::<WriteJob>();
        let (done_tx, done) = mpsc::channel::<WriteDone>();
        let handle = thread::Builder::new()
            .name("cisgraph-ckpt".to_string())
            .spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    // A send failure means the store is mid-drop; the
                    // checkpoint (if it succeeded) is already durable.
                    let _ = done_tx.send(run_write_job(&dir, keep, job));
                }
            })
            .expect("spawn checkpoint worker");
        Self {
            jobs,
            done,
            handle,
            in_flight: false,
        }
    }
}

/// A recovered, append-ready durability handle.
///
/// The protocol (see the crate docs for a complete example):
///
/// 1. [`DurableStore::open`] recovers and hands back the graph,
/// 2. for each incoming batch: [`DurableStore::log_batch`] **then**
///    `graph.apply_batch`, so no applied update is ever un-logged,
/// 3. after applying: [`DurableStore::maybe_checkpoint`] with the applied
///    graph, which drains finished background checkpoints and starts a
///    new one on the configured cadence.
#[derive(Debug)]
pub struct DurableStore {
    config: PersistConfig,
    wal: Wal,
    batches_since_checkpoint: u64,
    /// Covered position of the newest *completed* checkpoint: the parent
    /// the next delta extends.
    last_ckpt_seq: u64,
    /// Deltas written since the last full checkpoint (drives `full_every`).
    deltas_since_full: u64,
    /// Set after any checkpoint failure or suspicious recovery: the next
    /// checkpoint is written full so the chain self-heals.
    force_full: bool,
    worker: Option<CheckpointWorker>,
    /// First error a background checkpoint reported; surfaced (once) by
    /// the next cadence call.
    pending_error: Option<PersistError>,
}

// The worker's JoinHandle is the only non-Debug field.
impl std::fmt::Debug for CheckpointWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointWorker")
            .field("in_flight", &self.in_flight)
            .finish_non_exhaustive()
    }
}

impl DurableStore {
    /// Recovers `config.dir` (see [`crate::recover()`]) and opens the WAL
    /// for appending at the recovered position. `bootstrap` supplies the
    /// initial graph for a fresh directory; it is checkpointed immediately
    /// so recovery is always checkpoint-anchored from then on.
    ///
    /// In [`CheckpointMode::Delta`] the recovered graph comes back with
    /// dirty-row tracking enabled (rows touched by WAL tail replay
    /// pre-marked), so the first automatic delta is correct across
    /// restarts.
    pub fn open(
        config: PersistConfig,
        bootstrap: impl FnOnce() -> DynamicGraph,
    ) -> Result<(Self, Recovered)> {
        fs::create_dir_all(&config.dir)?;
        let track_dirty = config.mode == CheckpointMode::Delta;
        let mut recovered = recover_with(&config.dir, bootstrap, track_dirty)?;
        let had_checkpoints = !checkpoint::list_all(&config.dir)?.is_empty();
        let (last_ckpt_seq, batches_since_checkpoint) = if had_checkpoints {
            // Recovery replayed `replayed_batches` frames past the chain it
            // started from; the cadence owes them a checkpoint just as if
            // they had been logged in this process.
            (
                recovered.stats.checkpoint_seq,
                recovered.stats.replayed_batches,
            )
        } else {
            checkpoint::write(&config.dir, recovered.next_seq, &recovered.graph)?;
            // The bootstrap checkpoint covers everything the WAL held, so
            // rows dirtied by replay are already durable.
            let _ = recovered.graph.take_dirty_rows();
            (recovered.next_seq, 0)
        };
        let deltas_since_full = chain_depth(&config.dir, last_ckpt_seq);
        let wal = Wal::open(
            WalConfig {
                dir: config.dir.clone(),
                fsync: config.fsync,
                segment_bytes: config.segment_bytes,
            },
            recovered.next_seq,
        )?;
        Ok((
            Self {
                // A recovery that skipped corrupt chains leaves files of
                // unknown health around the head: write the next
                // checkpoint full so the new chain stands alone.
                force_full: recovered.stats.corrupt_checkpoints > 0,
                config,
                wal,
                batches_since_checkpoint,
                last_ckpt_seq,
                deltas_since_full,
                worker: None,
                pending_error: None,
            },
            recovered,
        ))
    }

    /// Logs one batch ahead of application; returns its sequence number.
    /// Durability on return follows the configured [`FsyncPolicy`].
    pub fn log_batch(&mut self, batch: &[EdgeUpdate]) -> Result<u64> {
        let seq = self.wal.append(batch)?;
        self.batches_since_checkpoint += 1;
        Ok(seq)
    }

    /// The sequence number the next logged batch will receive.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// The configured checkpoint kind.
    pub fn mode(&self) -> CheckpointMode {
        self.config.mode
    }

    /// Whether a background checkpoint is currently in flight.
    pub fn checkpoint_in_flight(&self) -> bool {
        self.worker.as_ref().is_some_and(|w| w.in_flight)
    }

    /// Forces everything logged so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Drains finished background checkpoints and, if the configured
    /// cadence says it is time and none is in flight, starts the next one
    /// (inline, or handed to the worker when
    /// [`PersistConfig::background`] is set). `graph` must have every
    /// logged batch applied. Returns whether a checkpoint was started.
    ///
    /// # Errors
    ///
    /// Propagates WAL/serialization failures, and surfaces (once) an error
    /// a previous background checkpoint reported; after either, the next
    /// checkpoint is forced full so the chain self-heals.
    pub fn maybe_checkpoint(&mut self, graph: &mut DynamicGraph) -> Result<bool> {
        self.drain_completions(false)?;
        match self.config.checkpoint_every {
            Some(every) if self.batches_since_checkpoint >= every => {
                if self.checkpoint_in_flight() {
                    // At most one in flight: the cadence re-fires on the
                    // next batch, when the worker may have finished.
                    return Ok(false);
                }
                self.start_checkpoint(graph)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Checkpoints `graph` as covering everything logged so far and waits
    /// for it to complete — including any background checkpoint already in
    /// flight. `graph` must have every logged batch applied.
    pub fn checkpoint(&mut self, graph: &mut DynamicGraph) -> Result<()> {
        self.drain_completions(true)?;
        if self.wal.next_seq() == self.last_ckpt_seq {
            // Nothing new to cover (and a delta would name itself as its
            // own parent).
            self.batches_since_checkpoint = 0;
            return Ok(());
        }
        let was_background = self.config.background;
        self.config.background = false;
        let result = self.start_checkpoint(graph);
        self.config.background = was_background;
        result
    }

    /// Blocks until no background checkpoint is in flight, surfacing any
    /// error it reported.
    pub fn drain_checkpoints(&mut self) -> Result<()> {
        self.drain_completions(true)
    }

    /// Starts one checkpoint covering `wal.next_seq()`. The payload
    /// capture and the WAL sync happen on the calling (ingest) thread —
    /// the sync *before* submission, so the WAL provably contains every
    /// frame the checkpoint claims to cover before the checkpoint can
    /// become visible. Serialization, file fsync, rename, and pruning run
    /// inline or on the worker depending on `config.background`.
    fn start_checkpoint(&mut self, graph: &mut DynamicGraph) -> Result<()> {
        let next_seq = self.wal.next_seq();
        if next_seq == self.last_ckpt_seq {
            self.batches_since_checkpoint = 0;
            return Ok(());
        }
        self.wal.sync()?;
        let payload = self.build_payload(graph);
        let job = WriteJob {
            next_seq,
            threshold: graph.promotion_threshold() as u64,
            payload,
        };
        self.batches_since_checkpoint = 0;
        if self.config.background {
            let keep = self.config.keep_checkpoints;
            let dir = self.config.dir.clone();
            let worker = self
                .worker
                .get_or_insert_with(|| CheckpointWorker::spawn(dir, keep));
            worker
                .jobs
                .send(job)
                .expect("checkpoint worker exited while the store is alive");
            worker.in_flight = true;
            Ok(())
        } else {
            let done = run_write_job(&self.config.dir, self.config.keep_checkpoints, job);
            self.finish(done)
        }
    }

    /// Picks full vs. delta and captures the payload, all against the
    /// *live* graph — a delta submission copies only the changed rows and
    /// never materializes a CSR (that cost is what background checkpointing
    /// exists to keep off the ingest path). Full whenever
    /// the mode says so, the chain must be re-anchored (`force_full`,
    /// missing tracking, `full_every`), or the delta would not actually be
    /// smaller than the full serialization.
    fn build_payload(&mut self, graph: &mut DynamicGraph) -> WritePayload {
        use cisgraph_graph::GraphView;

        let full = |graph: &DynamicGraph| WritePayload::Full(graph.forward_csr());
        if self.config.mode == CheckpointMode::Full {
            return full(graph);
        }
        let must_full =
            self.force_full || self.deltas_since_full + 1 >= self.config.full_every.max(1);
        match graph.take_dirty_rows() {
            None => {
                // Tracking was never on (a graph the caller built
                // without `open`): enable it so the *next* cadence can go
                // incremental, and anchor with a full now.
                graph.enable_dirty_rows();
                full(graph)
            }
            Some(_) if must_full => full(graph),
            Some(rows) => {
                // Bytes-written comparison: per changed row 12 bytes of
                // framing plus 12 per edge, vs. the full file's offset
                // array plus every edge.
                let delta_payload: usize = rows
                    .iter()
                    .filter(|&&r| (r as usize) < graph.num_vertices())
                    .map(|&r| 12 + 12 * graph.out_edges(cisgraph_types::VertexId::new(r)).len())
                    .sum();
                let full_payload = 8 * (graph.num_vertices() + 1) + 12 * graph.num_edges();
                if delta_payload >= full_payload {
                    full(graph)
                } else {
                    WritePayload::Delta {
                        parent_seq: self.last_ckpt_seq,
                        num_rows: graph.num_vertices() as u64,
                        rows: delta::rows_from_graph(graph, &rows),
                    }
                }
            }
        }
    }

    /// Applies one finished checkpoint's outcome to the store's chain
    /// state.
    fn finish(&mut self, done: WriteDone) -> Result<()> {
        match done.result {
            Ok(()) => {
                self.last_ckpt_seq = done.next_seq;
                if done.wrote_full {
                    self.deltas_since_full = 0;
                    self.force_full = false;
                } else {
                    self.deltas_since_full += 1;
                }
                Ok(())
            }
            Err(e) => {
                // The write never became visible (temp + rename), so the
                // old chain still stands; re-anchor with a full next time.
                self.force_full = true;
                Err(e)
            }
        }
    }

    /// Collects worker completions — all that are ready, or (blocking)
    /// until nothing is in flight. The first error encountered (now or
    /// recorded earlier) is returned after the drain.
    fn drain_completions(&mut self, blocking: bool) -> Result<()> {
        loop {
            let done = match &mut self.worker {
                Some(worker) if worker.in_flight => {
                    let received = if blocking {
                        worker.done.recv().ok()
                    } else {
                        worker.done.try_recv().ok()
                    };
                    match received {
                        Some(done) => {
                            worker.in_flight = false;
                            done
                        }
                        // Not finished yet (non-blocking), or the worker
                        // died — a panic surfaces at join time in Drop.
                        None => break,
                    }
                }
                _ => break,
            };
            if let Err(e) = self.finish(done) {
                self.pending_error.get_or_insert(e);
            }
        }
        match self.pending_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            // Closing the job channel ends the worker's loop; join so the
            // in-flight checkpoint (if any) finishes before the process
            // can exit under us.
            let CheckpointWorker {
                jobs,
                done,
                handle,
                in_flight,
            } = worker;
            drop(jobs);
            if in_flight {
                if let Ok(d) = done.recv() {
                    if let Err(e) = d.result {
                        cisgraph_obs::log!(
                            error,
                            "background checkpoint failed during shutdown: {e}"
                        );
                    }
                }
            }
            if handle.join().is_err() {
                cisgraph_obs::log!(error, "checkpoint worker panicked");
            }
        }
        if let Some(e) = self.pending_error.take() {
            cisgraph_obs::log!(error, "background checkpoint error never surfaced: {e}");
        }
    }
}

/// How many deltas head the chain at `head_seq` (0 when the head is full
/// or anything in the walk is unreadable — the store then re-anchors with
/// a full at the first opportunity via `full_every` accounting).
fn chain_depth(dir: &Path, head_seq: u64) -> u64 {
    let Ok(entries) = checkpoint::list_all(dir) else {
        return 0;
    };
    let mut depth = 0u64;
    let mut cur = entries
        .iter()
        .rev()
        .find(|e| e.next_seq == head_seq)
        .cloned();
    // Bounded by the entry count: headers are unvalidated here, so a
    // crafted parent cycle must not hang the walk.
    for _ in 0..entries.len() {
        let Some(entry) = cur else { break };
        if entry.kind == CkptKind::Full {
            break;
        }
        let Ok((_, parent_seq)) = delta::read_header(&entry.path) else {
            break;
        };
        depth += 1;
        cur = entries
            .iter()
            .rev()
            .find(|e| e.next_seq == parent_seq && e.path != entry.path)
            .cloned();
    }
    depth
}

/// Deletes checkpoints outside the newest `keep` chains and WAL segments
/// below every retained chain's replay window. **Best-effort by design**:
/// the checkpoint that triggered the prune is already durable, so a prune
/// hiccup (a racing cleaner, a read-only directory) must never turn into a
/// checkpoint error — failures are logged via [`cisgraph_obs::log!`] and
/// skipped. A file that vanished concurrently (ENOENT) is not even worth
/// logging.
fn prune_best_effort(dir: &Path, keep: usize) {
    let keep = keep.max(1);
    let entries = match checkpoint::list_all(dir) {
        Ok(entries) => entries,
        Err(e) => {
            cisgraph_obs::log!(warn, "prune: cannot list {}: {e}", dir.display());
            return;
        }
    };
    if entries.is_empty() {
        return;
    }

    // Ancestry closure of the newest `keep` heads: a retained delta keeps
    // its parent alive, transitively. An unreadable link ends that walk —
    // the chain is already broken, keeping more of it helps nobody.
    let mut needed: HashSet<PathBuf> = HashSet::new();
    let heads = entries.len().saturating_sub(keep);
    for head in &entries[heads..] {
        let mut cur = Some(head.clone());
        while let Some(entry) = cur {
            if !needed.insert(entry.path.clone()) {
                break; // ancestry shared with an already-walked head
            }
            if entry.kind == CkptKind::Full {
                break;
            }
            let Ok((_, parent_seq)) = delta::read_header(&entry.path) else {
                break;
            };
            cur = entries
                .iter()
                .rev()
                .find(|e| e.next_seq == parent_seq && e.path != entry.path)
                .cloned();
        }
    }
    for entry in &entries {
        if !needed.contains(&entry.path) {
            remove_file_best_effort(&entry.path);
        }
    }

    // A segment is prunable only when *every* retained entry's replay
    // window starts at or after the next segment — a fallback head must
    // still find its tail.
    let min_needed_seq = entries
        .iter()
        .filter(|e| needed.contains(&e.path))
        .map(|e| e.next_seq)
        .min()
        .unwrap_or(0);
    let segments = match crate::wal::list_segments(dir) {
        Ok(segments) => segments,
        Err(e) => {
            cisgraph_obs::log!(
                warn,
                "prune: cannot list segments in {}: {e}",
                dir.display()
            );
            return;
        }
    };
    for pair in segments.windows(2) {
        let (_, ref path) = pair[0];
        let (next_first, _) = pair[1];
        if next_first <= min_needed_seq {
            remove_file_best_effort(path);
        }
    }
}

/// `fs::remove_file` that treats ENOENT as success and logs (but does not
/// propagate) anything else.
fn remove_file_best_effort(path: &Path) {
    if let Err(e) = fs::remove_file(path) {
        if e.kind() != std::io::ErrorKind::NotFound {
            cisgraph_obs::log!(warn, "prune: cannot remove {}: {e}", path.display());
        }
    }
}

/// A CRC32 digest of a materialized snapshot's complete byte content
/// (forward and reverse CSR, offsets and edges). Two snapshots digest
/// equal iff they are byte-identical — the equality the crash-recovery CI
/// smoke asserts across process boundaries.
pub fn snapshot_digest(snapshot: &Snapshot) -> u32 {
    let mut buf = bytes::BytesMut::new();
    for csr in [snapshot.forward(), snapshot.reverse()] {
        buf.put_u64_le(csr.num_vertices() as u64);
        for &offset in csr.offsets() {
            buf.put_u64_le(offset);
        }
        for e in csr.edges() {
            buf.put_u32_le(e.to().raw());
            buf.put_f64_le(e.weight().get());
        }
    }
    crc32(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_types::{VertexId, Weight};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cisgraph_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn upd(i: u32) -> EdgeUpdate {
        EdgeUpdate::insert(
            VertexId::new(i % 16),
            VertexId::new((i * 7 + 1) % 16),
            Weight::new(f64::from(i % 3 + 1)).unwrap(),
        )
    }

    fn bootstrap() -> DynamicGraph {
        DynamicGraph::with_promotion_threshold(16, 4)
    }

    fn count_files(dir: &Path, suffix: &str) -> usize {
        fs::read_dir(dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.ends_with(suffix))
            })
            .count()
    }

    #[test]
    fn open_log_reopen_replays() {
        let dir = tmpdir("basic");
        let cfg = PersistConfig::new(&dir);
        let (mut store, recovered) = DurableStore::open(cfg.clone(), bootstrap).unwrap();
        let mut graph = recovered.graph;
        for b in 0..6u32 {
            let batch: Vec<_> = (0..4).map(|i| upd(b * 4 + i)).collect();
            store.log_batch(&batch).unwrap();
            graph.apply_batch(&batch).unwrap();
        }
        drop(store);
        let (_store2, recovered2) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(recovered2.stats.replayed_batches, 6);
        assert_eq!(recovered2.graph.snapshot(), graph.snapshot());
        assert_eq!(
            snapshot_digest(&recovered2.graph.snapshot()),
            snapshot_digest(&graph.snapshot())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_cadence_and_pruning() {
        let dir = tmpdir("cadence");
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(2);
        cfg.segment_bytes = 256; // rotate often so pruning has prey
        cfg.fsync = FsyncPolicy::Never;
        let (mut store, recovered) = DurableStore::open(cfg.clone(), bootstrap).unwrap();
        let mut graph = recovered.graph;
        let mut wrote = 0;
        for b in 0..10u32 {
            let batch: Vec<_> = (0..4).map(|i| upd(b * 4 + i)).collect();
            store.log_batch(&batch).unwrap();
            graph.apply_batch(&batch).unwrap();
            if store.maybe_checkpoint(&mut graph).unwrap() {
                wrote += 1;
            }
        }
        assert_eq!(wrote, 5);
        // Pruning keeps at most keep_checkpoints files.
        assert!(count_files(&dir, ".ckpt") <= cfg.keep_checkpoints);
        drop(store);
        let (_s, recovered2) = DurableStore::open(cfg, bootstrap).unwrap();
        // The last checkpoint covered everything: nothing to replay.
        assert_eq!(recovered2.stats.replayed_batches, 0);
        assert_eq!(recovered2.graph.snapshot(), graph.snapshot());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_seeds_cadence_from_replayed_tail() {
        // Regression: `open` used to reset batches_since_checkpoint to 0
        // even when recovery replayed a WAL tail, letting the cadence
        // drift by up to checkpoint_every - 1 batches per restart.
        let dir = tmpdir("reseed");
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(3);
        cfg.fsync = FsyncPolicy::Never;
        let (mut store, recovered) = DurableStore::open(cfg.clone(), bootstrap).unwrap();
        let mut graph = recovered.graph;
        // Two batches: below the cadence, so no checkpoint yet.
        for b in 0..2u32 {
            let batch: Vec<_> = (0..4).map(|i| upd(b * 4 + i)).collect();
            store.log_batch(&batch).unwrap();
            graph.apply_batch(&batch).unwrap();
            assert!(!store.maybe_checkpoint(&mut graph).unwrap());
        }
        drop(store);

        let (mut store, recovered) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(recovered.stats.replayed_batches, 2);
        let mut graph = recovered.graph;
        // One more batch is the third since the last checkpoint: the
        // cadence must fire now, not two batches later.
        let batch: Vec<_> = (0..4).map(|i| upd(8 + i)).collect();
        store.log_batch(&batch).unwrap();
        graph.apply_batch(&batch).unwrap();
        assert!(
            store.maybe_checkpoint(&mut graph).unwrap(),
            "cadence must count the replayed tail"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_mode_writes_deltas_and_recovers_identically() {
        let dir = tmpdir("delta_mode");
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(2);
        cfg.fsync = FsyncPolicy::Never;
        cfg.mode = CheckpointMode::Delta;
        cfg.full_every = 100; // keep the chain all-delta after the anchor
        cfg.keep_checkpoints = 100; // retain everything: inspect the chain
        let (mut store, recovered) = DurableStore::open(cfg.clone(), bootstrap).unwrap();
        let mut graph = recovered.graph;
        assert!(graph.dirty_rows_enabled(), "delta mode enables tracking");
        for b in 0..8u32 {
            // Touch a single source vertex per batch: deltas stay small.
            let batch: Vec<_> = (0..4).map(|i| upd(b * 4 + i)).collect();
            store.log_batch(&batch).unwrap();
            graph.apply_batch(&batch).unwrap();
            store.maybe_checkpoint(&mut graph).unwrap();
        }
        assert!(
            count_files(&dir, ".dckpt") >= 2,
            "expected delta checkpoints on disk"
        );
        drop(store);
        let (_s, recovered2) = DurableStore::open(cfg, bootstrap).unwrap();
        assert!(recovered2.stats.delta_checkpoints > 0);
        assert_eq!(
            snapshot_digest(&recovered2.graph.snapshot()),
            snapshot_digest(&graph.snapshot()),
            "delta-chain recovery must be byte-identical"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn full_every_bounds_the_chain() {
        let dir = tmpdir("full_every");
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(1);
        cfg.fsync = FsyncPolicy::Never;
        cfg.mode = CheckpointMode::Delta;
        cfg.full_every = 3;
        cfg.keep_checkpoints = 100;
        let (mut store, recovered) = DurableStore::open(cfg.clone(), bootstrap).unwrap();
        let mut graph = recovered.graph;
        for b in 0..9u32 {
            let batch: Vec<_> = (0..2).map(|i| upd(b * 2 + i)).collect();
            store.log_batch(&batch).unwrap();
            graph.apply_batch(&batch).unwrap();
            assert!(store.maybe_checkpoint(&mut graph).unwrap());
        }
        drop(store);
        // 9 cadence checkpoints + the bootstrap full: with full_every=3
        // every third cadence write is full (positions 3, 6, 9).
        let fulls = count_files(&dir, ".ckpt");
        let deltas = count_files(&dir, ".dckpt");
        assert_eq!(fulls + deltas, 10);
        assert_eq!(fulls, 4, "bootstrap + every third cadence checkpoint");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn background_checkpointing_completes_and_recovers() {
        let dir = tmpdir("background");
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(2);
        cfg.fsync = FsyncPolicy::Never;
        cfg.mode = CheckpointMode::Delta;
        cfg.background = true;
        let (mut store, recovered) = DurableStore::open(cfg.clone(), bootstrap).unwrap();
        let mut graph = recovered.graph;
        let mut started = 0;
        for b in 0..12u32 {
            let batch: Vec<_> = (0..4).map(|i| upd(b * 4 + i)).collect();
            store.log_batch(&batch).unwrap();
            graph.apply_batch(&batch).unwrap();
            if store.maybe_checkpoint(&mut graph).unwrap() {
                started += 1;
            }
        }
        assert!(started >= 1, "at least one background checkpoint started");
        store.drain_checkpoints().unwrap();
        assert!(!store.checkpoint_in_flight());
        // An explicit checkpoint drains and then covers the remainder.
        store.checkpoint(&mut graph).unwrap();
        drop(store);
        let (_s, recovered2) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(recovered2.stats.replayed_batches, 0);
        assert_eq!(
            snapshot_digest(&recovered2.graph.snapshot()),
            snapshot_digest(&graph.snapshot())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_failure_never_fails_a_completed_checkpoint() {
        // A directory wearing a checkpoint's name cannot be removed by
        // fs::remove_file; old pruning aborted the checkpoint over it.
        let dir = tmpdir("prunefail");
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(1);
        cfg.fsync = FsyncPolicy::Never;
        cfg.keep_checkpoints = 1;
        let (mut store, recovered) = DurableStore::open(cfg.clone(), bootstrap).unwrap();
        let mut graph = recovered.graph;
        // Plant an un-removable "checkpoint": a directory wearing a
        // *delta* name, so the store (full mode) never tries to rename a
        // real checkpoint over it, but the pruner does target it.
        let blocker = dir.join("ckpt-0000000000000001.dckpt");
        fs::create_dir(&blocker).unwrap();
        for b in 0..3u32 {
            let batch: Vec<_> = (0..4).map(|i| upd(b * 4 + i)).collect();
            store.log_batch(&batch).unwrap();
            graph.apply_batch(&batch).unwrap();
            assert!(
                store.maybe_checkpoint(&mut graph).unwrap(),
                "checkpoint must succeed despite the un-prunable entry"
            );
        }
        assert!(blocker.is_dir(), "the blocker could not have been removed");
        drop(store);
        // Recovery still lands on the newest good checkpoint.
        let (_s, recovered2) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(
            snapshot_digest(&recovered2.graph.snapshot()),
            snapshot_digest(&graph.snapshot())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_file_best_effort_skips_missing_files() {
        let dir = tmpdir("enoent");
        fs::create_dir_all(&dir).unwrap();
        // Must not panic or log an error for a file that vanished.
        remove_file_best_effort(&dir.join("ckpt-00000000000000ff.ckpt"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_parents_of_retained_deltas() {
        let dir = tmpdir("chain_prune");
        let mut cfg = PersistConfig::new(&dir);
        cfg.checkpoint_every = Some(1);
        cfg.fsync = FsyncPolicy::Never;
        cfg.mode = CheckpointMode::Delta;
        cfg.full_every = 100;
        cfg.keep_checkpoints = 2; // retain two heads; their full base must survive
        let (mut store, recovered) = DurableStore::open(cfg.clone(), bootstrap).unwrap();
        let mut graph = recovered.graph;
        for b in 0..6u32 {
            let batch: Vec<_> = (0..2).map(|i| upd(b * 2 + i)).collect();
            store.log_batch(&batch).unwrap();
            graph.apply_batch(&batch).unwrap();
            assert!(store.maybe_checkpoint(&mut graph).unwrap());
        }
        drop(store);
        // The two newest heads are deltas; both chain down to the
        // bootstrap full, which pruning therefore must have kept.
        assert!(count_files(&dir, ".ckpt") >= 1, "full base survives");
        let (_s, recovered2) = DurableStore::open(cfg, bootstrap).unwrap();
        assert_eq!(
            snapshot_digest(&recovered2.graph.snapshot()),
            snapshot_digest(&graph.snapshot())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_mode_parses() {
        assert_eq!("full".parse::<CheckpointMode>(), Ok(CheckpointMode::Full));
        assert_eq!("delta".parse::<CheckpointMode>(), Ok(CheckpointMode::Delta));
        assert!("incremental".parse::<CheckpointMode>().is_err());
    }

    #[test]
    fn digest_distinguishes_different_graphs() {
        let mut a = bootstrap();
        let mut b = bootstrap();
        a.apply_batch(&[upd(1)]).unwrap();
        b.apply_batch(&[upd(2)]).unwrap();
        assert_eq!(
            snapshot_digest(&a.snapshot()),
            snapshot_digest(&a.snapshot())
        );
        assert_ne!(
            snapshot_digest(&a.snapshot()),
            snapshot_digest(&b.snapshot())
        );
        assert_ne!(
            snapshot_digest(&bootstrap().snapshot()),
            snapshot_digest(&a.snapshot())
        );
    }
}
