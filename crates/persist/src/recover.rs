//! Crash recovery: latest readable checkpoint + WAL tail replay.
//!
//! The invariant recovery restores is *prefix durability*: the recovered
//! graph equals the uninterrupted run's graph after some prefix of the
//! acknowledged batch stream — exactly the prefix that reached stable
//! storage. Concretely:
//!
//! 1. checkpoint **chains** are tried newest-first: a base checkpoint is a
//!    chain of length one, a delta heads the chain `base -> ... -> this
//!    delta` (each delta listing only the rows that changed, see
//!    [`crate::checkpoint`]); a head whose chain has any corrupt or missing
//!    link is skipped entirely (falling back to an older head),
//! 2. segments are scanned in sequence order, except that a segment whose
//!    successor starts at or below the chosen chain's position holds only
//!    covered frames and is not read at all; covered frames in the
//!    segments that are read are skipped,
//! 3. the first torn or corrupt frame ends the log: the damaged segment is
//!    **truncated in place** at the last good frame boundary and any later
//!    segments are deleted, as is any segment named past the recovered
//!    position (an emptied one: pruning trusts segment names),
//! 4. every surviving frame is replayed with
//!    [`DynamicGraph::apply_batch`], which is atomic: a logged batch the
//!    graph rejected in the original run (possible only for a writer that
//!    logs before applying) is rejected whole here too, so replay is
//!    deterministic.
//!
//! With the metrics sink on, the whole call is timed as
//! `persist.recover.replay_ns` and its three phases as `chain_ns` (list,
//! read, validate and overlay the checkpoints), `build_ns` (build the
//! graph from the overlaid rows, or call `bootstrap`) and `tail_ns` (scan
//! and replay the WAL, cut its damaged tail).

use std::fs::{self, OpenOptions};
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use cisgraph_graph::{DynamicGraph, Edge};
use cisgraph_obs::Histogram;

use crate::checkpoint::{self, CheckpointEntry};
use crate::error::PersistError;
use crate::frame::{FrameDecode, WalFrame};
use crate::wal::list_segments;
use crate::Result;

/// What recovery did, for logs, tests, and the `persist.recover.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// The WAL position covered by the checkpoint chain recovery started
    /// from (0 when no checkpoint existed and the bootstrap graph was
    /// used).
    pub checkpoint_seq: u64,
    /// Chain heads that failed validation — a corrupt file or a chain with
    /// a missing/corrupt link — and were skipped.
    pub corrupt_checkpoints: u64,
    /// Delta checkpoints overlaid onto the base (0 when recovery started
    /// from a base checkpoint or the bootstrap graph).
    pub delta_checkpoints: u64,
    /// Row bytes of those deltas (8 per row plus 12 per edge): what the
    /// store's chain byte bound counts against a base's row bytes.
    pub delta_row_bytes: u64,
    /// Frames that were read but already covered by the checkpoint, and
    /// therefore skipped. Segments holding only covered frames are not
    /// read, so their frames are not counted.
    pub skipped_frames: u64,
    /// Batches replayed onto the checkpoint.
    pub replayed_batches: u64,
    /// Updates inside those batches.
    pub replayed_updates: u64,
    /// Bytes discarded when truncating the damaged tail (including whole
    /// segments deleted past the damage point).
    pub truncated_bytes: u64,
}

/// The result of [`recover`]: a graph ready to serve, the next WAL
/// sequence number, and what it took to get there.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered graph.
    pub graph: DynamicGraph,
    /// The sequence number the next logged batch must carry; pass it to
    /// [`Wal::open`](crate::Wal::open).
    pub next_seq: u64,
    /// Recovery accounting.
    pub stats: RecoveryStats,
}

/// Recovers the graph persisted in `dir`.
///
/// `bootstrap` supplies the initial graph when no checkpoint exists (a
/// fresh directory, or one holding only WAL segments) — it must be the
/// same initial state the original process started from, or replay
/// diverges.
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] only when checkpoints exist but
/// *every one* fails validation — replaying the full WAL from `bootstrap`
/// would silently diverge if earlier segments were pruned, so recovery
/// refuses to guess. Tail damage in the WAL itself is not an error; it is
/// truncated (see [`RecoveryStats::truncated_bytes`]).
pub fn recover(dir: &Path, bootstrap: impl FnOnce() -> DynamicGraph) -> Result<Recovered> {
    recover_with(dir, bootstrap, false)
}

/// [`recover`], optionally enabling
/// [`DynamicGraph::enable_dirty_rows`] on the loaded (or bootstrap) graph
/// **before** the WAL tail is replayed. Delta-mode stores need this: rows
/// the tail mutates are exactly the rows the first post-restart delta
/// checkpoint must carry.
pub fn recover_with(
    dir: &Path,
    bootstrap: impl FnOnce() -> DynamicGraph,
    track_dirty: bool,
) -> Result<Recovered> {
    let start = cisgraph_obs::enabled().then(Instant::now);
    let mut phases = start.map(Phases::new);
    fs::create_dir_all(dir)?;
    let mut stats = RecoveryStats::default();

    // Newest readable checkpoint chain, falling back a whole head at a
    // time: a delta whose ancestry is damaged anywhere is useless, but an
    // older head (often the full base itself) may still be intact.
    let entries = checkpoint::list_all(dir)?;
    let mut loaded = None;
    for head in entries.iter().rev() {
        match load_chain(&entries, head) {
            Ok(chain) => {
                loaded = Some((head.next_seq, chain));
                break;
            }
            Err(PersistError::Corrupt { .. }) => stats.corrupt_checkpoints += 1,
            Err(e) => return Err(e),
        }
    }
    if loaded.is_none() && !entries.is_empty() {
        let newest = &entries.last().expect("nonempty").path;
        return Err(PersistError::corrupt(
            newest.clone(),
            0,
            format!(
                "all {} checkpoints failed validation; refusing to replay from scratch",
                entries.len()
            ),
        ));
    }
    if let Some(phases) = &mut phases {
        phases.lap(phases.chain_ns);
    }

    let (mut replay_pos, mut graph) = match loaded {
        Some((seq, chain)) => {
            stats.delta_checkpoints = chain.deltas;
            stats.delta_row_bytes = chain.delta_row_bytes;
            (seq, chain.build())
        }
        None => (0, bootstrap()),
    };
    stats.checkpoint_seq = replay_pos;
    if track_dirty {
        graph.enable_dirty_rows();
    }
    if let Some(phases) = &mut phases {
        phases.lap(phases.build_ns);
    }

    // Replay segments in order, stopping at the first damage. A segment
    // whose successor starts at or below the checkpoint holds only frames
    // the checkpoint covers: it is not read, so damage inside it can
    // neither cost time nor cut the segments after it.
    let covered = replay_pos;
    let segments = list_segments(dir)?;
    let mut stop_at = None; // (segment index, in-file offset) of the damage
    'segments: for (idx, (first_seq, path)) in segments.iter().enumerate() {
        if segments
            .get(idx + 1)
            .is_some_and(|&(next_first, _)| next_first <= covered)
        {
            continue;
        }
        let bytes = fs::read(path)?;
        let mut offset = 0usize;
        let mut expect_seq = *first_seq;
        loop {
            match WalFrame::decode(&bytes[offset..]) {
                FrameDecode::Eof => break,
                FrameDecode::Frame { frame, consumed } if frame.seq == expect_seq => {
                    expect_seq += 1;
                    offset += consumed;
                    if frame.seq < replay_pos {
                        stats.skipped_frames += 1;
                        continue;
                    }
                    if frame.seq > replay_pos {
                        // Frames between the checkpoint and this segment
                        // are missing: stop before the gap.
                        stop_at = Some((idx, offset - consumed));
                        break 'segments;
                    }
                    stats.replayed_batches += 1;
                    stats.replayed_updates += frame.updates.len() as u64;
                    // apply_batch is atomic, so a frame the original run
                    // rejected is rejected whole here too; such errors are
                    // expected, not corruption.
                    let _ = graph.apply_batch(&frame.updates);
                    replay_pos += 1;
                }
                FrameDecode::Frame { .. }
                | FrameDecode::Torn { .. }
                | FrameDecode::Corrupt { .. } => {
                    // Out-of-order seq, torn tail, or bit rot: the log ends
                    // here.
                    stop_at = Some((idx, offset));
                    break 'segments;
                }
            }
        }
    }

    // Truncate the damaged segment in place, so the next append continues
    // from a clean boundary.
    let mut drop_from = segments.len();
    if let Some((idx, keep)) = stop_at {
        let (_, path) = &segments[idx];
        let len = fs::metadata(path)?.len();
        stats.truncated_bytes += len - keep as u64;
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.sync_data()?;
        drop_from = idx + 1;
    }
    // Drop every segment after the damage, and every one named past the
    // recovered position (an emptied one, or one past a gap): the writer
    // resumes in `wal-{next_seq}`, and pruning trusts segment names, so a
    // later name would claim frames that sit in an earlier segment.
    for (idx, (first_seq, path)) in segments.iter().enumerate() {
        if idx >= drop_from || *first_seq > replay_pos {
            stats.truncated_bytes += fs::metadata(path)?.len();
            fs::remove_file(path)?;
        }
    }

    if let (Some(start), Some(mut phases)) = (start, phases) {
        let end = phases.lap(phases.tail_ns);
        cisgraph_obs::histogram("persist.recover.replay_ns").record_duration(end - start);
        cisgraph_obs::counter("persist.recover.replayed_batches").add(stats.replayed_batches);
        cisgraph_obs::counter("persist.recover.replayed_updates").add(stats.replayed_updates);
        cisgraph_obs::counter("persist.recover.truncated_bytes").add(stats.truncated_bytes);
    }
    Ok(Recovered {
        graph,
        next_seq: replay_pos,
        stats,
    })
}

/// The clock behind recovery's phase histograms: each [`Phases::lap`]
/// charges the time since the previous lap to one phase, so the phases
/// split the whole call between them and sum to `replay_ns`.
struct Phases {
    last: Instant,
    chain_ns: &'static Histogram,
    build_ns: &'static Histogram,
    tail_ns: &'static Histogram,
}

impl Phases {
    fn new(start: Instant) -> Self {
        Self {
            last: start,
            chain_ns: cisgraph_obs::histogram("persist.recover.chain_ns"),
            build_ns: cisgraph_obs::histogram("persist.recover.build_ns"),
            tail_ns: cisgraph_obs::histogram("persist.recover.tail_ns"),
        }
    }

    /// Charges the time since the last lap to `phase`; returns the lap's
    /// end.
    fn lap(&mut self, phase: &Histogram) -> Instant {
        let now = Instant::now();
        phase.record_duration(now - self.last);
        self.last = now;
        now
    }
}

/// A validated checkpoint chain, overlaid into one row table but not yet
/// built into a graph.
struct Chain {
    /// Each row's edges as a range of `edges`; `None` for a row no link
    /// lists (empty).
    rows: Vec<Option<Range<usize>>>,
    edges: Vec<Edge>,
    threshold: u64,
    /// Deltas overlaid onto the base, and their row bytes.
    deltas: u64,
    delta_row_bytes: u64,
}

impl Chain {
    fn build(self) -> DynamicGraph {
        let Self {
            rows,
            edges,
            threshold,
            ..
        } = self;
        let rows = rows.into_iter().map(|r| r.map_or(&[][..], |r| &edges[r]));
        DynamicGraph::from_rows(rows, usize::try_from(threshold).unwrap_or(usize::MAX))
    }
}

/// Loads the checkpoint chain headed by `head`: follows parent links down
/// to a base and overlays the files' rows into one per-row table (the
/// newest file listing a row wins; a row no file lists stays empty). A
/// base alone is a chain of length one.
///
/// Any corrupt or missing link makes the whole chain unusable — the error
/// propagates and the caller falls back to an older head.
fn load_chain(entries: &[CheckpointEntry], head: &CheckpointEntry) -> Result<Chain> {
    let mut links = vec![head];
    while let Some(parent) = checkpoint::parent_of(entries, links[links.len() - 1])? {
        links.push(parent);
    }
    // Newest first: each row is copied once, from the newest file that
    // lists it, and each file is dropped before the next one is read, so
    // recovery never holds the whole chain in memory.
    let mut files = links.iter().map(|entry| checkpoint::read(&entry.path));
    let newest = files.next().expect("a chain has a head")?;
    let (num_rows, threshold) = (newest.header.num_rows, newest.header.threshold);
    let mut chain = Chain {
        rows: vec![None; num_rows as usize],
        edges: Vec::new(),
        threshold,
        deltas: links.len() as u64 - 1,
        delta_row_bytes: 0,
    };
    for file in std::iter::once(Ok(newest)).chain(files) {
        let file = file?;
        // A graph never loses vertices, so no link can be wider than the head.
        if file.header.num_rows > num_rows {
            return Err(PersistError::corrupt(
                &head.path,
                0,
                format!(
                    "a link lists {} rows, more than the head's {num_rows}",
                    file.header.num_rows
                ),
            ));
        }
        if file.header.parent.is_some() {
            chain.delta_row_bytes += file.rows.encoded_len() as u64;
        }
        for (row, row_edges) in file.rows.iter() {
            let slot = &mut chain.rows[row as usize];
            if slot.is_none() {
                let at = chain.edges.len();
                *slot = Some(at..at + row_edges.len());
                chain.edges.extend_from_slice(row_edges);
            }
        }
    }
    Ok(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use crate::wal::{FsyncPolicy, Wal, WalConfig};
    use cisgraph_types::{EdgeUpdate, VertexId, Weight};
    use std::path::PathBuf;

    fn upd(i: u32) -> EdgeUpdate {
        EdgeUpdate::insert(
            VertexId::new(i % 8),
            VertexId::new((i + 1) % 8),
            Weight::new(f64::from(i % 4 + 1)).unwrap(),
        )
    }

    fn bootstrap() -> DynamicGraph {
        DynamicGraph::with_promotion_threshold(8, 4)
    }

    fn write_base(dir: &Path, next_seq: u64, graph: &DynamicGraph) -> PathBuf {
        let base = checkpoint::Checkpoint::capture(graph, next_seq, None);
        checkpoint::write(dir, &base).unwrap()
    }

    #[test]
    fn fresh_directory_recovers_to_bootstrap() {
        let tmp = TempDir::new("fresh");
        let dir = tmp.path();
        let r = recover(dir, bootstrap).unwrap();
        assert_eq!(r.next_seq, 0);
        assert_eq!(r.stats, RecoveryStats::default());
        assert_eq!(r.graph.snapshot(), bootstrap().snapshot());
    }

    #[test]
    fn wal_only_replay_matches_direct_application() {
        let tmp = TempDir::new("walonly");
        let dir = tmp.path();
        let mut expected = bootstrap();
        let mut wal = Wal::open(WalConfig::new(dir), 0).unwrap();
        for b in 0..10u32 {
            let batch: Vec<_> = (0..5).map(|i| upd(b * 5 + i)).collect();
            wal.append(&batch).unwrap();
            expected.apply_batch(&batch).unwrap();
        }
        drop(wal);
        let r = recover(dir, bootstrap).unwrap();
        assert_eq!(r.next_seq, 10);
        assert_eq!(r.stats.replayed_batches, 10);
        assert_eq!(r.stats.replayed_updates, 50);
        assert_eq!(r.stats.truncated_bytes, 0);
        assert_eq!(r.graph.snapshot(), expected.snapshot());
    }

    #[test]
    fn checkpoint_plus_tail_skips_covered_frames() {
        let tmp = TempDir::new("ckpt_tail");
        let dir = tmp.path();
        let mut expected = bootstrap();
        let mut wal = Wal::open(WalConfig::new(dir), 0).unwrap();
        for b in 0..4u32 {
            let batch: Vec<_> = (0..3).map(|i| upd(b * 3 + i)).collect();
            wal.append(&batch).unwrap();
            expected.apply_batch(&batch).unwrap();
        }
        // Checkpoint covering the first 4 batches, then 2 more batches.
        write_base(dir, 4, &expected);
        for b in 4..6u32 {
            let batch: Vec<_> = (0..3).map(|i| upd(b * 3 + i)).collect();
            wal.append(&batch).unwrap();
            expected.apply_batch(&batch).unwrap();
        }
        drop(wal);
        let r = recover(dir, bootstrap).unwrap();
        assert_eq!(r.stats.checkpoint_seq, 4);
        assert_eq!(r.stats.skipped_frames, 4);
        assert_eq!(r.stats.replayed_batches, 2);
        assert_eq!(r.next_seq, 6);
        assert_eq!(r.graph.snapshot(), expected.snapshot());
    }

    #[test]
    fn torn_tail_is_truncated_and_next_open_appends_cleanly() {
        let tmp = TempDir::new("torn");
        let dir = tmp.path();
        let mut expected = bootstrap();
        let mut wal = Wal::open(WalConfig::new(dir), 0).unwrap();
        for b in 0..3u32 {
            let batch: Vec<_> = (0..3).map(|i| upd(b * 3 + i)).collect();
            wal.append(&batch).unwrap();
            if b < 2 {
                expected.apply_batch(&batch).unwrap();
            }
        }
        drop(wal);
        // Tear the last frame: chop 5 bytes off the segment.
        let (_, path) = list_segments(dir).unwrap().pop().unwrap();
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();

        let r = recover(dir, bootstrap).unwrap();
        assert_eq!(r.stats.replayed_batches, 2);
        assert_eq!(r.next_seq, 2);
        assert!(r.stats.truncated_bytes > 0);
        assert_eq!(r.graph.snapshot(), expected.snapshot());

        // The truncation leaves a clean boundary: append and recover again.
        let mut wal = Wal::open(WalConfig::new(dir), r.next_seq).unwrap();
        let batch = vec![upd(90)];
        wal.append(&batch).unwrap();
        expected.apply_batch(&batch).unwrap();
        drop(wal);
        let r2 = recover(dir, bootstrap).unwrap();
        assert_eq!(r2.next_seq, 3);
        assert_eq!(r2.graph.snapshot(), expected.snapshot());
    }

    #[test]
    fn corrupt_middle_segment_drops_later_segments() {
        let tmp = TempDir::new("midrot");
        let dir = tmp.path();
        let mut cfg = WalConfig::new(dir);
        cfg.segment_bytes = 200; // force several segments
        cfg.fsync = FsyncPolicy::Never;
        let mut expected = bootstrap();
        let mut wal = Wal::open(cfg, 0).unwrap();
        let mut per_batch = Vec::new();
        for b in 0..12u32 {
            let batch: Vec<_> = (0..2).map(|i| upd(b * 2 + i)).collect();
            wal.append(&batch).unwrap();
            per_batch.push(batch);
        }
        drop(wal);
        let segments = list_segments(dir).unwrap();
        assert!(
            segments.len() >= 3,
            "need several segments, got {}",
            segments.len()
        );
        // Flip a payload byte early in the second segment.
        let (second_first_seq, second_path) = &segments[1];
        let mut bytes = fs::read(second_path).unwrap();
        let idx = crate::frame::FRAME_HEADER_BYTES + 2;
        bytes[idx] ^= 0xFF;
        fs::write(second_path, &bytes).unwrap();

        let r = recover(dir, bootstrap).unwrap();
        // Everything before the second segment replays; nothing after.
        assert_eq!(r.next_seq, *second_first_seq);
        for batch in &per_batch[..*second_first_seq as usize] {
            expected.apply_batch(batch).unwrap();
        }
        assert_eq!(r.graph.snapshot(), expected.snapshot());
        // Later segments are gone; the damaged one is truncated to zero
        // good frames... or the last good boundary.
        let remaining = list_segments(dir).unwrap();
        assert_eq!(remaining.len(), 2);
        assert!(r.stats.truncated_bytes > 0);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_older() {
        let tmp = TempDir::new("ckpt_fallback");
        let dir = tmp.path();
        let mut g = bootstrap();
        g.apply_batch(&[upd(1)]).unwrap();
        write_base(dir, 1, &g);
        let older = g.snapshot();
        g.apply_batch(&[upd(2)]).unwrap();
        let newest = write_base(dir, 2, &g);
        // Corrupt the newest checkpoint.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();

        let r = recover(dir, bootstrap).unwrap();
        assert_eq!(r.stats.corrupt_checkpoints, 1);
        assert_eq!(r.stats.checkpoint_seq, 1);
        assert_eq!(r.graph.snapshot(), older);
    }

    #[test]
    fn all_checkpoints_corrupt_is_a_hard_error() {
        let tmp = TempDir::new("ckpt_dead");
        let dir = tmp.path();
        let path = write_base(dir, 1, &bootstrap());
        fs::write(&path, b"not a checkpoint").unwrap();
        match recover(dir, bootstrap) {
            Err(PersistError::Corrupt { reason, .. }) => {
                assert!(reason.contains("refusing"), "unexpected reason {reason:?}")
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
}
