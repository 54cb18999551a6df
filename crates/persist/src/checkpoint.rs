//! CSR checkpoints: the "load this, then replay the WAL tail" half of
//! recovery.
//!
//! A checkpoint file (`ckpt-{next_seq:016x}.ckpt`) stores the **forward
//! CSR** of a materialized snapshot plus the WAL position it covers:
//!
//! ```text
//! +--------+---------+----------+-----------+-------+-------+
//! | magic  | version | next_seq | threshold | n     | m     |
//! | "CCKP" | u32 LE  | u64 LE   | u64 LE    | u64   | u64   |
//! +--------+---------+----------+-----------+-------+-------+
//! | offsets: (n+1) x u64 LE                                 |
//! | edges:   m x (dst u32 LE , weight f64 LE)               |
//! +---------------------------------------------------------+
//! | crc: u32 LE over every byte above                       |
//! +---------------------------------------------------------+
//! ```
//!
//! Only the forward CSR is stored: the reverse CSR is a pure function of
//! it ([`Snapshot::from_forward`](cisgraph_graph::Snapshot::from_forward)),
//! and rebuilding the dynamic graph row-by-row in ascending vertex order
//! ([`DynamicGraph::from_forward_csr`]) reproduces every out-adjacency
//! list — which is all replay determinism requires.
//!
//! Writes are atomic: the bytes go to a `.tmp` sibling, are fsynced, and
//! only then renamed into place, so a crash mid-checkpoint leaves at worst
//! a stale temp file that recovery ignores.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::{Buf, BufMut, BytesMut};
use cisgraph_graph::{Csr, DynamicGraph, Edge};
use cisgraph_types::{VertexId, Weight};

use crate::crc::crc32;
use crate::error::PersistError;
use crate::Result;

/// Checkpoint magic: the bytes `CCKP` read as a little-endian `u32`.
pub const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"CCKP");

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u32 = 1;

const FIXED_HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8 + 8;

pub(crate) fn file_name(next_seq: u64) -> String {
    format!("ckpt-{next_seq:016x}.ckpt")
}

pub(crate) fn parse_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// All **full** checkpoints in `dir` as `(next_seq, path)`, ascending by
/// the WAL position they cover. Delta checkpoints (see [`crate::delta`])
/// live in `.dckpt` siblings and are listed by [`list_all`].
pub fn list(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut checkpoints = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(next_seq) = entry.file_name().to_str().and_then(parse_file_name) {
            checkpoints.push((next_seq, entry.path()));
        }
    }
    checkpoints.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(checkpoints)
}

/// The kind of a checkpoint file on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptKind {
    /// A full forward-CSR serialization (`.ckpt`).
    Full,
    /// Changed rows relative to a parent checkpoint (`.dckpt`).
    Delta,
}

/// One checkpoint file (full or delta) found on disk.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// The WAL position the checkpoint covers.
    pub next_seq: u64,
    /// Full or delta.
    pub kind: CkptKind,
    /// The file's path.
    pub path: PathBuf,
}

/// Every checkpoint in `dir` — full and delta — ascending by covered WAL
/// position. At equal `next_seq` the full checkpoint sorts **after** the
/// delta, so a newest-first scan prefers the self-contained file.
pub fn list_all(dir: &Path) -> Result<Vec<CheckpointEntry>> {
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(next_seq) = parse_file_name(name) {
            entries.push(CheckpointEntry {
                next_seq,
                kind: CkptKind::Full,
                path: entry.path(),
            });
        } else if let Some(next_seq) = crate::delta::parse_file_name(name) {
            entries.push(CheckpointEntry {
                next_seq,
                kind: CkptKind::Delta,
                path: entry.path(),
            });
        }
    }
    entries.sort_by_key(|e| (e.next_seq, e.kind == CkptKind::Full));
    Ok(entries)
}

/// Serializes `graph`'s current topology as the checkpoint covering every
/// update with sequence number below `next_seq`, atomically (temp file +
/// rename). Returns the checkpoint's final path.
pub fn write(dir: &Path, next_seq: u64, graph: &DynamicGraph) -> Result<PathBuf> {
    write_snapshot(
        dir,
        next_seq,
        graph.promotion_threshold() as u64,
        &graph.forward_csr(),
    )
}

/// Like [`write()`], but from an already-materialized forward CSR — the form
/// the background checkpointer uses after the ingest thread has built it.
pub fn write_snapshot(dir: &Path, next_seq: u64, threshold: u64, forward: &Csr) -> Result<PathBuf> {
    let obs_on = cisgraph_obs::enabled();
    let start = obs_on.then(Instant::now);
    fs::create_dir_all(dir)?;

    let n = forward.num_vertices();
    let m = forward.num_edges();
    let mut buf = BytesMut::with_capacity(FIXED_HEADER_BYTES + (n + 1) * 8 + m * 12 + 4);
    buf.put_u32_le(CHECKPOINT_MAGIC);
    buf.put_u32_le(CHECKPOINT_VERSION);
    buf.put_u64_le(next_seq);
    buf.put_u64_le(threshold);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(m as u64);
    for &offset in forward.offsets() {
        buf.put_u64_le(offset);
    }
    for e in forward.edges() {
        buf.put_u32_le(e.to().raw());
        buf.put_f64_le(e.weight().get());
    }
    buf.put_u32_le(crc32(&buf));

    let path = dir.join(file_name(next_seq));
    crate::atomic_write(dir, &path, &buf)?;

    if obs_on {
        cisgraph_obs::counter("persist.ckpt.full.count").inc();
        cisgraph_obs::counter("persist.ckpt.full.bytes").add(buf.len() as u64);
        if let Some(start) = start {
            cisgraph_obs::histogram("persist.ckpt.write_ns")
                .record(start.elapsed().as_nanos() as u64);
        }
    }
    Ok(path)
}

/// Loads and validates one checkpoint file, returning the WAL position it
/// covers and the rebuilt graph.
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] if the file fails any structural or
/// CRC validation. Recovery treats that as "fall back to the previous
/// checkpoint", not as fatal.
pub fn load(path: &Path) -> Result<(u64, DynamicGraph)> {
    let (next_seq, threshold, forward) = load_forward(path)?;
    let threshold = usize::try_from(threshold).unwrap_or(usize::MAX);
    Ok((
        next_seq,
        DynamicGraph::from_forward_csr(&forward, threshold),
    ))
}

/// Loads and validates one checkpoint file without rebuilding adjacency:
/// returns `(next_seq, threshold, forward CSR)`. Chain recovery uses this
/// form so delta rows can be overlaid before the one final rebuild.
///
/// # Errors
///
/// Same as [`load`].
pub fn load_forward(path: &Path) -> Result<(u64, u64, Csr)> {
    let bytes = fs::read(path)?;
    let corrupt = |offset: u64, reason: String| PersistError::corrupt(path, offset, reason);
    if bytes.len() < FIXED_HEADER_BYTES + 8 + 4 {
        return Err(corrupt(
            bytes.len() as u64,
            format!("checkpoint truncated at {} bytes", bytes.len()),
        ));
    }
    let body_len = bytes.len() - 4;
    let expect_crc = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
    let actual_crc = crc32(&bytes[..body_len]);
    if actual_crc != expect_crc {
        return Err(corrupt(
            body_len as u64,
            format!("checkpoint crc {actual_crc:#010x} != recorded {expect_crc:#010x}"),
        ));
    }

    let mut cursor = &bytes[..body_len];
    let magic = cursor.get_u32_le();
    if magic != CHECKPOINT_MAGIC {
        return Err(corrupt(0, format!("bad checkpoint magic {magic:#010x}")));
    }
    let version = cursor.get_u32_le();
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(
            4,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    let next_seq = cursor.get_u64_le();
    let threshold = cursor.get_u64_le();
    let n = cursor.get_u64_le() as usize;
    let m = cursor.get_u64_le() as usize;
    let body_need = (n + 1) * 8 + m * 12;
    if cursor.len() != body_need {
        return Err(corrupt(
            FIXED_HEADER_BYTES as u64,
            format!(
                "checkpoint body is {} bytes, expected {body_need} for n={n} m={m}",
                cursor.len()
            ),
        ));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(cursor.get_u64_le());
    }
    let mut edges = Vec::with_capacity(m);
    for i in 0..m {
        let dst = VertexId::new(cursor.get_u32_le());
        let weight = Weight::new(cursor.get_f64_le())
            .map_err(|e| corrupt(FIXED_HEADER_BYTES as u64, format!("edge {i}: {e}")))?;
        edges.push(Edge::new(dst, weight));
    }
    let forward = Csr::from_raw_parts(offsets, edges)
        .map_err(|e| corrupt(FIXED_HEADER_BYTES as u64, e.to_string()))?;
    Ok((next_seq, threshold, forward))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_types::EdgeUpdate;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cisgraph_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_graph() -> DynamicGraph {
        let mut g = DynamicGraph::with_promotion_threshold(8, 3);
        let batch: Vec<EdgeUpdate> = (0..20u32)
            .map(|i| {
                EdgeUpdate::insert(
                    VertexId::new(i % 8),
                    VertexId::new((i * 3 + 1) % 8),
                    Weight::new(f64::from(i + 1)).unwrap(),
                )
            })
            .collect();
        g.apply_batch(&batch).unwrap();
        g.remove_edge(VertexId::new(0), VertexId::new(1), None)
            .unwrap();
        g
    }

    #[test]
    fn write_then_load_round_trips_the_snapshot() {
        let dir = tmpdir("roundtrip");
        let g = sample_graph();
        let path = write(&dir, 42, &g).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str(),
            Some("ckpt-000000000000002a.ckpt")
        );
        let (next_seq, loaded) = load(&path).unwrap();
        assert_eq!(next_seq, 42);
        assert_eq!(loaded.snapshot(), g.snapshot());
        assert_eq!(loaded.promotion_threshold(), g.promotion_threshold());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_sorts_by_covered_position() {
        let dir = tmpdir("list");
        let g = DynamicGraph::new(2);
        write(&dir, 30, &g).unwrap();
        write(&dir, 7, &g).unwrap();
        // A stray temp file and a WAL segment must both be ignored.
        fs::write(dir.join("ckpt-0000000000000063.ckpt.tmp"), b"junk").unwrap();
        fs::write(dir.join("wal-0000000000000000.seg"), b"junk").unwrap();
        let seqs: Vec<u64> = list(&dir).unwrap().into_iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![7, 30]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let dir = tmpdir("bitflip");
        let path = write(&dir, 3, &sample_graph()).unwrap();
        let clean = fs::read(&path).unwrap();
        let mut bytes = clean.clone();
        // Flipping any byte must fail validation (CRC or structure) — never
        // silently load a different graph.
        for pos in 0..bytes.len() {
            bytes[pos] ^= 0x10;
            fs::write(&path, &bytes).unwrap();
            match load(&path) {
                Err(PersistError::Corrupt { .. }) => {}
                other => panic!("flip at byte {pos} not caught: {other:?}"),
            }
            bytes[pos] ^= 0x10;
        }
        fs::write(&path, &clean).unwrap();
        assert!(load(&path).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_checkpoint_is_corrupt() {
        let dir = tmpdir("trunc");
        let path = write(&dir, 3, &sample_graph()).unwrap();
        let bytes = fs::read(&path).unwrap();
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(load(&path), Err(PersistError::Corrupt { .. })),
                "truncation to {cut} bytes not caught"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
