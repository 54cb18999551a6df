//! Row-set checkpoints: the "load this, then replay the WAL tail" half of
//! recovery.
//!
//! A checkpoint file stores the out-adjacency of a set of rows plus the
//! WAL position it covers. A **base** (`ckpt-{next_seq:016x}.ckpt`) has no
//! parent and lists every non-empty row; a **delta**
//! (`ckpt-{next_seq:016x}.dckpt`) names the checkpoint it extends and lists
//! only the rows that changed since. In both, a row the file does not list
//! is inherited from the parent, or empty when there is none — so a base
//! is just the delta of every row from an empty graph, and one codec reads
//! both:
//!
//! ```text
//! +--------+---------+----------+------------+--------+-----------+----------+-----------+
//! | magic  | version | next_seq | has_parent | parent | threshold | num_rows | row_count |
//! | "CCKP" | u32 = 2 | u64      | u32 (0|1)  | u64    | u64       | u64      | u64       |
//! +--------+---------+----------+------------+--------+-----------+----------+-----------+
//! | row_count x (row u32 | len u32 | len x (dst u32 , weight f64)), rows ascending      |
//! +--------------------------------------------------------------------------------------+
//! | crc: u32 LE over every byte above                                                    |
//! +--------------------------------------------------------------------------------------+
//! ```
//!
//! Every integer is little-endian. `num_rows` is the vertex count at
//! capture time: vertex growth alone (new isolated rows) changes no row,
//! yet the recovered graph must have the grown vertex set. Only the forward
//! adjacency is stored: rebuilding the dynamic graph row by row in
//! ascending vertex order ([`DynamicGraph::from_rows`]) reproduces every
//! out-adjacency list, which is all replay determinism requires.
//!
//! Writes are atomic (temp file, fsync, rename), so a crash mid-checkpoint
//! leaves at worst a stale temp file that listing ignores.

use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use cisgraph_graph::{DynamicGraph, Edge, GraphView};
use cisgraph_obs::{Counter, Histogram};
use cisgraph_types::{VertexId, Weight};

use crate::crc::{crc32, crc32_update};
use crate::error::PersistError;
use crate::LeReader;
use crate::Result;

/// Checkpoint magic: the bytes `CCKP` read as a little-endian `u32`.
pub const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"CCKP");

/// Current checkpoint format version. Version 1 kept separate full-CSR and
/// changed-row formats; those files read as corrupt now.
pub const CHECKPOINT_VERSION: u32 = 2;

const HEADER_BYTES: usize = 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8;

/// Bytes the CRC check reads at a time.
const CRC_CHUNK: usize = 64 * 1024;

/// Row ids are `u32`, so no graph has more rows than this.
const MAX_ROWS: u64 = 1 << 32;

/// Encoded size of `rows` rows holding `edges` edges in all: a row costs
/// its id and length, an edge its destination and weight.
pub(crate) fn row_bytes(rows: usize, edges: usize) -> usize {
    8 * rows + 12 * edges
}

/// [`row_bytes`] of a base capture of `graph`: every non-empty row.
pub(crate) fn base_row_bytes(graph: &DynamicGraph) -> usize {
    let rows = (0..graph.num_vertices())
        .filter(|&v| !graph.out_edges(VertexId::from_index(v)).is_empty())
        .count();
    row_bytes(rows, graph.num_edges())
}

/// [`row_bytes`] of a delta capture of `graph` listing the rows in `dirty`
/// (rows past the vertex count are skipped, as [`Checkpoint::capture`]
/// skips them). Reads only row lengths.
pub(crate) fn delta_row_bytes(graph: &DynamicGraph, dirty: &[u32]) -> usize {
    let n = graph.num_vertices();
    let (rows, edges) = dirty
        .iter()
        .filter(|&&row| (row as usize) < n)
        .fold((0, 0), |(rows, edges), &row| {
            (rows + 1, edges + graph.out_edges(VertexId::new(row)).len())
        });
    row_bytes(rows, edges)
}

/// Checkpoint metric handles, resolved on first use.
pub(crate) struct CkptObs {
    full_count: &'static Counter,
    full_bytes: &'static Counter,
    delta_count: &'static Counter,
    delta_bytes: &'static Counter,
    delta_rows: &'static Counter,
    write_ns: &'static Histogram,
    pub(crate) capture_ns: &'static Histogram,
}

pub(crate) fn obs() -> &'static CkptObs {
    static OBS: OnceLock<CkptObs> = OnceLock::new();
    OBS.get_or_init(|| CkptObs {
        full_count: cisgraph_obs::counter("persist.ckpt.full.count"),
        full_bytes: cisgraph_obs::counter("persist.ckpt.full.bytes"),
        delta_count: cisgraph_obs::counter("persist.ckpt.delta.count"),
        delta_bytes: cisgraph_obs::counter("persist.ckpt.delta.bytes"),
        delta_rows: cisgraph_obs::counter("persist.ckpt.delta.rows"),
        write_ns: cisgraph_obs::histogram("persist.ckpt.write_ns"),
        capture_ns: cisgraph_obs::histogram("persist.ckpt.capture_ns"),
    })
}

fn file_name(next_seq: u64, has_parent: bool) -> String {
    let suffix = if has_parent { "dckpt" } else { "ckpt" };
    format!("ckpt-{next_seq:016x}.{suffix}")
}

/// `(next_seq, has_parent)` encoded in a checkpoint file name.
fn parse_file_name(name: &str) -> Option<(u64, bool)> {
    let rest = name.strip_prefix("ckpt-")?;
    let (hex, has_parent) = match rest.strip_suffix(".dckpt") {
        Some(hex) => (hex, true),
        None => (rest.strip_suffix(".ckpt")?, false),
    };
    if hex.len() != 16 {
        return None;
    }
    Some((u64::from_str_radix(hex, 16).ok()?, has_parent))
}

/// Rows of a forward adjacency in one flat copy: `rows` holds each row's
/// id and length, ascending by id; `edges` holds the rows' edges back to
/// back in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowSet {
    rows: Vec<(u32, u32)>,
    edges: Vec<Edge>,
}

impl RowSet {
    fn push(&mut self, row: u32, edges: &[Edge]) {
        let len = u32::try_from(edges.len()).expect("adjacency positions are u32");
        self.rows.push((row, len));
        self.edges.extend_from_slice(edges);
    }

    /// How many rows the set lists.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// `(row, out-adjacency)` pairs, ascending by row.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[Edge])> + '_ {
        let mut rest = &self.edges[..];
        self.rows.iter().map(move |&(row, len)| {
            let (edges, tail) = rest.split_at(len as usize);
            rest = tail;
            (row, edges)
        })
    }

    /// Bytes the rows take in a checkpoint file.
    pub(crate) fn encoded_len(&self) -> usize {
        row_bytes(self.rows.len(), self.edges.len())
    }
}

/// The header fields of a checkpoint, as [`read_header`] returns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The WAL position the checkpoint covers.
    pub next_seq: u64,
    /// The `next_seq` of the checkpoint this one extends; `None` for a base.
    pub parent: Option<u64>,
    /// Promotion threshold of the graph at capture time.
    pub threshold: u64,
    /// Vertex count at capture time.
    pub num_rows: u64,
}

/// One checkpoint: its header and the rows it lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Position, parent and graph shape.
    pub header: Header,
    /// The listed rows, ascending.
    pub rows: RowSet,
}

impl Checkpoint {
    /// Copies rows out of the live adjacency. With no parent this is a base
    /// holding every non-empty row; with `Some((parent_seq, dirty))` it is a
    /// delta holding the rows in `dirty`, which must be sorted ascending
    /// (the contract of [`DynamicGraph::take_dirty_rows`]).
    pub fn capture(graph: &DynamicGraph, next_seq: u64, parent: Option<(u64, &[u32])>) -> Self {
        let n = graph.num_vertices();
        let mut rows = RowSet::default();
        match parent {
            None => {
                rows.edges.reserve(graph.num_edges());
                for v in 0..n {
                    let edges = graph.out_edges(VertexId::from_index(v));
                    if !edges.is_empty() {
                        rows.push(v as u32, edges);
                    }
                }
            }
            Some((_, dirty)) => {
                for &row in dirty.iter().filter(|&&row| (row as usize) < n) {
                    rows.push(row, graph.out_edges(VertexId::new(row)));
                }
            }
        }
        Self {
            header: Header {
                next_seq,
                parent: parent.map(|(seq, _)| seq),
                threshold: graph.promotion_threshold() as u64,
                num_rows: n as u64,
            },
            rows,
        }
    }
}

/// One checkpoint file found on disk.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// The WAL position the checkpoint covers.
    pub next_seq: u64,
    /// Whether the file is a delta (`.dckpt`), which names a parent.
    pub has_parent: bool,
    /// The file's path.
    pub path: PathBuf,
}

/// Every checkpoint in `dir`, ascending by covered WAL position. At equal
/// `next_seq` the base sorts **after** the delta, so a newest-first scan
/// prefers the self-contained file.
pub fn list_all(dir: &Path) -> Result<Vec<CheckpointEntry>> {
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some((next_seq, has_parent)) = name.to_str().and_then(parse_file_name) {
            entries.push(CheckpointEntry {
                next_seq,
                has_parent,
                path: entry.path(),
            });
        }
    }
    entries.sort_by_key(|e| (e.next_seq, !e.has_parent));
    Ok(entries)
}

/// The entry `entry`'s header names as its parent, preferring a base when
/// a base and a delta cover the same position; `None` for a base. Reads
/// only the header.
///
/// # Errors
///
/// [`PersistError::Corrupt`] if the header is unreadable or the parent is
/// missing. The walk always ends: a parent never covers a later position
/// than its child, and at equal positions only a delta can name a base.
pub fn parent_of<'a>(
    entries: &'a [CheckpointEntry],
    entry: &CheckpointEntry,
) -> Result<Option<&'a CheckpointEntry>> {
    let Some(parent_seq) = read_header(&entry.path)?.parent else {
        return Ok(None);
    };
    entries
        .iter()
        .rev()
        .find(|e| e.next_seq == parent_seq && e.path != entry.path)
        .map(Some)
        .ok_or_else(|| {
            PersistError::corrupt(
                &entry.path,
                0,
                format!("parent checkpoint covering seq {parent_seq} is missing"),
            )
        })
}

/// Serializes `ckpt` into `dir` atomically (temp file + rename), as a base
/// or a delta by whether it has a parent. Returns the final path.
///
/// An empty delta is valid and still worth writing: it advances the
/// chain's covered WAL position, letting covered segments be pruned.
pub fn write(dir: &Path, ckpt: &Checkpoint) -> Result<PathBuf> {
    let obs_on = cisgraph_obs::enabled();
    let start = obs_on.then(Instant::now);
    fs::create_dir_all(dir)?;

    let h = &ckpt.header;
    let mut buf = Vec::with_capacity(HEADER_BYTES + ckpt.rows.encoded_len() + 4);
    buf.extend_from_slice(&CHECKPOINT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&h.next_seq.to_le_bytes());
    buf.extend_from_slice(&u32::from(h.parent.is_some()).to_le_bytes());
    buf.extend_from_slice(&h.parent.unwrap_or(0).to_le_bytes());
    buf.extend_from_slice(&h.threshold.to_le_bytes());
    buf.extend_from_slice(&h.num_rows.to_le_bytes());
    buf.extend_from_slice(&(ckpt.rows.len() as u64).to_le_bytes());
    for (row, edges) in ckpt.rows.iter() {
        buf.extend_from_slice(&row.to_le_bytes());
        buf.extend_from_slice(&(edges.len() as u32).to_le_bytes());
        for e in edges {
            buf.extend_from_slice(&e.to().raw().to_le_bytes());
            buf.extend_from_slice(&e.weight().get().to_le_bytes());
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());

    let path = dir.join(file_name(h.next_seq, h.parent.is_some()));
    crate::atomic_write(dir, &path, &buf)?;

    if let Some(start) = start {
        let obs = obs();
        if h.parent.is_some() {
            obs.delta_count.inc();
            obs.delta_bytes.add(buf.len() as u64);
            obs.delta_rows.add(ckpt.rows.len() as u64);
        } else {
            obs.full_count.inc();
            obs.full_bytes.add(buf.len() as u64);
        }
        obs.write_ns.record(start.elapsed().as_nanos() as u64);
    }
    Ok(path)
}

/// Parses and checks a header (`head` holds at least [`HEADER_BYTES`]),
/// returning it with the row count it announces. The file name must agree
/// with the header on position and kind.
fn parse_header(path: &Path, head: &[u8]) -> Result<(Header, u64)> {
    let mut head = LeReader::new(head);
    let corrupt = |offset: u64, reason: String| PersistError::corrupt(path, offset, reason);
    let magic = head.u32();
    if magic != CHECKPOINT_MAGIC {
        return Err(corrupt(0, format!("bad checkpoint magic {magic:#010x}")));
    }
    let version = head.u32();
    if version != CHECKPOINT_VERSION {
        return Err(corrupt(
            4,
            format!("unsupported checkpoint version {version}"),
        ));
    }
    let next_seq = head.u64();
    let parent = match (head.u32(), head.u64()) {
        (0, 0) => None,
        (1, seq) if seq <= next_seq => Some(seq),
        (tag, seq) => {
            return Err(corrupt(
                16,
                format!("bad parent (tag {tag}, seq {seq}) for position {next_seq}"),
            ))
        }
    };
    let named = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(parse_file_name);
    if named != Some((next_seq, parent.is_some())) {
        return Err(corrupt(
            8,
            format!("header (seq {next_seq}, parent {parent:?}) disagrees with the file name"),
        ));
    }
    let threshold = head.u64();
    let num_rows = head.u64();
    let row_count = head.u64();
    if num_rows > MAX_ROWS || row_count > num_rows {
        return Err(corrupt(
            36,
            format!("{row_count} rows of {num_rows} exceed the u32 row space"),
        ));
    }
    let header = Header {
        next_seq,
        parent,
        threshold,
        num_rows,
    };
    Ok((header, row_count))
}

/// Reads and checks only a checkpoint's header. The ancestry walk uses
/// this to follow parent links without reading row payloads; the CRC is
/// not checked, so [`read`] still validates every file a chain loads.
pub fn read_header(path: &Path) -> Result<Header> {
    let mut head = [0u8; HEADER_BYTES];
    File::open(path)?
        .read_exact(&mut head)
        .map_err(|_| PersistError::corrupt(path, 0, "checkpoint header truncated"))?;
    Ok(parse_header(path, &head)?.0)
}

/// Checks the trailing CRC of a `len`-byte checkpoint read from `src`,
/// in [`CRC_CHUNK`]-sized pieces, so no buffer the size of the file is
/// needed.
fn check_crc(path: &Path, mut src: impl Read, len: u64) -> Result<()> {
    let corrupt = |offset: u64, reason: String| PersistError::corrupt(path, offset, reason);
    if len < (HEADER_BYTES + 4) as u64 {
        return Err(corrupt(len, format!("checkpoint truncated at {len} bytes")));
    }
    let body_len = len - 4;
    let truncated = |_| corrupt(body_len, "checkpoint shorter than its length".to_string());
    let mut chunk = vec![0u8; CRC_CHUNK.min(body_len as usize)];
    let (mut actual_crc, mut left) = (0, body_len);
    while left > 0 {
        let piece = &mut chunk[..left.min(CRC_CHUNK as u64) as usize];
        src.read_exact(piece).map_err(truncated)?;
        actual_crc = crc32_update(actual_crc, piece);
        left -= piece.len() as u64;
    }
    let mut recorded = [0u8; 4];
    src.read_exact(&mut recorded).map_err(truncated)?;
    let expect_crc = u32::from_le_bytes(recorded);
    if actual_crc != expect_crc {
        return Err(corrupt(
            body_len,
            format!("checkpoint crc {actual_crc:#010x} != recorded {expect_crc:#010x}"),
        ));
    }
    Ok(())
}

/// Checks a checkpoint's header and CRC without loading its rows. Pruning
/// picks heads with this: a file that fails it cannot start a recovery.
pub fn verify(path: &Path) -> Result<Header> {
    let header = read_header(path)?;
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    check_crc(path, file, len)?;
    Ok(header)
}

/// Loads and validates one checkpoint file.
///
/// Every size field is checked against the bytes that remain before it
/// bounds an allocation or a loop, so a CRC-valid file with absurd sizes
/// is rejected, not trusted.
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] if the file fails any structural or
/// CRC validation. Recovery treats that as "fall back to an older chain",
/// not as fatal.
pub fn read(path: &Path) -> Result<Checkpoint> {
    let bytes = fs::read(path)?;
    let corrupt =
        |offset: usize, reason: String| PersistError::corrupt(path, offset as u64, reason);
    check_crc(path, bytes.as_slice(), bytes.len() as u64)?;
    let body_len = bytes.len() - 4;
    let (header, row_count) = parse_header(path, &bytes)?;

    let mut cursor = LeReader::new(&bytes[HEADER_BYTES..body_len]);
    // Each row takes at least 8 bytes, each edge exactly 12: both bounds
    // come from the file's length, not from its claims.
    let max_rows = cursor.remaining() / 8;
    if row_count > max_rows as u64 {
        return Err(corrupt(
            HEADER_BYTES,
            format!(
                "{row_count} rows cannot fit in {} bytes",
                cursor.remaining()
            ),
        ));
    }
    let row_count = row_count as usize;
    let mut rows = RowSet {
        rows: Vec::with_capacity(row_count),
        edges: Vec::with_capacity((cursor.remaining() - 8 * row_count) / 12),
    };
    for _ in 0..row_count {
        let at = body_len - cursor.remaining();
        if cursor.remaining() < 8 {
            return Err(corrupt(at, "row header truncated".to_string()));
        }
        let row = cursor.u32();
        let len = cursor.u32() as usize;
        let ascending = rows.rows.last().is_none_or(|&(prev, _)| prev < row);
        if !ascending || u64::from(row) >= header.num_rows {
            return Err(corrupt(
                at,
                format!("row {row} out of order or outside {} rows", header.num_rows),
            ));
        }
        if len
            .checked_mul(12)
            .is_none_or(|need| need > cursor.remaining())
        {
            return Err(corrupt(
                at,
                format!("row {row} claims {len} edges but the body ends first"),
            ));
        }
        for j in 0..len {
            let dst = cursor.u32();
            match Weight::new(cursor.f64()) {
                Ok(w) if u64::from(dst) < header.num_rows => {
                    rows.edges.push(Edge::new(VertexId::new(dst), w));
                }
                weight => {
                    return Err(corrupt(
                        at,
                        format!("row {row} edge {j}: {dst}, {weight:?}"),
                    ))
                }
            }
        }
        rows.rows.push((row, len as u32));
    }
    if cursor.remaining() != 0 {
        return Err(corrupt(
            body_len - cursor.remaining(),
            format!("{} trailing bytes after the last row", cursor.remaining()),
        ));
    }
    Ok(Checkpoint { header, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_dir::TempDir;
    use crate::{recover, snapshot_digest};
    use cisgraph_types::EdgeUpdate;

    /// Twelve vertices with edges among the first eight only, so the top
    /// four are isolated and only `num_rows` records them. Rows 0..5 hold
    /// promoted lists (threshold 3) and are marked dirty.
    fn sample_graph() -> DynamicGraph {
        let mut g = DynamicGraph::with_promotion_threshold(12, 3);
        g.enable_dirty_rows();
        let batch: Vec<EdgeUpdate> = (0..20u32)
            .map(|i| {
                EdgeUpdate::insert(
                    VertexId::new(i % 5),
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

    /// The table every codec test runs over: a base, a delta, and an empty
    /// delta of the sample graph, each written to `dir`.
    fn fixtures(dir: &Path) -> Vec<(Checkpoint, PathBuf)> {
        let mut g = sample_graph();
        let dirty = g.take_dirty_rows().unwrap();
        assert_eq!(dirty, vec![0, 1, 2, 3, 4]);
        [
            Checkpoint::capture(&g, 42, None),
            Checkpoint::capture(&g, 9, Some((4, &dirty))),
            Checkpoint::capture(&g, 5, Some((3, &[]))),
        ]
        .into_iter()
        .map(|ckpt| {
            let path = write(dir, &ckpt).unwrap();
            (ckpt, path)
        })
        .collect()
    }

    /// Overwrites `bytes` at `offset` and re-seals the CRC, so only the
    /// structural checks can catch the change.
    fn patch(path: &Path, offset: usize, bytes: &[u8]) {
        let mut file = fs::read(path).unwrap();
        file[offset..offset + bytes.len()].copy_from_slice(bytes);
        let body = file.len() - 4;
        let crc = crc32(&file[..body]);
        file[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(path, file).unwrap();
    }

    fn is_corrupt<T: std::fmt::Debug>(result: Result<T>) -> bool {
        matches!(result, Err(PersistError::Corrupt { .. }))
    }

    #[test]
    fn write_then_read_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let dir = tmp.path();
        let names = [
            "ckpt-000000000000002a.ckpt",
            "ckpt-0000000000000009.dckpt",
            "ckpt-0000000000000005.dckpt",
        ];
        let fx = fixtures(dir);
        for ((ckpt, path), name) in fx.iter().zip(names) {
            assert_eq!(path.file_name().unwrap().to_str(), Some(name));
            assert_eq!(read(path).unwrap(), *ckpt, "{name}");
            assert_eq!(read_header(path).unwrap(), ckpt.header, "{name}");
            assert_eq!(ckpt.header.num_rows, 12);
            assert_eq!(ckpt.header.threshold, 3);
        }
        // The base lists the five non-empty rows; the delta the five dirty
        // ones; the empty delta nothing.
        let listed: Vec<usize> = fx.iter().map(|(c, _)| c.rows.len()).collect();
        assert_eq!(listed, [5, 5, 0]);
        // The base is the newest checkpoint, and alone rebuilds the graph,
        // isolated top vertices included.
        let r = recover(dir, DynamicGraph::default).unwrap();
        assert_eq!(r.next_seq, 42);
        assert_eq!(r.graph.num_vertices(), 12);
        assert_eq!(r.graph.promotion_threshold(), 3);
        assert_eq!(
            snapshot_digest(&r.graph.snapshot()),
            snapshot_digest(&sample_graph().snapshot())
        );
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let tmp = TempDir::new("bitflip");
        let dir = tmp.path();
        // Flipping any byte must fail validation (CRC or structure) —
        // never silently load different rows.
        for (ckpt, path) in fixtures(dir) {
            let clean = fs::read(&path).unwrap();
            let mut bytes = clean.clone();
            for pos in 0..bytes.len() {
                bytes[pos] ^= 0x10;
                fs::write(&path, &bytes).unwrap();
                assert!(is_corrupt(read(&path)), "flip at byte {pos} of {path:?}");
                bytes[pos] ^= 0x10;
            }
            fs::write(&path, &clean).unwrap();
            assert_eq!(read(&path).unwrap(), ckpt);
        }
    }

    #[test]
    fn truncation_is_detected() {
        let tmp = TempDir::new("trunc");
        let dir = tmp.path();
        for (_, path) in fixtures(dir) {
            let bytes = fs::read(&path).unwrap();
            for cut in [0, 8, HEADER_BYTES, bytes.len() / 2, bytes.len() - 1] {
                fs::write(&path, &bytes[..cut]).unwrap();
                assert!(is_corrupt(read(&path)), "cut to {cut} bytes of {path:?}");
            }
        }
    }

    #[test]
    fn header_disagreeing_with_file_name_is_corrupt() {
        let tmp = TempDir::new("misnamed");
        let dir = tmp.path();
        let fx = fixtures(dir);
        let (base, delta) = (&fx[0].1, &fx[1].1);
        // Each copy keeps a valid CRC; only the name disagrees: a base
        // named as a delta, a delta named as a base, another position.
        for (from, to) in [
            (base, "ckpt-000000000000002a.dckpt"),
            (delta, "ckpt-0000000000000009.ckpt"),
            (base, "ckpt-000000000000002b.ckpt"),
        ] {
            let path = dir.join(to);
            fs::copy(from, &path).unwrap();
            assert!(is_corrupt(read(&path)), "{to}");
            assert!(is_corrupt(read_header(&path)), "{to}");
            fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn list_all_orders_by_position_and_parent_of_prefers_the_base() {
        let tmp = TempDir::new("list");
        let dir = tmp.path();
        let g = DynamicGraph::new(2);
        for (seq, parent) in [(30, None), (7, None), (7, Some((7, &[][..])))] {
            write(dir, &Checkpoint::capture(&g, seq, parent)).unwrap();
        }
        // A stray temp file and a WAL segment must both be ignored.
        fs::write(dir.join("ckpt-0000000000000063.ckpt.tmp"), b"junk").unwrap();
        fs::write(dir.join("wal-0000000000000000.seg"), b"junk").unwrap();
        let entries = list_all(dir).unwrap();
        let listed: Vec<_> = entries.iter().map(|e| (e.next_seq, e.has_parent)).collect();
        assert_eq!(listed, [(7, true), (7, false), (30, false)]);
        // The idle delta at 7 extends the base at 7, never itself.
        let parent = parent_of(&entries, &entries[0]).unwrap().unwrap();
        assert_eq!(parent.path, entries[1].path);
        assert!(parent_of(&entries, &entries[1]).unwrap().is_none());
    }

    #[test]
    fn crafted_size_fields_fall_back_to_the_older_checkpoint() {
        // CRC-valid files whose size fields lie: each must read as corrupt,
        // so recovery falls back to the good base beside it.
        let g = sample_graph();
        let none: Option<(u64, &[u32])> = None;
        let cases: [(_, usize, &[u8]); 5] = [
            // num_rows past the u32 row space, on a base and an empty delta.
            (none, 36, &(1u64 << 61).to_le_bytes()),
            (Some((1, &[][..])), 36, &(1u64 << 62).to_le_bytes()),
            // A delta with fewer rows than its parent.
            (Some((1, &[][..])), 36, &4u64.to_le_bytes()),
            // row_count no body can hold.
            (none, 44, &u64::MAX.to_le_bytes()),
            // The first row's len runs past the body.
            (none, HEADER_BYTES + 4, &u32::MAX.to_le_bytes()),
        ];
        for (i, (parent, offset, bytes)) in cases.into_iter().enumerate() {
            let tmp = TempDir::new(&format!("crafted{i}"));
            let dir = tmp.path();
            write(dir, &Checkpoint::capture(&g, 1, None)).unwrap();
            let path = write(dir, &Checkpoint::capture(&g, 2, parent)).unwrap();
            patch(&path, offset, bytes);
            let r = recover(dir, DynamicGraph::default).unwrap();
            assert_eq!(r.stats.corrupt_checkpoints, 1, "case {i}");
            assert_eq!(r.stats.checkpoint_seq, 1, "case {i}");
            assert_eq!(r.graph.snapshot(), g.snapshot(), "case {i}");
        }
    }
}
