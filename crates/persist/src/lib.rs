//! Durability for the CISGraph streaming-graph engines: a write-ahead log
//! of update batches plus row-set checkpoints, so a crashed or restarted
//! server resumes from `latest checkpoint + WAL tail` instead of replaying
//! the whole stream from the initial load.
//!
//! Three layers cooperate (see `docs/persistence.md` for the format
//! diagrams and the fsync-policy tradeoffs):
//!
//! * [`Wal`] — an append-only, segment-rotated log of
//!   [`EdgeUpdate`](cisgraph_types::EdgeUpdate)
//!   batches. Every batch is one CRC32-framed, length-prefixed binary
//!   frame carrying a monotonically increasing sequence number; a
//!   group-commit buffer plus a configurable [`FsyncPolicy`] trade
//!   durability for append throughput.
//! * [`checkpoint`] — row-set checkpoints: a base lists every non-empty
//!   out-adjacency row of a [`DynamicGraph`](cisgraph_graph::DynamicGraph),
//!   a delta only the rows changed since its parent, each with the WAL
//!   replay position, so recovery only replays the frames logged *after*
//!   the checkpoint chain.
//! * [`recover`](recover()) — loads the newest intact checkpoint chain,
//!   scans the segments it does not fully cover, **tolerates and
//!   truncates** a torn or bit-flipped
//!   tail (detected by the per-frame CRC), replays the surviving frames,
//!   and hands back a graph whose
//!   materialized [`Snapshot`](cisgraph_graph::Snapshot) is byte-identical
//!   to an uninterrupted run — the crash-recovery property the root
//!   durability harness (`tests/durability.rs`) pins down.
//!
//! [`DurableStore`] bundles the three into the one handle the serving
//! layer and the bench harness use: open (which recovers), log each
//! applied batch (undoing it if the log refuses it), checkpoint every N
//! batches.
//!
//! When the [`cisgraph_obs`] sink is enabled, every layer records into the
//! `persist.*` counter/histogram family (bytes written, fsync latency,
//! replay rate); see `docs/persistence.md`.
//!
//! # Examples
//!
//! ```
//! use cisgraph_graph::DynamicGraph;
//! use cisgraph_persist::{DurableStore, PersistConfig};
//! use cisgraph_types::{EdgeUpdate, VertexId, Weight};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join("cisgraph_persist_doctest");
//! std::fs::remove_dir_all(&dir).ok();
//!
//! // First open: nothing on disk, the bootstrap graph is checkpointed.
//! let cfg = PersistConfig::new(&dir);
//! let (mut store, recovered) = DurableStore::open(cfg.clone(), || DynamicGraph::new(3))?;
//! assert_eq!(recovered.stats.replayed_batches, 0);
//! let mut graph = recovered.graph;
//!
//! let batch = [EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::ONE)];
//! let undo = graph.apply_batch_undoable(&batch)?; // atomic apply ...
//! if let Err(e) = store.log_batch(&batch) {
//!     graph.undo(undo); // ... reverted if the log refuses the batch
//!     return Err(e.into());
//! }
//! drop(store);
//!
//! // Second open: the logged batch is replayed onto the checkpoint.
//! let (_store, recovered) = DurableStore::open(cfg, || DynamicGraph::new(3))?;
//! assert_eq!(recovered.stats.replayed_batches, 1);
//! assert_eq!(recovered.graph.snapshot(), graph.snapshot());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod crc;
mod error;
mod frame;
pub mod recover;
mod store;
mod wal;

// The scratch-directory guard the root integration tests use, shared so
// there is one.
#[cfg(test)]
#[path = "../../../tests/temp_dir/mod.rs"]
mod temp_dir;

/// Writes `bytes` atomically at `path`: temp sibling, fsync, rename, then
/// a best-effort directory sync so the rename itself survives a crash that
/// follows immediately. A crash at any step leaves at worst a stale `.tmp`
/// file that recovery and listing ignore.
pub(crate) fn atomic_write(
    dir: &std::path::Path,
    path: &std::path::Path,
    bytes: &[u8],
) -> Result<()> {
    use std::io::Write;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .expect("atomic_write target has a utf-8 file name");
    let tmp = dir.join(format!("{file_name}.tmp"));
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_data();
    }
    Ok(())
}

/// A little-endian read cursor over a byte slice, the decoding half of the
/// frame and checkpoint codecs (which encode with `to_le_bytes`). Callers
/// check lengths first; reading past the end panics.
pub(crate) struct LeReader<'a>(&'a [u8]);

impl<'a> LeReader<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self(bytes)
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.0.len()
    }

    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self
            .0
            .split_first_chunk()
            .unwrap_or_else(|| panic!("read of {N} bytes past the end of a checked buffer"));
        self.0 = rest;
        *head
    }

    pub(crate) fn u8(&mut self) -> u8 {
        self.take::<1>()[0]
    }

    pub(crate) fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    pub(crate) fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }

    pub(crate) fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take())
    }
}

pub use crc::crc32;
pub use error::PersistError;
pub use frame::{FrameDecode, WalFrame, FRAME_HEADER_BYTES, UPDATE_BYTES, WAL_FRAME_MAGIC};
pub use recover::{recover, Recovered, RecoveryStats};
pub use store::{snapshot_digest, CheckpointMode, DurableStore, PersistConfig};
pub use wal::{FsyncPolicy, Wal, WalConfig, DEFAULT_SEGMENT_BYTES};

/// Convenience alias for this crate's results.
pub type Result<T> = std::result::Result<T, PersistError>;
