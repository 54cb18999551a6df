//! The append-only write-ahead log.
//!
//! A [`Wal`] owns a directory of *segments* — files named
//! `wal-{first_seq:016x}.seg`, each holding consecutive frames (see
//! [`crate::frame`]) starting at the sequence number in the file name.
//! Appends go through a group-commit buffer: frames accumulate in memory
//! and reach the OS (and, per [`FsyncPolicy`], the disk) in batches, so
//! the fsync cost is amortized across appends instead of paid per batch.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

use bytes::BytesMut;
use cisgraph_types::EdgeUpdate;

use crate::frame::WalFrame;
use crate::Result;

/// Rotate to a fresh segment once the current one exceeds this size.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// Flush the group-commit buffer to the OS once it holds this much, even
/// when the fsync policy doesn't force a sync.
const GROUP_BUFFER_BYTES: usize = 256 << 10;

/// When appended data must reach stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended batch: no acknowledged batch is ever
    /// lost, at the cost of one disk round-trip per append.
    EveryBatch,
    /// `fsync` once every N appended batches (group durability): a crash
    /// loses at most the last N-1 batches.
    EveryN(u64),
    /// Never `fsync`; data reaches the OS when the buffer fills and the
    /// disk whenever the kernel feels like it. Fastest, weakest.
    Never,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    /// Parses the CLI spelling: `batch`, `off`, or a positive integer N
    /// meaning "every N batches".
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s {
            "batch" => Ok(Self::EveryBatch),
            "off" | "never" => Ok(Self::Never),
            n => match n.parse::<u64>() {
                Ok(0) => Err("fsync interval must be positive".to_owned()),
                Ok(1) => Ok(Self::EveryBatch),
                Ok(n) => Ok(Self::EveryN(n)),
                Err(_) => Err(format!("unknown fsync policy {s:?} (batch | off | <N>)")),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EveryBatch => f.write_str("batch"),
            Self::EveryN(n) => write!(f, "{n}"),
            Self::Never => f.write_str("off"),
        }
    }
}

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segments.
    pub dir: PathBuf,
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A config with the default fsync policy ([`FsyncPolicy::EveryBatch`])
    /// and segment size.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryBatch,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }
}

pub(crate) fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.seg")
}

pub(crate) fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// All segments in `dir` as `(first_seq, path)`, ascending by sequence.
pub(crate) fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first_seq) = entry.file_name().to_str().and_then(parse_segment_file_name) {
            segments.push((first_seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// The append side of the log. Reading it back is
/// [`recover`](crate::recover())'s job.
///
/// An append whose write, sync, or segment rotation fails is taken back —
/// its frame leaves the buffer and, best effort, the segment file — and
/// **poisons** the log: every later append, flush, or sync fails, and
/// `Drop` writes nothing, until the directory is reopened through
/// recovery. A failed append therefore never reaches disk later as a ghost
/// frame that recovery would replay.
#[derive(Debug)]
pub struct Wal {
    config: WalConfig,
    current: File,
    current_len: u64,
    next_seq: u64,
    pending: BytesMut,
    unsynced_appends: u64,
    poisoned: bool,
    /// Test hook: the next write to the segment file fails.
    #[cfg(test)]
    fail_next_write: bool,
}

impl Wal {
    /// Opens the log for appending, with `next_seq` as the sequence number
    /// the next [`append`](Self::append) will be assigned. A fresh segment
    /// named after `next_seq` is started (recovery has already truncated
    /// any damaged tail, so older segments are never written again).
    pub fn open(config: WalConfig, next_seq: u64) -> Result<Self> {
        fs::create_dir_all(&config.dir)?;
        let path = config.dir.join(segment_file_name(next_seq));
        let current = OpenOptions::new().create(true).append(true).open(&path)?;
        let current_len = current.metadata()?.len();
        Ok(Self {
            config,
            current,
            current_len,
            next_seq,
            pending: BytesMut::new(),
            unsynced_appends: 0,
            poisoned: false,
            #[cfg(test)]
            fail_next_write: false,
        })
    }

    /// The sequence number the next appended batch will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The configured durability policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.config.fsync
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(io::Error::other(
                "write-ahead log poisoned by an earlier failed append; reopen it",
            )
            .into());
        }
        Ok(())
    }

    /// Appends one batch as a frame and returns its assigned sequence
    /// number. When this returns, the batch is durable to the extent the
    /// configured [`FsyncPolicy`] promises — call [`sync`](Self::sync) for
    /// an unconditional barrier.
    ///
    /// # Errors
    ///
    /// On an I/O failure the batch is **not** logged: its frame is taken
    /// back, `next_seq` is restored, and the log is poisoned (see
    /// [`Wal`]). A poisoned log fails every append.
    pub fn append(&mut self, batch: &[EdgeUpdate]) -> Result<u64> {
        self.check_poisoned()?;
        let obs_on = cisgraph_obs::enabled();
        let start = obs_on.then(Instant::now);
        let seq = self.next_seq;
        let unsynced_before = self.unsynced_appends;
        let pending_before = self.pending.len();
        // Where the frame lands in the current segment once flushed.
        let frame_offset = self.current_len + pending_before as u64;
        let encoded = WalFrame::encode(seq, batch, &mut self.pending) as u64;
        self.next_seq += 1;
        self.unsynced_appends += 1;

        if let Err(e) = self.commit() {
            self.take_back(seq, unsynced_before, pending_before, frame_offset);
            return Err(e);
        }

        if obs_on {
            cisgraph_obs::counter("persist.wal.appended_batches").inc();
            cisgraph_obs::counter("persist.wal.appended_updates").add(batch.len() as u64);
            cisgraph_obs::counter("persist.wal.bytes_written").add(encoded);
            if let Some(start) = start {
                cisgraph_obs::histogram("persist.wal.append_ns")
                    .record(start.elapsed().as_nanos() as u64);
            }
        }
        Ok(seq)
    }

    /// Pushes the just-encoded frame as far as the policy asks: a sync,
    /// a buffer flush, and a segment rotation as needed.
    fn commit(&mut self) -> Result<()> {
        let must_sync = match self.config.fsync {
            FsyncPolicy::EveryBatch => true,
            FsyncPolicy::EveryN(n) => self.unsynced_appends >= n,
            FsyncPolicy::Never => false,
        };
        if must_sync {
            self.sync()?;
        } else if self.pending.len() >= GROUP_BUFFER_BYTES {
            self.flush()?;
        }
        if self.current_len + self.pending.len() as u64 >= self.config.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Undoes a failed append and poisons the log. The frame may already
    /// sit in the segment file (the write succeeded but the sync or
    /// rotation did not), so the file is cut back to where the frame
    /// started; that is best effort, as the disk is already failing.
    fn take_back(&mut self, seq: u64, unsynced: u64, pending_len: usize, frame_offset: u64) {
        self.poisoned = true;
        self.next_seq = seq;
        self.unsynced_appends = unsynced;
        // A failed flush leaves the whole buffer in place; drop the frame.
        self.pending.truncate(pending_len);
        if self
            .current
            .metadata()
            .is_ok_and(|m| m.len() > frame_offset)
        {
            let _ = self.current.set_len(frame_offset);
        }
        self.current_len = self.current_len.min(frame_offset);
    }

    /// Writes the group-commit buffer to the OS without forcing it to disk.
    pub fn flush(&mut self) -> Result<()> {
        self.check_poisoned()?;
        if !self.pending.is_empty() {
            #[cfg(test)]
            if std::mem::take(&mut self.fail_next_write) {
                return Err(io::Error::other("injected write failure").into());
            }
            self.current.write_all(&self.pending)?;
            self.current_len += self.pending.len() as u64;
            self.pending.clear();
        }
        Ok(())
    }

    /// Flushes the buffer and `fsync`s the current segment: everything
    /// appended so far is durable when this returns.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        if self.unsynced_appends == 0 {
            return Ok(());
        }
        let start = cisgraph_obs::enabled().then(Instant::now);
        self.current.sync_data()?;
        self.unsynced_appends = 0;
        if let Some(start) = start {
            cisgraph_obs::counter("persist.wal.fsyncs").inc();
            cisgraph_obs::histogram("persist.wal.fsync_ns")
                .record(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Closes the current segment (durably) and starts a fresh one named
    /// after the next sequence number.
    fn rotate(&mut self) -> Result<()> {
        self.flush()?;
        self.current.sync_data()?;
        self.unsynced_appends = 0;
        let path = self.config.dir.join(segment_file_name(self.next_seq));
        self.current = OpenOptions::new().create(true).append(true).open(&path)?;
        self.current_len = self.current.metadata()?.len();
        if cisgraph_obs::enabled() {
            cisgraph_obs::counter("persist.wal.segments_rotated").inc();
        }
        Ok(())
    }
}

impl Drop for Wal {
    /// Best-effort flush so a graceful shutdown under [`FsyncPolicy::Never`]
    /// doesn't discard the buffered tail. Errors are ignored — a crash
    /// wouldn't have run this at all, and recovery handles the result. A
    /// poisoned log writes nothing: it ends as if the process had crashed
    /// at the failed append.
    fn drop(&mut self) {
        if !self.poisoned {
            let _ = self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameDecode;
    use crate::temp_dir::TempDir;
    use cisgraph_types::{VertexId, Weight};

    fn upd(i: u32) -> EdgeUpdate {
        EdgeUpdate::insert(VertexId::new(i), VertexId::new(i + 1), Weight::ONE)
    }

    fn decode_all(path: &Path) -> Vec<WalFrame> {
        let bytes = fs::read(path).unwrap();
        let mut frames = Vec::new();
        let mut off = 0;
        loop {
            match WalFrame::decode(&bytes[off..]) {
                FrameDecode::Frame { frame, consumed } => {
                    frames.push(frame);
                    off += consumed;
                }
                FrameDecode::Eof => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        frames
    }

    #[test]
    fn policy_parsing() {
        assert_eq!("batch".parse::<FsyncPolicy>(), Ok(FsyncPolicy::EveryBatch));
        assert_eq!("1".parse::<FsyncPolicy>(), Ok(FsyncPolicy::EveryBatch));
        assert_eq!("64".parse::<FsyncPolicy>(), Ok(FsyncPolicy::EveryN(64)));
        assert_eq!("off".parse::<FsyncPolicy>(), Ok(FsyncPolicy::Never));
        assert!("0".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::EveryN(8).to_string(), "8");
    }

    #[test]
    fn segment_names_round_trip() {
        let name = segment_file_name(0xDEAD_BEEF);
        assert_eq!(parse_segment_file_name(&name), Some(0xDEAD_BEEF));
        assert_eq!(parse_segment_file_name("wal-zz.seg"), None);
        assert_eq!(parse_segment_file_name("ckpt-0.ckpt"), None);
    }

    #[test]
    fn appends_assign_consecutive_seqs_and_survive_sync() {
        let tmp = TempDir::new("seqs");
        let dir = tmp.path();
        let mut wal = Wal::open(WalConfig::new(dir), 10).unwrap();
        for i in 0..5u32 {
            let seq = wal.append(&[upd(i)]).unwrap();
            assert_eq!(seq, 10 + u64::from(i));
        }
        drop(wal);
        let segments = list_segments(dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].0, 10);
        let frames = decode_all(&segments[0].1);
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[0].seq, 10);
        assert_eq!(frames[4].seq, 14);
    }

    #[test]
    fn never_policy_buffers_until_drop() {
        let tmp = TempDir::new("buffered");
        let dir = tmp.path();
        let mut cfg = WalConfig::new(dir);
        cfg.fsync = FsyncPolicy::Never;
        let mut wal = Wal::open(cfg, 0).unwrap();
        wal.append(&[upd(1), upd(2)]).unwrap();
        // Still buffered: the segment file on disk is empty.
        let (_, path) = list_segments(dir).unwrap().pop().unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        drop(wal); // graceful shutdown flushes
        assert_eq!(decode_all(&path).len(), 1);
    }

    #[test]
    fn rotation_splits_the_stream_across_segments() {
        let tmp = TempDir::new("rotate");
        let dir = tmp.path();
        let mut cfg = WalConfig::new(dir);
        cfg.segment_bytes = 256; // tiny, to force rotation
        let mut wal = Wal::open(cfg, 0).unwrap();
        for i in 0..40u32 {
            wal.append(&[upd(i)]).unwrap();
        }
        drop(wal);
        let segments = list_segments(dir).unwrap();
        assert!(segments.len() > 1, "expected rotation, got one segment");
        let mut want = 0u64;
        for (first_seq, path) in &segments {
            let frames = decode_all(path);
            if frames.is_empty() {
                continue; // trailing empty segment opened by the last rotation
            }
            assert_eq!(frames[0].seq, *first_seq);
            for f in &frames {
                assert_eq!(f.seq, want);
                want += 1;
            }
        }
        assert_eq!(want, 40);
    }

    /// Regression: a failed segment rotation used to leave the frame it
    /// had already written and synced in the old segment, so recovery
    /// replayed a batch `append` reported as failed. A directory squatting
    /// on the next segment's name makes the rotation fail even as root.
    #[test]
    fn failed_rotation_takes_the_frame_back_and_poisons() {
        let tmp = TempDir::new("rotate_fail");
        let dir = tmp.path();
        let mut cfg = WalConfig::new(dir);
        cfg.segment_bytes = 1; // rotate after every append
        let mut wal = Wal::open(cfg, 0).unwrap();
        assert_eq!(wal.append(&[upd(0)]).unwrap(), 0);
        fs::create_dir(dir.join(segment_file_name(2))).unwrap();
        assert!(wal.append(&[upd(1)]).is_err());
        assert!(wal.poisoned);
        assert_eq!(wal.next_seq(), 1, "the failed frame's seq is reused");
        assert!(
            wal.append(&[upd(2)]).is_err(),
            "a poisoned log refuses appends"
        );
        drop(wal);
        let seg1 = dir.join(segment_file_name(1));
        assert!(
            decode_all(&seg1).is_empty(),
            "the failed frame left the file"
        );
        assert_eq!(decode_all(&dir.join(segment_file_name(0))).len(), 1);
    }

    /// Regression: a failed flush used to leave the frame in the
    /// group-commit buffer, and the next append or `Drop` wrote it out.
    #[test]
    fn failed_write_never_reaches_disk_later() {
        let tmp = TempDir::new("write_fail");
        let dir = tmp.path();
        let mut wal = Wal::open(WalConfig::new(dir), 0).unwrap();
        wal.append(&[upd(0)]).unwrap();
        wal.fail_next_write = true;
        assert!(wal.append(&[upd(1)]).is_err());
        assert_eq!(wal.next_seq(), 1);
        assert!(
            wal.append(&[upd(2)]).is_err(),
            "a poisoned log refuses appends"
        );
        assert!(wal.sync().is_err(), "and refuses to write its buffer");
        drop(wal);
        let (_, path) = list_segments(dir).unwrap().pop().unwrap();
        let frames = decode_all(&path);
        assert_eq!(frames.len(), 1, "only the acknowledged frame is on disk");
        assert_eq!(frames[0].seq, 0);
    }
}
