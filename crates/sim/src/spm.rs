//! Scratchpad (eDRAM) model, organized as a cache (CACTI substitute).
//!
//! # Host representation
//!
//! The Table I scratchpad has 524,288 line slots (32 MB / 64 B) in 16-way
//! sets, and every simulated access looks up one set. The tag store is
//! therefore kept as three per-way arrays rather than one array of line
//! records, so a lookup scans only the set's tags:
//!
//! * `tags: Vec<u32>` holds `line / num_sets + 1` for a resident line and
//!   0 for an invalid way. A 16-way set's tags fill one 64-byte host cache
//!   line. The set index is `line % num_sets`, so the line (and the
//!   write-back address of a dirty victim) is rebuilt from the tag and the
//!   set. A tag that does not fit in `u32` panics rather than alias.
//! * `stamps: Vec<u64>` holds the LRU stamp of the way's last touch; an
//!   invalid way keeps stamp 0.
//! * `dirty: Vec<bool>` holds the dirty bits.
//!
//! All three start zeroed, which is the empty scratchpad, so building one
//! costs three zeroed allocations and no write to any slot.
//!
//! The replacement rule is that of a record per line ordered by
//! `(valid, lru)`: a miss fills the first invalid way, else the way with the
//! least stamp. Every touch stamps a fresh tick of at least 1, so invalid
//! ways are exactly those with stamp 0 and the first least stamp names that
//! victim. The layout is host bookkeeping only: hits, misses, write-backs
//! and their order are those of the record model, which
//! `tests/proptest_spm.rs` replays as its reference.

use crate::Cycle;
use serde::Serialize;

/// Geometry and latency of the on-chip scratchpad (Table I: 32 MB eDRAM
/// @ 2 GHz, 0.8 ns access — ≈1 accelerator cycle at 1 GHz).
///
/// # Examples
///
/// ```
/// use cisgraph_sim::SpmConfig;
///
/// let cfg = SpmConfig::date2025();
/// assert_eq!(cfg.capacity_bytes, 32 * 1024 * 1024);
/// assert_eq!(cfg.access_latency, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SpmConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in accelerator cycles (0.8 ns @ 1 GHz rounds to 1).
    pub access_latency: Cycle,
}

impl SpmConfig {
    /// The Table I configuration.
    pub const fn date2025() -> Self {
        Self {
            capacity_bytes: 32 * 1024 * 1024,
            line_bytes: 64,
            ways: 16,
            access_latency: 1,
        }
    }

    /// Overrides the capacity (sensitivity sweeps).
    ///
    /// # Panics
    ///
    /// [`Spm::new`] panics if the resulting geometry is degenerate.
    #[must_use]
    pub const fn with_capacity(mut self, bytes: u64) -> Self {
        self.capacity_bytes = bytes;
        self
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.capacity_bytes / self.line_bytes) as usize / self.ways
    }
}

impl Default for SpmConfig {
    fn default() -> Self {
        Self::date2025()
    }
}

/// Result of one SPM lookup.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpmAccess {
    /// Lines that must be fetched from DRAM (line-aligned addresses).
    pub miss_lines: Vec<u64>,
    /// Dirty lines evicted by the fills (line-aligned addresses).
    pub writebacks: Vec<u64>,
    /// Whether every touched line was already resident.
    pub all_hit: bool,
}

/// The scratchpad: a set-associative, write-back, write-allocate cache.
///
/// The accelerator stores vertex states, prefetched edge lists, and batch
/// data here; evictions keep it correct when the working set exceeds 32 MB
/// ("SPM is organized as cache to enable evictions", §III-B).
///
/// # Examples
///
/// ```
/// use cisgraph_sim::{Spm, SpmConfig};
///
/// let mut spm = Spm::new(SpmConfig::date2025());
/// let first = spm.read(0x40, 8);
/// assert_eq!(first.miss_lines, vec![0x40]);
/// let second = spm.read(0x40, 8);
/// assert!(second.all_hit);
/// ```
#[derive(Debug, Clone)]
pub struct Spm {
    config: SpmConfig,
    num_sets: usize,
    /// Per-way tags, every set's ways back to back (set `s` is
    /// `tags[s * ways..(s + 1) * ways]`): `line / num_sets + 1` for a
    /// resident line, 0 for an invalid way.
    tags: Vec<u32>,
    /// Per-way LRU stamps (larger = more recent); 0 exactly while the way
    /// is invalid, since every touch stamps a tick of at least 1.
    stamps: Vec<u64>,
    /// Per-way dirty bits.
    dirty: Vec<bool>,
    /// Number of valid ways; only fills of invalid ways change it.
    occupied: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Spm {
    /// Builds an empty scratchpad.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways).
    pub fn new(config: SpmConfig) -> Self {
        let sets = config.num_sets();
        assert!(sets > 0, "spm must have at least one set");
        assert!(config.ways > 0, "spm must have at least one way");
        let slots = sets * config.ways;
        Self {
            config,
            num_sets: sets,
            // All-zero arrays: an empty scratchpad costs one zeroed
            // allocation per array, not a pass over every slot.
            tags: vec![0; slots],
            stamps: vec![0; slots],
            dirty: vec![false; slots],
            occupied: 0,
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SpmConfig {
        &self.config
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// The access latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.config.access_latency
    }

    /// Number of lines currently resident (valid), i.e. the scratchpad
    /// occupancy. Grows monotonically from zero until the working set fills
    /// the geometry, then saturates at [`Spm::total_lines`].
    pub fn occupied_lines(&self) -> usize {
        self.occupied
    }

    /// Total line slots in the geometry (`sets × ways`).
    pub fn total_lines(&self) -> usize {
        self.tags.len()
    }

    fn touch_line(&mut self, line: u64, write: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        let num_sets = self.num_sets as u64;
        let set = (line % num_sets) as usize;
        let tag = u32::try_from(line / num_sets + 1).expect("spm tag overflows u32");
        let ways = self.config.ways;
        let base = set * ways;
        let range = base..base + ways;
        if let Some(way) = self.tags[range.clone()].iter().position(|&t| t == tag) {
            self.stamps[base + way] = self.tick;
            if write {
                self.dirty[base + way] = true;
            }
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        // Choose a victim: the first invalid way, else the least recently
        // used. Invalid ways carry stamp 0 and valid ones a unique stamp of
        // at least 1, so the first least stamp is exactly
        // `min_by_key((valid, lru))`.
        let victim = base
            + self.stamps[range]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map(|(i, _)| i)
                .expect("ways > 0");
        let old = self.tags[victim];
        let writeback = if old == 0 {
            self.occupied += 1;
            None
        } else if self.dirty[victim] {
            self.writebacks += 1;
            // Rebuild the victim's address from its tag and set.
            Some((u64::from(old - 1) * num_sets + set as u64) * self.config.line_bytes)
        } else {
            None
        };
        self.tags[victim] = tag;
        self.stamps[victim] = self.tick;
        self.dirty[victim] = write;
        (false, writeback)
    }

    /// Looks up an access spanning `bytes` at `addr`, replacing the
    /// contents of `miss_lines` with the lines to fetch from DRAM and of
    /// `writebacks` with the dirty victims their fills evicted, both in
    /// line order. Returns whether every touched line was resident.
    pub(crate) fn access_into(
        &mut self,
        addr: u64,
        bytes: u64,
        write: bool,
        miss_lines: &mut Vec<u64>,
        writebacks: &mut Vec<u64>,
    ) -> bool {
        miss_lines.clear();
        writebacks.clear();
        let bytes = bytes.max(1);
        let lb = self.config.line_bytes;
        let first = addr / lb;
        let last = (addr + bytes - 1) / lb;
        for line in first..=last {
            let (hit, wb) = self.touch_line(line, write);
            if !hit {
                miss_lines.push(line * lb);
            }
            if let Some(wb) = wb {
                writebacks.push(wb);
            }
        }
        miss_lines.is_empty()
    }

    fn access(&mut self, addr: u64, bytes: u64, write: bool) -> SpmAccess {
        let (mut miss_lines, mut writebacks) = (Vec::new(), Vec::new());
        let all_hit = self.access_into(addr, bytes, write, &mut miss_lines, &mut writebacks);
        SpmAccess {
            miss_lines,
            writebacks,
            all_hit,
        }
    }

    /// Looks up a read; returns which lines miss and which dirty victims
    /// must be written back.
    pub fn read(&mut self, addr: u64, bytes: u64) -> SpmAccess {
        self.access(addr, bytes, false)
    }

    /// Looks up a write (write-allocate, write-back).
    pub fn write(&mut self, addr: u64, bytes: u64) -> SpmAccess {
        self.access(addr, bytes, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spm {
        // 4 sets x 2 ways x 64B = 512B
        Spm::new(SpmConfig {
            capacity_bytes: 512,
            line_bytes: 64,
            ways: 2,
            access_latency: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut s = tiny();
        assert!(!s.read(0, 8).all_hit);
        assert!(s.read(0, 8).all_hit);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn multi_line_access_reports_each_miss() {
        let mut s = tiny();
        let r = s.read(0, 130); // spans lines 0, 64, 128
        assert_eq!(r.miss_lines, vec![0, 64, 128]);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut s = tiny();
        // Set 0 holds lines 0 and 256 (4 sets * 64 = 256 stride).
        s.read(0, 8);
        s.read(256, 8);
        s.read(0, 8); // refresh line 0
        let r = s.read(512, 8); // evicts 256, not 0
        assert!(!r.all_hit);
        assert!(s.read(0, 8).all_hit, "line 0 must have survived");
        assert!(!s.read(256, 8).all_hit, "line 256 was the LRU victim");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut s = tiny();
        s.write(0, 8);
        s.read(256, 8);
        let r = s.read(512, 8); // evicts dirty line 0
        assert_eq!(r.writebacks, vec![0]);
        assert_eq!(s.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut s = tiny();
        s.read(0, 8);
        s.read(256, 8);
        let r = s.read(512, 8);
        assert!(r.writebacks.is_empty());
    }

    #[test]
    fn date2025_geometry() {
        let cfg = SpmConfig::date2025();
        assert_eq!(cfg.num_sets(), 32 * 1024 * 1024 / 64 / 16);
        let s = Spm::new(cfg);
        assert_eq!(s.latency(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn degenerate_geometry_panics() {
        let _ = Spm::new(SpmConfig {
            capacity_bytes: 64,
            line_bytes: 64,
            ways: 2,
            access_latency: 1,
        });
    }

    #[test]
    fn fills_take_the_first_invalid_way_and_count_occupancy() {
        let cfg = SpmConfig::date2025();
        let mut s = Spm::new(cfg.with_capacity(2 * cfg.ways as u64 * cfg.line_bytes));
        let sets = s.num_sets as u64;
        // Lines of set 1, in order; 40 of them wrap the 16 ways twice.
        for (i, k) in (0..40u64).enumerate() {
            s.write((k * sets + 1) * cfg.line_bytes, 8);
            let set = &s.tags[cfg.ways..2 * cfg.ways];
            let filled = (i + 1).min(cfg.ways);
            assert!(set[..filled].iter().all(|&t| t != 0), "after {i}: {set:?}");
            assert!(set[filled..].iter().all(|&t| t == 0), "after {i}: {set:?}");
            let scan = s.tags.iter().filter(|&&t| t != 0).count();
            assert_eq!(s.occupied_lines(), scan);
            assert_eq!(s.occupied_lines(), filled);
        }
        // The 16 newest lines stayed; the rest were written back in order.
        assert_eq!(s.writebacks(), 40 - cfg.ways as u64);
    }

    #[test]
    fn write_then_read_hits() {
        let mut s = tiny();
        s.write(128, 8);
        assert!(s.read(128, 8).all_hit);
    }
}
