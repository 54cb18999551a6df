//! Scratchpad (eDRAM) model, organized as a cache (CACTI substitute).

use crate::Cycle;
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp (larger = more recent).
    lru: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

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
    /// Every set's ways, back to back: set `s` is
    /// `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<Line>,
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
        Self {
            config,
            num_sets: sets,
            lines: vec![INVALID; sets * config.ways],
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
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Total line slots in the geometry (`sets × ways`).
    pub fn total_lines(&self) -> usize {
        self.lines.len()
    }

    fn set_and_tag(&self, line_addr: u64) -> (usize, u64) {
        let line = line_addr / self.config.line_bytes;
        let set = (line % self.num_sets as u64) as usize;
        (set, line)
    }

    fn touch_line(&mut self, line_addr: u64, write: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        let (set_idx, tag) = self.set_and_tag(line_addr);
        let line_bytes = self.config.line_bytes;
        let ways = self.config.ways;
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            line.dirty |= write;
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        // Choose a victim: invalid first, else LRU.
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| (l.valid, l.lru))
            .map(|(i, _)| i)
            .expect("ways > 0");
        let victim = set[victim_idx];
        let writeback = if victim.valid && victim.dirty {
            self.writebacks += 1;
            // Reconstruct the victim's address from its tag.
            Some(victim.tag * line_bytes)
        } else {
            None
        };
        set[victim_idx] = Line {
            tag,
            valid: true,
            dirty: write,
            lru: self.tick,
        };
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
            let line_addr = line * lb;
            let (hit, wb) = self.touch_line(line_addr, write);
            if !hit {
                miss_lines.push(line_addr);
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
    fn write_then_read_hits() {
        let mut s = tiny();
        s.write(128, 8);
        assert!(s.read(128, 8).all_hit);
    }
}
