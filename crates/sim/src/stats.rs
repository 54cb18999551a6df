//! Memory-system statistics.

use serde::Serialize;
use std::ops::{AddAssign, Sub};

/// Counters for the simulated memory hierarchy.
///
/// # Examples
///
/// ```
/// use cisgraph_sim::MemStats;
///
/// let mut s = MemStats::default();
/// s.spm_hits = 90;
/// s.spm_misses = 10;
/// assert_eq!(s.spm_hit_rate(), 0.9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct MemStats {
    /// DRAM read bursts issued.
    pub dram_reads: u64,
    /// DRAM write bursts issued.
    pub dram_writes: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activates and conflicts).
    pub row_misses: u64,
    /// Scratchpad hits.
    pub spm_hits: u64,
    /// Scratchpad misses.
    pub spm_misses: u64,
    /// Dirty lines written back on eviction.
    pub spm_writebacks: u64,
    /// Cycles the DRAM data buses were busy transferring, summed over
    /// channels (divide by `channels × elapsed` for utilization).
    pub bus_busy_cycles: u64,
}

impl MemStats {
    /// SPM hit rate in `[0, 1]` (`0` when no accesses happened).
    pub fn spm_hit_rate(&self) -> f64 {
        let total = self.spm_hits + self.spm_misses;
        if total == 0 {
            0.0
        } else {
            self.spm_hits as f64 / total as f64
        }
    }

    /// Row-buffer hit rate in `[0, 1]` (`0` when DRAM was never touched).
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Total DRAM traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

impl AddAssign for MemStats {
    fn add_assign(&mut self, rhs: Self) {
        self.dram_reads += rhs.dram_reads;
        self.dram_writes += rhs.dram_writes;
        self.dram_read_bytes += rhs.dram_read_bytes;
        self.dram_write_bytes += rhs.dram_write_bytes;
        self.row_hits += rhs.row_hits;
        self.row_misses += rhs.row_misses;
        self.spm_hits += rhs.spm_hits;
        self.spm_misses += rhs.spm_misses;
        self.spm_writebacks += rhs.spm_writebacks;
        self.bus_busy_cycles += rhs.bus_busy_cycles;
    }
}

impl Sub for MemStats {
    type Output = Self;

    /// Field-wise difference: the activity between two snapshots of the
    /// same monotone counters (`later - earlier`).
    fn sub(self, rhs: Self) -> Self {
        Self {
            dram_reads: self.dram_reads - rhs.dram_reads,
            dram_writes: self.dram_writes - rhs.dram_writes,
            dram_read_bytes: self.dram_read_bytes - rhs.dram_read_bytes,
            dram_write_bytes: self.dram_write_bytes - rhs.dram_write_bytes,
            row_hits: self.row_hits - rhs.row_hits,
            row_misses: self.row_misses - rhs.row_misses,
            spm_hits: self.spm_hits - rhs.spm_hits,
            spm_misses: self.spm_misses - rhs.spm_misses,
            spm_writebacks: self.spm_writebacks - rhs.spm_writebacks,
            bus_busy_cycles: self.bus_busy_cycles - rhs.bus_busy_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero() {
        let s = MemStats::default();
        assert_eq!(s.spm_hit_rate(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.dram_bytes(), 0);
    }

    #[test]
    fn add_assign() {
        let mut a = MemStats {
            dram_reads: 1,
            spm_hits: 2,
            ..MemStats::default()
        };
        let b = MemStats {
            dram_reads: 3,
            spm_misses: 4,
            ..MemStats::default()
        };
        a += b;
        assert_eq!(a.dram_reads, 4);
        assert_eq!(a.spm_hits, 2);
        assert_eq!(a.spm_misses, 4);
    }

    /// Stats whose `i`-th field (1-based, declaration order) is `f(i)`.
    fn numbered(f: impl Fn(u64) -> u64) -> MemStats {
        MemStats {
            dram_reads: f(1),
            dram_writes: f(2),
            dram_read_bytes: f(3),
            dram_write_bytes: f(4),
            row_hits: f(5),
            row_misses: f(6),
            spm_hits: f(7),
            spm_misses: f(8),
            spm_writebacks: f(9),
            bus_busy_cycles: f(10),
        }
    }

    #[test]
    fn sub_is_the_field_wise_delta() {
        let (later, earlier) = (numbered(|i| 100 * i), numbered(|i| i));
        assert_eq!(later - earlier, numbered(|i| 99 * i));
    }
}
