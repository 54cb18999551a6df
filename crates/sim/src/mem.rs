//! The combined memory system: scratchpad in front of DRAM.

use crate::{Cycle, DramConfig, DramModel, MemStats, Spm, SpmConfig};

/// SPM + DRAM glued together, the way the accelerator's prefetchers see
/// memory: a read that hits the SPM costs its access latency; a miss
/// fetches the missing lines over the appropriate DRAM channels, installs
/// them (possibly writing back dirty victims), and completes when the last
/// line arrives.
///
/// # Examples
///
/// ```
/// use cisgraph_sim::{DramConfig, MemorySystem, SpmConfig};
///
/// let mut mem = MemorySystem::new(SpmConfig::date2025(), DramConfig::ddr4_3200());
/// let cold = mem.read(0, 64, 0);
/// let hot = mem.read(0, 64, cold) - cold;
/// assert!(hot < cold);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    spm: Spm,
    dram: DramModel,
    /// Per-access SPM results, reused so an access allocates nothing.
    miss_lines: Vec<u64>,
    writebacks: Vec<u64>,
}

impl MemorySystem {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics on degenerate SPM geometry or a zero-channel DRAM config.
    pub fn new(spm: SpmConfig, dram: DramConfig) -> Self {
        Self {
            spm: Spm::new(spm),
            dram: DramModel::new(dram),
            miss_lines: Vec::new(),
            writebacks: Vec::new(),
        }
    }

    /// Reads `bytes` at `addr`; returns the completion cycle.
    pub fn read(&mut self, addr: u64, bytes: u64, now: Cycle) -> Cycle {
        self.access(addr, bytes, false, now)
    }

    /// Writes `bytes` at `addr` (write-allocate); returns the completion
    /// cycle of the SPM update — the DRAM fill of a missing line overlaps.
    pub fn write(&mut self, addr: u64, bytes: u64, now: Cycle) -> Cycle {
        self.access(addr, bytes, true, now)
    }

    fn access(&mut self, addr: u64, bytes: u64, write: bool, now: Cycle) -> Cycle {
        self.spm.access_into(
            addr,
            bytes,
            write,
            &mut self.miss_lines,
            &mut self.writebacks,
        );
        let line_bytes = self.spm.config().line_bytes;
        let latency = self.spm.latency();
        for &wb in &self.writebacks {
            // Write-backs drain in the background; they occupy the channel
            // but do not delay this access.
            self.dram.write(wb, line_bytes, now);
        }
        let mut done = now + latency;
        for &line in &self.miss_lines {
            // A read miss, or write-allocate: the line is fetched before
            // the access completes.
            done = done.max(self.dram.read(line, line_bytes, now) + latency);
        }
        done
    }

    /// Quiesces DRAM timing for a new batch timeline (see
    /// [`DramModel::quiesce`]); SPM contents and all statistics persist.
    pub fn quiesce(&mut self) {
        self.dram.quiesce();
    }

    /// Combined statistics of both levels.
    pub fn stats(&self) -> MemStats {
        let mut s = *self.dram.stats();
        s.spm_hits = self.spm.hits();
        s.spm_misses = self.spm.misses();
        s.spm_writebacks = self.spm.writebacks();
        s
    }

    /// Publishes the hierarchy's state to the [`cisgraph_obs`] registry as
    /// gauges: DRAM row-buffer hits/misses, reads/writes, SPM hits/misses/
    /// writebacks, and scratchpad occupancy (`sim.spm.occupancy_lines` out
    /// of `sim.spm.total_lines`). Gauges because the underlying statistics
    /// are cumulative — each publish overwrites with the latest value.
    /// No-op unless instrumentation is enabled.
    pub fn publish_obs(&self) {
        if !cisgraph_obs::enabled() {
            return;
        }
        let s = self.stats();
        cisgraph_obs::gauge("sim.dram.row_hits").set(s.row_hits);
        cisgraph_obs::gauge("sim.dram.row_misses").set(s.row_misses);
        cisgraph_obs::gauge("sim.dram.reads").set(s.dram_reads);
        cisgraph_obs::gauge("sim.dram.writes").set(s.dram_writes);
        cisgraph_obs::gauge("sim.spm.hits").set(s.spm_hits);
        cisgraph_obs::gauge("sim.spm.misses").set(s.spm_misses);
        cisgraph_obs::gauge("sim.spm.writebacks").set(s.spm_writebacks);
        cisgraph_obs::gauge("sim.spm.occupancy_lines").set(self.spm.occupied_lines() as u64);
        cisgraph_obs::gauge("sim.spm.total_lines").set(self.spm.total_lines() as u64);
    }

    /// The scratchpad level.
    pub fn spm(&self) -> &Spm {
        &self.spm
    }

    /// The DRAM level.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem::new(SpmConfig::date2025(), DramConfig::ddr4_3200())
    }

    #[test]
    fn hit_is_one_cycle() {
        let mut m = mem();
        let t1 = m.read(0, 8, 0);
        let t2 = m.read(0, 8, t1);
        assert_eq!(t2 - t1, 1, "SPM hit costs the 0.8ns latency");
    }

    #[test]
    fn miss_pays_dram() {
        let mut m = mem();
        let t = m.read(0, 8, 0);
        assert!(t > 10, "cold miss must include DRAM latency, got {t}");
        assert_eq!(m.stats().spm_misses, 1);
        assert_eq!(m.stats().dram_reads, 1);
    }

    #[test]
    fn spanning_read_fetches_all_lines() {
        let mut m = mem();
        m.read(0, 256, 0);
        assert_eq!(m.stats().dram_reads, 4); // 256 / 64
    }

    #[test]
    fn write_allocates() {
        let mut m = mem();
        m.write(0, 8, 0);
        assert_eq!(m.stats().spm_misses, 1);
        let t = m.read(0, 8, 100);
        assert_eq!(t, 101, "written line is resident");
    }

    #[test]
    fn occupancy_tracks_resident_lines() {
        let mut m = mem();
        assert_eq!(m.spm().occupied_lines(), 0);
        m.read(0, 256, 0); // 4 lines
        assert_eq!(m.spm().occupied_lines(), 4);
        assert!(m.spm().total_lines() >= 4);
    }

    #[test]
    fn publish_obs_exports_gauges() {
        cisgraph_obs::enable();
        let mut m = mem();
        m.read(0, 128, 0);
        m.publish_obs();
        assert_eq!(cisgraph_obs::gauge("sim.spm.occupancy_lines").get(), 2);
        assert_eq!(cisgraph_obs::gauge("sim.spm.misses").get(), 2);
        assert_eq!(
            cisgraph_obs::gauge("sim.dram.row_hits").get()
                + cisgraph_obs::gauge("sim.dram.row_misses").get(),
            2
        );
    }

    #[test]
    fn eviction_writes_back_dirty_lines() {
        // Tiny SPM to force evictions quickly.
        let spm = SpmConfig {
            capacity_bytes: 1024,
            line_bytes: 64,
            ways: 2,
            access_latency: 1,
        };
        let mut m = MemorySystem::new(spm, DramConfig::ddr4_3200());
        let sets = spm.num_sets() as u64; // 8
        let stride = sets * 64;
        m.write(0, 8, 0);
        m.write(stride, 8, 0);
        m.write(2 * stride, 8, 0); // evicts dirty line 0
        assert_eq!(m.stats().spm_writebacks, 1);
        assert_eq!(m.stats().dram_writes, 1);
    }
}
