//! DDR4 channel/bank timing model (DRAMSim3 substitute).

use crate::{Cycle, MemStats};
use serde::Serialize;

/// Timing and geometry of the off-chip memory (Table I: 8× DDR4-3200
/// channels, 12 GB/s each).
///
/// All latencies are expressed in accelerator cycles (1 GHz ⇒ 1 cycle =
/// 1 ns). The defaults follow DDR4-3200 CL22 sheets: `tCL ≈ 13.75 ns`,
/// `tRCD ≈ 13.75 ns`, `tRP ≈ 13.75 ns`.
///
/// # Examples
///
/// ```
/// use cisgraph_sim::DramConfig;
///
/// let cfg = DramConfig::ddr4_3200();
/// assert_eq!(cfg.channels, 8);
/// assert_eq!(cfg.bytes_per_cycle, 12.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Sustained transfer bandwidth per channel, bytes per accelerator
    /// cycle (12 GB/s @ 1 GHz = 12 B/cycle).
    pub bytes_per_cycle: f64,
    /// Column access latency on a row-buffer hit (tCL).
    pub row_hit_latency: Cycle,
    /// Additional activate latency on an empty row buffer (tRCD).
    pub activate_latency: Cycle,
    /// Additional precharge latency when a different row is open (tRP).
    pub precharge_latency: Cycle,
    /// Row size in bytes (determines row-buffer hit runs).
    pub row_bytes: u64,
    /// Interleave granularity across channels, bytes (one cache line).
    pub line_bytes: u64,
}

impl DramConfig {
    /// The Table I configuration: 8× DDR4-3200, 12 GB/s per channel.
    pub const fn ddr4_3200() -> Self {
        Self {
            channels: 8,
            banks_per_channel: 16,
            bytes_per_cycle: 12.0,
            row_hit_latency: 14,
            activate_latency: 14,
            precharge_latency: 14,
            row_bytes: 8192,
            line_bytes: 64,
        }
    }

    /// A single-channel variant used in sensitivity sweeps.
    #[must_use]
    pub const fn with_channels(mut self, channels: usize) -> Self {
        self.channels = channels;
        self
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_3200()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowState {
    Closed,
    Open(u64),
}

#[derive(Debug, Clone)]
struct Bank {
    row: RowState,
    busy_until: Cycle,
}

#[derive(Debug, Clone)]
struct Channel {
    banks: Vec<Bank>,
    /// The data bus frees up at this cycle.
    bus_free: Cycle,
}

/// The DRAM model: per-channel, per-bank row-buffer state with
/// bandwidth-limited bursts.
///
/// Addresses interleave across channels at line granularity (sequential
/// streams use all 8 channels) and map to banks/rows within a channel.
///
/// # Examples
///
/// ```
/// use cisgraph_sim::{DramConfig, DramModel};
///
/// let mut dram = DramModel::new(DramConfig::ddr4_3200());
/// let done = dram.read(0x0, 64, 0);
/// assert!(done > 0);
/// // Same row, back to back: row hit, cheaper.
/// let done2 = dram.read(0x200, 64, done);
/// assert!(done2 - done < done);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    channels: Vec<Channel>,
    stats: MemStats,
}

impl DramModel {
    /// Builds the model with all banks precharged.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks.
    pub fn new(config: DramConfig) -> Self {
        assert!(config.channels > 0, "need at least one channel");
        assert!(config.banks_per_channel > 0, "need at least one bank");
        let channels = (0..config.channels)
            .map(|_| Channel {
                banks: vec![
                    Bank {
                        row: RowState::Closed,
                        busy_until: 0
                    };
                    config.banks_per_channel
                ],
                bus_free: 0,
            })
            .collect();
        Self {
            config,
            channels,
            stats: MemStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Resets statistics (topology/row state is kept).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Quiesces the timing state: all banks and buses become immediately
    /// available at cycle 0, while open rows and statistics are preserved.
    ///
    /// Callers that restart their cycle counter per batch (the accelerator
    /// model: real hardware sits idle while the next batch gathers) must
    /// quiesce between batches, or reservations from the previous batch
    /// leak into the next one's timeline.
    pub fn quiesce(&mut self) {
        for channel in &mut self.channels {
            channel.bus_free = 0;
            for bank in &mut channel.banks {
                bank.busy_until = 0;
            }
        }
    }

    fn route(&self, addr: u64) -> (usize, usize, u64) {
        let line = addr / self.config.line_bytes;
        let channel = (line % self.config.channels as u64) as usize;
        let channel_local = line / self.config.channels as u64 * self.config.line_bytes
            + addr % self.config.line_bytes;
        let bank = ((channel_local / self.config.row_bytes) % self.config.banks_per_channel as u64)
            as usize;
        let row = channel_local / (self.config.row_bytes * self.config.banks_per_channel as u64);
        (channel, bank, row)
    }

    fn access(&mut self, addr: u64, bytes: u64, now: Cycle, is_write: bool) -> Cycle {
        let bytes = bytes.max(1);
        // Split the burst into per-line beats so long CSR streams interleave
        // across all channels, like a real memory controller.
        let mut done = now;
        let mut cursor = addr;
        let end = addr + bytes;
        while cursor < end {
            let line_end = (cursor / self.config.line_bytes + 1) * self.config.line_bytes;
            let chunk = line_end.min(end) - cursor;
            done = done.max(self.access_line(cursor, chunk, now, is_write));
            cursor = line_end;
        }
        done
    }

    fn access_line(&mut self, addr: u64, bytes: u64, now: Cycle, is_write: bool) -> Cycle {
        let (ch, bk, row) = self.route(addr);
        let cfg = self.config;
        let channel = &mut self.channels[ch];
        let bank = &mut channel.banks[bk];

        // Row management: the bank is occupied by precharge/activate, but
        // column reads to an open row pipeline — only the data bus
        // serializes them, so back-to-back row hits stream at the bus rate
        // while the CAS latency overlaps.
        let bank_ready = now.max(bank.busy_until);
        let (bank_avail, hit) = match bank.row {
            RowState::Open(open_row) if open_row == row => (bank_ready, true),
            RowState::Open(_) => (
                bank_ready + cfg.precharge_latency + cfg.activate_latency,
                false,
            ),
            RowState::Closed => (bank_ready + cfg.activate_latency, false),
        };
        bank.row = RowState::Open(row);
        bank.busy_until = bank_avail;

        let transfer = (((bytes as f64) / cfg.bytes_per_cycle).ceil() as Cycle).max(1);
        // Data hits the bus CL after the column command and then occupies it
        // for the transfer beats; the bus serializes transfer windows.
        let complete = (bank_avail + cfg.row_hit_latency).max(channel.bus_free) + transfer;
        channel.bus_free = complete;
        self.stats.bus_busy_cycles += transfer;

        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        if is_write {
            self.stats.dram_writes += 1;
            self.stats.dram_write_bytes += bytes;
        } else {
            self.stats.dram_reads += 1;
            self.stats.dram_read_bytes += bytes;
        }
        complete
    }

    /// Issues a read burst; returns the cycle at which the data is on chip.
    pub fn read(&mut self, addr: u64, bytes: u64, now: Cycle) -> Cycle {
        self.access(addr, bytes, now, false)
    }

    /// Issues a write burst; returns the cycle at which it drains.
    pub fn write(&mut self, addr: u64, bytes: u64, now: Cycle) -> Cycle {
        self.access(addr, bytes, now, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(DramConfig::ddr4_3200())
    }

    #[test]
    fn cold_access_pays_activate() {
        let mut d = model();
        let done = d.read(0, 64, 0);
        let cfg = DramConfig::ddr4_3200();
        // activate + CL + ceil(64/12)=6 transfer cycles
        assert_eq!(done, cfg.activate_latency + cfg.row_hit_latency + 6);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_is_cheaper() {
        let mut d = model();
        let t1 = d.read(0, 64, 0);
        // Same channel: next address = first + channels * line (64 * 8).
        let t2 = d.read(512, 64, t1);
        assert!(
            t2 - t1 < t1,
            "row hit {t2}-{t1} should be cheaper than cold {t1}"
        );
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let cfg = DramConfig::ddr4_3200();
        let mut d = DramModel::new(cfg);
        let row_stride = cfg.row_bytes * cfg.banks_per_channel as u64 * cfg.channels as u64;
        let t1 = d.read(0, 8, 0);
        let t2 = d.read(row_stride, 8, t1); // same channel+bank, different row
        assert_eq!(
            t2 - t1,
            cfg.precharge_latency + cfg.activate_latency + cfg.row_hit_latency + 1
        );
    }

    #[test]
    fn sequential_stream_uses_all_channels() {
        // A 4 KiB sequential burst split over 8 channels must beat the
        // single-channel time by a wide margin.
        let mut d8 = model();
        let t8 = d8.read(0, 4096, 0);
        let mut d1 = DramModel::new(DramConfig::ddr4_3200().with_channels(1));
        let t1 = d1.read(0, 4096, 0);
        assert!(t8 * 3 < t1, "8-channel {t8} vs 1-channel {t1}");
    }

    #[test]
    fn bandwidth_limits_back_to_back_bursts() {
        let mut d = DramModel::new(DramConfig::ddr4_3200().with_channels(1));
        // Repeated large row-hit bursts: steady state must approach the
        // 12 B/cycle bandwidth limit.
        let mut now = d.read(0, 4096, 0);
        let start = now;
        let reps = 16u64;
        for _ in 0..reps {
            now = d.read(0, 4096, now);
        }
        let per_burst = (now - start) as f64 / reps as f64;
        let ideal = 4096.0 / 12.0;
        assert!(
            per_burst >= ideal,
            "cannot beat the bus: {per_burst} vs {ideal}"
        );
        assert!(
            per_burst < ideal * 1.5,
            "should approach bandwidth: {per_burst} vs {ideal}"
        );
    }

    #[test]
    fn quiesce_clears_reservations_keeps_rows_and_stats() {
        let mut d = model();
        let t1 = d.read(0, 4096, 0);
        assert!(t1 > 50);
        d.quiesce();
        // New timeline: an access at cycle 0 is served immediately, and the
        // open row still hits.
        let t2 = d.read(0, 8, 0);
        let cfg = DramConfig::ddr4_3200();
        assert_eq!(t2, cfg.row_hit_latency + 1, "row stays open across quiesce");
        assert!(d.stats().dram_reads > 1, "stats persist across quiesce");
    }

    #[test]
    fn write_stats_separate() {
        let mut d = model();
        d.write(0, 64, 0);
        assert_eq!(d.stats().dram_writes, 1);
        assert_eq!(d.stats().dram_reads, 0);
        assert_eq!(d.stats().dram_write_bytes, 64);
    }

    #[test]
    fn reset_stats_clears() {
        let mut d = model();
        d.read(0, 64, 0);
        d.reset_stats();
        assert_eq!(d.stats().dram_reads, 0);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        let _ = DramModel::new(DramConfig::ddr4_3200().with_channels(0));
    }

    #[test]
    fn zero_byte_read_counts_as_one() {
        let mut d = model();
        let done = d.read(0, 0, 0);
        assert!(done > 0);
    }
}
