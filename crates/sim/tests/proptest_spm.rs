//! Property tests: the scratchpad cache model against a naive reference
//! implementation of a set-associative LRU cache, and DRAM timing sanity.
//!
//! The reference keeps each set as a list of `(tag, dirty, stamp)` records
//! and evicts the least stamp once the set is full, so it pins the
//! replacement rule, the dirty bits and the rebuilt write-back addresses of
//! the model's packed tag store, at a tiny 2-way geometry and at the
//! Table I 16-way geometry shrunk to a few sets.

use cisgraph_sim::{DramConfig, DramModel, Spm, SpmConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// Naive reference: per-set vector of (tag, dirty, lru-stamp).
struct RefCache {
    sets: HashMap<u64, Vec<(u64, bool, u64)>>,
    num_sets: u64,
    ways: usize,
    line: u64,
    tick: u64,
}

impl RefCache {
    fn new(cfg: SpmConfig) -> Self {
        Self {
            sets: HashMap::new(),
            num_sets: cfg.num_sets() as u64,
            ways: cfg.ways,
            line: cfg.line_bytes,
            tick: 0,
        }
    }

    /// Returns (hit, evicted_dirty_line_addr).
    fn touch(&mut self, line_addr: u64, write: bool) -> (bool, Option<u64>) {
        self.tick += 1;
        let tag = line_addr / self.line;
        let set = self.sets.entry(tag % self.num_sets).or_default();
        if let Some(entry) = set.iter_mut().find(|(t, _, _)| *t == tag) {
            entry.1 |= write;
            entry.2 = self.tick;
            return (true, None);
        }
        let mut wb = None;
        if set.len() >= self.ways {
            let (idx, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, lru))| *lru)
                .expect("non-empty");
            let victim = set.remove(idx);
            if victim.1 {
                wb = Some(victim.0 * self.line);
            }
        }
        set.push((tag, write, self.tick));
        (false, wb)
    }

    /// Touches every line of an access spanning `bytes` at `addr`; returns
    /// the missing lines and the dirty victims' addresses, in line order.
    fn access(&mut self, addr: u64, bytes: u64, write: bool) -> (Vec<u64>, Vec<u64>) {
        let (mut misses, mut writebacks) = (Vec::new(), Vec::new());
        let bytes = bytes.max(1);
        for line in addr / self.line..=(addr + bytes - 1) / self.line {
            let (hit, wb) = self.touch(line * self.line, write);
            if !hit {
                misses.push(line * self.line);
            }
            writebacks.extend(wb);
        }
        (misses, writebacks)
    }

    /// Resident lines, by a scan of every set.
    fn occupied(&self) -> usize {
        self.sets.values().map(Vec::len).sum()
    }
}

fn tiny_cfg() -> SpmConfig {
    SpmConfig {
        capacity_bytes: 2048,
        line_bytes: 64,
        ways: 2,
        access_latency: 1,
    }
}

/// The Table I geometry (64-byte lines, 16 ways) cut to 4 sets, so a few
/// hundred distinct lines evict often.
fn table1_few_sets() -> SpmConfig {
    let cfg = SpmConfig::date2025();
    cfg.with_capacity(4 * cfg.ways as u64 * cfg.line_bytes)
}

/// Replays `ops` — `(byte address, bytes, write)` — on the model and the
/// reference, comparing each access's misses and write-backs in order, the
/// totals, and the occupancy after every access.
fn check_accesses(cfg: SpmConfig, ops: &[(u64, u64, bool)]) -> Result<(), TestCaseError> {
    let mut spm = Spm::new(cfg);
    let mut reference = RefCache::new(cfg);
    let (mut misses, mut writebacks) = (0, 0);
    for &(addr, bytes, write) in ops {
        let access = if write {
            spm.write(addr, bytes)
        } else {
            spm.read(addr, bytes)
        };
        let (ref_misses, ref_wbs) = reference.access(addr, bytes, write);
        prop_assert_eq!(
            &access.miss_lines,
            &ref_misses,
            "misses of {}+{}",
            addr,
            bytes
        );
        prop_assert_eq!(
            &access.writebacks,
            &ref_wbs,
            "write-backs of {}+{}",
            addr,
            bytes
        );
        prop_assert_eq!(access.all_hit, ref_misses.is_empty());
        prop_assert_eq!(spm.occupied_lines(), reference.occupied());
        misses += ref_misses.len() as u64;
        writebacks += ref_wbs.len() as u64;
    }
    prop_assert_eq!(spm.hits(), reference.tick - misses);
    prop_assert_eq!(spm.misses(), misses);
    prop_assert_eq!(spm.writebacks(), writebacks);
    prop_assert!(spm.occupied_lines() <= spm.total_lines());
    Ok(())
}

/// Accesses over `lines` distinct lines: any byte offset, 1 to 256 bytes
/// (up to five lines), reads and writes.
fn accesses(lines: u64) -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    proptest::collection::vec((0..lines * 64, 1u64..=256, any::<bool>()), 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn table1_ways_match_reference_lru(ops in accesses(3 * 64)) {
        // 4 sets x 16 ways = 64 slots over 192 distinct lines.
        check_accesses(table1_few_sets(), &ops)?;
    }

    #[test]
    fn tiny_geometry_multi_line_accesses_match_reference(ops in accesses(64)) {
        check_accesses(tiny_cfg(), &ops)?;
    }

    #[test]
    fn spm_matches_reference_lru(ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..300)) {
        let cfg = tiny_cfg();
        let mut spm = Spm::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (line_idx, write) in ops {
            let addr = line_idx * cfg.line_bytes;
            let access = if write { spm.write(addr, 8) } else { spm.read(addr, 8) };
            let (ref_hit, ref_wb) = reference.touch(addr, write);
            prop_assert_eq!(access.all_hit, ref_hit, "hit status for line {}", line_idx);
            let got_wb = access.writebacks.first().copied();
            prop_assert_eq!(got_wb, ref_wb, "writeback for line {}", line_idx);
        }
        // Aggregate stats stayed consistent.
        prop_assert_eq!(spm.hits() + spm.misses(), reference.tick);
    }

    #[test]
    fn dram_completions_are_monotonic_in_issue_time(
        addrs in proptest::collection::vec(0u64..(1 << 24), 1..100)
    ) {
        // Issuing the same request stream with a later start never finishes
        // earlier.
        let mut early = DramModel::new(DramConfig::ddr4_3200());
        let mut late = DramModel::new(DramConfig::ddr4_3200());
        let mut t_early = 0;
        let mut t_late = 1000;
        for &a in &addrs {
            t_early = early.read(a, 64, t_early);
            t_late = late.read(a, 64, t_late);
            prop_assert!(t_late >= t_early + 1000 - 64, "late stream overtook: {t_late} vs {t_early}");
        }
    }

    #[test]
    fn dram_row_hit_never_slower_than_miss(addr in 0u64..(1 << 22)) {
        let cfg = DramConfig::ddr4_3200();
        let mut dram = DramModel::new(cfg);
        let t1 = dram.read(addr, 8, 0);
        let t2 = dram.read(addr, 8, t1); // guaranteed row hit
        prop_assert!(t2 - t1 <= t1, "row hit {t2}-{t1} vs first {t1}");
    }

    #[test]
    fn dram_stats_count_every_line(addr in 0u64..(1 << 20), bytes in 1u64..512) {
        let cfg = DramConfig::ddr4_3200();
        let mut dram = DramModel::new(cfg);
        dram.read(addr, bytes, 0);
        let lines = (addr + bytes - 1) / cfg.line_bytes - addr / cfg.line_bytes + 1;
        prop_assert_eq!(dram.stats().dram_reads, lines);
        prop_assert_eq!(dram.stats().dram_read_bytes, bytes);
    }
}
