//! Cycle-level simulation substrate for the CISGraph accelerator model.
//!
//! The paper's simulator couples a custom cycle-accurate pipeline model with
//! DRAMSim3 for off-chip DRAM and a CACTI-configured eDRAM scratchpad. This
//! crate provides the equivalents we built in their place (see DESIGN.md §2
//! for the substitution rationale):
//!
//! * [`DramModel`] — a DDR4-3200 channel/bank timing model with row-buffer
//!   state, bandwidth-limited transfers, and per-channel occupancy. It is a
//!   *resource-reservation* model: each access reserves its channel for the
//!   computed service time and returns the completion cycle, which is
//!   cycle-accurate for the in-order request streams the accelerator issues
//!   while being orders of magnitude faster than a full DRAM simulator.
//! * [`Spm`] — a banked, set-associative scratchpad organized as a cache
//!   ("SPM is organized as cache to enable evictions", §III-B), with LRU
//!   replacement, write-back dirty lines, and the 0.8 ns (≈1 cycle @ 1 GHz)
//!   access latency of Table I.
//! * [`MemorySystem`] — SPM in front of DRAM: hits cost the SPM latency,
//!   misses fetch lines over the right channel and install them, dirty
//!   evictions write back.
//! * [`MemStats`] — counters every experiment reads out.
//!
//! Cycles are plain `u64` values ([`Cycle`]) in the accelerator's 1 GHz
//! clock domain; DRAM timings are converted into that domain by
//! [`DramConfig`].
//!
//! # Examples
//!
//! ```
//! use cisgraph_sim::{DramConfig, MemorySystem, SpmConfig};
//!
//! let mut mem = MemorySystem::new(SpmConfig::date2025(), DramConfig::ddr4_3200());
//! let t1 = mem.read(0x1000, 8, 0);   // cold: DRAM row miss
//! let t2 = mem.read(0x1000, 8, t1);  // hot: SPM hit
//! assert!(t2 - t1 < t1, "second access is served on chip");
//! assert_eq!(mem.stats().spm_hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dram;
mod mem;
mod spm;
mod stats;

pub use dram::{DramConfig, DramModel};
pub use mem::MemorySystem;
pub use spm::{Spm, SpmConfig};
pub use stats::MemStats;

/// A simulation timestamp in accelerator clock cycles (1 GHz in Table I).
pub type Cycle = u64;
