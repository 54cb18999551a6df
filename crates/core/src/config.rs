//! Accelerator configuration (Table I).

use cisgraph_sim::{DramConfig, SpmConfig};
use serde::Serialize;

/// Hardware parameters of the modeled CISGraph instance.
///
/// The defaults are the evaluated configuration of Table I: 4 pipelines at
/// 1 GHz, a 32 MB eDRAM scratchpad (0.8 ns), and 8× DDR4-3200 channels at
/// 12 GB/s each.
///
/// # Examples
///
/// ```
/// use cisgraph_core::AcceleratorConfig;
///
/// let cfg = AcceleratorConfig::date2025();
/// assert_eq!(cfg.pipelines, 4);
/// assert_eq!(cfg.clock_ghz, 1.0);
/// assert_eq!(cfg.total_propagation_units(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AcceleratorConfig {
    /// Number of identification/scheduling pipelines; updates are routed by
    /// `v mod pipelines`.
    pub pipelines: usize,
    /// Propagation units per pipeline ("to offset the speed gap between
    /// identification and propagation, CISGraph adds multiple propagation
    /// modules").
    pub propagation_units_per_pipeline: usize,
    /// Accelerator clock in GHz (converts cycles to seconds in reports).
    pub clock_ghz: f64,
    /// Scratchpad geometry/latency.
    pub spm: SpmConfig,
    /// Off-chip memory timing.
    pub dram: DramConfig,
    /// Whether contribution-driven identification & scheduling is active.
    /// `false` turns the model into a JetStream-style event accelerator:
    /// every update is scheduled in arrival order, nothing is delayed, and
    /// the response only comes when the whole batch has drained. Ablation
    /// knob for the paper's headline mechanism.
    pub contribution_scheduling: bool,
}

impl AcceleratorConfig {
    /// The Table I configuration.
    pub const fn date2025() -> Self {
        Self {
            pipelines: 4,
            propagation_units_per_pipeline: 4,
            clock_ghz: 1.0,
            spm: SpmConfig::date2025(),
            dram: DramConfig::ddr4_3200(),
            contribution_scheduling: true,
        }
    }

    /// Disables contribution-driven scheduling (ablation).
    #[must_use]
    pub const fn without_contribution_scheduling(mut self) -> Self {
        self.contribution_scheduling = false;
        self
    }

    /// Total propagation units across all pipelines.
    pub fn total_propagation_units(&self) -> usize {
        self.pipelines * self.propagation_units_per_pipeline
    }

    /// Overrides the pipeline count (sensitivity sweeps).
    #[must_use]
    pub const fn with_pipelines(mut self, pipelines: usize) -> Self {
        self.pipelines = pipelines;
        self
    }

    /// Overrides the per-pipeline propagation unit count.
    #[must_use]
    pub const fn with_propagation_units(mut self, units: usize) -> Self {
        self.propagation_units_per_pipeline = units;
        self
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1e9)
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::date2025()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let c = AcceleratorConfig::date2025();
        assert_eq!(c.pipelines, 4);
        assert_eq!(c.spm.capacity_bytes, 32 * 1024 * 1024);
        assert_eq!(c.dram.channels, 8);
        assert_eq!(c.dram.bytes_per_cycle, 12.0);
    }

    #[test]
    fn cycle_conversion() {
        let c = AcceleratorConfig::date2025();
        assert_eq!(c.cycles_to_seconds(1_000_000_000), 1.0);
        assert_eq!(c.cycles_to_seconds(0), 0.0);
    }

    #[test]
    fn ablation_knob() {
        let c = AcceleratorConfig::date2025();
        assert!(c.contribution_scheduling);
        assert!(!c.without_contribution_scheduling().contribution_scheduling);
    }

    #[test]
    fn builders() {
        let c = AcceleratorConfig::date2025()
            .with_pipelines(8)
            .with_propagation_units(2);
        assert_eq!(c.pipelines, 8);
        assert_eq!(c.total_propagation_units(), 16);
    }
}
