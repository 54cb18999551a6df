//! Per-batch accelerator report.

use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::Counters;
use cisgraph_sim::MemStats;
use cisgraph_types::State;
use serde::Serialize;
use std::ops::AddAssign;
use std::time::Duration;

/// Cycle milestones of one simulated batch, for phase-breakdown analysis.
///
/// Milestones are cumulative cycle stamps, not exclusive durations: the
/// identification stream overlaps addition propagation in the model, so
/// `identification_done` may exceed `additions_done` on add-light batches.
///
/// # Examples
///
/// ```
/// let m = cisgraph_core::CycleMilestones::default();
/// assert_eq!(m.response, 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CycleMilestones {
    /// Last identification check completed.
    pub identification_done: u64,
    /// Valuable-addition propagation drained.
    pub additions_done: u64,
    /// Early response (valuable deletions + promotions drained).
    pub response: u64,
    /// Delayed drain completed.
    pub drain_done: u64,
}

/// Sums milestones field by field, so a run's totals divide into
/// per-batch means.
impl AddAssign for CycleMilestones {
    fn add_assign(&mut self, rhs: Self) {
        self.identification_done += rhs.identification_done;
        self.additions_done += rhs.additions_done;
        self.response += rhs.response;
        self.drain_done += rhs.drain_done;
    }
}

/// What the accelerator did for one batch.
///
/// `response_cycles` is the early-response point — the cycle at which no
/// valuable update remained in any scheduling buffer and the query answer
/// was final. `total_cycles` additionally covers the delayed-deletion
/// drain.
///
/// # Examples
///
/// ```
/// use cisgraph_core::AccelReport;
/// use cisgraph_types::State;
///
/// let r = AccelReport::new(State::ZERO);
/// assert_eq!(r.response_cycles, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AccelReport {
    /// The converged query answer for the new snapshot.
    pub answer: State,
    /// Cycle of the early response.
    pub response_cycles: u64,
    /// Cycle when all scheduled work (including delayed) drained.
    pub total_cycles: u64,
    /// Functional work performed.
    pub counters: Counters,
    /// Memory-hierarchy statistics for the batch.
    pub mem: MemStats,
    /// Algorithm 1 outcome for the batch.
    pub classification: ClassificationSummary,
    /// Activations caused by edge additions (Fig. 5(b)).
    pub addition_activations: u64,
    /// Activations caused by edge deletions *before the response* — the
    /// Fig. 5(b) quantity; the delayed drain is excluded.
    pub deletion_activations: u64,
    /// Activations of the post-response delayed-deletion drain.
    pub drain_activations: u64,
    /// Cycle milestones for phase-breakdown analysis.
    pub milestones: CycleMilestones,
}

impl AccelReport {
    /// A zeroed report carrying only an answer.
    pub fn new(answer: State) -> Self {
        Self {
            answer,
            response_cycles: 0,
            total_cycles: 0,
            counters: Counters::default(),
            mem: MemStats::default(),
            classification: ClassificationSummary::default(),
            addition_activations: 0,
            deletion_activations: 0,
            drain_activations: 0,
            milestones: CycleMilestones::default(),
        }
    }

    /// The early-response latency in seconds at the given clock.
    pub fn response_seconds(&self, clock_ghz: f64) -> f64 {
        self.response_cycles as f64 / (clock_ghz * 1e9)
    }

    /// The early-response latency as a [`Duration`] at the given clock.
    pub fn response_duration(&self, clock_ghz: f64) -> Duration {
        Duration::from_secs_f64(self.response_seconds(clock_ghz))
    }

    /// The cycles of this batch that cannot be hidden behind the next
    /// batch's gathering window.
    ///
    /// The paper: "CISGraph overlaps the processing of delayed updates with
    /// updates gathering to reduce response time further" — the delayed
    /// drain (`total_cycles - response_cycles`) runs while the next batch
    /// accumulates. Given a gathering window of `gather_cycles`, the
    /// exposed occupancy is the response plus whatever part of the drain
    /// exceeds the window.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut r = cisgraph_core::AccelReport::new(cisgraph_types::State::ZERO);
    /// r.response_cycles = 100;
    /// r.total_cycles = 160;
    /// assert_eq!(r.exposed_cycles(1000), 100); // drain fully hidden
    /// assert_eq!(r.exposed_cycles(20), 140); // 40 drain cycles exposed
    /// ```
    pub fn exposed_cycles(&self, gather_cycles: u64) -> u64 {
        let drain = self.total_cycles.saturating_sub(self.response_cycles);
        self.response_cycles + drain.saturating_sub(gather_cycles)
    }

    /// Projects this report onto the engine-agnostic
    /// [`ReportCore`](cisgraph_engines::ReportCore) at the given clock:
    /// cycle counts become simulated durations, so the serving layer
    /// aggregates accelerator runs exactly like software-engine runs.
    /// Memory statistics and cycle milestones stay accelerator-specific
    /// and are not projected.
    ///
    /// # Examples
    ///
    /// ```
    /// let mut r = cisgraph_core::AccelReport::new(cisgraph_types::State::ZERO);
    /// r.response_cycles = 2_000_000_000;
    /// r.total_cycles = 3_000_000_000;
    /// let core = r.to_core(1.0); // 1 GHz
    /// assert_eq!(core.response_time.as_secs(), 2);
    /// assert_eq!(core.total_time.as_secs(), 3);
    /// ```
    pub fn to_core(&self, clock_ghz: f64) -> cisgraph_engines::ReportCore {
        let mut core = cisgraph_engines::ReportCore::new(self.answer);
        core.response_time = self.response_duration(clock_ghz);
        core.total_time = Duration::from_secs_f64(self.total_cycles as f64 / (clock_ghz * 1e9));
        core.counters = self.counters;
        core.addition_activations = self.addition_activations;
        core.deletion_activations = self.deletion_activations;
        core.drain_activations = self.drain_activations;
        core
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_conversion() {
        let mut r = AccelReport::new(State::ZERO);
        r.response_cycles = 2_000_000_000;
        assert_eq!(r.response_seconds(1.0), 2.0);
        assert_eq!(r.response_seconds(2.0), 1.0);
        assert_eq!(r.response_duration(1.0), Duration::from_secs(2));
    }

    #[test]
    fn serializes() {
        let r = AccelReport::new(State::ZERO);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("response_cycles"));
    }
}
