//! Computation accounting shared across engines and the accelerator model.

use serde::Serialize;
use std::ops::AddAssign;

/// Counts of the work a solver or engine performed.
///
/// * `computations` — number of ⊕ evaluations (edge relaxations). This is
///   the metric of Fig. 5(a).
/// * `activations` — number of vertex-state changes (a vertex may be
///   activated several times). This is the metric of Fig. 2 / Fig. 5(b).
/// * `updates_processed` / `updates_dropped` — how many batch updates were
///   propagated vs. discarded as useless.
/// * `resets` / `fallback_solves` — vertices reset by deletion repair, and
///   repairs whose dependence subtree grew so large that the result was
///   re-solved from the source instead (see [`crate::incremental`]).
///
/// # Examples
///
/// ```
/// use cisgraph_algo::Counters;
///
/// let mut a = Counters::default();
/// a.computations = 10;
/// let mut b = Counters::default();
/// b.computations = 5;
/// a += b;
/// assert_eq!(a.computations, 15);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Counters {
    /// Number of ⊕ evaluations (edge relaxations).
    pub computations: u64,
    /// Number of vertex-state changes.
    pub activations: u64,
    /// Batch updates that were propagated.
    pub updates_processed: u64,
    /// Batch updates dropped as useless.
    pub updates_dropped: u64,
    /// Vertices reset during deletion repair (the tagging overhead the
    /// paper attributes to prior work, §II-A).
    pub resets: u64,
    /// Deletion repairs replaced by an in-place solve from the source.
    pub fallback_solves: u64,
}

impl Counters {
    /// A fresh zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total updates seen (processed + dropped).
    pub fn updates_total(&self) -> u64 {
        self.updates_processed + self.updates_dropped
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, rhs: Self) {
        self.computations += rhs.computations;
        self.activations += rhs.activations;
        self.updates_processed += rhs.updates_processed;
        self.updates_dropped += rhs.updates_dropped;
        self.resets += rhs.resets;
        self.fallback_solves += rhs.fallback_solves;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_sums_fields() {
        let mut a = Counters {
            computations: 1,
            activations: 2,
            updates_processed: 3,
            updates_dropped: 4,
            resets: 5,
            fallback_solves: 6,
        };
        a += a;
        assert_eq!(a.computations, 2);
        assert_eq!(a.activations, 4);
        assert_eq!(a.updates_processed, 6);
        assert_eq!(a.updates_dropped, 8);
        assert_eq!(a.resets, 10);
        assert_eq!(a.fallback_solves, 12);
    }

    #[test]
    fn totals() {
        let c = Counters {
            updates_processed: 7,
            updates_dropped: 3,
            ..Counters::default()
        };
        assert_eq!(c.updates_total(), 10);
    }
}
