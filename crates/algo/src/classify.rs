//! Algorithm 1: contribution classification of an update batch.
//!
//! Given the previous converged state array and the global key path, each
//! update is classified by the triangle inequality:
//!
//! * **addition** `u --w--> v`: valuable iff `⊕(state[u], w)` improves
//!   `state[v]` (line 4), otherwise dropped,
//! * **deletion** `u --w--> v`: valuable iff the edge *supported* `v`
//!   (`⊕(state[u], w) == state[v]`, line 11); valuable deletions whose `u`
//!   lies on the global key path are non-delayed and *prepended* (processed
//!   preemptively, line 13), the rest are delayed and appended (line 15);
//!   non-supporting deletions are dropped.
//!
//! This module only labels updates. Acting on the labels in the paper's
//! order (additions first, the fairness rule of §IV-A, then non-delayed
//! deletions ahead of delayed ones) is the engines' job: CISGraph-O's
//! workflow and the accelerator model schedule from these labels.

use crate::{ConvergedResult, KeyPath, MonotonicAlgorithm};
use cisgraph_types::{Contribution, EdgeUpdate, UpdateKind, VertexId};

/// Classifies a single edge addition against the converged states.
///
/// # Panics
///
/// Panics if the update endpoints are outside `result`.
pub fn classify_addition<A: MonotonicAlgorithm>(
    result: &ConvergedResult<A>,
    update: EdgeUpdate,
) -> Contribution {
    debug_assert_eq!(update.kind(), UpdateKind::Insert);
    let candidate = A::combine(result.state(update.src()), update.weight());
    if A::improves(candidate, result.state(update.dst())) {
        Contribution::Valuable
    } else {
        Contribution::Useless
    }
}

/// Classifies a single edge deletion against the converged states and the
/// global key path.
///
/// # Panics
///
/// Panics if the update endpoints are outside `result`.
pub fn classify_deletion<A: MonotonicAlgorithm>(
    result: &ConvergedResult<A>,
    key_path: &KeyPath,
    update: EdgeUpdate,
) -> Contribution {
    debug_assert_eq!(update.kind(), UpdateKind::Delete);
    let (u, v) = (update.src(), update.dst());
    // The source's state is pinned; deleting an in-edge of the source can
    // never change any converged state.
    if v == result.source() || !A::supports(result.state(u), update.weight(), result.state(v)) {
        return Contribution::Useless;
    }
    if key_path.contains(u) {
        Contribution::Valuable
    } else {
        Contribution::Delayed
    }
}

/// Classifies a deletion by *dependence*: the precise engine-facing variant
/// of Algorithm 1's line 11.
///
/// The paper's state-equality test (`⊕(state[u], w) == state[v]`) is exact
/// on a freshly converged array, but within a batch it can both miss and
/// spuriously flag deletions once earlier updates have moved `u`'s state.
/// The dependence test is the precise condition under which the repair
/// actually fires: `v`'s recorded witness is `u`. The split between
/// valuable (non-delayed) and delayed is unchanged: whether `u` lies on the
/// global key path (`on_key_path`; for several queries sharing one
/// source, on any of their key paths).
///
/// The engines and the accelerator classify with this function; the
/// state-based [`classify_deletion`] stays as the paper-literal variant
/// used for the Fig. 2 update-breakdown instrumentation.
///
/// # Panics
///
/// Panics if the update endpoints are outside `result`.
pub fn classify_deletion_dependence<A: MonotonicAlgorithm>(
    result: &ConvergedResult<A>,
    on_key_path: impl Fn(VertexId) -> bool,
    update: EdgeUpdate,
) -> Contribution {
    debug_assert_eq!(update.kind(), UpdateKind::Delete);
    let (u, v) = (update.src(), update.dst());
    if v == result.source() || result.parent(v) != Some(u) {
        return Contribution::Useless;
    }
    if on_key_path(u) {
        Contribution::Valuable
    } else {
        Contribution::Delayed
    }
}

/// Counts of the classification outcome, split by update kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ClassificationSummary {
    /// Valuable additions.
    pub valuable_additions: usize,
    /// Useless (dropped) additions.
    pub useless_additions: usize,
    /// Non-delayed valuable deletions.
    pub valuable_deletions: usize,
    /// Delayed valuable deletions.
    pub delayed_deletions: usize,
    /// Useless (dropped) deletions.
    pub useless_deletions: usize,
}

impl std::ops::AddAssign for ClassificationSummary {
    fn add_assign(&mut self, rhs: Self) {
        self.valuable_additions += rhs.valuable_additions;
        self.useless_additions += rhs.useless_additions;
        self.valuable_deletions += rhs.valuable_deletions;
        self.delayed_deletions += rhs.delayed_deletions;
        self.useless_deletions += rhs.useless_deletions;
    }
}

impl ClassificationSummary {
    /// Total updates classified.
    pub fn total(&self) -> usize {
        self.valuable_additions
            + self.useless_additions
            + self.valuable_deletions
            + self.delayed_deletions
            + self.useless_deletions
    }

    /// Updates that will not be propagated at all.
    pub fn useless(&self) -> usize {
        self.useless_additions + self.useless_deletions
    }

    /// Fraction of the batch dropped as useless (`0.0` for an empty batch).
    pub fn useless_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.useless() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::best_first;
    use crate::{Counters, Ppsp};
    use cisgraph_graph::DynamicGraph;
    use cisgraph_types::{PairQuery, VertexId, Weight};

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    /// The Fig. 3 graph: query Q(v0 -> v5), initial shortest path v0->v5 of
    /// length 5 via the direct edge.
    fn fig3() -> (DynamicGraph, ConvergedResult<Ppsp>, KeyPath) {
        let mut g = DynamicGraph::new(6);
        g.insert_edge(v(0), v(5), w(5.0)).unwrap();
        g.insert_edge(v(0), v(2), w(1.0)).unwrap();
        g.insert_edge(v(1), v(4), w(1.0)).unwrap();
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        let kp = KeyPath::extract(&r, PairQuery::new(v(0), v(5)).unwrap());
        (g, r, kp)
    }

    #[test]
    fn fig3_useless_addition() {
        let (_, r, _) = fig3();
        // v0 -> v1 (1): Algorithm 1 is per-destination-vertex, so this
        // classifies as valuable (combine(0, 1) = 1 < inf) even though v1
        // cannot reach v5 — the paper's Fig. 3 "useless" label refers to its
        // contribution to the final answer. The accelerator still bounds the
        // waste because the propagation dies out after v4.
        let add = EdgeUpdate::insert(v(0), v(1), w(1.0));
        assert_eq!(classify_addition(&r, add), Contribution::Valuable);
    }

    #[test]
    fn fig3_valuable_addition_shortens_answer() {
        let (_, r, _) = fig3();
        // v2 -> v5 (1): 1 + 1 = 2 < 5 -> valuable, shortens Q(v0, v5).
        let add = EdgeUpdate::insert(v(2), v(5), w(1.0));
        assert_eq!(classify_addition(&r, add), Contribution::Valuable);
    }

    #[test]
    fn addition_violating_triangle_inequality_is_useless() {
        let (_, r, _) = fig3();
        // v2 -> v5 (9): 1 + 9 = 10 >= 5 -> useless.
        let add = EdgeUpdate::insert(v(2), v(5), w(9.0));
        assert_eq!(classify_addition(&r, add), Contribution::Useless);
    }

    #[test]
    fn deletion_on_key_path_is_valuable_non_delayed() {
        let (_, r, kp) = fig3();
        // v0 -> v5 supports v5 (0 + 5 == 5) and v0 is on the key path.
        let del = EdgeUpdate::delete(v(0), v(5), w(5.0));
        assert_eq!(classify_deletion(&r, &kp, del), Contribution::Valuable);
    }

    #[test]
    fn supporting_deletion_off_key_path_is_delayed() {
        // Build: source v0, key path v0->v3; side chain v0->v1->v2.
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(3), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        let kp = KeyPath::extract(&r, PairQuery::new(v(0), v(3)).unwrap());
        // v1 -> v2 supports v2 (1 + 1 == 2) but v1 is not on the key path.
        let del = EdgeUpdate::delete(v(1), v(2), w(1.0));
        assert_eq!(classify_deletion(&r, &kp, del), Contribution::Delayed);
    }

    #[test]
    fn non_supporting_deletion_is_useless() {
        let (_, r, kp) = fig3();
        // v1 -> v4 with v1 unreached: inf + 1 != inf is false... the combine
        // gives inf which equals v4's unreached state, but supports()
        // explicitly rejects unreached destinations.
        let del = EdgeUpdate::delete(v(1), v(4), w(1.0));
        assert_eq!(classify_deletion(&r, &kp, del), Contribution::Useless);
    }

    #[test]
    fn deletion_into_source_is_useless() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(v(1), v(0), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        let kp = KeyPath::extract(&r, PairQuery::new(v(0), v(1)).unwrap());
        let del = EdgeUpdate::delete(v(1), v(0), w(1.0));
        assert_eq!(classify_deletion(&r, &kp, del), Contribution::Useless);
    }

    #[test]
    fn summary_shares_count_useless_updates() {
        let s = ClassificationSummary {
            valuable_additions: 1,
            useless_additions: 1,
            valuable_deletions: 1,
            delayed_deletions: 1,
            useless_deletions: 0,
        };
        assert_eq!((s.total(), s.useless()), (4, 1));
        assert!((s.useless_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(ClassificationSummary::default().useless_fraction(), 0.0);
    }
}
