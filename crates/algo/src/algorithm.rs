//! The ⊕/⊗ abstraction of Table II.

use cisgraph_types::{State, Weight};
use serde::Serialize;

/// A monotonic pairwise graph algorithm (Table II of the paper).
///
/// Every algorithm is defined by:
///
/// * ⊕ ([`MonotonicAlgorithm::combine`]) — the candidate state offered to
///   `v` along an edge `u --w--> v`,
/// * ⊗ (implicitly via [`MonotonicAlgorithm::rank`]) — a *selection order*:
///   the algorithm keeps whichever state ranks lower. PPSP and PPNP rank by
///   the state itself (min-select); PPWP, Reach, and Viterbi rank by its
///   negation (max-select).
///
/// Monotonicity requirements (checked by property tests in this crate):
///
/// 1. ⊕ never improves on the source state: `rank(combine(s, w)) >= rank(s)`
///    for all valid weights. This is what makes best-first (Dijkstra-style)
///    convergence correct, and for [`Viterbi`](crate::Viterbi) it is why
///    weights must be inverse probabilities `w >= 1`.
/// 2. ⊕ is monotone in its state argument:
///    `rank(a) <= rank(b)` implies `rank(combine(a, w)) <= rank(combine(b, w))`.
///
/// Implementors are zero-sized marker types; all methods are associated
/// functions so algorithm choice is a compile-time parameter of solvers and
/// engines.
///
/// # Examples
///
/// ```
/// use cisgraph_algo::{MonotonicAlgorithm, Ppsp};
/// use cisgraph_types::{State, Weight};
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let t = Ppsp::combine(State::new(3.0)?, Weight::new(2.0)?);
/// assert_eq!(t.get(), 5.0);
/// assert!(Ppsp::improves(t, State::POS_INF));
/// assert_eq!(Ppsp::select(t, State::POS_INF), t);
/// # Ok(())
/// # }
/// ```
pub trait MonotonicAlgorithm: Copy + Send + Sync + 'static {
    /// Human-readable name used in reports ("PPSP", ...).
    const NAME: &'static str;

    /// Which Table II row this is (used for dispatch in harnesses).
    const KIND: AlgorithmKind;

    /// The identity state of an unreached vertex (`∞` for min-select
    /// algorithms, `0` for the max-select ones evaluated here).
    fn unreached() -> State;

    /// The initial state of the query source.
    fn source_state() -> State;

    /// ⊕: the candidate state offered to `v` along `u --w--> v`.
    fn combine(u_state: State, w: Weight) -> State;

    /// Path concatenation: the measure of a walk formed by joining a path
    /// of measure `a` with a path of measure `b` (e.g. `a + b` for PPSP,
    /// `min(a, b)` for PPWP). Used by hub-based bound estimation (SGraph).
    ///
    /// The identity of `concat` is [`MonotonicAlgorithm::source_state`]
    /// (the measure of the empty path).
    fn concat(a: State, b: State) -> State;

    /// Maps a state to a rank where **lower is better**. ⊗ keeps the state
    /// of lower rank. Min-select algorithms rank by the state itself;
    /// max-select algorithms by its negation.
    fn rank(state: State) -> State;

    /// Whether `candidate` strictly beats `current` under ⊗.
    #[inline]
    fn improves(candidate: State, current: State) -> bool {
        Self::rank(candidate) < Self::rank(current)
    }

    /// ⊗: keeps the better of the two states (ties keep `current`).
    #[inline]
    fn select(candidate: State, current: State) -> State {
        if Self::improves(candidate, current) {
            candidate
        } else {
            current
        }
    }

    /// Whether the edge `u --w--> v` *supports* `v`'s converged state, i.e.
    /// `⊕(state[u], w) == state[v]` with `v` reached. This is the deletion
    /// test of Algorithm 1 (line 11) generalized beyond PPSP.
    #[inline]
    fn supports(u_state: State, w: Weight, v_state: State) -> bool {
        v_state != Self::unreached() && Self::combine(u_state, w) == v_state
    }
}

/// Enumeration of the five evaluated algorithms, for runtime dispatch in
/// harnesses and reports.
///
/// # Examples
///
/// ```
/// use cisgraph_algo::AlgorithmKind;
///
/// assert_eq!(AlgorithmKind::ALL.len(), 5);
/// assert_eq!(AlgorithmKind::Ppsp.to_string(), "PPSP");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AlgorithmKind {
    /// Point-to-Point Shortest Path.
    Ppsp,
    /// Point-to-Point Widest Path.
    Ppwp,
    /// Point-to-Point Narrowest Path.
    Ppnp,
    /// Viterbi most-likely path.
    Viterbi,
    /// Reachability.
    Reach,
}

impl AlgorithmKind {
    /// The five algorithms in the paper's Table II/IV order.
    pub const ALL: [AlgorithmKind; 5] = [
        AlgorithmKind::Ppsp,
        AlgorithmKind::Ppwp,
        AlgorithmKind::Ppnp,
        AlgorithmKind::Viterbi,
        AlgorithmKind::Reach,
    ];
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Self::Ppsp => "PPSP",
            Self::Ppwp => "PPWP",
            Self::Ppnp => "PPNP",
            Self::Viterbi => "Viterbi",
            Self::Reach => "Reach",
        };
        f.write_str(s)
    }
}
