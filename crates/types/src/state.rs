//! Algorithm state values.

use crate::TypeError;
use serde::{Content, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A vertex state: any non-NaN `f64`, including `±∞`.
///
/// Unlike [`Weight`](crate::Weight), states may be infinite: `+∞` is the
/// identity of min-based algorithms (an unreached vertex in PPSP/PPNP) and
/// `-∞`/`0` play that role for max-based algorithms. NaN is rejected so that
/// [`Ord`] is total and convergence comparisons are well defined.
///
/// # Examples
///
/// ```
/// use cisgraph_types::State;
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let unreached = State::POS_INF;
/// let d = State::new(4.0)?;
/// assert!(d < unreached);
/// assert!(!unreached.is_finite());
/// # Ok(())
/// # }
/// ```
/// Serialization: finite states render as plain numbers; the infinities
/// use the strings `"inf"` / `"-inf"` because JSON (and several other
/// formats) cannot represent non-finite floats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct State(f64);

impl Serialize for State {
    fn to_content(&self) -> Content {
        if self.0 == f64::INFINITY {
            Content::Str("inf".to_string())
        } else if self.0 == f64::NEG_INFINITY {
            Content::Str("-inf".to_string())
        } else {
            Content::F64(self.0)
        }
    }
}

impl State {
    /// Positive infinity: identity for min-style selection.
    pub const POS_INF: State = State(f64::INFINITY);
    /// Negative infinity: identity for max-style selection.
    pub const NEG_INF: State = State(f64::NEG_INFINITY);
    /// Zero.
    pub const ZERO: State = State(0.0);
    /// One.
    pub const ONE: State = State(1.0);

    /// Creates a validated state.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::NanState`] if `value` is NaN.
    #[inline]
    pub fn new(value: f64) -> Result<Self, TypeError> {
        if value.is_nan() {
            return Err(TypeError::NanState);
        }
        // Normalize -0.0 to 0.0 so `PartialEq` (IEEE equality) and `Ord`
        // (total order) agree on every representable value.
        Ok(Self(value + 0.0))
    }

    /// Creates a state without the NaN check.
    ///
    /// Intended for hot loops where the input is an arithmetic combination of
    /// already-validated values. Debug builds still assert.
    #[inline]
    pub fn new_unchecked(value: f64) -> Self {
        debug_assert!(!value.is_nan(), "state must not be NaN");
        Self(value + 0.0)
    }

    /// Returns the inner value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }

    /// Returns `true` if the state is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Returns the smaller of two states.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two states.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Eq for State {}

impl PartialOrd for State {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for State {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Hash for State {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == f64::INFINITY {
            write!(f, "∞")
        } else if self.0 == f64::NEG_INFINITY {
            write!(f, "-∞")
        } else {
            self.0.fmt(f)
        }
    }
}

impl TryFrom<f64> for State {
    type Error = TypeError;

    #[inline]
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

impl From<State> for f64 {
    #[inline]
    fn from(s: State) -> Self {
        s.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_nan_only() {
        assert!(State::new(f64::NAN).is_err());
        assert!(State::new(f64::INFINITY).is_ok());
        assert!(State::new(f64::NEG_INFINITY).is_ok());
        assert!(State::new(0.0).is_ok());
    }

    #[test]
    fn infinity_ordering() {
        assert!(State::NEG_INF < State::ZERO);
        assert!(State::ZERO < State::POS_INF);
        assert!(State::new(1e308).unwrap() < State::POS_INF);
    }

    #[test]
    fn negative_zero_normalizes() {
        let nz = State::new(-0.0).unwrap();
        let pz = State::ZERO;
        assert_eq!(nz, pz);
        assert_eq!(nz.cmp(&pz), std::cmp::Ordering::Equal);
        assert_eq!(State::new_unchecked(-0.0), pz);
    }

    #[test]
    fn min_max() {
        let a = State::new(1.0).unwrap();
        let b = State::new(2.0).unwrap();
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(State::POS_INF.min(a), a);
        assert_eq!(State::NEG_INF.max(a), a);
    }

    #[test]
    fn display_uses_infinity_symbol() {
        assert_eq!(State::POS_INF.to_string(), "∞");
        assert_eq!(State::NEG_INF.to_string(), "-∞");
        assert_eq!(State::new(2.5).unwrap().to_string(), "2.5");
    }

    #[test]
    fn serde_finite_is_a_number() {
        let s = State::new(7.5).unwrap();
        assert_eq!(serde_json::to_string(&s).unwrap(), "7.5");
    }

    #[test]
    fn serde_infinities_are_strings() {
        assert_eq!(serde_json::to_string(&State::POS_INF).unwrap(), "\"inf\"");
        assert_eq!(serde_json::to_string(&State::NEG_INF).unwrap(), "\"-inf\"");
    }

    proptest! {
        #[test]
        fn total_order_is_consistent(a in proptest::num::f64::NORMAL, b in proptest::num::f64::NORMAL) {
            let sa = State::new(a).unwrap();
            let sb = State::new(b).unwrap();
            prop_assert_eq!(sa.cmp(&sb), a.partial_cmp(&b).unwrap());
        }

        #[test]
        fn min_max_agree_with_ord(a in proptest::num::f64::NORMAL, b in proptest::num::f64::NORMAL) {
            let sa = State::new(a).unwrap();
            let sb = State::new(b).unwrap();
            prop_assert_eq!(sa.min(sb), std::cmp::min(sa, sb));
            prop_assert_eq!(sa.max(sb), std::cmp::max(sa, sb));
        }
    }
}
