//! Validated edge weights.

use crate::TypeError;
use serde::Serialize;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// An edge weight: a strictly positive, finite `f64`.
///
/// All five algorithms of the evaluation interpret weights multiplicatively
/// or additively over a monotone semiring and require `w > 0`:
///
/// * PPSP adds weights (distance),
/// * PPWP / PPNP take min/max (capacity),
/// * Viterbi divides by the weight, which stores the *inverse* transition
///   probability `w = 1/p ≥ 1` so that `state / w = state · p`.
///
/// Because the value is guaranteed finite and non-NaN, `Weight` implements
/// [`Eq`], [`Ord`], and [`Hash`].
///
/// # Examples
///
/// ```
/// use cisgraph_types::Weight;
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let w = Weight::new(2.5)?;
/// assert_eq!(w.get(), 2.5);
/// assert!(Weight::new(1.0)? < w);
/// assert!(Weight::new(0.0).is_err());
/// assert!(Weight::new(f64::NAN).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Weight(f64);

impl Weight {
    /// The smallest weight this crate uses as a unit value.
    pub const ONE: Weight = Weight(1.0);

    /// Creates a validated weight.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::NonFiniteWeight`] if `value` is NaN or infinite,
    /// and [`TypeError::NonPositiveWeight`] if `value <= 0`.
    #[inline]
    pub fn new(value: f64) -> Result<Self, TypeError> {
        if !value.is_finite() {
            return Err(TypeError::NonFiniteWeight { value });
        }
        if value <= 0.0 {
            return Err(TypeError::NonPositiveWeight { value });
        }
        Ok(Self(value))
    }

    /// Returns the inner value.
    #[inline]
    pub const fn get(self) -> f64 {
        self.0
    }
}

impl Eq for Weight {}

impl PartialOrd for Weight {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Weight {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Valid by construction: never NaN.
        self.0.total_cmp(&other.0)
    }
}

impl Hash for Weight {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl TryFrom<f64> for Weight {
    type Error = TypeError;

    #[inline]
    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

impl From<Weight> for f64 {
    #[inline]
    fn from(w: Weight) -> Self {
        w.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_non_finite() {
        assert!(Weight::new(f64::NAN).is_err());
        assert!(Weight::new(f64::INFINITY).is_err());
        assert!(Weight::new(f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn rejects_non_positive() {
        assert!(Weight::new(0.0).is_err());
        assert!(Weight::new(-0.0).is_err());
        assert!(Weight::new(-1.5).is_err());
    }

    #[test]
    fn accepts_positive_finite() {
        assert_eq!(Weight::new(1e-300).unwrap().get(), 1e-300);
        assert_eq!(Weight::new(1e300).unwrap().get(), 1e300);
        assert_eq!(Weight::ONE.get(), 1.0);
    }

    #[test]
    fn serde_is_the_plain_number() {
        let w = Weight::new(3.5).unwrap();
        assert_eq!(serde_json::to_string(&w).unwrap(), "3.5");
    }

    proptest! {
        #[test]
        fn ordering_matches_f64(a in 1e-6f64..1e6, b in 1e-6f64..1e6) {
            let wa = Weight::new(a).unwrap();
            let wb = Weight::new(b).unwrap();
            prop_assert_eq!(wa.cmp(&wb), a.partial_cmp(&b).unwrap());
        }

        #[test]
        fn hash_eq_consistent(a in 1e-6f64..1e6) {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let w1 = Weight::new(a).unwrap();
            let w2 = Weight::new(a).unwrap();
            let mut h1 = DefaultHasher::new();
            let mut h2 = DefaultHasher::new();
            w1.hash(&mut h1);
            w2.hash(&mut h2);
            prop_assert_eq!(h1.finish(), h2.finish());
        }
    }
}
