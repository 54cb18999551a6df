//! Edge-weight distributions.
//!
//! All five algorithms of the evaluation share one weight array per graph,
//! interpreting it per Table II:
//!
//! * PPSP — additive distance,
//! * PPWP / PPNP — capacity (min/max over the path),
//! * Viterbi — *inverse* transition probability `w = 1/p ≥ 1`,
//! * Reach — ignored.
//!
//! The default distribution is uniform integers in `[1, 64]` cast to `f64`,
//! the convention used by streaming-graph evaluations (JetStream, TDGraph)
//! and compatible with all four interpretations above.

use cisgraph_types::Weight;
use rand::Rng;
use serde::Serialize;

/// A weight distribution for generated graphs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
#[non_exhaustive]
pub enum WeightDistribution {
    /// Uniform integers in `[lo, hi]` (inclusive), as `f64`.
    UniformInt {
        /// Smallest weight.
        lo: u32,
        /// Largest weight.
        hi: u32,
    },
    /// Every edge has weight 1 (turns PPSP into hop count / BFS).
    Unit,
}

impl WeightDistribution {
    /// The paper-default distribution: uniform integers in `[1, 64]`.
    pub const fn paper_default() -> Self {
        Self::UniformInt { lo: 1, hi: 64 }
    }

    /// Samples one weight.
    ///
    /// # Panics
    ///
    /// Panics if a `UniformInt` range is empty (`lo > hi`) or `lo == 0`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Weight {
        match *self {
            Self::UniformInt { lo, hi } => {
                assert!(lo >= 1 && lo <= hi, "UniformInt requires 1 <= lo <= hi");
                let w = rng.gen_range(lo..=hi);
                Weight::new(f64::from(w)).expect("positive integer weight is always valid")
            }
            Self::Unit => Weight::ONE,
        }
    }
}

impl Default for WeightDistribution {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = WeightDistribution::UniformInt { lo: 3, hi: 7 };
        for _ in 0..1000 {
            let w = d.sample(&mut rng).get();
            assert!((3.0..=7.0).contains(&w));
            assert_eq!(w, w.trunc());
        }
    }

    #[test]
    fn unit_is_one() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(WeightDistribution::Unit.sample(&mut rng), Weight::ONE);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(
            WeightDistribution::default(),
            WeightDistribution::paper_default()
        );
    }

    #[test]
    #[should_panic(expected = "UniformInt requires")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = WeightDistribution::UniformInt { lo: 5, hi: 2 }.sample(&mut rng);
    }

    #[test]
    fn deterministic_given_seed() {
        let d = WeightDistribution::paper_default();
        let a: Vec<f64> = {
            let mut rng = SmallRng::seed_from_u64(9);
            (0..10).map(|_| d.sample(&mut rng).get()).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SmallRng::seed_from_u64(9);
            (0..10).map(|_| d.sample(&mut rng).get()).collect()
        };
        assert_eq!(a, b);
    }
}
