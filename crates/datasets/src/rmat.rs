//! R-MAT recursive-matrix graph generator (Chakrabarti et al., 2004).
//!
//! R-MAT reproduces the heavy-tailed degree distributions of social and web
//! graphs, which is what drives the paper's central observation (most
//! updates never touch the single query path). Each edge picks its endpoint
//! bits by recursively descending into one of four adjacency-matrix
//! quadrants with probabilities `(a, b, c, d)`.

use crate::weights::WeightDistribution;
use cisgraph_types::{VertexId, Weight};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::HashSet;

/// R-MAT quadrant probabilities and size parameters.
///
/// # Examples
///
/// ```
/// use cisgraph_datasets::rmat::RmatConfig;
///
/// let edges = RmatConfig::social(10, 16).generate(7);
/// assert!(edges.len() <= 1024 * 16);
/// assert!(!edges.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average out-degree (edges generated = `2^scale * edge_factor`).
    pub edge_factor: usize,
    /// Probability of the top-left quadrant (both ids keep their high bit 0).
    pub a: f64,
    /// Probability of the top-right quadrant.
    pub b: f64,
    /// Probability of the bottom-left quadrant.
    pub c: f64,
    /// Weight distribution for generated edges.
    pub weights: WeightDistribution,
}

impl RmatConfig {
    /// Social-network skew `(a, b, c) = (0.57, 0.19, 0.19)` — the Graph500
    /// parameters, a good match for Orkut/LiveJournal-style graphs.
    pub fn social(scale: u32, edge_factor: usize) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            weights: WeightDistribution::paper_default(),
        }
    }

    /// Web-graph skew `(a, b, c) = (0.63, 0.17, 0.15)` — more concentrated
    /// hubs, a match for UK-2002-style crawls.
    pub fn web(scale: u32, edge_factor: usize) -> Self {
        Self {
            scale,
            edge_factor,
            a: 0.63,
            b: 0.17,
            c: 0.15,
            weights: WeightDistribution::paper_default(),
        }
    }

    /// Number of vertices (`2^scale`).
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }

    /// Target number of edges.
    pub fn target_edges(&self) -> usize {
        self.num_vertices() * self.edge_factor
    }

    /// Generates a deduplicated, self-loop-free directed edge list.
    ///
    /// Duplicate samples are discarded; generation stops after the target
    /// count is reached or the duplicate rate makes progress impossible
    /// (bounded attempts), so the returned list may be slightly short on
    /// tiny, dense configurations.
    ///
    /// # Panics
    ///
    /// Panics if the quadrant probabilities are not a sub-distribution
    /// (`a + b + c > 1` or any is negative).
    pub fn generate(&self, seed: u64) -> Vec<(VertexId, VertexId, Weight)> {
        assert!(
            self.a >= 0.0
                && self.b >= 0.0
                && self.c >= 0.0
                && self.a + self.b + self.c <= 1.0 + 1e-9,
            "rmat probabilities must form a sub-distribution"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let target = self.target_edges();
        let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(target * 2);
        let mut edges = Vec::with_capacity(target);
        let max_attempts = target.saturating_mul(20).max(1024);
        let mut attempts = 0usize;
        while edges.len() < target && attempts < max_attempts {
            attempts += 1;
            let (u, v) = self.sample_pair(&mut rng);
            if u == v || !seen.insert((u, v)) {
                continue;
            }
            let w = self.weights.sample(&mut rng);
            edges.push((VertexId::new(u), VertexId::new(v), w));
        }
        edges
    }

    fn sample_pair<R: Rng + ?Sized>(&self, rng: &mut R) -> (u32, u32) {
        let mut u = 0u32;
        let mut v = 0u32;
        for _ in 0..self.scale {
            u <<= 1;
            v <<= 1;
            // Noise keeps the degree distribution from being too regular,
            // following the "smoothing" used in Graph500 implementations.
            let ab = self.a + self.b;
            let r: f64 = rng.gen();
            if r < self.a {
                // top-left: no bits set
            } else if r < ab {
                v |= 1;
            } else if r < ab + self.c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        (u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_target_count_on_sparse_config() {
        let cfg = RmatConfig::social(12, 8);
        let edges = cfg.generate(3);
        assert_eq!(edges.len(), cfg.target_edges());
    }

    #[test]
    fn no_self_loops_or_duplicates() {
        let edges = RmatConfig::social(10, 8).generate(5);
        let mut seen = HashSet::new();
        for &(u, v, _) in &edges {
            assert_ne!(u, v, "self loop {u}");
            assert!(seen.insert((u, v)), "duplicate edge {u}->{v}");
        }
    }

    #[test]
    fn endpoints_in_range() {
        let cfg = RmatConfig::web(9, 4);
        for (u, v, _) in cfg.generate(11) {
            assert!(u.index() < cfg.num_vertices());
            assert!(v.index() < cfg.num_vertices());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = RmatConfig::social(10, 4);
        assert_eq!(cfg.generate(42), cfg.generate(42));
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = RmatConfig::social(10, 4);
        assert_ne!(cfg.generate(1), cfg.generate(2));
    }

    #[test]
    fn skew_produces_heavy_hubs() {
        // In an R-MAT graph the max degree should far exceed the average.
        let cfg = RmatConfig::social(12, 8);
        let edges = cfg.generate(7);
        let mut deg = vec![0usize; cfg.num_vertices()];
        for &(u, _, _) in &edges {
            deg[u.index()] += 1;
        }
        let max = *deg.iter().max().unwrap();
        let avg = edges.len() as f64 / cfg.num_vertices() as f64;
        assert!(
            (max as f64) > 8.0 * avg,
            "expected skew: max degree {max} vs average {avg}"
        );
    }

    #[test]
    #[should_panic(expected = "sub-distribution")]
    fn invalid_probabilities_panic() {
        let mut cfg = RmatConfig::social(4, 2);
        cfg.a = 0.9;
        cfg.b = 0.9;
        let _ = cfg.generate(1);
    }

    #[test]
    fn dense_tiny_config_terminates() {
        // 2^2 = 4 vertices can hold at most 12 distinct non-loop edges, but
        // we ask for 4 * 8 = 32: generation must stop anyway.
        let cfg = RmatConfig::social(2, 8);
        let edges = cfg.generate(1);
        assert!(edges.len() <= 12);
    }
}
