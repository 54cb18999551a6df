//! Stand-in descriptors for the paper's datasets (Table III).
//!
//! | Graph       | Abbrev | Vertices   | Edges       | Avg. degree |
//! |-------------|--------|------------|-------------|-------------|
//! | Orkut       | OR     | 2,599,558  | 41,631,643  | 16          |
//! | LiveJournal | LJ     | 4,846,610  | 68,475,391  | 14          |
//! | UK-2002     | UK     | 18,483,187 | 261,787,258 | 14          |
//!
//! The originals cannot be bundled, so each [`Dataset`] records the paper's
//! full-scale figures plus an R-MAT recipe that reproduces the average
//! degree and skew at any scale factor. `generate(scale, seed)` picks
//! `scale_bits = ceil(log2(V · scale))` and the matching edge factor.

use crate::rmat::RmatConfig;
use cisgraph_types::{VertexId, Weight};
use serde::Serialize;

/// Which R-MAT skew recipe a dataset stand-in uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Skew {
    /// Social-network parameters (Orkut, LiveJournal).
    Social,
    /// Web-crawl parameters (UK-2002).
    Web,
}

/// A dataset descriptor: the paper's full-scale figures plus a generator
/// recipe for the synthetic stand-in.
///
/// # Examples
///
/// ```
/// use cisgraph_datasets::registry;
///
/// let ds = registry::uk2002_like();
/// assert_eq!(ds.abbrev, "UK");
/// let edges = ds.generate(0.0005, 1);
/// assert!(!edges.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Dataset {
    /// Human-readable name (`"orkut_like"` etc.).
    pub name: &'static str,
    /// The paper's abbreviation (Table III): OR / LJ / UK.
    pub abbrev: &'static str,
    /// Vertex count of the real dataset.
    pub full_vertices: usize,
    /// Edge count of the real dataset.
    pub full_edges: usize,
    /// Average degree from Table III (used as the R-MAT edge factor).
    pub average_degree: usize,
    /// Skew recipe.
    pub skew: Skew,
}

impl Dataset {
    /// Builds the R-MAT configuration for a given scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn rmat_config(&self, scale: f64) -> RmatConfig {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "scale must be in (0, 1], got {scale}"
        );
        let target_vertices = ((self.full_vertices as f64) * scale).max(1024.0);
        let scale_bits = (target_vertices.log2().ceil() as u32).max(10);
        match self.skew {
            Skew::Social => RmatConfig::social(scale_bits, self.average_degree),
            Skew::Web => RmatConfig::web(scale_bits, self.average_degree),
        }
    }

    /// Generates the stand-in edge list at `scale` (fraction of the real
    /// vertex count) with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn generate(&self, scale: f64, seed: u64) -> Vec<(VertexId, VertexId, Weight)> {
        self.rmat_config(scale).generate(seed)
    }
}

/// The Orkut stand-in (social skew, average degree 16).
pub fn orkut_like() -> Dataset {
    Dataset {
        name: "orkut_like",
        abbrev: "OR",
        full_vertices: 2_599_558,
        full_edges: 41_631_643,
        average_degree: 16,
        skew: Skew::Social,
    }
}

/// The LiveJournal stand-in (social skew, average degree 14).
pub fn livejournal_like() -> Dataset {
    Dataset {
        name: "livejournal_like",
        abbrev: "LJ",
        full_vertices: 4_846_610,
        full_edges: 68_475_391,
        average_degree: 14,
        skew: Skew::Social,
    }
}

/// The UK-2002 stand-in (web skew, average degree 14).
pub fn uk2002_like() -> Dataset {
    Dataset {
        name: "uk2002_like",
        abbrev: "UK",
        full_vertices: 18_483_187,
        full_edges: 261_787_258,
        average_degree: 14,
        skew: Skew::Web,
    }
}

/// All three stand-ins in the paper's order (OR, UK, LJ is Table IV's column
/// order, but Table III lists OR, LJ, UK — we follow Table III).
pub fn all() -> Vec<Dataset> {
    vec![orkut_like(), livejournal_like(), uk2002_like()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_figures() {
        let or = orkut_like();
        assert_eq!(or.full_vertices, 2_599_558);
        assert_eq!(or.full_edges, 41_631_643);
        assert_eq!(or.average_degree, 16);
        let lj = livejournal_like();
        assert_eq!(lj.full_edges, 68_475_391);
        let uk = uk2002_like();
        assert_eq!(uk.full_vertices, 18_483_187);
        assert_eq!(uk.skew, Skew::Web);
    }

    #[test]
    fn scaled_config_matches_degree() {
        let cfg = orkut_like().rmat_config(0.01);
        assert_eq!(cfg.edge_factor, 16);
        // 1% of 2.6M = 26K -> 2^15 = 32768
        assert_eq!(cfg.scale, 15);
    }

    #[test]
    fn minimum_size_floor() {
        let cfg = orkut_like().rmat_config(1e-9);
        assert!(cfg.num_vertices() >= 1024);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn zero_scale_panics() {
        let _ = orkut_like().rmat_config(0.0);
    }

    #[test]
    fn generate_is_deterministic() {
        let ds = livejournal_like();
        assert_eq!(ds.generate(0.001, 3), ds.generate(0.001, 3));
    }

    #[test]
    fn all_lists_three() {
        let names: Vec<_> = all().iter().map(|d| d.abbrev).collect();
        assert_eq!(names, vec!["OR", "LJ", "UK"]);
    }
}
