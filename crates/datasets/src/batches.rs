//! The paper's streaming protocol (§IV-A).
//!
//! "We load 50 % of the edges in the graph dataset as an initial snapshot.
//! Then we randomly select the remaining edges to model edge additions and
//! sample the loaded edges to model edge deletions. We generate batches
//! containing 50K edge additions and 50K edge deletions."
//!
//! [`StreamConfig`] captures the knobs (load fraction, batch sizes);
//! [`StreamingWorkload`] owns the shuffled pools and emits batches. Within a
//! batch, additions come first, then deletions — matching the paper's
//! fairness rule ("only after finishing all valuable edge additions,
//! CISGraph starts edge deletions"). Deletions are sampled from edges loaded
//! *before* the batch, so a batch never deletes an edge it just added.

use cisgraph_types::{EdgeUpdate, VertexId, Weight};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Configuration of the streaming protocol.
///
/// # Examples
///
/// ```
/// use cisgraph_datasets::StreamConfig;
///
/// let cfg = StreamConfig::paper_default();
/// assert_eq!(cfg.load_fraction, 0.5);
/// assert_eq!(cfg.additions_per_batch, 50_000);
/// assert_eq!(cfg.deletions_per_batch, 50_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StreamConfig {
    /// Fraction of edges loaded as the initial snapshot.
    pub load_fraction: f64,
    /// Edge additions per batch.
    pub additions_per_batch: usize,
    /// Edge deletions per batch.
    pub deletions_per_batch: usize,
}

impl StreamConfig {
    /// The paper's protocol: 50 % initial load, 50K + 50K per batch.
    pub const fn paper_default() -> Self {
        Self {
            load_fraction: 0.5,
            additions_per_batch: 50_000,
            deletions_per_batch: 50_000,
        }
    }

    /// Overrides the batch sizes (builder style), e.g. for scaled-down runs.
    #[must_use]
    pub const fn with_batch_size(mut self, additions: usize, deletions: usize) -> Self {
        self.additions_per_batch = additions;
        self.deletions_per_batch = deletions;
        self
    }

    /// Overrides the initial load fraction (builder style).
    ///
    /// # Panics
    ///
    /// `build` panics if the fraction is outside `[0, 1]`.
    #[must_use]
    pub const fn with_load_fraction(mut self, fraction: f64) -> Self {
        self.load_fraction = fraction;
        self
    }

    /// Splits `edges` into the initial snapshot and the addition pool and
    /// returns the ready workload.
    ///
    /// # Panics
    ///
    /// Panics if `load_fraction` is outside `[0, 1]`.
    pub fn build(
        self,
        mut edges: Vec<(VertexId, VertexId, Weight)>,
        seed: u64,
    ) -> StreamingWorkload {
        assert!(
            (0.0..=1.0).contains(&self.load_fraction),
            "load fraction must be in [0, 1], got {}",
            self.load_fraction
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        edges.shuffle(&mut rng);
        let loaded_count = ((edges.len() as f64) * self.load_fraction).round() as usize;
        let pending: Vec<_> = edges.split_off(loaded_count);
        StreamingWorkload {
            config: self,
            loaded: edges,
            pending,
            rng,
        }
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A streaming workload: the initial snapshot plus an iterator of batches.
///
/// Each call to [`StreamingWorkload::next_batch`] consumes additions from
/// the pending pool and samples deletions from the currently-loaded edge
/// set, then accounts the batch as applied (added edges become deletable in
/// later batches; deleted edges leave the loaded set).
#[derive(Debug, Clone)]
pub struct StreamingWorkload {
    config: StreamConfig,
    loaded: Vec<(VertexId, VertexId, Weight)>,
    pending: Vec<(VertexId, VertexId, Weight)>,
    rng: SmallRng,
}

impl StreamingWorkload {
    /// The edges of the initial snapshot `G0`.
    pub fn initial_edges(&self) -> &[(VertexId, VertexId, Weight)] {
        &self.loaded
    }

    /// Number of vertices spanned by the whole edge universe — the maximum
    /// endpoint plus one across loaded *and* pending edges, so additions
    /// never go out of bounds.
    pub fn num_vertices(&self) -> usize {
        self.loaded
            .iter()
            .chain(self.pending.iter())
            .map(|&(u, v, _)| u.index().max(v.index()) + 1)
            .max()
            .unwrap_or(0)
    }

    /// The protocol configuration.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Remaining edges available as future additions.
    pub fn pending_additions(&self) -> usize {
        self.pending.len()
    }

    /// Emits the next batch: additions first, then deletions.
    ///
    /// Returns `None` once either pool cannot fill its quota (the paper
    /// always runs full batches, so we never emit a partial one unless a
    /// quota is zero).
    pub fn next_batch(&mut self) -> Option<Vec<EdgeUpdate>> {
        let n_add = self.config.additions_per_batch;
        let n_del = self.config.deletions_per_batch;
        if self.pending.len() < n_add || self.loaded.len() < n_del {
            return None;
        }
        let mut batch = Vec::with_capacity(n_add + n_del);
        let mut added = Vec::with_capacity(n_add);
        for _ in 0..n_add {
            let (u, v, w) = self.pending.pop().expect("checked above");
            batch.push(EdgeUpdate::insert(u, v, w));
            added.push((u, v, w));
        }
        for _ in 0..n_del {
            let idx = self.rng.gen_range(0..self.loaded.len());
            let (u, v, w) = self.loaded.swap_remove(idx);
            batch.push(EdgeUpdate::delete(u, v, w));
        }
        // Additions join the loaded set only after deletion sampling, so a
        // batch never deletes an edge it has just added.
        self.loaded.extend(added);
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erdos_renyi;
    use crate::weights::WeightDistribution;
    use cisgraph_types::UpdateKind;
    use std::collections::HashSet;

    fn edges(n: usize, m: usize, seed: u64) -> Vec<(VertexId, VertexId, Weight)> {
        erdos_renyi::generate(n, m, WeightDistribution::paper_default(), seed)
    }

    #[test]
    fn split_respects_fraction() {
        let w = StreamConfig::paper_default().build(edges(100, 1000, 1), 7);
        assert_eq!(w.initial_edges().len(), 500);
        assert_eq!(w.pending_additions(), 500);
    }

    #[test]
    fn batch_layout_additions_then_deletions() {
        let mut w = StreamConfig::paper_default()
            .with_batch_size(10, 5)
            .build(edges(100, 1000, 1), 7);
        let batch = w.next_batch().unwrap();
        assert_eq!(batch.len(), 15);
        assert!(batch[..10].iter().all(|u| u.kind() == UpdateKind::Insert));
        assert!(batch[10..].iter().all(|u| u.kind() == UpdateKind::Delete));
    }

    #[test]
    fn deletions_target_loaded_edges() {
        let all = edges(100, 1000, 2);
        let mut w = StreamConfig::paper_default()
            .with_batch_size(0, 20)
            .build(all.clone(), 3);
        let initial: HashSet<_> = w.initial_edges().iter().copied().collect();
        let batch = w.next_batch().unwrap();
        for u in &batch {
            assert!(initial.contains(&(u.src(), u.dst(), u.weight())));
        }
    }

    #[test]
    fn no_same_batch_add_then_delete() {
        let mut w = StreamConfig::paper_default()
            .with_batch_size(50, 50)
            .build(edges(50, 600, 4), 5);
        for _ in 0..3 {
            let batch = w.next_batch().unwrap();
            let adds: HashSet<_> = batch
                .iter()
                .filter(|u| u.kind() == UpdateKind::Insert)
                .map(|u| (u.src(), u.dst()))
                .collect();
            for d in batch.iter().filter(|u| u.kind() == UpdateKind::Delete) {
                assert!(
                    !adds.contains(&(d.src(), d.dst())),
                    "deleted a just-added edge"
                );
            }
        }
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut w = StreamConfig::paper_default()
            .with_batch_size(300, 0)
            .build(edges(100, 1000, 1), 7);
        assert!(w.next_batch().is_some()); // 500 -> 200 pending
        assert!(w.next_batch().is_none()); // 200 < 300
    }

    #[test]
    fn added_edges_become_deletable_later() {
        // Load nothing initially; additions must feed the deletion pool.
        let mut w = StreamConfig::paper_default()
            .with_load_fraction(0.0)
            .with_batch_size(10, 0)
            .build(edges(50, 40, 1), 7);
        assert!(w.initial_edges().is_empty());
        let _ = w.next_batch().unwrap();
        // Reconfigure is not exposed; emulate by checking loaded grew.
        assert_eq!(w.loaded.len(), 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = {
            let mut w = StreamConfig::paper_default()
                .with_batch_size(20, 20)
                .build(edges(80, 800, 9), 11);
            w.next_batch().unwrap()
        };
        let b = {
            let mut w = StreamConfig::paper_default()
                .with_batch_size(20, 20)
                .build(edges(80, 800, 9), 11);
            w.next_batch().unwrap()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "load fraction")]
    fn invalid_fraction_panics() {
        let _ = StreamConfig::paper_default()
            .with_load_fraction(1.5)
            .build(Vec::new(), 1);
    }

    #[test]
    fn num_vertices_spans_pending() {
        let e = vec![
            (VertexId::new(0), VertexId::new(1), Weight::ONE),
            (VertexId::new(5), VertexId::new(2), Weight::ONE),
        ];
        let w = StreamConfig::paper_default()
            .with_load_fraction(0.5)
            .build(e, 1);
        assert_eq!(w.num_vertices(), 6);
    }
}
