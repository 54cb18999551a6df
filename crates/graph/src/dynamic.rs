//! Mutable adjacency-list graph that consumes streaming updates.

use crate::adjacency::{AdjacencyList, DEFAULT_PROMOTION_THRESHOLD};
use crate::{Csr, Edge, GraphError, GraphView, Snapshot};
use cisgraph_types::{EdgeUpdate, UpdateKind, VertexId, Weight};
use std::collections::HashMap;
use std::time::Instant;

/// A mutable directed graph keeping both out- and in-adjacency.
///
/// This is the structure the software engines mutate as update batches
/// arrive. Maintaining the transpose alongside the forward adjacency costs
/// 2× memory but makes deletion repair (recomputing a vertex from its
/// in-neighbors) O(in-degree) instead of O(E).
///
/// Storage is *degree-adaptive* (see `docs/graph-storage.md`): each
/// per-vertex list starts as a plain vector, and once it crosses the
/// promotion threshold ([`DEFAULT_PROMOTION_THRESHOLD`] unless overridden
/// via [`DynamicGraph::with_promotion_threshold`]) it grows a
/// `destination -> positions` index, making deletion and membership tests
/// on hub vertices O(1) expected instead of O(degree). The adjacency
/// *layout* — and therefore every [`GraphView`] slice and [`Snapshot`] —
/// is bit-identical to the naive representation under any update sequence.
///
/// Parallel edges are permitted; deletion removes one matching edge.
///
/// # Examples
///
/// ```
/// use cisgraph_graph::{DynamicGraph, GraphView};
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(3);
/// let e = EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(1.0)?);
/// g.apply(e)?;
/// assert!(g.contains_edge(VertexId::new(0), VertexId::new(1)));
/// g.apply(EdgeUpdate::delete(VertexId::new(0), VertexId::new(1), Weight::new(1.0)?))?;
/// assert_eq!(g.num_edges(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    out: Vec<AdjacencyList>,
    inc: Vec<AdjacencyList>,
    num_edges: usize,
    /// Degree beyond which a list gains its destination index.
    threshold: usize,
    /// Lifetime count of list promotions (out- and in-lists both count).
    promotions: u64,
    /// When `Some`, source vertices whose out-list changed since the last
    /// [`DynamicGraph::take_dirty_rows`]. Off by default (no per-update
    /// cost); delta checkpointing opts in.
    dirty: Option<DirtyRows>,
}

/// Dirty-row set: one bit per vertex for O(1) membership plus the list of
/// marked rows, so taking the set costs O(marked), not O(V).
#[derive(Debug, Clone, Default)]
struct DirtyRows {
    bits: Vec<u64>,
    rows: Vec<u32>,
}

impl DirtyRows {
    #[inline]
    fn mark(&mut self, row: u32) {
        let (word, bit) = (row as usize / 64, 1u64 << (row % 64));
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        if self.bits[word] & bit == 0 {
            self.bits[word] |= bit;
            self.rows.push(row);
        }
    }

    fn take(&mut self) -> Vec<u32> {
        let mut rows = std::mem::take(&mut self.rows);
        for &row in &rows {
            self.bits[row as usize / 64] = 0;
        }
        rows.sort_unstable();
        rows
    }
}

/// One applied update's inverse, recorded by
/// [`DynamicGraph::apply_batch_undoable`].
#[derive(Debug, Clone, Copy)]
enum UndoOp {
    /// Pop the tail of `out[src]` and `inc[dst]`, dropping any index the
    /// insert built.
    Insert {
        src: VertexId,
        dst: VertexId,
        promoted_out: bool,
        promoted_in: bool,
    },
    /// Put `src -> dst` (weight `weight`) back at the positions the
    /// swap-remove took it from.
    Delete {
        src: VertexId,
        dst: VertexId,
        weight: Weight,
        out_pos: u32,
        in_pos: u32,
    },
}

/// The inverse of one batch that [`DynamicGraph::apply_batch_undoable`]
/// applied. Hand it back to [`DynamicGraph::undo`] to restore the graph to
/// exactly its pre-batch adjacency; dropping it keeps the batch.
#[derive(Debug)]
#[must_use = "dropping an undo log keeps the batch; pass it to `undo` to revert"]
pub struct UndoLog {
    ops: Vec<UndoOp>,
}

impl Default for DynamicGraph {
    fn default() -> Self {
        Self::new(0)
    }
}

impl DynamicGraph {
    /// Creates an empty graph with `num_vertices` isolated vertices and the
    /// default promotion threshold.
    pub fn new(num_vertices: usize) -> Self {
        Self::with_promotion_threshold(num_vertices, DEFAULT_PROMOTION_THRESHOLD)
    }

    /// Creates an empty graph whose adjacency lists promote to the indexed
    /// representation once they exceed `threshold` entries. Pass
    /// `usize::MAX` to pin the naive (never-indexed) representation — the
    /// storage-equivalence tests and the pre-optimization bench baseline
    /// use exactly that.
    pub fn with_promotion_threshold(num_vertices: usize, threshold: usize) -> Self {
        Self {
            out: vec![AdjacencyList::default(); num_vertices],
            inc: vec![AdjacencyList::default(); num_vertices],
            num_edges: 0,
            threshold,
            promotions: 0,
            dirty: None,
        }
    }

    /// Starts tracking which rows' out-adjacency changes. Idempotent: a
    /// repeated call never clears rows already recorded. Only **source**
    /// vertices are tracked — checkpoints store out-adjacency rows only,
    /// so the reverse side is derived state.
    ///
    /// Rows are marked as updates apply, so a batch that
    /// [`apply_batch`](Self::apply_batch) rolls back (or that
    /// [`undo`](Self::undo) reverts) may leave its rows marked. That is
    /// harmless: a delta checkpoint then rewrites a few unchanged rows.
    pub fn enable_dirty_rows(&mut self) {
        if self.dirty.is_none() {
            self.dirty = Some(DirtyRows::default());
        }
    }

    /// Whether [`DynamicGraph::enable_dirty_rows`] has been called.
    pub fn dirty_rows_enabled(&self) -> bool {
        self.dirty.is_some()
    }

    /// Takes the set of source rows marked since the last call, sorted
    /// ascending, and resets tracking to empty. Returns `None` when
    /// tracking was never enabled (callers must then fall back to a full
    /// serialization).
    pub fn take_dirty_rows(&mut self) -> Option<Vec<u32>> {
        self.dirty.as_mut().map(DirtyRows::take)
    }

    #[inline]
    fn mark_dirty(&mut self, src: VertexId) {
        if let Some(dirty) = &mut self.dirty {
            dirty.mark(src.raw());
        }
    }

    /// The degree beyond which adjacency lists grow a destination index.
    pub fn promotion_threshold(&self) -> usize {
        self.threshold
    }

    /// How many adjacency lists (out- and in-lists both count) have been
    /// promoted to the indexed representation so far.
    pub fn index_promotions(&self) -> u64 {
        self.promotions
    }

    /// Builds a graph from an edge triple list, sizing the vertex set to the
    /// largest endpoint seen (or `min_vertices`, whichever is larger).
    pub fn from_edges(
        min_vertices: usize,
        edges: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Self {
        let mut g = Self::new(min_vertices);
        g.extend(edges);
        g
    }

    fn grow(&mut self, num_vertices: usize) {
        self.out.resize_with(num_vertices, AdjacencyList::default);
        self.inc.resize_with(num_vertices, AdjacencyList::default);
    }

    fn check(&self, v: VertexId) -> Result<(), GraphError> {
        if v.index() >= self.out.len() {
            return Err(GraphError::VertexOutOfBounds {
                vertex: v,
                num_vertices: self.out.len(),
            });
        }
        Ok(())
    }

    /// Appends `u -> v` to both sides; the result records which lists
    /// this insert promoted, so it can be undone exactly.
    fn insert_edge_unchecked(&mut self, u: VertexId, v: VertexId, w: Weight) -> UndoOp {
        let promoted_out = self.out[u.index()].push(Edge::new(v, w), self.threshold);
        let promoted_in = self.inc[v.index()].push(Edge::new(u, w), self.threshold);
        self.promotions += u64::from(promoted_out) + u64::from(promoted_in);
        self.num_edges += 1;
        self.mark_dirty(u);
        UndoOp::Insert {
            src: u,
            dst: v,
            promoted_out,
            promoted_in,
        }
    }

    /// Inserts the edge `u -> v` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfBounds`] if either endpoint is
    /// outside the vertex set.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), GraphError> {
        self.check(u)?;
        self.check(v)?;
        self.insert_edge_unchecked(u, v, w);
        Ok(())
    }

    /// Removes one edge `u -> v`, returning its weight.
    ///
    /// If parallel edges exist, the one matching `expect_weight` is preferred;
    /// otherwise the first `u -> v` entry is removed. On an indexed hub list
    /// this is O(multiplicity) expected; the unindexed fallback is a single
    /// linear pass tracking both the exact-weight match and the first match.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeNotFound`] if no `u -> v` edge exists and
    /// [`GraphError::VertexOutOfBounds`] for invalid endpoints.
    pub fn remove_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        expect_weight: Option<Weight>,
    ) -> Result<Weight, GraphError> {
        self.remove_edge_at(u, v, expect_weight)
            .map(|(weight, _, _)| weight)
    }

    /// [`remove_edge`](Self::remove_edge), also returning the out- and
    /// in-list positions the edge was taken from (for the undo log).
    fn remove_edge_at(
        &mut self,
        u: VertexId,
        v: VertexId,
        expect_weight: Option<Weight>,
    ) -> Result<(Weight, u32, u32), GraphError> {
        self.check(u)?;
        self.check(v)?;
        let (out_pos, removed) = self.out[u.index()]
            .remove_weight_preferred(v, expect_weight)
            .ok_or(GraphError::EdgeNotFound { src: u, dst: v })?;
        let in_pos = self.inc[v.index()]
            .remove_exact(u, removed.weight())
            .expect("in-adjacency out of sync with out-adjacency");
        self.num_edges -= 1;
        self.mark_dirty(u);
        Ok((removed.weight(), out_pos, in_pos))
    }

    /// Applies one update and returns its inverse.
    fn apply_recorded(&mut self, update: EdgeUpdate) -> Result<UndoOp, GraphError> {
        let (src, dst) = (update.src(), update.dst());
        match update.kind() {
            UpdateKind::Insert => {
                self.check(src)?;
                self.check(dst)?;
                Ok(self.insert_edge_unchecked(src, dst, update.weight()))
            }
            UpdateKind::Delete => {
                let (weight, out_pos, in_pos) =
                    self.remove_edge_at(src, dst, Some(update.weight()))?;
                Ok(UndoOp::Delete {
                    src,
                    dst,
                    weight,
                    out_pos,
                    in_pos,
                })
            }
        }
    }

    /// Applies one streaming update (insert or delete).
    ///
    /// # Errors
    ///
    /// Propagates [`GraphError::EdgeNotFound`] for deletions of absent edges
    /// and [`GraphError::VertexOutOfBounds`] for invalid endpoints.
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<(), GraphError> {
        self.apply_recorded(update).map(drop)
    }

    /// Applies a whole batch atomically: either every update applies, or
    /// the graph is left exactly as it was.
    ///
    /// This is [`apply_batch_undoable`](Self::apply_batch_undoable) with
    /// its undo log dropped.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicGraph::apply`], for the first offending update in
    /// stream order; the updates before it are rolled back.
    pub fn apply_batch(&mut self, batch: &[EdgeUpdate]) -> Result<(), GraphError> {
        self.apply_batch_undoable(batch).map(drop)
    }

    /// Applies a whole batch in stream order, recording each update's
    /// inverse: an insert undoes as a pop, a delete as the inverse of its
    /// swap-remove. At the first error the recorded prefix is undone, so a
    /// rejected batch leaves every adjacency slice, `num_edges`, and the
    /// promotion count exactly as they were. On success the returned log
    /// can still revert the batch through [`DynamicGraph::undo`] — the
    /// serving layer does that when the write-ahead log refuses it.
    ///
    /// Updates apply **in stream order** — reordering by source would
    /// change the adjacency layout, which the storage-equivalence
    /// guarantee forbids.
    ///
    /// When the metrics sink is enabled a successful batch records the
    /// `graph.inserts`, `graph.deletes`, `graph.index_promotions` counters
    /// and the `graph.apply_batch_ns` histogram.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicGraph::apply_batch`].
    pub fn apply_batch_undoable(&mut self, batch: &[EdgeUpdate]) -> Result<UndoLog, GraphError> {
        let obs_on = cisgraph_obs::enabled();
        let start = obs_on.then(Instant::now);
        let promotions_before = self.promotions;
        let mut log = UndoLog {
            ops: Vec::with_capacity(batch.len()),
        };
        for &u in batch {
            match self.apply_recorded(u) {
                Ok(op) => log.ops.push(op),
                Err(e) => {
                    self.undo(log);
                    return Err(e);
                }
            }
        }
        if obs_on {
            let inserts = batch
                .iter()
                .filter(|u| matches!(u.kind(), UpdateKind::Insert))
                .count() as u64;
            cisgraph_obs::counter("graph.inserts").add(inserts);
            cisgraph_obs::counter("graph.deletes").add(batch.len() as u64 - inserts);
            cisgraph_obs::counter("graph.index_promotions")
                .add(self.promotions - promotions_before);
            if let Some(start) = start {
                cisgraph_obs::histogram("graph.apply_batch_ns")
                    .record(start.elapsed().as_nanos() as u64);
            }
        }
        Ok(log)
    }

    /// Reverts the batch `log` was recorded for, newest update first. The
    /// graph must not have been mutated since that
    /// [`apply_batch_undoable`](Self::apply_batch_undoable) call; the
    /// adjacency slices, `num_edges`, and the promotion count then return
    /// exactly to their pre-batch values (dirty-row marks stay, see
    /// [`enable_dirty_rows`](Self::enable_dirty_rows)).
    pub fn undo(&mut self, log: UndoLog) {
        for op in log.ops.into_iter().rev() {
            match op {
                UndoOp::Insert {
                    src,
                    dst,
                    promoted_out,
                    promoted_in,
                } => {
                    self.out[src.index()].pop(promoted_out);
                    self.inc[dst.index()].pop(promoted_in);
                    self.promotions -= u64::from(promoted_out) + u64::from(promoted_in);
                    self.num_edges -= 1;
                }
                UndoOp::Delete {
                    src,
                    dst,
                    weight,
                    out_pos,
                    in_pos,
                } => {
                    self.out[src.index()].unremove(out_pos, Edge::new(dst, weight));
                    self.inc[dst.index()].unremove(in_pos, Edge::new(src, weight));
                    self.num_edges += 1;
                }
            }
        }
    }

    /// Checks whether [`DynamicGraph::apply_batch`] would accept the whole
    /// batch, **without mutating anything**.
    ///
    /// No serving path needs this any more — `apply_batch` is atomic, so
    /// `QueryServer` applies first and undoes on failure. It stays public
    /// because the repository benchmark's traced replica still times it as
    /// a layer of its own.
    ///
    /// The simulation tracks per-`(src, dst)` edge multiplicity: a delete
    /// succeeds iff at least one `src -> dst` edge would exist at that
    /// point in the stream, which matches [`DynamicGraph::remove_edge`]'s
    /// semantics exactly — it removes *some* matching edge regardless of
    /// weight, preferring an exact-weight match only for victim selection.
    ///
    /// # Errors
    ///
    /// Returns the error `apply_batch` would report for the first
    /// offending update: [`GraphError::VertexOutOfBounds`] or
    /// [`GraphError::EdgeNotFound`].
    pub fn validate_batch(&self, batch: &[EdgeUpdate]) -> Result<(), GraphError> {
        // `delta` is the net multiplicity change the batch prefix would
        // have made; `base` memoizes the standing multiplicity (one
        // out-list scan per distinct pair, on demand).
        let mut delta: HashMap<(u32, u32), i64> = HashMap::new();
        let mut base: HashMap<(u32, u32), i64> = HashMap::new();
        for u in batch {
            self.check(u.src())?;
            self.check(u.dst())?;
            let key = (u.src().raw(), u.dst().raw());
            match u.kind() {
                UpdateKind::Insert => *delta.entry(key).or_insert(0) += 1,
                UpdateKind::Delete => {
                    let b = *base.entry(key).or_insert_with(|| {
                        self.out[u.src().index()]
                            .as_slice()
                            .iter()
                            .filter(|e| e.to() == u.dst())
                            .count() as i64
                    });
                    let d = delta.entry(key).or_insert(0);
                    if b + *d <= 0 {
                        return Err(GraphError::EdgeNotFound {
                            src: u.src(),
                            dst: u.dst(),
                        });
                    }
                    *d -= 1;
                }
            }
        }
        Ok(())
    }

    /// Whether at least one `u -> v` edge exists. O(1) expected on indexed
    /// hub lists.
    pub fn contains_edge(&self, u: VertexId, v: VertexId) -> bool {
        u.index() < self.out.len() && self.out[u.index()].contains(v)
    }

    /// Returns the weight of the first `u -> v` edge, if any. O(1) expected
    /// on indexed hub lists.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.out.get(u.index())?.first_weight(v)
    }

    /// Materializes an immutable CSR [`Snapshot`] of the current topology.
    ///
    /// When the metrics sink is enabled the build time is recorded into the
    /// `graph.snapshot_build_ns` histogram.
    pub fn snapshot(&self) -> Snapshot {
        let start = cisgraph_obs::enabled().then(Instant::now);
        let snap = Snapshot::from_forward(Csr::from_adjacency(&self.out));
        if let Some(start) = start {
            cisgraph_obs::histogram("graph.snapshot_build_ns")
                .record(start.elapsed().as_nanos() as u64);
        }
        snap
    }

    /// Rebuilds a dynamic graph from its out-adjacency rows, one per vertex
    /// (the checkpoint recovery path): rows are inserted in ascending
    /// vertex order, so every **out**-adjacency list reproduces the
    /// checkpointed order exactly — which is all replay determinism needs,
    /// because deletion resolution ([`DynamicGraph::remove_edge`]) picks its
    /// victim from the out-list and future snapshots derive the reverse CSR
    /// from the forward one. In-lists are multiset-equal but normalized to
    /// ascending-source order.
    ///
    /// # Panics
    ///
    /// Panics if an edge targets a vertex outside `0..rows.len()`.
    pub fn from_rows<'a>(
        rows: impl ExactSizeIterator<Item = &'a [Edge]>,
        threshold: usize,
    ) -> Self {
        let mut g = Self::with_promotion_threshold(rows.len(), threshold);
        for (u, row) in rows.enumerate() {
            let src = VertexId::from_index(u);
            for e in row {
                g.insert_edge_unchecked(src, e.to(), e.weight());
            }
        }
        g
    }

    /// Iterates over every edge as `(src, dst, weight)` triples.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.out.iter().enumerate().flat_map(|(u, edges)| {
            edges
                .as_slice()
                .iter()
                .map(move |e| (VertexId::from_index(u), e.to(), e.weight()))
        })
    }
}

impl GraphView for DynamicGraph {
    fn num_vertices(&self) -> usize {
        self.out.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn out_edges(&self, v: VertexId) -> &[Edge] {
        self.out[v.index()].as_slice()
    }

    fn in_edges(&self, v: VertexId) -> &[Edge] {
        self.inc[v.index()].as_slice()
    }
}

impl Extend<(VertexId, VertexId, Weight)> for DynamicGraph {
    fn extend<T: IntoIterator<Item = (VertexId, VertexId, Weight)>>(&mut self, iter: T) {
        for (u, v, w) in iter {
            let needed = u.index().max(v.index()) + 1;
            if needed > self.out.len() {
                self.grow(needed);
            }
            self.insert_edge_unchecked(u, v, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    #[test]
    fn empty_graph() {
        let g = DynamicGraph::new(5);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(g.out_edges(v(4)).is_empty());
    }

    #[test]
    fn insert_maintains_both_directions() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(2), w(1.5)).unwrap();
        assert_eq!(g.out_edges(v(0)), &[Edge::new(v(2), w(1.5))]);
        assert_eq!(g.in_edges(v(2)), &[Edge::new(v(0), w(1.5))]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn remove_maintains_both_directions() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(0), v(2), w(2.0)).unwrap();
        let removed = g.remove_edge(v(0), v(1), None).unwrap();
        assert_eq!(removed, w(1.0));
        assert!(!g.contains_edge(v(0), v(1)));
        assert!(g.in_edges(v(1)).is_empty());
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn remove_prefers_matching_weight_among_parallel_edges() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(5.0)).unwrap();
        let removed = g.remove_edge(v(0), v(1), Some(w(5.0))).unwrap();
        assert_eq!(removed, w(5.0));
        assert_eq!(g.edge_weight(v(0), v(1)), Some(w(1.0)));
    }

    #[test]
    fn remove_prefers_matching_weight_on_indexed_lists() {
        // Same scenario as above, but past the promotion threshold so the
        // indexed removal path is exercised.
        let mut g = DynamicGraph::with_promotion_threshold(3, 1);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(5.0)).unwrap();
        g.insert_edge(v(0), v(2), w(9.0)).unwrap();
        assert!(g.index_promotions() > 0, "threshold 1 must promote");
        let removed = g.remove_edge(v(0), v(1), Some(w(5.0))).unwrap();
        assert_eq!(removed, w(5.0));
        assert_eq!(g.edge_weight(v(0), v(1)), Some(w(1.0)));
    }

    #[test]
    fn remove_missing_edge_errors() {
        let mut g = DynamicGraph::new(2);
        let err = g.remove_edge(v(0), v(1), None).unwrap_err();
        assert!(matches!(err, GraphError::EdgeNotFound { .. }));
    }

    #[test]
    fn out_of_bounds_errors() {
        let mut g = DynamicGraph::new(2);
        assert!(matches!(
            g.insert_edge(v(0), v(9), w(1.0)),
            Err(GraphError::VertexOutOfBounds { .. })
        ));
    }

    #[test]
    fn apply_batch_roundtrip() {
        let mut g = DynamicGraph::new(4);
        let batch = [
            EdgeUpdate::insert(v(0), v(1), w(1.0)),
            EdgeUpdate::insert(v(1), v(2), w(2.0)),
            EdgeUpdate::delete(v(0), v(1), w(1.0)),
        ];
        g.apply_batch(&batch).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert!(g.contains_edge(v(1), v(2)));
    }

    #[test]
    fn large_batch_matches_per_update_application() {
        // The undo-logged batch path must be indistinguishable from
        // applying one-by-one.
        let n = 16u32;
        let mut batch = Vec::new();
        for i in 0..128 {
            batch.push(EdgeUpdate::insert(
                v(i % n),
                v((i * 13 + 1) % n),
                w(f64::from(i % 5 + 1)),
            ));
            if i % 3 == 0 {
                batch.push(EdgeUpdate::delete(
                    v(i % n),
                    v((i * 13 + 1) % n),
                    w(f64::from(i % 5 + 1)),
                ));
            }
        }
        let mut fast = DynamicGraph::new(n as usize);
        fast.apply_batch(&batch).unwrap();
        let mut slow = DynamicGraph::new(n as usize);
        for &u in &batch {
            slow.apply(u).unwrap();
        }
        for u in 0..n {
            assert_eq!(fast.out_edges(v(u)), slow.out_edges(v(u)), "out {u}");
            assert_eq!(fast.in_edges(v(u)), slow.in_edges(v(u)), "in {u}");
        }
        assert_eq!(fast.num_edges(), slow.num_edges());
    }

    /// Every adjacency slice, the edge count, and the promotion count.
    fn fingerprint(g: &DynamicGraph) -> (Vec<Vec<Edge>>, usize, u64) {
        let n = g.num_vertices() as u32;
        let rows = (0..n)
            .flat_map(|u| [g.out_edges(v(u)).to_vec(), g.in_edges(v(u)).to_vec()])
            .collect();
        (rows, g.num_edges(), g.index_promotions())
    }

    #[test]
    fn large_batch_error_rolls_back_everything() {
        // A failing delete in the middle of a large batch undoes the
        // prefix before it, including the hub promotions it caused and the
        // deletes that swap-moved tail entries.
        let mut g = DynamicGraph::with_promotion_threshold(4, 8);
        for i in 0..12 {
            g.insert_edge(v(0), v(i % 3 + 1), w(f64::from(i + 1)))
                .unwrap();
        }
        let before = fingerprint(&g);
        let mut batch: Vec<EdgeUpdate> = (0..64)
            .map(|i| EdgeUpdate::insert(v(i % 4), v(1), w(f64::from(i + 1))))
            .collect();
        batch.insert(10, EdgeUpdate::delete(v(0), v(2), w(2.0)));
        batch.insert(20, EdgeUpdate::delete(v(0), v(1), w(7.0)));
        batch.insert(40, EdgeUpdate::delete(v(0), v(3), w(1.0)));
        batch.insert(41, EdgeUpdate::delete(v(3), v(2), w(1.0)));
        let err = g.apply_batch(&batch).unwrap_err();
        assert!(matches!(
            err,
            GraphError::EdgeNotFound { src, dst } if src == v(3) && dst == v(2)
        ));
        assert_eq!(fingerprint(&g), before, "a rejected batch leaves no trace");
        // The same graph still accepts a valid batch afterwards.
        g.apply_batch(&batch[..41]).unwrap();
    }

    #[test]
    fn undo_reverts_an_applied_batch() {
        let mut g = DynamicGraph::with_promotion_threshold(5, 2);
        g.enable_dirty_rows();
        for d in 1..5 {
            g.insert_edge(v(0), v(d), w(f64::from(d))).unwrap();
        }
        let _ = g.take_dirty_rows();
        let before = fingerprint(&g);
        let batch = [
            EdgeUpdate::delete(v(0), v(1), w(1.0)),
            EdgeUpdate::insert(v(2), v(3), w(1.0)),
            EdgeUpdate::insert(v(2), v(4), w(1.0)),
            EdgeUpdate::insert(v(2), v(1), w(1.0)),
            EdgeUpdate::delete(v(0), v(3), w(9.0)),
        ];
        let log = g.apply_batch_undoable(&batch).unwrap();
        assert!(g.index_promotions() > before.2, "v2's out-list promoted");
        g.undo(log);
        assert_eq!(fingerprint(&g), before);
        // Rows the reverted batch touched may stay marked.
        assert_eq!(g.take_dirty_rows(), Some(vec![0, 2]));
    }

    #[test]
    fn from_edges_grows_vertex_set() {
        let g = DynamicGraph::from_edges(1, [(v(0), v(7), w(1.0))]);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn iter_edges_covers_all() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(2), v(0), w(2.0)).unwrap();
        let mut edges: Vec<_> = g.iter_edges().collect();
        edges.sort_by_key(|&(u, _, _)| u);
        assert_eq!(edges, vec![(v(0), v(1), w(1.0)), (v(2), v(0), w(2.0))]);
    }

    #[test]
    fn extend_trait() {
        let mut g = DynamicGraph::new(0);
        g.extend([(v(0), v(1), w(1.0)), (v(1), v(2), w(1.0))]);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn snapshot_matches_dynamic() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(0), v(2), w(2.0)).unwrap();
        g.insert_edge(v(2), v(1), w(3.0)).unwrap();
        let s = g.snapshot();
        assert_eq!(s.num_vertices(), 3);
        assert_eq!(s.num_edges(), 3);
        assert_eq!(s.out_degree(v(0)), 2);
        assert_eq!(s.in_degree(v(1)), 2);
    }

    #[test]
    fn dirty_rows_are_deduplicated_and_sorted() {
        let mut g = DynamicGraph::new(200);
        g.enable_dirty_rows();
        for u in [130u32, 3, 64, 3, 199, 130, 0] {
            g.insert_edge(v(u), v(1), w(1.0)).unwrap();
        }
        assert_eq!(g.take_dirty_rows(), Some(vec![0, 3, 64, 130, 199]));
        g.insert_edge(v(130), v(2), w(1.0)).unwrap();
        assert_eq!(g.take_dirty_rows(), Some(vec![130]), "take clears the bits");
        // Vertices added after tracking started are tracked too.
        g.extend([(v(500), v(0), w(1.0))]);
        assert_eq!(g.take_dirty_rows(), Some(vec![500]));
    }

    #[test]
    fn dirty_rows_track_sources_only() {
        let mut g = DynamicGraph::new(4);
        assert!(!g.dirty_rows_enabled());
        assert_eq!(g.take_dirty_rows(), None, "disabled tracking returns None");
        g.enable_dirty_rows();
        g.insert_edge(v(2), v(0), w(1.0)).unwrap();
        g.insert_edge(v(0), v(3), w(1.0)).unwrap();
        g.remove_edge(v(2), v(0), None).unwrap();
        assert_eq!(g.take_dirty_rows(), Some(vec![0, 2]), "sorted src rows");
        assert_eq!(g.take_dirty_rows(), Some(vec![]), "take resets the set");
        // Failed mutations must not dirty anything.
        assert!(g.remove_edge(v(1), v(2), None).is_err());
        assert_eq!(g.take_dirty_rows(), Some(vec![]));
        // Re-enabling must not clear rows recorded since the last take.
        g.insert_edge(v(3), v(1), w(1.0)).unwrap();
        g.enable_dirty_rows();
        assert_eq!(g.take_dirty_rows(), Some(vec![3]));
    }

    #[test]
    fn validate_batch_agrees_with_apply_batch() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let cases: Vec<Vec<EdgeUpdate>> = vec![
            vec![EdgeUpdate::insert(v(1), v(2), w(1.0))],
            // Delete of a standing edge, then a second delete that must fail.
            vec![
                EdgeUpdate::delete(v(0), v(1), w(1.0)),
                EdgeUpdate::delete(v(0), v(1), w(1.0)),
            ],
            // Insert-then-delete inside one batch is fine.
            vec![
                EdgeUpdate::insert(v(2), v(3), w(2.0)),
                EdgeUpdate::delete(v(2), v(3), w(2.0)),
            ],
            // Delete before the matching insert fails.
            vec![
                EdgeUpdate::delete(v(2), v(3), w(2.0)),
                EdgeUpdate::insert(v(2), v(3), w(2.0)),
            ],
            // Out-of-bounds endpoint.
            vec![EdgeUpdate::insert(v(0), v(9), w(1.0))],
            // Delete with a non-matching weight still succeeds (remove_edge
            // falls back to the first matching destination).
            vec![EdgeUpdate::delete(v(0), v(1), w(42.0))],
        ];
        for batch in cases {
            let verdict = g.validate_batch(&batch);
            let mut probe = g.clone();
            let applied = probe.apply_batch(&batch);
            assert_eq!(
                verdict.is_ok(),
                applied.is_ok(),
                "validate/apply disagree on {batch:?}"
            );
            assert_eq!(g.num_edges(), 1, "validate_batch must not mutate");
        }
    }

    #[test]
    fn promotion_threshold_is_respected() {
        let mut g = DynamicGraph::with_promotion_threshold(4, 2);
        assert_eq!(g.promotion_threshold(), 2);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(0), v(2), w(1.0)).unwrap();
        assert_eq!(g.index_promotions(), 0, "at threshold, not past it");
        g.insert_edge(v(0), v(3), w(1.0)).unwrap();
        assert_eq!(g.index_promotions(), 1, "out-list of v0 crossed");
        // The naive-pinned configuration never promotes.
        let mut naive = DynamicGraph::with_promotion_threshold(4, usize::MAX);
        for _ in 0..100 {
            naive.insert_edge(v(0), v(1), w(1.0)).unwrap();
        }
        assert_eq!(naive.index_promotions(), 0);
    }
}
