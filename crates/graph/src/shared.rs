//! A cheap, cloneable read-only handle over a [`DynamicGraph`].
//!
//! The serving layer fans one batch out across many worker threads, each of
//! which only *reads* the post-batch topology. [`SharedGraph`] wraps the
//! graph in an [`Arc`] so every worker holds a handle to the same storage:
//! cloning is a pointer copy, not an adjacency copy.
//!
//! Mutation goes through [`SharedGraph::apply_batch`] (or its undoable
//! form), which uses copy-on-write semantics: while the owner holds the only handle (the
//! common case between batches) the update is applied in place; if reader
//! handles are still alive the storage is cloned first, so those readers
//! keep seeing the snapshot they started with.

use crate::{DynamicGraph, Edge, GraphError, GraphView, Snapshot, UndoLog};
use cisgraph_types::{EdgeUpdate, VertexId};
use std::sync::Arc;

/// A shared, cloneable handle to a [`DynamicGraph`].
///
/// Clones are cheap (one atomic increment) and always observe the snapshot
/// current at clone time: subsequent [`apply_batch`](SharedGraph::apply_batch)
/// calls on another handle never mutate storage a reader can still see.
///
/// # Examples
///
/// ```
/// use cisgraph_graph::{DynamicGraph, GraphView, SharedGraph};
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut shared = SharedGraph::new(DynamicGraph::new(2));
/// shared.apply_batch(&[EdgeUpdate::insert(
///     VertexId::new(0),
///     VertexId::new(1),
///     Weight::new(1.0)?,
/// )])?;
///
/// let reader = shared.clone();
/// shared.apply_batch(&[EdgeUpdate::delete(
///     VertexId::new(0),
///     VertexId::new(1),
///     Weight::new(1.0)?,
/// )])?;
///
/// // The reader still sees the pre-deletion snapshot.
/// assert_eq!(reader.num_edges(), 1);
/// assert_eq!(shared.num_edges(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedGraph {
    inner: Arc<DynamicGraph>,
}

impl SharedGraph {
    /// Wraps an existing graph, taking ownership.
    pub fn new(graph: DynamicGraph) -> Self {
        Self {
            inner: Arc::new(graph),
        }
    }

    /// The underlying graph, for APIs that want a concrete
    /// [`DynamicGraph`] reference.
    pub fn graph(&self) -> &DynamicGraph {
        &self.inner
    }

    /// Mutable access to the underlying graph, with the same copy-on-write
    /// semantics as [`SharedGraph::apply_batch`]: storage is cloned first
    /// iff other handles to this snapshot are still alive. Used by the
    /// durability layer for non-topology mutations (dirty-row bookkeeping).
    pub fn graph_mut(&mut self) -> &mut DynamicGraph {
        Arc::make_mut(&mut self.inner)
    }

    /// Applies a whole batch atomically, with copy-on-write semantics:
    /// storage is cloned first iff other handles to this snapshot are
    /// still alive.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicGraph::apply_batch`]; on error the graph is left
    /// exactly as it was.
    pub fn apply_batch(&mut self, batch: &[EdgeUpdate]) -> Result<(), GraphError> {
        self.apply_batch_undoable(batch).map(drop)
    }

    /// [`DynamicGraph::apply_batch_undoable`] with the copy-on-write
    /// semantics of [`apply_batch`](SharedGraph::apply_batch): the
    /// returned log reverts the batch through [`SharedGraph::undo`].
    ///
    /// # Errors
    ///
    /// Same as [`DynamicGraph::apply_batch`].
    pub fn apply_batch_undoable(&mut self, batch: &[EdgeUpdate]) -> Result<UndoLog, GraphError> {
        Arc::make_mut(&mut self.inner).apply_batch_undoable(batch)
    }

    /// Reverts the batch `log` was recorded for (see
    /// [`DynamicGraph::undo`]). Readers cloned before the batch never saw
    /// it; readers cloned after it keep seeing it (copy-on-write).
    pub fn undo(&mut self, log: UndoLog) {
        Arc::make_mut(&mut self.inner).undo(log);
    }

    /// Applies one update with the same copy-on-write semantics as
    /// [`apply_batch`](SharedGraph::apply_batch).
    ///
    /// # Errors
    ///
    /// Same as [`DynamicGraph::apply`].
    pub fn apply(&mut self, update: EdgeUpdate) -> Result<(), GraphError> {
        Arc::make_mut(&mut self.inner).apply(update)
    }

    /// Materializes an immutable CSR [`Snapshot`] of the current topology.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }
}

impl From<DynamicGraph> for SharedGraph {
    fn from(graph: DynamicGraph) -> Self {
        Self::new(graph)
    }
}

impl GraphView for SharedGraph {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.inner.num_edges()
    }

    fn out_edges(&self, v: VertexId) -> &[Edge] {
        self.inner.out_edges(v)
    }

    fn in_edges(&self, v: VertexId) -> &[Edge] {
        self.inner.in_edges(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_types::Weight;

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    #[test]
    fn unique_handle_mutates_in_place() {
        let mut shared = SharedGraph::new(DynamicGraph::new(3));
        assert_eq!(Arc::strong_count(&shared.inner), 1);
        shared
            .apply_batch(&[EdgeUpdate::insert(v(0), v(1), w(1.0))])
            .unwrap();
        assert_eq!(shared.num_edges(), 1);
        assert_eq!(Arc::strong_count(&shared.inner), 1);
    }

    #[test]
    fn readers_keep_their_snapshot() {
        let mut shared = SharedGraph::new(DynamicGraph::new(3));
        shared
            .apply_batch(&[EdgeUpdate::insert(v(0), v(1), w(1.0))])
            .unwrap();
        let reader = shared.clone();
        assert_eq!(Arc::strong_count(&shared.inner), 2);
        shared
            .apply_batch(&[
                EdgeUpdate::insert(v(1), v(2), w(2.0)),
                EdgeUpdate::delete(v(0), v(1), w(1.0)),
            ])
            .unwrap();
        assert_eq!(reader.num_edges(), 1);
        assert!(reader.graph().contains_edge(v(0), v(1)));
        assert_eq!(shared.num_edges(), 1);
        assert!(shared.graph().contains_edge(v(1), v(2)));
    }

    #[test]
    fn undo_after_a_reader_clone_keeps_the_reader_view() {
        let mut shared = SharedGraph::new(DynamicGraph::new(3));
        let log = shared
            .apply_batch_undoable(&[EdgeUpdate::insert(v(0), v(1), w(1.0))])
            .unwrap();
        let reader = shared.clone();
        shared.undo(log);
        assert_eq!(shared.num_edges(), 0);
        assert_eq!(reader.num_edges(), 1, "the reader keeps the applied batch");
    }

    #[test]
    fn graph_view_delegates() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(v(0), v(1), w(1.5)).unwrap();
        let shared = SharedGraph::from(g);
        assert_eq!(shared.num_vertices(), 2);
        assert_eq!(shared.out_degree(v(0)), 1);
        assert_eq!(shared.in_degree(v(1)), 1);
        assert_eq!(shared.snapshot().num_edges(), 1);
    }
}
