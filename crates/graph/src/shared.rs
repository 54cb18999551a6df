//! A cheap, cloneable read-only handle over a [`DynamicGraph`].
//!
//! The serving layer fans one batch out across many worker threads, each of
//! which only *reads* the post-batch topology. [`SharedGraph`] wraps the
//! graph in an [`Arc`] so every worker holds a handle to the same storage:
//! cloning is a pointer copy, not an adjacency copy.
//!
//! Mutation goes through [`SharedGraph::apply_batch`], which uses
//! copy-on-write semantics: while the owner holds the only handle (the
//! common case between batches) the update is applied in place; if reader
//! handles are still alive the storage is cloned first, so those readers
//! keep seeing the snapshot they started with.

use crate::{DynamicGraph, Edge, GraphError, GraphView, Snapshot};
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
/// use cisgraph_graph::{GraphView, SharedGraph};
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut shared = SharedGraph::with_vertices(2);
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

    /// An empty shared graph with `num_vertices` isolated vertices.
    pub fn with_vertices(num_vertices: usize) -> Self {
        Self::new(DynamicGraph::new(num_vertices))
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

    /// Applies a whole batch with copy-on-write semantics: storage is
    /// cloned first iff other handles to this snapshot are still alive.
    ///
    /// # Errors
    ///
    /// Same as [`DynamicGraph::apply_batch`]; on error the graph retains
    /// the updates applied before the failure.
    pub fn apply_batch(&mut self, batch: &[EdgeUpdate]) -> Result<(), GraphError> {
        Arc::make_mut(&mut self.inner).apply_batch(batch)
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

    /// Whether this handle is the only one alive (i.e. the next mutation
    /// will be applied in place rather than copy-on-write).
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.inner) == 1
    }

    /// Consumes the handle, returning the graph. Clones the storage iff
    /// other handles are still alive.
    pub fn into_inner(self) -> DynamicGraph {
        Arc::try_unwrap(self.inner).unwrap_or_else(|arc| (*arc).clone())
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
        let mut shared = SharedGraph::with_vertices(3);
        assert!(shared.is_unique());
        shared
            .apply_batch(&[EdgeUpdate::insert(v(0), v(1), w(1.0))])
            .unwrap();
        assert_eq!(shared.num_edges(), 1);
        assert!(shared.is_unique());
    }

    #[test]
    fn readers_keep_their_snapshot() {
        let mut shared = SharedGraph::with_vertices(3);
        shared
            .apply_batch(&[EdgeUpdate::insert(v(0), v(1), w(1.0))])
            .unwrap();
        let reader = shared.clone();
        assert!(!shared.is_unique());
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
    fn graph_view_delegates() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(v(0), v(1), w(1.5)).unwrap();
        let shared = SharedGraph::from(g);
        assert_eq!(shared.num_vertices(), 2);
        assert_eq!(shared.out_degree(v(0)), 1);
        assert_eq!(shared.in_degree(v(1)), 1);
        assert_eq!(shared.snapshot().num_edges(), 1);
    }

    #[test]
    fn into_inner_round_trips() {
        let mut shared = SharedGraph::with_vertices(2);
        shared
            .apply(EdgeUpdate::insert(v(0), v(1), w(1.0)))
            .unwrap();
        let keep_alive = shared.clone();
        let owned = shared.into_inner();
        assert_eq!(owned.num_edges(), 1);
        assert_eq!(keep_alive.num_edges(), 1);
    }
}
