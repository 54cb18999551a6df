//! A cloneable copy-on-write handle over a [`DynamicGraph`].
//!
//! [`SharedGraph`] exists for the benchmark replica of the serving path
//! (`perfbench`), which builds its layers by hand; it goes when ROADMAP
//! item 1 retires that replica. The serving layer itself owns a plain
//! [`DynamicGraph`] and lends it to its workers as `&DynamicGraph`.
//!
//! Mutation goes through [`SharedGraph::apply_batch`] or
//! [`SharedGraph::graph_mut`], with copy-on-write semantics: while the
//! owner holds the only handle the update is applied in place; if other
//! handles are still alive the storage is cloned first, so they keep
//! seeing the snapshot they were cloned from.

use crate::{DynamicGraph, GraphError};
use cisgraph_types::EdgeUpdate;
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
/// let edge = (VertexId::new(0), VertexId::new(1), Weight::new(1.0)?);
/// let mut shared = SharedGraph::new(DynamicGraph::new(2));
/// shared.apply_batch(&[EdgeUpdate::insert(edge.0, edge.1, edge.2)])?;
///
/// let reader = shared.clone();
/// shared.apply_batch(&[EdgeUpdate::delete(edge.0, edge.1, edge.2)])?;
///
/// // The reader still sees the pre-deletion snapshot.
/// assert_eq!(reader.graph().num_edges(), 1);
/// assert_eq!(shared.graph().num_edges(), 0);
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

    /// The underlying graph.
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
        self.graph_mut().apply_batch(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphView;
    use cisgraph_types::{VertexId, Weight};

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
        assert_eq!(shared.graph().num_edges(), 1);
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
        assert_eq!(reader.graph().num_edges(), 1);
        assert!(reader.graph().contains_edge(v(0), v(1)));
        assert_eq!(shared.graph().num_edges(), 1);
        assert!(shared.graph().contains_edge(v(1), v(2)));
    }
}
