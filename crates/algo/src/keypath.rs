//! Global key path extraction (§III-A).
//!
//! The *global key path* of a converged pairwise query `Q(s -> d)` is the
//! concrete path witnessing the answer, read off the parent pointers of the
//! converged result. Algorithm 1 uses membership of the deleted edge's
//! source in this path to split valuable deletions into non-delayed
//! (preempt) and delayed (defer past the response).

use crate::{ConvergedResult, MonotonicAlgorithm};
use cisgraph_types::{PairQuery, VertexId};
use std::collections::HashSet;

/// The global key path of a converged query, or the knowledge that the
/// destination is unreached.
///
/// # Examples
///
/// ```
/// use cisgraph_algo::{solver, Counters, KeyPath, Ppsp};
/// use cisgraph_graph::DynamicGraph;
/// use cisgraph_types::{EdgeUpdate, PairQuery, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(3);
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(1.0)?))?;
/// g.apply(EdgeUpdate::insert(VertexId::new(1), VertexId::new(2), Weight::new(1.0)?))?;
/// let r = solver::best_first::<Ppsp, _>(&g, VertexId::new(0), &mut Counters::new());
/// let q = PairQuery::new(VertexId::new(0), VertexId::new(2))?;
/// let kp = KeyPath::extract(&r, q);
/// assert!(kp.contains(VertexId::new(1)));
/// assert_eq!(kp.vertices().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPath {
    /// Path from source to destination, empty if the destination is
    /// unreached.
    path: Vec<VertexId>,
    members: HashSet<VertexId>,
}

impl KeyPath {
    /// Walks parent pointers from the destination back to the source.
    ///
    /// Returns an empty path if the destination is unreached. If the parent
    /// chain is cyclic or detached (which would indicate a solver bug), the
    /// walk aborts and the path is treated as empty; debug builds panic.
    ///
    /// # Panics
    ///
    /// Panics if the query endpoints are outside the result (propagated
    /// from [`ConvergedResult::state`]), or in debug builds on a corrupt
    /// parent chain.
    pub fn extract<A: MonotonicAlgorithm>(result: &ConvergedResult<A>, query: PairQuery) -> Self {
        let mut path = Vec::new();
        Self::push_reversed(result, query, &mut path);
        path.reverse();
        let members = path.iter().copied().collect();
        Self { path, members }
    }

    /// Appends the key path's vertices to `out`, destination first, with
    /// no membership set: the walk behind [`KeyPath::extract`], for callers
    /// that collect several paths into one buffer. Appends nothing where
    /// `extract` would return an empty path.
    ///
    /// # Panics
    ///
    /// As [`KeyPath::extract`].
    pub fn push_reversed<A: MonotonicAlgorithm>(
        result: &ConvergedResult<A>,
        query: PairQuery,
        out: &mut Vec<VertexId>,
    ) {
        let d = query.destination();
        if !result.is_reached(d) {
            return;
        }
        let start = out.len();
        out.push(d);
        let mut cursor = d;
        let limit = result.num_vertices() + 1;
        while cursor != query.source() {
            let Some(parent) = result.parent(cursor) else {
                debug_assert!(false, "reached vertex {cursor} has no parent");
                out.truncate(start);
                return;
            };
            out.push(parent);
            cursor = parent;
            if out.len() - start > limit {
                debug_assert!(false, "parent chain of {d} is cyclic");
                out.truncate(start);
                return;
            }
        }
    }

    /// An empty key path (destination unreached).
    pub fn empty() -> Self {
        Self {
            path: Vec::new(),
            members: HashSet::new(),
        }
    }

    /// Whether `v` lies on the key path.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.members.contains(&v)
    }

    /// The path vertices, source first; empty if the destination is
    /// unreached.
    #[inline]
    pub fn vertices(&self) -> &[VertexId] {
        &self.path
    }

    /// Whether a path exists at all.
    #[inline]
    pub fn exists(&self) -> bool {
        !self.path.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::best_first;
    use crate::{Counters, Ppsp};
    use cisgraph_graph::DynamicGraph;
    use cisgraph_types::Weight;

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    #[test]
    fn extracts_shortest_chain() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(3), w(1.0)).unwrap();
        g.insert_edge(v(0), v(2), w(5.0)).unwrap();
        g.insert_edge(v(2), v(3), w(5.0)).unwrap();
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        let kp = KeyPath::extract(&r, PairQuery::new(v(0), v(3)).unwrap());
        assert_eq!(kp.vertices(), &[v(0), v(1), v(3)]);
        assert!(kp.contains(v(1)));
        assert!(!kp.contains(v(2)));
        assert!(kp.exists());
    }

    #[test]
    fn unreached_destination_gives_empty_path() {
        let g = DynamicGraph::new(3);
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        let kp = KeyPath::extract(&r, PairQuery::new(v(0), v(2)).unwrap());
        assert!(!kp.exists());
        assert!(kp.vertices().is_empty());
        assert!(!kp.contains(v(0)));
    }

    #[test]
    fn push_reversed_appends_paths_destination_first() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        let mut out = vec![v(3)];
        for d in [2, 3, 1] {
            KeyPath::push_reversed(&r, PairQuery::new(v(0), v(d)).unwrap(), &mut out);
        }
        // v3 is unreached and appends nothing; earlier contents stay.
        assert_eq!(out, [v(3), v(2), v(1), v(0), v(1), v(0)]);
    }

    #[test]
    fn source_and_destination_are_members() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let r = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        let kp = KeyPath::extract(&r, PairQuery::new(v(0), v(1)).unwrap());
        assert!(kp.contains(v(0)));
        assert!(kp.contains(v(1)));
    }
}
