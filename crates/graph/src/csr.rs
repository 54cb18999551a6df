//! Immutable Compressed Sparse Row storage.

use crate::{Edge, GraphView};
use cisgraph_types::{VertexId, Weight};
use serde::Serialize;

/// A Compressed Sparse Row adjacency: `offsets[v]..offsets[v+1]` indexes the
/// adjacency entries of vertex `v` in one contiguous `edges` array.
///
/// This is the exact layout the CISGraph accelerator assumes when it issues
/// "one memory access, specifying the start address and request length, to
/// fetch the whole edge list of one vertex" (§III-B). The raw arrays are
/// exposed via [`Csr::offsets`] and [`Csr::edges`] so the simulator can
/// compute DRAM addresses.
///
/// # Examples
///
/// ```
/// use cisgraph_graph::{Csr, GraphView};
/// use cisgraph_types::{VertexId, Weight};
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let csr = Csr::from_edge_triples(3, vec![
///     (VertexId::new(0), VertexId::new(1), Weight::new(1.0)?),
///     (VertexId::new(0), VertexId::new(2), Weight::new(2.0)?),
/// ]);
/// assert_eq!(csr.neighbors(VertexId::new(0)).len(), 2);
/// assert_eq!(csr.neighbors(VertexId::new(1)).len(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Csr {
    offsets: Vec<u64>,
    edges: Vec<Edge>,
}

impl Csr {
    /// Builds a CSR from per-vertex adjacency lists (anything slice-like:
    /// `Vec<Edge>` or the hybrid adjacency used by
    /// [`DynamicGraph`](crate::DynamicGraph)).
    pub fn from_adjacency<L: AsRef<[Edge]>>(adjacency: &[L]) -> Self {
        let total = adjacency.iter().map(|list| list.as_ref().len()).sum();
        let mut offsets = Vec::with_capacity(adjacency.len() + 1);
        let mut edges = Vec::with_capacity(total);
        offsets.push(0);
        for list in adjacency {
            edges.extend_from_slice(list.as_ref());
            offsets.push(edges.len() as u64);
        }
        Self { offsets, edges }
    }

    /// Builds a CSR from `(src, dst, weight)` triples over `num_vertices`
    /// vertices. Triples may arrive in any order.
    ///
    /// # Panics
    ///
    /// Panics if a triple references a vertex `>= num_vertices`.
    pub fn from_edge_triples(
        num_vertices: usize,
        triples: impl IntoIterator<Item = (VertexId, VertexId, Weight)>,
    ) -> Self {
        let triples: Vec<_> = triples.into_iter().collect();
        let mut degree = vec![0u64; num_vertices];
        for &(u, _, _) in &triples {
            assert!(u.index() < num_vertices, "source {u} out of bounds");
            degree[u.index()] += 1;
        }
        let mut offsets = vec![0u64; num_vertices + 1];
        for v in 0..num_vertices {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![Edge::new(VertexId::new(0), Weight::ONE); triples.len()];
        for (u, v, w) in triples {
            assert!(v.index() < num_vertices, "destination {v} out of bounds");
            let slot = cursor[u.index()];
            edges[slot as usize] = Edge::new(v, w);
            cursor[u.index()] += 1;
        }
        Self { offsets, edges }
    }

    /// The adjacency entries of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[Edge] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.edges[lo..hi]
    }

    /// The raw offsets array (`num_vertices + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The raw edge array.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Builds the transpose CSR (in-edges become out-edges): count
    /// in-degrees, prefix-sum, then scatter every edge in encounter order,
    /// so each transpose row lists sources ascending and parallel edges in
    /// their source row's order.
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets = vec![0u64; n + 1];
        for e in &self.edges {
            offsets[e.to().index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut edges = vec![Edge::new(VertexId::new(0), Weight::ONE); self.edges.len()];
        let mut cursor = offsets.clone();
        for u in 0..n {
            let src = VertexId::from_index(u);
            for e in self.neighbors(src) {
                let slot = &mut cursor[e.to().index()];
                edges[*slot as usize] = Edge::new(src, e.weight());
                *slot += 1;
            }
        }
        Csr { offsets, edges }
    }
}

/// An immutable snapshot: forward CSR plus its transpose.
///
/// The transpose is required by deletion repair (recomputing a vertex's
/// state from its in-neighbors) and by the accelerator's identification
/// stage. [`Snapshot`] implements [`GraphView`] with `out_edges` served by
/// the forward CSR and `in_edges` by the transpose.
///
/// # Examples
///
/// ```
/// use cisgraph_graph::{DynamicGraph, GraphView};
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(2);
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(1.0)?))?;
/// let snap = g.snapshot();
/// assert_eq!(snap.in_edges(VertexId::new(1))[0].to(), VertexId::new(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Snapshot {
    forward: Csr,
    reverse: Csr,
}

impl Snapshot {
    /// Builds a snapshot from a forward CSR, computing the transpose.
    pub fn from_forward(forward: Csr) -> Self {
        let reverse = forward.transpose();
        Self { forward, reverse }
    }

    /// The forward (out-edge) CSR.
    #[inline]
    pub fn forward(&self) -> &Csr {
        &self.forward
    }

    /// The reverse (in-edge) CSR.
    #[inline]
    pub fn reverse(&self) -> &Csr {
        &self.reverse
    }
}

impl GraphView for Snapshot {
    fn num_vertices(&self) -> usize {
        self.forward.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.forward.num_edges()
    }

    fn out_edges(&self, v: VertexId) -> &[Edge] {
        self.forward.neighbors(v)
    }

    fn in_edges(&self, v: VertexId) -> &[Edge] {
        self.reverse.neighbors(v)
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
    fn from_triples_orders_by_source() {
        let csr = Csr::from_edge_triples(
            4,
            vec![
                (v(2), v(0), w(1.0)),
                (v(0), v(1), w(2.0)),
                (v(2), v(3), w(3.0)),
            ],
        );
        assert_eq!(csr.num_vertices(), 4);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.neighbors(v(0)).len(), 1);
        assert_eq!(csr.neighbors(v(1)).len(), 0);
        assert_eq!(csr.neighbors(v(2)).len(), 2);
        assert_eq!(csr.offsets(), &[0, 1, 1, 3, 3]);
    }

    #[test]
    fn transpose_inverts_edges() {
        let csr = Csr::from_edge_triples(3, vec![(v(0), v(1), w(1.0)), (v(2), v(1), w(2.0))]);
        let t = csr.transpose();
        assert_eq!(t.neighbors(v(1)).len(), 2);
        assert_eq!(t.neighbors(v(0)).len(), 0);
        let sources: Vec<u32> = t.neighbors(v(1)).iter().map(|e| e.to().raw()).collect();
        assert!(sources.contains(&0) && sources.contains(&2));
    }

    #[test]
    fn double_transpose_is_identity_up_to_order() {
        let csr = Csr::from_edge_triples(
            5,
            vec![
                (v(0), v(1), w(1.0)),
                (v(1), v(2), w(2.0)),
                (v(3), v(1), w(3.0)),
                (v(4), v(0), w(4.0)),
            ],
        );
        let tt = csr.transpose().transpose();
        for u in 0..5 {
            let mut a: Vec<_> = csr.neighbors(v(u)).to_vec();
            let mut b: Vec<_> = tt.neighbors(v(u)).to_vec();
            a.sort_by_key(|e| (e.to(), e.weight()));
            b.sort_by_key(|e| (e.to(), e.weight()));
            assert_eq!(a, b, "adjacency of v{u} differs");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triples_rejects_oob() {
        let _ = Csr::from_edge_triples(2, vec![(v(0), v(5), w(1.0))]);
    }

    #[test]
    fn empty_csr() {
        let csr = Csr::from_edge_triples(3, Vec::new());
        assert_eq!(csr.num_edges(), 0);
        assert!(csr.neighbors(v(2)).is_empty());
    }

    #[test]
    fn snapshot_view() {
        let csr = Csr::from_edge_triples(3, vec![(v(0), v(2), w(1.0))]);
        let s = Snapshot::from_forward(csr);
        assert_eq!(s.out_degree(v(0)), 1);
        assert_eq!(s.in_degree(v(2)), 1);
        assert_eq!(s.in_edges(v(2))[0].to(), v(0));
        assert!(s.contains_vertex(v(2)));
        assert!(!s.contains_vertex(v(3)));
    }
}
