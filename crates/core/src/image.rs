//! The graph image the simulated accelerator reads.
//!
//! The accelerator streams a CSR image out of DRAM (see
//! [`MemoryLayout`](crate::MemoryLayout)): the forward and transpose
//! offsets locate each row's burst, and the rows are walked in CSR order.
//! [`CsrImage`] is that read interface. A [`Snapshot`] provides it from
//! its two materialized CSRs; [`LiveImage`] provides it straight from the
//! live [`DynamicGraph`] adjacency, the way the paper's accelerator
//! updates the topology in place (§III-B), so a batch costs two O(V)
//! offset prefix sums instead of an O(E) forward + transpose rebuild.

use cisgraph_graph::{DynamicGraph, Edge, GraphView, Snapshot};
use cisgraph_types::VertexId;

/// Read access to the CSR graph image the simulator addresses.
///
/// Every implementation must describe the same image as
/// [`DynamicGraph::snapshot`] would for the same topology: same offsets,
/// same rows in the same order. The simulated cycle counts depend on
/// row order (the witness search takes the first match).
pub trait CsrImage {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Forward CSR offsets (`num_vertices + 1` entries).
    fn out_offsets(&self) -> &[u64];

    /// Transpose CSR offsets (`num_vertices + 1` entries).
    fn in_offsets(&self) -> &[u64];

    /// `v`'s forward row.
    fn out_row(&self, v: VertexId) -> &[Edge];

    /// `v`'s transpose row: sources ascending, parallel edges from one
    /// source in that source's forward-row order. An implementation that
    /// must reorder its storage builds the row in `scratch`.
    fn in_row<'s>(&'s self, v: VertexId, scratch: &'s mut Vec<Edge>) -> &'s [Edge];
}

impl CsrImage for Snapshot {
    fn num_vertices(&self) -> usize {
        self.forward().num_vertices()
    }

    fn out_offsets(&self) -> &[u64] {
        self.forward().offsets()
    }

    fn in_offsets(&self) -> &[u64] {
        self.reverse().offsets()
    }

    fn out_row(&self, v: VertexId) -> &[Edge] {
        self.forward().neighbors(v)
    }

    fn in_row<'s>(&'s self, v: VertexId, _scratch: &'s mut Vec<Edge>) -> &'s [Edge] {
        self.reverse().neighbors(v)
    }
}

/// A read-only CSR image over a live [`DynamicGraph`].
///
/// Only the offsets are built (degree prefix sums). Forward rows are the
/// out-lists themselves, which match the CSR rows byte for byte. In-lists
/// are kept in arrival order, so [`CsrImage::in_row`] re-sorts a row into
/// transpose order when it is not already strictly ascending.
pub(crate) struct LiveImage<'g> {
    graph: &'g DynamicGraph,
    out_offsets: Vec<u64>,
    in_offsets: Vec<u64>,
}

impl<'g> LiveImage<'g> {
    pub(crate) fn new(graph: &'g DynamicGraph) -> Self {
        Self {
            graph,
            out_offsets: degree_prefix_sums(graph, DynamicGraph::out_degree),
            in_offsets: degree_prefix_sums(graph, DynamicGraph::in_degree),
        }
    }
}

/// CSR offsets for per-vertex `degree`: `[0, d(0), d(0) + d(1), ...]`.
fn degree_prefix_sums(
    graph: &DynamicGraph,
    degree: impl Fn(&DynamicGraph, VertexId) -> usize,
) -> Vec<u64> {
    let mut total = 0u64;
    std::iter::once(0)
        .chain((0..graph.num_vertices()).map(|v| {
            total += degree(graph, VertexId::from_index(v)) as u64;
            total
        }))
        .collect()
}

impl CsrImage for LiveImage<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn out_offsets(&self) -> &[u64] {
        &self.out_offsets
    }

    fn in_offsets(&self) -> &[u64] {
        &self.in_offsets
    }

    fn out_row(&self, v: VertexId) -> &[Edge] {
        self.graph.out_edges(v)
    }

    fn in_row<'s>(&'s self, v: VertexId, scratch: &'s mut Vec<Edge>) -> &'s [Edge] {
        let stored = self.graph.in_edges(v);
        if stored.windows(2).all(|pair| pair[0].to() < pair[1].to()) {
            return stored;
        }
        scratch.clear();
        scratch.extend_from_slice(stored);
        scratch.sort_unstable_by_key(|e| e.to());
        // A run of parallel edges from one source takes its order from the
        // source's out-row, as the transpose scatter would.
        for run in scratch.chunk_by_mut(|a, b| a.to() == b.to()) {
            if run.len() > 1 {
                let src = run[0].to();
                let forward = self.graph.out_edges(src).iter().filter(|e| e.to() == v);
                for (slot, e) in run.iter_mut().zip(forward) {
                    *slot = Edge::new(src, e.weight());
                }
            }
        }
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_types::Weight;

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    /// Asserts that every offset and row of the live image equals the
    /// materialized snapshot's.
    fn assert_matches_snapshot(g: &DynamicGraph) {
        let live = LiveImage::new(g);
        let snap = g.snapshot();
        assert_eq!(live.out_offsets(), snap.out_offsets());
        assert_eq!(live.in_offsets(), snap.in_offsets());
        let mut scratch = Vec::new();
        for x in 0..g.num_vertices() {
            let x = VertexId::from_index(x);
            assert_eq!(live.out_row(x), snap.out_row(x), "out-row of {x}");
            assert_eq!(
                live.in_row(x, &mut scratch),
                snap.in_row(x, &mut Vec::new()),
                "in-row of {x}"
            );
        }
    }

    #[test]
    fn out_of_order_in_list_comes_back_in_transpose_order() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(2), v(3), w(2.0)).unwrap();
        g.insert_edge(v(0), v(3), w(5.0)).unwrap();
        g.insert_edge(v(0), v(3), w(1.0)).unwrap();
        // The removal swaps the tail (0, w1) ahead of (0, w5) in v3's
        // in-list; v0's out-row keeps [w5, w1].
        g.remove_edge(v(2), v(3), None).unwrap();
        g.insert_edge(v(2), v(3), w(2.0)).unwrap();
        g.insert_edge(v(1), v(3), w(3.0)).unwrap();
        let stored: Vec<(u32, f64)> = g
            .in_edges(v(3))
            .iter()
            .map(|e| (e.to().raw(), e.weight().get()))
            .collect();
        assert_eq!(stored, vec![(0, 1.0), (0, 5.0), (2, 2.0), (1, 3.0)]);

        let live = LiveImage::new(&g);
        let mut scratch = Vec::new();
        let row = live.in_row(v(3), &mut scratch);
        let expected: Vec<Edge> = vec![
            Edge::new(v(0), w(5.0)),
            Edge::new(v(0), w(1.0)),
            Edge::new(v(1), w(3.0)),
            Edge::new(v(2), w(2.0)),
        ];
        assert_eq!(row, &expected[..]);
        assert_matches_snapshot(&g);
    }

    #[test]
    fn sorted_rows_are_served_without_copying() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(2), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let live = LiveImage::new(&g);
        let mut scratch = Vec::new();
        let row = live.in_row(v(2), &mut scratch);
        assert_eq!(row.as_ptr(), g.in_edges(v(2)).as_ptr());
        assert!(scratch.is_empty());
    }

    #[test]
    fn promoted_lists_match_the_snapshot() {
        let mut g = DynamicGraph::with_promotion_threshold(8, 2);
        for i in 0..40u32 {
            g.insert_edge(v(i % 8), v((i * 5 + 3) % 8), w(f64::from(i % 4 + 1)))
                .unwrap();
        }
        for i in (0..40u32).step_by(3) {
            g.remove_edge(v(i % 8), v((i * 5 + 3) % 8), Some(w(f64::from(i % 4 + 1))))
                .unwrap();
        }
        assert!(g.index_promotions() > 0);
        assert_matches_snapshot(&g);
    }
}
