//! Degree statistics, used to pick SGraph hub vertices and to validate that
//! synthetic stand-in datasets match the skew of Table III.

use crate::GraphView;
use cisgraph_types::VertexId;
use serde::Serialize;

/// Summary of a graph's degree distribution.
///
/// # Examples
///
/// ```
/// use cisgraph_graph::{degree_stats, DynamicGraph, GraphView};
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(3);
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(1.0)?))?;
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(2), Weight::new(1.0)?))?;
/// let stats = degree_stats(&g);
/// assert_eq!(stats.max_out_degree, 2);
/// assert_eq!(stats.top_by_degree(1), vec![VertexId::new(0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of directed edges.
    pub num_edges: usize,
    /// Mean total degree `E / V` (paper's Table III "Average Degree" counts
    /// each directed edge once).
    pub average_degree: f64,
    /// Largest out-degree.
    pub max_out_degree: usize,
    /// Largest in-degree.
    pub max_in_degree: usize,
    /// Number of vertices with no incident edges.
    pub isolated_vertices: usize,
    /// Total degree (in + out) per vertex, kept so hub selection does not
    /// re-scan the graph.
    total_degree: Vec<usize>,
}

impl DegreeStats {
    /// The `k` vertices with the highest total degree, ties broken by lower
    /// id. This is exactly how the SGraph baseline picks its 16 hub vertices.
    pub fn top_by_degree(&self, k: usize) -> Vec<VertexId> {
        let mut order: Vec<usize> = (0..self.total_degree.len()).collect();
        order.sort_by(|&a, &b| {
            self.total_degree[b]
                .cmp(&self.total_degree[a])
                .then_with(|| a.cmp(&b))
        });
        order.truncate(k);
        order.into_iter().map(VertexId::from_index).collect()
    }

    /// Total (in + out) degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn total_degree(&self, v: VertexId) -> usize {
        self.total_degree[v.index()]
    }
}

/// Computes [`DegreeStats`] for any [`GraphView`].
pub fn degree_stats<G: GraphView>(graph: &G) -> DegreeStats {
    let n = graph.num_vertices();
    let mut total_degree = vec![0usize; n];
    let mut max_out = 0;
    let mut max_in = 0;
    let mut isolated = 0;
    for (i, slot) in total_degree.iter_mut().enumerate() {
        let v = VertexId::from_index(i);
        let out = graph.out_degree(v);
        let inc = graph.in_degree(v);
        *slot = out + inc;
        max_out = max_out.max(out);
        max_in = max_in.max(inc);
        if out + inc == 0 {
            isolated += 1;
        }
    }
    DegreeStats {
        num_vertices: n,
        num_edges: graph.num_edges(),
        average_degree: if n == 0 {
            0.0
        } else {
            graph.num_edges() as f64 / n as f64
        },
        max_out_degree: max_out,
        max_in_degree: max_in,
        isolated_vertices: isolated,
        total_degree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicGraph;
    use cisgraph_types::Weight;

    fn star(n: u32) -> DynamicGraph {
        let mut g = DynamicGraph::new(n as usize);
        for i in 1..n {
            g.insert_edge(VertexId::new(0), VertexId::new(i), Weight::ONE)
                .unwrap();
        }
        g
    }

    #[test]
    fn star_stats() {
        let g = star(5);
        let s = degree_stats(&g);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_out_degree, 4);
        assert_eq!(s.max_in_degree, 1);
        assert_eq!(s.isolated_vertices, 0);
        assert!((s.average_degree - 0.8).abs() < 1e-12);
        assert_eq!(s.total_degree(VertexId::new(0)), 4);
    }

    #[test]
    fn hub_selection_orders_by_degree_then_id() {
        let g = star(4);
        let hubs = s_top(&g, 2);
        assert_eq!(hubs[0], VertexId::new(0));
        // spokes all have degree 1; lowest id wins
        assert_eq!(hubs[1], VertexId::new(1));
    }

    fn s_top(g: &DynamicGraph, k: usize) -> Vec<VertexId> {
        degree_stats(g).top_by_degree(k)
    }

    #[test]
    fn empty_graph_stats() {
        let g = DynamicGraph::new(0);
        let s = degree_stats(&g);
        assert_eq!(s.average_degree, 0.0);
        assert!(s.top_by_degree(3).is_empty());
    }

    #[test]
    fn isolated_vertices_counted() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(VertexId::new(0), VertexId::new(1), Weight::ONE)
            .unwrap();
        let s = degree_stats(&g);
        assert_eq!(s.isolated_vertices, 2);
    }

    #[test]
    fn top_k_larger_than_n_is_clamped() {
        let g = star(3);
        assert_eq!(degree_stats(&g).top_by_degree(10).len(), 3);
    }
}
