//! Streaming graph storage for the CISGraph reproduction.
//!
//! Two representations cooperate:
//!
//! * [`DynamicGraph`] — mutable adjacency (both out- and in-edges) that the
//!   software engines update in place as streaming batches arrive.
//! * [`Csr`] / [`Snapshot`] — immutable Compressed Sparse Row arrays, the
//!   layout the CISGraph accelerator prefetches from DRAM (§III-B of the
//!   paper: "CSR stores neighbor IDs and weights continuously in memory").
//!   A [`Snapshot`] couples a forward CSR with its transpose so deletion
//!   repair can enumerate in-neighbors.
//!
//! Both implement [`GraphView`], the read interface every algorithm is
//! written against. The serving layer hands one post-batch
//! [`DynamicGraph`] to its reader threads as a shared borrow.
//! [`SharedGraph`], a copy-on-write [`std::sync::Arc`] handle, is kept only
//! for the benchmark's hand-built replica of that path.
//!
//! # Examples
//!
//! ```
//! use cisgraph_graph::{DynamicGraph, GraphView};
//! use cisgraph_types::{EdgeUpdate, VertexId, Weight};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = DynamicGraph::new(4);
//! g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(2.0)?))?;
//! g.apply(EdgeUpdate::insert(VertexId::new(1), VertexId::new(3), Weight::new(1.0)?))?;
//! assert_eq!(g.num_edges(), 2);
//! assert_eq!(g.out_edges(VertexId::new(0)).len(), 1);
//!
//! let snap = g.snapshot();
//! assert_eq!(snap.num_edges(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
mod csr;
mod dynamic;
mod edge;
mod error;
mod io;
mod shared;
mod stats;
mod view;

pub use adjacency::DEFAULT_PROMOTION_THRESHOLD;
pub use csr::{Csr, Snapshot};
pub use dynamic::{DynamicGraph, UndoLog};
pub use edge::Edge;
pub use error::GraphError;
pub use io::{read_edge_list, read_update_list, write_edge_list, write_update_list};
pub use shared::SharedGraph;
pub use stats::{degree_stats, DegreeStats};
pub use view::{GraphView, ReversedView};
