//! Monotonic pairwise graph algorithms and the CISGraph contribution-aware
//! workflow primitives.
//!
//! This crate implements:
//!
//! * [`MonotonicAlgorithm`] — the ⊕/⊗ abstraction of Table II, with the five
//!   evaluated instances [`Ppsp`], [`Ppwp`], [`Ppnp`], [`Reach`], and
//!   [`Viterbi`],
//! * [`solver`] — static (from-scratch) solvers: best-first (generalized
//!   Dijkstra) and a worklist fixpoint used for cross-validation,
//! * [`frontier`] — the monotone radix-heap priority queue every
//!   best-first loop pops from,
//! * [`incremental`] — the incremental computation model of §II-A:
//!   delta propagation for edge additions and dependence-tagged repair for
//!   edge deletions (the Fig. 1(b) correctness hazard),
//! * [`keypath`] — global-key-path extraction from converged parent
//!   pointers (§III-A),
//! * [`classify`] — Algorithm 1: classify a batch into valuable / delayed /
//!   useless updates using the triangle inequality,
//! * [`Counters`] — computation/activation accounting shared by all
//!   engines, the accelerator model, and the benchmark harness.
//!
//! # Examples
//!
//! Converge PPSP on a small graph and answer a pairwise query:
//!
//! ```
//! use cisgraph_algo::{solver, Ppsp};
//! use cisgraph_graph::DynamicGraph;
//! use cisgraph_types::{EdgeUpdate, VertexId, Weight};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = DynamicGraph::new(3);
//! g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(2.0)?))?;
//! g.apply(EdgeUpdate::insert(VertexId::new(1), VertexId::new(2), Weight::new(3.0)?))?;
//! let mut counters = cisgraph_algo::Counters::default();
//! let result = solver::best_first::<Ppsp, _>(&g, VertexId::new(0), &mut counters);
//! assert_eq!(result.state(VertexId::new(2)).get(), 5.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod algorithms;
pub mod classify;
mod counters;
pub mod frontier;
pub mod incremental;
pub mod keypath;
pub mod solver;

pub use algorithm::{AlgorithmKind, MonotonicAlgorithm};
pub use algorithms::{Ppnp, Ppsp, Ppwp, Reach, Viterbi};
pub use counters::Counters;
pub use frontier::Frontier;
pub use incremental::ConvergedResult;
pub use keypath::KeyPath;
