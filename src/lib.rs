//! # CISGraph — contribution-driven pairwise streaming graph analytics
//!
//! A from-scratch reproduction of *CISGraph: A Contribution-Driven
//! Accelerator for Pairwise Streaming Graph Analytics* (DATE 2025): the
//! contribution-aware workflow (triangle-inequality update classification,
//! priority scheduling, early response), the software engines it is
//! evaluated against, and a cycle-level model of the accelerator itself.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`types`] — vertex ids, weights, states, updates, queries,
//! * [`graph`] — CSR snapshots and the mutable streaming graph,
//! * [`datasets`] — R-MAT stand-in datasets and the §IV-A batch protocol,
//! * [`algo`] — the five monotonic algorithms, solvers, incremental
//!   computation, and Algorithm 1 classification,
//! * [`engines`] — Cold-Start, SGraph, CISGraph-O, the parallel
//!   [`QueryServer`](engines::QueryServer) serving layer, and the one
//!   per-batch record every engine returns,
//!   [`BatchReport`](engines::BatchReport),
//! * [`sim`] — the DDR4 + scratchpad timing substrate,
//! * [`core`] — the CISGraph accelerator model,
//! * [`obs`] — in-process counters, gauges, log2 latency histograms,
//!   spans, and Chrome-trace export (see `docs/observability.md`).
//!
//! # Observability
//!
//! Instrumentation is off by default (one relaxed atomic load per hook).
//! Switch it on to collect per-engine counters and latency histograms:
//!
//! ```
//! use cisgraph::obs;
//!
//! obs::enable();
//! obs::counter("quickstart.batches").inc();
//! let snapshot = obs::snapshot();
//! assert!(snapshot.to_json_string().contains("quickstart.batches"));
//! ```
//!
//! # Quickstart
//!
//! ```
//! use cisgraph::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small road network: answer Q(v0 -> v3) while edges stream in.
//! let mut g = DynamicGraph::new(4);
//! g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(2.0)?))?;
//! g.apply(EdgeUpdate::insert(VertexId::new(1), VertexId::new(3), Weight::new(2.0)?))?;
//!
//! let query = PairQuery::new(VertexId::new(0), VertexId::new(3))?;
//! let mut engine = CisGraphO::<Ppsp>::new(&g, query);
//! assert_eq!(engine.answer().get(), 4.0);
//!
//! // A batch arrives: a shortcut and a road closure.
//! let batch = vec![
//!     EdgeUpdate::insert(VertexId::new(0), VertexId::new(3), Weight::new(3.0)?),
//!     EdgeUpdate::delete(VertexId::new(1), VertexId::new(3), Weight::new(2.0)?),
//! ];
//! g.apply_batch(&batch)?;
//! let report = engine.process_batch(&g, &batch);
//! assert_eq!(report.answer.get(), 3.0);
//! # Ok(())
//! # }
//! ```
//!
//! # Serving many standing queries
//!
//! A [`QueryServer`](engines::QueryServer) owns the graph, groups a
//! registry of standing queries by source vertex, and fans each batch
//! over worker threads that claim source groups one at a time — with
//! bit-identical answers at every thread count:
//!
//! ```
//! use cisgraph::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = DynamicGraph::new(4);
//! g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(2.0)?))?;
//! g.apply(EdgeUpdate::insert(VertexId::new(1), VertexId::new(3), Weight::new(2.0)?))?;
//!
//! let queries = vec![
//!     PairQuery::new(VertexId::new(0), VertexId::new(3))?,
//!     PairQuery::new(VertexId::new(0), VertexId::new(1))?, // same source: shares state
//!     PairQuery::new(VertexId::new(1), VertexId::new(3))?,
//! ];
//! let mut server = QueryServer::<Ppsp>::new(g, &queries, &ServeConfig::with_threads(2));
//!
//! let batch = vec![EdgeUpdate::insert(VertexId::new(0), VertexId::new(3), Weight::new(3.0)?)];
//! let report = server.process_batch(&batch)?;
//! assert_eq!(report.queries, 3);
//! assert_eq!(server.answer(queries[0]).unwrap().get(), 3.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cisgraph_algo as algo;
pub use cisgraph_core as core;
pub use cisgraph_datasets as datasets;
pub use cisgraph_engines as engines;
pub use cisgraph_graph as graph;
pub use cisgraph_obs as obs;
pub use cisgraph_sim as sim;
pub use cisgraph_types as types;

/// The most common imports in one place.
///
/// # Examples
///
/// ```
/// use cisgraph::prelude::*;
///
/// let v = VertexId::new(3);
/// assert_eq!(v.index(), 3);
/// ```
pub mod prelude {
    pub use cisgraph_algo::{
        solver, AlgorithmKind, ConvergedResult, Counters, KeyPath, MonotonicAlgorithm, Ppnp, Ppsp,
        Ppwp, Reach, Viterbi,
    };
    pub use cisgraph_core::{AccelReport, AcceleratorConfig, CisGraphAccel, CycleMilestones};
    pub use cisgraph_datasets::{registry, Dataset, StreamConfig, StreamingWorkload};
    pub use cisgraph_engines::{
        BatchReport, CisGraphO, ColdStart, MultiQuery, QueryServer, SGraph, SGraphConfig,
        ServeConfig, ServeReport, StreamingEngine,
    };
    pub use cisgraph_graph::{Csr, DynamicGraph, Edge, GraphView, ReversedView, Snapshot};
    pub use cisgraph_types::{
        Contribution, EdgeUpdate, PairQuery, State, UpdateKind, VertexId, Weight,
    };
}
