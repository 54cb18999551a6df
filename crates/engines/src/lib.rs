//! Software pairwise streaming-graph engines (§IV-A baselines plus the
//! paper's software workflow CISGraph-O).
//!
//! All engines implement [`StreamingEngine`]: the harness owns a
//! [`DynamicGraph`](cisgraph_graph::DynamicGraph), applies each update batch
//! to it (topology first, exactly as the accelerator does), then hands the
//! post-batch graph and the raw batch to the engine, which returns a
//! [`BatchReport`]: the answer, the response/total times, the work
//! counters, the Fig. 5(b) activations and, for classifying engines, the
//! Algorithm 1 outcome. It is the one per-batch record: [`MultiQuery`] and
//! [`QueryServer`] sum per-group reports with [`BatchReport::accumulate`],
//! and the accelerator (`cisgraph-core`) reports through it too.
//!
//! * [`ColdStart`] — full recomputation from the initial state per snapshot
//!   (the paper's CS baseline everything is normalized to),
//! * [`SGraph`] — hub-based upper/lower-bound pruning (16 highest-degree
//!   hubs), re-evaluating the query per snapshot with bound maintenance,
//! * [`CisGraphO`] — the contribution-aware workflow of §III-A: Algorithm 1
//!   classification, priority scheduling (valuable first, delayed last,
//!   useless dropped), and early response.
//!
//! # Examples
//!
//! ```
//! use cisgraph_engines::{CisGraphO, StreamingEngine};
//! use cisgraph_algo::Ppsp;
//! use cisgraph_graph::DynamicGraph;
//! use cisgraph_types::{EdgeUpdate, PairQuery, VertexId, Weight};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = DynamicGraph::new(3);
//! g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(4.0)?))?;
//! let q = PairQuery::new(VertexId::new(0), VertexId::new(1))?;
//! let mut engine = CisGraphO::<Ppsp>::new(&g, q);
//! assert_eq!(engine.answer().get(), 4.0);
//!
//! let batch = vec![EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(2.0)?)];
//! g.apply_batch(&batch)?;
//! let report = engine.process_batch(&g, &batch);
//! assert_eq!(report.answer.get(), 2.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ciso;
mod cold_start;
mod engine;
mod multi;
mod serve;
mod sgraph;

pub use ciso::CisGraphO;
pub use cold_start::ColdStart;
pub use engine::{BatchReport, StreamingEngine};
pub use multi::MultiQuery;
pub use serve::{QueryServer, ServeConfig, ServeReport};
pub use sgraph::{SGraph, SGraphConfig};
