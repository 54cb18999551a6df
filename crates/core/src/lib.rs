//! The CISGraph accelerator model — the paper's primary contribution.
//!
//! CISGraph (Fig. 4) is a contribution-driven accelerator for pairwise
//! streaming graph analytics with three phases per update batch:
//!
//! 1. **Prefetching** — state and neighbor prefetchers pull vertex states
//!    and CSR edge lists from DRAM into the 32 MB scratchpad; CSR lets one
//!    burst fetch a whole edge list,
//! 2. **Identification & Scheduling** — each update `u -> v` is routed to
//!    pipeline `v mod P`, checked against the triangle inequality
//!    (Algorithm 1), and either dropped (useless), appended (valuable
//!    additions / delayed deletions), or prepended (non-delayed valuable
//!    deletions) in the scheduling buffer,
//! 3. **Propagation** — propagation units pop scheduled updates, stream the
//!    destination's out-edge list, apply ⊕/⊗, write activated states back
//!    to the SPM, and feed a global activation buffer redistributed by
//!    vertex id.
//!
//! The accelerator answers the standing query as soon as no valuable update
//! remains (the *early response*, `response_cycles`) and keeps draining
//! delayed deletions for future correctness (`total_cycles`).
//!
//! The model is cycle-level in the same sense as the substrate in
//! [`cisgraph_sim`]: every memory touch goes through the scratchpad + DDR4
//! timing models, and every functional unit reserves its occupancy, so
//! contention, pipelining, and bandwidth limits shape the reported cycle
//! counts. Functional results are bit-identical to the software workflow
//! (verified against `CISGraph-O` and full recomputation in the test
//! suites).
//!
//! # Examples
//!
//! ```
//! use cisgraph_core::{AcceleratorConfig, CisGraphAccel};
//! use cisgraph_algo::Ppsp;
//! use cisgraph_graph::DynamicGraph;
//! use cisgraph_types::{EdgeUpdate, PairQuery, VertexId, Weight};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut g = DynamicGraph::new(3);
//! g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(4.0)?))?;
//! let q = PairQuery::new(VertexId::new(0), VertexId::new(1))?;
//! let mut accel = CisGraphAccel::<Ppsp>::new(&g, q, AcceleratorConfig::date2025());
//!
//! let batch = vec![EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(2.0)?)];
//! g.apply_batch(&batch)?;
//! let report = accel.process_batch(&g, &batch);
//! assert_eq!(report.answer.get(), 2.0);
//! assert!(report.response_cycles <= report.total_cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accel;
mod config;
mod image;
mod layout;
mod multi;
mod prop;
mod report;

pub use accel::CisGraphAccel;
pub use config::AcceleratorConfig;
pub use image::CsrImage;
pub use layout::MemoryLayout;
pub use multi::{MultiAccelReport, MultiQueryAccel};
pub use report::{AccelReport, CycleMilestones};
