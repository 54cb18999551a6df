//! Synthetic datasets and streaming-update workloads for the CISGraph
//! reproduction.
//!
//! The paper evaluates on Orkut, LiveJournal, and UK-2002 (Table III). Those
//! datasets are not redistributable here, so this crate provides:
//!
//! * graph generators — [`rmat`] (power-law, the stand-in for all three
//!   datasets) and [`erdos_renyi`] (uniform, used in tests),
//! * a [`registry`] of *stand-in descriptors* (`orkut_like`,
//!   `livejournal_like`, `uk2002_like`) whose average degree and skew match
//!   Table III and whose size scales with a user-chosen factor,
//! * the [`batches`] module implementing the paper's streaming protocol
//!   (§IV-A): load 50 % of edges as the initial snapshot, then emit batches
//!   of edge additions sampled from the unloaded edges and edge deletions
//!   sampled from the loaded ones,
//! * deterministic [`queries`] selection (10 random pairs per dataset).
//!
//! Everything is seeded; the same seed reproduces the same workload bit for
//! bit.
//!
//! # Examples
//!
//! ```
//! use cisgraph_datasets::{registry, batches::StreamConfig};
//!
//! let dataset = registry::orkut_like();
//! let edges = dataset.generate(0.001, 42); // 0.1% scale for the doctest
//! assert!(!edges.is_empty());
//!
//! let mut stream = StreamConfig::paper_default()
//!     .with_batch_size(100, 100)
//!     .build(edges, 42);
//! let initial = stream.initial_edges().len();
//! let batch = stream.next_batch().expect("enough edges for one batch");
//! assert_eq!(batch.len(), 200);
//! assert!(initial > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batches;
pub mod erdos_renyi;
pub mod grid;
pub mod queries;
pub mod registry;
pub mod rmat;
pub mod weights;

pub use batches::{StreamConfig, StreamingWorkload};
pub use registry::Dataset;
