//! Benchmark harness for the CISGraph reproduction.
//!
//! One library drives the table/figure binaries (`table1` … `fig5b`) and
//! the `variance` and `sweep` studies: it generates the paper's workloads
//! (stand-in dataset + streaming batches + random queries), runs every
//! engine — Cold-Start, SGraph, CISGraph-O in wall-clock time and the
//! CISGraph accelerator in simulated cycles — through one aggregation
//! path, and reports the metrics each experiment needs. Two more binaries drive the serving stack: `serve`
//! (the multi-query server's thread sweep and durable runs) and
//! `walbench` (WAL overhead, checkpoint stall and crash recovery).
//!
//! See `DESIGN.md` §3 for the experiment ↔ module index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod artifacts;
pub mod experiment;
pub mod naive;
pub mod obsout;
pub mod table;

pub use experiment::{
    build_workload, run_engine, run_engines, AlgoResults, EngineResult, EngineSel, RunConfig,
    RunConfigBuilder, WorkloadBundle,
};
pub use table::Table;
