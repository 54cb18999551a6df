//! End-to-end and per-layer benchmark of the CISGraph serving stack.
//!
//! Three workloads drive the public entry points the way a user does:
//! `serve-mixed` and `ingest-durable` serve a standing PPSP query set
//! through [`cisgraph_engines::QueryServer::process_batch`] (the second with
//! a [`cisgraph_persist::DurableStore`] attached), and `paper-or` streams
//! single queries through Cold-Start, CISGraph-O and the simulated
//! accelerator. The load is closed-loop: one caller submits the next batch
//! only after the previous call returned. Inputs come from
//! [`cisgraph_bench::build_workload`] with the seed given on the command
//! line and are generated before any timing starts.
//!
//! A run with tracing off reports the end-to-end metrics; a traced run
//! replays the same pipeline from this crate's own code, timing each
//! layer's public function, and reports the per-layer metrics (see
//! [`catalog`] and `README.md`).

#![forbid(unsafe_code)]

pub mod catalog;
pub mod check;
pub mod serve;
pub mod single;
pub mod stats;

use cisgraph_bench::{build_workload, RunConfig, WorkloadBundle};
use cisgraph_datasets::registry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The seed later performance claims are checked on; tune on others.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Set-ups each run times at least, for the `setup_s` median.
pub const MIN_SETUPS: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In-memory multi-query serving, 64 standing queries.
    ServeMixed,
    /// Durable serving: WAL fsync every batch, background delta checkpoints.
    IngestDurable,
    /// The paper's single-query engines and accelerator model.
    PaperOr,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Self::ServeMixed, Self::IngestDurable, Self::PaperOr];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::ServeMixed => "serve-mixed",
            Self::IngestDurable => "ingest-durable",
            Self::PaperOr => "paper-or",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone)]
pub struct Size {
    /// Fraction of the Orkut stand-in's vertex count.
    pub scale: f64,
    /// Additions per batch; deletions per batch are the same.
    pub batch_adds: usize,
    /// Batches logged by the untimed preparation (ingest-durable only).
    pub prefix_batches: usize,
    /// Batches served per pass, after the prefix.
    pub batches: usize,
    /// Standing (or single) queries a pass registers.
    pub queries: usize,
    /// Independent query sets; pass `i` registers set `i mod query_sets`,
    /// so a run averages over more queries than one pass holds.
    pub query_sets: usize,
    /// Fan-out threads.
    pub threads: usize,
}

impl Size {
    /// The sizes the benchmark runs.
    pub fn full(workload: Workload) -> Self {
        let threads = stats::nproc().min(2);
        match workload {
            Workload::ServeMixed => Self {
                scale: 0.01,
                batch_adds: 2_000,
                prefix_batches: 0,
                batches: 24,
                queries: 64,
                query_sets: 32,
                threads,
            },
            Workload::IngestDurable => Self {
                scale: 0.02,
                batch_adds: 8_000,
                prefix_batches: 36,
                batches: 16,
                queries: 4,
                query_sets: 32,
                threads,
            },
            Workload::PaperOr => Self {
                scale: 0.01,
                batch_adds: 2_000,
                prefix_batches: 0,
                batches: 3,
                queries: 16,
                query_sets: 24,
                threads,
            },
        }
    }

    /// A tiny size for tests: every code path, in well under a second.
    pub fn smoke(workload: Workload) -> Self {
        Self {
            scale: 0.001,
            batch_adds: 200,
            prefix_batches: if workload == Workload::IngestDurable {
                3
            } else {
                0
            },
            batches: 3,
            queries: 4,
            query_sets: 2,
            threads: 2,
        }
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measured time; passes repeat until it has elapsed.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Scratch directory for the durable store; removed afterwards.
    pub work_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Batch calls attempted.
    pub attempted: u64,
    /// Batch calls that returned an error.
    pub failed: u64,
    /// Checked answers that differ from Cold-Start, plus digest mismatches.
    pub wrong_answers: u64,
    /// Metric values by name (see [`catalog`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other facts printed beside the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Whether every check passed and no call failed.
    pub fn correct(&self) -> bool {
        self.wrong_answers == 0 && self.failed == 0
    }
}

/// Generates the workload's inputs (never timed).
pub fn inputs(settings: &Settings) -> WorkloadBundle {
    let size = &settings.size;
    let cfg = RunConfig::builder(registry::orkut_like())
        .scale(size.scale)
        .batch_size(size.batch_adds, size.batch_adds)
        .batches(size.prefix_batches + size.batches)
        .queries(size.queries * size.query_sets)
        .seed(settings.seed)
        .threads(size.threads)
        .build();
    build_workload(&cfg)
}

/// Runs one workload to completion and returns what it measured. Metrics
/// of the run's mode that the workload does not exercise read 0.
///
/// # Errors
///
/// Fails when the durable store's directory cannot be prepared.
pub fn run(settings: &Settings) -> std::io::Result<Outcome> {
    let bundle = inputs(settings);
    let mut out = match settings.workload {
        Workload::ServeMixed | Workload::IngestDurable => serve::run(settings, &bundle)?,
        Workload::PaperOr => single::run(settings, &bundle),
    };
    if !settings.trace {
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
    let catalog = catalog::for_mode(settings.trace);
    for name in out.metrics.keys() {
        assert!(
            catalog.iter().any(|&(n, _)| n == *name),
            "metric {name} is not in the catalog of this mode"
        );
    }
    for &(name, _) in catalog {
        out.metrics.entry(name).or_insert(0.0);
    }
    Ok(out)
}

/// A deadline-bounded loop of passes: repeats `pass` until `seconds` have
/// elapsed and it ran at least `min_passes` times; returns the pass count.
pub fn repeat_until(seconds: f64, min_passes: usize, mut pass: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut passes = 0;
    loop {
        pass(passes);
        passes += 1;
        if passes >= min_passes && start.elapsed() >= budget {
            return passes;
        }
    }
}
