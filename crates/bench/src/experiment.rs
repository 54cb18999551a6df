//! The central experiment runner shared by all table/figure binaries.

use crate::args::Args;
use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::{Counters, MonotonicAlgorithm};
use cisgraph_core::{AccelReport, AcceleratorConfig, CisGraphAccel, CycleMilestones};
use cisgraph_datasets::{queries, Dataset, StreamConfig};
use cisgraph_engines::{BatchReport, CisGraphO, ColdStart, SGraph, SGraphConfig, StreamingEngine};
use cisgraph_graph::DynamicGraph;
use cisgraph_sim::MemStats;
use cisgraph_types::{EdgeUpdate, PairQuery, State};
use serde::Serialize;

/// Which engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSel {
    /// Cold-Start full recomputation.
    Cs,
    /// SGraph hub-bound pruning.
    SGraph,
    /// CISGraph-O software workflow.
    Ciso,
    /// CISGraph accelerator (simulated cycles).
    Accel,
}

impl EngineSel {
    /// The four engines of the Table IV comparison, in presentation order.
    pub const TABLE4: [EngineSel; 4] = [
        EngineSel::Cs,
        EngineSel::SGraph,
        EngineSel::Ciso,
        EngineSel::Accel,
    ];

    /// The engine's display name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Cs => "CS",
            Self::SGraph => "SGraph",
            Self::Ciso => "CISGraph-O",
            Self::Accel => "CISGraph",
        }
    }

    /// Builds the selected engine for one standing query as a boxed trait
    /// object, so harnesses drive every engine through one code path
    /// instead of match-dispatching per call site. The accelerator slots
    /// in through its [`StreamingEngine`] impl (simulated durations at the
    /// configured clock).
    pub fn build<A: MonotonicAlgorithm>(
        self,
        graph: &DynamicGraph,
        query: PairQuery,
        cfg: &RunConfig,
    ) -> Box<dyn StreamingEngine<A> + Send> {
        match self {
            Self::Cs => Box::new(ColdStart::new(query)),
            Self::SGraph => Box::new(SGraph::new(
                graph,
                query,
                SGraphConfig { num_hubs: cfg.hubs },
            )),
            Self::Ciso => Box::new(CisGraphO::new(graph, query)),
            Self::Accel => Box::new(CisGraphAccel::new(graph, query, cfg.accel)),
        }
    }
}

/// Worker threads to default to: one per available hardware thread.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `queries` on up to `threads` scoped worker threads
/// (contiguous chunks, results in query order). With one thread — or one
/// query — no threads are spawned.
fn map_queries<R, F>(queries: &[PairQuery], threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(PairQuery) -> R + Sync,
{
    let threads = threads.max(1).min(queries.len().max(1));
    if threads <= 1 {
        return queries.iter().map(|&q| f(q)).collect();
    }
    let chunk = queries.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .map(|qs| scope.spawn(move || qs.iter().map(|&q| f(q)).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("query worker thread panicked"))
            .collect()
    })
}

/// One experiment's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Dataset stand-in descriptor.
    pub dataset: Dataset,
    /// Scale factor (fraction of the real dataset's vertex count).
    pub scale: f64,
    /// Edge additions per batch.
    pub additions: usize,
    /// Edge deletions per batch.
    pub deletions: usize,
    /// Batches streamed per query.
    pub batches: usize,
    /// Pairwise queries averaged over (the paper uses 10).
    pub queries: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// SGraph hub count (the paper uses 16).
    pub hubs: usize,
    /// Accelerator configuration (Table I by default).
    pub accel: AcceleratorConfig,
    /// Load edges from this file (SNAP-style `src dst [weight]` text)
    /// instead of synthesizing the stand-in. For users who have the real
    /// Orkut/LiveJournal/UK-2002 datasets.
    pub edges_file: Option<std::path::PathBuf>,
    /// Worker threads for the accelerator's per-query simulation
    /// (`--threads`; defaults to the available hardware parallelism). The
    /// wall-clock timed software engines always run sequentially.
    pub threads: usize,
}

impl RunConfig {
    /// A scaled-down default that runs each algorithm/dataset combination
    /// in seconds: 1 % vertex scale, 2K + 2K batches, 5 queries.
    pub fn default_run(dataset: Dataset) -> Self {
        Self {
            dataset,
            scale: 0.01,
            additions: 2000,
            deletions: 2000,
            batches: 2,
            queries: 5,
            seed: 42,
            hubs: 16,
            accel: AcceleratorConfig::date2025(),
            edges_file: None,
            threads: default_threads(),
        }
    }

    /// Step-wise construction starting from [`RunConfig::default_run`], so
    /// binaries stop mutating configuration fields one by one.
    ///
    /// # Examples
    ///
    /// ```
    /// use cisgraph_bench::experiment::RunConfig;
    /// use cisgraph_datasets::registry;
    ///
    /// let cfg = RunConfig::builder(registry::orkut_like())
    ///     .scale(0.002)
    ///     .batch_size(300, 300)
    ///     .queries(10)
    ///     .build();
    /// assert_eq!(cfg.queries, 10);
    /// assert_eq!(cfg.additions, 300);
    /// ```
    pub fn builder(dataset: Dataset) -> RunConfigBuilder {
        RunConfigBuilder {
            cfg: Self::default_run(dataset),
        }
    }

    /// Applies the shared CLI overrides (`--scale`, `--adds`, `--dels`,
    /// `--batches`, `--queries`, `--seed`, `--threads`, `--full`).
    #[must_use]
    pub fn with_args(mut self, args: &Args) -> Self {
        if args.flag("full") {
            self.additions = 50_000;
            self.deletions = 50_000;
            self.scale = self.scale.max(0.05);
            self.queries = 10;
        }
        if let Some(s) = args.get_f64("scale") {
            self.scale = s;
        }
        if let Some(x) = args.get_usize("adds") {
            self.additions = x;
        }
        if let Some(x) = args.get_usize("dels") {
            self.deletions = x;
        }
        if let Some(x) = args.get_usize("batches") {
            self.batches = x;
        }
        if let Some(x) = args.get_usize("queries") {
            self.queries = x;
        }
        if let Some(x) = args.get_u64("seed") {
            self.seed = x;
        }
        if let Some(path) = args.get_str("edges") {
            self.edges_file = Some(std::path::PathBuf::from(path));
        }
        if let Some(x) = args.get_usize("threads") {
            self.threads = x.max(1);
        }
        self
    }
}

/// Builder for [`RunConfig`]; obtain one with [`RunConfig::builder`].
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    cfg: RunConfig,
}

impl RunConfigBuilder {
    /// Dataset scale factor.
    #[must_use]
    pub fn scale(mut self, scale: f64) -> Self {
        self.cfg.scale = scale;
        self
    }

    /// Additions and deletions per batch.
    #[must_use]
    pub fn batch_size(mut self, additions: usize, deletions: usize) -> Self {
        self.cfg.additions = additions;
        self.cfg.deletions = deletions;
        self
    }

    /// Batches streamed per query.
    #[must_use]
    pub fn batches(mut self, batches: usize) -> Self {
        self.cfg.batches = batches;
        self
    }

    /// Pairwise queries averaged over.
    #[must_use]
    pub fn queries(mut self, queries: usize) -> Self {
        self.cfg.queries = queries;
        self
    }

    /// Workload RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// SGraph hub count.
    #[must_use]
    pub fn hubs(mut self, hubs: usize) -> Self {
        self.cfg.hubs = hubs;
        self
    }

    /// Accelerator configuration.
    #[must_use]
    pub fn accel(mut self, accel: AcceleratorConfig) -> Self {
        self.cfg.accel = accel;
        self
    }

    /// Worker threads for the accelerator's per-query simulation.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads.max(1);
        self
    }

    /// Finishes construction.
    #[must_use]
    pub fn build(self) -> RunConfig {
        self.cfg
    }
}

/// A generated workload: initial snapshot, update batches, and query pairs.
#[derive(Debug, Clone)]
pub struct WorkloadBundle {
    /// Vertex-set size spanning all batches.
    pub num_vertices: usize,
    /// The initial snapshot `G0` (50 % of edges, per §IV-A).
    pub initial: DynamicGraph,
    /// Pre-generated update batches.
    pub batches: Vec<Vec<EdgeUpdate>>,
    /// The random pairwise queries.
    pub queries: Vec<PairQuery>,
}

/// Generates the workload for a configuration (deterministic in the seed).
///
/// # Panics
///
/// Panics if the configuration cannot produce even one batch (dataset too
/// small for the requested batch sizes).
pub fn build_workload(cfg: &RunConfig) -> WorkloadBundle {
    let _span = cisgraph_obs::span("bench.build_workload");
    let edges = match &cfg.edges_file {
        Some(path) => {
            let file = std::fs::File::open(path)
                .unwrap_or_else(|e| panic!("cannot open {}: {e}", path.display()));
            cisgraph_graph::read_edge_list(std::io::BufReader::new(file))
                .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
        }
        None => cfg.dataset.generate(cfg.scale, cfg.seed),
    };
    let mut stream = StreamConfig::paper_default()
        .with_batch_size(cfg.additions, cfg.deletions)
        .build(edges, cfg.seed.wrapping_add(1));
    let num_vertices = stream.num_vertices();
    let mut initial = DynamicGraph::new(num_vertices);
    for &(u, v, w) in stream.initial_edges() {
        initial
            .insert_edge(u, v, w)
            .expect("initial edges are in bounds by construction");
    }
    let mut batches = Vec::with_capacity(cfg.batches);
    for _ in 0..cfg.batches {
        let batch = stream
            .next_batch()
            .expect("dataset too small for the requested batch configuration");
        batches.push(batch);
    }
    let queries = queries::random_connected_pairs(&initial, cfg.queries, cfg.seed.wrapping_add(2));
    WorkloadBundle {
        num_vertices,
        initial,
        batches,
        queries,
    }
}

/// Aggregated result of one engine over all queries and batches.
#[derive(Debug, Clone, Default, Serialize)]
pub struct EngineResult {
    /// Engine display name.
    pub engine: String,
    /// Mean response time per batch, seconds (simulated seconds for the
    /// accelerator).
    pub response_seconds: f64,
    /// Mean time to full convergence per batch, seconds.
    pub total_seconds: f64,
    /// Work counters summed over all queries and batches.
    pub counters: Counters,
    /// Activations during addition processing (engines that split phases).
    pub addition_activations: u64,
    /// Activations during deletion processing, before the response.
    pub deletion_activations: u64,
    /// Activations during the post-response delayed drain.
    pub drain_activations: u64,
    /// Summed classification outcome (classifying engines only).
    pub classification: Option<ClassificationSummary>,
    /// Memory statistics (accelerator only).
    pub mem: Option<MemStats>,
    /// Cycle milestones summed over every batch (accelerator only); divide
    /// by `samples` for per-batch means.
    pub milestones: Option<CycleMilestones>,
    /// Batches × queries this result aggregates.
    pub samples: usize,
}

/// One query's outcome for one batch, in the units [`EngineResult`] sums.
struct Sample {
    answer: State,
    response_seconds: f64,
    total_seconds: f64,
    counters: Counters,
    addition_activations: u64,
    deletion_activations: u64,
    drain_activations: u64,
    classification: Option<ClassificationSummary>,
    mem: Option<MemStats>,
    milestones: Option<CycleMilestones>,
}

impl Sample {
    /// A software engine's report; times are wall-clock.
    fn software(rep: BatchReport) -> Self {
        Self {
            answer: rep.answer,
            response_seconds: rep.response_time.as_secs_f64(),
            total_seconds: rep.total_time.as_secs_f64(),
            counters: rep.counters,
            addition_activations: rep.addition_activations,
            deletion_activations: rep.deletion_activations,
            drain_activations: rep.drain_activations,
            classification: rep.classification,
            mem: None,
            milestones: None,
        }
    }

    /// The accelerator's report; times are simulated cycles at the
    /// configured clock.
    fn accel(rep: &AccelReport, accel: &AcceleratorConfig) -> Self {
        Self {
            answer: rep.answer,
            response_seconds: rep.response_seconds(accel.clock_ghz),
            total_seconds: accel.cycles_to_seconds(rep.total_cycles),
            counters: rep.counters,
            addition_activations: rep.addition_activations,
            deletion_activations: rep.deletion_activations,
            drain_activations: rep.drain_activations,
            classification: Some(rep.classification),
            mem: Some(rep.mem),
            milestones: Some(rep.milestones),
        }
    }
}

/// Streams every batch of `bundle` through one fresh engine per query on
/// up to `threads` workers; returns each query's per-batch `step` results,
/// in query order.
fn stream_queries<E, R: Send>(
    bundle: &WorkloadBundle,
    threads: usize,
    new_engine: impl Fn(&DynamicGraph, PairQuery) -> E + Sync,
    step: impl Fn(&mut E, &DynamicGraph, &[EdgeUpdate]) -> R + Sync,
) -> Vec<Vec<R>> {
    map_queries(&bundle.queries, threads, |query| {
        let mut graph = bundle.initial.clone();
        let mut engine = new_engine(&graph, query);
        bundle
            .batches
            .iter()
            .map(|batch| {
                graph
                    .apply_batch(batch)
                    .expect("workload batches are consistent");
                step(&mut engine, &graph, batch)
            })
            .collect()
    })
}

/// Runs one engine over the whole workload for one algorithm; answers are
/// cross-checked against Cold-Start when `check` is given.
///
/// # Panics
///
/// Panics if `check` is given and an answer diverges — engines must agree.
pub fn run_engine<A: MonotonicAlgorithm>(
    cfg: &RunConfig,
    bundle: &WorkloadBundle,
    sel: EngineSel,
    check: Option<&[Vec<State>]>,
) -> EngineResult {
    let _span = cisgraph_obs::span(&format!("bench.engine.{}", sel.name()));
    // The accelerator runs directly, because its memory statistics and
    // cycle counts are not part of the engine trait's report. Its time is
    // simulated, which parallel execution cannot distort, so its queries
    // run on `cfg.threads` workers; the wall-clock timed software engines
    // stream their queries sequentially.
    let per_query: Vec<Vec<Sample>> = if sel == EngineSel::Accel {
        stream_queries(
            bundle,
            cfg.threads,
            |graph, query| CisGraphAccel::<A>::new(graph, query, cfg.accel),
            |accel, graph, batch| Sample::accel(&accel.process_batch(graph, batch), &cfg.accel),
        )
    } else {
        stream_queries(
            bundle,
            1,
            |graph, query| sel.build::<A>(graph, query, cfg),
            |engine, graph, batch| Sample::software(engine.process_batch(graph, batch)),
        )
    };

    let mut result = EngineResult {
        engine: sel.name().to_string(),
        ..EngineResult::default()
    };
    for (qi, samples) in per_query.iter().enumerate() {
        for (bi, sample) in samples.iter().enumerate() {
            if let Some(expected) = check {
                assert_eq!(
                    sample.answer,
                    expected[qi][bi],
                    "{} diverged on query {qi} batch {bi}",
                    sel.name()
                );
            }
            result.response_seconds += sample.response_seconds;
            result.total_seconds += sample.total_seconds;
            result.counters += sample.counters;
            result.addition_activations += sample.addition_activations;
            result.deletion_activations += sample.deletion_activations;
            result.drain_activations += sample.drain_activations;
            if let Some(c) = sample.classification {
                *result.classification.get_or_insert_default() += c;
            }
            if let Some(m) = sample.mem {
                *result.mem.get_or_insert_default() += m;
            }
            if let Some(m) = sample.milestones {
                *result.milestones.get_or_insert_default() += m;
            }
            result.samples += 1;
        }
    }
    if result.samples > 0 {
        result.response_seconds /= result.samples as f64;
        result.total_seconds /= result.samples as f64;
    }
    result
}

/// Reference answers per query per batch, computed by Cold-Start. Queries
/// are evaluated on parallel threads (pure answers, no timing is taken, so
/// parallelism cannot distort any measurement).
pub fn reference_answers<A: MonotonicAlgorithm>(bundle: &WorkloadBundle) -> Vec<Vec<State>> {
    let _span = cisgraph_obs::span("bench.reference_answers");
    stream_queries(
        bundle,
        default_threads(),
        |_, query| ColdStart::<A>::new(query),
        |cs, graph, batch| cs.process_batch(graph, batch).answer,
    )
}

/// Results of all requested engines for one algorithm.
#[derive(Debug, Clone, Serialize)]
pub struct AlgoResults {
    /// Algorithm display name (Table II row).
    pub algorithm: String,
    /// Dataset abbreviation (OR / LJ / UK).
    pub dataset: String,
    /// Per-engine aggregates, in the order requested.
    pub engines: Vec<EngineResult>,
}

impl AlgoResults {
    /// Speedup of `engine` over the `CS` row (response-time based, as in
    /// Table IV). `None` if either row is missing or degenerate.
    pub fn speedup_over_cs(&self, engine: &str) -> Option<f64> {
        let cs = self.engines.iter().find(|e| e.engine == "CS")?;
        let e = self.engines.iter().find(|e| e.engine == engine)?;
        if e.response_seconds > 0.0 {
            Some(cs.response_seconds / e.response_seconds)
        } else {
            None
        }
    }
}

/// Runs the requested engines for one algorithm over one workload,
/// cross-checking every answer against Cold-Start.
pub fn run_engines<A: MonotonicAlgorithm>(
    cfg: &RunConfig,
    bundle: &WorkloadBundle,
    engines: &[EngineSel],
) -> AlgoResults {
    let reference = reference_answers::<A>(bundle);
    let engines = engines
        .iter()
        .map(|&sel| run_engine::<A>(cfg, bundle, sel, Some(&reference)))
        .collect();
    AlgoResults {
        algorithm: A::NAME.to_string(),
        dataset: cfg.dataset.abbrev.to_string(),
        engines,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_algo::{Ppsp, Reach};
    use cisgraph_datasets::registry;

    fn tiny() -> RunConfig {
        RunConfig::builder(registry::orkut_like())
            .scale(0.0005)
            .batch_size(50, 50)
            .batches(1)
            .queries(2)
            .hubs(4)
            .build()
    }

    #[test]
    fn workload_is_deterministic() {
        let cfg = tiny();
        let a = build_workload(&cfg);
        let b = build_workload(&cfg);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.num_vertices, b.num_vertices);
    }

    #[test]
    fn all_engines_agree_ppsp() {
        let cfg = tiny();
        let bundle = build_workload(&cfg);
        let results = run_engines::<Ppsp>(&cfg, &bundle, &EngineSel::TABLE4);
        assert_eq!(results.engines.len(), 4);
        for e in &results.engines {
            assert_eq!(e.samples, cfg.queries * cfg.batches);
        }
        // The accelerator must carry memory stats and classification.
        let accel = results
            .engines
            .iter()
            .find(|e| e.engine == "CISGraph")
            .unwrap();
        assert!(accel.mem.is_some());
        assert!(accel.classification.is_some());
    }

    #[test]
    fn all_engines_agree_reach() {
        let cfg = tiny();
        let bundle = build_workload(&cfg);
        let results = run_engines::<Reach>(
            &cfg,
            &bundle,
            &[EngineSel::Cs, EngineSel::Ciso, EngineSel::Accel],
        );
        assert_eq!(results.engines.len(), 3);
    }

    #[test]
    fn speedup_helper() {
        let cfg = tiny();
        let bundle = build_workload(&cfg);
        let results = run_engines::<Ppsp>(&cfg, &bundle, &[EngineSel::Cs, EngineSel::Accel]);
        let s = results.speedup_over_cs("CISGraph");
        assert!(s.is_some());
        assert!(s.unwrap() > 0.0);
        assert!(results.speedup_over_cs("nope").is_none());
    }

    /// The milestone sums `run_engine` reports for the accelerator are the
    /// sums of streaming `CisGraphAccel::process_batch` directly, and each
    /// batch's stamps are ordered: identification and the addition drain
    /// finish by the response, the delayed drain after it.
    #[test]
    fn accel_milestone_sums_match_direct_streaming() {
        let cfg = RunConfig {
            batches: 2,
            ..tiny()
        };
        let bundle = build_workload(&cfg);
        let result = run_engine::<Ppsp>(&cfg, &bundle, EngineSel::Accel, None);
        let mut direct = CycleMilestones::default();
        for &query in &bundle.queries {
            let mut graph = bundle.initial.clone();
            let mut accel = CisGraphAccel::<Ppsp>::new(&graph, query, cfg.accel);
            for batch in &bundle.batches {
                graph.apply_batch(batch).unwrap();
                let m = accel.process_batch(&graph, batch).milestones;
                assert!(m.identification_done <= m.response, "{m:?}");
                assert!(m.additions_done <= m.response, "{m:?}");
                assert!(m.response <= m.drain_done, "{m:?}");
                direct += m;
            }
        }
        assert_eq!(result.milestones, Some(direct));
        assert!(direct.response > 0);
        let cs = run_engine::<Ppsp>(&cfg, &bundle, EngineSel::Cs, None);
        assert_eq!(cs.milestones, None, "software engines have no cycle stamps");
    }

    #[test]
    fn with_args_overrides() {
        let args = crate::args::Args::parse_from(
            ["--scale", "0.3", "--adds", "7", "--queries", "3"]
                .iter()
                .map(|s| s.to_string()),
        );
        let cfg = RunConfig::default_run(registry::orkut_like()).with_args(&args);
        assert_eq!(cfg.scale, 0.3);
        assert_eq!(cfg.additions, 7);
        assert_eq!(cfg.queries, 3);
    }

    #[test]
    fn with_args_threads() {
        let args = crate::args::Args::parse_from(["--threads", "3"].iter().map(|s| s.to_string()));
        let cfg = RunConfig::default_run(registry::orkut_like()).with_args(&args);
        assert_eq!(cfg.threads, 3);
    }

    #[test]
    fn build_constructs_every_engine() {
        let cfg = tiny();
        let bundle = build_workload(&cfg);
        let query = bundle.queries[0];
        for sel in EngineSel::TABLE4 {
            let engine = sel.build::<Ppsp>(&bundle.initial, query, &cfg);
            assert_eq!(engine.name(), sel.name());
        }
    }

    /// `map_queries` keeps query order (every answer is checked against
    /// its query's reference) and its result does not depend on the thread
    /// count.
    #[test]
    fn parallel_run_matches_sequential() {
        let bundle = build_workload(&tiny());
        let reference = reference_answers::<Ppsp>(&bundle);
        let run = |threads| {
            let cfg = RunConfig { threads, ..tiny() };
            run_engine::<Ppsp>(&cfg, &bundle, EngineSel::Accel, Some(&reference))
        };
        let (sequential, parallel) = (run(1), run(4));
        assert_eq!(sequential.response_seconds, parallel.response_seconds);
        assert_eq!(sequential.counters, parallel.counters);
        assert_eq!(sequential.classification, parallel.classification);
        assert_eq!(sequential.mem, parallel.mem);
        assert_eq!(sequential.samples, parallel.samples);
    }

    #[test]
    fn builder_round_trips() {
        let cfg = RunConfig::builder(registry::orkut_like())
            .scale(0.5)
            .batch_size(11, 13)
            .batches(3)
            .queries(7)
            .seed(99)
            .hubs(5)
            .threads(2)
            .build();
        assert_eq!(cfg.scale, 0.5);
        assert_eq!((cfg.additions, cfg.deletions), (11, 13));
        assert_eq!(cfg.batches, 3);
        assert_eq!(cfg.queries, 7);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.hubs, 5);
        assert_eq!(cfg.threads, 2);
    }
}
