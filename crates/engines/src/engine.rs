//! The engine abstraction, per-batch reports, and type erasure.

use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::{Counters, MonotonicAlgorithm};
use cisgraph_graph::DynamicGraph;
use cisgraph_types::{EdgeUpdate, State};
use serde::Serialize;
use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// The metric core every per-batch report shares.
///
/// Both the software engines' [`BatchReport`] and the simulated
/// accelerator's report (`AccelReport` in `cisgraph-core`, via
/// `to_core`) reduce to this struct, so the serving layer can aggregate
/// software and accelerator runs identically.
///
/// `response_time` is the paper's headline metric: the time until the
/// engine can answer the pairwise query for the new snapshot. For engines
/// without early response it equals `total_time`; for CISGraph-O and the
/// accelerator it excludes the delayed-deletion tail.
///
/// # Examples
///
/// ```
/// use cisgraph_engines::ReportCore;
/// use cisgraph_types::State;
///
/// let mut total = ReportCore::new(State::ZERO);
/// let mut shard = ReportCore::new(State::ONE);
/// shard.counters.computations = 7;
/// total.accumulate(&shard);
/// assert_eq!(total.counters.computations, 7);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReportCore {
    /// The converged query answer for the new snapshot.
    pub answer: State,
    /// Time until the answer was available.
    pub response_time: Duration,
    /// Time until the engine fully converged (including delayed work).
    pub total_time: Duration,
    /// Work performed across the whole batch.
    pub counters: Counters,
    /// Activations attributable to edge additions (Fig. 5(b)).
    pub addition_activations: u64,
    /// Activations attributable to edge deletions before the response
    /// (the Fig. 5(b) quantity; the delayed drain is excluded).
    pub deletion_activations: u64,
    /// Activations of the post-response delayed-deletion drain.
    pub drain_activations: u64,
}

impl ReportCore {
    /// A zeroed core carrying only an answer.
    pub fn new(answer: State) -> Self {
        Self {
            answer,
            response_time: Duration::ZERO,
            total_time: Duration::ZERO,
            counters: Counters::default(),
            addition_activations: 0,
            deletion_activations: 0,
            drain_activations: 0,
        }
    }

    /// Folds another core's work into this one: counters, activations, and
    /// times are summed (times as *sequential-equivalent* work — a parallel
    /// harness measures wall-clock separately); the answer is kept.
    pub fn accumulate(&mut self, other: &ReportCore) {
        self.response_time += other.response_time;
        self.total_time += other.total_time;
        self.counters += other.counters;
        self.addition_activations += other.addition_activations;
        self.deletion_activations += other.deletion_activations;
        self.drain_activations += other.drain_activations;
    }
}

/// What one engine did for one batch: the shared [`ReportCore`] metrics
/// plus the software-side classification outcome.
///
/// Dereferences to [`ReportCore`], so the metric fields read as before the
/// split (`report.answer`, `report.response_time`, …).
///
/// # Examples
///
/// ```
/// use cisgraph_engines::BatchReport;
/// use cisgraph_types::State;
///
/// let r = BatchReport::new(State::new(3.0).unwrap());
/// assert_eq!(r.answer.get(), 3.0);
/// assert_eq!(r.total_time, std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BatchReport {
    /// The engine-agnostic metric core.
    pub core: ReportCore,
    /// Algorithm 1 outcome, when the engine classifies (CISGraph-O only).
    pub classification: Option<ClassificationSummary>,
}

impl BatchReport {
    /// A zeroed report carrying only an answer.
    pub fn new(answer: State) -> Self {
        Self::from_core(ReportCore::new(answer))
    }

    /// Wraps a metric core without classification data.
    pub fn from_core(core: ReportCore) -> Self {
        Self {
            core,
            classification: None,
        }
    }
}

impl Deref for BatchReport {
    type Target = ReportCore;

    fn deref(&self) -> &ReportCore {
        &self.core
    }
}

impl DerefMut for BatchReport {
    fn deref_mut(&mut self) -> &mut ReportCore {
        &mut self.core
    }
}

/// Records one engine's per-batch outcome into the global
/// [`cisgraph_obs`] sink: batch/computation/drop counters, response and
/// total-time histograms, and — for classifying engines — the Algorithm 1
/// outcome counters (`engine.<name>.class.*`). One relaxed load when the
/// sink is disabled.
///
/// Every [`StreamingEngine::process_batch`] implementation calls this on
/// its way out, so the whole engine zoo is attributable with one switch.
pub(crate) fn obs_record_batch(name: &str, report: &BatchReport) {
    if !cisgraph_obs::enabled() {
        return;
    }
    let prefix = format!("engine.{name}");
    cisgraph_obs::counter(&format!("{prefix}.batches")).inc();
    cisgraph_obs::counter(&format!("{prefix}.computations")).add(report.counters.computations);
    cisgraph_obs::counter(&format!("{prefix}.updates_dropped"))
        .add(report.counters.updates_dropped);
    cisgraph_obs::histogram(&format!("{prefix}.response_ns")).record_duration(report.response_time);
    cisgraph_obs::histogram(&format!("{prefix}.total_ns")).record_duration(report.total_time);
    if let Some(c) = &report.classification {
        cisgraph_obs::counter(&format!("{prefix}.class.valuable_additions"))
            .add(c.valuable_additions as u64);
        cisgraph_obs::counter(&format!("{prefix}.class.useless_additions"))
            .add(c.useless_additions as u64);
        cisgraph_obs::counter(&format!("{prefix}.class.valuable_deletions"))
            .add(c.valuable_deletions as u64);
        cisgraph_obs::counter(&format!("{prefix}.class.delayed_deletions"))
            .add(c.delayed_deletions as u64);
        cisgraph_obs::counter(&format!("{prefix}.class.useless_deletions"))
            .add(c.useless_deletions as u64);
    }
}

/// A software engine answering one standing pairwise query over a stream of
/// update batches.
///
/// Contract: the caller applies each batch to the shared [`DynamicGraph`]
/// *before* calling [`StreamingEngine::process_batch`], so the engine sees
/// post-batch topology (matching the accelerator workflow in §III-B, which
/// updates the snapshot before identification). The same batch slice is
/// passed so incremental engines know what changed.
pub trait StreamingEngine<A: MonotonicAlgorithm> {
    /// Engine name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Processes one batch against the already-updated `graph`.
    fn process_batch(&mut self, graph: &DynamicGraph, batch: &[EdgeUpdate]) -> BatchReport;

    /// The engine's current answer for its standing query.
    fn answer(&self) -> State;
}

impl<A: MonotonicAlgorithm, E: StreamingEngine<A> + ?Sized> StreamingEngine<A> for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn process_batch(&mut self, graph: &DynamicGraph, batch: &[EdgeUpdate]) -> BatchReport {
        (**self).process_batch(graph, batch)
    }

    fn answer(&self) -> State {
        (**self).answer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColdStart;
    use cisgraph_algo::Ppsp;
    use cisgraph_types::{PairQuery, VertexId};

    #[test]
    fn report_new_is_zeroed() {
        let r = BatchReport::new(State::ZERO);
        assert_eq!(r.counters, Counters::default());
        assert_eq!(r.addition_activations, 0);
        assert!(r.classification.is_none());
    }

    #[test]
    fn report_serializes() {
        let r = BatchReport::new(State::new(1.5).unwrap());
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("answer"));
    }

    #[test]
    fn core_accumulates_work() {
        let mut total = ReportCore::new(State::ZERO);
        let mut part = ReportCore::new(State::ONE);
        part.counters.computations = 3;
        part.addition_activations = 2;
        part.response_time = Duration::from_millis(5);
        total.accumulate(&part);
        total.accumulate(&part);
        assert_eq!(total.counters.computations, 6);
        assert_eq!(total.addition_activations, 4);
        assert_eq!(total.response_time, Duration::from_millis(10));
        assert_eq!(total.answer, State::ZERO);
    }

    #[test]
    fn boxed_engine_is_still_an_engine() {
        fn run<A: MonotonicAlgorithm, E: StreamingEngine<A>>(engine: &mut E) -> &'static str {
            engine.name()
        }
        let q = PairQuery::new(VertexId::new(0), VertexId::new(1)).unwrap();
        let mut boxed: Box<dyn StreamingEngine<Ppsp>> = Box::new(ColdStart::<Ppsp>::new(q));
        assert_eq!(run(&mut boxed), "CS");
    }
}
