//! The engine abstraction and the per-batch report.

use cisgraph_algo::classify::ClassificationSummary;
use cisgraph_algo::{Counters, MonotonicAlgorithm};
use cisgraph_graph::DynamicGraph;
use cisgraph_obs::{Counter, Histogram};
use cisgraph_types::{EdgeUpdate, State};
use serde::Serialize;
use std::time::Duration;

/// What one engine did for one batch: the paper's per-batch record.
///
/// `response_time` is the paper's headline metric: the time until the
/// engine can answer the pairwise query for the new snapshot. For engines
/// without early response it equals `total_time`; for CISGraph-O and the
/// accelerator it excludes the delayed-deletion tail. The accelerator's
/// `StreamingEngine` impl (in `cisgraph-core`) reports simulated durations
/// at its configured clock.
///
/// # Examples
///
/// ```
/// use cisgraph_engines::BatchReport;
/// use cisgraph_types::State;
///
/// let mut total = BatchReport::new(State::new(3.0).unwrap());
/// let mut group = BatchReport::new(State::ONE);
/// group.counters.computations = 7;
/// total.accumulate(&group);
/// assert_eq!(total.answer.get(), 3.0);
/// assert_eq!(total.counters.computations, 7);
/// assert_eq!(total.total_time, std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BatchReport {
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
    /// Algorithm 1 outcome, when the engine classifies (CISGraph-O,
    /// `MultiQuery` and the accelerator).
    pub classification: Option<ClassificationSummary>,
}

impl BatchReport {
    /// A zeroed report carrying only an answer.
    pub fn new(answer: State) -> Self {
        Self {
            answer,
            response_time: Duration::ZERO,
            total_time: Duration::ZERO,
            counters: Counters::default(),
            addition_activations: 0,
            deletion_activations: 0,
            drain_activations: 0,
            classification: None,
        }
    }

    /// Folds another report's work into this one: times, counters,
    /// activations and classification are summed (times as
    /// *sequential-equivalent* work — a parallel harness measures
    /// wall-clock separately); the answer is kept. This is the one place
    /// per-batch reports are summed.
    pub fn accumulate(&mut self, other: &BatchReport) {
        self.response_time += other.response_time;
        self.total_time += other.total_time;
        self.counters += other.counters;
        self.addition_activations += other.addition_activations;
        self.deletion_activations += other.deletion_activations;
        self.drain_activations += other.drain_activations;
        if let Some(c) = other.classification {
            *self.classification.get_or_insert_default() += c;
        }
    }
}

/// One engine's metric handles in the global [`cisgraph_obs`] sink
/// (`engine.<name>.*`), resolved once so recording a batch formats no
/// name and looks none up.
#[derive(Debug)]
pub(crate) struct EngineObs {
    batches: &'static Counter,
    computations: &'static Counter,
    updates_dropped: &'static Counter,
    response: &'static Histogram,
    total: &'static Histogram,
    /// `class.<outcome>`, in [`ClassificationSummary`] field order.
    class: [&'static Counter; 5],
}

impl EngineObs {
    /// Resolves (registering on first use) the handles of engine `name`.
    pub(crate) fn new(name: &str) -> Self {
        let counter = |metric: &str| cisgraph_obs::counter(&format!("engine.{name}.{metric}"));
        let histogram = |metric: &str| cisgraph_obs::histogram(&format!("engine.{name}.{metric}"));
        Self {
            batches: counter("batches"),
            computations: counter("computations"),
            updates_dropped: counter("updates_dropped"),
            response: histogram("response_ns"),
            total: histogram("total_ns"),
            class: [
                "valuable_additions",
                "useless_additions",
                "valuable_deletions",
                "delayed_deletions",
                "useless_deletions",
            ]
            .map(|outcome| counter(&format!("class.{outcome}"))),
        }
    }

    /// Records one batch: the batch/computation/drop counters, the
    /// response and total-time histograms, and — for classifying engines —
    /// the Algorithm 1 outcome counters. Every handle is a no-op while the
    /// sink is disabled.
    pub(crate) fn record(&self, report: &BatchReport) {
        self.batches.inc();
        self.computations.add(report.counters.computations);
        self.updates_dropped.add(report.counters.updates_dropped);
        self.response.record_duration(report.response_time);
        self.total.record_duration(report.total_time);
        if let Some(c) = &report.classification {
            let counts = [
                c.valuable_additions,
                c.useless_additions,
                c.valuable_deletions,
                c.delayed_deletions,
                c.useless_deletions,
            ];
            for (counter, n) in self.class.iter().zip(counts) {
                counter.add(n as u64);
            }
        }
    }
}

/// Records one engine's per-batch outcome into the global
/// [`cisgraph_obs`] sink through [`EngineObs`]. One relaxed load when the
/// sink is disabled.
///
/// Every [`StreamingEngine::process_batch`] implementation calls this on
/// its way out, so the whole engine zoo is attributable with one switch.
pub(crate) fn obs_record_batch(name: &str, report: &BatchReport) {
    if cisgraph_obs::enabled() {
        EngineObs::new(name).record(report);
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
    fn accumulate_sums_work_and_classification() {
        let mut total = BatchReport::new(State::ZERO);
        let mut part = BatchReport::new(State::ONE);
        part.counters.computations = 3;
        part.addition_activations = 2;
        part.response_time = Duration::from_millis(5);
        total.accumulate(&part);
        assert!(total.classification.is_none(), "no classifying part yet");
        part.classification = Some(ClassificationSummary {
            useless_additions: 4,
            ..ClassificationSummary::default()
        });
        total.accumulate(&part);
        total.accumulate(&part);
        assert_eq!(total.counters.computations, 9);
        assert_eq!(total.addition_activations, 6);
        assert_eq!(total.response_time, Duration::from_millis(15));
        assert_eq!(total.classification.unwrap().useless_additions, 8);
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
