//! The accelerator top level: pipelines, identification & scheduling, and
//! batch orchestration.

use crate::image::LiveImage;
use crate::prop::Propagator;
use crate::{AccelReport, AcceleratorConfig, CsrImage, MemoryLayout};
use cisgraph_algo::classify::{
    classify_addition, classify_deletion_dependence, ClassificationSummary,
};
use cisgraph_algo::{solver, ConvergedResult, Counters, KeyPath, MonotonicAlgorithm};
use cisgraph_graph::{DynamicGraph, Snapshot};
use cisgraph_sim::{Cycle, MemorySystem};
use cisgraph_types::{Contribution, EdgeUpdate, PairQuery, State, UpdateKind};
use std::collections::VecDeque;

/// The CISGraph accelerator instance for one standing pairwise query.
///
/// Holds the functional state (converged result), the memory hierarchy
/// model, and the Table I configuration. [`CisGraphAccel::process_batch`]
/// simulates one batch through the three phases of Fig. 4 and returns the
/// cycle-level [`AccelReport`].
#[derive(Debug, Clone)]
pub struct CisGraphAccel<A: MonotonicAlgorithm> {
    config: AcceleratorConfig,
    query: PairQuery,
    result: ConvergedResult<A>,
    mem: MemorySystem,
}

impl<A: MonotonicAlgorithm> CisGraphAccel<A> {
    /// Converges the initial snapshot (done once, off the critical path,
    /// like the paper's initial full computation) and builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if a query endpoint is outside `graph`.
    pub fn new(graph: &DynamicGraph, query: PairQuery, config: AcceleratorConfig) -> Self {
        let mut counters = Counters::new();
        let result = solver::best_first::<A, _>(graph, query.source(), &mut counters);
        let mem = MemorySystem::new(config.spm, config.dram);
        Self {
            config,
            query,
            result,
            mem,
        }
    }

    /// The standing query.
    pub fn query(&self) -> PairQuery {
        self.query
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// The current converged result (functional state).
    pub fn result(&self) -> &ConvergedResult<A> {
        &self.result
    }

    /// The current answer for the standing query.
    pub fn answer(&self) -> State {
        self.result.state(self.query.destination())
    }

    /// Simulates one batch. `graph` must reflect the post-batch topology
    /// (the accelerator "modifies graph topology according to edge additions
    /// and deletions to generate a snapshot", §III-B).
    ///
    /// The simulation reads a CSR image of the live adjacency: only the
    /// forward and transpose offsets are built (O(V) degree prefix sums);
    /// rows come straight from `graph`, with in-rows put in transpose order
    /// on demand. The report is identical to
    /// [`CisGraphAccel::process_batch_on_snapshot`] on `graph.snapshot()`.
    pub fn process_batch(&mut self, graph: &DynamicGraph, batch: &[EdgeUpdate]) -> AccelReport {
        self.simulate(&LiveImage::new(graph), batch)
    }

    /// Simulates one batch against a materialized snapshot of the
    /// post-batch topology.
    pub fn process_batch_on_snapshot(
        &mut self,
        snapshot: &Snapshot,
        batch: &[EdgeUpdate],
    ) -> AccelReport {
        self.simulate(snapshot, batch)
    }

    fn simulate<G: CsrImage>(&mut self, image: &G, batch: &[EdgeUpdate]) -> AccelReport {
        // The batch gathers while the previous one drains; by the time this
        // batch starts, the memory system is idle (open rows and SPM
        // contents persist, reservations do not).
        self.mem.quiesce();
        simulate_batch(
            &self.config,
            &mut self.mem,
            &mut self.result,
            self.query,
            image,
            batch,
        )
    }
}

/// The per-batch simulation: one converged result, one query, one
/// timeline starting at cycle 0, on the image laid out by
/// [`MemoryLayout::for_image`].
fn simulate_batch<A: MonotonicAlgorithm, G: CsrImage>(
    config: &AcceleratorConfig,
    mem: &mut MemorySystem,
    result: &mut ConvergedResult<A>,
    query: PairQuery,
    image: &G,
    batch: &[EdgeUpdate],
) -> AccelReport {
    {
        let layout = MemoryLayout::for_image(image);
        result.grow(image.num_vertices());
        let mut counters = Counters::new();
        let mem_before = mem.stats();

        // ---- Phase 1a: identify + schedule additions ---------------------
        // Updates stream one per cycle into each pipeline (routed by
        // v mod P); the state prefetcher pulls both endpoint states and a
        // single ALU cycle evaluates the triangle check. Additions stream
        // first (§IV-A fairness) and see the pre-batch converged states.
        let pipelines = config.pipelines.max(1);
        let mut issue: Vec<Cycle> = vec![0; pipelines];
        let mut summary = ClassificationSummary::default();
        let mut additions: Vec<(EdgeUpdate, Cycle)> = Vec::new();
        let mut ident_done: Cycle = 0;
        let ident = |update: EdgeUpdate,
                     issue: &mut Vec<Cycle>,
                     mem: &mut cisgraph_sim::MemorySystem,
                     counters: &mut Counters| {
            let lane = update.dst().raw() as usize % pipelines;
            let t_issue = issue[lane];
            issue[lane] = t_issue + 1;
            let t_u = mem.read(layout.state_addr(update.src()), 8, t_issue);
            let t_v = mem.read(layout.state_addr(update.dst()), 8, t_issue);
            // Deletions additionally read v's parent pointer for the
            // dependence check.
            let t_p = if update.kind() == UpdateKind::Delete {
                mem.read(layout.parent_addr(update.dst()), 4, t_issue)
            } else {
                t_issue
            };
            counters.computations += 1;
            t_u.max(t_v).max(t_p) + 1
        };

        for &update in batch.iter().filter(|u| u.kind() == UpdateKind::Insert) {
            let t_ready = ident(update, &mut issue, mem, &mut counters);
            ident_done = ident_done.max(t_ready);
            match classify_addition(result, update) {
                Contribution::Valuable => {
                    summary.valuable_additions += 1;
                    additions.push((update, t_ready));
                }
                _ => {
                    summary.useless_additions += 1;
                    counters.updates_dropped += 1;
                }
            }
        }

        // ---- Phase 2a: propagate valuable additions ----------------------
        let units = config.total_propagation_units();
        let pending =
            cisgraph_algo::incremental::PendingDeletions::from_batch(batch.iter().copied());
        let mut propagator =
            Propagator::new(image, layout, mem, result, &mut counters, units, pending);
        // Fig. 5(b) counts *net* state changes per phase (a repair that
        // resets and restores a vertex does not activate it for the
        // figure), so states are snapshotted at phase boundaries.
        let states_before_adds: Vec<cisgraph_types::State> = propagator.result.states().to_vec();
        let mut t_cursor: Cycle = 0;
        for (add, ready) in additions {
            t_cursor = t_cursor.max(propagator.seed_addition(add, ready));
        }
        t_cursor = propagator.drain(t_cursor);
        let additions_done = t_cursor;
        let states_after_adds: Vec<cisgraph_types::State> = propagator.result.states().to_vec();
        let addition_activations = states_before_adds
            .iter()
            .zip(&states_after_adds)
            .filter(|(a, b)| a != b)
            .count() as u64;

        // ---- Phase 1b: identify + schedule deletions ---------------------
        // Deletion identification reads the live SPM image, which now holds
        // the post-addition states and parents; non-delayed (key-path)
        // deletions go to the front of the scheduling buffer. With
        // contribution scheduling disabled (ablation), every deletion is
        // scheduled non-delayed in arrival order instead.
        let mut key_path = KeyPath::extract(propagator.result, query);
        let mut non_delayed: VecDeque<(EdgeUpdate, Cycle)> = VecDeque::new();
        let mut delayed: VecDeque<(EdgeUpdate, Cycle)> = VecDeque::new();
        let scheduling = config.contribution_scheduling;
        for &update in batch.iter().filter(|u| u.kind() == UpdateKind::Delete) {
            let t_ready = ident(update, &mut issue, propagator.mem, propagator.counters);
            ident_done = ident_done.max(t_ready);
            if !scheduling {
                summary.valuable_deletions += 1;
                non_delayed.push_back((update, t_ready));
                continue;
            }
            match classify_deletion_dependence(propagator.result, |v| key_path.contains(v), update)
            {
                Contribution::Valuable => {
                    summary.valuable_deletions += 1;
                    non_delayed.push_front((update, t_ready));
                }
                Contribution::Delayed => {
                    summary.delayed_deletions += 1;
                    delayed.push_back((update, t_ready));
                }
                Contribution::Useless => {
                    summary.useless_deletions += 1;
                    propagator.counters.updates_dropped += 1;
                }
            }
        }

        // ---- Phase 2b: non-delayed deletions, preemptively ----------------
        // Each repair can move the key path; the scheduling buffer re-scans
        // delayed entries and promotes any that became valuable ("when
        // detecting a valuable update, we assign it the highest priority").
        while let Some((del, ready)) = non_delayed.pop_front() {
            let (_, done) = propagator.process_deletion(del, ready.max(t_cursor));
            t_cursor = t_cursor.max(done);
            if scheduling && non_delayed.is_empty() && !delayed.is_empty() {
                key_path = KeyPath::extract(propagator.result, query);
                // One buffer-scan cycle per delayed entry.
                t_cursor += delayed.len() as Cycle;
                let mut rest = VecDeque::with_capacity(delayed.len());
                for (d, r) in std::mem::take(&mut delayed) {
                    if classify_deletion_dependence(propagator.result, |v| key_path.contains(v), d)
                        == Contribution::Valuable
                    {
                        non_delayed.push_back((d, r));
                    } else {
                        rest.push_back((d, r));
                    }
                }
                delayed = rest;
            }
        }

        // ---- Phase 3: early response -------------------------------------
        let response_cycles = t_cursor.max(ident_done);
        let answer = propagator.result.state(query.destination());
        let states_at_response: Vec<cisgraph_types::State> = propagator.result.states().to_vec();
        let deletion_activations = states_after_adds
            .iter()
            .zip(&states_at_response)
            .filter(|(a, b)| a != b)
            .count() as u64;

        // ---- Phase 4: drain delayed deletions ----------------------------
        for (del, ready) in std::mem::take(&mut delayed) {
            let (_, done) = propagator.process_deletion(del, ready.max(t_cursor));
            t_cursor = t_cursor.max(done);
        }
        let drain_activations = states_at_response
            .iter()
            .zip(propagator.result.states())
            .filter(|(a, b)| *a != *b)
            .count() as u64;
        let total_cycles = t_cursor.max(ident_done);

        let mut report = AccelReport::new(answer);
        report.response_cycles = response_cycles;
        report.total_cycles = total_cycles;
        report.counters = counters;
        report.mem = mem.stats() - mem_before;
        report.classification = summary;
        report.addition_activations = addition_activations;
        report.deletion_activations = deletion_activations;
        report.drain_activations = drain_activations;
        report.milestones = crate::CycleMilestones {
            identification_done: ident_done,
            additions_done,
            response: response_cycles,
            drain_done: total_cycles,
        };
        obs_record_accel(&report, mem);
        report
    }
}

/// Publishes one simulated batch to the [`cisgraph_obs`] registry:
/// classification counters, simulated response/total cycle histograms, and
/// the memory hierarchy's gauges (via [`MemorySystem::publish_obs`]).
/// No-op unless instrumentation is enabled.
fn obs_record_accel(report: &AccelReport, mem: &MemorySystem) {
    if !cisgraph_obs::enabled() {
        return;
    }
    cisgraph_obs::counter("accel.batches").inc();
    cisgraph_obs::counter("accel.computations").add(report.counters.computations);
    cisgraph_obs::counter("accel.updates_dropped").add(report.counters.updates_dropped);
    let c = &report.classification;
    cisgraph_obs::counter("accel.class.valuable_additions").add(c.valuable_additions as u64);
    cisgraph_obs::counter("accel.class.useless_additions").add(c.useless_additions as u64);
    cisgraph_obs::counter("accel.class.valuable_deletions").add(c.valuable_deletions as u64);
    cisgraph_obs::counter("accel.class.delayed_deletions").add(c.delayed_deletions as u64);
    cisgraph_obs::counter("accel.class.useless_deletions").add(c.useless_deletions as u64);
    cisgraph_obs::histogram("accel.response_cycles").record(report.response_cycles);
    cisgraph_obs::histogram("accel.total_cycles").record(report.total_cycles);
    mem.publish_obs();
}

impl<A: MonotonicAlgorithm> cisgraph_engines::StreamingEngine<A> for CisGraphAccel<A> {
    fn name(&self) -> &'static str {
        "CISGraph"
    }

    /// Runs the cycle-level simulation and reports it through the common
    /// engine interface: times are *simulated* durations at the configured
    /// clock, so the accelerator slots into any harness that compares
    /// engines by [`cisgraph_engines::BatchReport`].
    fn process_batch(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
    ) -> cisgraph_engines::BatchReport {
        let report = CisGraphAccel::process_batch(self, graph, batch);
        let simulated =
            |cycles| std::time::Duration::from_secs_f64(self.config.cycles_to_seconds(cycles));
        cisgraph_engines::BatchReport {
            answer: report.answer,
            response_time: simulated(report.response_cycles),
            total_time: simulated(report.total_cycles),
            counters: report.counters,
            addition_activations: report.addition_activations,
            deletion_activations: report.deletion_activations,
            drain_activations: report.drain_activations,
            classification: Some(report.classification),
        }
    }

    fn answer(&self) -> State {
        self.result.state(self.query.destination())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_algo::{Ppsp, Reach};
    use cisgraph_types::{VertexId, Weight};

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    fn accel<A: MonotonicAlgorithm>(g: &DynamicGraph, s: u32, d: u32) -> CisGraphAccel<A> {
        CisGraphAccel::new(
            g,
            PairQuery::new(v(s), v(d)).unwrap(),
            AcceleratorConfig::date2025(),
        )
    }

    #[test]
    fn initial_answer_matches_solver() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(2.0)).unwrap();
        g.insert_edge(v(1), v(2), w(3.0)).unwrap();
        let a = accel::<Ppsp>(&g, 0, 2);
        assert_eq!(a.answer().get(), 5.0);
    }

    #[test]
    fn valuable_addition_improves_answer_with_cycles() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(2), w(9.0)).unwrap();
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let mut a = accel::<Ppsp>(&g, 0, 2);
        let batch = vec![EdgeUpdate::insert(v(1), v(2), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let r = a.process_batch(&g, &batch);
        assert_eq!(r.answer.get(), 2.0);
        assert!(r.response_cycles > 0);
        assert!(r.total_cycles >= r.response_cycles);
        assert_eq!(r.classification.valuable_additions, 1);
        assert!(r.mem.dram_reads > 0, "cold state reads must hit DRAM");
    }

    #[test]
    fn useless_updates_cost_only_identification() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let mut a = accel::<Ppsp>(&g, 0, 1);
        let batch = vec![EdgeUpdate::insert(v(0), v(1), w(9.0))];
        g.apply_batch(&batch).unwrap();
        let r = a.process_batch(&g, &batch);
        assert_eq!(r.classification.useless_additions, 1);
        assert_eq!(r.addition_activations, 0);
        assert_eq!(r.answer.get(), 1.0);
    }

    #[test]
    fn key_path_deletion_repairs_answer() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(2), w(2.0)).unwrap();
        g.insert_edge(v(0), v(1), w(3.0)).unwrap();
        g.insert_edge(v(1), v(2), w(3.0)).unwrap();
        let mut a = accel::<Ppsp>(&g, 0, 2);
        let batch = vec![EdgeUpdate::delete(v(0), v(2), w(2.0))];
        g.apply_batch(&batch).unwrap();
        let r = a.process_batch(&g, &batch);
        assert_eq!(r.answer.get(), 6.0);
        assert_eq!(r.classification.valuable_deletions, 1);
        assert!(r.counters.resets >= 1);
    }

    #[test]
    fn delayed_deletion_does_not_block_response() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(2), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(3), w(1.0)).unwrap();
        let mut a = accel::<Ppsp>(&g, 0, 2);
        let batch = vec![EdgeUpdate::delete(v(1), v(3), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let r = a.process_batch(&g, &batch);
        assert_eq!(r.classification.delayed_deletions, 1);
        assert!(
            r.total_cycles > r.response_cycles,
            "delayed work happens after the response ({} vs {})",
            r.total_cycles,
            r.response_cycles
        );
        // The drain still fixed the off-path state.
        assert_eq!(a.result().state(v(3)), State::POS_INF);
    }

    #[test]
    fn reach_disconnection() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let mut a = accel::<Reach>(&g, 0, 2);
        assert_eq!(a.answer().get(), 1.0);
        let batch = vec![EdgeUpdate::delete(v(0), v(1), w(1.0))];
        g.apply_batch(&batch).unwrap();
        let r = a.process_batch(&g, &batch);
        assert_eq!(r.answer.get(), 0.0);
    }

    #[test]
    fn empty_batch_is_cheap() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let mut a = accel::<Ppsp>(&g, 0, 1);
        let r = a.process_batch(&g, &[]);
        assert_eq!(r.response_cycles, 0);
        assert_eq!(r.answer.get(), 1.0);
    }
}
