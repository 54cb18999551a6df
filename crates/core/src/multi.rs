//! Multi-query accelerator: several standing pairwise queries served by
//! one CISGraph instance.
//!
//! The paper scopes the accelerator to a single query and leaves
//! multi-query cases as future work (§III-A). This extension
//! time-multiplexes the pipelines over several queries per batch: each
//! query keeps its own state/parent arrays in the memory image
//! ([`MemoryLayout::for_group`]) while the CSR regions are shared, so an
//! additional standing query costs far less than a second accelerator —
//! its edge-list bursts hit scratchpad lines earlier queries already
//! pulled in.
//!
//! The software analogue (which additionally shares converged results
//! between same-source queries) is
//! [`cisgraph_engines::MultiQuery`](https://docs.rs/cisgraph-engines);
//! this hardware model keeps one result per query so each query's
//! early-response guarantee holds independently.

use crate::accel::simulate_batch;
use crate::image::LiveImage;
use crate::{AccelReport, AcceleratorConfig, CsrImage, MemoryLayout};
use cisgraph_algo::{solver, ConvergedResult, Counters, MonotonicAlgorithm};
use cisgraph_graph::{DynamicGraph, Snapshot};
use cisgraph_sim::{MemStats, MemorySystem};
use cisgraph_types::{EdgeUpdate, PairQuery, State};
use serde::{Deserialize, Serialize};

/// Per-batch report of the multi-query accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiAccelReport {
    /// Per-query reports, in registration order. Cycle stamps are on the
    /// shared batch timeline (query `k` starts when `k - 1` finishes).
    pub per_query: Vec<(PairQuery, AccelReport)>,
    /// Cycle when every query's answer was final.
    pub response_cycles: u64,
    /// Cycle when all delayed work drained.
    pub total_cycles: u64,
    /// Memory statistics for the whole batch.
    pub mem: MemStats,
    /// Functional work summed over all queries.
    pub counters: Counters,
}

/// The multi-query CISGraph instance.
#[derive(Debug, Clone)]
pub struct MultiQueryAccel<A: MonotonicAlgorithm> {
    config: AcceleratorConfig,
    queries: Vec<PairQuery>,
    results: Vec<ConvergedResult<A>>,
    mem: MemorySystem,
}

impl<A: MonotonicAlgorithm> MultiQueryAccel<A> {
    /// Converges every query's initial result and builds the shared
    /// memory hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `queries` is empty or an endpoint is outside `graph`.
    pub fn new(graph: &DynamicGraph, queries: &[PairQuery], config: AcceleratorConfig) -> Self {
        assert!(!queries.is_empty(), "need at least one standing query");
        let results = queries
            .iter()
            .map(|q| solver::best_first::<A, _>(graph, q.source(), &mut Counters::new()))
            .collect();
        Self {
            config,
            queries: queries.to_vec(),
            results,
            mem: MemorySystem::new(config.spm, config.dram),
        }
    }

    /// The standing queries, in registration order.
    pub fn queries(&self) -> &[PairQuery] {
        &self.queries
    }

    /// Current answers, in registration order.
    pub fn answers(&self) -> Vec<(PairQuery, State)> {
        self.queries
            .iter()
            .zip(&self.results)
            .map(|(&q, r)| (q, r.state(q.destination())))
            .collect()
    }

    /// Simulates one batch across all standing queries on one shared
    /// timeline. `graph` must reflect the post-batch topology; the
    /// simulation reads its live adjacency the same way
    /// [`CisGraphAccel::process_batch`](crate::CisGraphAccel::process_batch)
    /// does.
    pub fn process_batch(
        &mut self,
        graph: &DynamicGraph,
        batch: &[EdgeUpdate],
    ) -> MultiAccelReport {
        self.simulate(&LiveImage::new(graph), batch)
    }

    /// Simulates one batch against a materialized snapshot.
    pub fn process_batch_on_snapshot(
        &mut self,
        snapshot: &Snapshot,
        batch: &[EdgeUpdate],
    ) -> MultiAccelReport {
        self.simulate(snapshot, batch)
    }

    fn simulate<G: CsrImage>(&mut self, image: &G, batch: &[EdgeUpdate]) -> MultiAccelReport {
        self.mem.quiesce();
        let mem_before = self.mem.stats();
        let base_layout = MemoryLayout::for_image(image);
        let n = image.num_vertices();

        let mut per_query = Vec::with_capacity(self.queries.len());
        let mut counters = Counters::new();
        let mut response = 0u64;
        let mut t = 0u64;
        for (k, (query, result)) in self.queries.iter().zip(&mut self.results).enumerate() {
            let layout = base_layout.for_group(k, n);
            let report = simulate_batch(
                &self.config,
                &mut self.mem,
                result,
                *query,
                image,
                layout,
                batch,
                t,
            );
            counters += report.counters;
            response = response.max(report.response_cycles);
            t = report.total_cycles;
            per_query.push((*query, report));
        }

        let mut mem_delta = self.mem.stats();
        let b = mem_before;
        mem_delta.dram_reads -= b.dram_reads;
        mem_delta.dram_writes -= b.dram_writes;
        mem_delta.dram_read_bytes -= b.dram_read_bytes;
        mem_delta.dram_write_bytes -= b.dram_write_bytes;
        mem_delta.row_hits -= b.row_hits;
        mem_delta.row_misses -= b.row_misses;
        mem_delta.spm_hits -= b.spm_hits;
        mem_delta.spm_misses -= b.spm_misses;
        mem_delta.spm_writebacks -= b.spm_writebacks;
        mem_delta.bus_busy_cycles -= b.bus_busy_cycles;

        MultiAccelReport {
            per_query,
            response_cycles: response,
            total_cycles: t,
            mem: mem_delta,
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CisGraphAccel;
    use cisgraph_algo::Ppsp;
    use cisgraph_datasets::queries::random_connected_pairs;
    use cisgraph_datasets::{registry, StreamConfig};
    use cisgraph_types::VertexId;

    fn workload() -> (DynamicGraph, Vec<EdgeUpdate>, Vec<PairQuery>) {
        let edges = registry::orkut_like().generate(0.001, 9);
        let mut stream = StreamConfig::paper_default()
            .with_batch_size(150, 150)
            .build(edges, 9);
        let mut g = DynamicGraph::new(stream.num_vertices());
        for &(u, v, w) in stream.initial_edges() {
            g.insert_edge(u, v, w).unwrap();
        }
        let queries = random_connected_pairs(&g, 3, 17);
        let batch = stream.next_batch().unwrap();
        (g, batch, queries)
    }

    #[test]
    fn answers_match_single_query_accelerators() {
        let (mut g, batch, queries) = workload();
        let mut multi = MultiQueryAccel::<Ppsp>::new(&g, &queries, AcceleratorConfig::date2025());
        let mut singles: Vec<_> = queries
            .iter()
            .map(|&q| CisGraphAccel::<Ppsp>::new(&g, q, AcceleratorConfig::date2025()))
            .collect();
        g.apply_batch(&batch).unwrap();
        let report = multi.process_batch(&g, &batch);
        for (single, (q, per)) in singles.iter_mut().zip(&report.per_query) {
            let expected = single.process_batch(&g, &batch).answer;
            assert_eq!(per.answer, expected, "query {q}");
        }
        assert!(report.response_cycles <= report.total_cycles);
        assert_eq!(report.per_query.len(), 3);
    }

    #[test]
    fn shared_image_is_cheaper_than_separate_accelerators() {
        let (mut g, batch, queries) = workload();
        let mut multi = MultiQueryAccel::<Ppsp>::new(&g, &queries, AcceleratorConfig::date2025());
        let mut singles: Vec<_> = queries
            .iter()
            .map(|&q| CisGraphAccel::<Ppsp>::new(&g, q, AcceleratorConfig::date2025()))
            .collect();
        g.apply_batch(&batch).unwrap();
        let multi_total = multi.process_batch(&g, &batch).total_cycles;
        let singles_total: u64 = singles
            .iter_mut()
            .map(|s| s.process_batch(&g, &batch).total_cycles)
            .sum();
        assert!(
            multi_total <= singles_total,
            "shared CSR lines should not cost more: multi {multi_total} vs separate {singles_total}"
        );
    }

    #[test]
    fn per_group_state_regions_do_not_alias() {
        let layout = MemoryLayout::for_sizes(1000, 4000, 4000);
        let a = layout.for_group(0, 1000);
        let b = layout.for_group(1, 1000);
        let c = layout.for_group(2, 1000);
        // CSR shared, state/parent distinct.
        assert_eq!(a.edge_base, b.edge_base);
        assert_eq!(b.edge_base, c.edge_base);
        assert!(b.state_base >= layout.image_bytes);
        let v = VertexId::new(999);
        assert!(b.state_addr(v) < c.state_base);
        assert!(b.parent_addr(v) < c.state_base);
        assert_ne!(a.state_base, b.state_base);
        assert_ne!(b.state_base, c.state_base);
    }

    #[test]
    fn answers_accessor() {
        let (g, _, queries) = workload();
        let multi = MultiQueryAccel::<Ppsp>::new(&g, &queries, AcceleratorConfig::date2025());
        let answers = multi.answers();
        assert_eq!(answers.len(), queries.len());
        assert_eq!(multi.queries(), &queries[..]);
    }

    #[test]
    #[should_panic(expected = "at least one standing query")]
    fn empty_queries_panics() {
        let g = DynamicGraph::new(2);
        let _ = MultiQueryAccel::<Ppsp>::new(&g, &[], AcceleratorConfig::date2025());
    }
}
