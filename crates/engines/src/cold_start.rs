//! The Cold-Start (CS) baseline.

use crate::engine::EngineObs;
use crate::{BatchReport, StreamingEngine};
use cisgraph_algo::{solver, Counters, MonotonicAlgorithm};
use cisgraph_graph::DynamicGraph;
use cisgraph_types::{EdgeUpdate, PairQuery, State};
use std::marker::PhantomData;
use std::time::Instant;

/// Full recomputation per snapshot: "performs a full computation from the
/// initial state for each snapshot to obtain timely results" (§IV-A).
///
/// Every other engine's speedup in Table IV is normalized to this one.
///
/// # Examples
///
/// ```
/// use cisgraph_engines::{ColdStart, StreamingEngine};
/// use cisgraph_algo::Ppsp;
/// use cisgraph_graph::DynamicGraph;
/// use cisgraph_types::{EdgeUpdate, PairQuery, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(2);
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(3.0)?))?;
/// let q = PairQuery::new(VertexId::new(0), VertexId::new(1))?;
/// let mut cs = ColdStart::<Ppsp>::new(q);
/// let report = cs.process_batch(&g, &[]);
/// assert_eq!(report.answer.get(), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ColdStart<A> {
    query: PairQuery,
    last_answer: State,
    _algorithm: PhantomData<A>,
}

impl<A: MonotonicAlgorithm> ColdStart<A> {
    /// Creates the baseline for a standing query. No precomputation: the
    /// whole point of CS is that it starts from scratch each snapshot.
    pub fn new(query: PairQuery) -> Self {
        Self {
            query,
            last_answer: A::unreached(),
            _algorithm: PhantomData,
        }
    }

    /// The standing query.
    pub fn query(&self) -> PairQuery {
        self.query
    }
}

static OBS: EngineObs = EngineObs::new("CS");

impl<A: MonotonicAlgorithm> StreamingEngine<A> for ColdStart<A> {
    fn name(&self) -> &'static str {
        "CS"
    }

    fn process_batch(&mut self, graph: &DynamicGraph, batch: &[EdgeUpdate]) -> BatchReport {
        let _batch_span = cisgraph_obs::span("cs.batch");
        let start = Instant::now();
        let mut counters = Counters::new();
        // CS examines no updates individually; the batch is only reflected
        // in the topology. Count the batch as processed work.
        counters.updates_processed = batch.len() as u64;
        let result = solver::best_first::<A, _>(graph, self.query.source(), &mut counters);
        let elapsed = start.elapsed();
        self.last_answer = result.state(self.query.destination());
        let mut report = BatchReport::new(self.last_answer);
        report.response_time = elapsed;
        report.total_time = elapsed;
        report.counters = counters;
        OBS.record(&report);
        report
    }

    fn answer(&self) -> State {
        self.last_answer
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

    #[test]
    fn recomputes_after_each_batch() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(5.0)).unwrap();
        let q = PairQuery::new(v(0), v(1)).unwrap();
        let mut cs = ColdStart::<Ppsp>::new(q);
        assert_eq!(cs.process_batch(&g, &[]).answer.get(), 5.0);

        let batch = vec![EdgeUpdate::insert(v(0), v(1), w(2.0))];
        g.apply_batch(&batch).unwrap();
        let r = cs.process_batch(&g, &batch);
        assert_eq!(r.answer.get(), 2.0);
        assert_eq!(cs.answer().get(), 2.0);
        assert!(r.counters.computations > 0);
        assert_eq!(r.response_time, r.total_time);
    }

    #[test]
    fn unreachable_answer_is_unreached() {
        let g = DynamicGraph::new(3);
        let q = PairQuery::new(v(0), v(2)).unwrap();
        let mut cs = ColdStart::<Reach>::new(q);
        let r = cs.process_batch(&g, &[]);
        assert_eq!(r.answer, Reach::unreached());
    }

    #[test]
    fn name_matches_paper() {
        let q = PairQuery::new(v(0), v(1)).unwrap();
        let cs = ColdStart::<Ppsp>::new(q);
        assert_eq!(StreamingEngine::<Ppsp>::name(&cs), "CS");
        assert_eq!(cs.query(), q);
    }
}
