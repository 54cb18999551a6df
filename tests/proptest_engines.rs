//! Property test: over arbitrary random graphs and batches, every engine —
//! including the accelerator — answers exactly what a cold recomputation
//! answers.

use cisgraph::prelude::*;
use proptest::prelude::*;

const N: u32 = 20;

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec(
        (0..N, 0..N, 1..9u32).prop_filter("no self loops", |(u, v, _)| u != v),
        8..80,
    )
}

fn graph_from(triples: &[(u32, u32, u32)]) -> DynamicGraph {
    let mut g = DynamicGraph::new(N as usize);
    for &(u, v, w) in triples {
        g.insert_edge(
            VertexId::new(u),
            VertexId::new(v),
            Weight::new(f64::from(w)).unwrap(),
        )
        .unwrap();
    }
    g
}

fn batch_from(
    initial: &[(u32, u32, u32)],
    adds: &[(u32, u32, u32)],
    delete_every: usize,
) -> Vec<EdgeUpdate> {
    let mut batch: Vec<EdgeUpdate> = adds
        .iter()
        .map(|&(u, v, w)| {
            EdgeUpdate::insert(
                VertexId::new(u),
                VertexId::new(v),
                Weight::new(f64::from(w)).unwrap(),
            )
        })
        .collect();
    for (i, &(u, v, w)) in initial.iter().enumerate() {
        if i % delete_every == 0 {
            batch.push(EdgeUpdate::delete(
                VertexId::new(u),
                VertexId::new(v),
                Weight::new(f64::from(w)).unwrap(),
            ));
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_engines_agree_on_arbitrary_workloads(
        initial in edges_strategy(),
        adds in edges_strategy(),
        k in 1usize..4,
        s in 0..N,
        d in 0..N,
    ) {
        prop_assume!(s != d);
        let mut g = graph_from(&initial);
        let query = PairQuery::new(VertexId::new(s), VertexId::new(d)).unwrap();

        let mut engines: Vec<Box<dyn StreamingEngine<Ppsp>>> = vec![
            Box::new(ColdStart::<Ppsp>::new(query)),
            Box::new(SGraph::<Ppsp>::new(&g, query, SGraphConfig { num_hubs: 3 })),
            Box::new(CisGraphO::<Ppsp>::new(&g, query)),
            Box::new(CisGraphAccel::<Ppsp>::new(&g, query, AcceleratorConfig::date2025())),
        ];

        let batch = batch_from(&initial, &adds, k);
        g.apply_batch(&batch).unwrap();
        let expected = solver::best_first::<Ppsp, _>(&g, query.source(), &mut Counters::new())
            .state(query.destination());
        for engine in &mut engines {
            let got = engine.process_batch(&g, &batch).answer;
            prop_assert_eq!(got, expected, "{} diverged", engine.name());
        }
    }
}
