//! Figure 2 — breakdown of graph updates, ratio of redundant computations,
//! and wasteful processing time on the Orkut stand-in.
//!
//! For each of 10 pairwise queries (paper protocol), one batch is processed
//! by the contribution-*unaware* incremental engine with per-update
//! instrumentation. Each update is then labeled by Algorithm 1 against the
//! converged pre-batch state; computations/time attributed to useless
//! updates are the redundant fractions the paper reports (≈85 % useless
//! updates, ≈87 % redundant computations, ≈84 % wasteful time on Orkut).
//!
//! ```text
//! cargo run -p cisgraph-bench --release --bin fig2 -- --scale 0.01
//! ```

use cisgraph_algo::classify::classify_batch_for_query;
use cisgraph_algo::{solver, Counters, MonotonicAlgorithm, Ppnp, Ppsp, Ppwp, Reach, Viterbi};
use cisgraph_bench::args::Args;
use cisgraph_bench::naive::{DeletionPolicy, NaiveIncremental};
use cisgraph_bench::obsout::ObsSession;
use cisgraph_bench::{build_workload, RunConfig, Table};
use cisgraph_datasets::registry;
use cisgraph_obs as obs;
use cisgraph_types::{Contribution, UpdateKind};
use std::collections::HashMap;

fn main() {
    let args = Args::parse();
    let obs_session = ObsSession::init(&args);
    // `--algo ppsp|ppwp|ppnp|viterbi|reach` selects the algorithm (the
    // paper's Fig. 2 uses the shortest-path workload).
    match args.get_str("algo").unwrap_or("ppsp") {
        "ppsp" => run::<Ppsp>(&args),
        "ppwp" => run::<Ppwp>(&args),
        "ppnp" => run::<Ppnp>(&args),
        "viterbi" => run::<Viterbi>(&args),
        "reach" => run::<Reach>(&args),
        other => {
            obs::log!(
                error,
                "unknown --algo `{other}` (ppsp|ppwp|ppnp|viterbi|reach)"
            );
            std::process::exit(2);
        }
    }
    obs_session.finish();
}

fn run<A: MonotonicAlgorithm>(args: &Args) {
    // `--policy tag` switches the baseline to dependence tagging (the
    // efficient repair); the default `reset` (reachability reset) mirrors
    // the prior-work baseline the paper measures.
    let policy = match args.get_str("policy") {
        None | Some("reset") => DeletionPolicy::ReachabilityReset,
        Some("tag") => DeletionPolicy::DependenceTag,
        Some(other) => {
            obs::log!(error, "unknown --policy `{other}` (tag|reset)");
            std::process::exit(2);
        }
    };
    let mut cfg = RunConfig::default_run(pick_dataset(args));
    cfg.queries = 10;
    cfg.batches = 1;
    cfg.scale = 0.005;
    cfg.additions = 1000;
    cfg.deletions = 1000;
    let cfg = cfg.with_args(args);
    obs::log!(
        info,
        "fig2: {} scale {}, {}+{} batch, {} queries",
        cfg.dataset.name,
        cfg.scale,
        cfg.additions,
        cfg.deletions,
        cfg.queries
    );
    let bundle = build_workload(&cfg);
    let batch = &bundle.batches[0];

    let mut table = Table::new(vec![
        "Query".into(),
        "Useless updates".into(),
        "Redundant computations".into(),
        "Wasteful time".into(),
        "Useless adds".into(),
        "Useless dels".into(),
    ]);
    let mut useless_frac = Vec::new();
    let mut redundant_frac = Vec::new();
    let mut wasteful_frac = Vec::new();

    for &query in &bundle.queries {
        // Label each update with the paper-literal Algorithm 1, against the
        // pre-batch converged state.
        let mut graph = bundle.initial.clone();
        let converged = solver::best_first::<A, _>(&graph, query.source(), &mut Counters::new());
        let labels: HashMap<_, _> = {
            let classified = classify_batch_for_query(&converged, query, batch);
            let mut m = HashMap::new();
            for &u in batch {
                m.insert(u, Contribution::Useless);
            }
            for &u in &classified.additions {
                m.insert(u, Contribution::Valuable);
            }
            for (i, &u) in classified.deletions.iter().enumerate() {
                let c = if i < classified.non_delayed_deletions {
                    Contribution::Valuable
                } else {
                    Contribution::Delayed
                };
                m.insert(u, c);
            }
            m
        };

        // Replay the batch through the contribution-unaware engine,
        // attributing cost per update.
        let mut naive = NaiveIncremental::<A>::with_policy(&graph, query, policy);
        graph.apply_batch(batch).expect("consistent workload");
        let costs = naive.process_batch_instrumented(&graph, batch);

        let total = costs.len() as f64;
        let total_comp: u64 = costs.iter().map(|c| c.computations).sum();
        let total_time: f64 = costs.iter().map(|c| c.time.as_secs_f64()).sum();
        let mut useless = 0usize;
        let mut useless_adds = 0usize;
        let mut useless_dels = 0usize;
        let mut useless_comp = 0u64;
        let mut useless_time = 0.0f64;
        for c in &costs {
            if labels.get(&c.update) == Some(&Contribution::Useless) {
                useless += 1;
                match c.update.kind() {
                    UpdateKind::Insert => useless_adds += 1,
                    UpdateKind::Delete => useless_dels += 1,
                }
                useless_comp += c.computations;
                useless_time += c.time.as_secs_f64();
            }
        }
        let uf = useless as f64 / total;
        let rf = if total_comp > 0 {
            useless_comp as f64 / total_comp as f64
        } else {
            0.0
        };
        let wf = if total_time > 0.0 {
            useless_time / total_time
        } else {
            0.0
        };
        useless_frac.push(uf);
        redundant_frac.push(rf);
        wasteful_frac.push(wf);
        table.row(vec![
            query.to_string(),
            format!("{:.1}%", uf * 100.0),
            format!("{:.1}%", rf * 100.0),
            format!("{:.1}%", wf * 100.0),
            useless_adds.to_string(),
            useless_dels.to_string(),
        ]);
    }

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    table.row(vec![
        "AVERAGE".into(),
        format!("{:.1}%", mean(&useless_frac) * 100.0),
        format!("{:.1}%", mean(&redundant_frac) * 100.0),
        format!("{:.1}%", mean(&wasteful_frac) * 100.0),
        "".into(),
        "".into(),
    ]);

    println!(
        "\nFigure 2: useless updates / redundant computations / wasteful time ({}; {})\n",
        cfg.dataset.name,
        A::NAME
    );
    println!("{}", table.render());
    println!(
        "Paper (Orkut, full scale): 85% useless, 87% redundant computations, 84% wasteful time."
    );
}

/// Picks the dataset stand-in from `--dataset or|lj|uk` (default OR).
fn pick_dataset(args: &Args) -> cisgraph_datasets::Dataset {
    match args
        .get_str("dataset")
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        None | Some("or") | Some("orkut") => registry::orkut_like(),
        Some("lj") | Some("livejournal") => registry::livejournal_like(),
        Some("uk") | Some("uk2002") => registry::uk2002_like(),
        Some(other) => {
            obs::log!(error, "unknown --dataset `{other}` (or|lj|uk)");
            std::process::exit(2);
        }
    }
}
