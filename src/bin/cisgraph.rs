//! `cisgraph` — answer a standing pairwise query over a streaming graph.
//!
//! ```text
//! cisgraph --graph roads.txt --updates traffic.txt \
//!          --source 0 --dest 1599 --algo ppsp --engine ciso --batch 1000
//! ```
//!
//! * `--graph <file>` — initial snapshot, SNAP-style `src dst [weight]`
//!   lines (`#`/`%` comments allowed),
//! * `--updates <file>` — update stream, `+ src dst [weight]` /
//!   `- src dst [weight]` lines, processed in `--batch`-sized batches,
//! * `--algo ppsp|ppwp|ppnp|viterbi|reach` (default `ppsp`),
//! * `--engine ciso|cs|sgraph|accel` (default `ciso`;
//!   `accel` runs the cycle-level hardware model and reports simulated
//!   time),
//! * `--source` / `--dest` — the standing query endpoints (required),
//! * `--batch <n>` — updates per batch (default 1000),
//! * `--verify` — cross-check every answer against a full recomputation.
//!
//! Exit status: 0 on success, 2 on usage errors, 1 on IO/parse errors.

use cisgraph::prelude::*;
use std::process::ExitCode;

struct Cli {
    graph: String,
    updates: Option<String>,
    source: u32,
    dest: u32,
    algo: String,
    engine: String,
    batch: usize,
    verify: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cisgraph --graph <file> --source <id> --dest <id> \
         [--updates <file>] [--algo ppsp|ppwp|ppnp|viterbi|reach] \
         [--engine ciso|cs|sgraph|accel] [--batch <n>] [--verify]"
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut graph = None;
    let mut updates = None;
    let mut source = None;
    let mut dest = None;
    let mut algo = "ppsp".to_string();
    let mut engine = "ciso".to_string();
    let mut batch = 1000usize;
    let mut verify = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--graph" => graph = Some(value("--graph")),
            "--updates" => updates = Some(value("--updates")),
            "--source" => source = value("--source").parse().ok(),
            "--dest" => dest = value("--dest").parse().ok(),
            "--algo" => algo = value("--algo"),
            "--engine" => engine = value("--engine"),
            "--batch" => {
                batch = value("--batch").parse().unwrap_or_else(|_| {
                    eprintln!("--batch expects a positive integer");
                    usage()
                })
            }
            "--verify" => verify = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage()
            }
        }
    }
    let (Some(graph), Some(source), Some(dest)) = (graph, source, dest) else {
        eprintln!("--graph, --source, and --dest are required");
        usage()
    };
    Cli {
        graph,
        updates,
        source,
        dest,
        algo,
        engine,
        batch,
        verify,
    }
}

fn run<A: MonotonicAlgorithm>(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let file = std::fs::File::open(&cli.graph)?;
    let edges = cisgraph::graph::read_edge_list(std::io::BufReader::new(file))?;
    let max_id = edges
        .iter()
        .map(|&(u, v, _)| u.raw().max(v.raw()))
        .max()
        .unwrap_or(0)
        .max(cli.source)
        .max(cli.dest);
    let mut g = DynamicGraph::from_edges(max_id as usize + 1, edges);
    eprintln!(
        "loaded {}: {} vertices, {} edges",
        cli.graph,
        g.num_vertices(),
        g.num_edges()
    );

    let query = PairQuery::new(VertexId::new(cli.source), VertexId::new(cli.dest))?;
    let mut engine: Box<dyn StreamingEngine<A>> = match cli.engine.as_str() {
        "ciso" => Box::new(CisGraphO::<A>::new(&g, query)),
        "cs" => Box::new(ColdStart::<A>::new(query)),
        "sgraph" => Box::new(SGraph::<A>::new(&g, query, SGraphConfig::paper_default())),
        "accel" => Box::new(CisGraphAccel::<A>::new(
            &g,
            query,
            AcceleratorConfig::date2025(),
        )),
        other => {
            eprintln!("unknown engine `{other}`");
            usage()
        }
    };
    let simulated = cli.engine == "accel";
    println!(
        "{} {} = {}{}",
        engine.name(),
        query,
        engine.answer(),
        if simulated {
            "  (cycle-level model)"
        } else {
            ""
        }
    );

    let Some(updates_path) = &cli.updates else {
        return Ok(());
    };
    let file = std::fs::File::open(updates_path)?;
    let updates = cisgraph::graph::read_update_list(std::io::BufReader::new(file))?;
    eprintln!(
        "streaming {} updates in batches of {}",
        updates.len(),
        cli.batch
    );

    let mut skipped_missing = 0usize;
    for (i, raw_batch) in updates.chunks(cli.batch.max(1)).enumerate() {
        // Real-world streams can carry duplicate deletions; tolerate them
        // (skip with a tally) instead of aborting the session.
        let mut batch = Vec::with_capacity(raw_batch.len());
        for &update in raw_batch {
            match g.apply(update) {
                Ok(()) => batch.push(update),
                Err(cisgraph::graph::GraphError::EdgeNotFound { .. }) => skipped_missing += 1,
                Err(e) => return Err(e.into()),
            }
        }
        let report = engine.process_batch(&g, &batch);
        let dropped = report
            .classification
            .map(|c| c.useless())
            .unwrap_or_default();
        println!(
            "batch {:>4}: {} = {}  [{} updates, {} dropped, {:?}{}]",
            i + 1,
            query,
            report.answer,
            batch.len(),
            dropped,
            report.response_time,
            if simulated { " simulated" } else { "" },
        );
        if cli.verify {
            let mut counters = Counters::new();
            let fresh = solver::best_first::<A, _>(&g, query.source(), &mut counters);
            let expected = fresh.state(query.destination());
            if report.answer != expected {
                return Err(format!(
                    "verification failed on batch {}: engine {} vs recompute {expected}",
                    i + 1,
                    report.answer
                )
                .into());
            }
        }
    }
    if skipped_missing > 0 {
        eprintln!("skipped {skipped_missing} deletions of absent edges");
    }
    if cli.verify {
        eprintln!("all batches verified against full recomputation");
    }
    Ok(())
}

fn main() -> ExitCode {
    let cli = parse_cli();
    let result = match cli.algo.as_str() {
        "ppsp" => run::<Ppsp>(&cli),
        "ppwp" => run::<Ppwp>(&cli),
        "ppnp" => run::<Ppnp>(&cli),
        "viterbi" => run::<Viterbi>(&cli),
        "reach" => run::<Reach>(&cli),
        other => {
            eprintln!("unknown algorithm `{other}`");
            usage()
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
