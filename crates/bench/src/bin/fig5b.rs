//! Figure 5(b) — activated vertices of edge additions over edge deletions,
//! per algorithm, on the Orkut stand-in.
//!
//! The paper reports that before responding, CISGraph activates ~2.92×
//! more vertices for the 50K additions than for the 50K deletions
//! (Viterbi being the outlier in the other direction), evidence that the
//! triangle-inequality classification avoids the deletion-tagging blowup of
//! prior work.
//!
//! A second table breaks the same accelerator runs into their mean cycle
//! milestones per batch (identification, addition drain, early response,
//! delayed drain) — the analysis behind the paper's claim that "the
//! execution time in CISGraph includes the propagation phase and
//! identification phase".
//!
//! ```text
//! cargo run -p cisgraph-bench --release --bin fig5b -- --scale 0.01
//! ```

use cisgraph_algo::{MonotonicAlgorithm, Ppnp, Ppsp, Ppwp, Reach, Viterbi};
use cisgraph_bench::args::Args;
use cisgraph_bench::obsout::ObsSession;
use cisgraph_bench::{build_workload, run_engines, EngineSel, RunConfig, Table};
use cisgraph_datasets::registry;
use cisgraph_obs as obs;

fn main() {
    let args = Args::parse();
    let obs_session = ObsSession::init(&args);
    let cfg = RunConfig::default_run(pick_dataset(&args)).with_args(&args);
    obs::log!(
        info,
        "fig5b: {} scale {}, {}+{} x {} batches, {} queries",
        cfg.dataset.name,
        cfg.scale,
        cfg.additions,
        cfg.deletions,
        cfg.batches,
        cfg.queries
    );
    let bundle = build_workload(&cfg);

    let mut table = Table::new(vec![
        "Algorithm".into(),
        "Addition activations".into(),
        "Deletion activations (pre-response)".into(),
        "Add/Del ratio".into(),
        "Delayed drain (post-response)".into(),
    ]);
    let mut phases = Table::new(vec![
        "Algorithm".into(),
        "Identification".into(),
        "Additions drained".into(),
        "Response".into(),
        "Delayed drained".into(),
        "Response share".into(),
    ]);
    let mut ratios = Vec::new();
    let mut artifacts = Vec::new();

    macro_rules! run_algo {
        ($a:ty) => {{
            let results = run_engines::<$a>(&cfg, &bundle, &[EngineSel::Accel]);
            let accel = &results.engines[0];
            let adds = accel.addition_activations;
            let dels = accel.deletion_activations;
            let ratio = if dels > 0 {
                adds as f64 / dels as f64
            } else {
                f64::INFINITY
            };
            if ratio.is_finite() {
                ratios.push(ratio);
            }
            table.row(vec![
                <$a as MonotonicAlgorithm>::NAME.into(),
                adds.to_string(),
                dels.to_string(),
                if ratio.is_finite() {
                    format!("{ratio:.2}x")
                } else {
                    "inf".into()
                },
                accel.drain_activations.to_string(),
            ]);
            let m = accel.milestones.unwrap_or_default();
            let mean = |x: u64| format!("{:.0}", x as f64 / accel.samples.max(1) as f64);
            phases.row(vec![
                <$a as MonotonicAlgorithm>::NAME.into(),
                mean(m.identification_done),
                mean(m.additions_done),
                mean(m.response),
                mean(m.drain_done),
                format!(
                    "{:.0}%",
                    100.0 * m.response as f64 / m.drain_done.max(1) as f64
                ),
            ]);
            artifacts.push(results);
        }};
    }
    run_algo!(Ppsp);
    run_algo!(Ppwp);
    run_algo!(Ppnp);
    run_algo!(Viterbi);
    run_algo!(Reach);

    if !ratios.is_empty() {
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        table.row(vec![
            "AVERAGE".into(),
            "".into(),
            "".into(),
            format!("{mean:.2}x"),
            "".into(),
        ]);
    }

    cisgraph_bench::artifacts::write_json("fig5b", &artifacts);
    println!(
        "\nFigure 5(b): activated vertices, edge additions vs edge deletions ({})\n",
        cfg.dataset.name
    );
    println!("{}", table.render());
    println!(
        "Paper: additions activate ~2.92x the vertices deletions do on average\n\
         (Viterbi activates more on deletions)."
    );
    println!(
        "\nAccelerator cycle milestones per batch (mean, {}; cycles @1GHz)\n",
        cfg.dataset.name
    );
    println!("{}", phases.render());
    println!(
        "Milestones are cumulative stamps: the early response lands at\n\
         'Response'; work after it (delayed drain) overlaps the next batch's\n\
         gathering in real hardware."
    );
    obs_session.finish();
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
