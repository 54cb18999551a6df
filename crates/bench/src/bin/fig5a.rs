//! Figure 5(a) — computations in CISGraph vs the CS baseline, normalized
//! to CS, on the Orkut stand-in (paper: CISGraph averages a 67 % reduction).
//!
//! "Computations" are ⊕ evaluations (edge relaxations plus identification
//! checks), the same counter both engines share.
//!
//! ```text
//! cargo run -p cisgraph-bench --release --bin fig5a -- --scale 0.01
//! ```

use cisgraph_algo::{MonotonicAlgorithm, Ppnp, Ppsp, Ppwp, Reach, Viterbi};
use cisgraph_bench::args::{pick_dataset, Args};
use cisgraph_bench::obsout::ObsSession;
use cisgraph_bench::{build_workload, run_engines, EngineSel, RunConfig, Table};
use cisgraph_obs as obs;

fn main() {
    let args = Args::parse();
    let obs_session = ObsSession::init(&args);
    let cfg = RunConfig::default_run(pick_dataset(&args)).with_args(&args);
    obs::log!(
        info,
        "fig5a: {} scale {}, {}+{} x {} batches, {} queries",
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
        "CS computations".into(),
        "CISGraph-O computations".into(),
        "CISGraph computations".into(),
        "Normalized (accel/CS)".into(),
        "Reduction".into(),
    ]);
    let mut reductions = Vec::new();
    let mut artifacts = Vec::new();

    macro_rules! run_algo {
        ($a:ty) => {{
            let results = run_engines::<$a>(
                &cfg,
                &bundle,
                &[EngineSel::Cs, EngineSel::Ciso, EngineSel::Accel],
            );
            let cs = results.engines[0].counters.computations;
            let ciso = results.engines[1].counters.computations;
            let accel = results.engines[2].counters.computations;
            let norm = accel as f64 / cs as f64;
            reductions.push(1.0 - norm);
            table.row(vec![
                <$a as MonotonicAlgorithm>::NAME.into(),
                cs.to_string(),
                ciso.to_string(),
                accel.to_string(),
                format!("{norm:.3}"),
                format!("{:.1}%", (1.0 - norm) * 100.0),
            ]);
            artifacts.push(results);
        }};
    }
    run_algo!(Ppsp);
    run_algo!(Ppwp);
    run_algo!(Ppnp);
    run_algo!(Viterbi);
    run_algo!(Reach);

    let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
    table.row(vec![
        "AVERAGE".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        format!("{:.1}%", mean * 100.0),
    ]);
    cisgraph_bench::artifacts::write_json("fig5a", &artifacts);

    println!(
        "\nFigure 5(a): computations, CISGraph vs CS, normalized to CS ({})\n",
        cfg.dataset.name
    );
    println!("{}", table.render());
    println!("Paper (Orkut, full scale): CISGraph reduces computations by 67% on average.");
    obs_session.finish();
}
