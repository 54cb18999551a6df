//! Sensitivity sweep (ablation): pipeline count, propagation units,
//! scratchpad capacity, batch size and contribution scheduling vs
//! accelerator response time.
//!
//! These ablate the design choices DESIGN.md §6 lists; the paper fixes
//! 4 pipelines / 32 MB (Table I) without a sweep, so this is reproduction
//! added value rather than a paper figure.
//!
//! ```text
//! cargo run -p cisgraph-bench --release --bin sweep -- --scale 0.005
//! ```

use cisgraph_algo::Ppsp;
use cisgraph_bench::args::Args;
use cisgraph_bench::obsout::ObsSession;
use cisgraph_bench::{build_workload, run_engine, EngineSel, RunConfig, Table};
use cisgraph_datasets::registry;
use cisgraph_obs as obs;

fn main() {
    let args = Args::parse();
    let obs_session = ObsSession::init(&args);
    let base = RunConfig::default_run(registry::orkut_like()).with_args(&args);
    obs::log!(
        info,
        "sweep: {} scale {}, {}+{} x {} batches, {} queries",
        base.dataset.name,
        base.scale,
        base.additions,
        base.deletions,
        base.batches,
        base.queries
    );
    let bundle = build_workload(&base);

    println!("\nSweep A: pipeline count (propagation units scale with pipelines)\n");
    let mut t = Table::new(vec![
        "Pipelines".into(),
        "Prop units".into(),
        "Mean response (sim s)".into(),
        "Speedup vs 1".into(),
    ]);
    let mut baseline = None;
    for pipelines in [1usize, 2, 4, 8] {
        let mut cfg = base.clone();
        cfg.accel = cfg.accel.with_pipelines(pipelines);
        let r = run_engine::<Ppsp>(&cfg, &bundle, EngineSel::Accel, None);
        let resp = r.response_seconds;
        let base_resp = *baseline.get_or_insert(resp);
        t.row(vec![
            pipelines.to_string(),
            cfg.accel.total_propagation_units().to_string(),
            format!("{resp:.6}"),
            format!("{:.2}x", base_resp / resp),
        ]);
    }
    println!("{}", t.render());

    println!("\nSweep B: scratchpad capacity\n");
    let mut t = Table::new(vec![
        "SPM".into(),
        "Mean response (sim s)".into(),
        "SPM hit rate".into(),
        "DRAM MB/batch".into(),
        "Bus utilization".into(),
    ]);
    for mb in [1u64, 4, 8, 16, 32, 64] {
        let mut cfg = base.clone();
        cfg.accel.spm = cfg.accel.spm.with_capacity(mb * 1024 * 1024);
        let r = run_engine::<Ppsp>(&cfg, &bundle, EngineSel::Accel, None);
        let mem = r.mem.unwrap_or_default();
        let elapsed_cycles = r.total_seconds * cfg.accel.clock_ghz * 1e9 * r.samples as f64;
        let util =
            mem.bus_busy_cycles as f64 / (cfg.accel.dram.channels as f64 * elapsed_cycles.max(1.0));
        t.row(vec![
            format!("{mb} MB"),
            format!("{:.6}", r.response_seconds),
            format!("{:.1}%", mem.spm_hit_rate() * 100.0),
            format!(
                "{:.2}",
                mem.dram_bytes() as f64 / (1024.0 * 1024.0) / r.samples as f64
            ),
            format!("{:.1}%", util * 100.0),
        ]);
    }
    println!("{}", t.render());

    println!("\nSweep D: batch size (additions = deletions; response per update)\n");
    let mut t = Table::new(vec![
        "Batch (adds+dels)".into(),
        "Mean response (sim s)".into(),
        "ns per update".into(),
    ]);
    for half in [250usize, 500, 1000, 2000, 4000] {
        let mut cfg = base.clone();
        cfg.additions = half;
        cfg.deletions = half;
        cfg.batches = 1;
        let bundle_d = build_workload(&cfg);
        let r = run_engine::<Ppsp>(&cfg, &bundle_d, EngineSel::Accel, None);
        t.row(vec![
            format!("{}", 2 * half),
            format!("{:.6}", r.response_seconds),
            format!("{:.1}", r.response_seconds * 1e9 / (2 * half) as f64),
        ]);
    }
    println!("{}", t.render());

    println!("\nSweep C: propagation units per pipeline\n");
    let mut t = Table::new(vec![
        "Units/pipeline".into(),
        "Mean response (sim s)".into(),
    ]);
    for units in [1usize, 2, 4, 8] {
        let mut cfg = base.clone();
        cfg.accel = cfg.accel.with_propagation_units(units);
        let r = run_engine::<Ppsp>(&cfg, &bundle, EngineSel::Accel, None);
        t.row(vec![
            units.to_string(),
            format!("{:.6}", r.response_seconds),
        ]);
    }
    println!("{}", t.render());

    println!("\nSweep E: contribution scheduling (off = every deletion valuable, arrival order)\n");
    let mut t = Table::new(vec![
        "Scheduling".into(),
        "Mean response (sim s)".into(),
        "Mean total (sim s)".into(),
        "Response vs on".into(),
    ]);
    let mut on_resp = None;
    for (label, accel) in [
        ("on", base.accel),
        ("off", base.accel.without_contribution_scheduling()),
    ] {
        let cfg = RunConfig {
            accel,
            ..base.clone()
        };
        let r = run_engine::<Ppsp>(&cfg, &bundle, EngineSel::Accel, None);
        let on = *on_resp.get_or_insert(r.response_seconds);
        t.row(vec![
            label.into(),
            format!("{:.6}", r.response_seconds),
            format!("{:.6}", r.total_seconds),
            format!("{:.2}x", r.response_seconds / on.max(1e-12)),
        ]);
    }
    println!("{}", t.render());
    obs_session.finish();
}
