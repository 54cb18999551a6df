//! Table I — experimental configurations.
//!
//! Prints the modeled hardware parameters (accelerator side) and the
//! software platform note, regenerated from the live configuration structs
//! so the table can never drift from the code.

use cisgraph_bench::args::Args;
use cisgraph_bench::obsout::ObsSession;
use cisgraph_bench::Table;
use cisgraph_core::AcceleratorConfig;

fn main() {
    let obs_session = ObsSession::init(&Args::parse());
    let accel = AcceleratorConfig::date2025();
    let spm = accel.spm;
    let dram = accel.dram;

    let mut t = Table::new(vec![
        "".into(),
        "Software Framework".into(),
        "CISGraph".into(),
    ]);
    t.row(vec![
        "Compute Unit".into(),
        "host CPU (Xeon Gold 6254 @3.10GHz in the paper)".into(),
        format!(
            "{}x CISGraph pipelines @{}GHz",
            accel.pipelines, accel.clock_ghz
        ),
    ]);
    t.row(vec![
        "On-chip Memory".into(),
        "host caches (2MB L1, 32MB L2, 99MB LLC in the paper)".into(),
        format!(
            "{}MB eDRAM scratchpad, {}ns latency, {}-way, {}B lines",
            spm.capacity_bytes / (1024 * 1024),
            spm.access_latency,
            spm.ways,
            spm.line_bytes
        ),
    ]);
    t.row(vec![
        "Off-chip Memory".into(),
        format!(
            "{}x DDR4-3200, {}GB/s channel",
            dram.channels, dram.bytes_per_cycle
        ),
        format!(
            "{}x DDR4-3200, {}GB/s channel",
            dram.channels, dram.bytes_per_cycle
        ),
    ]);
    t.row(vec![
        "Propagation".into(),
        "-".into(),
        format!(
            "{} units/pipeline ({} total)",
            accel.propagation_units_per_pipeline,
            accel.total_propagation_units()
        ),
    ]);

    println!("Table I: experimental configurations (regenerated from code)\n");
    println!("{}", t.render());
    println!(
        "Software engines (CS, SGraph, CISGraph-O) run natively on this host;\n\
         the accelerator column is the cycle-level model in cisgraph-core."
    );
    obs_session.finish();
}
