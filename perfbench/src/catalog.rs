//! Every metric the benchmark reports, with its unit. `BENCHMARK.json` at
//! the repository root lists the same names; a test keeps the two in step.
//!
//! A run with tracing off reports [`END_TO_END`]; a traced run reports
//! [`PER_LAYER`]. A layer a workload does not run reads 0 (see
//! `README.md` for which workload exercises which layer).

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("batch_p50_ms", "ms"),
    ("batch_tail_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("response_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers, measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.validate_ms", "ms"),
    ("graph.apply_ms", "ms"),
    ("graph.snapshot_ms", "ms"),
    ("persist.wal_append_ms", "ms"),
    ("persist.wal_bytes", "bytes"),
    ("persist.ckpt_ms", "ms"),
    ("persist.ckpt_max_ms", "ms"),
    ("persist.ckpt_bytes", "bytes"),
    ("persist.recover_s", "s"),
    ("persist.replayed_batches", "count"),
    ("multi.converge_ms", "ms"),
    ("multi.shard_busy_ms", "ms"),
    ("multi.response_ms", "ms"),
    ("multi.drain_ms", "ms"),
    ("multi.group_response_p99_us", "us"),
    ("multi.computations", "count"),
    ("multi.updates_dropped", "count"),
    ("multi.activations", "count"),
    ("multi.useless_share", "ratio"),
    ("serve.fanout_ms", "ms"),
    ("serve.shard_skew", "ratio"),
    ("serve.parallel_speedup", "ratio"),
    ("serve.merge_ms", "ms"),
    ("serve.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("ciso.response_us", "us"),
    ("ciso.drain_us", "us"),
    ("ciso.computations", "count"),
    ("cold_start.computations", "count"),
    ("cold_start.response_ms", "ms"),
    ("sim.process_batch_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("accel.response_kcycles", "kcycles"),
    ("accel.identification_kcycles", "kcycles"),
    ("accel.additions_kcycles", "kcycles"),
    ("accel.drain_kcycles", "kcycles"),
    ("sim.dram_reads", "count"),
    ("sim.row_hit_rate", "ratio"),
    ("sim.spm_hit_rate", "ratio"),
    ("paper.table4_ciso_x", "x"),
    ("paper.table4_accel_x", "x"),
    ("paper.fig2_useless_share", "ratio"),
];

/// The metrics a run reports: [`PER_LAYER`] when traced, else
/// [`END_TO_END`].
pub fn for_mode(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
