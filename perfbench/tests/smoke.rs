//! Smoke-size runs of every workload in both modes.

use perfbench::{catalog, run, Settings, Size, Workload};
use std::path::PathBuf;

fn smoke(workload: Workload, trace: bool) -> perfbench::Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let settings = Settings {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        size: Size::smoke(workload),
        work_dir: work_dir.clone(),
    };
    let out = run(&settings).expect("smoke run");
    let _ = std::fs::remove_dir_all(work_dir);
    out
}

#[test]
fn every_end_to_end_metric_is_emitted_and_nonzero() {
    for workload in Workload::ALL {
        let out = smoke(workload, false);
        assert!(out.correct(), "{}: {out:?}", workload.name());
        let names: Vec<&str> = out.metrics.keys().copied().collect();
        let mut expected: Vec<&str> = catalog::END_TO_END.iter().map(|&(n, _)| n).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "{}", workload.name());
        for (name, value) in &out.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
    }
}

#[test]
fn every_per_layer_metric_is_emitted() {
    // The layers each workload runs, which must read above 0.
    let exercised: [(Workload, &[&str]); 3] = [
        (
            Workload::ServeMixed,
            &[
                "graph.validate_ms",
                "graph.apply_ms",
                "multi.converge_ms",
                "multi.shard_busy_ms",
                "multi.computations",
                "multi.useless_share",
                "serve.fanout_ms",
                "serve.merge_ms",
                "trace.overhead",
            ],
        ),
        (
            Workload::IngestDurable,
            &[
                "graph.validate_ms",
                "graph.apply_ms",
                "persist.wal",
                "persist.ckpt_bytes",
                "persist.recover_s",
                "multi.converge_ms",
            ],
        ),
        (
            Workload::PaperOr,
            &[
                "graph.apply_ms",
                "graph.snapshot_ms",
                "ciso.",
                "cold_start.",
                "sim.",
                "accel.",
                "paper.",
            ],
        ),
    ];
    for (workload, prefixes) in exercised {
        let out = smoke(workload, true);
        assert!(out.correct(), "{}: {out:?}", workload.name());
        assert_eq!(out.metrics.len(), catalog::PER_LAYER.len());
        for &(name, _) in catalog::PER_LAYER {
            let value = out.metrics[name];
            assert!(value.is_finite(), "{}: {name} = {value}", workload.name());
            if prefixes.iter().any(|p| name.starts_with(p)) {
                assert!(value > 0.0, "{}: {name} = {value}", workload.name());
            }
        }
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for &(name, unit) in catalog::END_TO_END.iter().chain(catalog::PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in Workload::ALL {
        let entry = format!("\"name\": \"{}\"", workload.name());
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"name\":").count();
    assert_eq!(
        listed,
        catalog::END_TO_END.len() + catalog::PER_LAYER.len() + Workload::ALL.len(),
        "BENCHMARK.json lists a metric or workload the catalog does not"
    );
}
