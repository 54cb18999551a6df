//! End-to-end tests of the `cisgraph` command-line binary: real process,
//! real files, real exit codes.

mod temp_dir;

use std::io::Write;
use std::process::Command;
use temp_dir::TempDir;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cisgraph"))
}

fn write_demo_files(dir: &TempDir) -> (std::path::PathBuf, std::path::PathBuf) {
    let graph = dir.path().join("graph.txt");
    let updates = dir.path().join("updates.txt");
    let mut f = std::fs::File::create(&graph).unwrap();
    // 0 -> 1 -> 2 -> 3 chain plus a slow direct edge.
    writeln!(f, "# demo\n0 1 1\n1 2 1\n2 3 1\n0 3 9").unwrap();
    let mut f = std::fs::File::create(&updates).unwrap();
    // Batch 1: a shortcut. Batch 2: break the chain.
    writeln!(f, "+ 0 3 2\n- 1 2 1").unwrap();
    (graph, updates)
}

/// Every engine the usage line names, each checked batch by batch
/// against a full recomputation.
#[test]
fn answers_and_verifies_end_to_end() {
    let dir = TempDir::new("answers_and_verifies_end_to_end");
    let (graph, updates) = write_demo_files(&dir);
    for (engine, name) in [
        ("ciso", "CISGraph-O"),
        ("cs", "CS"),
        ("sgraph", "SGraph"),
        ("accel", "CISGraph"),
    ] {
        let out = bin()
            .args([
                "--graph",
                graph.to_str().unwrap(),
                "--updates",
                updates.to_str().unwrap(),
                "--source",
                "0",
                "--dest",
                "3",
                "--engine",
                engine,
                "--batch",
                "1",
                "--verify",
            ])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{engine} stderr: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        // The initial graph's answer, before any batch: every engine,
        // including the two that solve only per batch, prints 3.
        assert!(
            stdout.contains(&format!("{name} Q(v0 -> v3) = 3")),
            "{engine} stdout: {stdout}"
        );
        // Shortcut improves 3 -> 2; breaking the chain keeps the shortcut.
        assert!(
            stdout.contains("batch    1: Q(v0 -> v3) = 2"),
            "{engine} stdout: {stdout}"
        );
        assert!(
            stdout.contains("batch    2: Q(v0 -> v3) = 2"),
            "{engine} stdout: {stdout}"
        );
        assert!(
            stderr.contains("verified against full recomputation"),
            "{engine} stderr: {stderr}"
        );
    }
}

#[test]
fn accelerator_engine_reports_simulated_time() {
    let dir = TempDir::new("accelerator_engine_reports_simulated_time");
    let (graph, updates) = write_demo_files(&dir);
    let out = bin()
        .args([
            "--graph",
            graph.to_str().unwrap(),
            "--updates",
            updates.to_str().unwrap(),
            "--source",
            "0",
            "--dest",
            "3",
            "--engine",
            "accel",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("simulated"), "stdout: {stdout}");
}

#[test]
fn usage_errors_exit_2() {
    let out = bin()
        .args(["--graph", "nope.txt"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing --source/--dest is a usage error"
    );

    // A value that is not a vertex id is reported as such, not as missing.
    let out = bin()
        .args(["--graph", "nope.txt", "--source", "abc", "--dest", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a bad --source is a usage error"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--source expects a vertex id, got `abc`"),
        "stderr names the bad flag and value: {stderr}"
    );

    let out = bin()
        .args([
            "--graph", "x", "--source", "0", "--dest", "1", "--algo", "bogus",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown algorithm is a usage error"
    );

    // The engine is resolved before the graph file is opened, so a missing
    // file does not mask the usage error.
    for engine in ["bogus", "pnp", "coalescing"] {
        let out = bin()
            .args([
                "--graph", "nope.txt", "--source", "0", "--dest", "1", "--engine", engine,
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "unknown engine `{engine}` is a usage error"
        );
    }
}

#[test]
fn missing_file_exits_1() {
    let out = bin()
        .args([
            "--graph",
            "/definitely/not/here.txt",
            "--source",
            "0",
            "--dest",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}
