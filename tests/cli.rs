//! End-to-end tests of the `cisgraph` command-line binary: real process,
//! real files, real exit codes.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cisgraph"))
}

/// A temp dir private to one test (tests in this file run in parallel
/// within one process), removed on drop.
struct TestDir(std::path::PathBuf);

impl TestDir {
    fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cisgraph_cli_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn write_demo_files(dir: &TestDir) -> (std::path::PathBuf, std::path::PathBuf) {
    let graph = dir.0.join("graph.txt");
    let updates = dir.0.join("updates.txt");
    let mut f = std::fs::File::create(&graph).unwrap();
    // 0 -> 1 -> 2 -> 3 chain plus a slow direct edge.
    writeln!(f, "# demo\n0 1 1\n1 2 1\n2 3 1\n0 3 9").unwrap();
    let mut f = std::fs::File::create(&updates).unwrap();
    // Batch 1: a shortcut. Batch 2: break the chain.
    writeln!(f, "+ 0 3 2\n- 1 2 1").unwrap();
    (graph, updates)
}

#[test]
fn answers_and_verifies_end_to_end() {
    let dir = TestDir::new("answers_and_verifies_end_to_end");
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
            "--batch",
            "1",
            "--verify",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("CISGraph-O Q(v0 -> v3) = 3"),
        "stdout: {stdout}"
    );
    // Shortcut improves 3 -> 2; breaking the chain keeps the shortcut.
    assert!(
        stdout.contains("batch    1: Q(v0 -> v3) = 2"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("batch    2: Q(v0 -> v3) = 2"),
        "stdout: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("verified against full recomputation"),
        "stderr: {stderr}"
    );
}

#[test]
fn accelerator_engine_reports_simulated_time() {
    let dir = TestDir::new("accelerator_engine_reports_simulated_time");
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
