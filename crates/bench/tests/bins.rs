//! Smoke tests of the fast experiment binaries: they run to completion and
//! print the rows the paper's tables contain. The heavy bins run their
//! experiments through the library, which its unit tests cover at small
//! scale; CI's experiment smoke runs `table4`, `fig5b` and `sweep` at
//! scale 0.002.

use std::process::Command;

fn run(path: &str, args: &[&str]) -> String {
    let out = Command::new(path)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{path} failed to launch: {e}"));
    assert!(
        out.status.success(),
        "{path} exited with {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn table1_prints_hardware_config() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &[]);
    assert!(out.contains("4x CISGraph pipelines @1GHz"));
    assert!(out.contains("32MB eDRAM scratchpad"));
    assert!(out.contains("8x DDR4-3200"));
}

#[test]
fn table2_prints_all_five_algorithms() {
    let out = run(env!("CARGO_BIN_EXE_table2"), &[]);
    for name in ["PPSP", "PPWP", "PPNP", "Viterbi", "Reach"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
    // The live ⊕ demo on (6, 2): PPSP 8, PPWP 2, PPNP 6, Viterbi 3, Reach 6.
    assert!(out.contains("T = 8"));
    assert!(out.contains("T = 3"));
}

#[test]
fn table3_prints_stand_in_scales() {
    let out = run(env!("CARGO_BIN_EXE_table3"), &["--scale", "0.002"]);
    assert!(out.contains("orkut_like"));
    assert!(out.contains("2599558"), "paper's full-scale vertex count");
    assert!(out.contains("16.0"), "stand-in average degree");
}

#[test]
fn fig1_reproduces_the_hazard() {
    let out = run(env!("CARGO_BIN_EXE_fig1"), &[]);
    assert!(out.contains("WRONG"));
    assert!(out.contains("Dependence repair"));
}

#[test]
fn fig2_rejects_an_unknown_policy() {
    for policy in ["Tag", "dependence"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig2"))
            .args(["--policy", policy])
            .output()
            .expect("fig2 launches");
        assert_eq!(out.status.code(), Some(2), "--policy {policy}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown --policy"));
    }
}

#[test]
fn walbench_crash_recovery_round_trips() {
    let dir = std::env::temp_dir().join(format!("cisgraph_bins_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();
    // Small workload; crash and recover must agree on it exactly, since
    // the recorded digest is a function of the batch stream.
    let wl = [
        "--scale",
        "0.002",
        "--adds",
        "300",
        "--dels",
        "60",
        "--batches",
        "4",
    ];
    let mut crash_args = vec!["--mode", "crash", "--dir", dir_s];
    crash_args.extend_from_slice(&wl);
    let out = run(env!("CARGO_BIN_EXE_walbench"), &crash_args);
    assert!(
        out.contains("torn tail"),
        "crash mode must tear the log:\n{out}"
    );
    let mut recover_args = vec!["--mode", "recover", "--dir", dir_s];
    recover_args.extend_from_slice(&wl);
    let out = run(env!("CARGO_BIN_EXE_walbench"), &recover_args);
    assert!(
        out.contains("recovery smoke ok"),
        "recovered snapshot must be byte-identical:\n{out}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
