//! The benchmark's exit paths, run as the driver runs it.

use std::process::{Command, Output};

fn featherbench(extra: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_featherbench"));
    cmd.args([
        "--workload",
        "serve_open",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ])
    .args(extra);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

fn printed_a_result(out: &Output) -> bool {
    String::from_utf8_lossy(&out.stdout).contains("\"correct\"")
}

#[test]
fn an_output_mismatch_exits_non_zero_without_a_result() {
    let out = featherbench(&["--corrupt-golden"], &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!printed_a_result(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("output mismatch"));
}

#[test]
fn a_reconfiguring_environment_is_refused() {
    for var in [
        "FEATHER_THREADS",
        "FEATHER_SERVE_WORKERS",
        "FEATHER_FAULT_PLAN",
    ] {
        let out = featherbench(&[], &[(var, "1")]);
        assert_eq!(out.status.code(), Some(2), "{var}: {out:?}");
        assert!(!printed_a_result(&out));
    }
}
