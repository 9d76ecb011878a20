//! The binary, end to end: a wrong result must fail the run.

use std::process::Command;

#[test]
fn an_injected_fault_makes_the_run_exit_non_zero() {
    // `--inject-fault` cuts every horizon to 300 µs: no burst completes, so
    // every op fails its check (and every run is over in microseconds).
    let out = Command::new(env!("CARGO_BIN_EXE_incast-benchmark"))
        .args([
            "--workload",
            "sweep_cold",
            "--seed",
            "11",
            "--seconds",
            "0.1",
        ])
        .args(["--trace", "0", "--inject-fault"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.contains(r#""correct":false"#), "{last}");
    assert!(!last.contains(r#""failed":0"#), "{last}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("FAILED sweep_cold") && stderr.contains("did not complete"),
        "{stderr}"
    );
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_incast-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
