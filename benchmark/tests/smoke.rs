//! One-second smoke of every workload, each in its own child process as
//! the suite and the driver run them: every op must pass its check and
//! every advertised metric must be on the result line.

use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "transform_resnet50",
    "exec_resnet50_f32",
    "exec_resnet50_int8",
    "exec_tiny_f32",
    "serve_resnet50",
    "serve_swap",
];

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fx-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary starts");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

/// The whole number after `"key":` on a result line.
fn whole(line: &str, key: &str) -> u64 {
    let at = line
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("{key} in {line}"));
    line[at + key.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("{key} is a whole number in {line}"))
}

#[test]
fn every_workload_runs_clean_for_one_second() {
    for workload in WORKLOADS {
        let line = run(workload, "0");
        assert!(line.contains("\"correct\":true"), "{workload}: {line}");
        assert!(whole(&line, "attempted") >= 1, "{workload}: {line}");
        assert_eq!(
            whole(&line, "failed"),
            0,
            "{workload}: failed_fraction must be 0: {line}"
        );
        for metric in [
            "setup_s",
            "op_p50_s",
            "op_p90_s",
            "ops_per_s",
            "peak_rss_mib",
        ] {
            assert!(
                line.contains(&format!("\"{metric}\":{{\"value\":")),
                "{workload} lacks {metric}"
            );
        }
    }
}

#[test]
fn a_traced_run_attributes_every_node_and_reports_its_overhead() {
    let line = run("exec_tiny_f32", "1");
    assert_eq!(whole(&line, "failed"), 0, "{line}");
    assert!(
        line.contains("\"fx_tensor.ops.unclassified.busy_s\":{\"value\":0,"),
        "every executed node must fall in an op class: {line}"
    );
    assert!(
        line.contains("\"bench.trace_overhead_ratio\":{\"value\":"),
        "{line}"
    );
    assert!(
        line.contains("\"fx_core.executor.plan_compiles\":{\"value\":1,"),
        "{line}"
    );
}

#[test]
fn an_unknown_workload_is_an_error_not_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_fx-benchmark"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary starts");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"metrics\""));
}
