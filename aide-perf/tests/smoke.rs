//! Drives the built program end to end at smoke scale: every workload in a
//! child process, untraced and traced, with the oracle enforced. This is
//! what keeps the harness exercised by `cargo test` without the long runs.

use aide_perf::report::{END_TO_END, PER_LAYER};
use aide_perf::suite::ResultsFile;
use aide_perf::workloads::WORKLOADS;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_aide-perf");

/// Where `all` writes: `perf/results.json` in the target directory the
/// program was built into.
fn results_file() -> std::path::PathBuf {
    let profile_dir = std::path::Path::new(EXE)
        .parent()
        .expect("a profile directory");
    let target_dir = profile_dir.parent().expect("a target directory");
    target_dir.join("perf").join("results.json")
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("test scratch directory");
    dir.join(name)
}

#[test]
fn smoke_run_of_every_workload_passes_its_oracle() {
    let out = results_file();
    let status = Command::new(EXE)
        .args(["all", "--smoke", "--trace", "--seed", "7"])
        .status()
        .expect("aide-perf starts");
    assert!(status.success(), "smoke run failed: {status}");

    let text = std::fs::read_to_string(&out).expect("results file written");
    let results: ResultsFile = serde_json::from_str(&text).expect("results parse");
    assert!(results.smoke);
    assert_eq!(results.runs.len(), 2 * WORKLOADS.len());
    for &(workload, _) in WORKLOADS {
        for trace in [false, true] {
            let run = results
                .runs
                .iter()
                .find(|r| r.workload == workload && r.trace == trace)
                .unwrap_or_else(|| panic!("{workload} trace={trace} missing"));
            assert!(run.result.correct, "{workload} trace={trace}");
            assert!(run.result.attempted >= 1);
            assert_eq!(run.result.failed, 0);
            let expected: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let mut expected: Vec<String> = expected.into_iter().map(str::to_owned).collect();
            expected.sort();
            let got: Vec<String> = run.result.metrics.keys().cloned().collect();
            assert_eq!(got, expected, "{workload} trace={trace}");
            if !trace {
                for (name, metric) in &run.result.metrics {
                    assert!(
                        metric.value.is_finite() && metric.value > 0.0,
                        "{workload} {name} = {}",
                        metric.value
                    );
                }
            }
        }
    }

    // A set of runs agrees with itself.
    let status = Command::new(EXE)
        .arg("compare")
        .args([&out, &out])
        .status()
        .expect("aide-perf starts");
    assert!(status.success());
}

#[test]
fn driver_form_prints_the_result_object_last() {
    let output = Command::new(EXE)
        .args([
            "--workload",
            "policy_sweep",
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--smoke"])
        .output()
        .expect("aide-perf starts");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.trim_end().lines().last().expect("some output");
    let value: serde_json::Value = serde_json::from_str(last).expect("last line is JSON");
    let mut keys: Vec<&String> = value.as_object().expect("an object").keys().collect();
    keys.sort();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(value["correct"], true);
    assert_eq!(value["metrics"]["setup_s"]["unit"], "s");
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "no_such_workload", "--seed", "1"][..],
        &["--seed", "1"][..],
        &["compare", "only-one.json"][..],
        &["all", "--workload", "local_mutator"][..],
        &["--workload", "local_mutator", "--seconds", "-1"][..],
        &[][..],
    ] {
        let output = Command::new(EXE).args(args).output().expect("starts");
        assert!(!output.status.success(), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn compare_flags_a_regression_and_exits_non_zero() {
    let base = scratch("compare-a.json");
    let worse = scratch("compare-b.json");
    let file = |pass_ms: f64| {
        let runs: Vec<serde_json::Value> = (0..5)
            .map(|i| {
                let jitter = 1.0 + f64::from(i) * 0.002;
                serde_json::json!({
                    "workload": "local_mutator", "seed": i, "trace": false,
                    "result": {"correct": true, "attempted": 1, "failed": 0, "metrics": {
                        "pass_ms": {"value": pass_ms * jitter, "unit": "ms"},
                        "peak_rss_mb": {"value": 20.0, "unit": "MB"},
                        "setup_s": {"value": 0.7, "unit": "s"},
                    }},
                })
            })
            .collect();
        serde_json::json!({"schema": 1, "nproc": 2, "seconds": 10.0, "first_seed": 0,
                           "smoke": false, "runs": runs})
        .to_string()
    };
    std::fs::write(&base, file(700.0)).unwrap();
    std::fs::write(&worse, file(900.0)).unwrap();
    let run = |a: &std::path::Path, b: &std::path::Path| {
        Command::new(EXE)
            .arg("compare")
            .args([a, b])
            .output()
            .expect("aide-perf starts")
    };
    let regressed = run(&base, &worse);
    assert!(!regressed.status.success());
    let table = String::from_utf8(regressed.stdout).unwrap();
    assert!(table.contains("regressed"), "{table}");
    // The other way round is an improvement.
    assert!(run(&worse, &base).status.success());
}
