//! `BENCHMARK.json` is the driver's copy of the benchmark's definition; the
//! program's own copy lives in `report.rs` and `workloads/mod.rs`. These
//! tests hold the two together and check the driver's schema limits.

use aide_perf::report::{END_TO_END, PER_LAYER};
use aide_perf::workloads::WORKLOADS;
use serde_json::{json, Value};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_repeats_the_programs_definitions() {
    let file = benchmark_json();
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|&(name, why)| json!({"name": name, "why": why}))
        .collect();
    assert_eq!(file["workloads"], Value::Array(workloads));
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}))
        .collect();
    assert_eq!(file["end_to_end"], Value::Array(end_to_end));
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| json!({"name": name, "unit": unit, "better": better}))
        .collect();
    assert_eq!(file["per_layer"], Value::Array(per_layer));
}

#[test]
fn benchmark_json_is_within_the_drivers_limits() {
    let file = benchmark_json();
    let keys: Vec<&String> = file.as_object().expect("an object").keys().collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        sorted,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(file["paths"], json!(["aide-perf"]));
    let command = file["command"].as_array().expect("command is a list");
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().expect("command parts are strings");
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert!(command.iter().any(|p| p == "--offline"));
    let seconds = file["run_seconds"].as_u64().expect("whole seconds");
    assert!((1..=60).contains(&seconds));

    assert!((2..=8).contains(&WORKLOADS.len()));
    for &(name, why) in WORKLOADS {
        assert!(name_ok(name), "{name}");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: {} chars",
            why.len()
        );
    }
    assert!((1..=16).contains(&END_TO_END.len()));
    for m in END_TO_END {
        assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.better == "lower" || m.better == "higher");
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    assert!((1..=128).contains(&PER_LAYER.len()));
    for &(name, unit, better) in PER_LAYER {
        assert!(name_ok(name) && unit_ok(unit), "{name} [{unit}]");
        assert!(better == "lower" || better == "higher");
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    // The driver's budget: 4 + 22 runs per workload, with their set-up and
    // two builds, in 3420 s. Measured on the 2-core builder a run spends on
    // average 9 s outside its timed window (three set-up repetitions, the
    // pass that overruns the window, cargo's freshness check) and a build
    // takes under two minutes.
    let runs = 4 + 22 * WORKLOADS.len() as u64;
    assert!(
        runs * (seconds + 9) + 2 * 120 <= 3420,
        "{runs} runs of {seconds} s"
    );
}
