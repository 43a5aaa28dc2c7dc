//! `all`: every workload, each in its own child process so that
//! `peak_rss_mb` is per workload, collected into one results file.

use crate::report::{RunResult, END_TO_END};
use crate::stats::quartiles;
use crate::workloads::WORKLOADS;
use crate::{out_dir, Flags};
use serde::{Deserialize, Serialize};
use std::process::{Command, ExitCode, Stdio};

/// Hardware threads available to this process; results that depend on
/// threads are only comparable at the same value.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One child run as stored in the results file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub result: RunResult,
}

/// What `all` writes and `compare` reads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultsFile {
    pub schema: u32,
    pub nproc: usize,
    pub seconds: f64,
    pub first_seed: u64,
    pub smoke: bool,
    pub runs: Vec<RunRecord>,
}

/// Runs one workload in a child process, echoing its report, and parses
/// the result object off its last line.
fn child(workload: &str, seed: u64, trace: bool, flags: &Flags) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if flags.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((report, last)) => (report, last),
        None => ("", stdout.trim_end()),
    };
    println!("{report}");
    serde_json::from_str(last)
        .map_err(|e| format!("{workload} ({}) printed no result: {e}", output.status))
}

pub fn run_all(flags: Flags) -> Result<ExitCode, String> {
    if flags.workload.is_some() || flags.bless {
        return Err("`all` takes no --workload and no --bless".to_owned());
    }
    let mut runs = Vec::new();
    for run in 0..flags.runs as u64 {
        let seed = flags.seed + run;
        for &(workload, _) in WORKLOADS {
            let traced = flags.trace && run == 0;
            for trace in [false, true].into_iter().filter(|t| !t || traced) {
                let result = child(workload, seed, trace, &flags)?;
                runs.push(RunRecord {
                    workload: workload.to_owned(),
                    seed,
                    trace,
                    result,
                });
            }
        }
    }

    println!(
        "\nend-to-end metrics (median [q1, q3] over {} run(s) per workload)",
        flags.runs
    );
    for &(workload, _) in WORKLOADS {
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == workload && !r.trace)
                .filter_map(|r| r.result.metrics.get(m.name).map(|v| v.value))
                .collect();
            let (q1, q2, q3) = quartiles(&values);
            println!(
                "  {workload:<18} {:<12} {q2:>14.4} [{q1:.4}, {q3:.4}] {}",
                m.name, m.unit
            );
        }
    }
    let attempted: u64 = runs.iter().map(|r| r.result.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.result.failed).sum();
    println!("attempted_ops {attempted} failed_ops {failed}");

    let file = ResultsFile {
        schema: 1,
        nproc: nproc(),
        seconds: flags.seconds,
        first_seed: flags.seed,
        smoke: flags.smoke,
        runs,
    };
    let path = out_dir().join("results.json");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&file).expect("results serialize");
    std::fs::write(&path, text + "\n").map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results written to {}", path.display());

    let all_correct = file.runs.iter().all(|r| r.result.correct);
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
