//! `compare <a.json> <b.json>`: did `b` get worse than `a`?
//!
//! One row per (workload, end-to-end metric) with both medians and
//! quartiles, the metric's bound, and a verdict:
//!
//! - `regressed` — `b`'s median is worse than `a`'s by more than the bound;
//! - `unresolved` — the run-to-run spread of either side (interquartile
//!   range over median) is wider than the bound, so a difference of the
//!   bound's size cannot be told from noise — unless every run of `b`
//!   reads better than every run of `a`, which is `ok`;
//! - `ok` — otherwise.
//!
//! Every ratio is printed with its base (`a`'s median).

use crate::report::{EndToEnd, END_TO_END};
use crate::stats::{quartiles, relative_spread};
use crate::suite::ResultsFile;
use crate::workloads::WORKLOADS;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s median
/// (negative when `b` is better).
pub fn worsening(metric: &EndToEnd, a_median: f64, b_median: f64) -> f64 {
    let change = (b_median - a_median) / a_median.abs();
    if metric.better == "lower" {
        change
    } else {
        -change
    }
}

pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (_, a_median, _) = quartiles(a);
    let (_, b_median, _) = quartiles(b);
    let worse = worsening(metric, a_median, b_median);
    let noisy = relative_spread(a) > metric.bound || relative_spread(b) > metric.bound;
    if noisy {
        let every_b_better = b.iter().all(|&vb| {
            a.iter().all(|&va| {
                if metric.better == "lower" {
                    vb < va
                } else {
                    vb > va
                }
            })
        });
        if every_b_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<ResultsFile, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

fn values(file: &ResultsFile, workload: &str, metric: &str) -> Vec<f64> {
    file.runs
        .iter()
        .filter(|r| r.workload == workload && !r.trace)
        .filter_map(|r| r.result.metrics.get(metric).map(|m| m.value))
        .collect()
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "a = {} ({} runs, nproc {}, {} s)   b = {} ({} runs, nproc {}, {} s)",
        a_path.display(),
        a.runs.len(),
        a.nproc,
        a.seconds,
        b_path.display(),
        b.runs.len(),
        b.nproc,
        b.seconds
    );
    if a.nproc != b.nproc || a.seconds != b.seconds || a.smoke != b.smoke {
        println!("warning: the two sets were not measured under the same settings");
    }
    println!(
        "{:<18} {:<12} {:>12} {:>24} {:>12} {:>24} {:>9} {:>6}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b vs a", "bound"
    );
    let mut regressed = 0;
    let mut unresolved = 0;
    for &(workload, _) in WORKLOADS {
        for metric in END_TO_END {
            let (va, vb) = (
                values(&a, workload, metric.name),
                values(&b, workload, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<18} {:<12} missing from one side", metric.name);
                unresolved += 1;
                continue;
            }
            let (a1, a2, a3) = quartiles(&va);
            let (b1, b2, b3) = quartiles(&vb);
            let v = verdict(metric, &va, &vb);
            match v {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{workload:<18} {:<12} {a2:>12.4} {:>24} {b2:>12.4} {:>24} {:>+8.2}% {:>5.0}%  {}",
                metric.name,
                format!("[{a1:.4}, {a3:.4}]"),
                format!("[{b1:.4}, {b3:.4}]"),
                100.0 * (b2 - a2) / a2.abs(),
                100.0 * metric.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!(
        "`b vs a` is (b median - a median) / a median; a positive value is worse for metrics \
         where lower is better (and vice versa where higher is better) — \
         {regressed} regressed, {unresolved} unresolved"
    );
    Ok(if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "pass_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "rate",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    };

    #[test]
    fn steady_sets_within_the_bound_are_ok() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(verdict(&LOWER, &a, &b), Verdict::Ok);
        assert_eq!(verdict(&HIGHER, &a, &b), Verdict::Ok);
    }

    #[test]
    fn a_steady_worsening_beyond_the_bound_regresses_in_the_right_direction() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        // (the test metrics carry a 10 % bound whatever the registry's are)
        assert_eq!(verdict(&LOWER, &a, &slower), Verdict::Regressed);
        // The same numbers are an improvement where higher is better.
        assert_eq!(verdict(&HIGHER, &a, &slower), Verdict::Ok);
        assert_eq!(verdict(&HIGHER, &slower, &a), Verdict::Regressed);
        assert!((worsening(&LOWER, 100.0, 115.0) - 0.15).abs() < 1e-12);
        assert!((worsening(&HIGHER, 100.0, 115.0) + 0.15).abs() < 1e-12);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 130.0, 80.0, 120.0, 90.0];
        let similar = [105.0, 125.0, 85.0, 115.0, 95.0];
        assert_eq!(verdict(&LOWER, &noisy, &similar), Verdict::Unresolved);
        let clearly_better = [50.0, 60.0, 40.0, 55.0, 45.0];
        assert_eq!(verdict(&LOWER, &noisy, &clearly_better), Verdict::Ok);
        assert_eq!(
            verdict(&HIGHER, &noisy, &clearly_better),
            Verdict::Unresolved
        );
    }

    #[test]
    fn single_runs_compare_by_their_values() {
        assert_eq!(verdict(&LOWER, &[100.0], &[109.0]), Verdict::Ok);
        assert_eq!(verdict(&LOWER, &[100.0], &[111.0]), Verdict::Regressed);
    }
}
