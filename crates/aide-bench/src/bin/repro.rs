//! `repro` — regenerates every table and figure of the paper's evaluation
//! on stdout, in the order of `experiments_output.txt`. With no argument it
//! prints everything; section names (`aide_bench::SECTIONS`) select:
//!
//! ```sh
//! cargo run --release -p aide-bench --bin repro | diff - experiments_output.txt
//! cargo run --release -p aide-bench --bin repro -- fig6_overhead fig7_policy_sweep
//! ```
//!
//! A run that includes `exp_memory_avoidance` also leaves §5.1's execution
//! graphs, Figure 5, as DOT files under `target/experiments/`.

use std::process::ExitCode;

use aide_bench::{Workloads, SECTIONS};
use aide_graph::to_dot;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let workloads = Workloads::paper();
    if let Err(e) = aide_bench::run(&workloads, &names, &mut std::io::stdout().lock()) {
        let known: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!("repro: {e}\nsections: {}", known.join(" "));
        return ExitCode::from(2);
    }
    if let Some(report) = workloads.rescue_if_run() {
        let event = &report.offloads[0];
        let dir = std::path::Path::new("target/experiments");
        std::fs::create_dir_all(dir).expect("create target/experiments");
        let fig5a = to_dot(&event.graph, None);
        let fig5b = to_dot(&event.graph, Some(&event.partitioning));
        std::fs::write(dir.join("fig5a.dot"), fig5a).expect("write fig5a");
        std::fs::write(dir.join("fig5b.dot"), fig5b).expect("write fig5b");
        eprintln!("Figure 5 graphs: target/experiments/fig5a.dot, fig5b.dot");
    }
    ExitCode::SUCCESS
}
