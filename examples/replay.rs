//! Record, replay, and sweep decision-pipeline traces.
//!
//! ```sh
//! # Record a javanote run (optionally under seeded chaos) to a trace:
//! cargo run --release --example replay -- record --app javanote --seed 7 --out target/replay/javanote.trace.jsonl
//!
//! # Strictly replay it — exits non-zero on the first divergence:
//! cargo run --release --example replay -- replay target/replay/javanote.trace.jsonl
//!
//! # What-if sweep: re-decide the recorded run under 4 policy variants
//! # in parallel and emit BENCH_replay.json:
//! cargo run --release --example replay -- sweep target/replay/javanote.trace.jsonl --out BENCH_replay.json
//! ```

use std::process::exit;
use std::time::Duration;

use aide::apps::{biomer, dia, javanote, tracer, voxel, Scale};
use aide::core::{Platform, PlatformConfig};
use aide::emu::{default_variants, load, record_platform_run, replay, save, sweep, ReplayEvent};
use aide::rpc::ChaosSchedule;
use aide::telemetry::render_timeline;

fn usage() -> ! {
    eprintln!("usage: replay record [--app NAME] [--heap BYTES] [--seed N] [--out PATH]");
    eprintln!("       replay replay PATH");
    eprintln!("       replay sweep PATH [--out PATH]");
    eprintln!();
    eprintln!("apps: javanote (default), dia, tracer, voxel, biomer");
    exit(2)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| args.get(i + 1).unwrap_or_else(|| usage()).clone())
}

fn hostile_lossless(seed: u64) -> ChaosSchedule {
    let mut s = ChaosSchedule::seeded(seed);
    s.delay = 0.10;
    s.max_delay = Duration::from_millis(2);
    s.duplicate = 0.08;
    s.reorder = 0.08;
    s
}

fn record(args: &[String]) {
    let app = flag(args, "--app").unwrap_or_else(|| "javanote".into());
    let heap: u64 = flag(args, "--heap")
        .map(|h| h.parse().unwrap_or_else(|_| usage()))
        .unwrap_or(3 << 20);
    let out = flag(args, "--out").unwrap_or_else(|| format!("target/replay/{app}.trace.jsonl"));

    let program = match app.as_str() {
        "javanote" => javanote(Scale(0.5)).program,
        "dia" => dia(Scale(0.5)).program,
        "tracer" => tracer(Scale(0.5)).program,
        "voxel" => voxel(Scale(0.5)).program,
        "biomer" => biomer(Scale(0.5)).program,
        other => {
            eprintln!("unknown app '{other}'");
            usage()
        }
    };

    let mut cfg = PlatformConfig::prototype(heap);
    if let Some(seed) = flag(args, "--seed") {
        let seed: u64 = seed.parse().unwrap_or_else(|_| usage());
        cfg.chaos = Some(hostile_lossless(seed));
        println!("chaos: lossless-hostile schedule, seed {seed}");
    }

    let (report, trace) = record_platform_run(Platform::new(program, cfg), &app);
    match &report.outcome {
        Ok(_) => println!("run completed; {} offloads", report.offloads.len()),
        Err(e) => println!("run ended with {e} (trace still recorded)"),
    }
    let (mut gc, mut trigger, mut migration, mut link_down) = (0, 0, 0, 0);
    for input in &trace.inputs {
        match input {
            ReplayEvent::Gc { .. } => gc += 1,
            ReplayEvent::Trigger { .. } => trigger += 1,
            ReplayEvent::Migration { .. } => migration += 1,
            ReplayEvent::LinkDown { .. } => link_down += 1,
        }
    }
    println!(
        "captured {} inputs ({gc} Gc, {trigger} Trigger, {migration} Migration, \
         {link_down} LinkDown), {} baseline timeline events",
        trace.inputs.len(),
        trace.baseline.len()
    );
    if let Err(e) = save(&trace, &out) {
        eprintln!("failed to write {out}: {e}");
        exit(1);
    }
    println!("trace written to {out}");
    println!("replay with: cargo run --release --example replay -- replay {out}");
}

fn replay_cmd(path: &str) {
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to load {path}: {e}");
            exit(1);
        }
    };
    println!(
        "trace: app '{}', {} inputs, {} baseline events",
        trace.header.app,
        trace.inputs.len(),
        trace.baseline.len()
    );
    match replay(&trace, None) {
        Ok(outcome) => {
            assert_eq!(outcome.timeline, trace.baseline);
            println!(
                "replay OK: {} inputs consumed, timeline bit-identical ({} events)",
                outcome.events_consumed,
                outcome.timeline.len()
            );
            print!("{}", render_timeline(&outcome.timeline));
        }
        Err(e) => {
            eprintln!("{e}");
            exit(1);
        }
    }
}

fn sweep_cmd(path: &str, args: &[String]) {
    let out = flag(args, "--out").unwrap_or_else(|| "BENCH_replay.json".into());
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to load {path}: {e}");
            exit(1);
        }
    };
    let variants = default_variants(&trace);
    println!(
        "sweeping '{}' under {} variants in parallel...",
        trace.header.app,
        variants.len()
    );
    let report = match sweep(&trace, &variants) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            exit(1);
        }
    };
    println!(
        "baseline: {} epochs, {} offloads, {} B offloaded",
        report.baseline.epochs, report.baseline.offloads, report.baseline.offloaded_bytes
    );
    for v in &report.variants {
        println!(
            "  {:<20} offloads {:>2}  declines {:>2}  {:>9} B  agree {:>5.1}%  win {:>5.1}%  regret {} B",
            v.name,
            v.offloads,
            v.declines,
            v.offloaded_bytes,
            v.agreement_with_baseline * 100.0,
            v.win_fraction * 100.0,
            v.regret_bytes
        );
    }
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {e}");
        exit(1);
    }
    println!("report written to {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => record(&args[1..]),
        Some("replay") => match args.get(1) {
            Some(path) if !path.starts_with("--") => replay_cmd(path),
            _ => usage(),
        },
        Some("sweep") => match args.get(1) {
            Some(path) if !path.starts_with("--") => sweep_cmd(path, &args[2..]),
            _ => usage(),
        },
        _ => usage(),
    }
}
