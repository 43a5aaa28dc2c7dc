//! `aide-perf`: the host-time benchmark of the AIDE platform.
//!
//! The repository reproduces the paper's evaluation in *simulated* time,
//! bit-deterministically — which is exactly why those numbers cannot show
//! whether a code change made the platform faster. This program measures
//! *host* time instead, and keeps the simulated statistics as its
//! correctness oracle: they must repeat exactly, only wall time may move.
//!
//! ```text
//! aide-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! aide-perf all [--seed n] [--seconds s] [--runs k] [--trace] [--smoke]
//! aide-perf compare <a.json> <b.json>
//! ```
//!
//! See `README.md` next to this crate for the workloads, the metrics and
//! the layer ladder.

pub mod compare;
pub mod golden;
pub mod reference;
pub mod report;
pub mod rng;
pub mod span;
pub mod stats;
pub mod suite;
pub mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunArgs;

pub const USAGE: &str = "usage:
  aide-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--bless]
  aide-perf all [--seed <n>] [--seconds <s>] [--runs <k>] [--trace] [--smoke]
  aide-perf compare <a.json> <b.json>";

/// Where reports and span files go: `perf/` in the cargo target directory
/// this binary was built into.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    // <target>/<profile>/aide-perf
    exe.parent()
        .and_then(|profile| profile.parent())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perf")
}

/// Confines this process, and every thread it starts from here on, to one
/// CPU: the highest-numbered one it may run on. Returns that CPU.
///
/// The platform answers one remote call through half a dozen thread
/// hand-offs. On the 2-vCPU builder a hand-off to a thread on the *other*
/// vCPU costs an inter-processor interrupt through the hypervisor, which is
/// slower than the work it hands over (a rescue pass takes 4.4–5.6 s spread
/// over two vCPUs and 1.3 s on one) and varies with where the scheduler
/// happens to put each thread. On one CPU the benchmark measures the
/// program's own work and context switches, and repeats. The price: nothing
/// here runs in parallel, so no result says anything about parallel
/// speed-up.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // 1024 CPUs, glibc's cpu_set_t
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly the byte length passed; the
    // call only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Flags of the single-workload and `all` forms, shared.
pub struct Flags {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub trace: bool,
    pub smoke: bool,
    pub bless: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: 10.0,
        runs: 1,
        trace: false,
        smoke: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => flags.workload = Some(value("a workload name")?),
            "--seed" => {
                flags.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                flags.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(flags.seconds >= 0.0 && flags.seconds <= 600.0) {
                    return Err("--seconds must be between 0 and 600".to_owned());
                }
            }
            "--runs" => {
                flags.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&flags.runs) {
                    return Err("--runs must be between 1 and 100".to_owned());
                }
            }
            // `--trace` alone, or followed by 0 / 1 as the driver passes it.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                    flags.trace = false;
                }
                Some("1") => {
                    it.next();
                    flags.trace = true;
                }
                _ => flags.trace = true,
            },
            "--smoke" => flags.smoke = true,
            "--bless" => flags.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

/// Runs one workload in this process and prints its report; the last line
/// of output is the result object the driver reads.
fn run_one(flags: Flags) -> Result<ExitCode, String> {
    let args = RunArgs {
        workload: flags.workload.expect("checked by the caller"),
        seed: flags.seed,
        seconds: if flags.smoke { 0.0 } else { flags.seconds },
        trace: flags.trace,
        smoke: flags.smoke,
        bless: flags.bless,
        // Read before pinning: afterwards the process is allowed one CPU.
        nproc: suite::nproc(),
    };
    let cpu = pin_to_one_cpu();
    let finished = workloads::run(&args)?;
    println!(
        "workload {} seed {} ({} run, {:.0} s, nproc {}, pinned to {})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        args.seconds,
        args.nproc,
        cpu.map_or_else(|| "no CPU".to_owned(), |c| format!("CPU {c}")),
    );
    for note in &finished.notes {
        println!("  {note}");
    }
    // Only what this workload measured; the result line below carries every
    // metric of its kind, with 0 for the layers the workload does not cross.
    for (name, value) in finished.metrics.iter() {
        println!("  {name:<34} {value:>16.6} {}", report::unit_of(name));
    }
    let result = finished.metrics.into_result(&finished.tally, args.trace);
    println!(
        "  attempted_ops {} failed_ops {}",
        result.attempted, result.failed
    );
    for why in &finished.tally.failures {
        println!("  FAILED: {why}");
    }
    if args.trace {
        let dir = out_dir();
        let path = dir.join(format!("{}.trace.json", args.workload));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, finished.tracer.chrome_trace().to_string()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "  {} spans written to {}",
            finished.tracer.spans().len(),
            path.display()
        );
        for (name, seconds) in finished.tracer.self_seconds() {
            println!("  self time {name:<24} {seconds:>12.6} s");
        }
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs the command line `args` (without the program name).
pub fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("all") => suite::run_all(parse_flags(&args[1..])?),
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("compare takes exactly two result files".to_owned()),
        },
        Some(_) => {
            let flags = parse_flags(args)?;
            if flags.workload.is_none() {
                return Err("missing --workload".to_owned());
            }
            run_one(flags)
        }
        None => Err("no arguments".to_owned()),
    }
}
