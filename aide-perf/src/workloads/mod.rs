//! The four workloads and the skeleton they share: repeated set-up, a
//! closed loop of whole passes, and the split into an untraced run
//! (end-to-end metrics) and a traced run (per-layer metrics).

pub mod fleet_serving;
pub mod local_mutator;
pub mod memory_rescue;
pub mod policy_sweep;

use crate::reference::Reference;
use crate::report::{peak_rss_mb, Metrics, Tally};
use crate::span::Tracer;
use crate::stats::{max, median, min};

/// `(name, why)` of every workload, in the order `all` runs them.
/// `BENCHMARK.json` repeats the reasons for the driver.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "local_mutator",
        "five Table-1 apps on a 64 MB heap with monitoring attached: VM and monitor do the work, nothing offloads, RPC and migration are bypassed; pass_ms is the inverse of the issue's local_mops_per_s",
    ),
    (
        "memory_rescue_tcp",
        "Dia on the paper's 6 MB heap over a loopback TCP mux: pressure, MINCUT, two-phase migration, then ~24k remote calls; RPC and adapter dominate; pass_ms is the issue's rescue_pass_wall_s for one app",
    ),
    (
        "fleet_serving",
        "min(nproc, 2) closed-loop clients run short provider-backed sessions on one sharded daemon: admission, small migration, remote reads and writes, teardown; batch pass_ms inverts fleet_sessions_per_s",
    ),
    (
        "policy_sweep",
        "18-point heuristic x policy x heap grid of partitioning decisions on the three memory apps' graphs: partitioner and graph only; replaces emu_policy_sweep, whose crate aide-emu does not compile",
    ),
];

/// What the command line asked of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: f64,
    /// Per-layer run (spans on, ladder rungs) instead of the end-to-end run.
    pub trace: bool,
    /// Tiny inputs and single repetitions, for the test suite.
    pub smoke: bool,
    /// Rewrite the golden statistics instead of checking against them.
    pub bless: bool,
    /// CPUs the process could use when it started: the number of
    /// `fleet_serving`'s closed-loop clients.
    pub nproc: usize,
}

impl RunArgs {
    /// Set-up repetitions, the median of which is reported as `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.smoke || self.trace {
            1
        } else {
            3
        }
    }

    /// Whole passes a run measures at the least, however short `seconds` is.
    pub fn min_passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// Runs `setup` `reps` times, timing each; `teardown` disposes of every
/// state but the last, outside the timed interval. Every repetition checks
/// the same things, so only the last one's tally is kept. Returns the last
/// state, when each set-up began and ended on the reference's clock, and
/// that tally.
pub fn repeat_setup<S>(
    reps: usize,
    reference: &Reference,
    mut setup: impl FnMut(&mut Tally) -> S,
    mut teardown: impl FnMut(S),
) -> (S, Vec<(f64, f64)>, Tally) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        if let Some((previous, _)) = last.take() {
            teardown(previous);
        }
        let mut tally = Tally::default();
        let start = reference.now();
        let state = setup(&mut tally);
        times.push((start, reference.now()));
        last = Some((state, tally));
    }
    let (state, tally) = last.expect("at least one repetition");
    (state, times, tally)
}

/// The closed loop's raw measurements.
#[derive(Debug, Default)]
pub struct Measured {
    /// Wall milliseconds of each pass.
    pub pass_ms: Vec<f64>,
    /// When each pass began and ended, in seconds on the reference's clock.
    pub pass_span: Vec<(f64, f64)>,
    /// Units of work each pass completed (the workload defines the unit).
    pub pass_work: Vec<f64>,
    /// Wall seconds from the first pass's start to the last pass's end.
    pub wall_s: f64,
    /// Peak resident set of the process once set-up and the first
    /// `min_passes` passes were done. Resident memory creeps up with every
    /// further pass, so reading it at the end of the timed window would tie
    /// it to how many passes the window happened to hold.
    pub peak_rss_mb: f64,
}

impl Measured {
    /// `(milliseconds, work per second)` of the run's typical pass on the
    /// undisturbed machine: each pass's wall time is divided by the
    /// reference's slowdown while it ran, and the medians over the passes
    /// of that time and of the rate at it are returned.
    pub fn typical(&self, reference: &Reference) -> (f64, f64) {
        self.typical_at(&reference.slowdowns(&self.pass_span))
    }

    fn typical_at(&self, slowdowns: &[f64]) -> (f64, f64) {
        let ms: Vec<f64> = self
            .pass_ms
            .iter()
            .zip(slowdowns)
            .map(|(ms, slowdown)| ms / slowdown)
            .collect();
        let rates: Vec<f64> = ms
            .iter()
            .zip(&self.pass_work)
            .map(|(ms, work)| work / (ms / 1e3))
            .collect();
        (median(&ms), median(&rates))
    }

    /// `(milliseconds, work)` of a pass at the run's best in raw wall time:
    /// the mean over the fastest quarter of its passes. The ladders compare
    /// this with the fastest repetition of each rung: rungs run one after
    /// the other, interference only ever adds time, and a difference of two
    /// rungs means something only between their undisturbed times.
    pub fn fastest(&self) -> (f64, f64) {
        let mut passes: Vec<(f64, f64)> = self
            .pass_ms
            .iter()
            .copied()
            .zip(self.pass_work.iter().copied())
            .collect();
        if passes.is_empty() {
            return (f64::NAN, f64::NAN);
        }
        passes.sort_by(|a, b| a.0.total_cmp(&b.0));
        passes.truncate((passes.len() / 4).max(1));
        let n = passes.len() as f64;
        (
            passes.iter().map(|p| p.0).sum::<f64>() / n,
            passes.iter().map(|p| p.1).sum::<f64>() / n,
        )
    }

    /// One line for the human-readable report: how many passes, how far
    /// apart the fastest and the slowest were, and the rate over the whole
    /// window.
    pub fn summary(&self, reference: &Reference) -> String {
        let (q1, q2, q3) = crate::stats::quartiles(&self.pass_ms);
        let slowdowns = reference.slowdowns(&self.pass_span);
        format!(
            "passes measured: {} in {:.1} s (raw ms: min {:.1}, q1 {q1:.1}, median {q2:.1}, q3 {q3:.1}, max {:.1}; reference slowdown: median {:.3}, max {:.3}); {:.3} work units/s over the window",
            self.pass_ms.len(),
            self.wall_s,
            min(&self.pass_ms),
            max(&self.pass_ms),
            median(&slowdowns),
            max(&slowdowns),
            self.pass_work.iter().sum::<f64>() / self.wall_s,
        )
    }
}

/// Repeats whole passes, back to back, until `seconds` have elapsed and at
/// least `min_passes` have run. `pass` returns the work it completed.
pub fn measure(
    seconds: f64,
    min_passes: usize,
    reference: &Reference,
    mut pass: impl FnMut(u32) -> f64,
) -> Measured {
    let min_passes = min_passes.max(1);
    let mut m = Measured::default();
    let start = reference.now();
    let mut pass_start = start;
    while m.pass_ms.len() < min_passes || pass_start - start < seconds {
        m.pass_work.push(pass(m.pass_ms.len() as u32));
        let pass_end = reference.now();
        m.pass_ms.push((pass_end - pass_start) * 1e3);
        m.pass_span.push((pass_start, pass_end));
        pass_start = pass_end;
        if m.pass_ms.len() == min_passes {
            m.peak_rss_mb = peak_rss_mb();
        }
    }
    m.wall_s = pass_start - start;
    m
}

/// Runs the measuring windows of one run. `window(seconds, tracer)` measures
/// for that long. An end-to-end run is one untraced window of the whole
/// length. A traced run is a quarter-length window with the spans off, then
/// one with them on; it returns the traced window first and the untraced
/// one, for the tracing overhead, second.
pub fn windows(
    args: &RunArgs,
    tracer: &mut Tracer,
    mut window: impl FnMut(f64, &mut Tracer) -> Measured,
) -> (Measured, Option<Measured>) {
    if !args.trace {
        return (window(args.seconds, tracer), None);
    }
    let share = args.seconds / 4.0;
    let untraced = window(share, tracer);
    tracer.set_enabled(true);
    (window(share, tracer), Some(untraced))
}

/// Fills in the end-to-end metrics from a run's measurements: the time of
/// its typical pass and of its typical set-up, both on the undisturbed
/// machine, and memory.
pub fn end_to_end(
    metrics: &mut Metrics,
    reference: &Reference,
    setups: &[(f64, f64)],
    measured: &Measured,
) {
    let setup_s: Vec<f64> = setups
        .iter()
        .zip(reference.slowdowns(setups))
        .map(|((from, to), slowdown)| (to - from) / slowdown)
        .collect();
    metrics.set("setup_s", median(&setup_s));
    metrics.set("pass_ms", measured.typical(reference).0);
    metrics.set("peak_rss_mb", measured.peak_rss_mb);
}

/// Sets the two harness rungs, and the workload's own work rate under
/// `rate_name`, from an untraced and a traced measurement of the same
/// passes. The rate is the untraced window's.
pub fn trace_overhead(
    metrics: &mut Metrics,
    rate_name: &'static str,
    reference: &Reference,
    untraced: &Measured,
    traced: &Measured,
    tracer: &Tracer,
) {
    let ((u, rate), t) = (untraced.typical(reference), traced.typical(reference).0);
    metrics.set(rate_name, rate);
    metrics.set("trace.overhead_pct", 100.0 * (t - u) / u);
    metrics.set("trace.unattributed_pct", tracer.unattributed_pct());
}

/// Output of one workload run: the metrics it measured, the oracle's tally,
/// and what the human-readable report and the span file need.
pub struct Finished {
    pub metrics: Metrics,
    pub tally: Tally,
    pub tracer: Tracer,
    /// Free-form `label: text` lines (sample counts, the work unit, …).
    pub notes: Vec<String>,
}

/// Runs the workload `args` names. Call it with the process already pinned:
/// the reference's sampler must share the workload's CPU.
pub fn run(args: &RunArgs) -> Result<Finished, String> {
    let run: fn(&RunArgs, &Reference) -> Finished = match args.workload.as_str() {
        "local_mutator" => local_mutator::run,
        "memory_rescue_tcp" => memory_rescue::run,
        "fleet_serving" => fleet_serving::run,
        "policy_sweep" => policy_sweep::run,
        other => {
            return Err(format!(
                "unknown workload `{other}`; expected one of: {}",
                WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
            ))
        }
    };
    Ok(run(args, &Reference::start()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_timed_per_repetition_and_only_the_last_state_survives() {
        let mut built = 0;
        let mut torn_down = Vec::new();
        let (state, times, tally) = repeat_setup(
            3,
            &Reference::start(),
            |tally| {
                built += 1;
                tally.record((built == 2).then(|| "second only".to_owned()));
                built
            },
            |s| torn_down.push(s),
        );
        assert_eq!(state, 3);
        assert_eq!(torn_down, vec![1, 2]);
        assert_eq!(times.len(), 3);
        assert!(times.iter().all(|(from, to)| to >= from));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
    }

    #[test]
    fn the_loop_runs_whole_passes_to_both_limits() {
        let reference = Reference::start();
        let m = measure(0.0, 3, &reference, |i| f64::from(i + 1));
        assert_eq!((m.pass_ms.len(), m.pass_span.len()), (3, 3));
        assert_eq!(m.pass_work, [1.0, 2.0, 3.0]);
        assert!(m.peak_rss_mb > 0.0);
        let m = measure(0.02, 1, &reference, |_| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            1.0
        });
        assert!(m.pass_ms.len() >= 2 && m.wall_s >= 0.02, "{m:?}");
        assert!(m.wall_s * 1e3 >= m.pass_ms.iter().sum::<f64>() * 0.99);
    }

    #[test]
    fn a_traced_run_measures_an_untraced_quarter_then_a_traced_one() {
        let mut args = RunArgs {
            workload: String::new(),
            seed: 0,
            seconds: 8.0,
            trace: false,
            smoke: true,
            bless: false,
            nproc: 1,
        };
        let mut seen = Vec::new();
        let mut window = |seconds: f64, tracer: &mut Tracer| {
            seen.push((seconds, tracer.span("probe", |t| t.spans().len())));
            Measured::default()
        };
        let (_, untraced) = windows(&args, &mut Tracer::new(false), &mut window);
        assert!(untraced.is_none());
        args.trace = true;
        let (_, untraced) = windows(&args, &mut Tracer::new(false), &mut window);
        assert!(untraced.is_some());
        // (window length, spans recorded while inside a span)
        assert_eq!(seen, [(8.0, 0), (2.0, 0), (2.0, 1)]);
    }

    #[test]
    fn the_typical_pass_is_the_median_of_the_corrected_ones() {
        let m = Measured {
            pass_ms: vec![30.0, 10.0, 36.0],
            pass_work: vec![3.0, 5.0, 6.0],
            ..Measured::default()
        };
        // Corrected: 20, 10 and 30 ms, at 150, 500 and 200 units a second.
        let (ms, rate) = m.typical_at(&[1.5, 1.0, 1.2]);
        assert!((ms - 20.0).abs() < 1e-9 && (rate - 200.0).abs() < 1e-9);
        assert!(Measured::default().typical_at(&[]).0.is_nan());
    }

    #[test]
    fn the_fastest_pass_brings_its_own_work() {
        let m = Measured {
            pass_ms: vec![30.0, 10.0, 20.0],
            pass_work: vec![3.0, 5.0, 4.0],
            ..Measured::default()
        };
        // Fewer than eight passes: the single fastest.
        assert_eq!(m.fastest(), (10.0, 5.0));
        // Eight passes: the mean of the fastest two.
        let eight = Measured {
            pass_ms: vec![9.0, 3.0, 8.0, 5.0, 7.0, 6.0, 4.0, 10.0],
            pass_work: vec![1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 4.0, 1.0],
            ..Measured::default()
        };
        assert_eq!(eight.fastest(), (3.5, 3.0));
        assert!(Measured::default().fastest().0.is_nan());
    }
}
