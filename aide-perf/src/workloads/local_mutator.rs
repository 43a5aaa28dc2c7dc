//! `local_mutator`: the five Table-1 applications at full scale on a 64 MB
//! heap with monitoring attached.
//!
//! The heap is never pressured, so nothing offloads (asserted): `aide-vm`
//! and `aide-core::monitor` do nearly all the work while `aide-rpc`, the
//! partitioner and migration do none. This is the paper's "monitoring tax"
//! scenario (§5.1) in host time. One pass runs each application once through
//! `Platform::run`; the seed sets the order of the applications in a pass.
//! The unit of work is 10⁶ logical VM operations.

use super::{
    end_to_end, measure, repeat_setup, trace_overhead, windows, Finished, Measured, RunArgs,
};
use crate::golden::{mismatch, Golden, LocalStats};
use crate::reference::Reference;
use crate::report::{Metrics, Tally};
use crate::rng::XorShift64;
use crate::span::Tracer;
use crate::stats::min;
use aide_apps::{all_apps, App, Scale};
use aide_core::{Monitor, Platform, PlatformConfig, PlatformReport, TriggerConfig};
use aide_vm::{
    ClassId, Interaction, InteractionKind, Machine, NullHooks, RunSummary, RuntimeHooks, VmConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const HEAP: u64 = 64 << 20;

pub fn scale(args: &RunArgs) -> Scale {
    Scale(if args.smoke { 0.05 } else { 1.0 })
}

/// The catalogue in this seed's order.
fn build(args: &RunArgs) -> Vec<App> {
    let mut apps = all_apps(scale(args));
    XorShift64::new(args.seed).shuffle(&mut apps);
    apps
}

pub fn run_unconstrained(app: &App) -> PlatformReport {
    Platform::new(app.program.clone(), PlatformConfig::prototype(HEAP)).run()
}

/// The oracle for one application run: it completed, nothing offloaded, and
/// its simulated statistics equal `expected` (when there is an expectation).
fn verdict(
    app: &App,
    report: &PlatformReport,
    expected: Option<&LocalStats>,
) -> (Option<LocalStats>, Option<String>) {
    let summary = match &report.outcome {
        Ok(summary) => summary,
        Err(e) => return (None, Some(format!("{}: run failed: {e}", app.name))),
    };
    let stats = LocalStats {
        ops: summary.ops_executed,
        gc_cycles: report.client_gc_cycles,
        monitor_events: report.metrics.interaction_events,
        virtual_seconds: report.total_seconds(),
    };
    let problem = if report.offloads.is_empty() {
        expected.and_then(|e| mismatch(app.name, Some(e), &stats))
    } else {
        Some(format!("{}: offloaded on an unpressured heap", app.name))
    };
    (Some(stats), problem)
}

struct State {
    apps: Vec<App>,
    /// Statistics every measured run of an application must reproduce: what
    /// the warm-up saw (itself checked against the committed golden values
    /// at full scale).
    expected: BTreeMap<&'static str, LocalStats>,
}

/// Builds the applications and runs the warm-up pass, which fills the
/// allocator and fixes the statistics the measured passes are held to.
fn setup(args: &RunArgs, tally: &mut Tally) -> State {
    let apps = build(args);
    let golden = Golden::committed().local_mutator;
    let check_golden = !args.smoke && !args.bless;
    let mut expected = BTreeMap::new();
    for app in &apps {
        let report = run_unconstrained(app);
        let (stats, mut problem) = verdict(app, &report, None);
        if let (Some(stats), None, true) = (&stats, &problem, check_golden) {
            problem = mismatch(app.name, golden.get(app.name), stats);
        }
        tally.record(problem);
        if let Some(stats) = stats {
            expected.insert(app.name, stats);
        }
    }
    if args.bless && !args.smoke {
        let blessed = expected
            .iter()
            .map(|(name, stats)| ((*name).to_owned(), stats.clone()))
            .collect();
        Golden::bless(|g| g.local_mutator = blessed).expect("write golden/sim_stats.json");
    }
    State { apps, expected }
}

/// One pass: every application once. Returns 10⁶ logical ops executed.
fn pass(state: &State, tally: &mut Tally, tracer: &mut Tracer) -> f64 {
    tracer.span("pass", |tracer| {
        let mut ops = 0u64;
        for app in &state.apps {
            let report = tracer.span("platform.run", |_| run_unconstrained(app));
            let (stats, problem) = verdict(app, &report, state.expected.get(app.name));
            ops += stats.map_or(0, |s| s.ops);
            tally.record(problem);
        }
        ops as f64 / 1e6
    })
}

pub fn run(args: &RunArgs, reference: &Reference) -> Finished {
    let mut tracer = Tracer::new(false);
    let mut metrics = Metrics::default();
    let mut notes =
        vec!["work unit: 10^6 logical VM operations (RunSummary::ops_executed)".to_owned()];

    let (state, setups, mut tally) = repeat_setup(
        args.setup_reps(),
        reference,
        |tally| setup(args, tally),
        drop,
    );
    let (measured, untraced) = windows(args, &mut tracer, |seconds, tracer| {
        measure(seconds, args.min_passes(), reference, |i| {
            tracer.set_pass(i);
            pass(&state, &mut tally, tracer)
        })
    });
    match untraced {
        Some(untraced) => {
            trace_overhead(
                &mut metrics,
                "local.mops_per_s",
                reference,
                &untraced,
                &measured,
                &tracer,
            );
            ladder(
                args,
                &state,
                &measured,
                &mut metrics,
                &mut tally,
                &mut tracer,
            );
        }
        None => {
            notes.push(measured.summary(reference));
            end_to_end(&mut metrics, reference, &setups, &measured);
        }
    }

    Finished {
        metrics,
        tally,
        tracer,
        notes,
    }
}

/// What one bare-machine run leaves behind.
struct BareRun<H> {
    summary: RunSummary,
    hooks: Arc<H>,
    /// Inline-cache `(hits, misses)`.
    ic: (u64, u64),
}

/// Runs every application on a bare `Machine` with the hooks `make` builds
/// for it; returns the wall seconds of the whole sweep and each run.
fn bare_runs<H: RuntimeHooks + 'static>(
    apps: &[App],
    tally: &mut Tally,
    make: impl Fn(&App) -> Arc<H>,
) -> (f64, Vec<BareRun<H>>) {
    let mut runs = Vec::new();
    let start = Instant::now();
    for app in apps {
        let hooks = make(app);
        let machine =
            Machine::with_hooks(app.program.clone(), VmConfig::client(HEAP), hooks.clone());
        match machine.run_entry() {
            Ok(summary) => {
                let ic = machine.vm().lock().ic_stats();
                tally.record(None);
                runs.push(BareRun { summary, hooks, ic });
            }
            Err(e) => tally.record(Some(format!("{}: bare run failed: {e}", app.name))),
        }
    }
    (start.elapsed().as_secs_f64(), runs)
}

/// Nanoseconds per `Monitor::on_interaction` called directly, without the
/// interpreter: a seeded stream of invocations and field accesses between
/// the classes of `app`, local and at class granularity as in the passes.
fn on_interaction_ns(app: &App, seed: u64, calls: u32) -> f64 {
    let classes = app.program.classes().len() as u64;
    let mut rng = XorShift64::new(seed);
    let mut class = || ClassId(rng.below(classes) as u32);
    let events: Vec<Interaction> = (0..4096)
        .map(|i| Interaction {
            caller: class(),
            callee: class(),
            target: None,
            kind: if i % 2 == 0 {
                InteractionKind::Invocation
            } else {
                InteractionKind::FieldAccess
            },
            bytes: 64,
            remote: false,
        })
        .collect();
    let monitor = Monitor::new(
        app.program.clone(),
        TriggerConfig::default(),
        Default::default(),
    );
    let start = Instant::now();
    for event in events.iter().cycle().take(calls as usize) {
        monitor.on_interaction(*event);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(calls);
    std::hint::black_box(monitor.metrics());
    ns
}

/// The differential ladder NullHooks → Monitor hooks → `Platform` at 64 MB:
/// each rung adds one layer, so the difference of two rungs prices it.
fn ladder(
    args: &RunArgs,
    state: &State,
    platform_passes: &Measured,
    metrics: &mut Metrics,
    tally: &mut Tally,
    tracer: &mut Tracer,
) {
    let reps = if args.smoke { 1 } else { 5 };
    let (mut null_s, mut monitor_s) = (Vec::new(), Vec::new());
    let (mut ops, mut gc_cycles, mut ic_hits, mut ic_misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut events, mut drain_us) = (0u64, 0.0);
    for rep in 0..reps {
        let (wall, runs) = tracer.span("rung.null_hooks", |_| {
            bare_runs(&state.apps, tally, |_| Arc::new(NullHooks))
        });
        null_s.push(wall);
        if rep == 0 {
            for (app, run) in state.apps.iter().zip(&runs) {
                let expected = state.expected.get(app.name).map_or(0, |s| s.ops);
                if run.summary.ops_executed != expected {
                    tally.fail(format!(
                        "{}: bare machine executed {} ops, the platform {expected}",
                        app.name, run.summary.ops_executed
                    ));
                }
                ops += run.summary.ops_executed;
                gc_cycles += run.summary.gc_cycles;
                ic_hits += run.ic.0;
                ic_misses += run.ic.1;
            }
        }
        let (wall, runs) = tracer.span("rung.monitor_hooks", |_| {
            bare_runs(&state.apps, tally, |app| {
                Arc::new(Monitor::new(
                    app.program.clone(),
                    TriggerConfig::default(),
                    Default::default(),
                ))
            })
        });
        monitor_s.push(wall);
        if rep == 0 {
            for run in &runs {
                events += run.hooks.metrics().interaction_events;
                let start = Instant::now();
                let drained = run.hooks.drain_deltas();
                drain_us += start.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(drained);
            }
        }
    }
    // Fastest repetition of each rung, and the fastest passes, in raw wall
    // time: rungs run minutes apart on a machine whose speed drifts, and a
    // difference of two rungs is only meaningful between their undisturbed
    // times.
    let (null_s, monitor_s) = (min(&null_s), min(&monitor_s));
    let platform_s = platform_passes.fastest().0 / 1e3;
    let hook_s = monitor_s - null_s;
    metrics.set("vm.mutator_s", null_s);
    metrics.set("vm.mutator_mops_per_s", ops as f64 / 1e6 / null_s);
    metrics.set("vm.ops", ops as f64);
    metrics.set("vm.gc_cycles", gc_cycles as f64);
    metrics.set(
        "vm.ic_hit_ratio",
        ic_hits as f64 / (ic_hits + ic_misses).max(1) as f64,
    );
    metrics.set("monitor.hook_s", hook_s);
    metrics.set("monitor.events", events as f64);
    metrics.set("monitor.ns_per_event", hook_s * 1e9 / events.max(1) as f64);
    metrics.set("monitor.drain_deltas_us", drain_us);
    // The application with the most classes and events (JavaNote's 138).
    if let Some(app) = state.apps.iter().max_by_key(|a| a.program.classes().len()) {
        let calls = if args.smoke { 10_000 } else { 1_000_000 };
        let ns = tracer.span("rung.on_interaction", |_| {
            on_interaction_ns(app, args.seed, calls)
        });
        metrics.set("monitor.on_interaction_ns", ns);
    }
    metrics.set("core.scaffold_s", platform_s - monitor_s);
}
