//! Counted delivery is an optimisation, not a semantics. A `Monitor` that
//! accumulates is told an inline-cache hit as part of a count, a class's
//! repeated `Work` as one sum, and no method exits or local natives. It
//! must end exactly where the same monitor ends behind a chain with one
//! member that takes every event one by one (`CountingHooks`).
//!
//! On the interpreter, for every Table-1 application: the run summary,
//! every batch of deltas drained at a collection (or at every `Work`
//! boundary), the final snapshot, the Table 2 metrics and the Figure 8
//! counters. On the platform at the paper's 6 MB, under both evaluation
//! modes: every GC report and trigger sample the controller saw, every
//! offload, and the report.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use aide_apps::{all_apps, App, Scale};
use aide_core::{
    EvaluationMode, Monitor, NondetSource, OffloadEvent, Platform, PlatformConfig, PlatformReport,
    TriggerConfig, TriggerSample,
};
use aide_graph::GraphDelta;
use aide_vm::{
    ClassId, CountingHooks, GcReport, HookChain, Machine, PendingEvent, RunSummary, RuntimeHooks,
    VmConfig, VmResult,
};

/// Drains the monitor it follows in a chain after every collection, or
/// after every `Work` op, and keeps each batch.
struct Drainer {
    monitor: Arc<Monitor>,
    at_work: bool,
    batches: Mutex<Vec<Vec<GraphDelta>>>,
}

impl Drainer {
    fn drain(&self) {
        let (deltas, _) = self.monitor.drain_deltas();
        self.batches.lock().unwrap().push(deltas);
    }
}

impl RuntimeHooks for Drainer {
    fn on_gc(&self, _: &GcReport) {
        if !self.at_work {
            self.drain();
        }
    }

    /// With the work boundary, a slice holds one `Work`, and the monitor
    /// has folded the whole slice before this member sees it.
    fn on_events(&self, events: &[PendingEvent]) {
        if self.at_work
            && events
                .iter()
                .any(|e| matches!(e, PendingEvent::Work { .. }))
        {
            self.drain();
        }
    }

    fn needs_work_boundary(&self) -> bool {
        self.at_work
    }

    fn accumulates(&self) -> bool {
        true
    }
}

/// What a bare run leaves in the monitor, in comparable form.
#[derive(Debug, PartialEq)]
struct Bare {
    summary: VmResult<RunSummary>,
    batches: Vec<Vec<GraphDelta>>,
    snapshot: (aide_graph::ExecutionGraph, Vec<aide_core::NodeKey>),
    metrics: aide_core::MonitorMetrics,
    remote: aide_core::RemoteStats,
    work_since_eval: f64,
}

/// Runs `app` on a bare machine with a monitor (granular over the app's
/// primitive arrays or not) and a drainer behind it, plus a per-event
/// member when `per_event`.
fn bare(app: &App, granular: bool, at_work: bool, per_event: bool) -> Bare {
    let granular: HashSet<ClassId> = if granular {
        (0..app.program.classes().len())
            .map(|c| ClassId(c as u32))
            .filter(|&c| app.program.class(c).is_ok_and(|d| d.is_primitive_array))
            .collect()
    } else {
        HashSet::new()
    };
    let monitor = Arc::new(Monitor::new(
        app.program.clone(),
        TriggerConfig::default(),
        granular,
    ));
    let drainer = Arc::new(Drainer {
        monitor: monitor.clone(),
        at_work,
        batches: Mutex::default(),
    });
    let counting = Arc::new(CountingHooks::new());
    let mut sinks: Vec<Arc<dyn RuntimeHooks>> = vec![monitor.clone(), drainer.clone()];
    if per_event {
        sinks.push(counting.clone());
    }
    let chain = HookChain::new(sinks);
    assert_eq!(chain.accumulates(), !per_event);
    let mut config = VmConfig::client(64 << 20);
    config.cost.monitor_event_micros = 1.5;
    // Collect often: every collection is a drain to compare.
    config.gc.trigger_alloc_count = 50;
    let summary = Machine::with_hooks(app.program.clone(), config, Arc::new(chain)).run_entry();
    let metrics = monitor.metrics();
    if per_event {
        let seen = counting
            .interactions
            .load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(seen, metrics.interaction_events, "{}", app.name);
    }
    let batches = std::mem::take(&mut *drainer.batches.lock().unwrap());
    Bare {
        summary,
        batches,
        snapshot: monitor.snapshot(),
        metrics,
        remote: monitor.remote_stats(),
        work_since_eval: monitor.work_since_eval(),
    }
}

#[test]
fn an_accumulating_monitor_ends_where_a_per_event_one_does() {
    for app in all_apps(Scale(0.05)) {
        for (granular, at_work) in [(false, false), (true, false), (false, true)] {
            let per_event = bare(&app, granular, at_work, true);
            let counted = bare(&app, granular, at_work, false);
            let name = app.name;
            assert!(per_event.summary.is_ok(), "{name}: {:?}", per_event.summary);
            assert!(!per_event.batches.is_empty(), "{name}: never drained");
            assert!(per_event.metrics.interaction_events > 0, "{name}");
            assert_eq!(
                counted.batches.len(),
                per_event.batches.len(),
                "{name}, granular {granular}, at work {at_work}: drains"
            );
            for (i, (c, p)) in counted.batches.iter().zip(&per_event.batches).enumerate() {
                assert_eq!(
                    c, p,
                    "{name}, granular {granular}, at work {at_work}: batch {i}"
                );
            }
            assert_eq!(
                counted, per_event,
                "{name}, granular {granular}, at work {at_work}"
            );
        }
    }
}

/// Keeps what the controller fed its partitioner, and every GC report.
#[derive(Default)]
struct Inputs {
    gcs: Mutex<Vec<GcReport>>,
    triggers: Mutex<Vec<TriggerSample>>,
}

impl NondetSource for Inputs {
    fn observe_gc(&self, report: &GcReport) {
        self.gcs.lock().unwrap().push(*report);
    }

    fn trigger(&self, sample: &TriggerSample) {
        self.triggers.lock().unwrap().push(sample.clone());
    }
}

/// An offload, less its wall-clock timings.
#[derive(Debug, PartialEq)]
struct Offload {
    at_gc_cycle: u64,
    graph: aide_graph::ExecutionGraph,
    partitioning: aide_graph::Partitioning,
    candidates_evaluated: usize,
    offloaded_memory_fraction: f64,
    cut: (u64, u64),
    policy_score: f64,
    moved: (u64, u64, u64, u64),
}

impl From<&OffloadEvent> for Offload {
    fn from(e: &OffloadEvent) -> Self {
        Offload {
            at_gc_cycle: e.at_gc_cycle,
            graph: e.graph.clone(),
            partitioning: e.partitioning.clone(),
            candidates_evaluated: e.candidates_evaluated,
            offloaded_memory_fraction: e.offloaded_memory_fraction,
            cut: (e.cut_bytes, e.cut_interactions),
            policy_score: e.policy_score,
            moved: (
                e.outcome.objects_moved,
                e.outcome.bytes_moved,
                e.outcome.client_used_after,
                e.outcome.back_references_pinned,
            ),
        }
    }
}

/// A platform run, less its wall-clock timings and telemetry.
#[derive(Debug, PartialEq)]
struct Run {
    gcs: Vec<GcReport>,
    triggers: Vec<TriggerSample>,
    offloads: Vec<Offload>,
    outcome: Result<RunSummary, String>,
    seconds: [f64; 5],
    client_gc_cycles: u64,
    final_graph: aide_graph::ExecutionGraph,
    metrics: aide_core::MonitorMetrics,
    remote: aide_core::RemoteStats,
    served: (u64, u64),
}

fn platform(app: &App, config: PlatformConfig, per_event: bool) -> Run {
    let inputs = Arc::new(Inputs::default());
    let mut platform =
        Platform::new(app.program.clone(), config).with_nondet_source(inputs.clone());
    if per_event {
        platform = platform.with_observer(Arc::new(CountingHooks::new()));
    }
    let report: PlatformReport = platform.run();
    let gcs = std::mem::take(&mut *inputs.gcs.lock().unwrap());
    let triggers = std::mem::take(&mut *inputs.triggers.lock().unwrap());
    Run {
        gcs,
        triggers,
        offloads: report.offloads.iter().map(Offload::from).collect(),
        outcome: report.outcome.map_err(|e| e.to_string()),
        seconds: [
            report.client_cpu_seconds,
            report.surrogate_cpu_seconds,
            report.client_hook_seconds,
            report.surrogate_hook_seconds,
            report.comm_seconds,
        ],
        client_gc_cycles: report.client_gc_cycles,
        final_graph: report.final_graph,
        metrics: report.metrics,
        remote: report.remote_stats,
        served: (
            report.surrogate_requests_served,
            report.client_requests_served,
        ),
    }
}

#[test]
fn the_platform_decides_the_same_on_counts_as_on_events() {
    let mut memory = PlatformConfig::prototype(6 << 20);
    memory.max_offloads = 3;
    memory.monitor_event_micros = 1.5;
    let mut periodic = PlatformConfig::prototype(6 << 20);
    periodic.max_offloads = 3;
    periodic.evaluation = EvaluationMode::Periodic {
        every_micros: 400_000.0,
    };
    let mut offloads = [0usize; 2];
    for app in all_apps(Scale(1.0)) {
        for (mode, config) in [memory, periodic].into_iter().enumerate() {
            let per_event = platform(&app, config, true);
            let counted = platform(&app, config, false);
            let name = app.name;
            // Periodic evaluation never answers memory pressure, so an
            // application may run out of memory; both must, alike.
            if mode == 0 {
                assert!(per_event.outcome.is_ok(), "{name}: {:?}", per_event.outcome);
            }
            offloads[mode] += per_event.offloads.len();
            for (i, (c, p)) in counted.triggers.iter().zip(&per_event.triggers).enumerate() {
                assert_eq!(c, p, "{name}, mode {mode}: trigger {i}");
            }
            assert_eq!(counted, per_event, "{name}, mode {mode}");
        }
    }
    // Both modes decided something to compare.
    assert!(
        offloads.iter().all(|&n| n > 0),
        "offloads per mode: {offloads:?}"
    );
}
