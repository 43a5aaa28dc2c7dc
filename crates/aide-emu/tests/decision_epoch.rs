//! The emulator decides every trigger with the platform's decision epoch,
//! fed from the monitor's drained deltas. On the paper's three memory
//! applications, replayed in a 6 MB heap under each heuristic, that epoch
//! must decide at every trigger exactly what the from-scratch pipeline —
//! `decide_with` over `Monitor::snapshot()` — decides: the same candidate
//! count, score bits, offloaded bytes and cut. The emulator's own timeline
//! must be the one those epochs explain.
//!
//! The paper's configuration offloads at its first trigger. The eager
//! corner of the Figure 7 grid (trigger at 50 % free on one report, free at
//! least 60 %) declines several times first, so later epochs are fed
//! several batches of deltas.

use std::collections::HashSet;
use std::sync::Arc;

use aide_apps::{memory_apps, Scale};
use aide_core::{
    decide_with, HeuristicKind, IncrementalPartitioner, Monitor, PartitionerConfig, PolicyKind,
    TriggerConfig, TriggerSample,
};
use aide_emu::{record_program, Emulator, EmulatorConfig, EmulatorReport, Trace, TraceEvent};
use aide_graph::ResourceSnapshot;
use aide_telemetry::PlatformEvent;
use aide_vm::{Interaction, InteractionKind, RuntimeHooks};

const HEAP: u64 = 6 << 20;

/// The paper's memory configuration and the Figure 7 grid's eager corner.
fn configs() -> [EmulatorConfig; 2] {
    let mut eager = EmulatorConfig::paper_memory(HEAP);
    eager.trigger = TriggerConfig {
        low_free_fraction: 0.5,
        barren_concern_fraction: 0.5,
        consecutive_reports: 1,
    };
    eager.policy = PolicyKind::Memory {
        min_free_fraction: 0.6,
    };
    [EmulatorConfig::paper_memory(HEAP), eager]
}

/// One trigger of a replay: the trace index it fired at, and the events
/// the emulator recorded for it, from `TriggerFired` to the verdict.
struct Fired {
    at_event: usize,
    events: Vec<PlatformEvent>,
}

/// The replay's triggers, in order. A trigger that chose a winner fired at
/// its offload's event; a declined one at its GC cycle's `Gc` event, or, on
/// an allocation failure, at the event that ran out of memory.
fn triggers(trace: &Trace, report: &EmulatorReport) -> Vec<Fired> {
    let gc_events: Vec<usize> = (0..trace.events.len())
        .filter(|&i| matches!(trace.events[i], TraceEvent::Gc { .. }))
        .collect();
    let mut offloads = report.offloads.iter();
    let mut fired = Vec::new();
    let mut events = report.events.iter().map(|t| &t.event);
    while let Some(event) = events.next() {
        let PlatformEvent::TriggerFired {
            at_gc_cycle,
            reason,
            ..
        } = event
        else {
            continue;
        };
        let mut group = vec![event.clone()];
        for next in events.by_ref() {
            group.push(next.clone());
            if !matches!(next, PlatformEvent::CandidatesEvaluated { .. }) {
                break;
            }
        }
        let at_event = match (group.last(), reason.as_str()) {
            (Some(PlatformEvent::WinnerChosen { .. }), _) => {
                offloads.next().expect("a winner offloads").at_event
            }
            (_, "memory-pressure") => gc_events[*at_gc_cycle as usize - 1],
            _ => report
                .oom_at_event
                .expect("a declined allocation failure is fatal"),
        };
        fired.push(Fired {
            at_event,
            events: group,
        });
    }
    fired
}

/// The event without its wall-clock field.
fn timeless(event: &PlatformEvent) -> PlatformEvent {
    match event {
        PlatformEvent::CandidatesEvaluated { candidates, .. } => {
            PlatformEvent::CandidatesEvaluated {
                candidates: *candidates,
                elapsed_micros: 0,
            }
        }
        other => other.clone(),
    }
}

/// Feeds `event` to the monitor the way the emulator does, for the events
/// that shape the execution graph (placement only moves remote counters).
fn observe(monitor: &Monitor, event: &TraceEvent) {
    match *event {
        TraceEvent::Work { class, micros } => monitor.on_work(class, micros),
        TraceEvent::Interaction {
            caller,
            callee,
            target,
            invocation,
            bytes,
        } => monitor.on_interaction(Interaction {
            caller,
            callee,
            target,
            kind: if invocation {
                InteractionKind::Invocation
            } else {
                InteractionKind::FieldAccess
            },
            bytes,
            remote: false,
        }),
        TraceEvent::Alloc {
            class,
            object,
            bytes,
        } => monitor.on_alloc(class, object, bytes),
        TraceEvent::Free {
            class,
            objects,
            bytes,
        } => monitor.on_free(class, objects, bytes),
        TraceEvent::Native { .. } | TraceEvent::StaticAccess { .. } | TraceEvent::Gc { .. } => {}
    }
}

#[test]
fn drained_epochs_decide_as_snapshots_do_at_every_trigger() {
    for app in memory_apps(Scale(1.0)) {
        let trace = record_program(app.name, app.program.clone(), 64 << 20).expect("records");
        let heuristics = [HeuristicKind::ModifiedMincut, HeuristicKind::MemoryDensity];
        for (mut config, heuristic) in configs()
            .into_iter()
            .flat_map(|c| heuristics.map(|h| (c.clone(), h)))
        {
            config.heuristic = heuristic;
            let report = Emulator::new(config.clone()).replay(&trace);
            let fired = triggers(&trace, &report);
            assert!(!fired.is_empty(), "{} triggers at 6 MB", app.name);

            let policy = config.policy.build(config.comm, config.surrogate_speed);
            let program = Arc::new(trace.skeleton_program().expect("recorded metadata"));
            let monitor = Monitor::new(program, config.trigger, HashSet::new());
            let mut partitioner = IncrementalPartitioner::new(PartitionerConfig);
            let mut observed = 0;
            for (n, trigger) in fired.iter().enumerate() {
                let at = format!("{} {:?} {heuristic:?} trigger {n}", app.name, config.policy);
                for event in &trace.events[observed..=trigger.at_event] {
                    observe(&monitor, event);
                }
                observed = trigger.at_event + 1;

                let PlatformEvent::TriggerFired {
                    at_gc_cycle,
                    heap_used,
                    heap_capacity,
                    reason,
                } = trigger.events[0].clone()
                else {
                    unreachable!("a group starts at its trigger");
                };
                let (graph, _) = monitor.snapshot();
                let (deltas, keys) = monitor.drain_deltas();
                let sample = TriggerSample {
                    at_gc_cycle,
                    reason,
                    snapshot: ResourceSnapshot {
                        heap_capacity,
                        heap_used,
                    },
                    deltas,
                    keys,
                };
                let mut events = Vec::new();
                let epoch = partitioner.decide(&sample, policy.as_ref(), heuristic, &mut |event| {
                    events.push(timeless(&event));
                });
                let scratch = decide_with(graph, sample.snapshot, policy.as_ref(), heuristic);

                assert_eq!(
                    epoch.candidates_evaluated, scratch.candidates_evaluated,
                    "{at}: candidates"
                );
                match (&epoch.selection, &scratch.selection) {
                    (None, None) => {}
                    (Some(drained), Some(snapshot)) => {
                        assert_eq!(
                            drained.score.to_bits(),
                            snapshot.score.to_bits(),
                            "{at}: score"
                        );
                        assert_eq!(
                            drained.stats.offloaded_memory_bytes,
                            snapshot.stats.offloaded_memory_bytes,
                            "{at}: offloaded bytes"
                        );
                        assert_eq!(drained.stats.cut, snapshot.stats.cut, "{at}: cut traffic");
                        assert_eq!(
                            drained.partitioning, snapshot.partitioning,
                            "{at}: cut placement"
                        );
                    }
                    (drained, snapshot) => panic!(
                        "{at}: drained epoch chose {:?}, snapshot {:?}",
                        drained.as_ref().map(|s| s.score),
                        snapshot.as_ref().map(|s| s.score)
                    ),
                }
                let recorded: Vec<PlatformEvent> = trigger.events.iter().map(timeless).collect();
                assert_eq!(events, recorded, "{at}: the emulator's timeline");
            }
        }
    }
}
