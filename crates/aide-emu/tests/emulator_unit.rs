//! Focused tests of emulator internals: event routing, placement
//! semantics, forced placement, and accounting invariants — driven by
//! hand-built traces rather than recorded applications.

use aide_core::{EvaluationMode, PolicyKind, TriggerConfig};
use aide_emu::{ClassMeta, Emulator, EmulatorConfig, Trace, TraceEvent};
use aide_graph::CommParams;
use aide_vm::{ClassId, GcReport, NativeKind, ObjectId};

fn meta(names: &[(&str, bool)]) -> Vec<ClassMeta> {
    names
        .iter()
        .map(|&(name, native_impl)| ClassMeta {
            name: name.into(),
            native_impl,
            is_primitive_array: false,
        })
        .collect()
}

fn gc_event(cycle: u64) -> TraceEvent {
    TraceEvent::Gc {
        report: GcReport {
            cycle,
            capacity: 64 << 20,
            used_after: 0,
            free_after: 64 << 20,
            freed_objects: 1,
            freed_bytes: 0,
            duration_micros: 1.0,
        },
    }
}

/// A trace with a pinned UI class and an offloadable Worker that owns all
/// the memory and does all the work, with interactions between them.
fn simple_trace(interaction_bytes: u64) -> Trace {
    let mut t = Trace::new(
        "hand-built",
        64 << 20,
        meta(&[("Ui", true), ("Worker", false)]),
    );
    let ui = ClassId(0);
    let worker = ClassId(1);
    // Allocate 1 MB on the worker, then alternate work and interactions.
    t.events.push(TraceEvent::Alloc {
        class: worker,
        object: ObjectId::client(0),
        bytes: 1 << 20,
    });
    for i in 0..100u64 {
        t.events.push(TraceEvent::Work {
            class: worker,
            micros: 100_000.0,
        });
        t.events.push(TraceEvent::Interaction {
            caller: ui,
            callee: worker,
            target: Some(ObjectId::client(0)),
            invocation: true,
            bytes: interaction_bytes,
        });
        if i % 10 == 9 {
            t.events.push(gc_event(i / 10 + 1));
        }
    }
    t
}

fn forced_config(classes: &[&str]) -> EmulatorConfig {
    let mut cfg = EmulatorConfig::paper_memory(64 << 20);
    cfg.max_offloads = 0;
    cfg.forced_surrogate = Some(classes.iter().map(|s| (*s).to_string()).collect());
    cfg.surrogate_speed = 2.0;
    cfg
}

#[test]
fn forced_placement_executes_work_on_the_surrogate() {
    let trace = simple_trace(100);
    let report = Emulator::new(forced_config(&["Worker"])).replay(&trace);
    assert!(report.completed);
    // 10s of work at 2x speed = 5s on the surrogate, none on the client.
    assert!((report.surrogate_cpu_seconds - 5.0).abs() < 1e-6);
    assert!(report.client_cpu_seconds < 1e-9);
    // Every UI->Worker interaction crossed the boundary.
    assert_eq!(report.remote.remote_interactions, 100);
    assert_eq!(report.remote.remote_invocations, 100);
}

#[test]
fn forced_placement_of_a_pinned_name_is_harmless() {
    // Forcing the UI class is allowed at the emulator level (it is a
    // manual override); interactions then cross in the other direction.
    let trace = simple_trace(100);
    let report = Emulator::new(forced_config(&["Ui"])).replay(&trace);
    assert!(report.completed);
    assert_eq!(report.remote.remote_interactions, 100);
}

#[test]
fn comm_time_scales_with_interaction_payload() {
    let small = Emulator::new(forced_config(&["Worker"])).replay(&simple_trace(0));
    let big = Emulator::new(forced_config(&["Worker"])).replay(&simple_trace(110_000));
    // 100 interactions x 110 KB at 11 Mbps = ~8s more than payload-free.
    let delta = big.comm_seconds - small.comm_seconds;
    assert!(
        (delta - 8.0).abs() < 0.1,
        "expected ~8s of payload time, got {delta}"
    );
    // RTT component: 100 x 2.4 ms.
    assert!((small.comm_seconds - 0.24).abs() < 0.01);
}

#[test]
fn client_bound_natives_bounce_only_from_the_surrogate() {
    let mut t = Trace::new("natives", 64 << 20, meta(&[("Ui", true), ("W", false)]));
    for _ in 0..10 {
        t.events.push(TraceEvent::Native {
            caller: ClassId(1),
            kind: NativeKind::Framebuffer,
            work_micros: 1_000,
            bytes: 64,
        });
        t.events.push(TraceEvent::Native {
            caller: ClassId(1),
            kind: NativeKind::Math,
            work_micros: 1_000,
            bytes: 16,
        });
    }

    // Local (no placement): no bounces, all native work on the client.
    let local = Emulator::new(EmulatorConfig::paper_memory(64 << 20)).replay(&t);
    assert_eq!(local.remote.remote_native_calls, 0);
    assert!((local.client_cpu_seconds - 0.02).abs() < 1e-9);

    // Offloaded without the enhancement: both kinds bounce home.
    let plain = Emulator::new(forced_config(&["W"])).replay(&t);
    assert_eq!(plain.remote.remote_native_calls, 20);
    assert!(
        (plain.client_cpu_seconds - 0.02).abs() < 1e-9,
        "native work runs at home"
    );

    // With the enhancement: only the framebuffer natives bounce.
    let mut cfg = forced_config(&["W"]);
    cfg.stateless_natives_local = true;
    let enhanced = Emulator::new(cfg).replay(&t);
    assert_eq!(enhanced.remote.remote_native_calls, 10);
    // The math half executes on the 2x surrogate now.
    assert!((enhanced.client_cpu_seconds - 0.01).abs() < 1e-9);
    assert!((enhanced.surrogate_cpu_seconds - 0.005).abs() < 1e-9);
}

#[test]
fn static_accesses_go_home_from_the_surrogate() {
    let mut t = Trace::new("statics", 64 << 20, meta(&[("Ui", true), ("W", false)]));
    for _ in 0..5 {
        t.events.push(TraceEvent::StaticAccess {
            accessor: ClassId(1),
            class: ClassId(0),
            bytes: 32,
        });
    }
    let local = Emulator::new(EmulatorConfig::paper_memory(64 << 20)).replay(&t);
    assert_eq!(local.remote.remote_static_accesses, 0);
    let offloaded = Emulator::new(forced_config(&["W"])).replay(&t);
    assert_eq!(offloaded.remote.remote_static_accesses, 5);
    assert!(offloaded.comm_seconds > 0.0);
}

#[test]
fn live_byte_accounting_survives_alloc_free_cycles() {
    let mut t = Trace::new("churn", 64 << 20, meta(&[("Main", false), ("Buf", false)]));
    let buf = ClassId(1);
    // Allocate 100 x 1 KB, free 50 KB, allocate 100 KB more.
    for i in 0..100u64 {
        t.events.push(TraceEvent::Alloc {
            class: buf,
            object: ObjectId::client(i),
            bytes: 1_024,
        });
    }
    t.events.push(TraceEvent::Free {
        class: buf,
        objects: 50,
        bytes: 50 * 1_024,
    });
    t.events.push(TraceEvent::Alloc {
        class: buf,
        object: ObjectId::client(1_000),
        bytes: 100 * 1_024,
    });
    let report = Emulator::new(EmulatorConfig::paper_memory(64 << 20)).replay(&t);
    assert!(report.completed);
    // Peak was max(100 KB, 50 KB + 100 KB) = 150 KB.
    assert_eq!(report.peak_client_bytes, 150 * 1_024);
}

#[test]
fn oom_reports_the_failing_event_index() {
    let mut t = Trace::new("oom", 64 << 20, meta(&[("Main", false), ("Buf", false)]));
    t.events.push(TraceEvent::Work {
        class: ClassId(0),
        micros: 1.0,
    });
    t.events.push(TraceEvent::Alloc {
        class: ClassId(1),
        object: ObjectId::client(0),
        bytes: 2 << 20,
    });
    let mut cfg = EmulatorConfig::paper_memory(1 << 20);
    cfg.max_offloads = 0;
    let report = Emulator::new(cfg).replay(&t);
    assert!(!report.completed);
    assert_eq!(report.oom_at_event, Some(1));
}

#[test]
fn periodic_evaluation_needs_accumulated_work() {
    // With a periodic CPU policy, no evaluation happens until the work
    // budget accrues — a trace with less total work than the period never
    // offloads.
    let trace = simple_trace(0); // 10s of work total
    let mut cfg = EmulatorConfig::paper_cpu(64 << 20, 60_000_000.0); // 60s period
    cfg.policy = PolicyKind::Cpu { margin: 0.0 };
    cfg.evaluation = EvaluationMode::Periodic {
        every_micros: 60_000_000.0,
    };
    let report = Emulator::new(cfg).replay(&trace);
    assert!(!report.offloaded());
}

#[test]
fn trigger_respects_tolerance_across_gc_events() {
    // Heap pressured from the start; tolerance 3 means the third GC event
    // triggers, not the first.
    let mut t = Trace::new("tol", 64 << 20, meta(&[("Ui", true), ("W", false)]));
    t.events.push(TraceEvent::Alloc {
        class: ClassId(1),
        object: ObjectId::client(0),
        bytes: 990 << 10, // 99% of a 1 MB emulated heap
    });
    // One interaction so both classes exist as graph nodes (nodes are
    // created lazily from events, not from trace metadata).
    t.events.push(TraceEvent::Interaction {
        caller: ClassId(0),
        callee: ClassId(1),
        target: Some(ObjectId::client(0)),
        invocation: true,
        bytes: 8,
    });
    for c in 1..=3 {
        t.events.push(gc_event(c));
        t.events.push(TraceEvent::Work {
            class: ClassId(1),
            micros: 1_000.0,
        });
    }
    let mut cfg = EmulatorConfig::paper_memory(1 << 20);
    cfg.trigger = TriggerConfig {
        low_free_fraction: 0.05,
        barren_concern_fraction: 0.10,
        consecutive_reports: 3,
    };
    cfg.policy = PolicyKind::Memory {
        min_free_fraction: 0.5,
    };
    let report = Emulator::new(cfg).replay(&t);
    assert!(report.offloaded());
    let offload = &report.offloads[0];
    // Events: alloc(0) interaction(1) gc(2) work(3) gc(4) work(5) gc(6):
    // the trigger fires at the third GC event, index 6.
    assert_eq!(offload.at_event, 6);
}

#[test]
fn wavelan_constants_are_the_papers() {
    let cfg = EmulatorConfig::paper_memory(6 << 20);
    assert_eq!(cfg.comm, CommParams::WAVELAN);
    assert_eq!(cfg.surrogate_speed, 1.0); // memory experiments: equal CPUs
    let cpu = EmulatorConfig::paper_cpu(16 << 20, 1.0);
    assert_eq!(cpu.surrogate_speed, 3.5); // CPU experiments: Jornada vs PC
}

/// The heap the failover runs replay [`failover_trace`] under: its 600 KB
/// store must leave less than the trigger's 5% free (here 3.2%), or no GC
/// report counts as pressure and the surrogate dies holding nothing.
const FAILOVER_HEAP: u64 = 620 << 10;

/// A trace shaped for failover runs: a pinned UI and a Store that
/// allocates 600 KB (pressuring a [`FAILOVER_HEAP`] into an offload at the
/// third GC), then 10 s of Store work for the virtual clock to cross the
/// scheduled failure, then three more GCs (re-pressure after
/// reinstatement) and a final 100 KB allocation that only fits if the
/// store left the client again.
fn failover_trace() -> Trace {
    let mut t = Trace::new(
        "failover",
        64 << 20,
        meta(&[("Ui", true), ("Store", false)]),
    );
    let ui = ClassId(0);
    let store = ClassId(1);
    t.events.push(TraceEvent::Alloc {
        class: store,
        object: ObjectId::client(0),
        bytes: 600 << 10,
    });
    t.events.push(TraceEvent::Interaction {
        caller: ui,
        callee: store,
        target: Some(ObjectId::client(0)),
        invocation: true,
        bytes: 2_000,
    });
    for c in 1..=3 {
        t.events.push(gc_event(c));
    }
    for _ in 0..10 {
        t.events.push(TraceEvent::Work {
            class: store,
            micros: 1_000_000.0,
        });
    }
    for c in 4..=6 {
        t.events.push(gc_event(c));
    }
    t.events.push(TraceEvent::Alloc {
        class: store,
        object: ObjectId::client(1),
        bytes: 100 << 10,
    });
    t
}

#[test]
fn scheduled_failure_with_standby_reinstates_and_reoffloads() {
    let mut cfg = EmulatorConfig::paper_memory(FAILOVER_HEAP);
    cfg.failure = Some(aide_emu::FailureSchedule::at(1.0));
    let report = Emulator::new(cfg).replay(&failover_trace());

    assert!(report.completed, "standby surrogate rescues the replay");
    assert_eq!(report.failovers.len(), 1);
    let f = report.failovers[0];
    assert!(
        f.had_offloaded,
        "the store was on the surrogate when it died"
    );
    assert_eq!(f.reinstated_bytes, 600 << 10);
    assert!(f.at_seconds >= 1.0);
    // Original offload plus the recovery re-offload, despite max_offloads=1:
    // each failure extends the budget.
    assert_eq!(report.offloads.len(), 2);
    assert!(report.offloads[1].at_event > f.at_event);
    assert_eq!(report.offloads[1].bytes_moved, 600 << 10);
}

#[test]
fn scheduled_failure_without_standby_degrades_to_client_only_oom() {
    let mut cfg = EmulatorConfig::paper_memory(FAILOVER_HEAP);
    cfg.failure = Some(aide_emu::FailureSchedule {
        at_virtual_seconds: 1.0,
        standby: false,
        reoffload_delay_seconds: 0.0,
    });
    let report = Emulator::new(cfg).replay(&failover_trace());

    assert_eq!(report.failovers.len(), 1);
    assert_eq!(report.failovers[0].reinstated_bytes, 600 << 10);
    assert_eq!(report.offloads.len(), 1, "no surrogate left to retry");
    // The reinstated store plus the final allocation exceed the heap.
    assert!(!report.completed);
    assert!(report.oom_at_event.is_some());
}

#[test]
fn failure_before_any_offload_reinstates_nothing() {
    let mut cfg = EmulatorConfig::paper_memory(FAILOVER_HEAP);
    cfg.failure = Some(aide_emu::FailureSchedule::at(0.0));
    let report = Emulator::new(cfg).replay(&failover_trace());

    assert_eq!(report.failovers.len(), 1);
    let f = report.failovers[0];
    assert!(!f.had_offloaded);
    assert_eq!(f.reinstated_bytes, 0);
    // The standby (budget 1 + 1) still carries the replay to completion.
    assert!(report.completed);
    assert!(!report.offloads.is_empty());
}

#[test]
fn reoffload_delay_defers_recovery_until_the_hard_wall() {
    let mut cfg = EmulatorConfig::paper_memory(FAILOVER_HEAP);
    cfg.failure = Some(aide_emu::FailureSchedule {
        at_virtual_seconds: 1.0,
        standby: true,
        // Longer than the whole replay: the pressure-triggered recovery
        // path stays gated...
        reoffload_delay_seconds: 1e6,
    });
    let report = Emulator::new(cfg).replay(&failover_trace());

    // ...but the last-ditch evaluation at the hard memory wall ignores the
    // delay (the client waits out session setup rather than dying), so the
    // replay still completes — with the recovery offload at the final
    // allocation event, not at the earlier GC trigger.
    assert!(report.completed);
    assert_eq!(report.offloads.len(), 2);
    assert_eq!(
        report.offloads[1].at_event,
        failover_trace().events.len() - 1
    );
}
