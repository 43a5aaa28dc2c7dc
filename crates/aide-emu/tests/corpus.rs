//! Golden-trace corpus: the checked-in traces under `traces/` must load,
//! match their in-code constructions exactly, and replay bit-identically.
//!
//! Regenerate after an intentional format or pipeline change with:
//!
//! ```sh
//! AIDE_BLESS=1 cargo test -p aide-emu --test corpus
//! ```

use std::path::PathBuf;

use aide_core::{MigrationRecord, PlatformConfig, PolicyKind, TriggerSample};
use aide_emu::{
    decision_outcomes, default_variants, load, replay, replay_with, save, sweep, ReplayEvent,
    ReplayTrace,
};
use aide_graph::{EdgeInfo, GraphDelta, NodeId, PinReason, ResourceSnapshot};
use aide_telemetry::{PlatformEvent, TimedEvent};
use aide_vm::GcReport;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../traces")
        .join(format!("{name}.trace.jsonl"))
}

fn gc(cycle: u64, capacity: u64, used_after: u64, at_micros: u64) -> ReplayEvent {
    ReplayEvent::Gc {
        at_micros,
        report: GcReport {
            cycle,
            capacity,
            used_after,
            free_after: capacity - used_after,
            freed_objects: 12,
            freed_bytes: 40_000,
            duration_micros: 80.0,
        },
    }
}

/// The shared two-class pressure scenario: a pinned UI class and a
/// 4 MB document class with a 10-interaction/1000-byte edge. Exactly
/// one candidate partitioning exists (offload the document), the
/// memory policy scores it by cut bytes (1000.0), and the trigger arms
/// after three successive cycles under 5% free.
fn pressure_inputs(capacity: u64, used: u64) -> Vec<ReplayEvent> {
    vec![
        gc(1, capacity, used, 1_000),
        gc(2, capacity, used, 2_000),
        gc(3, capacity, used, 3_000),
        ReplayEvent::Trigger {
            at_micros: 4_000,
            sample: TriggerSample {
                at_gc_cycle: 3,
                reason: "memory-pressure".into(),
                snapshot: ResourceSnapshot {
                    heap_capacity: capacity,
                    heap_used: used,
                },
                deltas: vec![
                    GraphDelta::AddNode {
                        label: "Ui".into(),
                        pinned: Some(PinReason::NativeMethods),
                        memory_bytes: 500_000,
                        cpu_micros: 0,
                        live_objects: 1,
                    },
                    GraphDelta::AddNode {
                        label: "Doc".into(),
                        pinned: None,
                        memory_bytes: 4_000_000,
                        cpu_micros: 0,
                        live_objects: 37,
                    },
                    GraphDelta::Interaction {
                        a: NodeId(0),
                        b: NodeId(1),
                        delta: EdgeInfo::new(10, 1_000),
                    },
                ],
                keys: Vec::new(),
            },
        },
    ]
}

fn timed(seq: u64, at_micros: u64, event: PlatformEvent) -> TimedEvent {
    TimedEvent {
        seq,
        at_micros,
        event,
        span: None,
    }
}

fn decision_prefix(capacity: u64, used: u64) -> Vec<TimedEvent> {
    vec![
        timed(
            0,
            4_000,
            PlatformEvent::TriggerFired {
                at_gc_cycle: 3,
                heap_used: used,
                heap_capacity: capacity,
                reason: "memory-pressure".into(),
            },
        ),
        timed(
            1,
            4_001,
            PlatformEvent::CandidatesEvaluated {
                candidates: 1,
                elapsed_micros: 42,
            },
        ),
    ]
}

/// "editor": the trigger fires, the document class wins, migration
/// completes.
fn editor() -> ReplayTrace {
    let mut trace = ReplayTrace::new("editor", PlatformConfig::prototype(6_000_000));
    trace.inputs = pressure_inputs(6_000_000, 5_900_000);
    trace.inputs.push(ReplayEvent::Migration {
        at_micros: 5_000,
        record: MigrationRecord::Completed {
            objects: 37,
            bytes: 4_000_000,
            duration_micros: 1_234,
        },
    });
    trace.baseline = decision_prefix(6_000_000, 5_900_000);
    trace.baseline.push(timed(
        2,
        4_002,
        PlatformEvent::WinnerChosen {
            policy_score: 1000.0,
            offload_bytes: 4_000_000,
            cut_interactions: 10,
        },
    ));
    trace.baseline.push(timed(
        3,
        5_000,
        PlatformEvent::ClassMigrated {
            objects: 37,
            bytes: 4_000_000,
            duration_micros: 1_234,
        },
    ));
    trace
}

/// "chain": the trigger fires but a 90%-free demand is infeasible —
/// the policy declines.
fn chain() -> ReplayTrace {
    let mut config = PlatformConfig::prototype(100_000_000);
    config.policy = PolicyKind::Memory {
        min_free_fraction: 0.9,
    };
    let mut trace = ReplayTrace::new("chain", config);
    trace.inputs = pressure_inputs(100_000_000, 99_000_000);
    trace.baseline = decision_prefix(100_000_000, 99_000_000);
    trace.baseline.push(timed(
        2,
        4_002,
        PlatformEvent::OffloadDeclined { candidates: 1 },
    ));
    trace
}

/// "mesh": a winner is chosen but the migration fails — the recorded
/// abort and rollback effects replay from the baseline.
fn mesh() -> ReplayTrace {
    let mut trace = ReplayTrace::new("mesh", PlatformConfig::prototype(6_000_000));
    trace.inputs = pressure_inputs(6_000_000, 5_900_000);
    trace.inputs.push(ReplayEvent::Migration {
        at_micros: 5_000,
        record: MigrationRecord::Failed,
    });
    trace.baseline = decision_prefix(6_000_000, 5_900_000);
    trace.baseline.push(timed(
        2,
        4_002,
        PlatformEvent::WinnerChosen {
            policy_score: 1000.0,
            offload_bytes: 4_000_000,
            cut_interactions: 10,
        },
    ));
    trace.baseline.push(timed(
        3,
        4_500,
        PlatformEvent::MigrationAborted {
            reason: "surrogate rejected PREPARE".into(),
        },
    ));
    trace.baseline.push(timed(
        4,
        4_600,
        PlatformEvent::MigrationRolledBack {
            objects: 37,
            bytes: 4_000_000,
        },
    ));
    trace
}

/// "gc": a completed offload whose client then goes quiet — the
/// surrogate's lease sweeper expires the exported pins, a replayed
/// release names an object that is already gone, and failover reclaims
/// the rest under a fresh epoch. Distilled from a `gc_soak` chaos run
/// (seed 1234); the three GC effects replay from the baseline.
fn gc_leases() -> ReplayTrace {
    let mut trace = ReplayTrace::new("gc", PlatformConfig::prototype(6_000_000));
    trace.inputs = pressure_inputs(6_000_000, 5_900_000);
    trace.inputs.push(ReplayEvent::Migration {
        at_micros: 5_000,
        record: MigrationRecord::Completed {
            objects: 37,
            bytes: 4_000_000,
            duration_micros: 1_234,
        },
    });
    trace.baseline = decision_prefix(6_000_000, 5_900_000);
    trace.baseline.push(timed(
        2,
        4_002,
        PlatformEvent::WinnerChosen {
            policy_score: 1000.0,
            offload_bytes: 4_000_000,
            cut_interactions: 10,
        },
    ));
    trace.baseline.push(timed(
        3,
        5_000,
        PlatformEvent::ClassMigrated {
            objects: 37,
            bytes: 4_000_000,
            duration_micros: 1_234,
        },
    ));
    trace.baseline.push(timed(
        4,
        35_000,
        PlatformEvent::LeaseExpired {
            objects: 2,
            epoch: 0,
        },
    ));
    trace.baseline.push(timed(
        5,
        35_100,
        PlatformEvent::GcReleaseUnknown { object: 37 },
    ));
    trace.baseline.push(timed(
        6,
        36_000,
        PlatformEvent::ExportsReclaimed {
            objects: 1,
            reason: "failover".into(),
        },
    ));
    trace
}

/// "fleet": pressure fires with no reachable surrogate — the shipment is
/// queued on the relay, the first replacement candidate answers `Busy`,
/// and the parked migration is finally delivered on reconnect. Distilled
/// from a `fleet_soak` run; the three relay effects replay from the
/// baseline.
fn fleet() -> ReplayTrace {
    let mut trace = ReplayTrace::new("fleet", PlatformConfig::prototype(6_000_000));
    trace.inputs = pressure_inputs(6_000_000, 5_900_000);
    trace.inputs.push(ReplayEvent::Migration {
        at_micros: 5_000,
        record: MigrationRecord::NoSurrogate,
    });
    trace.baseline = decision_prefix(6_000_000, 5_900_000);
    trace.baseline.push(timed(
        2,
        4_002,
        PlatformEvent::WinnerChosen {
            policy_score: 1000.0,
            offload_bytes: 4_000_000,
            cut_interactions: 10,
        },
    ));
    trace.baseline.push(timed(
        3,
        5_000,
        PlatformEvent::MigrationQueued {
            txn: 1,
            objects: 37,
            bytes: 4_000_000,
        },
    ));
    trace.baseline.push(timed(
        4,
        5_200,
        PlatformEvent::SessionRejected {
            surrogate: "porch-pc".into(),
            retry_after_ms: 25,
        },
    ));
    trace.baseline.push(timed(
        5,
        6_000,
        PlatformEvent::MigrationRelayed {
            txn: 1,
            objects: 37,
            bytes: 4_000_000,
            queued_for_ms: 1_000,
        },
    ));
    trace
}

fn check_golden(name: &str, expected: ReplayTrace) {
    let path = golden_path(name);
    if std::env::var_os("AIDE_BLESS").is_some() {
        save(&expected, &path).expect("bless golden");
    }
    let loaded = load(&path).unwrap_or_else(|e| {
        panic!("golden {name} failed to load: {e} (re-bless with AIDE_BLESS=1)")
    });
    assert_eq!(
        loaded, expected,
        "golden {name} drifted from its in-code construction; re-bless with AIDE_BLESS=1"
    );
    let outcome =
        replay(&loaded, None).unwrap_or_else(|e| panic!("golden {name} failed to replay: {e}"));
    assert_eq!(
        outcome.timeline, loaded.baseline,
        "golden {name}: replayed timeline not bit-identical"
    );
}

#[test]
fn editor_golden_replays_bit_identically() {
    check_golden("editor", editor());
}

#[test]
fn chain_golden_replays_bit_identically() {
    check_golden("chain", chain());
}

#[test]
fn mesh_golden_replays_bit_identically() {
    check_golden("mesh", mesh());
}

#[test]
fn gc_golden_replays_bit_identically() {
    check_golden("gc", gc_leases());
}

#[test]
fn fleet_golden_replays_bit_identically() {
    check_golden("fleet", fleet());
}

#[test]
fn warm_inline_caches_do_not_leak_into_replay() {
    // The register VM keeps per-site inline caches and process-wide cache
    // telemetry. None of that is an input to the decision pipeline, so a
    // replay performed *after* the caches are warm must still be
    // bit-identical to the checked-in golden.
    use std::sync::Arc;

    use aide_vm::{Machine, MethodDef, MethodId, NullHooks, Op, ProgramBuilder, Reg, VmConfig};

    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let data = b.add_class("Data");
    b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: data,
                    scalar_bytes: 256,
                    ref_slots: 0,
                    dst: Reg(0),
                },
                Op::Repeat {
                    n: 50,
                    body: vec![Op::Read {
                        obj: Reg(0),
                        bytes: 8,
                    }],
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, MethodId(0), 64, 0).unwrap());
    let machine = Machine::with_hooks(program, VmConfig::client(1 << 20), Arc::new(NullHooks));
    machine.run_entry().expect("warm-up run succeeds");
    let (hits, misses) = machine.vm().lock().ic_stats();
    assert!(
        hits > 0 && misses > 0,
        "warm-up should exercise the inline caches"
    );

    check_golden("editor", editor());
}

/// The what-if sweep's documented invariant, on every golden: its
/// `recorded` control variant re-decides the recorded run exactly (full
/// agreement and wins, no regret, the baseline's decisions), and the
/// parallel driver reports each variant as a sequential replay of it
/// decides.
#[test]
fn what_if_sweep_keeps_its_control_and_the_sequential_decisions() {
    for name in ["editor", "chain", "mesh", "gc", "fleet"] {
        let trace = load(golden_path(name)).expect("golden loads");
        let variants = default_variants(&trace);
        let report = sweep(&trace, &variants).expect("golden sweeps");
        assert_eq!(report.variants.len(), variants.len(), "{name}");

        let control = &report.variants[0];
        assert_eq!(control.name, "recorded", "{name}");
        assert_eq!(control.agreement_with_baseline, 1.0, "{name}");
        assert_eq!(control.win_fraction, 1.0, "{name}");
        assert_eq!(control.regret_bytes, 0, "{name}");
        assert_eq!(control.decisions, report.baseline.decisions, "{name}");

        let config = &trace.header.config;
        for (variant, outcome) in variants.iter().zip(&report.variants) {
            let policy = variant.policy.build(config.comm, config.surrogate_speed);
            let timeline = replay_with(&trace, policy.as_ref()).expect("replays");
            assert_eq!(
                outcome.decisions,
                decision_outcomes(&timeline),
                "{name}: {}",
                variant.name
            );
        }
    }
}
