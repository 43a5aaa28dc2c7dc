//! Golden monitor-event fixtures for the register VM.
//!
//! The VM batches hook dispatch, so these tests pin down the one thing
//! batching must not change: the exact event stream. A fixed program
//! covering every event type is executed and checked against an in-code
//! expected stream, written out by hand, *and* a checked-in JSON fixture;
//! its summaries, with monitoring off and on, against committed
//! verdicts (`tests/fixtures/verdicts/golden_events.*.txt`). Regenerate
//! both after an intentional change with:
//!
//! ```sh
//! AIDE_BLESS=1 cargo test -p aide-vm --test golden_events
//! ```

mod support;

use std::path::PathBuf;
use std::sync::Arc;

use aide_vm::{
    ClassId, Interaction, InteractionKind, Machine, MethodDef, MethodId, NativeKind, ObjectId, Op,
    Program, ProgramBuilder, Reg, RunSummary, VmConfig, VmError, VmResult,
};
use support::Ev;

fn run(program: &Arc<Program>) -> (VmResult<RunSummary>, Vec<Ev>) {
    support::run(program, VmConfig::client(1 << 22))
}

/// A fixed program whose run touches every event type: allocation, work,
/// field reads/writes, repeated dynamic calls, a static call, a native,
/// and a static-data access.
fn golden_program() -> (Arc<Program>, MethodId, MethodId, MethodId) {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main"); // ClassId(0)
    let helper = b.add_class("Helper"); // ClassId(1)
    let util = b.add_class("Util"); // ClassId(2)
    let help = b.add_method(
        helper,
        MethodDef::new("help", vec![Op::Work { micros: 100 }]),
    );
    let boot = b.add_method(
        util,
        MethodDef::new_static("boot", vec![Op::Work { micros: 50 }]),
    );
    let entry = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: helper,
                    scalar_bytes: 100,
                    ref_slots: 2,
                    dst: Reg(0),
                },
                Op::Work { micros: 500 },
                Op::Write {
                    obj: Reg(0),
                    bytes: 64,
                },
                Op::Read {
                    obj: Reg(0),
                    bytes: 32,
                },
                Op::Repeat {
                    n: 2,
                    body: vec![Op::Call {
                        obj: Reg(0),
                        class: helper,
                        method: help,
                        arg_bytes: 8,
                        ret_bytes: 4,
                        args: vec![],
                    }],
                },
                Op::CallStatic {
                    class: util,
                    method: boot,
                    arg_bytes: 6,
                    ret_bytes: 2,
                    args: vec![],
                },
                Op::Native {
                    kind: NativeKind::Math,
                    work_micros: 10,
                    arg_bytes: 4,
                    ret_bytes: 4,
                },
                Op::GetStatic {
                    class: util,
                    bytes: 16,
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, entry, 64, 4).expect("golden program builds"));
    (program, entry, help, boot)
}

fn interaction(
    caller: u32,
    callee: u32,
    target: Option<u64>,
    kind: InteractionKind,
    bytes: u64,
) -> Ev {
    Ev::Interaction(Interaction {
        caller: ClassId(caller),
        callee: ClassId(callee),
        target: target.map(ObjectId),
        kind,
        bytes,
        remote: false,
    })
}

/// The exact stream the golden program must produce, written out by hand.
/// Entry object: 16-byte header + 64 scalar + 4 slots * 8 = 112 bytes.
/// Helper object: 16 + 100 + 2 * 8 = 132 bytes.
fn expected_events(entry: MethodId, help: MethodId, boot: MethodId) -> Vec<Ev> {
    use InteractionKind::{FieldAccess, Invocation};
    vec![
        Ev::Alloc {
            class: ClassId(0),
            object: ObjectId(0),
            bytes: 112,
        },
        Ev::Alloc {
            class: ClassId(1),
            object: ObjectId(1),
            bytes: 132,
        },
        Ev::Work {
            class: ClassId(0),
            micros: 500.0,
        },
        interaction(0, 1, Some(1), FieldAccess, 64),
        interaction(0, 1, Some(1), FieldAccess, 32),
        interaction(0, 1, Some(1), Invocation, 12),
        Ev::Work {
            class: ClassId(1),
            micros: 100.0,
        },
        Ev::MethodExit {
            class: ClassId(1),
            method: help,
        },
        interaction(0, 1, Some(1), Invocation, 12),
        Ev::Work {
            class: ClassId(1),
            micros: 100.0,
        },
        Ev::MethodExit {
            class: ClassId(1),
            method: help,
        },
        interaction(0, 2, None, Invocation, 8),
        Ev::Work {
            class: ClassId(2),
            micros: 50.0,
        },
        Ev::MethodExit {
            class: ClassId(2),
            method: boot,
        },
        Ev::Native {
            caller: ClassId(0),
            kind: NativeKind::Math,
            work_micros: 10,
            bytes: 8,
            remote: false,
        },
        Ev::StaticAccess {
            accessor: ClassId(0),
            class: ClassId(2),
            bytes: 16,
            remote: false,
        },
        Ev::MethodExit {
            class: ClassId(0),
            method: entry,
        },
    ]
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("vm_events.golden.json")
}

#[test]
fn golden_event_stream_matches_fixture_in_both_modes() {
    let (program, entry, help, boot) = golden_program();
    let expected = expected_events(entry, help, boot);

    let (result, events) = run(&program);
    result.expect("run succeeds");
    assert_eq!(events, expected, "event stream drifted from golden");

    let path = fixture_path();
    if std::env::var_os("AIDE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        let mut json = serde_json::to_string_pretty(&expected).expect("serialize fixture");
        json.push('\n');
        std::fs::write(&path, json).expect("bless fixture");
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} unreadable: {e} (re-bless with AIDE_BLESS=1)",
            path.display()
        )
    });
    let loaded: Vec<Ev> = serde_json::from_str(&on_disk).expect("fixture parses");
    assert_eq!(
        loaded, expected,
        "checked-in fixture drifted; re-bless with AIDE_BLESS=1"
    );
}

#[test]
fn golden_summaries_agree_across_modes() {
    let (program, ..) = golden_program();
    let (summary, events) = run(&program);
    support::check_verdicts(
        "golden_events.monitoring_off.txt",
        &[support::verdict("golden program", &summary, &events)],
    );
    let summary = summary.expect("run succeeds");
    // 12 logical ops: 8 in main (Repeat is not an op), 2 Calls' Work
    // bodies, 1 static Work. Loop/Return control ops must not be counted.
    assert_eq!(summary.ops_executed, 12);
    assert!(summary.mutator_seconds > 0.0);
    // Monitoring is off in the default cost model.
    assert_eq!(summary.hook_seconds, 0.0);
    assert!((summary.cpu_seconds - (summary.mutator_seconds + summary.hook_seconds)).abs() < 1e-18);
}

#[test]
fn hook_seconds_split_out_when_monitoring_is_on() {
    let (program, ..) = golden_program();
    let mut config = VmConfig::client(1 << 22);
    config.cost.monitor_event_micros = 1.0;
    let (summary, events) = support::run(&program, config);
    support::check_verdicts(
        "golden_events.monitoring_on.txt",
        &[support::verdict("golden program", &summary, &events)],
    );
    let summary = summary.expect("run succeeds");
    // Every monitor event costs exactly 1 µs of hook time — except method
    // exits, which are call-tree bookkeeping and never monitor-charged.
    let charged = events
        .iter()
        .filter(|e| !matches!(e, Ev::MethodExit { .. }))
        .count();
    let expected_hook = charged as f64 * 1.0 / 1e6;
    assert!(
        (summary.hook_seconds - expected_hook).abs() < 1e-15,
        "hook_seconds {} != events * 1µs {}",
        summary.hook_seconds,
        expected_hook
    );
    assert!(summary.mutator_seconds > 0.0);
}

#[test]
fn monomorphic_sites_hit_after_first_touch() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let data = b.add_class("Data");
    let entry = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: data,
                    scalar_bytes: 64,
                    ref_slots: 0,
                    dst: Reg(0),
                },
                Op::Repeat {
                    n: 100,
                    body: vec![Op::Read {
                        obj: Reg(0),
                        bytes: 8,
                    }],
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, entry, 16, 0).unwrap());
    let machine = Machine::with_hooks(
        program,
        VmConfig::client(1 << 20),
        Arc::new(aide_vm::NullHooks),
    );
    let summary = machine.run_entry().expect("run succeeds");
    let (hits, misses) = machine.vm().lock().ic_stats();
    assert_eq!(misses, 1, "one cold miss fills the Read site");
    assert_eq!(hits, 99, "remaining iterations are single-compare hits");
    assert!(summary.ops_executed >= 101);
}

#[test]
fn migration_bumps_epoch_and_flushes_inline_caches() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let poke = b.add_method(
        main,
        MethodDef::new(
            "poke",
            vec![Op::Read {
                obj: Reg(0),
                bytes: 8,
            }],
        ),
    );
    let entry = b.add_method(main, MethodDef::new("main", vec![]));
    let program = Arc::new(b.build(main, entry, 32, 0).unwrap());
    let machine = Machine::with_hooks(
        program,
        VmConfig::client(1 << 20),
        Arc::new(aide_vm::NullHooks),
    );
    machine.run_entry().expect("entry runs");
    let target = ObjectId(0); // the entry object stays live after the run

    machine
        .call_on(target, main, poke, &[target])
        .expect("first poke");
    machine
        .call_on(target, main, poke, &[target])
        .expect("second poke");
    let (hits, misses) = machine.vm().lock().ic_stats();
    assert_eq!(misses, 1, "first poke fills the site");
    assert_eq!(hits, 1, "second poke hits the warm cache");

    // Migrate the object out and back: locality may have changed, so the
    // warm answer must not be trusted again without a fresh heap probe.
    {
        let mut vm = machine.vm().lock();
        let epoch_before = vm.heap().locality_epoch();
        let record = vm.heap_mut().migrate_out(target).expect("migrate out");
        vm.heap_mut()
            .migrate_in(target, record)
            .expect("migrate in");
        assert_eq!(vm.heap().locality_epoch(), epoch_before + 2);
    }
    machine
        .call_on(target, main, poke, &[target])
        .expect("post-migration poke");
    let (hits_after, misses_after) = machine.vm().lock().ic_stats();
    assert_eq!(
        misses_after, 2,
        "stale epoch must force a miss after migration"
    );
    assert_eq!(hits_after, 1);
}

#[test]
fn errors_match_across_modes() {
    // Reading an empty register fails, as the seed tree-walker did: the
    // entry object is allocated (16-byte header + 16 scalar bytes), then
    // the unwound frame exits.
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let entry = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![Op::Read {
                obj: Reg(5),
                bytes: 8,
            }],
        ),
    );
    let program = Arc::new(b.build(main, entry, 16, 0).unwrap());
    let (result, events) = run(&program);
    assert_eq!(result.unwrap_err(), VmError::NullRegister(Reg(5)));
    assert_eq!(
        events,
        vec![
            Ev::Alloc {
                class: main,
                object: ObjectId(0),
                bytes: 32,
            },
            Ev::MethodExit {
                class: main,
                method: entry,
            },
        ]
    );
}
