//! Behavioural tests of the interpreter: execution, accounting, GC
//! interplay, natives, statics, and error paths.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use aide_telemetry::sync::Mutex;
use aide_vm::{
    ClassId, CountingHooks, GcConfig, Interaction, InteractionKind, Machine, MethodDef, MethodId,
    NativeKind, ObjectId, Op, ProgramBuilder, Reg, RuntimeHooks, VmConfig, VmError,
};

/// Collects full interaction events for fine-grained assertions.
#[derive(Default)]
struct EventLog {
    interactions: Mutex<Vec<Interaction>>,
    natives: Mutex<Vec<(ClassId, NativeKind, bool)>>,
    work: Mutex<Vec<(ClassId, f64)>>,
    gc_free_fracs: Mutex<Vec<f64>>,
}

impl RuntimeHooks for EventLog {
    fn on_interaction(&self, event: Interaction) {
        self.interactions.lock().push(event);
    }
    fn on_native(&self, caller: ClassId, kind: NativeKind, _work: u32, _bytes: u64, remote: bool) {
        self.natives.lock().push((caller, kind, remote));
    }
    fn on_work(&self, class: ClassId, micros: f64) {
        self.work.lock().push((class, micros));
    }
    fn on_gc(&self, report: &aide_vm::GcReport) {
        self.gc_free_fracs.lock().push(report.free_fraction());
    }
}

fn run_with_log(
    build: impl FnOnce(&mut ProgramBuilder) -> (ClassId, MethodId),
    config: VmConfig,
) -> (aide_vm::RunSummary, Arc<EventLog>) {
    let mut b = ProgramBuilder::new();
    let (entry_class, entry_method) = build(&mut b);
    let program = Arc::new(b.build(entry_class, entry_method, 64, 4).unwrap());
    let log = Arc::new(EventLog::default());
    let machine = Machine::with_hooks(program, config, log.clone());
    let summary = machine.run_entry().unwrap();
    (summary, log)
}

#[test]
fn work_advances_clock_and_attributes_to_class() {
    let (summary, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let m = b.add_method(
                main,
                MethodDef::new("main", vec![Op::Work { micros: 2_000 }]),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    // 2000 µs of work + small alloc/invoke overheads.
    assert!(summary.cpu_seconds >= 2e-3);
    assert!(summary.cpu_seconds < 2.2e-3);
    let work = log.work.lock();
    assert_eq!(work.len(), 1);
    assert_eq!(work[0], (ClassId(0), 2_000.0));
}

#[test]
fn surrogate_speed_factor_divides_cpu_time() {
    let fast = VmConfig {
        speed_factor: 4.0,
        ..VmConfig::client(1 << 20)
    };
    let (summary, _) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let m = b.add_method(
                main,
                MethodDef::new("main", vec![Op::Work { micros: 4_000 }]),
            );
            (main, m)
        },
        fast,
    );
    assert!(summary.cpu_seconds >= 1e-3);
    assert!(summary.cpu_seconds < 1.1e-3);
}

#[test]
fn calls_record_interactions_between_classes() {
    let (_, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let helper = b.add_class("Helper");
            let hm = b.add_method(helper, MethodDef::new("help", vec![Op::Work { micros: 1 }]));
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![
                        Op::New {
                            class: helper,
                            scalar_bytes: 16,
                            ref_slots: 0,
                            dst: Reg(0),
                        },
                        Op::Repeat {
                            n: 3,
                            body: vec![Op::Call {
                                obj: Reg(0),
                                class: helper,
                                method: hm,
                                arg_bytes: 10,
                                ret_bytes: 6,
                                args: vec![],
                            }],
                        },
                    ],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    let ints = log.interactions.lock();
    assert_eq!(ints.len(), 3);
    for i in ints.iter() {
        assert_eq!(i.caller, ClassId(0));
        assert_eq!(i.callee, ClassId(1));
        assert_eq!(i.kind, InteractionKind::Invocation);
        assert_eq!(i.bytes, 16);
        assert!(!i.remote);
        assert!(i.target.is_some());
    }
}

#[test]
fn reads_and_writes_record_field_accesses() {
    let (_, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let data = b.add_class("Data");
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![
                        Op::New {
                            class: data,
                            scalar_bytes: 100,
                            ref_slots: 0,
                            dst: Reg(0),
                        },
                        Op::Read {
                            obj: Reg(0),
                            bytes: 40,
                        },
                        Op::Write {
                            obj: Reg(0),
                            bytes: 24,
                        },
                    ],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    let ints = log.interactions.lock();
    assert_eq!(ints.len(), 2);
    assert!(ints
        .iter()
        .all(|i| i.kind == InteractionKind::FieldAccess && !i.remote));
    assert_eq!(ints[0].bytes, 40);
    assert_eq!(ints[1].bytes, 24);
}

#[test]
fn same_class_field_accesses_are_not_recorded() {
    // The paper: "Information is recorded only for interactions between two
    // different classes."
    let (_, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![
                        Op::New {
                            class: main,
                            scalar_bytes: 8,
                            ref_slots: 0,
                            dst: Reg(0),
                        },
                        Op::Read {
                            obj: Reg(0),
                            bytes: 4,
                        },
                    ],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    assert!(log.interactions.lock().is_empty());
}

#[test]
fn slot_wiring_builds_reachable_object_graph() {
    // main creates A and B, stores B into A's slot, clears both registers;
    // GC must keep B alive through A while A is registered in a slot of the
    // entry object.
    let (summary, _) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let node = b.add_class("Node");
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![
                        Op::New {
                            class: node,
                            scalar_bytes: 50_000,
                            ref_slots: 1,
                            dst: Reg(0),
                        },
                        Op::New {
                            class: node,
                            scalar_bytes: 50_000,
                            ref_slots: 1,
                            dst: Reg(1),
                        },
                        // A.slots[0] = B
                        Op::PutSlotOf {
                            obj: Reg(0),
                            slot: 0,
                            src: Reg(1),
                        },
                        // self.slots[0] = A
                        Op::PutSlot {
                            slot: 0,
                            src: Reg(0),
                        },
                        Op::Clear { reg: Reg(0) },
                        Op::Clear { reg: Reg(1) },
                        // Force heavy allocation so the GC runs; A and B must
                        // survive because they hang off the entry object.
                        Op::Repeat {
                            n: 200,
                            body: vec![Op::New {
                                class: node,
                                scalar_bytes: 10_000,
                                ref_slots: 0,
                                dst: Reg(2),
                            }],
                        },
                    ],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20), // 1 MiB heap: garbage must be collected
    );
    // Entry + A + B survive every collection; temporaries allocated since
    // the last cycle may still linger (garbage dies at cycles, not at drop).
    assert!(summary.objects_live >= 3);
    assert!(summary.gc_cycles >= 1);
    assert!(summary.heap_used >= 100_000);
}

#[test]
fn unreferenced_allocations_die_and_heap_survives_beyond_capacity_total() {
    // Allocate 4 MiB total through a 1 MiB heap.
    let (summary, _) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let buf = b.add_class("Buf");
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![Op::Repeat {
                        n: 400,
                        body: vec![Op::New {
                            class: buf,
                            scalar_bytes: 10_000,
                            ref_slots: 0,
                            dst: Reg(0),
                        }],
                    }],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    assert_eq!(summary.objects_allocated, 401);
    // The heap never exceeded its capacity even though 4 MiB flowed through.
    assert!(summary.heap_used <= 1 << 20);
    assert!(summary.objects_live <= 110, "live bounded by heap capacity");
}

#[test]
fn out_of_memory_is_reported_when_all_objects_are_live() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let buf = b.add_class("Buf");
    let m = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![Op::Repeat {
                n: 100,
                body: vec![
                    Op::New {
                        class: buf,
                        scalar_bytes: 50_000,
                        ref_slots: 1,
                        dst: Reg(1),
                    },
                    // Chain each buffer to the previous one and anchor the
                    // chain in the entry object: nothing can be collected.
                    Op::PutSlotOf {
                        obj: Reg(1),
                        slot: 0,
                        src: Reg(0),
                    },
                    Op::PutSlot {
                        slot: 0,
                        src: Reg(1),
                    },
                    Op::Clear { reg: Reg(0) },
                    // Move the new head into r0 for the next iteration.
                    Op::GetSlot {
                        slot: 0,
                        dst: Reg(0),
                    },
                ],
            }],
        ),
    );
    // First iteration: PutSlotOf writes a null (r0 empty) — permitted? No:
    // PutSlotOf reads the src register which may be empty; that stores None.
    let program = Arc::new(b.build(main, m, 64, 4).unwrap());
    let machine = Machine::new(program, VmConfig::client(1 << 20));
    let err = machine.run_entry().unwrap_err();
    match err {
        VmError::OutOfMemory { free, .. } => {
            assert!(free < 50_016, "OOM only when nothing reclaimable fits");
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

#[test]
fn natives_run_locally_on_client_and_are_logged() {
    let (_, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![
                        Op::Native {
                            kind: NativeKind::Math,
                            work_micros: 10,
                            arg_bytes: 8,
                            ret_bytes: 8,
                        },
                        Op::Native {
                            kind: NativeKind::Framebuffer,
                            work_micros: 50,
                            arg_bytes: 128,
                            ret_bytes: 0,
                        },
                    ],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    let natives = log.natives.lock();
    assert_eq!(natives.len(), 2);
    assert!(natives.iter().all(|&(_, _, remote)| !remote));
    assert_eq!(natives[0].1, NativeKind::Math);
    assert_eq!(natives[1].1, NativeKind::Framebuffer);
}

#[test]
fn static_methods_execute_without_receiver() {
    let (_, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let util = b.add_class("Util");
            let sm = b.add_method(
                util,
                MethodDef::new_static("helper", vec![Op::Work { micros: 7 }]),
            );
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![Op::CallStatic {
                        class: util,
                        method: sm,
                        arg_bytes: 4,
                        ret_bytes: 4,
                        args: vec![],
                    }],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    let ints = log.interactions.lock();
    assert_eq!(ints.len(), 1);
    assert_eq!(ints[0].kind, InteractionKind::Invocation);
    assert_eq!(ints[0].target, None);
    // Work inside the static method is attributed to Util, not Main.
    let work = log.work.lock();
    assert_eq!(work[0].0, ClassId(1));
}

#[test]
fn static_data_accesses_are_counted() {
    let (_, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let sys = b.add_class("SystemProps");
            b.set_static_bytes(sys, 2_048);
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![
                        Op::GetStatic {
                            class: sys,
                            bytes: 64,
                        },
                        Op::PutStatic {
                            class: sys,
                            bytes: 32,
                        },
                    ],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    // Recorded via on_static_access, not on_interaction.
    assert!(log.interactions.lock().is_empty());
}

#[test]
fn class_mismatch_is_detected() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let a = b.add_class("A");
    let bc = b.add_class("B");
    let bm = b.add_method(bc, MethodDef::new("m", vec![]));
    let m = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: a,
                    scalar_bytes: 8,
                    ref_slots: 0,
                    dst: Reg(0),
                },
                // Call B::m on an A instance.
                Op::Call {
                    obj: Reg(0),
                    class: bc,
                    method: bm,
                    arg_bytes: 0,
                    ret_bytes: 0,
                    args: vec![],
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, m, 64, 4).unwrap());
    let machine = Machine::new(program, VmConfig::client(1 << 20));
    assert!(matches!(
        machine.run_entry().unwrap_err(),
        VmError::ClassMismatch { .. }
    ));
}

#[test]
fn null_register_and_bad_slot_errors() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let m = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![Op::Read {
                obj: Reg(3),
                bytes: 1,
            }],
        ),
    );
    let program = Arc::new(b.build(main, m, 64, 4).unwrap());
    let machine = Machine::new(program, VmConfig::client(1 << 20));
    assert!(matches!(
        machine.run_entry().unwrap_err(),
        VmError::NullRegister(Reg(3))
    ));

    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let m = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![Op::GetSlot {
                slot: 99,
                dst: Reg(0),
            }],
        ),
    );
    let program = Arc::new(b.build(main, m, 64, 2).unwrap());
    let machine = Machine::new(program, VmConfig::client(1 << 20));
    assert!(matches!(
        machine.run_entry().unwrap_err(),
        VmError::SlotOutOfRange { slot: 99, .. }
    ));
}

#[test]
fn recursion_limit_is_enforced() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    // main calls itself on the entry object forever.
    let m = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: main,
                    scalar_bytes: 8,
                    ref_slots: 0,
                    dst: Reg(0),
                },
                Op::Call {
                    obj: Reg(0),
                    class: main,
                    method: MethodId(0),
                    arg_bytes: 0,
                    ret_bytes: 0,
                    args: vec![],
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, m, 64, 4).unwrap());
    let machine = Machine::new(program, VmConfig::client(100 << 20));
    assert!(matches!(
        machine.run_entry().unwrap_err(),
        VmError::CallDepthExceeded(_)
    ));
}

#[test]
fn argument_registers_are_passed_to_callee() {
    // main creates Data, passes it to Helper::use(data) which reads it —
    // the interaction caller must be Helper, proving args arrived.
    let (_, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let helper = b.add_class("Helper");
            let data = b.add_class("Data");
            let hm = b.add_method(
                helper,
                MethodDef::new(
                    "use",
                    vec![Op::Read {
                        obj: Reg(0), // first argument register
                        bytes: 12,
                    }],
                ),
            );
            let m = b.add_method(
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
                        Op::New {
                            class: helper,
                            scalar_bytes: 16,
                            ref_slots: 0,
                            dst: Reg(1),
                        },
                        Op::Call {
                            obj: Reg(1),
                            class: helper,
                            method: hm,
                            arg_bytes: 8,
                            ret_bytes: 0,
                            args: vec![Reg(0)],
                        },
                    ],
                ),
            );
            (main, m)
        },
        VmConfig::client(1 << 20),
    );
    let ints = log.interactions.lock();
    let read = ints
        .iter()
        .find(|i| i.kind == InteractionKind::FieldAccess)
        .expect("helper read the data");
    assert_eq!(read.caller, ClassId(1)); // Helper
    assert_eq!(read.callee, ClassId(2)); // Data
}

#[test]
fn monitor_event_cost_slows_the_clock() {
    let build = |b: &mut ProgramBuilder| {
        let main = b.add_class("Main");
        let data = b.add_class("Data");
        let m = b.add_method(
            main,
            MethodDef::new(
                "main",
                vec![
                    Op::New {
                        class: data,
                        scalar_bytes: 8,
                        ref_slots: 0,
                        dst: Reg(0),
                    },
                    Op::Repeat {
                        n: 1_000,
                        body: vec![Op::Read {
                            obj: Reg(0),
                            bytes: 4,
                        }],
                    },
                ],
            ),
        );
        (main, m)
    };
    let base = VmConfig::client(1 << 20);
    let mut monitored = base;
    monitored.cost.monitor_event_micros = 1.0;
    let (off, _) = run_with_log(build, base);
    let (on, _) = run_with_log(build, monitored);
    assert!(on.cpu_seconds > off.cpu_seconds);
    // ~1000 monitored events at 1 µs each ≈ 1 ms extra.
    assert!(on.cpu_seconds - off.cpu_seconds > 0.9e-3);
}

#[test]
fn gc_reports_reach_hooks_with_free_fractions() {
    let (_, log) = run_with_log(
        |b| {
            let main = b.add_class("Main");
            let buf = b.add_class("Buf");
            let m = b.add_method(
                main,
                MethodDef::new(
                    "main",
                    vec![Op::Repeat {
                        n: 2_000,
                        body: vec![Op::New {
                            class: buf,
                            scalar_bytes: 1_000,
                            ref_slots: 0,
                            dst: Reg(0),
                        }],
                    }],
                ),
            );
            (main, m)
        },
        VmConfig {
            gc: GcConfig {
                trigger_alloc_count: 100,
                trigger_alloc_bytes: u64::MAX,
                cost_micros_per_object: 0.05,
            },
            ..VmConfig::client(1 << 20)
        },
    );
    let fracs = log.gc_free_fracs.lock();
    assert!(
        fracs.len() >= 10,
        "periodic trigger fired {} times",
        fracs.len()
    );
    assert!(fracs.iter().all(|f| (0.0..=1.0).contains(f)));
}

#[test]
fn counting_hooks_tally_event_volumes() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let d = b.add_class("D");
    let m = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: d,
                    scalar_bytes: 10,
                    ref_slots: 0,
                    dst: Reg(0),
                },
                Op::Repeat {
                    n: 5,
                    body: vec![Op::Read {
                        obj: Reg(0),
                        bytes: 2,
                    }],
                },
                Op::Native {
                    kind: NativeKind::StringOp,
                    work_micros: 1,
                    arg_bytes: 16,
                    ret_bytes: 16,
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, m, 64, 4).unwrap());
    let hooks = Arc::new(CountingHooks::new());
    let machine = Machine::with_hooks(program, VmConfig::client(1 << 20), hooks.clone());
    machine.run_entry().unwrap();
    assert_eq!(hooks.allocs.load(Ordering::Relaxed), 2);
    assert_eq!(hooks.interactions.load(Ordering::Relaxed), 5);
    assert_eq!(hooks.natives.load(Ordering::Relaxed), 1);
}

#[test]
fn dangling_reference_without_peer_is_an_error() {
    // Craft a machine and poke a nonexistent object through the public
    // peer-serving API.
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let m = b.add_method(main, MethodDef::new("main", vec![]));
    let program = Arc::new(b.build(main, m, 64, 4).unwrap());
    let machine = Machine::new(program, VmConfig::client(1 << 20));
    let ghost = ObjectId::surrogate(42);
    assert!(matches!(
        machine.field_access_on(ghost, 8, false).unwrap_err(),
        VmError::DanglingReference(_)
    ));
    assert!(matches!(
        machine.class_of_local(ghost).unwrap_err(),
        VmError::DanglingReference(_)
    ));
}

#[test]
fn external_roots_pin_objects_across_collections() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let m = b.add_method(main, MethodDef::new("main", vec![]));
    let program = Arc::new(b.build(main, m, 64, 4).unwrap());
    let machine = Machine::new(program, VmConfig::client(1 << 20));
    machine.run_entry().unwrap();

    let vm = machine.vm();
    let (exported, report_pinned, report_released) = {
        let mut vm = vm.lock();
        // Simulate the RPC layer exporting an object to the peer.
        let id = {
            let heap = vm.heap_mut();
            let id = ObjectId::client(999_999);
            heap.insert(id, aide_vm::ObjectRecord::new(ClassId(0), 100, 0))
                .unwrap();
            id
        };
        vm.external_root_inc(id);
        let pinned = vm.collect_now();
        vm.external_root_dec(id);
        let released = vm.collect_now();
        (id, pinned, released)
    };
    assert_eq!(report_pinned.freed_objects, 1); // only the dead entry object
    assert_eq!(report_released.freed_objects, 1); // now the exported one dies
    assert!(!vm.lock().heap().contains(exported));
}
