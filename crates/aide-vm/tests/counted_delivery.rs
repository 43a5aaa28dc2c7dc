//! The seam between the interpreter and a sink that accumulates
//! ([`RuntimeHooks::accumulates`]). Such a sink is told an inline-cache hit
//! as part of a [`PendingEvent::Counted`], a class's repeated `Work` as one
//! sum, and no method exits or local natives and static accesses; what it
//! folds must equal what it would fold from the per-event stream, and it
//! must have folded it before anything that could read it runs. A chain
//! with one member that wants every event gets the per-event stream whole.

mod support;

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use aide_telemetry::sync::Mutex;

use aide_vm::{
    ClassId, GcReport, HookChain, Interaction, Machine, MethodDef, MethodId, NativeKind, ObjectId,
    Op, PendingEvent, Program, ProgramBuilder, Reg, RemoteAccess, RunSummary, RuntimeHooks, Vm,
    VmConfig, VmKind, VmResult,
};
use support::{Ev, Recorder};

/// What a monitor-like sink folds from a stream: counts per distinct
/// interaction, `Work` microseconds per class, and the remote natives and
/// static accesses.
#[derive(Debug, Default, Clone, PartialEq)]
struct Folded {
    interactions: BTreeMap<String, u64>,
    work: BTreeMap<ClassId, f64>,
    remote_natives: u64,
    remote_statics: u64,
    gcs: u64,
}

impl Folded {
    fn interaction(&mut self, i: Interaction, n: u64) {
        *self.interactions.entry(format!("{i:?}")).or_default() += n;
    }

    fn work(&mut self, class: ClassId, micros: f64) {
        *self.work.entry(class).or_default() += micros;
    }

    /// The per-event stream of a [`Recorder`], folded.
    fn of(events: &[Ev]) -> Folded {
        let mut f = Folded::default();
        for e in events {
            match *e {
                Ev::Interaction(i) => f.interaction(i, 1),
                Ev::Work { class, micros } => f.work(class, micros),
                Ev::Native { remote: true, .. } => f.remote_natives += 1,
                Ev::StaticAccess { remote: true, .. } => f.remote_statics += 1,
                Ev::Gc { .. } => f.gcs += 1,
                _ => {}
            }
        }
        f
    }
}

/// An accumulating sink that folds what it is told and keeps every slice;
/// `on_alloc` may run a test's action.
#[derive(Default)]
struct Sums {
    folded: Mutex<Folded>,
    slices: Mutex<Vec<Vec<PendingEvent>>>,
    on_alloc: OnceLock<Box<dyn Fn(ClassId) + Send + Sync>>,
}

impl Sums {
    fn folded(&self) -> Folded {
        self.folded.lock().clone()
    }

    fn slices(&self) -> Vec<PendingEvent> {
        self.slices.lock().concat()
    }
}

impl RuntimeHooks for Sums {
    fn on_alloc(&self, class: ClassId, _: ObjectId, _: u64) {
        if let Some(action) = self.on_alloc.get() {
            action(class);
        }
    }

    fn on_gc(&self, _: &GcReport) {
        self.folded.lock().gcs += 1;
    }

    fn on_events(&self, events: &[PendingEvent]) {
        self.slices.lock().push(events.to_vec());
        let mut f = self.folded.lock();
        for &event in events {
            match event {
                PendingEvent::Interaction(i) => f.interaction(i, 1),
                PendingEvent::Counted { interaction, count } => {
                    f.interaction(interaction, u64::from(count));
                }
                PendingEvent::Work { class, micros } => f.work(class, micros),
                PendingEvent::Native { remote: true, .. } => f.remote_natives += 1,
                PendingEvent::StaticAccess { remote: true, .. } => f.remote_statics += 1,
                _ => {}
            }
        }
    }

    fn needs_work_boundary(&self) -> bool {
        false
    }

    fn accumulates(&self) -> bool {
        true
    }
}

/// Calls, reads and work on two helpers in nested loops, with natives,
/// static accesses and garbage under a tight heap (collections mid-run).
fn program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let helper = b.add_class("Helper");
    let help = b.add_method(
        helper,
        MethodDef::new(
            "help",
            vec![
                Op::Work { micros: 10 },
                Op::Read {
                    obj: Reg(0),
                    bytes: 8,
                },
                Op::Native {
                    kind: NativeKind::Math,
                    work_micros: 2,
                    arg_bytes: 4,
                    ret_bytes: 4,
                },
            ],
        ),
    );
    let entry = b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: helper,
                    scalar_bytes: 32,
                    ref_slots: 0,
                    dst: Reg(1),
                },
                Op::New {
                    class: main,
                    scalar_bytes: 32,
                    ref_slots: 0,
                    dst: Reg(2),
                },
                Op::Repeat {
                    n: 40,
                    body: vec![
                        Op::New {
                            class: helper,
                            scalar_bytes: 200,
                            ref_slots: 0,
                            dst: Reg(0),
                        },
                        Op::Repeat {
                            n: 30,
                            body: vec![
                                Op::Call {
                                    obj: Reg(1),
                                    class: helper,
                                    method: help,
                                    arg_bytes: 8,
                                    ret_bytes: 0,
                                    args: vec![Reg(2)],
                                },
                                Op::Write {
                                    obj: Reg(0),
                                    bytes: 16,
                                },
                                Op::Work { micros: 3 },
                            ],
                        },
                        Op::GetStatic {
                            class: helper,
                            bytes: 16,
                        },
                    ],
                },
            ],
        ),
    );
    Arc::new(b.build(main, entry, 64, 0).expect("program builds"))
}

fn config() -> VmConfig {
    let mut config = VmConfig::client(2_048);
    config.cost.monitor_event_micros = 0.7;
    config
}

fn run(hooks: Arc<dyn RuntimeHooks>) -> VmResult<RunSummary> {
    Machine::with_hooks(program(), config(), hooks).run_entry()
}

#[test]
fn a_chain_with_one_per_event_member_gets_every_event() {
    let (reference, expected) = support::run(&program(), config());
    let sums = Arc::new(Sums::default());
    let recorder = Arc::new(Recorder::default());
    let chain = HookChain::new(vec![sums.clone(), recorder.clone()]);
    assert!(!chain.accumulates());
    let outcome = run(Arc::new(chain));
    assert_eq!(outcome, reference);
    assert_eq!(recorder.events(), expected);
    // The accumulating member shares the per-event slices.
    let told = sums.slices();
    assert!(!told
        .iter()
        .any(|e| matches!(e, PendingEvent::Counted { .. })));
    assert!(told
        .iter()
        .any(|e| matches!(e, PendingEvent::MethodExit { .. })));
    assert_eq!(sums.folded(), Folded::of(&expected));
}

#[test]
fn an_accumulating_sink_is_told_sums_and_no_exits_or_local_natives() {
    let (reference, expected) = support::run(&program(), config());
    let sums = Arc::new(Sums::default());
    let outcome = run(sums.clone());
    // The clock is charged per event either way.
    assert_eq!(outcome, reference);
    let folded = sums.folded();
    assert_eq!(folded, Folded::of(&expected));
    assert!(folded.gcs > 0, "the tight heap collects mid-run");

    let told = sums.slices();
    assert!(!told.iter().any(|e| matches!(
        e,
        PendingEvent::MethodExit { .. }
            | PendingEvent::Native { remote: false, .. }
            | PendingEvent::StaticAccess { remote: false, .. }
    )));
    let counted: u64 = told
        .iter()
        .map(|e| match e {
            PendingEvent::Counted { count, .. } => u64::from(*count),
            _ => 0,
        })
        .sum();
    let per_event = expected
        .iter()
        .filter(|e| matches!(e, Ev::Interaction(_)))
        .count();
    assert!(
        counted as usize > per_event / 2,
        "most interactions are hits: {counted} of {per_event}"
    );
    // A class's first `Work` is told as it happens; the rest in sums.
    let told_works = told
        .iter()
        .filter(|e| matches!(e, PendingEvent::Work { .. }))
        .count();
    let works = expected
        .iter()
        .filter(|e| matches!(e, Ev::Work { .. }))
        .count();
    assert!(told_works * 10 < works, "{told_works} of {works}");
}

#[test]
fn a_count_survives_an_epoch_bump_and_is_settled_at_the_next_fill() {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let data = b.add_class("Data");
    let bystander = b.add_class("Bystander");
    let trigger = b.add_class("Trigger");
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
                Op::New {
                    class: bystander,
                    scalar_bytes: 64,
                    ref_slots: 0,
                    dst: Reg(1),
                },
                Op::Repeat {
                    n: 2,
                    body: vec![
                        Op::Repeat {
                            n: 10,
                            body: vec![Op::Read {
                                obj: Reg(0),
                                bytes: 8,
                            }],
                        },
                        // Its allocation migrates the bystander away.
                        Op::New {
                            class: trigger,
                            scalar_bytes: 8,
                            ref_slots: 0,
                            dst: Reg(2),
                        },
                    ],
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, entry, 16, 0).unwrap());
    let sums = Arc::new(Sums::default());
    let machine = Machine::with_hooks(program, VmConfig::client(1 << 20), sums.clone());
    let vm: Arc<Mutex<Vm>> = machine.vm().clone();
    let epochs = Arc::new(Mutex::new(Vec::new()));
    let seen = epochs.clone();
    let _ = sums.on_alloc.set(Box::new(move |class| {
        if class == trigger {
            let mut vm = vm.lock();
            let heap = vm.heap_mut();
            if heap.contains(ObjectId::client(2)) {
                heap.migrate_out(ObjectId::client(2))
                    .expect("bystander moves");
            }
            seen.lock().push(heap.locality_epoch());
        }
    }));
    machine.run_entry().expect("run succeeds");
    assert_eq!(*epochs.lock(), [1, 1], "one migration, then none");

    // Ten reads before the bump: a fill and nine hits. The first read
    // after it misses on the epoch, which settles the nine before its own
    // event; nine more hits settle at the run's end.
    let reads: Vec<(u32, bool)> = sums
        .slices()
        .into_iter()
        .filter_map(|e| match e {
            PendingEvent::Interaction(i) if i.callee == data => Some((1, false)),
            PendingEvent::Counted { interaction, count } if interaction.callee == data => {
                Some((count, true))
            }
            _ => None,
        })
        .collect();
    assert_eq!(reads, [(1, false), (9, true), (1, false), (9, true)]);
    assert_eq!(machine.vm().lock().ic_stats(), (18, 2));
}

/// A peer that only reports, at each touch, how many interactions the
/// sink had been told by then.
struct Peer {
    sums: Arc<Sums>,
    told_at_touch: Mutex<Vec<u64>>,
}

impl RemoteAccess for Peer {
    fn invoke(
        &self,
        _: ObjectId,
        _: ClassId,
        _: MethodId,
        _: u32,
        _: u32,
        _: &[ObjectId],
    ) -> VmResult<()> {
        unreachable!("no remote objects")
    }
    fn field_access(&self, _: ObjectId, _: u32, _: bool) -> VmResult<()> {
        unreachable!("no remote objects")
    }
    fn get_slot(&self, _: ObjectId, _: u16) -> VmResult<Option<ObjectId>> {
        unreachable!("no remote objects")
    }
    fn put_slot(&self, _: ObjectId, _: u16, _: Option<ObjectId>) -> VmResult<()> {
        unreachable!("no remote objects")
    }
    fn native(&self, _: ClassId, _: NativeKind, _: u32, _: u32, _: u32) -> VmResult<()> {
        let told = self.sums.folded().interactions.values().sum();
        self.told_at_touch.lock().push(told);
        Ok(())
    }
    fn static_access(&self, _: ClassId, _: ClassId, _: u32, _: bool) -> VmResult<()> {
        unreachable!("no statics")
    }
    fn class_of(&self, target: ObjectId) -> VmResult<ClassId> {
        Err(aide_vm::VmError::DanglingReference(target))
    }
}

#[test]
fn the_peer_is_touched_only_once_the_sink_has_its_counts() {
    // On the surrogate, a framebuffer native goes to the client: whatever
    // the client runs for it may read the sink, so the sink must have been
    // told every read before it.
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
                    n: 3,
                    body: vec![
                        Op::Repeat {
                            n: 25,
                            body: vec![Op::Read {
                                obj: Reg(0),
                                bytes: 8,
                            }],
                        },
                        Op::Native {
                            kind: NativeKind::Framebuffer,
                            work_micros: 1,
                            arg_bytes: 8,
                            ret_bytes: 0,
                        },
                    ],
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, entry, 16, 0).unwrap());
    let mut config = VmConfig::client(1 << 20);
    config.kind = VmKind::Surrogate;
    let sums = Arc::new(Sums::default());
    let machine = Machine::with_hooks(program, config, sums.clone());
    let peer = Arc::new(Peer {
        sums: sums.clone(),
        told_at_touch: Mutex::default(),
    });
    let remote: Arc<dyn RemoteAccess> = peer.clone();
    machine.set_remote(&remote);
    machine.run_entry().expect("run succeeds");
    assert_eq!(*peer.told_at_touch.lock(), [25, 50, 75]);
    assert_eq!(sums.folded().remote_natives, 3);
}
