//! Slice delivery through [`RuntimeHooks::on_events`] and the work-boundary
//! query: however a burst is cut and however a chain is composed, every
//! member sees the events a per-event sink sees, in its order, with
//! allocation and collection events where they were. That stream is pinned
//! by `tests/fixtures/verdicts/batch_delivery.txt`, blessed from the seed
//! tree-walker, which fired every event where it happened.

mod support;

use std::sync::Arc;

use aide_telemetry::sync::Mutex;
use aide_vm::{
    ClassId, GcReport, HookChain, Interaction, Machine, MethodDef, MethodId, NativeKind, ObjectId,
    Op, PendingEvent, Program, ProgramBuilder, Reg, RunSummary, RuntimeHooks, VmConfig, VmResult,
};

/// Records every event as text. With `batched` it takes slices (noting how
/// each was cut) and does not ask for the work boundary.
#[derive(Default)]
struct Log {
    batched: bool,
    events: Mutex<Vec<String>>,
    batches: Mutex<Vec<Vec<PendingEvent>>>,
}

impl Log {
    fn new(batched: bool) -> Arc<Self> {
        Arc::new(Log {
            batched,
            ..Log::default()
        })
    }

    fn push(&self, line: String) {
        self.events.lock().push(line);
    }

    fn events(&self) -> Vec<String> {
        self.events.lock().clone()
    }
}

impl RuntimeHooks for Log {
    fn on_interaction(&self, event: Interaction) {
        self.push(format!("{event:?}"));
    }
    fn on_alloc(&self, class: ClassId, object: ObjectId, bytes: u64) {
        self.push(format!("alloc {class} {object} {bytes}"));
    }
    fn on_free(&self, class: ClassId, objects: u64, bytes: u64) {
        self.push(format!("free {class} {objects} {bytes}"));
    }
    fn on_work(&self, class: ClassId, micros: f64) {
        self.push(format!("work {class} {micros}"));
    }
    fn on_native(&self, caller: ClassId, kind: NativeKind, work: u32, bytes: u64, remote: bool) {
        self.push(format!("native {caller} {kind:?} {work} {bytes} {remote}"));
    }
    fn on_static_access(&self, accessor: ClassId, class: ClassId, bytes: u64, remote: bool) {
        self.push(format!("static {accessor} {class} {bytes} {remote}"));
    }
    fn on_method_exit(&self, class: ClassId, method: MethodId) {
        self.push(format!("exit {class} {method:?}"));
    }
    fn on_gc(&self, report: &GcReport) {
        self.push(format!("gc {} {}", report.cycle, report.freed_objects));
    }

    fn on_events(&self, events: &[PendingEvent]) {
        if self.batched {
            self.batches.lock().push(events.to_vec());
        }
        for &event in events {
            event.deliver(self);
        }
    }

    fn needs_work_boundary(&self) -> bool {
        !self.batched
    }
}

/// Garbage allocation under a tight heap (collections and frees mid-run)
/// around a long allocation-free stretch of calls, work, field accesses,
/// natives and static accesses (bursts that run to their op budget). With
/// `leaf` the callee is one `Work` and takes no argument: a call the
/// interpreter runs in place unless a sink needs the work boundary.
fn program(leaf: bool) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let helper = b.add_class("Helper");
    let mut body = vec![Op::Work { micros: 10 }];
    if !leaf {
        body.push(Op::Read {
            obj: Reg(0),
            bytes: 8,
        });
    }
    let help = b.add_method(helper, MethodDef::new("help", body));
    let call = Op::Call {
        obj: Reg(1),
        class: helper,
        method: help,
        arg_bytes: 8,
        ret_bytes: 0,
        args: if leaf { vec![] } else { vec![Reg(2)] },
    };
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
                            body: vec![call.clone()],
                        },
                        Op::Native {
                            kind: NativeKind::Math,
                            work_micros: 2,
                            arg_bytes: 4,
                            ret_bytes: 4,
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

fn run(hooks: Arc<dyn RuntimeHooks>) -> VmResult<RunSummary> {
    run_program(program(false), hooks)
}

fn run_program(program: Arc<Program>, hooks: Arc<dyn RuntimeHooks>) -> VmResult<RunSummary> {
    Machine::with_hooks(program, VmConfig::client(2_048), hooks).run_entry()
}

fn works(batch: &[PendingEvent]) -> usize {
    batch
        .iter()
        .filter(|e| matches!(e, PendingEvent::Work { .. }))
        .count()
}

#[test]
fn every_chain_member_sees_the_tree_walkers_stream() {
    let reference = Log::new(false);
    let outcome = run(reference.clone());
    let expected = reference.events();
    support::check_verdicts(
        "batch_delivery.txt",
        &[support::verdict("tight heap", &outcome, &expected)],
    );
    assert!(expected.iter().any(|e| e.starts_with("gc ")));
    assert!(expected.iter().any(|e| e.starts_with("free ")));

    // Nobody needs the work boundary: bursts run to their budget, and each
    // member still sees every event in order, allocation-path events
    // included.
    let (a, b) = (Log::new(true), Log::new(true));
    let chain = HookChain::new(vec![a.clone(), b.clone()]);
    assert!(!chain.needs_work_boundary());
    run(Arc::new(chain)).expect("run succeeds");
    assert_eq!(a.events(), expected);
    assert_eq!(b.events(), expected);
    assert_eq!(*a.batches.lock(), *b.batches.lock());
    let longest = a.batches.lock().iter().map(|b| works(b)).max().unwrap();
    assert!(longest > 10, "a burst should span many Work ops: {longest}");

    // One member needs it: the whole chain gets it, and every slice ends at
    // its only `Work`.
    let (batched, per_event) = (Log::new(true), Log::new(false));
    let chain = HookChain::new(vec![batched.clone(), per_event.clone()]);
    assert!(chain.needs_work_boundary());
    run(Arc::new(chain)).expect("run succeeds");
    assert_eq!(batched.events(), expected);
    assert_eq!(per_event.events(), expected);
    for batch in batched.batches.lock().iter() {
        match works(batch) {
            0 => {}
            1 => assert!(matches!(batch.last(), Some(PendingEvent::Work { .. }))),
            n => panic!("{n} Work events in one slice: {batch:?}"),
        }
    }
}

#[test]
fn a_sink_that_needs_the_work_boundary_sees_a_leafs_work_inside_it() {
    let leaf = || program(true);
    let reference = Log::new(false);
    let outcome = run_program(leaf(), reference.clone());
    let expected = reference.events();
    support::check_verdicts(
        "batch_delivery.leaf.txt",
        &[support::verdict(
            "tight heap, leaf callee",
            &outcome,
            &expected,
        )],
    );

    // Nobody needs the boundary: the leaf runs in place, same stream.
    let (a, b) = (Log::new(true), Log::new(true));
    run_program(leaf(), Arc::new(HookChain::new(vec![a.clone(), b.clone()])))
        .expect("run succeeds");
    assert_eq!(a.events(), expected);
    assert_eq!(b.events(), expected);

    // One member needs it: the leaf is entered, its `Work` ends a slice,
    // and its exit opens the next one.
    let (batched, per_event) = (Log::new(true), Log::new(false));
    let chain = HookChain::new(vec![batched.clone(), per_event.clone()]);
    run_program(leaf(), Arc::new(chain)).expect("run succeeds");
    assert_eq!(batched.events(), expected);
    assert_eq!(per_event.events(), expected);
    let batches = batched.batches.lock();
    let mut inside = 0;
    for (batch, next) in batches.iter().zip(batches.iter().skip(1)) {
        match works(batch) {
            0 => {}
            1 => assert!(matches!(batch.last(), Some(PendingEvent::Work { .. }))),
            n => panic!("{n} Work events in one slice: {batch:?}"),
        }
        if let Some(PendingEvent::Work { class, .. }) = batch.last() {
            if class.0 == 1 {
                inside += 1;
                assert!(
                    matches!(next.first(), Some(PendingEvent::MethodExit { class, .. }) if class.0 == 1),
                    "the leaf's exit should open the slice after its Work: {next:?}"
                );
            }
        }
    }
    assert_eq!(inside, 40 * 30, "one slice per leaf call");
}
