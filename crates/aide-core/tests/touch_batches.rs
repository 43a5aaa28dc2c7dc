//! The touches a peer deferred onto one frame, served in one go
//! ([`VmDispatcher`]'s `dispatch_touches`: every `Invoke` a window of one
//! interpreter run, the short touches between them under the lock the run
//! holds) and served one by one through `dispatch`, leave the serving VM
//! alike: its clock to the bit, every slot, its slot-write count and its
//! static accesses. A touch that fails stops both at the same place, with
//! the same error. With a [`Monitor`] on both, the monitors agree too: when
//! windows collect mid-run, when they call a client-bound native — which
//! the client sees sent naming the window's `Invoke` — and when the k-th
//! of them fails; and no burst of a run spends more ops than one VM lock
//! is held for.
//!
//! The touch lists are drawn from the in-tree seeded xorshift, so a failure
//! names the seed that reproduces it.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use aide_core::RefTables;
use aide_core::{Monitor, TriggerConfig, VmDispatcher};
use aide_rpc::{Dispatcher, Request, TouchFailure, Touches, Xorshift64};
use aide_vm::{
    ClassId, CountingHooks, HookChain, Machine, MethodDef, MethodId, NativeKind, ObjectId,
    ObjectRecord, Op, PendingEvent, Program, ProgramBuilder, Reg, RemoteAccess, RuntimeHooks,
    VmConfig, VmError, VmResult,
};

const SEEDS: u64 = 64;
const OBJECTS: u64 = 6;
const SLOTS: u16 = 2;
const NODE: ClassId = ClassId(1);
/// `Node::set0(v)`: `self.0 = v`.
const SET0: MethodId = MethodId(0);
/// `Node::think`: works, touching nothing.
const THINK: MethodId = MethodId(1);
/// `Node::grow`: allocates two blobs and writes each, then works.
const GROW: MethodId = MethodId(2);
/// `Node::draw`: a framebuffer native (client-bound), then work.
const DRAW: MethodId = MethodId(3);
/// `Node::store`: a file native (client-bound), then work.
const STORE: MethodId = MethodId(4);
/// `Node::spin`: 40 `Work`s in a loop.
const SPIN: MethodId = MethodId(5);
/// `Node::slip`: works, then writes a slot past its last.
const SLIP: MethodId = MethodId(6);
/// The interpreter's ops per VM-lock acquisition (`BURST_OPS` in
/// `aide-vm`'s `machine.rs`), which the windows of a run share.
const BURST_OPS: usize = 128;

fn program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let node = b.add_class("Node");
    let blob = b.add_class("Blob");
    assert_eq!(node, NODE);
    b.add_method(main, MethodDef::new("main", vec![]));
    let set0 = b.add_method(
        node,
        MethodDef::new(
            "set0",
            vec![Op::PutSlot {
                slot: 0,
                src: Reg(0),
            }],
        ),
    );
    let think = b.add_method(node, MethodDef::new("think", vec![Op::Work { micros: 7 }]));
    let native = |kind, work_micros| Op::Native {
        kind,
        work_micros,
        arg_bytes: 8,
        ret_bytes: 8,
    };
    let methods = [
        (
            "grow",
            vec![
                Op::Repeat {
                    n: 2,
                    body: vec![
                        Op::New {
                            class: blob,
                            scalar_bytes: 64,
                            ref_slots: 1,
                            dst: Reg(1),
                        },
                        Op::Write {
                            obj: Reg(1),
                            bytes: 16,
                        },
                    ],
                },
                Op::Work { micros: 3 },
            ],
        ),
        (
            "draw",
            vec![native(NativeKind::Framebuffer, 5), Op::Work { micros: 2 }],
        ),
        (
            "store",
            vec![native(NativeKind::FileIo, 9), Op::Work { micros: 4 }],
        ),
        (
            "spin",
            vec![Op::Repeat {
                n: 40,
                body: vec![Op::Work { micros: 1 }],
            }],
        ),
        (
            "slip",
            vec![
                Op::Work { micros: 5 },
                Op::PutSlot {
                    slot: SLOTS + 3,
                    src: Reg(0),
                },
            ],
        ),
    ];
    let ids: Vec<MethodId> = methods
        .into_iter()
        .map(|(name, body)| b.add_method(node, MethodDef::new(name, body)))
        .collect();
    assert_eq!((set0, think), (SET0, THINK));
    assert_eq!(ids, [GROW, DRAW, STORE, SPIN, SLIP]);
    Arc::new(b.build(main, MethodId(0), 0, 0).unwrap())
}

/// A surrogate VM holding `OBJECTS` nodes the client shipped it.
fn surrogate(program: &Arc<Program>) -> VmDispatcher {
    shipped(Machine::new(program.clone(), VmConfig::surrogate(1 << 20)))
}

/// `machine`, a surrogate VM, once the client shipped it `OBJECTS` nodes.
fn shipped(machine: Machine) -> VmDispatcher {
    let dispatcher = VmDispatcher::new(machine, Arc::new(RefTables::new()));
    let objects = (1..=OBJECTS)
        .map(|n| (ObjectId::client(n), ObjectRecord::new(NODE, 16, SLOTS)))
        .collect();
    dispatcher
        .dispatch(Request::MigratePrepare { txn: 1, objects })
        .unwrap();
    dispatcher
        .dispatch(Request::MigrateCommit { txn: 1 })
        .unwrap();
    dispatcher
}

/// What serving touches may change on the serving VM.
#[derive(Debug, PartialEq, Eq)]
struct Served {
    /// `cpu_seconds` and `mutator_seconds`, as bits.
    clock: (u64, u64),
    slots: Vec<Option<ObjectId>>,
    writes: u64,
    statics: u64,
}

fn served(dispatcher: &VmDispatcher) -> Served {
    let vm = dispatcher.machine().vm();
    let vm = vm.lock();
    let slots = (1..=OBJECTS)
        .flat_map(|n| (0..SLOTS).map(move |slot| (ObjectId::client(n), slot)))
        .map(|(id, slot)| vm.get_slot_on(id, slot).unwrap())
        .collect();
    Served {
        clock: (vm.cpu_seconds().to_bits(), vm.mutator_seconds().to_bits()),
        slots,
        writes: vm.slot_writes().get(),
        statics: vm.statics_accesses(),
    }
}

fn node(rng: &mut Xorshift64) -> ObjectId {
    ObjectId::client(1 + rng.next_u64() % OBJECTS)
}

/// One deferrable touch of the nodes: mostly short ones, in runs the
/// `Invoke`s — of `SET0` or `THINK` — break up.
fn touch(rng: &mut Xorshift64) -> Request {
    touch_invoking(rng, &[SET0, THINK])
}

/// [`touch`], its `Invoke`s of one of `methods`.
fn touch_invoking(rng: &mut Xorshift64, methods: &[MethodId]) -> Request {
    let bytes = (rng.next_u64() % 64) as u32;
    match rng.next_u64() % 10 {
        0..=3 => Request::FieldAccess {
            target: node(rng),
            bytes,
            write: rng.next_u64().is_multiple_of(2),
        },
        4 | 5 => Request::PutSlot {
            target: node(rng),
            slot: (rng.next_u64() % u64::from(SLOTS)) as u16,
            value: (!rng.next_u64().is_multiple_of(3)).then(|| node(rng)),
        },
        6 => Request::StaticAccess {
            accessor: NODE,
            class: NODE,
            bytes,
            write: rng.next_u64().is_multiple_of(2),
        },
        7 => Request::Native {
            caller: NODE,
            kind: NativeKind::Math,
            work_micros: (rng.next_u64() % 50) as u32,
            arg_bytes: 8,
            ret_bytes: 8,
        },
        _ => {
            let method = methods[(rng.next_u64() % methods.len() as u64) as usize];
            let args = if method == SET0 {
                vec![node(rng)]
            } else {
                Vec::new()
            };
            Request::Invoke {
                target: node(rng),
                class: NODE,
                method,
                arg_bytes: 8,
                ret_bytes: 0,
                args,
            }
        }
    }
}

/// A touch that fails on the serving VM: one of a node it does not hold,
/// or of a slot past a node's last.
fn failing(rng: &mut Xorshift64) -> Request {
    match rng.next_u64() % 3 {
        0 => Request::FieldAccess {
            target: ObjectId::client(OBJECTS + 1),
            bytes: 8,
            write: true,
        },
        1 => Request::PutSlot {
            target: node(rng),
            slot: SLOTS,
            value: None,
        },
        _ => Request::Invoke {
            target: ObjectId::client(OBJECTS + 7),
            class: NODE,
            method: THINK,
            arg_bytes: 0,
            ret_bytes: 0,
            args: Vec::new(),
        },
    }
}

/// Serves `touches` one by one through `dispatch`, as the default
/// `dispatch_touches` would, stopping at the first that fails.
fn one_by_one(dispatcher: &VmDispatcher, touches: Vec<Request>) -> Result<(), TouchFailure> {
    for (at, touch) in touches.into_iter().enumerate() {
        let kind = touch.kind();
        dispatcher
            .dispatch(touch)
            .map_err(|e| TouchFailure::new(at, kind, e))?;
    }
    Ok(())
}

#[test]
fn a_frames_touches_served_at_once_leave_the_vm_as_served_one_by_one() {
    let program = program();
    for seed in 1..=SEEDS {
        let mut rng = Xorshift64::new(seed);
        let (batched, single) = (surrogate(&program), surrogate(&program));
        // Several frames' worth, so the second starts from what the first
        // left.
        for round in 0..3 {
            let len = (rng.next_u64() % 120) as usize;
            let touches: Vec<Request> = (0..len).map(|_| touch(&mut rng)).collect();
            let carried: Touches = touches.iter().collect();
            assert_eq!(batched.dispatch_touches(&carried), Ok(()), "seed {seed}");
            assert_eq!(one_by_one(&single, touches), Ok(()), "seed {seed}");
            assert_eq!(
                served(&batched),
                served(&single),
                "seed {seed}, frame {round}"
            );
        }
        assert!(
            served(&batched).writes > 0,
            "seed {seed}: no slot was written"
        );
    }
}

#[test]
fn a_failing_touch_stops_both_at_the_same_place_with_the_same_error() {
    let program = program();
    for seed in 1..=SEEDS {
        let mut rng = Xorshift64::new(seed);
        let (batched, single) = (surrogate(&program), surrogate(&program));
        let len = 1 + (rng.next_u64() % 80) as usize;
        let mut touches: Vec<Request> = (0..len).map(|_| touch(&mut rng)).collect();
        let at = (rng.next_u64() % (len as u64 + 1)) as usize;
        touches.insert(at, failing(&mut rng));
        let carried: Touches = touches.iter().collect();
        let failed = batched.dispatch_touches(&carried).unwrap_err();
        assert_eq!(failed.at, at, "seed {seed}");
        assert!(failed.message.starts_with("deferred "), "{failed:?}");
        assert_eq!(one_by_one(&single, touches), Err(failed), "seed {seed}");
        // Nothing after the failed touch ran on either.
        assert_eq!(served(&batched), served(&single), "seed {seed}");
    }
}

/// A surrogate dispatcher whose VM tells `hooks`, collecting after every
/// eight allocations, and the [`Monitor`] among them.
fn monitored(
    program: &Arc<Program>,
    others: Vec<Arc<dyn RuntimeHooks>>,
) -> (VmDispatcher, Arc<Monitor>) {
    let monitor = Arc::new(Monitor::new(
        program.clone(),
        TriggerConfig::default(),
        HashSet::new(),
    ));
    let mut config = VmConfig::surrogate(1 << 20);
    config.gc.trigger_alloc_count = 8;
    let hooks: Arc<dyn RuntimeHooks> = if others.is_empty() {
        monitor.clone()
    } else {
        let mut chain: Vec<Arc<dyn RuntimeHooks>> = vec![monitor.clone()];
        chain.extend(others);
        Arc::new(HookChain::new(chain))
    };
    let machine = Machine::with_hooks(program.clone(), config, hooks);
    (shipped(machine), monitor)
}

/// A monitored dispatcher whose monitor is told every event one by one
/// (a per-event sink beside it turns summing off): the reference, which
/// owes nothing at any point.
fn told_each_event(program: &Arc<Program>) -> (VmDispatcher, Arc<Monitor>) {
    monitored(program, vec![Arc::new(CountingHooks::new())])
}

/// The two monitors agree on everything they hold.
fn assert_monitors_agree(batched: &Monitor, single: &Monitor, context: &str) {
    assert_eq!(batched.snapshot(), single.snapshot(), "{context}: snapshot");
    assert_eq!(batched.metrics(), single.metrics(), "{context}: metrics");
    assert_eq!(
        batched.remote_stats(),
        single.remote_stats(),
        "{context}: remote stats"
    );
}

/// Runs of `Invoke`s that allocate — a collection every eight objects, so
/// in the middle of runs — leave a summing monitor as they leave one told
/// every event: what the run owed it is settled at the run's end (and
/// before each collection's `on_free`/`on_gc`).
#[test]
fn windows_that_collect_mid_run_leave_the_monitor_as_served_one_by_one() {
    let program = program();
    let mut collections = 0;
    for seed in 1..=SEEDS {
        let mut rng = Xorshift64::new(seed);
        let (batched, batched_monitor) = monitored(&program, Vec::new());
        let (single, single_monitor) = told_each_event(&program);
        for round in 0..3 {
            let len = 1 + (rng.next_u64() % 60) as usize;
            let touches: Vec<Request> = (0..len)
                .map(|_| touch_invoking(&mut rng, &[GROW, GROW, THINK, SET0]))
                .collect();
            let carried: Touches = touches.iter().collect();
            assert_eq!(batched.dispatch_touches(&carried), Ok(()), "seed {seed}");
            assert_eq!(one_by_one(&single, touches), Ok(()), "seed {seed}");
            let context = format!("seed {seed}, frame {round}");
            assert_eq!(served(&batched), served(&single), "{context}");
            assert_monitors_agree(&batched_monitor, &single_monitor, &context);
        }
        collections += batched_monitor.metrics().samples;
    }
    assert!(collections > SEEDS, "{collections} collections");
}

/// The client's side of a surrogate VM, as far as its windows reach it:
/// each client-bound native it is sent, with the deferred `Invoke` the
/// sending thread was serving meanwhile.
#[derive(Default)]
struct Client {
    natives: Mutex<Vec<Sent>>,
}

/// A native the client was sent, and the `Invoke` named meanwhile.
type Sent = (NativeKind, Option<(ClassId, MethodId)>);

impl Client {
    fn natives(&self) -> Vec<Sent> {
        self.natives.lock().unwrap().clone()
    }
}

impl RemoteAccess for Client {
    fn native(&self, _: ClassId, kind: NativeKind, _: u32, _: u32, _: u32) -> VmResult<()> {
        let serving = aide_rpc::deferred_invoke_in_service();
        self.natives.lock().unwrap().push((kind, serving));
        Ok(())
    }

    fn invoke(
        &self,
        target: ObjectId,
        _: ClassId,
        _: MethodId,
        _: u32,
        _: u32,
        _: &[ObjectId],
    ) -> VmResult<()> {
        Err(VmError::DanglingReference(target))
    }

    fn field_access(&self, target: ObjectId, _: u32, _: bool) -> VmResult<()> {
        Err(VmError::DanglingReference(target))
    }

    fn get_slot(&self, target: ObjectId, _: u16) -> VmResult<Option<ObjectId>> {
        Err(VmError::DanglingReference(target))
    }

    fn put_slot(&self, target: ObjectId, _: u16, _: Option<ObjectId>) -> VmResult<()> {
        Err(VmError::DanglingReference(target))
    }

    fn static_access(&self, _: ClassId, _: ClassId, _: u32, _: bool) -> VmResult<()> {
        Err(VmError::RemoteFailure("no statics here".into()))
    }

    fn class_of(&self, target: ObjectId) -> VmResult<ClassId> {
        Err(VmError::DanglingReference(target))
    }
}

/// Wires `dispatcher`'s VM to a [`Client`], which the caller keeps alive.
fn wired(dispatcher: &VmDispatcher) -> Arc<Client> {
    let client = Arc::new(Client::default());
    let remote: Arc<dyn RemoteAccess> = client.clone();
    dispatcher.machine().set_remote(&remote);
    client
}

/// A window that calls a client-bound native sends it naming its own
/// `Invoke`, not the one of the window before it, and nothing is named
/// once the frame is served.
#[test]
fn a_native_sent_from_a_window_names_that_windows_invoke() {
    let program = program();
    for seed in 1..=SEEDS {
        let mut rng = Xorshift64::new(seed);
        let (batched, batched_monitor) = monitored(&program, Vec::new());
        let (single, single_monitor) = told_each_event(&program);
        let (batched_client, single_client) = (wired(&batched), wired(&single));
        let len = 1 + (rng.next_u64() % 60) as usize;
        let touches: Vec<Request> = (0..len)
            .map(|_| touch_invoking(&mut rng, &[DRAW, STORE, THINK]))
            .collect();
        let carried: Touches = touches.iter().collect();
        assert_eq!(batched.dispatch_touches(&carried), Ok(()), "seed {seed}");
        assert_eq!(aide_rpc::deferred_invoke_in_service(), None, "seed {seed}");
        for touch in touches {
            aide_rpc::dispatch_deferred(&single, touch).unwrap();
        }
        let sent = batched_client.natives();
        assert_eq!(sent, single_client.natives(), "seed {seed}");
        for (kind, serving) in sent {
            let method = if kind == NativeKind::Framebuffer {
                DRAW
            } else {
                STORE
            };
            assert_eq!(serving, Some((NODE, method)), "seed {seed}");
        }
        let context = format!("seed {seed}");
        assert_eq!(served(&batched), served(&single), "{context}");
        assert_monitors_agree(&batched_monitor, &single_monitor, &context);
    }
}

/// Records the longest slice of events delivered at once: what one burst
/// queued under one VM lock.
#[derive(Default)]
struct Bursts {
    longest: Mutex<usize>,
}

impl RuntimeHooks for Bursts {
    fn on_events(&self, events: &[PendingEvent]) {
        let mut longest = self.longest.lock().unwrap();
        *longest = (*longest).max(events.len());
    }

    fn needs_work_boundary(&self) -> bool {
        false
    }
}

/// A touch that fails at the k-th `Invoke` of a frame — in its window's
/// set-up or in the middle of its body — or between two windows stops the
/// frame where serving it one by one stops, with the same error, the same
/// VM and the same monitor. The windows before it share their bursts'
/// budget: no burst runs more ops than one lock is held for.
#[test]
fn a_frame_failing_at_its_kth_invoke_stops_where_one_by_one_stops() {
    let program = program();
    for seed in 1..=SEEDS {
        let mut rng = Xorshift64::new(seed);
        let bursts = Arc::new(Bursts::default());
        let (batched, batched_monitor) = monitored(&program, vec![bursts.clone()]);
        let (single, single_monitor) = told_each_event(&program);
        let len = 1 + (rng.next_u64() % 60) as usize;
        let mut touches: Vec<Request> = (0..len)
            .map(|_| touch_invoking(&mut rng, &[SPIN, SPIN, THINK]))
            .collect();
        let invokes: Vec<usize> = (0..touches.len())
            .filter(|&at| matches!(touches[at], Request::Invoke { .. }))
            .collect();
        let at = match invokes.len() {
            0 => len,
            n => invokes[(rng.next_u64() % n as u64) as usize],
        };
        let fails = match rng.next_u64() % 4 {
            0 => Request::Invoke {
                target: node(&mut rng),
                class: NODE,
                method: SLIP,
                arg_bytes: 0,
                ret_bytes: 0,
                args: vec![node(&mut rng)],
            },
            1 => Request::Invoke {
                target: node(&mut rng),
                class: NODE,
                method: MethodId(40),
                arg_bytes: 0,
                ret_bytes: 0,
                args: Vec::new(),
            },
            _ => failing(&mut rng),
        };
        touches.insert(at, fails);
        let carried: Touches = touches.iter().collect();
        let failed = batched.dispatch_touches(&carried).unwrap_err();
        assert_eq!(failed.at, at, "seed {seed}: {failed:?}");
        assert_eq!(one_by_one(&single, touches), Err(failed), "seed {seed}");
        let context = format!("seed {seed}");
        assert_eq!(served(&batched), served(&single), "{context}");
        assert_monitors_agree(&batched_monitor, &single_monitor, &context);
        let longest = *bursts.longest.lock().unwrap();
        assert!(longest <= BURST_OPS, "{context}: {longest} events at once");
    }
}
