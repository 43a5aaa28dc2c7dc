//! The touches a peer deferred onto one frame, served in one go
//! ([`VmDispatcher`]'s `dispatch_touches`: each run of short touches under
//! one VM lock, an `Invoke` as a deferred one) and served one by one
//! through `dispatch`, leave the serving VM alike: its clock to the bit,
//! every slot, its slot-write count and its static accesses. A touch that
//! fails stops both at the same place, with the same error.
//!
//! The touch lists are drawn from the in-tree seeded xorshift, so a failure
//! names the seed that reproduces it.

use std::sync::Arc;

use aide_core::{RefTables, VmDispatcher};
use aide_rpc::{Dispatcher, Request, TouchFailure, Touches, Xorshift64};
use aide_vm::{
    ClassId, Machine, MethodDef, MethodId, NativeKind, ObjectId, ObjectRecord, Op, Program,
    ProgramBuilder, Reg, VmConfig,
};

const SEEDS: u64 = 64;
const OBJECTS: u64 = 6;
const SLOTS: u16 = 2;
const NODE: ClassId = ClassId(1);
/// `Node::set0(v)`: `self.0 = v`.
const SET0: MethodId = MethodId(0);
/// `Node::think`: works, touching nothing.
const THINK: MethodId = MethodId(1);

fn program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let node = b.add_class("Node");
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
    assert_eq!((set0, think), (SET0, THINK));
    Arc::new(b.build(main, MethodId(0), 0, 0).unwrap())
}

/// A surrogate VM holding `OBJECTS` nodes the client shipped it.
fn surrogate(program: &Arc<Program>) -> VmDispatcher {
    let machine = Machine::new(program.clone(), VmConfig::surrogate(1 << 20));
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
/// `Invoke`s break up.
fn touch(rng: &mut Xorshift64) -> Request {
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
            let (method, args) = if rng.next_u64().is_multiple_of(2) {
                (SET0, vec![node(rng)])
            } else {
                (THINK, Vec::new())
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
