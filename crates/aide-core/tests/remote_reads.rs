//! Remote reads answered from memory: what the adapter hands out without
//! asking is what the owner's heap holds.
//!
//! [`RemoteAdapter`] remembers the slots and classes it has read of the
//! peer's objects and answers `get_slot` / `class_of` from that memory until
//! the owner's frames say it wrote, an object changes sides, or the lease
//! epoch moves. The first test drives a client/surrogate pair through a
//! random schedule of everything that can change a slot or the right to
//! remember it, checking the memory against the owner's heap after every
//! step; the rest name the rules one by one.
//!
//! The two VMs take turns (DESIGN §5.4), so the schedule does too: one side
//! acts, and control passes to the other only with a frame. The generator is
//! the in-tree seeded xorshift (`lease_model`), so a failure names the seed
//! and the step that reproduce it. The tests share two process-wide counters
//! and take turns on `GATE`. (The failover case — `Surrogate::Managed`
//! answers `None` and nothing stays remembered — lives in `failover.rs`'s
//! unit tests: the managed surrogate is private to the crate.)

use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use aide_core::{RefTables, RemoteAdapter, VmDispatcher};
use aide_graph::CommParams;
use aide_rpc::{
    live_remote_refs, Endpoint, EndpointConfig, LeaseStamp, Link, Message, Reply, Request, Session,
};
use aide_vm::{
    ClassId, Machine, MethodDef, MethodId, ObjectId, ObjectRecord, Op, Program, ProgramBuilder,
    Reg, RemoteAccess, VmConfig,
};

const SEEDS: u64 = 24;
const STEPS: usize = 160;
const OBJECTS: u64 = 4;
const SLOTS: u16 = 4;
const NODE: ClassId = ClassId(1);
/// `Node::set0(v)`: `self.0 = v`.
const SET0: MethodId = MethodId(0);
/// `Node::bounce(a, v)`: `a.set0(v); self.1 = v` — when `a` lives with the
/// caller, a call-back nested in the served invocation.
const BOUNCE: MethodId = MethodId(1);
/// `Node::look`: reads its own slot 0 and works — a callee that cannot call
/// back, so its invocation is not waited for.
const LOOK: MethodId = MethodId(2);
/// `Node::visit`: makes a `Leaf` and calls it — not waited for unless the
/// caller holds a `Leaf` it could call back.
const VISIT: MethodId = MethodId(3);
const LEAF: ClassId = ClassId(2);

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let node = b.add_class("Node");
    let leaf = b.add_class("Leaf");
    assert_eq!((node, leaf), (NODE, LEAF));
    let tick = b.add_method(leaf, MethodDef::new("tick", vec![Op::Work { micros: 2 }]));
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
    let bounce = b.add_method(
        node,
        MethodDef::new(
            "bounce",
            vec![
                Op::Call {
                    obj: Reg(0),
                    class: node,
                    method: set0,
                    arg_bytes: 8,
                    ret_bytes: 0,
                    args: vec![Reg(1)],
                },
                Op::PutSlot {
                    slot: 1,
                    src: Reg(1),
                },
            ],
        ),
    );
    let look = b.add_method(
        node,
        MethodDef::new(
            "look",
            vec![
                Op::GetSlot {
                    slot: 0,
                    dst: Reg(1),
                },
                Op::Work { micros: 3 },
            ],
        ),
    );
    let visit = b.add_method(
        node,
        MethodDef::new(
            "visit",
            vec![
                Op::New {
                    class: leaf,
                    scalar_bytes: 8,
                    ref_slots: 0,
                    dst: Reg(1),
                },
                Op::Call {
                    obj: Reg(1),
                    class: leaf,
                    method: tick,
                    arg_bytes: 0,
                    ret_bytes: 0,
                    args: vec![],
                },
            ],
        ),
    );
    assert_eq!((set0, bounce, look, visit), (SET0, BOUNCE, LOOK, VISIT));
    Arc::new(b.build(main, MethodId(0), 64, 0).unwrap())
}

/// One VM with everything the platform wires around it.
struct Side {
    machine: Machine,
    tables: Arc<RefTables>,
    endpoint: Arc<Endpoint>,
    adapter: Arc<RemoteAdapter>,
    /// The machine holds its adapter weakly.
    _remote: Arc<dyn RemoteAccess>,
}

impl Side {
    fn start(machine: Machine, session: Session, link: &Link, attach: bool) -> Side {
        let tables = Arc::new(RefTables::new());
        let endpoint = Endpoint::start(
            session,
            link.params,
            link.clock.clone(),
            Arc::new(VmDispatcher::new(machine.clone(), tables.clone())),
            EndpointConfig::default(),
        );
        if attach {
            tables.attach_to(&endpoint, &machine);
        }
        let adapter = Arc::new(RemoteAdapter::new(
            endpoint.clone(),
            machine.clone(),
            tables.clone(),
        ));
        let remote: Arc<dyn RemoteAccess> = adapter.clone();
        machine.set_remote(&remote);
        Side {
            machine,
            tables,
            endpoint,
            adapter,
            _remote: remote,
        }
    }

    /// Inserts `OBJECTS` empty nodes, ids `first..`.
    fn populate(&self, first: ObjectId) -> Vec<ObjectId> {
        let vm = self.machine.vm();
        let mut vm = vm.lock();
        (0..OBJECTS)
            .map(|i| {
                let id = ObjectId(first.0 + i);
                vm.heap_mut()
                    .insert(id, ObjectRecord::new(NODE, 16, SLOTS))
                    .unwrap();
                id
            })
            .collect()
    }

    fn wire_slot(&self, target: ObjectId, slot: u16) -> Option<ObjectId> {
        match self.endpoint.call(Request::GetSlot { target, slot }) {
            Ok(Reply::Slot(value)) => value,
            other => panic!("GetSlot on the wire: {other:?}"),
        }
    }

    fn stop(&self) {
        self.endpoint.shutdown();
        self.endpoint.join();
    }
}

/// A client (side 0) and a surrogate (side 1) over an in-process link, each
/// owning `OBJECTS` nodes. `attach_surrogate` off leaves the surrogate's
/// endpoint without tables: its frames carry no stamp.
fn pair(attach_surrogate: bool) -> ([Side; 2], [Vec<ObjectId>; 2]) {
    let program = program();
    let (link, ct, st) = Link::pair(CommParams::WAVELAN);
    let client = Side::start(
        Machine::new(program.clone(), VmConfig::client(1 << 20)),
        ct,
        &link,
        true,
    );
    let surrogate = Side::start(
        Machine::new(program, VmConfig::surrogate(1 << 20)),
        st,
        &link,
        attach_surrogate,
    );
    let objects = [
        client.populate(ObjectId::client(100)),
        surrogate.populate(ObjectId::surrogate(100)),
    ];
    ([client, surrogate], objects)
}

/// xorshift64: tiny, seedable, and identical everywhere.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    fn slot(&mut self) -> u16 {
        self.below(u64::from(SLOTS)) as u16
    }
}

/// The schedule's world: two sides, who owns what, whose turn it is.
struct World {
    sides: [Side; 2],
    /// Objects by the side they live on now.
    owned: [Vec<ObjectId>; 2],
    turn: usize,
    /// The acting side wrote a slot of its own since its last frame: the
    /// other side hears of it with the frame that passes it control, and is
    /// not held to its memory before.
    peer_behind: bool,
    next_txn: u64,
    /// Reads the adapter answered without a request reaching the owner.
    from_memory: u64,
}

impl World {
    /// A fresh pair, both attached; the client has the turn.
    fn start() -> World {
        let (sides, owned) = pair(true);
        World {
            sides,
            owned,
            turn: 0,
            peer_behind: false,
            next_txn: 0,
            from_memory: 0,
        }
    }

    /// Some reference, or none: what a slot may be set to.
    fn value(&self, rng: &mut Rng) -> Option<ObjectId> {
        match rng.below(5) {
            0 => None,
            n => Some(rng.pick(&self.owned[(n % 2) as usize])),
        }
    }

    /// Every remembered slot of `who` is what its owner's heap holds.
    fn check(&self, who: usize, at: &str) {
        let owner = &self.sides[1 - who].machine;
        for (target, slot, value) in self.sides[who].adapter.remembered_slots() {
            assert_eq!(
                owner.get_slot_on(target, slot).ok(),
                Some(value),
                "side {who} remembers {target:?}.{slot} = {value:?} after {at}"
            );
        }
    }

    fn step(&mut self, rng: &mut Rng, at: &str) {
        let (me, peer) = (self.turn, 1 - self.turn);
        let mine = self.owned[me].clone();
        let theirs = self.owned[peer].clone();
        let served = self.sides[peer].endpoint.requests_served();
        match rng.below(35) {
            // The importer reads a slot: whatever the adapter says is what
            // the owner's heap holds, and what `GetSlot` on the wire says.
            0..=17 => {
                let (target, slot) = (rng.pick(&theirs), rng.slot());
                let read = self.sides[me].adapter.get_slot(target, slot).unwrap();
                if self.sides[peer].endpoint.requests_served() == served {
                    self.from_memory += 1;
                }
                let held = self.sides[peer].machine.get_slot_on(target, slot).unwrap();
                assert_eq!(read, held, "{target:?}.{slot} read at {at}");
                if rng.below(2) == 0 {
                    let wire = self.sides[me].wire_slot(target, slot);
                    assert_eq!(read, wire, "{target:?}.{slot} on the wire at {at}");
                    self.peer_behind = false;
                }
            }
            18..=19 => {
                let target = rng.pick(&theirs);
                assert_eq!(
                    self.sides[me].adapter.class_of(target).unwrap(),
                    NODE,
                    "class of {target:?} at {at}"
                );
            }
            // The importer writes (a `PutSlot` the owner serves once a frame
            // carries it): read back before that, it is what was put.
            20..=21 => {
                let (target, slot, value) = (rng.pick(&theirs), rng.slot(), self.value(rng));
                let adapter = &self.sides[me].adapter;
                adapter.put_slot(target, slot, value).unwrap();
                if rng.below(2) == 0 {
                    let read = adapter.get_slot(target, slot).unwrap();
                    assert_eq!(read, value, "{target:?}.{slot} read back at {at}");
                }
                adapter.flush().unwrap();
                assert_eq!(
                    self.sides[peer].machine.get_slot_on(target, slot).unwrap(),
                    value,
                    "{target:?}.{slot} written at {at}"
                );
                self.peer_behind = false;
            }
            // The owner writes a slot of its own, as its mutator would.
            22..=23 => {
                let (target, slot, value) = (rng.pick(&mine), rng.slot(), self.value(rng));
                self.sides[me]
                    .machine
                    .put_slot_on(target, slot, value)
                    .unwrap();
                self.peer_behind = true;
            }
            // The owner writes inside a served `Invoke`, which is waited
            // for: the next read sees the write.
            24..=25 => {
                let (target, value) = (rng.pick(&theirs), rng.pick(&[mine, theirs].concat()));
                self.sides[me]
                    .adapter
                    .invoke(target, NODE, SET0, 8, 0, &[value])
                    .unwrap();
                assert!(
                    self.sides[peer].endpoint.requests_served() > served,
                    "set0 waited for at {at}"
                );
                let read = self.sides[me].adapter.get_slot(target, 0).unwrap();
                assert_eq!(read, Some(value), "{target:?}.0 after set0 at {at}");
                self.peer_behind = false;
            }
            // … and the caller inside a call-back nested in it.
            26 => {
                let (target, mine, value) = (
                    rng.pick(&theirs),
                    rng.pick(&mine),
                    rng.pick(&[mine.clone(), theirs].concat()),
                );
                self.sides[me]
                    .adapter
                    .invoke(target, NODE, BOUNCE, 16, 0, &[mine, value])
                    .unwrap();
                let at_home = self.sides[me].machine.get_slot_on(mine, 0).unwrap();
                assert_eq!(at_home, Some(value), "the call-back wrote at {at}");
                self.peer_behind = false;
            }
            // A GC release batch: whatever no local slot references goes.
            27 => {
                let side = &self.sides[me];
                let still: HashSet<ObjectId> = live_remote_refs(&side.machine.vm().lock());
                let dropped = side.tables.imports.sweep_dropped(&still);
                if !dropped.is_empty() {
                    side.endpoint
                        .call(Request::GcReleaseSeq {
                            epoch: side.tables.imports.advertised_epoch(),
                            release_seq: side.tables.imports.next_release_seq(),
                            objects: dropped,
                        })
                        .unwrap();
                    self.peer_behind = false;
                }
            }
            // One of this side's objects moves to the other side.
            28 => {
                if mine.len() > 1 {
                    let id = rng.pick(&mine);
                    self.migrate(me, id);
                    self.peer_behind = false;
                }
            }
            29 => {
                self.sides[me].tables.imports.begin_epoch();
            }
            // An invocation whose callee writes no slot and cannot call
            // back rides the next frame; `visit` is waited for when the
            // caller holds a `Leaf` it could call back.
            30..=32 => {
                let (target, method) = (rng.pick(&theirs), rng.pick(&[LOOK, VISIT]));
                let side = &self.sides[me];
                let holds_a_leaf = side.machine.vm().lock().heap().instances_of(LEAF) > 0;
                side.adapter
                    .invoke(target, NODE, method, 8, 0, &[])
                    .unwrap();
                let waited = method == VISIT && holds_a_leaf;
                assert_eq!(
                    self.sides[peer].endpoint.requests_served() > served,
                    waited,
                    "{method:?} waited for at {at}"
                );
            }
            // Control passes, as it always does, with a frame: one that
            // carries what the side deferred.
            _ => {
                self.sides[me].adapter.flush().unwrap();
                self.sides[me].endpoint.call(Request::Ping).unwrap();
                self.turn = peer;
                self.peer_behind = false;
            }
        }
        self.check(self.turn, at);
        if !self.peer_behind {
            self.check(1 - self.turn, at);
        }
    }

    /// What an offload does to one object: out of `from`'s heap, what it
    /// still points at there pinned, itself noted as held, shipped in two
    /// phases.
    fn migrate(&mut self, from: usize, id: ObjectId) {
        let side = &self.sides[from];
        side.adapter.flush().unwrap();
        let record = {
            let vm = side.machine.vm();
            let mut vm = vm.lock();
            let record = vm.heap_mut().migrate_out(id).unwrap();
            for &slot in record.slots.iter().flatten() {
                if vm.heap().contains(slot) && side.tables.exports.export(slot) {
                    vm.external_root_inc(slot);
                }
            }
            record
        };
        side.tables.imports.import(id);
        self.next_txn += 1;
        let txn = self.next_txn;
        side.endpoint
            .call(Request::MigratePrepare {
                txn,
                objects: vec![(id, record)],
            })
            .unwrap();
        side.endpoint.call(Request::MigrateCommit { txn }).unwrap();
        self.owned[from].retain(|o| *o != id);
        self.owned[1 - from].push(id);
    }
}

#[test]
fn remembered_reads_match_the_owners_heap_under_a_random_schedule() {
    let _gate = gate();
    let mut from_memory = 0;
    for seed in 1..=SEEDS {
        let mut rng = Rng::new(seed);
        let mut world = World::start();
        for step in 0..STEPS {
            world.step(&mut rng, &format!("seed {seed}, step {step}"));
        }
        from_memory += world.from_memory;
        for side in &world.sides {
            side.stop();
        }
    }
    // The schedule is hostile — a write, a migration or an epoch every few
    // steps — and memory still answers a good share of the reads.
    assert!(
        from_memory > SEEDS * 10,
        "only {from_memory} reads were answered from memory"
    );
}

/// A pair with the client about to read `target`, a surrogate node whose
/// slot 0 holds another surrogate node and slot 1 a client node.
fn reading_pair() -> ([Side; 2], ObjectId, [ObjectId; 2]) {
    let (sides, owned) = pair(true);
    let (target, held) = (owned[1][0], [owned[1][1], owned[0][0]]);
    let surrogate = &sides[1].machine;
    surrogate.put_slot_on(target, 0, Some(held[0])).unwrap();
    surrogate.put_slot_on(target, 1, Some(held[1])).unwrap();
    // The surrogate wrote on its own: the client hears of it with a frame.
    sides[0].endpoint.call(Request::Ping).unwrap();
    (sides, target, held)
}

/// Reads `target.slot` through the client's adapter; whether the request
/// reached the surrogate.
fn read(sides: &[Side; 2], target: ObjectId, slot: u16) -> (Option<ObjectId>, bool) {
    let served = sides[1].endpoint.requests_served();
    let value = sides[0].adapter.get_slot(target, slot).unwrap();
    (value, sides[1].endpoint.requests_served() > served)
}

fn stop(sides: &[Side; 2]) {
    sides.iter().for_each(Side::stop);
}

#[test]
fn a_slot_crosses_the_cut_once_and_both_counters_say_so() {
    let _gate = gate();
    let telemetry = aide_telemetry::global();
    let from_memory = telemetry.counter(aide_telemetry::names::REMOTE_READS_FROM_MEMORY);
    let asked = telemetry.counter(aide_telemetry::names::REMOTE_READS_ASKED);
    let before = (from_memory.get(), asked.get());

    let (sides, target, held) = reading_pair();
    assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    for _ in 0..5 {
        assert_eq!(read(&sides, target, 0), (Some(held[0]), false));
    }
    // A reference to one of the reader's own objects needs no import.
    assert_eq!(read(&sides, target, 1), (Some(held[1]), true));
    assert_eq!(read(&sides, target, 1), (Some(held[1]), false));
    // An empty slot is remembered as empty.
    assert_eq!(read(&sides, target, 2), (None, true));
    assert_eq!(read(&sides, target, 2), (None, false));
    // The class, too.
    let served = sides[1].endpoint.requests_served();
    for _ in 0..3 {
        assert_eq!(sides[0].adapter.class_of(target).unwrap(), NODE);
    }
    assert_eq!(sides[1].endpoint.requests_served(), served + 1);

    assert_eq!(
        (from_memory.get() - before.0, asked.get() - before.1),
        (5 + 1 + 1 + 2, 3 + 1),
        "(answered from memory, asked)"
    );
    stop(&sides);
}

#[test]
fn remembered_slots_are_dropped_when_the_owners_write_count_moves() {
    let _gate = gate();
    let (sides, target, held) = reading_pair();
    assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    assert_eq!(read(&sides, target, 1), (Some(held[1]), true));
    assert_eq!(sides[0].adapter.remembered_slots().len(), 2);

    // The owner writes inside a served `Invoke`: the reply carries the
    // count, and every slot is asked for again — not just the one written.
    sides[0]
        .adapter
        .invoke(target, NODE, SET0, 8, 0, &[held[1]])
        .unwrap();
    assert!(sides[0].adapter.remembered_slots().is_empty());
    assert_eq!(read(&sides, target, 0), (Some(held[1]), true));
    assert_eq!(read(&sides, target, 1), (Some(held[1]), true));
    assert_eq!(read(&sides, target, 0), (Some(held[1]), false));

    // The owner writes on its own; the next frame from it says so.
    sides[1].machine.put_slot_on(target, 0, None).unwrap();
    sides[0].endpoint.call(Request::Ping).unwrap();
    assert_eq!(read(&sides, target, 0), (None, true));
    stop(&sides);
}

#[test]
fn the_callers_own_put_slot_writes_through() {
    let _gate = gate();
    let (sides, target, held) = reading_pair();
    assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    assert_eq!(read(&sides, target, 1), (Some(held[1]), true));
    // Writes by the reader itself wait for the next frame, and the owner
    // runs nothing before it: the slots read stand, those written with
    // what was put, and none is asked for.
    sides[0].adapter.put_slot(target, 0, Some(held[1])).unwrap();
    sides[0].adapter.put_slot(target, 3, None).unwrap();
    assert_eq!(read(&sides, target, 0), (Some(held[1]), false));
    assert_eq!(read(&sides, target, 1), (Some(held[1]), false));
    assert_eq!(read(&sides, target, 3), (None, false));
    assert_eq!(
        sides[1].machine.get_slot_on(target, 0).unwrap(),
        Some(held[0]),
        "nothing has gone yet"
    );

    // The next frame carries both. The owner's count moves by exactly the
    // two, so they all still stand.
    sides[0].adapter.flush().unwrap();
    assert_eq!(
        sides[1].machine.get_slot_on(target, 0).unwrap(),
        Some(held[1])
    );
    assert_eq!(read(&sides, target, 0), (Some(held[1]), false));

    // Not so when the owner wrote as well in the meantime.
    sides[1].machine.put_slot_on(target, 1, None).unwrap();
    sides[0].adapter.put_slot(target, 0, None).unwrap();
    sides[0].adapter.flush().unwrap();
    assert!(sides[0].adapter.remembered_slots().is_empty());
    assert_eq!(read(&sides, target, 1), (None, true));

    // A write rides the next frame — here a read's — and is served first.
    sides[0].adapter.put_slot(target, 3, Some(held[0])).unwrap();
    assert_eq!(read(&sides, target, 2), (None, true));
    assert_eq!(
        sides[1].machine.get_slot_on(target, 3).unwrap(),
        Some(held[0])
    );
    stop(&sides);
}

#[test]
fn remembered_slots_are_dropped_by_a_migration_either_way() {
    let _gate = gate();
    let mut world = World::start();
    let target = world.owned[1][0];
    world.sides[0].endpoint.call(Request::Ping).unwrap();
    assert_eq!(read(&world.sides, target, 0), (None, true));
    assert_eq!(read(&world.sides, target, 0), (None, false));

    // Out: a client object leaves for the surrogate.
    let leaving = world.owned[0][1];
    world.migrate(0, leaving);
    assert!(world.sides[0].adapter.remembered_slots().is_empty());
    assert_eq!(read(&world.sides, target, 0), (None, true));
    assert_eq!(read(&world.sides, target, 0), (None, false));

    // In: a surrogate object arrives at the client.
    let arriving = world.owned[1][1];
    world.migrate(1, arriving);
    assert!(world.sides[0].adapter.remembered_slots().is_empty());
    assert_eq!(read(&world.sides, target, 0), (None, true));
    stop(&world.sides);
}

#[test]
fn remembered_slots_are_dropped_when_the_lease_epoch_changes() {
    let _gate = gate();
    let (sides, target, held) = reading_pair();
    assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    assert_eq!(read(&sides, target, 0), (Some(held[0]), false));
    sides[0].tables.imports.begin_epoch();
    assert!(sides[0].adapter.remembered_slots().is_empty());
    assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    assert_eq!(read(&sides, target, 0), (Some(held[0]), false));
    stop(&sides);
}

#[test]
fn a_released_import_is_asked_for_again_not_served_from_memory() {
    let _gate = gate();
    let (sides, target, held) = reading_pair();
    let [client, surrogate] = &sides;
    assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    assert_eq!(read(&sides, target, 0), (Some(held[0]), false));
    assert!(client.tables.imports.contains(held[0]));
    assert!(surrogate.tables.exports.contains(held[0]));

    // The client's collector finds nothing referencing what it read and
    // releases it; the surrogate unpins. No slot was written: the count
    // stands, and the slot is still remembered.
    let dropped = client.tables.imports.sweep_dropped(&HashSet::new());
    assert!(dropped.contains(&held[0]));
    client
        .endpoint
        .call(Request::GcReleaseSeq {
            epoch: client.tables.imports.advertised_epoch(),
            release_seq: client.tables.imports.next_release_seq(),
            objects: dropped,
        })
        .unwrap();
    assert!(!surrogate.tables.exports.contains(held[0]));
    assert_eq!(client.adapter.remembered_slots().len(), 1);

    // Handing it out from memory would leave the client holding what the
    // surrogate no longer pins: it asks, and asking exports it again.
    assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    assert!(client.tables.imports.contains(held[0]));
    assert!(surrogate.tables.exports.contains(held[0]));
    assert_eq!(read(&sides, target, 0), (Some(held[0]), false));
    stop(&sides);
}

#[test]
fn only_classes_are_kept_across_a_flush() {
    let _gate = gate();
    let (sides, target, held) = reading_pair();
    assert_eq!(sides[0].adapter.class_of(target).unwrap(), NODE);
    assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    for flush in 0..3 {
        let flushed = match flush {
            0 => sides[0]
                .adapter
                .invoke(target, NODE, SET0, 8, 0, &[held[0]]),
            1 => sides[1].machine.put_slot_on(target, 2, None),
            _ => {
                sides[0].tables.imports.begin_epoch();
                Ok(())
            }
        };
        flushed.unwrap();
        sides[0].endpoint.call(Request::Ping).unwrap();
        assert!(sides[0].adapter.remembered_slots().is_empty());
        let served = sides[1].endpoint.requests_served();
        assert_eq!(sides[0].adapter.class_of(target).unwrap(), NODE);
        assert_eq!(sides[1].endpoint.requests_served(), served, "class kept");
        assert_eq!(read(&sides, target, 0), (Some(held[0]), true));
    }
    stop(&sides);
}

#[test]
fn a_peer_with_no_tables_attached_is_never_memoised() {
    let _gate = gate();
    let (sides, owned) = pair(false);
    let target = owned[1][0];
    assert_eq!(sides[0].endpoint.peer_writes(), None);
    for _ in 0..3 {
        assert_eq!(read(&sides, target, 0), (None, true));
        let served = sides[1].endpoint.requests_served();
        assert_eq!(sides[0].adapter.class_of(target).unwrap(), NODE);
        assert_eq!(sides[1].endpoint.requests_served(), served + 1);
    }
    assert_eq!(sides[0].endpoint.peer_writes(), None);
    assert!(sides[0].adapter.remembered_slots().is_empty());
    // The other way round the client did attach, and is remembered.
    let mine = owned[0][0];
    sides[1].adapter.get_slot(mine, 0).unwrap();
    let served = sides[0].endpoint.requests_served();
    sides[1].adapter.get_slot(mine, 0).unwrap();
    assert_eq!(sides[0].endpoint.requests_served(), served);
    stop(&sides);
}

#[test]
fn a_duplicate_frame_with_an_older_count_changes_nothing() {
    let _gate = gate();
    // A surrogate played by hand: one slot, one count, every reply stamped.
    let (link, ct, st) = Link::pair(CommParams::WAVELAN);
    let client = Side::start(
        Machine::new(program(), VmConfig::client(1 << 20)),
        ct,
        &link,
        true,
    );
    let (old, new) = (ObjectId::surrogate(1), ObjectId::surrogate(2));
    let script = Arc::new(Mutex::new((Some(old), 5u64)));
    let stamped = |seq, result, writes| {
        Message::Reply { seq, result }.encode_stamped(Some(LeaseStamp { epoch: 0, writes }))
    };
    let peer = {
        let (script, st) = (script.clone(), st.clone());
        std::thread::spawn(move || {
            let mut slot_reads = Vec::new();
            while let Ok(frame) = st.recv() {
                let Ok(Message::Request { seq, body, .. }) = Message::decode(&frame) else {
                    continue;
                };
                let (value, writes) = *script.lock().unwrap();
                let reply = match body {
                    Request::GetSlot { .. } => {
                        slot_reads.push(seq);
                        Reply::Slot(value)
                    }
                    Request::Shutdown => break,
                    _ => Reply::Unit,
                };
                st.send(stamped(seq, Ok(reply), writes)).unwrap();
            }
            slot_reads
        })
    };
    let target = ObjectId::surrogate(9);
    let get = || client.adapter.get_slot(target, 0).unwrap();

    // Nothing heard before the first read; the second is remembered.
    assert_eq!((get(), get(), get()), (Some(old), Some(old), Some(old)));
    assert_eq!(client.endpoint.peer_writes(), Some(5));
    // The owner writes, and says so on its next frame.
    *script.lock().unwrap() = (Some(new), 6);
    client.endpoint.call(Request::Ping).unwrap();
    assert_eq!((get(), get()), (Some(new), Some(new)));
    assert_eq!(
        client.adapter.remembered_slots(),
        vec![(target, 0, Some(new))]
    );

    // A straggler: the first reply again, old value, old count. Delivered
    // on this thread, so it has been absorbed when `send` returns.
    st.send(stamped(1, Ok(Reply::Slot(Some(old))), 5)).unwrap();
    assert_eq!(client.endpoint.peer_writes(), Some(6), "monotone");
    assert_eq!(
        client.adapter.remembered_slots(),
        vec![(target, 0, Some(new))],
        "what was read under 6 is not relabelled"
    );
    assert_eq!(get(), Some(new));

    client.endpoint.shutdown();
    client.endpoint.join();
    drop(st);
    let slot_reads = peer.join().unwrap();
    assert_eq!(slot_reads.len(), 3, "asked: first, second, after the write");
}
