//! Property test for the flat-IR compiler and register interpreter:
//! for arbitrary nested `Repeat`/`Call` bodies, the flat VM must match the
//! legacy tree-walker exactly — same `RunSummary`, same hook-event stream,
//! same error (if any).
//!
//! Programs are generated from a deterministic xorshift stream (same
//! generator family as the placement property tests), biased toward valid
//! programs so runs go deep, but invalid constructions are kept: the
//! property covers error paths too.

use std::sync::Arc;

use aide_vm::{
    ClassId, ExecMode, GcReport, Interaction, Machine, MethodDef, MethodId, NativeKind, ObjectId,
    Op, Program, ProgramBuilder, Reg, RunSummary, RuntimeHooks, VmConfig, VmResult,
};
use parking_lot::Mutex;

/// Deterministic xorshift64 stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
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
}

/// One recorded hook event.
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Interaction(Interaction),
    Alloc(ClassId, ObjectId, u64),
    Free(ClassId, u64, u64),
    Work(ClassId, f64),
    Native(ClassId, NativeKind, u32, u64, bool),
    StaticAccess(ClassId, ClassId, u64, bool),
    MethodExit(ClassId, MethodId),
    Gc(u64, u64, u64),
}

#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<Ev>>,
}

impl RuntimeHooks for Recorder {
    fn on_interaction(&self, event: Interaction) {
        self.events.lock().push(Ev::Interaction(event));
    }
    fn on_alloc(&self, class: ClassId, object: ObjectId, bytes: u64) {
        self.events.lock().push(Ev::Alloc(class, object, bytes));
    }
    fn on_free(&self, class: ClassId, objects: u64, bytes: u64) {
        self.events.lock().push(Ev::Free(class, objects, bytes));
    }
    fn on_work(&self, class: ClassId, micros: f64) {
        self.events.lock().push(Ev::Work(class, micros));
    }
    fn on_native(&self, caller: ClassId, kind: NativeKind, work: u32, bytes: u64, remote: bool) {
        self.events
            .lock()
            .push(Ev::Native(caller, kind, work, bytes, remote));
    }
    fn on_static_access(&self, accessor: ClassId, class: ClassId, bytes: u64, remote: bool) {
        self.events
            .lock()
            .push(Ev::StaticAccess(accessor, class, bytes, remote));
    }
    fn on_method_exit(&self, class: ClassId, method: MethodId) {
        self.events.lock().push(Ev::MethodExit(class, method));
    }
    fn on_gc(&self, report: &GcReport) {
        self.events.lock().push(Ev::Gc(
            report.cycle,
            report.freed_objects,
            report.freed_bytes,
        ));
    }
}

/// What the generator knows about a register at a program point.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RegState {
    /// Definitely holds an object of this class.
    Known(ClassId),
    /// Definitely non-null, class unknown (method argument).
    Filled,
    /// Possibly null.
    Empty,
}

impl RegState {
    fn filled(self) -> bool {
        !matches!(self, RegState::Empty)
    }
}

const CLASSES: u32 = 3;
/// Every generated object (and the entry object) has this many reference
/// slots, so slot indices below it are always valid.
const REF_SLOTS: u16 = 4;

/// Signature of one generated method. Bodies may only call methods with a
/// strictly greater index, so generated call graphs are acyclic and every
/// program terminates.
#[derive(Debug, Clone, Copy)]
struct Spec {
    class: ClassId,
    is_static: bool,
    params: u8,
}

fn gen_body(
    rng: &mut Rng,
    specs: &[Spec],
    my_index: usize,
    state: &mut [RegState; 8],
    depth: u32,
    len: u64,
) -> Vec<Op> {
    let mut body = Vec::new();
    for _ in 0..len {
        let pick = rng.below(12);
        let op = match pick {
            0 | 1 => Op::Work {
                micros: 1 + rng.below(200) as u32,
            },
            2 | 3 => {
                let class = ClassId(rng.below(CLASSES as u64) as u32);
                let dst = rng.below(8) as usize;
                state[dst] = RegState::Known(class);
                Op::New {
                    class,
                    scalar_bytes: 16 + rng.below(2048) as u32,
                    ref_slots: REF_SLOTS,
                    dst: Reg(dst as u8),
                }
            }
            4 | 5 => match pick_filled(rng, state) {
                Some(obj) => {
                    let bytes = 1 + rng.below(512) as u32;
                    if rng.below(2) == 0 {
                        Op::Read { obj, bytes }
                    } else {
                        Op::Write { obj, bytes }
                    }
                }
                None => fallback(rng),
            },
            6 => {
                let dst = rng.below(8) as usize;
                state[dst] = RegState::Empty;
                Op::GetSlot {
                    slot: rng.below(REF_SLOTS as u64) as u16,
                    dst: Reg(dst as u8),
                }
            }
            7 => match pick_filled(rng, state) {
                Some(src) => Op::PutSlot {
                    slot: rng.below(REF_SLOTS as u64) as u16,
                    src,
                },
                None => fallback(rng),
            },
            8 => match (pick_filled(rng, state), pick_filled(rng, state)) {
                (Some(obj), Some(src)) if rng.below(2) == 0 => Op::PutSlotOf {
                    obj,
                    slot: rng.below(REF_SLOTS as u64) as u16,
                    src,
                },
                (Some(obj), _) => {
                    let dst = rng.below(8) as usize;
                    state[dst] = RegState::Empty;
                    Op::GetSlotOf {
                        obj,
                        slot: rng.below(REF_SLOTS as u64) as u16,
                        dst: Reg(dst as u8),
                    }
                }
                _ => fallback(rng),
            },
            9 => match gen_call(rng, specs, my_index, state) {
                Some(op) => op,
                None => fallback(rng),
            },
            10 => {
                if rng.below(3) == 0 {
                    Op::Native {
                        kind: NativeKind::ALL[rng.below(6) as usize],
                        work_micros: 1 + rng.below(50) as u32,
                        arg_bytes: 4,
                        ret_bytes: 4,
                    }
                } else {
                    let class = ClassId(rng.below(CLASSES as u64) as u32);
                    let bytes = 1 + rng.below(64) as u32;
                    if rng.below(2) == 0 {
                        Op::GetStatic { class, bytes }
                    } else {
                        Op::PutStatic { class, bytes }
                    }
                }
            }
            _ => {
                if depth < 2 {
                    let mut inner = *state;
                    let n = rng.below(4) as u32;
                    let len = 1 + rng.below(4);
                    let nested = gen_body(rng, specs, my_index, &mut inner, depth + 1, len);
                    // The loop may run zero times: keep only register facts
                    // that hold both before and after the body.
                    for (s, i) in state.iter_mut().zip(inner.iter()) {
                        if *s != *i {
                            *s = RegState::Empty;
                        }
                    }
                    Op::Repeat { n, body: nested }
                } else {
                    fallback(rng)
                }
            }
        };
        body.push(op);
    }
    body
}

fn fallback(rng: &mut Rng) -> Op {
    Op::Work {
        micros: 1 + rng.below(20) as u32,
    }
}

fn pick_filled(rng: &mut Rng, state: &[RegState; 8]) -> Option<Reg> {
    let filled: Vec<u8> = (0..8u8).filter(|&r| state[r as usize].filled()).collect();
    if filled.is_empty() {
        return None;
    }
    Some(Reg(filled[rng.below(filled.len() as u64) as usize]))
}

/// Generates a dynamic or static call to a later method, or `None` when no
/// receiver/arguments are available at this program point.
fn gen_call(rng: &mut Rng, specs: &[Spec], my_index: usize, state: &[RegState; 8]) -> Option<Op> {
    let mut candidates = Vec::new();
    for (j, spec) in specs.iter().enumerate().skip(my_index + 1) {
        if spec.is_static {
            candidates.push((j, None));
        } else {
            for r in 0..8u8 {
                if state[r as usize] == RegState::Known(spec.class) {
                    candidates.push((j, Some(Reg(r))));
                }
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (j, receiver) = candidates[rng.below(candidates.len() as u64) as usize];
    let spec = specs[j];
    let filled: Vec<Reg> = (0..8u8)
        .filter(|&r| state[r as usize].filled())
        .map(Reg)
        .collect();
    if filled.len() < spec.params as usize {
        return None;
    }
    let args: Vec<Reg> = (0..spec.params)
        .map(|_| filled[rng.below(filled.len() as u64) as usize])
        .collect();
    let method = method_id_within_class(specs, j);
    let arg_bytes = 1 + rng.below(64) as u32;
    let ret_bytes = rng.below(32) as u32;
    Some(match receiver {
        Some(obj) => Op::Call {
            obj,
            class: spec.class,
            method,
            arg_bytes,
            ret_bytes,
            args,
        },
        None => Op::CallStatic {
            class: spec.class,
            method,
            arg_bytes,
            ret_bytes,
            args,
        },
    })
}

/// Method ids are per-class indices in builder insertion order; methods are
/// added to the builder in spec order, so the id of spec `j` is the number
/// of earlier specs in the same class.
fn method_id_within_class(specs: &[Spec], j: usize) -> MethodId {
    let n = specs[..j]
        .iter()
        .filter(|s| s.class == specs[j].class)
        .count();
    MethodId(n as u16)
}

fn gen_program(seed: u64) -> Arc<Program> {
    let mut rng = Rng::new(seed);
    let n_methods = 4 + rng.below(3) as usize;
    let mut specs = Vec::with_capacity(n_methods);
    // Method 0 is the entry point: class 0, dynamic, no parameters.
    specs.push(Spec {
        class: ClassId(0),
        is_static: false,
        params: 0,
    });
    for _ in 1..n_methods {
        specs.push(Spec {
            class: ClassId(rng.below(CLASSES as u64) as u32),
            is_static: rng.below(4) == 0,
            params: rng.below(3) as u8,
        });
    }

    let mut b = ProgramBuilder::new();
    for c in 0..CLASSES {
        b.add_class(format!("C{c}"));
    }
    for (i, spec) in specs.iter().enumerate() {
        let mut state = [RegState::Empty; 8];
        for p in 0..spec.params {
            state[p as usize] = RegState::Filled;
        }
        let len = 2 + rng.below(7);
        let body = gen_body(&mut rng, &specs, i, &mut state, 0, len);
        let name = format!("m{i}");
        let def = if spec.is_static {
            MethodDef::new_static(name, body)
        } else {
            MethodDef::new(name, body)
        };
        b.add_method(spec.class, def);
    }
    Arc::new(
        b.build(ClassId(0), MethodId(0), 64, REF_SLOTS)
            .expect("generated program validates"),
    )
}

fn run_mode(
    program: &Arc<Program>,
    mode: ExecMode,
    config: VmConfig,
) -> (VmResult<RunSummary>, Vec<Ev>) {
    let rec = Arc::new(Recorder::default());
    let mut machine = Machine::with_hooks(program.clone(), config, rec.clone());
    machine.set_exec_mode(mode);
    let result = machine.run_entry();
    let events = rec.events.lock().clone();
    (result, events)
}

fn check_equivalence(seed: u64, config: VmConfig, label: &str) {
    let program = gen_program(seed);
    let (flat, flat_events) = run_mode(&program, ExecMode::Flat, config);
    let (legacy, legacy_events) = run_mode(&program, ExecMode::Legacy, config);
    assert_eq!(
        flat, legacy,
        "seed {seed} ({label}): outcome diverged\nprogram: {program:#?}"
    );
    assert_eq!(
        flat_events.len(),
        legacy_events.len(),
        "seed {seed} ({label}): event count diverged"
    );
    for (i, (f, l)) in flat_events.iter().zip(legacy_events.iter()).enumerate() {
        assert_eq!(f, l, "seed {seed} ({label}): event {i} diverged");
    }
}

#[test]
fn flat_ir_matches_tree_walk_semantics() {
    for seed in 0..32u64 {
        check_equivalence(seed, VmConfig::client(1 << 22), "monitoring off");
    }
}

#[test]
fn flat_ir_matches_tree_walk_semantics_with_monitoring() {
    let mut config = VmConfig::client(1 << 22);
    config.cost.monitor_event_micros = 1.0;
    for seed in 100..120u64 {
        check_equivalence(seed, config, "monitoring on");
    }
}

#[test]
fn flat_ir_matches_tree_walk_on_surrogate_config() {
    // A surrogate-speed VM without a peer: remote paths error identically.
    let config = VmConfig {
        speed_factor: 3.5,
        ..VmConfig::client(1 << 22)
    };
    for seed in 200..216u64 {
        check_equivalence(seed, config, "surrogate speed");
    }
}
