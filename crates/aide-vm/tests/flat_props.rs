//! Property test for the flat-IR compiler and register interpreter:
//! for arbitrary nested `Repeat`/`Call` bodies, the VM must match the
//! committed verdicts (`tests/fixtures/verdicts/flat_props.*.txt`, blessed
//! where the seed tree-walker agreed) exactly — same `RunSummary`, same
//! hook-event stream, same error (if any).
//!
//! Programs are generated from a deterministic xorshift stream (same
//! generator family as the placement property tests), biased toward valid
//! programs so runs go deep, but invalid constructions are kept: the
//! property covers error paths too. A second family draws one-`Work`
//! methods and calls without arguments to them, which the interpreter runs
//! in place unless its sink needs the work boundary; both ways must match
//! verdicts blessed before there was an in-place path.

mod support;

use std::ops::Range;
use std::sync::Arc;

use aide_vm::{
    ClassId, FlatOp, FlatProgram, MethodDef, MethodId, NativeKind, Op, Program, ProgramBuilder,
    Reg, VmConfig, VmError,
};

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
    /// The body is one `Work` (dynamic, no parameters).
    leaf: bool,
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
    let leaves = specs.iter().any(|s| s.leaf);
    for _ in 0..len {
        if leaves && rng.below(3) == 0 && gen_leaf_call(rng, specs, my_index, state, &mut body) {
            continue;
        }
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

/// A call without arguments to a later one-`Work` method, pushed onto
/// `body`: mostly on a receiver of its class (allocated first when no
/// register holds one), now and then on any register (it may hold null) or
/// on one that holds another class or an unknown one. `false` when the
/// program has no such method.
fn gen_leaf_call(
    rng: &mut Rng,
    specs: &[Spec],
    my_index: usize,
    state: &mut [RegState; 8],
    body: &mut Vec<Op>,
) -> bool {
    let leaves: Vec<usize> = (my_index + 1..specs.len())
        .filter(|&j| specs[j].leaf)
        .collect();
    if leaves.is_empty() {
        return false;
    }
    let j = leaves[rng.below(leaves.len() as u64) as usize];
    let class = specs[j].class;
    let mut regs: Vec<u8> = match rng.below(16) {
        0 => (0..8).collect(),
        1 | 2 => (0..8u8)
            .filter(|&r| state[r as usize].filled() && state[r as usize] != RegState::Known(class))
            .collect(),
        _ => (0..8u8)
            .filter(|&r| state[r as usize] == RegState::Known(class))
            .collect(),
    };
    if regs.is_empty() {
        let dst = rng.below(8) as u8;
        state[dst as usize] = RegState::Known(class);
        body.push(Op::New {
            class,
            scalar_bytes: 16 + rng.below(256) as u32,
            ref_slots: REF_SLOTS,
            dst: Reg(dst),
        });
        regs.push(dst);
    }
    body.push(Op::Call {
        obj: Reg(regs[rng.below(regs.len() as u64) as usize]),
        class,
        method: method_id_within_class(specs, j),
        arg_bytes: rng.below(16) as u32,
        ret_bytes: rng.below(16) as u32,
        args: vec![],
    });
    true
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

/// With `leaves`, about half the methods but the entry are one-`Work`
/// methods, and bodies often call them; without, no method is, and the
/// stream draws exactly what it drew before there were any.
fn gen_program(seed: u64, leaves: bool) -> Arc<Program> {
    let mut rng = Rng::new(seed);
    let n_methods = 4 + rng.below(3) as usize;
    let mut specs = Vec::with_capacity(n_methods);
    // Method 0 is the entry point: class 0, dynamic, no parameters.
    specs.push(Spec {
        class: ClassId(0),
        is_static: false,
        params: 0,
        leaf: false,
    });
    for _ in 1..n_methods {
        let leaf = leaves && rng.below(2) == 0;
        let class = ClassId(rng.below(CLASSES as u64) as u32);
        specs.push(if leaf {
            Spec {
                class,
                is_static: false,
                params: 0,
                leaf,
            }
        } else {
            Spec {
                class,
                is_static: rng.below(4) == 0,
                params: rng.below(3) as u8,
                leaf,
            }
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
        let body = if spec.leaf {
            vec![Op::Work {
                micros: 1 + rng.below(200) as u32,
            }]
        } else {
            let len = 2 + rng.below(7);
            gen_body(&mut rng, &specs, i, &mut state, 0, len)
        };
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

fn check_seeds(seeds: Range<u64>, config: VmConfig, file: &str) {
    let mut verdicts = Vec::new();
    for seed in seeds {
        let (outcome, events) = support::run(&gen_program(seed, false), config);
        verdicts.push(support::verdict(&format!("seed {seed}"), &outcome, &events));
    }
    support::check_verdicts(file, &verdicts);
}

#[test]
fn flat_ir_matches_tree_walk_semantics() {
    check_seeds(
        0..32,
        VmConfig::client(1 << 22),
        "flat_props.monitoring_off.txt",
    );
}

#[test]
fn flat_ir_matches_tree_walk_semantics_with_monitoring() {
    let mut config = VmConfig::client(1 << 22);
    config.cost.monitor_event_micros = 1.0;
    check_seeds(100..120, config, "flat_props.monitoring_on.txt");
}

#[test]
fn flat_ir_matches_tree_walk_on_surrogate_config() {
    // A surrogate-speed VM without a peer: remote paths error identically.
    let config = VmConfig {
        speed_factor: 3.5,
        ..VmConfig::client(1 << 22)
    };
    check_seeds(200..216, config, "flat_props.surrogate_speed.txt");
}

#[test]
fn leaf_calls_run_in_place_as_they_ran_framed() {
    let mut config = VmConfig::client(1 << 22);
    config.cost.monitor_event_micros = 1.0;
    let mut verdicts = Vec::new();
    let (mut leaf_ops, mut null, mut mismatch, mut deep) = (0, 0, 0, 0);
    for seed in 300..348 {
        let program = gen_program(seed, true);
        leaf_ops += FlatProgram::compile(&program)
            .code()
            .iter()
            .filter(|op| matches!(op, FlatOp::CallLeaf { .. }))
            .count();
        // The entry runs at depth 1: a limit of 1 fails its first call.
        for depth in [None, Some(1), Some(2), Some(3)] {
            let name = format!("seed {seed} depth {depth:?}");
            let (outcome, events) = support::run_with(&program, config, depth, false);
            let line = support::verdict(&name, &outcome, &events);
            let (in_place, in_place_events) = support::run_with(&program, config, depth, true);
            assert_eq!(
                support::verdict(&name, &in_place, &in_place_events),
                line,
                "{name}: a sink without the work boundary saw another run"
            );
            match outcome {
                Err(VmError::NullRegister(_)) => null += 1,
                Err(VmError::ClassMismatch { .. }) => mismatch += 1,
                Err(VmError::CallDepthExceeded(_)) => deep += 1,
                _ => {}
            }
            verdicts.push(line);
        }
    }
    support::check_verdicts("flat_props.leaf_calls.txt", &verdicts);
    assert!(leaf_ops >= 150, "only {leaf_ops} leaf calls drawn");
    assert!(
        null > 0 && mismatch > 0 && deep > 0,
        "null receivers {null}, class mismatches {mismatch}, depth limits {deep}"
    );
}
