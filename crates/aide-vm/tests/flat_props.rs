//! Property test for the flat-IR compiler and register interpreter:
//! for arbitrary nested `Repeat`/`Call` bodies, the VM must match the
//! committed verdicts (`tests/fixtures/verdicts/flat_props.*.txt`, blessed
//! where the seed tree-walker agreed) exactly — same `RunSummary`, same
//! hook-event stream, same error (if any).
//!
//! Programs are generated from a deterministic xorshift stream (same
//! generator family as the placement property tests), biased toward valid
//! programs so runs go deep, but invalid constructions are kept: the
//! property covers error paths too.

mod support;

use std::ops::Range;
use std::sync::Arc;

use aide_vm::{
    ClassId, MethodDef, MethodId, NativeKind, Op, Program, ProgramBuilder, Reg, VmConfig,
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

fn check_seeds(seeds: Range<u64>, config: VmConfig, file: &str) {
    let mut verdicts = Vec::new();
    for seed in seeds {
        let (outcome, events) = support::run(&gen_program(seed), config);
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
