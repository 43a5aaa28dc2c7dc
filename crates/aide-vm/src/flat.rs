//! Pre-decoded flat IR for the register VM.
//!
//! A [`Program`]'s method bodies are nested `Vec<Op>` trees. This module
//! lowers a program **once** into a contiguous, pre-decoded instruction
//! stream (the register-VM shape), so that executing it re-traverses no
//! body vector, re-resolves no callee through the class table and
//! re-decodes no operand:
//!
//! * `Repeat` bodies are flattened into [`FlatOp::Loop`]/[`FlatOp::EndLoop`]
//!   pairs with explicit backward jumps and a per-frame loop-counter stack —
//!   no tree re-traversal at run time;
//! * every method body ends with an explicit [`FlatOp::Return`], so the
//!   interpreter never needs to track body extents;
//! * call sites are pre-resolved to dense flat-method indices (a
//!   [`CallSite`] side table) and their argument registers live in one
//!   shared arena;
//! * a dynamic call that passes no argument registers to a method compiled
//!   as `[Work, Return]` is lowered to [`FlatOp::CallLeaf`], which carries
//!   the callee's `Work`, so the interpreter runs the callee in place;
//! * class and method names are interned into a [`Sym`] string table;
//! * each op that performs the local-vs-remote reference check
//!   ([`FlatOp::Call`], [`FlatOp::CallLeaf`], [`FlatOp::Read`],
//!   [`FlatOp::Write`]) is assigned a dense *inline-cache site id*
//!   indexing the VM's per-site cache of `(object, class, locality-epoch)`
//!   — a monomorphic site's check becomes a single compare-and-branch.
//!
//! A site's interaction is fixed but for its target: code is compiled per
//! `(class, method)`, so the caller class, the kind and the payload bytes
//! are known here ([`FlatProgram::site_interaction`]). That is what lets
//! the interpreter tell an accumulating sink "`n` more of the same" at a
//! cache hit instead of queueing each one.
//!
//! `GetSlot`/`GetSlotOf`-family ops carry no cache site: reading a slot
//! needs the object record anyway, so the flat interpreter's single heap
//! lookup already subsumes the locality check.
//!
//! The interpreter executing this IR lives in [`crate::machine`]; this
//! module is purely the compiler and the layout types.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::error::VmError;
use crate::hooks::{Interaction, InteractionKind};
use crate::ids::{ClassId, MethodId, ObjectId, Reg};
use crate::natives::NativeKind;
use crate::program::{Op, Program};

/// An interned string: an index into the flat program's string table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(pub u32);

/// Sentinel flat-method index for call sites whose target could not be
/// resolved at compile time. Unreachable for programs built through
/// [`Program::new`] (validation guarantees every callee exists); possible
/// only for deserialized programs that bypassed validation, in which case
/// executing the site returns the lookup error [`Program::method`] would.
pub const UNRESOLVED: u32 = u32::MAX;

/// Sentinel inline-cache site id for ops that carry no cache (static calls).
pub const NO_SITE: u32 = u32::MAX;

/// One pre-decoded instruction of the flat IR.
///
/// Operands are raw `u8` register indices and `u32` slots — no nested
/// vectors, no heap indirection. Wide call-site payloads live in the
/// [`CallSite`] side table so the op itself stays small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatOp {
    /// Burn `micros` microseconds of client-speed CPU.
    Work {
        /// Microseconds of client-speed CPU time.
        micros: u32,
    },
    /// Allocate an object of `class` and store the reference in `dst`.
    New {
        /// Class to instantiate.
        class: ClassId,
        /// Scalar payload size in bytes.
        scalar_bytes: u32,
        /// Number of object-reference slots.
        ref_slots: u16,
        /// Destination register.
        dst: u8,
    },
    /// Invoke through [`CallSite`] `call` (dynamic: receiver in a register).
    Call {
        /// Index into the call-site table.
        call: u32,
    },
    /// A [`FlatOp::Call`] whose callee's whole body is one `Work { micros }`
    /// and which passes no argument registers: the interpreter runs the
    /// callee in place, without a frame (see [`FlatProgram::compile`]).
    CallLeaf {
        /// Index into the call-site table.
        call: u32,
        /// The callee's `Work`, in microseconds of client-speed CPU time.
        micros: u32,
    },
    /// Invoke a static method through [`CallSite`] `call`.
    CallStatic {
        /// Index into the call-site table.
        call: u32,
    },
    /// Read `bytes` of scalar data from the object in register `obj`.
    Read {
        /// Register holding the target object.
        obj: u8,
        /// Bytes read.
        bytes: u32,
        /// Inline-cache site id for the local-vs-remote check.
        ic: u32,
    },
    /// Write `bytes` of scalar data to the object in register `obj`.
    Write {
        /// Register holding the target object.
        obj: u8,
        /// Bytes written.
        bytes: u32,
        /// Inline-cache site id for the local-vs-remote check.
        ic: u32,
    },
    /// Copy a reference out of one of `self`'s slots into `dst`.
    GetSlot {
        /// Slot index within the receiver.
        slot: u16,
        /// Destination register.
        dst: u8,
    },
    /// Store register `src` into one of `self`'s slots.
    PutSlot {
        /// Slot index within the receiver.
        slot: u16,
        /// Source register (may hold null).
        src: u8,
    },
    /// Copy a reference out of a slot of the object in `obj`.
    GetSlotOf {
        /// Register holding the object whose slot is read.
        obj: u8,
        /// Slot index.
        slot: u16,
        /// Destination register.
        dst: u8,
    },
    /// Store register `src` into a slot of the object in `obj`.
    PutSlotOf {
        /// Register holding the object whose slot is written.
        obj: u8,
        /// Slot index.
        slot: u16,
        /// Source register.
        src: u8,
    },
    /// Invoke a native method.
    Native {
        /// Kind of native (decides where it may run).
        kind: NativeKind,
        /// Microseconds of client-speed CPU the native burns.
        work_micros: u32,
        /// Bytes of parameters passed.
        arg_bytes: u32,
        /// Bytes of results returned.
        ret_bytes: u32,
    },
    /// Read `bytes` from a class's static data.
    GetStatic {
        /// Class owning the static data.
        class: ClassId,
        /// Bytes read.
        bytes: u32,
    },
    /// Write `bytes` to a class's static data.
    PutStatic {
        /// Class owning the static data.
        class: ClassId,
        /// Bytes written.
        bytes: u32,
    },
    /// Clear a register.
    Clear {
        /// Register to clear.
        reg: u8,
    },
    /// Loop header lowered from `Op::Repeat`: push `n` onto the frame's
    /// loop-counter stack and fall through, or — when `n == 0` — jump past
    /// the matching [`FlatOp::EndLoop`] at instruction index `end`.
    Loop {
        /// Iteration count.
        n: u32,
        /// Instruction index of the matching `EndLoop`.
        end: u32,
    },
    /// Loop trailer: decrement the innermost counter and jump back to
    /// `start` (the first body op) while it is non-zero.
    EndLoop {
        /// Instruction index of the first loop-body op.
        start: u32,
    },
    /// Method terminator: pop the current frame (appended to every body).
    Return,
}

/// Side-table entry for one `Call`/`CallStatic` site: the pre-resolved
/// callee plus the interaction-accounting payload sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Class the site is compiled against (receiver must match).
    pub class: ClassId,
    /// Method index within `class`.
    pub method: MethodId,
    /// Pre-resolved dense flat-method index, or [`UNRESOLVED`].
    pub target: u32,
    /// Inline-cache site id, or [`NO_SITE`] for static calls.
    pub ic: u32,
    /// Start of this site's argument registers in the shared arena.
    pub args_start: u32,
    /// Number of argument registers.
    pub args_len: u8,
    /// Bytes of parameters passed.
    pub arg_bytes: u32,
    /// Bytes of return value produced.
    pub ret_bytes: u32,
    /// Register holding the receiver (unused for static calls).
    pub obj: u8,
}

/// One compiled method: a contiguous `[code_start, code_end)` range of the
/// flat instruction stream, ending with a [`FlatOp::Return`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatMethod {
    /// Owning class.
    pub class: ClassId,
    /// Method index within the class.
    pub method: MethodId,
    /// Interned method name.
    pub name: Sym,
    /// `true` for static methods.
    pub is_static: bool,
    /// First instruction index.
    pub code_start: u32,
    /// One past the terminating `Return`.
    pub code_end: u32,
}

/// Where an inline-cache site is: the op that performs its interaction,
/// which has the kind and the bytes, and the class whose method holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    caller: ClassId,
    ip: u32,
}

#[derive(Debug, Default)]
struct Interner {
    map: HashMap<String, Sym>,
    strings: Vec<Box<str>>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        self.strings.push(s.into());
        self.map.insert(s.to_string(), sym);
        sym
    }
}

struct Lowerer<'p> {
    program: &'p Program,
    class_method_base: Vec<u32>,
    code: Vec<FlatOp>,
    calls: Vec<CallSite>,
    call_args: Vec<u8>,
    /// The class whose method is being lowered.
    class: ClassId,
    /// Indexed by site id.
    sites: Vec<Site>,
}

impl Lowerer<'_> {
    /// A site for the op pushed next.
    fn next_site(&mut self) -> u32 {
        let s = self.sites.len() as u32;
        self.sites.push(Site {
            caller: self.class,
            ip: self.code.len() as u32,
        });
        s
    }

    /// Mirrors `Program::method` resolution, but at compile time.
    fn resolve(&self, class: ClassId, method: MethodId) -> u32 {
        match self.program.classes().get(class.index()) {
            Some(c) if method.index() < c.methods.len() => {
                self.class_method_base[class.index()] + u32::from(method.0)
            }
            _ => UNRESOLVED,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_call(
        &mut self,
        obj: Option<Reg>,
        class: ClassId,
        method: MethodId,
        arg_bytes: u32,
        ret_bytes: u32,
        args: &[Reg],
    ) -> u32 {
        let args_start = self.call_args.len() as u32;
        self.call_args.extend(args.iter().map(|r| r.0));
        let ic = if obj.is_some() {
            self.next_site()
        } else {
            NO_SITE
        };
        let idx = self.calls.len() as u32;
        self.calls.push(CallSite {
            class,
            method,
            target: self.resolve(class, method),
            ic,
            args_start,
            args_len: args.len() as u8,
            arg_bytes,
            ret_bytes,
            obj: obj.map_or(0, |r| r.0),
        });
        idx
    }

    fn lower_ops(&mut self, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Work { micros } => self.code.push(FlatOp::Work { micros: *micros }),
                Op::New {
                    class,
                    scalar_bytes,
                    ref_slots,
                    dst,
                } => self.code.push(FlatOp::New {
                    class: *class,
                    scalar_bytes: *scalar_bytes,
                    ref_slots: *ref_slots,
                    dst: dst.0,
                }),
                Op::Call {
                    obj,
                    class,
                    method,
                    arg_bytes,
                    ret_bytes,
                    args,
                } => {
                    let call =
                        self.lower_call(Some(*obj), *class, *method, *arg_bytes, *ret_bytes, args);
                    self.code.push(FlatOp::Call { call });
                }
                Op::CallStatic {
                    class,
                    method,
                    arg_bytes,
                    ret_bytes,
                    args,
                } => {
                    let call = self.lower_call(None, *class, *method, *arg_bytes, *ret_bytes, args);
                    self.code.push(FlatOp::CallStatic { call });
                }
                Op::Read { obj, bytes } => {
                    let ic = self.next_site();
                    self.code.push(FlatOp::Read {
                        obj: obj.0,
                        bytes: *bytes,
                        ic,
                    });
                }
                Op::Write { obj, bytes } => {
                    let ic = self.next_site();
                    self.code.push(FlatOp::Write {
                        obj: obj.0,
                        bytes: *bytes,
                        ic,
                    });
                }
                Op::GetSlot { slot, dst } => self.code.push(FlatOp::GetSlot {
                    slot: *slot,
                    dst: dst.0,
                }),
                Op::PutSlot { slot, src } => self.code.push(FlatOp::PutSlot {
                    slot: *slot,
                    src: src.0,
                }),
                Op::GetSlotOf { obj, slot, dst } => self.code.push(FlatOp::GetSlotOf {
                    obj: obj.0,
                    slot: *slot,
                    dst: dst.0,
                }),
                Op::PutSlotOf { obj, slot, src } => self.code.push(FlatOp::PutSlotOf {
                    obj: obj.0,
                    slot: *slot,
                    src: src.0,
                }),
                Op::Native {
                    kind,
                    work_micros,
                    arg_bytes,
                    ret_bytes,
                } => self.code.push(FlatOp::Native {
                    kind: *kind,
                    work_micros: *work_micros,
                    arg_bytes: *arg_bytes,
                    ret_bytes: *ret_bytes,
                }),
                Op::GetStatic { class, bytes } => self.code.push(FlatOp::GetStatic {
                    class: *class,
                    bytes: *bytes,
                }),
                Op::PutStatic { class, bytes } => self.code.push(FlatOp::PutStatic {
                    class: *class,
                    bytes: *bytes,
                }),
                Op::Clear { reg } => self.code.push(FlatOp::Clear { reg: reg.0 }),
                Op::Repeat { n, body } => {
                    let header = self.code.len();
                    self.code.push(FlatOp::Loop { n: *n, end: 0 });
                    self.lower_ops(body);
                    let end = self.code.len() as u32;
                    self.code.push(FlatOp::EndLoop {
                        start: header as u32 + 1,
                    });
                    self.code[header] = FlatOp::Loop { n: *n, end };
                }
            }
        }
    }
}

/// A program compiled to the flat IR: one contiguous instruction stream,
/// a dense method table, the call-site side table, and the interned
/// string table.
#[derive(Debug)]
pub struct FlatProgram {
    code: Vec<FlatOp>,
    methods: Vec<FlatMethod>,
    /// Prefix sums of per-class method counts (`len == class_count + 1`):
    /// flat index of `(class, method)` is `base[class] + method`.
    class_method_base: Vec<u32>,
    calls: Vec<CallSite>,
    call_args: Vec<u8>,
    strings: Vec<Box<str>>,
    class_names: Vec<Sym>,
    /// Per inline-cache site, where it is.
    sites: Box<[Site]>,
}

impl FlatProgram {
    /// Lowers `program` into the flat IR. Total for any program: sites
    /// whose callee cannot be resolved (possible only for programs that
    /// bypassed validation) compile to [`UNRESOLVED`] targets that
    /// reproduce the lazy lookup error when executed.
    ///
    /// Once every method is compiled, each dynamic [`FlatOp::Call`] that
    /// passes no argument registers to a method compiled as exactly
    /// `[Work, Return]` becomes a [`FlatOp::CallLeaf`]; a call with
    /// arguments, a static call, an unresolved one and a call to any other
    /// body stay as they are. The callee keeps its code: a run that must
    /// stop at every `Work` enters it through a frame.
    pub fn compile(program: &Program) -> FlatProgram {
        let classes = program.classes();
        let mut interner = Interner::default();
        let class_names: Vec<Sym> = classes.iter().map(|c| interner.intern(&c.name)).collect();

        let mut class_method_base = Vec::with_capacity(classes.len() + 1);
        let mut total = 0u32;
        for c in classes {
            class_method_base.push(total);
            total += c.methods.len() as u32;
        }
        class_method_base.push(total);

        let mut lo = Lowerer {
            program,
            class_method_base,
            code: Vec::new(),
            calls: Vec::new(),
            call_args: Vec::new(),
            class: ClassId(0),
            sites: Vec::new(),
        };
        let mut methods = Vec::with_capacity(total as usize);
        for (ci, c) in classes.iter().enumerate() {
            lo.class = ClassId(ci as u32);
            for (mi, m) in c.methods.iter().enumerate() {
                let code_start = lo.code.len() as u32;
                lo.lower_ops(&m.body);
                lo.code.push(FlatOp::Return);
                methods.push(FlatMethod {
                    class: ClassId(ci as u32),
                    method: MethodId(mi as u16),
                    name: interner.intern(&m.name),
                    is_static: m.is_static,
                    code_start,
                    code_end: lo.code.len() as u32,
                });
            }
        }
        for ip in 0..lo.code.len() {
            let FlatOp::Call { call } = lo.code[ip] else {
                continue;
            };
            let cs = &lo.calls[call as usize];
            if cs.args_len != 0 || cs.target == UNRESOLVED {
                continue;
            }
            let m = &methods[cs.target as usize];
            if let [FlatOp::Work { micros }, FlatOp::Return] =
                lo.code[m.code_start as usize..m.code_end as usize]
            {
                lo.code[ip] = FlatOp::CallLeaf { call, micros };
            }
        }
        FlatProgram {
            code: lo.code,
            methods,
            class_method_base: lo.class_method_base,
            calls: lo.calls,
            call_args: lo.call_args,
            strings: interner.strings,
            class_names,
            sites: lo.sites.into_boxed_slice(),
        }
    }

    /// The contiguous instruction stream.
    #[inline]
    pub fn code(&self) -> &[FlatOp] {
        &self.code
    }

    /// Total instructions in the stream (including `Loop`/`EndLoop`/`Return`
    /// control ops the compiler inserted).
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// The method at dense flat index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (callers obtain indices from
    /// [`FlatProgram::method_entry`] or resolved [`CallSite::target`]s).
    #[inline]
    pub fn method(&self, idx: u32) -> &FlatMethod {
        &self.methods[idx as usize]
    }

    /// Number of compiled methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// The call site at index `call`.
    ///
    /// # Panics
    ///
    /// Panics if `call` is out of range (indices come from
    /// [`FlatOp::Call`]/[`FlatOp::CallLeaf`]/[`FlatOp::CallStatic`] operands).
    #[inline]
    pub fn call(&self, call: u32) -> &CallSite {
        &self.calls[call as usize]
    }

    /// Number of call sites.
    pub fn call_count(&self) -> usize {
        self.calls.len()
    }

    /// The argument registers of call site `call`, from the shared arena.
    #[inline]
    pub fn call_args(&self, call: u32) -> &[u8] {
        let cs = &self.calls[call as usize];
        &self.call_args[cs.args_start as usize..cs.args_start as usize + cs.args_len as usize]
    }

    /// Resolves `(class, method)` to a dense flat-method index.
    pub fn method_entry(&self, class: ClassId, method: MethodId) -> Option<u32> {
        let ci = class.index();
        if ci + 1 >= self.class_method_base.len() {
            return None;
        }
        let idx = self.class_method_base[ci] + u32::from(method.0);
        (idx < self.class_method_base[ci + 1]).then_some(idx)
    }

    /// The error `Program::method` would produce for an unresolvable
    /// `(class, method)` pair — used when an [`UNRESOLVED`] site executes.
    pub(crate) fn resolution_error(&self, class: ClassId, method: MethodId) -> VmError {
        if class.index() + 1 >= self.class_method_base.len() {
            VmError::UnknownClass(class)
        } else {
            VmError::UnknownMethod(class, method)
        }
    }

    /// Number of inline-cache sites the interpreter must provision.
    pub fn site_count(&self) -> u32 {
        self.sites.len() as u32
    }

    /// The local interaction site `site` performs on `target`, an object
    /// of `callee`.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range (ids come from op operands).
    pub fn site_interaction(&self, site: u32, target: ObjectId, callee: ClassId) -> Interaction {
        let s = self.sites[site as usize];
        let (kind, bytes) = match self.code[s.ip as usize] {
            FlatOp::Call { call } | FlatOp::CallLeaf { call, .. } => {
                let cs = &self.calls[call as usize];
                (
                    InteractionKind::Invocation,
                    u64::from(cs.arg_bytes) + u64::from(cs.ret_bytes),
                )
            }
            FlatOp::Read { bytes, .. } | FlatOp::Write { bytes, .. } => {
                (InteractionKind::FieldAccess, u64::from(bytes))
            }
            op => unreachable!("site {site} is at {op:?}"),
        };
        Interaction {
            caller: s.caller,
            callee,
            target: Some(target),
            kind,
            bytes,
            remote: false,
        }
    }

    /// Resolves an interned symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` did not come from this program's table.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// The interned name of `class`, if in range.
    pub fn class_name(&self, class: ClassId) -> Option<&str> {
        self.class_names
            .get(class.index())
            .map(|&s| self.resolve(s))
    }

    /// A human-readable listing of the whole instruction stream, one op per
    /// line, grouped by method — for debugging and golden tests.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for m in &self.methods {
            let _ = writeln!(
                out,
                "{}::{} [{}..{}]{}",
                self.class_name(m.class).unwrap_or("?"),
                self.resolve(m.name),
                m.code_start,
                m.code_end,
                if m.is_static { " static" } else { "" },
            );
            for ip in m.code_start..m.code_end {
                let _ = writeln!(out, "  {ip:>4}: {:?}", self.code[ip as usize]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{MethodDef, ProgramBuilder};

    fn nested_repeat_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let helper = b.add_class("Helper");
        let hm = b.add_method(helper, MethodDef::new("help", vec![Op::Work { micros: 5 }]));
        b.add_method(
            main,
            MethodDef::new(
                "main",
                vec![
                    Op::New {
                        class: helper,
                        scalar_bytes: 100,
                        ref_slots: 0,
                        dst: Reg(0),
                    },
                    Op::Repeat {
                        n: 3,
                        body: vec![
                            Op::Read {
                                obj: Reg(0),
                                bytes: 8,
                            },
                            Op::Repeat {
                                n: 2,
                                body: vec![Op::Call {
                                    obj: Reg(0),
                                    class: helper,
                                    method: hm,
                                    arg_bytes: 4,
                                    ret_bytes: 4,
                                    args: vec![Reg(0)],
                                }],
                            },
                        ],
                    },
                ],
            ),
        );
        b.build(main, MethodId(0), 64, 0).unwrap()
    }

    #[test]
    fn repeat_lowers_to_matched_loop_pairs() {
        let flat = FlatProgram::compile(&nested_repeat_program());
        // Main::main is compiled after Helper::help (class 0 methods first?
        // no — classes are lowered in id order, Main is class 0).
        let main = flat.method(flat.method_entry(ClassId(0), MethodId(0)).unwrap());
        let code = &flat.code()[main.code_start as usize..main.code_end as usize];
        // New, Loop, Read, Loop, Call, EndLoop, EndLoop, Return
        assert_eq!(code.len(), 8);
        assert!(matches!(code[0], FlatOp::New { .. }));
        let (outer_end, inner_end) = match (code[1], code[3]) {
            (FlatOp::Loop { n: 3, end: o }, FlatOp::Loop { n: 2, end: i }) => (o, i),
            other => panic!("unexpected loop headers {other:?}"),
        };
        // Ends are absolute instruction indices into the whole stream.
        let base = main.code_start;
        assert!(matches!(code[4], FlatOp::Call { .. }));
        assert_eq!(inner_end, base + 5);
        assert!(matches!(code[5], FlatOp::EndLoop { start } if start == base + 4));
        assert_eq!(outer_end, base + 6);
        assert!(matches!(code[6], FlatOp::EndLoop { start } if start == base + 2));
        assert!(matches!(code[7], FlatOp::Return));
    }

    #[test]
    fn call_sites_are_resolved_and_args_arena_backed() {
        let flat = FlatProgram::compile(&nested_repeat_program());
        assert_eq!(flat.call_count(), 1);
        let cs = flat.call(0);
        assert_eq!(cs.class, ClassId(1));
        assert_eq!(cs.method, MethodId(0));
        assert_eq!(
            cs.target,
            flat.method_entry(ClassId(1), MethodId(0)).unwrap()
        );
        assert_ne!(cs.target, UNRESOLVED);
        assert_eq!(cs.arg_bytes, 4);
        assert_eq!(cs.ret_bytes, 4);
        assert_eq!(flat.call_args(0), &[0]);
    }

    #[test]
    fn sites_are_dense_and_cover_checked_ops() {
        let flat = FlatProgram::compile(&nested_repeat_program());
        // One Read site + one dynamic Call site.
        assert_eq!(flat.site_count(), 2);
        let cs = flat.call(0);
        assert_ne!(cs.ic, NO_SITE);
    }

    #[test]
    fn a_site_knows_its_interaction_but_for_the_target() {
        let flat = FlatProgram::compile(&nested_repeat_program());
        let target = ObjectId::client(7);
        // Main::main's Read is site 0, its Call site 1.
        let read = flat.site_interaction(0, target, ClassId(1));
        assert_eq!(
            (read.caller, read.callee, read.target),
            (ClassId(0), ClassId(1), Some(target))
        );
        assert_eq!((read.kind, read.bytes), (InteractionKind::FieldAccess, 8));
        let call = flat.site_interaction(flat.call(0).ic, target, ClassId(1));
        assert_eq!((call.kind, call.bytes), (InteractionKind::Invocation, 8));
        assert!(!call.remote);
    }

    #[test]
    fn symbols_are_interned_and_resolvable() {
        let flat = FlatProgram::compile(&nested_repeat_program());
        assert_eq!(flat.class_name(ClassId(0)), Some("Main"));
        assert_eq!(flat.class_name(ClassId(1)), Some("Helper"));
        assert_eq!(flat.class_name(ClassId(9)), None);
        let help = flat.method(flat.method_entry(ClassId(1), MethodId(0)).unwrap());
        assert_eq!(flat.resolve(help.name), "help");
        assert!(!help.is_static);
    }

    #[test]
    fn method_entry_rejects_out_of_range() {
        let flat = FlatProgram::compile(&nested_repeat_program());
        assert!(flat.method_entry(ClassId(2), MethodId(0)).is_none());
        assert!(flat.method_entry(ClassId(0), MethodId(1)).is_none());
        assert!(matches!(
            flat.resolution_error(ClassId(2), MethodId(0)),
            VmError::UnknownClass(ClassId(2))
        ));
        assert!(matches!(
            flat.resolution_error(ClassId(0), MethodId(1)),
            VmError::UnknownMethod(ClassId(0), MethodId(1))
        ));
    }

    #[test]
    fn every_method_ends_with_return() {
        let flat = FlatProgram::compile(&nested_repeat_program());
        for i in 0..flat.method_count() {
            let m = flat.method(i as u32);
            assert!(m.code_end > m.code_start);
            assert!(matches!(
                flat.code()[m.code_end as usize - 1],
                FlatOp::Return
            ));
        }
    }

    #[test]
    fn zero_iteration_loop_jumps_past_endloop() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C");
        b.add_method(
            c,
            MethodDef::new(
                "m",
                vec![Op::Repeat {
                    n: 0,
                    body: vec![Op::Work { micros: 1 }],
                }],
            ),
        );
        let p = b.build(c, MethodId(0), 0, 0).unwrap();
        let flat = FlatProgram::compile(&p);
        let m = flat.method(0);
        match flat.code()[m.code_start as usize] {
            FlatOp::Loop { n: 0, end } => {
                // `end + 1` must land exactly on the Return.
                assert!(matches!(flat.code()[end as usize + 1], FlatOp::Return));
            }
            other => panic!("expected loop header, got {other:?}"),
        }
    }

    #[test]
    fn unvalidated_callee_compiles_to_unresolved_trap() {
        // Build a program that bypasses validation via serde, with a call
        // to a method that does not exist.
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C");
        b.add_method(c, MethodDef::new("m", vec![Op::Work { micros: 1 }]));
        let valid = b.build(c, MethodId(0), 0, 0).unwrap();
        let mut json = serde_json::to_value(&valid).unwrap();
        json["classes"][0]["methods"][0]["body"] = serde_json::json!([
            { "Call": { "obj": 0, "class": 0, "method": 7,
                        "arg_bytes": 0, "ret_bytes": 0, "args": [] } }
        ]);
        let hacked: Program = serde_json::from_value(json).unwrap();
        let flat = FlatProgram::compile(&hacked);
        assert_eq!(flat.call(0).target, UNRESOLVED);
        // Not a leaf call, although it takes no argument.
        assert_eq!(flat.code()[0], FlatOp::Call { call: 0 });
    }

    #[test]
    fn disassembly_lists_every_op_once() {
        let flat = FlatProgram::compile(&nested_repeat_program());
        let dis = flat.disassemble();
        assert!(dis.contains("Main::main"));
        assert!(dis.contains("Helper::help"));
        // One line per op plus one header per method.
        let lines = dis.lines().count();
        assert_eq!(lines, flat.op_count() + flat.method_count());
    }

    /// `Main::main` calls each method of `Leaf` from one register: a
    /// one-`Work` method (without and with arguments), a two-op body, an
    /// empty body, a static one-`Work` method, and last in the code stream
    /// an empty and a one-`Work` method.
    fn leaf_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let leaf = b.add_class("Leaf");
        let work = |micros| Op::Work { micros };
        let bodies = [
            ("leaf", vec![work(5)], false),
            ("two", vec![work(5), work(6)], false),
            ("empty", vec![], false),
            ("fixed", vec![work(7)], true),
            ("last_empty", vec![], false),
            ("last", vec![work(9)], false),
        ];
        let mut body = vec![Op::New {
            class: leaf,
            scalar_bytes: 8,
            ref_slots: 0,
            dst: Reg(0),
        }];
        for (name, ops, is_static) in bodies {
            let def = if is_static {
                MethodDef::new_static(name, ops)
            } else {
                MethodDef::new(name, ops)
            };
            let method = b.add_method(leaf, def);
            let call = |args: Vec<Reg>| {
                if is_static {
                    Op::CallStatic {
                        class: leaf,
                        method,
                        arg_bytes: 0,
                        ret_bytes: 0,
                        args,
                    }
                } else {
                    Op::Call {
                        obj: Reg(0),
                        class: leaf,
                        method,
                        arg_bytes: 2,
                        ret_bytes: 3,
                        args,
                    }
                }
            };
            body.push(call(vec![]));
            if name == "leaf" {
                body.push(call(vec![Reg(0)]));
            }
        }
        b.add_method(main, MethodDef::new("main", body));
        b.build(main, MethodId(0), 64, 0).unwrap()
    }

    /// The call ops of `Main::main`, in order.
    fn main_calls(flat: &FlatProgram) -> Vec<FlatOp> {
        let main = flat.method(flat.method_entry(ClassId(0), MethodId(0)).unwrap());
        flat.code()[main.code_start as usize + 1..main.code_end as usize - 1].to_vec()
    }

    #[test]
    fn a_call_without_arguments_to_a_one_work_method_runs_in_place() {
        let flat = FlatProgram::compile(&leaf_program());
        let calls = main_calls(&flat);
        assert_eq!(calls.len(), 7, "{calls:?}");
        // leaf(), leaf(r0), two(), empty(), fixed(), last_empty(), last()
        assert_eq!(calls[0], FlatOp::CallLeaf { call: 0, micros: 5 });
        assert_eq!(calls[1], FlatOp::Call { call: 1 });
        assert_eq!(calls[2], FlatOp::Call { call: 2 });
        assert_eq!(calls[3], FlatOp::Call { call: 3 });
        assert_eq!(calls[4], FlatOp::CallStatic { call: 4 });
        assert_eq!(calls[5], FlatOp::Call { call: 5 });
        assert_eq!(calls[6], FlatOp::CallLeaf { call: 6, micros: 9 });
        // The callees keep their code, for a run that enters them framed.
        let leaf = flat.method(flat.call(0).target);
        assert_eq!(
            flat.code()[leaf.code_start as usize..leaf.code_end as usize],
            [FlatOp::Work { micros: 5 }, FlatOp::Return]
        );
        // The last method in the stream is the leaf the last call names.
        let last = flat.method(flat.call(6).target);
        assert_eq!(last.code_end as usize, flat.op_count());
        let empty = flat.method(flat.call(5).target);
        assert_eq!(empty.code_end - empty.code_start, 1);
    }

    #[test]
    fn a_leaf_call_site_knows_its_interaction() {
        let flat = FlatProgram::compile(&leaf_program());
        let target = ObjectId::client(3);
        let site = flat.call(0).ic;
        let call = flat.site_interaction(site, target, ClassId(1));
        assert_eq!(
            (call.caller, call.callee, call.target),
            (ClassId(0), ClassId(1), Some(target))
        );
        assert_eq!((call.kind, call.bytes), (InteractionKind::Invocation, 5));
        assert!(!call.remote);
    }

    #[test]
    fn the_disassembly_names_a_leaf_call() {
        let flat = FlatProgram::compile(&leaf_program());
        let dis = flat.disassemble();
        assert!(dis.contains("CallLeaf { call: 0, micros: 5 }"), "{dis}");
        assert!(dis.contains("CallLeaf { call: 6, micros: 9 }"), "{dis}");
    }

    #[test]
    fn a_leaf_call_does_not_widen_the_op() {
        // Two `u32`s, like `Read`'s; `Native`'s three `u32`s set the width.
        assert_eq!(std::mem::size_of::<FlatOp>(), 16);
    }
}
