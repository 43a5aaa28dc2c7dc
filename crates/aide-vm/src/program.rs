//! Programs: classes, methods, and the instruction set.
//!
//! Applications executed by the VM are expressed in a small intermediate
//! representation in which *every* method invocation, data-field access,
//! object creation, and native call is an explicit, observable instruction.
//! This is the property the paper obtains by modifying the Chai JVM — and
//! the property plain Rust code cannot offer, because statically compiled
//! field accesses cannot be intercepted or redirected at run time.

use std::sync::{Arc, OnceLock, Weak};

use aide_telemetry::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::error::{VmError, VmResult};
use crate::flat::FlatProgram;
use crate::ids::{ClassId, MethodId, Reg};
use crate::natives::NativeKind;

/// One instruction of a method body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Op {
    /// Burn `micros` microseconds of client-speed CPU, attributed to the
    /// executing class (exclusive time, Figure 9).
    Work {
        /// Microseconds of client-speed CPU time.
        micros: u32,
    },
    /// Allocate an object and store the reference in `dst`.
    New {
        /// Class to instantiate.
        class: ClassId,
        /// Scalar payload size in bytes (primitive fields, array data).
        scalar_bytes: u32,
        /// Number of object-reference slots.
        ref_slots: u16,
        /// Destination register for the new reference.
        dst: Reg,
    },
    /// Invoke `method` on the object in `obj`. The callee's frame receives
    /// copies of the `args` registers in its lowest registers and the
    /// receiver as `self`. `arg_bytes`/`ret_bytes` model parameter and
    /// return-value payload sizes for interaction accounting.
    Call {
        /// Register holding the receiver.
        obj: Reg,
        /// Class the call site is compiled against (receiver must match).
        class: ClassId,
        /// Method index within `class`.
        method: MethodId,
        /// Bytes of parameters passed.
        arg_bytes: u32,
        /// Bytes of return value produced.
        ret_bytes: u32,
        /// Reference arguments copied into the callee's registers.
        args: Vec<Reg>,
    },
    /// Invoke a static (class) method. Static methods written in the managed
    /// language execute locally on whichever VM invokes them (paper §4).
    CallStatic {
        /// Class owning the static method.
        class: ClassId,
        /// Method index within `class`.
        method: MethodId,
        /// Bytes of parameters passed.
        arg_bytes: u32,
        /// Bytes of return value produced.
        ret_bytes: u32,
        /// Reference arguments copied into the callee's registers.
        args: Vec<Reg>,
    },
    /// Read `bytes` of scalar data from the object in `obj` (a data-field
    /// access; becomes a remote access if the object lives on the other VM).
    Read {
        /// Register holding the target object.
        obj: Reg,
        /// Bytes read.
        bytes: u32,
    },
    /// Write `bytes` of scalar data to the object in `obj`.
    Write {
        /// Register holding the target object.
        obj: Reg,
        /// Bytes written.
        bytes: u32,
    },
    /// Copy a reference out of one of `self`'s reference slots.
    GetSlot {
        /// Slot index within the receiver.
        slot: u16,
        /// Destination register.
        dst: Reg,
    },
    /// Store a register into one of `self`'s reference slots.
    PutSlot {
        /// Slot index within the receiver.
        slot: u16,
        /// Source register (may be null to clear the slot).
        src: Reg,
    },
    /// Copy a reference out of a slot of the object in `obj`.
    GetSlotOf {
        /// Register holding the object whose slot is read.
        obj: Reg,
        /// Slot index.
        slot: u16,
        /// Destination register.
        dst: Reg,
    },
    /// Store a register into a slot of the object in `obj`.
    PutSlotOf {
        /// Register holding the object whose slot is written.
        obj: Reg,
        /// Slot index.
        slot: u16,
        /// Source register.
        src: Reg,
    },
    /// Invoke a native method of the given kind. Client-bound natives
    /// execute on the client even when invoked from the surrogate.
    Native {
        /// What kind of native this is (decides where it may run).
        kind: NativeKind,
        /// Microseconds of client-speed CPU the native itself burns.
        work_micros: u32,
        /// Bytes of parameters passed.
        arg_bytes: u32,
        /// Bytes of results returned.
        ret_bytes: u32,
    },
    /// Read `bytes` from a class's static data (always served by the client
    /// VM to keep static state consistent — paper §3.2).
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
    /// Clear a register, dropping the reference it holds.
    Clear {
        /// Register to clear.
        reg: Reg,
    },
    /// Execute `body` `n` times.
    Repeat {
        /// Iteration count.
        n: u32,
        /// Instructions executed per iteration.
        body: Vec<Op>,
    },
}

/// A method definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MethodDef {
    /// Human-readable method name.
    pub name: String,
    /// `true` for static (class) methods, which execute with no receiver.
    pub is_static: bool,
    /// The method body.
    pub body: Vec<Op>,
}

impl MethodDef {
    /// Creates an instance method.
    pub fn new(name: impl Into<String>, body: Vec<Op>) -> Self {
        MethodDef {
            name: name.into(),
            is_static: false,
            body,
        }
    }

    /// Creates a static method.
    pub fn new_static(name: impl Into<String>, body: Vec<Op>) -> Self {
        MethodDef {
            name: name.into(),
            is_static: true,
            body,
        }
    }
}

/// A class definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassDef {
    /// Human-readable class name.
    pub name: String,
    /// Methods, indexed by [`MethodId`].
    pub methods: Vec<MethodDef>,
    /// Bytes of static data the class owns (pins consistency to the client).
    pub static_bytes: u32,
    /// `true` if objects of this class are primitive arrays, eligible for
    /// the paper's object-granularity placement enhancement (§5.2 "Array").
    pub is_primitive_array: bool,
    /// `true` if the class itself is *implemented with* native methods
    /// (widget toolkits, framebuffer wrappers, host-state accessors). Such
    /// classes cannot be offloaded and are pinned to the client (§3.3).
    ///
    /// Note the distinction from a class that merely *invokes* natives
    /// (`Op::Native`): invoking `Math.sin` does not pin the caller — the
    /// call is simply directed to the client at run time (§3.2), which is
    /// precisely the overhead Figures 8 and 10 measure.
    pub native_impl: bool,
}

impl ClassDef {
    /// Creates a class with no methods.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDef {
            name: name.into(),
            methods: Vec::new(),
            static_bytes: 0,
            is_primitive_array: false,
            native_impl: false,
        }
    }

    /// Returns `true` if any method body *invokes* a native function.
    /// This does not pin the class (see [`ClassDef::native_impl`]); it is
    /// metadata for workload analysis.
    pub fn calls_natives(&self) -> bool {
        fn scan(ops: &[Op]) -> bool {
            ops.iter().any(|op| match op {
                Op::Native { .. } => true,
                Op::Repeat { body, .. } => scan(body),
                _ => false,
            })
        }
        self.methods.iter().any(|m| scan(&m.body))
    }

    /// Returns `true` if any native invocation in this class is of a kind
    /// that is *not* stateless (those always execute on the client).
    pub fn calls_stateful_natives(&self) -> bool {
        fn scan(ops: &[Op]) -> bool {
            ops.iter().any(|op| match op {
                Op::Native { kind, .. } => !kind.is_stateless(),
                Op::Repeat { body, .. } => scan(body),
                _ => false,
            })
        }
        self.methods.iter().any(|m| scan(&m.body))
    }
}

/// Description of the root object instantiated to run the program entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryPoint {
    /// Class of the entry object.
    pub class: ClassId,
    /// Entry method invoked on the entry object.
    pub method: MethodId,
    /// Scalar payload of the entry object.
    pub scalar_bytes: u32,
    /// Reference slots of the entry object.
    pub ref_slots: u16,
}

/// What running a method may do, over the closure of the methods its
/// `Call`s and `CallStatic`s reach — read off the code, not off a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallClosure {
    /// Some method in the closure writes a reference slot or reads one of
    /// an object other than its receiver (`PutSlot`, `PutSlotOf`,
    /// `GetSlotOf`), or calls a method that does not exist.
    pub touches_slots: bool,
    /// The classes the closure `Call`s an instance method of, ascending.
    pub called: Vec<ClassId>,
}

/// A complete program: a class table plus an entry point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    classes: Vec<ClassDef>,
    entry: EntryPoint,
    /// [`Program::call_closure`]'s answers, per class and method, worked out
    /// once, on first use.
    #[serde(skip)]
    closures: OnceLock<Vec<Vec<CallClosure>>>,
    /// The program compiled to flat IR, shared by the VMs that run it.
    #[serde(skip)]
    flat: FlatCache,
}

/// The flat IR of a [`Program`] while some VM holds it: compiled once for
/// every VM that runs the program at the same time, and freed with the
/// last of them, so a process holding many programs keeps only the IR of
/// those running (kept for good, the IR of five applications run one after
/// another raised a run's peak RSS 6 %).
#[derive(Debug, Default)]
struct FlatCache(Mutex<Weak<FlatProgram>>);

impl Clone for FlatCache {
    fn clone(&self) -> Self {
        FlatCache(Mutex::new(self.0.lock().clone()))
    }
}

/// The closures and the flat IR follow from the classes.
impl PartialEq for Program {
    fn eq(&self, other: &Self) -> bool {
        self.classes == other.classes && self.entry == other.entry
    }
}

impl Eq for Program {}

impl Program {
    /// Assembles and validates a program.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidProgram`] if the entry point or any
    /// instruction references a class, method, or register that does not
    /// exist.
    pub fn new(classes: Vec<ClassDef>, entry: EntryPoint) -> VmResult<Self> {
        let p = Program {
            classes,
            entry,
            closures: OnceLock::new(),
            flat: FlatCache::default(),
        };
        p.validate()?;
        Ok(p)
    }

    /// The program's classes, indexed by [`ClassId`].
    pub fn classes(&self) -> &[ClassDef] {
        &self.classes
    }

    /// Looks up a class definition.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownClass`] for an out-of-range id.
    pub fn class(&self, id: ClassId) -> VmResult<&ClassDef> {
        self.classes
            .get(id.index())
            .ok_or(VmError::UnknownClass(id))
    }

    /// Looks up a method definition.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::UnknownClass`] or [`VmError::UnknownMethod`].
    pub fn method(&self, class: ClassId, method: MethodId) -> VmResult<&MethodDef> {
        self.class(class)?
            .methods
            .get(method.index())
            .ok_or(VmError::UnknownMethod(class, method))
    }

    /// The entry point.
    pub fn entry(&self) -> EntryPoint {
        self.entry
    }

    /// Number of classes in the program.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Finds a class id by name.
    pub fn class_by_name(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u32))
    }

    /// The program compiled to flat IR: the IR a VM running it holds, or
    /// compiled now.
    pub(crate) fn flat(&self) -> Arc<FlatProgram> {
        let mut cached = self.flat.0.lock();
        if let Some(flat) = cached.upgrade() {
            return flat;
        }
        let flat = Arc::new(FlatProgram::compile(self));
        *cached = Arc::downgrade(&flat);
        flat
    }

    /// What running `method` of `class` may do ([`CallClosure`]); `None`
    /// for a method that does not exist.
    pub fn call_closure(&self, class: ClassId, method: MethodId) -> Option<&CallClosure> {
        self.closures
            .get_or_init(|| call_closures(&self.classes))
            .get(class.index())?
            .get(method.index())
    }

    fn validate(&self) -> VmResult<()> {
        if self.classes.is_empty() {
            return Err(VmError::InvalidProgram("program has no classes".into()));
        }
        if self.entry.class.index() >= self.classes.len() {
            return Err(VmError::InvalidProgram(format!(
                "entry class {} out of range",
                self.entry.class
            )));
        }
        let entry_class = &self.classes[self.entry.class.index()];
        if self.entry.method.index() >= entry_class.methods.len() {
            return Err(VmError::InvalidProgram(format!(
                "entry method {} out of range for {}",
                self.entry.method, entry_class.name
            )));
        }
        for (ci, class) in self.classes.iter().enumerate() {
            for (mi, m) in class.methods.iter().enumerate() {
                self.validate_ops(&m.body).map_err(|e| {
                    VmError::InvalidProgram(format!(
                        "{}::{} (class {ci}, method {mi}): {e}",
                        class.name, m.name
                    ))
                })?;
            }
        }
        Ok(())
    }

    fn validate_ops(&self, ops: &[Op]) -> Result<(), String> {
        let check_reg = |r: Reg| {
            if r.is_valid() {
                Ok(())
            } else {
                Err(format!("register {r} out of range"))
            }
        };
        let check_class = |c: ClassId| {
            if c.index() < self.classes.len() {
                Ok(())
            } else {
                Err(format!("class {c} out of range"))
            }
        };
        for op in ops {
            match op {
                Op::Work { .. } => {}
                Op::New { class, dst, .. } => {
                    check_class(*class)?;
                    check_reg(*dst)?;
                }
                Op::Call {
                    obj,
                    class,
                    method,
                    args,
                    ..
                } => {
                    check_reg(*obj)?;
                    check_class(*class)?;
                    let c = &self.classes[class.index()];
                    let m = c
                        .methods
                        .get(method.index())
                        .ok_or_else(|| format!("method {method} out of range for {}", c.name))?;
                    if m.is_static {
                        return Err(format!("Call targets static method {}::{}", c.name, m.name));
                    }
                    if args.len() > Reg::COUNT {
                        return Err("too many reference arguments".into());
                    }
                    for a in args {
                        check_reg(*a)?;
                    }
                }
                Op::CallStatic {
                    class,
                    method,
                    args,
                    ..
                } => {
                    check_class(*class)?;
                    let c = &self.classes[class.index()];
                    let m = c
                        .methods
                        .get(method.index())
                        .ok_or_else(|| format!("method {method} out of range for {}", c.name))?;
                    if !m.is_static {
                        return Err(format!(
                            "CallStatic targets instance method {}::{}",
                            c.name, m.name
                        ));
                    }
                    if args.len() > Reg::COUNT {
                        return Err("too many reference arguments".into());
                    }
                    for a in args {
                        check_reg(*a)?;
                    }
                }
                Op::Read { obj, .. } | Op::Write { obj, .. } => check_reg(*obj)?,
                Op::GetSlot { dst, .. } => check_reg(*dst)?,
                Op::PutSlot { src, .. } => check_reg(*src)?,
                Op::GetSlotOf { obj, dst, .. } => {
                    check_reg(*obj)?;
                    check_reg(*dst)?;
                }
                Op::PutSlotOf { obj, src, .. } => {
                    check_reg(*obj)?;
                    check_reg(*src)?;
                }
                Op::Native { .. } => {}
                Op::GetStatic { class, .. } | Op::PutStatic { class, .. } => check_class(*class)?,
                Op::Clear { reg } => check_reg(*reg)?,
                Op::Repeat { body, .. } => self.validate_ops(body)?,
            }
        }
        Ok(())
    }
}

/// Every method's [`CallClosure`], per class: each method's own ops first,
/// then a walk over the methods they call.
fn call_closures(classes: &[ClassDef]) -> Vec<Vec<CallClosure>> {
    /// One method's own ops: whether they touch a slot, the classes they
    /// `Call`, the methods they call.
    #[derive(Default)]
    struct Own {
        touches_slots: bool,
        called: Vec<ClassId>,
        callees: Vec<(ClassId, MethodId)>,
    }
    fn scan(ops: &[Op], own: &mut Own) {
        for op in ops {
            match op {
                Op::PutSlot { .. } | Op::PutSlotOf { .. } | Op::GetSlotOf { .. } => {
                    own.touches_slots = true;
                }
                Op::Call { class, method, .. } => {
                    own.called.push(*class);
                    own.callees.push((*class, *method));
                }
                Op::CallStatic { class, method, .. } => own.callees.push((*class, *method)),
                Op::Repeat { body, .. } => scan(body, own),
                _ => {}
            }
        }
    }
    let own: Vec<Vec<Own>> = classes
        .iter()
        .map(|class| {
            class
                .methods
                .iter()
                .map(|m| {
                    let mut own = Own::default();
                    scan(&m.body, &mut own);
                    own
                })
                .collect()
        })
        .collect();
    let closure_of = |root: (ClassId, MethodId)| {
        let mut touches_slots = false;
        let mut called = std::collections::BTreeSet::new();
        let mut seen = std::collections::HashSet::from([root]);
        let mut stack = vec![root];
        while let Some((class, method)) = stack.pop() {
            let Some(own) = own
                .get(class.index())
                .and_then(|methods| methods.get(method.index()))
            else {
                touches_slots = true;
                continue;
            };
            touches_slots |= own.touches_slots;
            called.extend(&own.called);
            stack.extend(own.callees.iter().filter(|&&callee| seen.insert(callee)));
        }
        CallClosure {
            touches_slots,
            called: called.into_iter().collect(),
        }
    };
    (0..classes.len())
        .map(|ci| {
            (0..classes[ci].methods.len())
                .map(|mi| closure_of((ClassId(ci as u32), MethodId(mi as u16))))
                .collect()
        })
        .collect()
}

/// Incremental builder for [`Program`]s.
///
/// # Examples
///
/// ```
/// use aide_vm::{ProgramBuilder, MethodDef, Op, Reg};
///
/// let mut b = ProgramBuilder::new();
/// let main = b.add_class("Main");
/// b.add_method(main, MethodDef::new("main", vec![Op::Work { micros: 10 }]));
/// let program = b.build(main, aide_vm::MethodId(0), 64, 4)?;
/// assert_eq!(program.class_count(), 1);
/// # Ok::<(), aide_vm::VmError>(())
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    classes: Vec<ClassDef>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Adds an empty class and returns its id.
    pub fn add_class(&mut self, name: impl Into<String>) -> ClassId {
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(ClassDef::new(name));
        id
    }

    /// Adds a primitive-array class (eligible for object-granular placement).
    pub fn add_array_class(&mut self, name: impl Into<String>) -> ClassId {
        let id = self.add_class(name);
        self.classes[id.index()].is_primitive_array = true;
        id
    }

    /// Adds a class implemented with native methods — pinned to the client
    /// (widget toolkits, framebuffer wrappers, host-state accessors).
    pub fn add_native_class(&mut self, name: impl Into<String>) -> ClassId {
        let id = self.add_class(name);
        self.classes[id.index()].native_impl = true;
        id
    }

    /// Marks an existing class as natively implemented (client-pinned).
    ///
    /// # Panics
    ///
    /// Panics if `class` was not created by this builder.
    pub fn set_native_impl(&mut self, class: ClassId) -> &mut Self {
        self.classes[class.index()].native_impl = true;
        self
    }

    /// Sets the static-data footprint of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not created by this builder.
    pub fn set_static_bytes(&mut self, class: ClassId, bytes: u32) -> &mut Self {
        self.classes[class.index()].static_bytes = bytes;
        self
    }

    /// Appends a method to `class`, returning the new method's id.
    ///
    /// # Panics
    ///
    /// Panics if `class` was not created by this builder.
    pub fn add_method(&mut self, class: ClassId, method: MethodDef) -> MethodId {
        let methods = &mut self.classes[class.index()].methods;
        let id = MethodId(methods.len() as u16);
        methods.push(method);
        id
    }

    /// Finalizes the program with the given entry point.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidProgram`] if validation fails.
    pub fn build(
        self,
        entry_class: ClassId,
        entry_method: MethodId,
        entry_scalar_bytes: u32,
        entry_ref_slots: u16,
    ) -> VmResult<Program> {
        Program::new(
            self.classes,
            EntryPoint {
                class: entry_class,
                method: entry_method,
                scalar_bytes: entry_scalar_bytes,
                ref_slots: entry_ref_slots,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_program() -> Program {
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
                    Op::Call {
                        obj: Reg(0),
                        class: helper,
                        method: hm,
                        arg_bytes: 8,
                        ret_bytes: 8,
                        args: vec![],
                    },
                ],
            ),
        );
        b.build(main, MethodId(0), 64, 4).unwrap()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let p = simple_program();
        assert_eq!(p.class_count(), 2);
        assert_eq!(p.class_by_name("Main"), Some(ClassId(0)));
        assert_eq!(p.class_by_name("Helper"), Some(ClassId(1)));
        assert_eq!(p.class_by_name("Nope"), None);
    }

    #[test]
    fn validation_rejects_empty_program() {
        let err = Program::new(
            vec![],
            EntryPoint {
                class: ClassId(0),
                method: MethodId(0),
                scalar_bytes: 0,
                ref_slots: 0,
            },
        )
        .unwrap_err();
        assert!(matches!(err, VmError::InvalidProgram(_)));
    }

    #[test]
    fn validation_rejects_bad_entry() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C");
        // No methods: entry method 0 is out of range.
        let err = b.build(c, MethodId(0), 0, 0).unwrap_err();
        assert!(matches!(err, VmError::InvalidProgram(_)));
    }

    #[test]
    fn validation_rejects_out_of_range_register() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C");
        b.add_method(c, MethodDef::new("m", vec![Op::Clear { reg: Reg(8) }]));
        let err = b.build(c, MethodId(0), 0, 0).unwrap_err();
        assert!(err.to_string().contains("register r8 out of range"));
    }

    #[test]
    fn validation_rejects_unknown_callee_class() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C");
        b.add_method(
            c,
            MethodDef::new(
                "m",
                vec![Op::Call {
                    obj: Reg(0),
                    class: ClassId(9),
                    method: MethodId(0),
                    arg_bytes: 0,
                    ret_bytes: 0,
                    args: vec![],
                }],
            ),
        );
        let err = b.build(c, MethodId(0), 0, 0).unwrap_err();
        assert!(err.to_string().contains("class class#9 out of range"));
    }

    #[test]
    fn validation_rejects_static_mismatch() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C");
        let stat = b.add_method(c, MethodDef::new_static("s", vec![]));
        b.add_method(
            c,
            MethodDef::new(
                "m",
                vec![Op::Call {
                    obj: Reg(0),
                    class: c,
                    method: stat,
                    arg_bytes: 0,
                    ret_bytes: 0,
                    args: vec![],
                }],
            ),
        );
        let err = b.build(c, MethodId(1), 0, 0).unwrap_err();
        assert!(err.to_string().contains("targets static method"));
    }

    #[test]
    fn validation_recurses_into_repeat_bodies() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C");
        b.add_method(
            c,
            MethodDef::new(
                "m",
                vec![Op::Repeat {
                    n: 3,
                    body: vec![Op::Clear { reg: Reg(100) }],
                }],
            ),
        );
        assert!(b.build(c, MethodId(0), 0, 0).is_err());
    }

    #[test]
    fn native_detection_scans_nested_bodies() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("C");
        b.add_method(
            c,
            MethodDef::new(
                "draw",
                vec![Op::Repeat {
                    n: 2,
                    body: vec![Op::Native {
                        kind: NativeKind::Framebuffer,
                        work_micros: 1,
                        arg_bytes: 4,
                        ret_bytes: 0,
                    }],
                }],
            ),
        );
        let p = b.build(c, MethodId(0), 0, 0).unwrap();
        assert!(p.class(ClassId(0)).unwrap().calls_natives());
        assert!(p.class(ClassId(0)).unwrap().calls_stateful_natives());
        // Calling natives does not make a class natively implemented.
        assert!(!p.class(ClassId(0)).unwrap().native_impl);
    }

    #[test]
    fn stateless_only_class_is_not_stateful() {
        let mut b = ProgramBuilder::new();
        let c = b.add_class("MathUser");
        b.add_method(
            c,
            MethodDef::new(
                "calc",
                vec![Op::Native {
                    kind: NativeKind::Math,
                    work_micros: 2,
                    arg_bytes: 8,
                    ret_bytes: 8,
                }],
            ),
        );
        let p = b.build(c, MethodId(0), 0, 0).unwrap();
        let cd = p.class(ClassId(0)).unwrap();
        assert!(cd.calls_natives());
        assert!(!cd.calls_stateful_natives());
    }

    #[test]
    fn method_lookup_errors_are_precise() {
        let p = simple_program();
        assert!(matches!(
            p.class(ClassId(10)),
            Err(VmError::UnknownClass(ClassId(10)))
        ));
        assert!(matches!(
            p.method(ClassId(0), MethodId(5)),
            Err(VmError::UnknownMethod(ClassId(0), MethodId(5)))
        ));
        assert!(p.method(ClassId(1), MethodId(0)).is_ok());
    }

    #[test]
    fn a_call_closure_follows_calls_static_calls_and_cycles() {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let (a, c, d) = (b.add_class("A"), b.add_class("C"), b.add_class("D"));
        let call = |class, method| Op::Call {
            obj: Reg(0),
            class,
            method,
            arg_bytes: 0,
            ret_bytes: 0,
            args: vec![],
        };
        // A::ping calls C::pong inside a loop; C::pong calls A::ping back
        // and D's static helper, which reads a slot of another object.
        let ping = b.add_method(
            a,
            MethodDef::new(
                "ping",
                vec![Op::Repeat {
                    n: 2,
                    body: vec![call(c, MethodId(0))],
                }],
            ),
        );
        let pong = b.add_method(c, MethodDef::new("pong", vec![call(a, ping)]));
        let helper = b.add_method(
            d,
            MethodDef::new_static(
                "helper",
                vec![Op::GetSlotOf {
                    obj: Reg(0),
                    slot: 0,
                    dst: Reg(1),
                }],
            ),
        );
        let quiet = b.add_method(d, MethodDef::new("quiet", vec![Op::Work { micros: 1 }]));
        let loud = b.add_method(
            d,
            MethodDef::new(
                "loud",
                vec![Op::CallStatic {
                    class: d,
                    method: helper,
                    arg_bytes: 0,
                    ret_bytes: 0,
                    args: vec![],
                }],
            ),
        );
        b.add_method(main, MethodDef::new("main", vec![]));
        let p = b.build(main, MethodId(0), 0, 0).unwrap();

        let closure = p.call_closure(a, ping).unwrap();
        assert!(!closure.touches_slots);
        assert_eq!(closure.called, [a, c], "the cycle, once each");
        assert_eq!(p.call_closure(c, pong), Some(closure));
        assert_eq!(p.call_closure(d, quiet), Some(&CallClosure::default()));
        // A static call names no class an instance of which it runs on.
        let loud = p.call_closure(d, loud).unwrap();
        assert!(loud.touches_slots);
        assert!(loud.called.is_empty());
        assert_eq!(p.call_closure(d, MethodId(9)), None);
    }

    #[test]
    fn program_serde_round_trip() {
        let p = simple_program();
        let json = serde_json::to_string(&p).unwrap();
        let back: Program = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
