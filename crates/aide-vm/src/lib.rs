//! A small managed runtime substrate for the AIDE distributed platform.
//!
//! The paper's prototype is built by modifying HP's Chai JVM so that object
//! references can be flagged as remote and accesses to remote objects can be
//! intercepted (§3.2). Rust programs are statically compiled, so there is no
//! equivalent interposition point in native Rust code — this crate instead
//! provides a compact managed VM whose applications are expressed in an
//! instruction set where *every* method invocation, data-field access,
//! object creation, native call, and static access is an explicit,
//! observable, and redirectable operation:
//!
//! * [`Program`] / [`ProgramBuilder`] — classes, methods, and the [`Op`]
//!   instruction set.
//! * [`Heap`] and [`Collector`] — a traced object heap with a mark-and-sweep
//!   collector whose [`GcReport`]s drive AIDE's memory triggers.
//! * [`Machine`] — the re-entrant interpreter. It delivers every observable
//!   event to [`RuntimeHooks`] (the monitoring interposition point) and
//!   forwards operations on non-local objects through [`RemoteAccess`] (the
//!   transparent remote-execution interposition point).
//! * [`FlatProgram`] — the pre-decoded flat IR the register-VM interpreter
//!   executes, compiled once per program.
//! * [`NativeKind`] — native-method annotations, including the paper's
//!   stateless-native enhancement.
//!
//! # Examples
//!
//! Build and run a tiny program while counting events:
//!
//! ```
//! use std::sync::Arc;
//! use aide_vm::{
//!     CountingHooks, Machine, MethodDef, Op, ProgramBuilder, Reg, VmConfig,
//! };
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.add_class("Main");
//! let buf = b.add_class("Buffer");
//! b.add_method(main, MethodDef::new("main", vec![
//!     Op::New { class: buf, scalar_bytes: 1024, ref_slots: 0, dst: Reg(0) },
//!     Op::Write { obj: Reg(0), bytes: 512 },
//!     Op::Work { micros: 100 },
//! ]));
//! let program = Arc::new(b.build(main, aide_vm::MethodId(0), 64, 4)?);
//!
//! let hooks = Arc::new(CountingHooks::new());
//! let machine = Machine::with_hooks(program, VmConfig::client(1 << 20), hooks.clone());
//! let summary = machine.run_entry()?;
//! assert_eq!(summary.objects_allocated, 2); // entry object + buffer
//! # Ok::<(), aide_vm::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod flat;
mod gc;
mod heap;
mod hooks;
mod ids;
mod machine;
mod natives;
mod program;

pub use error::{VmError, VmResult};
pub use flat::{CallSite, FlatMethod, FlatOp, FlatProgram, Sym, NO_SITE, UNRESOLVED};
pub use gc::{Collector, GcConfig, GcReport};
pub use heap::{Heap, HeapStats, ObjectRecord};
pub use hooks::{
    CountingHooks, HookChain, Interaction, InteractionKind, NullHooks, PendingEvent, PendingEvents,
    RuntimeHooks,
};
pub use ids::{BuildIdHasher, ClassId, IdHasher, MethodId, ObjectId, Reg};
pub use machine::{
    CostModel, ExternalRootAudit, Machine, RemoteAccess, RunSummary, SlotWrites, Vm, VmConfig,
    VmKind, Window,
};
pub use natives::{native_requires_client, NativeKind};
pub use program::{CallClosure, ClassDef, EntryPoint, MethodDef, Op, Program, ProgramBuilder};
