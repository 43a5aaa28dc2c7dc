//! Trace-driven emulation of the AIDE distributed platform.
//!
//! The paper evaluates AIDE with two artifacts that share the same three
//! platform modules: a *prototype* (two modified JVMs) and an *emulator*
//! that "is able to repeatedly repartition an application" by replaying
//! recorded execution traces (§4). This crate is the emulator:
//!
//! * [`Trace`] / [`TraceEvent`] — the self-contained recording format
//!   (JSON-serializable for record-once / replay-many workflows).
//! * [`Recorder`] / [`record_program`] — capture a full event stream from
//!   an unconstrained single-VM run.
//! * [`Emulator`] — replays a trace under configurable constraints (heap
//!   size, WaveLAN link, 3.5× surrogate, policies, enhancements), driving
//!   the *same* [`aide_core::Monitor`] and partitioning modules as the
//!   prototype and stretching simulated time for remote interactions.
//! * [`sweep_memory_policies`] — the Figure 7 grid search over triggering
//!   thresholds, tolerances, and minimum-memory-freed fractions.
//!
//! # Examples
//!
//! Record a run, then replay it under a constrained heap:
//!
//! ```
//! use std::sync::Arc;
//! use aide_emu::{record_program, Emulator, EmulatorConfig};
//! use aide_vm::{MethodDef, Op, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.add_class("Main");
//! b.add_method(main, MethodDef::new("main", vec![Op::Work { micros: 1_000 }]));
//! let program = Arc::new(b.build(main, aide_vm::MethodId(0), 64, 4)?);
//!
//! let trace = record_program("tiny", program, 8 << 20)?;
//! let report = Emulator::new(EmulatorConfig::paper_memory(6 << 20)).replay(&trace);
//! assert!(report.completed);
//! # Ok::<(), aide_vm::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emulator;
mod record;
mod sweep;
mod trace;

pub use emulator::{
    EmuFailover, EmuRemoteStats, EmulatedOffload, Emulator, EmulatorConfig, EmulatorReport,
    FailureSchedule,
};
pub use record::{record_program, Recorder};
pub use sweep::{best_point, sweep_memory_policies, PolicyGrid, PolicyParams, SweepPoint};
pub use trace::{ClassMeta, Trace, TraceEvent};
