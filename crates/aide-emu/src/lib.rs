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
//!   the *same* [`aide_core::Monitor`] and decision epoch
//!   ([`aide_core::IncrementalPartitioner::decide`]) as the prototype and
//!   stretching simulated time for remote interactions.
//! * [`sweep_memory_policies`] — the Figure 7 grid search over triggering
//!   thresholds, tolerances, and minimum-memory-freed fractions.
//!
//! It also replays the prototype's own decisions. A live platform's offload
//! decisions are a pure function of a small set of nondeterministic inputs:
//! the GC report stream, the drained graph deltas and heap snapshot at each
//! trigger, migration outcomes and link deaths.
//!
//! * [`RecordingSource`] / [`record_platform_run`] — capture them behind the
//!   [`NondetSource`](aide_core::NondetSource) seam into a versioned
//!   [`ReplayTrace`], saved as human-editable JSON lines ([`save`],
//!   [`load`]). A replay trace holds exactly what replay reads: chaos draws,
//!   RPC timings and probe RTTs never reach the pipeline (a chaos
//!   schedule's seed, in the header's config, regenerates its fault
//!   stream), and no VM event stream rides along.
//! * [`replay()`] — strict replay through the same decision epoch: the
//!   recorded flight-recorder timeline is the oracle, and the first mismatch
//!   stops the run with a located [`ReplayError::Diverged`] ("expected
//!   `TriggerFired` at epoch 12, got `EpochSkipped`"). A divergence-free
//!   replay reproduces the timeline bit-for-bit.
//! * [`sweep()`] — re-decides one recorded run under many policy variants on
//!   the same sweep driver as Figure 7: what-if analysis with recorded-run
//!   fidelity.
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

mod codec;
mod emulator;
mod event;
mod record;
mod replay;
mod sweep;
mod trace;

pub use codec::{decode, from_json_lines, load, save, to_json_lines, TraceError};
pub use emulator::{
    EmuFailover, EmuRemoteStats, EmulatedOffload, Emulator, EmulatorConfig, EmulatorReport,
    FailureSchedule,
};
pub use event::{ReplayEvent, ReplayTrace, TraceHeader, TRACE_VERSION};
pub use record::{record_platform_run, record_program, Recorder, RecordingSource};
pub use replay::{bless, replay, replay_with, ReplayError, ReplayOutcome};
pub use sweep::{
    best_point, decision_outcomes, default_variants, sweep, sweep_memory_policies, BaselineSummary,
    EpochOutcome, PolicyGrid, PolicyParams, SweepPoint, SweepReport, SweepVariant, VariantOutcome,
};
pub use trace::{ClassMeta, Trace, TraceEvent};
