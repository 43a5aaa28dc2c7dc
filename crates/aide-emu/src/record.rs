//! Recording, at the two seams the emulator replays from.
//!
//! [`Recorder`] is a [`RuntimeHooks`] implementation that captures the full
//! VM event stream of a run into a [`Trace`]; [`record_program`] records an
//! application "running to completion on a single PC" (paper §4).
//!
//! [`RecordingSource`] implements aide-core's [`NondetSource`] — GC
//! reports, trigger samples, migration outcomes, link deaths — accumulating
//! a live platform run's decision inputs in pipeline order.
//! [`record_platform_run`] hands one source to a [`Platform`], runs the
//! program, and returns the report together with the finished
//! [`ReplayTrace`] (whose baseline is the run's flight-recorder timeline).
//! The source belongs to its run, so recordings may overlap.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use aide_core::{
    MigrationRecord, NondetSource, Platform, PlatformConfig, PlatformReport, TriggerSample,
};
use aide_telemetry::TimedEvent;
use aide_vm::{
    ClassId, GcReport, Interaction, InteractionKind, Machine, NativeKind, ObjectId, Program,
    RuntimeHooks, VmConfig, VmResult,
};

use crate::event::{ReplayEvent, ReplayTrace};
use crate::trace::{Trace, TraceEvent};

/// Records every VM event into an in-memory trace.
#[derive(Debug)]
pub struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder {
            events: Mutex::new(Vec::new()),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Consumes the recorder, producing the trace body.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into_inner()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl RuntimeHooks for Recorder {
    fn on_interaction(&self, event: Interaction) {
        self.events.lock().push(TraceEvent::Interaction {
            caller: event.caller,
            callee: event.callee,
            target: event.target,
            invocation: event.kind == InteractionKind::Invocation,
            bytes: event.bytes,
        });
    }

    fn on_alloc(&self, class: ClassId, object: ObjectId, bytes: u64) {
        self.events.lock().push(TraceEvent::Alloc {
            class,
            object,
            bytes,
        });
    }

    fn on_free(&self, class: ClassId, objects: u64, bytes: u64) {
        self.events.lock().push(TraceEvent::Free {
            class,
            objects,
            bytes,
        });
    }

    fn on_work(&self, class: ClassId, micros: f64) {
        self.events.lock().push(TraceEvent::Work { class, micros });
    }

    fn on_native(
        &self,
        caller: ClassId,
        kind: NativeKind,
        work_micros: u32,
        bytes: u64,
        _remote: bool,
    ) {
        self.events.lock().push(TraceEvent::Native {
            caller,
            kind,
            work_micros,
            bytes,
        });
    }

    fn on_static_access(&self, accessor: ClassId, class: ClassId, bytes: u64, _remote: bool) {
        self.events.lock().push(TraceEvent::StaticAccess {
            accessor,
            class,
            bytes,
        });
    }

    fn on_gc(&self, report: &GcReport) {
        self.events.lock().push(TraceEvent::Gc { report: *report });
    }
}

/// Runs `program` to completion on a single, unconstrained client VM with
/// the recorder attached, returning the trace.
///
/// `heap_capacity` should be generous (the paper recorded on a PC): the
/// point of trace-driven emulation is to re-impose constraints afterwards.
///
/// # Errors
///
/// Propagates any [`aide_vm::VmError`] from the recording run (e.g. an
/// out-of-memory failure if `heap_capacity` was too small after all).
pub fn record_program(
    app_name: &str,
    program: Arc<Program>,
    heap_capacity: u64,
) -> VmResult<Trace> {
    let recorder = Arc::new(Recorder::new());
    let machine = Machine::with_hooks(
        program.clone(),
        VmConfig::client(heap_capacity),
        recorder.clone(),
    );
    machine.run_entry()?;
    let events = {
        // The machine is done; we hold the only other Arc.
        let recorder = Arc::try_unwrap(recorder).unwrap_or_else(|arc| Recorder {
            events: Mutex::new(arc.events.lock().clone()),
        });
        recorder.into_events()
    };
    let mut trace = Trace::new(app_name, heap_capacity, Trace::class_meta_of(&program));
    trace.events = events;
    Ok(trace)
}

/// Captures every nondeterministic input crossing the seam.
pub struct RecordingSource {
    origin: Instant,
    inputs: Mutex<Vec<ReplayEvent>>,
}

impl Default for RecordingSource {
    fn default() -> Self {
        RecordingSource::new()
    }
}

impl RecordingSource {
    /// A fresh recorder; timestamps count from now.
    pub fn new() -> Self {
        RecordingSource {
            origin: Instant::now(),
            inputs: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, input: impl FnOnce(u64) -> ReplayEvent) {
        let at_micros = u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.inputs.lock().push(input(at_micros));
    }

    /// Drains the captured inputs into a trace for `app`, with
    /// `baseline` as the oracle timeline (the recorded run's
    /// `report.events`).
    pub fn into_trace(
        &self,
        app: impl Into<String>,
        config: PlatformConfig,
        baseline: Vec<TimedEvent>,
    ) -> ReplayTrace {
        let mut trace = ReplayTrace::new(app, config);
        trace.inputs = std::mem::take(&mut *self.inputs.lock());
        trace.baseline = baseline;
        trace
    }
}

impl NondetSource for RecordingSource {
    fn observe_gc(&self, report: &GcReport) {
        self.push(|at_micros| ReplayEvent::Gc {
            at_micros,
            report: *report,
        });
    }

    fn trigger(&self, sample: &TriggerSample) {
        self.push(|at_micros| ReplayEvent::Trigger {
            at_micros,
            sample: sample.clone(),
        });
    }

    fn migration(&self, record: MigrationRecord) {
        self.push(|at_micros| ReplayEvent::Migration { at_micros, record });
    }

    fn link_died(&self, surrogate: &str) {
        self.push(|at_micros| ReplayEvent::LinkDown {
            at_micros,
            surrogate: surrogate.to_string(),
        });
    }
}

/// Runs `platform` with a fresh [`RecordingSource`] and returns the run
/// report plus the finished trace (baseline = the run's flight-recorder
/// timeline).
pub fn record_platform_run(platform: Platform, app: &str) -> (PlatformReport, ReplayTrace) {
    let config = *platform.config();
    let source = Arc::new(RecordingSource::new());
    let report = platform.with_nondet_source(source.clone()).run();
    let trace = source.into_trace(app, config, report.events.clone());
    (report, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_vm::{MethodDef, MethodId, Op, ProgramBuilder, Reg};

    fn program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let data = b.add_class("Data");
        b.add_method(
            main,
            MethodDef::new(
                "main",
                vec![
                    Op::New {
                        class: data,
                        scalar_bytes: 1_000,
                        ref_slots: 0,
                        dst: Reg(0),
                    },
                    Op::Work { micros: 100 },
                    Op::Repeat {
                        n: 5,
                        body: vec![Op::Read {
                            obj: Reg(0),
                            bytes: 16,
                        }],
                    },
                    Op::Native {
                        kind: NativeKind::Math,
                        work_micros: 7,
                        arg_bytes: 8,
                        ret_bytes: 8,
                    },
                ],
            ),
        );
        Arc::new(b.build(main, MethodId(0), 64, 2).unwrap())
    }

    #[test]
    fn recording_captures_the_event_stream_in_order() {
        let trace = record_program("mini", program(), 8 << 20).unwrap();
        assert_eq!(trace.app, "mini");
        assert_eq!(trace.classes.len(), 2);
        // 2 allocs (entry + data), 1 work, 5 reads, 1 native.
        let allocs = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Alloc { .. }))
            .count();
        assert_eq!(allocs, 2);
        assert_eq!(trace.interaction_count(), 5);
        let natives = trace
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Native { .. }))
            .count();
        assert_eq!(natives, 1);
        // Work precedes the reads in program order.
        let work_pos = trace
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::Work { .. }))
            .unwrap();
        let first_read = trace
            .events
            .iter()
            .position(|e| matches!(e, TraceEvent::Interaction { .. }))
            .unwrap();
        assert!(work_pos < first_read);
    }

    #[test]
    fn recorded_trace_round_trips_through_json() {
        let trace = record_program("mini", program(), 8 << 20).unwrap();
        let back = Trace::from_json(&trace.to_json().unwrap()).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn recording_oom_propagates() {
        let result = record_program("toosmall", program(), 600);
        assert!(result.is_err());
    }
}
