//! The trace recorder: a [`RuntimeHooks`] implementation that captures the
//! full event stream of a run, plus a convenience driver that records an
//! application "running to completion on a single PC" (paper §4).

use std::sync::Arc;

use parking_lot::Mutex;

use aide_vm::{
    ClassId, GcReport, Interaction, InteractionKind, Machine, NativeKind, ObjectId, Program,
    RuntimeHooks, VmConfig, VmResult,
};

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
