//! Replay: re-run a recorded trace through the real decision pipeline
//! and verify it reproduces the recorded timeline bit-for-bit.
//!
//! The driver rebuilds the pipeline exactly as the platform does — a
//! real [`Monitor`] (trigger state machine), a real
//! [`IncrementalPartitioner`], the recorded policy — then feeds it the
//! trace's input stream, each trigger through the platform's own decision
//! epoch ([`IncrementalPartitioner::decide`]). Derived values (trigger
//! attribution, candidate counts, policy scores, offload sizes) are
//! **recomputed** and compared against the baseline; genuinely
//! nondeterministic fields (wall-clock timestamps, elapsed/duration
//! microseconds, abort reason strings) are copied from the baseline once
//! the surrounding event matches, so a divergence-free replay yields a
//! timeline that is bit-identical to the recording.
//!
//! Divergence handling is strict, in the `wasm-rr` style: the first
//! produced event that does not match the baseline at the cursor stops
//! the replay with a located [`ReplayError::Diverged`] naming expected
//! vs. actual and (when a flight recorder is attached) records a
//! [`PlatformEvent::ReplayDiverged`] event.

use std::sync::Arc;

use aide_core::{
    HeuristicKind, IncrementalPartitioner, MigrationRecord, Monitor, PartitionerConfig,
};
use aide_graph::PartitionPolicy;
use aide_telemetry::{FlightRecorder, PlatformEvent, TimedEvent};
use aide_vm::RuntimeHooks;

use crate::event::{ReplayEvent, ReplayTrace};
use crate::trace::{ClassMeta, Trace};

/// Why a replay failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The replayed pipeline produced an event that differs from the
    /// baseline timeline.
    Diverged {
        /// Index into the baseline timeline where the mismatch occurred.
        index: usize,
        /// Description of the baseline's expected event (or gate state).
        expected: String,
        /// Description of what the replay actually produced.
        actual: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Diverged {
                index,
                expected,
                actual,
            } => write!(
                f,
                "replay diverged at timeline event {index}: expected {expected}, got {actual}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// The result of a successful (divergence-free) replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The reproduced decision timeline. For a strict replay this is
    /// bit-identical to the trace's baseline.
    pub timeline: Vec<TimedEvent>,
    /// Recorded inputs consumed: every input on the trace.
    pub events_consumed: u64,
}

/// Baseline events the decision pipeline does not produce itself —
/// asynchronous effects recorded by the offload/failover layers. The
/// strict replayer copies them from the baseline wherever they appear.
fn is_effect(event: &PlatformEvent) -> bool {
    matches!(
        event,
        PlatformEvent::LinkDied { .. }
            | PlatformEvent::FailoverCompleted { .. }
            | PlatformEvent::MigrationAborted { .. }
            | PlatformEvent::MigrationRolledBack { .. }
            | PlatformEvent::LeaseExpired { .. }
            | PlatformEvent::ExportsReclaimed { .. }
            | PlatformEvent::GcReleaseUnknown { .. }
            | PlatformEvent::MigrationQueued { .. }
            | PlatformEvent::MigrationRelayed { .. }
            | PlatformEvent::RelayExpired { .. }
            | PlatformEvent::RelayRecalled { .. }
            | PlatformEvent::SessionRejected { .. }
    )
}

/// Whether `actual` reproduces `expected` in every field the pipeline
/// recomputes — a winner's score bit for bit. Elapsed and duration
/// microseconds are not compared; they are copied from the baseline after
/// a match.
fn events_match(expected: &PlatformEvent, actual: &PlatformEvent) -> bool {
    fn derived(event: &PlatformEvent) -> (PlatformEvent, u64) {
        let mut event = event.clone();
        let mut score_bits = 0;
        match &mut event {
            PlatformEvent::CandidatesEvaluated { elapsed_micros, .. } => *elapsed_micros = 0,
            PlatformEvent::ClassMigrated {
                duration_micros, ..
            } => *duration_micros = 0,
            PlatformEvent::WinnerChosen { policy_score, .. } => {
                score_bits = std::mem::take(policy_score).to_bits();
            }
            _ => {}
        }
        (event, score_bits)
    }
    derived(expected) == derived(actual)
}

/// Emits pipeline events against an optional baseline: strict mode
/// verifies and copies; bless mode synthesizes a fresh timeline.
struct Emitter<'a> {
    baseline: Option<&'a [TimedEvent]>,
    cursor: usize,
    out: Vec<TimedEvent>,
    recorder: Option<&'a FlightRecorder>,
}

impl<'a> Emitter<'a> {
    /// Copies effect events sitting at the cursor (strict mode only).
    fn copy_effects(&mut self) {
        if let Some(baseline) = self.baseline {
            while let Some(next) = baseline.get(self.cursor) {
                if is_effect(&next.event) {
                    self.out.push(next.clone());
                    self.cursor += 1;
                } else {
                    break;
                }
            }
        }
    }

    fn diverge(&mut self, expected: String, actual: String) -> ReplayError {
        if let Some(recorder) = self.recorder {
            recorder.record(PlatformEvent::ReplayDiverged {
                at_index: self.cursor as u64,
                expected: expected.clone(),
                actual: actual.clone(),
            });
        }
        ReplayError::Diverged {
            index: self.cursor,
            expected,
            actual,
        }
    }

    /// Emits `actual` at `at_micros`: in strict mode, verified against
    /// (and replaced by) the baseline event at the cursor; in bless
    /// mode, appended with a synthesized sequence number.
    fn emit(&mut self, at_micros: u64, actual: PlatformEvent) -> Result<(), ReplayError> {
        match self.baseline {
            Some(baseline) => {
                self.copy_effects();
                let Some(expected) = baseline.get(self.cursor) else {
                    return Err(self.diverge(
                        "end of baseline (no further events recorded)".into(),
                        actual.describe(),
                    ));
                };
                if !events_match(&expected.event, &actual) {
                    let expected = expected.event.describe();
                    return Err(self.diverge(expected, actual.describe()));
                }
                self.out.push(expected.clone());
                self.cursor += 1;
                Ok(())
            }
            None => {
                self.push(at_micros, actual);
                Ok(())
            }
        }
    }

    /// An input whose events the offload or failover layer recorded:
    /// strict mode copies them from the baseline at the cursor, bless mode
    /// synthesizes `synthesized`, if any.
    fn effect(&mut self, at_micros: u64, synthesized: Option<PlatformEvent>) {
        if self.baseline.is_some() {
            self.copy_effects();
        } else if let Some(event) = synthesized {
            self.push(at_micros, event);
        }
    }

    fn push(&mut self, at_micros: u64, event: PlatformEvent) {
        self.out.push(TimedEvent {
            seq: self.out.len() as u64,
            at_micros,
            event,
            span: None,
        });
    }

    /// Verifies the baseline is exhausted (strict mode): trailing
    /// effects are copied, anything else is a divergence.
    fn finish(&mut self) -> Result<(), ReplayError> {
        self.copy_effects();
        if let Some(baseline) = self.baseline {
            if let Some(expected) = baseline.get(self.cursor) {
                let expected = expected.event.describe();
                return Err(self.diverge(
                    expected,
                    "end of replay (pipeline produced no further events)".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Re-runs `trace` through the decision pipeline.
///
/// `strict` verifies against the trace's recorded timeline; otherwise
/// ("bless" mode) it synthesizes a fresh
/// timeline (used to author golden traces and to run what-if sweeps
/// under a different policy).
fn run(
    trace: &ReplayTrace,
    policy: &dyn PartitionPolicy,
    strict: bool,
    recorder: Option<&FlightRecorder>,
) -> Result<ReplayOutcome, ReplayError> {
    // The trigger state machine and the delta plumbing never consult
    // program structure on the replayed paths, but `Monitor::new` wants a
    // program: the skeleton of a one-class trace.
    let main = ClassMeta {
        name: "Main".into(),
        native_impl: false,
        is_primitive_array: false,
    };
    let program = Trace::new(&trace.header.app, 0, vec![main])
        .skeleton_program()
        .expect("a one-class skeleton is a valid program");
    let monitor = Monitor::new(
        Arc::new(program),
        trace.header.config.trigger,
        Default::default(),
    );
    let mut partitioner = IncrementalPartitioner::new(PartitionerConfig);
    let mut emitter = Emitter {
        baseline: if strict {
            Some(trace.baseline.as_slice())
        } else {
            None
        },
        cursor: 0,
        out: Vec::new(),
        recorder,
    };

    for input in &trace.inputs {
        match input {
            ReplayEvent::Gc { report, .. } => monitor.on_gc(report),
            ReplayEvent::Trigger { at_micros, sample } => {
                if strict && sample.reason == "memory-pressure" && !monitor.memory_triggered() {
                    return Err(emitter.diverge(
                        format!("an armed memory trigger before gc #{}", sample.at_gc_cycle),
                        "trigger gate closed (GC stream never armed it)".into(),
                    ));
                }
                let mut diverged = None;
                let decision = partitioner.decide(
                    sample,
                    policy,
                    HeuristicKind::ModifiedMincut,
                    &mut |event| {
                        if diverged.is_none() {
                            diverged = emitter.emit(*at_micros, event).err();
                        }
                    },
                );
                if let Some(err) = diverged {
                    return Err(err);
                }
                // A winner's migration input (next in the stream) resolves
                // the attempt; the trigger is reset there.
                if decision.selection.is_none() {
                    monitor.reset_memory_trigger();
                }
            }
            ReplayEvent::Migration { at_micros, record } => {
                match record {
                    MigrationRecord::Completed {
                        objects,
                        bytes,
                        duration_micros,
                    } => {
                        emitter.emit(
                            *at_micros,
                            PlatformEvent::ClassMigrated {
                                objects: *objects,
                                bytes: *bytes,
                                duration_micros: *duration_micros,
                            },
                        )?;
                    }
                    // The offload layer recorded the abort/rollback effects.
                    MigrationRecord::Failed => emitter.effect(
                        *at_micros,
                        Some(PlatformEvent::MigrationAborted {
                            reason: "recorded migration failure".into(),
                        }),
                    ),
                    // With a relay attached the live pipeline queues the
                    // shipment and records queued/relayed/expired effects
                    // (nothing, for relay-less runs).
                    MigrationRecord::NoSurrogate => emitter.effect(*at_micros, None),
                }
                monitor.reset_memory_trigger();
            }
            ReplayEvent::LinkDown {
                at_micros,
                surrogate,
            } => emitter.effect(
                *at_micros,
                Some(PlatformEvent::LinkDied {
                    surrogate: surrogate.clone(),
                }),
            ),
        }
    }
    emitter.finish()?;
    Ok(ReplayOutcome {
        timeline: emitter.out,
        events_consumed: trace.inputs.len() as u64,
    })
}

/// Strictly replays `trace` against its recorded baseline timeline.
///
/// On success the outcome's timeline is bit-identical to
/// `trace.baseline`. Pass a [`FlightRecorder`] to have divergences
/// recorded as [`PlatformEvent::ReplayDiverged`] events.
///
/// # Errors
///
/// [`ReplayError::Diverged`] at the first mismatch, naming the expected
/// and actual events.
pub fn replay(
    trace: &ReplayTrace,
    recorder: Option<&FlightRecorder>,
) -> Result<ReplayOutcome, ReplayError> {
    let config = &trace.header.config;
    let policy = config.policy.build(config.comm, config.surrogate_speed);
    run(trace, policy.as_ref(), true, recorder)
}

/// Re-runs `trace`'s inputs without a baseline, synthesizing the
/// timeline the pipeline produces — used to author golden baselines and
/// by the what-if `sweep` to evaluate variants.
pub fn bless(trace: &ReplayTrace) -> Result<Vec<TimedEvent>, ReplayError> {
    let config = &trace.header.config;
    let policy = config.policy.build(config.comm, config.surrogate_speed);
    replay_with(trace, policy.as_ref())
}

/// Like [`bless`], but under an overridden policy — the sweep entry point.
pub fn replay_with(
    trace: &ReplayTrace,
    policy: &dyn PartitionPolicy,
) -> Result<Vec<TimedEvent>, ReplayError> {
    run(trace, policy, false, None).map(|o| o.timeline)
}
