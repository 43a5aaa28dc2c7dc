//! Replay: re-run a recorded trace through the real decision pipeline
//! and verify it reproduces the recorded timeline bit-for-bit.
//!
//! The driver rebuilds the pipeline exactly as the platform does — a
//! real [`Monitor`] (trigger state machine), a real
//! [`IncrementalPartitioner`] under the recorded tuning, the recorded
//! policy — then feeds it the trace's input stream. Derived values
//! (trigger attribution, candidate counts, churn weights, policy
//! scores, offload sizes) are **recomputed** and compared against the
//! baseline; genuinely nondeterministic fields (wall-clock timestamps,
//! elapsed/duration microseconds, abort reason strings) are copied from
//! the baseline once the surrounding event matches, so a divergence-free
//! replay yields a timeline that is bit-identical to the recording.
//!
//! Divergence handling is strict, in the `wasm-rr` style: the first
//! produced event that does not match the baseline at the cursor stops
//! the replay with a located [`ReplayError::Diverged`] naming expected
//! vs. actual, bumps the `aide_replay_divergences_total` counter, and
//! (when a flight recorder is attached) records a
//! [`PlatformEvent::ReplayDiverged`] event.

use std::sync::Arc;

use aide_core::{IncrementalPartitioner, PartitionerConfig};
use aide_core::{MigrationRecord, Monitor, TriggerSample};
use aide_graph::PartitionPolicy;
use aide_telemetry::{names, FlightRecorder, PlatformEvent, TimedEvent};
use aide_vm::{MethodDef, MethodId, ProgramBuilder, RuntimeHooks};

use crate::event::{ReplayEvent, ReplayTrace};

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

/// Compares the *derived* fields of two events — the fields the
/// pipeline recomputes on replay. Nondeterministic fields (elapsed and
/// duration microseconds) are ignored; they are copied from the
/// baseline after a match.
fn events_match(expected: &PlatformEvent, actual: &PlatformEvent) -> bool {
    use PlatformEvent::*;
    match (expected, actual) {
        (
            TriggerFired {
                at_gc_cycle: c1,
                heap_used: u1,
                heap_capacity: h1,
                reason: r1,
            },
            TriggerFired {
                at_gc_cycle: c2,
                heap_used: u2,
                heap_capacity: h2,
                reason: r2,
            },
        ) => c1 == c2 && u1 == u2 && h1 == h2 && r1 == r2,
        (
            CandidatesEvaluated { candidates: c1, .. },
            CandidatesEvaluated { candidates: c2, .. },
        ) => c1 == c2,
        (
            WinnerChosen {
                policy_score: s1,
                offload_bytes: b1,
                cut_interactions: i1,
            },
            WinnerChosen {
                policy_score: s2,
                offload_bytes: b2,
                cut_interactions: i2,
            },
        ) => s1.to_bits() == s2.to_bits() && b1 == b2 && i1 == i2,
        (OffloadDeclined { candidates: c1 }, OffloadDeclined { candidates: c2 }) => c1 == c2,
        (
            EpochSkipped {
                churn_weight: w1,
                threshold: t1,
            },
            EpochSkipped {
                churn_weight: w2,
                threshold: t2,
            },
        ) => w1 == w2 && t1 == t2,
        (
            ClassMigrated {
                objects: o1,
                bytes: b1,
                ..
            },
            ClassMigrated {
                objects: o2,
                bytes: b2,
                ..
            },
        ) => o1 == o2 && b1 == b2,
        _ => false,
    }
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
        aide_telemetry::global()
            .counter(names::REPLAY_DIVERGENCES)
            .inc();
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
                self.out.push(TimedEvent {
                    seq: self.out.len() as u64,
                    at_micros,
                    event: actual,
                    span: None,
                });
                Ok(())
            }
        }
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

/// A minimal program for the replay monitor: the trigger state machine
/// and delta plumbing never consult program structure on the replayed
/// paths, but [`Monitor::new`] wants one.
fn skeleton_program() -> Arc<aide_vm::Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    b.add_method(main, MethodDef::new("main", vec![]));
    Arc::new(b.build(main, MethodId(0), 64, 4).expect("trivial program"))
}

/// Re-runs `trace` through the decision pipeline.
///
/// `baseline = true` verifies strictly against the trace's recorded
/// timeline; `baseline = false` ("bless" mode) synthesizes a fresh
/// timeline (used to author golden traces and to run what-if sweeps
/// under a different policy).
fn run(
    trace: &ReplayTrace,
    policy: &dyn PartitionPolicy,
    partitioner_config: PartitionerConfig,
    strict: bool,
    recorder: Option<&FlightRecorder>,
) -> Result<ReplayOutcome, ReplayError> {
    let monitor = Monitor::new(
        skeleton_program(),
        trace.header.config.trigger,
        Default::default(),
    );
    let mut partitioner = IncrementalPartitioner::new(partitioner_config);
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
    let consumed_counter = aide_telemetry::global().counter(names::REPLAY_EVENTS_CONSUMED);

    for input in &trace.inputs {
        consumed_counter.inc();
        match input {
            ReplayEvent::Gc { report, .. } => monitor.on_gc(report),
            ReplayEvent::Trigger { at_micros, sample } => {
                let TriggerSample {
                    at_gc_cycle,
                    reason,
                    snapshot,
                    deltas,
                    keys: _,
                } = sample;
                if strict && reason == "memory-pressure" && !monitor.memory_triggered() {
                    return Err(emitter.diverge(
                        format!("an armed memory trigger before gc #{at_gc_cycle}"),
                        "trigger gate closed (GC stream never armed it)".into(),
                    ));
                }
                emitter.emit(
                    *at_micros,
                    PlatformEvent::TriggerFired {
                        at_gc_cycle: *at_gc_cycle,
                        heap_used: snapshot.heap_used,
                        heap_capacity: snapshot.heap_capacity,
                        reason: reason.clone(),
                    },
                )?;
                partitioner.apply_deltas(deltas);
                let decision = partitioner.epoch(*snapshot, policy);
                if decision.skipped {
                    emitter.emit(
                        *at_micros,
                        PlatformEvent::EpochSkipped {
                            churn_weight: decision.churn.weight,
                            threshold: partitioner.config().churn_threshold,
                        },
                    )?;
                    monitor.reset_memory_trigger();
                    continue;
                }
                emitter.emit(
                    *at_micros,
                    PlatformEvent::CandidatesEvaluated {
                        candidates: decision.candidates_evaluated,
                        elapsed_micros: u64::try_from(decision.elapsed.as_micros())
                            .unwrap_or(u64::MAX),
                    },
                )?;
                match decision.selection {
                    None => {
                        emitter.emit(
                            *at_micros,
                            PlatformEvent::OffloadDeclined {
                                candidates: decision.candidates_evaluated,
                            },
                        )?;
                        monitor.reset_memory_trigger();
                    }
                    Some(selection) => {
                        emitter.emit(
                            *at_micros,
                            PlatformEvent::WinnerChosen {
                                policy_score: selection.score,
                                offload_bytes: selection.stats.offloaded_memory_bytes,
                                cut_interactions: selection.stats.cut.interactions,
                            },
                        )?;
                        // The matching Migration input (next in the
                        // stream) resolves the attempt; the trigger is
                        // reset there.
                    }
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
                    MigrationRecord::Failed => {
                        // The offload layer recorded the abort/rollback
                        // effects; strict mode copies them from the
                        // baseline, bless mode synthesizes the abort.
                        if emitter.baseline.is_none() {
                            emitter.out.push(TimedEvent {
                                seq: emitter.out.len() as u64,
                                at_micros: *at_micros,
                                event: PlatformEvent::MigrationAborted {
                                    reason: "recorded migration failure".into(),
                                },
                                span: None,
                            });
                        } else {
                            emitter.copy_effects();
                        }
                    }
                    MigrationRecord::NoSurrogate => {
                        // With a relay attached the live pipeline queues
                        // the shipment and records queued/relayed/expired
                        // effects; strict mode copies whatever the run
                        // actually did (nothing, for relay-less runs).
                        if emitter.baseline.is_some() {
                            emitter.copy_effects();
                        }
                    }
                }
                monitor.reset_memory_trigger();
            }
            ReplayEvent::LinkDown {
                at_micros,
                surrogate,
            } => {
                if emitter.baseline.is_none() {
                    emitter.out.push(TimedEvent {
                        seq: emitter.out.len() as u64,
                        at_micros: *at_micros,
                        event: PlatformEvent::LinkDied {
                            surrogate: surrogate.clone(),
                        },
                        span: None,
                    });
                } else {
                    emitter.copy_effects();
                }
            }
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
    let policy = trace.header.config.policy.build(
        trace.header.config.comm,
        trace.header.config.surrogate_speed,
    );
    run(
        trace,
        policy.as_ref(),
        trace.header.config.partitioner,
        true,
        recorder,
    )
}

/// Re-runs `trace`'s inputs without a baseline, synthesizing the
/// timeline the pipeline produces — used to author golden baselines and
/// by [`crate::sweep`] to evaluate what-if variants.
pub fn bless(trace: &ReplayTrace) -> Result<Vec<TimedEvent>, ReplayError> {
    let policy = trace.header.config.policy.build(
        trace.header.config.comm,
        trace.header.config.surrogate_speed,
    );
    run(
        trace,
        policy.as_ref(),
        trace.header.config.partitioner,
        false,
        None,
    )
    .map(|o| o.timeline)
}

/// Like [`bless`], but under an overridden policy and partitioner
/// tuning — the sweep entry point.
pub fn replay_with(
    trace: &ReplayTrace,
    policy: &dyn PartitionPolicy,
    partitioner_config: PartitionerConfig,
) -> Result<Vec<TimedEvent>, ReplayError> {
    run(trace, policy, partitioner_config, false, None).map(|o| o.timeline)
}
