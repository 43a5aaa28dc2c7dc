//! The flight recorder: a bounded ring buffer of structured platform
//! events, so a run can explain its offload decisions after the fact.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::span::SpanContext;

/// A structured event in the life of the platform.
///
/// The taxonomy follows the paper's decision pipeline: the memory
/// monitor fires a trigger, the partitioner evaluates candidate
/// partitionings under the active policy, a winner is chosen, classes
/// migrate, and (beyond the paper, §8) links die and failovers recover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlatformEvent {
    /// The offload trigger fired (memory pressure or allocation
    /// failure).
    TriggerFired {
        /// GC cycle at which the trigger fired.
        at_gc_cycle: u64,
        /// Live heap bytes when the trigger fired.
        heap_used: u64,
        /// Heap capacity in bytes.
        heap_capacity: u64,
        /// Human-readable trigger reason.
        reason: String,
    },
    /// The partitioner finished evaluating candidate partitionings.
    CandidatesEvaluated {
        /// Number of candidate partitionings scored.
        candidates: usize,
        /// Wall-clock time spent partitioning, in microseconds.
        elapsed_micros: u64,
    },
    /// A winning candidate partitioning was chosen.
    WinnerChosen {
        /// The policy score of the winner (lower is better).
        policy_score: f64,
        /// Bytes the winner would move to the surrogate.
        offload_bytes: u64,
        /// Interactions crossing the proposed cut.
        cut_interactions: u64,
    },
    /// The partitioner declined to offload (no beneficial candidate).
    OffloadDeclined {
        /// Number of candidate partitionings scored.
        candidates: usize,
    },
    /// Objects of the winning partition migrated to a surrogate.
    ClassMigrated {
        /// Objects shipped.
        objects: u64,
        /// Bytes shipped.
        bytes: u64,
        /// Wall-clock migration duration, in microseconds.
        duration_micros: u64,
    },
    /// A two-phase class migration was aborted before COMMIT (the
    /// surrogate installed nothing; the client keeps its objects).
    MigrationAborted {
        /// Why the migration could not complete.
        reason: String,
    },
    /// A failed migration's objects were reinstated into the client
    /// heap, restoring the pre-offload placement.
    MigrationRolledBack {
        /// Objects reinstated.
        objects: u64,
        /// Bytes reinstated.
        bytes: u64,
    },
    /// A surrogate link was declared dead.
    LinkDied {
        /// Name of the dead surrogate.
        surrogate: String,
    },
    /// A failover completed: state reinstated on the client.
    FailoverCompleted {
        /// Name of the failed surrogate.
        surrogate: String,
        /// Objects reinstated from the ledger.
        reinstated_objects: u64,
        /// Bytes reinstated from the ledger.
        reinstated_bytes: u64,
        /// Objects whose state was lost with the surrogate.
        objects_lost: u64,
        /// Wall-clock failover duration, in microseconds.
        duration_micros: u64,
    },
    /// Export leases ran past their TTL without renewal and the expired
    /// entries were swept back to the collector (the holder is presumed
    /// dead or partitioned).
    LeaseExpired {
        /// Number of exported objects whose leases expired.
        objects: u64,
        /// The export epoch the expired entries belonged to.
        epoch: u64,
    },
    /// Stale-epoch export entries were reclaimed in bulk (failover or
    /// session teardown): their pins were dropped and the objects handed
    /// back to the local collector.
    ExportsReclaimed {
        /// Number of exported objects reclaimed.
        objects: u64,
        /// Why the reclaim ran (e.g. `"failover"`, `"session-closed"`).
        reason: String,
    },
    /// A `GcRelease` named an object that is not in the export table —
    /// chaos-induced misaccounting (a replayed or misrouted release)
    /// that used to be silently ignored.
    GcReleaseUnknown {
        /// The unknown object id (raw `ObjectId` bits).
        object: u64,
    },
    /// An offload decision found no reachable surrogate and parked its
    /// gathered victims in the store-and-forward relay queue.
    MigrationQueued {
        /// Relay transaction id assigned by the queue.
        txn: u64,
        /// Objects parked.
        objects: u64,
        /// Bytes parked.
        bytes: u64,
    },
    /// A queued migration was delivered to a surrogate on reconnect.
    MigrationRelayed {
        /// Relay transaction id.
        txn: u64,
        /// Objects delivered.
        objects: u64,
        /// Bytes delivered.
        bytes: u64,
        /// How long the shipment sat queued, in milliseconds.
        queued_for_ms: u64,
    },
    /// A queued migration sat past its TTL and was reinstated into the
    /// client heap instead of delivered.
    RelayExpired {
        /// Relay transaction id.
        txn: u64,
        /// Objects reinstated.
        objects: u64,
        /// Bytes reinstated.
        bytes: u64,
    },
    /// A queued migration was recalled into the client heap because
    /// execution went purely local while it was still parked.
    RelayRecalled {
        /// Relay transaction id.
        txn: u64,
        /// Objects reinstated.
        objects: u64,
    },
    /// A surrogate refused service with a `Busy` reply (admission
    /// control): the lease was retired but the surrogate stays ranked,
    /// under a brief cooldown.
    SessionRejected {
        /// Name of the saturated surrogate.
        surrogate: String,
        /// Cooldown the surrogate suggested, in milliseconds.
        retry_after_ms: u32,
    },
    /// A trace replay produced an event that differs from the recorded
    /// baseline timeline at the same position (`aide-emu`'s strict
    /// replay divergence check).
    ReplayDiverged {
        /// Index into the baseline timeline where the mismatch occurred.
        at_index: u64,
        /// Description of the event the baseline expected.
        expected: String,
        /// Description of the event the replay actually produced.
        actual: String,
    },
}

impl PlatformEvent {
    /// One-line human-readable description, used by timeline rendering.
    pub fn describe(&self) -> String {
        match self {
            PlatformEvent::TriggerFired {
                at_gc_cycle,
                heap_used,
                heap_capacity,
                reason,
            } => format!(
                "trigger fired at gc #{at_gc_cycle}: heap {heap_used}/{heap_capacity} B ({reason})"
            ),
            PlatformEvent::CandidatesEvaluated {
                candidates,
                elapsed_micros,
            } => format!("evaluated {candidates} candidate partitionings in {elapsed_micros} us"),
            PlatformEvent::WinnerChosen {
                policy_score,
                offload_bytes,
                cut_interactions,
            } => format!(
                "winner chosen: policy score {policy_score:.4}, {offload_bytes} B to move, {cut_interactions} cut interactions"
            ),
            PlatformEvent::OffloadDeclined { candidates } => {
                format!("offload declined after scoring {candidates} candidates")
            }
            PlatformEvent::ClassMigrated {
                objects,
                bytes,
                duration_micros,
            } => format!("migrated {objects} objects ({bytes} B) in {duration_micros} us"),
            PlatformEvent::MigrationAborted { reason } => {
                format!("migration aborted: {reason}")
            }
            PlatformEvent::MigrationRolledBack { objects, bytes } => {
                format!("migration rolled back: {objects} objects ({bytes} B) reinstated")
            }
            PlatformEvent::LinkDied { surrogate } => {
                format!("link to surrogate '{surrogate}' died")
            }
            PlatformEvent::FailoverCompleted {
                surrogate,
                reinstated_objects,
                reinstated_bytes,
                objects_lost,
                duration_micros,
            } => format!(
                "failover from '{surrogate}' completed in {duration_micros} us: {reinstated_objects} objects ({reinstated_bytes} B) reinstated, {objects_lost} lost"
            ),
            PlatformEvent::LeaseExpired { objects, epoch } => {
                format!("{objects} export leases expired (epoch {epoch}), entries swept")
            }
            PlatformEvent::ExportsReclaimed { objects, reason } => {
                format!("{objects} stale exports reclaimed ({reason})")
            }
            PlatformEvent::GcReleaseUnknown { object } => {
                format!("gc release named unknown export {object:#x}")
            }
            PlatformEvent::MigrationQueued {
                txn,
                objects,
                bytes,
            } => format!("migration queued for relay: txn {txn}, {objects} objects ({bytes} B)"),
            PlatformEvent::MigrationRelayed {
                txn,
                objects,
                bytes,
                queued_for_ms,
            } => format!(
                "queued migration relayed: txn {txn}, {objects} objects ({bytes} B) after {queued_for_ms} ms"
            ),
            PlatformEvent::RelayExpired {
                txn,
                objects,
                bytes,
            } => format!("relay entry expired: txn {txn}, {objects} objects ({bytes} B) reinstated"),
            PlatformEvent::RelayRecalled { txn, objects } => {
                format!("relay entry recalled: txn {txn}, {objects} objects reinstated")
            }
            PlatformEvent::SessionRejected {
                surrogate,
                retry_after_ms,
            } => format!(
                "surrogate '{surrogate}' rejected the session as busy (retry after {retry_after_ms} ms)"
            ),
            PlatformEvent::ReplayDiverged {
                at_index,
                expected,
                actual,
            } => format!("replay diverged at timeline event {at_index}: expected {expected}, got {actual}"),
        }
    }
}

/// A [`PlatformEvent`] stamped with a sequence number and a timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedEvent {
    /// Monotonic sequence number (gaps reveal ring-buffer evictions).
    pub seq: u64,
    /// Microseconds since the recorder was created — wall clock for
    /// live runs, virtual time for emulator runs.
    pub at_micros: u64,
    /// The event.
    pub event: PlatformEvent,
    /// The tracing span active on the recording thread
    /// ([`crate::current_context`]), if any, linking the timeline row to
    /// the exported span tree. Absent from serialized form when `None`,
    /// so traces recorded before the tracing layer existed still load.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub span: Option<SpanContext>,
}

/// A bounded ring buffer of [`TimedEvent`]s.
///
/// Live runs stamp events with wall-clock time via [`record`]
/// (microseconds since the recorder was created); the trace-driven
/// emulator stamps virtual time via [`record_at`], which makes emulated
/// and live timelines directly diffable.
///
/// [`record`]: FlightRecorder::record
/// [`record_at`]: FlightRecorder::record_at
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    origin: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    events: Mutex<VecDeque<TimedEvent>>,
}

impl FlightRecorder {
    /// Creates a recorder that retains at most `capacity` events (the
    /// oldest are evicted first). Capacity 0 is clamped to 1.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            origin: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Records `event` stamped with the wall-clock elapsed time since
    /// the recorder was created.
    pub fn record(&self, event: PlatformEvent) {
        let at = u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.record_at(at, event);
    }

    /// Records `event` with an explicit timestamp (virtual time for
    /// emulator runs).
    pub fn record_at(&self, at_micros: u64, event: PlatformEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let span = crate::current_context();
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(TimedEvent {
            seq,
            at_micros,
            event,
            span,
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.events.lock().iter().cloned().collect()
    }

    /// Number of events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Renders events as a human-readable timeline, one line per event.
pub fn render_timeline(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let link = match &e.span {
            Some(s) => format!("  ~ trace={:#x} span={:#x}", s.trace_id, s.span_id),
            None => String::new(),
        };
        out.push_str(&format!(
            "[{:>4} +{:>10.6}s] {}{link}\n",
            e.seq,
            e.at_micros as f64 / 1e6,
            e.event.describe()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_events_in_order() {
        let r = FlightRecorder::new(16);
        r.record(PlatformEvent::LinkDied {
            surrogate: "a".into(),
        });
        r.record_at(42, PlatformEvent::OffloadDeclined { candidates: 3 });
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].at_micros, 42);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let r = FlightRecorder::new(2);
        for i in 0..5 {
            r.record_at(
                i,
                PlatformEvent::OffloadDeclined {
                    candidates: i as usize,
                },
            );
        }
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn events_round_trip_through_serde() {
        let r = FlightRecorder::new(8);
        r.record_at(
            10,
            PlatformEvent::WinnerChosen {
                policy_score: 1.25,
                offload_bytes: 4096,
                cut_interactions: 7,
            },
        );
        r.record_at(
            20,
            PlatformEvent::FailoverCompleted {
                surrogate: "porch-pc".into(),
                reinstated_objects: 12,
                reinstated_bytes: 48_000,
                objects_lost: 1,
                duration_micros: 900,
            },
        );
        let events = r.events();
        let back: Vec<TimedEvent> = events
            .iter()
            .map(|e| serde_json::to_string(e).expect("events serialize"))
            .map(|line| serde_json::from_str(&line).expect("line parses"))
            .collect();
        assert_eq!(events, back);
    }

    #[test]
    fn events_carry_the_active_span_when_annotated() {
        let r = FlightRecorder::new(4);
        let span = crate::span("recorder.test", "test");
        let ctx = span.context();
        r.record(PlatformEvent::OffloadDeclined { candidates: 1 });
        drop(span);
        r.record(PlatformEvent::OffloadDeclined { candidates: 2 });
        let events = r.events();
        assert_eq!(events[0].span, Some(ctx));
        assert_eq!(events[1].span, None);
        // Serialized events surface the link, and omit it when absent so
        // pre-tracing traces still parse byte-compatibly.
        let json = |e: &TimedEvent| serde_json::to_string(e).expect("events serialize");
        assert!(json(&events[0]).contains("\"span\""));
        assert!(!json(&events[1]).contains("\"span\""));
        let text = render_timeline(&events);
        let link = format!("trace={:#x} span={:#x}", ctx.trace_id, ctx.span_id);
        assert!(text.contains(&link), "got: {text}");
    }

    #[test]
    fn an_event_serializes_with_and_without_its_span_link_exactly() {
        let linked = TimedEvent {
            seq: 3,
            at_micros: 42,
            event: PlatformEvent::OffloadDeclined { candidates: 2 },
            span: Some(SpanContext {
                trace_id: 0x1_0000_0007,
                span_id: 9,
            }),
        };
        let unlinked = TimedEvent {
            span: None,
            ..linked.clone()
        };
        let json = |e: &TimedEvent| serde_json::to_string(e).expect("events serialize");
        assert_eq!(
            json(&linked),
            r#"{"seq":3,"at_micros":42,"event":{"OffloadDeclined":{"candidates":2}},"span":{"trace_id":4294967303,"span_id":9}}"#
        );
        assert_eq!(
            json(&unlinked),
            r#"{"seq":3,"at_micros":42,"event":{"OffloadDeclined":{"candidates":2}}}"#
        );
        for event in [linked, unlinked] {
            let back: TimedEvent = serde_json::from_str(&json(&event)).expect("line parses");
            assert_eq!(back, event);
        }
    }

    #[test]
    fn timeline_mentions_the_policy_score() {
        let r = FlightRecorder::new(8);
        r.record_at(
            5,
            PlatformEvent::WinnerChosen {
                policy_score: 0.5,
                offload_bytes: 100,
                cut_interactions: 2,
            },
        );
        let text = render_timeline(&r.events());
        assert!(text.contains("policy score 0.5000"), "got: {text}");
    }
}
