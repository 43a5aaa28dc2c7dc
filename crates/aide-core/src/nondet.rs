//! The nondeterminism seam of the decision pipeline.
//!
//! Everything the monitor → partitioner → migration pipeline consumes
//! that is not a pure function of the program — GC reports, drained
//! graph deltas, heap snapshots, migration outcomes, link deaths — is
//! shown to a [`NondetSource`] as it happens. The default [`LiveSource`]
//! ignores it all; `aide-emu`'s `RecordingSource` captures every value
//! into a replay trace, which its strict replayer feeds through a
//! `Monitor` and an `IncrementalPartitioner` of its own to verify they
//! reproduce the recorded decision timeline bit-for-bit.
//!
//! The seam deliberately sits *outside* the partitioner: given the same
//! sample and policy, the decision epoch
//! ([`IncrementalPartitioner::decide`](crate::IncrementalPartitioner::decide))
//! is deterministic, and the platform, the emulator and the replayer all
//! run it, so only its inputs need capturing.

use aide_graph::{GraphDelta, ResourceSnapshot};
use aide_vm::GcReport;
use serde::{Deserialize, Serialize};

use crate::monitor::NodeKey;

/// The full nondeterministic input to one trigger evaluation: what the
/// controller feeds the incremental partitioner when a trigger fires.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TriggerSample {
    /// GC cycle the trigger was attributed to.
    pub at_gc_cycle: u64,
    /// Human-readable trigger reason ("memory-pressure", "periodic").
    pub reason: String,
    /// Client heap occupancy at evaluation time.
    pub snapshot: ResourceSnapshot,
    /// Graph deltas drained from the monitor for this epoch.
    pub deltas: Vec<GraphDelta>,
    /// Reference keys dropped since the last drain (distributed GC).
    pub keys: Vec<NodeKey>,
}

/// The outcome of one migration attempt, as observed by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationRecord {
    /// The two-phase migration committed.
    Completed {
        /// Objects shipped to the surrogate.
        objects: u64,
        /// Bytes shipped to the surrogate.
        bytes: u64,
        /// Wall-clock migration duration, in microseconds.
        duration_micros: u64,
    },
    /// The migration aborted (and, if partially applied, rolled back).
    Failed,
    /// No live surrogate lease was available; the winner was dropped
    /// without a migration attempt.
    NoSurrogate,
}

/// Sink for the decision pipeline's nondeterministic values.
///
/// All methods default to no-ops, so implementations override only the
/// streams they care about. Methods take `&self`; the controller shares
/// one source across the GC hook and worker threads.
pub trait NondetSource: Send + Sync {
    /// A GC report reached the controller (after the monitor's trigger
    /// state machine consumed it).
    fn observe_gc(&self, report: &GcReport) {
        let _ = report;
    }

    /// A trigger is about to be evaluated on `sample`.
    fn trigger(&self, sample: &TriggerSample) {
        let _ = sample;
    }

    /// A migration attempt finished (or was skipped for lack of a
    /// surrogate).
    fn migration(&self, record: MigrationRecord) {
        let _ = record;
    }

    /// The failover layer declared the link to `surrogate` dead.
    fn link_died(&self, surrogate: &str) {
        let _ = surrogate;
    }
}

/// The source used by normal runs: captures nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveSource;

impl NondetSource for LiveSource {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_serde() {
        let r = MigrationRecord::Completed {
            objects: 3,
            bytes: 4096,
            duration_micros: 17,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: MigrationRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
