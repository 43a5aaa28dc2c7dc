//! The trace vocabulary: headers, recorded inputs, and the trace
//! container.
//!
//! A trace has three sections:
//!
//! 1. a [`TraceHeader`] pinning the format version and the full
//!    [`PlatformConfig`] the run used (policy, trigger, partitioner
//!    tuning, chaos schedule — everything a replay needs to rebuild the
//!    pipeline);
//! 2. the ordered stream of recorded [`ReplayEvent`] inputs — every
//!    nondeterministic value the decision pipeline consumed, and
//!    nothing a replay does not read;
//! 3. the `baseline` decision timeline the recorded run produced (the
//!    flight recorder's [`TimedEvent`]s), which replay treats as the
//!    oracle: a replayed run must reproduce it bit-for-bit.

use aide_core::{MigrationRecord, PlatformConfig, TriggerSample};
use aide_telemetry::TimedEvent;
use aide_vm::GcReport;
use serde::{Deserialize, Serialize};

/// Current trace format version. Bump on any breaking change to the
/// header or event vocabulary; loaders reject other
/// versions with [`crate::TraceError::UnsupportedVersion`].
pub const TRACE_VERSION: u32 = 1;

/// Metadata pinning a trace to the run that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceHeader {
    /// Format version ([`TRACE_VERSION`] at write time).
    pub version: u32,
    /// Application name ("javanote", "chaos-soak", ...).
    pub app: String,
    /// The full platform configuration of the recorded run.
    pub config: PlatformConfig,
}

impl TraceHeader {
    /// A version-stamped header for `app` recorded under `config`.
    pub fn new(app: impl Into<String>, config: PlatformConfig) -> Self {
        TraceHeader {
            version: TRACE_VERSION,
            app: app.into(),
            config,
        }
    }
}

/// One recorded nondeterministic input, in pipeline order.
///
/// `at_micros` timestamps are microseconds since the recording began —
/// informational for humans, copied (never recomputed) by replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReplayEvent {
    /// A garbage-collection report reached the trigger state machine.
    Gc {
        /// Microseconds since recording began.
        at_micros: u64,
        /// The report, verbatim.
        report: GcReport,
    },
    /// A trigger evaluation began: the complete input to one partitioner
    /// epoch (drained deltas, heap snapshot, trigger attribution).
    Trigger {
        /// Microseconds since recording began.
        at_micros: u64,
        /// The full pipeline input for this epoch.
        sample: TriggerSample,
    },
    /// The migration attempt that followed a winning partition.
    Migration {
        /// Microseconds since recording began.
        at_micros: u64,
        /// How the attempt ended.
        record: MigrationRecord,
    },
    /// The failover layer declared a surrogate link dead.
    LinkDown {
        /// Microseconds since recording began.
        at_micros: u64,
        /// Name of the dead surrogate.
        surrogate: String,
    },
}

/// A complete recorded run: header, input stream, baseline timeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayTrace {
    /// Version and run metadata.
    pub header: TraceHeader,
    /// Every nondeterministic input, in the order the pipeline consumed
    /// it.
    pub inputs: Vec<ReplayEvent>,
    /// The flight-recorder timeline the recorded run produced — the
    /// oracle replays must reproduce bit-for-bit.
    pub baseline: Vec<TimedEvent>,
}

impl ReplayTrace {
    /// An empty trace for `app` under `config`.
    pub fn new(app: impl Into<String>, config: PlatformConfig) -> Self {
        ReplayTrace {
            header: TraceHeader::new(app, config),
            inputs: Vec::new(),
            baseline: Vec::new(),
        }
    }

    /// Number of decision-pipeline trigger evaluations in the trace.
    pub fn trigger_count(&self) -> usize {
        self.inputs
            .iter()
            .filter(|e| matches!(e, ReplayEvent::Trigger { .. }))
            .count()
    }
}
