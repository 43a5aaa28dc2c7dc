//! aide-replay — deterministic record/replay for the decision pipeline.
//!
//! The platform's offload decisions are a pure function of a small set
//! of nondeterministic inputs: the GC report stream, the drained graph
//! deltas and heap snapshot at each trigger, migration outcomes and
//! link deaths. This crate captures them ([`RecordingSource`] behind the
//! [`NondetSource`](aide_core::NondetSource) seam) into a versioned
//! [`ReplayTrace`] — saved as human-editable JSON lines — and replays
//! them through the *real* `Monitor` → `IncrementalPartitioner` → policy
//! pipeline. A trace holds exactly what replay reads: chaos draws, RPC
//! timings and probe RTTs never reach that pipeline (a chaos schedule's
//! seed, in the header's config, regenerates its fault stream).
//!
//! Replay is strict: the recorded flight-recorder timeline is the
//! oracle, every recomputed event is compared against it, and the first
//! mismatch stops the run with a located
//! [`ReplayError::Diverged`] ("expected `TriggerFired` at epoch 12, got
//! `EpochSkipped`"). A divergence-free replay reproduces the timeline
//! bit-for-bit. Because the inputs are all on tape, [`sweep`] can
//! re-decide one recorded run under many policy variants in parallel —
//! what-if analysis with recorded-run fidelity.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod event;
pub mod record;
pub mod replay;
pub mod sweep;

pub use codec::{decode, from_json_lines, load, save, to_json_lines, TraceError};
pub use event::{ReplayEvent, ReplayTrace, TraceHeader, TRACE_VERSION};
pub use record::{record_platform_run, RecordingSource};
pub use replay::{bless, replay, replay_with, ReplayError, ReplayOutcome};
pub use sweep::{
    decision_outcomes, default_variants, sweep, BaselineSummary, EpochOutcome, SweepReport,
    SweepVariant, VariantOutcome,
};
