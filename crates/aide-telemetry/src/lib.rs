//! Platform-wide observability for the AIDE reproduction.
//!
//! The paper's platform is driven entirely by measurement: the monitor
//! feeds a weighted execution graph to the partitioner and offloading
//! happens "only if it is beneficial". This crate makes the platform
//! *itself* measurable, with three pieces:
//!
//! - the building blocks an object counts with — a [`Histogram`] of
//!   fixed buckets, the [`FleetSnapshot`] a daemon's pool renders — and a
//!   process-wide **metrics registry** ([`Telemetry`]) of counters that
//!   holds one name, a fault detector read across VMs nobody holds (see
//!   [`names`]). Every other number belongs to the object that counts it:
//!   an endpoint's requests and latencies, a carrier's frames, a pool's
//!   workers, an export table's refused releases, a registry's probes, a
//!   relay queue's expiries. Each is a plain atomic field, read through
//!   that object's accessor or `stats()`.
//! - a bounded ring-buffer **flight recorder** ([`FlightRecorder`]) of
//!   structured [`PlatformEvent`]s, so a report can explain each offload
//!   decision (trigger, candidate scores, winner, migrations, failures)
//!   after the fact.
//! - **exporters**: a Prometheus-style text exposition of the registry
//!   (a daemon's `STATS` answer: its pool's [`FleetSnapshot`] after it)
//!   and human-readable timeline rendering.
//!
//! Besides `serde`/`serde_json`/`parking_lot` it depends only on
//! `aide-trace`, a leaf, whose context stack the recorder reads to link
//! each event to the span active on the recording thread. Every other
//! crate in the workspace can record into it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod fleet;
mod metrics;
mod recorder;

pub use export::prometheus_text;
pub use fleet::{FleetSnapshot, SessionLease};
pub use metrics::{Counter, Histogram, Telemetry, TelemetrySnapshot};
pub use recorder::{render_timeline, FlightRecorder, PlatformEvent, SpanRef, TimedEvent};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-wide metrics registry.
///
/// It holds the one detector of [`names`]. A run's share is the snapshot
/// after it less the snapshot before ([`TelemetrySnapshot::delta_since`]),
/// which includes whatever else the process did meanwhile.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::new)
}

/// Canonical metric names: the registry's one process-wide fault
/// detector, which a test or the benchmark reads across VMs it does not
/// hold. Every other number is read from the object that counts it.
///
/// Naming follows Prometheus conventions: `_total` for counters.
pub mod names {
    /// Unpin calls naming an object that carried no pin — the
    /// double-unpin symptom the lease state machine must never produce.
    pub const VM_UNPIN_UNBALANCED: &str = "aide_vm_external_unpin_unbalanced_total";
}

/// Bucket presets (upper bounds) for the fixed-bucket histograms.
pub mod buckets {
    /// Latency buckets in microseconds: 50 µs … 1 s.
    pub const LATENCY_MICROS: &[u64] = &[
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    ];
}
