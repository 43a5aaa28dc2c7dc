//! Platform-wide observability for the AIDE reproduction.
//!
//! The paper's platform is driven entirely by measurement: the monitor
//! feeds a weighted execution graph to the partitioner and offloading
//! happens "only if it is beneficial". This crate makes the platform
//! *itself* measurable, with three pieces:
//!
//! - a lock-cheap **metrics registry** ([`Telemetry`]) of atomic
//!   counters, gauges, and fixed-bucket histograms. Handles are `Arc`s
//!   resolved once at registration; the hot path is a relaxed atomic op.
//!   It counts each occurrence once: what an object already keeps — an
//!   endpoint's retries, a VM's inline-cache hits, a collection's
//!   `GcReport`, a pool's sessions ([`FleetSnapshot`]) — is read from that
//!   object, and the registry keeps only process-wide fault detectors (see
//!   [`names`]) and numbers nothing else records.
//! - a bounded ring-buffer **flight recorder** ([`FlightRecorder`]) of
//!   structured [`PlatformEvent`]s, so a report can explain each offload
//!   decision (trigger, candidate scores, winner, migrations, failures)
//!   after the fact.
//! - **exporters**: a Prometheus-style text exposition of a snapshot
//!   (served by `aide-surrogate` on its RPC port via a `STATS` request)
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
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Telemetry, TelemetrySnapshot};
pub use recorder::{render_timeline, FlightRecorder, PlatformEvent, SpanRef, TimedEvent};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The process-wide metrics registry.
///
/// Instrumented code resolves handles here (once, at setup) so call
/// signatures across the workspace stay unchanged. Per-run numbers are
/// obtained by snapshotting before and after and taking
/// [`TelemetrySnapshot::delta_since`].
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(Telemetry::new)
}

/// Canonical metric names. Each is written from one source file.
///
/// Two kinds stay in the registry. Process-wide fault detectors, which a
/// test or the benchmark reads across objects it does not hold:
/// [`VM_UNPIN_UNBALANCED`](names::VM_UNPIN_UNBALANCED),
/// [`GC_EXPORT_ENTRIES`](names::GC_EXPORT_ENTRIES),
/// [`GC_IMPORT_ENTRIES`](names::GC_IMPORT_ENTRIES),
/// [`FLEET_RELAY_QUEUE_DEPTH`](names::FLEET_RELAY_QUEUE_DEPTH) and
/// [`FLEET_RELAY_EXPIRED`](names::FLEET_RELAY_EXPIRED). And numbers no
/// other object records. A number an object already keeps is read from
/// that object instead.
///
/// Naming follows Prometheus conventions: `_total` for counters, an
/// explicit unit suffix for histograms and gauges.
pub mod names {
    /// RPC requests issued by an endpoint (caller side).
    pub const RPC_REQUESTS: &str = "aide_rpc_requests_total";
    /// Real round-trip latency of RPC calls, in microseconds.
    pub const RPC_LATENCY_MICROS: &str = "aide_rpc_request_latency_micros";
    /// Simulated request+reply payload bytes charged to the link.
    pub const RPC_SIMULATED_BYTES: &str = "aide_rpc_simulated_bytes_total";
    /// RPC calls that returned an error (transport or remote).
    pub const RPC_ERRORS: &str = "aide_rpc_errors_total";
    /// Replies a blocked caller read off its carrier itself, holding the
    /// carrier's read half (on either end of a byte-stream carrier).
    pub const RPC_REPLIES_CALLER_READ: &str = "aide_rpc_replies_caller_read_total";
    /// Replies handed to a blocked caller by another thread that held its
    /// carrier's read half: the carrier's reader thread, a worker reading
    /// for its next request, or a sibling caller reading at the time.
    pub const RPC_REPLIES_HANDED_OVER: &str = "aide_rpc_replies_handed_over_total";
    /// Requests an endpoint served on the thread that read them: a worker
    /// that, having replied, read its next request off the carrier itself;
    /// no other thread handed the request on.
    pub const RPC_SERVED_WHERE_READ: &str = "aide_rpc_requests_served_where_read_total";
    /// Worker threads endpoints spawned: one each time a request was queued
    /// for a worker and no idle one was there to take it.
    pub const RPC_WORKERS_SPAWNED: &str = "aide_rpc_workers_spawned_total";
    /// Logical RPC sessions opened over multiplexed connections.
    pub const MUX_SESSIONS: &str = "aide_mux_sessions_total";
    /// Frames carried over multiplexed connections (both directions).
    pub const MUX_FRAMES: &str = "aide_mux_frames_total";
    /// Encoded bytes carried over multiplexed connections (both directions).
    pub const MUX_BYTES: &str = "aide_mux_bytes_total";

    /// Release batches dropped because their release sequence number was
    /// at or below the session watermark (a retried or replayed batch).
    pub const GC_RELEASE_DUPLICATE: &str = "aide_gc_release_duplicate_total";
    /// Release batches dropped because they carried an epoch older than
    /// the peer's current lease epoch (a zombie from before a failover).
    pub const GC_RELEASE_STALE: &str = "aide_gc_release_stale_total";
    /// Releases naming an object that is not in the export table.
    pub const GC_RELEASE_UNKNOWN: &str = "aide_gc_release_unknown_total";
    /// Distinct objects currently held in an export table.
    pub const GC_EXPORT_ENTRIES: &str = "aide_gc_export_table_entries";
    /// Distinct remote objects currently held in an import table.
    pub const GC_IMPORT_ENTRIES: &str = "aide_gc_import_table_entries";
    /// Unpin calls naming an object that carried no pin — the
    /// double-unpin symptom the lease state machine must never produce.
    pub const VM_UNPIN_UNBALANCED: &str = "aide_vm_external_unpin_unbalanced_total";

    /// Sessions accepted by a surrogate daemon.
    pub const SURROGATE_SESSIONS: &str = "aide_surrogate_sessions_total";

    /// Migrations currently parked in store-and-forward relay queues.
    pub const FLEET_RELAY_QUEUE_DEPTH: &str = "aide_fleet_relay_queue_depth";
    /// Queued migrations dropped because their TTL lapsed before the
    /// surrogate came back.
    pub const FLEET_RELAY_EXPIRED: &str = "aide_fleet_relay_expired_total";

    /// Null-RPC probe round-trips measured by the registry, in
    /// microseconds.
    pub const REGISTRY_PROBE_RTT_MICROS: &str = "aide_registry_probe_rtt_micros";
    /// Surrogates evicted from the registry after consecutive probe
    /// failures.
    pub const REGISTRY_EVICTIONS: &str = "aide_registry_evictions_total";
}

/// Bucket presets (upper bounds) for the fixed-bucket histograms.
pub mod buckets {
    /// Latency buckets in microseconds: 50 µs … 1 s.
    pub const LATENCY_MICROS: &[u64] = &[
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    ];
}
