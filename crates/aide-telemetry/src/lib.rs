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

/// Canonical metric names, shared by all instrumented crates.
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
    /// Request frames resent by the retry machinery.
    pub const RPC_RETRIES: &str = "aide_rpc_retries_total";
    /// Duplicate requests answered from the at-most-once dedup cache
    /// (or suppressed while the original was still executing).
    pub const RPC_DEDUP_HITS: &str = "aide_rpc_dedup_hits_total";
    /// Replies that arrived after their caller had already timed out.
    pub const RPC_LATE_REPLIES: &str = "aide_rpc_late_replies_total";
    /// Incoming frames rejected by the wire codec (bad version, bad
    /// checksum, truncation, unknown tag).
    pub const RPC_BAD_FRAMES: &str = "aide_rpc_bad_frames_total";
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
    /// RPC requests issued over the in-memory channel backend.
    pub const RPC_BACKEND_INMEM_REQUESTS: &str = "aide_rpc_inmem_requests_total";
    /// RPC requests issued over the TCP backend.
    pub const RPC_BACKEND_TCP_REQUESTS: &str = "aide_rpc_tcp_requests_total";
    /// Logical RPC sessions opened over multiplexed connections.
    pub const MUX_SESSIONS: &str = "aide_mux_sessions_total";
    /// Frames carried over multiplexed connections (both directions).
    pub const MUX_FRAMES: &str = "aide_mux_frames_total";
    /// Encoded bytes carried over multiplexed connections (both directions).
    pub const MUX_BYTES: &str = "aide_mux_bytes_total";

    /// Completed GC cycles.
    pub const GC_CYCLES: &str = "aide_gc_cycles_total";
    /// GC pause durations (modeled), in microseconds.
    pub const GC_PAUSE_MICROS: &str = "aide_gc_pause_micros";
    /// Bytes reclaimed by GC.
    pub const GC_FREED_BYTES: &str = "aide_gc_freed_bytes_total";
    /// Live heap bytes after the most recent GC.
    pub const HEAP_USED_BYTES: &str = "aide_heap_used_bytes";
    /// Free heap bytes after the most recent GC.
    pub const HEAP_FREE_BYTES: &str = "aide_heap_free_bytes";

    /// Export leases extended by piggybacked or explicit renewals.
    pub const GC_LEASES_RENEWED: &str = "aide_gc_leases_renewed_total";
    /// Export leases that ran past their TTL and were swept.
    pub const GC_LEASES_EXPIRED: &str = "aide_gc_leases_expired_total";
    /// Release batches dropped because their release sequence number was
    /// at or below the session watermark (a retried or replayed batch).
    pub const GC_RELEASE_DUPLICATE: &str = "aide_gc_release_duplicate_total";
    /// Release batches dropped because they carried an epoch older than
    /// the peer's current lease epoch (a zombie from before a failover).
    pub const GC_RELEASE_STALE: &str = "aide_gc_release_stale_total";
    /// Releases naming an object that is not in the export table.
    pub const GC_RELEASE_UNKNOWN: &str = "aide_gc_release_unknown_total";
    /// Exported objects reclaimed by stale-epoch sweeps (failover or
    /// session teardown), not by peer releases.
    pub const GC_EXPORTS_RECLAIMED: &str = "aide_gc_exports_reclaimed_total";
    /// Distinct objects currently held in an export table.
    pub const GC_EXPORT_ENTRIES: &str = "aide_gc_export_table_entries";
    /// Distinct remote objects currently held in an import table.
    pub const GC_IMPORT_ENTRIES: &str = "aide_gc_import_table_entries";
    /// External-root pins taken by VMs for exported objects.
    pub const VM_EXTERNAL_PINS: &str = "aide_vm_external_pins_total";
    /// External-root unpins released by VMs.
    pub const VM_EXTERNAL_UNPINS: &str = "aide_vm_external_unpins_total";
    /// Unpin calls naming an object that carried no pin — the
    /// double-unpin symptom the lease state machine must never produce.
    pub const VM_UNPIN_UNBALANCED: &str = "aide_vm_external_unpin_unbalanced_total";
    /// Flat-interpreter inline-cache hits (local-vs-remote check answered
    /// by a single compare-and-branch).
    pub const VM_IC_HITS: &str = "aide_vm_ic_hits_total";
    /// Flat-interpreter inline-cache misses (heap lookup or remote path).
    pub const VM_IC_MISSES: &str = "aide_vm_ic_miss_total";
    /// Logical VM ops dispatched (identical count under either
    /// interpreter; flat control ops are excluded).
    pub const VM_DISPATCH_OPS: &str = "aide_vm_dispatch_ops_total";

    /// Partitioning epochs the incremental partitioner evaluated.
    pub const PARTITION_EPOCHS: &str = "aide_partition_epochs_total";
    /// Graph deltas applied to the incremental execution graph.
    pub const GRAPH_DELTAS_APPLIED: &str = "aide_graph_deltas_applied_total";
    /// Wall-clock duration of candidate evaluation per epoch, in
    /// microseconds.
    pub const PARTITION_EVAL_MICROS: &str = "aide_partition_eval_micros";

    /// Offloads (migrations to a surrogate) completed.
    pub const OFFLOADS: &str = "aide_offloads_total";
    /// Bytes shipped by completed offloads.
    pub const OFFLOAD_BYTES: &str = "aide_offload_bytes_total";
    /// Wall-clock duration of each offload migration, in microseconds.
    pub const OFFLOAD_DURATION_MICROS: &str = "aide_offload_duration_micros";
    /// Two-phase migrations aborted before COMMIT.
    pub const MIGRATIONS_ABORTED: &str = "aide_migrations_aborted_total";
    /// Objects reinstated into the client heap by migration rollback.
    pub const MIGRATION_ROLLBACK_OBJECTS: &str = "aide_migration_rollback_objects_total";
    /// Surrogate failovers handled.
    pub const FAILOVERS: &str = "aide_failovers_total";
    /// Wall-clock duration of each failover, in microseconds.
    pub const FAILOVER_DURATION_MICROS: &str = "aide_failover_duration_micros";

    /// Reads of a peer's object — a reference slot, an object's class —
    /// the remote-access adapter answered from what it had read before.
    pub const REMOTE_READS_FROM_MEMORY: &str = "aide_remote_reads_from_memory_total";
    /// Reads of a peer's object the adapter had to ask the peer for.
    pub const REMOTE_READS_ASKED: &str = "aide_remote_reads_asked_total";
    /// Invocations of a peer's object the remote-access adapter sent
    /// without waiting for them: their callees cannot call back.
    pub const REMOTE_INVOKES_DEFERRED: &str = "aide_remote_invokes_deferred_total";
    /// Invocations of a peer's object the adapter waited for.
    pub const REMOTE_INVOKES_WAITED: &str = "aide_remote_invokes_waited_total";
    /// Calls back to the peer, waited for, made while serving a deferred
    /// invocation — calls its admission said it could not make (a class
    /// lookup, which asks what never changes, is not one); 0 is right.
    pub const REMOTE_DEFERRED_CALLBACKS: &str = "aide_remote_deferred_invoke_callbacks_total";

    /// Sessions accepted by a surrogate daemon.
    pub const SURROGATE_SESSIONS: &str = "aide_surrogate_sessions_total";
    /// Surrogate sessions currently open.
    pub const SURROGATE_ACTIVE_SESSIONS: &str = "aide_surrogate_active_sessions";
    /// Requests served across all surrogate sessions.
    pub const SURROGATE_REQUESTS: &str = "aide_surrogate_requests_total";

    /// Logical sessions currently live across all sharded serving pools.
    pub const FLEET_LIVE_SESSIONS: &str = "aide_fleet_live_sessions";
    /// Sessions refused admission (answered `Busy`) by sharded pools.
    pub const FLEET_SESSIONS_REJECTED: &str = "aide_fleet_sessions_rejected_total";
    /// Migrations currently parked in store-and-forward relay queues.
    pub const FLEET_RELAY_QUEUE_DEPTH: &str = "aide_fleet_relay_queue_depth";
    /// Migrations queued for relay because the chosen surrogate was
    /// unreachable.
    pub const FLEET_RELAY_QUEUED: &str = "aide_fleet_relay_queued_total";
    /// Queued migrations delivered to their surrogate on reconnect.
    pub const FLEET_RELAY_RELAYED: &str = "aide_fleet_relay_relayed_total";
    /// Queued migrations dropped because their TTL lapsed before the
    /// surrogate came back.
    pub const FLEET_RELAY_EXPIRED: &str = "aide_fleet_relay_expired_total";

    /// Null-RPC probe round-trips measured by the registry, in
    /// microseconds.
    pub const REGISTRY_PROBE_RTT_MICROS: &str = "aide_registry_probe_rtt_micros";
    /// Surrogates evicted from the registry after consecutive probe
    /// failures.
    pub const REGISTRY_EVICTIONS: &str = "aide_registry_evictions_total";

    /// Frames deliberately dropped by a chaos transport.
    pub const CHAOS_DROPPED: &str = "aide_chaos_frames_dropped_total";
    /// Frames duplicated by a chaos transport.
    pub const CHAOS_DUPLICATED: &str = "aide_chaos_frames_duplicated_total";
    /// Frames whose payload a chaos transport corrupted or truncated.
    pub const CHAOS_CORRUPTED: &str = "aide_chaos_frames_corrupted_total";
    /// Frames delayed or reordered by a chaos transport.
    pub const CHAOS_DELAYED: &str = "aide_chaos_frames_delayed_total";
    /// Hard connection resets injected by a chaos transport.
    pub const CHAOS_RESETS: &str = "aide_chaos_resets_total";

    /// Divergences detected while replaying a recorded decision trace.
    pub const REPLAY_DIVERGENCES: &str = "aide_replay_divergences_total";
    /// Recorded trace inputs consumed by replays.
    pub const REPLAY_EVENTS_CONSUMED: &str = "aide_replay_events_consumed_total";
}

/// Bucket presets (upper bounds) for the fixed-bucket histograms.
pub mod buckets {
    /// Latency buckets in microseconds: 50 µs … 1 s.
    pub const LATENCY_MICROS: &[u64] = &[
        50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    ];
    /// Duration buckets in microseconds for long operations
    /// (migrations, failovers, GC pauses): 100 µs … 10 s.
    pub const DURATION_MICROS: &[u64] = &[
        100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000,
    ];
}
