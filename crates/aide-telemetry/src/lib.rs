//! Platform-wide observability for the AIDE reproduction: causal spans,
//! the decision flight recorder, and the one process-wide counter.
//!
//! The paper's platform is driven entirely by measurement: the monitor
//! feeds a weighted execution graph to the partitioner and offloading
//! happens "only if it is beneficial". This crate makes the platform
//! *itself* measurable, with three pieces:
//!
//! - **spans**, which follow one causal chain — `TriggerFired →
//!   partition → MigratePrepare → remote instantiate → MigrateCommit` —
//!   across the RPC seam:
//!   - [`SpanContext`], an explicit `(trace_id, span_id)` pair small
//!     enough to ride in every RPC frame (aide-rpc stamps it into the
//!     frame header), so the serving side can parent its dispatch span
//!     under the caller's span even across processes;
//!   - [`span`] / [`child_of`], RAII guards over a per-thread context
//!     stack. Guards nest: a migration span opened in the offload engine
//!     parents the RPC call spans the engine performs. The stack is kept
//!     whether or not anybody stores spans, so wire propagation and the
//!     recorder's span links never depend on a store;
//!   - [`SpanStore`], a trace somebody opened. A thread records on its
//!     [`Lane`]: a track label and, once a store is opened on it or the
//!     lane is handed over from a thread that has one, that store. Only
//!     then is a span kept, as a fixed-size plain record (`&'static` name,
//!     category and annotation keys, a shared track label, values kept as
//!     [`ArgValue`]s), so opening, annotating and closing one is two clock
//!     reads and one push, with no allocation, no formatting and no system
//!     call. Without a store a span reads no clock and stores nothing. A
//!     store is bounded and counts what it drops; [`SpanStore::drain`]
//!     renders its spans into [`SpanRecord`]s;
//!   - [`chrome_trace`], a Chrome trace-event exporter whose output loads
//!     in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`, and
//!     [`critical_path`], which splits each migration's time into
//!     serialize / wire / retry+backoff / remote instantiate / commit.
//! - a bounded ring-buffer **flight recorder** ([`FlightRecorder`]) of
//!   structured [`PlatformEvent`]s, so a report can explain each offload
//!   decision (trigger, candidate scores, winner, migrations, failures)
//!   after the fact. Each event links to the span active on the recording
//!   thread.
//! - **counters**: a process-wide registry ([`Telemetry`]) that holds one
//!   name, a fault detector read across VMs nobody holds (see [`names`]),
//!   rendered by [`prometheus_text`] (a daemon's `STATS` answer: its
//!   pool's [`FleetSnapshot`] after it). Every other number belongs to the
//!   object that counts it: an endpoint's requests, a carrier's frames, a
//!   pool's workers, an export table's refused releases, a registry's
//!   evictions, a relay queue's expiries. Each is a plain atomic field,
//!   read through that object's accessor or `stats()`.
//!
//! It depends only on `serde`, `serde_json` and `parking_lot`, so every
//! other crate in the workspace can record into it without dependency
//! cycles. Its process-wide state is the registry, each thread's context
//! stack and lane, the thread serial and the span id springs.
//!
//! # Examples
//!
//! ```
//! use aide_telemetry::{span, span_names, SpanStore};
//!
//! let store = SpanStore::open();
//! let parent = {
//!     let mut guard = span(span_names::MIGRATION, "core");
//!     guard.arg("bytes", 4096);
//!     let _child = span(span_names::RPC_CALL, "rpc");
//!     guard.context()
//! };
//! let spans = store.drain();
//! let call = spans.iter().find(|s| s.name == "rpc.call").unwrap();
//! assert_eq!(call.trace_id, parent.trace_id);
//! assert_eq!(call.parent_id, Some(parent.span_id));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod critical;
mod export;
mod fleet;
mod metrics;
mod recorder;
mod span;
mod store;

pub use context::{
    child_of, current_context, current_lane, set_thread_lane, span, Lane, SpanGuard,
};
pub use critical::{critical_path, MigrationBreakdown};
pub use export::{chrome_trace, prometheus_text};
pub use fleet::{FleetSnapshot, SessionLease};
pub use metrics::{Counter, Telemetry, TelemetrySnapshot};
pub use recorder::{render_timeline, FlightRecorder, PlatformEvent, TimedEvent};
pub use span::{ArgValue, SpanContext, SpanRecord};
pub use store::{record_raw, SpanStore, CAPACITY};

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

/// Well-known span names, shared by the instrumentation sites and the
/// critical-path analyzer so attribution never drifts out of sync with
/// emission.
pub mod span_names {
    /// One `Endpoint::call` (single-attempt) on the client side.
    pub const RPC_CALL: &str = "rpc.call";
    /// The whole retry loop of one `Endpoint::call_with_retry`.
    pub const RPC_RETRY: &str = "rpc.retry";
    /// One attempt inside a retry loop (args: `attempt`, `outcome`,
    /// `backoff_micros`).
    pub const RPC_ATTEMPT: &str = "rpc.attempt";
    /// The backoff sleep between two attempts.
    pub const RPC_BACKOFF: &str = "rpc.backoff";
    /// The serving side executing one request (child of the caller's
    /// attempt span via the wire context).
    pub const RPC_SERVE: &str = "rpc.serve";
    /// The serving side answering a retransmission from the at-most-once
    /// cache instead of re-executing (child of the originating trace).
    pub const RPC_DEDUP: &str = "rpc.dedup";
    /// One pass of the offload controller's decision pipeline.
    pub const DECISION: &str = "decision";
    /// Drain of monitor deltas plus the trigger sample feeding a decision.
    pub const TRIGGER_SAMPLE: &str = "trigger.sample";
    /// One incremental-partitioner epoch (skip or full evaluation).
    pub const PARTITION_EPOCH: &str = "partition.epoch";
    /// One two-phase class migration, end to end.
    pub const MIGRATION: &str = "migration";
    /// Victim gathering under the VM lock (the serialize phase).
    pub const MIGRATE_SERIALIZE: &str = "migrate.serialize";
    /// The PREPARE batches of a migration (client side, RPC inclusive).
    pub const MIGRATE_PREPARE: &str = "migrate.prepare";
    /// The COMMIT of a migration (client side, RPC inclusive).
    pub const MIGRATE_COMMIT: &str = "migrate.commit";
    /// Rollback after a failed migration (abort + shadow reinstatement).
    pub const MIGRATE_ROLLBACK: &str = "migrate.rollback";
    /// One garbage-collection pause.
    pub const VM_GC: &str = "vm.gc";
    /// Recovery from a dead surrogate: shadow reinstatement, pin release,
    /// and lease retirement.
    pub const FAILOVER: &str = "failover";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_on_the_thread_stack() {
        let store = SpanStore::open();
        let (root_ctx, child_ctx) = {
            let root = span("outer", "test");
            let root_ctx = root.context();
            let child = span("inner", "test");
            let child_ctx = child.context();
            (root_ctx, child_ctx)
        };
        assert_eq!(root_ctx.trace_id, child_ctx.trace_id);
        assert_ne!(root_ctx.span_id, child_ctx.span_id);
        let spans = store.drain();
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent_id, Some(root_ctx.span_id));
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(outer.parent_id, None);
    }

    #[test]
    fn child_of_adopts_a_remote_parent() {
        let store = SpanStore::open();
        let remote = SpanContext {
            trace_id: 0xABCD,
            span_id: 0x1234,
        };
        let ctx = {
            let serve = child_of(Some(remote), span_names::RPC_SERVE, "rpc");
            serve.context()
        };
        assert_eq!(ctx.trace_id, 0xABCD);
        let spans = store.drain();
        let serve = spans
            .iter()
            .find(|s| s.span_id == ctx.span_id)
            .expect("serve span recorded");
        assert_eq!(serve.parent_id, Some(0x1234));
        assert_eq!(serve.trace_id, 0xABCD);
    }

    #[test]
    fn overflow_drops_and_accounts() {
        let store = SpanStore::open();
        for i in 0..CAPACITY + 16 {
            let mut g = span("burst", "test");
            g.arg("i", i);
        }
        assert_eq!(store.drain().len(), CAPACITY);
        assert_eq!(store.dropped(), 16, "overflow was counted");
        {
            let _g = span("room again", "test");
        }
        assert_eq!(store.drain().len(), 1, "a drained store has room");
    }

    #[test]
    fn chrome_export_is_loadable_json_shape() {
        let store = SpanStore::open();
        {
            let mut g = span("export \"quoted\"", "test");
            g.arg("k", "v\\w");
        }
        let spans = store.drain();
        let json = chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("export \\\"quoted\\\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn a_lane_records_into_its_store_only_while_the_store_is_open() {
        let first = SpanStore::open();
        let lane = current_lane().with_track("worker");
        let handed = std::thread::spawn(move || {
            set_thread_lane(&lane);
            let _g = span("handed over", "test");
        });
        handed.join().unwrap();
        let second = SpanStore::open();
        {
            let _g = span("after reopening", "test");
        }
        let first_spans = first.drain();
        assert_eq!(first_spans.len(), 1, "{first_spans:?}");
        assert_eq!(first_spans[0].track, "worker");
        assert_eq!(second.drain()[0].name, "after reopening");
        drop(second);
        {
            let _g = span("closed", "test");
        }
        assert!(first.drain().is_empty(), "the lane left the first store");
    }
}
