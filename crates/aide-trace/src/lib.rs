//! Causal distributed tracing for the AIDE platform.
//!
//! Metrics (aide-telemetry) aggregate and the flight recorder orders
//! events on one node; neither reconstructs the causal chain
//! `TriggerFired → partition → MigratePrepare → remote instantiate →
//! MigrateCommit` once it crosses the RPC seam. This crate supplies the
//! missing layer:
//!
//! * [`SpanContext`] — an explicit `(trace_id, span_id)` pair small enough
//!   to ride in every RPC frame (aide-rpc stamps it into the frame
//!   header), so the serving side can parent its dispatch span under the
//!   caller's span even across processes.
//! * [`span`] / [`child_of`] — RAII span guards over a per-thread context
//!   stack. Guards nest: a migration span opened in the offload engine
//!   automatically parents the RPC call spans the engine performs. The
//!   stack is kept whether or not anybody stores spans, so wire
//!   propagation and the flight recorder's span links never depend on it.
//! * [`SpanStore`] — a trace somebody opened. A thread records on its
//!   [`Lane`]: a track label and, once a store is opened on it or the lane
//!   is handed over from a thread that has one, that store. Only then is a
//!   span kept: a fixed-size plain record — `&'static` name, category and
//!   annotation keys, a shared track label, annotation values kept as
//!   [`ArgValue`]s — so opening, annotating and closing one is two clock
//!   reads and one push, with no allocation, no formatting and no system
//!   call. Without a store a span reads no clock and stores nothing. A
//!   store is bounded and counts what it drops; spans are rendered into
//!   [`SpanRecord`]s — owned strings, what the exporter and the analyzer
//!   below read — only by [`SpanStore::drain`].
//! * [`chrome_trace`] — a Chrome trace-event JSON exporter; the output
//!   loads directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//! * [`critical_path`] — a per-migration latency attribution pass over a
//!   span forest: time split into serialize / wire / retry+backoff /
//!   remote instantiate / commit (printed by the `trace_migration`
//!   example).
//!
//! The crate is std-only (atomics, thread-locals, hand-rolled JSON) and
//! depends on no other crate. Its only process-wide state is each
//! thread's context stack and lane, the thread serial and the id springs.
//!
//! # Examples
//!
//! ```
//! let store = aide_trace::SpanStore::open();
//! let parent = {
//!     let mut guard = aide_trace::span(aide_trace::names::MIGRATION, "core");
//!     guard.arg("bytes", 4096);
//!     let _child = aide_trace::span(aide_trace::names::RPC_CALL, "rpc");
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
mod span;
mod store;

pub use context::{
    child_of, current_context, current_lane, set_thread_lane, span, Lane, SpanGuard,
};
pub use critical::{critical_path, MigrationBreakdown};
pub use export::chrome_trace;
pub use span::{ArgValue, SpanContext, SpanRecord};
pub use store::{record_raw, SpanStore, CAPACITY};

/// Well-known span names, shared by the instrumentation sites and the
/// critical-path analyzer so attribution never drifts out of sync with
/// emission.
pub mod names {
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
            let serve = child_of(Some(remote), names::RPC_SERVE, "rpc");
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
