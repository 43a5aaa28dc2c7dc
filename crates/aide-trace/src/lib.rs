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
//!   automatically parents the RPC call spans the engine performs. A live
//!   span is a fixed-size plain record — `&'static` name, category and
//!   annotation keys, a shared track label, annotation values kept as
//!   [`ArgValue`]s — so opening, annotating and closing one is two clock
//!   reads and one push: no allocation, no formatting, no system call.
//!   Every remote call opens three.
//! * a bounded, lock-cheap collector ([`drain`] / [`snapshot`]): spans
//!   buffer per-thread and flush to a process-global store in batches;
//!   overflow drops (never blocks) and is accounted in
//!   `aide_trace_spans_dropped_total`. Spans are rendered into
//!   [`SpanRecord`]s — owned strings, what the exporter and the analyzer
//!   below read — only when the collector is read.
//! * [`chrome_trace`] — a Chrome trace-event JSON exporter; the output
//!   loads directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//! * [`critical_path`] — a per-migration latency attribution pass over a
//!   span forest: time split into serialize / wire / retry+backoff /
//!   remote instantiate / commit (printed by the `trace_migration`
//!   example).
//!
//! The crate is std-only (atomics, thread-locals, hand-rolled JSON); its
//! single dependency is aide-telemetry, so span-buffer accounting shows
//! up in the same Prometheus/STATS scrape as every other platform metric.
//!
//! # Examples
//!
//! ```
//! let parent = {
//!     let mut guard = aide_trace::span(aide_trace::names::MIGRATION, "core");
//!     guard.arg("bytes", 4096);
//!     let _child = aide_trace::span(aide_trace::names::RPC_CALL, "rpc");
//!     guard.context()
//! };
//! let spans = aide_trace::snapshot();
//! let call = spans.iter().find(|s| s.name == "rpc.call").unwrap();
//! assert_eq!(call.trace_id, parent.trace_id);
//! assert_eq!(call.parent_id, Some(parent.span_id));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod context;
mod critical;
mod export;
mod span;

pub use buffer::{
    clear, drain, dropped_total, flush_thread, record_raw, recorded_total, set_capacity, snapshot,
};
pub use context::{
    child_of, current_context, current_track, set_process_label, set_thread_track, span, SpanGuard,
};
pub use critical::{critical_path, MigrationBreakdown};
pub use export::chrome_trace;
pub use span::{ArgValue, SpanContext, SpanRecord};

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

/// Wires the flight recorder to this crate: recorder events get stamped
/// with the recording thread's active `(trace_id, span_id)`, so
/// `PlatformReport::timeline()` rows link back to spans. Idempotent;
/// call once per process (the platform does this on construction).
pub fn install_recorder_annotator() {
    aide_telemetry::set_trace_annotator(annotate);
}

fn annotate() -> Option<(u64, u64)> {
    current_context().map(|ctx| (ctx.trace_id, ctx.span_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The collector is process-global; tests that drain or count must
    /// not interleave. Serialize them on one mutex.
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn spans_nest_on_the_thread_stack() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let (root_ctx, child_ctx) = {
            let root = span("outer", "test");
            let root_ctx = root.context();
            let child = span("inner", "test");
            let child_ctx = child.context();
            (root_ctx, child_ctx)
        };
        assert_eq!(root_ctx.trace_id, child_ctx.trace_id);
        assert_ne!(root_ctx.span_id, child_ctx.span_id);
        let spans = snapshot();
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent_id, Some(root_ctx.span_id));
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        assert_eq!(outer.parent_id, None);
    }

    #[test]
    fn child_of_adopts_a_remote_parent() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let remote = SpanContext {
            trace_id: 0xABCD,
            span_id: 0x1234,
        };
        let ctx = {
            let serve = child_of(Some(remote), names::RPC_SERVE, "rpc");
            serve.context()
        };
        assert_eq!(ctx.trace_id, 0xABCD);
        let spans = snapshot();
        let serve = spans
            .iter()
            .find(|s| s.span_id == ctx.span_id)
            .expect("serve span recorded");
        assert_eq!(serve.parent_id, Some(0x1234));
        assert_eq!(serve.trace_id, 0xABCD);
    }

    #[test]
    fn overflow_drops_and_accounts() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        drain(); // start from an empty store
        set_capacity(4);
        let dropped_before = dropped_total();
        for i in 0..16 {
            let mut g = span("burst", "test");
            g.arg("i", i);
        }
        flush_thread();
        assert!(snapshot().len() <= 4);
        assert!(dropped_total() > dropped_before, "overflow was counted");
        set_capacity(1 << 16);
        drain();
    }

    #[test]
    fn chrome_export_is_loadable_json_shape() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut g = span("export \"quoted\"", "test");
            g.arg("k", "v\\w");
        }
        let spans = snapshot();
        let json = chrome_trace(&spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("export \\\"quoted\\\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn recorded_counter_reaches_the_telemetry_registry() {
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _g = span("counted", "test");
        }
        flush_thread();
        let snap = aide_telemetry::global().snapshot();
        assert!(snap.counter("aide_trace_spans_recorded_total") >= 1);
    }
}
