//! Per-thread span context: the ambient stack, RAII guards, and track
//! labels.

use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock};

use crate::span::{next_span_id, next_trace_id, now_micros, ArgValue, LiveSpan, SpanContext};

thread_local! {
    /// The ambient span stack: the top is the parent of any span (or
    /// recorder event) created on this thread.
    static STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
    /// This thread's track label override, when set. Shared, so a span
    /// takes its label by bumping a reference count.
    static TRACK: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
    /// A small per-thread serial for the exporter's `tid` lane.
    static THREAD_LANE: u64 = next_thread_lane();
}

fn next_thread_lane() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn process_label_cell() -> &'static Mutex<Arc<str>> {
    static LABEL: OnceLock<Mutex<Arc<str>>> = OnceLock::new();
    LABEL.get_or_init(|| Mutex::new(Arc::from("aide")))
}

/// Sets the default track label for every thread of this process that
/// has no per-thread override ("client", "surrogate", ...).
pub fn set_process_label(label: &str) {
    *process_label_cell()
        .lock()
        .unwrap_or_else(|e| e.into_inner()) = Arc::from(label);
}

/// Overrides the track label for the calling thread. Threads a component
/// spawns should inherit the spawner's track (see [`current_track`]).
/// Setting the label a thread already carries changes and allocates
/// nothing, so a thread that serves on behalf of several components may set
/// it before every span.
pub fn set_thread_track(track: &str) {
    TRACK.with(|t| {
        let mut current = t.borrow_mut();
        if current.as_deref() != Some(track) {
            *current = Some(Arc::from(track));
        }
    });
}

/// The calling thread's effective track label: its override if set,
/// otherwise the process label.
pub fn current_track() -> String {
    track_label().to_string()
}

fn track_label() -> Arc<str> {
    TRACK.with(|t| t.borrow().clone()).unwrap_or_else(|| {
        process_label_cell()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    })
}

/// The calling thread's innermost active span context, if any. This is
/// what aide-rpc stamps into outgoing frames and what the recorder
/// annotator attaches to flight-recorder events.
pub fn current_context() -> Option<SpanContext> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An active span. Created by [`span`] or [`child_of`]; the span is
/// completed and handed to the collector when the guard drops. While the
/// guard lives, its context is the thread's ambient parent.
///
/// Opening, annotating and closing a span costs two clock reads and one
/// push into the thread's batch: names and keys are `&'static`, values
/// stay [`ArgValue`]s, and nothing is formatted or allocated until the
/// collector is read.
#[must_use = "a span measures the scope of its guard; dropping it immediately records an empty span"]
pub struct SpanGuard {
    ctx: SpanContext,
    /// `Some` until `drop` moves the record into the collector.
    record: Option<LiveSpan>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.record.as_ref().map(|r| r.name))
            .field("trace_id", &self.ctx.trace_id)
            .field("span_id", &self.ctx.span_id)
            .finish()
    }
}

impl SpanGuard {
    /// This span's portable context.
    pub fn context(&self) -> SpanContext {
        self.ctx
    }

    /// Attaches a key/value annotation to the span.
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(record) = self.record.as_mut() {
            record.push_arg(key, value.into());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Pop our own frame. RAII guarantees LIFO order per thread.
            if let Some(top) = stack.last() {
                if top.span_id == self.ctx.span_id {
                    stack.pop();
                }
            }
        });
        if let Some(mut record) = self.record.take() {
            record.duration_micros = now_micros().saturating_sub(record.start_micros);
            crate::buffer::collect(record);
        }
    }
}

fn start(name: &'static str, cat: &'static str, parent: Option<SpanContext>) -> SpanGuard {
    let (trace_id, parent_id) = match parent {
        Some(p) => (p.trace_id, Some(p.span_id)),
        None => (next_trace_id(), None),
    };
    let ctx = SpanContext {
        trace_id,
        span_id: next_span_id(),
    };
    STACK.with(|s| s.borrow_mut().push(ctx));
    SpanGuard {
        ctx,
        record: Some(LiveSpan::open(
            ctx,
            parent_id,
            name,
            cat,
            now_micros(),
            track_label(),
            THREAD_LANE.with(|l| *l),
        )),
    }
}

/// Opens a span parented to the thread's ambient span (a new trace root
/// when there is none).
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    start(name, cat, current_context())
}

/// Opens a span under an explicit parent — the serving side of an RPC
/// adopts the caller's wire context this way. `None` falls back to the
/// ambient parent (the frame carried no context).
pub fn child_of(parent: Option<SpanContext>, name: &'static str, cat: &'static str) -> SpanGuard {
    start(name, cat, parent.or_else(current_context))
}
