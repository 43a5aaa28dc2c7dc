//! Per-thread span context: the ambient stack, RAII guards, and the
//! lane a thread records on.

use std::cell::RefCell;
use std::sync::{Arc, Weak};

use crate::span::{next_span_id, next_trace_id, ArgValue, LiveSpan, SpanContext};
use crate::store::Store;

/// Where a thread's spans go: the track label the exporter files them
/// under ("client", "surrogate", ...) and the store of the trace that was
/// opened, if one was. A component hands the lane of the thread that
/// starts it to every thread it spawns (see [`current_lane`]).
///
/// The lane holds its store weakly: once whoever opened the store drops
/// it, the lane records nothing.
#[derive(Clone)]
pub struct Lane {
    /// Shared, so a span takes its label by bumping a reference count.
    track: Arc<str>,
    store: Weak<Store>,
}

impl Lane {
    /// This lane's store, with its spans labelled `track`.
    pub fn with_track(&self, track: &str) -> Lane {
        Lane {
            track: Arc::from(track),
            store: self.store.clone(),
        }
    }

    fn same_as(&self, other: &Lane) -> bool {
        Arc::ptr_eq(&self.track, &other.track) && Weak::ptr_eq(&self.store, &other.store)
    }
}

thread_local! {
    /// The ambient span stack: the top is the parent of any span (or
    /// recorder event) created on this thread.
    static STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
    /// This thread's lane: no store until one is opened or handed over.
    static LANE: RefCell<Lane> = RefCell::new(Lane {
        track: Arc::from("aide"),
        store: Weak::new(),
    });
    /// A small per-thread serial: the exporter's `tid` within a track.
    static THREAD_SERIAL: u64 = next_thread_serial();
}

fn next_thread_serial() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The calling thread's lane, to hand to the threads a component spawns.
pub fn current_lane() -> Lane {
    LANE.with(|lane| lane.borrow().clone())
}

/// Puts the calling thread on `lane`. Setting the lane a thread is already
/// on changes and allocates nothing, so a thread that serves on behalf of
/// several components may set it before every span.
pub fn set_thread_lane(lane: &Lane) {
    LANE.with(|current| {
        let mut current = current.borrow_mut();
        if !current.same_as(lane) {
            *current = lane.clone();
        }
    });
}

/// Puts the calling thread's lane, under its track label, on `store`.
pub(crate) fn enter_store(store: &Arc<Store>) {
    LANE.with(|lane| lane.borrow_mut().store = Arc::downgrade(store));
}

/// The store the calling thread's lane records into, if it is open.
pub(crate) fn lane_store() -> Option<Arc<Store>> {
    LANE.with(|lane| lane.borrow().store.upgrade())
}

/// The calling thread's innermost active span context, if any, whether or
/// not its lane has a store. This is what aide-rpc stamps into outgoing
/// frames and what the flight recorder attaches to its events.
pub fn current_context() -> Option<SpanContext> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An active span. Created by [`span`] or [`child_of`]. While the guard
/// lives, its context is the thread's ambient parent; when it drops, the
/// span is stored if the thread's lane had an open store when it opened.
///
/// On a lane with a store, opening, annotating and closing a span costs
/// two clock reads and one push into the store: names and keys are
/// `&'static`, values stay [`ArgValue`]s, and nothing is formatted or
/// allocated until the store is drained. On a lane without one, the span
/// pushes and pops its context and does nothing else.
#[must_use = "a span measures the scope of its guard; dropping it immediately records an empty span"]
pub struct SpanGuard {
    ctx: SpanContext,
    /// The span and the store it goes to, if one was open; `None` once
    /// `drop` has stored it.
    record: Option<(LiveSpan, Arc<Store>)>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("name", &self.record.as_ref().map(|(r, _)| r.name))
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
        if let Some((record, _)) = self.record.as_mut() {
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
        if let Some((mut record, store)) = self.record.take() {
            record.duration_micros = store.now_micros().saturating_sub(record.start_micros);
            store.keep(record);
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
    let record = LANE.with(|lane| {
        let lane = lane.borrow();
        let store = lane.store.upgrade()?;
        let span = LiveSpan::open(
            ctx,
            parent_id,
            name,
            cat,
            store.now_micros(),
            lane.track.clone(),
            THREAD_SERIAL.with(|l| *l),
        );
        Some((span, store))
    });
    SpanGuard { ctx, record }
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
