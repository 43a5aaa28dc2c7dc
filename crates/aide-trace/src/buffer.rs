//! The span collector: bounded per-thread buffers drained into one
//! process-global store.
//!
//! The hot path (a span guard dropping) pushes into a thread-local `Vec`
//! and only touches the global mutex once per [`FLUSH_BATCH`] spans — or
//! when the thread exits, via the thread-local's destructor, so worker
//! threads that are joined before export never strand spans. The global
//! store is bounded: overflow drops the newest spans (never blocks a
//! hot path) and accounts the loss in `aide_trace_spans_dropped_total`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::span::SpanRecord;

/// Spans buffered per thread before a flush to the global store.
const FLUSH_BATCH: usize = 32;

/// Default bound on the global store.
const DEFAULT_CAPACITY: usize = 1 << 16;

struct Collector {
    spans: Mutex<Vec<SpanRecord>>,
    capacity: AtomicUsize,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| Collector {
        spans: Mutex::new(Vec::new()),
        capacity: AtomicUsize::new(DEFAULT_CAPACITY),
        recorded: AtomicU64::new(0),
        dropped: AtomicU64::new(0),
    })
}

/// A thread-local holding pen whose destructor flushes, so spans on
/// short-lived threads (endpoint workers, daemon sessions) survive the
/// thread.
struct LocalBuf {
    spans: Vec<SpanRecord>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        flush_records(std::mem::take(&mut self.spans));
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const {
        RefCell::new(LocalBuf { spans: Vec::new() })
    };
}

fn flush_records(batch: Vec<SpanRecord>) {
    if batch.is_empty() {
        return;
    }
    let c = collector();
    let capacity = c.capacity.load(Ordering::Relaxed);
    let mut store = c.spans.lock().unwrap_or_else(|e| e.into_inner());
    let room = capacity.saturating_sub(store.len());
    let keep = batch.len().min(room);
    let dropped = batch.len() - keep;
    store.extend(batch.into_iter().take(keep));
    let len = store.len();
    drop(store);
    c.recorded.fetch_add(keep as u64, Ordering::Relaxed);
    let telemetry = aide_telemetry::global();
    telemetry
        .counter(aide_telemetry::names::TRACE_SPANS_RECORDED)
        .add(keep as u64);
    if dropped > 0 {
        c.dropped.fetch_add(dropped as u64, Ordering::Relaxed);
        telemetry
            .counter(aide_telemetry::names::TRACE_SPANS_DROPPED)
            .add(dropped as u64);
    }
    telemetry
        .gauge(aide_telemetry::names::TRACE_BUFFER_SPANS)
        .set(i64::try_from(len).unwrap_or(i64::MAX));
}

/// Accepts a completed span: from a dropping guard, or pre-built — the
/// emulator stamps spans at *virtual* time this way, so emulated runs
/// export the same trace shape as live TCP runs.
pub fn record_raw(span: SpanRecord) {
    LOCAL.with(|l| {
        let mut local = l.borrow_mut();
        local.spans.push(span);
        if local.spans.len() >= FLUSH_BATCH {
            flush_records(std::mem::take(&mut local.spans));
        }
    });
}

/// Flushes the calling thread's buffered spans to the global store. Call
/// before [`snapshot`]/[`drain`] on the same thread; other threads flush
/// when their batch fills or when they exit.
pub fn flush_thread() {
    LOCAL.with(|l| flush_records(std::mem::take(&mut l.borrow_mut().spans)));
}

/// Flushes the calling thread, then removes and returns every collected
/// span (oldest first).
pub fn drain() -> Vec<SpanRecord> {
    flush_thread();
    let c = collector();
    let spans = std::mem::take(&mut *c.spans.lock().unwrap_or_else(|e| e.into_inner()));
    aide_telemetry::global()
        .gauge(aide_telemetry::names::TRACE_BUFFER_SPANS)
        .set(0);
    spans
}

/// Flushes the calling thread, then returns a copy of the collected
/// spans without clearing them (for tests that must not steal spans from
/// concurrent scenarios).
pub fn snapshot() -> Vec<SpanRecord> {
    flush_thread();
    collector()
        .spans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Drops every collected span (the counters are unaffected).
pub fn clear() {
    drain();
}

/// Rebounds the global store. Spans beyond the new capacity are dropped
/// on the next flush, not retroactively.
pub fn set_capacity(capacity: usize) {
    collector()
        .capacity
        .store(capacity.max(1), Ordering::Relaxed);
}

/// Spans accepted into the global store over the process lifetime.
pub fn recorded_total() -> u64 {
    collector().recorded.load(Ordering::Relaxed)
}

/// Spans dropped on overflow over the process lifetime.
pub fn dropped_total() -> u64 {
    collector().dropped.load(Ordering::Relaxed)
}
