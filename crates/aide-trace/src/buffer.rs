//! The span collector: bounded per-thread buffers drained into one
//! process-global store.
//!
//! The hot path (a span guard dropping) pushes into a thread-local `Vec`
//! and only touches the global mutex once per [`FLUSH_BATCH`] spans — or
//! when the thread exits, via the thread-local's destructor, so worker
//! threads that are joined before export never strand spans. The global
//! store is bounded: overflow drops the newest spans (never blocks a
//! hot path) and accounts the loss in `aide_trace_spans_dropped_total`.
//!
//! Batch and store hold spans as their guards left them
//! ([`LiveSpan`]: no owned strings, nothing formatted); [`snapshot`] and
//! [`drain`] render them into [`SpanRecord`]s.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::span::{LiveSpan, SpanRecord};

/// Spans buffered per thread before a flush to the global store.
const FLUSH_BATCH: usize = 32;

/// Default bound on the global store.
const DEFAULT_CAPACITY: usize = 1 << 16;

/// A collected span: compact as its guard left it, or already rendered by
/// whoever built it by hand ([`record_raw`]).
enum Collected {
    Live(LiveSpan),
    Rendered(SpanRecord),
}

impl Collected {
    fn render(&self) -> SpanRecord {
        match self {
            Collected::Live(span) => span.render(),
            Collected::Rendered(record) => record.clone(),
        }
    }
}

struct Collector {
    spans: Mutex<Vec<Collected>>,
    capacity: AtomicUsize,
    recorded: AtomicU64,
    dropped: AtomicU64,
    /// Telemetry handles, resolved by name once.
    recorded_total: Arc<aide_telemetry::Counter>,
    dropped_total: Arc<aide_telemetry::Counter>,
    buffer_spans: Arc<aide_telemetry::Gauge>,
}

fn collector() -> &'static Collector {
    static COLLECTOR: OnceLock<Collector> = OnceLock::new();
    COLLECTOR.get_or_init(|| {
        let telemetry = aide_telemetry::global();
        Collector {
            spans: Mutex::new(Vec::new()),
            capacity: AtomicUsize::new(DEFAULT_CAPACITY),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            recorded_total: telemetry.counter(aide_telemetry::names::TRACE_SPANS_RECORDED),
            dropped_total: telemetry.counter(aide_telemetry::names::TRACE_SPANS_DROPPED),
            buffer_spans: telemetry.gauge(aide_telemetry::names::TRACE_BUFFER_SPANS),
        }
    })
}

/// A thread-local holding pen whose destructor flushes, so spans on
/// short-lived threads (endpoint workers, daemon sessions) survive the
/// thread.
struct LocalBuf {
    spans: Vec<Collected>,
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        flush_records(&mut self.spans);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const {
        RefCell::new(LocalBuf { spans: Vec::new() })
    };
}

/// Moves `batch` into the global store — as much of it as there is room
/// for — and leaves it empty with its allocation intact for the next batch.
fn flush_records(batch: &mut Vec<Collected>) {
    if batch.is_empty() {
        return;
    }
    let c = collector();
    let capacity = c.capacity.load(Ordering::Relaxed);
    let mut store = c.spans.lock().unwrap_or_else(|e| e.into_inner());
    let room = capacity.saturating_sub(store.len());
    let keep = batch.len().min(room);
    let dropped = batch.len() - keep;
    store.extend(batch.drain(..keep));
    let len = store.len();
    drop(store);
    batch.clear();
    c.recorded.fetch_add(keep as u64, Ordering::Relaxed);
    c.recorded_total.add(keep as u64);
    if dropped > 0 {
        c.dropped.fetch_add(dropped as u64, Ordering::Relaxed);
        c.dropped_total.add(dropped as u64);
    }
    c.buffer_spans.set(i64::try_from(len).unwrap_or(i64::MAX));
}

fn push(span: Collected) {
    LOCAL.with(|l| {
        let local = &mut l.borrow_mut().spans;
        local.push(span);
        if local.len() >= FLUSH_BATCH {
            flush_records(local);
        }
    });
}

/// Accepts the span of a dropping guard.
pub(crate) fn collect(span: LiveSpan) {
    push(Collected::Live(span));
}

/// Accepts a completed, pre-built span — the emulator stamps spans at
/// *virtual* time this way, so emulated runs export the same trace shape
/// as live TCP runs.
pub fn record_raw(span: SpanRecord) {
    push(Collected::Rendered(span));
}

/// Flushes the calling thread's buffered spans to the global store. Call
/// before [`snapshot`]/[`drain`] on the same thread; other threads flush
/// when their batch fills or when they exit.
pub fn flush_thread() {
    LOCAL.with(|l| flush_records(&mut l.borrow_mut().spans));
}

/// Flushes the calling thread, then empties the global store.
fn take_store() -> Vec<Collected> {
    flush_thread();
    let c = collector();
    let spans = std::mem::take(&mut *c.spans.lock().unwrap_or_else(|e| e.into_inner()));
    c.buffer_spans.set(0);
    spans
}

/// Flushes the calling thread, then removes and returns every collected
/// span (oldest first), rendered.
pub fn drain() -> Vec<SpanRecord> {
    take_store().iter().map(Collected::render).collect()
}

/// Flushes the calling thread, then returns a rendered copy of the
/// collected spans without clearing them (for tests that must not steal
/// spans from concurrent scenarios).
pub fn snapshot() -> Vec<SpanRecord> {
    flush_thread();
    collector()
        .spans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(Collected::render)
        .collect()
}

/// Drops every collected span (the counters are unaffected).
pub fn clear() {
    take_store();
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
