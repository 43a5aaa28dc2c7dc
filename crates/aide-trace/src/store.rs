//! The span store: what keeps the spans of a trace somebody opened.
//!
//! A [`SpanStore`] is opened by whoever will read the spans — a test, an
//! example, a caller — and puts the opening thread's lane on it; every
//! thread that lane is handed to (see [`crate::current_lane`]) records
//! into it too. A closing span goes straight into its store, under the
//! store's lock. The store is bounded at [`CAPACITY`] spans: beyond that it
//! drops, never blocks, and counts what it dropped ([`SpanStore::dropped`]).
//! Nothing else keeps a span. A lane whose store was dropped, or that never
//! had one, records nothing.
//!
//! The store holds spans as their guards left them ([`LiveSpan`]: no owned
//! strings, nothing formatted); [`SpanStore::drain`] renders them into
//! [`SpanRecord`]s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::span::{LiveSpan, SpanRecord};

/// The most spans one store keeps.
pub const CAPACITY: usize = 1 << 16;

/// A stored span: compact as its guard left it, or already rendered by
/// whoever built it by hand ([`record_raw`]).
enum Stored {
    Live(LiveSpan),
    Rendered(SpanRecord),
}

impl Stored {
    fn render(self) -> SpanRecord {
        match self {
            Stored::Live(span) => span.render(),
            Stored::Rendered(record) => record,
        }
    }
}

/// The shared part of a [`SpanStore`]; lanes hold it weakly, open spans
/// strongly.
pub(crate) struct Store {
    /// Live spans' timestamps count from here.
    origin: Instant,
    spans: Mutex<Vec<Stored>>,
    dropped: AtomicU64,
}

impl Store {
    /// Microseconds since the store was opened.
    pub(crate) fn now_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Stored) {
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if spans.len() < CAPACITY {
            spans.push(span);
        } else {
            drop(spans);
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Keeps the span of a closing guard.
    pub(crate) fn keep(&self, span: LiveSpan) {
        self.push(Stored::Live(span));
    }
}

/// The spans of one opened trace: every span a thread on its lane closes,
/// until the store is dropped.
pub struct SpanStore {
    store: Arc<Store>,
}

impl SpanStore {
    /// Opens an empty store and puts the calling thread's lane on it, under
    /// the thread's track label. Threads the lane is handed to from now on
    /// record into it as well.
    pub fn open() -> SpanStore {
        let store = Arc::new(Store {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        crate::context::enter_store(&store);
        SpanStore { store }
    }

    /// Removes and returns every span stored so far, oldest first,
    /// rendered. A span still open when this runs is stored when it closes.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let spans = std::mem::take(
            &mut *self
                .store
                .spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        spans.into_iter().map(Stored::render).collect()
    }

    /// Spans this store had no room for.
    pub fn dropped(&self) -> u64 {
        self.store.dropped.load(Ordering::Relaxed)
    }
}

/// Stores a completed, pre-built span in the calling thread's store, if
/// its lane has one — the emulator stamps spans at *virtual* time this
/// way, so emulated runs export the same trace shape as live TCP runs.
pub fn record_raw(span: SpanRecord) {
    if let Some(store) = crate::context::lane_store() {
        store.push(Stored::Rendered(span));
    }
}
