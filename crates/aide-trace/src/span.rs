//! Span identity and the completed-span record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The portable part of a span: enough to parent a child span in another
/// process. This is what aide-rpc carries in every frame's header
/// (17 bytes: a presence flag plus two little-endian u64s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Identifies the whole causal tree (constant across processes).
    pub trace_id: u64,
    /// Identifies one span within the tree.
    pub span_id: u64,
}

/// A completed span as stored in the collector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's identity.
    pub span_id: u64,
    /// The parent span, if any (`None` marks a trace root).
    pub parent_id: Option<u64>,
    /// Operation name (see [`crate::names`]).
    pub name: String,
    /// Coarse category, used as the Chrome `cat` field.
    pub cat: &'static str,
    /// Start timestamp in microseconds — wall clock since process trace
    /// origin for live spans, virtual time for emulator-stamped spans.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
    /// Process lane for the exporter ("client", "surrogate", ...): spans
    /// from different platform roles land in different Perfetto tracks
    /// even when they share one OS process.
    pub track: String,
    /// Thread lane within the track.
    pub thread: u64,
    /// Free-form key/value annotations.
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// Looks up an annotation by key.
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl SpanContext {
    /// Mints a fresh root context (new trace id, new span id). Used by
    /// callers that build [`SpanRecord`]s by hand — the emulator stamps
    /// virtual-time spans this way via [`crate::record_raw`].
    pub fn fresh() -> Self {
        SpanContext {
            trace_id: next_trace_id(),
            span_id: next_span_id(),
        }
    }

    /// Mints a child context in the same trace.
    pub fn child(&self) -> Self {
        SpanContext {
            trace_id: self.trace_id,
            span_id: next_span_id(),
        }
    }
}

/// Monotonic id springs. Span and trace ids are salted with the OS
/// process id so two platform processes participating in one trace never
/// mint colliding span ids.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

fn salt() -> u64 {
    (std::process::id() as u64) << 40
}

/// Mints a fresh trace id.
pub(crate) fn next_trace_id() -> u64 {
    salt() | NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// Mints a fresh span id.
pub(crate) fn next_span_id() -> u64 {
    salt() | NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Wall-clock microseconds since the process's trace origin. All live
/// spans in one process share this origin, so Chrome renders them on one
/// coherent timeline.
pub(crate) fn now_micros() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_micros()).unwrap_or(u64::MAX)
}
