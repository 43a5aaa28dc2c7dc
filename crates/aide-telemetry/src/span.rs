//! Span identity, the compact record a live span is collected as, and the
//! rendered record the public API hands out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

/// The portable part of a span: enough to parent a child span in another
/// process. This is what aide-rpc carries in every frame's header
/// (17 bytes: a presence flag plus two little-endian u64s), and what a
/// flight-recorder event links to ([`crate::TimedEvent::span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpanContext {
    /// Identifies the whole causal tree (constant across processes).
    pub trace_id: u64,
    /// Identifies one span within the tree.
    pub span_id: u64,
}

/// A completed span as [`crate::SpanStore::drain`] returns it (and as
/// [`crate::record_raw`] accepts one built by hand).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's identity.
    pub span_id: u64,
    /// The parent span, if any (`None` marks a trace root).
    pub parent_id: Option<u64>,
    /// Operation name (see [`crate::span_names`]).
    pub name: String,
    /// Coarse category, used as the Chrome `cat` field.
    pub cat: &'static str,
    /// Start timestamp in microseconds — wall clock since the store was
    /// opened for live spans, virtual time for emulator-stamped spans.
    pub start_micros: u64,
    /// Span duration in microseconds.
    pub duration_micros: u64,
    /// Process lane for the exporter ("client", "surrogate", ...): spans
    /// from different platform roles land in different Perfetto tracks
    /// even when they share one OS process.
    pub track: String,
    /// The recording thread's serial (the exporter's `tid`).
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

/// The value of one span annotation, kept in the form it was given in so
/// that attaching it allocates nothing; [`SpanGuard::arg`] takes anything
/// that converts into one. It is rendered — through `Display`, to exactly
/// the text the original value's `Display` produces — only when the span is
/// read back.
///
/// [`SpanGuard::arg`]: crate::SpanGuard::arg
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue {
    /// Any unsigned integer.
    U64(u64),
    /// Any signed integer.
    I64(i64),
    /// A flag.
    Bool(bool),
    /// A string known at compile time: outcomes, request kinds, reasons.
    Str(&'static str),
    /// A string built at run time (the one variant that owns heap memory).
    Text(Box<str>),
}

impl std::fmt::Display for ArgValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgValue::U64(v) => v.fmt(f),
            ArgValue::I64(v) => v.fmt(f),
            ArgValue::Bool(v) => v.fmt(f),
            ArgValue::Str(v) => v.fmt(f),
            ArgValue::Text(v) => v.fmt(f),
        }
    }
}

macro_rules! arg_value_from_int {
    ($variant:ident($wide:ty): $($narrow:ty),*) => {$(
        impl From<$narrow> for ArgValue {
            fn from(v: $narrow) -> Self {
                // Widening only: every `$narrow` fits `$wide`.
                ArgValue::$variant(v as $wide)
            }
        }
    )*};
}
arg_value_from_int!(U64(u64): u32, u64, usize);
arg_value_from_int!(I64(i64): i32, i64);

impl From<u128> for ArgValue {
    /// `Duration::as_micros` and friends: a `u64` unless it does not fit.
    fn from(v: u128) -> Self {
        u64::try_from(v).map_or_else(|_| ArgValue::Text(v.to_string().into()), ArgValue::U64)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Text(v.into())
    }
}

impl From<&String> for ArgValue {
    fn from(v: &String) -> Self {
        ArgValue::Text(v.as_str().into())
    }
}

/// Annotations a span keeps inline; a span with more spills to the heap.
const INLINE_ARGS: usize = 4;

const NO_ARG: (&str, ArgValue) = ("", ArgValue::Bool(false));

/// A span as its guard and its store hold it: a fixed-size plain record
/// whose strings are `&'static`, whose track label is a shared `Arc<str>`
/// and whose first [`INLINE_ARGS`] annotations sit in the record itself —
/// opening, annotating and storing a span allocates nothing.
/// [`LiveSpan::render`] turns it into a [`SpanRecord`] when somebody drains
/// the store.
pub(crate) struct LiveSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    pub(crate) name: &'static str,
    cat: &'static str,
    pub(crate) start_micros: u64,
    pub(crate) duration_micros: u64,
    track: Arc<str>,
    thread: u64,
    args: [(&'static str, ArgValue); INLINE_ARGS],
    /// How many of `args` are set.
    inline_args: usize,
    /// Annotations beyond the inline ones, in order.
    spilled_args: Vec<(&'static str, ArgValue)>,
}

impl LiveSpan {
    /// A span that started at `start_micros` and has not ended.
    pub(crate) fn open(
        ctx: SpanContext,
        parent_id: Option<u64>,
        name: &'static str,
        cat: &'static str,
        start_micros: u64,
        track: Arc<str>,
        thread: u64,
    ) -> Self {
        LiveSpan {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id,
            name,
            cat,
            start_micros,
            duration_micros: 0,
            track,
            thread,
            args: [NO_ARG; INLINE_ARGS],
            inline_args: 0,
            spilled_args: Vec::new(),
        }
    }

    pub(crate) fn push_arg(&mut self, key: &'static str, value: ArgValue) {
        match self.args.get_mut(self.inline_args) {
            Some(slot) => {
                *slot = (key, value);
                self.inline_args += 1;
            }
            None => self.spilled_args.push((key, value)),
        }
    }

    /// The public, owned form of this span.
    pub(crate) fn render(&self) -> SpanRecord {
        SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: self.name.to_string(),
            cat: self.cat,
            start_micros: self.start_micros,
            duration_micros: self.duration_micros,
            track: self.track.to_string(),
            thread: self.thread,
            args: self.args[..self.inline_args]
                .iter()
                .chain(&self.spilled_args)
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
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
    // Asking the OS for the pid is a system call; ask once.
    static SALT: OnceLock<u64> = OnceLock::new();
    *SALT.get_or_init(|| (std::process::id() as u64) << 40)
}

/// Mints a fresh trace id.
pub(crate) fn next_trace_id() -> u64 {
    salt() | NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// Mints a fresh span id.
pub(crate) fn next_span_id() -> u64 {
    salt() | NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}
