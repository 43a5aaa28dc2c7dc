//! A span is two clock reads and one push: opening, annotating and
//! storing one allocates nothing, whether or not the store has room for
//! it; without a store it is a push and a pop of its context; and what a
//! store hands back reads exactly as it did when every span carried its
//! own strings.
//!
//! The allocator below counts per thread, and each test opens its own
//! store, so the tests of this file do not see each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use aide_telemetry::{child_of, chrome_trace, span, ArgValue, SpanContext, SpanRecord, SpanStore};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every request goes unchanged to `System`, which upholds the
// `GlobalAlloc` contract. Counting touches only a const-initialised
// thread-local `Cell` that has no destructor: it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations_during(work: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    work();
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` spans shaped like the ones a remote call opens: an integer, a
/// static string and a flag each.
fn burst(n: u64) {
    for i in 0..n {
        let mut guard = span("alloc.free", "test");
        guard.arg("seq", i);
        guard.arg("outcome", "ok");
        guard.arg("even", i % 2 == 0);
    }
}

#[test]
fn spans_do_not_allocate_with_room_in_the_store_or_without() {
    let store = SpanStore::open();
    // Warm-up: the thread's context stack and its lane exist.
    burst(64);
    store.drain();

    let with_room = allocations_during(|| burst(10_000));
    assert_eq!(
        store.drain().len(),
        10_000,
        "the store had room: the spans were kept"
    );
    assert!(
        with_room < 100,
        "{with_room} allocations for 10 000 spans (only the store may grow)"
    );

    // Fill the store; from here on every span is stored, then dropped.
    burst(aide_telemetry::CAPACITY as u64);
    let when_full = allocations_during(|| burst(10_000));
    assert_eq!(
        store.dropped(),
        10_000,
        "the store was full: the spans were dropped, and counted"
    );
    assert!(
        when_full < 100,
        "{when_full} allocations for 10 000 spans the store had no room for"
    );
}

#[test]
fn spans_on_a_lane_without_a_store_allocate_and_keep_nothing_yet_nest() {
    // Warm-up: the thread's context stack and its lane exist. No store was
    // ever opened on this thread.
    burst(64);

    let nested = allocations_during(|| {
        for i in 0..10_000u64 {
            let mut outer = span("alloc.outer", "test");
            outer.arg("seq", i);
            let outer_ctx = outer.context();
            let inner = span("alloc.inner", "test");
            assert_eq!(inner.context().trace_id, outer_ctx.trace_id);
            assert_eq!(aide_telemetry::current_context(), Some(inner.context()));
            drop(inner);
            assert_eq!(aide_telemetry::current_context(), Some(outer_ctx));
        }
    });
    assert_eq!(nested, 0, "{nested} allocations for 10 000 unstored spans");
    assert_eq!(aide_telemetry::current_context(), None);

    // Nothing was kept for whoever opens a store afterwards.
    let store = SpanStore::open();
    assert!(store.drain().is_empty());
    assert_eq!(store.dropped(), 0);
}

#[test]
fn every_argument_renders_as_its_display_did() {
    let store = SpanStore::open();
    let backoff = Duration::from_micros(1_234_567).as_micros();
    let built = format!("surrogate-{}", 7);
    // More annotations than a span keeps inline: order must hold across
    // the spill.
    let ctx = {
        let mut guard = span("render.args", "test");
        guard.arg("u64", 12_345u64);
        guard.arg("bool", true);
        guard.arg("i64", -7i64);
        guard.arg("str", "text \"verbatim\"");
        guard.arg("micros", backoff);
        guard.arg("usize", 24_221usize);
        guard.arg("u32", 3u32);
        guard.arg("literal", -1);
        guard.arg("borrowed", &built);
        guard.arg("owned", built.clone());
        guard.arg("wide", u128::MAX);
        guard.context()
    };
    let spans = store.drain();
    let rendered = spans
        .iter()
        .find(|s| s.span_id == ctx.span_id)
        .expect("the span was collected");
    let expected: Vec<(String, String)> = [
        ("u64", "12345".to_string()),
        ("bool", "true".to_string()),
        ("i64", "-7".to_string()),
        ("str", "text \"verbatim\"".to_string()),
        ("micros", backoff.to_string()),
        ("usize", "24221".to_string()),
        ("u32", "3".to_string()),
        ("literal", "-1".to_string()),
        ("borrowed", "surrogate-7".to_string()),
        ("owned", "surrogate-7".to_string()),
        ("wide", u128::MAX.to_string()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    assert_eq!(rendered.args, expected);
    assert_eq!(rendered.arg("micros"), Some("1234567"));

    // The conversions themselves, variant by variant.
    assert_eq!(ArgValue::from(12_345u64), ArgValue::U64(12_345));
    assert_eq!(ArgValue::from(-7i64), ArgValue::I64(-7));
    assert_eq!(ArgValue::from(true), ArgValue::Bool(true));
    assert_eq!(ArgValue::from("ok"), ArgValue::Str("ok"));
    assert_eq!(ArgValue::from(built), ArgValue::Text("surrogate-7".into()));
    assert_eq!(ArgValue::from(backoff), ArgValue::U64(1_234_567));
    assert_eq!(ArgValue::from(false).to_string(), false.to_string());
}

#[test]
fn a_span_forest_exports_the_same_from_compact_and_from_rendered_records() {
    aide_telemetry::set_thread_lane(&aide_telemetry::current_lane().with_track("client"));
    let store = SpanStore::open();

    // Two trees: a root with a nested child, and a serve span adopted from
    // a context that arrived over the wire.
    let remote = SpanContext {
        trace_id: 0xABCD,
        span_id: 0x1234,
    };
    let (root, child, adopted) = {
        let mut root = span("forest.root", "core");
        root.arg("objects", 377u64);
        let child_ctx = {
            let mut child = span("forest.child", "rpc");
            child.arg("kind", "GetSlot");
            child.arg("seq", 9u64);
            child.context()
        };
        root.arg("outcome", "committed");
        let adopted_ctx = {
            let mut adopted = child_of(Some(remote), "forest.adopted", "rpc");
            adopted.arg("kind", "Invoke");
            adopted.context()
        };
        (root.context(), child_ctx, adopted_ctx)
    };
    let compact = store.drain();
    assert_eq!(compact.len(), 3, "{compact:?}");

    // The same forest as records that own their strings — what a guard
    // used to build — with the ids and clock readings the run produced.
    let owned = |ctx: SpanContext,
                 parent_id: Option<u64>,
                 name: &str,
                 cat: &'static str,
                 args: &[(&str, &str)]| {
        let timed = compact
            .iter()
            .find(|s| s.span_id == ctx.span_id)
            .expect("drained");
        SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id,
            name: name.to_string(),
            cat,
            start_micros: timed.start_micros,
            duration_micros: timed.duration_micros,
            track: "client".to_string(),
            thread: timed.thread,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    };
    // Spans are collected as they close: child, adopted, root.
    let rendered = vec![
        owned(
            child,
            Some(root.span_id),
            "forest.child",
            "rpc",
            &[("kind", "GetSlot"), ("seq", "9")],
        ),
        owned(
            adopted,
            Some(remote.span_id),
            "forest.adopted",
            "rpc",
            &[("kind", "Invoke")],
        ),
        owned(
            root,
            None,
            "forest.root",
            "core",
            &[("objects", "377"), ("outcome", "committed")],
        ),
    ];
    assert_eq!(root.trace_id, child.trace_id);
    assert_eq!(adopted.trace_id, remote.trace_id);
    assert_eq!(compact, rendered);
    assert_eq!(chrome_trace(&compact), chrome_trace(&rendered));

    // Records built by hand go through the store untouched.
    for record in &rendered {
        aide_telemetry::record_raw(record.clone());
    }
    let passed_through = store.drain();
    assert_eq!(passed_through, rendered);
    assert_eq!(chrome_trace(&passed_through), chrome_trace(&rendered));
}
