//! Causal-tracing integration: a migration driven through the full
//! platform must leave behind ONE connected span tree that crosses the
//! RPC seam — client-side decision/migration spans parenting
//! surrogate-side serve spans via the wire context — and the tree's
//! shape must be the same whatever transport carried the frames.
//!
//! Each run records into a span store its own thread opened, so the tests
//! run side by side, and so do two platforms in one test.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use aide::apps::{javanote, Scale};
use aide::core::{Platform, PlatformConfig, TransportKind};
use aide::emu::{record_program, Emulator, EmulatorConfig};
use aide::rpc::ChaosSchedule;
use aide::telemetry::{span_names, SpanRecord, SpanStore};

const TEST_SCALE: Scale = Scale(0.05);
const TEST_HEAP: u64 = 320 << 10;

/// Span names that describe the decision/migration pipeline itself
/// (transport- and timing-independent, unlike the RPC retry spans).
const LIVE_SHAPE: &[&str] = &[
    span_names::DECISION,
    span_names::TRIGGER_SAMPLE,
    span_names::PARTITION_EPOCH,
    span_names::MIGRATION,
    span_names::MIGRATE_SERIALIZE,
    span_names::MIGRATE_PREPARE,
    span_names::MIGRATE_COMMIT,
];

/// The coarser shape the trace-driven emulator stamps at virtual time
/// (it models the transfer as one block, not per-batch RPCs).
const EMU_SHAPE: &[&str] = &[
    span_names::DECISION,
    span_names::TRIGGER_SAMPLE,
    span_names::PARTITION_EPOCH,
    span_names::MIGRATION,
];

/// The committed-migration span, or a panic listing what was recorded.
fn committed_migration(spans: &[SpanRecord]) -> &SpanRecord {
    spans
        .iter()
        .find(|s| s.name == span_names::MIGRATION && s.arg("outcome") == Some("committed"))
        .unwrap_or_else(|| {
            let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
            panic!("no committed migration span; recorded: {names:?}")
        })
}

/// Canonical shape string of the offloading decision's span tree,
/// restricted to `filter` names: `name(child,child,...)` with children
/// sorted, so two isomorphic trees render identically.
fn offload_shape(spans: &[SpanRecord], filter: &[&str]) -> String {
    let trace_id = committed_migration(spans).trace_id;
    let tree: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.trace_id == trace_id && filter.contains(&s.name.as_str()))
        .collect();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in &tree {
        if let Some(p) = s.parent_id {
            children.entry(p).or_default().push(s);
        }
    }
    fn render(span: &SpanRecord, children: &HashMap<u64, Vec<&SpanRecord>>) -> String {
        let mut kids: Vec<String> = children
            .get(&span.span_id)
            .map(|c| c.iter().map(|k| render(k, children)).collect())
            .unwrap_or_default();
        kids.sort();
        format!("{}({})", span.name, kids.join(","))
    }
    let root = tree
        .iter()
        .find(|s| s.name == span_names::DECISION)
        .expect("the migration trace contains its decision span");
    render(root, &children)
}

/// Walks `span`'s parent chain; true if it passes through `ancestor`.
fn has_ancestor(span: &SpanRecord, ancestor: u64, by_id: &HashMap<u64, &SpanRecord>) -> bool {
    let mut cursor = span.parent_id;
    let mut hops = 0;
    while let Some(p) = cursor {
        if p == ancestor {
            return true;
        }
        cursor = by_id.get(&p).and_then(|s| s.parent_id);
        hops += 1;
        if hops > 64 {
            return false; // defensive: a cycle would be a bug elsewhere
        }
    }
    false
}

/// The acceptance scenario: a chaos-soaked migration over the real TCP
/// multiplexer produces one connected span tree spanning both devices.
#[test]
fn chaos_tcp_migration_yields_one_connected_cross_device_span_tree() {
    let store = SpanStore::open();
    let mut cfg = PlatformConfig::prototype(TEST_HEAP);
    cfg.transport = TransportKind::Tcp;
    let mut chaos = ChaosSchedule::seeded(42);
    // Loss must stay rare: each lost copy costs the endpoint's 2 s attempt
    // timeout in real time and this run makes ~2 400 calls, so 5% would be
    // ~8 min of timeouts (and a call whose nested callbacks retry can spend
    // its own four attempts meanwhile). One loss is certain all the same:
    // seed 42's first draw is below any positive rate, so the client's first
    // frame — the migration's PREPARE — is dropped and retried.
    chaos.drop = 0.0005;
    chaos.delay = 0.10;
    chaos.max_delay = Duration::from_millis(3);
    chaos.duplicate = 0.05;
    cfg.chaos = Some(chaos);
    let report = Platform::new(javanote(TEST_SCALE).program, cfg).run();
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(report.offloaded(), "the scaled JavaNote must offload");

    let spans = store.drain();
    let migration = committed_migration(&spans).clone();
    let tree: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.trace_id == migration.trace_id)
        .collect();
    let by_id: HashMap<u64, &SpanRecord> = tree.iter().map(|s| (s.span_id, *s)).collect();

    // Connected: exactly one root, and every parent pointer resolves.
    let roots: Vec<&&SpanRecord> = tree.iter().filter(|s| s.parent_id.is_none()).collect();
    assert_eq!(
        roots.len(),
        1,
        "one root in the migration trace, got {:?}",
        roots.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );
    for s in &tree {
        if let Some(p) = s.parent_id {
            assert!(
                by_id.contains_key(&p),
                "span {} dangles from a parent that was never recorded",
                s.name
            );
        }
    }

    // Cross-device: the tree holds spans from both Perfetto lanes.
    assert!(
        tree.iter().any(|s| s.track == "client"),
        "client-side spans"
    );
    assert!(
        tree.iter().any(|s| s.track == "surrogate"),
        "surrogate-side spans in the same trace (wire context propagated)"
    );

    assert!(
        tree.iter()
            .any(|s| s.name == span_names::RPC_ATTEMPT && s.arg("attempt") == Some("2")),
        "the lost PREPARE was sent again inside the migration trace"
    );

    // The surrogate's serve spans hang underneath the client's migration
    // span — the causal chain survives retries and chaos.
    let serves: Vec<&&SpanRecord> = tree
        .iter()
        .filter(|s| s.name == span_names::RPC_SERVE)
        .collect();
    assert!(!serves.is_empty(), "the migration performed remote calls");
    assert!(
        serves
            .iter()
            .all(|s| has_ancestor(s, migration.span_id, &by_id)),
        "every serve span descends from the migration span"
    );
}

/// Satellite 4: the decision/migration span tree has the same shape over
/// the in-memory channel and the TCP multiplexer — and the trace-driven
/// emulator stamps an isomorphic (coarser) tree at virtual time.
#[test]
fn span_trees_are_isomorphic_across_backends() {
    let program = javanote(TEST_SCALE).program;

    let mut shapes: Vec<(TransportKind, String, String)> = Vec::new();
    for transport in [TransportKind::InProcess, TransportKind::Tcp] {
        let store = SpanStore::open();
        let mut cfg = PlatformConfig::prototype(TEST_HEAP);
        cfg.transport = transport;
        let report = Platform::new(program.clone(), cfg).run();
        assert!(
            report.outcome.is_ok(),
            "{transport:?}: {:?}",
            report.outcome
        );
        assert!(report.offloaded(), "{transport:?}: must offload");
        let spans = store.drain();

        // Every live backend crosses the seam: serve spans join the
        // migration trace regardless of what carried the frames.
        let migration = committed_migration(&spans);
        assert!(
            spans
                .iter()
                .any(|s| s.trace_id == migration.trace_id && s.name == span_names::RPC_SERVE),
            "{transport:?}: serve spans share the migration trace"
        );

        shapes.push((
            transport,
            offload_shape(&spans, LIVE_SHAPE),
            offload_shape(&spans, EMU_SHAPE),
        ));
    }
    let (_, reference, coarse_reference) = shapes[0].clone();
    for (transport, shape, coarse) in &shapes {
        assert_eq!(
            shape, &reference,
            "{transport:?}: decision span tree diverges from InProcess"
        );
        assert_eq!(coarse, &coarse_reference);
    }

    // The emulator replays the same recorded program and stamps the same
    // (coarse) decision tree at virtual time.
    let trace = record_program("javanote", program, 64 << 20).expect("recording succeeds");
    let store = SpanStore::open();
    let report = Emulator::new(EmulatorConfig::paper_memory(TEST_HEAP)).replay(&trace);
    assert!(report.completed, "emulated rescue completes");
    assert!(report.offloaded(), "emulated run offloads");
    let spans = store.drain();
    assert_eq!(
        offload_shape(&spans, EMU_SHAPE),
        coarse_reference,
        "emulator-stamped tree is isomorphic to the live decision tree"
    );
}

/// Two platforms run at once, one on each of two threads, each under a
/// store its own thread opened: each store holds its own run's spans and
/// nothing of the other's.
#[test]
fn two_platforms_at_once_are_observed_apart() {
    let program = javanote(TEST_SCALE).program;
    let runs: Vec<(TransportKind, Vec<SpanRecord>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = [TransportKind::InProcess, TransportKind::Tcp]
            .into_iter()
            .map(|transport| {
                let program = program.clone();
                scope.spawn(move || {
                    let store = SpanStore::open();
                    let mut cfg = PlatformConfig::prototype(TEST_HEAP);
                    cfg.transport = transport;
                    let report = Platform::new(program, cfg).run();
                    assert!(
                        report.outcome.is_ok(),
                        "{transport:?}: {:?}",
                        report.outcome
                    );
                    assert!(report.offloaded(), "{transport:?}: must offload");
                    (transport, store.drain())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let traces: Vec<HashSet<u64>> = runs
        .iter()
        .map(|(_, spans)| spans.iter().map(|s| s.trace_id).collect())
        .collect();
    assert!(
        traces[0].is_disjoint(&traces[1]),
        "no trace id is in both stores"
    );
    let threads: Vec<HashSet<u64>> = runs
        .iter()
        .map(|(_, spans)| spans.iter().map(|s| s.thread).collect())
        .collect();
    assert!(
        threads[0].is_disjoint(&threads[1]),
        "no thread recorded into both stores"
    );
    for (transport, spans) in &runs {
        // Each store holds a whole run: its migration tree crosses the seam.
        let migration = committed_migration(spans);
        assert!(
            spans
                .iter()
                .any(|s| s.trace_id == migration.trace_id && s.name == span_names::RPC_SERVE),
            "{transport:?}: the run's serve spans are in its store"
        );
        assert_eq!(
            offload_shape(spans, LIVE_SHAPE),
            offload_shape(&runs[0].1, LIVE_SHAPE),
            "{transport:?}: one decision tree per store"
        );
        // ...and only that run: one committed migration, on its own tracks.
        let migrations = spans
            .iter()
            .filter(|s| s.name == span_names::MIGRATION && s.arg("outcome") == Some("committed"))
            .count();
        assert_eq!(migrations, 1, "{transport:?}: one run's migration");
        for span in spans {
            assert!(
                span.track == "client" || span.track == "surrogate",
                "{transport:?}: {} on track {}",
                span.name,
                span.track
            );
        }
    }
}
