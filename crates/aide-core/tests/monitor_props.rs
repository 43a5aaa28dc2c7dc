//! Batch delivery is an optimisation, not a semantics: a `Monitor` fed one
//! event stream through `on_events` slices of arbitrary sizes must end up
//! exactly where a `Monitor` fed the same stream one `on_*` call at a time
//! does — graph, drained deltas, Table 2 metrics, Figure 8 counters and
//! trigger state. So is counted delivery: told a stream as an accumulating
//! sink is told it (repeats as counts, later `Work` as sums, settled before
//! every collection and drain), it must end where the per-event stream
//! leaves it. Both sides of that share one edge table, so the edges are
//! also checked against a model that never builds a `Monitor`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use aide_core::{Monitor, NodeKey, TriggerConfig};
use aide_graph::{EdgeInfo, ExecutionGraph, GraphDelta};
use aide_rpc::Xorshift64;
use aide_vm::{
    ClassId, GcReport, Interaction, InteractionKind, MethodDef, MethodId, NativeKind, ObjectId,
    PendingEvent, Program, ProgramBuilder, RuntimeHooks,
};

const CLASSES: u32 = 12;
/// Classes monitored per object when the array enhancement is on.
const GRANULAR: [u32; 2] = [3, 7];

/// The workspace's xorshift64.
struct XorShift(Xorshift64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }
}

fn program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("C0");
    b.add_method(main, MethodDef::new("main", vec![]));
    for c in 1..CLASSES {
        if c % 5 == 0 {
            b.add_native_class(format!("C{c}"));
        } else {
            b.add_class(format!("C{c}"));
        }
    }
    Arc::new(b.build(main, MethodId(0), 0, 0).unwrap())
}

/// Everything the VM can tell a monitor, in one vocabulary.
#[derive(Clone, Copy)]
enum Event {
    /// Queued by the interpreter; reaches the hooks in a flushed slice.
    Queued(PendingEvent),
    /// Delivered by the allocation / collection path, between flushes.
    Alloc(ClassId, ObjectId, u64),
    Free(ClassId, u64, u64),
    Gc(GcReport),
    /// Not a VM event: the controller draining the monitor mid-run.
    Drain,
}

/// A random stream in program order. Its `Work` microseconds are whole
/// when `whole_work`, as the interpreter's are, and fractions otherwise,
/// so that summation order would show.
fn stream(rng: &mut XorShift, len: usize, whole_work: bool) -> Vec<Event> {
    let mut next_object = 0u64;
    let mut cycle = 0u64;
    let mut recent: Vec<Interaction> = Vec::new();
    (0..len)
        .map(|_| {
            let class = ClassId(rng.below(CLASSES as u64) as u32);
            let other = ClassId(rng.below(CLASSES as u64) as u32);
            let remote = rng.below(4) == 0;
            let bytes = rng.below(512);
            match rng.below(100) {
                // A loop body: one of the last few interactions again.
                0..=19 if !recent.is_empty() => {
                    let i = recent[rng.below(recent.len() as u64) as usize];
                    Event::Queued(PendingEvent::Interaction(i))
                }
                0..=54 => {
                    let i = Interaction {
                        caller: class,
                        callee: other,
                        // Known objects, unknown objects and static calls.
                        target: match rng.below(3) {
                            0 => None,
                            _ => Some(ObjectId::client(rng.below(next_object + 2))),
                        },
                        kind: if rng.below(2) == 0 {
                            InteractionKind::Invocation
                        } else {
                            InteractionKind::FieldAccess
                        },
                        bytes,
                        remote,
                    };
                    if recent.len() == 6 {
                        recent.remove(0);
                    }
                    recent.push(i);
                    Event::Queued(PendingEvent::Interaction(i))
                }
                55..=69 => Event::Queued(PendingEvent::Work {
                    class,
                    micros: if whole_work {
                        rng.below(10_000) as f64
                    } else {
                        rng.below(10_000) as f64 / 7.0
                    },
                }),
                70..=74 => Event::Queued(PendingEvent::Native {
                    caller: class,
                    kind: NativeKind::Math,
                    work_micros: 3,
                    bytes,
                    remote,
                }),
                75..=79 => Event::Queued(PendingEvent::StaticAccess {
                    accessor: class,
                    class: other,
                    bytes,
                    remote,
                }),
                80..=84 => Event::Queued(PendingEvent::MethodExit {
                    class,
                    method: MethodId(0),
                }),
                85..=92 => {
                    next_object += 1;
                    Event::Alloc(class, ObjectId::client(next_object), 16 + bytes)
                }
                // Frees may exceed what was allocated: balances clamp.
                93..=95 => Event::Free(class, 1 + rng.below(3), rng.below(2_000)),
                96..=97 => {
                    cycle += 1;
                    // Every third report is healthy, so streaks both build
                    // and reset.
                    let free_after = if rng.below(3) == 0 { 500 } else { 20 };
                    Event::Gc(GcReport {
                        cycle,
                        capacity: 1_000,
                        used_after: 1_000 - free_after,
                        free_after,
                        freed_objects: rng.below(2),
                        freed_bytes: 0,
                        duration_micros: 1.0,
                    })
                }
                _ => Event::Drain,
            }
        })
        .collect()
}

/// What an accumulating sink is told of `events`, a stream in program
/// order, as the interpreter tells it: a local interaction on an object
/// that was told before is counted, and a class's `Work` after its first
/// summed; both are settled before every collection (its frees first) and
/// every drain, and also wherever `rng` says (the interpreter settles at
/// every run's end and touch of the peer). Method exits and local natives
/// and static accesses are not told.
fn accumulated(events: &[Event], rng: &mut XorShift) -> Vec<Event> {
    let mut told = Vec::new();
    let mut seen_interactions = HashSet::new();
    let mut seen_work = HashSet::new();
    let mut owed = Owed::default();
    for &event in events {
        let reads = matches!(event, Event::Free(..) | Event::Gc(_) | Event::Drain);
        if reads || rng.below(50) == 0 {
            owed.settle(&mut told);
        }
        // A guard that inserts is false on first sight: that is told.
        match event {
            Event::Queued(PendingEvent::Interaction(i))
                if !i.remote
                    && i.target.is_some()
                    && !seen_interactions.insert(format!("{i:?}")) =>
            {
                owed.count(i);
            }
            Event::Queued(PendingEvent::Work { class, micros }) if !seen_work.insert(class) => {
                owed.add_work(class, micros);
            }
            Event::Queued(
                PendingEvent::MethodExit { .. }
                | PendingEvent::Native { remote: false, .. }
                | PendingEvent::StaticAccess { remote: false, .. },
            ) => {}
            _ => told.push(event),
        }
    }
    owed.settle(&mut told);
    told
}

/// Counts and sums not told yet, in first-pending order.
#[derive(Default)]
struct Owed {
    counts: Vec<(Interaction, u32)>,
    /// Index into `counts` by the interaction's rendering.
    count_of: HashMap<String, usize>,
    sums: Vec<(ClassId, f64)>,
}

impl Owed {
    fn count(&mut self, i: Interaction) {
        let key = format!("{i:?}");
        match self.count_of.get(&key) {
            Some(&at) => self.counts[at].1 += 1,
            None => {
                self.count_of.insert(key, self.counts.len());
                self.counts.push((i, 1));
            }
        }
    }

    fn add_work(&mut self, class: ClassId, micros: f64) {
        match self.sums.iter_mut().find(|(c, _)| *c == class) {
            Some((_, sum)) => *sum += micros,
            None => self.sums.push((class, micros)),
        }
    }

    fn settle(&mut self, told: &mut Vec<Event>) {
        for (interaction, count) in self.counts.drain(..) {
            told.push(Event::Queued(PendingEvent::Counted { interaction, count }));
        }
        self.count_of.clear();
        for (class, micros) in self.sums.drain(..) {
            told.push(Event::Queued(PendingEvent::Work { class, micros }));
        }
    }
}

/// What a run leaves behind, in comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    snapshot: (aide_graph::ExecutionGraph, Vec<aide_core::NodeKey>),
    deltas: Vec<aide_graph::GraphDelta>,
    metrics: aide_core::MonitorMetrics,
    remote: aide_core::RemoteStats,
    triggered: bool,
    work_since_eval: f64,
}

/// Feeds `events` to a fresh monitor. `batch` picks how many queued events
/// may pile up before a flush (1 = per-event delivery through `on_*`).
fn feed(events: &[Event], granular: bool, mut batch: impl FnMut() -> usize) -> Outcome {
    let monitor = Monitor::new(
        program(),
        TriggerConfig::default(),
        granular_classes(granular),
    );
    let mut deltas = Vec::new();
    let mut pending: Vec<PendingEvent> = Vec::new();
    let mut limit = batch();
    let flush = |pending: &mut Vec<PendingEvent>| {
        match pending.as_slice() {
            [] => {}
            [one] => one.deliver(&monitor),
            many => monitor.on_events(many),
        }
        pending.clear();
    };
    for &event in events {
        if let Event::Queued(e) = event {
            pending.push(e);
            if pending.len() >= limit {
                flush(&mut pending);
                limit = batch();
            }
            continue;
        }
        // As in the VM: whatever is queued reaches the hooks before the
        // allocation / collection path speaks.
        flush(&mut pending);
        match event {
            Event::Alloc(class, object, bytes) => monitor.on_alloc(class, object, bytes),
            Event::Free(class, objects, bytes) => monitor.on_free(class, objects, bytes),
            Event::Gc(report) => {
                monitor.on_gc(&report);
                if monitor.memory_triggered() && report.cycle % 2 == 0 {
                    monitor.reset_memory_trigger();
                }
            }
            Event::Drain => deltas.extend(monitor.drain_deltas().0),
            Event::Queued(_) => unreachable!(),
        }
    }
    flush(&mut pending);
    deltas.extend(monitor.drain_deltas().0);
    Outcome {
        snapshot: monitor.snapshot(),
        deltas,
        metrics: monitor.metrics(),
        remote: monitor.remote_stats(),
        triggered: monitor.memory_triggered(),
        work_since_eval: monitor.work_since_eval(),
    }
}

fn granular_classes(granular: bool) -> HashSet<ClassId> {
    if granular {
        GRANULAR.into_iter().map(ClassId).collect()
    } else {
        HashSet::new()
    }
}

/// An edge's two ends, in key order: the pair names the edge whatever ids
/// the monitor gave its nodes.
fn ends(a: NodeKey, b: NodeKey) -> (NodeKey, NodeKey) {
    (a.min(b), a.max(b))
}

/// What each kind of interaction the model saw, so a test can check the
/// stream covered it.
#[derive(Debug, Default)]
struct Coverage {
    self_interactions: u64,
    static_calls: u64,
    object_targets: u64,
}

/// The edges `events` should leave behind, folded straight from the stream:
/// a caller's class talks to its target's object node when the callee is
/// object-granular and the call names an object, to the callee's class
/// node otherwise, and a node talking to itself makes no edge.
fn model_edges(
    events: &[Event],
    granular: bool,
) -> (BTreeMap<(NodeKey, NodeKey), EdgeInfo>, Coverage) {
    let granular = granular_classes(granular);
    let mut edges = BTreeMap::new();
    let mut coverage = Coverage::default();
    for event in events {
        let (i, count) = match *event {
            Event::Queued(PendingEvent::Interaction(i)) => (i, 1),
            Event::Queued(PendingEvent::Counted { interaction, count }) => {
                (interaction, u64::from(count))
            }
            _ => continue,
        };
        let a = NodeKey::Class(i.caller);
        let b = match i.target {
            Some(object) if granular.contains(&i.callee) => {
                coverage.object_targets += 1;
                NodeKey::Object(object)
            }
            target => {
                coverage.static_calls += u64::from(target.is_none());
                NodeKey::Class(i.callee)
            }
        };
        if a == b {
            coverage.self_interactions += 1;
            continue;
        }
        edges
            .entry(ends(a, b))
            .or_insert_with(EdgeInfo::default)
            .absorb(EdgeInfo::new(count, count * i.bytes));
    }
    (edges, coverage)
}

#[test]
fn batched_delivery_is_indistinguishable_from_per_event_delivery() {
    for seed in 1..=48u64 {
        let mut rng = XorShift(Xorshift64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let events = stream(&mut rng, 2_000, false);
        for granular in [false, true] {
            let per_event = feed(&events, granular, || 1);
            let batched = feed(&events, granular, || 1 + rng.below(40) as usize);
            assert_eq!(per_event, batched, "seed {seed}, granular {granular}");

            // The drained batches, applied in order, rebuild the snapshot.
            let mut applied = ExecutionGraph::new();
            applied.apply_all(&batched.deltas);
            assert_eq!(applied, batched.snapshot.0, "seed {seed}");

            // The stream exercised what it claims to.
            assert!(batched.metrics.interaction_events > 500);
            assert!(batched.remote.remote_interactions > 0);
            assert!(batched.metrics.samples > 0);
            let object_nodes = batched
                .snapshot
                .1
                .iter()
                .filter(|k| matches!(k, aide_core::NodeKey::Object(_)))
                .count();
            assert_eq!(object_nodes > 0, granular);
        }
    }
}

#[test]
fn the_edges_match_a_model_folded_from_the_stream() {
    for seed in 1..=48u64 {
        let mut rng = XorShift(Xorshift64::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03)));
        let events = stream(&mut rng, 2_000, false);
        for granular in [false, true] {
            let (model, coverage) = model_edges(&events, granular);
            assert!(coverage.self_interactions > 0, "seed {seed}");
            assert!(coverage.static_calls > 0, "seed {seed}");
            assert_eq!(coverage.object_targets > 0, granular, "seed {seed}");
            assert!(
                events.iter().any(|e| matches!(e, Event::Drain)),
                "seed {seed}: no mid-run drain"
            );

            let outcome = feed(&events, granular, || 1 + rng.below(40) as usize);
            let (graph, keys) = &outcome.snapshot;
            let snapshot: BTreeMap<_, _> = graph
                .edges()
                .map(|((a, b), info)| (ends(keys[a.index()], keys[b.index()]), info))
                .collect();
            assert_eq!(
                snapshot, model,
                "seed {seed}, granular {granular}: snapshot"
            );

            let mut drained = BTreeMap::new();
            for delta in &outcome.deltas {
                if let GraphDelta::Interaction { a, b, delta } = *delta {
                    drained
                        .entry(ends(keys[a.index()], keys[b.index()]))
                        .or_insert_with(EdgeInfo::default)
                        .absorb(delta);
                }
            }
            assert_eq!(drained, model, "seed {seed}, granular {granular}: deltas");
        }
    }
}

#[test]
fn counted_delivery_is_indistinguishable_from_the_per_event_stream() {
    for seed in 1..=48u64 {
        let mut rng = XorShift(Xorshift64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D)));
        let events = stream(&mut rng, 2_000, true);
        let told = accumulated(&events, &mut rng);
        let counted = told
            .iter()
            .filter(
                |e| matches!(e, Event::Queued(PendingEvent::Counted { count, .. }) if *count > 1),
            )
            .count();
        assert!(counted > 10, "seed {seed}: {counted} counts above one");
        assert!(told.len() < events.len(), "seed {seed}: nothing folded");
        for granular in [false, true] {
            let per_event = feed(&events, granular, || 1);
            let folded = feed(&told, granular, || 1 + rng.below(40) as usize);
            assert_eq!(folded, per_event, "seed {seed}, granular {granular}");

            // The model counts a count's `n`: folded from either stream,
            // it is the same, and it is the monitor's.
            let (model, _) = model_edges(&told, granular);
            assert_eq!(model, model_edges(&events, granular).0, "seed {seed}");
            let (graph, keys) = &folded.snapshot;
            let snapshot: BTreeMap<_, _> = graph
                .edges()
                .map(|((a, b), info)| (ends(keys[a.index()], keys[b.index()]), info))
                .collect();
            assert_eq!(snapshot, model, "seed {seed}, granular {granular}");
        }
    }
}
