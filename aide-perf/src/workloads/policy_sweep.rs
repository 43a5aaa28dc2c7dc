//! `policy_sweep`: partitioning decisions with no interpreter and no
//! transport.
//!
//! Set-up runs the three memory applications once, unconstrained, and keeps
//! the execution graphs their monitors built. A pass decides each graph at
//! every point of a fixed 18-point grid — heuristic {modified MINCUT, memory
//! density} × policy {memory 20 %, CPU, combined} × client heap {6, 16,
//! 64 MB} — through `decide_with`; the seed sets the order of the graphs.
//! Only `aide-core::partitioner` and `aide-graph` run: a change to candidate
//! generation or policy evaluation shows here and nowhere else, and a VM,
//! monitor or RPC change must leave this workload where it was. The unit of
//! work is one decision.
//!
//! The traced run adds the scale rung: a seeded 2 000-class delta history
//! fed through `IncrementalPartitioner::{apply_deltas, epoch}`. It is a
//! per-layer metric only, as the issue had it: no application here has
//! 2 000 classes, and a graph of that size lives in the last-level cache,
//! which on the builder's host a neighbour disturbs by a third for minutes
//! at a time.
//!
//! The issue's fourth workload replayed recorded traces through `aide-emu`.
//! `aide-emu` does not compile at this commit (`chaos_penalty` takes its
//! byte count as `u32` and is called with `u64`), this change may not touch
//! it, and `aide-replay` depends on it; this workload covers the decision
//! pipeline with the crates that build.

use super::local_mutator::{run_unconstrained, scale};
use super::{end_to_end, measure, repeat_setup, trace_overhead, windows, Finished, RunArgs};
use crate::golden::{mismatch, Golden, GridStats};
use crate::reference::Reference;
use crate::report::{Metrics, Tally};
use crate::rng::XorShift64;
use crate::span::Tracer;
use crate::stats::{median, min};
use aide_apps::memory_apps;
use aide_core::{
    decide_with, HeuristicKind, IncrementalPartitioner, PartitionerConfig, PolicyKind,
};
use aide_graph::{
    CommParams, EdgeInfo, ExecutionGraph, GraphDelta, MemoryPolicy, NodeId, PinReason,
    ResourceSnapshot, SelectedPartition,
};
use std::collections::BTreeMap;
use std::time::Instant;

const HEURISTICS: [(HeuristicKind, &str); 2] = [
    (HeuristicKind::ModifiedMincut, "modified-mincut"),
    (HeuristicKind::MemoryDensity, "memory-density"),
];
const POLICIES: [(PolicyKind, &str); 3] = [
    (
        PolicyKind::Memory {
            min_free_fraction: 0.20,
        },
        "memory-20",
    ),
    (PolicyKind::Cpu { margin: 0.0 }, "cpu"),
    (
        PolicyKind::Combined {
            min_free_fraction: 0.20,
            margin: 0.05,
        },
        "combined-20-5",
    ),
];
const HEAP_MB: [u64; 3] = [6, 16, 64];
/// The paper's surrogate: 3.5 times the client's speed over WaveLAN.
const SURROGATE_SPEED: f64 = 3.5;

/// Classes and batches of the synthetic history.
struct HistoryShape {
    classes: u32,
    neighbours: u32,
    epochs: u32,
    interactions_per_epoch: u32,
    updates_per_epoch: u32,
}

fn history_shape(args: &RunArgs) -> HistoryShape {
    HistoryShape {
        classes: if args.smoke { 200 } else { 2_000 },
        neighbours: 4,
        epochs: 8,
        interactions_per_epoch: if args.smoke { 50 } else { 500 },
        updates_per_epoch: if args.smoke { 10 } else { 100 },
    }
}

/// A seeded delta history: the first batch creates every class (one in
/// twenty pinned) and wires each to a few neighbours; each later batch adds
/// interactions and refreshes some classes' memory. Counts are fixed by the
/// shape; the seed picks who talks to whom and how much.
fn delta_history(seed: u64, shape: &HistoryShape) -> Vec<Vec<GraphDelta>> {
    let mut rng = XorShift64::new(seed ^ 0xD1F7_A5ED);
    let n = u64::from(shape.classes);
    let node = |rng: &mut XorShift64| NodeId(rng.below(n) as u32);
    let interaction = |rng: &mut XorShift64, a: NodeId| {
        // A distinct partner: self-interactions are ignored by the graph.
        let b = NodeId((u64::from(a.0) + 1 + rng.below(n - 1)) as u32 % shape.classes);
        GraphDelta::Interaction {
            a,
            b,
            delta: EdgeInfo::new(rng.in_range(1, 40), rng.in_range(64, 8_192)),
        }
    };

    let mut first = Vec::new();
    for i in 0..shape.classes {
        first.push(GraphDelta::AddNode {
            label: format!("C{i}"),
            pinned: (i % 20 == 0).then_some(PinReason::NativeMethods),
            memory_bytes: rng.in_range(1_000, 60_000),
            cpu_micros: rng.in_range(10, 50_000),
            live_objects: rng.in_range(1, 200),
        });
    }
    for i in 0..shape.classes {
        for _ in 0..shape.neighbours {
            first.push(interaction(&mut rng, NodeId(i)));
        }
    }
    let mut batches = vec![first];
    for _ in 1..shape.epochs {
        let mut batch = Vec::new();
        for _ in 0..shape.interactions_per_epoch {
            let a = node(&mut rng);
            batch.push(interaction(&mut rng, a));
        }
        for _ in 0..shape.updates_per_epoch {
            batch.push(GraphDelta::UpdateNode {
                node: node(&mut rng),
                memory_bytes: rng.in_range(1_000, 60_000),
                cpu_micros: rng.in_range(10, 50_000),
                live_objects: rng.in_range(1, 200),
            });
        }
        batches.push(batch);
    }
    batches
}

fn grid_stats(
    heuristic: &str,
    policy: &str,
    heap_mb: u64,
    candidates: usize,
    selection: Option<&SelectedPartition>,
) -> GridStats {
    let stats = selection.map(|s| &s.stats);
    GridStats {
        heuristic: heuristic.to_owned(),
        policy: policy.to_owned(),
        heap_mb,
        candidates: candidates as u64,
        selected: selection.is_some(),
        offloaded_nodes: stats.map_or(0, |s| s.offloaded_nodes as u64),
        offloaded_memory_bytes: stats.map_or(0, |s| s.offloaded_memory_bytes),
        cut_bytes: stats.map_or(0, |s| s.cut.bytes),
        cut_interactions: stats.map_or(0, |s| s.cut.interactions),
        score: selection.map_or(0.0, |s| s.score),
    }
}

/// Decides `graph` at every grid point. Returns the simulated outcome of
/// each and the host microseconds the decisions took.
fn sweep_grid(graph: &ExecutionGraph) -> (Vec<GridStats>, Vec<f64>) {
    let mut outcomes = Vec::with_capacity(18);
    let mut micros = Vec::with_capacity(18);
    for (heuristic, label) in HEURISTICS {
        for (kind, policy_label) in POLICIES {
            let policy = kind.build(CommParams::WAVELAN, SURROGATE_SPEED);
            for heap_mb in HEAP_MB {
                let capacity = heap_mb << 20;
                let snapshot = ResourceSnapshot::new(capacity, capacity - capacity / 20);
                let start = Instant::now();
                let decision = decide_with(graph.clone(), snapshot, policy.as_ref(), heuristic);
                micros.push(start.elapsed().as_secs_f64() * 1e6);
                outcomes.push(grid_stats(
                    label,
                    policy_label,
                    heap_mb,
                    decision.candidates_evaluated,
                    decision.selection.as_ref(),
                ));
            }
        }
    }
    (outcomes, micros)
}

/// Host microseconds of the incremental path over one history.
#[derive(Default)]
struct IncrementalTimes {
    apply_us: f64,
    epoch_us: Vec<f64>,
}

/// Feeds `history` through a fresh incremental partitioner, deciding after
/// every batch under the paper's initial policy on a heap sized so that the
/// policy has a choice to make.
fn replay_history(history: &[Vec<GraphDelta>]) -> (Vec<GridStats>, IncrementalTimes) {
    let mut partitioner = IncrementalPartitioner::new(PartitionerConfig::default());
    let policy = MemoryPolicy::new(0.20);
    let snapshot = ResourceSnapshot::new(32 << 20, 31 << 20);
    let mut outcomes = Vec::with_capacity(history.len());
    let mut times = IncrementalTimes::default();
    for batch in history {
        let start = Instant::now();
        partitioner.apply_deltas(batch);
        times.apply_us += start.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        let decision = partitioner.epoch(snapshot, &policy);
        times.epoch_us.push(start.elapsed().as_secs_f64() * 1e6);
        outcomes.push(grid_stats(
            "incremental",
            "memory-20",
            32,
            decision.candidates_evaluated,
            decision.selection.as_ref(),
        ));
    }
    (outcomes, times)
}

struct State {
    /// `(application, execution graph)` of the three memory applications,
    /// in this seed's order.
    graphs: Vec<(&'static str, ExecutionGraph)>,
    /// What every pass must decide, per application.
    expected: BTreeMap<String, Vec<GridStats>>,
}

/// Runs the applications for their graphs and decides everything once (the
/// warm-up pass).
fn setup(args: &RunArgs, tally: &mut Tally) -> State {
    let mut graphs = Vec::new();
    for app in memory_apps(scale(args)) {
        let report = run_unconstrained(&app);
        tally.record(
            report
                .outcome
                .as_ref()
                .err()
                .map(|e| format!("{}: graph-building run failed: {e}", app.name)),
        );
        graphs.push((app.name, report.final_graph));
    }
    XorShift64::new(args.seed).shuffle(&mut graphs);

    let golden = Golden::committed().policy_sweep;
    let mut expected = BTreeMap::new();
    for (name, graph) in &graphs {
        let (outcomes, _) = sweep_grid(graph);
        if !args.smoke && !args.bless {
            tally.record(mismatch(name, golden.get(*name), &outcomes));
        }
        expected.insert((*name).to_owned(), outcomes);
    }
    if args.bless && !args.smoke {
        let blessed = expected.clone();
        Golden::bless(|g| g.policy_sweep = blessed).expect("write golden/sim_stats.json");
    }
    State { graphs, expected }
}

/// Host times the traced passes collect: microseconds of the paper-point
/// decision (modified MINCUT, memory 20 %, 6 MB) on JavaNote's 138 classes,
/// and how many candidates it weighed.
#[derive(Default)]
struct Seen {
    epoch_us_138: Vec<f64>,
    candidates_138: f64,
}

/// One pass: every grid point on every graph. Returns the number of
/// decisions taken.
fn pass(state: &State, tally: &mut Tally, tracer: &mut Tracer, seen: &mut Seen) -> f64 {
    tracer.span("pass", |tracer| {
        let mut decisions = 0;
        for (name, graph) in &state.graphs {
            let (outcomes, micros) = tracer.span("decide_with x18", |_| sweep_grid(graph));
            decisions += outcomes.len();
            if *name == "JavaNote" {
                // Grid order: heuristic, policy, heap; the paper's point
                // comes first.
                seen.epoch_us_138.push(micros[0]);
                seen.candidates_138 = outcomes[0].candidates as f64;
            }
            tally.record(
                (state.expected.get(*name) != Some(&outcomes))
                    .then(|| format!("{name}: grid decisions changed between passes")),
            );
        }
        decisions as f64
    })
}

/// The scale rung: the seeded history through the incremental partitioner,
/// fastest of a few repetitions, which must all decide the same.
fn history_rung(args: &RunArgs, metrics: &mut Metrics, tally: &mut Tally, tracer: &mut Tracer) {
    let history = delta_history(args.seed, &history_shape(args));
    let reps = if args.smoke { 2 } else { 5 };
    let (mut apply_us, mut epoch_us) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<GridStats>> = None;
    for _ in 0..reps {
        let (outcomes, times) = tracer.span("rung.history_2k", |_| replay_history(&history));
        apply_us.push(times.apply_us);
        epoch_us.push(median(&times.epoch_us));
        let expected = first.get_or_insert_with(|| outcomes.clone());
        tally.record(
            (*expected != outcomes).then(|| "history decisions changed between replays".to_owned()),
        );
    }
    metrics.set("partition.apply_deltas_us_2k", min(&apply_us));
    metrics.set("partition.epoch_us_2k", min(&epoch_us));
}

pub fn run(args: &RunArgs, reference: &Reference) -> Finished {
    let mut tracer = Tracer::new(false);
    let mut metrics = Metrics::default();
    let mut notes = vec!["work unit: one partitioning decision".to_owned()];

    let (state, setups, mut tally) = repeat_setup(
        args.setup_reps(),
        reference,
        |tally| setup(args, tally),
        drop,
    );

    let mut seen = Seen::default();
    let (measured, untraced) = windows(args, &mut tracer, |seconds, tracer| {
        seen = Seen::default();
        measure(seconds, args.min_passes(), reference, |i| {
            tracer.set_pass(i);
            pass(&state, &mut tally, tracer, &mut seen)
        })
    });
    match untraced {
        Some(untraced) => {
            trace_overhead(
                &mut metrics,
                "partition.decisions_per_s",
                reference,
                &untraced,
                &measured,
                &tracer,
            );
            metrics.set("partition.epoch_us_138", min(&seen.epoch_us_138));
            metrics.set("partition.candidates", seen.candidates_138);
            metrics.set("partition.decisions", measured.fastest().1);
            history_rung(args, &mut metrics, &mut tally, &mut tracer);
        }
        None => {
            notes.push(measured.summary(reference));
            end_to_end(&mut metrics, reference, &setups, &measured);
        }
    }

    Finished {
        metrics,
        tally,
        tracer,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HistoryShape {
        HistoryShape {
            classes: 60,
            neighbours: 3,
            epochs: 4,
            interactions_per_epoch: 20,
            updates_per_epoch: 5,
        }
    }

    #[test]
    fn same_seed_same_history_and_seeds_differ() {
        assert_eq!(delta_history(9, &small()), delta_history(9, &small()));
        assert_ne!(delta_history(9, &small()), delta_history(10, &small()));
    }

    #[test]
    fn every_seed_has_the_same_counts_and_no_self_interaction() {
        for seed in 0..10 {
            let history = delta_history(seed, &small());
            assert_eq!(history.len(), 4);
            assert_eq!(history[0].len(), 60 + 60 * 3);
            for batch in &history[1..] {
                assert_eq!(batch.len(), 25);
            }
            for delta in history.iter().flatten() {
                if let GraphDelta::Interaction { a, b, .. } = delta {
                    assert_ne!(a, b);
                    assert!(a.0 < 60 && b.0 < 60);
                }
            }
        }
    }

    #[test]
    fn replaying_a_history_twice_decides_the_same() {
        let history = delta_history(3, &small());
        assert_eq!(replay_history(&history).0, replay_history(&history).0);
        assert_eq!(replay_history(&history).0.len(), 4);
    }
}
