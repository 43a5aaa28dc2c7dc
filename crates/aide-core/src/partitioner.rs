//! The partitioning module: candidate generation plus policy selection.
//!
//! Thin orchestration over [`aide_graph`]: a heuristic plans its candidate
//! sweep as a [`CandidatePlan`](aide_graph::CandidatePlan), the configured
//! policy folds over it once and keeps the best feasible candidate, and the
//! whole decision is timed (the paper reports ≈0.1 s for JavaNote's
//! 138-class graph on a 600 MHz Pentium).
//!
//! The modified-MINCUT plan is O((V + E) log V) and the memory-density plan
//! O(V² + E); the fold over either visits each edge a bounded number of
//! times, O(V + E).
//!
//! [`IncrementalPartitioner`] is the epoch-driven variant the platform
//! runs: it maintains the execution graph from [`GraphDelta`] batches
//! (O(delta) per epoch instead of a from-scratch rebuild) and evaluates
//! every trigger. Its decisions are bit-identical to [`decide_with`] on the
//! same graph: both run one candidate step.
//!
//! [`IncrementalPartitioner::decide`] is the decision epoch itself, from a
//! trigger's [`TriggerSample`] to its verdict, with the flight-recorder
//! events that explain it. The live platform, the trace-driven emulator
//! and the strict replayer all run it; migration, spans and timestamps stay
//! with each of them.

use std::time::{Duration, Instant};

use aide_graph::{
    density_candidates, plan_candidates, ExecutionGraph, GraphDelta, PartitionPolicy,
    ResourceSnapshot, SelectedPartition,
};
use aide_telemetry::PlatformEvent;
use serde::{Deserialize, Serialize};

use crate::nondet::TriggerSample;

/// Which candidate-generation heuristic the partitioning module runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum HeuristicKind {
    /// The paper's modified Stoer-Wagner MINCUT sweep (§3.3).
    #[default]
    ModifiedMincut,
    /// The memory-density sweep (paper §8 "additional partitioning
    /// heuristics"; see [`aide_graph::density_candidates`]).
    MemoryDensity,
}

/// The outcome of one partitioning decision.
#[derive(Debug)]
pub struct PartitionDecision {
    /// The selected partitioning, or `None` when the policy judged that no
    /// candidate was feasible and beneficial (the application then stays
    /// on the client).
    pub selection: Option<SelectedPartition>,
    /// Number of candidate partitionings the heuristic produced.
    pub candidates_evaluated: usize,
    /// Wall-clock time the decision took.
    pub elapsed: Duration,
}

impl PartitionDecision {
    /// Returns `true` if a beneficial partitioning was found.
    pub fn should_offload(&self) -> bool {
        self.selection.is_some()
    }
}

/// Runs the full decision pipeline over a snapshot: candidates from
/// `heuristic`, then the policy's selection.
pub fn decide_with(
    graph: ExecutionGraph,
    snapshot: ResourceSnapshot,
    policy: &dyn PartitionPolicy,
    heuristic: HeuristicKind,
) -> PartitionDecision {
    select(&graph, snapshot, policy, heuristic)
}

/// The candidate step of every decision: the plan by `heuristic`, then the
/// policy's one fold over it, timed.
fn select(
    graph: &ExecutionGraph,
    snapshot: ResourceSnapshot,
    policy: &dyn PartitionPolicy,
    heuristic: HeuristicKind,
) -> PartitionDecision {
    let start = Instant::now();
    let plan = match heuristic {
        HeuristicKind::ModifiedMincut => plan_candidates(graph),
        HeuristicKind::MemoryDensity => density_candidates(graph),
    };
    PartitionDecision {
        selection: policy.select(graph, snapshot, &plan),
        candidates_evaluated: plan.len(),
        elapsed: start.elapsed(),
    }
}

/// Tuning for the [`IncrementalPartitioner`]. It has no knobs: every
/// trigger is evaluated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionerConfig;

/// Epoch-driven partitioning over an incrementally maintained graph.
///
/// Feed it the monitor's drained [`GraphDelta`] batches with
/// [`apply_deltas`](IncrementalPartitioner::apply_deltas), then ask for a
/// decision with [`epoch`](IncrementalPartitioner::epoch). Between epochs
/// the graph stays warm, so an epoch rebuilds nothing: the heuristic and
/// the policy each visit a moved node's own edges only.
pub struct IncrementalPartitioner {
    graph: ExecutionGraph,
}

impl std::fmt::Debug for IncrementalPartitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalPartitioner")
            .field("nodes", &self.graph.node_count())
            .finish()
    }
}

impl IncrementalPartitioner {
    /// Creates an empty incremental partitioner.
    pub fn new(_config: PartitionerConfig) -> Self {
        IncrementalPartitioner {
            graph: ExecutionGraph::new(),
        }
    }

    /// The maintained execution graph.
    pub fn graph(&self) -> &ExecutionGraph {
        &self.graph
    }

    /// Applies a batch of monitor deltas in O(delta).
    pub fn apply_deltas(&mut self, deltas: &[GraphDelta]) {
        self.graph.apply_all(deltas);
    }

    /// Runs one decision epoch with the modified-MINCUT heuristic:
    /// exactly the selection [`decide_with`] makes on this graph.
    pub fn epoch(
        &mut self,
        snapshot: ResourceSnapshot,
        policy: &dyn PartitionPolicy,
    ) -> PartitionDecision {
        select(&self.graph, snapshot, policy, HeuristicKind::ModifiedMincut)
    }

    /// The decision epoch of a fired trigger: applies the sample's deltas,
    /// decides under `heuristic`, and hands `record` the events that explain
    /// the verdict — `TriggerFired`, `CandidatesEvaluated`, then
    /// `OffloadDeclined` or `WinnerChosen`. The caller stamps the events,
    /// acts on the verdict and resets its trigger.
    pub fn decide(
        &mut self,
        sample: &TriggerSample,
        policy: &dyn PartitionPolicy,
        heuristic: HeuristicKind,
        record: &mut dyn FnMut(PlatformEvent),
    ) -> PartitionDecision {
        record(PlatformEvent::TriggerFired {
            at_gc_cycle: sample.at_gc_cycle,
            heap_used: sample.snapshot.heap_used,
            heap_capacity: sample.snapshot.heap_capacity,
            reason: sample.reason.clone(),
        });
        self.apply_deltas(&sample.deltas);
        let decision = select(&self.graph, sample.snapshot, policy, heuristic);
        let candidates = decision.candidates_evaluated;
        record(PlatformEvent::CandidatesEvaluated {
            candidates,
            elapsed_micros: u64::try_from(decision.elapsed.as_micros()).unwrap_or(u64::MAX),
        });
        record(match &decision.selection {
            None => PlatformEvent::OffloadDeclined { candidates },
            Some(selection) => PlatformEvent::WinnerChosen {
                policy_score: selection.score,
                offload_bytes: selection.stats.offloaded_memory_bytes,
                cut_interactions: selection.stats.cut.interactions,
            },
        });
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_graph::{EdgeInfo, MemoryPolicy, NodeInfo, PinReason};

    fn graph() -> ExecutionGraph {
        let mut g = ExecutionGraph::new();
        let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
        let doc = g.add_node(NodeInfo::new("Doc"));
        g.node_mut(doc).memory_bytes = 4_000_000;
        g.record_interaction(ui, doc, EdgeInfo::new(10, 1_000));
        g
    }

    #[test]
    fn decide_selects_when_feasible() {
        let d = decide_with(
            graph(),
            ResourceSnapshot::new(6_000_000, 5_900_000),
            &MemoryPolicy::new(0.2),
            HeuristicKind::ModifiedMincut,
        );
        assert!(d.should_offload());
        assert_eq!(d.candidates_evaluated, 1);
        assert!(d.elapsed.as_secs() < 1);
    }

    #[test]
    fn decide_with_density_also_selects() {
        let d = decide_with(
            graph(),
            ResourceSnapshot::new(6_000_000, 5_900_000),
            &MemoryPolicy::new(0.2),
            HeuristicKind::MemoryDensity,
        );
        assert!(d.should_offload());
    }

    #[test]
    fn decide_declines_when_infeasible() {
        let d = decide_with(
            graph(),
            ResourceSnapshot::new(100_000_000, 90_000_000),
            &MemoryPolicy::new(0.9),
            HeuristicKind::ModifiedMincut,
        );
        assert!(!d.should_offload());
    }

    /// Deltas that rebuild exactly the graph from [`graph`].
    fn graph_deltas() -> Vec<GraphDelta> {
        vec![
            GraphDelta::AddNode {
                label: "Ui".into(),
                pinned: Some(PinReason::NativeMethods),
                memory_bytes: 0,
                cpu_micros: 0,
                live_objects: 0,
            },
            GraphDelta::AddNode {
                label: "Doc".into(),
                pinned: None,
                memory_bytes: 4_000_000,
                cpu_micros: 0,
                live_objects: 0,
            },
            GraphDelta::Interaction {
                a: aide_graph::NodeId(0),
                b: aide_graph::NodeId(1),
                delta: EdgeInfo::new(10, 1_000),
            },
        ]
    }

    #[test]
    fn epoch_matches_the_classic_pipeline() {
        let snapshot = ResourceSnapshot::new(6_000_000, 5_900_000);
        let policy = MemoryPolicy::new(0.2);

        let mut part = IncrementalPartitioner::new(PartitionerConfig);
        part.apply_deltas(&graph_deltas());
        assert_eq!(part.graph(), &graph());

        let classic = decide_with(graph(), snapshot, &policy, HeuristicKind::ModifiedMincut);
        // Every epoch evaluates, also one that saw no deltas since the last.
        for _ in 0..2 {
            let epoch = part.epoch(snapshot, &policy);
            assert_eq!(epoch.candidates_evaluated, classic.candidates_evaluated);
            assert_eq!(epoch.selection, classic.selection);
        }
    }

    /// `decide` runs the heuristic it is asked for, on a graph where the
    /// two sweeps choose differently, and reports the epoch as the
    /// platform records it.
    #[test]
    fn decide_runs_the_requested_heuristic_and_reports_the_epoch() {
        let mut deltas: Vec<GraphDelta> = [("Ui", 0), ("A", 4), ("B", 3), ("C", 1)]
            .into_iter()
            .map(|(label, mb)| GraphDelta::AddNode {
                label: label.into(),
                pinned: (label == "Ui").then_some(PinReason::NativeMethods),
                memory_bytes: mb * 1_000_000,
                cpu_micros: 0,
                live_objects: 0,
            })
            .collect();
        for (x, bytes) in [(0, 100), (1, 100), (2, 300)] {
            deltas.push(GraphDelta::Interaction {
                a: aide_graph::NodeId(x),
                b: aide_graph::NodeId(3),
                delta: EdgeInfo::new(bytes / 10, bytes),
            });
        }
        let mut g = ExecutionGraph::new();
        g.apply_all(&deltas);
        let sample = TriggerSample {
            at_gc_cycle: 3,
            reason: "memory-pressure".into(),
            snapshot: ResourceSnapshot::new(6_000_000, 5_900_000),
            deltas,
            keys: Vec::new(),
        };
        let policy = MemoryPolicy::new(0.2);
        let offloaded = [HeuristicKind::ModifiedMincut, HeuristicKind::MemoryDensity].map(|h| {
            let mut part = IncrementalPartitioner::new(PartitionerConfig);
            let mut events = Vec::new();
            let epoch = part.decide(&sample, &policy, h, &mut |event| events.push(event));
            let classic = decide_with(g.clone(), sample.snapshot, &policy, h);
            assert_eq!(epoch.selection, classic.selection, "{h:?}");
            assert!(
                matches!(
                    events.as_slice(),
                    [
                        PlatformEvent::TriggerFired { at_gc_cycle: 3, .. },
                        PlatformEvent::CandidatesEvaluated { candidates: 3, .. },
                        PlatformEvent::WinnerChosen { .. },
                    ]
                ),
                "{h:?}: {events:?}"
            );
            let winner = classic.selection.expect("a feasible cut");
            winner.stats.offloaded_memory_bytes
        });
        assert_eq!(offloaded, [8_000_000, 4_000_000]);
    }
}
