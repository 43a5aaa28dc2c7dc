//! The partitioning module: candidate generation plus policy selection.
//!
//! Thin orchestration over [`aide_graph`]: snapshot the monitor's execution
//! graph, run the modified-MINCUT heuristic, let the configured policy pick
//! the best feasible candidate, and time the whole decision (the paper
//! reports ≈0.1 s for JavaNote's 138-class graph on a 600 MHz Pentium).
//!
//! Both the modified-MINCUT plan and its policy sweep visit each edge a
//! bounded number of times, O((V + E) log V) per decision; the
//! memory-density sweep is O(V² + E) and its materialized candidates are
//! scored from scratch, O(V · (V + E)).
//!
//! [`IncrementalPartitioner`] is the epoch-driven variant the platform
//! runs: it maintains the execution graph from [`GraphDelta`] batches
//! (O(delta) per epoch instead of a from-scratch rebuild), runs the
//! plan-based heuristic, and skips whole epochs when churn since the last
//! decision stays below a threshold (the dirty-region shortcut). Decisions
//! are bit-identical to the classic [`decide_with`] pipeline on the same
//! graph: both run one candidate step.
//!
//! [`IncrementalPartitioner::decide`] is the decision epoch itself, from a
//! trigger's [`TriggerSample`] to its verdict, with the flight-recorder
//! events that explain it. The live platform, the trace-driven emulator
//! and the strict replayer all run it; migration, spans and timestamps stay
//! with each of them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_graph::{
    density_candidates, plan_candidates, ChurnSummary, ExecutionGraph, GraphDelta,
    IncrementalGraph, PartitionPolicy, ResourceSnapshot, SelectedPartition,
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
    /// The graph the decision was computed over.
    pub graph: ExecutionGraph,
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
    let start = Instant::now();
    let (selection, candidates_evaluated) = select(&graph, snapshot, policy, heuristic);
    PartitionDecision {
        selection,
        candidates_evaluated,
        elapsed: start.elapsed(),
        graph,
    }
}

/// The candidate step of every decision: candidates from `heuristic`, then
/// the policy's selection, and how many candidates there were. The
/// modified-MINCUT sweep is planned and swept without materializing its
/// candidates ([`PartitionPolicy::select_plan`]); the density sweep's
/// candidates are materialized and go through [`PartitionPolicy::select`].
fn select(
    graph: &ExecutionGraph,
    snapshot: ResourceSnapshot,
    policy: &dyn PartitionPolicy,
    heuristic: HeuristicKind,
) -> (Option<SelectedPartition>, usize) {
    match heuristic {
        HeuristicKind::ModifiedMincut => {
            let plan = plan_candidates(graph);
            (policy.select_plan(graph, snapshot, &plan), plan.len())
        }
        HeuristicKind::MemoryDensity => {
            let candidates = density_candidates(graph);
            (
                policy.select(graph, snapshot, &candidates),
                candidates.len(),
            )
        }
    }
}

/// Tuning for the [`IncrementalPartitioner`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct PartitionerConfig {
    /// Skip an evaluation epoch when the weight-equivalent churn since the
    /// last evaluated epoch is below this threshold (and nothing structural
    /// changed). `0` — the default — never skips, matching the classic
    /// evaluate-every-trigger behavior.
    pub churn_threshold: u64,
}

/// The outcome of one [`IncrementalPartitioner::epoch`].
#[derive(Debug)]
pub struct EpochDecision {
    /// The selected partitioning, or `None` when the epoch was skipped or
    /// the policy judged no candidate feasible and beneficial.
    pub selection: Option<SelectedPartition>,
    /// Whether the dirty-region shortcut skipped evaluation entirely.
    pub skipped: bool,
    /// Number of candidate partitionings the heuristic produced (0 when
    /// skipped).
    pub candidates_evaluated: usize,
    /// Wall-clock time the evaluation took (zero when skipped).
    pub elapsed: Duration,
    /// Churn accumulated since the last evaluated epoch, as seen by this
    /// epoch's skip decision.
    pub churn: ChurnSummary,
}

/// Epoch-driven partitioning over an incrementally maintained graph.
///
/// Feed it the monitor's drained [`GraphDelta`] batches with
/// [`apply_deltas`](IncrementalPartitioner::apply_deltas), then ask for a
/// decision with [`epoch`](IncrementalPartitioner::epoch). Between epochs
/// the graph stays warm, so an epoch rebuilds nothing and materializes no
/// candidate: the heuristic and the policy each visit a moved node's own
/// edges only, O((V + E) log V) for the epoch.
pub struct IncrementalPartitioner {
    config: PartitionerConfig,
    inc: IncrementalGraph,
    /// Whether at least one epoch has actually been evaluated (the shortcut
    /// never skips the first evaluation).
    evaluated_once: bool,
    epochs: Arc<aide_telemetry::Counter>,
    epochs_skipped: Arc<aide_telemetry::Counter>,
    deltas_applied: Arc<aide_telemetry::Counter>,
    eval_micros: Arc<aide_telemetry::Histogram>,
}

impl std::fmt::Debug for IncrementalPartitioner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalPartitioner")
            .field("config", &self.config)
            .field("nodes", &self.inc.graph().node_count())
            .field("evaluated_once", &self.evaluated_once)
            .finish()
    }
}

impl IncrementalPartitioner {
    /// Creates an empty incremental partitioner.
    pub fn new(config: PartitionerConfig) -> Self {
        IncrementalPartitioner::with_graph(config, IncrementalGraph::new())
    }

    /// Creates a partitioner over an existing incremental graph.
    pub fn with_graph(config: PartitionerConfig, inc: IncrementalGraph) -> Self {
        let telemetry = aide_telemetry::global();
        IncrementalPartitioner {
            config,
            inc,
            evaluated_once: false,
            epochs: telemetry.counter(aide_telemetry::names::PARTITION_EPOCHS),
            epochs_skipped: telemetry.counter(aide_telemetry::names::PARTITION_EPOCHS_SKIPPED),
            deltas_applied: telemetry.counter(aide_telemetry::names::GRAPH_DELTAS_APPLIED),
            eval_micros: telemetry.histogram(
                aide_telemetry::names::PARTITION_EVAL_MICROS,
                aide_telemetry::buckets::LATENCY_MICROS,
            ),
        }
    }

    /// The active tuning.
    pub fn config(&self) -> PartitionerConfig {
        self.config
    }

    /// The maintained execution graph.
    pub fn graph(&self) -> &ExecutionGraph {
        self.inc.graph()
    }

    /// Churn accumulated since the last evaluated epoch.
    pub fn pending_churn(&self) -> ChurnSummary {
        self.inc.churn()
    }

    /// Applies a batch of monitor deltas in O(delta).
    pub fn apply_deltas(&mut self, deltas: &[GraphDelta]) {
        self.inc.apply_all(deltas);
        self.deltas_applied.add(deltas.len() as u64);
    }

    /// Runs one decision epoch with the modified-MINCUT heuristic.
    ///
    /// When churn since the last evaluated epoch is below the configured
    /// threshold (and nothing structural changed), the epoch is skipped
    /// outright: the churn keeps accumulating so a later epoch sees the
    /// full backlog. Otherwise the plan-based heuristic runs and the policy
    /// sweeps the plan — producing exactly the selection the classic
    /// [`decide_with`] pipeline would make on this graph.
    pub fn epoch(
        &mut self,
        snapshot: ResourceSnapshot,
        policy: &dyn PartitionPolicy,
    ) -> EpochDecision {
        self.evaluate(snapshot, policy, HeuristicKind::ModifiedMincut)
    }

    /// The decision epoch of a fired trigger: applies the sample's deltas,
    /// decides under `heuristic`, and hands `record` the events that explain
    /// the verdict — `TriggerFired`, then `EpochSkipped`, or
    /// `CandidatesEvaluated` followed by `OffloadDeclined` or
    /// `WinnerChosen`. The caller stamps the events, acts on the verdict
    /// and resets its trigger.
    pub fn decide(
        &mut self,
        sample: &TriggerSample,
        policy: &dyn PartitionPolicy,
        heuristic: HeuristicKind,
        record: &mut dyn FnMut(PlatformEvent),
    ) -> EpochDecision {
        record(PlatformEvent::TriggerFired {
            at_gc_cycle: sample.at_gc_cycle,
            heap_used: sample.snapshot.heap_used,
            heap_capacity: sample.snapshot.heap_capacity,
            reason: sample.reason.clone(),
        });
        self.apply_deltas(&sample.deltas);
        let decision = self.evaluate(sample.snapshot, policy, heuristic);
        if decision.skipped {
            record(PlatformEvent::EpochSkipped {
                churn_weight: decision.churn.weight,
                threshold: self.config.churn_threshold,
            });
            return decision;
        }
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

    fn evaluate(
        &mut self,
        snapshot: ResourceSnapshot,
        policy: &dyn PartitionPolicy,
        heuristic: HeuristicKind,
    ) -> EpochDecision {
        let churn = self.inc.churn();
        if self.evaluated_once && !churn.structural && churn.weight < self.config.churn_threshold {
            self.epochs_skipped.inc();
            return EpochDecision {
                selection: None,
                skipped: true,
                candidates_evaluated: 0,
                elapsed: Duration::ZERO,
                churn,
            };
        }
        let start = Instant::now();
        let (selection, candidates_evaluated) =
            select(self.inc.graph(), snapshot, policy, heuristic);
        let elapsed = start.elapsed();
        self.inc.take_churn();
        self.evaluated_once = true;
        self.epochs.inc();
        self.eval_micros
            .observe(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        EpochDecision {
            selection,
            skipped: false,
            candidates_evaluated,
            elapsed,
            churn,
        }
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

        let mut part = IncrementalPartitioner::new(PartitionerConfig::default());
        part.apply_deltas(&graph_deltas());
        assert_eq!(part.graph(), &graph());

        let epoch = part.epoch(snapshot, &policy);
        let classic = decide_with(graph(), snapshot, &policy, HeuristicKind::ModifiedMincut);
        assert!(!epoch.skipped);
        assert_eq!(epoch.candidates_evaluated, classic.candidates_evaluated);
        assert_eq!(epoch.selection, classic.selection);
    }

    /// `decide` runs the heuristic it is asked for, on a graph where the
    /// two sweeps choose differently, and reports the epoch as the
    /// platform records it.
    #[test]
    fn decide_runs_the_requested_heuristic_and_reports_the_epoch() {
        let mut g = ExecutionGraph::new();
        let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
        let [a, b, c] = [("A", 4), ("B", 3), ("C", 1)].map(|(label, mb)| {
            let id = g.add_node(NodeInfo::new(label));
            g.node_mut(id).memory_bytes = mb * 1_000_000;
            id
        });
        for (x, bytes) in [(ui, 100), (a, 100), (b, 300)] {
            g.record_interaction(x, c, EdgeInfo::new(bytes / 10, bytes));
        }
        let sample = TriggerSample {
            at_gc_cycle: 3,
            reason: "memory-pressure".into(),
            snapshot: ResourceSnapshot::new(6_000_000, 5_900_000),
            deltas: Vec::new(),
            keys: Vec::new(),
        };
        let policy = MemoryPolicy::new(0.2);
        let offloaded = [HeuristicKind::ModifiedMincut, HeuristicKind::MemoryDensity].map(|h| {
            let inc = IncrementalGraph::from_graph(g.clone());
            let mut part = IncrementalPartitioner::with_graph(PartitionerConfig::default(), inc);
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

    #[test]
    fn churn_threshold_skips_quiet_epochs() {
        let snapshot = ResourceSnapshot::new(100_000_000, 90_000_000);
        let policy = MemoryPolicy::new(0.9);
        let config = PartitionerConfig {
            churn_threshold: 1_000,
        };
        let mut part = IncrementalPartitioner::new(config);
        part.apply_deltas(&graph_deltas());

        // The first epoch always evaluates, even though AddNode churn is
        // structural anyway.
        let first = part.epoch(snapshot, &policy);
        assert!(!first.skipped);

        // Tiny churn below the threshold: skip.
        part.apply_deltas(&[GraphDelta::Interaction {
            a: aide_graph::NodeId(0),
            b: aide_graph::NodeId(1),
            delta: EdgeInfo::new(1, 50),
        }]);
        let quiet = part.epoch(snapshot, &policy);
        assert!(quiet.skipped);
        assert!(quiet.selection.is_none());
        assert_eq!(quiet.candidates_evaluated, 0);
        assert_eq!(quiet.churn.weight, 51);

        // Churn accumulates across skipped epochs; once the running total
        // crosses the threshold the backlog forces an evaluation.
        part.apply_deltas(&[GraphDelta::Interaction {
            a: aide_graph::NodeId(0),
            b: aide_graph::NodeId(1),
            delta: EdgeInfo::new(9, 991),
        }]);
        let loud = part.epoch(snapshot, &policy);
        assert!(!loud.skipped);
        assert_eq!(loud.churn.weight, 51 + 1_000);

        // Evaluation resets the backlog.
        assert_eq!(part.pending_churn(), ChurnSummary::default());
    }

    #[test]
    fn structural_churn_always_forces_evaluation() {
        let snapshot = ResourceSnapshot::new(100_000_000, 90_000_000);
        let policy = MemoryPolicy::new(0.9);
        let config = PartitionerConfig {
            churn_threshold: u64::MAX,
        };
        let mut part = IncrementalPartitioner::new(config);
        part.apply_deltas(&graph_deltas());
        part.epoch(snapshot, &policy);

        part.apply_deltas(&[GraphDelta::AddNode {
            label: "New".into(),
            pinned: None,
            memory_bytes: 10,
            cpu_micros: 0,
            live_objects: 1,
        }]);
        let epoch = part.epoch(snapshot, &policy);
        assert!(!epoch.skipped, "node addition must invalidate the shortcut");
        assert!(epoch.churn.structural);
    }

    #[test]
    fn zero_threshold_never_skips() {
        let snapshot = ResourceSnapshot::new(100_000_000, 90_000_000);
        let policy = MemoryPolicy::new(0.9);
        let mut part = IncrementalPartitioner::new(PartitionerConfig::default());
        part.apply_deltas(&graph_deltas());
        part.epoch(snapshot, &policy);
        // No deltas at all — churn weight 0 is still not < threshold 0.
        let epoch = part.epoch(snapshot, &policy);
        assert!(!epoch.skipped);
    }

    #[test]
    fn partitioner_config_serde_round_trips() {
        let config = PartitionerConfig {
            churn_threshold: 4_096,
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: PartitionerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(config, back);
        // Missing fields fall back to the never-skip default.
        let empty: PartitionerConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, PartitionerConfig::default());
    }
}
