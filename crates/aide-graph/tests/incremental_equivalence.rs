//! Equivalence properties locking the incremental execution graph to the
//! classic from-scratch pipeline.
//!
//! For arbitrary delta streams, the incrementally maintained graph must be
//! *indistinguishable* from a graph rebuilt from scratch out of the same
//! history: same nodes, edges, and annotations; identical candidate
//! sequences out of the heuristic; and the same policy winner. These tests
//! are the contract that lets the platform adopt O(delta) maintenance
//! without re-validating every decision downstream.
//! Each runs on [`support::CASES`] seeded random delta streams.

mod support;

use aide_graph::{
    candidate_partitionings, plan_candidates, EdgeInfo, ExecutionGraph, GraphDelta,
    IncrementalGraph, MemoryPolicy, NodeId, NodeInfo, PartitionPolicy, PinReason, ResourceSnapshot,
};
use support::{for_each_case, Rng};

/// A random delta stream of up to 80 operations. Node indices wrap into the
/// node count as it evolves, so every stream is valid; node-referencing
/// operations before the first add are dropped. Weights: add 3, update 3,
/// pin 1, interact 6, remove 1.
fn random_deltas(rng: &mut Rng) -> Vec<GraphDelta> {
    let mut deltas = Vec::new();
    let mut count = 0u64;
    for _ in 0..rng.below(80) {
        let op = rng.below(14);
        if op < 3 {
            deltas.push(GraphDelta::AddNode {
                label: format!("C{count}"),
                pinned: rng.flip().then_some(PinReason::NativeMethods),
                memory_bytes: rng.below(1_000_000),
                cpu_micros: rng.below(100_000),
                live_objects: rng.below(100),
            });
            count += 1;
            continue;
        }
        if count == 0 {
            continue;
        }
        let node = NodeId(rng.below(count) as u32);
        deltas.push(match op {
            3..=5 => GraphDelta::UpdateNode {
                node,
                memory_bytes: rng.below(1_000_000),
                cpu_micros: rng.below(100_000),
                live_objects: rng.below(100),
            },
            6 => GraphDelta::SetPinned {
                node,
                pinned: rng.flip().then_some(PinReason::Explicit),
            },
            7..=12 => GraphDelta::Interaction {
                a: node,
                b: NodeId(rng.below(count) as u32),
                delta: EdgeInfo::new(rng.below(1_000), rng.below(100_000)),
            },
            _ => GraphDelta::RemoveNode { node },
        });
    }
    deltas
}

/// The reference: replay the same history into an [`ExecutionGraph`]
/// through its direct mutation API, with no incremental bookkeeping.
fn rebuild_from_scratch(deltas: &[GraphDelta]) -> ExecutionGraph {
    let mut g = ExecutionGraph::new();
    for d in deltas {
        match d {
            GraphDelta::AddNode {
                label,
                pinned,
                memory_bytes,
                cpu_micros,
                live_objects,
            } => {
                let id = match pinned {
                    Some(reason) => g.add_node(NodeInfo::pinned(label.clone(), *reason)),
                    None => g.add_node(NodeInfo::new(label.clone())),
                };
                let info = g.node_mut(id);
                info.memory_bytes = *memory_bytes;
                info.cpu_micros = *cpu_micros;
                info.live_objects = *live_objects;
            }
            GraphDelta::UpdateNode {
                node,
                memory_bytes,
                cpu_micros,
                live_objects,
            } => {
                let info = g.node_mut(*node);
                info.memory_bytes = *memory_bytes;
                info.cpu_micros = *cpu_micros;
                info.live_objects = *live_objects;
            }
            GraphDelta::SetPinned { node, pinned } => {
                g.node_mut(*node).pinned = *pinned;
            }
            GraphDelta::Interaction { a, b, delta } => {
                g.record_interaction(*a, *b, *delta);
            }
            GraphDelta::RemoveNode { node } => {
                let _ = g.clear_node(*node);
            }
        }
    }
    g
}

/// The incremental graph equals a from-scratch rebuild of the same history.
#[test]
fn incremental_graph_equals_from_scratch_rebuild() {
    for_each_case(|rng| {
        let deltas = random_deltas(rng);
        let mut inc = IncrementalGraph::new();
        inc.apply_all(&deltas);
        let reference = rebuild_from_scratch(&deltas);
        assert_eq!(inc.graph(), &reference);
    });
}

/// The plan over the warm incremental graph produces exactly the candidate
/// sequence (placements AND move order) of the classic from-scratch
/// pipeline.
#[test]
fn cached_plan_produces_identical_candidate_sequences() {
    for_each_case(|rng| {
        let deltas = random_deltas(rng);
        let mut inc = IncrementalGraph::new();
        inc.apply_all(&deltas);
        let reference = rebuild_from_scratch(&deltas);

        let plan = plan_candidates(inc.graph());
        let classic = candidate_partitionings(&reference);

        assert_eq!(plan.move_order(), classic.move_order());
        assert_eq!(plan.materialize().candidates(), classic.candidates());
    });
}

/// Random per-candidate reconstruction: `plan.candidate(i)` matches the
/// i-th materialized placement, so the plan sweep's winner is the
/// placement a sweep of the sequence would return.
#[test]
fn plan_candidate_reconstruction_matches_materialization() {
    for_each_case(|rng| {
        // Streams that leave nothing to offload are drawn again.
        let plan = loop {
            let mut inc = IncrementalGraph::new();
            inc.apply_all(&random_deltas(rng));
            let plan = plan_candidates(inc.graph());
            if !plan.is_empty() {
                break plan;
            }
        };
        let i = rng.index(plan.len());
        assert_eq!(plan.candidate(i), plan.materialize().candidates()[i]);
    });
}

/// The policy winner over the incremental plan is the winner over the
/// classic sequence — same placement, same stats, bit-identical score.
#[test]
fn policy_winner_is_identical_on_both_pipelines() {
    for_each_case(|rng| {
        let deltas = random_deltas(rng);
        let mut inc = IncrementalGraph::new();
        inc.apply_all(&deltas);
        let reference = rebuild_from_scratch(&deltas);

        let policy = MemoryPolicy::new(rng.range(1, 60) as f64 / 100.0);
        let heap = rng.range(500_000, 4_000_000);
        let snapshot = ResourceSnapshot::new(heap, heap - heap / 20);

        let plan = plan_candidates(inc.graph());
        let from_plan = policy.select_plan(inc.graph(), snapshot, &plan);
        let classic = policy.select(&reference, snapshot, &candidate_partitionings(&reference));

        assert_eq!(from_plan, classic);
        if let (Some(a), Some(b)) = (&from_plan, &classic) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    });
}
