//! Equivalence properties locking the delta-maintained execution graph to
//! the classic from-scratch pipeline.
//!
//! For arbitrary delta streams, the graph maintained by
//! [`ExecutionGraph::apply`] must be *indistinguishable* from a graph
//! rebuilt from scratch out of the same history: same nodes, edges, and
//! annotations; identical candidate plans out of both heuristics; and the
//! same policy winner as the from-scratch reference fold. These tests
//! are the contract that lets the platform adopt O(delta) maintenance
//! without re-validating every decision downstream.
//! Each runs on [`support::CASES`] seeded random delta streams.

mod support;

use aide_graph::{
    density_candidates, plan_candidates, CandidatePlan, CombinedPolicy, CommParams, CpuPolicy,
    EdgeInfo, ExecutionGraph, GraphDelta, MemoryPolicy, NodeId, NodeInfo, PartitionPolicy,
    PinReason, PredictedTime, ResourceSnapshot, Side,
};
use support::{candidates, for_each_case, select_from_scratch, Rng};

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
/// through its direct mutation API.
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

/// Both heuristics' plans over `g`.
fn plans(g: &ExecutionGraph) -> [CandidatePlan; 2] {
    [plan_candidates(g), density_candidates(g)]
}

/// The delta-maintained graph equals a from-scratch rebuild of the same
/// history.
#[test]
fn incremental_graph_equals_from_scratch_rebuild() {
    for_each_case(|rng| {
        let deltas = random_deltas(rng);
        let mut g = ExecutionGraph::new();
        g.apply_all(&deltas);
        assert_eq!(g, rebuild_from_scratch(&deltas));
    });
}

/// Both heuristics' plans over the warm graph produce exactly the candidates
/// (placements AND move order) of the plans over the from-scratch rebuild.
#[test]
fn cached_plan_produces_identical_candidate_sequences() {
    for_each_case(|rng| {
        let deltas = random_deltas(rng);
        let mut g = ExecutionGraph::new();
        g.apply_all(&deltas);
        let reference = rebuild_from_scratch(&deltas);

        for (plan, classic) in plans(&g).iter().zip(&plans(&reference)) {
            assert_eq!(plan.move_order(), classic.move_order());
            assert_eq!(candidates(plan), candidates(classic));
        }
    });
}

/// Random per-candidate reconstruction: `plan.candidate(i)` is the
/// placement the move order describes. Under modified MINCUT a node is on
/// the client iff it is pinned or among the first `seed + i` moves; under
/// memory density it is offloaded iff it is among the first `1 + i` picks.
#[test]
fn plan_candidate_reconstruction_matches_materialization() {
    for_each_case(|rng| {
        // Streams that leave nothing to offload are drawn again.
        let (g, [mincut, density]) = loop {
            let mut g = ExecutionGraph::new();
            g.apply_all(&random_deltas(rng));
            let plans = plans(&g);
            if !plans[0].is_empty() {
                break (g, plans);
            }
        };
        let seed = mincut.move_order().len() - mincut.moves().len();
        let i = rng.index(mincut.len());
        let pulled = &mincut.move_order()[..seed + i];
        for v in g.node_ids() {
            let home = g.node(v).is_pinned() || pulled.contains(&v);
            assert_eq!(mincut.candidate(i).is_client(v), home, "mincut {v}");
        }
        let i = rng.index(density.len());
        let pushed = &density.move_order()[..1 + i];
        for v in g.node_ids() {
            let side = density.candidate(i).side(v);
            assert_eq!(side == Side::Surrogate, pushed.contains(&v), "density {v}");
        }
    });
}

/// The policy winner over the warm graph is the from-scratch reference's
/// winner over the rebuilt graph — same placement, same stats,
/// bit-identical score — for both heuristics and all three policies.
#[test]
fn policy_winner_is_identical_on_both_pipelines() {
    let cpu = CpuPolicy::new(PredictedTime::new(CommParams::WAVELAN, 3.5));
    for_each_case(|rng| {
        let deltas = random_deltas(rng);
        let mut g = ExecutionGraph::new();
        g.apply_all(&deltas);
        let reference = rebuild_from_scratch(&deltas);

        let min_free = rng.range(1, 60) as f64 / 100.0;
        let policies: [Box<dyn PartitionPolicy>; 3] = [
            Box::new(MemoryPolicy::new(min_free)),
            Box::new(cpu.clone()),
            Box::new(CombinedPolicy::new(
                MemoryPolicy::new(min_free),
                cpu.clone(),
            )),
        ];
        let heap = rng.range(500_000, 4_000_000);
        let snapshot = ResourceSnapshot::new(heap, heap - heap / 20);

        for (plan, classic_plan) in plans(&g).iter().zip(&plans(&reference)) {
            for policy in &policies {
                let folded = policy.select(&g, snapshot, plan);
                let mut classic =
                    select_from_scratch(policy.as_ref(), &reference, snapshot, classic_plan);
                if policy.name() == "combined" {
                    classic = classic
                        .or_else(|| select_from_scratch(&cpu, &reference, snapshot, classic_plan));
                }
                assert_eq!(folded, classic, "policy {}", policy.name());
                if let (Some(a), Some(b)) = (&folded, &classic) {
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    });
}
