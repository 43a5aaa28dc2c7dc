//! Properties over graph construction, exact mincut, the modified-MINCUT
//! candidate sequence and the policies' selections, each checked on
//! [`support::CASES`] seeded random graphs.

mod support;

use std::collections::HashSet;

use aide_graph::{
    density_candidates, plan_candidates, stoer_wagner, CombinedPolicy, CommParams, CpuPolicy,
    EdgeInfo, ExecutionGraph, MemoryPolicy, NodeId, NodeInfo, PartitionPolicy, Partitioning,
    PinReason, PredictedTime, ResourceSnapshot, Side,
};
use support::{candidates, for_each_case, select_from_scratch, Rng};

/// `n` nodes, node 0 never pinned (so at least one candidate exists), the
/// others pinned at random when `pin_some`.
fn random_nodes(rng: &mut Rng, g: &mut ExecutionGraph, n: usize, pin_some: bool) -> Vec<NodeId> {
    (0..n)
        .map(|i| {
            if pin_some && rng.flip() && i > 0 {
                g.add_node(NodeInfo::pinned(format!("C{i}"), PinReason::NativeMethods))
            } else {
                g.add_node(NodeInfo::new(format!("C{i}")))
            }
        })
        .collect()
}

/// A spanning chain (so the graph is connected) plus up to `2n` extra
/// random edges, as `(a, b)` index pairs; self-loops are dropped.
fn random_edges(rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    for _ in 0..rng.index(n * 2) {
        let (a, b) = (rng.index(n), rng.index(n));
        if a != b {
            edges.push((a, b));
        }
    }
    edges
}

/// A connected random graph with 2..=`max_nodes` nodes and random byte
/// weights, together with its raw `(a, b, weight)` edge list.
fn random_graph(
    rng: &mut Rng,
    max_nodes: usize,
    pin_some: bool,
) -> (ExecutionGraph, Vec<(usize, usize, u64)>) {
    let n = 2 + rng.index(max_nodes - 1);
    let mut g = ExecutionGraph::new();
    let ids = random_nodes(rng, &mut g, n, pin_some);
    let mut edges = Vec::new();
    for (a, b) in random_edges(rng, n) {
        let w = rng.range(1, 1_000);
        g.record_interaction(ids[a], ids[b], EdgeInfo::new(1, w));
        edges.push((a.min(b), a.max(b), w + 1));
    }
    (g, edges)
}

/// Overwrites one node annotation with random values below `bound`.
fn annotate(rng: &mut Rng, g: &mut ExecutionGraph, bound: u64, set: impl Fn(&mut NodeInfo, u64)) {
    for id in g.node_ids().collect::<Vec<_>>() {
        set(g.node_mut(id), rng.below(bound));
    }
}

/// The exact mincut weight is a lower bound on every random cut.
#[test]
fn stoer_wagner_is_minimal() {
    for_each_case(|rng| {
        let (g, _) = random_graph(rng, 10, false);
        let exact = stoer_wagner(&g).unwrap();
        let n = g.node_count();
        // A random nontrivial cut: neither empty nor everything.
        let mask = rng.range(1, (1 << n) - 1);
        let random_cut = g.cut_weight(|v| mask & (1 << v.index()) != 0);
        assert!(
            exact.weight <= random_cut,
            "exact {} > random {}",
            exact.weight,
            random_cut
        );
    });
}

/// The reported mincut weight matches recomputation over its partition.
#[test]
fn stoer_wagner_weight_is_consistent() {
    for_each_case(|rng| {
        let (g, _) = random_graph(rng, 12, false);
        let exact = stoer_wagner(&g).unwrap();
        let side: HashSet<NodeId> = exact.partition.iter().copied().collect();
        assert!(!side.is_empty());
        assert!(side.len() < g.node_count());
        assert_eq!(exact.weight, g.cut_weight(|v| side.contains(&v)));
    });
}

/// Relabeling nodes (any permutation) leaves the exact minimum cut weight
/// unchanged.
#[test]
fn stoer_wagner_is_permutation_invariant() {
    for_each_case(|rng| {
        let n = 3 + rng.index(7);
        let edges: Vec<(usize, usize, u64)> = random_edges(rng, n)
            .into_iter()
            .map(|(a, b)| (a, b, rng.range(1, 1_000)))
            .collect();
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.index(i + 1));
        }

        // The same edge multiset twice: identity labels, permuted labels.
        let build = |map: &dyn Fn(usize) -> usize| {
            let mut g = ExecutionGraph::new();
            let ids: Vec<NodeId> = (0..n)
                .map(|i| g.add_node(NodeInfo::new(format!("C{i}"))))
                .collect();
            for &(a, b, w) in &edges {
                g.record_interaction(ids[map(a)], ids[map(b)], EdgeInfo::new(0, w));
            }
            g
        };
        let identity = build(&|i| i);
        let permuted = build(&|i| perm[i]);

        let cut_a = stoer_wagner(&identity).unwrap();
        let cut_b = stoer_wagner(&permuted).unwrap();
        assert_eq!(
            cut_a.weight, cut_b.weight,
            "permutation changed the minimum cut weight"
        );

        // And each reported weight is consistent with its own partition.
        for (g, cut) in [(&identity, &cut_a), (&permuted, &cut_b)] {
            let side: HashSet<NodeId> = cut.partition.iter().copied().collect();
            assert_eq!(cut.weight, g.cut_weight(|v| side.contains(&v)));
        }
    });
}

/// Every candidate is a complete two-partition that keeps pinned nodes on
/// the client and offloads at least one node.
#[test]
fn candidates_are_valid_partitionings() {
    for_each_case(|rng| {
        let (g, _) = random_graph(rng, 14, true);
        let pinned: Vec<NodeId> = g.pinned_nodes().collect();
        for cand in candidates(&plan_candidates(&g)) {
            assert_eq!(cand.len(), g.node_count());
            assert!(cand.offloaded_count() >= 1);
            for &p in &pinned {
                assert!(cand.is_client(p));
            }
        }
    });
}

/// Candidate offloaded-counts strictly decrease by one.
#[test]
fn candidate_sequence_shrinks_monotonically() {
    for_each_case(|rng| {
        let (g, _) = random_graph(rng, 14, true);
        let seq = candidates(&plan_candidates(&g));
        let counts: Vec<usize> = seq.iter().map(|c| c.offloaded_count()).collect();
        for w in counts.windows(2) {
            assert_eq!(w[0], w[1] + 1);
        }
        assert_eq!(counts.last(), Some(&1));
    });
}

/// The move order visits each unpinned node at most once and never moves
/// a pinned node.
#[test]
fn move_order_is_a_permutation_prefix() {
    for_each_case(|rng| {
        let (g, _) = random_graph(rng, 12, true);
        let plan = plan_candidates(&g);
        assert!(!plan.is_empty());
        let moved: HashSet<NodeId> = plan.move_order().iter().copied().collect();
        assert_eq!(moved.len(), plan.move_order().len(), "duplicate move");
        for &m in plan.move_order() {
            assert!(!g.node(m).is_pinned(), "pinned node moved");
        }
    });
}

/// On unpinned graphs, the best candidate cut is at least the exact
/// mincut: the heuristic cannot beat the optimum.
#[test]
fn heuristic_never_beats_exact_mincut() {
    for_each_case(|rng| {
        let (g, _) = random_graph(rng, 10, false);
        let exact = stoer_wagner(&g).unwrap().weight;
        let best = candidates(&plan_candidates(&g))
            .iter()
            .map(|c| g.cut_weight(|v| c.is_client(v)))
            .min()
            .expect("a graph with an unpinned node has a candidate");
        assert!(best >= exact);
    });
}

/// Partition stats conserve totals: client + offloaded memory equals the
/// graph total, for every candidate.
#[test]
fn partition_stats_conserve_memory() {
    for_each_case(|rng| {
        let (mut g, _) = random_graph(rng, 12, true);
        annotate(rng, &mut g, 1_000_000, |node, v| node.memory_bytes = v);
        let total = g.total_memory();
        for cand in candidates(&plan_candidates(&g)) {
            let s = cand.stats(&g);
            assert_eq!(s.client_memory_bytes + s.offloaded_memory_bytes, total);
        }
    });
}

/// Graph serde round-trips losslessly.
#[test]
fn graph_serde_round_trip() {
    for_each_case(|rng| {
        let (g, _) = random_graph(rng, 8, true);
        let json = serde_json::to_string(&g).unwrap();
        let back: ExecutionGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    });
}

/// cut_weight over a Partitioning equals the sum over edges recomputed
/// from the raw edge list.
#[test]
fn cut_weight_matches_manual_sum() {
    for_each_case(|rng| {
        let (g, edges) = random_graph(rng, 10, false);
        let sides: Vec<Side> = (0..g.node_count())
            .map(|_| {
                if rng.flip() {
                    Side::Surrogate
                } else {
                    Side::Client
                }
            })
            .collect();
        let p = Partitioning::from_sides(sides.clone());
        let manual: u64 = edges
            .iter()
            .filter(|&&(a, b, _)| sides[a] != sides[b])
            .map(|&(_, _, w)| w)
            .sum();
        assert_eq!(g.cut_weight(|v| p.is_client(v)), manual);
    });
}

/// The memory policy's selection is optimal: no other feasible candidate
/// has lower cut bytes.
#[test]
fn memory_policy_selects_the_optimal_feasible_candidate() {
    for_each_case(|rng| {
        let (mut g, _) = random_graph(rng, 12, true);
        annotate(rng, &mut g, 500_000, |node, v| node.memory_bytes = v);
        let min_free = rng.range(1, 60);
        let plan = plan_candidates(&g);
        assert!(!plan.is_empty());
        let heap = 1_000_000u64;
        let policy = MemoryPolicy::new(min_free as f64 / 100.0);
        let snapshot = ResourceSnapshot::new(heap, heap - heap / 100);
        let required = (heap as f64 * (min_free as f64 / 100.0)).ceil() as u64;
        match policy.select(&g, snapshot, &plan) {
            Some(sel) => {
                assert!(sel.stats.offloaded_memory_bytes >= required);
                for cand in candidates(&plan) {
                    let stats = cand.stats(&g);
                    if stats.offloaded_memory_bytes >= required {
                        assert!(sel.stats.cut.bytes <= stats.cut.bytes);
                    }
                }
            }
            None => {
                for cand in candidates(&plan) {
                    assert!(cand.stats(&g).offloaded_memory_bytes < required);
                }
            }
        }
    });
}

/// The CPU policy never selects a candidate predicted slower than local
/// execution (the beneficial-offloading gate).
#[test]
fn cpu_policy_gate_is_sound() {
    for_each_case(|rng| {
        let (mut g, _) = random_graph(rng, 12, true);
        annotate(rng, &mut g, 50_000_000, |node, v| node.cpu_micros = v);
        let plan = plan_candidates(&g);
        assert!(!plan.is_empty());
        let policy = CpuPolicy::default();
        let snapshot = ResourceSnapshot::new(1 << 20, 1 << 19);
        if let Some(sel) = policy.select(&g, snapshot, &plan) {
            let baseline = policy.predictor().unpartitioned_seconds(&g);
            assert!(
                sel.score < baseline,
                "selected {} must beat baseline {}",
                sel.score,
                baseline
            );
        }
    });
}

/// The density heuristic produces valid candidates too: complete
/// two-partitions that keep pinned nodes home and grow one node at a time.
#[test]
fn density_candidates_are_valid() {
    for_each_case(|rng| {
        let (g, _) = random_graph(rng, 14, true);
        let pinned: Vec<NodeId> = g.pinned_nodes().collect();
        let mut prev = 0usize;
        for cand in candidates(&density_candidates(&g)) {
            assert_eq!(cand.len(), g.node_count());
            for &p in &pinned {
                assert!(cand.is_client(p));
            }
            assert_eq!(cand.offloaded_count(), prev + 1);
            prev = cand.offloaded_count();
        }
    });
}

/// The one selection fold (statistics carried from candidate to candidate)
/// picks the winner of the from-scratch reference (statistics recomputed
/// for every candidate) — same placement, same stats, bit-identical score —
/// for both heuristics and every policy family the platform can run.
#[test]
fn plan_winner_matches_sequence_winner_for_every_policy() {
    let predictor = PredictedTime::new(CommParams::WAVELAN, 3.5);
    let cpu = CpuPolicy::new(predictor);
    let policies: [(&str, Box<dyn PartitionPolicy>); 3] = [
        ("memory", Box::new(MemoryPolicy::new(0.2))),
        ("cpu", Box::new(cpu.clone())),
        (
            "combined",
            Box::new(CombinedPolicy::new(MemoryPolicy::new(0.2), cpu.clone())),
        ),
    ];
    for_each_case(|rng| {
        // Memory, CPU and both edge weights vary, so all three scores do.
        let n = 2 + rng.index(11);
        let mut g = ExecutionGraph::new();
        let ids = random_nodes(rng, &mut g, n, true);
        annotate(rng, &mut g, 2_000_000, |node, v| node.memory_bytes = v);
        annotate(rng, &mut g, 20_000_000, |node, v| node.cpu_micros = v);
        for (a, b) in random_edges(rng, n) {
            let e = EdgeInfo::new(rng.range(1, 500), rng.range(1, 100_000));
            g.record_interaction(ids[a], ids[b], e);
        }

        let snapshot = ResourceSnapshot::new(4_000_000, 3_800_000);
        for plan in [plan_candidates(&g), density_candidates(&g)] {
            for (name, policy) in &policies {
                let folded = policy.select(&g, snapshot, &plan);
                let mut reference = select_from_scratch(policy.as_ref(), &g, snapshot, &plan);
                if *name == "combined" {
                    // No memory-feasible candidate: the CPU half decides.
                    reference =
                        reference.or_else(|| select_from_scratch(&cpu, &g, snapshot, &plan));
                }
                assert_eq!(folded, reference, "policy {name}");
                if let (Some(a), Some(b)) = (&folded, &reference) {
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "policy {name}");
                }
            }
        }
    });
}
