//! The adjacency-list edge store against a plain edge map, and the
//! incremental density sweep against the full rescan it replaced, each on
//! [`support::CASES`] seeded cases.

mod support;

use std::collections::BTreeMap;

use aide_graph::{
    density_candidates, CandidateSequence, EdgeInfo, ExecutionGraph, NodeId, NodeInfo,
    Partitioning, PinReason, Side,
};
use support::{for_each_case, Rng};

type Model = BTreeMap<(NodeId, NodeId), EdgeInfo>;

fn ordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// The model's edges at `v`, as `(neighbour, statistics)` in neighbour
/// order.
fn model_neighbors(model: &Model, v: NodeId) -> Vec<(NodeId, EdgeInfo)> {
    let mut out: Vec<(NodeId, EdgeInfo)> = model
        .iter()
        .filter_map(|(&(a, b), &e)| match (a == v, b == v) {
            (true, _) => Some((b, e)),
            (_, true) => Some((a, e)),
            _ => None,
        })
        .collect();
    out.sort_by_key(|&(n, _)| n);
    out
}

fn check_against(g: &ExecutionGraph, model: &Model) {
    let edges: Vec<_> = g.edges().collect();
    let expected: Vec<_> = model.iter().map(|(&k, &e)| (k, e)).collect();
    assert_eq!(edges, expected, "edges() contents or order");
    assert_eq!(g.edge_count(), model.len());
    for v in g.node_ids() {
        let nb: Vec<_> = g.neighbors(v).collect();
        assert!(
            nb.windows(2).all(|w| w[0].0 < w[1].0),
            "neighbors({v}) unsorted"
        );
        assert_eq!(nb, model_neighbors(model, v), "neighbors({v})");
        for u in g.node_ids() {
            assert_eq!(g.edge(v, u), g.edge(u, v));
            assert_eq!(g.edge(v, u), model.get(&ordered(v, u)).copied());
        }
    }
}

/// Random `add_node` / `record_interaction` / `clear_node` sequences keep
/// the graph equal to a `BTreeMap` of its edges, and `clear_node` returns
/// exactly the edges the model drops.
#[test]
fn the_edge_store_matches_an_edge_map_model() {
    for_each_case(|rng| {
        let mut g = ExecutionGraph::new();
        let mut model = Model::new();
        for _ in 0..rng.below(120) {
            let n = g.node_count() as u64;
            match rng.below(10) {
                0..=1 => {
                    g.add_node(NodeInfo::new(format!("C{n}")));
                }
                _ if n == 0 => {}
                2..=8 => {
                    let (a, b) = (NodeId(rng.below(n) as u32), NodeId(rng.below(n) as u32));
                    let obs = EdgeInfo::new(rng.below(50), rng.below(5_000));
                    g.record_interaction(a, b, obs);
                    if a != b {
                        model.entry(ordered(a, b)).or_default().absorb(obs);
                    }
                }
                _ => {
                    let v = NodeId(rng.below(n) as u32);
                    let expected = model_neighbors(&model, v);
                    model.retain(|&(a, b), _| a != v && b != v);
                    assert_eq!(g.clear_node(v), expected, "clear_node({v})");
                }
            }
            check_against(&g, &model);
        }
    });
}

/// The memory-density sweep as it was before it kept each node's marginal
/// cut: every step rescans every remaining node's neighbours. O(V²·E).
fn density_rescan(graph: &ExecutionGraph) -> CandidateSequence {
    let n = graph.node_count();
    let unpinned: Vec<NodeId> = graph
        .iter()
        .filter(|(_, info)| !info.is_pinned())
        .map(|(id, _)| id)
        .collect();
    if n < 2 || unpinned.is_empty() {
        return CandidateSequence::empty();
    }

    let mut offloaded = vec![false; n];
    let mut current = Partitioning::all_client(graph);
    let mut candidates = Vec::with_capacity(unpinned.len());
    let mut move_order = Vec::with_capacity(unpinned.len());

    for _ in 0..unpinned.len() {
        // Marginal cut change if `v` moves: edges to client-side nodes are
        // added to the cut, edges to already-offloaded nodes are removed.
        let best = unpinned
            .iter()
            .filter(|v| !offloaded[v.index()])
            .map(|&v| {
                let mut added = 0i128;
                for (nb, e) in graph.neighbors(v) {
                    if offloaded[nb.index()] {
                        added -= i128::from(e.weight());
                    } else {
                        added += i128::from(e.weight());
                    }
                }
                let density = graph.node(v).memory_bytes as f64 / (added.max(0) as f64 + 1.0);
                (v, density)
            })
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("densities are finite")
                    .then_with(|| b.0.cmp(&a.0))
            })
            .map(|(v, _)| v)
            .expect("unpinned node remains");

        offloaded[best.index()] = true;
        current.set_side(best, Side::Surrogate);
        move_order.push(best);
        candidates.push(current.clone());
    }

    CandidateSequence::from_parts(candidates, move_order)
}

/// A graph of 0..16 nodes whose densities tie often: memory and edge
/// weights come from short lists that include zero, and a case pins none,
/// some or all of its nodes.
fn tie_prone_graph(rng: &mut Rng) -> ExecutionGraph {
    let n = rng.index(17);
    let pin_mode = rng.below(3);
    let mut g = ExecutionGraph::new();
    for i in 0..n {
        let pinned = match pin_mode {
            0 => false,
            1 => rng.below(4) == 0,
            _ => true,
        };
        let id = if pinned {
            g.add_node(NodeInfo::pinned(format!("C{i}"), PinReason::NativeMethods))
        } else {
            g.add_node(NodeInfo::new(format!("C{i}")))
        };
        g.node_mut(id).memory_bytes = rng.pick(&[0, 0, 1_000, 1_000, 4_000, 99_999]);
    }
    if n > 1 {
        for _ in 0..rng.index(n * 3) {
            let (a, b) = (NodeId(rng.index(n) as u32), NodeId(rng.index(n) as u32));
            let e = EdgeInfo::new(rng.pick(&[0, 1, 1, 3]), rng.pick(&[0, 0, 999, 3_999]));
            g.record_interaction(a, b, e);
        }
    }
    g
}

/// The incremental density sweep picks exactly what the full rescan picks,
/// candidate for candidate.
#[test]
fn density_candidates_equal_the_full_rescan() {
    for_each_case(|rng| {
        let g = tie_prone_graph(rng);
        assert_eq!(density_candidates(&g), density_rescan(&g));
    });
}
