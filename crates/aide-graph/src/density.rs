//! An alternative partitioning heuristic (paper §8: "We also plan to study
//! additional partitioning heuristics besides the modified MINCUT approach
//! that is currently being used").
//!
//! The *memory-density* heuristic greedily offloads the node with the best
//! ratio of memory freed to communication added: at each step it moves the
//! unpinned node whose `memory_bytes / (marginal cut weight + 1)` is
//! largest, recording every intermediate partitioning. Where the modified
//! MINCUT sweep orders nodes by connectivity to the *client* (pulling hot
//! nodes home), density ordering chases memory directly — it reaches
//! memory-feasible candidates in fewer moves but may cut hotter edges.
//! `ablate_mincut` compares the two on JavaNote's graph.

use crate::graph::{ExecutionGraph, NodeId};
use crate::heuristic::CandidateSequence;
use crate::partition::{Partitioning, Side};

/// Runs the memory-density heuristic over `graph`.
///
/// Candidates are emitted from least-offloaded (one node) to
/// most-offloaded (every unpinned node), mirroring the greedy order in
/// which nodes are chosen. Pinned nodes always stay on the client. Each
/// node's marginal cut is kept up to date as nodes move (O(degree) per
/// move), and each step scans the remaining nodes once, so the sweep is
/// O(V² + E).
///
/// # Examples
///
/// ```
/// use aide_graph::{density_candidates, EdgeInfo, ExecutionGraph, NodeInfo, PinReason};
///
/// let mut g = ExecutionGraph::new();
/// let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
/// let big = g.add_node(NodeInfo::new("BigColdBuffer"));
/// let hot = g.add_node(NodeInfo::new("HotHelper"));
/// g.node_mut(big).memory_bytes = 1_000_000;
/// g.node_mut(hot).memory_bytes = 1_000;
/// g.record_interaction(ui, hot, EdgeInfo::new(10_000, 1_000_000));
/// g.record_interaction(hot, big, EdgeInfo::new(10, 100));
///
/// let seq = density_candidates(&g);
/// // The first (single-node) candidate offloads the dense cold buffer.
/// let first = &seq.candidates()[0];
/// assert!(!first.is_client(big));
/// assert!(first.is_client(hot));
/// ```
pub fn density_candidates(graph: &ExecutionGraph) -> CandidateSequence {
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
    // added[v]: the marginal cut change if `v` moves. Edges to client-side
    // nodes join the cut and edges to offloaded nodes leave it, so it starts
    // as v's total incident weight and loses 2·w whenever a neighbour across
    // an edge of weight w moves. Integer sums: equal to a fresh recount.
    let mut added: Vec<i128> = graph
        .node_ids()
        .map(|v| {
            graph
                .neighbors(v)
                .map(|(_, e)| i128::from(e.weight()))
                .sum()
        })
        .collect();

    for _ in 0..unpinned.len() {
        let best = unpinned
            .iter()
            .filter(|v| !offloaded[v.index()])
            .map(|&v| {
                let density =
                    graph.node(v).memory_bytes as f64 / (added[v.index()].max(0) as f64 + 1.0);
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
        for (nb, e) in graph.neighbors(best) {
            added[nb.index()] -= 2 * i128::from(e.weight());
        }
        current.set_side(best, Side::Surrogate);
        move_order.push(best);
        candidates.push(current.clone());
    }

    CandidateSequence::from_parts(candidates, move_order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeInfo, NodeInfo, PinReason};

    fn bytes(b: u64) -> EdgeInfo {
        EdgeInfo::new(0, b)
    }

    #[test]
    fn empty_and_pinned_graphs_yield_nothing() {
        let g = ExecutionGraph::new();
        assert!(density_candidates(&g).is_empty());

        let mut g = ExecutionGraph::new();
        let a = g.add_node(NodeInfo::pinned("A", PinReason::NativeMethods));
        let b = g.add_node(NodeInfo::pinned("B", PinReason::NativeMethods));
        g.record_interaction(a, b, bytes(5));
        assert!(density_candidates(&g).is_empty());
    }

    #[test]
    fn dense_cold_memory_is_offloaded_first() {
        let mut g = ExecutionGraph::new();
        let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
        let cold = g.add_node(NodeInfo::new("Cold"));
        let hot = g.add_node(NodeInfo::new("Hot"));
        g.node_mut(cold).memory_bytes = 500_000;
        g.node_mut(hot).memory_bytes = 400_000;
        g.record_interaction(ui, hot, bytes(1_000_000)); // hot is expensive to move
        g.record_interaction(ui, cold, bytes(10));
        let seq = density_candidates(&g);
        assert_eq!(seq.move_order()[0], cold);
        assert_eq!(seq.move_order()[1], hot);
    }

    #[test]
    fn every_candidate_keeps_pinned_nodes_home() {
        let mut g = ExecutionGraph::new();
        let p = g.add_node(NodeInfo::pinned("P", PinReason::Explicit));
        for i in 0..6 {
            let n = g.add_node(NodeInfo::new(format!("N{i}")));
            g.node_mut(n).memory_bytes = 100 * (i + 1);
            g.record_interaction(p, n, bytes(i + 1));
        }
        let seq = density_candidates(&g);
        assert_eq!(seq.len(), 6);
        for cand in seq.iter() {
            assert!(cand.is_client(p));
        }
        // Offloaded counts grow one at a time.
        let counts: Vec<usize> = seq.iter().map(|c| c.offloaded_count()).collect();
        assert_eq!(counts, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn clustered_nodes_follow_each_other() {
        // Once half a heavy cluster moves, moving the rest REMOVES cut
        // weight, so density favors completing the cluster.
        let mut g = ExecutionGraph::new();
        let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
        let a = g.add_node(NodeInfo::new("ClusterA"));
        let b = g.add_node(NodeInfo::new("ClusterB"));
        let lone = g.add_node(NodeInfo::new("Lone"));
        g.node_mut(a).memory_bytes = 1_000_000;
        g.node_mut(b).memory_bytes = 200_000;
        g.node_mut(lone).memory_bytes = 250_000;
        g.record_interaction(a, b, bytes(800_000));
        g.record_interaction(ui, b, bytes(50));
        g.record_interaction(ui, lone, bytes(40));
        let seq = density_candidates(&g);
        // The lone node is densest (tiny cut). Then A (its huge edge makes
        // it expensive, but it carries the most memory) — and once A has
        // moved, B's marginal cut is *negative* (moving it removes the A-B
        // edge), so B follows its cluster immediately.
        assert_eq!(seq.move_order(), &[lone, a, b]);
    }
}
