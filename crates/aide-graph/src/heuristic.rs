//! AIDE's modified-MINCUT partitioning heuristic (paper §3.3).
//!
//! The exact Stoer–Wagner minimum cut may "simply remove a single component,
//! which may not free enough memory to satisfy the partitioning policy". The
//! modified heuristic therefore produces a *group* of approximate minimum-cut
//! partitionings: it seeds the client partition with every node that cannot
//! be offloaded (classes with native methods, host-specific static state),
//! then repeatedly moves the unpinned node with the greatest connectivity to
//! the client partition; every intermediate partitioning is a candidate. The
//! partitioning policy evaluates all candidates and keeps the best feasible
//! one — which need not be the minimum-interaction cut.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{ExecutionGraph, NodeId};
use crate::partition::{Partitioning, Side};

/// A heuristic's candidate sweep: a base placement plus the ordered node
/// moves that derive each subsequent candidate.
///
/// Candidate `i` is the base with the first `i` moves applied, each move
/// flipping its node to the other side. The plan is O(V) storage whatever
/// the candidate count, and [`PartitionPolicy::select`] scores it in
/// O(V + E) by carrying statistics from one candidate to the next.
///
/// [`plan_candidates`] pulls nodes home (the base offloads every unpinned
/// node); [`crate::density_candidates`] pushes them out (the base offloads
/// one).
///
/// [`PartitionPolicy::select`]: crate::PartitionPolicy::select
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidatePlan {
    base: Partitioning,
    /// Every node the heuristic picked, in pick order — including the
    /// seed picks already reflected in `base`.
    move_order: Vec<NodeId>,
    /// Leading entries of `move_order` already applied to `base` (0 or 1).
    seed_moves: usize,
    /// Number of candidates the plan describes.
    len: usize,
}

impl CandidatePlan {
    /// The base plus one candidate per move after the first `seed_moves`
    /// of `move_order`, which `base` already reflects.
    pub(crate) fn new(base: Partitioning, move_order: Vec<NodeId>, seed_moves: usize) -> Self {
        let len = move_order.len() - seed_moves + 1;
        CandidatePlan {
            base,
            move_order,
            seed_moves,
            len,
        }
    }

    /// No candidate: every node stays on the client.
    pub(crate) fn empty(node_count: usize) -> Self {
        CandidatePlan {
            base: Partitioning::from_sides(vec![Side::Client; node_count]),
            move_order: Vec::new(),
            seed_moves: 0,
            len: 0,
        }
    }

    /// Candidate 0.
    pub fn base(&self) -> &Partitioning {
        &self.base
    }

    /// Every node the heuristic picked, in pick order, including a seed
    /// pick already reflected in the base.
    pub fn move_order(&self) -> &[NodeId] {
        &self.move_order
    }

    /// The moves applied *after* the base placement: candidate `i` is the
    /// base with `moves()[..i]` flipped.
    pub fn moves(&self) -> &[NodeId] {
        &self.move_order[self.seed_moves..]
    }

    /// Number of candidates described by the plan.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the plan describes no candidates.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Builds candidate `index` (O(V + index)).
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn candidate(&self, index: usize) -> Partitioning {
        assert!(index < self.len, "candidate {index} out of range");
        let mut p = self.base.clone();
        for &v in &self.moves()[..index] {
            p.set_side(v, p.side(v).other());
        }
        p
    }
}

/// Runs the modified-MINCUT heuristic over `graph`.
///
/// Pinned nodes (see [`crate::NodeInfo::pinned`]) always remain on the
/// client in every candidate. If no node is pinned, the unpinned node with
/// the greatest total incident weight seeds the client partition (mirroring
/// Stoer–Wagner's arbitrary start vertex, but deterministic). Candidate 0
/// offloads every other node; each later one pulls one more node home, and
/// the last leaves exactly one offloaded, so there is one candidate per
/// unpinned node ("smaller than the number of components" evaluated by
/// exhaustive search, as the paper notes).
///
/// Candidates never offload zero nodes (that is the trivial "do not offload"
/// decision, which the policy layer takes by rejecting all candidates) and
/// never offload pinned nodes. The next node to move comes off a heap and
/// only its own edges are visited, so the plan costs O((V + E) log V).
///
/// # Examples
///
/// ```
/// use aide_graph::{plan_candidates, EdgeInfo, ExecutionGraph, NodeInfo, PinReason};
///
/// let mut g = ExecutionGraph::new();
/// let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
/// let doc = g.add_node(NodeInfo::new("Document"));
/// let idx = g.add_node(NodeInfo::new("Index"));
/// g.record_interaction(ui, doc, EdgeInfo::new(10, 100));
/// g.record_interaction(doc, idx, EdgeInfo::new(50, 5_000));
///
/// let plan = plan_candidates(&g);
/// // Two unpinned nodes -> two candidates.
/// assert_eq!(plan.len(), 2);
/// // Every candidate keeps the pinned UI class on the client.
/// assert!((0..plan.len()).all(|i| plan.candidate(i).is_client(ui)));
/// ```
pub fn plan_candidates(graph: &ExecutionGraph) -> CandidatePlan {
    let n = graph.node_count();
    if n < 2 {
        return CandidatePlan::empty(n);
    }

    // connectivity[v] = total edge weight between v and the client partition.
    let mut connectivity = vec![0u64; n];
    let mut in_client = vec![false; n];
    let mut unpinned = 0usize;

    for (id, node) in graph.iter() {
        if node.is_pinned() {
            in_client[id.index()] = true;
        } else {
            unpinned += 1;
        }
    }
    if unpinned == 0 {
        return CandidatePlan::empty(n);
    }

    for ((a, b), e) in graph.edges() {
        if in_client[a.index()] && !in_client[b.index()] {
            connectivity[b.index()] += e.weight();
        } else if in_client[b.index()] && !in_client[a.index()] {
            connectivity[a.index()] += e.weight();
        }
    }

    // With no pinned seed, start from the unpinned node with the greatest
    // total incident weight (deterministic Stoer–Wagner-style start vertex).
    let mut move_order: Vec<NodeId> = Vec::with_capacity(unpinned);
    let mut seed_moves = 0usize;
    if graph.pinned_nodes().next().is_none() {
        let seed = graph
            .node_ids()
            .max_by_key(|&v| {
                let w: u64 = graph.neighbors(v).map(|(_, e)| e.weight()).sum();
                (w, Reverse(v))
            })
            .expect("graph is nonempty");
        pull_into_client(graph, seed, &mut in_client, &mut connectivity);
        move_order.push(seed);
        seed_moves = 1;
    }

    // The base placement: pinned (+seed) on client, everything else offloaded.
    let base = Partitioning::from_sides(
        in_client
            .iter()
            .map(|&c| if c { Side::Client } else { Side::Surrogate })
            .collect(),
    );

    // Lazy-invalidation max-heap over (connectivity, smallest-id-wins).
    // Connectivity only grows during the sweep, so a popped entry is stale
    // exactly when it no longer matches the live value; the selection key
    // (connectivity, Reverse(v)) is unique per node, which makes the heap
    // order identical to a linear `max_by_key` scan.
    let mut heap: BinaryHeap<(u64, Reverse<NodeId>)> = graph
        .node_ids()
        .filter(|&v| !in_client[v.index()])
        .map(|v| (connectivity[v.index()], Reverse(v)))
        .collect();

    let mut offloaded = base.offloaded_count();
    // Move nodes one at a time until exactly one node remains offloaded.
    while offloaded > 1 {
        let next = loop {
            let (c, Reverse(v)) = heap.pop().expect("at least two nodes remain offloaded");
            if !in_client[v.index()] && connectivity[v.index()] == c {
                break v;
            }
        };
        in_client[next.index()] = true;
        for (nb, e) in graph.neighbors(next) {
            if !in_client[nb.index()] {
                connectivity[nb.index()] += e.weight();
                heap.push((connectivity[nb.index()], Reverse(nb)));
            }
        }
        move_order.push(next);
        offloaded -= 1;
    }

    CandidatePlan::new(base, move_order, seed_moves)
}

/// Moves `v` into the client partition, updating neighbour connectivity.
fn pull_into_client(
    graph: &ExecutionGraph,
    v: NodeId,
    in_client: &mut [bool],
    connectivity: &mut [u64],
) {
    debug_assert!(!in_client[v.index()]);
    in_client[v.index()] = true;
    for (nb, e) in graph.neighbors(v) {
        if !in_client[nb.index()] {
            connectivity[nb.index()] += e.weight();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeInfo, NodeInfo, PinReason};
    use crate::mincut::stoer_wagner;

    fn bytes(b: u64) -> EdgeInfo {
        EdgeInfo::new(0, b)
    }

    /// Every candidate of the modified-MINCUT plan over `g`, in order.
    fn candidates(g: &ExecutionGraph) -> Vec<Partitioning> {
        let plan = plan_candidates(g);
        (0..plan.len()).map(|i| plan.candidate(i)).collect()
    }

    #[test]
    fn empty_graph_yields_no_candidates() {
        let g = ExecutionGraph::new();
        assert!(plan_candidates(&g).is_empty());
    }

    #[test]
    fn fully_pinned_graph_yields_no_candidates() {
        let mut g = ExecutionGraph::new();
        let a = g.add_node(NodeInfo::pinned("A", PinReason::NativeMethods));
        let b = g.add_node(NodeInfo::pinned("B", PinReason::StaticState));
        g.record_interaction(a, b, bytes(5));
        assert!(plan_candidates(&g).is_empty());
    }

    #[test]
    fn candidate_count_matches_unpinned_nodes_with_pins() {
        let mut g = ExecutionGraph::new();
        let p = g.add_node(NodeInfo::pinned("P", PinReason::NativeMethods));
        let ids: Vec<NodeId> = (0..5)
            .map(|i| g.add_node(NodeInfo::new(format!("N{i}"))))
            .collect();
        for &id in &ids {
            g.record_interaction(p, id, bytes(1));
        }
        let seq = candidates(&g);
        // Candidates: 5 offloaded, 4, 3, 2, 1 -> five candidates.
        assert_eq!(seq.len(), 5);
        assert_eq!(seq[0].offloaded_count(), 5);
        assert_eq!(seq.last().unwrap().offloaded_count(), 1);
    }

    #[test]
    fn without_pins_seed_consumes_one_candidate() {
        let mut g = ExecutionGraph::new();
        let ids: Vec<NodeId> = (0..4)
            .map(|i| g.add_node(NodeInfo::new(format!("N{i}"))))
            .collect();
        g.record_interaction(ids[0], ids[1], bytes(10));
        g.record_interaction(ids[1], ids[2], bytes(10));
        g.record_interaction(ids[2], ids[3], bytes(10));
        let seq = candidates(&g);
        // Seed takes one node to the client: candidates offload 3, 2, 1.
        assert_eq!(seq.len(), 3);
        assert!(seq.iter().all(|c| c.offloaded_count() >= 1));
    }

    #[test]
    fn pinned_nodes_stay_on_client_in_every_candidate() {
        let mut g = ExecutionGraph::new();
        let native = g.add_node(NodeInfo::pinned("Gui", PinReason::NativeMethods));
        let stat = g.add_node(NodeInfo::pinned("SysProps", PinReason::StaticState));
        let ids: Vec<NodeId> = (0..6)
            .map(|i| g.add_node(NodeInfo::new(format!("N{i}"))))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            g.record_interaction(native, id, bytes(i as u64 + 1));
            g.record_interaction(stat, id, bytes(1));
        }
        for cand in candidates(&g) {
            assert!(cand.is_client(native));
            assert!(cand.is_client(stat));
        }
    }

    #[test]
    fn moves_follow_greatest_connectivity() {
        let mut g = ExecutionGraph::new();
        let p = g.add_node(NodeInfo::pinned("P", PinReason::Explicit));
        let hot = g.add_node(NodeInfo::new("Hot"));
        let warm = g.add_node(NodeInfo::new("Warm"));
        let cold = g.add_node(NodeInfo::new("Cold"));
        g.record_interaction(p, hot, bytes(1_000));
        g.record_interaction(p, warm, bytes(100));
        g.record_interaction(p, cold, bytes(1));
        assert_eq!(plan_candidates(&g).move_order(), &[hot, warm]);
        // Final candidate leaves only the coldest node offloaded.
        let seq = candidates(&g);
        let last = seq.last().unwrap();
        assert_eq!(last.offloaded_count(), 1);
        assert!(!last.is_client(cold));
    }

    #[test]
    fn connectivity_updates_consider_transitive_pull() {
        // chain P --100-- A --1000-- B : after A joins the client, B's
        // connectivity jumps past C (connected to P with 500).
        let mut g = ExecutionGraph::new();
        let p = g.add_node(NodeInfo::pinned("P", PinReason::Explicit));
        let a = g.add_node(NodeInfo::new("A"));
        let b = g.add_node(NodeInfo::new("B"));
        let c = g.add_node(NodeInfo::new("C"));
        g.record_interaction(p, a, bytes(600));
        g.record_interaction(a, b, bytes(1_000));
        g.record_interaction(p, c, bytes(500));
        assert_eq!(plan_candidates(&g).move_order(), &[a, b]);
    }

    #[test]
    fn candidate_sequence_contains_a_cut_no_worse_than_stoer_wagner_on_paths() {
        // On a path graph with a pinned endpoint, the heuristic's sweep
        // passes through the exact minimum cut.
        let mut g = ExecutionGraph::new();
        let mut prev = g.add_node(NodeInfo::pinned("P", PinReason::Explicit));
        let weights = [40, 10, 3, 70, 22];
        for (i, &w) in weights.iter().enumerate() {
            let next = g.add_node(NodeInfo::new(format!("N{i}")));
            g.record_interaction(prev, next, bytes(w));
            prev = next;
        }
        let exact = stoer_wagner(&g).unwrap().weight;
        let best = candidates(&g)
            .iter()
            .map(|c| g.cut_weight(|v| c.is_client(v)))
            .min()
            .unwrap();
        assert_eq!(best, exact);
    }

    #[test]
    fn without_pins_the_seed_is_the_node_with_the_most_incident_weight() {
        let mut g = ExecutionGraph::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| g.add_node(NodeInfo::new(format!("N{i}"))))
            .collect();
        // Incident weights: 10, 50, 45, 75, 70.
        g.record_interaction(ids[0], ids[1], bytes(10));
        g.record_interaction(ids[1], ids[2], bytes(40));
        g.record_interaction(ids[2], ids[3], bytes(5));
        g.record_interaction(ids[3], ids[4], bytes(70));
        let plan = plan_candidates(&g);
        assert_eq!(plan.move_order()[0], ids[3]);
        assert!(plan.base().is_client(ids[3]));
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn empty_plan_for_tiny_or_fully_pinned_graphs() {
        let g = ExecutionGraph::new();
        assert!(plan_candidates(&g).is_empty());
        let mut g = ExecutionGraph::new();
        let a = g.add_node(NodeInfo::pinned("A", PinReason::NativeMethods));
        let b = g.add_node(NodeInfo::pinned("B", PinReason::StaticState));
        g.record_interaction(a, b, bytes(5));
        let plan = plan_candidates(&g);
        assert!(plan.is_empty());
        assert_eq!(plan.base().len(), 2, "empty plan still covers the graph");
    }

    #[test]
    fn every_candidate_is_a_complete_two_partition() {
        let mut g = ExecutionGraph::new();
        let p = g.add_node(NodeInfo::pinned("P", PinReason::Explicit));
        let ids: Vec<NodeId> = (0..8)
            .map(|i| g.add_node(NodeInfo::new(format!("N{i}"))))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            g.record_interaction(p, id, bytes((i as u64 % 3) + 1));
            if i > 0 {
                g.record_interaction(ids[i - 1], id, bytes(i as u64));
            }
        }
        let seq = candidates(&g);
        for cand in &seq {
            assert_eq!(cand.len(), g.node_count());
            let offloaded = cand.offloaded_count();
            let client = cand.nodes_on(Side::Client).count();
            assert_eq!(offloaded + client, g.node_count());
        }
        // Offloaded counts strictly decrease through the sequence.
        let counts: Vec<usize> = seq.iter().map(|c| c.offloaded_count()).collect();
        for w in counts.windows(2) {
            assert_eq!(w[0], w[1] + 1);
        }
    }
}
