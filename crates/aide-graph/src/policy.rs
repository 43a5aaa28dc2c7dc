//! Partitioning policies: which candidate partitioning (if any) to apply.
//!
//! A policy receives the execution graph, a snapshot of the client's
//! resources, and the candidate sequence produced by the modified-MINCUT
//! heuristic. It filters the candidates for *feasibility* (e.g. "frees at
//! least 20% of the Java heap"), scores the feasible ones with a cost
//! function, and — crucially — only selects a partitioning when offloading
//! is *beneficial* (paper §2, "Beneficial offloading").
//!
//! A selection is a single in-order fold over the candidates, so the winner
//! is a pure function of (graph, snapshot, policy): the first candidate with
//! the strictly lowest score wins, and a NaN score never displaces a winner.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cost::{CostFunction, CutBytes, PredictedTime};
use crate::graph::{ExecutionGraph, NodeId};
use crate::heuristic::{CandidatePlan, CandidateSequence};
use crate::partition::{PartitionStats, Partitioning, Side};

/// A snapshot of the client device's resources at policy-evaluation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceSnapshot {
    /// Total capacity of the client's Java heap, in bytes.
    pub heap_capacity: u64,
    /// Bytes of the client heap currently occupied by live objects.
    pub heap_used: u64,
}

impl ResourceSnapshot {
    /// Creates a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `heap_used > heap_capacity`.
    pub fn new(heap_capacity: u64, heap_used: u64) -> Self {
        assert!(
            heap_used <= heap_capacity,
            "heap_used ({heap_used}) exceeds capacity ({heap_capacity})"
        );
        ResourceSnapshot {
            heap_capacity,
            heap_used,
        }
    }

    /// Bytes of heap currently free.
    #[inline]
    pub fn heap_free(&self) -> u64 {
        self.heap_capacity - self.heap_used
    }

    /// Fraction of the heap currently free, in `[0, 1]`.
    pub fn free_fraction(&self) -> f64 {
        if self.heap_capacity == 0 {
            0.0
        } else {
            self.heap_free() as f64 / self.heap_capacity as f64
        }
    }
}

/// The partitioning a policy selected, with its statistics and score.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedPartition {
    /// The chosen placement.
    pub partitioning: Partitioning,
    /// Precomputed statistics of the placement.
    pub stats: PartitionStats,
    /// The cost-function score of the placement (lower was better).
    pub score: f64,
}

/// Decides whether and how to offload, given candidate partitionings.
///
/// Implementors provide [`score_candidate`](PartitionPolicy::score_candidate)
/// (feasibility gate + cost) and optionally
/// [`admit`](PartitionPolicy::admit) (a final beneficial-offloading gate on
/// the winner); the provided [`select`](PartitionPolicy::select) and
/// [`select_plan`](PartitionPolicy::select_plan) drive the sweep.
pub trait PartitionPolicy: Send + Sync {
    /// A short name for reports.
    fn name(&self) -> &str;

    /// Scores one candidate: `None` if the candidate is infeasible under
    /// this policy, otherwise its cost (lower is better). Must be a pure
    /// function of its arguments: `select` and `select_plan` have to agree,
    /// and a replayed decision has to repeat the recorded one.
    fn score_candidate(
        &self,
        graph: &ExecutionGraph,
        snapshot: ResourceSnapshot,
        candidate: &Partitioning,
        stats: &PartitionStats,
    ) -> Option<f64>;

    /// Final gate on the best-scoring candidate: return `false` to refuse
    /// offloading altogether (e.g. the paper's beneficial-offloading test).
    /// The default admits every winner.
    fn admit(
        &self,
        _graph: &ExecutionGraph,
        _snapshot: ResourceSnapshot,
        _best: &SelectedPartition,
    ) -> bool {
        true
    }

    /// Evaluates a materialized candidate sequence and returns the best
    /// feasible, beneficial partitioning, or `None` when the application
    /// should not be partitioned (no feasible candidate, or offloading is
    /// not beneficial). Every candidate's statistics are computed from
    /// scratch (O(V + E) each), which makes this the reference
    /// [`select_plan`](PartitionPolicy::select_plan) is tested against.
    fn select(
        &self,
        graph: &ExecutionGraph,
        snapshot: ResourceSnapshot,
        candidates: &CandidateSequence,
    ) -> Option<SelectedPartition> {
        let best = pick_from_sequence(graph, candidates, |cand, stats| {
            self.score_candidate(graph, snapshot, cand, stats)
        })?;
        self.admit(graph, snapshot, &best).then_some(best)
    }

    /// Like [`select`](PartitionPolicy::select), but sweeps a
    /// [`CandidatePlan`] directly: no O(V²) candidate sequence is
    /// materialized, and the statistics are carried from one candidate to
    /// the next by toggling the moved node's incident edges. A move costs
    /// O(degree), so the sweep is O(V + E) in O(V) memory, against `select`'s
    /// O(V·(V + E)). Produces exactly the selection `select` would make on
    /// [`CandidatePlan::materialize`].
    fn select_plan(
        &self,
        graph: &ExecutionGraph,
        snapshot: ResourceSnapshot,
        plan: &CandidatePlan,
    ) -> Option<SelectedPartition> {
        let best = pick_from_plan(graph, plan, |cand, stats| {
            self.score_candidate(graph, snapshot, cand, stats)
        })?;
        self.admit(graph, snapshot, &best).then_some(best)
    }
}

/// The best candidate seen so far: its index in the sweep, its statistics
/// and its score.
type Best = Option<(usize, PartitionStats, f64)>;

/// One step of the in-order fold: strict improvement only, so the first of
/// equal scores wins and a NaN score never displaces a winner.
fn keep_better(best: &mut Best, index: usize, stats: &PartitionStats, score: Option<f64>) {
    if let Some(score) = score {
        if best.as_ref().is_none_or(|&(_, _, b)| score < b) {
            *best = Some((index, *stats, score));
        }
    }
}

/// Scores every candidate of a materialized sequence, in candidate order.
fn pick_from_sequence(
    graph: &ExecutionGraph,
    candidates: &CandidateSequence,
    score: impl Fn(&Partitioning, &PartitionStats) -> Option<f64>,
) -> Option<SelectedPartition> {
    let cands = candidates.candidates();
    let mut best = None;
    for (i, cand) in cands.iter().enumerate() {
        let stats = cand.stats(graph);
        keep_better(&mut best, i, &stats, score(cand, &stats));
    }
    best.map(|(i, stats, score)| SelectedPartition {
        partitioning: cands[i].clone(),
        stats,
        score,
    })
}

/// Scores every candidate described by a [`CandidatePlan`] without
/// materializing the sequence: one placement walks the plan's moves and its
/// statistics are updated in place. All statistics are integer sums, so the
/// carried values equal the from-scratch values exactly.
fn pick_from_plan(
    graph: &ExecutionGraph,
    plan: &CandidatePlan,
    score: impl Fn(&Partitioning, &PartitionStats) -> Option<f64>,
) -> Option<SelectedPartition> {
    if plan.is_empty() {
        return None;
    }
    let mut current = plan.candidate(0);
    let mut stats = current.stats(graph);
    let mut best = None;
    for i in 0..plan.len() {
        if i > 0 {
            advance_candidate(graph, &mut current, &mut stats, plan.moves()[i - 1]);
        }
        keep_better(&mut best, i, &stats, score(&current, &stats));
    }
    best.map(|(i, stats, score)| SelectedPartition {
        partitioning: plan.candidate(i),
        stats,
        score,
    })
}

/// Pulls `v` from the surrogate back to the client, updating `stats` in
/// place: node annotations switch columns and v's incident edges toggle
/// their cut contribution, in O(degree).
fn advance_candidate(
    graph: &ExecutionGraph,
    current: &mut Partitioning,
    stats: &mut PartitionStats,
    v: NodeId,
) {
    debug_assert!(!current.is_client(v), "move target already on client");
    current.set_side(v, Side::Client);
    let node = graph.node(v);
    stats.offloaded_memory_bytes -= node.memory_bytes;
    stats.client_memory_bytes += node.memory_bytes;
    stats.offloaded_cpu_micros -= node.cpu_micros;
    stats.client_cpu_micros += node.cpu_micros;
    stats.offloaded_nodes -= 1;
    for (nb, e) in graph.neighbors(v) {
        if current.is_client(nb) {
            // v–nb used to cross the cut; both ends are on the client now.
            stats.cut.interactions -= e.interactions;
            stats.cut.bytes -= e.bytes;
        } else {
            // v–nb stayed within the surrogate before; it crosses now.
            stats.cut.interactions += e.interactions;
            stats.cut.bytes += e.bytes;
        }
    }
}

/// The paper's memory-relief policy (§5.1): any acceptable partitioning must
/// free at least `min_free_fraction` of the Java heap; among those, minimize
/// the historical bytes crossing the cut.
///
/// # Examples
///
/// ```
/// use aide_graph::{MemoryPolicy, PartitionPolicy, ResourceSnapshot};
/// use aide_graph::{ExecutionGraph, NodeInfo, EdgeInfo, PinReason};
/// use aide_graph::candidate_partitionings;
///
/// let mut g = ExecutionGraph::new();
/// let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
/// let doc = g.add_node(NodeInfo::new("Document"));
/// g.node_mut(doc).memory_bytes = 5_000_000;
/// g.record_interaction(ui, doc, EdgeInfo::new(10, 1_000));
///
/// let policy = MemoryPolicy::new(0.20);
/// let snapshot = ResourceSnapshot::new(6_000_000, 5_900_000);
/// let candidates = candidate_partitionings(&g);
/// let chosen = policy.select(&g, snapshot, &candidates).expect("feasible");
/// assert!(chosen.stats.offloaded_memory_bytes >= 1_200_000);
/// ```
pub struct MemoryPolicy {
    min_free_fraction: f64,
    cost: Box<dyn CostFunction>,
}

impl fmt::Debug for MemoryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryPolicy")
            .field("min_free_fraction", &self.min_free_fraction)
            .field("cost", &self.cost.name())
            .finish()
    }
}

impl MemoryPolicy {
    /// Creates the policy with the paper's default cost function
    /// ([`CutBytes`]).
    ///
    /// # Panics
    ///
    /// Panics if `min_free_fraction` is outside `(0, 1]`.
    pub fn new(min_free_fraction: f64) -> Self {
        MemoryPolicy::with_cost(min_free_fraction, Box::new(CutBytes))
    }

    /// Creates the policy with a custom cost function.
    ///
    /// # Panics
    ///
    /// Panics if `min_free_fraction` is outside `(0, 1]`.
    pub fn with_cost(min_free_fraction: f64, cost: Box<dyn CostFunction>) -> Self {
        assert!(
            min_free_fraction > 0.0 && min_free_fraction <= 1.0,
            "min_free_fraction must be in (0, 1], got {min_free_fraction}"
        );
        MemoryPolicy {
            min_free_fraction,
            cost,
        }
    }

    /// The minimum fraction of the heap a partitioning must free.
    pub fn min_free_fraction(&self) -> f64 {
        self.min_free_fraction
    }

    /// Heap bytes a candidate must offload to be feasible under `snapshot`.
    fn required_bytes(&self, snapshot: ResourceSnapshot) -> u64 {
        (snapshot.heap_capacity as f64 * self.min_free_fraction).ceil() as u64
    }
}

impl PartitionPolicy for MemoryPolicy {
    fn name(&self) -> &str {
        "memory"
    }

    fn score_candidate(
        &self,
        graph: &ExecutionGraph,
        snapshot: ResourceSnapshot,
        candidate: &Partitioning,
        stats: &PartitionStats,
    ) -> Option<f64> {
        if stats.offloaded_memory_bytes < self.required_bytes(snapshot) {
            return None;
        }
        Some(self.cost.cost(graph, candidate, stats))
    }
}

/// The processing-relief policy (§5.2): pick the candidate with the lowest
/// *predicted completion time* and offload only if that prediction beats
/// running the whole application on the client ("beneficial offloading").
///
/// This is the gate that correctly refuses to offload Biomer in Figure 10
/// (predicted 790 s vs. 750 s unpartitioned).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuPolicy {
    predictor: PredictedTime,
    /// Required fractional improvement before offloading (0 = any win).
    margin: f64,
}

impl CpuPolicy {
    /// Creates the policy from a completion-time predictor.
    pub fn new(predictor: PredictedTime) -> Self {
        CpuPolicy {
            predictor,
            margin: 0.0,
        }
    }

    /// Requires predictions to beat local execution by `margin` (e.g. `0.05`
    /// = at least 5% faster) before offloading.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is not in `[0, 1)`.
    pub fn with_margin(mut self, margin: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&margin),
            "margin must be in [0, 1), got {margin}"
        );
        self.margin = margin;
        self
    }

    /// The completion-time predictor in use.
    pub fn predictor(&self) -> &PredictedTime {
        &self.predictor
    }
}

impl Default for CpuPolicy {
    fn default() -> Self {
        CpuPolicy::new(PredictedTime::default())
    }
}

impl PartitionPolicy for CpuPolicy {
    fn name(&self) -> &str {
        "cpu"
    }

    fn score_candidate(
        &self,
        _graph: &ExecutionGraph,
        _snapshot: ResourceSnapshot,
        _candidate: &Partitioning,
        stats: &PartitionStats,
    ) -> Option<f64> {
        Some(self.predictor.predicted_seconds(stats))
    }

    /// Beneficial-offloading gate: refuse if the best prediction does not
    /// beat local execution by the required margin.
    fn admit(
        &self,
        graph: &ExecutionGraph,
        _snapshot: ResourceSnapshot,
        best: &SelectedPartition,
    ) -> bool {
        best.score < self.predictor.unpartitioned_seconds(graph) * (1.0 - self.margin)
    }
}

/// A combined policy (paper §8 future work): relieve memory pressure first
/// and, among memory-feasible candidates, minimize predicted completion
/// time. Falls back to pure time minimization when no candidate satisfies
/// the memory requirement but the heap is not yet critical.
#[derive(Debug)]
pub struct CombinedPolicy {
    memory: MemoryPolicy,
    cpu: CpuPolicy,
}

impl CombinedPolicy {
    /// Creates a combined policy from its two halves.
    pub fn new(memory: MemoryPolicy, cpu: CpuPolicy) -> Self {
        CombinedPolicy { memory, cpu }
    }
}

impl PartitionPolicy for CombinedPolicy {
    fn name(&self) -> &str {
        "combined"
    }

    fn score_candidate(
        &self,
        _graph: &ExecutionGraph,
        snapshot: ResourceSnapshot,
        _candidate: &Partitioning,
        stats: &PartitionStats,
    ) -> Option<f64> {
        if stats.offloaded_memory_bytes < self.memory.required_bytes(snapshot) {
            return None;
        }
        Some(self.cpu.predictor().predicted_seconds(stats))
    }

    fn select(
        &self,
        graph: &ExecutionGraph,
        snapshot: ResourceSnapshot,
        candidates: &CandidateSequence,
    ) -> Option<SelectedPartition> {
        // No memory-feasible candidate: fall back to a pure CPU decision.
        pick_from_sequence(graph, candidates, |cand, stats| {
            self.score_candidate(graph, snapshot, cand, stats)
        })
        .or_else(|| self.cpu.select(graph, snapshot, candidates))
    }

    fn select_plan(
        &self,
        graph: &ExecutionGraph,
        snapshot: ResourceSnapshot,
        plan: &CandidatePlan,
    ) -> Option<SelectedPartition> {
        pick_from_plan(graph, plan, |cand, stats| {
            self.score_candidate(graph, snapshot, cand, stats)
        })
        .or_else(|| self.cpu.select_plan(graph, snapshot, plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeInfo, NodeInfo, PinReason};
    use crate::heuristic::{candidate_partitionings, plan_candidates};

    /// A pinned UI class plus a chain of memory-bearing classes.
    fn memory_graph() -> ExecutionGraph {
        let mut g = ExecutionGraph::new();
        let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
        let doc = g.add_node(NodeInfo::new("Document"));
        let idx = g.add_node(NodeInfo::new("Index"));
        let fmt = g.add_node(NodeInfo::new("Formatter"));
        g.node_mut(doc).memory_bytes = 3_000_000;
        g.node_mut(idx).memory_bytes = 1_000_000;
        g.node_mut(fmt).memory_bytes = 500_000;
        g.record_interaction(ui, fmt, EdgeInfo::new(1_000, 200_000));
        g.record_interaction(fmt, doc, EdgeInfo::new(500, 100_000));
        g.record_interaction(doc, idx, EdgeInfo::new(50, 10_000));
        g
    }

    #[test]
    fn snapshot_free_accounting() {
        let s = ResourceSnapshot::new(6_000_000, 5_700_000);
        assert_eq!(s.heap_free(), 300_000);
        assert!((s.free_fraction() - 0.05).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn snapshot_rejects_overfull_heap() {
        let _ = ResourceSnapshot::new(100, 200);
    }

    #[test]
    fn zero_capacity_snapshot_has_zero_free_fraction() {
        assert_eq!(ResourceSnapshot::new(0, 0).free_fraction(), 0.0);
    }

    #[test]
    fn memory_policy_frees_required_amount() {
        let g = memory_graph();
        let candidates = candidate_partitionings(&g);
        let policy = MemoryPolicy::new(0.20);
        let snapshot = ResourceSnapshot::new(6_000_000, 5_900_000);
        let chosen = policy.select(&g, snapshot, &candidates).expect("feasible");
        assert!(chosen.stats.offloaded_memory_bytes >= 1_200_000);
    }

    #[test]
    fn memory_policy_minimizes_cut_bytes_among_feasible() {
        let g = memory_graph();
        let candidates = candidate_partitionings(&g);
        let policy = MemoryPolicy::new(0.20);
        let snapshot = ResourceSnapshot::new(6_000_000, 5_900_000);
        let chosen = policy.select(&g, snapshot, &candidates).unwrap();
        // Verify optimality against brute-force over the candidates.
        let required = 1_200_000;
        let best_cost = candidates
            .iter()
            .map(|c| c.stats(&g))
            .filter(|s| s.offloaded_memory_bytes >= required)
            .map(|s| s.cut.bytes)
            .min()
            .unwrap();
        assert_eq!(chosen.stats.cut.bytes, best_cost);
    }

    #[test]
    fn memory_policy_returns_none_when_nothing_frees_enough() {
        let g = memory_graph();
        let candidates = candidate_partitionings(&g);
        // Demand that 100% of a huge heap be freed: impossible.
        let policy = MemoryPolicy::new(1.0);
        let snapshot = ResourceSnapshot::new(1_000_000_000, 900_000_000);
        assert!(policy.select(&g, snapshot, &candidates).is_none());
    }

    #[test]
    #[should_panic(expected = "min_free_fraction must be in")]
    fn memory_policy_rejects_zero_fraction() {
        let _ = MemoryPolicy::new(0.0);
    }

    /// A compute-heavy offloadable cluster weakly coupled to the pinned UI.
    fn cpu_graph(comm_heavy: bool) -> ExecutionGraph {
        let mut g = ExecutionGraph::new();
        let ui = g.add_node(NodeInfo::pinned("Ui", PinReason::NativeMethods));
        let engine = g.add_node(NodeInfo::new("Engine"));
        let math = g.add_node(NodeInfo::new("Math"));
        g.node_mut(ui).cpu_micros = 1_000_000; // 1 s
        g.node_mut(engine).cpu_micros = 60_000_000; // 60 s
        g.node_mut(math).cpu_micros = 40_000_000; // 40 s
                                                  // In the chatty variant, every edge is so interaction-heavy that
                                                  // any cut costs more round trips than offloading could ever save.
        let (count, bytes) = if comm_heavy {
            (2_000_000, 400_000_000)
        } else {
            (100, 10_000)
        };
        let (inner_count, inner_bytes) = if comm_heavy {
            (2_000_000, 50_000_000)
        } else {
            (10_000, 1_000_000)
        };
        g.record_interaction(ui, engine, EdgeInfo::new(count, bytes));
        g.record_interaction(engine, math, EdgeInfo::new(inner_count, inner_bytes));
        g
    }

    #[test]
    fn cpu_policy_offloads_compute_heavy_low_comm_apps() {
        let g = cpu_graph(false);
        let candidates = candidate_partitionings(&g);
        let policy = CpuPolicy::default();
        let snapshot = ResourceSnapshot::new(8_000_000, 1_000_000);
        let chosen = policy
            .select(&g, snapshot, &candidates)
            .expect("beneficial");
        let baseline = policy.predictor().unpartitioned_seconds(&g);
        assert!(chosen.score < baseline);
        // Both compute classes should leave the client.
        assert!(chosen.stats.offloaded_cpu_micros >= 100_000_000);
    }

    #[test]
    fn cpu_policy_refuses_non_beneficial_offload() {
        let g = cpu_graph(true);
        let candidates = candidate_partitionings(&g);
        let policy = CpuPolicy::default();
        let snapshot = ResourceSnapshot::new(8_000_000, 1_000_000);
        // Chatty edges make every candidate slower than local execution.
        assert!(policy.select(&g, snapshot, &candidates).is_none());
    }

    #[test]
    fn cpu_policy_margin_tightens_the_gate() {
        let g = cpu_graph(false);
        let candidates = candidate_partitionings(&g);
        let snapshot = ResourceSnapshot::new(8_000_000, 1_000_000);
        let loose = CpuPolicy::default();
        let tight = CpuPolicy::default().with_margin(0.99);
        assert!(loose.select(&g, snapshot, &candidates).is_some());
        assert!(tight.select(&g, snapshot, &candidates).is_none());
    }

    #[test]
    #[should_panic(expected = "margin must be in")]
    fn cpu_policy_rejects_bad_margin() {
        let _ = CpuPolicy::default().with_margin(1.0);
    }

    #[test]
    fn combined_policy_prefers_memory_feasible_time_optimal() {
        let mut g = memory_graph();
        // Give the classes CPU weight so time matters.
        for id in g.node_ids().collect::<Vec<_>>() {
            g.node_mut(id).cpu_micros = 10_000_000;
        }
        let candidates = candidate_partitionings(&g);
        let policy = CombinedPolicy::new(MemoryPolicy::new(0.20), CpuPolicy::default());
        let snapshot = ResourceSnapshot::new(6_000_000, 5_900_000);
        let chosen = policy.select(&g, snapshot, &candidates).expect("feasible");
        assert!(chosen.stats.offloaded_memory_bytes >= 1_200_000);
    }

    #[test]
    fn combined_policy_falls_back_to_cpu_when_memory_infeasible() {
        let g = cpu_graph(false);
        let candidates = candidate_partitionings(&g);
        // Memory requirement impossible (no memory annotations at all).
        let policy = CombinedPolicy::new(MemoryPolicy::new(0.5), CpuPolicy::default());
        let snapshot = ResourceSnapshot::new(8_000_000, 7_000_000);
        let chosen = policy.select(&g, snapshot, &candidates);
        assert!(chosen.is_some(), "should fall back to CPU policy");
    }

    #[test]
    fn policies_are_object_safe() {
        let policies: Vec<Box<dyn PartitionPolicy>> = vec![
            Box::new(MemoryPolicy::new(0.2)),
            Box::new(CpuPolicy::default()),
            Box::new(CombinedPolicy::new(
                MemoryPolicy::new(0.2),
                CpuPolicy::default(),
            )),
        ];
        for p in &policies {
            assert!(!p.name().is_empty());
        }
    }

    /// Every (graph, policy, snapshot) case of the plan ≡ sequence test.
    fn equivalence_cases() -> Vec<(ExecutionGraph, Box<dyn PartitionPolicy>, ResourceSnapshot)> {
        let mut cases: Vec<(ExecutionGraph, Box<dyn PartitionPolicy>, ResourceSnapshot)> = vec![
            (
                memory_graph(),
                Box::new(MemoryPolicy::new(0.20)),
                ResourceSnapshot::new(6_000_000, 5_900_000),
            ),
            (
                memory_graph(),
                Box::new(MemoryPolicy::new(1.0)),
                ResourceSnapshot::new(1_000_000_000, 900_000_000),
            ),
            (
                cpu_graph(false),
                Box::new(CpuPolicy::default()),
                ResourceSnapshot::new(8_000_000, 1_000_000),
            ),
            (
                cpu_graph(true),
                Box::new(CpuPolicy::default()),
                ResourceSnapshot::new(8_000_000, 1_000_000),
            ),
            (
                cpu_graph(false),
                Box::new(CombinedPolicy::new(
                    MemoryPolicy::new(0.5),
                    CpuPolicy::default(),
                )),
                ResourceSnapshot::new(8_000_000, 7_000_000),
            ),
        ];
        let mut busy = memory_graph();
        for id in busy.node_ids().collect::<Vec<_>>() {
            busy.node_mut(id).cpu_micros = 10_000_000;
        }
        cases.push((
            busy,
            Box::new(CombinedPolicy::new(
                MemoryPolicy::new(0.20),
                CpuPolicy::default(),
            )),
            ResourceSnapshot::new(6_000_000, 5_900_000),
        ));
        cases
    }

    #[test]
    fn plan_selection_matches_sequence_selection() {
        for (g, policy, snapshot) in equivalence_cases() {
            let plan = plan_candidates(&g);
            let candidates = plan.materialize();
            let classic = policy.select(&g, snapshot, &candidates);
            let planned = policy.select_plan(&g, snapshot, &plan);
            assert_eq!(classic, planned, "policy {}", policy.name());
            if let (Some(c), Some(p)) = (&classic, &planned) {
                assert_eq!(c.score.to_bits(), p.score.to_bits());
            }
        }
    }

    #[test]
    fn plan_sweep_stats_match_from_scratch_stats() {
        let g = memory_graph();
        let plan = plan_candidates(&g);
        let mut current = plan.candidate(0);
        let mut stats = current.stats(&g);
        for (i, &v) in plan.moves().iter().enumerate() {
            advance_candidate(&g, &mut current, &mut stats, v);
            assert_eq!(current, plan.candidate(i + 1));
            assert_eq!(stats, current.stats(&g), "incremental stats after move {i}");
        }
    }
}
