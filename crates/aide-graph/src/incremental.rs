//! Incremental maintenance of an [`ExecutionGraph`] from a delta stream.
//!
//! The paper's monitor rebuilds the execution graph at every decision
//! epoch. That is fine at 138 classes but caps the platform at toy graph
//! sizes. This module lets the monitor publish [`GraphDelta`]s instead and
//! applies each in time proportional to the degree of the nodes it touches,
//! keeping the graph warm between epochs and always equal to what a
//! from-scratch rebuild from the same history would produce (the
//! equivalence properties in `tests/incremental_equivalence.rs` pin this
//! down). An epoch then costs only the heuristic and the policy sweep,
//! O((V + E) log V) together (see [`crate::plan_candidates`]).
//!
//! The struct also accounts **churn**: how much weight the deltas since
//! the last evaluation moved. The partitioner's dirty-region shortcut
//! skips whole epochs when churn stays below a configured threshold.

use serde::{Deserialize, Serialize};

use crate::graph::{EdgeInfo, ExecutionGraph, NodeId, NodeInfo, PinReason};

/// One observed change to an execution graph.
///
/// Deltas are the wire/state format between the monitoring module and the
/// incremental partitioner: the monitor drains a batch per decision epoch
/// and the partitioner applies each in time bounded by the degree of the
/// nodes it names: O(log deg) for an interaction on an existing edge,
/// O(deg) for a new one, O(deg · log deg) for [`GraphDelta::RemoveNode`]
/// (see [`ExecutionGraph::clear_node`]), O(1) for the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GraphDelta {
    /// A class (or object-granular array) appeared: append a node. The
    /// annotations carry the values observed so far, so a node born and
    /// mutated within one epoch needs a single delta.
    AddNode {
        /// Human-readable class name.
        label: String,
        /// `Some` when the node can never be offloaded.
        pinned: Option<PinReason>,
        /// Live heap bytes attributed to the node.
        memory_bytes: u64,
        /// Exclusive CPU time attributed to the node, in microseconds.
        cpu_micros: u64,
        /// Live objects of the node's class.
        live_objects: u64,
    },
    /// Absolute refresh of a node's resource annotations. Absolute (not
    /// additive) so the monitor's clamping (negative balances floor at
    /// zero, fractional microseconds round) happens exactly once, on the
    /// producer side.
    UpdateNode {
        /// The node whose annotations changed.
        node: NodeId,
        /// New live heap bytes.
        memory_bytes: u64,
        /// New exclusive CPU microseconds.
        cpu_micros: u64,
        /// New live object count.
        live_objects: u64,
    },
    /// A node's pin changed (a class was marked or unmarked offloadable).
    SetPinned {
        /// The node whose pin changed.
        node: NodeId,
        /// The new pin state.
        pinned: Option<PinReason>,
    },
    /// Additional interactions observed between two classes. Additive:
    /// edge statistics only ever accumulate. Self-interactions (`a == b`)
    /// are ignored, mirroring [`ExecutionGraph::record_interaction`].
    Interaction {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The increment to absorb into the edge.
        delta: EdgeInfo,
    },
    /// A node left the graph (class unloaded). Applied as a tombstone —
    /// annotations zeroed, pin cleared, incident edges removed — because
    /// node ids are dense insertion-order indices that must stay stable.
    RemoveNode {
        /// The node to tombstone.
        node: NodeId,
    },
}

/// Churn accumulated by [`IncrementalGraph::apply`] since the last
/// [`IncrementalGraph::take_churn`].
///
/// `weight` is measured in edge-weight-equivalent units: interaction
/// deltas contribute their [`EdgeInfo::weight`], annotation updates the
/// absolute change in bytes and microseconds. `structural` flags changes
/// (node add/remove, pin flips) that invalidate any cached decision
/// outright, regardless of weight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnSummary {
    /// Weight-equivalent magnitude of the applied deltas.
    pub weight: u64,
    /// Number of deltas applied.
    pub deltas: u64,
    /// Whether any delta changed the graph's structure or pin set.
    pub structural: bool,
}

impl ChurnSummary {
    /// Folds another summary into this one.
    pub fn absorb(&mut self, other: ChurnSummary) {
        self.weight = self.weight.saturating_add(other.weight);
        self.deltas += other.deltas;
        self.structural |= other.structural;
    }
}

/// An [`ExecutionGraph`] maintained incrementally from [`GraphDelta`]s,
/// with churn accounting.
///
/// # Examples
///
/// ```
/// use aide_graph::{EdgeInfo, GraphDelta, IncrementalGraph, NodeId};
///
/// let mut inc = IncrementalGraph::new();
/// for label in ["Editor", "Buffer"] {
///     inc.apply(&GraphDelta::AddNode {
///         label: label.into(),
///         pinned: None,
///         memory_bytes: 0,
///         cpu_micros: 0,
///         live_objects: 0,
///     });
/// }
/// inc.apply(&GraphDelta::Interaction {
///     a: NodeId(0),
///     b: NodeId(1),
///     delta: EdgeInfo::new(3, 97),
/// });
/// assert_eq!(inc.graph().edge(NodeId(0), NodeId(1)).unwrap().bytes, 97);
/// assert_eq!(inc.churn().weight, 100);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalGraph {
    graph: ExecutionGraph,
    churn: ChurnSummary,
    deltas_applied: u64,
}

impl IncrementalGraph {
    /// Creates an empty incremental graph.
    pub fn new() -> Self {
        IncrementalGraph::default()
    }

    /// Wraps an existing graph, with no churn and no deltas applied yet.
    pub fn from_graph(graph: ExecutionGraph) -> Self {
        IncrementalGraph {
            graph,
            ..IncrementalGraph::default()
        }
    }

    /// The maintained graph.
    #[inline]
    pub fn graph(&self) -> &ExecutionGraph {
        &self.graph
    }

    /// Consumes the wrapper, returning the graph.
    pub fn into_graph(self) -> ExecutionGraph {
        self.graph
    }

    /// Total number of deltas applied over the lifetime of this graph.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Churn accumulated since the last [`take_churn`](Self::take_churn)
    /// (non-destructive peek).
    pub fn churn(&self) -> ChurnSummary {
        self.churn
    }

    /// Returns and resets the accumulated churn.
    pub fn take_churn(&mut self) -> ChurnSummary {
        std::mem::take(&mut self.churn)
    }

    /// Applies one delta, at the costs listed on [`GraphDelta`].
    ///
    /// # Panics
    ///
    /// Panics if the delta references a node id out of range.
    pub fn apply(&mut self, delta: &GraphDelta) {
        self.deltas_applied += 1;
        self.churn.deltas += 1;
        match delta {
            GraphDelta::AddNode {
                label,
                pinned,
                memory_bytes,
                cpu_micros,
                live_objects,
            } => {
                let mut info = match pinned {
                    Some(reason) => NodeInfo::pinned(label.clone(), *reason),
                    None => NodeInfo::new(label.clone()),
                };
                info.memory_bytes = *memory_bytes;
                info.cpu_micros = *cpu_micros;
                info.live_objects = *live_objects;
                self.graph.add_node(info);
                self.churn.structural = true;
            }
            GraphDelta::UpdateNode {
                node,
                memory_bytes,
                cpu_micros,
                live_objects,
            } => {
                let info = self.graph.node_mut(*node);
                self.churn.weight = self
                    .churn
                    .weight
                    .saturating_add(info.memory_bytes.abs_diff(*memory_bytes))
                    .saturating_add(info.cpu_micros.abs_diff(*cpu_micros));
                info.memory_bytes = *memory_bytes;
                info.cpu_micros = *cpu_micros;
                info.live_objects = *live_objects;
            }
            GraphDelta::SetPinned { node, pinned } => {
                let info = self.graph.node_mut(*node);
                if info.pinned != *pinned {
                    info.pinned = *pinned;
                    self.churn.structural = true;
                }
            }
            GraphDelta::Interaction { a, b, delta } => {
                if a == b {
                    return;
                }
                self.graph.record_interaction(*a, *b, *delta);
                self.churn.weight = self.churn.weight.saturating_add(delta.weight());
            }
            GraphDelta::RemoveNode { node } => {
                self.graph.clear_node(*node);
                self.churn.structural = true;
            }
        }
    }

    /// Applies a batch of deltas.
    pub fn apply_all(&mut self, deltas: &[GraphDelta]) {
        for d in deltas {
            self.apply(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add(label: &str) -> GraphDelta {
        GraphDelta::AddNode {
            label: label.into(),
            pinned: None,
            memory_bytes: 0,
            cpu_micros: 0,
            live_objects: 0,
        }
    }

    fn interact(a: u32, b: u32, interactions: u64, bytes: u64) -> GraphDelta {
        GraphDelta::Interaction {
            a: NodeId(a),
            b: NodeId(b),
            delta: EdgeInfo::new(interactions, bytes),
        }
    }

    /// Each node's total incident edge weight.
    fn incident_weights(inc: &IncrementalGraph) -> Vec<u64> {
        let g = inc.graph();
        g.node_ids()
            .map(|v| g.neighbors(v).map(|(_, e)| e.weight()).sum())
            .collect()
    }

    #[test]
    fn deltas_build_the_same_graph_as_direct_calls() {
        let mut inc = IncrementalGraph::new();
        inc.apply_all(&[
            add("A"),
            add("B"),
            add("C"),
            interact(0, 1, 3, 300),
            interact(1, 2, 1, 10),
            interact(0, 1, 2, 50),
        ]);

        let mut direct = ExecutionGraph::new();
        let a = direct.add_node(NodeInfo::new("A"));
        let b = direct.add_node(NodeInfo::new("B"));
        let c = direct.add_node(NodeInfo::new("C"));
        direct.record_interaction(a, b, EdgeInfo::new(3, 300));
        direct.record_interaction(b, c, EdgeInfo::new(1, 10));
        direct.record_interaction(a, b, EdgeInfo::new(2, 50));

        assert_eq!(inc.graph(), &direct);
        assert_eq!(incident_weights(&inc), [355, 366, 11]);
    }

    #[test]
    fn update_node_is_absolute_and_counts_churn() {
        let mut inc = IncrementalGraph::new();
        inc.apply(&add("A"));
        inc.apply(&GraphDelta::UpdateNode {
            node: NodeId(0),
            memory_bytes: 1_000,
            cpu_micros: 50,
            live_objects: 2,
        });
        inc.apply(&GraphDelta::UpdateNode {
            node: NodeId(0),
            memory_bytes: 400,
            cpu_micros: 70,
            live_objects: 1,
        });
        let n = inc.graph().node(NodeId(0));
        assert_eq!(n.memory_bytes, 400);
        assert_eq!(n.cpu_micros, 70);
        assert_eq!(n.live_objects, 1);
        // churn: (1000 + 50) + (600 + 20)
        assert_eq!(inc.churn().weight, 1_670);
    }

    #[test]
    fn take_churn_resets_and_structural_flags_propagate() {
        let mut inc = IncrementalGraph::new();
        inc.apply(&add("A"));
        inc.apply(&add("B"));
        let c = inc.take_churn();
        assert!(c.structural);
        assert_eq!(c.deltas, 2);
        assert_eq!(inc.churn(), ChurnSummary::default());

        inc.apply(&interact(0, 1, 1, 99));
        let c = inc.take_churn();
        assert!(!c.structural);
        assert_eq!(c.weight, 100);
    }

    #[test]
    fn set_pinned_is_structural_only_when_it_changes() {
        let mut inc = IncrementalGraph::new();
        inc.apply(&add("A"));
        inc.take_churn();
        inc.apply(&GraphDelta::SetPinned {
            node: NodeId(0),
            pinned: None,
        });
        assert!(!inc.churn().structural, "no-op pin change is not churn");
        inc.apply(&GraphDelta::SetPinned {
            node: NodeId(0),
            pinned: Some(PinReason::Explicit),
        });
        assert!(inc.churn().structural);
        assert!(inc.graph().node(NodeId(0)).is_pinned());
    }

    #[test]
    fn remove_node_tombstones_and_fixes_strengths() {
        let mut inc = IncrementalGraph::new();
        inc.apply_all(&[
            add("A"),
            add("B"),
            add("C"),
            interact(0, 1, 0, 100),
            interact(1, 2, 0, 40),
            interact(0, 2, 0, 7),
        ]);
        inc.apply(&GraphDelta::RemoveNode { node: NodeId(1) });
        assert_eq!(inc.graph().node_count(), 3, "ids stay dense");
        assert_eq!(inc.graph().edge_count(), 1);
        assert_eq!(incident_weights(&inc), [7, 0, 7]);
    }

    #[test]
    fn self_interactions_are_ignored() {
        let mut inc = IncrementalGraph::new();
        inc.apply(&add("A"));
        inc.take_churn();
        inc.apply(&interact(0, 0, 5, 500));
        assert_eq!(inc.graph().edge_count(), 0);
        assert_eq!(incident_weights(&inc), [0]);
        assert_eq!(inc.churn().weight, 0);
    }

    #[test]
    fn from_graph_wraps_the_graph_with_no_churn() {
        let mut g = ExecutionGraph::new();
        let a = g.add_node(NodeInfo::new("A"));
        let b = g.add_node(NodeInfo::new("B"));
        g.record_interaction(a, b, EdgeInfo::new(2, 98));
        let mut inc = IncrementalGraph::from_graph(g.clone());
        assert_eq!(inc.graph(), &g);
        assert_eq!(inc.churn(), ChurnSummary::default());
        assert_eq!(inc.deltas_applied(), 0);
        inc.apply(&interact(1, 0, 1, 9));
        assert_eq!(incident_weights(&inc), [110, 110]);
    }

    #[test]
    fn deltas_round_trip_through_serde() {
        let deltas = vec![
            add("A"),
            GraphDelta::SetPinned {
                node: NodeId(0),
                pinned: Some(PinReason::NativeMethods),
            },
            interact(0, 1, 9, 91),
            GraphDelta::UpdateNode {
                node: NodeId(0),
                memory_bytes: 1,
                cpu_micros: 2,
                live_objects: 3,
            },
            GraphDelta::RemoveNode { node: NodeId(0) },
        ];
        let json = serde_json::to_string(&deltas).unwrap();
        let back: Vec<GraphDelta> = serde_json::from_str(&json).unwrap();
        assert_eq!(deltas, back);
    }
}
