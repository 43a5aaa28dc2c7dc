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

impl ExecutionGraph {
    /// Applies one delta, at the costs listed on [`GraphDelta`].
    ///
    /// # Panics
    ///
    /// Panics if the delta references a node id out of range.
    ///
    /// # Examples
    ///
    /// ```
    /// use aide_graph::{EdgeInfo, ExecutionGraph, GraphDelta, NodeId};
    ///
    /// let mut g = ExecutionGraph::new();
    /// for label in ["Editor", "Buffer"] {
    ///     g.apply(&GraphDelta::AddNode {
    ///         label: label.into(),
    ///         pinned: None,
    ///         memory_bytes: 0,
    ///         cpu_micros: 0,
    ///         live_objects: 0,
    ///     });
    /// }
    /// g.apply(&GraphDelta::Interaction {
    ///     a: NodeId(0),
    ///     b: NodeId(1),
    ///     delta: EdgeInfo::new(3, 97),
    /// });
    /// assert_eq!(g.edge(NodeId(0), NodeId(1)).unwrap().bytes, 97);
    /// ```
    pub fn apply(&mut self, delta: &GraphDelta) {
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
                self.add_node(info);
            }
            GraphDelta::UpdateNode {
                node,
                memory_bytes,
                cpu_micros,
                live_objects,
            } => {
                let info = self.node_mut(*node);
                info.memory_bytes = *memory_bytes;
                info.cpu_micros = *cpu_micros;
                info.live_objects = *live_objects;
            }
            GraphDelta::SetPinned { node, pinned } => self.node_mut(*node).pinned = *pinned,
            GraphDelta::Interaction { a, b, delta } => self.record_interaction(*a, *b, *delta),
            GraphDelta::RemoveNode { node } => {
                self.clear_node(*node);
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
    fn incident_weights(g: &ExecutionGraph) -> Vec<u64> {
        g.node_ids()
            .map(|v| g.neighbors(v).map(|(_, e)| e.weight()).sum())
            .collect()
    }

    #[test]
    fn deltas_build_the_same_graph_as_direct_calls() {
        let mut g = ExecutionGraph::new();
        g.apply_all(&[
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

        assert_eq!(g, direct);
        assert_eq!(incident_weights(&g), [355, 366, 11]);
    }

    #[test]
    fn update_node_is_absolute() {
        let mut g = ExecutionGraph::new();
        g.apply(&add("A"));
        g.apply(&GraphDelta::UpdateNode {
            node: NodeId(0),
            memory_bytes: 1_000,
            cpu_micros: 50,
            live_objects: 2,
        });
        g.apply(&GraphDelta::UpdateNode {
            node: NodeId(0),
            memory_bytes: 400,
            cpu_micros: 70,
            live_objects: 1,
        });
        let n = g.node(NodeId(0));
        assert_eq!(n.memory_bytes, 400);
        assert_eq!(n.cpu_micros, 70);
        assert_eq!(n.live_objects, 1);
    }

    #[test]
    fn set_pinned_is_structural_only_when_it_changes() {
        let mut g = ExecutionGraph::new();
        g.apply(&add("A"));
        let before = g.clone();
        g.apply(&GraphDelta::SetPinned {
            node: NodeId(0),
            pinned: None,
        });
        assert_eq!(g, before, "a no-op pin change leaves the graph as it was");
        g.apply(&GraphDelta::SetPinned {
            node: NodeId(0),
            pinned: Some(PinReason::Explicit),
        });
        assert!(g.node(NodeId(0)).is_pinned());
    }

    #[test]
    fn remove_node_tombstones_and_fixes_strengths() {
        let mut g = ExecutionGraph::new();
        g.apply_all(&[
            add("A"),
            add("B"),
            add("C"),
            interact(0, 1, 0, 100),
            interact(1, 2, 0, 40),
            interact(0, 2, 0, 7),
        ]);
        g.apply(&GraphDelta::RemoveNode { node: NodeId(1) });
        assert_eq!(g.node_count(), 3, "ids stay dense");
        assert_eq!(g.edge_count(), 1);
        assert_eq!(incident_weights(&g), [7, 0, 7]);
    }

    #[test]
    fn self_interactions_are_ignored() {
        let mut g = ExecutionGraph::new();
        g.apply(&add("A"));
        g.apply(&interact(0, 0, 5, 500));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(incident_weights(&g), [0]);
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
