//! Execution graphs and partitioning for the AIDE distributed platform.
//!
//! This crate implements the *partitioning module* of the paper
//! "Towards a Distributed Platform for Resource-Constrained Devices"
//! (ICDCS 2002):
//!
//! * [`ExecutionGraph`] — the fully connected weighted graph the monitoring
//!   module builds from an application's execution history: nodes are
//!   classes annotated with live memory and exclusive CPU time, edges carry
//!   interaction counts and bytes transferred (paper §3.4).
//! * [`stoer_wagner`] — the exact global minimum cut, used as a baseline and
//!   test oracle.
//! * [`plan_candidates`] — the paper's modified-MINCUT heuristic, which
//!   pins unoffloadable classes to the client and plans every intermediate
//!   partitioning as a [`CandidatePlan`] for policy evaluation (paper §3.3);
//!   [`density_candidates`] plans the memory-density sweep (§8).
//! * [`PartitionPolicy`] implementations — [`MemoryPolicy`] ("free at least
//!   X% of the heap, minimize cut traffic"), [`CpuPolicy`] (predicted
//!   completion time with a beneficial-offloading gate), and
//!   [`CombinedPolicy`].
//!
//! # Examples
//!
//! Relieving memory pressure by offloading a document class:
//!
//! ```
//! use aide_graph::{
//!     plan_candidates, EdgeInfo, ExecutionGraph, MemoryPolicy, NodeInfo, PartitionPolicy,
//!     PinReason, ResourceSnapshot,
//! };
//!
//! let mut graph = ExecutionGraph::new();
//! let gui = graph.add_node(NodeInfo::pinned("Gui", PinReason::NativeMethods));
//! let doc = graph.add_node(NodeInfo::new("Document"));
//! graph.node_mut(doc).memory_bytes = 4_000_000;
//! graph.record_interaction(gui, doc, EdgeInfo::new(120, 24_000));
//!
//! let plan = plan_candidates(&graph);
//! let policy = MemoryPolicy::new(0.20);
//! let snapshot = ResourceSnapshot::new(6_000_000, 5_800_000);
//! let decision = policy.select(&graph, snapshot, &plan);
//! assert!(decision.is_some(), "offloading the document frees the heap");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod density;
mod dot;
mod graph;
mod heuristic;
mod incremental;
mod mincut;
mod partition;
mod policy;

pub use cost::{CommParams, CostFunction, Crossing, CutBytes, CutInteractions, PredictedTime};
pub use density::density_candidates;
pub use dot::{to_dot, to_dot_annotated};
pub use graph::{EdgeInfo, ExecutionGraph, NodeId, NodeInfo, PinReason};
pub use heuristic::{plan_candidates, CandidatePlan};
pub use incremental::GraphDelta;
pub use mincut::{stoer_wagner, MinCut};
pub use partition::{PartitionStats, Partitioning, Side};
pub use policy::{
    CombinedPolicy, CpuPolicy, MemoryPolicy, PartitionPolicy, ResourceSnapshot, SelectedPartition,
};
