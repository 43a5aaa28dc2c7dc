//! The weighted execution graph built by AIDE's monitoring module.
//!
//! A node represents an application *class* and is annotated with the amount
//! of live memory occupied by the objects of that class and the exclusive CPU
//! time spent in the class's methods (paper §3.4, Figure 9). An edge
//! represents the interactions between two classes and is annotated with the
//! number of interaction events (method invocations and data-field accesses)
//! and the total number of bytes passed between objects of the two classes.

use std::fmt;

use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Identifier of a node (class) in an [`ExecutionGraph`].
///
/// Node identifiers are dense indices assigned by the graph in insertion
/// order; they are only meaningful within the graph that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as a dense `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Why a node must stay on the client device.
///
/// The partitioning heuristic seeds its first partition with every pinned
/// node (paper §3.3): classes containing native methods, classes holding
/// host-specific static data, and anything the embedding platform marks
/// unoffloadable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinReason {
    /// The class contains native methods that touch client-local state
    /// (e.g. framebuffer access) and must execute on the client.
    NativeMethods,
    /// The class owns host-specific static data which AIDE keeps consistent
    /// by directing all static accesses to the client VM.
    StaticState,
    /// The platform or user explicitly pinned the class.
    Explicit,
}

impl fmt::Display for PinReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PinReason::NativeMethods => f.write_str("native-methods"),
            PinReason::StaticState => f.write_str("static-state"),
            PinReason::Explicit => f.write_str("explicit"),
        }
    }
}

/// Per-class annotations carried by a graph node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Human-readable class name (used in DOT output and reports).
    pub label: String,
    /// Bytes of heap currently occupied by live objects of this class.
    pub memory_bytes: u64,
    /// Exclusive execution time spent in this class's methods, in
    /// microseconds of client CPU time (nested calls into other classes are
    /// attributed to the callee — Figure 9).
    pub cpu_micros: u64,
    /// Number of live objects of this class.
    pub live_objects: u64,
    /// `Some` when the node cannot be offloaded and must remain client-side.
    pub pinned: Option<PinReason>,
}

impl NodeInfo {
    /// Creates an unpinned node with the given label and zeroed counters.
    pub fn new(label: impl Into<String>) -> Self {
        NodeInfo {
            label: label.into(),
            memory_bytes: 0,
            cpu_micros: 0,
            live_objects: 0,
            pinned: None,
        }
    }

    /// Creates a node pinned to the client for `reason`.
    pub fn pinned(label: impl Into<String>, reason: PinReason) -> Self {
        NodeInfo {
            pinned: Some(reason),
            ..NodeInfo::new(label)
        }
    }

    /// Returns `true` if this node must remain on the client device.
    #[inline]
    pub fn is_pinned(&self) -> bool {
        self.pinned.is_some()
    }
}

/// Interaction statistics attached to an edge between two classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeInfo {
    /// Number of interaction events (method invocations + field accesses).
    pub interactions: u64,
    /// Total bytes exchanged (parameters, return values, field payloads).
    pub bytes: u64,
}

impl EdgeInfo {
    /// Creates edge statistics from an interaction count and byte total.
    pub fn new(interactions: u64, bytes: u64) -> Self {
        EdgeInfo {
            interactions,
            bytes,
        }
    }

    /// Accumulates another observation into this edge.
    #[inline]
    pub fn absorb(&mut self, other: EdgeInfo) {
        self.interactions += other.interactions;
        self.bytes += other.bytes;
    }

    /// The weight used by cut computations: total bytes transferred, plus one
    /// byte per interaction so that chatty zero-payload edges still register.
    #[inline]
    pub fn weight(&self) -> u64 {
        self.bytes + self.interactions
    }
}

/// A weighted, undirected execution graph over application classes.
///
/// # Examples
///
/// ```
/// use aide_graph::{ExecutionGraph, NodeInfo, EdgeInfo};
///
/// let mut g = ExecutionGraph::new();
/// let editor = g.add_node(NodeInfo::new("Editor"));
/// let buffer = g.add_node(NodeInfo::new("TextBuffer"));
/// g.record_interaction(editor, buffer, EdgeInfo::new(10, 4_096));
/// assert_eq!(g.edge(editor, buffer).unwrap().bytes, 4_096);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionGraph {
    nodes: Vec<NodeInfo>,
    /// `adj[v]`: v's incident edges as `(neighbour, statistics)`, sorted by
    /// neighbour id. Every edge is held at both of its ends.
    adj: Vec<Vec<(NodeId, EdgeInfo)>>,
    /// Number of distinct edges (each counted once, not once per end).
    edge_count: usize,
}

/// The serialized form: the nodes, then every edge once as an `(a, b, info)`
/// triple with `a < b`, in ascending `(a, b)` order. A list rather than a
/// map, because JSON maps require string keys.
#[derive(Serialize, Deserialize)]
struct GraphForm {
    nodes: Vec<NodeInfo>,
    edges: Vec<(NodeId, NodeId, EdgeInfo)>,
}

impl Serialize for ExecutionGraph {
    fn serialize<S: Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        GraphForm {
            nodes: self.nodes.clone(),
            edges: self.edges().map(|((a, b), e)| (a, b, e)).collect(),
        }
        .serialize(ser)
    }
}

/// Refuses, with an error rather than a panic, any edge list the graph
/// could not have written: an endpoint out of range, a self-edge, an
/// unordered pair or a pair listed twice.
impl<'de> Deserialize<'de> for ExecutionGraph {
    fn deserialize<D: Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let form = GraphForm::deserialize(de)?;
        let n = form.nodes.len();
        let mut graph = ExecutionGraph {
            adj: vec![Vec::new(); n],
            nodes: form.nodes,
            edge_count: 0,
        };
        for (a, b, e) in form.edges {
            let fault = if a.index() >= n || b.index() >= n {
                Some("names a node out of range")
            } else if a == b {
                Some("is a self-edge")
            } else if a > b {
                Some("is not ordered smaller id first")
            } else if graph.edge(a, b).is_some() {
                Some("is listed twice")
            } else {
                None
            };
            if let Some(fault) = fault {
                return Err(D::Error::custom(format_args!(
                    "edge ({a}, {b}) {fault} in a graph of {n} nodes"
                )));
            }
            graph.record_interaction(a, b, e);
        }
        Ok(graph)
    }
}

/// Absorbs `obs` into `nb`'s entry of a sorted adjacency list, inserting the
/// entry in neighbour order when there is none. Returns whether it inserted.
fn absorb_into(list: &mut Vec<(NodeId, EdgeInfo)>, nb: NodeId, obs: EdgeInfo) -> bool {
    match list.binary_search_by_key(&nb, |&(n, _)| n) {
        Ok(i) => {
            list[i].1.absorb(obs);
            false
        }
        Err(i) => {
            list.insert(i, (nb, obs));
            true
        }
    }
}

impl ExecutionGraph {
    /// Creates an empty execution graph.
    pub fn new() -> Self {
        ExecutionGraph::default()
    }

    /// Adds a node and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if the graph already contains `u32::MAX` nodes.
    pub fn add_node(&mut self, info: NodeInfo) -> NodeId {
        let id = u32::try_from(self.nodes.len()).expect("graph node capacity exceeded");
        self.nodes.push(info);
        self.adj.push(Vec::new());
        NodeId(id)
    }

    /// Number of nodes in the graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct edges (class pairs with recorded interactions).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Returns `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node's annotations.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node's annotations.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeInfo {
        &mut self.nodes[id.index()]
    }

    /// Looks up a node by its label, if present.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.label == label)
            .map(|i| NodeId(i as u32))
    }

    /// Iterates over `(NodeId, &NodeInfo)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeInfo)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Iterates over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + use<> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over the pinned nodes.
    pub fn pinned_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter().filter(|(_, n)| n.is_pinned()).map(|(id, _)| id)
    }

    /// Returns the interaction statistics between `a` and `b`, if any.
    ///
    /// The graph is undirected; `edge(a, b)` and `edge(b, a)` are equivalent.
    pub fn edge(&self, a: NodeId, b: NodeId) -> Option<EdgeInfo> {
        let list = self.adj.get(a.index())?;
        let i = list.binary_search_by_key(&b, |&(n, _)| n).ok()?;
        Some(list[i].1)
    }

    /// Records an interaction between two distinct classes, accumulating
    /// onto any existing edge: a binary search in each endpoint's list, plus
    /// an O(degree) shift when the edge is new.
    ///
    /// Interactions of a class with itself are ignored: the paper's monitor
    /// only records inter-class interactions (§5.1, "Information is recorded
    /// only for interactions between two different classes").
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn record_interaction(&mut self, a: NodeId, b: NodeId, obs: EdgeInfo) {
        assert!(a.index() < self.nodes.len(), "node {a} out of range");
        assert!(b.index() < self.nodes.len(), "node {b} out of range");
        if a == b {
            return;
        }
        absorb_into(&mut self.adj[b.index()], a, obs);
        if absorb_into(&mut self.adj[a.index()], b, obs) {
            self.edge_count += 1;
        }
    }

    /// Removes a node from consideration without disturbing the dense id
    /// space: zeroes its annotations, clears its pin, and removes every
    /// incident edge. Returns the removed incident edges, in neighbour order.
    ///
    /// Node ids are dense insertion-order indices (see [`NodeId`]), so a
    /// true removal would invalidate every id held by monitors and
    /// partitionings; a tombstone keeps them stable. The label is kept for
    /// reports. Cost is one binary search and one removal in each
    /// neighbour's list: O(deg · log deg) comparisons plus the shifts.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn clear_node(&mut self, id: NodeId) -> Vec<(NodeId, EdgeInfo)> {
        assert!(id.index() < self.nodes.len(), "node {id} out of range");
        let info = &mut self.nodes[id.index()];
        info.memory_bytes = 0;
        info.cpu_micros = 0;
        info.live_objects = 0;
        info.pinned = None;
        let removed = std::mem::take(&mut self.adj[id.index()]);
        for &(nb, _) in &removed {
            let list = &mut self.adj[nb.index()];
            let i = list
                .binary_search_by_key(&id, |&(n, _)| n)
                .expect("every edge is held at both ends");
            list.remove(i);
        }
        self.edge_count -= removed.len();
        removed
    }

    /// Iterates over `((a, b), EdgeInfo)` for every edge, once each, with
    /// `a < b`, in ascending `(a, b)` order.
    pub fn edges(&self) -> impl Iterator<Item = ((NodeId, NodeId), EdgeInfo)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            let a = NodeId(a as u32);
            let above = list.partition_point(|&(b, _)| b < a);
            list[above..].iter().map(move |&(b, e)| ((a, b), e))
        })
    }

    /// Iterates over the neighbours of `id`, in id order, together with the
    /// connecting edge statistics. Cost is O(degree).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, EdgeInfo)> + '_ {
        self.adj[id.index()].iter().copied()
    }

    /// Total heap memory attributed to all nodes, in bytes.
    pub fn total_memory(&self) -> u64 {
        self.nodes.iter().map(|n| n.memory_bytes).sum()
    }

    /// Total exclusive CPU time attributed to all nodes, in microseconds.
    pub fn total_cpu_micros(&self) -> u64 {
        self.nodes.iter().map(|n| n.cpu_micros).sum()
    }

    /// Total number of interaction events recorded on all edges.
    pub fn total_interactions(&self) -> u64 {
        self.edges().map(|(_, e)| e.interactions).sum()
    }

    /// Total number of bytes recorded on all edges.
    pub fn total_edge_bytes(&self) -> u64 {
        self.edges().map(|(_, e)| e.bytes).sum()
    }

    /// An estimate of the storage occupied by the graph itself, in bytes.
    ///
    /// The paper observes (Table 2 discussion) that the execution graph
    /// occupies a relatively small amount of storage because it aggregates
    /// millions of interaction events into a few thousand edges.
    pub fn storage_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| std::mem::size_of::<NodeInfo>() + n.label.len())
            .sum::<usize>()
            // Each edge is held at both ends.
            + 2 * self.edge_count * std::mem::size_of::<(NodeId, EdgeInfo)>()
    }

    /// Sums the weight (see [`EdgeInfo::weight`]) of every edge crossing the
    /// cut defined by `in_client`, a predicate that returns `true` for nodes
    /// on the client side.
    pub fn cut_weight<F: Fn(NodeId) -> bool>(&self, in_client: F) -> u64 {
        self.edges()
            .filter(|&((a, b), _)| in_client(a) != in_client(b))
            .map(|(_, e)| e.weight())
            .sum()
    }

    /// Sums interaction counts and byte totals over the cut defined by
    /// `in_client`, returning aggregate [`EdgeInfo`] for the cut.
    pub fn cut_traffic<F: Fn(NodeId) -> bool>(&self, in_client: F) -> EdgeInfo {
        let mut total = EdgeInfo::default();
        for ((a, b), e) in self.edges() {
            if in_client(a) != in_client(b) {
                total.absorb(e);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_node_graph() -> (ExecutionGraph, NodeId, NodeId, NodeId) {
        let mut g = ExecutionGraph::new();
        let a = g.add_node(NodeInfo::new("A"));
        let b = g.add_node(NodeInfo::new("B"));
        let c = g.add_node(NodeInfo::pinned("C", PinReason::NativeMethods));
        g.record_interaction(a, b, EdgeInfo::new(3, 300));
        g.record_interaction(b, c, EdgeInfo::new(1, 10));
        (g, a, b, c)
    }

    #[test]
    fn add_node_assigns_dense_ids() {
        let (g, a, b, c) = three_node_graph();
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn edges_are_undirected_and_accumulate() {
        let (mut g, a, b, _) = three_node_graph();
        g.record_interaction(b, a, EdgeInfo::new(2, 50));
        let e = g.edge(a, b).unwrap();
        assert_eq!(e.interactions, 5);
        assert_eq!(e.bytes, 350);
        assert_eq!(g.edge(b, a), g.edge(a, b));
    }

    #[test]
    fn self_interactions_are_ignored() {
        let (mut g, a, _, _) = three_node_graph();
        let before = g.edge_count();
        g.record_interaction(a, a, EdgeInfo::new(100, 1000));
        assert_eq!(g.edge_count(), before);
    }

    #[test]
    fn neighbors_lists_incident_edges() {
        let (g, a, b, c) = three_node_graph();
        let mut nb: Vec<NodeId> = g.neighbors(b).map(|(n, _)| n).collect();
        nb.sort();
        assert_eq!(nb, vec![a, c]);
        assert_eq!(g.neighbors(a).count(), 1);
    }

    #[test]
    fn pinned_nodes_are_reported() {
        let (g, _, _, c) = three_node_graph();
        let pinned: Vec<NodeId> = g.pinned_nodes().collect();
        assert_eq!(pinned, vec![c]);
        assert_eq!(g.node(c).pinned, Some(PinReason::NativeMethods));
    }

    #[test]
    fn totals_aggregate_annotations() {
        let (mut g, a, b, _) = three_node_graph();
        g.node_mut(a).memory_bytes = 1000;
        g.node_mut(b).memory_bytes = 500;
        g.node_mut(a).cpu_micros = 70;
        assert_eq!(g.total_memory(), 1500);
        assert_eq!(g.total_cpu_micros(), 70);
        assert_eq!(g.total_interactions(), 4);
        assert_eq!(g.total_edge_bytes(), 310);
    }

    #[test]
    fn cut_weight_counts_crossing_edges_only() {
        let (g, a, _, _) = three_node_graph();
        // Cut {a} | {b, c}: only edge a-b crosses.
        let w = g.cut_weight(|n| n == a);
        assert_eq!(w, 303); // 300 bytes + 3 interactions
        let traffic = g.cut_traffic(|n| n == a);
        assert_eq!(traffic.interactions, 3);
        assert_eq!(traffic.bytes, 300);
    }

    #[test]
    fn cut_weight_of_trivial_partitions_is_zero() {
        let (g, _, _, _) = three_node_graph();
        assert_eq!(g.cut_weight(|_| true), 0);
        assert_eq!(g.cut_weight(|_| false), 0);
    }

    #[test]
    fn node_by_label_finds_nodes() {
        let (g, a, _, _) = three_node_graph();
        assert_eq!(g.node_by_label("A"), Some(a));
        assert_eq!(g.node_by_label("missing"), None);
    }

    #[test]
    fn storage_estimate_is_nonzero_and_small() {
        let (g, _, _, _) = three_node_graph();
        let s = g.storage_bytes();
        assert!(s > 0);
        assert!(s < 10_000);
    }

    #[test]
    fn clear_node_tombstones_and_drops_incident_edges() {
        let (mut g, a, b, c) = three_node_graph();
        g.node_mut(b).memory_bytes = 9_000;
        let removed = g.clear_node(b);
        assert_eq!(removed.len(), 2);
        assert_eq!(g.node_count(), 3, "ids stay dense");
        assert_eq!(g.node(b).memory_bytes, 0);
        assert!(g.node(b).pinned.is_none());
        assert_eq!(g.edge(a, b), None);
        assert_eq!(g.edge(b, c), None);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn serde_round_trip() {
        let (g, _, _, _) = three_node_graph();
        let json = serde_json::to_string(&g).unwrap();
        let back: ExecutionGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    /// `three_node_graph()` as the edge map wrote it before the graph kept
    /// adjacency lists.
    const THREE_NODE_JSON: &str = concat!(
        r#"{"nodes":[{"label":"A","memory_bytes":0,"cpu_micros":0,"live_objects":0,"pinned":null},"#,
        r#"{"label":"B","memory_bytes":0,"cpu_micros":0,"live_objects":0,"pinned":null},"#,
        r#"{"label":"C","memory_bytes":0,"cpu_micros":0,"live_objects":0,"pinned":"NativeMethods"}],"#,
        r#""edges":[[0,1,{"interactions":3,"bytes":300}],[1,2,{"interactions":1,"bytes":10}]]}"#
    );

    #[test]
    fn serialization_is_byte_identical_to_the_edge_map_form() {
        let (g, _, _, _) = three_node_graph();
        assert_eq!(serde_json::to_string(&g).unwrap(), THREE_NODE_JSON);
    }

    /// `THREE_NODE_JSON` with its edge list replaced by `edges`.
    fn with_edges(edges: &str) -> Result<ExecutionGraph, serde_json::Error> {
        let at = THREE_NODE_JSON.find(r#""edges""#).unwrap();
        serde_json::from_str(&format!(r#"{}"edges":{edges}}}"#, &THREE_NODE_JSON[..at]))
    }

    fn refusal(edges: &str) -> String {
        with_edges(edges).unwrap_err().to_string()
    }

    #[test]
    fn an_edge_list_in_another_order_still_loads() {
        let g = with_edges(
            r#"[[1,2,{"interactions":1,"bytes":10}],[0,1,{"interactions":3,"bytes":300}]]"#,
        )
        .unwrap();
        assert_eq!(g, three_node_graph().0);
    }

    #[test]
    fn deserializing_an_out_of_range_endpoint_is_an_error() {
        let msg = refusal(r#"[[0,3,{"interactions":1,"bytes":1}]]"#);
        assert!(msg.contains("out of range"), "{msg}");
    }

    #[test]
    fn deserializing_a_self_edge_is_an_error() {
        let msg = refusal(r#"[[1,1,{"interactions":1,"bytes":1}]]"#);
        assert!(msg.contains("self-edge"), "{msg}");
    }

    #[test]
    fn deserializing_an_unordered_edge_is_an_error() {
        let msg = refusal(r#"[[2,1,{"interactions":1,"bytes":1}]]"#);
        assert!(msg.contains("not ordered"), "{msg}");
    }

    #[test]
    fn deserializing_a_duplicated_edge_is_an_error() {
        let edge = r#"[0,1,{"interactions":3,"bytes":300}]"#;
        let msg = refusal(&format!("[{edge},{edge}]"));
        assert!(msg.contains("listed twice"), "{msg}");
    }
}
