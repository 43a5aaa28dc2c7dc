//! The execution and resource monitoring module (paper §3.4).
//!
//! The monitor implements [`RuntimeHooks`] and aggregates the VM's event
//! stream into the weighted execution graph the partitioner consumes: a
//! node per class annotated with live memory and exclusive CPU time, and an
//! edge per interacting class pair annotated with interaction counts and
//! bytes transferred.
//!
//! With the *array enhancement* enabled (paper §5.2), objects of designated
//! primitive-array classes are monitored at **object granularity**: each
//! array instance gets its own graph node, so the partitioner can place
//! individual arrays instead of the whole class.
//!
//! The monitor also maintains the memory-pressure trigger state machine
//! (three successive collection cycles reporting little free memory, §5.1),
//! the remote-interaction counters behind Figure 8, and the execution
//! metrics behind Table 2.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use aide_telemetry::sync::Mutex;
use serde::{Deserialize, Serialize};

use aide_graph::{EdgeInfo, ExecutionGraph, GraphDelta, NodeId, NodeInfo, PinReason};
use aide_vm::{
    BuildIdHasher, ClassId, GcReport, Interaction, InteractionKind, NativeKind, ObjectId,
    PendingEvent, Program, RuntimeHooks,
};

/// What a graph node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeKey {
    /// A whole class (the paper's default component granularity).
    Class(ClassId),
    /// A single object of an object-granular (primitive-array) class.
    Object(ObjectId),
}

/// Memory-pressure trigger configuration (paper §5.1): partitioning is
/// triggered when successive garbage-collection cycles indicate that
/// additional memory cannot be freed or that less than the threshold
/// fraction of memory is available.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TriggerConfig {
    /// A cycle signals pressure when free heap is below this fraction.
    pub low_free_fraction: f64,
    /// A cycle that reclaims nothing ("additional memory cannot be freed")
    /// signals pressure when free heap is below this fraction — a barren
    /// cycle with ample free memory is healthy, not pressure.
    pub barren_concern_fraction: f64,
    /// Successive pressured cycles required before the trigger fires (the
    /// paper's "tolerance to low-memory signals").
    pub consecutive_reports: u32,
}

impl Default for TriggerConfig {
    fn default() -> Self {
        // The paper's initial policy: three successive cycles under 5% free.
        TriggerConfig {
            low_free_fraction: 0.05,
            barren_concern_fraction: 0.10,
            consecutive_reports: 3,
        }
    }
}

/// Table 2-style execution metrics, sampled at every collection cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MonitorMetrics {
    /// Number of samples taken (one per GC cycle).
    pub samples: u64,
    /// Average number of classes with live objects per sample.
    pub classes_avg: f64,
    /// Maximum number of classes with live objects in any sample.
    pub classes_max: u64,
    /// Total classes that ever had an object allocated.
    pub classes_total: u64,
    /// Average live objects per sample.
    pub objects_avg: f64,
    /// Maximum live objects in any sample.
    pub objects_max: u64,
    /// Total objects created.
    pub objects_total: u64,
    /// Average number of graph links (edges) per sample.
    pub links_avg: f64,
    /// Maximum number of graph links in any sample.
    pub links_max: u64,
    /// Total interaction events recorded.
    pub interaction_events: u64,
    /// Interaction events that were method invocations.
    pub invocation_events: u64,
    /// Interaction events that were data-field accesses.
    pub field_access_events: u64,
    /// Estimated storage footprint of the execution graph, in bytes.
    pub graph_storage_bytes: u64,
}

/// Remote-execution counters (Figure 8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteStats {
    /// Remote inter-class interactions (invocations + accesses).
    pub remote_interactions: u64,
    /// Remote method invocations only.
    pub remote_invocations: u64,
    /// Native invocations that had to travel back to the client.
    pub remote_native_calls: u64,
    /// Static-data accesses that had to travel back to the client.
    pub remote_static_accesses: u64,
    /// Bytes carried by remote interactions.
    pub remote_bytes: u64,
}

/// An edge's statistics: since the monitor started, and since the last
/// [`Monitor::drain_deltas`].
#[derive(Debug, Default, Clone, Copy)]
struct EdgeTally {
    total: EdgeInfo,
    undrained: EdgeInfo,
}

/// "No node yet" in [`MonitorState::class_nodes`].
const NO_NODE: u32 = u32::MAX;

/// "Not seen yet" in [`MonitorState::class_pairs`].
const PAIR_UNSEEN: u32 = u32::MAX;

/// "Same node, no edge" in [`MonitorState::class_pairs`]: a class talking
/// to itself.
const PAIR_SAME_NODE: u32 = u32::MAX - 1;

/// Everything the hooks mutate, behind the monitor's one lock.
#[derive(Debug, Default)]
struct MonitorState {
    /// Class -> node index, indexed by [`ClassId`]; [`NO_NODE`] until the
    /// class first appears in an event.
    class_nodes: Vec<u32>,
    /// Object -> node index, for objects of object-granular classes.
    object_nodes: HashMap<ObjectId, u32>,
    labels: Vec<(NodeKey, String, Option<PinReason>)>,
    memory: Vec<i64>,
    cpu_micros: Vec<f64>,
    live_objects: Vec<i64>,
    /// Every edge in first-seen order, keyed by `lo << 32 | hi` over node
    /// indices, `lo < hi`.
    edges: Vec<(u64, EdgeTally)>,
    /// `classes × classes` cells, indexed by `caller * classes + callee`:
    /// the index into `edges` of a class-granular interaction's edge,
    /// [`PAIR_SAME_NODE`] or [`PAIR_UNSEEN`].
    class_pairs: Vec<u32>,
    /// Edge key -> index into `edges`, for edges to object-granular nodes.
    /// The keys are dense node indices this module mints itself.
    object_edges: HashMap<u64, u32, BuildIdHasher>,
    /// Object -> class, for object-granular classes.
    object_class: HashMap<ObjectId, ClassId>,
    /// Node indices already announced to delta consumers via `AddNode`
    /// (the [`Monitor::drain_deltas`] watermark).
    published_nodes: usize,
    /// Per node: its annotations changed since the last drain.
    dirty: Vec<bool>,
    /// The nodes flagged in `dirty`, in the order they were first touched.
    dirty_nodes: Vec<u32>,
    invocations: u64,
    accesses: u64,
    remote: RemoteStats,
    work_since_eval_micros: f64,
    samples: u64,
    class_live_sum: u64,
    class_live_max: u64,
    /// Indexed by [`ClassId`]: an object of the class was allocated.
    classes_seen: Vec<bool>,
    classes_seen_count: u64,
    obj_live: i64,
    obj_live_sum: u64,
    obj_live_max: u64,
    obj_total: u64,
    links_sum: u64,
    links_max: u64,
}

impl MonitorState {
    /// The node standing for `class`, if an event has named it yet.
    fn find_class_node(&self, class: ClassId) -> Option<usize> {
        let node = *self.class_nodes.get(class.index())?;
        (node != NO_NODE).then_some(node as usize)
    }

    fn add_node(&mut self, key: NodeKey, label: String, pin: Option<PinReason>) -> u32 {
        let i = self.labels.len() as u32;
        self.labels.push((key, label, pin));
        self.memory.push(0);
        self.cpu_micros.push(0.0);
        self.live_objects.push(0);
        self.dirty.push(false);
        i
    }

    /// The node standing for `object` itself, created on first sight.
    fn object_node(&mut self, object: ObjectId) -> usize {
        if let Some(&i) = self.object_nodes.get(&object) {
            return i as usize;
        }
        let i = self.add_node(NodeKey::Object(object), format!("obj:{object}"), None);
        self.object_nodes.insert(object, i);
        i as usize
    }

    /// Appends the edge `key` with nothing counted yet; returns its index.
    fn add_edge(&mut self, key: u64) -> u32 {
        let i = self.edges.len() as u32;
        debug_assert!(i < PAIR_SAME_NODE, "edge indices stay below the sentinels");
        self.edges.push((key, EdgeTally::default()));
        i
    }

    /// The edge between object-granular node `object` and class node
    /// `class`, created on first sight.
    fn object_edge(&mut self, class: usize, object: usize) -> u32 {
        let key = edge_key(class, object);
        if let Some(&e) = self.object_edges.get(&key) {
            return e;
        }
        let e = self.add_edge(key);
        self.object_edges.insert(key, e);
        e
    }

    fn count_on_edge(&mut self, edge: u32, increment: EdgeInfo) {
        let tally = &mut self.edges[edge as usize].1;
        tally.total.absorb(increment);
        tally.undrained.absorb(increment);
    }

    fn remote_native(&mut self, bytes: u64) {
        self.remote.remote_native_calls += 1;
        self.remote.remote_interactions += 1;
        self.remote.remote_invocations += 1;
        self.remote.remote_bytes += bytes;
    }

    fn remote_static_access(&mut self, bytes: u64) {
        self.remote.remote_static_accesses += 1;
        self.remote.remote_interactions += 1;
        self.remote.remote_bytes += bytes;
    }

    fn mark_dirty(&mut self, node: usize) {
        if !self.dirty[node] {
            self.dirty[node] = true;
            self.dirty_nodes.push(node as u32);
        }
    }

    /// The `(memory_bytes, cpu_micros, live_objects)` a consumer sees for
    /// `node`: negative balances floor at zero, fractional microseconds
    /// round.
    fn annotations(&self, node: usize) -> (u64, u64, u64) {
        (
            self.memory[node].max(0) as u64,
            self.cpu_micros[node].round() as u64,
            self.live_objects[node].max(0) as u64,
        )
    }
}

/// The monitoring module.
///
/// Shared by both VMs of a distributed platform (the paper performs graph
/// partitioning solely on the client but assumes shared knowledge of the
/// application, §4).
pub struct Monitor {
    program: Arc<Program>,
    trigger: TriggerConfig,
    /// Indexed by [`ClassId`]: the class is monitored at object granularity.
    object_granular: Vec<bool>,
    state: Mutex<MonitorState>,
    low_memory_streak: AtomicU64,
    memory_triggered: AtomicBool,
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("trigger", &self.trigger)
            .field(
                "object_granular_classes",
                &self.object_granular.iter().filter(|&&g| g).count(),
            )
            .finish()
    }
}

impl Monitor {
    /// Creates a monitor for `program`.
    ///
    /// `object_granular` lists primitive-array classes to monitor at
    /// object granularity (empty = pure class granularity, the paper's
    /// default). The class-pair table takes 4 bytes per ordered pair of
    /// classes (76 KB for JavaNote's 138).
    pub fn new(
        program: Arc<Program>,
        trigger: TriggerConfig,
        object_granular: HashSet<ClassId>,
    ) -> Self {
        let classes = program.classes().len();
        Monitor {
            object_granular: (0..classes)
                .map(|c| object_granular.contains(&ClassId(c as u32)))
                .collect(),
            state: Mutex::new(MonitorState {
                class_nodes: vec![NO_NODE; classes],
                class_pairs: vec![PAIR_UNSEEN; classes * classes],
                classes_seen: vec![false; classes],
                ..MonitorState::default()
            }),
            program,
            trigger,
            low_memory_streak: AtomicU64::new(0),
            memory_triggered: AtomicBool::new(false),
        }
    }

    /// The trigger configuration.
    pub fn trigger_config(&self) -> TriggerConfig {
        self.trigger
    }

    /// Returns `true` once the memory-pressure trigger has fired.
    pub fn memory_triggered(&self) -> bool {
        self.memory_triggered.load(Ordering::SeqCst)
    }

    /// Clears the memory trigger (after an offload handled it).
    pub fn reset_memory_trigger(&self) {
        self.memory_triggered.store(false, Ordering::SeqCst);
        self.low_memory_streak.store(0, Ordering::SeqCst);
    }

    /// Exclusive work accumulated since the last periodic evaluation
    /// (non-destructive peek).
    pub fn work_since_eval(&self) -> f64 {
        self.state.lock().work_since_eval_micros
    }

    /// Exclusive work accumulated since the last periodic evaluation, and
    /// resets the accumulator — used by CPU-constraint triggering.
    pub fn take_work_since_eval(&self) -> f64 {
        std::mem::replace(&mut self.state.lock().work_since_eval_micros, 0.0)
    }

    /// Remote-execution counters (Figure 8).
    pub fn remote_stats(&self) -> RemoteStats {
        self.state.lock().remote
    }

    /// Table 2-style execution metrics.
    pub fn metrics(&self) -> MonitorMetrics {
        let s = self.state.lock();
        let storage = s
            .labels
            .iter()
            .map(|(_, label, _)| 48 + label.len())
            .sum::<usize>()
            + s.edges.len() * (16 + std::mem::size_of::<EdgeInfo>());
        let div = |sum: u64, n: u64| if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        MonitorMetrics {
            samples: s.samples,
            classes_avg: div(s.class_live_sum, s.samples),
            classes_max: s.class_live_max,
            classes_total: s.classes_seen_count,
            objects_avg: div(s.obj_live_sum, s.samples),
            objects_max: s.obj_live_max,
            objects_total: s.obj_total,
            links_avg: div(s.links_sum, s.samples),
            links_max: s.links_max,
            interaction_events: s.invocations + s.accesses,
            invocation_events: s.invocations,
            field_access_events: s.accesses,
            graph_storage_bytes: storage as u64,
        }
    }

    /// Snapshots the current execution graph.
    ///
    /// Returns the graph plus the [`NodeKey`] each [`NodeId`] stands for,
    /// which the offload executor needs to translate a partitioning back
    /// into concrete objects.
    pub fn snapshot(&self) -> (ExecutionGraph, Vec<NodeKey>) {
        let s = self.state.lock();
        let mut graph = ExecutionGraph::new();
        let mut keys = Vec::with_capacity(s.labels.len());
        for (i, (key, label, pin)) in s.labels.iter().enumerate() {
            let mut info = match pin {
                Some(reason) => NodeInfo::pinned(label.clone(), *reason),
                None => NodeInfo::new(label.clone()),
            };
            (info.memory_bytes, info.cpu_micros, info.live_objects) = s.annotations(i);
            let id = graph.add_node(info);
            debug_assert_eq!(id.index(), i);
            keys.push(*key);
        }
        // In key order, not first-seen order: the graph keeps its edges in
        // a B-tree whose node layout follows insertion order, and
        // everything downstream walks that tree. Ascending builds the
        // layout `decide_with` walks fastest.
        let mut edges: Vec<(u64, EdgeInfo)> = s
            .edges
            .iter()
            .map(|&(key, tally)| (key, tally.total))
            .collect();
        edges.sort_unstable_by_key(|&(key, _)| key);
        for (key, total) in edges {
            let (a, b) = edge_ends(key);
            graph.record_interaction(a, b, total);
        }
        (graph, keys)
    }

    /// Drains the changes observed since the previous drain as a batch of
    /// [`GraphDelta`]s, plus the current [`NodeKey`] of every node.
    ///
    /// Applying every drained batch, in order, with
    /// [`ExecutionGraph::apply_all`] yields exactly the graph
    /// [`snapshot`](Monitor::snapshot) would return at the same moment —
    /// the snapshot's clamping (negative memory balances floor at zero,
    /// fractional CPU microseconds round) is performed here, once, on the
    /// producer side. Batches are deterministic: node additions in id
    /// order, then annotation updates in id order, then edge increments in
    /// `(a, b)` order.
    pub fn drain_deltas(&self) -> (Vec<GraphDelta>, Vec<NodeKey>) {
        let mut guard = self.state.lock();
        let s = &mut *guard;
        let was_published = s.published_nodes;
        let mut deltas = Vec::new();
        for i in was_published..s.labels.len() {
            let (_, label, pin) = &s.labels[i];
            let (memory_bytes, cpu_micros, live_objects) = s.annotations(i);
            deltas.push(GraphDelta::AddNode {
                label: label.clone(),
                pinned: *pin,
                memory_bytes,
                cpu_micros,
                live_objects,
            });
        }
        s.dirty_nodes.sort_unstable();
        for &node in &s.dirty_nodes {
            let i = node as usize;
            s.dirty[i] = false;
            // A node first announced by this very batch carries its current
            // annotations in the `AddNode` above.
            if i < was_published {
                let (memory_bytes, cpu_micros, live_objects) = s.annotations(i);
                deltas.push(GraphDelta::UpdateNode {
                    node: NodeId(node),
                    memory_bytes,
                    cpu_micros,
                    live_objects,
                });
            }
        }
        s.dirty_nodes.clear();
        let mut edges: Vec<(u64, EdgeInfo)> = s
            .edges
            .iter_mut()
            .filter(|(_, tally)| tally.undrained.interactions > 0)
            .map(|(key, tally)| (*key, std::mem::take(&mut tally.undrained)))
            .collect();
        // `lo << 32 | hi` orders exactly as `(lo, hi)` does.
        edges.sort_unstable_by_key(|&(key, _)| key);
        for (key, delta) in edges {
            let (a, b) = edge_ends(key);
            deltas.push(GraphDelta::Interaction { a, b, delta });
        }
        s.published_nodes = s.labels.len();
        let keys = s.labels.iter().map(|(k, _, _)| *k).collect();
        (deltas, keys)
    }

    /// The class a monitored object belongs to, if the monitor saw its
    /// allocation (used for object-granular placement).
    pub fn class_of_object(&self, id: ObjectId) -> Option<ClassId> {
        self.state.lock().object_class.get(&id).copied()
    }

    fn is_object_granular(&self, class: ClassId) -> bool {
        self.object_granular
            .get(class.index())
            .copied()
            .unwrap_or(false)
    }

    fn class_node(&self, s: &mut MonitorState, class: ClassId) -> usize {
        if let Some(i) = s.find_class_node(class) {
            return i;
        }
        let def = self.program.class(class).expect("monitored class exists");
        // Only classes *implemented with* native methods are pinned
        // (paper §3.3); classes that merely invoke natives remain
        // offloadable — their native calls are redirected to the
        // client at run time instead.
        let pin = def.native_impl.then_some(PinReason::NativeMethods);
        let i = s.add_node(NodeKey::Class(class), def.name.clone(), pin);
        s.class_nodes[class.index()] = i;
        i as usize
    }

    /// First sight of `(caller, callee)` between class nodes: mints the two
    /// nodes in the order the event names them, then fills the pair's cell
    /// and its mirror's, which lands on the same edge.
    fn class_pair(&self, s: &mut MonitorState, caller: ClassId, callee: ClassId) -> u32 {
        let a = self.class_node(s, caller);
        let b = self.class_node(s, callee);
        let edge = if a == b {
            PAIR_SAME_NODE
        } else {
            s.add_edge(edge_key(a, b))
        };
        let classes = self.object_granular.len();
        s.class_pairs[caller.index() * classes + callee.index()] = edge;
        s.class_pairs[callee.index() * classes + caller.index()] = edge;
        edge
    }

    /// Folds `count` occurrences of `event`.
    fn interaction(&self, s: &mut MonitorState, event: Interaction, count: u64) {
        let increment = EdgeInfo::new(count, count * event.bytes);
        // Indexing, not `is_object_granular`: an unknown class must not
        // alias another pair's cell below.
        let granular = self.object_granular[event.callee.index()];
        match event.target {
            Some(object) if granular => {
                let a = self.class_node(s, event.caller);
                let b = s.object_node(object);
                let edge = s.object_edge(a, b);
                s.count_on_edge(edge, increment);
            }
            _ => {
                let cell = event.caller.index() * self.object_granular.len() + event.callee.index();
                let edge = match s.class_pairs[cell] {
                    PAIR_UNSEEN => self.class_pair(s, event.caller, event.callee),
                    edge => edge,
                };
                if edge != PAIR_SAME_NODE {
                    s.count_on_edge(edge, increment);
                }
            }
        }
        match event.kind {
            InteractionKind::Invocation => s.invocations += count,
            InteractionKind::FieldAccess => s.accesses += count,
        }
        if event.remote {
            s.remote.remote_interactions += count;
            if event.kind == InteractionKind::Invocation {
                s.remote.remote_invocations += count;
            }
            s.remote.remote_bytes += count * event.bytes;
        }
    }

    fn work(&self, s: &mut MonitorState, class: ClassId, micros: f64) {
        let i = self.class_node(s, class);
        s.cpu_micros[i] += micros;
        s.mark_dirty(i);
        s.work_since_eval_micros += micros;
    }
}

/// The key of the edge between nodes `a` and `b`: `lo << 32 | hi`.
fn edge_key(a: usize, b: usize) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (lo as u64) << 32 | hi as u64
}

/// The two node ids packed into an edge key.
fn edge_ends(key: u64) -> (NodeId, NodeId) {
    (NodeId((key >> 32) as u32), NodeId(key as u32))
}

impl RuntimeHooks for Monitor {
    fn on_interaction(&self, event: Interaction) {
        self.interaction(&mut self.state.lock(), event, 1);
    }

    fn on_alloc(&self, class: ClassId, object: ObjectId, bytes: u64) {
        let mut guard = self.state.lock();
        let s = &mut *guard;
        let i = if self.is_object_granular(class) {
            s.object_class.insert(object, class);
            s.object_node(object)
        } else {
            self.class_node(s, class)
        };
        s.memory[i] += bytes as i64;
        s.live_objects[i] += 1;
        s.mark_dirty(i);
        if !std::mem::replace(&mut s.classes_seen[class.index()], true) {
            s.classes_seen_count += 1;
        }
        s.obj_live += 1;
        s.obj_total += 1;
    }

    fn on_free(&self, class: ClassId, objects: u64, bytes: u64) {
        let mut s = self.state.lock();
        // Frees arrive aggregated per class. Object-granular classes are
        // skipped: dead object nodes are detected lazily (their memory
        // stays until re-snapshot), acceptable because offload decisions
        // use live class bytes from the heap at offload time.
        if !self.is_object_granular(class) {
            if let Some(i) = s.find_class_node(class) {
                s.memory[i] -= bytes as i64;
                s.live_objects[i] -= objects as i64;
                s.mark_dirty(i);
            }
        }
        s.obj_live -= objects as i64;
    }

    fn on_work(&self, class: ClassId, micros: f64) {
        self.work(&mut self.state.lock(), class, micros);
    }

    fn on_native(
        &self,
        _caller: ClassId,
        _kind: NativeKind,
        _work_micros: u32,
        bytes: u64,
        remote: bool,
    ) {
        if remote {
            self.state.lock().remote_native(bytes);
        }
    }

    fn on_static_access(&self, _accessor: ClassId, _class: ClassId, bytes: u64, remote: bool) {
        if remote {
            self.state.lock().remote_static_access(bytes);
        }
    }

    fn on_gc(&self, report: &GcReport) {
        // Sample Table 2 metrics.
        {
            let mut guard = self.state.lock();
            let s = &mut *guard;
            let classes_live = s
                .labels
                .iter()
                .enumerate()
                .filter(|(i, (key, _, _))| {
                    matches!(key, NodeKey::Class(_)) && s.live_objects[*i] > 0
                })
                .count() as u64;
            let links = s.edges.len() as u64;
            s.samples += 1;
            s.class_live_sum += classes_live;
            s.class_live_max = s.class_live_max.max(classes_live);
            let live = s.obj_live.max(0) as u64;
            s.obj_live_sum += live;
            s.obj_live_max = s.obj_live_max.max(live);
            s.links_sum += links;
            s.links_max = s.links_max.max(links);
        }

        // Memory trigger state machine.
        let free = report.free_fraction();
        let pressured = free < self.trigger.low_free_fraction
            || (report.reclaimed_nothing() && free < self.trigger.barren_concern_fraction);
        if pressured {
            let streak = self.low_memory_streak.fetch_add(1, Ordering::SeqCst) + 1;
            if streak >= self.trigger.consecutive_reports as u64 {
                self.memory_triggered.store(true, Ordering::SeqCst);
            }
        } else {
            self.low_memory_streak.store(0, Ordering::SeqCst);
        }
    }

    /// One lock for the whole burst.
    fn on_events(&self, events: &[PendingEvent]) {
        let mut guard = self.state.lock();
        let s = &mut *guard;
        for event in events {
            match *event {
                PendingEvent::Interaction(i) => self.interaction(s, i, 1),
                PendingEvent::Counted { interaction, count } => {
                    self.interaction(s, interaction, u64::from(count));
                }
                PendingEvent::Work { class, micros } => self.work(s, class, micros),
                PendingEvent::Native { bytes, remote, .. } => {
                    if remote {
                        s.remote_native(bytes);
                    }
                }
                PendingEvent::StaticAccess { bytes, remote, .. } => {
                    if remote {
                        s.remote_static_access(bytes);
                    }
                }
                PendingEvent::MethodExit { .. } => {}
            }
        }
    }

    /// The monitor only accumulates work; nothing in it reacts to a `Work`
    /// op before the next op runs.
    fn needs_work_boundary(&self) -> bool {
        false
    }

    /// Its state is sums but for node minting, and every first sight still
    /// arrives in order: counts and summed `Work` fold to the same state.
    fn accumulates(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_vm::{MethodDef, MethodId, Op, ProgramBuilder};

    fn program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let doc = b.add_class("Document");
        let arr = b.add_array_class("CharArray");
        let ui = b.add_class("Gui");
        b.add_method(main, MethodDef::new("main", vec![]));
        b.set_native_impl(ui);
        b.add_method(
            ui,
            MethodDef::new(
                "draw",
                vec![Op::Native {
                    kind: NativeKind::Framebuffer,
                    work_micros: 1,
                    arg_bytes: 8,
                    ret_bytes: 0,
                }],
            ),
        );
        let _ = (doc, arr);
        Arc::new(b.build(main, MethodId(0), 0, 0).unwrap())
    }

    fn monitor(object_granular: bool) -> Monitor {
        let p = program();
        let granular = if object_granular {
            [ClassId(2)].into_iter().collect()
        } else {
            HashSet::new()
        };
        Monitor::new(p, TriggerConfig::default(), granular)
    }

    fn interaction(caller: u32, callee: u32, bytes: u64, remote: bool) -> Interaction {
        Interaction {
            caller: ClassId(caller),
            callee: ClassId(callee),
            target: Some(ObjectId::client(99)),
            kind: InteractionKind::Invocation,
            bytes,
            remote,
        }
    }

    #[test]
    fn interactions_accumulate_into_edges() {
        let m = monitor(false);
        m.on_interaction(interaction(0, 1, 100, false));
        m.on_interaction(interaction(1, 0, 50, false));
        let (graph, keys) = m.snapshot();
        assert_eq!(graph.node_count(), 2);
        assert_eq!(graph.edge_count(), 1);
        let e = graph.edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(e.interactions, 2);
        assert_eq!(e.bytes, 150);
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn alloc_and_free_balance_memory() {
        let m = monitor(false);
        m.on_alloc(ClassId(1), ObjectId::client(0), 1_000);
        m.on_alloc(ClassId(1), ObjectId::client(1), 500);
        m.on_free(ClassId(1), 1, 500);
        let (graph, _) = m.snapshot();
        let node = graph.node_by_label("Document").unwrap();
        assert_eq!(graph.node(node).memory_bytes, 1_000);
        assert_eq!(graph.node(node).live_objects, 1);
    }

    #[test]
    fn native_classes_are_pinned_in_snapshot() {
        let m = monitor(false);
        m.on_alloc(ClassId(3), ObjectId::client(0), 100);
        let (graph, _) = m.snapshot();
        let gui = graph.node_by_label("Gui").unwrap();
        assert!(graph.node(gui).is_pinned());
    }

    #[test]
    fn work_is_attributed_exclusively() {
        let m = monitor(false);
        m.on_work(ClassId(0), 120.0);
        m.on_work(ClassId(1), 30.0);
        m.on_work(ClassId(0), 1.5);
        let (graph, _) = m.snapshot();
        let main = graph.node_by_label("Main").unwrap();
        let doc = graph.node_by_label("Document").unwrap();
        assert_eq!(graph.node(main).cpu_micros, 122);
        assert_eq!(graph.node(doc).cpu_micros, 30);
    }

    #[test]
    fn object_granular_classes_get_per_object_nodes() {
        let m = monitor(true);
        let a1 = ObjectId::client(10);
        let a2 = ObjectId::client(11);
        m.on_alloc(ClassId(2), a1, 40_000);
        m.on_alloc(ClassId(2), a2, 20_000);
        m.on_interaction(Interaction {
            caller: ClassId(1),
            callee: ClassId(2),
            target: Some(a1),
            kind: InteractionKind::FieldAccess,
            bytes: 64,
            remote: false,
        });
        let (graph, keys) = m.snapshot();
        // Two object nodes plus the Document caller node.
        assert_eq!(graph.node_count(), 3);
        let object_nodes = keys
            .iter()
            .filter(|k| matches!(k, NodeKey::Object(_)))
            .count();
        assert_eq!(object_nodes, 2);
        // The interaction edge attaches to a1's node, not a class node.
        let a1_node = keys.iter().position(|k| *k == NodeKey::Object(a1)).unwrap();
        assert!(graph.neighbors(NodeId(a1_node as u32)).next().is_some());
    }

    #[test]
    fn node_ids_follow_first_sight() {
        let m = monitor(true);
        let a1 = ObjectId::client(10);
        let to_array = |target| Interaction {
            caller: ClassId(0),
            callee: ClassId(2),
            target,
            kind: InteractionKind::FieldAccess,
            bytes: 4,
            remote: false,
        };
        // A class talking to itself mints its node and no edge.
        m.on_interaction(interaction(3, 3, 8, false));
        // Caller first, then callee.
        m.on_interaction(interaction(1, 0, 8, false));
        // An object-granular target: the caller's node exists, the
        // object's is new.
        m.on_interaction(to_array(Some(a1)));
        // The mirrored pair lands on the first pair's edge, minting nothing.
        m.on_interaction(interaction(0, 1, 8, false));
        // A static call to an object-granular class lands on its class node.
        m.on_interaction(to_array(None));
        let (graph, keys) = m.snapshot();
        assert_eq!(
            keys,
            [
                NodeKey::Class(ClassId(3)),
                NodeKey::Class(ClassId(1)),
                NodeKey::Class(ClassId(0)),
                NodeKey::Object(a1),
                NodeKey::Class(ClassId(2)),
            ]
        );
        assert_eq!(graph.edge_count(), 3);
        assert_eq!(graph.edge(NodeId(1), NodeId(2)), Some(EdgeInfo::new(2, 16)));
        assert_eq!(graph.edge(NodeId(2), NodeId(3)), Some(EdgeInfo::new(1, 4)));
        assert_eq!(graph.edge(NodeId(2), NodeId(4)), Some(EdgeInfo::new(1, 4)));
    }

    fn report(free_after: u64, freed: u64) -> GcReport {
        GcReport {
            cycle: 0,
            capacity: 1_000,
            used_after: 1_000 - free_after,
            free_after,
            freed_objects: freed,
            freed_bytes: freed * 10,
            duration_micros: 1.0,
        }
    }

    #[test]
    fn memory_trigger_needs_consecutive_pressure() {
        let m = monitor(false);
        // 3 consecutive low-memory reports (< 5% free).
        m.on_gc(&report(10, 5));
        m.on_gc(&report(10, 5));
        assert!(!m.memory_triggered());
        m.on_gc(&report(10, 5));
        assert!(m.memory_triggered());
    }

    #[test]
    fn healthy_cycle_resets_the_streak() {
        let m = monitor(false);
        m.on_gc(&report(10, 5));
        m.on_gc(&report(10, 5));
        m.on_gc(&report(500, 5)); // 50% free: healthy
        m.on_gc(&report(10, 5));
        m.on_gc(&report(10, 5));
        assert!(!m.memory_triggered());
        m.on_gc(&report(10, 5));
        assert!(m.memory_triggered());
        m.reset_memory_trigger();
        assert!(!m.memory_triggered());
    }

    #[test]
    fn barren_cycles_count_as_pressure_only_when_memory_is_tight() {
        let m = monitor(false);
        // Freed nothing but 20% free: healthy, not pressure.
        m.on_gc(&report(200, 0));
        m.on_gc(&report(200, 0));
        m.on_gc(&report(200, 0));
        assert!(!m.memory_triggered());
        // Freed nothing at 8% free (below the 10% concern level): pressure.
        m.on_gc(&report(80, 0));
        m.on_gc(&report(80, 0));
        m.on_gc(&report(80, 0));
        assert!(m.memory_triggered());
    }

    #[test]
    fn remote_stats_follow_remote_flags() {
        let m = monitor(false);
        m.on_interaction(interaction(0, 1, 100, true));
        m.on_interaction(interaction(0, 1, 100, false));
        m.on_native(ClassId(1), NativeKind::Framebuffer, 5, 8, true);
        m.on_native(ClassId(1), NativeKind::Math, 5, 8, false);
        m.on_static_access(ClassId(1), ClassId(0), 16, true);
        let r = m.remote_stats();
        assert_eq!(r.remote_interactions, 3);
        assert_eq!(r.remote_invocations, 2);
        assert_eq!(r.remote_native_calls, 1);
        assert_eq!(r.remote_static_accesses, 1);
        assert_eq!(r.remote_bytes, 124);
    }

    #[test]
    fn metrics_sample_at_gc_and_track_totals() {
        let m = monitor(false);
        m.on_alloc(ClassId(0), ObjectId::client(0), 100);
        m.on_alloc(ClassId(1), ObjectId::client(1), 100);
        m.on_interaction(interaction(0, 1, 10, false));
        m.on_gc(&report(500, 0));
        m.on_alloc(ClassId(1), ObjectId::client(2), 100);
        m.on_gc(&report(400, 0));
        let metrics = m.metrics();
        assert_eq!(metrics.samples, 2);
        assert_eq!(metrics.classes_total, 2);
        assert_eq!(metrics.objects_total, 3);
        assert_eq!(metrics.objects_max, 3);
        assert!((metrics.objects_avg - 2.5).abs() < 1e-9);
        assert_eq!(metrics.interaction_events, 1);
        assert!(metrics.graph_storage_bytes > 0);
    }

    #[test]
    fn work_accumulator_supports_periodic_evaluation() {
        let m = monitor(false);
        m.on_work(ClassId(0), 500.0);
        m.on_work(ClassId(0), 250.0);
        assert!((m.take_work_since_eval() - 750.0).abs() < 1e-9);
        assert_eq!(m.take_work_since_eval(), 0.0);
    }

    #[test]
    fn drained_deltas_rebuild_the_snapshot() {
        let m = monitor(false);
        m.on_alloc(ClassId(0), ObjectId::client(0), 1_000);
        m.on_interaction(interaction(0, 1, 100, false));
        m.on_work(ClassId(1), 30.4);

        let mut applied = ExecutionGraph::new();
        let (deltas, keys) = m.drain_deltas();
        applied.apply_all(&deltas);
        let (snap, snap_keys) = m.snapshot();
        assert_eq!(applied, snap);
        assert_eq!(keys, snap_keys);

        // More activity: the next batch carries only the changes.
        m.on_free(ClassId(0), 1, 2_000); // negative balance clamps to zero
        m.on_interaction(interaction(0, 1, 50, false));
        m.on_alloc(ClassId(1), ObjectId::client(1), 500);
        let (deltas, _) = m.drain_deltas();
        assert_eq!(deltas.len(), 3, "two updates + one edge: {deltas:?}");
        applied.apply_all(&deltas);
        let (snap, _) = m.snapshot();
        assert_eq!(applied, snap);

        // Quiescent: the next drain is empty.
        let (deltas, _) = m.drain_deltas();
        assert!(deltas.is_empty());
    }

    #[test]
    fn drained_deltas_cover_object_granular_nodes() {
        let m = monitor(true);
        let a1 = ObjectId::client(10);
        m.on_alloc(ClassId(2), a1, 40_000);
        m.on_interaction(Interaction {
            caller: ClassId(1),
            callee: ClassId(2),
            target: Some(a1),
            kind: InteractionKind::FieldAccess,
            bytes: 64,
            remote: false,
        });
        let mut applied = ExecutionGraph::new();
        let (deltas, keys) = m.drain_deltas();
        applied.apply_all(&deltas);
        let (snap, snap_keys) = m.snapshot();
        assert_eq!(applied, snap);
        assert_eq!(keys, snap_keys);
        assert!(keys.contains(&NodeKey::Object(a1)));
    }
}
