//! The trace-driven emulator (paper §4).
//!
//! The emulator replays a recorded execution through the *same* monitoring
//! and partitioning modules the prototype uses, simulating remote
//! communication by stretching simulated execution time for remote
//! invocations and data accesses (11 Mbps WaveLAN, 2.4 ms null-message
//! round trip), and scaling offloaded work by the surrogate speed ratio.
//! Distributed execution of a trace is assumed equivalent to serial
//! execution: after partitioning, execution moves between the two emulated
//! VMs synchronously.
//!
//! Heap accounting is by *live bytes* (allocations minus recorded frees):
//! the emulated client runs out of memory when live client-side data
//! exceeds the configured capacity — the same condition that kills
//! JavaNote in a 6 MB heap.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use aide_core::{
    EvaluationMode, HeuristicKind, IncrementalPartitioner, Monitor, NodeKey, PartitionerConfig,
    PolicyKind, TriggerConfig, TriggerSample,
};
use aide_graph::{CommParams, Crossing, PartitionPolicy, Partitioning, ResourceSnapshot, Side};
use aide_telemetry::{FlightRecorder, PlatformEvent, TimedEvent};
use aide_trace::SpanContext;
use aide_vm::{
    native_requires_client, ClassId, GcReport, Interaction, InteractionKind, ObjectId, RuntimeHooks,
};

use crate::trace::{Trace, TraceEvent};

/// Emulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmulatorConfig {
    /// Emulated client heap capacity in bytes.
    pub client_heap: u64,
    /// Link parameters (paper: WaveLAN).
    pub comm: CommParams,
    /// Surrogate CPU speed relative to the client (paper: 3.5; use 1.0 for
    /// the memory experiments, which had equal processor speeds).
    pub surrogate_speed: f64,
    /// Memory-pressure trigger parameters.
    pub trigger: TriggerConfig,
    /// Partitioning policy.
    pub policy: PolicyKind,
    /// When the platform re-evaluates partitioning.
    pub evaluation: EvaluationMode,
    /// §5.2 "Native" enhancement: stateless natives run where invoked.
    pub stateless_natives_local: bool,
    /// §5.2 "Array" enhancement: primitive arrays placed per object.
    pub array_object_granularity: bool,
    /// Maximum offload operations (the prototype performs one; the
    /// emulator may repartition repeatedly).
    pub max_offloads: u32,
    /// Manual partitioning: place these classes (by name) on the surrogate
    /// from the start, bypassing the policy — used to reproduce the
    /// paper's hand-partitioned Biomer result (711 s). Usually `None`.
    pub forced_surrogate: Option<Vec<String>>,
    /// Candidate-generation heuristic (default: the paper's modified
    /// MINCUT; see [`HeuristicKind`]).
    pub heuristic: HeuristicKind,
    /// Deterministic surrogate-failure injection: kill the emulated
    /// surrogate once the virtual clock reaches the scheduled time.
    /// `None` (the default) replays without failures.
    #[serde(default)]
    pub failure: Option<FailureSchedule>,
}

/// A scheduled surrogate failure (failover experiments).
///
/// At the chosen virtual time the emulated surrogate dies: every byte it
/// hosted is reinstated into the client heap (charged against capacity —
/// a reinstatement that does not fit shows up as OOM at the next
/// allocation) and all placements flip back to the client. If a standby
/// surrogate exists, offloading may resume after `reoffload_delay_seconds`
/// of virtual time — the delay models discovery plus session
/// re-establishment; each failure also extends the offload budget by one,
/// so `max_offloads: 1` still allows the recovery re-offload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureSchedule {
    /// Virtual time (seconds on the emulated serial clock) at which the
    /// surrogate dies.
    pub at_virtual_seconds: f64,
    /// Whether a standby surrogate is available to re-offload to. With
    /// `false`, the application continues degraded (client-only) and may
    /// OOM if the workload no longer fits.
    pub standby: bool,
    /// Virtual seconds after the failure before the standby surrogate can
    /// accept an offload.
    pub reoffload_delay_seconds: f64,
}

impl FailureSchedule {
    /// A failure at `at_virtual_seconds` with an immediately available
    /// standby surrogate.
    pub fn at(at_virtual_seconds: f64) -> Self {
        FailureSchedule {
            at_virtual_seconds,
            standby: true,
            reoffload_delay_seconds: 0.0,
        }
    }
}

/// One surrogate failure observed during a replay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmuFailover {
    /// Index of the trace event being replayed when the failure fired.
    pub at_event: usize,
    /// Virtual time of the failure, in seconds.
    pub at_seconds: f64,
    /// Bytes reinstated into the client heap from the dead surrogate.
    pub reinstated_bytes: u64,
    /// Whether anything had actually been offloaded when the surrogate
    /// died (a failure before the first offload reinstates nothing).
    pub had_offloaded: bool,
}

impl EmulatorConfig {
    /// The paper's initial memory-experiment configuration: WaveLAN link,
    /// equal CPU speeds, trigger at 5% free with three reports, free ≥ 20%.
    pub fn paper_memory(client_heap: u64) -> Self {
        EmulatorConfig {
            client_heap,
            comm: CommParams::WAVELAN,
            surrogate_speed: 1.0,
            trigger: TriggerConfig::default(),
            policy: PolicyKind::Memory {
                min_free_fraction: 0.20,
            },
            evaluation: EvaluationMode::OnMemoryPressure,
            stateless_natives_local: false,
            array_object_granularity: false,
            max_offloads: 1,
            forced_surrogate: None,
            heuristic: HeuristicKind::default(),
            failure: None,
        }
    }

    /// The paper's processing-experiment configuration: WaveLAN link,
    /// 3.5× surrogate, CPU policy with periodic re-evaluation.
    pub fn paper_cpu(client_heap: u64, eval_every_micros: f64) -> Self {
        EmulatorConfig {
            client_heap,
            comm: CommParams::WAVELAN,
            surrogate_speed: 3.5,
            trigger: TriggerConfig::default(),
            policy: PolicyKind::Cpu { margin: 0.0 },
            evaluation: EvaluationMode::Periodic {
                every_micros: eval_every_micros,
            },
            stateless_natives_local: false,
            array_object_granularity: false,
            max_offloads: 1,
            forced_surrogate: None,
            heuristic: HeuristicKind::default(),
            failure: None,
        }
    }
}

/// An offload performed during emulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmulatedOffload {
    /// Index of the trace event at which the offload happened.
    pub at_event: usize,
    /// Live bytes moved off the client.
    pub bytes_moved: u64,
    /// Live bytes moved *back* to the client (global placement on
    /// repartitioning; zero for a first offload).
    pub bytes_returned: u64,
    /// Graph nodes placed on the surrogate.
    pub nodes_offloaded: usize,
    /// Simulated transfer time of the migration, in seconds.
    pub transfer_seconds: f64,
    /// Fraction of graph-tracked memory offloaded.
    pub offloaded_memory_fraction: f64,
    /// Predicted bytes/run crossing the cut (historical).
    pub cut_bytes: u64,
    /// The policy's score for the selected candidate (for the CPU policy,
    /// the predicted completion time in seconds).
    pub score: f64,
}

/// Remote-execution counters produced by a replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmuRemoteStats {
    /// Remote inter-class interactions.
    pub remote_interactions: u64,
    /// Remote method invocations (subset of interactions, plus natives).
    pub remote_invocations: u64,
    /// Native invocations that travelled back to the client.
    pub remote_native_calls: u64,
    /// Static accesses that travelled back to the client.
    pub remote_static_accesses: u64,
}

/// The result of one emulated replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmulatorReport {
    /// `true` if the replay finished; `false` on emulated OOM.
    pub completed: bool,
    /// Event index of the fatal allocation, when `completed` is false.
    pub oom_at_event: Option<usize>,
    /// CPU seconds executed on the client.
    pub client_cpu_seconds: f64,
    /// CPU seconds executed on the surrogate (already divided by speed).
    pub surrogate_cpu_seconds: f64,
    /// Link seconds spent on remote interactions.
    pub comm_seconds: f64,
    /// Link seconds spent transferring offloaded objects.
    pub offload_transfer_seconds: f64,
    /// Completion time had everything run on the client, in seconds.
    pub baseline_seconds: f64,
    /// Offloads performed.
    pub offloads: Vec<EmulatedOffload>,
    /// Surrogate failures injected by the configured
    /// [`FailureSchedule`], if any.
    #[serde(default)]
    pub failovers: Vec<EmuFailover>,
    /// Remote-execution counters.
    pub remote: EmuRemoteStats,
    /// Peak live bytes on the emulated client heap.
    pub peak_client_bytes: u64,
    /// Flight-recorder events stamped with *virtual* time, so emulated
    /// decision timelines are directly comparable to live-platform ones.
    #[serde(default)]
    pub events: Vec<TimedEvent>,
}

impl EmulatorReport {
    /// Total emulated completion time (serial execution), in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.client_cpu_seconds
            + self.surrogate_cpu_seconds
            + self.comm_seconds
            + self.offload_transfer_seconds
    }

    /// Remote-execution overhead relative to client-only execution:
    /// `total / baseline - 1` (the paper's Figure 6/7 metric).
    pub fn overhead_fraction(&self) -> f64 {
        if self.baseline_seconds == 0.0 {
            0.0
        } else {
            self.total_seconds() / self.baseline_seconds - 1.0
        }
    }

    /// Returns `true` if at least one offload happened.
    pub fn offloaded(&self) -> bool {
        !self.offloads.is_empty()
    }

    /// Renders the flight-recorder events as a human-readable timeline
    /// (timestamps are virtual seconds on the emulated serial clock).
    pub fn timeline(&self) -> String {
        aide_telemetry::render_timeline(&self.events)
    }
}

/// Flight-recorder capacity for one replay (matches the live platform).
const FLIGHT_RECORDER_EVENTS: usize = 1024;

/// Name the emulated surrogate goes by in flight-recorder events.
const EMULATED_SURROGATE: &str = "emulated-surrogate";

/// Converts virtual seconds on the emulated serial clock to the
/// microsecond timestamps the flight recorder expects.
fn virtual_micros(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e6) as u64
}

/// Process lane emulated spans land on in the exporter, so an emulated
/// run is visually distinct from a live client/surrogate pair.
const EMU_TRACK: &str = "emu";

/// Stamps a completed span at *virtual* time. The emulator has no live
/// span guards (nothing here takes wall-clock time); it mints contexts by
/// hand and records finished spans directly, so emulated runs export the
/// same decision/migration trace shape as live runs.
fn stamp_span(
    ctx: SpanContext,
    parent: Option<u64>,
    name: &'static str,
    start_micros: u64,
    duration_micros: u64,
    args: Vec<(String, String)>,
) {
    aide_trace::record_raw(aide_trace::SpanRecord {
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_id: parent,
        name: name.to_string(),
        cat: "emu",
        start_micros,
        duration_micros,
        track: EMU_TRACK.to_string(),
        thread: 0,
        args,
    });
}

/// Side assignment and the per-side byte ledgers during a replay.
#[derive(Debug, Default)]
struct Placement {
    class_side: HashMap<ClassId, Side>,
    object_side: HashMap<ObjectId, Side>,
    /// Live bytes of each class, per side.
    class_bytes: HashMap<ClassId, ClassBytes>,
    /// Footprint and class of each object of an object-granular class.
    object_bytes: HashMap<ObjectId, u64>,
    object_class: HashMap<ObjectId, ClassId>,
    /// Classes placed per object (the Array enhancement).
    array_classes: HashSet<ClassId>,
}

impl Placement {
    fn class(&self, class: ClassId) -> Side {
        self.class_side.get(&class).copied().unwrap_or(Side::Client)
    }

    fn target(&self, class: ClassId, target: Option<ObjectId>) -> Side {
        if let Some(obj) = target {
            if let Some(&side) = self.object_side.get(&obj) {
                return side;
            }
        }
        self.class(class)
    }

    /// Moves every node to the side `partitioning` gives it and returns the
    /// live bytes moved off the client, the bytes moved back, and the
    /// nodes placed on the surrogate.
    fn apply(&mut self, partitioning: &Partitioning, keys: &[NodeKey]) -> (u64, u64, usize) {
        let mut bytes_moved = 0u64;
        let mut nodes_offloaded = 0usize;
        for node in partitioning.nodes_on(Side::Surrogate) {
            nodes_offloaded += 1;
            match keys[node.index()] {
                NodeKey::Class(c) => {
                    if self.array_classes.contains(&c) {
                        continue; // array classes handled per object
                    }
                    let entry = self.class_bytes.entry(c).or_default();
                    bytes_moved += entry.client;
                    entry.surrogate += entry.client;
                    entry.client = 0;
                    self.class_side.insert(c, Side::Surrogate);
                }
                NodeKey::Object(o) => {
                    if self.object_side.get(&o) == Some(&Side::Surrogate) {
                        continue;
                    }
                    let b = self.object_bytes.get(&o).copied().unwrap_or(0);
                    if let Some(c) = self.object_class.get(&o) {
                        let entry = self.class_bytes.entry(*c).or_default();
                        let moved = b.min(entry.client);
                        entry.client -= moved;
                        entry.surrogate += moved;
                        bytes_moved += moved;
                    }
                    self.object_side.insert(o, Side::Surrogate);
                }
            }
        }
        // Global placement (paper §8 "enhance the prototype"): repartitioning
        // may also bring previously offloaded components home. Bytes moved
        // back are charged like any other transfer and re-occupy the client
        // heap.
        let mut bytes_returned = 0u64;
        for node in partitioning.nodes_on(Side::Client) {
            match keys[node.index()] {
                NodeKey::Class(c) => {
                    if self.class_side.get(&c) == Some(&Side::Surrogate)
                        && !self.array_classes.contains(&c)
                    {
                        let entry = self.class_bytes.entry(c).or_default();
                        bytes_returned += entry.surrogate;
                        entry.client += entry.surrogate;
                        entry.surrogate = 0;
                    }
                    self.class_side.insert(c, Side::Client);
                }
                NodeKey::Object(o) => {
                    if self.object_side.get(&o) == Some(&Side::Surrogate) {
                        let b = self.object_bytes.get(&o).copied().unwrap_or(0);
                        if let Some(c) = self.object_class.get(&o) {
                            let entry = self.class_bytes.entry(*c).or_default();
                            let moved = b.min(entry.surrogate);
                            entry.surrogate -= moved;
                            entry.client += moved;
                            bytes_returned += moved;
                        }
                        self.object_side.insert(o, Side::Client);
                    }
                }
            }
        }
        (bytes_moved, bytes_returned, nodes_offloaded)
    }
}

/// Per-side live-byte ledger for one class.
#[derive(Debug, Default, Clone, Copy)]
struct ClassBytes {
    client: u64,
    surrogate: u64,
}

/// One replay in progress: the prototype's modules, driven at virtual
/// time, and the emulated client's clock and heap.
struct Run<'a> {
    cfg: &'a EmulatorConfig,
    monitor: Monitor,
    partitioner: IncrementalPartitioner,
    policy: Box<dyn PartitionPolicy>,
    recorder: FlightRecorder,
    placement: Placement,
    client_live: u64,
    peak_client: u64,
    client_cpu: f64,
    surrogate_cpu: f64,
    comm: f64,
    transfer: f64,
    offloads: Vec<EmulatedOffload>,
}

impl Run<'_> {
    /// Seconds on the emulated serial clock.
    fn now(&self) -> f64 {
        self.client_cpu + self.surrogate_cpu + self.comm + self.transfer
    }

    /// A fired trigger: runs the decision epoch on the monitor's drained
    /// deltas and, on a beneficial selection, applies the placement and
    /// charges the migration.
    fn partition(&mut self, at_event: usize, at_gc_cycle: u64, reason: &str) {
        let cfg = self.cfg;
        let at_micros = virtual_micros(self.now());
        let decision_ctx = SpanContext::fresh();
        let (deltas, keys) = self.monitor.drain_deltas();
        let sample = TriggerSample {
            at_gc_cycle,
            reason: reason.to_string(),
            snapshot: ResourceSnapshot::new(cfg.client_heap, self.client_live.min(cfg.client_heap)),
            deltas,
            keys,
        };
        stamp_span(
            decision_ctx.child(),
            Some(decision_ctx.span_id),
            aide_trace::names::TRIGGER_SAMPLE,
            at_micros,
            0,
            vec![("reason".to_string(), reason.to_string())],
        );
        let recorder = &self.recorder;
        let decision =
            self.partitioner
                .decide(&sample, self.policy.as_ref(), cfg.heuristic, &mut |event| {
                    recorder.record_at(at_micros, event);
                });
        let eval_micros = u64::try_from(decision.elapsed.as_micros()).unwrap_or(u64::MAX);
        stamp_span(
            decision_ctx.child(),
            Some(decision_ctx.span_id),
            aide_trace::names::PARTITION_EPOCH,
            at_micros,
            eval_micros,
            vec![(
                "candidates".to_string(),
                decision.candidates_evaluated.to_string(),
            )],
        );
        let Some(selection) = decision.selection else {
            stamp_span(
                decision_ctx,
                None,
                aide_trace::names::DECISION,
                at_micros,
                eval_micros,
                vec![("outcome".to_string(), "declined".to_string())],
            );
            return;
        };

        let (bytes_moved, bytes_returned, nodes_offloaded) =
            self.placement.apply(&selection.partitioning, &sample.keys);
        let transfer_seconds = cfg.comm.charge(Crossing::Stream {
            bytes: bytes_moved + bytes_returned,
        });
        let transfer_micros = virtual_micros(transfer_seconds);
        self.recorder.record_at(
            at_micros,
            PlatformEvent::ClassMigrated {
                objects: nodes_offloaded as u64,
                bytes: bytes_moved + bytes_returned,
                duration_micros: transfer_micros,
            },
        );
        stamp_span(
            decision_ctx.child(),
            Some(decision_ctx.span_id),
            aide_trace::names::MIGRATION,
            at_micros + eval_micros,
            transfer_micros,
            vec![
                (
                    "bytes".to_string(),
                    (bytes_moved + bytes_returned).to_string(),
                ),
                ("objects".to_string(), nodes_offloaded.to_string()),
                ("outcome".to_string(), "committed".to_string()),
            ],
        );
        stamp_span(
            decision_ctx,
            None,
            aide_trace::names::DECISION,
            at_micros,
            eval_micros + transfer_micros,
            vec![("outcome".to_string(), "offloaded".to_string())],
        );
        self.client_live = self.client_live + bytes_returned - bytes_moved;
        self.transfer += transfer_seconds;
        self.offloads.push(EmulatedOffload {
            at_event,
            bytes_moved,
            bytes_returned,
            nodes_offloaded,
            transfer_seconds,
            offloaded_memory_fraction: selection.stats.offloaded_memory_fraction(),
            cut_bytes: selection.stats.cut.bytes,
            score: selection.score,
        });
    }
}

/// The trace-driven emulator.
#[derive(Debug)]
pub struct Emulator {
    config: EmulatorConfig,
}

impl Emulator {
    /// Creates an emulator with the given configuration.
    pub fn new(config: EmulatorConfig) -> Self {
        Emulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EmulatorConfig {
        &self.config
    }

    /// Replays `trace` under the configured constraints.
    ///
    /// # Panics
    ///
    /// Panics if the trace's class metadata is internally inconsistent
    /// (cannot happen for traces produced by [`crate::record_program`]).
    #[allow(clippy::too_many_lines)]
    pub fn replay(&self, trace: &Trace) -> EmulatorReport {
        let cfg = &self.config;
        let program = Arc::new(trace.skeleton_program().expect("valid trace metadata"));

        let mut placement = Placement::default();
        // Object-granular classes under the Array enhancement.
        if cfg.array_object_granularity {
            placement.array_classes = trace
                .classes
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_primitive_array)
                .map(|(i, _)| ClassId(i as u32))
                .collect();
        }
        // Manual partitioning: apply the forced placement before replay.
        if let Some(names) = &cfg.forced_surrogate {
            for (i, meta) in trace.classes.iter().enumerate() {
                if names.iter().any(|n| n == &meta.name) {
                    placement
                        .class_side
                        .insert(ClassId(i as u32), Side::Surrogate);
                }
            }
        }
        let mut run = Run {
            cfg,
            // The same monitoring and partitioning modules the prototype
            // uses: each trigger drains the monitor's deltas into the
            // partitioner.
            monitor: Monitor::new(program, cfg.trigger, placement.array_classes.clone()),
            partitioner: IncrementalPartitioner::new(PartitionerConfig),
            policy: cfg.policy.build(cfg.comm, cfg.surrogate_speed),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_EVENTS),
            placement,
            client_live: 0,
            peak_client: 0,
            client_cpu: 0.0,
            surrogate_cpu: 0.0,
            comm: 0.0,
            transfer: 0.0,
            offloads: Vec::new(),
        };
        let mut remote = EmuRemoteStats::default();
        let mut failovers: Vec<EmuFailover> = Vec::new();
        // Set when the failure schedule fires with no standby: offloading
        // is over for good, the client continues degraded.
        let mut fleet_dead = false;
        // Virtual time before which the standby surrogate cannot accept an
        // offload (discovery + session re-establishment after a failure).
        let mut reoffload_ready_at = 0.0f64;
        let mut emu_gc_cycle = 0u64;
        let mut freed_since_gc = 0u64;
        let mut work_since_eval = 0.0f64;
        let mut completed = true;
        let mut oom_at_event = None;
        // A remote interaction is one call carrying the monitor's bytes.
        let interaction = |bytes: u64| cfg.comm.charge(Crossing::Calls { count: 1, bytes });

        'replay: for (idx, event) in trace.events.iter().enumerate() {
            // Scheduled surrogate death: once the virtual clock passes the
            // configured instant, reinstate everything the surrogate hosted
            // and flip all placements home. Reinstated bytes re-occupy the
            // client heap; if they no longer fit, the next allocation hits
            // the hard wall exactly as a real degraded client would.
            if let Some(failure) = cfg.failure {
                let now = run.now();
                if failovers.is_empty() && now >= failure.at_virtual_seconds {
                    let mut reinstated = 0u64;
                    for entry in run.placement.class_bytes.values_mut() {
                        reinstated += entry.surrogate;
                        entry.client += entry.surrogate;
                        entry.surrogate = 0;
                    }
                    run.client_live += reinstated;
                    run.peak_client = run.peak_client.max(run.client_live);
                    for side in run.placement.class_side.values_mut() {
                        *side = Side::Client;
                    }
                    for side in run.placement.object_side.values_mut() {
                        *side = Side::Client;
                    }
                    failovers.push(EmuFailover {
                        at_event: idx,
                        at_seconds: now,
                        reinstated_bytes: reinstated,
                        had_offloaded: !run.offloads.is_empty(),
                    });
                    run.recorder.record_at(
                        virtual_micros(now),
                        PlatformEvent::LinkDied {
                            surrogate: EMULATED_SURROGATE.to_string(),
                        },
                    );
                    run.recorder.record_at(
                        virtual_micros(now),
                        PlatformEvent::FailoverCompleted {
                            surrogate: EMULATED_SURROGATE.to_string(),
                            // The emulator's ledger is byte-granular; it
                            // does not track per-object reinstatement.
                            reinstated_objects: 0,
                            reinstated_bytes: reinstated,
                            objects_lost: 0,
                            duration_micros: if failure.standby {
                                virtual_micros(failure.reoffload_delay_seconds)
                            } else {
                                0
                            },
                        },
                    );
                    stamp_span(
                        SpanContext::fresh(),
                        None,
                        aide_trace::names::FAILOVER,
                        virtual_micros(now),
                        if failure.standby {
                            virtual_micros(failure.reoffload_delay_seconds)
                        } else {
                            0
                        },
                        vec![
                            ("surrogate".to_string(), EMULATED_SURROGATE.to_string()),
                            ("reinstated_bytes".to_string(), reinstated.to_string()),
                        ],
                    );
                    if failure.standby {
                        reoffload_ready_at = now + failure.reoffload_delay_seconds;
                    } else {
                        fleet_dead = true;
                    }
                }
            }
            // Each failure extends the offload budget by one: recovering
            // onto the standby surrogate must not consume the original
            // allowance.
            let may_offload =
                !fleet_dead && run.offloads.len() < cfg.max_offloads as usize + failovers.len();
            match event {
                TraceEvent::Work { class, micros } => {
                    match run.placement.class(*class) {
                        Side::Client => run.client_cpu += micros / 1e6,
                        Side::Surrogate => run.surrogate_cpu += micros / 1e6 / cfg.surrogate_speed,
                    }
                    run.monitor.on_work(*class, *micros);
                    work_since_eval += micros;
                    if let EvaluationMode::Periodic { every_micros } = cfg.evaluation {
                        if work_since_eval >= every_micros
                            && may_offload
                            && run.now() >= reoffload_ready_at
                        {
                            work_since_eval = 0.0;
                            run.partition(idx, emu_gc_cycle, "periodic");
                        }
                    }
                }
                TraceEvent::Interaction {
                    caller,
                    callee,
                    target,
                    invocation,
                    bytes,
                } => {
                    let caller_side = run.placement.class(*caller);
                    let callee_side = run.placement.target(*callee, *target);
                    let is_remote = caller_side != callee_side;
                    if is_remote {
                        run.comm += interaction(*bytes);
                        remote.remote_interactions += 1;
                        if *invocation {
                            remote.remote_invocations += 1;
                        }
                    }
                    run.monitor.on_interaction(Interaction {
                        caller: *caller,
                        callee: *callee,
                        target: *target,
                        kind: if *invocation {
                            InteractionKind::Invocation
                        } else {
                            InteractionKind::FieldAccess
                        },
                        bytes: *bytes,
                        remote: is_remote,
                    });
                }
                TraceEvent::Alloc {
                    class,
                    object,
                    bytes,
                } => {
                    // New objects are created on the VM performing the
                    // creation — approximated by the class's placement.
                    let placement = &mut run.placement;
                    let side = placement.class(*class);
                    let entry = placement.class_bytes.entry(*class).or_default();
                    match side {
                        Side::Client => {
                            entry.client += bytes;
                            run.client_live += bytes;
                        }
                        Side::Surrogate => entry.surrogate += bytes,
                    }
                    if placement.array_classes.contains(class) {
                        placement.object_bytes.insert(*object, *bytes);
                        placement.object_class.insert(*object, *class);
                        if side == Side::Surrogate {
                            placement.object_side.insert(*object, Side::Surrogate);
                        }
                    }
                    run.monitor.on_alloc(*class, *object, *bytes);
                    run.peak_client = run.peak_client.max(run.client_live);

                    // Hard memory wall: live client data exceeds capacity.
                    if run.client_live > cfg.client_heap {
                        // Last-ditch evaluation (the prototype's hard-OOM
                        // path also forces GC reports + offload attempts).
                        // The reoffload delay is ignored here: facing OOM,
                        // the client waits out session re-establishment
                        // rather than dying.
                        if may_offload {
                            run.partition(idx, emu_gc_cycle, "allocation-failure");
                        }
                        if run.client_live > cfg.client_heap {
                            completed = false;
                            oom_at_event = Some(idx);
                            break 'replay;
                        }
                    }
                }
                TraceEvent::Free {
                    class,
                    objects,
                    bytes,
                } => {
                    let entry = run.placement.class_bytes.entry(*class).or_default();
                    // Reclaim from the client share first: garbage is
                    // dominated by recently created (client-side) objects.
                    let from_client = (*bytes).min(entry.client);
                    entry.client -= from_client;
                    run.client_live -= from_client.min(run.client_live);
                    let rest = bytes - from_client;
                    entry.surrogate -= rest.min(entry.surrogate);
                    freed_since_gc += bytes;
                    run.monitor.on_free(*class, *objects, *bytes);
                }
                TraceEvent::Native {
                    caller,
                    kind,
                    work_micros,
                    bytes,
                } => {
                    let caller_side = run.placement.class(*caller);
                    let client_bound = native_requires_client(*kind, cfg.stateless_natives_local);
                    let exec_side = if client_bound {
                        Side::Client
                    } else {
                        caller_side
                    };
                    let is_remote = caller_side == Side::Surrogate && client_bound;
                    if is_remote {
                        run.comm += interaction(*bytes);
                        remote.remote_native_calls += 1;
                        remote.remote_invocations += 1;
                        remote.remote_interactions += 1;
                    }
                    match exec_side {
                        Side::Client => run.client_cpu += f64::from(*work_micros) / 1e6,
                        Side::Surrogate => {
                            run.surrogate_cpu +=
                                f64::from(*work_micros) / 1e6 / cfg.surrogate_speed;
                        }
                    }
                    run.monitor
                        .on_native(*caller, *kind, *work_micros, *bytes, is_remote);
                }
                TraceEvent::StaticAccess {
                    accessor,
                    class,
                    bytes,
                } => {
                    let is_remote = run.placement.class(*accessor) == Side::Surrogate;
                    if is_remote {
                        run.comm += interaction(*bytes);
                        remote.remote_static_accesses += 1;
                        remote.remote_interactions += 1;
                    }
                    run.monitor
                        .on_static_access(*accessor, *class, *bytes, is_remote);
                }
                TraceEvent::Gc { report } => {
                    // Recompute the report for the emulated heap.
                    emu_gc_cycle += 1;
                    let used = run.client_live.min(cfg.client_heap);
                    let emu_report = GcReport {
                        cycle: emu_gc_cycle,
                        capacity: cfg.client_heap,
                        used_after: used,
                        free_after: cfg.client_heap - used,
                        freed_objects: report.freed_objects,
                        freed_bytes: freed_since_gc,
                        duration_micros: report.duration_micros,
                    };
                    freed_since_gc = 0;
                    run.monitor.on_gc(&emu_report);
                    if matches!(cfg.evaluation, EvaluationMode::OnMemoryPressure)
                        && run.monitor.memory_triggered()
                        && may_offload
                        && run.now() >= reoffload_ready_at
                    {
                        run.partition(idx, emu_gc_cycle, "memory-pressure");
                        run.monitor.reset_memory_trigger();
                    }
                }
            }
        }

        EmulatorReport {
            completed,
            oom_at_event,
            client_cpu_seconds: run.client_cpu,
            surrogate_cpu_seconds: run.surrogate_cpu,
            comm_seconds: run.comm,
            offload_transfer_seconds: run.transfer,
            baseline_seconds: trace.total_work_seconds(),
            offloads: run.offloads,
            failovers,
            remote,
            peak_client_bytes: run.peak_client,
            events: run.recorder.events(),
        }
    }
}
