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
    decide_with, EvaluationMode, HeuristicKind, Monitor, NodeKey, PolicyKind, TriggerConfig,
};
use aide_graph::{CommParams, ResourceSnapshot, Side};
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

/// Context threaded into [`Emulator::try_partition`] so decision events
/// land in the flight recorder with the right virtual timestamp and
/// trigger reason.
struct EmuTrace<'a> {
    recorder: &'a FlightRecorder,
    at_micros: u64,
    at_gc_cycle: u64,
    reason: &'a str,
}

/// Side assignment state during a replay.
#[derive(Debug, Default)]
struct Placement {
    class_side: HashMap<ClassId, Side>,
    object_side: HashMap<ObjectId, Side>,
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
}

/// Per-side live-byte ledger for one class.
#[derive(Debug, Default, Clone, Copy)]
struct ClassBytes {
    client: u64,
    surrogate: u64,
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

        // Object-granular classes under the Array enhancement.
        let array_classes: HashSet<ClassId> = if cfg.array_object_granularity {
            trace
                .classes
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_primitive_array)
                .map(|(i, _)| ClassId(i as u32))
                .collect()
        } else {
            HashSet::new()
        };

        // The same monitoring module the prototype uses.
        let monitor = Monitor::new(program, cfg.trigger, array_classes.clone());
        let policy = cfg.policy.build(cfg.comm, cfg.surrogate_speed);

        let mut placement = Placement::default();
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
        let mut class_bytes: HashMap<ClassId, ClassBytes> = HashMap::new();
        let mut object_bytes: HashMap<ObjectId, u64> = HashMap::new();
        let mut object_class: HashMap<ObjectId, ClassId> = HashMap::new();

        let mut client_live: u64 = 0;
        let mut peak_client: u64 = 0;
        let mut client_cpu = 0.0f64;
        let mut surrogate_cpu = 0.0f64;
        let mut comm = 0.0f64;
        let mut transfer = 0.0f64;
        let mut remote = EmuRemoteStats::default();
        let recorder = FlightRecorder::new(FLIGHT_RECORDER_EVENTS);
        let mut offloads: Vec<EmulatedOffload> = Vec::new();
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

        let speed_of = |side: Side| -> f64 {
            match side {
                Side::Client => 1.0,
                Side::Surrogate => cfg.surrogate_speed,
            }
        };

        'replay: for (idx, event) in trace.events.iter().enumerate() {
            // Scheduled surrogate death: once the virtual clock passes the
            // configured instant, reinstate everything the surrogate hosted
            // and flip all placements home. Reinstated bytes re-occupy the
            // client heap; if they no longer fit, the next allocation hits
            // the hard wall exactly as a real degraded client would.
            if let Some(failure) = cfg.failure {
                let now = client_cpu + surrogate_cpu + comm + transfer;
                if failovers.is_empty() && now >= failure.at_virtual_seconds {
                    let mut reinstated = 0u64;
                    for entry in class_bytes.values_mut() {
                        reinstated += entry.surrogate;
                        entry.client += entry.surrogate;
                        entry.surrogate = 0;
                    }
                    client_live += reinstated;
                    peak_client = peak_client.max(client_live);
                    for side in placement.class_side.values_mut() {
                        *side = Side::Client;
                    }
                    for side in placement.object_side.values_mut() {
                        *side = Side::Client;
                    }
                    failovers.push(EmuFailover {
                        at_event: idx,
                        at_seconds: now,
                        reinstated_bytes: reinstated,
                        had_offloaded: !offloads.is_empty(),
                    });
                    recorder.record_at(
                        virtual_micros(now),
                        PlatformEvent::LinkDied {
                            surrogate: EMULATED_SURROGATE.to_string(),
                        },
                    );
                    recorder.record_at(
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
            let offload_budget = cfg.max_offloads as usize + failovers.len();
            match event {
                TraceEvent::Work { class, micros } => {
                    let side = placement.class(*class);
                    match side {
                        Side::Client => client_cpu += micros / 1e6,
                        Side::Surrogate => surrogate_cpu += micros / 1e6 / speed_of(side),
                    }
                    monitor.on_work(*class, *micros);
                    work_since_eval += micros;
                    if let EvaluationMode::Periodic { every_micros } = cfg.evaluation {
                        if work_since_eval >= every_micros
                            && !fleet_dead
                            && offloads.len() < offload_budget
                            && client_cpu + surrogate_cpu + comm + transfer >= reoffload_ready_at
                        {
                            work_since_eval = 0.0;
                            if let Some(o) = self.try_partition(
                                &monitor,
                                policy.as_ref(),
                                idx,
                                client_live,
                                &mut placement,
                                &mut class_bytes,
                                &object_bytes,
                                &object_class,
                                &array_classes,
                                &EmuTrace {
                                    recorder: &recorder,
                                    at_micros: virtual_micros(
                                        client_cpu + surrogate_cpu + comm + transfer,
                                    ),
                                    at_gc_cycle: emu_gc_cycle,
                                    reason: "periodic",
                                },
                            ) {
                                client_live = client_live + o.bytes_returned - o.bytes_moved;
                                transfer += o.transfer_seconds;
                                offloads.push(o);
                            }
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
                    let caller_side = placement.class(*caller);
                    let callee_side = placement.target(*callee, *target);
                    let is_remote = caller_side != callee_side;
                    if is_remote {
                        comm += cfg.comm.interaction_seconds(*bytes);
                        remote.remote_interactions += 1;
                        if *invocation {
                            remote.remote_invocations += 1;
                        }
                    }
                    monitor.on_interaction(Interaction {
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
                    let side = placement.class(*class);
                    let entry = class_bytes.entry(*class).or_default();
                    match side {
                        Side::Client => {
                            entry.client += bytes;
                            client_live += bytes;
                        }
                        Side::Surrogate => entry.surrogate += bytes,
                    }
                    if array_classes.contains(class) {
                        object_bytes.insert(*object, *bytes);
                        object_class.insert(*object, *class);
                        if side == Side::Surrogate {
                            placement.object_side.insert(*object, Side::Surrogate);
                        }
                    }
                    monitor.on_alloc(*class, *object, *bytes);
                    peak_client = peak_client.max(client_live);

                    // Hard memory wall: live client data exceeds capacity.
                    if client_live > cfg.client_heap {
                        // Last-ditch evaluation (the prototype's hard-OOM
                        // path also forces GC reports + offload attempts).
                        // The reoffload delay is ignored here: facing OOM,
                        // the client waits out session re-establishment
                        // rather than dying.
                        if !fleet_dead && offloads.len() < offload_budget {
                            if let Some(o) = self.try_partition(
                                &monitor,
                                policy.as_ref(),
                                idx,
                                client_live.min(cfg.client_heap),
                                &mut placement,
                                &mut class_bytes,
                                &object_bytes,
                                &object_class,
                                &array_classes,
                                &EmuTrace {
                                    recorder: &recorder,
                                    at_micros: virtual_micros(
                                        client_cpu + surrogate_cpu + comm + transfer,
                                    ),
                                    at_gc_cycle: emu_gc_cycle,
                                    reason: "allocation-failure",
                                },
                            ) {
                                client_live = client_live + o.bytes_returned - o.bytes_moved;
                                transfer += o.transfer_seconds;
                                offloads.push(o);
                            }
                        }
                        if client_live > cfg.client_heap {
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
                    let entry = class_bytes.entry(*class).or_default();
                    // Reclaim from the client share first: garbage is
                    // dominated by recently created (client-side) objects.
                    let from_client = (*bytes).min(entry.client);
                    entry.client -= from_client;
                    client_live -= from_client.min(client_live);
                    let rest = bytes - from_client;
                    entry.surrogate -= rest.min(entry.surrogate);
                    freed_since_gc += bytes;
                    monitor.on_free(*class, *objects, *bytes);
                }
                TraceEvent::Native {
                    caller,
                    kind,
                    work_micros,
                    bytes,
                } => {
                    let caller_side = placement.class(*caller);
                    let client_bound = native_requires_client(*kind, cfg.stateless_natives_local);
                    let exec_side = if client_bound {
                        Side::Client
                    } else {
                        caller_side
                    };
                    let is_remote = caller_side == Side::Surrogate && client_bound;
                    if is_remote {
                        comm += cfg.comm.interaction_seconds(*bytes);
                        remote.remote_native_calls += 1;
                        remote.remote_invocations += 1;
                        remote.remote_interactions += 1;
                    }
                    match exec_side {
                        Side::Client => client_cpu += f64::from(*work_micros) / 1e6,
                        Side::Surrogate => {
                            surrogate_cpu +=
                                f64::from(*work_micros) / 1e6 / speed_of(Side::Surrogate);
                        }
                    }
                    monitor.on_native(*caller, *kind, *work_micros, *bytes, is_remote);
                }
                TraceEvent::StaticAccess {
                    accessor,
                    class,
                    bytes,
                } => {
                    let is_remote = placement.class(*accessor) == Side::Surrogate;
                    if is_remote {
                        comm += cfg.comm.interaction_seconds(*bytes);
                        remote.remote_static_accesses += 1;
                        remote.remote_interactions += 1;
                    }
                    monitor.on_static_access(*accessor, *class, *bytes, is_remote);
                }
                TraceEvent::Gc { report } => {
                    // Recompute the report for the emulated heap.
                    emu_gc_cycle += 1;
                    let used = client_live.min(cfg.client_heap);
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
                    monitor.on_gc(&emu_report);
                    if matches!(cfg.evaluation, EvaluationMode::OnMemoryPressure)
                        && monitor.memory_triggered()
                        && !fleet_dead
                        && offloads.len() < offload_budget
                        && client_cpu + surrogate_cpu + comm + transfer >= reoffload_ready_at
                    {
                        if let Some(o) = self.try_partition(
                            &monitor,
                            policy.as_ref(),
                            idx,
                            used,
                            &mut placement,
                            &mut class_bytes,
                            &object_bytes,
                            &object_class,
                            &array_classes,
                            &EmuTrace {
                                recorder: &recorder,
                                at_micros: virtual_micros(
                                    client_cpu + surrogate_cpu + comm + transfer,
                                ),
                                at_gc_cycle: emu_gc_cycle,
                                reason: "memory-pressure",
                            },
                        ) {
                            client_live = client_live + o.bytes_returned - o.bytes_moved;
                            transfer += o.transfer_seconds;
                            offloads.push(o);
                        }
                        monitor.reset_memory_trigger();
                    }
                }
            }
        }

        EmulatorReport {
            completed,
            oom_at_event,
            client_cpu_seconds: client_cpu,
            surrogate_cpu_seconds: surrogate_cpu,
            comm_seconds: comm,
            offload_transfer_seconds: transfer,
            baseline_seconds: trace.total_work_seconds(),
            offloads,
            failovers,
            remote,
            peak_client_bytes: peak_client,
            events: recorder.events(),
        }
    }

    /// Runs the partitioning module; on a beneficial selection, applies the
    /// placement and returns the migration summary.
    #[allow(clippy::too_many_arguments)]
    fn try_partition(
        &self,
        monitor: &Monitor,
        policy: &dyn aide_graph::PartitionPolicy,
        at_event: usize,
        client_used: u64,
        placement: &mut Placement,
        class_bytes: &mut HashMap<ClassId, ClassBytes>,
        object_bytes: &HashMap<ObjectId, u64>,
        object_class: &HashMap<ObjectId, ClassId>,
        array_classes: &HashSet<ClassId>,
        trace: &EmuTrace<'_>,
    ) -> Option<EmulatedOffload> {
        let decision_ctx = SpanContext::fresh();
        let (graph, keys) = monitor.snapshot();
        let snapshot = ResourceSnapshot::new(
            self.config.client_heap,
            client_used.min(self.config.client_heap),
        );
        trace.recorder.record_at(
            trace.at_micros,
            PlatformEvent::TriggerFired {
                at_gc_cycle: trace.at_gc_cycle,
                heap_used: client_used.min(self.config.client_heap),
                heap_capacity: self.config.client_heap,
                reason: trace.reason.to_string(),
            },
        );
        stamp_span(
            decision_ctx.child(),
            Some(decision_ctx.span_id),
            aide_trace::names::TRIGGER_SAMPLE,
            trace.at_micros,
            0,
            vec![("reason".to_string(), trace.reason.to_string())],
        );
        let decision = decide_with(graph, snapshot, policy, self.config.heuristic);
        let eval_micros = u64::try_from(decision.elapsed.as_micros()).unwrap_or(u64::MAX);
        trace.recorder.record_at(
            trace.at_micros,
            PlatformEvent::CandidatesEvaluated {
                candidates: decision.candidates_evaluated,
                elapsed_micros: eval_micros,
            },
        );
        stamp_span(
            decision_ctx.child(),
            Some(decision_ctx.span_id),
            aide_trace::names::PARTITION_EPOCH,
            trace.at_micros,
            eval_micros,
            vec![(
                "candidates".to_string(),
                decision.candidates_evaluated.to_string(),
            )],
        );
        let Some(selection) = decision.selection else {
            trace.recorder.record_at(
                trace.at_micros,
                PlatformEvent::OffloadDeclined {
                    candidates: decision.candidates_evaluated,
                },
            );
            stamp_span(
                decision_ctx,
                None,
                aide_trace::names::DECISION,
                trace.at_micros,
                eval_micros,
                vec![("outcome".to_string(), "declined".to_string())],
            );
            return None;
        };

        let mut bytes_moved = 0u64;
        let mut nodes_offloaded = 0usize;
        for node in selection.partitioning.nodes_on(Side::Surrogate) {
            nodes_offloaded += 1;
            match keys[node.index()] {
                NodeKey::Class(c) => {
                    if array_classes.contains(&c) {
                        continue; // array classes handled per object
                    }
                    let entry = class_bytes.entry(c).or_default();
                    bytes_moved += entry.client;
                    entry.surrogate += entry.client;
                    entry.client = 0;
                    placement.class_side.insert(c, Side::Surrogate);
                }
                NodeKey::Object(o) => {
                    if placement.object_side.get(&o) == Some(&Side::Surrogate) {
                        continue;
                    }
                    let b = object_bytes.get(&o).copied().unwrap_or(0);
                    if let Some(c) = object_class.get(&o) {
                        let entry = class_bytes.entry(*c).or_default();
                        let moved = b.min(entry.client);
                        entry.client -= moved;
                        entry.surrogate += moved;
                        bytes_moved += moved;
                    }
                    placement.object_side.insert(o, Side::Surrogate);
                }
            }
        }
        // Global placement (paper §8 "enhance the prototype"): repartitioning
        // may also bring previously offloaded components home. Bytes moved
        // back are charged like any other transfer and re-occupy the client
        // heap.
        let mut bytes_returned = 0u64;
        for node in selection.partitioning.nodes_on(Side::Client) {
            match keys[node.index()] {
                NodeKey::Class(c) => {
                    if placement.class_side.get(&c) == Some(&Side::Surrogate)
                        && !array_classes.contains(&c)
                    {
                        let entry = class_bytes.entry(c).or_default();
                        bytes_returned += entry.surrogate;
                        entry.client += entry.surrogate;
                        entry.surrogate = 0;
                    }
                    placement.class_side.insert(c, Side::Client);
                }
                NodeKey::Object(o) => {
                    if placement.object_side.get(&o) == Some(&Side::Surrogate) {
                        let b = object_bytes.get(&o).copied().unwrap_or(0);
                        if let Some(c) = object_class.get(&o) {
                            let entry = class_bytes.entry(*c).or_default();
                            let moved = b.min(entry.surrogate);
                            entry.surrogate -= moved;
                            entry.client += moved;
                            bytes_returned += moved;
                        }
                        placement.object_side.insert(o, Side::Client);
                    }
                }
            }
        }

        let transfer_seconds = self
            .config
            .comm
            .transfer_seconds(bytes_moved + bytes_returned);
        trace.recorder.record_at(
            trace.at_micros,
            PlatformEvent::WinnerChosen {
                policy_score: selection.score,
                offload_bytes: selection.stats.offloaded_memory_bytes,
                cut_interactions: selection.stats.cut.interactions,
            },
        );
        let transfer_micros = virtual_micros(transfer_seconds);
        trace.recorder.record_at(
            trace.at_micros,
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
            trace.at_micros + eval_micros,
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
            trace.at_micros,
            eval_micros + transfer_micros,
            vec![("outcome".to_string(), "offloaded".to_string())],
        );
        Some(EmulatedOffload {
            at_event,
            bytes_moved,
            bytes_returned,
            nodes_offloaded,
            transfer_seconds,
            offloaded_memory_fraction: selection.stats.offloaded_memory_fraction(),
            cut_bytes: selection.stats.cut.bytes,
            score: selection.score,
        })
    }
}
