//! The distributed platform: two VMs, a link, the AIDE modules, and the
//! offloading controller (the paper's Figure 4 architecture).
//!
//! [`Platform::run`] executes a program on the client VM while the monitor
//! watches execution and the controller reacts to resource pressure:
//!
//! 1. The client runs the application; the monitor builds the execution
//!    graph from the hook stream.
//! 2. Garbage-collection reports feed the memory trigger (three successive
//!    cycles under the free threshold). For processing constraints, the
//!    controller instead re-evaluates periodically by accumulated work.
//! 3. On trigger, the partitioning module generates candidate partitionings
//!    (modified MINCUT) and the policy selects a beneficial one — or none.
//! 4. The offload executor migrates the selected objects to the surrogate
//!    over the RPC link; subsequent touches of those objects become
//!    transparent remote operations.
//! 5. After every client collection, dropped cross-VM references are
//!    released to the peer (distributed GC).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aide_graph::{ExecutionGraph, PartitionPolicy, Partitioning, ResourceSnapshot};
use aide_rpc::{live_remote_refs, Endpoint, EndpointConfig, Link, NetClock, Request, Session};
use aide_telemetry::{FlightRecorder, PlatformEvent, TelemetrySnapshot, TimedEvent};
use aide_vm::{
    ClassId, GcReport, HookChain, Machine, NullHooks, PendingEvent, Program, RemoteAccess,
    RunSummary, RuntimeHooks, Vm, VmConfig, VmError, VmKind,
};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::adapter::{AdapterStats, RefTables, RemoteAdapter, VmDispatcher};
use crate::config::{EvaluationMode, PlatformConfig, TransportKind};
use crate::failover::{
    FailoverConfig, FailoverCore, FailoverReport, ProviderContext, Surrogate, SurrogateProvider,
};
use crate::monitor::{Monitor, MonitorMetrics, RemoteStats};
use crate::nondet::{LiveSource, MigrationRecord, NondetSource, TriggerSample};
use crate::offload::{execute_offload_tracked, OffloadOutcome, TrackedOffload};
use crate::partitioner::{HeuristicKind, IncrementalPartitioner, PartitionerConfig};
use crate::relay::RelaySink;

/// Flight-recorder capacity per run: ample for every decision of a run
/// while bounding memory on constrained clients.
const FLIGHT_RECORDER_EVENTS: usize = 1024;

/// A record of one offload decision that actually migrated objects.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OffloadEvent {
    /// GC cycle (client) at which the offload happened, if memory-driven.
    pub at_gc_cycle: u64,
    /// The execution graph the decision was computed over.
    pub graph: ExecutionGraph,
    /// The chosen placement.
    pub partitioning: Partitioning,
    /// Candidates the heuristic generated.
    pub candidates_evaluated: usize,
    /// Wall-clock duration of the partitioning computation.
    pub partition_elapsed: Duration,
    /// Fraction of graph-tracked memory offloaded.
    pub offloaded_memory_fraction: f64,
    /// Historical bytes crossing the selected cut.
    pub cut_bytes: u64,
    /// Historical interactions crossing the selected cut.
    pub cut_interactions: u64,
    /// The cost-function score of the winning candidate (lower was better).
    pub policy_score: f64,
    /// Migration results.
    pub outcome: OffloadOutcome,
}

/// Everything a platform run produced.
#[derive(Debug, Serialize, Deserialize)]
pub struct PlatformReport {
    /// How the application ended: `Ok` or the fatal [`VmError`].
    pub outcome: Result<RunSummary, VmError>,
    /// Virtual CPU seconds burned on the client.
    pub client_cpu_seconds: f64,
    /// Virtual CPU seconds burned on the surrogate.
    pub surrogate_cpu_seconds: f64,
    /// Portion of `client_cpu_seconds` spent emitting monitor events
    /// (hook time) rather than in the interpreter loop.
    #[serde(default)]
    pub client_hook_seconds: f64,
    /// Portion of `surrogate_cpu_seconds` spent emitting monitor events.
    #[serde(default)]
    pub surrogate_hook_seconds: f64,
    /// Simulated link seconds (remote interactions + offload transfers).
    pub comm_seconds: f64,
    /// Client garbage-collection cycles.
    pub client_gc_cycles: u64,
    /// Offloads performed.
    pub offloads: Vec<OffloadEvent>,
    /// Final execution graph snapshot.
    pub final_graph: ExecutionGraph,
    /// Table 2-style execution metrics.
    pub metrics: MonitorMetrics,
    /// Figure 8-style remote-interaction counters.
    pub remote_stats: RemoteStats,
    /// How the run's remote-access adapters answered their touches, summed
    /// over the adapters of both VMs this process ran.
    #[serde(default)]
    pub remote_access: AdapterStats,
    /// RPC requests the surrogate served for the client.
    pub surrogate_requests_served: u64,
    /// RPC requests the client served for the surrogate.
    pub client_requests_served: u64,
    /// Real frames exchanged on the link (both directions).
    pub frames_exchanged: u64,
    /// What the failover machinery did, when the run was provider-backed
    /// (see [`Platform::with_surrogates`]); `None` for fixed-link runs.
    pub failover: Option<FailoverReport>,
    /// The process-wide registry's delta over the run's interval: what
    /// every thread of the process counted between the run's start and its
    /// end — this run's share, plus whatever ran beside it (another
    /// `Platform::run`, a parallel test).
    pub telemetry: TelemetrySnapshot,
    /// Flight-recorder trace of the run's platform decisions, in order.
    pub events: Vec<TimedEvent>,
}

impl PlatformReport {
    /// Total virtual completion time: execution is serial across the two
    /// VMs and the link (the paper's emulator assumption), so components
    /// add.
    pub fn total_seconds(&self) -> f64 {
        self.client_cpu_seconds + self.surrogate_cpu_seconds + self.comm_seconds
    }

    /// Returns `true` if at least one offload happened.
    pub fn offloaded(&self) -> bool {
        !self.offloads.is_empty()
    }

    /// Human-readable flight-recorder timeline explaining what the platform
    /// decided and when (trigger, candidates, winner's policy score,
    /// migrations, failovers).
    pub fn timeline(&self) -> String {
        aide_telemetry::render_timeline(&self.events)
    }
}

/// Decision + migration driver, wired into the hook chain after the
/// monitor so it reacts to fresh trigger state without holding VM locks.
struct Controller {
    monitor: Arc<Monitor>,
    policy: Box<dyn PartitionPolicy>,
    /// The incremental decision engine: fed the monitor's drained deltas,
    /// it keeps the execution graph warm across epochs.
    partitioner: Mutex<IncrementalPartitioner>,
    evaluation: EvaluationMode,
    /// Late-bound: the controller participates in the client's hook chain,
    /// which must exist before the machine and surrogate it drives — and
    /// unbound when the run ends, because that machine's hook chain holds
    /// this controller.
    bound: Mutex<Option<(Machine, Surrogate)>>,
    tables: Arc<RefTables>,
    max_offloads: u32,
    offloads_done: AtomicU32,
    /// Migrations begun, successful or not: the next one's transaction id
    /// is one more, so a retry after an aborted migration never reuses the
    /// aborted one's id.
    migrations_begun: AtomicU64,
    events: Mutex<Vec<OffloadEvent>>,
    /// Flight recorder tracing every decision this controller takes.
    recorder: Arc<FlightRecorder>,
    /// Nondeterminism seam: the no-op [`LiveSource`] or a trace recorder
    /// (see [`crate::nondet`]).
    nondet: Arc<dyn NondetSource>,
    /// Guards against re-entrant evaluation from nested GC cycles.
    evaluating: Mutex<()>,
}

impl Controller {
    fn bind(&self, client: Machine, surrogate: Surrogate) {
        let previous = self.bound.lock().replace((client, surrogate));
        assert!(previous.is_none(), "controller already bound");
    }

    /// Lets go of the machine and the surrogate; hook events that still
    /// arrive find nothing to act on.
    fn unbind(&self) {
        *self.bound.lock() = None;
    }

    /// The client machine and the surrogate, from `bind` to `unbind`.
    fn bound(&self) -> Option<(Machine, Surrogate)> {
        self.bound.lock().clone()
    }

    /// How many offloads the run may still perform. Each recovered failover
    /// earns one replacement offload, so a re-offload to the next surrogate
    /// is not blocked by the original budget.
    fn offload_budget(&self, surrogate: &Surrogate) -> u32 {
        self.max_offloads
            .saturating_add(surrogate.failovers_so_far())
    }

    fn maybe_offload(&self, at_gc_cycle: u64, reason: &'static str) {
        let Some((client, surrogate)) = self.bound() else {
            return;
        };
        if self.offloads_done.load(Ordering::SeqCst) >= self.offload_budget(&surrogate) {
            return;
        }
        let Some(_guard) = self.evaluating.try_lock() else {
            return;
        };
        if self.offloads_done.load(Ordering::SeqCst) >= self.offload_budget(&surrogate) {
            return;
        }

        // The decision span roots this epoch's pipeline: sampling,
        // partitioning, and (when selected) the migration hang under it.
        let mut decision_span = aide_telemetry::span(aide_telemetry::span_names::DECISION, "core");
        decision_span.arg("reason", reason);
        decision_span.arg("gc_cycle", at_gc_cycle);

        let sample_span = aide_telemetry::span(aide_telemetry::span_names::TRIGGER_SAMPLE, "core");
        // Sampled and migrated once the peer has run what was deferred to
        // it, as it would have before the trigger; a touch that failed
        // fails the run's next call.
        let _ = client.flush_remote();
        let (deltas, keys) = self.monitor.drain_deltas();
        let live_snapshot = {
            let vm = client.vm().lock();
            ResourceSnapshot::new(vm.heap().capacity(), vm.heap().stats().used_bytes)
        };
        // The nondeterminism seam sees everything the pipeline consumes
        // this epoch.
        let sample = TriggerSample {
            at_gc_cycle,
            reason: reason.to_string(),
            snapshot: live_snapshot,
            deltas,
            keys,
        };
        self.nondet.trigger(&sample);
        drop(sample_span);
        let mut epoch_span =
            aide_telemetry::span(aide_telemetry::span_names::PARTITION_EPOCH, "core");
        let mut partitioner = self.partitioner.lock();
        let decision = partitioner.decide(
            &sample,
            self.policy.as_ref(),
            HeuristicKind::ModifiedMincut,
            &mut |event| self.recorder.record(event),
        );
        epoch_span.arg("candidates", decision.candidates_evaluated);
        drop(epoch_span);
        let Some(selection) = decision.selection else {
            // Not beneficial / not feasible: leave the trigger armed only if
            // pressure persists (the monitor will re-fire).
            decision_span.arg("outcome", "declined");
            self.monitor.reset_memory_trigger();
            return;
        };
        let keys = sample.keys;

        let stats = &selection.stats;
        let offloaded_memory_fraction = stats.offloaded_memory_fraction();
        let cut = stats.cut;
        let policy_score = selection.score;
        // Resolve the surrogate endpoint: provider-backed runs acquire one
        // lazily (and may have none reachable right now); fixed-link runs
        // use the endpoint bound at startup.
        let Some(endpoint) = surrogate.endpoint_for_offload() else {
            // No surrogate reachable (or backoff gate closed). With a relay
            // wired the decision still frees memory *now*: the victims are
            // gathered out of the heap and parked for delivery to the next
            // surrogate. Without one, stay local; the next trigger
            // re-evaluates.
            self.nondet.migration(MigrationRecord::NoSurrogate);
            if surrogate.queue_for_relay(&selection, &keys) {
                decision_span.arg("outcome", "queued_for_relay");
            } else {
                decision_span.arg("outcome", "no_surrogate");
            }
            self.monitor.reset_memory_trigger();
            return;
        };
        let txn = self.migrations_begun.fetch_add(1, Ordering::SeqCst) + 1;
        match execute_offload_tracked(
            &selection,
            &keys,
            &client,
            &endpoint,
            &self.tables,
            txn,
            Some(self.recorder.as_ref()),
        ) {
            Ok(TrackedOffload {
                outcome,
                shadow,
                pins,
            }) => {
                surrogate.record_shipment(shadow, pins);
                self.nondet.migration(MigrationRecord::Completed {
                    objects: outcome.objects_moved,
                    bytes: outcome.bytes_moved,
                    duration_micros: outcome.duration_micros,
                });
                self.recorder.record(PlatformEvent::ClassMigrated {
                    objects: outcome.objects_moved,
                    bytes: outcome.bytes_moved,
                    duration_micros: outcome.duration_micros,
                });
                self.events.lock().push(OffloadEvent {
                    at_gc_cycle,
                    graph: partitioner.graph().clone(),
                    partitioning: selection.partitioning,
                    candidates_evaluated: decision.candidates_evaluated,
                    partition_elapsed: decision.elapsed,
                    offloaded_memory_fraction,
                    cut_bytes: cut.bytes,
                    cut_interactions: cut.interactions,
                    policy_score,
                    outcome,
                });
                self.offloads_done.fetch_add(1, Ordering::SeqCst);
                decision_span.arg("outcome", "offloaded");
                self.monitor.reset_memory_trigger();
            }
            Err(err) => {
                // Migration failure is not fatal to the application; the
                // offload layer already rolled the heap back (and recorded
                // MigrationAborted/MigrationRolledBack). On a
                // provider-backed run, check whether the failure was the
                // surrogate dying mid-migration and recover if so.
                let _ = err;
                self.nondet.migration(MigrationRecord::Failed);
                decision_span.arg("outcome", "migration_failed");
                surrogate.fail_active_if_dead();
                self.monitor.reset_memory_trigger();
            }
        }
    }

    /// Distributed GC: after a client collection, release remote references
    /// the client no longer holds in heap slots or mutator roots.
    fn release_dropped_refs(&self) {
        let Some((client, surrogate)) = self.bound() else {
            return;
        };
        // Nothing imported, nothing to release or renew (`GcRenew` also
        // wants imports): skip the walk of the whole live heap.
        if self.tables.imports.is_empty() {
            return;
        }
        // With no surrogate attached (a provider-backed run between
        // leases), still sweep the import table: nobody to notify, but the
        // table must reflect what the client actually references.
        let endpoint = surrogate.endpoint_for_call();
        let still = live_remote_refs(&client.vm().lock());
        let dropped = self.tables.imports.sweep_dropped(&still);
        if !dropped.is_empty() {
            if let Some(endpoint) = endpoint {
                // Watermarked release: the sequence number makes retries
                // and chaos duplicates counted no-ops on the surrogate, so
                // the retry policy can resend aggressively. A batch lost
                // outright is covered by lease expiry on the other side.
                let _ = endpoint.call_with_retry(Request::GcReleaseSeq {
                    epoch: self.tables.imports.advertised_epoch(),
                    release_seq: self.tables.imports.next_release_seq(),
                    objects: dropped,
                });
            }
        } else if !self.tables.imports.is_empty() {
            // Quiet session with live remote holds: renew explicitly so
            // silence alone never expires a reference still in use.
            if let Some(endpoint) = endpoint {
                let _ = endpoint.call(Request::GcRenew {
                    epoch: self.tables.imports.advertised_epoch(),
                });
            }
        }
    }
}

impl RuntimeHooks for Controller {
    fn on_gc(&self, report: &GcReport) {
        // The monitor (earlier in the hook chain) has already folded this
        // report into its trigger state machine.
        self.nondet.observe_gc(report);
        if matches!(self.evaluation, EvaluationMode::OnMemoryPressure)
            && self.monitor.memory_triggered()
        {
            self.maybe_offload(report.cycle, "memory-pressure");
        }
        self.release_dropped_refs();
    }

    fn on_work(&self, _class: ClassId, _micros: f64) {
        if let EvaluationMode::Periodic { every_micros } = self.evaluation {
            if self.monitor.work_since_eval() >= every_micros {
                self.monitor.take_work_since_eval();
                self.maybe_offload(0, "periodic");
            }
        }
    }

    /// Only the periodic evaluator acts on a queued event (`on_work`);
    /// every other mode has nothing to walk.
    fn on_events(&self, events: &[PendingEvent]) {
        if self.needs_work_boundary() {
            for event in events {
                if let PendingEvent::Work { class, micros } = *event {
                    self.on_work(class, micros);
                }
            }
        }
    }

    /// Only the periodic evaluator acts on `on_work`, and it must do so
    /// before the next op runs.
    fn needs_work_boundary(&self) -> bool {
        matches!(self.evaluation, EvaluationMode::Periodic { .. })
    }

    /// It reads the monitor, which is told what it is owed before any
    /// collection and at every `Work` boundary; it sums nothing itself.
    fn accumulates(&self) -> bool {
        true
    }
}

/// Opens the client/surrogate session pair for the configured backend, with
/// that backend's one pair constructor. Everything above this point —
/// offload, failover, retry, chaos — sees only the two sessions.
fn build_sessions(cfg: &PlatformConfig) -> (Link, Session, Session) {
    match cfg.transport {
        TransportKind::InProcess => Link::pair(cfg.comm),
        TransportKind::Tcp => aide_rpc::tcp_pair(cfg.comm).expect("a loopback RPC carrier"),
    }
}

/// The AIDE distributed platform for one application run.
pub struct Platform {
    program: Arc<Program>,
    config: PlatformConfig,
    /// Provider-backed surrogate mode: when set, the run discovers and
    /// acquires surrogates through the provider (with failover) instead of
    /// building a fixed in-process pair.
    surrogates: Option<(Arc<dyn SurrogateProvider>, FailoverConfig)>,
    /// Nondeterminism seam override (`None` means [`LiveSource`]).
    nondet: Option<Arc<dyn NondetSource>>,
    /// Store-and-forward relay queue for offloads decided while no
    /// surrogate is reachable. Only meaningful on provider-backed runs.
    relay: Option<Arc<dyn RelaySink>>,
    /// A sink chained after the monitor (and the controller) on every
    /// machine this process runs.
    observer: Option<Arc<dyn RuntimeHooks>>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("config", &self.config)
            .finish()
    }
}

impl Platform {
    /// Creates a platform that will run `program` under `config`.
    pub fn new(program: Arc<Program>, config: PlatformConfig) -> Self {
        Platform {
            program,
            config,
            surrogates: None,
            nondet: None,
            relay: None,
            observer: None,
        }
    }

    /// Creates a platform whose surrogate connections come from `provider`
    /// (e.g. the discovery registry in the `aide-surrogate` crate) instead
    /// of a fixed in-process pair. The run survives surrogate failure: on
    /// heartbeat loss or a mid-call disconnect, offloaded objects are
    /// reinstated locally and the next resource-pressure trigger retries
    /// against the provider's next candidate.
    ///
    /// `config.transport`, `config.surrogate_heap`, and
    /// `config.surrogate_speed` are ignored in this mode — the surrogate end
    /// is whatever the provider connects to.
    pub fn with_surrogates(
        program: Arc<Program>,
        config: PlatformConfig,
        provider: Arc<dyn SurrogateProvider>,
    ) -> Self {
        Platform {
            program,
            config,
            surrogates: Some((provider, FailoverConfig::default())),
            nondet: None,
            relay: None,
            observer: None,
        }
    }

    /// Wires a store-and-forward relay queue (e.g.
    /// `aide_surrogate::RelayQueue`): offload decisions made while no
    /// surrogate is reachable are gathered out of the heap and parked
    /// there, then delivered to the next surrogate the provider produces
    /// — or reinstated locally when they expire. Only meaningful after
    /// [`Platform::with_surrogates`].
    pub fn with_relay(mut self, relay: Arc<dyn RelaySink>) -> Self {
        self.relay = Some(relay);
        self
    }

    /// Threads a [`NondetSource`] through the run's controller, monitor
    /// hook path, and failover core — the seam `aide-emu`'s
    /// `RecordingSource` uses to record every nondeterministic decision
    /// input. Defaults to the no-op [`LiveSource`].
    pub fn with_nondet_source(mut self, source: Arc<dyn NondetSource>) -> Self {
        self.nondet = Some(source);
        self
    }

    /// Chains `observer` after the monitor and the controller on the
    /// client machine, and after the monitor on an in-process surrogate's:
    /// it sees every hook event they see, in the same slices. An observer
    /// that does not [accumulate](RuntimeHooks::accumulates) makes the
    /// whole chain take the per-event stream.
    pub fn with_observer(mut self, observer: Arc<dyn RuntimeHooks>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The hook sink of a machine: `sinks` (the monitoring ones, when
    /// monitoring is on), then the observer.
    fn hooks(&self, mut sinks: Vec<Arc<dyn RuntimeHooks>>) -> Arc<dyn RuntimeHooks> {
        if !self.config.monitoring {
            sinks.clear();
        }
        sinks.extend(self.observer.clone());
        match sinks.len() {
            0 => Arc::new(NullHooks),
            1 => sinks.remove(0),
            _ => Arc::new(HookChain::new(sinks)),
        }
    }

    /// Overrides the failover tuning (heartbeat cadence, probe timeout,
    /// re-acquisition backoff). Only meaningful after
    /// [`Platform::with_surrogates`].
    pub fn with_failover_config(mut self, failover: FailoverConfig) -> Self {
        if let Some((_, cfg)) = self.surrogates.as_mut() {
            *cfg = failover;
        }
        self
    }

    /// The platform configuration.
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Runs the application to completion (or failure) and reports.
    pub fn run(&self) -> PlatformReport {
        if let Some((provider, failover_cfg)) = self.surrogates.clone() {
            return self.run_with_provider(provider, &failover_cfg);
        }
        let cfg = &self.config;

        // The surrogate VM and the link to it.
        let mut surrogate_cfg = VmConfig {
            kind: VmKind::Surrogate,
            heap_capacity: cfg.surrogate_heap,
            speed_factor: cfg.surrogate_speed,
            gc: cfg.gc,
            cost: cfg.cost,
            stateless_natives_local: cfg.stateless_natives_local,
        };
        if cfg.monitoring {
            surrogate_cfg.cost.monitor_event_micros = cfg.monitor_event_micros;
        }
        let surrogate_vm = Arc::new(Mutex::new(Vm::new(self.program.clone(), surrogate_cfg)));
        let (link, ct, st) = build_sessions(cfg);
        // Optional fault injection: both directions wrapped in seeded chaos
        // shims, the surrogate direction reseeded exactly like `chaos_pair`
        // so one seed drives a deterministic fault schedule per direction.
        let (ct, st) = match cfg.chaos {
            Some(schedule) => {
                let (ct, _client_stats) = aide_rpc::chaos_wrap(ct, schedule);
                let (st, _surrogate_stats) = aide_rpc::chaos_wrap(
                    st,
                    schedule.reseeded(schedule.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
                );
                (ct, st)
            }
            None => (ct, st),
        };
        let net_clock = link.clock.clone();
        let surrogate_tables = Arc::new(RefTables::new());

        // One client machine (mutator AND dispatcher target, so callbacks
        // from the surrogate are monitored too); the surrogate machine
        // reports to the same monitor.
        let mut side = self.client_side();
        let surrogate_hooks = self.hooks(vec![side.monitor.clone()]);
        let surrogate_machine = Machine::with_parts(surrogate_vm.clone(), surrogate_hooks, None);

        // Endpoints: calls placed on an endpoint are served by the peer.
        let client_ep = Endpoint::start(
            ct,
            cfg.comm,
            net_clock.clone(),
            Arc::new(VmDispatcher::new(side.machine.clone(), side.tables.clone())),
            EndpointConfig::default(),
        );
        // The surrogate endpoint's workers record on the lane active at
        // its start, so even this single-process prototype exports its
        // serve spans on a "surrogate" track.
        let client_lane = aide_telemetry::current_lane();
        aide_telemetry::set_thread_lane(&client_lane.with_track("surrogate"));
        let surrogate_ep = Endpoint::start(
            st,
            cfg.comm,
            net_clock.clone(),
            Arc::new(VmDispatcher::new(
                surrogate_machine.clone(),
                surrogate_tables.clone(),
            )),
            EndpointConfig::default(),
        );
        aide_telemetry::set_thread_lane(&client_lane);

        // Lease piggybacking: each endpoint stamps outgoing frames with its
        // imports epoch and its VM's write count and renews its own exports
        // on stamped arrivals, so ordinary RPC traffic keeps cross-VM
        // references alive and tells each side how long its reads hold.
        side.tables.attach_to(&client_ep, &side.machine);
        surrogate_tables.attach_to(&surrogate_ep, &surrogate_machine);
        surrogate_tables.exports.set_recorder(side.recorder.clone());

        // The machines hold their adapters weakly (each adapter holds its
        // machine); the run owns them, so they go when it returns.
        let surrogate_remote = Arc::new(RemoteAdapter::new(
            surrogate_ep.clone(),
            surrogate_machine.clone(),
            surrogate_tables,
        ));
        surrogate_machine.set_remote(&(surrogate_remote.clone() as Arc<dyn RemoteAccess>));
        side.bind(Surrogate::Fixed(client_ep.clone()));

        // Run the application on the client.
        let outcome = side.machine.run_entry();

        // Orderly teardown.
        client_ep.shutdown();
        surrogate_ep.shutdown();
        client_ep.join();
        surrogate_ep.join();

        let surrogate_vm = surrogate_vm.lock();
        let report = side.report(outcome, net_clock.seconds());
        PlatformReport {
            remote_access: report.remote_access + surrogate_remote.stats(),
            surrogate_cpu_seconds: surrogate_vm.cpu_seconds(),
            surrogate_hook_seconds: surrogate_vm.hook_seconds(),
            surrogate_requests_served: surrogate_ep.requests_served(),
            client_requests_served: client_ep.requests_served(),
            frames_exchanged: client_ep.traffic().frames_sent()
                + surrogate_ep.traffic().frames_sent(),
            ..report
        }
    }

    /// Provider-backed run: client VM only; surrogate sessions are acquired
    /// from the provider on demand and replaced on failure.
    fn run_with_provider(
        &self,
        provider: Arc<dyn SurrogateProvider>,
        failover_cfg: &FailoverConfig,
    ) -> PlatformReport {
        let cfg = &self.config;
        let net_clock = Arc::new(NetClock::new());
        // This process is the client role; the surrogate side is whatever
        // the provider connects to (typically the daemon, which labels
        // itself).
        let mut side = self.client_side();

        // Every surrogate session the provider opens shares the client's
        // dispatcher (serving surrogate callbacks), link pricing, and clock.
        let ctx = ProviderContext {
            comm: cfg.comm,
            clock: net_clock.clone(),
            dispatcher: Arc::new(VmDispatcher::new(side.machine.clone(), side.tables.clone())),
            endpoint_config: EndpointConfig::default(),
        };
        let core = Arc::new(FailoverCore::new(
            provider,
            ctx,
            side.machine.clone(),
            side.tables.clone(),
            failover_cfg,
        ));
        core.set_recorder(side.recorder.clone());
        core.set_nondet(side.nondet.clone());
        if let Some(relay) = self.relay.clone() {
            core.set_relay(relay);
        }
        side.bind(Surrogate::Managed(core.clone()));

        // Heartbeat: probe the active surrogate so failures are detected
        // even while the mutator runs purely locally. It sleeps on its stop
        // channel, so the end of the run interrupts the interval instead of
        // waiting it out.
        let (stop_heartbeat, stopped) = std::sync::mpsc::channel::<()>();
        let heartbeat = {
            let core = core.clone();
            let interval = failover_cfg.heartbeat_interval;
            let lane = aide_telemetry::current_lane();
            std::thread::Builder::new()
                .name("aide-heartbeat".into())
                .spawn(move || {
                    aide_telemetry::set_thread_lane(&lane);
                    while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                        stopped.recv_timeout(interval)
                    {
                        core.heartbeat_tick();
                    }
                })
                .expect("spawn heartbeat thread")
        };

        let outcome = side.machine.run_entry();

        drop(stop_heartbeat);
        let _ = heartbeat.join();
        // Shipments still parked at end-of-run come home: the report (and
        // the export tables and pins) must reflect a consistent
        // heap, not objects stranded in a queue nobody will flush.
        core.recall_relay();
        core.shutdown();

        // Surrogate VMs live in the provider's daemons, out of process:
        // their virtual CPU time and request counts stay at zero.
        PlatformReport {
            client_requests_served: core.requests_served_total(),
            frames_exchanged: core.frames_total(),
            failover: Some(core.report()),
            ..side.report(outcome, net_clock.seconds())
        }
    }

    /// Builds the half of a run that does not depend on where the
    /// surrogate is: the client VM and machine, the monitor and the
    /// late-bound controller in its hook chain, the client's reference
    /// tables, and the run's recorder and telemetry baseline.
    fn client_side(&self) -> ClientSide {
        let cfg = &self.config;
        let mut client_cfg = VmConfig::client(cfg.client_heap);
        client_cfg.gc = cfg.gc;
        client_cfg.cost = cfg.cost;
        client_cfg.stateless_natives_local = cfg.stateless_natives_local;
        if cfg.monitoring {
            client_cfg.cost.monitor_event_micros = cfg.monitor_event_micros;
        }

        // Monitor (shared by both VMs of a fixed-link run).
        let object_granular = if cfg.array_object_granularity {
            self.program
                .classes()
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_primitive_array)
                .map(|(i, _)| ClassId(i as u32))
                .collect()
        } else {
            Default::default()
        };
        let monitor = Arc::new(Monitor::new(
            self.program.clone(),
            cfg.trigger,
            object_granular,
        ));

        let vm = Arc::new(Mutex::new(Vm::new(self.program.clone(), client_cfg)));
        let tables = Arc::new(RefTables::new());
        let telemetry_before = aide_telemetry::global().snapshot();
        let recorder = Arc::new(FlightRecorder::new(FLIGHT_RECORDER_EVENTS));

        // Tracing: this thread's spans, and those of the threads it hands
        // its lane to, go on the "client" track.
        aide_telemetry::set_thread_lane(&aide_telemetry::current_lane().with_track("client"));

        // Controller first (late-bound), so the client machine's hook chain
        // can include it from the start.
        let nondet: Arc<dyn NondetSource> =
            self.nondet.clone().unwrap_or_else(|| Arc::new(LiveSource));
        let controller = Arc::new(Controller {
            monitor: monitor.clone(),
            policy: cfg.policy.build(cfg.comm, cfg.surrogate_speed),
            partitioner: Mutex::new(IncrementalPartitioner::new(PartitionerConfig)),
            evaluation: cfg.evaluation,
            bound: Mutex::new(None),
            tables: tables.clone(),
            max_offloads: cfg.max_offloads,
            offloads_done: AtomicU32::new(0),
            migrations_begun: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            recorder: recorder.clone(),
            nondet: nondet.clone(),
            evaluating: Mutex::new(()),
        });
        let hooks = self.hooks(vec![monitor.clone(), controller.clone()]);
        let machine = Machine::with_parts(vm, hooks, None);
        tables.exports.set_recorder(recorder.clone());
        ClientSide {
            monitor,
            controller,
            machine,
            remote: None,
            tables,
            recorder,
            nondet,
            telemetry_before,
        }
    }
}

/// The client half of a run, as [`Platform::client_side`] builds it.
struct ClientSide {
    monitor: Arc<Monitor>,
    controller: Arc<Controller>,
    machine: Machine,
    /// The adapter `machine` reaches the surrogate through, once bound.
    /// The machine holds it weakly; this is what keeps it for the run.
    remote: Option<Arc<RemoteAdapter>>,
    tables: Arc<RefTables>,
    recorder: Arc<FlightRecorder>,
    nondet: Arc<dyn NondetSource>,
    telemetry_before: TelemetrySnapshot,
}

impl ClientSide {
    /// Points the client machine's remote touches and the controller's
    /// offloads at `surrogate`.
    fn bind(&mut self, surrogate: Surrogate) {
        let remote = Arc::new(RemoteAdapter::over(
            surrogate.clone(),
            self.machine.clone(),
            self.tables.clone(),
        ));
        self.machine
            .set_remote(&(remote.clone() as Arc<dyn RemoteAccess>));
        self.remote = Some(remote);
        self.controller.bind(self.machine.clone(), surrogate);
    }

    /// The report of a finished run, as far as the client side knows it:
    /// what the surrogate and the link did is left at zero for the caller
    /// to fill in. Ends the run's bindings: the controller sits in the hook
    /// chain of the machine it drives, and would keep both VMs, the
    /// endpoints and their sockets alive behind the report.
    fn report(self, outcome: Result<RunSummary, VmError>, comm_seconds: f64) -> PlatformReport {
        self.controller.unbind();
        let (final_graph, _) = self.monitor.snapshot();
        let offloads = std::mem::take(&mut *self.controller.events.lock());
        let vm = self.machine.vm();
        let vm = vm.lock();
        PlatformReport {
            outcome,
            client_cpu_seconds: vm.cpu_seconds(),
            surrogate_cpu_seconds: 0.0,
            client_hook_seconds: vm.hook_seconds(),
            surrogate_hook_seconds: 0.0,
            comm_seconds,
            client_gc_cycles: vm.collector().cycles(),
            offloads,
            final_graph,
            metrics: self.monitor.metrics(),
            remote_stats: self.monitor.remote_stats(),
            remote_access: self
                .remote
                .as_ref()
                .map(|remote| remote.stats())
                .unwrap_or_default(),
            surrogate_requests_served: 0,
            client_requests_served: 0,
            frames_exchanged: 0,
            failover: None,
            telemetry: aide_telemetry::global()
                .snapshot()
                .delta_since(&self.telemetry_before),
            events: self.recorder.events(),
        }
    }
}
