//! Surrogate acquisition and failure recovery.
//!
//! The paper (§8) defers "recovery from surrogate failure or disconnection"
//! to future work; this module supplies it. Instead of taking a pre-built
//! transport, the platform can be handed a [`SurrogateProvider`] — a source
//! of surrogate connections (the `aide-surrogate` crate implements one that
//! discovers daemons over UDP beacons and ranks them by probed RTT and
//! capacity). The provider is consulted lazily, when the offload controller
//! first needs a surrogate, and again after a failure.
//!
//! Recovery works off a *reinstatement ledger*: every successful offload
//! records shadow copies of the shipped object records (see
//! [`crate::offload::execute_offload_tracked`]). When the active surrogate
//! dies — detected by a heartbeat probe failing, or by a mid-call
//! `Disconnected`/`Timeout` — the ledger entries the client still references
//! are re-installed into the client heap by the same transactional-migration
//! machinery that shipped them, the dead lease's GC pins are released, and
//! execution continues degraded (purely local). The next resource-pressure
//! trigger asks the provider for the next-ranked surrogate, gated by
//! exponential backoff with deterministic jitter.
//!
//! Two prototype caveats, both inherent to ledger-based recovery: objects
//! the *surrogate* allocated after the offload are not in the ledger and
//! cannot be recovered (touching one after failover surfaces a dangling
//! reference), and shadow copies do not reflect slot writes performed
//! remotely after shipping.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use aide_graph::{CommParams, SelectedPartition};
use aide_rpc::{
    BackoffConfig, Dispatcher, Endpoint, EndpointConfig, NetClock, Reply, Request, RpcError,
    Xorshift64,
};
use aide_telemetry::sync::Mutex;
use aide_telemetry::{FlightRecorder, PlatformEvent};
use aide_vm::{Machine, ObjectId, ObjectRecord, VmError, VmResult};
use serde::{Deserialize, Serialize};

use crate::adapter::{rpc_to_vm_error, serve_here, RefTables};
use crate::monitor::NodeKey;
use crate::nondet::NondetSource;
use crate::offload::{gather_shipment, GatheredShipment};
use crate::relay::{RelayShipment, RelaySink};

/// Connection context handed to a [`SurrogateProvider`] when the platform
/// needs a surrogate: everything required to start the client-side
/// [`Endpoint`] for a new session.
pub struct ProviderContext {
    /// Link parameters used for simulated timing on the new session.
    pub comm: CommParams,
    /// The platform's shared simulated-communication clock.
    pub clock: Arc<NetClock>,
    /// Dispatcher serving the surrogate's callbacks against the client VM.
    pub dispatcher: Arc<dyn Dispatcher>,
    /// Endpoint tuning (worker pool depth, call/drain timeouts).
    pub endpoint_config: EndpointConfig,
}

impl std::fmt::Debug for ProviderContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProviderContext")
            .field("comm", &self.comm)
            .field("endpoint_config", &self.endpoint_config)
            .finish()
    }
}

/// A live connection to one surrogate, as produced by a provider.
pub struct SurrogateLease {
    /// Human-readable surrogate identity (address, or a test label).
    pub name: String,
    /// The started client-side endpoint for this session.
    pub endpoint: Arc<Endpoint>,
}

impl std::fmt::Debug for SurrogateLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurrogateLease")
            .field("name", &self.name)
            .finish()
    }
}

/// Supplies surrogate connections to the platform.
///
/// Implementations range from a fixed list of pre-built sessions (tests)
/// to the full discovery registry in the `aide-surrogate` crate. `acquire`
/// is called at most once at a time and should return the best currently
/// known candidate, or `None` if no surrogate is reachable right now.
pub trait SurrogateProvider: Send + Sync {
    /// Connects to the best available surrogate and starts its session.
    fn acquire(&self, ctx: &ProviderContext) -> Option<SurrogateLease>;

    /// Notes that the lease named `name` failed (the provider should stop
    /// ranking that surrogate until it proves healthy again).
    fn report_failure(&self, name: &str);

    /// Notes that `name` refused service with a `Busy` reply: the
    /// surrogate is alive but saturated, and should be skipped for about
    /// `retry_after_ms` rather than marked dead. The default treats
    /// saturation like failure, which is safe but loses the distinction.
    fn report_busy(&self, name: &str, retry_after_ms: u32) {
        let _ = retry_after_ms;
        self.report_failure(name);
    }
}

/// Runtime state for one backoff sequence.
#[derive(Debug)]
pub(crate) struct Backoff {
    config: BackoffConfig,
    consecutive_failures: u32,
    not_before: Option<Instant>,
    rng: Xorshift64,
}

impl Backoff {
    pub(crate) fn new(config: BackoffConfig) -> Self {
        Backoff {
            config,
            consecutive_failures: 0,
            // xorshift must not start at 0; the default seed never is.
            rng: Xorshift64::from_state(config.seed.max(1)),
            not_before: None,
        }
    }

    /// Whether enough time has passed to try again.
    pub(crate) fn ready(&self) -> bool {
        self.not_before.is_none_or(|t| Instant::now() >= t)
    }

    /// The delay that would gate the next attempt after one more failure.
    fn next_delay(&mut self) -> Duration {
        self.config.delay(self.consecutive_failures, &mut self.rng)
    }

    /// Records a failure, pushing the next attempt out.
    pub(crate) fn note_failure(&mut self) {
        let delay = self.next_delay();
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.not_before = Some(Instant::now() + delay);
    }

    /// Records a success, resetting the sequence.
    pub(crate) fn note_success(&mut self) {
        self.consecutive_failures = 0;
        self.not_before = None;
    }
}

/// Failover tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverConfig {
    /// Period between liveness probes of the active surrogate.
    pub heartbeat_interval: Duration,
    /// How long a probe may take before the surrogate is declared dead.
    pub probe_timeout: Duration,
    /// Backoff between re-acquisition attempts after failures: it grows
    /// with each consecutive failure and resets on a success.
    pub backoff: BackoffConfig,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            heartbeat_interval: Duration::from_millis(250),
            probe_timeout: Duration::from_secs(1),
            backoff: BackoffConfig {
                base: Duration::from_millis(250),
                factor: 2.0,
                max: Duration::from_secs(30),
                jitter: 0.25,
                seed: 0x5DEECE66D,
            },
        }
    }
}

/// What the failover machinery did during a platform run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailoverReport {
    /// Surrogate failures detected and recovered from.
    pub failovers: u64,
    /// Ledger objects re-installed into the client heap.
    pub reinstated_objects: u64,
    /// Heap bytes re-installed into the client heap.
    pub reinstated_bytes: u64,
    /// Ledger objects that could not be re-installed (client heap full
    /// even after collection) or were allocated remotely and lost.
    pub objects_lost: u64,
    /// Offloads shipped to a replacement surrogate after a failover.
    pub reoffloads: u64,
    /// Names of every surrogate the run held a lease on, in order.
    pub surrogates_used: Vec<String>,
    /// Wall-clock duration of each recovery (lease retirement through
    /// ledger reinstatement), in microseconds, in failover order.
    pub failover_durations_micros: Vec<u64>,
    /// Migrations parked in the relay queue because no surrogate was
    /// reachable at decision time.
    #[serde(default)]
    pub migrations_queued: u64,
    /// Queued migrations later delivered to a surrogate on reconnect.
    #[serde(default)]
    pub migrations_relayed: u64,
    /// Queued migrations that expired (TTL) and were reinstated locally.
    #[serde(default)]
    pub relay_expired: u64,
    /// Queued migrations recalled into the client heap because execution
    /// went purely local while they were still parked.
    #[serde(default)]
    pub relay_recalled: u64,
    /// Leases retired because the surrogate answered `Busy` (admission
    /// control), as opposed to dying.
    #[serde(default)]
    pub busy_rejections: u64,
}

/// Shared failover state: the active lease, the reinstatement ledger, and
/// the recovery path. One per platform run.
pub(crate) struct FailoverCore {
    provider: Arc<dyn SurrogateProvider>,
    ctx: ProviderContext,
    client: Machine,
    tables: Arc<RefTables>,
    probe_timeout: Duration,
    /// The active lease. Held (as a lock) across the whole recovery path so
    /// concurrent failure detections — mutator call and heartbeat — are
    /// serialized: the second detector blocks, then finds no active lease.
    active: Mutex<Option<SurrogateLease>>,
    /// Shadow copies of every object shipped to the active surrogate.
    ledger: Mutex<Vec<(ObjectId, ObjectRecord)>>,
    /// Back-reference pins taken by those shipments.
    pins: Mutex<Vec<ObjectId>>,
    backoff: Mutex<Backoff>,
    failovers: AtomicU64,
    reinstated_objects: AtomicU64,
    reinstated_bytes: AtomicU64,
    objects_lost: AtomicU64,
    reoffloads: AtomicU64,
    surrogates_used: Mutex<Vec<String>>,
    failover_durations: Mutex<Vec<u64>>,
    /// Flight recorder for decision tracing, when the platform wired one.
    recorder: Mutex<Option<Arc<FlightRecorder>>>,
    /// Nondeterminism seam, when the platform wired one: a link death is
    /// a nondeterministic input to the decision pipeline.
    nondet: Mutex<Option<Arc<dyn NondetSource>>>,
    /// Requests served / frames exchanged, accumulated over retired leases.
    served_total: AtomicU64,
    frames_total: AtomicU64,
    /// Store-and-forward queue for migrations decided while no surrogate
    /// was reachable; `None` disables the relay path entirely.
    relay: Mutex<Option<Arc<dyn RelaySink>>>,
    migrations_queued: AtomicU64,
    migrations_relayed: AtomicU64,
    relay_expired: AtomicU64,
    relay_recalled: AtomicU64,
    busy_rejections: AtomicU64,
    /// The first failure of a touch deferred to a dead surrogate and served
    /// at home ([`FailoverCore::serve_unserved`]).
    failed_at_home: OnceLock<VmError>,
}

impl FailoverCore {
    pub(crate) fn new(
        provider: Arc<dyn SurrogateProvider>,
        ctx: ProviderContext,
        client: Machine,
        tables: Arc<RefTables>,
        config: &FailoverConfig,
    ) -> Self {
        FailoverCore {
            provider,
            ctx,
            client,
            tables,
            probe_timeout: config.probe_timeout,
            active: Mutex::new(None),
            ledger: Mutex::new(Vec::new()),
            pins: Mutex::new(Vec::new()),
            backoff: Mutex::new(Backoff::new(config.backoff)),
            failovers: AtomicU64::new(0),
            reinstated_objects: AtomicU64::new(0),
            reinstated_bytes: AtomicU64::new(0),
            objects_lost: AtomicU64::new(0),
            reoffloads: AtomicU64::new(0),
            surrogates_used: Mutex::new(Vec::new()),
            failover_durations: Mutex::new(Vec::new()),
            recorder: Mutex::new(None),
            nondet: Mutex::new(None),
            served_total: AtomicU64::new(0),
            frames_total: AtomicU64::new(0),
            relay: Mutex::new(None),
            migrations_queued: AtomicU64::new(0),
            migrations_relayed: AtomicU64::new(0),
            relay_expired: AtomicU64::new(0),
            relay_recalled: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            failed_at_home: OnceLock::new(),
        }
    }

    /// Wires a store-and-forward relay queue: offloads decided while no
    /// surrogate is reachable are parked there instead of dropped.
    pub(crate) fn set_relay(&self, relay: Arc<dyn RelaySink>) {
        *self.relay.lock() = Some(relay);
    }

    /// Wires the platform's flight recorder so recoveries leave a trace.
    pub(crate) fn set_recorder(&self, recorder: Arc<FlightRecorder>) {
        *self.recorder.lock() = Some(recorder);
    }

    /// Wires the platform's nondeterminism seam so link deaths are
    /// captured alongside the decisions they influence.
    pub(crate) fn set_nondet(&self, nondet: Arc<dyn NondetSource>) {
        *self.nondet.lock() = Some(nondet);
    }

    fn record_event(&self, event: PlatformEvent) {
        if let Some(recorder) = self.recorder.lock().as_ref() {
            recorder.record(event);
        }
    }

    /// The active endpoint, if any — for remote calls and GC releases.
    pub(crate) fn endpoint_for_call(&self) -> Option<Arc<Endpoint>> {
        self.active.lock().as_ref().map(|l| l.endpoint.clone())
    }

    /// Returns an endpoint for offloading, acquiring a surrogate from the
    /// provider if none is active. `None` when no surrogate is reachable or
    /// the backoff gate is closed — the caller skips this offload attempt.
    pub(crate) fn acquire_for_offload(&self) -> Option<Arc<Endpoint>> {
        let mut active = self.active.lock();
        if let Some(lease) = active.as_ref() {
            return Some(lease.endpoint.clone());
        }
        if !self.backoff.lock().ready() {
            return None;
        }
        match self.provider.acquire(&self.ctx) {
            Some(lease) => {
                let endpoint = lease.endpoint.clone();
                // New session, fresh lease flow: stamp our imports epoch on
                // outgoing frames and renew our exports on its traffic.
                self.tables.attach_to(&endpoint, &self.client);
                self.surrogates_used.lock().push(lease.name.clone());
                *active = Some(lease);
                self.backoff.lock().note_success();
                // A fresh lease is the relay's delivery moment: parked
                // shipments drain into the new surrogate before any new
                // offload piles on. Outside the `active` lock — delivery
                // RPCs must not block concurrent failure detection.
                drop(active);
                self.flush_relay(&endpoint);
                Some(endpoint)
            }
            None => {
                self.backoff.lock().note_failure();
                None
            }
        }
    }

    /// Gathers the victims of an offload decision out of the client heap
    /// and parks them in the relay queue — the store-and-forward path for
    /// "memory pressure now, surrogate later". Returns `false` (leaving
    /// the heap untouched, or restored) when no relay is wired, the queue
    /// is full, or nothing matched the selection.
    pub(crate) fn queue_for_relay(&self, selection: &SelectedPartition, keys: &[NodeKey]) -> bool {
        let Some(relay) = self.relay.lock().clone() else {
            return false;
        };
        if !relay.accepting() {
            return false;
        }
        let Ok(gathered) = gather_shipment(selection, keys, &self.client, &self.tables) else {
            return false;
        };
        let GatheredShipment {
            objects,
            pins,
            bytes,
            ..
        } = gathered;
        if objects.is_empty() {
            return false;
        }
        let object_count = objects.len() as u64;
        let shipment = RelayShipment {
            txn: 0, // assigned by the sink
            objects,
            pins,
            bytes,
            queued_for_ms: 0,
        };
        match relay.queue(shipment) {
            Ok(txn) => {
                self.migrations_queued.fetch_add(1, Ordering::Relaxed);
                self.record_event(PlatformEvent::MigrationQueued {
                    txn,
                    objects: object_count,
                    bytes,
                });
                true
            }
            Err(shipment) => {
                // The sink filled up between `accepting` and `queue`: put
                // everything back — a declined shipment must not strand
                // objects outside the heap.
                self.reinstate_shipment(shipment);
                false
            }
        }
    }

    /// Delivers parked shipments over a fresh lease and enters each
    /// delivered one into the reinstatement ledger, exactly as if it had
    /// been offloaded live.
    pub(crate) fn flush_relay(&self, endpoint: &Arc<Endpoint>) {
        let Some(relay) = self.relay.lock().clone() else {
            return;
        };
        if relay.depth() == 0 {
            return;
        }
        for shipment in relay.flush(endpoint) {
            self.migrations_relayed.fetch_add(1, Ordering::Relaxed);
            self.record_event(PlatformEvent::MigrationRelayed {
                txn: shipment.txn,
                objects: shipment.objects.len() as u64,
                bytes: shipment.bytes,
                queued_for_ms: shipment.queued_for_ms,
            });
            self.record_shipment(shipment.objects, shipment.pins);
        }
    }

    /// Expires over-TTL shipments back into the client heap. Runs on the
    /// platform's heartbeat cadence: better slow than lost.
    pub(crate) fn relay_tick(&self) {
        let Some(relay) = self.relay.lock().clone() else {
            return;
        };
        for shipment in relay.take_expired() {
            self.relay_expired.fetch_add(1, Ordering::Relaxed);
            self.record_event(PlatformEvent::RelayExpired {
                txn: shipment.txn,
                objects: shipment.objects.len() as u64,
                bytes: shipment.bytes,
            });
            self.reinstate_shipment(shipment);
        }
    }

    /// Recalls *every* parked shipment into the client heap. Called before
    /// serving a touch locally with no surrogate attached: a queued object
    /// is absent from the heap, so local execution without a recall would
    /// surface a dangling reference.
    pub(crate) fn recall_relay(&self) {
        let Some(relay) = self.relay.lock().clone() else {
            return;
        };
        if relay.depth() == 0 {
            return;
        }
        for shipment in relay.take_all() {
            self.relay_recalled.fetch_add(1, Ordering::Relaxed);
            self.record_event(PlatformEvent::RelayRecalled {
                txn: shipment.txn,
                objects: shipment.objects.len() as u64,
            });
            self.reinstate_shipment(shipment);
        }
    }

    /// Puts one gathered-but-undelivered shipment back: reinstall the
    /// objects, drop their import stubs, release the back-reference pins.
    /// The inverse of [`gather_shipment`], but for the classes it recorded:
    /// those go with the next prune against the imports.
    fn reinstate_shipment(&self, shipment: RelayShipment) {
        let vm = self.client.vm();
        let mut vm = vm.lock();
        let needed: u64 = shipment.objects.iter().map(|(_, r)| r.footprint()).sum();
        if needed > vm.heap().free_bytes() {
            vm.collect_now();
        }
        for (id, record) in shipment.objects {
            self.tables.imports.remove(id);
            if vm.heap_mut().migrate_in(id, record).is_err() {
                // The heap genuinely cannot hold it even after collection:
                // the object is lost, like a ledger entry that won't fit.
                self.objects_lost.fetch_add(1, Ordering::Relaxed);
            }
        }
        for id in &shipment.pins {
            if self.tables.exports.release(*id) {
                vm.external_root_dec(*id);
            }
        }
    }

    /// Records a successful shipment in the reinstatement ledger.
    pub(crate) fn record_shipment(
        &self,
        shadow: Vec<(ObjectId, ObjectRecord)>,
        pins: Vec<ObjectId>,
    ) {
        if self.failovers.load(Ordering::Relaxed) > 0 {
            self.reoffloads.fetch_add(1, Ordering::Relaxed);
        }
        self.ledger.lock().extend(shadow);
        self.pins.lock().extend(pins);
    }

    /// Number of failovers so far, for the controller's offload budget
    /// (each recovery earns one replacement offload).
    pub(crate) fn failovers_so_far(&self) -> u32 {
        self.failovers.load(Ordering::Relaxed).min(u32::MAX as u64) as u32
    }

    /// Full recovery: retire the active lease, reinstate the ledger, open
    /// the backoff gate's next window. Returns `true` if this call
    /// performed the recovery, `false` if there was nothing to recover
    /// (another thread already did, or no surrogate was active) or if the
    /// recovery is left to the next touch (see
    /// [`retire_active`](FailoverCore::retire_active)).
    pub(crate) fn handle_failure(&self) -> bool {
        let handed_back = self.retire_active(None, false);
        debug_assert!(handed_back.as_ref().is_none_or(Vec::is_empty));
        handed_back.is_some()
    }

    /// Retires the active lease — `saturation` says it answered `Busy`
    /// rather than died — and reinstates the ledger. Returns `None` if there
    /// was nothing to retire, or else the touches reinstatement handed back:
    /// an invocation deferred to the dead surrogate and every touch after
    /// it, for the caller to serve in order
    /// ([`serve_unserved`](FailoverCore::serve_unserved)).
    ///
    /// Such an invocation runs the interpreter, so it is served at home by
    /// a thread whose own touch found the surrogate gone (`by_touch`): the
    /// mutator, which then goes on only once it has run. Any other finder —
    /// the heartbeat — only shuts the session and stops deferring, and
    /// leaves the lease for that touch to retire.
    fn retire_active(&self, saturation: Option<u32>, by_touch: bool) -> Option<Vec<Request>> {
        let mut active = self.active.lock();
        let endpoint = active.as_ref()?.endpoint.clone();
        // Fail remaining in-flight calls fast and stop the session. The
        // touches the client deferred and the surrogate never answered come
        // home with the objects they touch.
        endpoint.shutdown();
        let unserved = if by_touch {
            endpoint.take_deferred()
        } else {
            endpoint.take_deferred_unless(|touch| matches!(touch, Request::Invoke { .. }))?
        };
        let lease = active.take().expect("an active lease, checked above");
        let started = Instant::now();
        let mut span = aide_telemetry::span(aide_telemetry::span_names::FAILOVER, "core");
        span.arg("surrogate", &lease.name);
        self.record_event(PlatformEvent::LinkDied {
            surrogate: lease.name.clone(),
        });
        if let Some(nondet) = self.nondet.lock().as_ref() {
            nondet.link_died(&lease.name);
        }
        match saturation {
            Some(retry_after_ms) => {
                self.busy_rejections.fetch_add(1, Ordering::Relaxed);
                self.record_event(PlatformEvent::SessionRejected {
                    surrogate: lease.name.clone(),
                    retry_after_ms,
                });
                self.provider.report_busy(&lease.name, retry_after_ms);
            }
            None => self.provider.report_failure(&lease.name),
        }
        self.failovers.fetch_add(1, Ordering::Relaxed);
        let objects_before = self.reinstated_objects.load(Ordering::Relaxed);
        let bytes_before = self.reinstated_bytes.load(Ordering::Relaxed);
        let lost_before = self.objects_lost.load(Ordering::Relaxed);
        let handed_back = self.reinstate(unserved);
        self.backoff.lock().note_failure();
        let duration_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.failover_durations.lock().push(duration_micros);
        self.record_event(PlatformEvent::FailoverCompleted {
            surrogate: lease.name.clone(),
            reinstated_objects: self.reinstated_objects.load(Ordering::Relaxed) - objects_before,
            reinstated_bytes: self.reinstated_bytes.load(Ordering::Relaxed) - bytes_before,
            objects_lost: self.objects_lost.load(Ordering::Relaxed) - lost_before,
            duration_micros,
        });
        drop(active);
        // Joining is bounded by the endpoint's drain deadline; do it
        // outside the lock so other threads can proceed locally.
        lease.endpoint.join();
        self.note_retired(&lease.endpoint);
        Some(handed_back)
    }

    /// Probes the active surrogate; on probe failure runs full recovery.
    /// Called by the platform's heartbeat thread. Also the relay queue's
    /// expiry cadence, whether or not a surrogate is active.
    pub(crate) fn heartbeat_tick(&self) {
        self.relay_tick();
        self.fail_active_if_dead();
    }

    /// After an offload error: if the active surrogate no longer answers
    /// probes, treat it as dead and recover. (A *remote* error — e.g. the
    /// surrogate heap rejecting the batch — leaves the lease alone.)
    pub(crate) fn fail_active_if_dead(&self) {
        let Some(endpoint) = self.endpoint_for_call() else {
            return;
        };
        if endpoint.probe(self.probe_timeout).is_err() {
            self.handle_failure();
        }
    }

    /// Re-installs ledger objects the client still references into the
    /// client heap, serves `unserved` — touches deferred to the dead
    /// surrogate — on them, and releases the dead lease's back-reference
    /// pins. One hold of the VM lock: the mutator finds the objects home
    /// with the touches already made. A touch of an object that did not come
    /// home is dropped, like one the surrogate answered before it died.
    /// Only the touches before the first `Invoke` are made here — it runs
    /// the interpreter, which takes the VM itself —: it and those after it
    /// are handed back, for the mutator to serve in order once the guards
    /// are gone and before it goes on.
    fn reinstate(&self, mut unserved: Vec<Request>) -> Vec<Request> {
        let ledger: Vec<(ObjectId, ObjectRecord)> = std::mem::take(&mut *self.ledger.lock());
        let pins: Vec<ObjectId> = std::mem::take(&mut *self.pins.lock());
        let vm = self.client.vm();
        let mut vm = vm.lock();

        // Only objects the client still references come back — directly
        // (still in the import table) or transitively through the slots of
        // another reinstated entry. Everything else in the ledger has been
        // released by distributed GC and is garbage.
        let mut by_id: HashMap<ObjectId, ObjectRecord> = HashMap::new();
        for (id, record) in ledger {
            // Later shipments of the same id carry the fresher shadow.
            by_id.insert(id, record);
        }
        let mut selected: Vec<ObjectId> = by_id
            .keys()
            .filter(|id| self.tables.imports.contains(**id) && !vm.heap().contains(**id))
            .copied()
            .collect();
        let mut seen: HashSet<ObjectId> = selected.iter().copied().collect();
        let mut cursor = 0;
        while cursor < selected.len() {
            let id = selected[cursor];
            cursor += 1;
            for slot in by_id[&id].slots.clone().into_iter().flatten() {
                if !seen.contains(&slot) && by_id.contains_key(&slot) && !vm.heap().contains(slot) {
                    seen.insert(slot);
                    selected.push(slot);
                }
            }
        }
        let missing: Vec<(ObjectId, ObjectRecord)> = selected
            .into_iter()
            .map(|id| {
                let record = by_id.remove(&id).expect("selected from by_id");
                (id, record)
            })
            .collect();

        let needed: u64 = missing.iter().map(|(_, r)| r.footprint()).sum();
        if needed > vm.heap().free_bytes() {
            // One collection up front — never mid-loop, where a collection
            // could sweep a just-installed object whose only referent is a
            // not-yet-installed ledger entry.
            vm.collect_now();
        }

        for (id, record) in missing {
            let footprint = record.footprint();
            match vm.heap_mut().migrate_in(id, record) {
                Ok(()) => {
                    self.tables.imports.remove(id);
                    self.reinstated_objects.fetch_add(1, Ordering::Relaxed);
                    self.reinstated_bytes
                        .fetch_add(footprint, Ordering::Relaxed);
                }
                Err(_) => {
                    // Client heap genuinely cannot hold it: the object is
                    // lost; a later touch surfaces a dangling reference.
                    self.tables.imports.remove(id);
                    self.objects_lost.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let invoked = unserved
            .iter()
            .position(|touch| matches!(touch, Request::Invoke { .. }))
            .unwrap_or(unserved.len());
        let after = unserved.split_off(invoked);
        for touch in unserved {
            let _ = serve_here(&mut vm, touch);
        }

        for id in pins {
            if self.tables.exports.release(id) {
                vm.external_root_dec(id);
            }
        }

        // Epoch fencing: the dead session's view of our references is
        // void. Bumping both epochs makes any late frame from it (a stale
        // renewal, a replayed release) a counted no-op, and whatever the
        // dead peer still held against us under the old epoch is handed
        // straight back to the collector instead of waiting out its TTL.
        self.tables.imports.begin_epoch();
        self.tables.exports.begin_epoch();
        let reclaimed = self.tables.exports.sweep_stale_epochs();
        if !reclaimed.is_empty() {
            for id in &reclaimed {
                vm.external_root_dec(*id);
            }
            self.record_event(PlatformEvent::ExportsReclaimed {
                objects: reclaimed.len() as u64,
                reason: "failover".into(),
            });
        }
        after
    }

    /// Serves on the client `unserved` — touches deferred to a surrogate
    /// that is gone — in the order they were made, stopping at the first
    /// that fails. Its error is the run's: kept, every later touch through
    /// the core fails with it too ([`failed_at_home`](FailoverCore::failed_at_home)).
    fn serve_unserved(&self, unserved: Vec<Request>) -> VmResult<()> {
        unserved
            .into_iter()
            .try_for_each(|touch| self.serve_at_home(touch))
            .map_err(|error| self.failed_at_home.get_or_init(|| error).clone())
    }

    /// Serves on the client `touch`, deferred to a surrogate that is gone:
    /// an `Invoke` through the interpreter, anything else under the VM.
    fn serve_at_home(&self, touch: Request) -> VmResult<()> {
        match touch {
            Request::Invoke {
                target,
                class,
                method,
                args,
                ..
            } => self.client.call_on(target, class, method, &args),
            touch => serve_here(&mut self.client.vm().lock(), touch),
        }
    }

    /// `Err` once a touch deferred to a surrogate that is gone failed at
    /// home: the first such failure, which a caller that does not wait for
    /// what it flushes (the controller before its trigger sample) would
    /// otherwise not hear of.
    fn failed_at_home(&self) -> VmResult<()> {
        match self.failed_at_home.get() {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }

    /// After `endpoint`, the active lease's, failed a call with `error`: a
    /// failure the surrogate reported is the caller's; a surrogate dead or
    /// saturated is recovered from — its objects come home, and so do the
    /// touches deferred to it and not answered, which are served here
    /// first — and `Ok` says the touch at hand is to be served here too.
    fn recover(&self, endpoint: &Endpoint, error: RpcError) -> VmResult<()> {
        let saturation = match error {
            RpcError::Remote(msg) => return Err(VmError::RemoteFailure(msg)),
            RpcError::Protocol(msg) => {
                return Err(VmError::RemoteFailure(format!("protocol: {msg}")))
            }
            RpcError::Disconnected | RpcError::Timeout => None,
            // A saturated surrogate is unusable for steady-state touches
            // just like a dead one — recover locally and let the next
            // placement pick a peer with headroom. The provider layer is
            // told this was saturation, not death, so the surrogate stays
            // in the registry under a brief cooldown.
            RpcError::Busy { retry_after_ms } => Some(retry_after_ms),
        };
        let handed_back = self.retire_active(saturation, true).unwrap_or_default();
        self.serve_unserved(handed_back)?;
        self.serve_unserved(endpoint.take_deferred())
    }

    fn note_retired(&self, endpoint: &Endpoint) {
        self.served_total
            .fetch_add(endpoint.requests_served(), Ordering::Relaxed);
        let traffic = endpoint.traffic();
        self.frames_total.fetch_add(
            traffic.frames_sent() + traffic.frames_received(),
            Ordering::Relaxed,
        );
    }

    /// Orderly end-of-run teardown of the active lease, if any.
    pub(crate) fn shutdown(&self) {
        let lease = self.active.lock().take();
        if let Some(lease) = lease {
            lease.endpoint.shutdown();
            lease.endpoint.join();
            self.note_retired(&lease.endpoint);
        }
    }

    /// Requests the client served for surrogates, over all leases.
    pub(crate) fn requests_served_total(&self) -> u64 {
        self.served_total.load(Ordering::Relaxed)
    }

    /// Frames exchanged (both directions, client side), over all leases.
    pub(crate) fn frames_total(&self) -> u64 {
        self.frames_total.load(Ordering::Relaxed)
    }

    pub(crate) fn report(&self) -> FailoverReport {
        FailoverReport {
            failovers: self.failovers.load(Ordering::Relaxed),
            reinstated_objects: self.reinstated_objects.load(Ordering::Relaxed),
            reinstated_bytes: self.reinstated_bytes.load(Ordering::Relaxed),
            objects_lost: self.objects_lost.load(Ordering::Relaxed),
            reoffloads: self.reoffloads.load(Ordering::Relaxed),
            surrogates_used: self.surrogates_used.lock().clone(),
            failover_durations_micros: self.failover_durations.lock().clone(),
            migrations_queued: self.migrations_queued.load(Ordering::Relaxed),
            migrations_relayed: self.migrations_relayed.load(Ordering::Relaxed),
            relay_expired: self.relay_expired.load(Ordering::Relaxed),
            relay_recalled: self.relay_recalled.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for FailoverCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverCore")
            .field("failovers", &self.failovers.load(Ordering::Relaxed))
            .finish()
    }
}

/// Where a run's surrogate is — "which endpoint now" and "what happens
/// when a call to it fails" — for the controller and the
/// [`RemoteAdapter`](crate::RemoteAdapter) alike.
#[derive(Clone)]
pub(crate) enum Surrogate {
    /// One endpoint for the whole run; its failures surface to the caller.
    Fixed(Arc<Endpoint>),
    /// The failover core's active lease: acquired on demand, and replaced
    /// (the offloaded objects reinstated locally) when it dies.
    Managed(Arc<FailoverCore>),
}

impl Surrogate {
    /// The endpoint for remote calls and GC releases right now, if any.
    pub(crate) fn endpoint_for_call(&self) -> Option<Arc<Endpoint>> {
        match self {
            Surrogate::Fixed(endpoint) => Some(endpoint.clone()),
            Surrogate::Managed(core) => core.endpoint_for_call(),
        }
    }

    /// The endpoint to offload to, acquiring a surrogate from the provider
    /// if none is active; `None` when none is reachable right now.
    pub(crate) fn endpoint_for_offload(&self) -> Option<Arc<Endpoint>> {
        match self {
            Surrogate::Fixed(endpoint) => Some(endpoint.clone()),
            Surrogate::Managed(core) => core.acquire_for_offload(),
        }
    }

    /// Parks an offload's victims for the next surrogate, if it can (see
    /// [`FailoverCore::queue_for_relay`]).
    pub(crate) fn queue_for_relay(&self, selection: &SelectedPartition, keys: &[NodeKey]) -> bool {
        match self {
            Surrogate::Fixed(_) => false,
            Surrogate::Managed(core) => core.queue_for_relay(selection, keys),
        }
    }

    /// Enters a completed shipment into the reinstatement ledger.
    pub(crate) fn record_shipment(
        &self,
        shadow: Vec<(ObjectId, ObjectRecord)>,
        pins: Vec<ObjectId>,
    ) {
        if let Surrogate::Managed(core) = self {
            core.record_shipment(shadow, pins);
        }
    }

    /// After a failed migration: recovers if the surrogate died under it.
    pub(crate) fn fail_active_if_dead(&self) {
        if let Surrogate::Managed(core) = self {
            core.fail_active_if_dead();
        }
    }

    /// Replacement offloads earned so far: one per recovered failover.
    pub(crate) fn failovers_so_far(&self) -> u32 {
        match self {
            Surrogate::Fixed(_) => 0,
            Surrogate::Managed(core) => core.failovers_so_far(),
        }
    }

    /// Slot writes the VM behind the surrogate has made, as of the last
    /// frame heard from it ([`Endpoint::peer_writes`]); `None` when there is
    /// no surrogate, or it says nothing about its writes.
    pub(crate) fn peer_writes(&self) -> Option<u64> {
        match self {
            Surrogate::Fixed(endpoint) => endpoint.peer_writes(),
            Surrogate::Managed(core) => core.endpoint_for_call()?.peer_writes(),
        }
    }

    /// Sends `request` to the surrogate. `Ok(None)` means there is no
    /// surrogate any more — recovery has run and every offloaded object is
    /// back in the client heap — so the caller serves the touch locally.
    ///
    /// # Errors
    ///
    /// [`VmError::RemoteFailure`] when the surrogate executed the request
    /// and reported an error, or — `Fixed` only — when the link failed; once
    /// a touch deferred to a dead surrogate failed at home, its error.
    pub(crate) fn call(&self, request: Request) -> VmResult<Option<Reply>> {
        let core = match self {
            Surrogate::Fixed(endpoint) => {
                return endpoint
                    .call_with_retry(request)
                    .map(Some)
                    .map_err(rpc_to_vm_error)
            }
            Surrogate::Managed(core) => core,
        };
        core.failed_at_home()?;
        let Some(endpoint) = core.endpoint_for_call() else {
            // About to serve locally with no surrogate attached: any
            // shipment still parked in the relay queue must come home
            // first, or touching a queued object would surface a dangling
            // reference.
            core.recall_relay();
            return Ok(None);
        };
        // Retries (same seq, deduplicated on the serving side) mask
        // transient loss and corruption; only a persistently unreachable
        // surrogate escalates to failover.
        match endpoint.call_with_retry(request) {
            Ok(reply) => Ok(Some(reply)),
            Err(error) => core.recover(&endpoint, error).map(|()| None),
        }
    }

    /// Sends `touch`, whose reply carries nothing, without waiting for it
    /// ([`Endpoint::defer`]). `Ok(false)` means there is no surrogate any
    /// more — recovery has run, and the touch has been served on the client
    /// after those deferred before it.
    ///
    /// # Errors
    ///
    /// As [`Surrogate::call`], and the failure of a touch deferred before —
    /// here or at home.
    pub(crate) fn defer(&self, touch: Request) -> VmResult<bool> {
        let core = match self {
            Surrogate::Fixed(endpoint) => {
                return endpoint
                    .defer(touch)
                    .map(|()| true)
                    .map_err(rpc_to_vm_error)
            }
            Surrogate::Managed(core) => core,
        };
        core.failed_at_home()?;
        let Some(endpoint) = core.endpoint_for_call() else {
            core.recall_relay();
            return core.serve_unserved(vec![touch]).map(|()| false);
        };
        match endpoint.defer(touch) {
            Ok(()) => Ok(true),
            // The touch is among the unanswered ones recovery serves.
            Err(error) => core.recover(&endpoint, error).map(|()| false),
        }
    }

    /// Waits until the surrogate has served every touch deferred to it
    /// ([`Endpoint::flush`]). `Ok(false)` means there is no surrogate any
    /// more, and they have been served on the client.
    ///
    /// # Errors
    ///
    /// As [`Surrogate::call`], and the failure of a deferred touch.
    pub(crate) fn flush(&self) -> VmResult<bool> {
        let core = match self {
            Surrogate::Fixed(endpoint) => {
                return endpoint.flush().map(|()| true).map_err(rpc_to_vm_error)
            }
            Surrogate::Managed(core) => core,
        };
        core.failed_at_home()?;
        let Some(endpoint) = core.endpoint_for_call() else {
            return Ok(false);
        };
        match endpoint.flush() {
            Ok(()) => Ok(true),
            Err(error) => core.recover(&endpoint, error).map(|()| false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_rpc::Link;
    use aide_vm::{
        ClassId, MethodDef, MethodId, NativeKind, ProgramBuilder, RemoteAccess, VmConfig,
    };

    fn test_machine() -> Machine {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let doc = b.add_class("Doc");
        b.add_method(main, MethodDef::new("main", vec![]));
        b.add_method(doc, MethodDef::new("touch", vec![]));
        b.add_method(doc, MethodDef::new("peek", peek()));
        let program = Arc::new(b.build(main, MethodId(0), 64, 4).unwrap());
        Machine::new(program, VmConfig::client(1 << 20))
    }

    /// `Doc::peek`: reads a field of the Doc in its slot 0 — an error if the
    /// slot is empty — then works for `PEEK_MICROS`.
    const PEEK: MethodId = MethodId(1);
    const PEEK_MICROS: u32 = 500;

    fn peek() -> Vec<aide_vm::Op> {
        use aide_vm::{Op, Reg};
        vec![
            Op::GetSlot {
                slot: 0,
                dst: Reg(1),
            },
            Op::Read {
                obj: Reg(1),
                bytes: 8,
            },
            Op::Work {
                micros: PEEK_MICROS,
            },
        ]
    }

    struct NullDispatcher;
    impl Dispatcher for NullDispatcher {
        fn dispatch(&self, _request: Request) -> Result<Reply, String> {
            Ok(Reply::Unit)
        }
    }

    /// A provider handing out pre-built leases in order, counting calls.
    struct QueueProvider {
        leases: Mutex<Vec<SurrogateLease>>,
        acquire_calls: AtomicU64,
        failures: Mutex<Vec<String>>,
    }

    impl SurrogateProvider for QueueProvider {
        fn acquire(&self, _ctx: &ProviderContext) -> Option<SurrogateLease> {
            self.acquire_calls.fetch_add(1, Ordering::Relaxed);
            let mut leases = self.leases.lock();
            if leases.is_empty() {
                None
            } else {
                Some(leases.remove(0))
            }
        }

        fn report_failure(&self, name: &str) {
            self.failures.lock().push(name.to_string());
        }
    }

    fn test_ctx(clock: Arc<NetClock>) -> ProviderContext {
        ProviderContext {
            comm: CommParams::WAVELAN,
            clock,
            dispatcher: Arc::new(NullDispatcher),
            endpoint_config: EndpointConfig {
                workers: 2,
                call_timeout: Duration::from_millis(200),
                drain_timeout: Duration::from_millis(100),
                ..EndpointConfig::default()
            },
        }
    }

    /// Builds a lease over an in-process link whose surrogate side is a
    /// trivially-serving endpoint. Returns the surrogate endpoint too so
    /// the test can keep (or kill) it.
    fn test_lease(name: &str) -> (SurrogateLease, Arc<Endpoint>) {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let config = EndpointConfig {
            workers: 2,
            call_timeout: Duration::from_millis(200),
            drain_timeout: Duration::from_millis(100),
            retry: aide_rpc::RetryPolicy {
                max_attempts: 2,
                attempt_timeout: Duration::from_millis(200),
                deadline: Duration::from_millis(500),
                ..aide_rpc::RetryPolicy::default()
            },
        };
        let client_ep = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(NullDispatcher),
            config,
        );
        let surrogate_ep =
            Endpoint::start(st, link.params, clock, Arc::new(NullDispatcher), config);
        (
            SurrogateLease {
                name: name.to_string(),
                endpoint: client_ep,
            },
            surrogate_ep,
        )
    }

    fn quick_config() -> FailoverConfig {
        FailoverConfig {
            heartbeat_interval: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(100),
            backoff: BackoffConfig {
                base: Duration::from_millis(5),
                factor: 2.0,
                max: Duration::from_millis(50),
                jitter: 0.2,
                seed: 7,
            },
        }
    }

    #[test]
    fn backoff_delays_grow_and_reset() {
        let config = BackoffConfig {
            base: Duration::from_millis(100),
            factor: 2.0,
            max: Duration::from_secs(1),
            jitter: 0.25,
            seed: 42,
        };
        let mut b = Backoff::new(config);
        assert!(b.ready(), "no failures yet");
        let d0 = b.next_delay();
        // First delay jitters around the base.
        assert!(
            d0 >= Duration::from_millis(75) && d0 <= Duration::from_millis(125),
            "{d0:?}"
        );
        b.note_failure();
        assert!(!b.ready(), "gate closed after a failure");
        let d1 = b.next_delay();
        assert!(
            d1 >= Duration::from_millis(150) && d1 <= Duration::from_millis(250),
            "{d1:?}"
        );
        // Delays never exceed max (plus jitter headroom).
        for _ in 0..20 {
            b.note_failure();
        }
        assert!(b.next_delay() <= Duration::from_millis(1250));
        b.note_success();
        assert!(b.ready(), "success reopens the gate");
        let d_reset = b.next_delay();
        assert!(d_reset <= Duration::from_millis(125), "{d_reset:?}");
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let config = FailoverConfig::default().backoff;
        let mut a = Backoff::new(config);
        let mut b = Backoff::new(config);
        for _ in 0..5 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
        // The default gate's first eight delays, one per consecutive
        // failure, in nanoseconds. The RPC retry loop shares
        // `BackoffConfig::delay`; pinned, neither caller's delays can move
        // when the other's needs change it.
        let mut gate = Backoff::new(config);
        let delays: Vec<u128> = (0..8)
            .map(|_| {
                let delay = gate.next_delay().as_nanos();
                gate.consecutive_failures += 1;
                delay
            })
            .collect();
        assert_eq!(
            delays,
            [
                244_810_819,
                579_157_663,
                920_126_350,
                1_967_608_591,
                3_662_007_529,
                6_399_731_630,
                13_678_026_418,
                23_976_749_496,
            ]
        );
    }

    #[test]
    fn acquire_is_gated_by_backoff_after_provider_failure() {
        let client = test_machine();
        let tables = Arc::new(RefTables::new());
        let provider = Arc::new(QueueProvider {
            leases: Mutex::new(Vec::new()), // never has a surrogate
            acquire_calls: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        });
        let clock = Arc::new(NetClock::new());
        let mut config = quick_config();
        config.backoff.base = Duration::from_secs(60); // gate stays closed
        let core = FailoverCore::new(provider.clone(), test_ctx(clock), client, tables, &config);
        assert!(core.acquire_for_offload().is_none());
        assert_eq!(provider.acquire_calls.load(Ordering::Relaxed), 1);
        // Second attempt is swallowed by the backoff gate: no provider call.
        assert!(core.acquire_for_offload().is_none());
        assert_eq!(provider.acquire_calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn acquire_reuses_the_active_lease() {
        let client = test_machine();
        let tables = Arc::new(RefTables::new());
        let (lease, _sep) = test_lease("s1");
        let provider = Arc::new(QueueProvider {
            leases: Mutex::new(vec![lease]),
            acquire_calls: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        });
        let clock = Arc::new(NetClock::new());
        let core = FailoverCore::new(
            provider.clone(),
            test_ctx(clock),
            client,
            tables,
            &quick_config(),
        );
        assert!(core.acquire_for_offload().is_some());
        assert!(core.acquire_for_offload().is_some());
        assert_eq!(
            provider.acquire_calls.load(Ordering::Relaxed),
            1,
            "lease reused"
        );
        assert_eq!(core.report().surrogates_used, vec!["s1".to_string()]);
        core.shutdown();
    }

    #[test]
    fn handle_failure_reinstates_ledger_objects_and_releases_pins() {
        let client = test_machine();
        let tables = Arc::new(RefTables::new());
        let (lease, _sep) = test_lease("s1");
        let provider = Arc::new(QueueProvider {
            leases: Mutex::new(Vec::new()),
            acquire_calls: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
        });
        let clock = Arc::new(NetClock::new());
        let core = FailoverCore::new(
            provider.clone(),
            test_ctx(clock),
            client.clone(),
            tables.clone(),
            &quick_config(),
        );
        *core.active.lock() = Some(lease);

        // Simulate an earlier offload: three Docs left the client heap.
        // `doc_a` (still imported) references local `anchor` (pinned) and
        // offloaded `doc_c` (reachable only through `doc_a`); `doc_b` was
        // since dropped by distributed GC and is garbage.
        let doc_a = ObjectId::client(1);
        let doc_b = ObjectId::client(2);
        let doc_c = ObjectId::client(3);
        let anchor = ObjectId::client(10);
        let (rec_a, rec_b, rec_c) = {
            let vm = client.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(anchor, ObjectRecord::new(ClassId(0), 64, 0))
                .unwrap();
            let mut rec_a = ObjectRecord::new(ClassId(1), 1_000, 2);
            rec_a.slots[0] = Some(anchor);
            rec_a.slots[1] = Some(doc_c);
            vm.heap_mut().insert(doc_a, rec_a).unwrap();
            vm.heap_mut()
                .insert(doc_b, ObjectRecord::new(ClassId(1), 2_000, 0))
                .unwrap();
            vm.heap_mut()
                .insert(doc_c, ObjectRecord::new(ClassId(1), 500, 0))
                .unwrap();
            let rec_a = vm.heap_mut().migrate_out(doc_a).unwrap();
            let rec_b = vm.heap_mut().migrate_out(doc_b).unwrap();
            let rec_c = vm.heap_mut().migrate_out(doc_c).unwrap();
            if tables.exports.export(anchor) {
                vm.external_root_inc(anchor);
            }
            (rec_a, rec_b, rec_c)
        };
        tables.imports.import(doc_a); // still referenced by the client
        core.record_shipment(
            vec![(doc_a, rec_a), (doc_b, rec_b), (doc_c, rec_c)],
            vec![anchor],
        );

        assert!(core.handle_failure(), "this call performs the recovery");
        assert!(!core.handle_failure(), "second detector finds nothing");

        let report = core.report();
        assert_eq!(report.failovers, 1);
        assert_eq!(
            report.failover_durations_micros.len(),
            1,
            "one recovery, one measured duration"
        );
        assert_eq!(
            report.reinstated_objects, 2,
            "the live doc and its transitively-held doc return"
        );
        assert!(report.reinstated_bytes >= 1_500);
        assert_eq!(report.objects_lost, 0);
        {
            let vm = client.vm();
            let vm = vm.lock();
            assert!(vm.heap().contains(doc_a));
            assert!(
                vm.heap().contains(doc_c),
                "entry reachable through doc_a's slot comes back too"
            );
            assert!(!vm.heap().contains(doc_b), "GC-dropped entry stays gone");
            assert_eq!(vm.external_root_count(), 0, "pin released");
        }
        assert!(
            !tables.imports.contains(doc_a),
            "reinstated: no longer remote"
        );
        assert_eq!(provider.failures.lock().as_slice(), &["s1".to_string()]);
        assert!(core.endpoint_for_call().is_none(), "no active lease");
    }

    /// All seven [`RemoteAccess`] methods through a [`RemoteAdapter`] over
    /// either kind of [`Surrogate`], against a live surrogate VM; then the
    /// surrogate goes away, and the two kinds part: `Fixed` surfaces the
    /// dead link, `Managed` recovers and serves the touch locally.
    #[test]
    fn remote_access_works_through_both_surrogate_kinds_and_they_differ_only_on_failure() {
        use crate::adapter::{RemoteAdapter, VmDispatcher};

        for managed in [false, true] {
            let client = test_machine();
            let surrogate_machine = Machine::new(
                client.vm().lock().program().clone(),
                VmConfig::surrogate(1 << 20),
            );
            let tables = Arc::new(RefTables::new());
            let (link, ct, st) = Link::pair(CommParams::WAVELAN);
            let config = test_ctx(link.clock.clone()).endpoint_config;
            let client_ep = Endpoint::start(
                ct,
                link.params,
                link.clock.clone(),
                Arc::new(VmDispatcher::new(client.clone(), tables.clone())),
                config,
            );
            let surrogate_ep = Endpoint::start(
                st,
                link.params,
                link.clock.clone(),
                Arc::new(VmDispatcher::new(
                    surrogate_machine.clone(),
                    Arc::new(RefTables::new()),
                )),
                config,
            );
            let core = Arc::new(FailoverCore::new(
                Arc::new(QueueProvider {
                    leases: Mutex::new(Vec::new()),
                    acquire_calls: AtomicU64::new(0),
                    failures: Mutex::new(Vec::new()),
                }),
                test_ctx(link.clock.clone()),
                client.clone(),
                tables.clone(),
                &quick_config(),
            ));
            let surrogate = if managed {
                *core.active.lock() = Some(SurrogateLease {
                    name: "s1".into(),
                    endpoint: client_ep.clone(),
                });
                Surrogate::Managed(core.clone())
            } else {
                Surrogate::Fixed(client_ep.clone())
            };
            let adapter = RemoteAdapter::over(surrogate, client.clone(), tables.clone());

            // A Doc on the surrogate, a Doc at home.
            let remote = ObjectId::surrogate(5);
            let local = ObjectId::client(5);
            surrogate_machine
                .vm()
                .lock()
                .heap_mut()
                .insert(remote, ObjectRecord::new(ClassId(1), 100, 1))
                .unwrap();
            client
                .vm()
                .lock()
                .heap_mut()
                .insert(local, ObjectRecord::new(ClassId(1), 100, 1))
                .unwrap();

            adapter
                .invoke(remote, ClassId(1), MethodId(0), 8, 8, &[])
                .unwrap();
            adapter.field_access(remote, 16, true).unwrap();
            adapter.put_slot(remote, 0, Some(local)).unwrap();
            assert!(tables.exports.contains(local), "a local ref left: pinned");
            assert_eq!(adapter.get_slot(remote, 0).unwrap(), Some(local));
            adapter
                .native(ClassId(1), NativeKind::Framebuffer, 5, 0, 0)
                .unwrap();
            adapter
                .static_access(ClassId(1), ClassId(0), 8, false)
                .unwrap();
            assert_eq!(adapter.class_of(remote).unwrap(), ClassId(1));
            assert_eq!(surrogate_ep.requests_served(), 7, "managed: {managed}");

            // The surrogate goes away.
            surrogate_ep.shutdown();
            surrogate_ep.join();
            if managed {
                assert_eq!(adapter.class_of(local).unwrap(), ClassId(1));
                adapter.field_access(local, 16, false).unwrap();
                assert_eq!(adapter.get_slot(local, 0).unwrap(), None);
                assert_eq!(core.report().failovers, 1);
                assert!(core.endpoint_for_call().is_none());
                // What never came home is a dangling reference, not a hang.
                assert!(matches!(
                    adapter.class_of(remote),
                    Err(VmError::DanglingReference(_)) | Err(VmError::RemoteFailure(_))
                ));
            } else {
                assert!(matches!(
                    adapter.class_of(local),
                    Err(VmError::RemoteFailure(_))
                ));
                assert_eq!(core.report().failovers, 0);
            }
            client_ep.shutdown();
            client_ep.join();
        }
    }

    /// A client and a surrogate machine over real endpoints, the surrogate
    /// the failover core's active lease, and on it one offloaded Doc
    /// (`remote`, shadowed in the ledger) with a client Doc (`local`) in its
    /// slot 0.
    struct ManagedRig {
        client: Machine,
        core: Arc<FailoverCore>,
        adapter: Arc<crate::adapter::RemoteAdapter>,
        client_ep: Arc<Endpoint>,
        surrogate_ep: Arc<Endpoint>,
        remote: ObjectId,
        local: ObjectId,
        /// The surrogate's window back onto the client, kept alive here.
        _surrogate_adapter: Arc<crate::adapter::RemoteAdapter>,
    }

    fn managed_rig() -> ManagedRig {
        use crate::adapter::{RemoteAdapter, VmDispatcher};

        let client = test_machine();
        let surrogate_machine = Machine::new(
            client.vm().lock().program().clone(),
            VmConfig::surrogate(1 << 20),
        );
        let (tables, surrogate_tables) = (Arc::new(RefTables::new()), Arc::new(RefTables::new()));
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let config = test_ctx(link.clock.clone()).endpoint_config;
        let client_ep = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            Arc::new(VmDispatcher::new(client.clone(), tables.clone())),
            config,
        );
        let surrogate_ep = Endpoint::start(
            st,
            link.params,
            link.clock.clone(),
            Arc::new(VmDispatcher::new(
                surrogate_machine.clone(),
                surrogate_tables.clone(),
            )),
            config,
        );
        tables.attach_to(&client_ep, &client);
        surrogate_tables.attach_to(&surrogate_ep, &surrogate_machine);
        let surrogate_adapter = Arc::new(RemoteAdapter::new(
            surrogate_ep.clone(),
            surrogate_machine.clone(),
            surrogate_tables.clone(),
        ));
        let back: Arc<dyn aide_vm::RemoteAccess> = surrogate_adapter.clone();
        surrogate_machine.set_remote(&back);
        let core = Arc::new(FailoverCore::new(
            Arc::new(QueueProvider {
                leases: Mutex::new(Vec::new()),
                acquire_calls: AtomicU64::new(0),
                failures: Mutex::new(Vec::new()),
            }),
            test_ctx(link.clock.clone()),
            client.clone(),
            tables.clone(),
            &quick_config(),
        ));
        *core.active.lock() = Some(SurrogateLease {
            name: "s1".into(),
            endpoint: client_ep.clone(),
        });
        let adapter = Arc::new(RemoteAdapter::over(
            Surrogate::Managed(core.clone()),
            client.clone(),
            tables.clone(),
        ));

        let (remote, local) = (ObjectId::client(5), ObjectId::client(6));
        let mut record = ObjectRecord::new(ClassId(1), 100, 1);
        record.slots[0] = Some(local);
        surrogate_machine
            .vm()
            .lock()
            .heap_mut()
            .insert(remote, record.clone())
            .unwrap();
        client
            .vm()
            .lock()
            .heap_mut()
            .insert(local, ObjectRecord::new(ClassId(1), 100, 1))
            .unwrap();
        tables.imports.import(remote);
        core.record_shipment(vec![(remote, record)], Vec::new());
        ManagedRig {
            client,
            core,
            adapter,
            client_ep,
            surrogate_ep,
            remote,
            local,
            _surrogate_adapter: surrogate_adapter,
        }
    }

    /// A managed surrogate that dies takes what was read of it along: when
    /// `call` answers `None`, the adapter remembers nothing — no slot, no
    /// class — and the touch is served from the heap the objects came home to.
    #[test]
    fn managed_failover_leaves_nothing_remembered() {
        let ManagedRig {
            client,
            core,
            adapter,
            client_ep,
            surrogate_ep,
            remote,
            local,
            _surrogate_adapter,
        } = managed_rig();

        // Read twice: the second answer needs no surrogate.
        assert_eq!(adapter.class_of(remote).unwrap(), ClassId(1));
        for _ in 0..2 {
            assert_eq!(adapter.get_slot(remote, 0).unwrap(), Some(local));
            assert_eq!(adapter.class_of(remote).unwrap(), ClassId(1));
        }
        assert_eq!(surrogate_ep.requests_served(), 2, "the class, the slot");
        assert_eq!(adapter.remembered_slots(), vec![(remote, 0, Some(local))]);

        // The surrogate goes away; the next frame finds out, fails over,
        // and the Doc is home with the touch served on it.
        surrogate_ep.shutdown();
        surrogate_ep.join();
        adapter.field_access(remote, 8, false).unwrap();
        adapter.flush().unwrap();
        assert_eq!(core.report().failovers, 1);
        assert!(client.vm().lock().heap().contains(remote));
        assert!(adapter.remembers_nothing(), "no slot, no class");
        client_ep.shutdown();
        client_ep.join();
    }

    /// A write deferred to the surrogate that dies before any frame carries
    /// it is not lost with it: the next touch finds the surrogate gone,
    /// fails over, and makes it on the Doc the ledger brings home, whose
    /// shadow still holds `local` in slot 0. An invocation deferred before
    /// the write runs at home too, before it: it finds `local` in the slot,
    /// and works. The heartbeat, finding out first, leaves all that to the
    /// touch — the invocation is the mutator's to run.
    #[test]
    fn touches_deferred_to_a_dead_surrogate_come_home_with_the_objects() {
        for heartbeat_finds_out in [true, false] {
            let ManagedRig {
                client,
                core,
                adapter,
                client_ep,
                surrogate_ep,
                remote,
                local,
                _surrogate_adapter,
            } = managed_rig();
            assert_eq!(adapter.get_slot(remote, 0).unwrap(), Some(local));
            adapter.invoke(remote, ClassId(1), PEEK, 0, 0, &[]).unwrap();
            adapter.put_slot(remote, 0, None).unwrap();
            adapter.field_access(remote, 8, true).unwrap();
            assert_eq!(surrogate_ep.requests_served(), 1, "the read alone");
            surrogate_ep.shutdown();
            surrogate_ep.join();
            let worked = client.vm().lock().cpu_seconds();
            if heartbeat_finds_out {
                core.heartbeat_tick();
                assert_eq!(core.report().failovers, 0, "left to the next touch");
                assert!(!client.vm().lock().heap().contains(remote));
                assert_eq!(client.vm().lock().cpu_seconds(), worked);
            }
            adapter.flush().unwrap();
            assert_eq!(core.report().failovers, 1);
            let worked = client.vm().lock().cpu_seconds() - worked;
            assert!(
                worked >= f64::from(PEEK_MICROS) * 1e-6,
                "the peek ran at home, before the write: {worked} s"
            );
            assert_eq!(client.get_slot_on(remote, 0).unwrap(), None);
            assert!(client_ep.take_deferred().is_empty());
            // From now on the Doc is touched at home, and read there.
            adapter.put_slot(remote, 0, Some(local)).unwrap();
            assert_eq!(adapter.get_slot(remote, 0).unwrap(), Some(local));
            assert!(adapter.remembers_nothing());
            client_ep.shutdown();
            client_ep.join();
        }
    }

    /// An invocation deferred to a surrogate that dies, and that fails
    /// where it is run instead — at home, after the write that emptied the
    /// slot it reads — fails as it would have had it been waited for, and
    /// so does every touch after it: also when the first caller to hear of
    /// it drops the error, as the controller does with its flush.
    #[test]
    fn a_deferred_invoke_that_fails_at_home_fails_every_later_touch() {
        let ManagedRig {
            client,
            core,
            adapter,
            client_ep,
            surrogate_ep,
            remote,
            local,
            _surrogate_adapter,
        } = managed_rig();
        assert_eq!(adapter.get_slot(remote, 0).unwrap(), Some(local));
        adapter.put_slot(remote, 0, None).unwrap();
        adapter.invoke(remote, ClassId(1), PEEK, 0, 0, &[]).unwrap();
        adapter.field_access(remote, 8, true).unwrap();
        surrogate_ep.shutdown();
        surrogate_ep.join();
        core.heartbeat_tick();
        let failed = adapter.flush().unwrap_err();
        assert_eq!(core.report().failovers, 1);
        // What the synchronous run would have got, on the Doc now home.
        assert_eq!(
            client.call_on(remote, ClassId(1), PEEK, &[]).unwrap_err(),
            failed
        );
        assert_eq!(adapter.field_access(remote, 8, false), Err(failed.clone()));
        assert_eq!(adapter.get_slot(remote, 0), Err(failed.clone()));
        assert_eq!(adapter.flush(), Err(failed));
        client_ep.shutdown();
        client_ep.join();
    }

    /// The heartbeat ticks on a thread of its own while the mutator keeps
    /// writing the Doc's slot around deferred invocations that read it — the
    /// Doc itself, so that they touch nothing on the other side — and the
    /// surrogate dies under them. Whoever finds out, the mutator goes on
    /// only once what was deferred has been made, in order: no invocation
    /// runs on an emptied slot, and the Doc, once home, holds the last write.
    #[test]
    fn a_heartbeat_on_its_own_thread_leaves_the_mutators_touches_in_order() {
        use std::sync::atomic::AtomicBool;

        for round in 0..8 {
            let ManagedRig {
                client,
                core,
                adapter,
                client_ep,
                surrogate_ep,
                remote,
                local: _,
                _surrogate_adapter,
            } = managed_rig();
            let stop = Arc::new(AtomicBool::new(false));
            let heartbeat = {
                let (core, stop) = (core.clone(), stop.clone());
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(2 * round));
                    surrogate_ep.shutdown();
                    surrogate_ep.join();
                    while !stop.load(Ordering::SeqCst) {
                        core.heartbeat_tick();
                        std::thread::yield_now();
                    }
                })
            };
            let mut after = 0;
            while after < 200 {
                adapter.put_slot(remote, 0, Some(remote)).unwrap();
                adapter.invoke(remote, ClassId(1), PEEK, 0, 0, &[]).unwrap();
                adapter.put_slot(remote, 0, None).unwrap();
                adapter.field_access(remote, 8, false).unwrap();
                if core.report().failovers > 0 {
                    assert_eq!(client.get_slot_on(remote, 0), Ok(None), "round {round}");
                    after += 1;
                } else {
                    adapter.flush().unwrap();
                }
            }
            stop.store(true, Ordering::SeqCst);
            heartbeat.join().unwrap();
            assert_eq!(core.report().failovers, 1);
            client_ep.shutdown();
            client_ep.join();
        }
    }

    /// The heartbeat retires a dead lease (`active`, then the client VM to
    /// reinstate) while the mutator keeps reading a remembered slot (the
    /// client VM): neither waits for the other for good, and the reader gets
    /// the same answer before, during and after — from memory, then from the
    /// heap the Doc came home to.
    #[test]
    fn a_failover_under_remembered_reads_does_not_stall_them() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;

        for round in 0..8 {
            let ManagedRig {
                client,
                core,
                adapter,
                client_ep,
                surrogate_ep,
                remote,
                local,
                _surrogate_adapter,
            } = managed_rig();
            // The first reply is what says the surrogate counts its writes.
            assert_eq!(adapter.class_of(remote).unwrap(), ClassId(1));
            assert_eq!(adapter.get_slot(remote, 0).unwrap(), Some(local));
            assert_eq!(adapter.remembered_slots(), vec![(remote, 0, Some(local))]);

            let failed_over = Arc::new(AtomicBool::new(false));
            let (done, finished) = mpsc::channel();
            let reader = {
                let (adapter, failed_over, done) =
                    (adapter.clone(), failed_over.clone(), done.clone());
                std::thread::spawn(move || {
                    let mut after = 0;
                    while after < 100 {
                        assert_eq!(adapter.get_slot(remote, 0).unwrap(), Some(local));
                        assert_eq!(adapter.class_of(remote).unwrap(), ClassId(1));
                        after += u32::from(failed_over.load(Ordering::SeqCst));
                    }
                    done.send(()).unwrap();
                })
            };
            let heartbeat = {
                let core = core.clone();
                std::thread::spawn(move || {
                    surrogate_ep.shutdown();
                    surrogate_ep.join();
                    core.heartbeat_tick();
                    failed_over.store(true, Ordering::SeqCst);
                    done.send(()).unwrap();
                })
            };
            for _ in 0..2 {
                finished
                    .recv_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|_| {
                        panic!("round {round}: the reader or the heartbeat never finished")
                    });
            }
            reader.join().unwrap();
            heartbeat.join().unwrap();
            assert_eq!(core.report().failovers, 1);
            assert!(client.vm().lock().heap().contains(remote));
            assert!(adapter.remembered_slots().is_empty());
            client_ep.shutdown();
            client_ep.join();
        }
    }
}
