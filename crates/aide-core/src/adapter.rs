//! Glue between the VM's [`RemoteAccess`] abstraction and the RPC layer.
//!
//! [`RemoteAdapter`] — the one [`RemoteAccess`] implementation — turns the
//! interpreter's remote-object touches into RPC calls; [`VmDispatcher`]
//! serves the peer's RPC calls by re-entering the local interpreter. Both
//! maintain the export/import tables that implement the distributed
//! garbage collection scheme: any local object whose reference leaves this
//! VM is pinned as an external GC root until the peer reports (via a
//! watermarked `GcReleaseSeq`) that it no longer holds it, or until its
//! lease runs out unrenewed and [`VmDispatcher::sweep_expired_exports`]
//! hands it back to the collector.
//!
//! The adapter is also the one place a remote read is remembered: a slot or
//! a class of the peer's object crosses the cut once, and is answered from
//! memory until the owner's frames say it wrote ([`Remembered`]); a class
//! never changes, and the class of an object this side shipped does not
//! cross at all ([`RefTables`] holds what the offload recorded). And a
//! touch whose reply carries nothing — a field access, a slot write, a
//! static access, a native — is not waited for: it rides the next frame to
//! the peer ([`aide_rpc::Endpoint::defer`]). Neither is an invocation whose
//! callee cannot call back ([`RemoteAdapter::admits`]): one rule, read off
//! the program and the local heap alone, for both directions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aide_rpc::{
    dispatch_deferred, Dispatcher, Endpoint, ExportTable, GcClock, ImportTable, Reply, Request,
    RpcError, TouchFailure, Touches,
};
use aide_vm::{
    BuildIdHasher, ClassId, Machine, MethodId, NativeKind, ObjectId, ObjectRecord, RemoteAccess,
    Vm, VmError, VmResult,
};
use serde::{Deserialize, Serialize};

/// Serves `touch` — one whose reply carries nothing
/// ([`Request::is_deferrable`]) and that runs no code — on `vm`, as the
/// peer would have: for a touch deferred to a surrogate that is gone. An
/// `Invoke` is the interpreter's ([`Machine::call_on`]), which takes the VM
/// itself.
pub(crate) fn serve_here(vm: &mut Vm, touch: Request) -> VmResult<()> {
    match touch {
        Request::FieldAccess {
            target,
            bytes,
            write,
        } => vm.field_access_on(target, bytes, write),
        Request::PutSlot {
            target,
            slot,
            value,
        } => vm.put_slot_on(target, slot, value),
        Request::StaticAccess {
            class,
            bytes,
            write,
            ..
        } => {
            vm.static_access_on(class, bytes, write);
            Ok(())
        }
        Request::Native { work_micros, .. } => {
            vm.native_on(work_micros);
            Ok(())
        }
        other => Err(VmError::RemoteFailure(format!(
            "{} is not a touch served under the VM guard",
            other.kind()
        ))),
    }
}
use aide_telemetry::sync::Mutex;

use crate::failover::Surrogate;

/// Shared distributed-GC state for one side of the platform.
///
/// The tables are individually `Arc`-held so they can also be wired into
/// the endpoint's lease piggyback path ([`Endpoint::attach_gc`]) without
/// splitting ownership.
#[derive(Debug, Default)]
pub struct RefTables {
    /// Local objects exported to the peer (pinned while exported).
    pub exports: Arc<ExportTable>,
    /// Remote objects this side holds references to.
    pub imports: Arc<ImportTable>,
    /// The classes of the peer's objects this side knows: each learned once,
    /// by shipping the object (`gather_shipment`) or by asking (the
    /// adapter's `class_of`). Kept across slot flushes: ids are never reused
    /// and an object's class never changes. Bounded by the imports held, not
    /// by the objects ever known: see `remember_classes`.
    classes: Mutex<HashMap<ObjectId, ClassId, BuildIdHasher>>,
}

/// The class map is not pruned below this many entries.
const CLASSES_FLOOR: usize = 64;

impl RefTables {
    /// Creates empty tables.
    pub fn new() -> Self {
        RefTables::default()
    }

    /// Creates empty tables whose export leases are measured against
    /// `clock` (the daemon advances one clock per session by wall time).
    pub fn with_clock(clock: Arc<GcClock>) -> Self {
        RefTables {
            exports: Arc::new(ExportTable::with_clock(clock)),
            ..RefTables::default()
        }
    }

    /// The class of the peer's object `id`, if this side knows it.
    pub(crate) fn known_class(&self, id: ObjectId) -> Option<ClassId> {
        self.classes.lock().get(&id).copied()
    }

    /// Remembers the class of each of the peer's objects in `known`; each
    /// must be imported already. When that makes the map twice the size of
    /// `imports`, the classes of ids no longer imported — released by the
    /// collector, or home again — go: each prune leaves at most
    /// `imports.len()` entries, so it is paid for by as many inserts.
    pub(crate) fn remember_classes(&self, known: impl IntoIterator<Item = (ObjectId, ClassId)>) {
        let mut classes = self.classes.lock();
        for (id, class) in known {
            classes.insert(id, class);
            if classes.len() >= (2 * self.imports.len()).max(CLASSES_FLOOR) {
                classes.retain(|&id, _| self.imports.contains(id));
            }
        }
    }

    /// Forgets every class: the peer is gone and its objects are home.
    fn forget_classes(&self) {
        self.classes.lock().clear();
    }

    /// Wires these tables into `endpoint` so every outgoing frame carries
    /// the import epoch and the slot-write count of `machine` — the local
    /// one, whose objects these tables export — and every incoming frame
    /// renews export leases.
    pub fn attach_to(&self, endpoint: &Endpoint, machine: &Machine) {
        let writes = machine.vm().lock().slot_writes().clone();
        endpoint.attach_gc(self.exports.clone(), self.imports.clone(), writes);
    }

    /// Pins `id` if it is an object of `vm` whose reference is about to
    /// leave for the peer.
    fn export_if_local(&self, vm: &mut Vm, id: ObjectId) {
        if vm.heap().contains(id) && self.exports.export(id) {
            vm.external_root_inc(id);
        }
    }

    /// Notes receipt of every reference in `ids` that the peer owns.
    fn import_if_remote(&self, vm: &Vm, ids: &[ObjectId]) {
        for &id in ids {
            if !vm.heap().contains(id) {
                self.imports.import(id);
            }
        }
    }
}

pub(crate) fn rpc_to_vm_error(e: RpcError) -> VmError {
    match e {
        RpcError::Remote(msg) => VmError::RemoteFailure(msg),
        other => VmError::RemoteFailure(other.to_string()),
    }
}

/// What a remembered slot was read under. While none of the three has
/// moved, the slot still holds what was read: the two VMs take turns
/// (DESIGN §5.4), so the owner's slots change only by its own writes, which
/// it counts on every frame it sends, or by its objects changing sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Standing {
    /// Slot writes the owner had made ([`Surrogate::peer_writes`]).
    peer_writes: u64,
    /// The local heap's locality epoch: any migration, in or out.
    locality: u64,
    /// This side's lease epoch: failover, rollback.
    lease: u64,
}

/// What the adapter has read of the peer's objects and may answer again
/// without asking.
#[derive(Debug, Default)]
struct Remembered {
    /// What `slots` were read under; `None` while the peer says nothing
    /// about its writes, and then nothing is remembered.
    under: Option<Standing>,
    slots: HashMap<(ObjectId, u16), Option<ObjectId>>,
}

impl Remembered {
    /// Drops the slots unless they were read under `now`; whether slots
    /// may be remembered at all.
    fn settle(&mut self, now: Option<Standing>) -> bool {
        if self.under != now {
            self.slots.clear();
            self.under = now;
        }
        now.is_some()
    }
}

/// The interpreter's window onto the peer VM: every remote-object touch
/// becomes an RPC to wherever the run's surrogate currently is — unless it is
/// a read the adapter has the answer to — and is served by the local
/// interpreter when the surrogate says there is none any more.
pub struct RemoteAdapter {
    surrogate: Surrogate,
    machine: Machine,
    tables: Arc<RefTables>,
    /// Lock order: the failover core's `active` lease, then the VM, then
    /// this. Recovery holds `active` while it reinstates under the VM, so
    /// nothing that may take `active` ([`Surrogate::peer_writes`],
    /// [`Surrogate::call`]) runs under the VM guard or this one.
    remembered: Mutex<Remembered>,
    /// What [`RemoteAdapter::stats`] reports, field by field.
    reads_from_memory: AtomicU64,
    reads_asked: AtomicU64,
    invokes_deferred: AtomicU64,
    invokes_waited: AtomicU64,
    deferred_callbacks: AtomicU64,
}

/// How a [`RemoteAdapter`] answered the touches of the peer's objects it was
/// asked for, over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdapterStats {
    /// Reads of a peer's object — a reference slot, an object's class —
    /// answered from what the adapter had read before.
    pub reads_from_memory: u64,
    /// Reads of a peer's object the adapter had to ask the peer for.
    pub reads_asked: u64,
    /// Invocations sent without being waited for: their callees cannot
    /// call back.
    pub invokes_deferred: u64,
    /// Invocations the adapter waited for.
    pub invokes_waited: u64,
    /// Calls back to the peer, waited for, made while serving a deferred
    /// invocation — calls its admission said it could not make (a class
    /// lookup, which asks what never changes, is not one); 0 is right.
    pub deferred_callbacks: u64,
}

impl std::ops::Add for AdapterStats {
    type Output = AdapterStats;

    fn add(self, other: AdapterStats) -> AdapterStats {
        AdapterStats {
            reads_from_memory: self.reads_from_memory + other.reads_from_memory,
            reads_asked: self.reads_asked + other.reads_asked,
            invokes_deferred: self.invokes_deferred + other.invokes_deferred,
            invokes_waited: self.invokes_waited + other.invokes_waited,
            deferred_callbacks: self.deferred_callbacks + other.deferred_callbacks,
        }
    }
}

impl std::fmt::Debug for RemoteAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteAdapter").finish()
    }
}

impl RemoteAdapter {
    /// Creates an adapter sending through `endpoint`.
    ///
    /// `machine` must be the *local* machine: the adapter uses it to decide
    /// which outgoing references are local (and must be export-pinned).
    pub fn new(endpoint: Arc<Endpoint>, machine: Machine, tables: Arc<RefTables>) -> Self {
        Self::over(Surrogate::Fixed(endpoint), machine, tables)
    }

    /// An adapter sending to wherever `surrogate` currently is.
    pub(crate) fn over(surrogate: Surrogate, machine: Machine, tables: Arc<RefTables>) -> Self {
        RemoteAdapter {
            surrogate,
            machine,
            tables,
            remembered: Mutex::default(),
            reads_from_memory: AtomicU64::new(0),
            reads_asked: AtomicU64::new(0),
            invokes_deferred: AtomicU64::new(0),
            invokes_waited: AtomicU64::new(0),
            deferred_callbacks: AtomicU64::new(0),
        }
    }

    /// How this adapter has answered its touches so far.
    pub fn stats(&self) -> AdapterStats {
        let read = |n: &AtomicU64| n.load(Ordering::Relaxed);
        AdapterStats {
            reads_from_memory: read(&self.reads_from_memory),
            reads_asked: read(&self.reads_asked),
            invokes_deferred: read(&self.invokes_deferred),
            invokes_waited: read(&self.invokes_waited),
            deferred_callbacks: read(&self.deferred_callbacks),
        }
    }

    /// Notes receipt of every reference in `ids` that the peer owns.
    fn import_if_remote(&self, ids: &[ObjectId]) {
        self.tables.import_if_remote(&self.machine.vm().lock(), ids);
    }

    /// What a slot read now is read under, given the peer's count as
    /// [`Surrogate::peer_writes`] gave it *before* `vm` was locked; `None`
    /// if the peer does not say how often it wrote (or there is no peer).
    fn standing(&self, peer_writes: Option<u64>, vm: &Vm) -> Option<Standing> {
        Some(Standing {
            peer_writes: peer_writes?,
            locality: vm.heap().locality_epoch(),
            lease: self.tables.imports.advertised_epoch(),
        })
    }

    /// Whether an `Invoke` of `method` of `class` may go without being waited
    /// for, as `vm` — the caller's — stands: iff no method its callee may
    /// run touches a slot other than reading its receiver's
    /// ([`CallClosure::touches_slots`](aide_vm::CallClosure)), and the
    /// caller holds no object of a class it calls. Then every object the
    /// callee runs on is the peer's: it cannot call back, and what it sends
    /// back — field and static accesses, natives, the monitor's `ClassOf` —
    /// commutes with the caller's later work. It writes no slot, so what the
    /// caller remembers of the peer's slots stays true.
    fn admits(vm: &Vm, class: ClassId, method: MethodId) -> bool {
        vm.program()
            .call_closure(class, method)
            .is_some_and(|closure| {
                !closure.touches_slots
                    && closure
                        .called
                        .iter()
                        .all(|&called| vm.heap().instances_of(called) == 0)
            })
    }

    /// [`Surrogate::call`]; when it says the surrogate is gone — its objects
    /// are home again — nothing read of it stays remembered. A call back
    /// made while serving a deferred `Invoke` is one its admission ruled
    /// out: it is counted, and refused in this crate's tests. (The
    /// monitor's `ClassOf` asks what never changes, and is not one.)
    fn call(&self, request: Request) -> VmResult<Option<Reply>> {
        let calls_back = !matches!(request, Request::ClassOf { .. });
        if let (true, Some((class, method))) = (calls_back, aide_rpc::deferred_invoke_in_service())
        {
            self.deferred_callbacks.fetch_add(1, Ordering::Relaxed);
            if cfg!(test) {
                return Err(VmError::RemoteFailure(format!(
                    "{} sent while serving a deferred Invoke of {class}::{method}",
                    request.kind()
                )));
            }
        }
        let reply = self.surrogate.call(request)?;
        if reply.is_none() {
            self.forget_the_surrogate();
        }
        Ok(reply)
    }

    /// [`Surrogate::defer`]: `touch` goes with the next frame, or — the
    /// surrogate being gone — has been served here, and then nothing read of
    /// the surrogate stays remembered. Whether it went to the surrogate.
    fn defer(&self, touch: Request) -> VmResult<bool> {
        let deferred = self.surrogate.defer(touch)?;
        if !deferred {
            self.forget_the_surrogate();
        }
        Ok(deferred)
    }

    fn forget_the_surrogate(&self) {
        *self.remembered.lock() = Remembered::default();
        self.tables.forget_classes();
    }

    #[cfg(test)]
    pub(crate) fn remembers_nothing(&self) -> bool {
        let remembered = self.remembered.lock();
        remembered.under.is_none()
            && remembered.slots.is_empty()
            && self.tables.classes.lock().is_empty()
    }

    /// The slots [`get_slot`](RemoteAccess::get_slot) holds an answer to
    /// right now, each with that answer — for tests and diagnostics.
    pub fn remembered_slots(&self) -> Vec<(ObjectId, u16, Option<ObjectId>)> {
        let peer_writes = self.surrogate.peer_writes();
        let now = self.standing(peer_writes, &self.machine.vm().lock());
        let mut remembered = self.remembered.lock();
        remembered.settle(now);
        remembered
            .slots
            .iter()
            .map(|(&(target, slot), &value)| (target, slot, value))
            .collect()
    }
}

/// Each method sends its request through the adapter's `call`; `None` back
/// means the surrogate is gone and its objects are home again, so the
/// touch is served by the local interpreter. A touch whose reply carries
/// nothing — an invocation too, when the adapter's `admits` rule lets it —
/// goes through its `defer` instead, and is not waited for.
impl RemoteAccess for RemoteAdapter {
    fn invoke(
        &self,
        target: ObjectId,
        class: ClassId,
        method: MethodId,
        arg_bytes: u32,
        ret_bytes: u32,
        args: &[ObjectId],
    ) -> VmResult<()> {
        let admitted = {
            let mut vm = self.machine.vm().lock();
            for &a in args {
                self.tables.export_if_local(&mut vm, a);
            }
            self.tables.import_if_remote(&vm, &[target]);
            Self::admits(&vm, class, method)
        };
        let invoke = Request::Invoke {
            target,
            class,
            method,
            arg_bytes,
            ret_bytes,
            args: args.to_vec(),
        };
        if admitted {
            self.invokes_deferred.fetch_add(1, Ordering::Relaxed);
            return self.defer(invoke).map(drop);
        }
        self.invokes_waited.fetch_add(1, Ordering::Relaxed);
        match self.call(invoke)? {
            Some(_) => Ok(()),
            None => self.machine.call_on(target, class, method, args),
        }
    }

    fn field_access(&self, target: ObjectId, bytes: u32, write: bool) -> VmResult<()> {
        self.import_if_remote(&[target]);
        self.defer(Request::FieldAccess {
            target,
            bytes,
            write,
        })
        .map(drop)
    }

    fn get_slot(&self, target: ObjectId, slot: u16) -> VmResult<Option<ObjectId>> {
        let peer_writes = self.surrogate.peer_writes();
        let before = {
            let vm = self.machine.vm().lock();
            self.tables.import_if_remote(&vm, &[target]);
            let now = self.standing(peer_writes, &vm);
            let mut remembered = self.remembered.lock();
            remembered.settle(now);
            if let Some(&value) = remembered.slots.get(&(target, slot)) {
                // A reference is handed out only while this side still
                // holds it: once released, the owner may have unpinned it,
                // and asking again is what exports it again.
                let held = |v| vm.heap().contains(v) || self.tables.imports.contains(v);
                if value.is_none_or(held) {
                    self.reads_from_memory.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
            }
            now
        };
        self.reads_asked.fetch_add(1, Ordering::Relaxed);
        match self.call(Request::GetSlot { target, slot })? {
            Some(Reply::Slot(value)) => {
                // The reply's own count is in by now.
                let peer_writes = self.surrogate.peer_writes();
                let vm = self.machine.vm().lock();
                if let Some(v) = value {
                    self.tables.import_if_remote(&vm, &[v]);
                }
                // Remembered if nothing moved while the question was out.
                let now = self.standing(peer_writes, &vm);
                if now == before {
                    let mut remembered = self.remembered.lock();
                    if remembered.settle(now) {
                        remembered.slots.insert((target, slot), value);
                    }
                }
                Ok(value)
            }
            Some(other) => Err(VmError::RemoteFailure(format!(
                "unexpected reply {other:?} to GetSlot"
            ))),
            None => self.machine.get_slot_on(target, slot),
        }
    }

    fn put_slot(&self, target: ObjectId, slot: u16, value: Option<ObjectId>) -> VmResult<()> {
        let peer_writes = self.surrogate.peer_writes();
        let before = {
            let mut vm = self.machine.vm().lock();
            if let Some(v) = value {
                self.tables.export_if_local(&mut vm, v);
            }
            self.tables.import_if_remote(&vm, &[target]);
            self.standing(peer_writes, &vm)
        };
        let deferred = self.defer(Request::PutSlot {
            target,
            slot,
            value,
        })?;
        // Write-through: the owner's count counts this write from the moment
        // it is deferred (it is served before anything asked after it). If
        // the count is exactly one past what the slots were read under, they
        // all still hold, this one with its new value. Otherwise the next
        // read finds the count moved and drops them.
        if let (true, Some(before)) = (deferred, before) {
            let after = Standing {
                peer_writes: before.peer_writes + 1,
                ..before
            };
            let peer_writes = self.surrogate.peer_writes();
            let now = self.standing(peer_writes, &self.machine.vm().lock());
            let mut remembered = self.remembered.lock();
            if remembered.under == Some(before) && now == Some(after) {
                remembered.under = now;
                remembered.slots.insert((target, slot), value);
            }
        }
        Ok(())
    }

    fn native(
        &self,
        caller: ClassId,
        kind: NativeKind,
        work_micros: u32,
        arg_bytes: u32,
        ret_bytes: u32,
    ) -> VmResult<()> {
        self.defer(Request::Native {
            caller,
            kind,
            work_micros,
            arg_bytes,
            ret_bytes,
        })
        .map(drop)
    }

    fn static_access(
        &self,
        accessor: ClassId,
        class: ClassId,
        bytes: u32,
        write: bool,
    ) -> VmResult<()> {
        self.defer(Request::StaticAccess {
            accessor,
            class,
            bytes,
            write,
        })
        .map(drop)
    }

    fn class_of(&self, target: ObjectId) -> VmResult<ClassId> {
        if let Some(class) = self.tables.known_class(target) {
            self.reads_from_memory.fetch_add(1, Ordering::Relaxed);
            return Ok(class);
        }
        self.reads_asked.fetch_add(1, Ordering::Relaxed);
        match self.call(Request::ClassOf { target })? {
            Some(Reply::Class(class)) => {
                if self.surrogate.peer_writes().is_some() {
                    self.tables.remember_classes([(target, class)]);
                }
                Ok(class)
            }
            Some(other) => Err(VmError::RemoteFailure(format!(
                "unexpected reply {other:?} to ClassOf"
            ))),
            None => self.machine.class_of_local(target),
        }
    }

    fn flush(&self) -> VmResult<()> {
        if !self.surrogate.flush()? {
            self.forget_the_surrogate();
        }
        Ok(())
    }
}

/// Serves the peer's requests against the local machine.
pub struct VmDispatcher {
    machine: Machine,
    tables: Arc<RefTables>,
    /// Objects staged by [`Request::MigratePrepare`], keyed by transaction
    /// id, held outside the heap until COMMIT installs them atomically or
    /// ABORT discards them.
    staged: Mutex<HashMap<u64, Vec<(ObjectId, ObjectRecord)>>>,
    /// Relay transactions already installed by [`Request::RelayDeliver`].
    /// The relay redelivers until acknowledged, so installation must be
    /// exactly-once per transaction id even across duplicate deliveries
    /// that slip past the transport-level dedup (a relay reconnecting with
    /// a fresh client id).
    applied_relays: Mutex<std::collections::HashSet<u64>>,
}

impl std::fmt::Debug for VmDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VmDispatcher").finish()
    }
}

impl VmDispatcher {
    /// Creates a dispatcher executing against `machine`.
    pub fn new(machine: Machine, tables: Arc<RefTables>) -> Self {
        VmDispatcher {
            machine,
            tables,
            staged: Mutex::new(HashMap::new()),
            applied_relays: Mutex::new(std::collections::HashSet::new()),
        }
    }

    /// Bytes currently staged by open migration transactions.
    pub fn staged_bytes(&self) -> u64 {
        self.staged
            .lock()
            .values()
            .flatten()
            .map(|(_, r)| r.footprint())
            .sum()
    }

    /// Installs `objects` into the local heap, pinning each one. Shared by
    /// COMMIT and relay delivery.
    fn install_objects(&self, objects: Vec<(ObjectId, ObjectRecord)>) -> Result<Reply, String> {
        let vm = self.machine.vm();
        let mut vm = vm.lock();
        // All-or-nothing: verify capacity and every id before installing
        // anything, so a refused batch never leaves objects half-resident
        // and the heap, its counts and the export table are untouched.
        let total: u64 = objects.iter().map(|(_, r)| r.footprint()).sum();
        if total > vm.heap().free_bytes() {
            return Err(format!(
                "surrogate heap cannot host {total} B ({} B free)",
                vm.heap().free_bytes()
            ));
        }
        vm.heap()
            .check_batch(objects.iter().map(|(id, _)| *id))
            .map_err(|e| e.to_string())?;
        for (id, record) in objects {
            // Cross-VM slot references: note remote ones as imports.
            for slot in record.slots.iter().flatten() {
                if !vm.heap().contains(*slot) {
                    self.tables.imports.import(*slot);
                }
            }
            vm.heap_mut()
                .migrate_in(id, record)
                .map_err(|e| e.to_string())?;
            // Conservatively pin every migrated-in object: the peer
            // still holds references (frames, slots) to it. Released
            // by the peer's GcReleaseSeq when it drops them.
            if self.tables.exports.export(id) {
                vm.external_root_inc(id);
            }
        }
        Ok(Reply::Unit)
    }

    /// Serves `request` if it is a probe, a renewal or a short one
    /// ([`is_short`]), and hands it back if it is of another kind.
    fn serve_short(&self, request: Request) -> Result<Result<Reply, String>, Request> {
        match request {
            // Null RPC: answer immediately so probes measure pure link +
            // dispatch latency (the paper's 2.4 ms null-RPC figure).
            Request::Ping => Ok(Ok(Reply::Unit)),
            Request::GcRenew { epoch } => {
                self.tables.exports.renew(epoch);
                Ok(Ok(Reply::Unit))
            }
            request if is_short(&request) => {
                let served = self.serve_locked(&mut self.machine.vm().lock(), request);
                Ok(served.map_err(|e| e.to_string()))
            }
            other => Err(other),
        }
    }

    /// Serves a short request ([`is_short`]) on `vm`, which the caller has
    /// locked.
    fn serve_locked(&self, vm: &mut Vm, request: Request) -> VmResult<Reply> {
        match request {
            Request::FieldAccess {
                target,
                bytes,
                write,
            } => vm
                .field_access_on(target, bytes, write)
                .map(|()| Reply::Unit),
            Request::GetSlot { target, slot } => vm.get_slot_on(target, slot).map(|value| {
                // The peer will hold whatever reference we hand out:
                // pinned under the guard the slot was read under.
                if let Some(v) = value {
                    self.tables.export_if_local(vm, v);
                }
                Reply::Slot(value)
            }),
            Request::PutSlot {
                target,
                slot,
                value,
            } => {
                if let Some(v) = value {
                    self.tables.import_if_remote(vm, &[v]);
                }
                vm.put_slot_on(target, slot, value).map(|()| Reply::Unit)
            }
            Request::StaticAccess {
                class,
                bytes,
                write,
                ..
            } => {
                vm.static_access_on(class, bytes, write);
                Ok(Reply::Unit)
            }
            Request::Native { work_micros, .. } => {
                vm.native_on(work_micros);
                Ok(Reply::Unit)
            }
            Request::ClassOf { target } => vm.class_of_local(target).map(Reply::Class),
            other => unreachable!("{} is not a short request", other.kind()),
        }
    }

    /// The dispatcher's reference tables (shared with the platform side).
    pub fn tables(&self) -> &Arc<RefTables> {
        &self.tables
    }

    /// The machine requests are served against.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Sweeps expired-lease and stale-epoch exports back to the collector,
    /// unpinning each reclaimed object under the VM lock. Returns
    /// `(expired, stale)` counts. The surrogate daemon runs this
    /// periodically; failover runs it after bumping the epoch.
    pub fn sweep_expired_exports(&self) -> (usize, usize) {
        let vm = self.machine.vm();
        let mut vm = vm.lock();
        let expired = self.tables.exports.sweep_expired();
        for &id in &expired {
            vm.external_root_dec(id);
        }
        let stale = self.tables.exports.sweep_stale_epochs();
        for &id in &stale {
            vm.external_root_dec(id);
        }
        (expired.len(), stale.len())
    }
}

/// Whether `request` is one [`VmDispatcher`] serves under the VM lock alone:
/// it touches one heap record (or none) and never re-enters the
/// interpreter.
fn is_short(request: &Request) -> bool {
    matches!(
        request,
        Request::FieldAccess { .. }
            | Request::GetSlot { .. }
            | Request::PutSlot { .. }
            | Request::StaticAccess { .. }
            | Request::Native { .. }
            | Request::ClassOf { .. }
    )
}

impl Dispatcher for VmDispatcher {
    /// Each run of short touches (`is_short`) is served under one VM lock,
    /// in order, as [`dispatch`](Dispatcher::dispatch) serves each; every
    /// other touch — an `Invoke` — as a deferred one.
    fn dispatch_touches(&self, touches: &Touches) -> Result<(), TouchFailure> {
        let mut touches = touches.iter().enumerate().peekable();
        while let Some((at, touch)) = touches.next() {
            if !is_short(&touch) {
                let kind = touch.kind();
                dispatch_deferred(self, touch).map_err(|e| TouchFailure::new(at, kind, e))?;
                continue;
            }
            let mut vm = self.machine.vm().lock();
            let mut first = Some((at, touch));
            while let Some((at, touch)) = first
                .take()
                .or_else(|| touches.next_if(|(_, t)| is_short(t)))
            {
                let kind = touch.kind();
                self.serve_locked(&mut vm, touch)
                    .map_err(|e| TouchFailure::new(at, kind, e))?;
            }
        }
        Ok(())
    }

    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        let request = match self.serve_short(request) {
            Ok(served) => return served,
            Err(request) => request,
        };
        match request {
            Request::Invoke {
                target,
                class,
                method,
                args,
                ..
            } => {
                self.tables
                    .import_if_remote(&self.machine.vm().lock(), &args);
                self.machine
                    .call_on(target, class, method, &args)
                    .map(|()| Reply::Unit)
                    .map_err(|e| e.to_string())
            }
            Request::RelayDeliver { txn, objects, .. } => {
                // Exactly-once per relay transaction: the relay retries
                // delivery until acknowledged, and acknowledgements can be
                // lost, so a txn already installed replies success without
                // touching the heap again.
                if !self.applied_relays.lock().insert(txn) {
                    return Ok(Reply::Unit);
                }
                let installed = self.install_objects(objects);
                if installed.is_err() {
                    // A failed install (capacity) must stay retryable.
                    self.applied_relays.lock().remove(&txn);
                }
                installed
            }
            Request::MigratePrepare { txn, objects } => {
                // PREPARE stages without installing. The capacity check
                // covers everything staged so far, so a COMMIT that follows
                // a successful PREPARE chain cannot fail for space.
                let mut staged = self.staged.lock();
                let already: u64 = staged.values().flatten().map(|(_, r)| r.footprint()).sum();
                let incoming: u64 = objects.iter().map(|(_, r)| r.footprint()).sum();
                let free = self.machine.vm().lock().heap().free_bytes();
                if already + incoming > free {
                    return Err(format!(
                        "surrogate heap cannot stage {incoming} B for txn {txn} \
                         ({already} B already staged, {free} B free)"
                    ));
                }
                staged.entry(txn).or_default().extend(objects);
                Ok(Reply::Unit)
            }
            Request::MigrateCommit { txn } => match self.staged.lock().remove(&txn) {
                Some(objects) => self.install_objects(objects),
                None => Err(format!("unknown migration txn {txn}")),
            },
            Request::MigrateAbort { txn } => {
                // Idempotent: aborting an unknown (or already-aborted)
                // transaction is a no-op so the client can abort blindly
                // while cleaning up after a failure.
                self.staged.lock().remove(&txn);
                Ok(Reply::Unit)
            }
            Request::GcReleaseSeq {
                epoch,
                release_seq,
                objects,
            } => {
                // The table enforces the epoch/watermark discipline; only
                // entries it actually dropped are unpinned, so replays and
                // zombies cannot double-release a root.
                let vm = self.machine.vm();
                let mut vm = vm.lock();
                for id in self
                    .tables
                    .exports
                    .release_batch(epoch, release_seq, &objects)
                {
                    vm.external_root_dec(id);
                }
                Ok(Reply::Unit)
            }
            Request::Shutdown => Ok(Reply::Unit),
            // Telemetry scrape: a Prometheus-style exposition of this
            // process's metrics registry, whose one detector is listed
            // even while it reads 0.
            Request::Stats => {
                let registry = aide_telemetry::global();
                registry.counter(aide_telemetry::names::VM_UNPIN_UNBALANCED);
                Ok(Reply::Text(aide_telemetry::prometheus_text(
                    &registry.snapshot(),
                )))
            }
            Request::FieldAccess { .. }
            | Request::GetSlot { .. }
            | Request::PutSlot { .. }
            | Request::StaticAccess { .. }
            | Request::Native { .. }
            | Request::ClassOf { .. }
            | Request::GcRenew { .. }
            | Request::Ping => unreachable!("served above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_graph::CommParams;
    use aide_rpc::{EndpointConfig, Link};
    use aide_vm::{MethodDef, Op, ProgramBuilder, Reg, VmConfig};

    const WORKER: ClassId = ClassId(1);
    const HELPER: ClassId = ClassId(2);
    /// `Worker::step`: works.
    const STEP: MethodId = MethodId(0);
    /// `Worker::set(v)`: `self.0 = v`.
    const SET: MethodId = MethodId(1);
    /// `Worker::relay(h)`: `h.noop()`.
    const RELAY: MethodId = MethodId(2);
    /// `Worker::grow(h)`: allocates more than any heap here holds, then
    /// `h.noop()`.
    const GROW: MethodId = MethodId(3);
    /// `Worker::poke(w)`: `w.set(w)`.
    const POKE: MethodId = MethodId(4);

    /// Builds a connected client/surrogate machine pair over real RPC.
    fn machine_pair() -> (Machine, Machine, Arc<Endpoint>, Arc<Endpoint>) {
        let (client, surrogate, cep, sep, adapters) = adapter_pair();
        // The machines hold their adapters weakly and these tests hand the
        // pair around as plain machines: the adapters stay for the process.
        std::mem::forget(adapters);
        (client, surrogate, cep, sep)
    }

    /// [`machine_pair`], and the client's and the surrogate's adapter.
    fn adapter_pair() -> (
        Machine,
        Machine,
        Arc<Endpoint>,
        Arc<Endpoint>,
        [Arc<RemoteAdapter>; 2],
    ) {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let worker = b.add_class("Worker");
        let helper = b.add_class("Helper");
        let noop = b.add_method(helper, MethodDef::new("noop", vec![Op::Work { micros: 1 }]));
        let call_noop = Op::Call {
            obj: Reg(0),
            class: helper,
            method: noop,
            arg_bytes: 0,
            ret_bytes: 0,
            args: vec![],
        };
        let methods = [
            MethodDef::new("step", vec![Op::Work { micros: 10 }]),
            MethodDef::new(
                "set",
                vec![Op::PutSlot {
                    slot: 0,
                    src: Reg(0),
                }],
            ),
            MethodDef::new("relay", vec![call_noop.clone()]),
            MethodDef::new(
                "grow",
                vec![
                    Op::New {
                        class: worker,
                        scalar_bytes: 64 << 20,
                        ref_slots: 0,
                        dst: Reg(1),
                    },
                    call_noop,
                ],
            ),
            MethodDef::new(
                "poke",
                vec![Op::Call {
                    obj: Reg(0),
                    class: worker,
                    method: SET,
                    arg_bytes: 8,
                    ret_bytes: 0,
                    args: vec![Reg(0)],
                }],
            ),
        ];
        for (method, def) in [STEP, SET, RELAY, GROW, POKE].into_iter().zip(methods) {
            assert_eq!(b.add_method(worker, def), method);
        }
        assert_eq!((worker, helper), (WORKER, HELPER));
        b.add_method(main, MethodDef::new("main", vec![]));
        let program = Arc::new(b.build(main, MethodId(0), 64, 4).unwrap());

        let client = Machine::new(program.clone(), VmConfig::client(1 << 20));
        let surrogate = Machine::new(program, VmConfig::surrogate(8 << 20));

        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let client_tables = Arc::new(RefTables::new());
        let surrogate_tables = Arc::new(RefTables::new());

        let client_ep = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(VmDispatcher::new(client.clone(), client_tables.clone())),
            EndpointConfig::default(),
        );
        let surrogate_ep = Endpoint::start(
            st,
            link.params,
            clock,
            Arc::new(VmDispatcher::new(
                surrogate.clone(),
                surrogate_tables.clone(),
            )),
            EndpointConfig::default(),
        );

        // Lease piggyback: every frame each side sends renews the peer's
        // view of this side's holds.
        client_tables.attach_to(&client_ep, &client);
        surrogate_tables.attach_to(&surrogate_ep, &surrogate);

        // Calls placed on an endpoint travel to the peer and are served by
        // the peer's dispatcher: the client's outbound path is client_ep.
        let adapters = [
            Arc::new(RemoteAdapter::new(
                client_ep.clone(),
                client.clone(),
                client_tables,
            )),
            Arc::new(RemoteAdapter::new(
                surrogate_ep.clone(),
                surrogate.clone(),
                surrogate_tables,
            )),
        ];
        for (machine, adapter) in [&client, &surrogate].into_iter().zip(&adapters) {
            let remote: Arc<dyn RemoteAccess> = adapter.clone();
            machine.set_remote(&remote);
        }
        (client, surrogate, client_ep, surrogate_ep, adapters)
    }

    #[test]
    fn migrate_then_invoke_executes_on_surrogate() {
        let (client, surrogate, cep, _sep) = machine_pair();
        // Create a Worker on the client and take it off the client heap.
        let worker_id = ObjectId::client(1000);
        let record = {
            let vm = client.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(worker_id, aide_vm::ObjectRecord::new(ClassId(1), 500, 0))
                .unwrap();
            vm.heap_mut().migrate_out(worker_id).unwrap()
        };
        // Offload it over the wire: the client's endpoint sends, the
        // surrogate's dispatcher serves.
        cep.call(Request::MigratePrepare {
            txn: 1,
            objects: vec![(worker_id, record)],
        })
        .unwrap();
        cep.call(Request::MigrateCommit { txn: 1 }).unwrap();
        assert!(surrogate.vm().lock().heap().contains(worker_id));
        // The object is no longer client-local, so a direct local call
        // fails there...
        assert!(client
            .call_on(worker_id, ClassId(1), MethodId(0), &[])
            .is_err());
        // ...but an Invoke through the RPC path executes on the surrogate.
        cep.call(Request::Invoke {
            target: worker_id,
            class: ClassId(1),
            method: MethodId(0),
            arg_bytes: 0,
            ret_bytes: 0,
            args: vec![],
        })
        .unwrap();
        assert!(surrogate.vm().lock().cpu_seconds() > 0.0);
    }

    #[test]
    fn remote_invoke_round_trips_through_rpc() {
        let (client, surrogate, cep, sep) = machine_pair();
        // Put a Worker object on the surrogate.
        let worker_id = ObjectId::surrogate(5);
        {
            let vm = surrogate.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(worker_id, aide_vm::ObjectRecord::new(ClassId(1), 100, 0))
                .unwrap();
        }
        // Drive an Invoke from the client through its RemoteAccess adapter.
        let tables = Arc::new(RefTables::new());
        let adapter = RemoteAdapter::new(cep.clone(), client.clone(), tables);
        adapter
            .invoke(worker_id, ClassId(1), MethodId(0), 16, 8, &[])
            .unwrap();
        // `Worker::step` only works: it rides the next frame, and the link
        // time of its round trip is charged already.
        assert_eq!(sep.requests_served(), 0);
        assert!(cep.clock().seconds() > 0.0);
        adapter.flush().unwrap();
        assert_eq!(sep.requests_served(), 1);
        assert!(surrogate.vm().lock().cpu_seconds() > 0.0);
    }

    #[test]
    fn an_invoke_waits_unless_its_callee_cannot_call_back() {
        let (client, surrogate, cep, sep) = machine_pair();
        let (worker, helper) = (ObjectId::surrogate(5), ObjectId::surrogate(6));
        {
            let mut vm = surrogate.vm().lock();
            let heap = vm.heap_mut();
            heap.insert(worker, ObjectRecord::new(WORKER, 100, 1))
                .unwrap();
            heap.insert(helper, ObjectRecord::new(HELPER, 10, 0))
                .unwrap();
        }
        let admits = |method| RemoteAdapter::admits(&client.vm().lock(), WORKER, method);
        assert!(admits(STEP), "it only works");
        assert!(!admits(SET), "it writes a slot");
        assert!(
            admits(RELAY),
            "it calls a Helper, and every Helper is the peer's"
        );
        let ours = ObjectId::client(7);
        client
            .vm()
            .lock()
            .heap_mut()
            .insert(ours, ObjectRecord::new(HELPER, 10, 0))
            .unwrap();
        assert!(!admits(RELAY), "this Helper it could call back");
        client.vm().lock().heap_mut().migrate_out(ours).unwrap();
        assert!(admits(RELAY), "gone again");

        let adapter = RemoteAdapter::new(cep, client.clone(), Arc::new(RefTables::new()));
        adapter
            .invoke(worker, WORKER, RELAY, 0, 0, &[helper])
            .unwrap();
        assert_eq!(sep.requests_served(), 0, "rides the next frame");
        adapter
            .invoke(worker, WORKER, SET, 8, 0, &[helper])
            .unwrap();
        assert_eq!(sep.requests_served(), 2, "carried it, and was waited for");
        assert_eq!(surrogate.get_slot_on(worker, 0).unwrap(), Some(helper));
    }

    /// An invocation deferred past the adapter's rule whose callee calls
    /// back: the call is counted, and refused with where it came from.
    #[test]
    fn a_call_back_from_a_deferred_invoke_is_counted_and_refused_here() {
        let (client, surrogate, cep, _sep, adapters) = adapter_pair();
        let (worker, ours) = (ObjectId::surrogate(5), ObjectId::client(7));
        surrogate
            .vm()
            .lock()
            .heap_mut()
            .insert(worker, ObjectRecord::new(WORKER, 100, 1))
            .unwrap();
        client
            .vm()
            .lock()
            .heap_mut()
            .insert(ours, ObjectRecord::new(WORKER, 100, 1))
            .unwrap();
        // `ours.set(ours)` writes a slot: the surrogate waits for it.
        cep.defer(Request::Invoke {
            target: worker,
            class: WORKER,
            method: POKE,
            arg_bytes: 8,
            ret_bytes: 0,
            args: vec![ours],
        })
        .unwrap();
        let failed = cep.call(Request::ClassOf { target: worker }).unwrap_err();
        assert_eq!(
            failed,
            RpcError::Remote(format!(
                "deferred Invoke: remote operation failed: Invoke sent while serving a \
                 deferred Invoke of {WORKER}::{POKE}"
            ))
        );
        // The surrogate's adapter made the call back, once.
        assert_eq!(adapters[1].stats().deferred_callbacks, 1);
        assert_eq!(adapters[0].stats().deferred_callbacks, 0);
    }

    /// A deferred invocation that fails — its target gone, or the surrogate
    /// out of memory — fails the frame that carries it and every call after
    /// it, with the error the invocation would have had, waited for.
    #[test]
    fn a_deferred_invoke_that_fails_fails_what_follows_as_waiting_would() {
        for target_exists in [false, true] {
            let [waited, deferred] = [true, false].map(|wait| {
                let (client, surrogate, cep, _sep) = machine_pair();
                let target = ObjectId::surrogate(5);
                if target_exists {
                    surrogate
                        .vm()
                        .lock()
                        .heap_mut()
                        .insert(target, ObjectRecord::new(WORKER, 100, 1))
                        .unwrap();
                }
                if wait {
                    // A Helper here is one `grow` could call back.
                    client
                        .vm()
                        .lock()
                        .heap_mut()
                        .insert(ObjectId::client(7), ObjectRecord::new(HELPER, 10, 0))
                        .unwrap();
                }
                let adapter = RemoteAdapter::new(cep, client, Arc::new(RefTables::new()));
                let invoked = adapter.invoke(target, WORKER, GROW, 0, 0, &[]);
                if wait {
                    return invoked.unwrap_err();
                }
                invoked.unwrap();
                let failed = adapter.class_of(target).unwrap_err();
                assert_eq!(adapter.flush().unwrap_err(), failed, "and what follows");
                assert_eq!(adapter.class_of(target).unwrap_err(), failed);
                failed
            });
            let (VmError::RemoteFailure(waited), VmError::RemoteFailure(deferred)) =
                (&waited, &deferred)
            else {
                panic!("remote failures both: {waited:?}, {deferred:?}");
            };
            assert_eq!(*deferred, format!("deferred Invoke: {waited}"));
            let cause = if target_exists {
                "out of memory"
            } else {
                "dangling"
            };
            assert!(waited.contains(cause), "{waited}");
        }
    }

    #[test]
    fn class_of_resolves_across_vms() {
        let (client, surrogate, cep, _sep) = machine_pair();
        let id = ObjectId::surrogate(9);
        {
            let vm = surrogate.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(id, aide_vm::ObjectRecord::new(ClassId(1), 10, 0))
                .unwrap();
        }
        let tables = Arc::new(RefTables::new());
        let adapter = RemoteAdapter::new(cep, client.clone(), tables);
        assert_eq!(adapter.class_of(id).unwrap(), ClassId(1));
        assert!(matches!(
            adapter.class_of(ObjectId::surrogate(404)).unwrap_err(),
            VmError::RemoteFailure(_)
        ));
    }

    #[test]
    fn the_classes_remembered_are_bounded_by_the_imports_held() {
        let tables = RefTables::new();
        let imports = &tables.imports;
        let known = |id| tables.known_class(id).is_some();
        let held: Vec<ObjectId> = (0..10).map(ObjectId::surrogate).collect();
        for &id in &held {
            imports.import(id);
            tables.remember_classes([(id, ClassId(1))]);
        }
        // Objects asked about once and let go again, far more than are held.
        for i in 1_000..11_000 {
            let passing = ObjectId::surrogate(i);
            imports.import(passing);
            tables.remember_classes([(passing, ClassId(1))]);
            imports.remove(passing);
            assert!(tables.classes.lock().len() < CLASSES_FLOOR.max(2 * imports.len()));
        }
        assert!(held.iter().all(|&id| known(id)));
        // What stays imported stays remembered, however much of it there is:
        // one batch, as a shipment records it.
        for i in 20_000..20_500 {
            imports.import(ObjectId::surrogate(i));
        }
        tables.remember_classes((20_000..20_500).map(|i| (ObjectId::surrogate(i), ClassId(1))));
        assert!((20_000..20_500).all(|i| known(ObjectId::surrogate(i))));
        assert!(tables.classes.lock().len() < 2 * imports.len());
    }

    #[test]
    fn exported_arguments_are_pinned_until_released() {
        let (client, surrogate, cep, _sep) = machine_pair();
        // A client-local object passed as an argument to a remote call.
        let arg_id = ObjectId::client(77);
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(arg_id, aide_vm::ObjectRecord::new(ClassId(1), 10, 0))
                .unwrap();
        }
        let target = ObjectId::surrogate(3);
        {
            let vm = surrogate.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(target, aide_vm::ObjectRecord::new(ClassId(1), 10, 0))
                .unwrap();
        }
        let tables = Arc::new(RefTables::new());
        let adapter = RemoteAdapter::new(cep, client.clone(), tables.clone());
        adapter
            .invoke(target, ClassId(1), MethodId(0), 0, 0, &[arg_id])
            .unwrap();
        assert!(tables.exports.contains(arg_id));
        assert_eq!(client.vm().lock().external_root_count(), 1);
        assert!(tables.imports.contains(target));
    }

    #[test]
    fn short_requests_are_served_at_once_unless_the_vm_is_held() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let (holder, held) = (ObjectId::surrogate(20), ObjectId::surrogate(21));
        {
            let vm = surrogate.vm();
            let mut vm = vm.lock();
            let mut record = aide_vm::ObjectRecord::new(ClassId(1), 10, 1);
            record.slots[0] = Some(held);
            vm.heap_mut().insert(holder, record).unwrap();
            vm.heap_mut()
                .insert(held, aide_vm::ObjectRecord::new(ClassId(1), 10, 0))
                .unwrap();
        }
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables.clone());
        let read = Request::GetSlot {
            target: holder,
            slot: 0,
        };

        // The VM is free: served, and what was handed out is pinned.
        assert_eq!(
            dispatcher.dispatch(read.clone()),
            Ok(Reply::Slot(Some(held)))
        );
        assert!(tables.exports.contains(held));
        assert_eq!(surrogate.vm().lock().external_root_count(), 1);
        assert_eq!(
            dispatcher.dispatch(Request::ClassOf {
                target: ObjectId::surrogate(404)
            }),
            Err(VmError::DanglingReference(ObjectId::surrogate(404)).to_string()),
            "an error is an answer too"
        );

        // A burst holds the VM: a read waits for it, what needs no VM does not.
        let burst = surrogate.vm().lock();
        std::thread::scope(|scope| {
            let (done, finished) = std::sync::mpsc::channel();
            let (dispatcher, read) = (&dispatcher, read.clone());
            scope.spawn(move || done.send(dispatcher.dispatch(read)));
            assert_eq!(dispatcher.dispatch(Request::Ping), Ok(Reply::Unit));
            assert!(
                finished
                    .recv_timeout(std::time::Duration::from_millis(20))
                    .is_err(),
                "the read waits for the VM"
            );
            drop(burst);
            assert_eq!(finished.recv(), Ok(Ok(Reply::Slot(Some(held)))));
        });
    }

    #[test]
    fn release_seq_is_idempotent_through_the_dispatcher() {
        let (client, _surrogate, _cep, _sep) = machine_pair();
        let id = ObjectId::client(56);
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(id, aide_vm::ObjectRecord::new(ClassId(1), 10, 0))
                .unwrap();
        }
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(client.clone(), tables.clone());
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            if tables.exports.export(id) {
                vm.external_root_inc(id);
            }
        }
        assert_eq!(client.vm().lock().external_root_count(), 1);
        let release = Request::GcReleaseSeq {
            epoch: 0,
            release_seq: 1,
            objects: vec![id],
        };
        assert_eq!(dispatcher.dispatch(release.clone()), Ok(Reply::Unit));
        assert_eq!(client.vm().lock().external_root_count(), 0, "unpinned");
        // A chaos duplicate of the same batch is a no-op: no double-unpin,
        // no unbalanced audit entry.
        let before = client.vm().lock().external_root_audit();
        dispatcher.dispatch(release).unwrap();
        assert_eq!(client.vm().lock().external_root_audit(), before);
        assert!(tables.exports.is_empty());
    }

    #[test]
    fn expired_leases_are_swept_back_to_the_collector() {
        let (client, _surrogate, _cep, _sep) = machine_pair();
        let id = ObjectId::client(57);
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(id, aide_vm::ObjectRecord::new(ClassId(1), 10, 0))
                .unwrap();
        }
        let clock = Arc::new(aide_rpc::GcClock::new());
        let tables = Arc::new(RefTables::with_clock(clock.clone()));
        tables.exports.set_ttl_ms(50);
        let dispatcher = VmDispatcher::new(client.clone(), tables.clone());
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            if tables.exports.export(id) {
                vm.external_root_inc(id);
            }
        }
        clock.advance_ms(100);
        let (expired, stale) = dispatcher.sweep_expired_exports();
        assert_eq!((expired, stale), (1, 0));
        assert_eq!(client.vm().lock().external_root_count(), 0);
        assert!(tables.exports.is_empty());
    }

    #[test]
    fn committed_migration_installs_objects_and_pins_them() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables.clone());
        let mut rec = aide_vm::ObjectRecord::new(ClassId(1), 200, 1);
        rec.slots[0] = Some(ObjectId::client(123)); // back-ref to the client
        let id = ObjectId::client(500);
        dispatcher
            .dispatch(Request::MigratePrepare {
                txn: 5,
                objects: vec![(id, rec)],
            })
            .unwrap();
        dispatcher
            .dispatch(Request::MigrateCommit { txn: 5 })
            .unwrap();
        let vm = surrogate.vm();
        let vm = vm.lock();
        assert!(vm.heap().contains(id));
        assert_eq!(vm.heap().stats().migrated_in, 1);
        assert_eq!(vm.external_root_count(), 1, "migrated object pinned");
        assert!(tables.imports.contains(ObjectId::client(123)));
    }

    #[test]
    fn prepare_stages_without_installing_until_commit() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables);
        let id = ObjectId::client(600);
        let rec = aide_vm::ObjectRecord::new(ClassId(1), 300, 0);
        dispatcher
            .dispatch(Request::MigratePrepare {
                txn: 1,
                objects: vec![(id, rec)],
            })
            .unwrap();
        // Staged, not installed.
        assert!(!surrogate.vm().lock().heap().contains(id));
        assert!(dispatcher.staged_bytes() > 0);
        dispatcher
            .dispatch(Request::MigrateCommit { txn: 1 })
            .unwrap();
        assert!(surrogate.vm().lock().heap().contains(id));
        assert_eq!(dispatcher.staged_bytes(), 0);
    }

    #[test]
    fn abort_discards_staged_objects() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables);
        let id = ObjectId::client(601);
        dispatcher
            .dispatch(Request::MigratePrepare {
                txn: 2,
                objects: vec![(id, aide_vm::ObjectRecord::new(ClassId(1), 300, 0))],
            })
            .unwrap();
        dispatcher
            .dispatch(Request::MigrateAbort { txn: 2 })
            .unwrap();
        assert!(!surrogate.vm().lock().heap().contains(id));
        assert_eq!(dispatcher.staged_bytes(), 0);
        // Committing the aborted transaction is an error, and aborting
        // again is a harmless no-op.
        assert!(dispatcher
            .dispatch(Request::MigrateCommit { txn: 2 })
            .is_err());
        dispatcher
            .dispatch(Request::MigrateAbort { txn: 2 })
            .unwrap();
    }

    /// What a refused batch must leave as it was.
    fn ledger(
        machine: &Machine,
        tables: &RefTables,
    ) -> (aide_vm::HeapStats, u64, u64, usize, usize, usize) {
        let vm = machine.vm();
        let vm = vm.lock();
        (
            vm.heap().stats(),
            vm.heap().locality_epoch(),
            vm.heap().instances_of(WORKER),
            vm.external_root_count(),
            tables.exports.len(),
            tables.imports.len(),
        )
    }

    #[test]
    fn a_batch_that_repeats_an_id_is_refused_whole() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables.clone());
        let before = ledger(&surrogate, &tables);
        let (a, b) = (ObjectId::client(800), ObjectId::client(801));
        dispatcher
            .dispatch(Request::MigratePrepare {
                txn: 6,
                objects: vec![
                    (a, aide_vm::ObjectRecord::new(WORKER, 10, 0)),
                    (b, aide_vm::ObjectRecord::new(WORKER, 10, 0)),
                    (a, aide_vm::ObjectRecord::new(WORKER, 90, 1)),
                ],
            })
            .unwrap();
        let err = dispatcher
            .dispatch(Request::MigrateCommit { txn: 6 })
            .unwrap_err();
        assert!(err.contains("already in use"), "got: {err}");
        assert_eq!(ledger(&surrogate, &tables), before);
        let vm = surrogate.vm();
        let vm = vm.lock();
        assert!(!vm.heap().contains(a) && !vm.heap().contains(b));
    }

    #[test]
    fn a_batch_naming_a_live_id_is_refused_whole() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables.clone());
        let (x, y) = (ObjectId::client(810), ObjectId::client(811));
        let original = aide_vm::ObjectRecord::new(WORKER, 10, 0);
        for (txn, objects) in [
            (7, vec![(x, original.clone())]),
            (
                8,
                vec![
                    (y, aide_vm::ObjectRecord::new(WORKER, 10, 0)),
                    (x, aide_vm::ObjectRecord::new(HELPER, 500, 2)),
                ],
            ),
        ] {
            dispatcher
                .dispatch(Request::MigratePrepare { txn, objects })
                .unwrap();
        }
        dispatcher
            .dispatch(Request::MigrateCommit { txn: 7 })
            .unwrap();
        let before = ledger(&surrogate, &tables);
        let err = dispatcher
            .dispatch(Request::MigrateCommit { txn: 8 })
            .unwrap_err();
        assert!(err.contains("already in use"), "got: {err}");
        assert_eq!(ledger(&surrogate, &tables), before);
        let vm = surrogate.vm();
        let vm = vm.lock();
        assert!(!vm.heap().contains(y));
        assert_eq!(vm.heap().get(x).unwrap(), &original);
        assert_eq!(vm.heap().instances_of(HELPER), 0);
    }

    #[test]
    fn a_relay_delivery_of_a_live_id_is_refused_and_stays_retryable() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables.clone());
        let live = ObjectId::client(820);
        let deliver = |txn, objects| Request::RelayDeliver {
            txn,
            queued_for_ms: 0,
            objects,
        };
        dispatcher
            .dispatch(deliver(
                1,
                vec![(live, aide_vm::ObjectRecord::new(WORKER, 10, 0))],
            ))
            .unwrap();
        let before = ledger(&surrogate, &tables);
        let fresh = ObjectId::client(821);
        let record = aide_vm::ObjectRecord::new(WORKER, 40, 0);
        let err = dispatcher
            .dispatch(deliver(
                2,
                vec![(fresh, record.clone()), (live, record.clone())],
            ))
            .unwrap_err();
        assert!(err.contains("already in use"), "got: {err}");
        assert_eq!(ledger(&surrogate, &tables), before);
        // The refused transaction was not marked delivered: a corrected
        // redelivery installs.
        dispatcher
            .dispatch(deliver(2, vec![(fresh, record)]))
            .unwrap();
        assert!(surrogate.vm().lock().heap().contains(fresh));
    }

    #[test]
    fn a_peer_id_far_beyond_the_heaps_ids_is_refused() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables.clone());
        let before = ledger(&surrogate, &tables);
        let far = ObjectId::client(1 << 62);
        dispatcher
            .dispatch(Request::MigratePrepare {
                txn: 9,
                objects: vec![(far, aide_vm::ObjectRecord::new(WORKER, 10, 0))],
            })
            .unwrap();
        let err = dispatcher
            .dispatch(Request::MigrateCommit { txn: 9 })
            .unwrap_err();
        assert!(err.contains("beyond"), "got: {err}");
        assert_eq!(ledger(&surrogate, &tables), before);
        assert!(!surrogate.vm().lock().heap().contains(far));
    }

    #[test]
    fn prepare_refuses_to_overstage_the_heap() {
        let (_client, surrogate, _cep, _sep) = machine_pair();
        let tables = Arc::new(RefTables::new());
        let dispatcher = VmDispatcher::new(surrogate.clone(), tables);
        let free = surrogate.vm().lock().heap().free_bytes();
        // Two prepares that together exceed the heap: the second must be
        // refused even though each alone would fit.
        let big = u32::try_from(free * 2 / 3).unwrap();
        dispatcher
            .dispatch(Request::MigratePrepare {
                txn: 3,
                objects: vec![(
                    ObjectId::client(700),
                    aide_vm::ObjectRecord::new(ClassId(1), big, 0),
                )],
            })
            .unwrap();
        let err = dispatcher
            .dispatch(Request::MigratePrepare {
                txn: 4,
                objects: vec![(
                    ObjectId::client(701),
                    aide_vm::ObjectRecord::new(ClassId(1), big, 0),
                )],
            })
            .unwrap_err();
        assert!(err.contains("cannot stage"), "got: {err}");
    }
}
