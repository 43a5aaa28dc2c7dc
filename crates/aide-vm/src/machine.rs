//! The virtual machine state and the re-entrant interpreter.
//!
//! A [`Vm`] owns a heap, a garbage collector, the interpreter's execution
//! states, and a virtual CPU clock. The [`Machine`] drives interpretation of
//! a [`Program`] over a shared `Arc<Mutex<Vm>>`: each burst of instructions
//! locks the VM briefly, so worker threads serving remote invocations (the
//! paper's "pool of threads to perform RPCs on behalf of the other JVM") can
//! interleave with a mutator blocked on a remote call without deadlocking.
//!
//! Remote execution is abstracted behind the [`RemoteAccess`] trait: when
//! the interpreter touches an object that is not in the local heap, it
//! forwards the operation through `RemoteAccess` — the distributed platform
//! implements this with real RPC messages, and a stand-alone VM runs with no
//! remote at all (any cross-VM touch is then a dangling reference).
//!
//! Method bodies run on a register VM: compiled once to the contiguous IR
//! of [`crate::flat`], executed in bursts over one contiguous value stack
//! with `{ base, ip }` frame windows, with per-site inline caches for the
//! local-vs-remote reference check and hook events queued in
//! [`PendingEvents`] for delivery between bursts. Where a burst is cut
//! changes nothing observable: the hooks see every event in program order,
//! each before anything the op after it does outside the burst, and the
//! clock is charged op by op in program order. A sink that
//! [accumulates](RuntimeHooks::accumulates) is told sums instead: hits are
//! counted in the inline-cache entries and `Work` per class, and queued
//! only where something could read the sink. The VM's tests hold the event
//! stream and [`RunSummary`] of a fixed set of programs to committed
//! verdicts (`tests/fixtures/verdicts/`).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use aide_telemetry::sync::Mutex;
use serde::{Deserialize, Serialize};

use crate::error::{VmError, VmResult};
use crate::flat::{FlatOp, FlatProgram, UNRESOLVED};
use crate::gc::{Collector, GcConfig, GcReport};
use crate::heap::{Heap, ObjectRecord};
use crate::hooks::{
    Interaction, InteractionKind, NullHooks, PendingEvent, PendingEvents, RuntimeHooks,
};
use crate::ids::{ClassId, MethodId, ObjectId, Reg};
use crate::natives::{native_requires_client, NativeKind};
use crate::program::Program;

/// Which role a VM plays in the distributed platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VmKind {
    /// The resource-constrained client device (owns natives and statics).
    Client,
    /// The surrogate server.
    Surrogate,
}

/// Virtual CPU cost model, in client-speed microseconds.
///
/// The costs are charged to the executing VM's clock, divided by its speed
/// factor. `monitor_event_micros` models the per-event cost of execution
/// monitoring (the paper measured an 11% slowdown for JavaNote with
/// monitoring on).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Overhead per method invocation.
    pub invoke_micros: f64,
    /// Overhead per data-field access.
    pub field_access_micros: f64,
    /// Overhead per object allocation.
    pub alloc_micros: f64,
    /// Base overhead per native invocation (plus the native's own work).
    pub native_base_micros: f64,
    /// Overhead per static-data access.
    pub static_access_micros: f64,
    /// Extra cost charged per monitoring event when monitoring is enabled.
    pub monitor_event_micros: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            invoke_micros: 0.5,
            field_access_micros: 0.2,
            alloc_micros: 1.0,
            native_base_micros: 1.0,
            static_access_micros: 0.2,
            monitor_event_micros: 0.0,
        }
    }
}

/// Configuration of one VM instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmConfig {
    /// Role of this VM.
    pub kind: VmKind,
    /// Heap capacity in bytes.
    pub heap_capacity: u64,
    /// CPU speed relative to the client device (client = 1.0; the paper's
    /// surrogate is 3.5).
    pub speed_factor: f64,
    /// Garbage-collector triggers.
    pub gc: GcConfig,
    /// Virtual CPU cost model.
    pub cost: CostModel,
    /// When `true`, stateless natives (math, string ops) execute on the
    /// device where they are invoked — the paper's §5.2 "Native"
    /// enhancement. When `false`, every native runs on the client.
    pub stateless_natives_local: bool,
}

impl VmConfig {
    /// A client VM with the given heap capacity and defaults otherwise.
    pub fn client(heap_capacity: u64) -> Self {
        VmConfig {
            kind: VmKind::Client,
            heap_capacity,
            speed_factor: 1.0,
            gc: GcConfig::default(),
            cost: CostModel::default(),
            stateless_natives_local: false,
        }
    }

    /// A surrogate VM with the given heap capacity, running at the paper's
    /// measured 3.5× client speed.
    pub fn surrogate(heap_capacity: u64) -> Self {
        VmConfig {
            kind: VmKind::Surrogate,
            heap_capacity,
            speed_factor: 3.5,
            gc: GcConfig::default(),
            cost: CostModel::default(),
            stateless_natives_local: false,
        }
    }
}

/// An interpreter frame: a fixed [`Reg::COUNT`]-register *window* into
/// its [`ExecState`]'s contiguous value stack, plus the resume point.
/// `Copy`, 32 bytes — pushing a call allocates nothing beyond bumping the
/// shared stacks.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// First value-stack index of this frame's register window.
    base: u32,
    /// Next instruction index into the flat code stream.
    ip: u32,
    /// Class of the executing method (interaction attribution).
    class: ClassId,
    /// The executing method (for `MethodExit` events).
    method: MethodId,
    /// Receiver (`None` in static methods).
    self_obj: Option<ObjectId>,
    /// Loop-counter stack depth at entry; `Return` truncates back to it.
    loop_base: u32,
}

/// One logical thread of execution. States live in [`Vm::exec_states`]
/// (not on the host stack) so the collector sees every register of every
/// in-flight run as a root. A finished run leaves its emptied state in the
/// table, so the next run on that slot reuses all four buffers.
#[derive(Debug, Default)]
struct ExecState {
    /// Contiguous value stack; each frame owns an 8-register window.
    values: Vec<Option<ObjectId>>,
    /// Call stack of frame windows.
    frames: Vec<Frame>,
    /// Active `Loop` iteration counters, innermost last.
    loops: Vec<u32>,
    /// The slot's hook-event queue, parked here between runs; the running
    /// `run_flat` holds it, because it flushes with the VM unlocked.
    pending: PendingEvents,
}

/// One inline-cache entry: the last object seen at a flat-IR site, the
/// class it resolved to, and the heap locality epoch the answer was cached
/// under. A monomorphic site's local-vs-remote check is then a single
/// compare-and-branch; any migration bumps the epoch and implicitly
/// flushes every site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IcEntry {
    target: ObjectId,
    class: ClassId,
    /// Hits on `target` an accumulating sink is owed, in the low 31 bits;
    /// [`LISTED`] while the site is on [`Tallies::sites`]. Zero when the
    /// sink does not accumulate. It survives an epoch bump: the next fill
    /// queues it before it replaces `target`.
    hits: u32,
    epoch: u64,
}

impl IcEntry {
    /// An entry that can never hit: `u64::MAX` is an unreachable epoch
    /// (the heap's counter starts at zero and increments by one).
    const INVALID: IcEntry = IcEntry {
        target: ObjectId(0),
        class: ClassId(0),
        hits: 0,
        epoch: u64::MAX,
    };

    /// The hits counted since the entry last queued them.
    #[inline]
    fn owed(self) -> u32 {
        self.hits & !LISTED
    }
}

/// [`IcEntry::hits`]'s flag: the site is on [`Tallies::sites`].
const LISTED: u32 = 1 << 31;

/// One class's `Work` as an accumulating sink is told it.
#[derive(Debug, Clone, Copy, Default)]
struct ClassWork {
    /// A `Work` of the class was queued on this VM: the sink has seen it.
    seen: bool,
    /// The class is on [`Tallies::classes`] (`micros` may still be zero).
    owed: bool,
    /// Microseconds since the class's `Work` was last queued. Every `Work`
    /// op carries a `u32`, so the sum is an integer and so is its `f64`.
    micros: u64,
}

/// What the interpreter owes a sink that accumulates
/// ([`RuntimeHooks::accumulates`]) and has not queued yet: the hits counted
/// in the inline-cache entries of `sites`, and the `Work` of `classes`.
/// Wherever something could read the sink, `Machine::settle` delivers it
/// all, [`Tallies::settle`] queueing a bounded part at a time and walking
/// only what is owed.
#[derive(Debug, Default)]
struct Tallies {
    /// Sites whose entry carries [`LISTED`], each once.
    sites: Vec<u32>,
    /// Indexed by [`ClassId`].
    work: Vec<ClassWork>,
    /// Classes whose [`ClassWork::owed`] is set, each once.
    classes: Vec<u32>,
}

impl Tallies {
    /// Queues what [`SETTLE_SITES`] of the owed sites owe, as one
    /// [`PendingEvent::Counted`] per site with hits, and once no site is
    /// left, one summed [`PendingEvent::Work`] per class. Returns whether
    /// anything is still owed.
    fn settle(
        &mut self,
        ic: &mut [IcEntry],
        flat: &FlatProgram,
        pending: &mut PendingEvents,
    ) -> bool {
        let from = self.sites.len().saturating_sub(SETTLE_SITES);
        for site in self.sites.drain(from..) {
            let entry = &mut ic[site as usize];
            if entry.owed() > 0 {
                pending.push(counted(flat, site, *entry));
            }
            entry.hits = 0;
        }
        if !self.sites.is_empty() {
            return true;
        }
        for class in self.classes.drain(..) {
            let work = &mut self.work[class as usize];
            pending.push(PendingEvent::Work {
                class: ClassId(class),
                micros: work.micros as f64,
            });
            work.micros = 0;
            work.owed = false;
        }
        false
    }
}

/// Sites one settle queues at most. JavaNote owes ~1 900 at a collection;
/// one queue of them all (48 B an event) cost ~2 % of `local_mutator`'s
/// peak resident memory.
const SETTLE_SITES: usize = 256;

/// The hits `entry` owes at `site`, as one event.
#[inline]
fn counted(flat: &FlatProgram, site: u32, entry: IcEntry) -> PendingEvent {
    PendingEvent::Counted {
        interaction: flat.site_interaction(site, entry.target, entry.class),
        count: entry.owed(),
    }
}

/// Ops executed per VM-lock acquisition by the flat interpreter. Large
/// enough to amortise the lock, small enough that RPC worker threads
/// serving the peer never starve.
const BURST_OPS: u32 = 128;

/// Why a flat-interpreter burst returned control to the (unlocked) driver.
#[derive(Debug, Clone, Copy)]
enum Exit {
    /// The entry frame returned; the run is complete.
    Done,
    /// Burst budget exhausted, or a `Work` op whose `on_work` the hooks
    /// asked to see before the next op.
    Yield,
    /// An `Op::New` needs the allocation/GC path (which takes its own
    /// locks and emits its own hooks).
    Alloc {
        class: ClassId,
        scalar_bytes: u32,
        ref_slots: u16,
        dst: u8,
    },
    /// A dynamic call's receiver is not local: forward through
    /// [`RemoteAccess::invoke`].
    Invoke {
        call: u32,
        target: ObjectId,
        args: [ObjectId; Reg::COUNT],
        n_args: u8,
    },
    /// A field access on a non-local object.
    Field {
        caller: ClassId,
        target: ObjectId,
        bytes: u32,
        write: bool,
    },
    /// `GetSlot` on a receiver that migrated away mid-method.
    SlotGet {
        target: ObjectId,
        slot: u16,
        dst: u8,
    },
    /// `PutSlot` on a receiver that migrated away mid-method.
    SlotPut {
        target: ObjectId,
        slot: u16,
        value: Option<ObjectId>,
    },
    /// `GetSlotOf` on a non-local object.
    SlotGetOf {
        caller: ClassId,
        target: ObjectId,
        slot: u16,
        dst: u8,
    },
    /// `PutSlotOf` on a non-local object.
    SlotPutOf {
        caller: ClassId,
        target: ObjectId,
        slot: u16,
        value: Option<ObjectId>,
    },
    /// A client-bound native invoked on the surrogate.
    NativeCall {
        caller: ClassId,
        kind: NativeKind,
        work_micros: u32,
        arg_bytes: u32,
        ret_bytes: u32,
    },
    /// A static-data access from the surrogate.
    StaticAccess {
        accessor: ClassId,
        class: ClassId,
        bytes: u32,
        write: bool,
    },
}

/// Lifetime audit of external-root pin/unpin traffic on one VM.
///
/// Distributed GC is balanced when every pin is matched by exactly one
/// unpin: `unbalanced_unpins` counts unpins of ids with no live pin — the
/// observable signature of a double-released export — and must stay zero
/// in a correct run. The leak soak asserts on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExternalRootAudit {
    /// Total external-root pins taken over the VM's lifetime.
    pub pins: u64,
    /// Total external-root references released.
    pub unpins: u64,
    /// Unpins naming an object with no live pin (double-release signal).
    pub unbalanced_unpins: u64,
}

/// The process-wide count of unbalanced unpins: the double-release signal
/// summed over every VM, for a run that cannot hold each VM it ran.
fn audit_metrics() -> &'static Arc<aide_telemetry::Counter> {
    static UNBALANCED: std::sync::OnceLock<Arc<aide_telemetry::Counter>> =
        std::sync::OnceLock::new();
    UNBALANCED.get_or_init(|| {
        aide_telemetry::global().counter(aide_telemetry::names::VM_UNPIN_UNBALANCED)
    })
}

/// How many reference-slot writes a VM has made, over its lifetime. Only
/// the machine's `write_slot` advances it, always under the VM lock, so the
/// advance is a plain load and store; anyone may read it without the lock —
/// a peer that remembers what it read of this VM's objects is told this
/// number with every frame, and forgets when it has moved.
#[derive(Debug, Default)]
pub struct SlotWrites(AtomicU64);

impl SlotWrites {
    /// The count so far. Pairs with the `Release` store in `write_slot`:
    /// whoever reads a count has the writes it counts behind it.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// The mutable state of one virtual machine.
#[derive(Debug)]
pub struct Vm {
    config: VmConfig,
    program: Arc<Program>,
    /// Lazily compiled flat IR, shared by every flat run over this VM.
    flat: Option<Arc<FlatProgram>>,
    /// The virtual CPU seconds each op of `flat`'s code charges on this
    /// VM when its charge is fixed by the op alone — a `Work`'s, a local
    /// `Native`'s, a `CallLeaf`'s callee `Work` (beside its invoke charge)
    /// — and 0 for any other op. Computed with `flat`.
    op_seconds: Vec<f64>,
    heap: Heap,
    gc: Collector,
    next_object: u64,
    /// Flat-interpreter execution states, indexed by the slot a run holds,
    /// so the collector can enumerate their registers as roots.
    exec_states: Vec<ExecState>,
    /// Slots of `exec_states` no run holds (their states are empty).
    free_states: Vec<usize>,
    /// Inline-cache table, one entry per flat-IR cache site.
    ic: Vec<IcEntry>,
    /// Events an accumulating sink is owed but not yet queued.
    tallies: Tallies,
    ic_hits: u64,
    ic_misses: u64,
    external_roots: HashMap<ObjectId, u32>,
    root_audit: ExternalRootAudit,
    /// Virtual CPU spent in the interpreter loop proper (the mutator).
    mutator_seconds: f64,
    /// Virtual CPU spent emitting monitor events (the instrumentation tax,
    /// reported separately so fig6-style overhead numbers stay honest).
    hook_seconds: f64,
    /// Logical (program-visible) ops executed; the loop/return control ops
    /// the flat compiler inserts are not counted.
    ops_executed: u64,
    statics_accesses: u64,
    slot_writes: Arc<SlotWrites>,
}

impl Vm {
    /// Creates a VM for `program` with the given configuration.
    pub fn new(program: Arc<Program>, config: VmConfig) -> Self {
        Vm {
            heap: Heap::new(config.heap_capacity),
            gc: Collector::new(config.gc),
            config,
            program,
            flat: None,
            op_seconds: Vec::new(),
            next_object: 0,
            exec_states: Vec::new(),
            free_states: Vec::new(),
            ic: Vec::new(),
            tallies: Tallies::default(),
            ic_hits: 0,
            ic_misses: 0,
            external_roots: HashMap::new(),
            root_audit: ExternalRootAudit::default(),
            mutator_seconds: 0.0,
            hook_seconds: 0.0,
            ops_executed: 0,
            statics_accesses: 0,
            slot_writes: Arc::default(),
        }
    }

    /// This VM's count of slot writes, for whoever stamps it on the frames
    /// the VM's side sends.
    pub fn slot_writes(&self) -> &Arc<SlotWrites> {
        &self.slot_writes
    }

    /// The VM's configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The program this VM executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The VM's heap.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable access to the heap (used by the offloading machinery to
    /// migrate objects).
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// The garbage collector.
    pub fn collector(&self) -> &Collector {
        &self.gc
    }

    /// Virtual CPU seconds consumed by this VM so far: interpreter loop
    /// plus monitor-event emission. See [`Vm::mutator_seconds`] and
    /// [`Vm::hook_seconds`] for the split.
    pub fn cpu_seconds(&self) -> f64 {
        self.mutator_seconds + self.hook_seconds
    }

    /// Virtual CPU seconds spent in the interpreter loop proper (op costs,
    /// natives, GC pauses) — excludes instrumentation.
    pub fn mutator_seconds(&self) -> f64 {
        self.mutator_seconds
    }

    /// Virtual CPU seconds spent emitting monitor events (zero when
    /// `monitor_event_micros` is zero).
    pub fn hook_seconds(&self) -> f64 {
        self.hook_seconds
    }

    /// Logical ops executed by this VM across all runs: the program's own
    /// ops, once per execution (a `Repeat` counts its body, not itself;
    /// the flat IR's `Loop`/`EndLoop`/`Return` are not counted).
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// `(hits, misses)` of the interpreter's inline caches.
    pub fn ic_stats(&self) -> (u64, u64) {
        (self.ic_hits, self.ic_misses)
    }

    /// Number of static-data accesses served by this VM.
    pub fn statics_accesses(&self) -> u64 {
        self.statics_accesses
    }

    /// Advances the virtual CPU clock by `micros` of client-speed mutator
    /// work, scaled by this VM's speed factor.
    pub fn charge_micros(&mut self, micros: f64) {
        self.mutator_seconds += micros / 1e6 / self.config.speed_factor;
    }

    /// Advances the virtual CPU clock by `micros` of client-speed
    /// monitor-emission work, scaled by this VM's speed factor.
    pub fn charge_hook_micros(&mut self, micros: f64) {
        self.hook_seconds += micros / 1e6 / self.config.speed_factor;
    }

    /// Performs a field access on a local object on behalf of a peer. This
    /// and the five methods after it are the peer-serving operations that
    /// touch one heap record and never re-enter the interpreter, so whoever
    /// serves one needs nothing but the VM lock (which the caller holds).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `target` is not local.
    pub fn field_access_on(&mut self, target: ObjectId, _bytes: u32, _write: bool) -> VmResult<()> {
        self.heap.get(target)?;
        let cost = self.config.cost.field_access_micros;
        self.charge_micros(cost);
        Ok(())
    }

    /// Reads a reference slot of a local object on behalf of a peer.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] or [`VmError::SlotOutOfRange`].
    pub fn get_slot_on(&self, target: ObjectId, slot: u16) -> VmResult<Option<ObjectId>> {
        let rec = self.heap.get(target)?;
        Ok(*slot_ref(rec, target, slot)?)
    }

    /// Writes a reference slot of a local object on behalf of a peer.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] or [`VmError::SlotOutOfRange`].
    pub fn put_slot_on(
        &mut self,
        target: ObjectId,
        slot: u16,
        value: Option<ObjectId>,
    ) -> VmResult<()> {
        let rec = self.heap.get_mut(target)?;
        write_slot(&self.slot_writes, rec, target, slot, value)
    }

    /// Runs a client-bound native on behalf of a peer: charges its work.
    pub fn native_on(&mut self, work_micros: u32) {
        let cost = self.config.cost.native_base_micros + f64::from(work_micros);
        self.charge_micros(cost);
    }

    /// Serves a static-data access on behalf of a peer.
    pub fn static_access_on(&mut self, _class: ClassId, _bytes: u32, _write: bool) {
        let cost = self.config.cost.static_access_micros;
        self.charge_micros(cost);
        self.statics_accesses += 1;
    }

    /// The class of a local object, for peers resolving references.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `target` is not local.
    pub fn class_of_local(&self, target: ObjectId) -> VmResult<ClassId> {
        Ok(self.heap.get(target)?.class)
    }

    /// The program compiled to flat IR — shared with the other VMs running
    /// the same [`Program`] — with this VM's cost of each op worked out on
    /// first use.
    pub fn flat_program(&mut self) -> Arc<FlatProgram> {
        if let Some(f) = &self.flat {
            return f.clone();
        }
        let f = self.program.flat();
        let speed = self.config.speed_factor;
        let native_base = self.config.cost.native_base_micros;
        self.op_seconds = f
            .code()
            .iter()
            .map(|op| match *op {
                FlatOp::Work { micros } | FlatOp::CallLeaf { micros, .. } => {
                    micros as f64 / 1e6 / speed
                }
                FlatOp::Native { work_micros, .. } => {
                    (native_base + work_micros as f64) / 1e6 / speed
                }
                _ => 0.0,
            })
            .collect();
        self.flat = Some(f.clone());
        f
    }

    /// Mints a fresh object id on this VM's side.
    fn mint_object_id(&mut self) -> ObjectId {
        let n = self.next_object;
        self.next_object += 1;
        match self.config.kind {
            VmKind::Client => ObjectId::client(n),
            VmKind::Surrogate => ObjectId::surrogate(n),
        }
    }

    /// Pins `id` as an external root (a peer VM holds a reference to it).
    /// Counts are reference counts: pin twice, unpin twice.
    pub fn external_root_inc(&mut self, id: ObjectId) {
        *self.external_roots.entry(id).or_insert(0) += 1;
        self.root_audit.pins += 1;
    }

    /// Releases one external-root reference to `id`. An unpin of an id
    /// with no live pin is tolerated (distributed GC may race a sweep
    /// against a release) but audited as unbalanced — see
    /// [`Vm::external_root_audit`].
    pub fn external_root_dec(&mut self, id: ObjectId) {
        if let Some(n) = self.external_roots.get_mut(&id) {
            *n -= 1;
            if *n == 0 {
                self.external_roots.remove(&id);
            }
            self.root_audit.unpins += 1;
        } else {
            self.root_audit.unbalanced_unpins += 1;
            audit_metrics().inc();
        }
    }

    /// Number of distinct externally rooted objects.
    pub fn external_root_count(&self) -> usize {
        self.external_roots.len()
    }

    /// The pin/unpin audit for this VM: totals plus the unbalanced-unpin
    /// count that must stay zero when distributed GC is correct.
    pub fn external_root_audit(&self) -> ExternalRootAudit {
        self.root_audit
    }

    fn roots(&self) -> Vec<ObjectId> {
        let mut roots: Vec<ObjectId> = Vec::new();
        // Every live register window plus every frame's receiver. States
        // stay in this table for the whole run, so a collection triggered
        // from the allocation path between bursts sees every register of
        // every in-flight frame (a slot no run holds is empty and
        // contributes none).
        for s in &self.exec_states {
            for f in &s.frames {
                roots.extend(f.self_obj);
            }
            roots.extend(s.values.iter().flatten().copied());
        }
        roots
    }

    /// All object ids currently reachable from mutator roots (frame
    /// receivers and registers). Used by distributed GC to keep remote
    /// objects referenced only from registers pinned on the peer.
    pub fn root_refs(&self) -> Vec<ObjectId> {
        self.roots()
    }

    /// Runs a full collection cycle now, returning its report.
    pub fn collect_now(&mut self) -> GcReport {
        let roots = self.roots();
        let externals: Vec<ObjectId> = self.external_roots.keys().copied().collect();
        self.gc.collect(&mut self.heap, roots, externals)
    }

    /// `(objects, bytes)` freed per class by the most recent collection,
    /// in class-id order (deterministic free-event emission).
    pub fn last_freed_by_class(&self) -> BTreeMap<ClassId, (u64, u64)> {
        self.gc.last_freed_by_class().clone()
    }

    /// Queues onto `pending` part of what an accumulating sink is owed
    /// ([`Tallies::settle`]), returning whether more is owed; nothing when
    /// no run has compiled the program.
    fn settle_tallies(&mut self, pending: &mut PendingEvents) -> bool {
        match &self.flat {
            Some(flat) => self.tallies.settle(&mut self.ic, flat, pending),
            None => false,
        }
    }
}

/// Access to the peer VM, implemented by the distributed platform's RPC
/// layer. A stand-alone VM runs without one.
pub trait RemoteAccess: Send + Sync {
    /// Invokes `method` on the remote object `target`, passing `args` by
    /// reference, and blocks until the invocation completes.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::RemoteFailure`] if the peer is unreachable, plus
    /// any error the remote execution itself produced.
    fn invoke(
        &self,
        target: ObjectId,
        class: ClassId,
        method: MethodId,
        arg_bytes: u32,
        ret_bytes: u32,
        args: &[ObjectId],
    ) -> VmResult<()>;

    /// Reads or writes `bytes` of scalar data on the remote object.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::RemoteFailure`] or the remote-side error.
    fn field_access(&self, target: ObjectId, bytes: u32, write: bool) -> VmResult<()>;

    /// Reads a reference slot of a remote object.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::RemoteFailure`] or the remote-side error.
    fn get_slot(&self, target: ObjectId, slot: u16) -> VmResult<Option<ObjectId>>;

    /// Writes a reference slot of a remote object.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::RemoteFailure`] or the remote-side error.
    fn put_slot(&self, target: ObjectId, slot: u16, value: Option<ObjectId>) -> VmResult<()>;

    /// Executes a client-bound native on the peer (always the client).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::RemoteFailure`] or the remote-side error.
    fn native(
        &self,
        caller: ClassId,
        kind: NativeKind,
        work_micros: u32,
        arg_bytes: u32,
        ret_bytes: u32,
    ) -> VmResult<()>;

    /// Accesses static data of `class` on the client from the surrogate.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::RemoteFailure`] or the remote-side error.
    fn static_access(
        &self,
        accessor: ClassId,
        class: ClassId,
        bytes: u32,
        write: bool,
    ) -> VmResult<()>;

    /// The class of a remote object.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if the peer does not hold it.
    fn class_of(&self, target: ObjectId) -> VmResult<ClassId>;

    /// Waits until every touch the peer has not answered yet — one whose
    /// reply carries nothing may be sent without waiting for it — has been
    /// served. A run is over only once this returns. The default has
    /// nothing outstanding.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::RemoteFailure`] or the error of a touch that
    /// failed.
    fn flush(&self) -> VmResult<()> {
        Ok(())
    }
}

/// Summary of a completed program run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Virtual CPU seconds consumed on this VM (mutator plus hook time).
    pub cpu_seconds: f64,
    /// Completed garbage-collection cycles.
    pub gc_cycles: u64,
    /// Objects allocated over the run.
    pub objects_allocated: u64,
    /// Live objects at exit.
    pub objects_live: u64,
    /// Heap bytes in use at exit.
    pub heap_used: u64,
    /// Virtual CPU seconds spent in the interpreter loop proper.
    #[serde(default)]
    pub mutator_seconds: f64,
    /// Virtual CPU seconds spent emitting monitor events (the
    /// instrumentation tax, separated out of the mutator clock).
    #[serde(default)]
    pub hook_seconds: f64,
    /// Logical ops executed (see [`Vm::ops_executed`]).
    #[serde(default)]
    pub ops_executed: u64,
}

/// The interpreter: executes program methods against a shared [`Vm`].
///
/// Cloning a `Machine` is cheap; clones share the same VM, hooks, and
/// remote-access handle, which is how RPC worker threads re-enter the
/// interpreter to serve peer requests.
#[derive(Clone)]
pub struct Machine {
    vm: Arc<Mutex<Vm>>,
    hooks: Arc<dyn RuntimeHooks>,
    /// Weak: the peer connection holds this machine in turn (it serves the
    /// peer's touches on it), so whoever wired the two owns the connection
    /// and ends it by dropping it.
    remote: Arc<OnceLock<Weak<dyn RemoteAccess>>>,
    max_depth: usize,
    /// [`RuntimeHooks::needs_work_boundary`] of `hooks`, asked once here.
    yield_on_work: bool,
    /// [`RuntimeHooks::accumulates`] of `hooks`, asked once here.
    tally: bool,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("max_depth", &self.max_depth)
            .field("has_remote", &self.remote().is_some())
            .finish()
    }
}

impl Machine {
    /// Default maximum call depth: the frames one run may stack up.
    pub const DEFAULT_MAX_DEPTH: usize = 64;

    /// Creates a machine over a fresh VM with no instrumentation and no
    /// peer.
    pub fn new(program: Arc<Program>, config: VmConfig) -> Self {
        Machine::with_parts(
            Arc::new(Mutex::new(Vm::new(program, config))),
            Arc::new(NullHooks),
            None,
        )
    }

    /// Creates a machine over a fresh VM with the given instrumentation.
    pub fn with_hooks(
        program: Arc<Program>,
        config: VmConfig,
        hooks: Arc<dyn RuntimeHooks>,
    ) -> Self {
        Machine::with_parts(Arc::new(Mutex::new(Vm::new(program, config))), hooks, None)
    }

    /// Creates a machine from explicit parts (shared VM, hooks, peer —
    /// held as [`Machine::set_remote`] holds it).
    pub fn with_parts(
        vm: Arc<Mutex<Vm>>,
        hooks: Arc<dyn RuntimeHooks>,
        remote: Option<&Arc<dyn RemoteAccess>>,
    ) -> Self {
        let machine = Machine {
            vm,
            yield_on_work: hooks.needs_work_boundary(),
            tally: hooks.accumulates(),
            hooks,
            remote: Arc::new(OnceLock::new()),
            max_depth: Self::DEFAULT_MAX_DEPTH,
        };
        if let Some(remote) = remote {
            machine.set_remote(remote);
        }
        machine
    }

    /// Wires the peer connection after construction (the RPC layer needs
    /// the machine to build its dispatcher, so the dependency is cyclic).
    ///
    /// The machine does not keep `remote` alive — the caller does, for as
    /// long as the machine may touch remote objects. Once the caller drops
    /// it, a remote touch is a dangling reference again and everything the
    /// connection held (this machine included) is free to go.
    ///
    /// # Panics
    ///
    /// Panics if a remote was already set.
    pub fn set_remote(&self, remote: &Arc<dyn RemoteAccess>) {
        self.remote
            .set(Arc::downgrade(remote))
            .expect("machine remote already set");
    }

    /// The peer connection, while its owner keeps it.
    fn remote(&self) -> Option<Arc<dyn RemoteAccess>> {
        self.remote.get().and_then(Weak::upgrade)
    }

    /// The shared VM handle.
    pub fn vm(&self) -> &Arc<Mutex<Vm>> {
        &self.vm
    }

    /// The instrumentation hooks.
    pub fn hooks(&self) -> &Arc<dyn RuntimeHooks> {
        &self.hooks
    }

    /// Replaces the maximum call depth.
    pub fn set_max_depth(&mut self, depth: usize) {
        self.max_depth = depth;
    }

    /// Runs the program's entry method to completion on this VM.
    ///
    /// # Errors
    ///
    /// Propagates any [`VmError`] raised during execution — notably
    /// [`VmError::OutOfMemory`] when the heap is exhausted and neither
    /// collection nor offloading freed enough space — or by the last
    /// [`RemoteAccess::flush`].
    pub fn run_entry(&self) -> VmResult<RunSummary> {
        let entry = self.vm.lock().program.entry();
        let entry_obj = self.alloc_object(entry.class, entry.scalar_bytes, entry.ref_slots)?;
        self.run_flat(Some(entry_obj), entry.class, entry.method, &[])?;
        self.flush_remote()?;
        let vm = self.vm.lock();
        Ok(RunSummary {
            cpu_seconds: vm.cpu_seconds(),
            gc_cycles: vm.gc.cycles(),
            objects_allocated: vm.heap.stats().total_allocated,
            objects_live: vm.heap.stats().live_objects,
            heap_used: vm.heap.stats().used_bytes,
            mutator_seconds: vm.mutator_seconds,
            hook_seconds: vm.hook_seconds,
            ops_executed: vm.ops_executed,
        })
    }

    /// Waits until the peer has served everything deferred to it
    /// ([`RemoteAccess::flush`]); nothing to wait for without a peer.
    ///
    /// # Errors
    ///
    /// The failure of the flush or of a touch it sent.
    pub fn flush_remote(&self) -> VmResult<()> {
        match self.remote() {
            Some(remote) => remote.flush(),
            None => Ok(()),
        }
    }

    /// Executes `method` of `class` on the local object `target` (used by
    /// RPC dispatchers serving a peer's invocation).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `target` is not local, or
    /// any execution error.
    pub fn call_on(
        &self,
        target: ObjectId,
        class: ClassId,
        method: MethodId,
        args: &[ObjectId],
    ) -> VmResult<()> {
        self.run_flat(Some(target), class, method, args)
    }

    /// Performs a local field access on behalf of a peer
    /// ([`Vm::field_access_on`] under this machine's lock, as the other
    /// `*_on` methods are their [`Vm`] namesakes).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `target` is not local.
    pub fn field_access_on(&self, target: ObjectId, bytes: u32, write: bool) -> VmResult<()> {
        self.vm.lock().field_access_on(target, bytes, write)
    }

    /// Reads a reference slot of a local object on behalf of a peer.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] or [`VmError::SlotOutOfRange`].
    pub fn get_slot_on(&self, target: ObjectId, slot: u16) -> VmResult<Option<ObjectId>> {
        self.vm.lock().get_slot_on(target, slot)
    }

    /// Writes a reference slot of a local object on behalf of a peer.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] or [`VmError::SlotOutOfRange`].
    pub fn put_slot_on(
        &self,
        target: ObjectId,
        slot: u16,
        value: Option<ObjectId>,
    ) -> VmResult<()> {
        self.vm.lock().put_slot_on(target, slot, value)
    }

    /// The class of a local object, for peers resolving references.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `target` is not local.
    pub fn class_of_local(&self, target: ObjectId) -> VmResult<ClassId> {
        self.vm.lock().class_of_local(target)
    }

    // ---- internal interpretation ------------------------------------------------

    /// Allocates an object, collecting (and reporting) as needed.
    fn alloc_object(
        &self,
        class: ClassId,
        scalar_bytes: u32,
        ref_slots: u16,
    ) -> VmResult<ObjectId> {
        // Periodic trigger: give the collector (and through its report, the
        // offloading controller) a chance to run at this safe point.
        let periodic = {
            let mut vm = self.vm.lock();
            if vm.gc.should_collect() {
                Some(self.collect_locked(&mut vm))
            } else {
                None
            }
        };
        if let Some(report) = periodic {
            self.emit_gc(&report);
        }

        // Allocation with OOM -> collect -> (hooks may offload) -> retry.
        // The retry budget must exceed the trigger policy's consecutive-
        // report requirement: each failed attempt emits one GC report, and
        // the offloading controller only reacts once the trigger fires.
        const MAX_ATTEMPTS: usize = 8;
        let mut attempts = 0usize;
        loop {
            let outcome = {
                let mut vm = self.vm.lock();
                if vm.heap.fits(scalar_bytes, ref_slots) {
                    let id = vm.mint_object_id();
                    let record = ObjectRecord::new(class, scalar_bytes, ref_slots);
                    let footprint = record.footprint();
                    vm.heap
                        .insert(id, record)
                        .expect("fits() guaranteed capacity");
                    vm.gc.note_alloc(footprint);
                    let cost = vm.config.cost.alloc_micros;
                    vm.charge_micros(cost);
                    Ok((id, footprint))
                } else if attempts < MAX_ATTEMPTS {
                    Err(Some(self.collect_locked(&mut vm)))
                } else {
                    let free = vm.heap.free_bytes();
                    return Err(VmError::OutOfMemory {
                        class,
                        requested: ObjectRecord::footprint_of(scalar_bytes, ref_slots),
                        free,
                    });
                }
            };
            match outcome {
                Ok((id, footprint)) => {
                    self.hooks.on_alloc(class, id, footprint);
                    self.charge_monitor_event();
                    return Ok(id);
                }
                Err(Some(report)) => {
                    attempts += 1;
                    // Hooks run without the VM lock: the offloading
                    // controller may react by migrating objects away.
                    self.emit_gc(&report);
                }
                Err(None) => unreachable!(),
            }
        }
    }

    fn collect_locked(&self, vm: &mut Vm) -> GcReport {
        vm.collect_now()
    }

    fn emit_gc(&self, report: &GcReport) {
        // What an accumulating sink is owed reaches it first: whoever reacts
        // to the collection may read it. Then per-class frees, so node
        // weights shrink.
        self.settle(&mut PendingEvents::new());
        let freed = {
            let vm = self.vm.lock();
            vm.last_freed_by_class()
        };
        for (class, (objects, bytes)) in freed {
            self.hooks.on_free(class, objects, bytes);
        }
        // Charge the GC's own virtual cost.
        {
            let mut vm = self.vm.lock();
            vm.charge_micros(report.duration_micros);
        }
        self.hooks.on_gc(report);
        self.charge_monitor_event();
    }

    /// Delivers everything an accumulating sink is owed through `pending`,
    /// a bounded part at a time.
    fn settle(&self, pending: &mut PendingEvents) {
        loop {
            let more = self.vm.lock().settle_tallies(pending);
            pending.flush(self.hooks.as_ref());
            if !more {
                return;
            }
        }
    }

    fn charge_monitor_event(&self) {
        let mut vm = self.vm.lock();
        let cost = vm.config.cost.monitor_event_micros;
        if cost > 0.0 {
            vm.charge_hook_micros(cost);
        }
    }

    fn class_of(&self, id: ObjectId) -> VmResult<ClassId> {
        match self.local_class_of(id) {
            Some(class) => Ok(class),
            None => match self.remote() {
                Some(r) => r.class_of(id),
                None => Err(VmError::DanglingReference(id)),
            },
        }
    }

    /// The class of `id` if it lives in this VM's heap.
    fn local_class_of(&self, id: ObjectId) -> Option<ClassId> {
        self.vm.lock().heap.get(id).ok().map(|rec| rec.class)
    }

    fn record_interaction(
        &self,
        caller: ClassId,
        callee: ClassId,
        target: Option<ObjectId>,
        kind: InteractionKind,
        bytes: u64,
        remote: bool,
    ) {
        self.hooks.on_interaction(Interaction {
            caller,
            callee,
            target,
            kind,
            bytes,
            remote,
        });
        self.charge_monitor_event();
    }

    // ---- flat-IR interpretation -------------------------------------------------

    /// Runs `(class, method)` on `self_obj` to completion: sets up an
    /// [`ExecState`] in the VM (so its registers are GC roots), drives
    /// bursts, and tears the state down.
    fn run_flat(
        &self,
        self_obj: Option<ObjectId>,
        class: ClassId,
        method: MethodId,
        args: &[ObjectId],
    ) -> VmResult<()> {
        if self.max_depth == 0 {
            return Err(VmError::CallDepthExceeded(0));
        }
        let (flat, sid, mut pending) = {
            let mut vm = self.vm.lock();
            let flat = vm.flat_program();
            let sites = flat.site_count() as usize;
            if vm.ic.len() < sites {
                vm.ic.resize(sites, IcEntry::INVALID);
            }
            let classes = vm.program.classes().len();
            if vm.tallies.work.len() < classes {
                vm.tallies.work.resize(classes, ClassWork::default());
            }
            if let Some(obj) = self_obj {
                let found = vm.heap.get(obj)?.class;
                if found != class {
                    return Err(VmError::ClassMismatch {
                        expected: class,
                        found,
                    });
                }
            }
            let entry = flat
                .method_entry(class, method)
                .ok_or_else(|| flat.resolution_error(class, method))?;
            let m = *flat.method(entry);
            let sid = vm.free_states.pop().unwrap_or_else(|| {
                vm.exec_states.push(ExecState::default());
                vm.exec_states.len() - 1
            });
            let state = &mut vm.exec_states[sid];
            state.values.resize(Reg::COUNT, None);
            for (i, &a) in args.iter().take(Reg::COUNT).enumerate() {
                state.values[i] = Some(a);
            }
            state.frames.push(Frame {
                base: 0,
                ip: m.code_start,
                class,
                method,
                self_obj,
                loop_base: 0,
            });
            let pending = std::mem::take(&mut state.pending);
            (flat, sid, pending)
        };

        let result = self.flat_drive(sid, &flat, &mut pending);

        {
            let mut vm = self.vm.lock();
            let state = &mut vm.exec_states[sid];
            if result.is_err() {
                // Every unwound frame reports `on_method_exit`, innermost
                // first, even on error — to a sink that wants exits.
                if !self.tally {
                    for fr in state.frames.iter().rev() {
                        pending.push(PendingEvent::MethodExit {
                            class: fr.class,
                            method: fr.method,
                        });
                    }
                }
            } else {
                // Every burst was flushed, so the queue goes back empty; a
                // failed run's is flushed below and dropped.
                state.pending = std::mem::take(&mut pending);
            }
            state.values.clear();
            state.frames.clear();
            state.loops.clear();
            vm.free_states.push(sid);
        }
        pending.flush(self.hooks.as_ref());
        if result.is_err() {
            self.settle(&mut pending);
        }
        result
    }

    /// The burst driver: repeatedly executes a locked burst, flushes the
    /// queued hook events outside the lock, then services whatever made
    /// the burst exit (allocation, remote access) before re-entering.
    #[allow(clippy::too_many_lines)]
    fn flat_drive(
        &self,
        sid: usize,
        flat: &FlatProgram,
        pending: &mut PendingEvents,
    ) -> VmResult<()> {
        loop {
            let (exit, owing) = {
                let mut vm = self.vm.lock();
                let exit = flat_burst(
                    &mut vm,
                    sid,
                    flat,
                    pending,
                    self.max_depth,
                    self.yield_on_work,
                    self.tally,
                );
                // Settled wherever control goes somewhere that may read an
                // accumulating sink: the `Work` boundary, the run's end, a
                // touch of the peer (which may run code that collects).
                // An allocation settles only if it collects (`emit_gc`),
                // an error in `run_flat`.
                let settles = match exit {
                    Ok(Exit::Yield) => self.yield_on_work,
                    Ok(Exit::Alloc { .. }) | Err(_) => false,
                    Ok(_) => true,
                };
                (exit, settles && vm.settle_tallies(pending))
            };
            // Deliver events queued up to the exit (or error) point before
            // acting on it, so the hooks see them in program order.
            pending.flush(self.hooks.as_ref());
            if owing {
                self.settle(pending);
            }
            match exit? {
                Exit::Done => return Ok(()),
                Exit::Yield => {}
                Exit::Alloc {
                    class,
                    scalar_bytes,
                    ref_slots,
                    dst,
                } => {
                    let id = self.alloc_object(class, scalar_bytes, ref_slots)?;
                    self.flat_write_reg(sid, dst, Some(id))?;
                }
                Exit::Invoke {
                    call,
                    target,
                    args,
                    n_args,
                } => {
                    let cs = *flat.call(call);
                    let remote = self.remote().ok_or(VmError::DanglingReference(target))?;
                    remote.invoke(
                        target,
                        cs.class,
                        cs.method,
                        cs.arg_bytes,
                        cs.ret_bytes,
                        &args[..n_args as usize],
                    )?;
                }
                Exit::Field {
                    caller,
                    target,
                    bytes,
                    write,
                } => {
                    let remote = self.remote().ok_or(VmError::DanglingReference(target))?;
                    let callee = match self.local_class_of(target) {
                        Some(class) => class,
                        None => remote.class_of(target)?,
                    };
                    self.record_interaction(
                        caller,
                        callee,
                        Some(target),
                        InteractionKind::FieldAccess,
                        bytes as u64,
                        true,
                    );
                    remote.field_access(target, bytes, write)?;
                }
                Exit::SlotGet { target, slot, dst } => {
                    let remote = self.remote().ok_or(VmError::DanglingReference(target))?;
                    let value = remote.get_slot(target, slot)?;
                    self.flat_write_reg(sid, dst, value)?;
                }
                Exit::SlotPut {
                    target,
                    slot,
                    value,
                } => {
                    let remote = self.remote().ok_or(VmError::DanglingReference(target))?;
                    remote.put_slot(target, slot, value)?;
                }
                Exit::SlotGetOf {
                    caller,
                    target,
                    slot,
                    dst,
                } => {
                    let callee = self.class_of(target)?;
                    let remote = self.remote().ok_or(VmError::DanglingReference(target))?;
                    let value = remote.get_slot(target, slot)?;
                    self.record_interaction(
                        caller,
                        callee,
                        Some(target),
                        InteractionKind::FieldAccess,
                        8,
                        true,
                    );
                    self.flat_write_reg(sid, dst, value)?;
                }
                Exit::SlotPutOf {
                    caller,
                    target,
                    slot,
                    value,
                } => {
                    let callee = self.class_of(target)?;
                    let remote = self.remote().ok_or(VmError::DanglingReference(target))?;
                    remote.put_slot(target, slot, value)?;
                    self.record_interaction(
                        caller,
                        callee,
                        Some(target),
                        InteractionKind::FieldAccess,
                        8,
                        true,
                    );
                }
                Exit::NativeCall {
                    caller,
                    kind,
                    work_micros,
                    arg_bytes,
                    ret_bytes,
                } => {
                    let remote = self.remote().ok_or_else(|| {
                        VmError::RemoteFailure("client-bound native with no peer".into())
                    })?;
                    remote.native(caller, kind, work_micros, arg_bytes, ret_bytes)?;
                }
                Exit::StaticAccess {
                    accessor,
                    class,
                    bytes,
                    write,
                } => {
                    let remote = self.remote().ok_or_else(|| {
                        VmError::RemoteFailure("static access with no peer".into())
                    })?;
                    remote.static_access(accessor, class, bytes, write)?;
                }
            }
        }
    }

    /// Writes a register of the current (topmost) frame of flat state
    /// `sid` — used by the driver to store allocation and remote-read
    /// results back into the window.
    fn flat_write_reg(&self, sid: usize, reg: u8, value: Option<ObjectId>) -> VmResult<()> {
        let mut vm = self.vm.lock();
        let state = &mut vm.exec_states[sid];
        let f = *state.frames.last().expect("exec state has a frame");
        reg_set(&mut state.values, f.base, reg, value)
    }
}

#[inline]
fn reg_get(values: &[Option<ObjectId>], base: u32, reg: u8) -> VmResult<Option<ObjectId>> {
    if (reg as usize) < Reg::COUNT {
        Ok(values[base as usize + reg as usize])
    } else {
        Err(VmError::InvalidRegister(Reg(reg)))
    }
}

#[inline]
fn reg_obj(values: &[Option<ObjectId>], base: u32, reg: u8) -> VmResult<ObjectId> {
    reg_get(values, base, reg)?.ok_or(VmError::NullRegister(Reg(reg)))
}

/// The objects in call site `call`'s argument registers.
#[inline]
fn call_args(
    flat: &FlatProgram,
    call: u32,
    values: &[Option<ObjectId>],
    base: u32,
) -> VmResult<([ObjectId; Reg::COUNT], usize)> {
    let regs = flat.call_args(call);
    let mut args = [ObjectId(0); Reg::COUNT];
    for (i, &r) in regs.iter().enumerate() {
        args[i] = reg_obj(values, base, r)?;
    }
    Ok((args, regs.len()))
}

#[inline]
fn reg_set(
    values: &mut [Option<ObjectId>],
    base: u32,
    reg: u8,
    value: Option<ObjectId>,
) -> VmResult<()> {
    if (reg as usize) < Reg::COUNT {
        values[base as usize + reg as usize] = value;
        Ok(())
    } else {
        Err(VmError::InvalidRegister(Reg(reg)))
    }
}

/// Executes up to [`BURST_OPS`] flat ops of state `sid` under one VM lock.
///
/// Observable events are pushed onto `pending` (and their monitor cost
/// charged to the hook clock immediately); anything that needs the
/// allocator, the GC, or the peer returns an [`Exit`] for the unlocked
/// driver. Mutator charges are added op by op in program order, so where
/// a burst is cut never changes the virtual clock. With `tally` the sink
/// accumulates: cache hits and repeated `Work` go to the VM's [`Tallies`]
/// instead, and method exits and local natives and static accesses are
/// not queued (they are still charged).
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn flat_burst(
    vm: &mut Vm,
    sid: usize,
    flat: &FlatProgram,
    pending: &mut PendingEvents,
    max_depth: usize,
    yield_on_work: bool,
    tally: bool,
) -> VmResult<Exit> {
    let Vm {
        config,
        heap,
        exec_states,
        ic,
        tallies,
        ic_hits,
        ic_misses,
        mutator_seconds,
        hook_seconds,
        ops_executed,
        statics_accesses,
        slot_writes,
        op_seconds,
        ..
    } = vm;
    let speed = config.speed_factor;
    let cost = config.cost;
    let monitor = cost.monitor_event_micros;
    let hook_seconds_per_event = monitor / 1e6 / speed;
    let my_kind = config.kind;
    let stateless_local = config.stateless_natives_local;
    let code = flat.code();
    let state = &mut exec_states[sid];
    // The hot loop works on a local copy of the top frame; resumable exits
    // write it back. Error returns skip the write-back deliberately: the
    // whole state is torn down by `run_flat` on the error path.
    let mut f = *state.frames.last().expect("exec state has a frame");
    let mut budget = BURST_OPS;

    macro_rules! save {
        () => {
            *state.frames.last_mut().expect("exec state has a frame") = f;
        };
    }
    // Monitor-event charge for one queued hook event (as
    // `Machine::charge_monitor_event`: only when the cost is set).
    macro_rules! hook_charge {
        () => {
            if monitor > 0.0 {
                *hook_seconds += hook_seconds_per_event;
            }
        };
    }
    // The inline-cache check of `$target` at `$site`: `Some((class, hit))`
    // when the object is local. A fill first queues the hits the entry
    // counted for its previous target.
    macro_rules! ic_check {
        ($site:expr, $target:expr) => {{
            let epoch = heap.locality_epoch();
            let entry = &mut ic[$site as usize];
            if entry.target == $target && entry.epoch == epoch {
                *ic_hits += 1;
                Some((entry.class, true))
            } else if let Ok(rec) = heap.get($target) {
                *ic_misses += 1;
                if entry.owed() > 0 {
                    pending.push(counted(flat, $site, *entry));
                }
                *entry = IcEntry {
                    target: $target,
                    class: rec.class,
                    hits: entry.hits & LISTED,
                    epoch,
                };
                Some((rec.class, false))
            } else {
                *ic_misses += 1;
                None
            }
        }};
    }
    // One more hit on the cached target of `$site`, for the tallies.
    macro_rules! count_hit {
        ($site:expr) => {{
            let entry = &mut ic[$site as usize];
            if entry.hits == 0 {
                tallies.sites.push($site);
                entry.hits = LISTED;
            }
            entry.hits += 1;
            if entry.hits == u32::MAX {
                pending.push(counted(flat, $site, *entry));
                entry.hits = LISTED;
            }
        }};
    }

    // One `Work` of `$micros` by a method of `$class`, charged the
    // precomputed `$seconds`. A class's first `Work` is queued: it may be a
    // first sight.
    macro_rules! work {
        ($class:expr, $micros:expr, $seconds:expr) => {{
            let class: ClassId = $class;
            *ops_executed += 1;
            *mutator_seconds += $seconds;
            hook_charge!();
            let folded = tally && !yield_on_work && {
                let work = &mut tallies.work[class.index()];
                if work.seen {
                    if !work.owed {
                        work.owed = true;
                        tallies.classes.push(class.0);
                    }
                    work.micros += u64::from($micros);
                }
                std::mem::replace(&mut work.seen, true)
            };
            if !folded {
                pending.push(PendingEvent::Work {
                    class,
                    micros: $micros as f64,
                });
            }
        }};
    }
    // A dynamic call through `$cs` once its receiver `$t` is read: the
    // invoke charge, the local-vs-remote check through the inline cache (a
    // monomorphic site hits on one compare of (id, epoch)) with its tally
    // or `Interaction` and hook charge, then the depth and class checks. A
    // receiver that is not local leaves through `Exit::Invoke`.
    macro_rules! invoke {
        ($call:expr, $cs:expr, $t:expr, $args:expr, $n_args:expr) => {{
            let bytes = $cs.arg_bytes as u64 + $cs.ret_bytes as u64;
            *mutator_seconds += cost.invoke_micros / 1e6 / speed;
            match ic_check!($cs.ic, $t) {
                Some((found, hit)) => {
                    // A hit names the fill's class; a mismatched one fails
                    // below, so it is queued whole.
                    if tally && hit && found == $cs.class {
                        count_hit!($cs.ic);
                    } else {
                        pending.push(PendingEvent::Interaction(Interaction {
                            caller: f.class,
                            callee: $cs.class,
                            target: Some($t),
                            kind: InteractionKind::Invocation,
                            bytes,
                            remote: false,
                        }));
                    }
                    hook_charge!();
                    if state.frames.len() >= max_depth {
                        return Err(VmError::CallDepthExceeded(max_depth));
                    }
                    if found != $cs.class {
                        return Err(VmError::ClassMismatch {
                            expected: $cs.class,
                            found,
                        });
                    }
                }
                None => {
                    pending.push(PendingEvent::Interaction(Interaction {
                        caller: f.class,
                        callee: $cs.class,
                        target: Some($t),
                        kind: InteractionKind::Invocation,
                        bytes,
                        remote: true,
                    }));
                    hook_charge!();
                    f.ip += 1;
                    save!();
                    return Ok(Exit::Invoke {
                        call: $call,
                        target: $t,
                        args: $args,
                        n_args: $n_args as u8,
                    });
                }
            }
        }};
    }
    // Enters the callee of `$cs` in a new frame whose first registers are
    // `$args`; the caller resumes after the call.
    macro_rules! enter {
        ($cs:expr, $self_obj:expr, $args:expr) => {{
            if $cs.target == UNRESOLVED {
                return Err(flat.resolution_error($cs.class, $cs.method));
            }
            let callee = flat.method($cs.target);
            f.ip += 1;
            save!();
            let base = state.values.len() as u32;
            state.values.resize(state.values.len() + Reg::COUNT, None);
            for (i, &a) in $args.iter().enumerate() {
                state.values[base as usize + i] = Some(a);
            }
            f = Frame {
                base,
                ip: callee.code_start,
                class: $cs.class,
                method: $cs.method,
                self_obj: $self_obj,
                loop_base: state.loops.len() as u32,
            };
            state.frames.push(f);
        }};
    }

    loop {
        if budget == 0 {
            save!();
            return Ok(Exit::Yield);
        }
        budget -= 1;
        let op = code[f.ip as usize];
        match op {
            FlatOp::Work { micros } => {
                work!(f.class, micros, op_seconds[f.ip as usize]);
                f.ip += 1;
                if yield_on_work {
                    // Exit so the queued `on_work` reaches the hooks (and
                    // through them the periodic offload evaluator) before
                    // the next op runs.
                    save!();
                    return Ok(Exit::Yield);
                }
            }
            FlatOp::New {
                class,
                scalar_bytes,
                ref_slots,
                dst,
            } => {
                *ops_executed += 1;
                f.ip += 1;
                save!();
                return Ok(Exit::Alloc {
                    class,
                    scalar_bytes,
                    ref_slots,
                    dst,
                });
            }
            FlatOp::Call { call } => {
                *ops_executed += 1;
                let cs = *flat.call(call);
                let t = reg_obj(&state.values, f.base, cs.obj)?;
                let (args, n_args) = call_args(flat, call, &state.values, f.base)?;
                invoke!(call, cs, t, args, n_args);
                enter!(cs, Some(t), args[..n_args]);
            }
            FlatOp::CallLeaf { call, micros } => {
                *ops_executed += 1;
                let cs = *flat.call(call);
                let t = reg_obj(&state.values, f.base, cs.obj)?;
                invoke!(call, cs, t, [ObjectId(0); Reg::COUNT], 0);
                if yield_on_work {
                    // The callee's `Work` must end a burst inside it.
                    enter!(cs, Some(t), [ObjectId(0); 0]);
                } else {
                    // The callee's `[Work, Return]`, in place: its charge
                    // is a second addition, its seconds precomputed at
                    // this op.
                    work!(cs.class, micros, op_seconds[f.ip as usize]);
                    if !tally {
                        pending.push(PendingEvent::MethodExit {
                            class: cs.class,
                            method: cs.method,
                        });
                    }
                    f.ip += 1;
                }
            }
            FlatOp::CallStatic { call } => {
                *ops_executed += 1;
                let cs = *flat.call(call);
                let (args, n_args) = call_args(flat, call, &state.values, f.base)?;
                *mutator_seconds += cost.invoke_micros / 1e6 / speed;
                // Runs locally on whichever VM invokes it; interaction
                // recorded only across classes.
                if cs.class != f.class {
                    pending.push(PendingEvent::Interaction(Interaction {
                        caller: f.class,
                        callee: cs.class,
                        target: None,
                        kind: InteractionKind::Invocation,
                        bytes: cs.arg_bytes as u64 + cs.ret_bytes as u64,
                        remote: false,
                    }));
                    hook_charge!();
                }
                if state.frames.len() >= max_depth {
                    return Err(VmError::CallDepthExceeded(max_depth));
                }
                enter!(cs, None, args[..n_args]);
            }
            FlatOp::Read {
                obj,
                bytes,
                ic: site,
            }
            | FlatOp::Write {
                obj,
                bytes,
                ic: site,
            } => {
                *ops_executed += 1;
                let write = matches!(op, FlatOp::Write { .. });
                let target = reg_obj(&state.values, f.base, obj)?;
                match ic_check!(site, target) {
                    Some((callee, hit)) => {
                        *mutator_seconds += cost.field_access_micros / 1e6 / speed;
                        if callee != f.class {
                            if tally && hit {
                                count_hit!(site);
                            } else {
                                pending.push(PendingEvent::Interaction(Interaction {
                                    caller: f.class,
                                    callee,
                                    target: Some(target),
                                    kind: InteractionKind::FieldAccess,
                                    bytes: bytes as u64,
                                    remote: false,
                                }));
                            }
                            hook_charge!();
                        }
                        f.ip += 1;
                    }
                    None => {
                        f.ip += 1;
                        save!();
                        return Ok(Exit::Field {
                            caller: f.class,
                            target,
                            bytes,
                            write,
                        });
                    }
                }
            }
            FlatOp::GetSlot { slot, dst } => {
                *ops_executed += 1;
                let me = f.self_obj.ok_or_else(|| {
                    VmError::InvalidProgram("self slot access in static method".into())
                })?;
                match heap.get(me) {
                    Ok(rec) => {
                        let value = *slot_ref(rec, me, slot)?;
                        reg_set(&mut state.values, f.base, dst, value)?;
                        f.ip += 1;
                    }
                    Err(_) => {
                        // Receiver migrated away mid-method: remote access.
                        pending.push(PendingEvent::Interaction(Interaction {
                            caller: f.class,
                            callee: f.class,
                            target: Some(me),
                            kind: InteractionKind::FieldAccess,
                            bytes: 8,
                            remote: true,
                        }));
                        hook_charge!();
                        f.ip += 1;
                        save!();
                        return Ok(Exit::SlotGet {
                            target: me,
                            slot,
                            dst,
                        });
                    }
                }
            }
            FlatOp::PutSlot { slot, src } => {
                *ops_executed += 1;
                let me = f.self_obj.ok_or_else(|| {
                    VmError::InvalidProgram("self slot access in static method".into())
                })?;
                let value = reg_get(&state.values, f.base, src)?;
                match heap.get_mut(me) {
                    Ok(rec) => {
                        write_slot(slot_writes, rec, me, slot, value)?;
                        f.ip += 1;
                    }
                    Err(_) => {
                        pending.push(PendingEvent::Interaction(Interaction {
                            caller: f.class,
                            callee: f.class,
                            target: Some(me),
                            kind: InteractionKind::FieldAccess,
                            bytes: 8,
                            remote: true,
                        }));
                        hook_charge!();
                        f.ip += 1;
                        save!();
                        return Ok(Exit::SlotPut {
                            target: me,
                            slot,
                            value,
                        });
                    }
                }
            }
            FlatOp::GetSlotOf { obj, slot, dst } => {
                *ops_executed += 1;
                let target = reg_obj(&state.values, f.base, obj)?;
                match heap.get(target) {
                    Ok(rec) => {
                        let callee = rec.class;
                        let value = *slot_ref(rec, target, slot)?;
                        if callee != f.class {
                            pending.push(PendingEvent::Interaction(Interaction {
                                caller: f.class,
                                callee,
                                target: Some(target),
                                kind: InteractionKind::FieldAccess,
                                bytes: 8,
                                remote: false,
                            }));
                            hook_charge!();
                        }
                        reg_set(&mut state.values, f.base, dst, value)?;
                        f.ip += 1;
                    }
                    Err(_) => {
                        f.ip += 1;
                        save!();
                        return Ok(Exit::SlotGetOf {
                            caller: f.class,
                            target,
                            slot,
                            dst,
                        });
                    }
                }
            }
            FlatOp::PutSlotOf { obj, slot, src } => {
                *ops_executed += 1;
                let target = reg_obj(&state.values, f.base, obj)?;
                if heap.contains(target) {
                    let value = reg_get(&state.values, f.base, src)?;
                    let rec = heap.get_mut(target).expect("contains() checked");
                    let callee = rec.class;
                    write_slot(slot_writes, rec, target, slot, value)?;
                    if callee != f.class {
                        pending.push(PendingEvent::Interaction(Interaction {
                            caller: f.class,
                            callee,
                            target: Some(target),
                            kind: InteractionKind::FieldAccess,
                            bytes: 8,
                            remote: false,
                        }));
                        hook_charge!();
                    }
                    f.ip += 1;
                } else {
                    let value = reg_get(&state.values, f.base, src)?;
                    f.ip += 1;
                    save!();
                    return Ok(Exit::SlotPutOf {
                        caller: f.class,
                        target,
                        slot,
                        value,
                    });
                }
            }
            FlatOp::Native {
                kind,
                work_micros,
                arg_bytes,
                ret_bytes,
            } => {
                *ops_executed += 1;
                let bytes = arg_bytes as u64 + ret_bytes as u64;
                let must_go_to_client =
                    my_kind == VmKind::Surrogate && native_requires_client(kind, stateless_local);
                if must_go_to_client {
                    pending.push(PendingEvent::Native {
                        caller: f.class,
                        kind,
                        work_micros,
                        bytes,
                        remote: true,
                    });
                    hook_charge!();
                    f.ip += 1;
                    save!();
                    return Ok(Exit::NativeCall {
                        caller: f.class,
                        kind,
                        work_micros,
                        arg_bytes,
                        ret_bytes,
                    });
                }
                *mutator_seconds += op_seconds[f.ip as usize];
                if !tally {
                    pending.push(PendingEvent::Native {
                        caller: f.class,
                        kind,
                        work_micros,
                        bytes,
                        remote: false,
                    });
                }
                hook_charge!();
                f.ip += 1;
            }
            FlatOp::GetStatic { class, bytes } | FlatOp::PutStatic { class, bytes } => {
                *ops_executed += 1;
                let write = matches!(op, FlatOp::PutStatic { .. });
                if my_kind == VmKind::Surrogate {
                    pending.push(PendingEvent::StaticAccess {
                        accessor: f.class,
                        class,
                        bytes: bytes as u64,
                        remote: true,
                    });
                    hook_charge!();
                    f.ip += 1;
                    save!();
                    return Ok(Exit::StaticAccess {
                        accessor: f.class,
                        class,
                        bytes,
                        write,
                    });
                }
                *mutator_seconds += cost.static_access_micros / 1e6 / speed;
                *statics_accesses += 1;
                if !tally {
                    pending.push(PendingEvent::StaticAccess {
                        accessor: f.class,
                        class,
                        bytes: bytes as u64,
                        remote: false,
                    });
                }
                hook_charge!();
                f.ip += 1;
            }
            FlatOp::Clear { reg } => {
                *ops_executed += 1;
                reg_set(&mut state.values, f.base, reg, None)?;
                f.ip += 1;
            }
            FlatOp::Loop { n, end } => {
                if n == 0 {
                    f.ip = end + 1;
                } else {
                    state.loops.push(n);
                    f.ip += 1;
                }
            }
            FlatOp::EndLoop { start } => {
                let counter = state.loops.last_mut().expect("active loop counter");
                *counter -= 1;
                if *counter == 0 {
                    state.loops.pop();
                    f.ip += 1;
                } else {
                    f.ip = start;
                }
            }
            FlatOp::Return => {
                if !tally {
                    pending.push(PendingEvent::MethodExit {
                        class: f.class,
                        method: f.method,
                    });
                }
                state.frames.pop();
                state.values.truncate(f.base as usize);
                state.loops.truncate(f.loop_base as usize);
                match state.frames.last() {
                    Some(parent) => f = *parent,
                    None => return Ok(Exit::Done),
                }
            }
        }
    }
}

fn slot_ref(rec: &ObjectRecord, id: ObjectId, slot: u16) -> VmResult<&Option<ObjectId>> {
    rec.slots.get(slot as usize).ok_or(VmError::SlotOutOfRange {
        object: id,
        slot,
        slots: rec.slots.len() as u16,
    })
}

/// Writes a reference slot: the one routine that does, for the mutator and
/// for a peer alike, because it is also where `writes` advances. The caller
/// holds the VM lock (it has `rec`), so nobody else is advancing it.
#[inline]
fn write_slot(
    writes: &SlotWrites,
    rec: &mut ObjectRecord,
    id: ObjectId,
    slot: u16,
    value: Option<ObjectId>,
) -> VmResult<()> {
    let slots = rec.slots.len() as u16;
    *rec.slots
        .get_mut(slot as usize)
        .ok_or(VmError::SlotOutOfRange {
            object: id,
            slot,
            slots,
        })? = value;
    let so_far = writes.0.load(Ordering::Relaxed);
    writes.0.store(so_far + 1, Ordering::Release);
    Ok(())
}
