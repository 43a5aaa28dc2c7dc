//! Runtime instrumentation hooks.
//!
//! The paper instruments the JVM's code for method invocations, data-field
//! accesses, object creation, and object deletion (§3.4). This module is the
//! equivalent interposition point of our VM: every observable event is
//! delivered to a [`RuntimeHooks`] implementation. AIDE's monitoring module
//! and the emulator's trace recorder are both hook implementations.
//!
//! Hooks receive a `remote` flag on interaction events: `true` when the
//! interaction crossed the client/surrogate boundary (used for Figure 8's
//! remote-invocation accounting).

use serde::{Deserialize, Serialize};

use crate::gc::GcReport;
use crate::ids::{ClassId, MethodId, ObjectId};
use crate::natives::NativeKind;

/// Whether an interaction was a method invocation or a data-field access.
///
/// Table 2's 1.2 million interaction events for JavaNote are "almost evenly
/// divided between invocations and accesses".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InteractionKind {
    /// A method invocation (parameters out, return value back).
    Invocation,
    /// A data-field read or write.
    FieldAccess,
}

/// An inter-class interaction observed by the interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interaction {
    /// The class whose code performed the interaction.
    pub caller: ClassId,
    /// The class of the target object.
    pub callee: ClassId,
    /// The target object (`None` for static-method invocations, which have
    /// no receiver).
    pub target: Option<ObjectId>,
    /// Invocation or field access.
    pub kind: InteractionKind,
    /// Total payload bytes (parameters plus return value, or field bytes).
    pub bytes: u64,
    /// `true` if the interaction crossed the VM boundary.
    pub remote: bool,
}

/// Observer of VM execution events.
///
/// All methods have empty default implementations so implementors override
/// only what they need. Implementations must be cheap: they run inline with
/// every interpreted instruction (the paper measured an 11% monitoring
/// overhead for JavaNote; `aide-perf`'s `monitor.ns_per_event` is ours).
#[allow(unused_variables)]
pub trait RuntimeHooks: Send + Sync {
    /// An inter-class interaction (invocation or field access) occurred.
    fn on_interaction(&self, event: Interaction) {}

    /// An object was created. `bytes` is the full heap footprint.
    fn on_alloc(&self, class: ClassId, object: ObjectId, bytes: u64) {}

    /// `objects` instances of `class` (total footprint `bytes`) were
    /// reclaimed by a collection cycle.
    fn on_free(&self, class: ClassId, objects: u64, bytes: u64) {}

    /// `micros` of exclusive CPU time accrued in `class` (Figure 9
    /// attribution: nested calls are attributed to the callee).
    fn on_work(&self, class: ClassId, micros: f64) {}

    /// A native method of `kind` was invoked by code of `caller`, carrying
    /// `bytes` of payload and burning `work_micros` of client-speed CPU.
    /// `remote` is `true` when the invocation had to travel back to the
    /// client from the surrogate.
    fn on_native(
        &self,
        caller: ClassId,
        kind: NativeKind,
        work_micros: u32,
        bytes: u64,
        remote: bool,
    ) {
    }

    /// Static data of `class` was accessed by code of `accessor`.
    /// `remote` is `true` when the access travelled to the client.
    fn on_static_access(&self, accessor: ClassId, class: ClassId, bytes: u64, remote: bool) {}

    /// A method body finished executing (used for call-tree accounting).
    fn on_method_exit(&self, class: ClassId, method: MethodId) {}

    /// A garbage-collection cycle completed.
    fn on_gc(&self, report: &GcReport) {}

    /// One flushed burst: the events the interpreter queued since its
    /// previous flush, oldest first. The default hands them one by one to
    /// the `on_*` methods above; a sink that pays a fixed cost per delivery
    /// (a lock, a clock read) overrides this to pay it once per burst.
    fn on_events(&self, events: &[PendingEvent]) {
        for &event in events {
            event.deliver(self);
        }
    }

    /// Whether this sink must see each `on_work` before the op after it
    /// runs. The interpreter asks once, when the [`Machine`] is built,
    /// and ends its burst at every `Work` op only if the answer is `true`;
    /// a sink that merely accumulates answers `false` and gets the same
    /// events, in the same order, in longer bursts.
    ///
    /// [`Machine`]: crate::Machine
    fn needs_work_boundary(&self) -> bool {
        true
    }

    /// Whether this sink only sums what it is told, so that it may be told
    /// sums. The interpreter asks once, when the [`Machine`] is built. A
    /// sink that answers `true` gets, instead of the per-event stream:
    ///
    /// * a local interaction at an inline-cache hit as part of a
    ///   [`PendingEvent::Counted`], delivered later but before anything
    ///   can read the sink (a collection's `on_free`/`on_gc`, the `Work`
    ///   boundary, a run's end or failure, a touch of the peer);
    /// * after a class's first `Work` on the VM, its later `Work`s as one
    ///   summed [`PendingEvent::Work`] at those same points (not under
    ///   [`needs_work_boundary`](RuntimeHooks::needs_work_boundary));
    /// * no `on_method_exit`, and no local `on_native` or
    ///   `on_static_access`.
    ///
    /// Every first sight — a fill of an inline cache, a class's first
    /// `Work` — still arrives in program order. The default is `false`:
    /// every event, one by one, in program order.
    ///
    /// [`Machine`]: crate::Machine
    fn accumulates(&self) -> bool {
        false
    }
}

/// One deferred hook event, queued by the interpreter's burst loop.
///
/// The interpreter executes a burst of ops under one VM lock, pushing
/// observable events onto a [`PendingEvents`] queue, and hands the queued
/// slice to [`RuntimeHooks::on_events`] *outside* the lock: one dispatch per
/// burst, and a hook sees every event in program order however the bursts
/// are cut. Allocation, free, and GC events are not queued: they are
/// delivered by the allocation/collection path itself, which already runs
/// between bursts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PendingEvent {
    /// An inter-class interaction ([`RuntimeHooks::on_interaction`]).
    Interaction(Interaction),
    /// Exclusive CPU time accrued ([`RuntimeHooks::on_work`]).
    Work {
        /// Class the work is attributed to.
        class: ClassId,
        /// Microseconds of client-speed CPU.
        micros: f64,
    },
    /// A native invocation ([`RuntimeHooks::on_native`]).
    Native {
        /// Class whose code invoked the native.
        caller: ClassId,
        /// Which native.
        kind: NativeKind,
        /// CPU burned by the native.
        work_micros: u32,
        /// Payload bytes (parameters plus results).
        bytes: u64,
        /// `true` when the call travelled back to the client.
        remote: bool,
    },
    /// A static-data access ([`RuntimeHooks::on_static_access`]).
    StaticAccess {
        /// Class whose code performed the access.
        accessor: ClassId,
        /// Class owning the static data.
        class: ClassId,
        /// Bytes accessed.
        bytes: u64,
        /// `true` when the access travelled to the client.
        remote: bool,
    },
    /// A method body finished ([`RuntimeHooks::on_method_exit`]).
    MethodExit {
        /// Class owning the method.
        class: ClassId,
        /// The method that returned.
        method: MethodId,
    },
    /// `count` occurrences of one local interaction, queued only for a sink
    /// that [accumulates](RuntimeHooks::accumulates); delivered one by one
    /// it is `count` calls of [`RuntimeHooks::on_interaction`].
    Counted {
        /// The interaction that occurred.
        interaction: Interaction,
        /// How many times.
        count: u32,
    },
}

impl PendingEvent {
    /// Delivers this event through the matching per-event hook method.
    #[inline]
    pub fn deliver<H: RuntimeHooks + ?Sized>(self, hooks: &H) {
        match self {
            PendingEvent::Interaction(i) => hooks.on_interaction(i),
            PendingEvent::Work { class, micros } => hooks.on_work(class, micros),
            PendingEvent::Native {
                caller,
                kind,
                work_micros,
                bytes,
                remote,
            } => hooks.on_native(caller, kind, work_micros, bytes, remote),
            PendingEvent::StaticAccess {
                accessor,
                class,
                bytes,
                remote,
            } => hooks.on_static_access(accessor, class, bytes, remote),
            PendingEvent::MethodExit { class, method } => hooks.on_method_exit(class, method),
            PendingEvent::Counted { interaction, count } => {
                for _ in 0..count {
                    hooks.on_interaction(interaction);
                }
            }
        }
    }
}

/// FIFO queue of [`PendingEvent`]s awaiting delivery to a hook sink.
///
/// The backing buffer is reused across flushes, so steady-state batched
/// dispatch allocates nothing.
#[derive(Debug, Default)]
pub struct PendingEvents {
    queue: Vec<PendingEvent>,
}

impl PendingEvents {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PendingEvents::default()
    }

    /// Queues one event.
    #[inline]
    pub fn push(&mut self, event: PendingEvent) {
        self.queue.push(event);
    }

    /// Returns `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Hands every queued event to `hooks` in one
    /// [`RuntimeHooks::on_events`] call, in the order queued, and empties
    /// the queue.
    pub fn flush(&mut self, hooks: &dyn RuntimeHooks) {
        if !self.queue.is_empty() {
            hooks.on_events(&self.queue);
            self.queue.clear();
        }
    }
}

/// A hook implementation that ignores every event (monitoring off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullHooks;

impl RuntimeHooks for NullHooks {
    fn on_events(&self, _: &[PendingEvent]) {}

    fn needs_work_boundary(&self) -> bool {
        false
    }

    fn accumulates(&self) -> bool {
        true
    }
}

/// Fans events out to several hook implementations in order.
///
/// # Examples
///
/// ```
/// use aide_vm::{HookChain, NullHooks, RuntimeHooks};
/// use std::sync::Arc;
///
/// let chain = HookChain::new(vec![Arc::new(NullHooks), Arc::new(NullHooks)]);
/// chain.on_work(aide_vm::ClassId(0), 1.0); // delivered to both
/// ```
#[derive(Clone)]
pub struct HookChain {
    hooks: Vec<std::sync::Arc<dyn RuntimeHooks>>,
}

impl std::fmt::Debug for HookChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookChain")
            .field("len", &self.hooks.len())
            .finish()
    }
}

impl HookChain {
    /// Creates a chain delivering events to `hooks` in order.
    pub fn new(hooks: Vec<std::sync::Arc<dyn RuntimeHooks>>) -> Self {
        HookChain { hooks }
    }

    /// Number of chained hooks.
    pub fn len(&self) -> usize {
        self.hooks.len()
    }

    /// Returns `true` if the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.hooks.is_empty()
    }
}

impl RuntimeHooks for HookChain {
    fn on_interaction(&self, event: Interaction) {
        for h in &self.hooks {
            h.on_interaction(event);
        }
    }

    fn on_alloc(&self, class: ClassId, object: ObjectId, bytes: u64) {
        for h in &self.hooks {
            h.on_alloc(class, object, bytes);
        }
    }

    fn on_free(&self, class: ClassId, objects: u64, bytes: u64) {
        for h in &self.hooks {
            h.on_free(class, objects, bytes);
        }
    }

    fn on_work(&self, class: ClassId, micros: f64) {
        for h in &self.hooks {
            h.on_work(class, micros);
        }
    }

    fn on_native(
        &self,
        caller: ClassId,
        kind: NativeKind,
        work_micros: u32,
        bytes: u64,
        remote: bool,
    ) {
        for h in &self.hooks {
            h.on_native(caller, kind, work_micros, bytes, remote);
        }
    }

    fn on_static_access(&self, accessor: ClassId, class: ClassId, bytes: u64, remote: bool) {
        for h in &self.hooks {
            h.on_static_access(accessor, class, bytes, remote);
        }
    }

    fn on_method_exit(&self, class: ClassId, method: MethodId) {
        for h in &self.hooks {
            h.on_method_exit(class, method);
        }
    }

    fn on_gc(&self, report: &GcReport) {
        for h in &self.hooks {
            h.on_gc(report);
        }
    }

    /// Member by member: each sees the whole slice, in order, before the
    /// next member sees any of it.
    fn on_events(&self, events: &[PendingEvent]) {
        for h in &self.hooks {
            h.on_events(events);
        }
    }

    fn needs_work_boundary(&self) -> bool {
        self.hooks.iter().any(|h| h.needs_work_boundary())
    }

    /// Every member must: one that does not gets the per-event stream, and
    /// so does the rest of the chain.
    fn accumulates(&self) -> bool {
        self.hooks.iter().all(|h| h.accumulates())
    }
}

/// A hook that counts events — useful in tests and overhead experiments.
#[derive(Debug, Default)]
pub struct CountingHooks {
    /// Interaction events seen.
    pub interactions: std::sync::atomic::AtomicU64,
    /// Allocation events seen.
    pub allocs: std::sync::atomic::AtomicU64,
    /// Free events seen.
    pub frees: std::sync::atomic::AtomicU64,
    /// Native invocations seen.
    pub natives: std::sync::atomic::AtomicU64,
    /// Static accesses seen.
    pub statics: std::sync::atomic::AtomicU64,
    /// GC reports seen.
    pub gcs: std::sync::atomic::AtomicU64,
    /// Total exclusive work microseconds observed (sum, as integer micros).
    pub work_micros: std::sync::atomic::AtomicU64,
}

impl CountingHooks {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        CountingHooks::default()
    }
}

impl RuntimeHooks for CountingHooks {
    fn on_interaction(&self, _: Interaction) {
        self.interactions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn on_alloc(&self, _: ClassId, _: ObjectId, _: u64) {
        self.allocs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn on_free(&self, _: ClassId, objects: u64, _: u64) {
        self.frees
            .fetch_add(objects, std::sync::atomic::Ordering::Relaxed);
    }

    fn on_work(&self, _: ClassId, micros: f64) {
        self.work_micros
            .fetch_add(micros.round() as u64, std::sync::atomic::Ordering::Relaxed);
    }

    fn on_native(&self, _: ClassId, _: NativeKind, _: u32, _: u64, _: bool) {
        self.natives
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn on_static_access(&self, _: ClassId, _: ClassId, _: u64, _: bool) {
        self.statics
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn on_gc(&self, _: &GcReport) {
        self.gcs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn null_hooks_accept_all_events() {
        let h = NullHooks;
        h.on_interaction(Interaction {
            caller: ClassId(0),
            callee: ClassId(1),
            target: Some(ObjectId::client(0)),
            kind: InteractionKind::Invocation,
            bytes: 8,
            remote: false,
        });
        h.on_work(ClassId(0), 1.5);
        h.on_gc(&GcReport {
            cycle: 1,
            capacity: 100,
            used_after: 0,
            free_after: 100,
            freed_objects: 0,
            freed_bytes: 0,
            duration_micros: 0.0,
        });
    }

    #[test]
    fn chain_delivers_to_all_members() {
        let a = Arc::new(CountingHooks::new());
        let b = Arc::new(CountingHooks::new());
        let chain = HookChain::new(vec![a.clone(), b.clone()]);
        assert_eq!(chain.len(), 2);
        chain.on_alloc(ClassId(0), ObjectId::client(0), 64);
        chain.on_native(ClassId(0), NativeKind::Math, 2, 8, true);
        chain.on_work(ClassId(0), 2.0);
        assert_eq!(a.allocs.load(Ordering::Relaxed), 1);
        assert_eq!(b.allocs.load(Ordering::Relaxed), 1);
        assert_eq!(a.natives.load(Ordering::Relaxed), 1);
        assert_eq!(b.work_micros.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_chain_is_permitted() {
        let chain = HookChain::new(vec![]);
        assert!(chain.is_empty());
        chain.on_work(ClassId(0), 1.0);
    }

    #[test]
    fn pending_events_flush_fifo_and_reuse_buffer() {
        #[derive(Default)]
        struct Order(std::sync::Mutex<Vec<&'static str>>);
        impl RuntimeHooks for Order {
            fn on_interaction(&self, _: Interaction) {
                self.0.lock().unwrap().push("interaction");
            }
            fn on_work(&self, _: ClassId, _: f64) {
                self.0.lock().unwrap().push("work");
            }
            fn on_method_exit(&self, _: ClassId, _: MethodId) {
                self.0.lock().unwrap().push("exit");
            }
        }
        let sink = Order::default();
        let mut pending = PendingEvents::new();
        assert!(pending.is_empty());
        pending.push(PendingEvent::Work {
            class: ClassId(0),
            micros: 1.0,
        });
        pending.push(PendingEvent::Interaction(Interaction {
            caller: ClassId(0),
            callee: ClassId(1),
            target: None,
            kind: InteractionKind::Invocation,
            bytes: 8,
            remote: false,
        }));
        pending.push(PendingEvent::MethodExit {
            class: ClassId(0),
            method: MethodId(0),
        });
        assert_eq!(pending.len(), 3);
        pending.flush(&sink);
        assert!(pending.is_empty());
        pending.flush(&sink); // flushing an empty queue is a no-op
        assert_eq!(*sink.0.lock().unwrap(), vec!["work", "interaction", "exit"]);
    }

    #[test]
    fn hooks_are_object_safe_and_send_sync() {
        fn assert_hooks<T: RuntimeHooks + Send + Sync>() {}
        assert_hooks::<NullHooks>();
        assert_hooks::<HookChain>();
        assert_hooks::<CountingHooks>();
        let _boxed: Box<dyn RuntimeHooks> = Box::new(NullHooks);
    }
}
