//! RPC endpoints: request/reply correlation, the dispatcher worker pool,
//! and simulated link-time accounting.
//!
//! Each VM owns an [`Endpoint`]. It has no receiver thread: the endpoint
//! attaches a sink to its session, and whoever produces an inbound frame —
//! the holder of the carrier's read half, or the in-process peer's sending
//! thread — decodes it on the spot, renews leases, and either completes the
//! blocked caller's one-shot slot (a reply, matched by sequence number) or
//! hands the request to a worker, which serves it through the endpoint's
//! [`Dispatcher`].
//!
//! The requests are served by a [`WorkerPool`], the paper's "pool of threads
//! to perform RPCs on behalf of the other JVM" (`crate::pool` has how it
//! serves). Workers can re-enter the interpreter, which may issue further
//! nested remote calls, so an endpoint that owns its pool
//! ([`Endpoint::start`]) lets it grow as deep as the maximum cross-VM call
//! nesting ([`EndpointConfig::workers`]); it exists only as far as it has
//! been used. The surrogate daemon's sessions share a few fixed pools
//! instead ([`Endpoint::start_on`]).
//!
//! A blocked caller is itself the holder of its carrier's read half: having
//! written its request it reads and routes the carrier's frames until its
//! own reply is among them, and only waits to be handed the reply when
//! somebody else is already reading (see `CallSlot::wait`, the one place a
//! call waits). A request met by a reading caller or by the carrier's own
//! thread goes to the pool, as does every request in process and behind a
//! chaos shim.
//!
//! A touch whose reply carries nothing ([`Request::is_deferrable`]) need
//! not be waited for: [`Endpoint::defer`] queues it, and the next frame the
//! endpoint sends to the peer — the next request, or the reply to the
//! request being served — carries the queue in its header. The peer serves
//! the touches before the frame's own message, so they land in the order
//! they were made, in the same turn of the two VMs (DESIGN §5.4). An
//! `Invoke` returns nothing either, and is deferred when its sender knows
//! the callee can neither call back nor reorder against the sender's later
//! work; the endpoint serves it like any other touch, and
//! [`deferred_invoke_in_service`](crate::deferred_invoke_in_service) tells
//! the callee's thread that it is one.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use aide_graph::{CommParams, Crossing};
use aide_telemetry::span_names;
use aide_telemetry::sync::{Condvar, Mutex, MutexGuard};
use aide_vm::SlotWrites;

use crate::link::{BackendKind, Delivered, FrameSink, LinkError, NetClock, Session};
use crate::mux::{CarrierReader, Turn};
use crate::pool::{Job, Work, WorkerPool};
use crate::reftable::{ExportTable, ImportTable};
use crate::responder::{dispatch_deferred, is_idempotent, Responder, Served, TouchFailure};
use crate::rng::Xorshift64;
use crate::wire::{FrameHeader, LeaseStamp, Message, Reply, Request, Touches, WireError};

/// How many touches [`Endpoint::defer`] queues before it stops deferring:
/// the touch that fills the queue goes out at once, the others riding its
/// header, and is waited for.
///
/// The bound caps memory and the size of one frame, nothing else: a touch
/// is charged to the link when it is deferred, so where a queue is flushed
/// moves no virtual second. 4 096 field accesses are ~57 KB of header; the
/// worst case, 4 096 `Invoke`s of 8 arguments, ~364 KB, far below the
/// 64 MiB a frame may be. A smaller bound only adds waited round trips.
pub const DEFER_LIMIT: usize = 4_096;

/// Process-wide source of endpoint (client) ids, carried in every request
/// frame so the serving side can deduplicate retries per caller.
static NEXT_CLIENT_ID: AtomicU64 = AtomicU64::new(1);

/// Errors surfaced to RPC callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The link closed before the reply arrived.
    Disconnected,
    /// No reply arrived within the endpoint's timeout.
    Timeout,
    /// The peer executed the request and reported an error.
    Remote(String),
    /// A malformed frame was received.
    Protocol(String),
    /// The peer refused the request under admission control: it is
    /// saturated, not failed. Callers should back off for at least
    /// `retry_after_ms` or place the work on a different peer — in-place
    /// retries are never attempted for this variant, because the reply
    /// did arrive and repeating it would only add load.
    Busy {
        /// Server's backoff hint, in milliseconds.
        retry_after_ms: u32,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Disconnected => f.write_str("peer disconnected"),
            RpcError::Timeout => f.write_str("rpc timed out"),
            RpcError::Remote(msg) => write!(f, "remote error: {msg}"),
            RpcError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            RpcError::Busy { retry_after_ms } => {
                write!(f, "peer busy, retry after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for RpcError {}

impl From<LinkError> for RpcError {
    fn from(_: LinkError) -> Self {
        RpcError::Disconnected
    }
}

impl From<WireError> for RpcError {
    fn from(e: WireError) -> Self {
        RpcError::Protocol(e.to_string())
    }
}

/// Executes requests arriving from the peer.
///
/// The distributed platform implements this by re-entering the interpreter
/// ([`aide_vm::Machine::call_on`] and friends) on the serving VM.
pub trait Dispatcher: Send + Sync {
    /// Executes `request`, returning a reply payload or an error string
    /// that will be transported back to the caller. Runs on a worker that
    /// holds no carrier's read half, so it may wait, call the peer and
    /// re-enter an interpreter.
    fn dispatch(&self, request: Request) -> Result<Reply, String>;

    /// Serves `touches` — what the peer deferred onto one frame — in order,
    /// stopping at the first that fails. By default each is
    /// [dispatched](Dispatcher::dispatch) on its own, an `Invoke` as a
    /// deferred one ([`dispatch_deferred`](crate::dispatch_deferred)); a
    /// dispatcher that can serve a run of touches more cheaply at once
    /// overrides this, and must serve them to the same effect.
    ///
    /// # Errors
    ///
    /// The first touch that failed: how many were dispatched before it, and
    /// its error prefixed `deferred {kind}: `.
    fn dispatch_touches(&self, touches: &Touches) -> Result<(), TouchFailure> {
        for (at, touch) in touches.iter().enumerate() {
            let kind = touch.kind();
            dispatch_deferred(self, touch).map_err(|e| TouchFailure::new(at, kind, e))?;
        }
        Ok(())
    }
}

/// Capped exponential backoff with deterministic jitter: the sleep between
/// two attempts of a retried call ([`RetryPolicy::backoff`]), and the gate
/// on re-acquiring a surrogate after failures (`aide-core`'s failover).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// Delay before the first retry.
    pub base: Duration,
    /// Multiplier applied per successive retry.
    pub factor: f64,
    /// Upper bound on the delay before jitter.
    pub max: Duration,
    /// Jitter amplitude: each delay is scaled by a factor drawn uniformly
    /// from `[1 - jitter, 1 + jitter]`. 0 disables jitter.
    pub jitter: f64,
    /// Seed for the jitter stream (a fixed seed keeps runs reproducible).
    pub seed: u64,
}

impl BackoffConfig {
    /// The delay before retry `retry` (0 for the first): `base` scaled by
    /// `factor` once per earlier retry (32 times at most), capped at `max`,
    /// then scaled by one jitter draw from `rng`.
    pub fn delay(&self, retry: u32, rng: &mut Xorshift64) -> Duration {
        let exp = self.base.as_secs_f64() * self.factor.powi(retry.min(32) as i32);
        let capped = exp.min(self.max.as_secs_f64());
        let scale = 1.0 + self.jitter * (2.0 * rng.unit() - 1.0);
        Duration::from_secs_f64((capped * scale).max(0.0))
    }
}

/// Retry discipline for [`Endpoint::call_with_retry`].
///
/// Retries resend the *same* frame — same sequence number, same client id —
/// so the serving side's at-most-once cache can recognise them, and a late
/// reply to an earlier attempt satisfies a later one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum send attempts (1 = no retries).
    pub max_attempts: u32,
    /// How long each attempt waits for a reply before resending.
    pub attempt_timeout: Duration,
    /// The sleep between a timed-out attempt and the next. Its jitter
    /// stream is mixed with the request's sequence number, so concurrent
    /// calls do not march in lockstep.
    pub backoff: BackoffConfig,
    /// Overall deadline across all attempts and backoffs.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            attempt_timeout: Duration::from_secs(2),
            backoff: BackoffConfig {
                base: Duration::from_millis(25),
                factor: 2.0,
                max: Duration::from_secs(1),
                jitter: 0.25,
                seed: 0x9E37_79B9_7F4A_7C15,
            },
            deadline: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// The jitter stream of the call numbered `seq` on the endpoint whose
    /// client id is `client`. Each half of the key is spread over all 64
    /// bits before it meets the seed, so no small `(client, seq)` cancels
    /// the seed down to a near-empty state, and calls of one `seq` on two
    /// endpoints draw apart.
    fn jitter(&self, client: u64, seq: u64) -> Xorshift64 {
        Xorshift64::new(
            self.backoff.seed
                ^ client.wrapping_mul(0xD1B5_4A32_D192_ED03)
                ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32),
        )
    }
}

/// Configuration of an [`Endpoint`].
#[derive(Debug, Clone, Copy)]
pub struct EndpointConfig {
    /// Bound on the worker threads serving incoming requests. Must cover
    /// the deepest cross-VM call nesting (each nested bounce occupies one
    /// worker). It is a bound, not a size: an endpoint starts with no
    /// worker and spawns one only when a request arrives that no worker is
    /// reading for and no idle worker is there to take.
    pub workers: usize,
    /// How long a caller waits for a reply before giving up.
    pub call_timeout: Duration,
    /// How long in-flight calls may still be answered after shutdown
    /// begins. Bounds [`Endpoint::join`] even when the peer never
    /// acknowledges the shutdown (a crashed or hung surrogate).
    pub drain_timeout: Duration,
    /// Retry discipline used by [`Endpoint::call_with_retry`].
    pub retry: RetryPolicy,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            workers: 64,
            call_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(1),
            retry: RetryPolicy::default(),
        }
    }
}

/// What a blocked caller is handed: the peer's answer and the touches the
/// peer deferred onto it, or why none came.
type CallOutcome = Result<(Result<Reply, String>, Touches), RpcError>;

struct SlotState {
    outcome: Option<CallOutcome>,
    /// Set when the endpoint starts draining: the caller gives up then,
    /// whatever its own timeout says.
    give_up_at: Option<Instant>,
    /// The caller sleeps on `changed`. A caller reading its carrier does
    /// not, and is spared the wake-up call nobody would hear.
    asleep: bool,
}

/// How long a caller reading its carrier goes without looking at its slot
/// when no frame arrives: the one thing another thread can change under it
/// is the drain deadline `shutdown()` stamps on the slot, which is thereby
/// noticed at most this late. A caller waiting on the condition variable is
/// notified instead and needs no such bound.
const SLOT_RECHECK: Duration = Duration::from_millis(50);

/// One blocked caller's one-shot rendezvous with the thread that delivers
/// its reply (the holder of the carrier's read half — possibly the caller
/// itself — or the in-process peer's worker).
struct CallSlot {
    state: Mutex<SlotState>,
    changed: Condvar,
}

impl CallSlot {
    /// The first outcome wins; a duplicate reply is ignored.
    fn complete(&self, outcome: CallOutcome) {
        let mut state = self.state.lock();
        if state.outcome.is_none() {
            state.outcome = Some(outcome);
            self.wake(state);
        }
    }

    fn give_up_at(&self, deadline: Instant) {
        let mut state = self.state.lock();
        state.give_up_at = Some(deadline);
        self.wake(state);
    }

    /// Lets go of the slot, then wakes its caller if it sleeps: woken while
    /// the lock is still held, it would run straight into it and go back to
    /// sleep.
    fn wake(&self, state: MutexGuard<'_, SlotState>) {
        let asleep = state.asleep;
        drop(state);
        if asleep {
            self.changed.notify_one();
        }
    }

    /// Waits up to `timeout` for the outcome — the one way a call waits.
    /// [`RpcError::Timeout`] leaves the slot armed, so a retry can wait on
    /// it again and a late reply to an earlier attempt still lands.
    ///
    /// With `carrier` (a session riding a byte-stream carrier) the caller
    /// takes the read half if it is free and reads
    /// and routes frames on this thread until the outcome is in, never past
    /// the deadlines below; when somebody else holds it, and always in
    /// process, it sleeps until the outcome is handed over.
    fn wait(&self, timeout: Duration, carrier: Option<&CarrierReader>) -> CallOutcome {
        let until = Instant::now() + timeout;
        // Taken before the slot is looked at: from here on no reply reaches
        // the slot except through the read half this caller holds or behind
        // a notification it will get.
        let mut turn = carrier.map(CarrierReader::enter);
        let mut state = self.state.lock();
        loop {
            if let Some(outcome) = state.outcome.take() {
                if let (Some(Turn::Reading(reading)), Ok(_)) = (&mut turn, &outcome) {
                    reading.found_own_reply();
                }
                return outcome;
            }
            let now = Instant::now();
            if state.give_up_at.is_some_and(|deadline| now >= deadline) {
                return Err(RpcError::Disconnected);
            }
            if now >= until {
                return Err(RpcError::Timeout);
            }
            let limit = state
                .give_up_at
                .map_or(until, |deadline| deadline.min(until));
            state = match &mut turn {
                Some(Turn::Reading(reading)) => {
                    drop(state);
                    if !reading.route_next(limit.min(now + SLOT_RECHECK)) {
                        // The carrier died under us and failed every call
                        // on it; a slot it somehow missed waits out its
                        // deadline like any other.
                        turn = None;
                    }
                    self.state.lock()
                }
                _ => {
                    state.asleep = true;
                    let mut state = self.changed.wait_timeout(state, limit - now).0;
                    state.asleep = false;
                    state
                }
            };
        }
    }
}

/// Calls awaiting replies, and how far the endpoint's life has got.
#[derive(Default)]
struct Pending {
    slots: HashMap<u64, Arc<CallSlot>>,
    /// Set once shutdown began (locally, or by the peer's `Shutdown`
    /// frame): outstanding calls may be answered until then.
    drain_until: Option<Instant>,
    /// Nothing is awaited or served any more: the drain finished, the
    /// peer hung up, or the carrier died.
    closed: bool,
    /// What runs on a worker once the endpoint has closed
    /// ([`Endpoint::on_close`]).
    on_close: Option<Box<dyn FnOnce() + Send>>,
}

/// Bound on remembered timed-out sequence numbers; replies that never
/// arrive would otherwise grow the set forever.
const LATE_SET_CAPACITY: usize = 4096;

/// Replies an endpoint's at-most-once cache remembers.
const DEDUP_CAPACITY: usize = 1024;

/// Reference-table handles wired into an endpoint by
/// [`Endpoint::attach_gc`] so lease maintenance piggybacks on ordinary
/// traffic: every outgoing frame is stamped with the import table's
/// advertised lease epoch and the local VM's slot-write count, and every
/// stamped incoming frame renews the export table's current-epoch leases.
struct GcHooks {
    exports: Arc<ExportTable>,
    imports: Arc<ImportTable>,
    writes: Arc<SlotWrites>,
}

/// The part of an endpoint its session's sink and the workers serving it
/// share: the sink is this struct, run by whichever thread produced the
/// frame.
pub(crate) struct Shared {
    /// For the jobs this queues, which carry it.
    me: Weak<Shared>,
    pending: Mutex<Pending>,
    /// Notified when the drain begins and when the endpoint closes; what
    /// [`Endpoint::join`] sleeps on.
    settled: Condvar,
    /// Sequence numbers whose caller gave up waiting. When the reply
    /// finally arrives it is counted as a *late reply* instead of being
    /// silently discarded — the observable symptom that a retry layer is
    /// needed.
    late_expected: Mutex<HashSet<u64>>,
    /// Serves the peer's requests.
    pool: Arc<WorkerPool>,
    /// The pool is this endpoint's own, and closes with it.
    owns_pool: bool,
    /// Where replies go. Let go of on close, which is what lets a session
    /// nobody else holds hang up once its endpoint is done.
    out: Mutex<Option<Session>>,
    dispatcher: Arc<dyn Dispatcher>,
    responder: Responder,
    drain_timeout: Duration,
    requests_served: AtomicU64,
    dedup_hits: AtomicU64,
    late_replies: AtomicU64,
    bad_frames: AtomicU64,
    /// Written once, by [`Endpoint::attach_gc`]; read on every frame.
    gc: OnceLock<GcHooks>,
    /// One more than the highest slot-write count a frame of the peer has
    /// carried; 0 until one carries any. Kept here and not with the
    /// reference tables because those outlive a session under failover: an
    /// endpoint has one peer VM for life, so the count only ever rises, and
    /// a straggler of a retired session cannot speak for its successor.
    peer_writes: AtomicU64,
    /// Slot writes deferred to the peer and not yet answered: queued, or on
    /// a frame in flight. The peer's count will have moved by as many once
    /// it has served them.
    owed_writes: AtomicU64,
    /// Touches deferred for the peer ([`Endpoint::defer`]), oldest first,
    /// waiting for the next frame.
    deferred: Mutex<Touches>,
    /// Why deferring stopped, for good: a deferred touch failed (waited
    /// for, it would have ended the run), a frame carrying touches got no
    /// answer (whether the peer served them is unknown, so they must not be
    /// sent again), or the touches were taken back. Every later call, touch
    /// and flush fails with it.
    stopped: OnceLock<RpcError>,
}

impl Shared {
    /// The deferred touches, for the frame about to go out.
    fn take_deferred(&self) -> Touches {
        std::mem::take(&mut *self.deferred.lock())
    }

    /// `writes` slot writes left for the peer and need not be owed any
    /// more: they were answered, put on a reply (the peer's next frame
    /// follows their service), or taken back.
    fn settle_owed(&self, writes: u64) {
        if writes > 0 {
            self.owed_writes.fetch_sub(writes, Ordering::SeqCst);
        }
    }

    /// Puts `unserved` back at the front of the deferred touches: a frame
    /// carried them and they were not served.
    fn put_back(&self, unserved: Touches) {
        if !unserved.is_empty() {
            self.deferred.lock().prepend(unserved);
        }
    }

    /// `Ok` unless deferring has stopped; else why, as the failure of
    /// whatever is asked of the endpoint now.
    fn still_deferring(&self) -> Result<(), RpcError> {
        match self.stopped.get() {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }

    /// Stops deferring for `error` (the first reason stands); the error to
    /// hand to the caller that found out.
    fn stop(&self, error: RpcError) -> RpcError {
        let _ = self.stopped.set(error.clone());
        error
    }

    /// Stops deferring because a touch failed with `error`.
    fn touch_failed(&self, error: String) -> RpcError {
        self.stop(RpcError::Remote(error))
    }

    /// Serves the touches the peer deferred onto a reply, on the caller's
    /// thread, before the caller goes on with the reply.
    fn serve_peers_touches(&self, touches: &Touches) -> Result<(), RpcError> {
        if touches.is_empty() {
            return Ok(());
        }
        let served = touches.len() as u64;
        self.dispatcher
            .dispatch_touches(touches)
            .map_err(|failure| self.touch_failed(failure.message))?;
        self.requests_served.fetch_add(served, Ordering::Relaxed);
        Ok(())
    }

    /// The stamp for an outgoing frame, read now, when GC is attached.
    fn lease_stamp(&self) -> Option<LeaseStamp> {
        self.gc.get().map(|h| LeaseStamp {
            epoch: h.imports.advertised_epoch(),
            writes: h.writes.get(),
        })
    }

    /// Registers a caller for `seq`.
    fn register(&self, seq: u64) -> Result<Arc<CallSlot>, RpcError> {
        let mut pending = self.pending.lock();
        if pending.closed {
            return Err(RpcError::Disconnected);
        }
        let slot = Arc::new(CallSlot {
            state: Mutex::new(SlotState {
                outcome: None,
                give_up_at: pending.drain_until,
                asleep: false,
            }),
            changed: Condvar::new(),
        });
        pending.slots.insert(seq, Arc::clone(&slot));
        Ok(slot)
    }

    /// The caller of `seq` is done waiting, answered or not.
    fn forget(&self, seq: u64) {
        let mut pending = self.pending.lock();
        pending.slots.remove(&seq);
        self.close_if_drained(&mut pending);
    }

    /// Shutdown began: outstanding calls get `drain_timeout` to be
    /// answered — each caller enforces that bound on its own wait, so no
    /// thread has to watch the clock — and the endpoint closes as soon as
    /// none is left. `false` if the endpoint was already draining or closed.
    fn begin_drain(&self) -> bool {
        let mut pending = self.pending.lock();
        if pending.closed || pending.drain_until.is_some() {
            return false;
        }
        let deadline = Instant::now() + self.drain_timeout;
        pending.drain_until = Some(deadline);
        for slot in pending.slots.values() {
            slot.give_up_at(deadline);
        }
        self.close_if_drained(&mut pending);
        self.settled.notify_all();
        true
    }

    fn close_if_drained(&self, pending: &mut Pending) {
        if pending.drain_until.is_some() && pending.slots.is_empty() {
            self.close(pending);
        }
    }

    /// Fails every outstanding call fast, hands [`Endpoint::on_close`]'s
    /// task to a worker, and lets the workers of a pool of its own run out:
    /// each finishes what is queued, then exits.
    fn close(&self, pending: &mut Pending) {
        if std::mem::replace(&mut pending.closed, true) {
            return;
        }
        for (_, slot) in pending.slots.drain() {
            slot.complete(Err(RpcError::Disconnected));
        }
        if let Some(then) = pending.on_close.take() {
            self.pool.run(None, then);
        }
        if self.owns_pool {
            self.pool.close();
        }
        *self.out.lock() = None;
        self.settled.notify_all();
    }

    /// Counts what the responder made of a request that arrived with
    /// `touches` deferred touches; the frame to send, if any (the first
    /// copy's reply answers a duplicate still in flight).
    fn account(&self, served: Served, touches: u64) -> Option<Vec<u8>> {
        match served {
            Served::Executed(frame) => {
                self.requests_served
                    .fetch_add(1 + touches, Ordering::Relaxed);
                Some(frame)
            }
            Served::Replayed(frame) => {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                Some(frame)
            }
            Served::InFlight => {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Serves request `body`, which `client` sent as its `seq`-th with
    /// `header`, on a worker of the pool; the reply frame to send, if any.
    pub(crate) fn serve(
        &self,
        client: u64,
        seq: u64,
        body: Request,
        header: FrameHeader,
    ) -> Option<Vec<u8>> {
        let touches = header.deferred.len() as u64;
        // An operational request (a probe, a scrape, a renewal) is served
        // outside the two VMs' turns: what the turn's holder deferred waits
        // for the turn's own next frame.
        let in_turn = !is_idempotent(&body);
        let served =
            self.responder
                .respond(self.dispatcher.as_ref(), header, client, seq, body, || {
                    let deferred = if in_turn {
                        self.take_deferred()
                    } else {
                        Touches::default()
                    };
                    self.settle_owed(deferred.slot_writes());
                    (self.lease_stamp(), deferred)
                });
        self.account(served, touches)
    }
}

impl FrameSink for Shared {
    fn deliver(&self, frame: Vec<u8>) -> Delivered {
        let Ok((header, message)) = Message::decode_framed(&frame) else {
            // Malformed frame (truncated, corrupted, wrong version): count
            // and drop it; retries recover the request.
            self.bad_frames.fetch_add(1, Ordering::Relaxed);
            return Delivered::Kept;
        };
        if let Some(stamp) = header.lease {
            // The peer's lease stamp rides every frame: renewing here,
            // before dispatch, is what makes ordinary traffic keep this
            // side's exports alive with no dedicated GC messages.
            if let Some(hooks) = self.gc.get() {
                hooks.exports.renew(stamp.epoch);
            }
            // Likewise before the request is served or the caller sees its
            // reply: whatever this side does next, it knows the peer wrote.
            // Monotone, so a delayed duplicate or a replayed reply, whose
            // count is an older one, changes nothing.
            self.peer_writes
                .fetch_max(stamp.writes.saturating_add(1), Ordering::SeqCst);
        }
        match message {
            Message::Request {
                body: Request::Shutdown,
                ..
            } => {
                // Fire-and-forget: the sender does not wait for a reply.
                self.begin_drain();
            }
            Message::Request { seq, client, body } => {
                // Closed, the endpoint serves nothing more.
                let (Some(endpoint), Some(out)) = (self.me.upgrade(), self.out.lock().clone())
                else {
                    return Delivered::Kept;
                };
                let job = Job {
                    from: Some(out),
                    work: Work::Serve(endpoint, client, seq, body, header),
                };
                return self.pool.submit(job).unwrap_or_else(|| {
                    // Nobody ever will serve it: this endpoint cannot serve.
                    self.close(&mut self.pending.lock());
                    Delivered::Kept
                });
            }
            Message::Reply { seq, result } => {
                let slot = {
                    let mut pending = self.pending.lock();
                    let slot = pending.slots.remove(&seq);
                    if slot.is_some() {
                        self.close_if_drained(&mut pending);
                    }
                    slot
                };
                if let Some(slot) = slot {
                    slot.complete(Ok((result, header.deferred)));
                    return Delivered::Reply;
                }
                if self.late_expected.lock().remove(&seq) {
                    // The caller already gave up on this sequence number:
                    // account for the straggler instead of losing it
                    // silently. (Replies to retried calls never land here
                    // — retries keep their slot registered.)
                    self.late_replies.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        Delivered::Kept
    }

    fn closed(&self) {
        self.close(&mut self.pending.lock());
    }
}

/// One VM's side of the RPC connection.
pub struct Endpoint {
    session: Session,
    params: CommParams,
    clock: Arc<NetClock>,
    next_seq: AtomicU64,
    client_id: u64,
    config: EndpointConfig,
    retries: AtomicU64,
    /// See [`Endpoint::requests`].
    requests: AtomicU64,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("workers", &self.config.workers)
            .field("closing", &self.shared.pending.lock().drain_until.is_some())
            .finish()
    }
}

impl Endpoint {
    /// Starts an endpoint: attaches it to `session` as the consumer of its
    /// inbound frames. No thread is spawned here; the endpoint's own pool
    /// grows workers as requests need them (see
    /// [`EndpointConfig::workers`]). The endpoint serves its peer until
    /// [`Endpoint::shutdown`] or until the peer hangs up, whether or not the
    /// returned handle is kept.
    ///
    /// `dispatcher` serves the peer's requests; `clock` accumulates
    /// simulated link time priced by `params`. Whatever thread serves for
    /// this endpoint records its spans on the caller's lane.
    pub fn start(
        session: Session,
        params: CommParams,
        clock: Arc<NetClock>,
        dispatcher: Arc<dyn Dispatcher>,
        config: EndpointConfig,
    ) -> Arc<Endpoint> {
        let pool = WorkerPool::new("rpc-worker", aide_telemetry::current_lane(), config.workers);
        Endpoint::serving(pool, true, session, params, clock, dispatcher, config)
    }

    /// Starts an endpoint as [`start`](Endpoint::start) does, served by
    /// `pool`, which other endpoints may share (`config.workers` goes
    /// unread). The pool's worker that replies on a carrier reads the
    /// carrier's next request, whichever of the pool's endpoints it is for.
    pub fn start_on(
        pool: &Arc<WorkerPool>,
        session: Session,
        params: CommParams,
        clock: Arc<NetClock>,
        dispatcher: Arc<dyn Dispatcher>,
        config: EndpointConfig,
    ) -> Arc<Endpoint> {
        let pool = Arc::clone(pool);
        Endpoint::serving(pool, false, session, params, clock, dispatcher, config)
    }

    fn serving(
        pool: Arc<WorkerPool>,
        owns_pool: bool,
        session: Session,
        params: CommParams,
        clock: Arc<NetClock>,
        dispatcher: Arc<dyn Dispatcher>,
        config: EndpointConfig,
    ) -> Arc<Endpoint> {
        let shared = Arc::new_cyclic(|me| Shared {
            me: me.clone(),
            pending: Mutex::default(),
            settled: Condvar::new(),
            late_expected: Mutex::new(HashSet::new()),
            pool,
            owns_pool,
            out: Mutex::new(Some(session.clone())),
            dispatcher,
            responder: Responder::new(DEDUP_CAPACITY),
            drain_timeout: config.drain_timeout,
            requests_served: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            late_replies: AtomicU64::new(0),
            bad_frames: AtomicU64::new(0),
            gc: OnceLock::new(),
            peer_writes: AtomicU64::new(0),
            owed_writes: AtomicU64::new(0),
            deferred: Mutex::default(),
            stopped: OnceLock::new(),
        });

        // From here on every producer of `session`'s inbound frames runs
        // the endpoint itself; what queued before is delivered first.
        session.attach_sink(shared.clone());
        Arc::new(Endpoint {
            session,
            params,
            clock,
            next_seq: AtomicU64::new(0),
            client_id: NEXT_CLIENT_ID.fetch_add(1, Ordering::Relaxed),
            config,
            retries: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            shared,
        })
    }

    /// Runs `then` on a worker of the endpoint's shared pool
    /// ([`start_on`](Endpoint::start_on)) once the endpoint has closed — the
    /// peer hung up or shut it down, its carrier died, or its own drain
    /// ended — or at once, if it has. That worker holds no read half, so
    /// `then` may write (a [`join`](Endpoint::join), say).
    pub fn on_close(&self, then: impl FnOnce() + Send + 'static) {
        let mut pending = self.shared.pending.lock();
        if pending.closed {
            drop(pending);
            self.shared.pool.run(None, then);
        } else {
            pending.on_close = Some(Box::new(then));
        }
    }

    /// Wires this endpoint into distributed GC lease maintenance.
    ///
    /// After this call every outgoing frame (request or reply) is stamped
    /// with `imports`' advertised lease epoch and with `writes`, the local
    /// VM's slot-write count, and every stamped incoming frame renews
    /// `exports`' current-epoch leases — so steady-state RPC traffic keeps
    /// cross-VM references alive with no extra messages. An endpoint is
    /// wired to one pair of tables and one VM for life: a second call
    /// changes nothing.
    pub fn attach_gc(
        &self,
        exports: Arc<ExportTable>,
        imports: Arc<ImportTable>,
        writes: Arc<SlotWrites>,
    ) {
        let _ = self.shared.gc.set(GcHooks {
            exports,
            imports,
            writes,
        });
    }

    /// The highest slot-write count the peer has put on a frame so far,
    /// plus the slot writes deferred to it and not yet answered — the count
    /// as it will stand once the peer has served them; `None` while it has
    /// sent none (it has no tables attached). Whatever this side read of the
    /// peer's slots while the count stood where it stands now is still what
    /// they hold, short of what this side wrote since.
    pub fn peer_writes(&self) -> Option<u64> {
        let heard = self
            .shared
            .peer_writes
            .load(Ordering::SeqCst)
            .checked_sub(1)?;
        Some(heard + self.shared.owed_writes.load(Ordering::SeqCst))
    }

    /// Number of requests this endpoint has served for its peer.
    ///
    /// Retries absorbed by the at-most-once cache are *not* counted here —
    /// this is the number of actual dispatcher executions.
    pub fn requests_served(&self) -> u64 {
        self.shared.requests_served.load(Ordering::Relaxed)
    }

    /// The pool that serves this endpoint's peer: the endpoint's own, or the
    /// one it was started on ([`start_on`](Endpoint::start_on)).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.shared.pool
    }

    /// Process-unique id stamped into every request this endpoint sends;
    /// the serving side keys its at-most-once cache by `(client_id, seq)`.
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// Number of request frames this endpoint re-sent from
    /// [`call_with_retry`](Endpoint::call_with_retry).
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Requests this endpoint sent and saw through: each call once, however
    /// many attempts it took and whether or not it failed; each deferred
    /// touch as it is queued; each answered probe.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Number of duplicate requests absorbed by the at-most-once cache
    /// while serving the peer (dropped in-flight or answered from the
    /// memoized reply).
    pub fn dedup_hits(&self) -> u64 {
        self.shared.dedup_hits.load(Ordering::Relaxed)
    }

    /// Number of replies that arrived after their caller had already timed
    /// out. Before the retry layer these were silently dropped; now they
    /// are accounted for, and retries (which keep the original sequence
    /// number registered) consume them directly.
    pub fn late_replies(&self) -> u64 {
        self.shared.late_replies.load(Ordering::Relaxed)
    }

    /// Number of frames that failed to decode (truncated, corrupted, or
    /// wrong protocol version) and were discarded.
    pub fn bad_frames(&self) -> u64 {
        self.shared.bad_frames.load(Ordering::Relaxed)
    }

    /// The shared simulated-communication clock.
    pub fn clock(&self) -> &Arc<NetClock> {
        &self.clock
    }

    /// Real traffic statistics of this endpoint's session.
    pub fn traffic(&self) -> &Arc<crate::link::TrafficStats> {
        self.session.stats()
    }

    /// Which backend this endpoint's session rides on.
    pub fn backend(&self) -> BackendKind {
        self.session.backend()
    }

    /// Sends `request` to the peer and blocks until its reply arrives,
    /// charging simulated link time for the round trip. Unless the request
    /// is an operational one (a probe, a scrape, a renewal), the touches
    /// deferred so far ride its frame.
    ///
    /// # Errors
    ///
    /// [`RpcError::Remote`] if the peer reported an execution error or a
    /// deferred touch failed (now or before), [`RpcError::Disconnected`] /
    /// [`RpcError::Timeout`] on link failures.
    pub fn call(&self, request: Request) -> Result<Reply, RpcError> {
        let single_shot = RetryPolicy {
            max_attempts: 1,
            attempt_timeout: self.config.call_timeout,
            deadline: self.config.call_timeout,
            ..self.config.retry
        };
        self.round_trip(request, single_shot, false, false)
    }

    /// Like [`call`], but resends the request under the endpoint's
    /// [`RetryPolicy`] until a reply arrives, the attempt budget is spent,
    /// or the deadline passes.
    ///
    /// Every attempt reuses the *same* sequence number and client id, so:
    ///
    /// * the serving side's at-most-once cache recognises duplicates and
    ///   never executes a non-idempotent request twice — nor the touches
    ///   riding it;
    /// * the caller stays registered for the sequence number across
    ///   attempts, so a late reply to attempt *n* satisfies attempt *n+1*
    ///   directly instead of being discarded.
    ///
    /// Simulated link time is charged once for the logical round trip —
    /// retries model real-time recovery, not extra application traffic.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] once attempts or deadline are exhausted,
    /// [`RpcError::Disconnected`] if the link closes, [`RpcError::Remote`]
    /// if the peer executed the request and reported an error or a deferred
    /// touch failed.
    ///
    /// [`call`]: Endpoint::call
    pub fn call_with_retry(&self, request: Request) -> Result<Reply, RpcError> {
        self.round_trip(request, self.config.retry, true, false)
    }

    /// Sends `touch`, whose reply carries nothing
    /// ([`Request::is_deferrable`]), without waiting for it: it rides the
    /// header of the next frame this endpoint sends the peer, and the peer
    /// serves it before that frame's message. The link is charged for it
    /// now, as for the round trip it stands for. The touch that fills the
    /// queue to [`DEFER_LIMIT`] is [flushed](Endpoint::flush) with the rest.
    ///
    /// # Errors
    ///
    /// [`RpcError::Protocol`] for a request that is not such a touch. Once
    /// deferring has stopped — a touch failed ([`RpcError::Remote`]), a
    /// frame carrying touches got no answer, the touches were
    /// [taken back](Endpoint::take_deferred) ([`RpcError::Disconnected`]) —
    /// that error, the touch queued nonetheless for the next taker; what
    /// the flush of a full queue returns.
    pub fn defer(&self, touch: Request) -> Result<(), RpcError> {
        if !touch.is_deferrable() {
            let kind = touch.kind();
            return Err(RpcError::Protocol(format!("{kind} cannot be deferred")));
        }
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.charge(touch.crossing());
        if matches!(touch, Request::PutSlot { .. }) {
            self.shared.owed_writes.fetch_add(1, Ordering::SeqCst);
        }
        let full = {
            let mut deferred = self.shared.deferred.lock();
            deferred.push(&touch);
            deferred.len() >= DEFER_LIMIT
        };
        self.shared.still_deferring()?;
        if full {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Sends the deferred touches now and waits until the peer has served
    /// them: the last one as the request, the others riding its header.
    ///
    /// # Errors
    ///
    /// As [`call_with_retry`](Endpoint::call_with_retry); a failure the
    /// peer reports is a failed touch, so later calls fail with it too —
    /// and so does this once a touch has failed, with nothing left to send.
    pub fn flush(&self) -> Result<(), RpcError> {
        self.shared.still_deferring()?;
        let Some(last) = self.shared.deferred.lock().pop() else {
            return Ok(());
        };
        match self.round_trip(last, self.config.retry, true, true) {
            Ok(_) => Ok(()),
            Err(RpcError::Remote(error)) => Err(self.shared.touch_failed(error)),
            Err(e) => Err(e),
        }
    }

    /// Takes back the touches deferred and not yet served, oldest first:
    /// those queued, and those a frame carried and got no answer for (put
    /// back at the front, never sent again). For a peer that is gone:
    /// whoever serves them elsewhere serves these before anything newer.
    /// Deferring stops ([`RpcError::Disconnected`], unless it had stopped
    /// already).
    pub fn take_deferred(&self) -> Vec<Request> {
        // Stopped first: a touch queued after the take sees it.
        self.shared.stop(RpcError::Disconnected);
        let taken = self.shared.take_deferred();
        self.shared.settle_owed(taken.slot_writes());
        taken.to_vec()
    }

    /// [`take_deferred`](Endpoint::take_deferred), unless one of the
    /// touches queued is one `stays` holds for: then `None`, and they all
    /// stay queued, for a taker whose own call or defer finds deferring
    /// stopped ([`RpcError::Disconnected`]) all the same.
    pub fn take_deferred_unless(&self, stays: impl Fn(&Request) -> bool) -> Option<Vec<Request>> {
        self.shared.stop(RpcError::Disconnected);
        let (queued, taken) = {
            let mut deferred = self.shared.deferred.lock();
            let taken = deferred.to_vec();
            if taken.iter().any(stays) {
                return None;
            }
            (std::mem::take(&mut *deferred), taken)
        };
        self.shared.settle_owed(queued.slot_writes());
        Some(taken)
    }

    /// The calling half of the protocol: one logical round trip spending
    /// the attempt budget of `policy`. The single-shot form (`retried`
    /// false) is one `rpc.call` span; the retried form is an `rpc.retry`
    /// span whose attempts and backoffs are child spans. A `flushing` round
    /// trip sends a touch [`defer`](Endpoint::defer) has already charged.
    fn round_trip(
        &self,
        request: Request,
        policy: RetryPolicy,
        retried: bool,
        flushing: bool,
    ) -> Result<Reply, RpcError> {
        if let Err(e) = self.shared.still_deferring() {
            if flushing {
                self.shared.put_back([&request].into_iter().collect());
            }
            return Err(e);
        }
        let touches = if is_idempotent(&request) {
            Touches::default()
        } else {
            self.shared.take_deferred()
        };
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let name = if retried {
            span_names::RPC_RETRY
        } else {
            span_names::RPC_CALL
        };
        let mut span = aide_telemetry::span(name, "rpc");
        span.arg("kind", request.kind());
        span.arg("seq", seq);
        if !touches.is_empty() {
            span.arg("deferred", touches.len());
        }
        let crossing = request.crossing();
        let msg = Message::Request {
            seq,
            client: self.client_id,
            body: request,
        };

        // The touches the frame carried — and the request, if it was one —
        // back at the front of the queue, unanswered.
        let unanswered = || {
            let mut unanswered = touches.clone();
            if let (true, Message::Request { body, .. }) = (flushing, &msg) {
                unanswered.push(body);
            }
            self.shared.put_back(unanswered);
        };
        // A round trip the transport failed, named in its span. Touches it
        // carried may or may not have been served, so they are not sent
        // again: deferring stops, and they wait to be taken back.
        let fail = |mut span: aide_telemetry::SpanGuard, e: RpcError| {
            let outcome = match &e {
                RpcError::Timeout => "timeout",
                _ => "disconnected",
            };
            span.arg("outcome", outcome);
            if flushing || !touches.is_empty() {
                self.shared.stop(e.clone());
                unanswered();
            }
            Err(e)
        };
        let slot = match self.shared.register(seq) {
            Ok(slot) => slot,
            Err(e) => return fail(span, e),
        };
        let deadline = Instant::now() + policy.deadline;
        let mut jitter = policy.jitter(self.client_id, seq);
        let mut attempt: u32 = 0;
        let outcome = loop {
            attempt += 1;
            if attempt > 1 {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            // Each retried attempt is its own span and re-encodes the frame
            // under it, so the serving side parents its serve span on the
            // exact attempt that reached it — the payload bytes are
            // identical across attempts (same seq, same client, same
            // touches), only the trace context differs, so the at-most-once
            // dedup still works.
            let mut attempt_span = retried.then(|| {
                let mut attempt_span = aide_telemetry::span(span_names::RPC_ATTEMPT, "rpc");
                attempt_span.arg("attempt", attempt);
                attempt_span
            });
            let mut attempt_outcome = |outcome: &'static str| {
                if let Some(attempt_span) = attempt_span.as_mut() {
                    attempt_span.arg("outcome", outcome);
                }
            };
            if self.send_request(&msg, &touches).is_err() {
                if !retried {
                    // Nothing left this endpoint, so nothing completed: the
                    // single-shot form reports the dead link and no call.
                    self.shared.forget(seq);
                    return fail(span, RpcError::Disconnected);
                }
                attempt_outcome("disconnected");
                break Err(RpcError::Disconnected);
            }
            let wait = policy
                .attempt_timeout
                .min(deadline.saturating_duration_since(Instant::now()));
            match slot.wait(wait, self.session.carrier_reader()) {
                Ok(r) => {
                    attempt_outcome("ok");
                    break Ok(r);
                }
                Err(RpcError::Timeout) => {
                    attempt_outcome("timeout");
                    // Close the attempt before sleeping: the backoff is a
                    // sibling span, so attempt and backoff durations never
                    // overlap in the critical-path attribution.
                    drop(attempt_span);
                    let now = Instant::now();
                    if attempt >= policy.max_attempts || now >= deadline {
                        break Err(RpcError::Timeout);
                    }
                    let sleep = policy
                        .backoff
                        .delay(attempt - 1, &mut jitter)
                        .min(deadline.saturating_duration_since(now));
                    let mut backoff_span = aide_telemetry::span(span_names::RPC_BACKOFF, "rpc");
                    backoff_span.arg("micros", sleep.as_micros());
                    std::thread::sleep(sleep);
                }
                Err(_) => {
                    attempt_outcome("disconnected");
                    break Err(RpcError::Disconnected);
                }
            }
        };
        self.shared.forget(seq);
        // A flush sends a touch counted when it was deferred.
        if !flushing {
            self.requests.fetch_add(1, Ordering::Relaxed);
        }
        if retried {
            span.arg("attempts", attempt);
        }
        let (result, peers_touches) = match outcome {
            Ok(answer) => answer,
            Err(e) => {
                if e == RpcError::Timeout {
                    // Remember the abandoned sequence number so the sink
                    // can count the reply if it straggles in.
                    self.note_late_expected(seq);
                }
                return fail(span, e);
            }
        };
        // Refused, the frame served nothing, and what it carried is still
        // owed; otherwise none of it is owed any more.
        if let Ok(Reply::Busy { .. }) = result {
            unanswered();
        } else {
            self.shared.settle_owed(touches.slot_writes());
            if let (true, Message::Request { body, .. }) = (flushing, &msg) {
                let write = matches!(body, Request::PutSlot { .. });
                self.shared.settle_owed(u64::from(write));
            }
        }
        // A Busy reply is an answer, not a loss: it never burns another
        // attempt (the loop already broke on the reply) and surfaces as
        // its own error so placement can move the work elsewhere. A failed
        // touch surfaces as a remote error, now and from every later call.
        let reply = match result {
            Ok(Reply::Busy { retry_after_ms }) => Err(RpcError::Busy { retry_after_ms }),
            Ok(Reply::TouchFailed(error)) => Err(self.shared.touch_failed(error)),
            Ok(reply) => self
                .shared
                .serve_peers_touches(&peers_touches)
                .map(|()| reply),
            Err(msg) => Err(RpcError::Remote(msg)),
        };
        let outcome = match &reply {
            Ok(_) => "ok",
            Err(RpcError::Busy { .. }) => "busy",
            Err(_) => "remote_error",
        };
        span.arg("outcome", outcome);
        if !flushing {
            self.charge(crossing);
        }
        reply
    }

    /// Charges one logical round trip that put `crossing` on the link
    /// ([`Request::crossing`]) to the simulated link, at the price the
    /// emulator and the predictor pay for the same traffic.
    fn charge(&self, crossing: Crossing) {
        self.clock.add_round_trip(self.params.charge(crossing));
    }

    /// Encodes `msg` — under the ambient span, which the frame carries as
    /// its wire trace context, with this endpoint's lease stamp and with
    /// `touches` — and sends it.
    fn send_request(&self, msg: &Message, touches: &Touches) -> Result<(), RpcError> {
        let frame = msg.encode_queued(self.shared.lease_stamp(), touches);
        Ok(self.session.send(frame)?)
    }

    /// Marks `seq` as timed-out-but-possibly-answered, bounding the set so
    /// replies that never arrive cannot grow it without limit.
    fn note_late_expected(&self, seq: u64) {
        let mut late = self.shared.late_expected.lock();
        if late.len() >= LATE_SET_CAPACITY {
            late.clear();
        }
        late.insert(seq);
    }

    /// Sends a null RPC ([`Request::Ping`]) and measures the *real*
    /// round-trip time.
    ///
    /// Unlike [`call`], no simulated link time is charged and no round trip
    /// is recorded on the [`NetClock`]: probes are health measurements
    /// (surrogate discovery, heartbeats), not application communication, so
    /// they must not pollute virtual-time accounting.
    ///
    /// # Errors
    ///
    /// [`RpcError::Timeout`] if no reply arrives within `timeout`,
    /// [`RpcError::Disconnected`] if the link is down.
    ///
    /// [`call`]: Endpoint::call
    pub fn probe(&self, timeout: Duration) -> Result<Duration, RpcError> {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let slot = self.shared.register(seq)?;
        let ping = Message::Request {
            seq,
            client: self.client_id,
            body: Request::Ping,
        };
        let started = std::time::Instant::now();
        let outcome = self
            .send_request(&ping, &Touches::default())
            .and_then(|()| slot.wait(timeout, self.session.carrier_reader()));
        self.shared.forget(seq);
        outcome?.0.map_err(RpcError::Remote)?;
        let rtt = started.elapsed();
        self.requests.fetch_add(1, Ordering::Relaxed);
        Ok(rtt)
    }

    /// Initiates an orderly shutdown: starts the bounded drain —
    /// outstanding calls have [`EndpointConfig::drain_timeout`] left to be
    /// answered and fail fast after it — and tells the peer
    /// (fire-and-forget so a half-closed peer cannot stall us).
    pub fn shutdown(&self) {
        if !self.shared.begin_drain() {
            return; // already draining (perhaps at the peer's request) or closed
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let frame = Message::Request {
            seq,
            client: self.client_id,
            body: Request::Shutdown,
        }
        .encode();
        let _ = self.session.send(frame);
    }

    /// Waits for the endpoint to wind down: until the drain that
    /// [`shutdown`] (or the peer's `Shutdown` frame) began has finished or
    /// the peer hung up, then for the workers of a pool of its own. After
    /// [`shutdown`] this
    /// returns within roughly [`EndpointConfig::drain_timeout`] even if the
    /// peer is dead or never acknowledges — the drain has a deadline, not
    /// just an idle condition.
    ///
    /// [`shutdown`]: Endpoint::shutdown
    pub fn join(&self) {
        {
            let mut pending = self.shared.pending.lock();
            while !pending.closed {
                pending = match pending.drain_until {
                    None => self.shared.settled.wait(pending),
                    Some(deadline) => {
                        let now = Instant::now();
                        if now >= deadline {
                            self.shared.close(&mut pending);
                            break;
                        }
                        self.shared.settled.wait_timeout(pending, deadline - now).0
                    }
                };
            }
        }
        // Closed: a pool of its own spawns nothing any more, so these are
        // all there are; once they have exited, everything served for this
        // endpoint is in the span store.
        if self.shared.owns_pool {
            self.shared.pool.join();
        }
        self.session.detach_sink();
        // Tell a multiplexed carrier this logical session is finished so
        // the mux can free its route (no-op on direct channel sessions).
        self.session.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use aide_vm::{ClassId, MethodId, NativeKind, ObjectId, ObjectRecord};

    /// A dispatcher that answers ClassOf with a fixed class and echoes slot
    /// reads, failing on unknown objects.
    struct TestDispatcher {
        known: ObjectId,
    }

    impl Dispatcher for TestDispatcher {
        fn dispatch(&self, request: Request) -> Result<Reply, String> {
            match request {
                Request::ClassOf { target } if target == self.known => Ok(Reply::Class(ClassId(7))),
                Request::ClassOf { target } => Err(format!("dangling {target}")),
                Request::GetSlot { .. } => Ok(Reply::Slot(Some(self.known))),
                Request::FieldAccess { .. } => Ok(Reply::Unit),
                Request::Native { .. } => Ok(Reply::Unit),
                _ => Ok(Reply::Unit),
            }
        }
    }

    fn pair() -> (Arc<Endpoint>, Arc<Endpoint>) {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let d1 = Arc::new(TestDispatcher {
            known: ObjectId::client(1),
        });
        let d2 = Arc::new(TestDispatcher {
            known: ObjectId::surrogate(2),
        });
        let client = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            d1,
            EndpointConfig::default(),
        );
        let surrogate = Endpoint::start(st, link.params, clock, d2, EndpointConfig::default());
        (client, surrogate)
    }

    #[test]
    fn request_reply_round_trip() {
        let (client, surrogate) = pair();
        let reply = client
            .call(Request::ClassOf {
                target: ObjectId::surrogate(2),
            })
            .unwrap();
        assert_eq!(reply, Reply::Class(ClassId(7)));
        assert_eq!(surrogate.requests_served(), 1);
    }

    #[test]
    fn remote_errors_are_propagated() {
        let (client, _surrogate) = pair();
        let err = client
            .call(Request::ClassOf {
                target: ObjectId::surrogate(99),
            })
            .unwrap_err();
        match err {
            RpcError::Remote(msg) => assert!(msg.contains("dangling")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn concurrent_calls_are_correlated() {
        let (client, _surrogate) = pair();
        let client = Arc::new(client);
        let mut joins = Vec::new();
        for _ in 0..8 {
            let c = client.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let reply = c
                        .call(Request::GetSlot {
                            target: ObjectId::surrogate(2),
                            slot: 0,
                        })
                        .unwrap();
                    assert_eq!(reply, Reply::Slot(Some(ObjectId::surrogate(2))));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    /// A call charges the link what the emulator charges a remote
    /// interaction carrying the bytes the monitor records for it —
    /// `CommParams::charge(Crossing::Calls { count: 1, bytes })` — and a
    /// `MigratePrepare` streams the footprints the offload reports as
    /// `bytes_moved`. No header is charged.
    #[test]
    fn link_time_is_charged_per_round_trip() {
        let target = ObjectId::surrogate(2);
        let access = |bytes, write| Request::FieldAccess {
            target,
            bytes,
            write,
        };
        let statics = |bytes, write| Request::StaticAccess {
            accessor: ClassId(1),
            class: ClassId(2),
            bytes,
            write,
        };
        // Each request beside the payload the VM's monitor records for the
        // same interaction (`Interaction::bytes`, `on_native`,
        // `on_static_access`); a null read is one round trip and nothing
        // more.
        let interactions = [
            (access(0, false), 0),
            (access(4_096, false), 4_096),
            (access(512, true), 512),
            (
                Request::Invoke {
                    target,
                    class: ClassId(1),
                    method: MethodId(0),
                    arg_bytes: 1_000,
                    ret_bytes: 500,
                    args: vec![ObjectId::client(1), ObjectId::client(2)],
                },
                1_500,
            ),
            (Request::GetSlot { target, slot: 0 }, 8),
            (
                Request::PutSlot {
                    target,
                    slot: 0,
                    value: Some(ObjectId::client(1)),
                },
                8,
            ),
            (
                Request::Native {
                    caller: ClassId(1),
                    kind: NativeKind::FileIo,
                    work_micros: 10,
                    arg_bytes: 64,
                    ret_bytes: 256,
                },
                320,
            ),
            (statics(128, false), 128),
            (statics(128, true), 128),
            (Request::ClassOf { target }, 0),
        ];
        let (client, _surrogate) = pair();
        let params = CommParams::WAVELAN;
        for (request, bytes) in interactions {
            let kind = request.kind();
            let emulated = params.charge(Crossing::Calls { count: 1, bytes });
            let (before, trips) = (client.clock().seconds(), client.clock().round_trips());
            client.call(request.clone()).unwrap();
            assert_eq!(
                client.clock().seconds(),
                before + emulated,
                "{kind} of {bytes} B"
            );
            assert_eq!(client.clock().round_trips(), trips + 1, "{kind}");
            // A touch not waited for is charged the same, when deferred.
            if request.is_deferrable() {
                let before = client.clock().seconds();
                client.defer(request).unwrap();
                assert_eq!(
                    client.clock().seconds(),
                    before + emulated,
                    "deferred {kind}"
                );
            }
        }
        client.flush().unwrap();

        let rec = ObjectRecord::new(ClassId(1), 984, 0); // footprint 1 000
        let objects: Vec<_> = (0..3).map(|i| (ObjectId::client(i), rec.clone())).collect();
        let bytes_moved: u64 = objects.iter().map(|(_, rec)| rec.footprint()).sum();
        let before = client.clock().seconds();
        client
            .call(Request::MigratePrepare { txn: 1, objects })
            .unwrap();
        let streamed = params.charge(Crossing::Stream { bytes: bytes_moved });
        assert_eq!(client.clock().seconds(), before + streamed);
        assert_eq!(streamed, 1.2e-3 + (3_000.0 * 8.0) / 11.0e6);
    }

    #[test]
    fn an_endpoint_counts_its_own_requests() {
        let (ours, _peer) = pair();
        let (other, _its_peer) = pair();
        let access = Request::FieldAccess {
            target: ObjectId::surrogate(2),
            bytes: 100,
            write: false,
        };
        ours.call(access.clone()).unwrap();
        ours.defer(access.clone()).unwrap();
        ours.defer(access).unwrap();
        ours.flush().unwrap();
        let dangling = Request::ClassOf {
            target: ObjectId::surrogate(9),
        };
        assert!(matches!(ours.call(dangling), Err(RpcError::Remote(_))));
        // Three accesses, the last deferred one riding the flush, and a
        // failed call: four requests.
        assert_eq!(ours.requests(), 4);
        // An endpoint beside it in the process counted none of that.
        assert_eq!(other.requests(), 0);
    }

    #[test]
    fn payload_bytes_stretch_link_time() {
        let (client, _surrogate) = pair();
        let before = client.clock().seconds();
        client
            .call(Request::FieldAccess {
                target: ObjectId::surrogate(2),
                bytes: 1_100_000, // ~0.8 s at 11 Mbps
                write: false,
            })
            .unwrap();
        let delta = client.clock().seconds() - before;
        assert!(delta > 0.75, "expected ~0.8 s of link time, got {delta}");
    }

    #[test]
    fn shutdown_stops_both_endpoints() {
        let (client, surrogate) = pair();
        client.shutdown();
        surrogate.shutdown();
        client.join();
        surrogate.join();
    }

    #[test]
    fn calls_after_peer_death_fail_fast() {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let client = Endpoint::start(
            ct,
            link.params,
            clock,
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig {
                workers: 2,
                call_timeout: Duration::from_millis(200),
                drain_timeout: Duration::from_millis(200),
                ..EndpointConfig::default()
            },
        );
        drop(st); // peer never existed
        let err = client
            .call(Request::ClassOf {
                target: ObjectId::surrogate(0),
            })
            .unwrap_err();
        assert!(matches!(err, RpcError::Disconnected | RpcError::Timeout));
    }

    #[test]
    fn probe_measures_rtt_without_charging_link_time() {
        let (client, surrogate) = pair();
        let before_seconds = client.clock().seconds();
        let before_trips = client.clock().round_trips();
        client.probe(Duration::from_secs(2)).unwrap();
        assert_eq!(client.clock().seconds(), before_seconds);
        assert_eq!(client.clock().round_trips(), before_trips);
        assert_eq!(surrogate.requests_served(), 1);
    }

    #[test]
    fn probe_times_out_against_a_silent_peer() {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let client = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig::default(),
        );
        // `st` is alive but nothing serves it: the probe must not hang.
        let err = client.probe(Duration::from_millis(100)).unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        // A probe opens no span and this endpoint has no lease to stamp:
        // what it sent is, byte for byte, `Message::encode` of the message.
        let sent = st.recv().unwrap();
        let ping = Message::decode(&sent).expect("the probe frame decodes");
        assert!(matches!(
            ping,
            Message::Request { client: id, body: Request::Ping, .. } if id == client.client_id()
        ));
        assert_eq!(sent, ping.encode());
    }

    #[test]
    fn join_is_bounded_when_peer_never_acks_with_calls_in_flight() {
        let (link, ct, _st) = Link::pair(CommParams::WAVELAN);
        let client = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig {
                workers: 2,
                call_timeout: Duration::from_secs(30),
                drain_timeout: Duration::from_millis(100),
                ..EndpointConfig::default()
            },
        );
        // A call that will never be answered: the peer transport is held
        // open (so the link is up) but nothing serves it.
        let caller = {
            let c = client.clone();
            std::thread::spawn(move || {
                c.call(Request::ClassOf {
                    target: ObjectId::surrogate(0),
                })
                .unwrap_err()
            })
        };
        // Let the call get in flight before shutting down.
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        client.shutdown();
        client.join();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "join must be bounded by the drain deadline, took {:?}",
            started.elapsed()
        );
        // The abandoned caller fails fast once the drain deadline passes.
        let err = caller.join().unwrap();
        assert!(matches!(err, RpcError::Disconnected | RpcError::Timeout));
    }

    #[test]
    fn shutdown_with_idle_peer_joins_promptly() {
        let (client, surrogate) = pair();
        let started = std::time::Instant::now();
        client.shutdown();
        client.join();
        surrogate.join();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "both sides wound down, took {:?}",
            started.elapsed()
        );
    }

    /// A dispatcher whose every execution takes `delay` of wall time.
    struct SlowDispatcher {
        delay: Duration,
    }

    impl Dispatcher for SlowDispatcher {
        fn dispatch(&self, _request: Request) -> Result<Reply, String> {
            std::thread::sleep(self.delay);
            Ok(Reply::Unit)
        }
    }

    #[test]
    fn a_retried_call_backs_off_as_the_default_policy_always_has() {
        // The first eight backoffs of the first call (sequence number 0) of
        // a process's first endpoint (client id 1) under the default
        // policy, in nanoseconds. The failover
        // gate shares `BackoffConfig::delay`; pinned, neither caller's
        // sleeps can move when the other's needs change it.
        let policy = RetryPolicy::default();
        let mut jitter = policy.jitter(1, 0);
        let delays: Vec<u128> = (0..8)
            .map(|retry| policy.backoff.delay(retry, &mut jitter).as_nanos())
            .collect();
        assert_eq!(
            delays,
            [
                22_282_526,
                41_246_670,
                80_660_943,
                210_888_623,
                439_830_674,
                791_875_380,
                1_092_378_163,
                1_211_221_778,
            ]
        );
    }

    #[test]
    fn calls_of_one_seq_on_two_endpoints_back_off_apart() {
        // A stream keyed on the sequence number alone, against the default
        // seed, starts every endpoint's call 1 at xorshift state 1 (a first
        // backoff of exactly 0.75 × base), and equal-numbered calls on two
        // endpoints sleep alike.
        let policy = RetryPolicy::default();
        let first = |client, seq| policy.backoff.delay(0, &mut policy.jitter(client, seq));
        let state_one = Xorshift64::new(1).next_u64();
        for seq in 0..64 {
            for client in 1..8 {
                assert_ne!(
                    first(client, seq),
                    first(client + 1, seq),
                    "seq {seq}, client {client}"
                );
                assert_ne!(
                    policy.jitter(client, seq).next_u64(),
                    state_one,
                    "seq {seq}, client {client}"
                );
            }
        }
    }

    #[test]
    fn retry_reuses_the_sequence_number_and_executes_once() {
        // The surrogate is slower than one attempt timeout, so the first
        // attempt gives up and resends. Because the retry keeps the same
        // sequence number registered, the late reply to attempt 1
        // satisfies attempt 2, and the duplicate request is absorbed by
        // the at-most-once cache instead of executing twice.
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let client = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig {
                retry: RetryPolicy {
                    max_attempts: 8,
                    attempt_timeout: Duration::from_millis(100),
                    backoff: BackoffConfig {
                        base: Duration::from_millis(1),
                        ..RetryPolicy::default().backoff
                    },
                    deadline: Duration::from_secs(10),
                },
                ..EndpointConfig::default()
            },
        );
        let surrogate = Endpoint::start(
            st,
            link.params,
            clock,
            Arc::new(SlowDispatcher {
                delay: Duration::from_millis(350),
            }),
            EndpointConfig::default(),
        );
        let reply = client
            .call_with_retry(Request::FieldAccess {
                target: ObjectId::surrogate(1),
                bytes: 0,
                write: true,
            })
            .unwrap();
        assert_eq!(reply, Reply::Unit);
        assert!(client.retries() >= 1, "expected at least one resend");
        assert_eq!(
            surrogate.requests_served(),
            1,
            "the request must execute exactly once"
        );
        assert!(
            surrogate.dedup_hits() >= 1,
            "duplicates must be absorbed by the cache"
        );
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn duplicated_requests_execute_once() {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let (ct, _chaos_stats) = crate::chaos::chaos_wrap(
            ct,
            crate::chaos::ChaosSchedule {
                duplicate: 1.0,
                ..crate::chaos::ChaosSchedule::seeded(11)
            },
        );
        let client = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig::default(),
        );
        let surrogate = Endpoint::start(
            st,
            link.params,
            clock,
            Arc::new(TestDispatcher {
                known: ObjectId::surrogate(2),
            }),
            EndpointConfig::default(),
        );
        for _ in 0..20 {
            let reply = client
                .call(Request::GetSlot {
                    target: ObjectId::surrogate(2),
                    slot: 0,
                })
                .unwrap();
            assert_eq!(reply, Reply::Slot(Some(ObjectId::surrogate(2))));
        }
        // Every request arrived twice; each logical request executed once
        // and its duplicate hit the cache — the last one possibly a moment
        // after its reply released the caller, on another worker.
        assert_eq!(surrogate.requests_served(), 20);
        let deadline = Instant::now() + Duration::from_secs(5);
        while surrogate.dedup_hits() < 20 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(surrogate.dedup_hits(), 20);
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn attached_gc_renews_leases_on_ordinary_traffic() {
        let (client, surrogate) = pair();
        let s_exports = Arc::new(ExportTable::new());
        let s_imports = Arc::new(ImportTable::new());
        s_exports.set_ttl_ms(100);
        surrogate.attach_gc(s_exports.clone(), s_imports, Arc::default());
        client.attach_gc(
            Arc::new(ExportTable::new()),
            Arc::new(ImportTable::new()),
            Arc::default(),
        );

        let id = ObjectId::surrogate(2);
        s_exports.export(id);
        s_exports.clock().advance_ms(90);
        // An ordinary request from the client carries its lease stamp; the
        // surrogate's sink renews its exports before dispatching, so
        // by the time the reply is back the lease is fresh.
        client
            .call(Request::GetSlot {
                target: id,
                slot: 0,
            })
            .unwrap();
        s_exports.clock().advance_ms(90);
        assert!(
            s_exports.sweep_expired().is_empty(),
            "ordinary traffic must renew the lease"
        );
        // Silence past the TTL expires it.
        s_exports.clock().advance_ms(200);
        assert_eq!(s_exports.sweep_expired(), vec![id]);
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn the_peers_write_count_rides_every_frame_and_only_rises() {
        use aide_vm::{MethodDef, ObjectRecord, ProgramBuilder, Vm, VmConfig};
        let (client, surrogate) = pair();
        // A surrogate VM that has written two slots.
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        b.add_method(main, MethodDef::new("main", vec![]));
        let program = Arc::new(b.build(main, aide_vm::MethodId(0), 0, 0).unwrap());
        let mut vm = Vm::new(program, VmConfig::surrogate(1 << 20));
        let id = ObjectId::surrogate(2);
        vm.heap_mut()
            .insert(id, ObjectRecord::new(ClassId(0), 0, 1))
            .unwrap();
        vm.put_slot_on(id, 0, Some(id)).unwrap();
        vm.put_slot_on(id, 0, None).unwrap();
        surrogate.attach_gc(
            Arc::new(ExportTable::new()),
            Arc::new(ImportTable::new()),
            vm.slot_writes().clone(),
        );

        assert_eq!(client.peer_writes(), None, "nothing heard yet");
        let read = Request::GetSlot {
            target: id,
            slot: 0,
        };
        client.call(read.clone()).unwrap();
        assert_eq!(client.peer_writes(), Some(2), "the reply carried it");
        // The client attached nothing: its requests carry no count.
        assert_eq!(surrogate.peer_writes(), None);

        vm.put_slot_on(id, 0, Some(id)).unwrap();
        client.call(read).unwrap();
        assert_eq!(client.peer_writes(), Some(3));
        // A straggler — a chaos duplicate, a replayed reply — with the
        // older count: absorbed, and nothing moves.
        let late = Message::Reply {
            seq: u64::MAX,
            result: Ok(Reply::Unit),
        }
        .encode_stamped(Some(LeaseStamp {
            epoch: 0,
            writes: 2,
        }));
        client.shared.deliver(late);
        assert_eq!(client.peer_writes(), Some(3));
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn serve_spans_adopt_the_callers_wire_context() {
        // Opened first: the endpoints' workers record on this thread's lane.
        let store = aide_telemetry::SpanStore::open();
        let (client, surrogate) = pair();
        let root = aide_telemetry::span("endpoint.test.root", "test");
        let root_ctx = root.context();
        client
            .call(Request::GetSlot {
                target: ObjectId::surrogate(2),
                slot: 0,
            })
            .unwrap();
        drop(root);
        // Joined, the endpoints' workers have closed every span they opened.
        client.shutdown();
        surrogate.shutdown();
        client.join();
        surrogate.join();
        let spans = store.drain();
        let serve = spans
            .iter()
            .find(|s| s.trace_id == root_ctx.trace_id && s.name == span_names::RPC_SERVE)
            .expect("the serving side must record a span in the caller's trace");
        let call = spans
            .iter()
            .find(|s| Some(s.span_id) == serve.parent_id)
            .expect("the serve span's parent must be in the same export");
        assert_eq!(call.name, span_names::RPC_CALL);
        assert_eq!(call.parent_id, Some(root_ctx.span_id));
        assert_eq!(serve.arg("kind"), Some("GetSlot"));
    }

    #[test]
    fn retry_attempts_get_their_own_spans_with_backoff() {
        let store = aide_telemetry::SpanStore::open();
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let client = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig {
                retry: RetryPolicy {
                    max_attempts: 8,
                    attempt_timeout: Duration::from_millis(80),
                    backoff: BackoffConfig {
                        base: Duration::from_millis(5),
                        ..RetryPolicy::default().backoff
                    },
                    deadline: Duration::from_secs(10),
                },
                ..EndpointConfig::default()
            },
        );
        let surrogate = Endpoint::start(
            st,
            link.params,
            clock,
            Arc::new(SlowDispatcher {
                delay: Duration::from_millis(250),
            }),
            EndpointConfig::default(),
        );
        let root = aide_telemetry::span("endpoint.test.retry", "test");
        let root_ctx = root.context();
        client
            .call_with_retry(Request::FieldAccess {
                target: ObjectId::surrogate(1),
                bytes: 0,
                write: true,
            })
            .unwrap();
        drop(root);
        client.shutdown();
        surrogate.shutdown();
        client.join();
        surrogate.join();
        let spans = store.drain();
        let ours: Vec<_> = spans
            .iter()
            .filter(|s| s.trace_id == root_ctx.trace_id)
            .collect();
        let attempts: Vec<_> = ours
            .iter()
            .filter(|s| s.name == span_names::RPC_ATTEMPT)
            .collect();
        assert!(
            attempts.len() >= 2,
            "a timed-out first attempt and a winning retry, got {}",
            attempts.len()
        );
        assert!(
            attempts.iter().any(|a| a.arg("outcome") == Some("timeout")),
            "the losing attempt must be visible"
        );
        assert!(
            attempts.iter().any(|a| a.arg("outcome") == Some("ok")),
            "the winning attempt must be visible"
        );
        assert!(
            ours.iter()
                .any(|s| s.name == span_names::RPC_BACKOFF && s.arg("micros").is_some()),
            "the backoff sleep must be recorded with its duration"
        );
        // The dedup absorption on the serving side lands in this trace too.
        assert!(
            ours.iter().any(|s| s.name == span_names::RPC_DEDUP),
            "the absorbed duplicate must be attributed to the originating trace"
        );
    }

    #[test]
    fn late_replies_are_counted_not_lost() {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let client = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig {
                call_timeout: Duration::from_millis(50),
                ..EndpointConfig::default()
            },
        );
        let surrogate = Endpoint::start(
            st,
            link.params,
            clock,
            Arc::new(SlowDispatcher {
                delay: Duration::from_millis(200),
            }),
            EndpointConfig::default(),
        );
        let err = client
            .call(Request::FieldAccess {
                target: ObjectId::surrogate(1),
                bytes: 0,
                write: false,
            })
            .unwrap_err();
        assert_eq!(err, RpcError::Timeout);
        // The reply straggles in ~150 ms after the caller gave up.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while client.late_replies() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(client.late_replies(), 1);
        client.shutdown();
        surrogate.shutdown();
    }

    /// Remembers the `bytes` of every field access it serves, in order.
    #[derive(Default)]
    struct OrderDispatcher {
        seen: Mutex<Vec<u32>>,
    }

    impl Dispatcher for OrderDispatcher {
        fn dispatch(&self, request: Request) -> Result<Reply, String> {
            if let Request::FieldAccess { bytes, .. } = request {
                self.seen.lock().push(bytes);
            }
            Ok(Reply::Unit)
        }
    }

    #[test]
    fn requests_queued_before_the_endpoint_started_are_served_first_in_order() {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let access = |bytes| Request::FieldAccess {
            target: ObjectId::surrogate(1),
            bytes,
            write: true,
        };
        // Three requests reach the session before anything serves it.
        for i in 0..3u32 {
            let early = Message::Request {
                seq: 100 + u64::from(i),
                client: 9,
                body: access(i),
            };
            ct.send(early.encode()).unwrap();
        }
        let order = Arc::new(OrderDispatcher::default());
        let surrogate = Endpoint::start(
            st,
            link.params,
            link.clock.clone(),
            order.clone(),
            EndpointConfig {
                workers: 1, // one worker: service order is queue order
                ..EndpointConfig::default()
            },
        );
        let client = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            Arc::new(OrderDispatcher::default()),
            EndpointConfig::default(),
        );
        client.call(access(3)).unwrap();
        assert_eq!(*order.seen.lock(), [0, 1, 2, 3]);
        // The three replies nobody waited for are neither late nor bad.
        assert_eq!(client.late_replies(), 0);
        assert_eq!(client.bad_frames(), 0);
        client.shutdown();
        surrogate.shutdown();
        client.join();
        surrogate.join();
    }

    #[test]
    fn outstanding_calls_fail_fast_when_the_peer_hangs_up() {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let client = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig::default(), // 30 s call timeout
        );
        let caller = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.call(Request::ClassOf {
                    target: ObjectId::surrogate(0),
                })
            })
        };
        // The request is in the peer's inbox once the call is in flight.
        let request = st.recv().unwrap();
        assert!(Message::decode(&request).is_ok());
        let started = Instant::now();
        drop(st);
        assert_eq!(caller.join().unwrap(), Err(RpcError::Disconnected));
        assert!(started.elapsed() < Duration::from_secs(5));
        // Later calls do not even try.
        assert_eq!(client.call(Request::Ping), Err(RpcError::Disconnected));
        client.join();
    }

    #[test]
    fn shutdown_fails_outstanding_calls_within_the_drain_timeout_without_a_join() {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let client = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            Arc::new(TestDispatcher {
                known: ObjectId::client(1),
            }),
            EndpointConfig {
                call_timeout: Duration::from_secs(30),
                drain_timeout: Duration::from_millis(100),
                ..EndpointConfig::default()
            },
        );
        let caller = {
            let client = client.clone();
            std::thread::spawn(move || {
                client.call(Request::ClassOf {
                    target: ObjectId::surrogate(0),
                })
            })
        };
        // The peer is up but never answers; its inbox holding the request
        // means the call is registered and waiting.
        st.recv().unwrap();
        let started = Instant::now();
        client.shutdown();
        // Nobody joins: the caller enforces the drain deadline itself.
        assert_eq!(caller.join().unwrap(), Err(RpcError::Disconnected));
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(100) && elapsed < Duration::from_secs(5),
            "let go after {elapsed:?}"
        );
        client.join();
    }

    /// Records the kind of everything it serves and the thread it served
    /// it on; fails a touch of surrogate object 404; and, serving an
    /// `Invoke`, defers a `Native` back through `back` — the endpoint it
    /// serves for, when set.
    #[derive(Default)]
    struct Recording {
        served: Mutex<Vec<&'static str>>,
        threads: Mutex<Vec<std::thread::ThreadId>>,
        back: OnceLock<Weak<Endpoint>>,
    }

    impl Dispatcher for Recording {
        fn dispatch(&self, request: Request) -> Result<Reply, String> {
            self.served.lock().push(request.kind());
            self.threads.lock().push(std::thread::current().id());
            match request {
                Request::FieldAccess { target, .. } if target == ObjectId::surrogate(404) => {
                    Err(format!("dangling {target}"))
                }
                Request::Invoke { .. } => {
                    if let Some(back) = self.back.get().and_then(Weak::upgrade) {
                        back.defer(Request::Native {
                            caller: ClassId(0),
                            kind: aide_vm::NativeKind::Math,
                            work_micros: 5,
                            arg_bytes: 8,
                            ret_bytes: 8,
                        })
                        .map_err(|e| e.to_string())?;
                    }
                    Ok(Reply::Unit)
                }
                _ => Ok(Reply::Unit),
            }
        }
    }

    /// A client and a surrogate endpoint in process, each serving through a
    /// [`Recording`]: the client's, then the surrogate's.
    fn recording_pair() -> (Arc<Endpoint>, Arc<Endpoint>, Arc<Recording>, Arc<Recording>) {
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let (at_client, at_surrogate) = (Arc::<Recording>::default(), Arc::<Recording>::default());
        let config = EndpointConfig::default();
        let client = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            at_client.clone(),
            config,
        );
        let surrogate = Endpoint::start(st, link.params, link.clock, at_surrogate.clone(), config);
        (client, surrogate, at_client, at_surrogate)
    }

    /// A field write to surrogate object `id`.
    fn touch(id: u64) -> Request {
        Request::FieldAccess {
            target: ObjectId::surrogate(id),
            bytes: 64,
            write: true,
        }
    }

    fn class_of(id: u64) -> Request {
        Request::ClassOf {
            target: ObjectId::surrogate(id),
        }
    }

    #[test]
    fn deferred_touches_ride_the_next_request_and_are_served_before_it() {
        let (client, surrogate, _, at_surrogate) = recording_pair();
        client.defer(touch(1)).unwrap();
        let write = Request::PutSlot {
            target: ObjectId::surrogate(1),
            slot: 0,
            value: None,
        };
        client.defer(write).unwrap();
        // Nothing has gone, and the link is charged for two round trips.
        assert_eq!(client.traffic().frames_sent(), 0);
        assert_eq!(surrogate.requests_served(), 0);
        assert_eq!(client.clock().round_trips(), 2);
        // A probe is no turn of the VMs: the touches stay where they are.
        client.call(Request::Ping).unwrap();
        assert_eq!(*at_surrogate.served.lock(), ["Ping"]);
        client.call(class_of(1)).unwrap();
        assert_eq!(
            *at_surrogate.served.lock(),
            ["Ping", "FieldAccess", "PutSlot", "ClassOf"]
        );
        assert_eq!(surrogate.requests_served(), 4);
        assert_eq!(client.traffic().frames_sent(), 2);
        assert_eq!(client.clock().round_trips(), 4);
        // A request that waits for its answer cannot be deferred.
        assert!(matches!(
            client.defer(class_of(1)),
            Err(RpcError::Protocol(_))
        ));
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn a_touch_deferred_while_serving_rides_the_reply_and_its_caller_serves_it() {
        let (client, surrogate, at_client, at_surrogate) = recording_pair();
        at_surrogate
            .back
            .set(Arc::downgrade(&surrogate))
            .expect("set once");
        let invoke = Request::Invoke {
            target: ObjectId::surrogate(1),
            class: ClassId(0),
            method: aide_vm::MethodId(0),
            arg_bytes: 0,
            ret_bytes: 0,
            args: Vec::new(),
        };
        client.call(invoke).unwrap();
        // Served before the call returned, on the thread that made it.
        assert_eq!(*at_client.served.lock(), ["Native"]);
        assert_eq!(*at_client.threads.lock(), [std::thread::current().id()]);
        assert_eq!(client.requests_served(), 1);
        assert_eq!(
            surrogate.traffic().frames_sent(),
            1,
            "the reply, and no call of the surrogate's own"
        );
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn an_invoke_served_off_a_header_knows_it_was_deferred() {
        /// Notes, for each `Invoke` it serves, which deferred one its thread
        /// says it is serving.
        #[derive(Default)]
        struct Noting(Mutex<Vec<Option<(ClassId, aide_vm::MethodId)>>>);
        impl Dispatcher for Noting {
            fn dispatch(&self, request: Request) -> Result<Reply, String> {
                if let Request::Invoke { .. } = request {
                    self.0.lock().push(crate::deferred_invoke_in_service());
                }
                Ok(Reply::Unit)
            }
        }
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let noting = Arc::<Noting>::default();
        let config = EndpointConfig::default();
        let client = Endpoint::start(ct, link.params, link.clock.clone(), noting.clone(), config);
        let surrogate = Endpoint::start(st, link.params, link.clock, noting.clone(), config);
        let invoke = |method| Request::Invoke {
            target: ObjectId::surrogate(1),
            class: ClassId(3),
            method: aide_vm::MethodId(method),
            arg_bytes: 0,
            ret_bytes: 0,
            args: Vec::new(),
        };
        client.defer(invoke(1)).unwrap();
        client.call(invoke(2)).unwrap();
        assert_eq!(
            *noting.0.lock(),
            [Some((ClassId(3), aide_vm::MethodId(1))), None],
            "the deferred one, then the one waited for"
        );
        assert_eq!(crate::deferred_invoke_in_service(), None);
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn a_failed_touch_fails_the_frame_that_carried_it_and_every_call_after() {
        let (client, surrogate, _, at_surrogate) = recording_pair();
        client.defer(touch(404)).unwrap();
        client.defer(touch(1)).unwrap();
        let failed = client.call(class_of(1)).unwrap_err();
        assert!(
            matches!(&failed, RpcError::Remote(msg)
                if msg.contains("deferred FieldAccess") && msg.contains("dangling")),
            "{failed:?}"
        );
        // Nothing after the failed touch ran.
        assert_eq!(*at_surrogate.served.lock(), ["FieldAccess"]);
        // Waited for, the touch would have ended the run: so it ends
        // whatever is asked next, and nothing more is sent.
        assert_eq!(client.call(class_of(1)).unwrap_err(), failed);
        assert_eq!(client.defer(touch(2)).unwrap_err(), failed);
        assert_eq!(client.flush().unwrap_err(), failed);
        assert_eq!(*at_surrogate.served.lock(), ["FieldAccess"]);
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn the_touch_that_fills_the_queue_goes_at_once_with_the_rest() {
        let (client, surrogate, _, at_surrogate) = recording_pair();
        // Objects past 404, the one whose touch fails.
        let last = 1_000 + DEFER_LIMIT as u64;
        for id in 1_001..last {
            client.defer(touch(id)).unwrap();
        }
        assert_eq!(surrogate.requests_served(), 0);
        assert_eq!(client.traffic().frames_sent(), 0);
        let charged = client.clock().round_trips();
        client.defer(touch(last)).unwrap();
        assert_eq!(surrogate.requests_served(), DEFER_LIMIT as u64);
        assert_eq!(at_surrogate.served.lock().len(), DEFER_LIMIT);
        // One frame carried them all, and the flush charged nothing more
        // than the touch that filled the queue.
        assert_eq!(client.traffic().frames_sent(), 1);
        assert_eq!(client.clock().round_trips(), charged + 1);
        assert!(client.take_deferred().is_empty());
        client.shutdown();
        surrogate.shutdown();
    }

    #[test]
    fn touches_nobody_answered_are_taken_back_in_order() {
        let (client, surrogate, ..) = recording_pair();
        client.defer(touch(1)).unwrap();
        // The peer goes; the frame carrying the touch gets no answer, and
        // the touch goes back to the front of the queue.
        surrogate.shutdown();
        surrogate.join();
        assert_eq!(client.call(class_of(1)), Err(RpcError::Disconnected));
        // Whether the peer served it is unknown, so it is not sent again:
        // deferring has stopped, and a touch now waits with it.
        assert_eq!(client.defer(touch(2)), Err(RpcError::Disconnected));
        assert_eq!(client.flush(), Err(RpcError::Disconnected));
        assert_eq!(client.take_deferred(), [touch(1), touch(2)]);
        // Taken back for good: a touch now is refused, and kept for the
        // next taker.
        assert_eq!(client.defer(touch(3)), Err(RpcError::Disconnected));
        assert_eq!(client.take_deferred(), [touch(3)]);
        client.join();
    }

    #[test]
    fn touches_one_of_which_must_stay_are_left_queued_and_deferring_stops() {
        let (client, surrogate, ..) = recording_pair();
        client.defer(touch(1)).unwrap();
        client.defer(touch(2)).unwrap();
        let is_touch_2 = |request: &Request| *request == touch(2);
        assert_eq!(client.take_deferred_unless(is_touch_2), None);
        assert_eq!(client.defer(touch(3)), Err(RpcError::Disconnected));
        assert_eq!(client.flush(), Err(RpcError::Disconnected));
        assert_eq!(client.take_deferred(), [touch(1), touch(2), touch(3)]);
        client.defer(touch(4)).unwrap_err();
        assert_eq!(
            client.take_deferred_unless(is_touch_2),
            Some(vec![touch(4)])
        );
        assert_eq!(client.take_deferred_unless(is_touch_2), Some(Vec::new()));
        client.shutdown();
        surrogate.shutdown();
    }

    /// Serves slot writes on a VM, which counts them; anything else is
    /// answered at once.
    struct SlotWriter {
        vm: Mutex<aide_vm::Vm>,
    }

    impl Dispatcher for SlotWriter {
        fn dispatch(&self, request: Request) -> Result<Reply, String> {
            match request {
                Request::PutSlot {
                    target,
                    slot,
                    value,
                } => self
                    .vm
                    .lock()
                    .put_slot_on(target, slot, value)
                    .map(|()| Reply::Unit)
                    .map_err(|e| e.to_string()),
                _ => Ok(Reply::Unit),
            }
        }
    }

    #[test]
    fn a_deferred_slot_write_counts_in_the_peers_write_count_at_once() {
        use aide_vm::{MethodDef, ObjectRecord, ProgramBuilder, Vm, VmConfig};
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        b.add_method(main, MethodDef::new("main", vec![]));
        let program = Arc::new(b.build(main, aide_vm::MethodId(0), 0, 0).unwrap());
        let mut vm = Vm::new(program, VmConfig::surrogate(1 << 20));
        let id = ObjectId::surrogate(2);
        vm.heap_mut()
            .insert(id, ObjectRecord::new(ClassId(0), 0, 1))
            .unwrap();
        let writes = vm.slot_writes().clone();
        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let config = EndpointConfig::default();
        let client = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            Arc::new(Recording::default()),
            config,
        );
        let surrogate = Endpoint::start(
            st,
            link.params,
            link.clock,
            Arc::new(SlotWriter { vm: Mutex::new(vm) }),
            config,
        );
        surrogate.attach_gc(
            Arc::new(ExportTable::new()),
            Arc::new(ImportTable::new()),
            writes,
        );
        client.call(class_of(2)).unwrap();
        assert_eq!(client.peer_writes(), Some(0));
        // Owed from the moment it is deferred: nothing the surrogate is
        // asked after it is served before it.
        let write = Request::PutSlot {
            target: id,
            slot: 0,
            value: Some(id),
        };
        client.defer(write.clone()).unwrap();
        client.defer(touch(2)).unwrap();
        assert_eq!(client.peer_writes(), Some(1));
        client.call(class_of(2)).unwrap();
        assert_eq!(client.peer_writes(), Some(1), "heard, no longer owed");
        // Taken back, a write is owed no more.
        client.defer(write).unwrap();
        assert_eq!(client.peer_writes(), Some(2));
        client.take_deferred();
        assert_eq!(client.peer_writes(), Some(1));
        client.shutdown();
        surrogate.shutdown();
    }
}
