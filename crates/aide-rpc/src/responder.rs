//! The serving half of the RPC protocol. An [`Endpoint`](crate::Endpoint)
//! decodes a frame, renews leases from its header, and a worker of its pool
//! hands the request to the endpoint's [`Responder`], which decides whether
//! it executes at all (at-most-once), runs the touches the caller deferred
//! onto the frame ([`Dispatcher::dispatch_touches`], all in one go) and then
//! the request through the [`Dispatcher`] under an
//! `rpc.serve` span parented on the caller's wire context — a panic in
//! there is the request's error reply — and encodes the stamped reply. It
//! runs on a thread that holds no carrier's read half — a worker lets go of
//! the half before it serves a request it read itself — so the dispatcher
//! may wait.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use aide_telemetry::span_names;
use aide_telemetry::sync::Mutex;
use aide_vm::{ClassId, MethodId};

use crate::endpoint::Dispatcher;
use crate::wire::{FrameHeader, LeaseStamp, Message, Reply, Request, Touches};

/// At-most-once execution cache, keyed by `(client id, sequence number)`.
///
/// A retried non-idempotent request ([`Request::Invoke`],
/// [`Request::MigrateCommit`], …) must never execute twice: the first
/// arrival marks the key in-flight and executes; duplicates arriving
/// during execution are dropped (the eventual reply answers every copy,
/// since retries share the sequence number); duplicates arriving after
/// completion are answered from the memoized reply frame.
struct DedupCache {
    capacity: usize,
    entries: Mutex<DedupInner>,
}

#[derive(Default)]
struct DedupInner {
    map: HashMap<(u64, u64), Option<Vec<u8>>>,
    fifo: VecDeque<(u64, u64)>,
}

impl DedupCache {
    fn new(capacity: usize) -> Self {
        DedupCache {
            capacity: capacity.max(1),
            entries: Mutex::new(DedupInner::default()),
        }
    }

    /// `None` on first sight of `key`, now marked in flight until
    /// [`complete`](DedupCache::complete); otherwise what the duplicate
    /// gets instead of an execution.
    fn begin(&self, key: (u64, u64)) -> Option<Served> {
        let mut inner = self.entries.lock();
        match inner.map.get(&key) {
            Some(None) => return Some(Served::InFlight),
            Some(Some(frame)) => return Some(Served::Replayed(frame.clone())),
            None => {}
        }
        if inner.fifo.len() >= self.capacity {
            // Evict the oldest *completed* entry; in-flight markers rotate
            // to the back so an executing request is never forgotten.
            for _ in 0..inner.fifo.len() {
                let oldest = inner.fifo.pop_front().expect("fifo non-empty");
                if matches!(inner.map.get(&oldest), Some(None)) {
                    inner.fifo.push_back(oldest);
                } else {
                    inner.map.remove(&oldest);
                    break;
                }
            }
        }
        inner.map.insert(key, None);
        inner.fifo.push_back(key);
        None
    }

    fn complete(&self, key: (u64, u64), reply_frame: Vec<u8>) {
        let mut inner = self.entries.lock();
        if let Some(slot) = inner.map.get_mut(&key) {
            *slot = Some(reply_frame);
        }
    }
}

/// Requests exempt from at-most-once bookkeeping: idempotent health and
/// introspection traffic that would otherwise churn the cache. Lease
/// renewals qualify — renewing twice is the same as renewing once. They are
/// also outside the two VMs' turns, so no deferred touch rides them.
pub(crate) fn is_idempotent(request: &Request) -> bool {
    matches!(
        request,
        Request::Ping | Request::Stats | Request::GcRenew { .. }
    )
}

/// What [`Responder::respond`] made of one request.
#[derive(Debug)]
pub enum Served {
    /// First sight of the request: the dispatcher ran, and this is its
    /// reply frame.
    Executed(Vec<u8>),
    /// A duplicate of a request that already completed: the dispatcher
    /// did not run, and this is the memoized reply, byte for byte.
    Replayed(Vec<u8>),
    /// A duplicate of a request still executing: nothing to send, the
    /// reply to the first copy answers this one too.
    InFlight,
}

thread_local! {
    /// The class and method of the deferred `Invoke` this thread is
    /// serving, if it is serving one.
    static DEFERRED_INVOKE: Cell<Option<(ClassId, MethodId)>> = const { Cell::new(None) };
}

/// The `(class, method)` of the deferred [`Request::Invoke`] this thread is
/// serving right now, if any: its callee was admitted because it cannot
/// call back, so a synchronous call made now is one it was not supposed to
/// make.
pub fn deferred_invoke_in_service() -> Option<(ClassId, MethodId)> {
    DEFERRED_INVOKE.with(Cell::get)
}

/// While alive, the thread serves a deferred `Invoke`; then what it served
/// before, even if the dispatcher panicked.
struct ServingInvoke(Option<(ClassId, MethodId)>);

impl ServingInvoke {
    fn begin(invoked: (ClassId, MethodId)) -> ServingInvoke {
        ServingInvoke(DEFERRED_INVOKE.with(|serving| serving.replace(Some(invoked))))
    }
}

impl Drop for ServingInvoke {
    fn drop(&mut self) {
        DEFERRED_INVOKE.with(|serving| serving.set(self.0));
    }
}

/// Dispatches `touch` — one a peer deferred onto a frame — through
/// `dispatcher`; an `Invoke` is served as one
/// ([`deferred_invoke_in_service`] names it meanwhile).
pub fn dispatch_deferred<D: Dispatcher + ?Sized>(
    dispatcher: &D,
    touch: Request,
) -> Result<Reply, String> {
    let _serving = match touch {
        Request::Invoke { class, method, .. } => Some(ServingInvoke::begin((class, method))),
        _ => None,
    };
    dispatcher.dispatch(touch)
}

/// The touch of a frame that failed: its place among the frame's touches
/// and the error the frame's sender gets, which names the touch's kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TouchFailure {
    /// How many of the frame's touches were dispatched before this one.
    pub at: usize,
    /// `deferred {kind}: {error}`.
    pub message: String,
}

impl TouchFailure {
    /// The failure of the frame's `at`-th touch, of kind `kind`, with
    /// `error`.
    pub fn new(at: usize, kind: &str, error: impl std::fmt::Display) -> TouchFailure {
        TouchFailure {
            at,
            message: format!("deferred {kind}: {error}"),
        }
    }
}

/// Serves decoded requests with at-most-once semantics. One per stream
/// of client sequence numbers: every endpoint has one.
pub struct Responder {
    dedup: DedupCache,
}

impl Responder {
    /// A responder remembering the replies of the last `dedup_capacity`
    /// non-idempotent requests (at least one).
    pub fn new(dedup_capacity: usize) -> Self {
        Responder {
            dedup: DedupCache::new(dedup_capacity),
        }
    }

    /// Serves request `body`, which `client` sent as its `seq`-th with
    /// `header`, through `dispatcher`: first the touches the header carries,
    /// then — if none failed, else the reply is [`Reply::TouchFailed`] — the
    /// request; a duplicate runs neither. The header's trace context is the
    /// parent of the serve span. `outgoing` is read once the dispatcher has
    /// run — so the write count it stamps covers what the request wrote, and
    /// the touches it hands over are all the serving side deferred — and
    /// rides the reply frame's header.
    pub fn respond(
        &self,
        dispatcher: &dyn Dispatcher,
        header: FrameHeader,
        client: u64,
        seq: u64,
        body: Request,
        outgoing: impl FnOnce() -> (Option<LeaseStamp>, Touches),
    ) -> Served {
        let FrameHeader {
            trace, deferred, ..
        } = header;
        let kind = body.kind();
        let key = (client, seq);
        let dedupable = !is_idempotent(&body);
        if dedupable {
            if let Some(duplicate) = self.dedup.begin(key) {
                // Absorbed: the endpoint counts it from what this returns,
                // and it is visible in the trace of the call that sent it.
                let mut span = aide_telemetry::child_of(trace, span_names::RPC_DEDUP, "rpc");
                span.arg("kind", kind);
                let action = match duplicate {
                    Served::InFlight => "drop_in_flight",
                    _ => "replay_reply",
                };
                span.arg("action", action);
                return duplicate;
            }
        }
        // The serve span adopts the caller's wire context, which is what
        // stitches client and surrogate into one connected trace tree.
        let mut span = aide_telemetry::child_of(trace, span_names::RPC_SERVE, "rpc");
        span.arg("kind", kind);
        span.arg("seq", seq);
        if !deferred.is_empty() {
            span.arg("deferred", deferred.len());
        }
        // A dispatcher that panics fails this request, not the worker, nor
        // the other sessions the worker serves.
        let result = catch_unwind(AssertUnwindSafe(|| {
            match dispatcher.dispatch_touches(&deferred) {
                Ok(()) => dispatcher.dispatch(body),
                Err(failure) => Ok(Reply::TouchFailed(failure.message)),
            }
        }))
        .unwrap_or_else(|_| Err(format!("{kind} panicked")));
        let (lease, touches) = outgoing();
        let frame = Message::Reply { seq, result }.encode_queued(lease, &touches);
        drop(span);
        if dedupable {
            self.dedup.complete(key, frame.clone());
        }
        Served::Executed(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Reply;
    use aide_vm::ObjectId;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    /// Counts executions; answers each with the number it was.
    #[derive(Default)]
    struct Counting {
        runs: AtomicU64,
    }

    impl Dispatcher for Counting {
        fn dispatch(&self, _request: Request) -> Result<Reply, String> {
            let run = self.runs.fetch_add(1, Ordering::SeqCst) + 1;
            Ok(Reply::Text(format!("run {run}")))
        }
    }

    fn write(bytes: u32) -> Request {
        Request::FieldAccess {
            target: ObjectId::surrogate(1),
            bytes,
            write: true,
        }
    }

    /// Serves `body` as `(client 7, seq)` with no trace context and no stamp.
    fn serve(
        responder: &Responder,
        dispatcher: &dyn Dispatcher,
        seq: u64,
        body: Request,
    ) -> Served {
        responder.respond(dispatcher, FrameHeader::default(), 7, seq, body, unstamped)
    }

    /// Nothing on the reply's header: no stamp, no touches.
    fn unstamped() -> (Option<LeaseStamp>, Touches) {
        (None, Touches::default())
    }

    fn executed(served: Served) -> Vec<u8> {
        match served {
            Served::Executed(frame) => frame,
            other => panic!("expected an execution, got {other:?}"),
        }
    }

    #[test]
    fn first_sight_executes_and_a_duplicate_gets_the_memoized_frame() {
        let responder = Responder::new(8);
        let dispatcher = Counting::default();
        let first = executed(serve(&responder, &dispatcher, 1, write(4)));
        assert_eq!(
            Message::decode(&first).unwrap(),
            Message::Reply {
                seq: 1,
                result: Ok(Reply::Text("run 1".into())),
            }
        );
        match serve(&responder, &dispatcher, 1, write(4)) {
            Served::Replayed(again) => assert_eq!(again, first, "byte-identical replay"),
            other => panic!("expected a replay, got {other:?}"),
        }
        assert_eq!(dispatcher.runs.load(Ordering::SeqCst), 1, "executed once");
        // Another client's seq 1 is another request.
        executed(responder.respond(
            &dispatcher,
            FrameHeader::default(),
            8,
            1,
            write(4),
            unstamped,
        ));
        assert_eq!(dispatcher.runs.load(Ordering::SeqCst), 2);
    }

    /// Blocks every execution until the test releases it.
    struct Gated {
        entered: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    impl Dispatcher for Gated {
        fn dispatch(&self, _request: Request) -> Result<Reply, String> {
            self.entered.send(()).unwrap();
            self.release.lock().recv().unwrap();
            Ok(Reply::Unit)
        }
    }

    #[test]
    fn a_duplicate_of_an_executing_request_is_dropped_and_survives_eviction() {
        let responder = Responder::new(2);
        let (entered, has_entered) = mpsc::channel();
        let (release, released) = mpsc::channel();
        let gated = Gated {
            entered,
            release: Mutex::new(released),
        };
        std::thread::scope(|scope| {
            let executing = scope.spawn(|| serve(&responder, &gated, 1, write(0)));
            has_entered.recv().unwrap(); // seq 1 is inside the dispatcher
            assert!(matches!(
                serve(&responder, &gated, 1, write(0)),
                Served::InFlight
            ));
            // Fill the two-entry cache past capacity with completed
            // requests: the in-flight marker must not be the one evicted.
            let quick = Counting::default();
            for seq in 2..6 {
                executed(serve(&responder, &quick, seq, write(0)));
            }
            assert!(matches!(
                serve(&responder, &gated, 1, write(0)),
                Served::InFlight
            ));
            release.send(()).unwrap();
            let reply = executed(executing.join().unwrap());
            // Completed while still remembered: now it replays.
            match serve(&responder, &quick, 1, write(0)) {
                Served::Replayed(again) => assert_eq!(again, reply),
                other => panic!("expected a replay, got {other:?}"),
            }
            assert_eq!(quick.runs.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn eviction_at_capacity_forgets_the_oldest_completed_reply() {
        let responder = Responder::new(2);
        let dispatcher = Counting::default();
        for seq in 1..=3 {
            executed(serve(&responder, &dispatcher, seq, write(0)));
        }
        // 2 and 3 are remembered; 1 was evicted and executes again.
        assert!(matches!(
            serve(&responder, &dispatcher, 2, write(0)),
            Served::Replayed(_)
        ));
        assert!(matches!(
            serve(&responder, &dispatcher, 3, write(0)),
            Served::Replayed(_)
        ));
        executed(serve(&responder, &dispatcher, 1, write(0)));
        assert_eq!(dispatcher.runs.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn idempotent_requests_bypass_the_cache() {
        let responder = Responder::new(1);
        let dispatcher = Counting::default();
        let remembered = executed(serve(&responder, &dispatcher, 1, write(0)));
        for body in [Request::Ping, Request::Stats, Request::GcRenew { epoch: 3 }] {
            // Same key twice: both execute, and neither takes the one slot.
            executed(serve(&responder, &dispatcher, 9, body.clone()));
            executed(serve(&responder, &dispatcher, 9, body));
        }
        assert_eq!(dispatcher.runs.load(Ordering::SeqCst), 7);
        match serve(&responder, &dispatcher, 1, write(0)) {
            Served::Replayed(again) => assert_eq!(again, remembered),
            other => panic!("expected a replay, got {other:?}"),
        }
    }

    /// Logs the kind of everything it runs; a slot write fails.
    #[derive(Default)]
    struct Logging {
        ran: Mutex<Vec<&'static str>>,
    }

    impl Dispatcher for Logging {
        fn dispatch(&self, request: Request) -> Result<Reply, String> {
            self.ran.lock().push(request.kind());
            match request {
                Request::PutSlot { .. } => Err("read-only".into()),
                _ => Ok(Reply::Unit),
            }
        }
    }

    #[test]
    fn the_touches_on_a_frame_run_first_once_and_stop_at_a_failure() {
        let responder = Responder::new(8);
        let dispatcher = Logging::default();
        let class_of = Request::ClassOf {
            target: ObjectId::surrogate(1),
        };
        let respond = |seq, deferred: Vec<Request>, outgoing: Vec<Request>| {
            let header = FrameHeader {
                deferred: deferred.iter().collect(),
                ..FrameHeader::default()
            };
            let body = class_of.clone();
            let outgoing = outgoing.iter().collect();
            responder.respond(&dispatcher, header, 7, seq, body, || (None, outgoing))
        };
        let back = Request::Native {
            caller: aide_vm::ClassId(0),
            kind: aide_vm::NativeKind::Math,
            work_micros: 1,
            arg_bytes: 0,
            ret_bytes: 0,
        };
        let reply = executed(respond(1, vec![write(4), write(8)], vec![back.clone()]));
        assert_eq!(
            *dispatcher.ran.lock(),
            ["FieldAccess", "FieldAccess", "ClassOf"]
        );
        // What the serving side deferred meanwhile rides the reply.
        let (header, _) = Message::decode_framed(&reply).unwrap();
        assert_eq!(header.deferred.to_vec(), [back]);
        // A duplicate of the frame runs none of it again.
        match respond(1, vec![write(4), write(8)], Vec::new()) {
            Served::Replayed(again) => assert_eq!(again, reply),
            other => panic!("expected a replay, got {other:?}"),
        }
        assert_eq!(dispatcher.ran.lock().len(), 3);

        // A failed touch stops the frame, and the reply says which failed.
        let put = Request::PutSlot {
            target: ObjectId::surrogate(1),
            slot: 0,
            value: None,
        };
        let failed = executed(respond(2, vec![put, write(4)], Vec::new()));
        assert_eq!(dispatcher.ran.lock()[3..], ["PutSlot"]);
        assert_eq!(
            Message::decode(&failed).unwrap(),
            Message::Reply {
                seq: 2,
                result: Ok(Reply::TouchFailed("deferred PutSlot: read-only".into())),
            }
        );
    }

    #[test]
    fn the_reply_carries_the_lease_stamp_read_after_dispatch() {
        let responder = Responder::new(8);
        let dispatcher = Counting::default();
        // The dispatcher has run by the time the stamp is read: a write the
        // request made is in the count its own reply carries.
        let stamp = || {
            let runs = dispatcher.runs.load(Ordering::SeqCst);
            let stamp = LeaseStamp {
                epoch: runs + 40,
                writes: runs + 100,
            };
            (Some(stamp), Touches::default())
        };
        let respond =
            |seq| responder.respond(&dispatcher, FrameHeader::default(), 7, seq, write(0), stamp);
        let stamped = executed(respond(1));
        let (header, _) = Message::decode_framed(&stamped).unwrap();
        let first = LeaseStamp {
            epoch: 41,
            writes: 101,
        };
        assert_eq!(header.lease, Some(first));
        let second = executed(respond(2));
        let (header, _) = Message::decode_framed(&second).unwrap();
        assert_eq!(header.lease.map(|stamp| stamp.writes), Some(102));
        // A replay is the first reply byte for byte, old count included.
        match respond(1) {
            Served::Replayed(again) => assert_eq!(again, stamped),
            other => panic!("expected a replay, got {other:?}"),
        }
        let plain = executed(serve(&responder, &dispatcher, 3, write(0)));
        let (header, _) = Message::decode_framed(&plain).unwrap();
        assert_eq!(header.lease, None);
    }
}
