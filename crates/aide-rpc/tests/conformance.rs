//! Backend conformance: the same session, multiplexing, chaos, and retry
//! scenarios must behave identically over every backend — in-memory links
//! and real multiplexed TCP. Each scenario iterates the full fixture set, so
//! a backend that diverges fails by name.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_graph::CommParams;
use aide_rpc::{
    chaos_wrap, BackendKind, BackoffConfig, ChaosSchedule, Dispatcher, Endpoint, EndpointConfig,
    Link, MuxConn, NetClock, Reply, Request, RetryPolicy, RpcError, Session, TcpMuxListener,
};
use aide_telemetry::sync::Mutex;
use aide_vm::{ClassId, ObjectId, ObjectRecord};

/// One backend under test. In process every pair is a link of its own; over
/// TCP every pair is a session of one shared carrier, so the scenarios with
/// sibling sessions share a socket.
enum Fixture {
    InMemory,
    Tcp { dialled: MuxConn, accepted: MuxConn },
}

impl Fixture {
    fn name(&self) -> &'static str {
        match self {
            Fixture::InMemory => "inmem",
            Fixture::Tcp { .. } => "tcp",
        }
    }

    /// `(dialling end, accepting end)` of a fresh session.
    fn pair(&self) -> (Session, Session) {
        match self {
            Fixture::InMemory => {
                let (_, ours, theirs) = Link::pair(CommParams::WAVELAN);
                (ours, theirs)
            }
            Fixture::Tcp { dialled, accepted } => (
                dialled.open_session().expect("open session"),
                accepted.accept().expect("accept session"),
            ),
        }
    }
}

fn fixtures() -> Vec<Fixture> {
    let listener = TcpMuxListener::bind(std::net::SocketAddr::from(([127, 0, 0, 1], 0)))
        .expect("bind localhost listener");
    let dialled = MuxConn::connect(listener.local_addr(), Duration::from_secs(2)).expect("connect");
    let accepted = listener.accept().expect("accept");
    vec![Fixture::InMemory, Fixture::Tcp { dialled, accepted }]
}

/// Answers slot reads with a fixed object and executes everything else.
struct EchoDispatcher;

impl Dispatcher for EchoDispatcher {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        match request {
            Request::GetSlot { .. } => Ok(Reply::Slot(Some(ObjectId::surrogate(7)))),
            _ => Ok(Reply::Unit),
        }
    }
}

/// The client side never serves.
struct NullDispatcher;

impl Dispatcher for NullDispatcher {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// A small worker pool: these scenarios have no nested cross-VM calls.
fn small_config() -> EndpointConfig {
    EndpointConfig {
        workers: 4,
        ..EndpointConfig::default()
    }
}

fn endpoint_pair(
    client_session: Session,
    server_session: Session,
    config: EndpointConfig,
) -> (Arc<Endpoint>, Arc<Endpoint>) {
    let clock = Arc::new(NetClock::new());
    let client = Endpoint::start(
        client_session,
        CommParams::WAVELAN,
        clock.clone(),
        Arc::new(NullDispatcher),
        config,
    );
    let server = Endpoint::start(
        server_session,
        CommParams::WAVELAN,
        clock,
        Arc::new(EchoDispatcher),
        config,
    );
    (client, server)
}

#[test]
fn raw_frames_round_trip_on_every_backend() {
    for fx in fixtures() {
        let (ours, theirs) = fx.pair();
        ours.send(vec![1, 2, 3]).unwrap();
        assert_eq!(theirs.recv().unwrap(), vec![1, 2, 3], "{}", fx.name());
        theirs.send(vec![9, 8]).unwrap();
        assert_eq!(ours.recv().unwrap(), vec![9, 8], "{}", fx.name());
        assert_eq!(ours.backend(), theirs.backend(), "{}", fx.name());
    }
}

#[test]
fn backends_report_their_kind() {
    let expected = [("inmem", BackendKind::InMemory), ("tcp", BackendKind::Tcp)];
    for (fx, (name, kind)) in fixtures().iter().zip(expected) {
        assert_eq!(fx.name(), name);
        let (ours, theirs) = fx.pair();
        assert_eq!(ours.backend(), kind);
        assert_eq!(theirs.backend(), kind);
    }
}

#[test]
fn endpoints_complete_calls_on_every_backend() {
    for fx in fixtures() {
        let (cs, ss) = fx.pair();
        let (client, server) = endpoint_pair(cs, ss, small_config());
        for _ in 0..10 {
            let reply = client
                .call(Request::GetSlot {
                    target: ObjectId::surrogate(7),
                    slot: 0,
                })
                .unwrap_or_else(|e| panic!("{}: {e}", fx.name()));
            assert_eq!(reply, Reply::Slot(Some(ObjectId::surrogate(7))));
        }
        assert_eq!(server.requests_served(), 10, "{}", fx.name());
        client.shutdown();
        server.shutdown();
        client.join();
        server.join();
    }
}

/// Stands in for a VM: every request takes its lock, and a read of slot 13
/// panics while holding it.
#[derive(Default)]
struct PanicsUnderItsLock {
    served: Mutex<Vec<u16>>,
}

impl Dispatcher for PanicsUnderItsLock {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        let mut served = self.served.lock();
        if let Request::GetSlot { slot, .. } = request {
            served.push(slot);
            assert_ne!(slot, 13, "the dispatcher panics holding its lock");
        }
        Ok(Reply::Slot(Some(ObjectId::surrogate(served.len() as u64))))
    }
}

#[test]
fn a_dispatcher_that_panicked_under_its_lock_serves_the_next_request_on_every_backend() {
    for fx in fixtures() {
        let (cs, ss) = fx.pair();
        let clock = Arc::new(NetClock::new());
        let vm = Arc::new(PanicsUnderItsLock::default());
        let client = Endpoint::start(
            cs,
            CommParams::WAVELAN,
            clock.clone(),
            Arc::new(NullDispatcher),
            small_config(),
        );
        let server = Endpoint::start(ss, CommParams::WAVELAN, clock, vm.clone(), small_config());
        let get = |slot| {
            client.call(Request::GetSlot {
                target: ObjectId::surrogate(7),
                slot,
            })
        };
        match get(13) {
            Err(RpcError::Remote(msg)) => assert!(msg.contains("panicked"), "{}: {msg}", fx.name()),
            other => panic!(
                "{}: expected the panic as an error, got {other:?}",
                fx.name()
            ),
        }
        // The same session's next request takes the lock the panic left.
        let reply = get(1).unwrap_or_else(|e| panic!("{}: {e}", fx.name()));
        assert_eq!(
            reply,
            Reply::Slot(Some(ObjectId::surrogate(2))),
            "{}",
            fx.name()
        );
        assert_eq!(*vm.served.lock(), [13, 1], "{}", fx.name());
        client.shutdown();
        server.shutdown();
        client.join();
        server.join();
    }
}

#[test]
fn many_concurrent_sessions_stay_isolated_on_every_backend() {
    for fx in fixtures() {
        let mut pairs = Vec::new();
        for _ in 0..4 {
            pairs.push(fx.pair());
        }
        // Echo servers, one thread per accepted session.
        let echoes: Vec<_> = pairs
            .iter()
            .map(|(_, theirs)| {
                let theirs = theirs.clone();
                std::thread::spawn(move || {
                    while let Ok(frame) = theirs.recv() {
                        if theirs.send(frame.to_vec()).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        for (i, (ours, _)) in pairs.iter().enumerate() {
            ours.send(vec![i as u8; 8]).unwrap();
        }
        for (i, (ours, _)) in pairs.iter().enumerate() {
            assert_eq!(
                ours.recv().unwrap(),
                vec![i as u8; 8],
                "{} session {i}",
                fx.name()
            );
        }
        // On a multiplexed carrier dropping the handle is not enough: tell
        // the peer each session is done so its echo loop disconnects.
        for (ours, _) in &pairs {
            ours.close();
        }
        drop(pairs);
        for echo in echoes {
            echo.join().unwrap();
        }
    }
}

#[test]
fn deterministic_duplicates_are_absorbed_on_every_backend() {
    for fx in fixtures() {
        let (cs, ss) = fx.pair();
        // Every client frame is sent twice; the serving side's at-most-once
        // cache must absorb the copies identically on every backend.
        let (cs, _stats) = chaos_wrap(
            cs,
            ChaosSchedule {
                duplicate: 1.0,
                ..ChaosSchedule::seeded(42)
            },
        );
        let (client, server) = endpoint_pair(cs, ss, small_config());
        for _ in 0..10 {
            client
                .call(Request::FieldAccess {
                    target: ObjectId::surrogate(1),
                    bytes: 16,
                    write: true,
                })
                .unwrap_or_else(|e| panic!("{}: {e}", fx.name()));
        }
        assert_eq!(server.requests_served(), 10, "{}", fx.name());
        // The tenth reply releases the caller as soon as one worker sends
        // it; another worker may still be holding the tenth duplicate, not
        // yet counted. The count is exact once it gets there.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.dedup_hits() < 10 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.dedup_hits(), 10, "{}", fx.name());
        client.shutdown();
        server.shutdown();
        client.join();
        server.join();
    }
}

/// A deferrable touch of `target`: an `Invoke` when `invoke`, else a field
/// write.
fn touch_of(target: ObjectId, invoke: bool) -> Request {
    if invoke {
        Request::Invoke {
            target,
            class: ClassId(1),
            method: aide_vm::MethodId(0),
            arg_bytes: 8,
            ret_bytes: 0,
            args: Vec::new(),
        }
    } else {
        Request::FieldAccess {
            target,
            bytes: 16,
            write: true,
        }
    }
}

/// Logs the target of every field access and invocation it serves;
/// serving a read of slot `n`, it defers a field access of client object
/// `n` and an invocation of client object `100 + n` back to the reader
/// through `back`.
#[derive(Default)]
struct TouchLog {
    touched: Mutex<Vec<ObjectId>>,
    back: std::sync::OnceLock<std::sync::Weak<Endpoint>>,
}

impl Dispatcher for TouchLog {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        match request {
            Request::FieldAccess { target, .. } | Request::Invoke { target, .. } => {
                self.touched.lock().push(target);
                Ok(Reply::Unit)
            }
            Request::GetSlot { slot, .. } => {
                if let Some(back) = self.back.get().and_then(std::sync::Weak::upgrade) {
                    let slot = u64::from(slot);
                    for touch in [
                        touch_of(ObjectId::client(slot), false),
                        touch_of(ObjectId::client(100 + slot), true),
                    ] {
                        back.defer(touch).map_err(|e| e.to_string())?;
                    }
                }
                Ok(Reply::Slot(None))
            }
            _ => Ok(Reply::Unit),
        }
    }
}

#[test]
fn deferred_touches_are_served_once_and_in_order_on_every_backend() {
    for fx in fixtures() {
        let (cs, ss) = fx.pair();
        // Every client frame is sent twice: the touches riding one are
        // served with it, once.
        let (cs, _stats) = chaos_wrap(
            cs,
            ChaosSchedule {
                duplicate: 1.0,
                ..ChaosSchedule::seeded(43)
            },
        );
        let clock = Arc::new(NetClock::new());
        let (at_client, at_server) = (Arc::<TouchLog>::default(), Arc::<TouchLog>::default());
        let client = Endpoint::start(
            cs,
            CommParams::WAVELAN,
            clock.clone(),
            at_client.clone(),
            small_config(),
        );
        let server = Endpoint::start(
            ss,
            CommParams::WAVELAN,
            clock,
            at_server.clone(),
            small_config(),
        );
        at_server.back.set(Arc::downgrade(&server)).unwrap();
        let mut expected = Vec::new();
        for round in 0..10u64 {
            // Field writes and invocations, interleaved.
            for i in 0..5 {
                let target = ObjectId::surrogate(round * 5 + i);
                client.defer(touch_of(target, i % 2 == 1)).unwrap();
                expected.push(target);
            }
            let read = Request::GetSlot {
                target: ObjectId::surrogate(0),
                slot: round as u16,
            };
            client
                .call(read)
                .unwrap_or_else(|e| panic!("{}: {e}", fx.name()));
        }
        assert_eq!(*at_server.touched.lock(), expected, "{}", fx.name());
        assert_eq!(server.requests_served(), 60, "{}", fx.name());
        // What the server deferred rode its replies — a replayed reply
        // carries the same — each served once, by the caller, before its
        // call returned.
        let back: Vec<ObjectId> = (0..10)
            .flat_map(|n| [ObjectId::client(n), ObjectId::client(100 + n)])
            .collect();
        assert_eq!(*at_client.touched.lock(), back, "{}", fx.name());
        assert_eq!(client.requests_served(), 20, "{}", fx.name());
        client.shutdown();
        server.shutdown();
        client.join();
        server.join();
    }
}

#[test]
fn retry_masks_seeded_loss_on_every_backend() {
    let config = EndpointConfig {
        workers: 2,
        call_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_millis(100),
        retry: RetryPolicy {
            max_attempts: 12,
            attempt_timeout: Duration::from_millis(100),
            backoff: BackoffConfig {
                base: Duration::from_millis(2),
                max: Duration::from_millis(50),
                ..RetryPolicy::default().backoff
            },
            deadline: Duration::from_secs(20),
        },
    };
    for fx in fixtures() {
        let (cs, ss) = fx.pair();
        let (cs, _stats) = chaos_wrap(
            cs,
            ChaosSchedule {
                drop: 0.25,
                ..ChaosSchedule::seeded(7)
            },
        );
        let (client, server) = endpoint_pair(cs, ss, config);
        for _ in 0..20 {
            client
                .call_with_retry(Request::FieldAccess {
                    target: ObjectId::surrogate(1),
                    bytes: 0,
                    write: true,
                })
                .unwrap_or_else(|e| panic!("{}: {e}", fx.name()));
        }
        // Exactly-once execution despite loss and retransmission.
        assert_eq!(server.requests_served(), 20, "{}", fx.name());
        client.shutdown();
        server.shutdown();
        client.join();
        server.join();
    }
}

#[test]
fn a_slow_session_does_not_stall_its_siblings() {
    // The multiplexing fairness property: on every backend — most
    // importantly TCP, where sessions share one socket and one writer —
    // a session whose server is asleep must not block service on its
    // siblings.
    for fx in fixtures() {
        let (slow_ours, slow_theirs) = fx.pair();
        let (fast_ours, fast_theirs) = fx.pair();

        let slow_server = std::thread::spawn(move || {
            let frame = slow_theirs.recv().unwrap();
            std::thread::sleep(Duration::from_millis(600));
            slow_theirs.send(frame.to_vec()).unwrap();
        });
        let fast_server = std::thread::spawn(move || {
            while let Ok(frame) = fast_theirs.recv() {
                if fast_theirs.send(frame.to_vec()).is_err() {
                    break;
                }
            }
        });

        slow_ours.send(vec![1; 32]).unwrap();
        let started = Instant::now();
        for i in 0..50 {
            fast_ours.send(vec![i; 64]).unwrap();
            assert_eq!(fast_ours.recv().unwrap(), vec![i; 64], "{}", fx.name());
        }
        let fast_elapsed = started.elapsed();
        assert!(
            fast_elapsed < Duration::from_millis(500),
            "{}: 50 fast round trips took {fast_elapsed:?} behind a sleeping sibling",
            fx.name()
        );
        // The slow session still completes.
        assert_eq!(slow_ours.recv().unwrap(), vec![1; 32], "{}", fx.name());
        slow_server.join().unwrap();
        fast_ours.close();
        drop(fast_ours);
        fast_server.join().unwrap();
    }
}

/// Refuses every data request with a `Busy` backpressure reply while
/// counting how many times it was asked — admission control's server half.
struct SaturatedDispatcher {
    asked: std::sync::atomic::AtomicU64,
}

impl Dispatcher for SaturatedDispatcher {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        match request {
            Request::Ping => Ok(Reply::Unit),
            _ => {
                self.asked.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(Reply::Busy { retry_after_ms: 25 })
            }
        }
    }
}

#[test]
fn busy_replies_surface_once_and_never_burn_retries_on_every_backend() {
    for fx in fixtures() {
        let (cs, ss) = fx.pair();
        let clock = Arc::new(NetClock::new());
        let client = Endpoint::start(
            cs,
            CommParams::WAVELAN,
            clock.clone(),
            Arc::new(NullDispatcher),
            small_config(),
        );
        let served = Arc::new(SaturatedDispatcher {
            asked: std::sync::atomic::AtomicU64::new(0),
        });
        let server = Endpoint::start(
            ss,
            CommParams::WAVELAN,
            clock,
            served.clone(),
            small_config(),
        );

        // Both the single-shot and the retrying call must surface the hint
        // as RpcError::Busy — and the retrying one must NOT re-ask: a Busy
        // reply is an answer, and repeating it only adds load.
        for retrying in [false, true] {
            let request = Request::FieldAccess {
                target: ObjectId::surrogate(1),
                bytes: 16,
                write: true,
            };
            let result = if retrying {
                client.call_with_retry(request)
            } else {
                client.call(request)
            };
            match result {
                Err(RpcError::Busy { retry_after_ms }) => {
                    assert_eq!(retry_after_ms, 25, "{}", fx.name())
                }
                other => panic!("{}: expected Busy, got {other:?}", fx.name()),
            }
        }
        assert_eq!(
            served.asked.load(std::sync::atomic::Ordering::SeqCst),
            2,
            "{}: one server-side refusal per call, retries never amplify saturation",
            fx.name()
        );
        client.shutdown();
        server.shutdown();
        client.join();
        server.join();
    }
}

/// Installs relayed shipments with the same exactly-once-per-txn contract
/// the platform's `VmDispatcher` honours: duplicate `RelayDeliver` calls
/// for an already-applied txn acknowledge without re-installing.
struct RelayTargetDispatcher {
    applied: Mutex<std::collections::HashSet<u64>>,
    objects_installed: std::sync::atomic::AtomicU64,
}

impl Dispatcher for RelayTargetDispatcher {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        match request {
            Request::RelayDeliver { txn, objects, .. } => {
                if self.applied.lock().insert(txn) {
                    self.objects_installed
                        .fetch_add(objects.len() as u64, std::sync::atomic::Ordering::SeqCst);
                }
                Ok(Reply::Unit)
            }
            _ => Ok(Reply::Unit),
        }
    }
}

#[test]
fn queued_relay_delivery_is_exactly_once_on_every_backend() {
    for fx in fixtures() {
        let (cs, ss) = fx.pair();
        // Chaos duplicates every frame: the endpoint's at-most-once cache
        // must absorb wire-level copies, and the dispatcher's txn set must
        // absorb application-level re-deliveries.
        let (cs, _stats) = chaos_wrap(
            cs,
            ChaosSchedule {
                duplicate: 1.0,
                ..ChaosSchedule::seeded(11)
            },
        );
        let clock = Arc::new(NetClock::new());
        let client = Endpoint::start(
            cs,
            CommParams::WAVELAN,
            clock.clone(),
            Arc::new(NullDispatcher),
            small_config(),
        );
        let target = Arc::new(RelayTargetDispatcher {
            applied: Mutex::new(std::collections::HashSet::new()),
            objects_installed: std::sync::atomic::AtomicU64::new(0),
        });
        let server = Endpoint::start(
            ss,
            CommParams::WAVELAN,
            clock,
            target.clone(),
            small_config(),
        );

        let shipment = |txn: u64| Request::RelayDeliver {
            txn,
            queued_for_ms: 120,
            objects: (0..3)
                .map(|i| {
                    (
                        ObjectId::client(txn * 10 + i),
                        ObjectRecord::new(ClassId(1), 256, 1),
                    )
                })
                .collect(),
        };
        for txn in 1..=4u64 {
            client.call_with_retry(shipment(txn)).unwrap();
        }
        // The relay re-sends txn 2 after a reconnect: acknowledged, not
        // re-installed.
        client.call_with_retry(shipment(2)).unwrap();
        assert_eq!(
            target
                .objects_installed
                .load(std::sync::atomic::Ordering::SeqCst),
            12,
            "{}: 4 unique txns x 3 objects, duplicates install nothing",
            fx.name()
        );
        client.shutdown();
        server.shutdown();
        client.join();
        server.join();
    }
}

#[test]
fn session_close_leaves_siblings_running_on_every_backend() {
    for fx in fixtures() {
        let (a_ours, a_theirs) = fx.pair();
        let (b_ours, b_theirs) = fx.pair();
        a_ours.close();
        drop(a_ours);
        drop(a_theirs);
        b_ours.send(vec![5]).unwrap();
        assert_eq!(b_theirs.recv().unwrap(), vec![5], "{}", fx.name());
    }
}

/// Takes `delay` of wall time over every request.
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
fn a_slow_dispatcher_does_not_stall_a_sibling_sessions_calls() {
    // The same fairness property one layer up: a carrier's reader runs each
    // session's endpoint itself, so it must hand a request to the workers
    // and move on, never wait for the dispatcher.
    for fx in fixtures() {
        let (slow_cs, slow_ss) = fx.pair();
        let (fast_cs, fast_ss) = fx.pair();
        let clock = Arc::new(NetClock::new());
        let start = |session, dispatcher: Arc<dyn Dispatcher>| {
            Endpoint::start(
                session,
                CommParams::WAVELAN,
                clock.clone(),
                dispatcher,
                small_config(),
            )
        };
        let slow_server = start(
            slow_ss,
            Arc::new(SlowDispatcher {
                delay: Duration::from_millis(600),
            }),
        );
        let slow_client = start(slow_cs, Arc::new(NullDispatcher));
        let fast_server = start(fast_ss, Arc::new(EchoDispatcher));
        let fast_client = start(fast_cs, Arc::new(NullDispatcher));

        let access = Request::FieldAccess {
            target: ObjectId::surrogate(1),
            bytes: 16,
            write: false,
        };
        let slow_call = {
            let slow_client = slow_client.clone();
            let access = access.clone();
            std::thread::spawn(move || slow_client.call(access))
        };
        // Wait until the slow request is being served.
        let deadline = Instant::now() + Duration::from_secs(5);
        while slow_server.traffic().frames_received() == 0 {
            assert!(
                Instant::now() < deadline,
                "{}: slow call never arrived",
                fx.name()
            );
            std::thread::yield_now();
        }
        let started = Instant::now();
        for _ in 0..50 {
            assert_eq!(
                fast_client.call(access.clone()),
                Ok(Reply::Unit),
                "{}",
                fx.name()
            );
        }
        let fast_elapsed = started.elapsed();
        assert!(
            fast_elapsed < Duration::from_millis(500),
            "{}: 50 fast calls took {fast_elapsed:?} behind a sleeping dispatcher",
            fx.name()
        );
        assert_eq!(slow_call.join().unwrap(), Ok(Reply::Unit), "{}", fx.name());
        for endpoint in [&slow_client, &slow_server, &fast_client, &fast_server] {
            endpoint.shutdown();
        }
        for endpoint in [&slow_client, &slow_server, &fast_client, &fast_server] {
            endpoint.join();
        }
    }
}

/// Names of this process's threads, as the kernel reports them.
#[cfg(target_os = "linux")]
fn thread_census() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .collect()
}

#[cfg(target_os = "linux")]
#[test]
fn tcp_endpoint_pairs_run_no_relay_threads() {
    // A call is caller -> peer worker -> caller, with a carrier's reader
    // thread in between whenever nobody else reads: per carrier end one
    // reader, per endpoint its workers, and nothing that only forwards.
    // A shared carrier and a pair's own carrier are up while the census
    // runs.
    let mux = fixtures().pop().expect("the tcp fixture is last");
    assert_eq!(mux.name(), "tcp");
    let (cs, ss) = mux.pair();
    let shared = endpoint_pair(cs, ss, small_config());
    let (_, cs, ss) = aide_rpc::tcp_pair(CommParams::WAVELAN).expect("loopback pair");
    let own = endpoint_pair(cs, ss, small_config());
    for (client, server) in [&shared, &own] {
        client.call(Request::Ping).unwrap();
        assert_eq!(server.requests_served(), 1);
    }

    let census = thread_census();
    // The kernel keeps 15 bytes of a thread name.
    for gone in [
        "rpc-recv",
        "rpc-mux-writer",
        "rpc-tcp-writer",
        "rpc-tcp-reader",
        "aide-shard-rout",
    ] {
        assert!(
            !census.iter().any(|name| name.starts_with(gone)),
            "{gone} is running: {census:?}"
        );
    }
    for kept in ["rpc-mux-reader", "rpc-worker-0"] {
        assert!(census.iter().any(|name| name == kept), "{kept}: {census:?}");
    }

    for (client, server) in [shared, own] {
        client.shutdown();
        server.shutdown();
        client.join();
        server.join();
    }
}
