//! The served side of a call. Every request is served by a worker pool that
//! starts empty, grows by one thread each time a request finds no idle
//! worker, and hands a job to the worker that parked last. On a byte-stream
//! carrier the pool is leader/followers: a worker that has sent its reply
//! reads the next request off the carrier itself and serves it, so a
//! request crosses no hand-off between the thread that reads it and the one
//! that serves it; the carrier's own thread reads only when nobody else
//! does, and hands what it reads to a worker. The carrier scenarios run over
//! a carrier shared by its sessions and over a pair's carrier of its own
//! (`tcp_pair`).
//!
//! The two counters are process-wide and the census counts every thread and
//! descriptor of the process, so the tests take turns on `GATE`.

use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use aide_graph::CommParams;
use aide_rpc::{
    tcp_pair, Dispatcher, Endpoint, EndpointConfig, Link, Message, MuxConn, NetClock, Reply,
    Request, Session, TcpMuxListener,
};
use aide_vm::{ClassId, MethodId, ObjectId, ObjectRecord};

static GATE: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `(requests served where they were read, workers spawned)`, lifetime
/// totals of the process.
fn counters() -> (u64, u64) {
    let telemetry = aide_telemetry::global();
    (
        telemetry
            .counter(aide_telemetry::names::RPC_SERVED_WHERE_READ)
            .get(),
        telemetry
            .counter(aide_telemetry::names::RPC_WORKERS_SPAWNED)
            .get(),
    )
}

/// What `counters()` gained since `before`.
fn counters_since(before: (u64, u64)) -> (u64, u64) {
    let now = counters();
    (now.0 - before.0, now.1 - before.1)
}

/// One way for two endpoints to be connected. A shared carrier yields all
/// its session pairs from one socket; every `tcp_pair` is a socket of its
/// own, every in-process pair a link of its own.
enum Wire {
    Mux { dialled: MuxConn, accepted: MuxConn },
    Pair,
    InProcess,
}

impl Wire {
    fn carriers() -> Vec<(&'static str, Wire)> {
        let listener = TcpMuxListener::bind(std::net::SocketAddr::from(([127, 0, 0, 1], 0)))
            .expect("bind localhost listener");
        let dialled =
            MuxConn::connect(listener.local_addr(), Duration::from_secs(2)).expect("connect");
        let accepted = listener.accept().expect("accept");
        vec![
            ("mux", Wire::Mux { dialled, accepted }),
            ("pair", Wire::Pair),
        ]
    }

    fn all() -> Vec<(&'static str, Wire)> {
        let mut all = Wire::carriers();
        all.push(("inproc", Wire::InProcess));
        all
    }

    /// `(dialling end, accepting end)` of a fresh session (in process the
    /// two ends are alike).
    fn pair(&self) -> (Session, Session) {
        match self {
            Wire::Mux { dialled, accepted } => (
                dialled.open_session().expect("open session"),
                accepted.accept().expect("accept session"),
            ),
            Wire::Pair => {
                let (_, ours, theirs) = tcp_pair(CommParams::WAVELAN).expect("loopback pair");
                (ours, theirs)
            }
            Wire::InProcess => {
                let (_, ours, theirs) = Link::pair(CommParams::WAVELAN);
                (ours, theirs)
            }
        }
    }
}

fn access(bytes: u32, write: bool) -> Request {
    Request::FieldAccess {
        target: ObjectId::surrogate(1),
        bytes,
        write,
    }
}

/// An `Invoke` whose `arg_bytes` the dispatchers below read as a parameter.
fn invoke(parameter: u32) -> Request {
    Request::Invoke {
        target: ObjectId::surrogate(1),
        class: ClassId(1),
        method: MethodId(0),
        arg_bytes: parameter,
        ret_bytes: 0,
        args: Vec::new(),
    }
}

/// A 256-object `MigratePrepare`: the shape of the bulk write path.
fn bulk() -> Request {
    let objects = (0..256u32)
        .map(|i| {
            let mut record = ObjectRecord::new(ClassId(i % 50), 4_000 + i, 4);
            record.slots[0] = Some(ObjectId(u64::from(i) + 1));
            (ObjectId(u64::from(i) + 1_000), record)
        })
        .collect();
    Request::MigratePrepare { txn: 1, objects }
}

/// One execution: the request's kind, and the thread that ran it.
type Execution = (&'static str, ThreadId, String);

/// A stand-in for a VM behind its lock: every request waits for `vm` and
/// replies with the number its execution was; an `Invoke` keeps it for
/// `arg_bytes` milliseconds.
#[derive(Default)]
struct Vmish {
    vm: Mutex<()>,
    executions: Mutex<Vec<Execution>>,
}

impl Vmish {
    fn execute(&self, request: &Request) -> Result<Reply, String> {
        let mut executions = self.executions.lock().unwrap();
        let thread = std::thread::current();
        executions.push((
            request.kind(),
            thread.id(),
            thread.name().unwrap_or("?").to_owned(),
        ));
        Ok(Reply::Text(format!("execution {}", executions.len())))
    }

    fn executions(&self) -> Vec<Execution> {
        self.executions.lock().unwrap().clone()
    }

    /// The names of the threads that executed anything, and how many
    /// distinct threads they were.
    fn threads(&self) -> (HashSet<String>, usize) {
        let executions = self.executions();
        (
            executions.iter().map(|(_, _, name)| name.clone()).collect(),
            executions
                .iter()
                .map(|(_, id, _)| *id)
                .collect::<HashSet<_>>()
                .len(),
        )
    }
}

impl Dispatcher for Vmish {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        let _vm = self.vm.lock().unwrap_or_else(PoisonError::into_inner);
        if let Request::Invoke { arg_bytes, .. } = request {
            std::thread::sleep(Duration::from_millis(u64::from(arg_bytes)));
        }
        self.execute(&request)
    }
}

fn on_a_worker(name: &str) -> bool {
    name.starts_with("rpc-worker-")
}

fn config() -> EndpointConfig {
    EndpointConfig {
        workers: 8,
        drain_timeout: Duration::from_millis(500),
        ..EndpointConfig::default()
    }
}

fn start(
    session: Session,
    dispatcher: Arc<dyn Dispatcher>,
    config: EndpointConfig,
) -> Arc<Endpoint> {
    Endpoint::start(
        session,
        CommParams::WAVELAN,
        Arc::new(NetClock::new()),
        dispatcher,
        config,
    )
}

fn wind_down(endpoints: &[&Arc<Endpoint>]) {
    for endpoint in endpoints {
        endpoint.shutdown();
    }
    for endpoint in endpoints {
        endpoint.join();
    }
}

/// Polls `done` for up to five seconds.
fn eventually(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What `calls` sequential requests to one endpoint left on the counters:
/// one worker, and on a carrier ≥ 99 % of them served where they were read
/// — the first is read by the carrier's thread, and so is the next one
/// whenever the worker was kept off the CPU for a millisecond, a handful
/// in 10 000 unless the machine is overloaded. In process the thread that
/// delivers a request is its caller, and nothing is served where it is
/// read.
fn assert_one_worker_read_them(name: &str, carrier: bool, calls: u64, gained: (u64, u64)) {
    let (where_read, spawned) = gained;
    assert_eq!(spawned, 1, "{name}: workers spawned");
    if carrier {
        assert!(
            where_read * 100 >= calls * 99 && where_read < calls,
            "{name}: {where_read} of {calls} served where they were read"
        );
    } else {
        assert_eq!(where_read, 0, "{name}");
    }
}

#[test]
fn sequential_invokes_are_served_by_the_one_worker_that_reads_them() {
    const CALLS: u64 = 10_000;
    let _turn = turn();
    for (name, wire) in Wire::all() {
        let carrier = !matches!(wire, Wire::InProcess);
        let (cs, ss) = wire.pair();
        let vmish = Arc::new(Vmish::default());
        let client = start(cs, Arc::new(Vmish::default()), config());
        let server = start(ss, vmish.clone(), config());
        let before = counters();
        for _ in 0..CALLS {
            assert!(client.call(invoke(0)).is_ok(), "{name}");
        }
        assert_one_worker_read_them(name, carrier, CALLS, counters_since(before));
        assert_eq!(server.requests_served(), CALLS, "{name}");
        let (threads, distinct) = vmish.threads();
        assert!(
            threads.iter().all(|t| on_a_worker(t)),
            "{name}: {threads:?}"
        );
        assert_eq!(distinct, 1, "{name}: {threads:?}");
        wind_down(&[&client, &server]);
    }
}

#[test]
fn short_requests_are_served_where_they_are_read_on_either_end() {
    const CALLS: u64 = 10_000;
    let _turn = turn();
    for (name, wire) in Wire::all() {
        let carrier = !matches!(wire, Wire::InProcess);
        let (cs, ss) = wire.pair();
        let (at_client, at_server) = (Arc::new(Vmish::default()), Arc::new(Vmish::default()));
        let client = start(cs, at_client.clone(), config());
        let server = start(ss, at_server.clone(), config());

        // Towards the accepting end, each one answered in order.
        let before = counters();
        for i in 0..CALLS {
            let reply = client.call(access(64, i % 2 == 0));
            assert_eq!(
                reply,
                Ok(Reply::Text(format!("execution {}", i + 1))),
                "{name}"
            );
        }
        assert_one_worker_read_them(name, carrier, CALLS, counters_since(before));
        assert_eq!(server.requests_served(), CALLS, "{name}");

        // Towards the dialling end, by the same rule: its workers read too.
        let before = counters();
        for _ in 0..CALLS / 10 {
            assert!(server.call(access(64, false)).is_ok(), "{name}");
        }
        assert_one_worker_read_them(name, carrier, CALLS / 10, counters_since(before));
        assert_eq!(client.requests_served(), CALLS / 10, "{name}");
        for end in [&at_server, &at_client] {
            let (threads, distinct) = end.threads();
            assert!(
                threads.iter().all(|t| on_a_worker(t)),
                "{name}: {threads:?}"
            );
            assert_eq!(distinct, 1, "{name}: one worker, reused: {threads:?}");
        }
        wind_down(&[&client, &server]);
    }
}

#[test]
fn a_request_handed_to_a_worker_is_served_once_and_a_duplicate_gets_the_memo() {
    let _turn = turn();
    for (name, wire) in Wire::carriers() {
        // The busy VM: the test holds it while the first request arrives,
        // which no worker is there to read.
        let (cs, ss) = wire.pair();
        let vmish = Arc::new(Vmish::default());
        let client = start(cs, Arc::new(Vmish::default()), config());
        let server = start(ss, vmish.clone(), config());
        let before = counters();
        let busy = vmish.vm.lock().unwrap();
        let reply = std::thread::scope(|scope| {
            let caller = scope.spawn(|| client.call(access(8, true)));
            // Read by the carrier's thread, handed to a new worker, which
            // waits for the VM.
            eventually("a worker took the request", || {
                counters_since(before).1 == 1
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(vmish.executions().is_empty(), "{name}: the VM is held");
            drop(busy);
            caller.join().unwrap()
        });
        assert_eq!(reply, Ok(Reply::Text("execution 1".into())), "{name}");
        let executions = vmish.executions();
        assert_eq!(executions.len(), 1, "{name}: {executions:?}");
        assert!(on_a_worker(&executions[0].2), "{name}: {executions:?}");
        assert_eq!(counters_since(before), (0, 1), "{name}");
        assert_eq!(
            (server.requests_served(), server.dedup_hits()),
            (1, 0),
            "{name}"
        );
        // From the second request on the worker reads them itself.
        for i in 2..12 {
            assert_eq!(
                client.call(access(8, true)),
                Ok(Reply::Text(format!("execution {i}"))),
                "{name}"
            );
        }
        let (where_read, spawned) = counters_since(before);
        assert!(
            where_read >= 1 && spawned == 1,
            "{name}: {where_read}, {spawned}"
        );
        wind_down(&[&client, &server]);

        // A write served, then retried: the dialling end is played by hand
        // and sends the same frame twice.
        let (ours, ss) = wire.pair();
        let vmish = Arc::new(Vmish::default());
        let server = start(ss, vmish.clone(), config());
        let write = Message::Request {
            seq: 41,
            client: 7,
            body: access(8, true),
        }
        .encode();
        let before = counters();
        ours.send(write.clone()).expect("the carrier is up");
        let first = ours.recv().expect("a reply");
        ours.send(write).expect("the carrier is up");
        let again = ours.recv().expect("a reply to the retry");
        assert_eq!(first, again, "{name}: the memoized frame, byte for byte");
        assert_eq!(
            Message::decode(&first).expect("a reply frame"),
            Message::Reply {
                seq: 41,
                result: Ok(Reply::Text("execution 1".into())),
            },
            "{name}"
        );
        let executions = vmish.executions();
        assert_eq!(executions.len(), 1, "{name}: {executions:?}");
        assert!(on_a_worker(&executions[0].2), "{name}: {executions:?}");
        assert_eq!(
            (server.requests_served(), server.dedup_hits()),
            (1, 1),
            "{name}"
        );
        assert_eq!(counters_since(before).1, 1, "{name}: one worker for both");
        wind_down(&[&server]);
    }
}

#[test]
fn a_session_stuck_behind_its_vm_does_not_slow_a_sibling_on_the_same_carrier() {
    let _turn = turn();
    // Siblings share a carrier only on the mux.
    let wires = Wire::carriers();
    let (name, wire) = &wires[0];
    // Session A's long request is read by the carrier's thread and handed
    // to a worker.
    assert!(
        !sibling_keeps_pace(name, wire, false),
        "{name}: the carrier's thread read A's request"
    );
    // On fresh sessions, by the worker leading A's carrier, which serves it
    // itself: the thread must take the carrier back within `HANDOVER` of
    // that worker letting go. A leader kept off the CPU for a millisecond
    // misses the request, so this case is tried until one did not.
    assert!(
        (0..5).any(|_| sibling_keeps_pace(name, wire, true)),
        "{name}: no worker of A read A's request in five tries"
    );
}

/// One round of the fairness case on fresh sessions of `wire`, A's long
/// request sent right after a burst of A's when `warm`; whether a worker of
/// A read that request itself.
fn sibling_keeps_pace(name: &str, wire: &Wire, warm: bool) -> bool {
    const CALLS: usize = 1_000;
    let (slow, quick) = (Arc::new(Vmish::default()), Arc::new(Vmish::default()));
    let pairs: Vec<_> = [&slow, &quick]
        .into_iter()
        .map(|vmish| {
            let (cs, ss) = wire.pair();
            (
                start(cs, Arc::new(Vmish::default()), config()),
                start(ss, vmish.clone(), config()),
            )
        })
        .collect();
    let (a, b) = (&pairs[0].0, &pairs[1].0);

    let led = std::thread::scope(|scope| {
        // Session A: a worker sits in a 600 ms `Invoke` with A's VM held,
        // and a short request sent meanwhile waits for the VM on a second
        // worker.
        let (ready, set) = std::sync::mpsc::channel();
        let long = scope.spawn(move || {
            if warm {
                // Back to back, so that A's worker is reading for the next.
                for _ in 0..20 {
                    assert!(a.call(access(8, false)).is_ok());
                }
            }
            ready.send(counters()).unwrap();
            (a.call(invoke(600)), Instant::now())
        });
        let before = set.recv().unwrap();
        let started = Instant::now();
        eventually("the invoke holds A's VM", || slow.vm.try_lock().is_err());
        // Counted as it is taken, before it is served; nothing else runs.
        let led = counters_since(before).0 == 1;
        let behind = scope.spawn(|| (a.call(access(8, false)), Instant::now()));

        // Session B, on the same carrier, never notices: after its first
        // request, B's worker reads each next one off the carrier itself
        // and serves it, as if A were not there.
        let read_before = counters();
        for _ in 0..CALLS {
            assert!(b.call(access(8, false)).is_ok(), "{name}");
        }
        let finished = Instant::now();
        let where_read = counters_since(read_before).0;
        assert!(
            where_read * 100 >= CALLS as u64 * 99,
            "{name}: {where_read} of {CALLS} sibling requests served where read (led {led})"
        );

        let (long_reply, long_done) = long.join().unwrap();
        let (behind_reply, behind_done) = behind.join().unwrap();
        assert!(long_reply.is_ok() && behind_reply.is_ok(), "{name}");
        assert!(
            finished < long_done,
            "{name}: {CALLS} sibling calls took {:?}, longer than the invoke",
            finished - started
        );
        assert!(
            behind_done - started >= Duration::from_millis(600),
            "{name}: A's short request waited for A's VM"
        );
        led
    });
    let (threads, distinct) = quick.threads();
    assert!(
        threads.iter().all(|t| on_a_worker(t)),
        "{name}: {threads:?}"
    );
    assert_eq!(distinct, 1, "{name}: {threads:?}");
    let (threads, distinct) = slow.threads();
    assert!(
        threads.iter().all(|t| on_a_worker(t)),
        "{name}: {threads:?}"
    );
    assert_eq!(distinct, 2, "{name}: {threads:?}");
    for (client, server) in &pairs {
        wind_down(&[client, server]);
    }
    led
}

#[test]
fn replies_from_the_reader_one_way_and_bulk_the_other_way_never_wedge_the_carrier() {
    const CALLERS: usize = 4;
    const BURSTS: usize = 6;
    const BURST: usize = 50;
    const BULK_FRAMES: usize = 40;
    let _turn = turn();
    for (name, wire) in Wire::carriers() {
        let config = EndpointConfig {
            call_timeout: Duration::from_secs(10),
            ..config()
        };
        let sessions = if matches!(wire, Wire::Mux { .. }) {
            2
        } else {
            1
        };
        let pairs: Vec<_> = (0..sessions)
            .map(|_| {
                let (cs, ss) = wire.pair();
                (
                    start(cs, Arc::new(Vmish::default()), config),
                    start(ss, Arc::new(Vmish::default()), config),
                )
            })
            .collect();
        let started = Instant::now();
        let go = Barrier::new(sessions * (CALLERS + 1));
        std::thread::scope(|scope| {
            for (client, server) in &pairs {
                // Short requests towards the accepting end, answered by the
                // workers that read them; between bursts every caller goes
                // quiet for 20 ms, so the read halves change hands and are
                // the carrier threads' for a while.
                for _ in 0..CALLERS {
                    scope.spawn(|| {
                        go.wait();
                        for _ in 0..BURSTS {
                            for _ in 0..BURST {
                                assert!(client.call(access(8, true)).is_ok(), "{name}");
                            }
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    });
                }
                // Bulk frames the other way, each answered by a worker of
                // the dialling end.
                scope.spawn(|| {
                    let bulk = bulk();
                    go.wait();
                    for _ in 0..BULK_FRAMES {
                        assert!(server.call(bulk.clone()).is_ok(), "{name}");
                    }
                });
            }
        });
        assert!(
            started.elapsed() < config.call_timeout,
            "{name}: took {:?}",
            started.elapsed()
        );
        for (client, server) in &pairs {
            assert_eq!(
                server.requests_served(),
                (CALLERS * BURSTS * BURST) as u64,
                "{name}"
            );
            assert_eq!(client.requests_served(), BULK_FRAMES as u64, "{name}");
            let closing = Instant::now();
            wind_down(&[client, server]);
            assert!(
                closing.elapsed() < config.drain_timeout,
                "{name}: join took {:?}",
                closing.elapsed()
            );
        }
    }
}

#[test]
fn a_span_served_on_a_reader_carries_the_endpoints_track_and_is_stored_by_join() {
    const CALLS: usize = 3;
    let _turn = turn();
    for (name, wire) in Wire::carriers() {
        let store = aide_trace::SpanStore::open();
        let (cs, ss) = wire.pair();
        // Whoever starts an endpoint names the lane of all it serves.
        let lane = aide_trace::current_lane();
        aide_trace::set_thread_lane(&lane.with_track("serving-side"));
        let server = start(ss, Arc::new(Vmish::default()), config());
        aide_trace::set_thread_lane(&lane.with_track("calling-side"));
        let client = start(cs, Arc::new(Vmish::default()), config());

        let root = aide_trace::span("serve_side.root", "test");
        let trace_id = root.context().trace_id;
        for _ in 0..CALLS {
            assert!(client.call(access(8, false)).is_ok(), "{name}");
        }
        drop(root);
        // The accepting end winds down on its own, while the carrier stays
        // up; the worker that read and served the calls has exited by then.
        wind_down(&[&server]);
        let serves: Vec<_> = store
            .drain()
            .into_iter()
            .filter(|s| s.trace_id == trace_id && s.name == aide_trace::names::RPC_SERVE)
            .collect();
        assert_eq!(
            serves.len(),
            CALLS,
            "{name}: in the store once join returns"
        );
        for serve in &serves {
            assert_eq!(serve.track, "serving-side", "{name}");
            assert_eq!(serve.arg("kind"), Some("FieldAccess"), "{name}");
        }
        wind_down(&[&client]);
    }
}

/// Serves `Invoke { arg_bytes: n }` by invoking `n - 1` on the side it came
/// from, down to zero: `n` nested bounces, each holding one worker.
#[derive(Default)]
struct Nests {
    own: OnceLock<Weak<Endpoint>>,
    threads: Mutex<HashSet<ThreadId>>,
}

impl Dispatcher for Nests {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        if let Request::Invoke { arg_bytes, .. } = request {
            if arg_bytes > 0 {
                let own = self.own.get().and_then(Weak::upgrade).expect("wired");
                own.call(invoke(arg_bytes - 1)).map_err(|e| e.to_string())?;
            }
        }
        Ok(Reply::Unit)
    }
}

/// `(worker and carrier reader threads, open descriptors)` of this process.
#[cfg(target_os = "linux")]
fn census() -> (usize, usize) {
    let threads = std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("rpc-"))
        .count();
    let descriptors = std::fs::read_dir("/proc/self/fd")
        .expect("descriptor list")
        .count();
    (threads, descriptors)
}

#[cfg(target_os = "linux")]
#[test]
fn the_pool_grows_by_what_nesting_needs_reuses_its_warmest_worker_and_leaves_nothing_behind() {
    let _turn = turn();
    // An earlier test's carriers may still be winding down: a reader lets go
    // of its socket and exits once it has seen its peer hang up.
    eventually("earlier endpoints gone", || census().0 == 0);
    let baseline = census();
    for (name, wire) in Wire::all() {
        // Nesting depth d occupies d workers on each end, and no more exist.
        for depth in [1u32, 3, 8] {
            let (cs, ss) = wire.pair();
            let (at_client, at_server) = (Arc::new(Nests::default()), Arc::new(Nests::default()));
            let client = start(cs, at_client.clone(), config());
            let server = start(ss, at_server.clone(), config());
            at_client.own.set(Arc::downgrade(&client)).unwrap();
            at_server.own.set(Arc::downgrade(&server)).unwrap();
            let before = counters();
            // 2d - 1 bounces: d of them land on the server, d on the client.
            for _ in 0..3 {
                assert_eq!(
                    client.call(invoke(2 * depth - 1)),
                    Ok(Reply::Unit),
                    "{name}"
                );
            }
            assert_eq!(
                counters_since(before).1,
                2 * u64::from(depth),
                "{name}: depth {depth}, three times over"
            );
            for end in [&at_client, &at_server] {
                assert_eq!(end.threads.lock().unwrap().len(), depth as usize, "{name}");
            }
            wind_down(&[&client, &server]);
        }

        // At the bound a request waits for the next worker that finishes.
        let (cs, ss) = wire.pair();
        let two = EndpointConfig {
            workers: 2,
            ..config()
        };
        let client = start(cs, Arc::new(Nests::default()), two);
        let server = start(ss, Arc::new(Sleeps), two);
        let before = counters();
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| assert_eq!(client.call(invoke(150)), Ok(Reply::Unit), "{name}"));
            }
        });
        let took = started.elapsed();
        assert!(
            took >= Duration::from_millis(300) && took < Duration::from_millis(450),
            "{name}: three 150 ms requests on two workers took {took:?}"
        );
        assert_eq!(counters_since(before).1, 2, "{name}");
        wind_down(&[&client, &server]);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while census() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(census(), baseline, "(rpc threads, descriptors)");
}

/// An `Invoke` takes `arg_bytes` milliseconds, holding nothing.
struct Sleeps;

impl Dispatcher for Sleeps {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        if let Request::Invoke { arg_bytes, .. } = request {
            std::thread::sleep(Duration::from_millis(u64::from(arg_bytes)));
        }
        Ok(Reply::Unit)
    }
}
