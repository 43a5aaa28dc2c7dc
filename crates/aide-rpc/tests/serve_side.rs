//! The served side of a call. Every request is served by a worker pool that
//! starts empty, grows by one thread each time a request finds no idle
//! worker, and hands a job to the worker that parked last. On a byte-stream
//! carrier the pool is leader/followers: a worker that has sent its reply
//! reads the next request off the carrier itself and serves it, so a
//! request crosses no hand-off between the thread that reads it and the one
//! that serves it; the carrier's own thread reads only when nobody else
//! does, and hands what it reads to a worker. The carrier scenarios run over
//! a carrier shared by its sessions and over a pair's carrier of its own.
//!
//! Each test reads the two counters off the pools of the endpoints it
//! started (`WorkerPool::requests_served_where_read`, `workers_spawned`),
//! so the tests do not take turns. The census of the process's `rpc-*`
//! threads and descriptors is `carrier_census.rs`.

mod wires;

use std::collections::HashSet;
use std::sync::{Arc, Barrier};

use aide_telemetry::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use aide_rpc::{Dispatcher, EndpointConfig, Message, Reply, Request};
use aide_vm::{ClassId, ObjectId, ObjectRecord};
use wires::{eventually, invoke, served, since, start, wind_down, Wire};

fn access(bytes: u32, write: bool) -> Request {
    Request::FieldAccess {
        target: ObjectId::surrogate(1),
        bytes,
        write,
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
        let mut executions = self.executions.lock();
        let thread = std::thread::current();
        executions.push((
            request.kind(),
            thread.id(),
            thread.name().unwrap_or("?").to_owned(),
        ));
        Ok(Reply::Text(format!("execution {}", executions.len())))
    }

    fn executions(&self) -> Vec<Execution> {
        self.executions.lock().clone()
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
        let _vm = self.vm.lock();
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
    for (name, wire) in Wire::all() {
        let carrier = !matches!(wire, Wire::InProcess);
        let (cs, ss) = wire.pair();
        let vmish = Arc::new(Vmish::default());
        let client = start(cs, Arc::new(Vmish::default()), config());
        let server = start(ss, vmish.clone(), config());
        let counts = || served(&[&client, &server]);
        let before = counts();
        for _ in 0..CALLS {
            assert!(client.call(invoke(0)).is_ok(), "{name}");
        }
        assert_one_worker_read_them(name, carrier, CALLS, since(counts(), before));
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
    for (name, wire) in Wire::all() {
        let carrier = !matches!(wire, Wire::InProcess);
        let (cs, ss) = wire.pair();
        let (at_client, at_server) = (Arc::new(Vmish::default()), Arc::new(Vmish::default()));
        let client = start(cs, at_client.clone(), config());
        let server = start(ss, at_server.clone(), config());
        let counts = || served(&[&client, &server]);

        // Towards the accepting end, each one answered in order.
        let before = counts();
        for i in 0..CALLS {
            let reply = client.call(access(64, i % 2 == 0));
            assert_eq!(
                reply,
                Ok(Reply::Text(format!("execution {}", i + 1))),
                "{name}"
            );
        }
        assert_one_worker_read_them(name, carrier, CALLS, since(counts(), before));
        assert_eq!(server.requests_served(), CALLS, "{name}");

        // Towards the dialling end, by the same rule: its workers read too.
        let before = counts();
        for _ in 0..CALLS / 10 {
            assert!(server.call(access(64, false)).is_ok(), "{name}");
        }
        assert_one_worker_read_them(name, carrier, CALLS / 10, since(counts(), before));
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
    for (name, wire) in Wire::carriers() {
        // The busy VM: the test holds it while the first request arrives,
        // which no worker is there to read.
        let (cs, ss) = wire.pair();
        let vmish = Arc::new(Vmish::default());
        let client = start(cs, Arc::new(Vmish::default()), config());
        let server = start(ss, vmish.clone(), config());
        let counts = || served(&[&client, &server]);
        let before = counts();
        let busy = vmish.vm.lock();
        let reply = std::thread::scope(|scope| {
            let caller = scope.spawn(|| client.call(access(8, true)));
            // Read by the carrier's thread, handed to a new worker, which
            // waits for the VM.
            eventually("a worker took the request", || {
                since(counts(), before).1 == 1
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
        assert_eq!(since(counts(), before), (0, 1), "{name}");
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
        let (where_read, spawned) = since(counts(), before);
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
        let counts = || served(&[&server]);
        let before = counts();
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
        assert_eq!(since(counts(), before).1, 1, "{name}: one worker for both");
        wind_down(&[&server]);
    }
}

#[test]
fn a_session_stuck_behind_its_vm_does_not_slow_a_sibling_on_the_same_carrier() {
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
    let counts_of = |(client, server): &(_, _)| served(&[client, server]);
    let (a_counts, b_counts) = (|| counts_of(&pairs[0]), || counts_of(&pairs[1]));

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
            ready.send(a_counts()).unwrap();
            (a.call(invoke(600)), Instant::now())
        });
        let before = set.recv().unwrap();
        let started = Instant::now();
        eventually("the invoke holds A's VM", || slow.vm.try_lock().is_none());
        // Counted as it is taken, before it is served; nothing else runs.
        let led = since(a_counts(), before).0 == 1;
        let behind = scope.spawn(|| (a.call(access(8, false)), Instant::now()));

        // Session B, on the same carrier, never notices: after its first
        // request, B's worker reads each next one off the carrier itself
        // and serves it, as if A were not there.
        let read_before = b_counts();
        for _ in 0..CALLS {
            assert!(b.call(access(8, false)).is_ok(), "{name}");
        }
        let finished = Instant::now();
        let where_read = since(b_counts(), read_before).0;
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
    for (name, wire) in Wire::carriers() {
        let store = aide_telemetry::SpanStore::open();
        let (cs, ss) = wire.pair();
        // Whoever starts an endpoint names the lane of all it serves.
        let lane = aide_telemetry::current_lane();
        aide_telemetry::set_thread_lane(&lane.with_track("serving-side"));
        let server = start(ss, Arc::new(Vmish::default()), config());
        aide_telemetry::set_thread_lane(&lane.with_track("calling-side"));
        let client = start(cs, Arc::new(Vmish::default()), config());

        let root = aide_telemetry::span("serve_side.root", "test");
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
            .filter(|s| s.trace_id == trace_id && s.name == aide_telemetry::span_names::RPC_SERVE)
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

/// A pair's teardown does not wait out a lead. The worker that served the
/// last call leads its carrier until a job comes; the caller's `Shutdown`
/// is the next frame it routes, and that frame closes its endpoint and its
/// pool, so it leaves the carrier to its thread instead of reading on until
/// the socket's receive timeout — a timer tick, which the endpoint's `join`
/// would wait out. Counted, not timed.
#[test]
fn a_lead_ends_at_the_frame_that_closes_its_pool() {
    const RUNS: u64 = 20;
    let mut waited_out = 0;
    for _ in 0..RUNS {
        let wire = Wire::Pair(Mutex::default());
        let (cs, ss) = wire.pair();
        let server = start(ss, Arc::new(Vmish::default()), config());
        let client = start(cs, Arc::new(Vmish::default()), config());
        assert!(client.call(access(8, false)).is_ok());
        wind_down(&[&client, &server]);
        waited_out += server.pool().closed_leads_waited_out();
    }
    assert_eq!(waited_out, 0, "teardowns that waited out a lead");
}
