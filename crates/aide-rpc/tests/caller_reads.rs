//! On either end of a byte-stream carrier, a blocked caller reads its own
//! reply off the carrier; whenever somebody else is already reading, the
//! reply is handed over. Every scenario runs over a carrier shared by its
//! sessions and over a pair's carrier of its own.
//!
//! Each test reads the reply split off the carriers it dialled
//! (`MuxConn::stats`), so the tests do not take turns. The census of the
//! process's reader threads and descriptors is `carrier_census.rs`.

mod wires;

use std::sync::mpsc;
use std::sync::{Arc, Barrier, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

use aide_rpc::{
    BackoffConfig, Dispatcher, Endpoint, EndpointConfig, Message, Reply, Request, RetryPolicy,
    RpcError,
};
use aide_vm::{ClassId, MethodId, NativeKind, ObjectId};
use wires::{answer, eventually, get_reading, read, start, wind_down, withheld, Echo, Wire};

/// Answers everything at once except writes: a write reports its arrival
/// and sits on the gate its `bytes` names until the test opens it.
struct Withhold {
    gates: [(Mutex<bool>, Condvar); 2],
    arrived: mpsc::Sender<u32>,
}

impl Withhold {
    fn new() -> (Arc<Withhold>, mpsc::Receiver<u32>) {
        let (arrived, arrivals) = mpsc::channel();
        let gates = [
            (Mutex::new(false), Condvar::new()),
            (Mutex::new(false), Condvar::new()),
        ];
        (Arc::new(Withhold { gates, arrived }), arrivals)
    }

    fn open(&self, gate: u32) {
        let (open, opened) = &self.gates[gate as usize];
        *open.lock().unwrap() = true;
        opened.notify_all();
    }
}

impl Dispatcher for Withhold {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        if let Request::FieldAccess {
            write: true, bytes, ..
        } = request
        {
            let _ = self.arrived.send(bytes);
            let (open, opened) = &self.gates[bytes as usize];
            let mut open = open.lock().unwrap();
            while !*open {
                open = opened.wait(open).unwrap();
            }
        }
        Ok(Reply::Unit)
    }
}

fn config() -> EndpointConfig {
    EndpointConfig {
        workers: 8,
        drain_timeout: Duration::from_millis(200),
        ..EndpointConfig::default()
    }
}

/// Waits until `replies` replies since `before` are counted one way or the
/// other (a thread that hands a reply over counts it after the hand-over,
/// which may be a moment after its caller has returned), and checks that
/// their callers read ≥ 99 % of them: a reply is handed over when the
/// caller was kept off the CPU for a millisecond and its carrier looked
/// idle to the carrier's thread — a handful in 10 000 unless the machine is
/// overloaded.
fn assert_callers_read(wire: &Wire, name: &str, before: (u64, u64), replies: u64) {
    eventually("every reply is one or the other", || {
        let (own, handed) = wire.replies_since(before);
        own + handed == replies
    });
    let (own, _) = wire.replies_since(before);
    assert!(
        own * 100 >= replies * 99,
        "{name}: {own} of {replies} replies read by their caller"
    );
}

#[test]
fn callers_read_their_own_replies_on_the_dialling_end_and_in_call_backs_from_the_accepting_end() {
    const CALLS: u64 = 10_000;
    const CALL_BACKS: u32 = 1_000;
    for (name, wire) in Wire::carriers() {
        let (cs, ss) = wire.pair();
        let client = start(cs, Arc::new(Echo), config());
        let calls_back = Arc::new(CallsBack {
            own: OnceLock::new(),
        });
        let server = start(ss, calls_back.clone(), config());
        calls_back.own.set(Arc::downgrade(&server)).unwrap();

        // A lone caller on the dialling end.
        let before = wire.replies();
        for _ in 0..CALLS {
            assert_eq!(client.call(read()), Ok(Reply::Unit), "{name}");
        }
        assert_callers_read(&wire, name, before, CALLS);

        // A dispatcher on the accepting end calling back to the dialling
        // end while it serves: the worker serving it reads the replies to
        // its call-backs itself, and the outer caller its own.
        get_reading(&wire, &client, name);
        let before = wire.replies();
        let invoke = Request::Invoke {
            target: ObjectId::surrogate(1),
            class: ClassId(1),
            method: MethodId(0),
            arg_bytes: CALL_BACKS,
            ret_bytes: 0,
            args: Vec::new(),
        };
        assert_eq!(client.call(invoke), Ok(Reply::Unit), "{name}");
        assert_eq!(client.requests_served(), u64::from(CALL_BACKS), "{name}");
        assert_callers_read(&wire, name, before, u64::from(CALL_BACKS) + 1);
        wind_down(&[&client, &server]);
    }
}

#[test]
fn concurrent_callers_complete_around_one_that_times_out() {
    const CALLERS: usize = 4;
    const CALLS: usize = 300;
    let timeout = Duration::from_millis(20);
    for (name, wire) in Wire::carriers() {
        // One attempt of 20 ms for `call_with_retry`; `call` keeps its 30 s.
        let config = EndpointConfig {
            retry: RetryPolicy {
                max_attempts: 1,
                attempt_timeout: timeout,
                deadline: timeout,
                ..RetryPolicy::default()
            },
            ..config()
        };
        let (dispatcher, arrivals) = Withhold::new();
        let sessions = if matches!(wire, Wire::Mux { .. }) {
            2
        } else {
            1
        };
        let pairs: Vec<_> = (0..sessions)
            .map(|_| {
                let (cs, ss) = wire.pair();
                (
                    start(cs, Arc::new(Echo), config),
                    start(ss, dispatcher.clone(), config),
                )
            })
            .collect();

        // Every session's callers hammer away while one more call on the
        // first session runs into its timeout.
        let go = Barrier::new(sessions * CALLERS + 1);
        let gave_up_after = std::thread::scope(|scope| {
            for (client, _) in &pairs {
                for _ in 0..CALLERS {
                    scope.spawn(|| {
                        go.wait();
                        for i in 0..CALLS {
                            assert_eq!(client.call(read()), Ok(Reply::Unit), "{name}: call {i}");
                        }
                    });
                }
            }
            go.wait();
            let started = Instant::now();
            assert_eq!(
                pairs[0].0.call_with_retry(withheld(0)),
                Err(RpcError::Timeout),
                "{name}"
            );
            started.elapsed()
        });
        assert!(
            gave_up_after >= timeout && gave_up_after <= timeout + Duration::from_millis(15),
            "{name}: a 20 ms call gave up after {gave_up_after:?}"
        );
        assert_eq!(arrivals.recv(), Ok(0), "{name}: the request did arrive");

        // Who waits behind a reading caller is served when that caller
        // leaves: the first session's caller reads, runs into its timeout
        // with a second caller queued behind it, and goes.
        let client = &pairs[0].0;
        let (queued_done, released) = std::thread::scope(|scope| {
            let reading = scope.spawn(|| {
                get_reading(&wire, client, name);
                client.call_with_retry(withheld(0))
            });
            assert_eq!(arrivals.recv(), Ok(0), "{name}");
            let queued = scope.spawn(|| {
                let outcome = client.call(withheld(1));
                (outcome, Instant::now())
            });
            assert_eq!(arrivals.recv(), Ok(1), "{name}");
            assert_eq!(reading.join().unwrap(), Err(RpcError::Timeout), "{name}");
            let released = Instant::now();
            dispatcher.open(1);
            let (outcome, done) = queued.join().unwrap();
            assert_eq!(outcome, Ok(Reply::Unit), "{name}");
            (done, released)
        });
        let waited = queued_done.saturating_duration_since(released);
        assert!(
            waited < Duration::from_millis(50),
            "{name}: a queued caller waited {waited:?} after the reading caller left"
        );

        // Both abandoned replies straggle in once the peer lets them go.
        assert_eq!(client.late_replies(), 0, "{name}");
        dispatcher.open(0);
        eventually("two late replies counted", || client.late_replies() == 2);
        for (client, server) in &pairs {
            wind_down(&[client, server]);
        }
    }
}

#[test]
fn a_retry_whose_first_attempt_the_peer_drops_executes_once() {
    let attempt_timeout = Duration::from_millis(100);
    for (name, wire) in Wire::carriers() {
        let (cs, theirs) = wire.pair();
        let client = start(
            cs,
            Arc::new(Echo),
            EndpointConfig {
                retry: RetryPolicy {
                    max_attempts: 4,
                    attempt_timeout,
                    backoff: BackoffConfig {
                        base: Duration::from_millis(10),
                        jitter: 0.0,
                        ..RetryPolicy::default().backoff
                    },
                    deadline: Duration::from_secs(10),
                },
                ..config()
            },
        );
        // The accepting end, played by hand: answers reads, loses the first
        // copy of the write, answers the second.
        let peer = std::thread::spawn(move || {
            let mut copies = Vec::new();
            loop {
                let frame = theirs.recv().expect("a request");
                let Ok(Message::Request { seq, client, body }) = Message::decode(&frame) else {
                    panic!("not a request: {frame:?}");
                };
                if body != withheld(0) {
                    answer(&theirs, seq, Reply::Unit);
                    continue;
                }
                copies.push((client, seq, Instant::now()));
                if copies.len() == 2 {
                    answer(&theirs, seq, Reply::Class(ClassId(7)));
                    return (copies, theirs);
                }
            }
        });
        get_reading(&wire, &client, name);
        let started = Instant::now();
        assert_eq!(
            client.call_with_retry(withheld(0)),
            Ok(Reply::Class(ClassId(7))),
            "{name}"
        );
        let took = started.elapsed();
        let (copies, _theirs) = peer.join().unwrap();
        assert_eq!(client.retries(), 1, "{name}: one resend");
        assert_eq!(
            (copies[0].0, copies[0].1),
            (copies[1].0, copies[1].1),
            "{name}: the retry is the same (client, seq)"
        );
        // The first attempt waited out its whole timeout and no more: the
        // copies are one attempt and one 10 ms backoff apart.
        let apart = copies[1].2 - copies[0].2;
        assert!(
            apart >= attempt_timeout && apart < attempt_timeout + Duration::from_millis(60),
            "{name}: copies {apart:?} apart"
        );
        assert!(took < attempt_timeout * 2, "{name}: took {took:?}");
        assert_eq!(client.late_replies(), 0, "{name}");
        wind_down(&[&client]);
    }
}

/// Serves `Invoke` by calling back into the invoking side first, as many
/// times as its `arg_bytes` say.
struct CallsBack {
    own: OnceLock<Weak<Endpoint>>,
}

impl Dispatcher for CallsBack {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        if let Request::Invoke { arg_bytes, .. } = request {
            let own = self.own.get().and_then(Weak::upgrade).expect("wired");
            for _ in 0..arg_bytes {
                own.call(Request::Native {
                    caller: ClassId(1),
                    kind: NativeKind::Framebuffer,
                    work_micros: 0,
                    arg_bytes: 8,
                    ret_bytes: 0,
                })
                .map_err(|e| e.to_string())?;
            }
        }
        Ok(Reply::Unit)
    }
}

/// Remembers which threads served its natives.
#[derive(Default)]
struct ServedOn {
    threads: Mutex<Vec<String>>,
}

impl Dispatcher for ServedOn {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        if matches!(request, Request::Native { .. }) {
            let thread = std::thread::current().name().unwrap_or("?").to_owned();
            self.threads.lock().unwrap().push(thread);
        }
        Ok(Reply::Unit)
    }
}

#[test]
fn a_call_back_met_while_reading_is_served_by_a_worker() {
    const NESTED: u64 = 20;
    for (name, wire) in Wire::carriers() {
        let (cs, ss) = wire.pair();
        let served_on = Arc::new(ServedOn::default());
        let client = start(cs, served_on.clone(), config());
        let calls_back = Arc::new(CallsBack {
            own: OnceLock::new(),
        });
        let server = start(ss, calls_back.clone(), config());
        calls_back.own.set(Arc::downgrade(&server)).unwrap();

        get_reading(&wire, &client, name);
        let before = wire.replies();
        for _ in 0..NESTED {
            let invoke = Request::Invoke {
                target: ObjectId::surrogate(1),
                class: ClassId(1),
                method: MethodId(0),
                arg_bytes: 1,
                ret_bytes: 8,
                args: vec![ObjectId::client(2)],
            };
            assert_eq!(client.call(invoke), Ok(Reply::Unit), "{name}");
        }
        // The outer caller met each call-back request on its way to its own
        // reply, handed it to a worker and read on.
        let (own, _) = wire.replies_since(before);
        assert!(
            own >= NESTED * 3 / 4,
            "{name}: {own} of {NESTED} outer replies"
        );
        assert_eq!(client.requests_served(), NESTED, "{name}");
        let threads = served_on.threads.lock().unwrap().clone();
        assert_eq!(threads.len() as u64, NESTED, "{name}");
        assert!(
            threads
                .iter()
                .all(|thread| thread.starts_with("rpc-worker-")),
            "{name}: natives served on {threads:?}"
        );
        wind_down(&[&client, &server]);
    }
}

#[test]
fn an_idle_dialling_end_still_serves_its_peer() {
    for (name, wire) in Wire::carriers() {
        let (cs, ss) = wire.pair();
        let client = start(cs, Arc::new(Echo), config());
        let server = start(ss, Arc::new(Echo), config());
        // Right after a burst nobody holds the read half (the reader thread
        // stepped aside for the caller, who has gone quiet); 20 ms later the
        // thread has long taken it back. Either way the peer is served.
        for idle in [Duration::ZERO, Duration::from_millis(20)] {
            get_reading(&wire, &client, name);
            std::thread::sleep(idle);
            let started = Instant::now();
            assert_eq!(server.call(read()), Ok(Reply::Unit), "{name}");
            assert!(
                started.elapsed() < Duration::from_millis(50),
                "{name}: served after {:?} (idle {idle:?})",
                started.elapsed()
            );
        }
        assert_eq!(client.requests_served(), 2, "{name}");
        wind_down(&[&client, &server]);
    }
}
