//! Two censuses of the whole process, each after a carrier scenario:
//! every carrier reader thread, pool worker and descriptor the scenario
//! made is gone again. They count every thread and descriptor of the
//! process, so they are the only tests in this file, and they take turns
//! on `GATE`.

mod wires;

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Arc, OnceLock, Weak};

use aide_telemetry::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use aide_rpc::{
    ConnKiller, Dispatcher, Endpoint, EndpointConfig, Message, Reply, Request, RpcError,
};
use wires::{
    answer, eventually, get_reading, invoke, served, since, start, wind_down, withheld, Echo, Wire,
};

static GATE: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    GATE.lock()
}

fn config(drain_timeout_ms: u64) -> EndpointConfig {
    EndpointConfig {
        workers: 8,
        drain_timeout: Duration::from_millis(drain_timeout_ms),
        ..EndpointConfig::default()
    }
}

/// `(carrier reader threads, open descriptors)` of this process.
#[cfg(target_os = "linux")]
fn readers() -> (usize, usize) {
    let readers = std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("rpc-mux-reader"))
        .count();
    let descriptors = std::fs::read_dir("/proc/self/fd")
        .expect("descriptor list")
        .count();
    (readers, descriptors)
}

#[cfg(target_os = "linux")]
#[test]
fn a_carrier_that_dies_under_a_reading_caller_fails_every_call_and_leaves_nothing_behind() {
    const CALLERS: usize = 3;
    let _turn = turn();
    // An earlier test's carriers may still be winding down: a reader lets go
    // of its socket and exits once it has seen its peer hang up.
    eventually("earlier carriers gone", || readers().0 == 0);
    let baseline = readers();
    for kill in [true, false] {
        for (name, wire) in Wire::carriers() {
            let killer = match &wire {
                Wire::Mux { dialled, .. } => dialled.killer(),
                // A pair's carrier, as `tcp_pair`'s, dies by hanging up.
                Wire::Pair(_) if kill => continue,
                _ => ConnKiller::noop(),
            };
            let (cs, theirs) = wire.pair();
            // Shared with the reading caller, which lets go before it
            // blocks: the test's hold is then the wire's last.
            let wire = Arc::new(wire);
            let config = config(200);
            let client = start(cs, Arc::new(Echo), config);
            // The accepting end by hand: answers reads, sits on the writes
            // and reports each, and comes back once every caller's is in.
            let (arrived, arrivals) = mpsc::channel();
            let peer = std::thread::spawn(move || {
                for _ in 0..CALLERS {
                    loop {
                        let frame = theirs.recv().expect("a request");
                        let Ok(Message::Request { seq, body, .. }) = Message::decode(&frame) else {
                            panic!("not a request: {frame:?}");
                        };
                        if body == withheld(0) {
                            break;
                        }
                        answer(&theirs, seq, Reply::Unit);
                    }
                    arrived.send(()).unwrap();
                }
                theirs
            });
            std::thread::scope(|scope| {
                // One caller gets to read and blocks on its write; only then
                // do the others queue up behind it.
                let reading = Arc::clone(&wire);
                let client = &client;
                let mut callers = vec![scope.spawn(move || {
                    get_reading(&reading, client, name);
                    drop(reading);
                    client.call(withheld(0))
                })];
                arrivals.recv().expect("the reading caller's write");
                for _ in 1..CALLERS {
                    callers.push(scope.spawn(|| client.call(withheld(0))));
                }
                let theirs = peer.join().unwrap();
                let struck = Instant::now();
                if kill {
                    killer.kill();
                } else {
                    drop(theirs);
                    drop(wire);
                }
                for caller in callers {
                    assert_eq!(
                        caller.join().unwrap(),
                        Err(RpcError::Disconnected),
                        "{name} kill={kill}"
                    );
                }
                assert!(
                    struck.elapsed() < Duration::from_secs(1),
                    "{name} kill={kill}: calls failed after {:?}",
                    struck.elapsed()
                );
            });
            let started = Instant::now();
            client.shutdown();
            client.join();
            assert!(
                started.elapsed() < config.drain_timeout,
                "{name} kill={kill}: join took {:?}",
                started.elapsed()
            );
        }
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while readers() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(readers(), baseline, "(reader threads, descriptors)");
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
        self.threads.lock().insert(std::thread::current().id());
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
fn rpc_threads() -> (usize, usize) {
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
    eventually("earlier endpoints gone", || rpc_threads().0 == 0);
    let baseline = rpc_threads();
    for (name, wire) in Wire::all() {
        // Nesting depth d occupies d workers on each end, and no more exist.
        for depth in [1u32, 3, 8] {
            let (cs, ss) = wire.pair();
            let (at_client, at_server) = (Arc::new(Nests::default()), Arc::new(Nests::default()));
            let client = start(cs, at_client.clone(), config(500));
            let server = start(ss, at_server.clone(), config(500));
            at_client.own.set(Arc::downgrade(&client)).unwrap();
            at_server.own.set(Arc::downgrade(&server)).unwrap();
            let before = served(&[&client, &server]);
            // 2d - 1 bounces: d of them land on the server, d on the client.
            for _ in 0..3 {
                assert_eq!(
                    client.call(invoke(2 * depth - 1)),
                    Ok(Reply::Unit),
                    "{name}"
                );
            }
            assert_eq!(
                since(served(&[&client, &server]), before).1,
                2 * u64::from(depth),
                "{name}: depth {depth}, three times over"
            );
            for end in [&at_client, &at_server] {
                assert_eq!(end.threads.lock().len(), depth as usize, "{name}");
            }
            wind_down(&[&client, &server]);
        }

        // At the bound a request waits for the next worker that finishes.
        let (cs, ss) = wire.pair();
        let two = EndpointConfig {
            workers: 2,
            ..config(500)
        };
        let client = start(cs, Arc::new(Nests::default()), two);
        let server = start(ss, Arc::new(Sleeps), two);
        let before = served(&[&client, &server]);
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
        assert_eq!(since(served(&[&client, &server]), before).1, 2, "{name}");
        wind_down(&[&client, &server]);
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while rpc_threads() != baseline && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(rpc_threads(), baseline, "(rpc threads, descriptors)");
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
