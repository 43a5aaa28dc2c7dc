//! What a running daemon is made of, thread by thread. The census reads the
//! whole process, so this file holds exactly one test: nothing else may be
//! starting threads while it counts.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_rpc::{Message, MuxConn, Request};
use aide_surrogate::{DaemonConfig, ShardConfig, SurrogateDaemon};
use aide_vm::{MethodDef, MethodId, ProgramBuilder};

/// The kernel's name (at most 15 bytes) of every thread in the process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("thread list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn a_daemon_is_its_accept_loop_its_sweeper_its_workers_and_one_reader_per_carrier() {
    let harness = thread_names(); // the test runner's own threads

    let mut b = ProgramBuilder::new();
    let main = b.add_native_class("Main");
    b.add_method(main, MethodDef::new("main", Vec::new()));
    let program = Arc::new(b.build(main, MethodId(0), 0, 0).unwrap());
    let daemon = SurrogateDaemon::start(DaemonConfig::new("census", program)).unwrap();

    // One carrier with three sessions, each served at least once.
    let carrier = MuxConn::connect(daemon.local_addr(), Duration::from_secs(2)).unwrap();
    let sessions: Vec<_> = (0..3).map(|_| carrier.open_session().unwrap()).collect();
    for session in &sessions {
        let ping = Message::Request {
            seq: 1,
            client: 1,
            body: Request::Ping,
        };
        session.send(ping.encode()).unwrap();
        session.recv().expect("the daemon answers");
    }
    assert_eq!(daemon.live_sessions(), 3);

    // `aide-surrogate-census` and `aide-surrogate-gc` share their first 15
    // bytes; one of the two mux readers is this test's own client side.
    let mut expected = vec!["aide-surrogate-"; 2];
    expected.extend(vec!["aide-shard-cens"; ShardConfig::default().shards]);
    expected.extend(vec!["rpc-mux-reader"; 2]);
    expected.sort();
    // A thread names itself as it starts, so an idle worker may still carry
    // its parent's name: wait, bounded, for the census to settle.
    let deadline = Instant::now() + Duration::from_secs(5);
    let names = loop {
        let mut names = thread_names();
        for name in &harness {
            let at = names.iter().position(|n| n == name).expect("still there");
            names.swap_remove(at);
        }
        names.sort();
        if names == expected || Instant::now() > deadline {
            break names;
        }
        std::thread::yield_now();
    };
    assert_eq!(names, expected, "no thread per carrier, none per session");

    daemon.shutdown();
}
