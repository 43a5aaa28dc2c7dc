//! Fleet-scale serving experiment: one process, one sharded daemon,
//! thousands of concurrent multiplexed sessions — plus the fleet-level
//! qualities the soak gates on, measured as numbers.
//!
//! Three phases, all over real TCP:
//!
//! 1. **Session scale** — a small client-thread pool drives raw mux
//!    sessions (encoded frames, no per-session endpoint machinery)
//!    against one sharded daemon, holding every session open at once.
//!    The pool must hold ≥ 5 000 live sessions and keep serving.
//! 2. **Migration latency** — platform clients offload against a
//!    three-daemon fleet; every migration's wall-clock duration feeds a
//!    p99.
//! 3. **Placement fairness + relay drain** — load-aware placement picks
//!    a daemon per arriving session from scraped `STATS` load, and a
//!    relay queue flushes a parked backlog into the fleet. Jain fairness
//!    of the resulting spread and the relay's expiry counter are the CI
//!    gates (fairness ≥ 0.8, `relay_expired_total == 0`).
//!
//! Results land in `BENCH_fleet.json` (JSON lines) for CI to archive.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_bench::{header, row};
use aide_core::{
    BackoffConfig, FailoverConfig, Platform, PlatformConfig, RelayShipment, RelaySink,
};
use aide_graph::CommParams;
use aide_rpc::{Dispatcher, Endpoint, EndpointConfig, Message, MuxConn, NetClock, Reply, Request};
use aide_surrogate::{
    DaemonConfig, RegistryConfig, RelayConfig, RelayQueue, ShardConfig, SurrogateDaemon,
    SurrogateRegistry,
};
use aide_vm::{
    ClassId, GcConfig, MethodDef, MethodId, ObjectId, ObjectRecord, Op, Program, ProgramBuilder,
    Reg,
};

/// Concurrent mux sessions the scale phase must sustain on one daemon.
const SESSIONS: usize = 5_000;
/// Client threads (and TCP carriers) driving them.
const THREADS: usize = 8;
/// Shard workers of the scale phase's daemon.
const SCALE_SHARDS: usize = 8;
/// The most threads the process may run at the scale phase's live peak,
/// since one `Endpoint` per session may not cost a thread: the daemon's
/// accept loop and lease sweeper, its shard workers, one reader per carrier
/// on each end, and this harness's main thread.
const SCALE_THREAD_BOUND: usize = 2 + SCALE_SHARDS + 2 * THREADS + 1;
/// Ping rounds per session in the scale phase.
const ROUNDS: u64 = 2;
/// Platform clients in the migration-latency phase.
const CLIENTS: usize = 4;
/// Sessions placed in the fairness phase.
const PLACEMENTS: usize = 24;
/// Shipments pushed through the relay drain.
const RELAY_SHIPMENTS: usize = 100;

const DOC_BYTES: u32 = 4_000;
const HEAP: u64 = 256 * 1024;

fn tiny_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    b.add_method(main, MethodDef::new("main", vec![Op::Work { micros: 10 }]));
    Arc::new(b.build(main, MethodId(0), 64, 4).unwrap())
}

/// The failover suite's document-store pressure workload, compacted.
fn doc_store_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_native_class("Main");
    let doc = b.add_class("Doc");
    let mut ops = Vec::new();
    for i in 0..100u16 {
        ops.push(Op::New {
            class: doc,
            scalar_bytes: DOC_BYTES,
            ref_slots: 0,
            dst: Reg(1),
        });
        ops.push(Op::PutSlot {
            slot: i,
            src: Reg(1),
        });
        ops.push(Op::Work { micros: 20 });
        if i % 8 == 0 {
            ops.push(Op::GetSlot {
                slot: i,
                dst: Reg(2),
            });
            ops.push(Op::Read {
                obj: Reg(2),
                bytes: 64,
            });
        }
    }
    b.add_method(main, MethodDef::new("main", ops));
    Arc::new(b.build(main, MethodId(0), 64, 100).unwrap())
}

struct NullDispatcher;

impl Dispatcher for NullDispatcher {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// Phase 1: raw mux sessions at scale. Returns (sessions held live at
/// once on the daemon, ping throughput over all sessions, the process's
/// threads at that peak).
fn session_scale() -> (usize, f64, usize) {
    let daemon = SurrogateDaemon::start(DaemonConfig::new("scale", tiny_program()).sharded(
        ShardConfig {
            shards: SCALE_SHARDS,
            max_sessions: 16_384,
            busy_retry_ms: 25,
        },
    ))
    .expect("start scale daemon");
    let addr = daemon.local_addr();
    let per_thread = SESSIONS / THREADS;

    let started = Instant::now();
    let drivers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                // One carrier per thread; sessions are logical channels on
                // it. No Endpoint machinery: a session here is two buffers
                // and a mux id, which is what makes 5k of them cheap.
                let transport =
                    MuxConn::connect(addr, Duration::from_secs(5)).expect("connect carrier");
                let sessions: Vec<_> = (0..per_thread)
                    .map(|_| transport.open_session().expect("open mux session"))
                    .collect();
                for round in 1..=ROUNDS {
                    // Fan every request out before reading any reply: the
                    // whole cohort is in flight at once.
                    for (i, session) in sessions.iter().enumerate() {
                        let frame = Message::Request {
                            seq: round,
                            client: (t * per_thread + i) as u64,
                            body: Request::Ping,
                        }
                        .encode();
                        session.send(frame).expect("send ping");
                    }
                    for session in &sessions {
                        let frame = session.recv().expect("recv reply");
                        match Message::decode(&frame).expect("decode reply") {
                            Message::Reply {
                                result: Ok(Reply::Unit),
                                ..
                            } => {}
                            other => panic!("unexpected reply: {other:?}"),
                        }
                    }
                }
                (transport, sessions)
            })
        })
        .collect();

    let carriers: Vec<_> = drivers
        .into_iter()
        .map(|d| d.join().expect("driver thread"))
        .collect();
    let elapsed = started.elapsed();
    // Every session has been served at least once and none has closed:
    // the pool is holding the whole cohort live right now.
    let live_peak = daemon.live_sessions();
    let threads_at_peak = std::fs::read_dir("/proc/self/task")
        .expect("the process's thread list")
        .count();
    let throughput = (SESSIONS as u64 * ROUNDS) as f64 / elapsed.as_secs_f64();

    for (transport, sessions) in carriers {
        for session in &sessions {
            session.close();
        }
        drop(sessions);
        transport.killer().kill();
    }
    daemon.shutdown();
    (live_peak, throughput, threads_at_peak)
}

/// Phase 2: platform clients offloading against a three-daemon fleet;
/// returns every migration's wall-clock duration in microseconds.
fn migration_latencies() -> Vec<u64> {
    let program = doc_store_program();
    let daemons: Vec<_> = ["m0", "m1", "m2"]
        .iter()
        .map(|name| {
            SurrogateDaemon::start(DaemonConfig::new(name, program.clone()))
                .expect("start fleet daemon")
        })
        .collect();
    let addrs: Vec<_> = daemons.iter().map(|d| d.local_addr()).collect();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let program = program.clone();
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let registry = Arc::new(SurrogateRegistry::new(RegistryConfig::default()));
                for (i, addr) in addrs.iter().enumerate() {
                    registry.add_static(&format!("m{i}"), *addr, 64 << 20);
                }
                registry.probe_all();
                registry.refresh_load();
                let mut cfg = PlatformConfig::prototype(HEAP);
                cfg.gc = GcConfig {
                    trigger_alloc_count: 8,
                    trigger_alloc_bytes: 64 * 1024,
                    cost_micros_per_object: 0.05,
                };
                Platform::with_surrogates(program, cfg, registry)
                    .with_failover_config(FailoverConfig {
                        heartbeat_interval: Duration::from_millis(50),
                        probe_timeout: Duration::from_millis(250),
                        backoff: BackoffConfig {
                            base: Duration::ZERO,
                            factor: 2.0,
                            max: Duration::ZERO,
                            jitter: 0.0,
                            seed: 1,
                        },
                    })
                    .run()
            })
        })
        .collect();

    let mut latencies = Vec::new();
    for handle in handles {
        let report = handle.join().expect("client thread");
        assert!(
            report.outcome.is_ok(),
            "fleet client failed: {:?}",
            report.outcome
        );
        latencies.extend(report.offloads.iter().map(|o| o.outcome.duration_micros));
    }
    for daemon in daemons {
        daemon.shutdown();
    }
    latencies
}

/// Phase 3a: place `PLACEMENTS` arriving sessions by scraped load;
/// returns per-daemon session counts.
fn placement_spread() -> Vec<u64> {
    let names = ["f0", "f1", "f2"];
    let daemons: Vec<_> = names
        .iter()
        .map(|name| {
            SurrogateDaemon::start(
                DaemonConfig::new(name, tiny_program()).sharded(ShardConfig {
                    shards: 2,
                    max_sessions: 64,
                    busy_retry_ms: 25,
                }),
            )
            .expect("start fairness daemon")
        })
        .collect();

    let registry = SurrogateRegistry::new(RegistryConfig::default());
    for (name, daemon) in names.iter().zip(&daemons) {
        registry.add_static(name, daemon.local_addr(), 64 << 20);
    }

    let mut counts = vec![0u64; daemons.len()];
    let mut held = Vec::new();
    for _ in 0..PLACEMENTS {
        // Scrape fresh load, pick the best-placed daemon, and park one
        // session on it — the reply round trip guarantees the daemon has
        // admitted the session before the next scrape.
        registry.refresh_load();
        let pick = registry.placement().first().expect("live daemon").clone();
        let index = names
            .iter()
            .position(|name| *name == pick.name)
            .expect("picked a known daemon");
        let transport = MuxConn::connect(pick.addr, Duration::from_secs(5)).expect("connect");
        let session = transport.open_session().expect("open session");
        session
            .send(
                Message::Request {
                    seq: 1,
                    client: counts[index],
                    body: Request::Ping,
                }
                .encode(),
            )
            .expect("send ping");
        let frame = session.recv().expect("recv reply");
        Message::decode(&frame).expect("decode reply");
        counts[index] += 1;
        held.push((transport, session));
    }

    for (transport, session) in held {
        session.close();
        transport.killer().kill();
    }
    for daemon in daemons {
        daemon.shutdown();
    }
    counts
}

/// Phase 3b: flush a parked relay backlog into a daemon; returns the
/// queue's (relayed, expired) lifetime counters.
fn relay_drain() -> (u64, u64) {
    let daemon = SurrogateDaemon::start(DaemonConfig::new("relay-target", tiny_program()))
        .expect("start relay target");
    let queue = RelayQueue::new(RelayConfig {
        ttl_ms: 60 * 60 * 1000,
        max_depth: RELAY_SHIPMENTS + 1,
    });
    for i in 0..RELAY_SHIPMENTS as u64 {
        queue
            .queue(RelayShipment {
                txn: 0,
                objects: vec![(ObjectId::client(i), ObjectRecord::new(ClassId(1), 256, 0))],
                pins: Vec::new(),
                bytes: 256,
                queued_for_ms: 0,
            })
            .expect("queue under max_depth");
    }

    let transport = MuxConn::connect(daemon.local_addr(), Duration::from_secs(5)).expect("connect");
    let session = transport.open_session().expect("open session");
    let endpoint = Endpoint::start(
        session,
        CommParams::WAVELAN,
        Arc::new(NetClock::new()),
        Arc::new(NullDispatcher),
        EndpointConfig {
            workers: 2,
            ..EndpointConfig::default()
        },
    );
    let delivered = queue.flush(&endpoint);
    assert_eq!(delivered.len(), RELAY_SHIPMENTS, "the backlog fully drains");
    endpoint.shutdown();
    endpoint.join();
    transport.killer().kill();
    daemon.shutdown();

    let stats = queue.stats();
    (stats.relayed_total, stats.expired_total)
}

/// Jain's fairness index: (Σx)² / (n·Σx²); 1.0 is a perfect spread.
fn jain(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sq: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sq)
}

fn p99(latencies: &mut [u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = ((latencies.len() as f64) * 0.99).ceil() as usize;
    latencies[rank.saturating_sub(1).min(latencies.len() - 1)]
}

fn main() {
    header(
        "fleet-scale serving: mux sessions, migration p99, placement fairness",
        "fleet hardening; not a paper figure — the paper ran one client against one surrogate",
    );

    let (live_peak, sessions_per_sec, threads_at_peak) = session_scale();
    row(
        "session scale",
        format!("{live_peak} sessions live at once on one sharded daemon, {sessions_per_sec:.0} pings/s"),
    );
    assert!(
        live_peak >= SESSIONS,
        "the pool must hold the whole cohort: {live_peak} < {SESSIONS}"
    );
    row(
        "threads at the peak",
        format!("{threads_at_peak} (bound {SCALE_THREAD_BOUND})"),
    );
    assert!(
        threads_at_peak <= SCALE_THREAD_BOUND,
        "{live_peak} sessions cost threads: {threads_at_peak} > {SCALE_THREAD_BOUND}"
    );

    let mut latencies = migration_latencies();
    let p99_migration = p99(&mut latencies);
    row(
        "migration latency",
        format!("{} migrations, p99 {} us", latencies.len(), p99_migration),
    );
    assert!(!latencies.is_empty(), "the fleet clients must offload");

    let spread = placement_spread();
    let fairness = jain(&spread);
    row(
        "placement fairness",
        format!("{spread:?} sessions per daemon, Jain {fairness:.3}"),
    );

    let (relay_relayed, relay_expired) = relay_drain();
    row(
        "relay drain",
        format!("{relay_relayed} shipments delivered, {relay_expired} expired"),
    );

    let artifact = format!(
        "{}\n",
        serde_json::json!({
            "kind": "summary",
            "experiment": "fleet_soak",
            "concurrent_sessions": live_peak,
            "threads_at_peak": threads_at_peak,
            "thread_bound": SCALE_THREAD_BOUND,
            "sessions_per_sec": sessions_per_sec,
            "migrations_measured": latencies.len(),
            "p99_migration_latency_micros": p99_migration,
            "placement_spread": spread,
            "jain_fairness": fairness,
            "relay_relayed_total": relay_relayed,
            "relay_expired_total": relay_expired,
        })
    );
    let path = "BENCH_fleet.json";
    match std::fs::write(path, artifact) {
        Ok(()) => row("artifact", path),
        Err(e) => row("artifact", format!("write failed: {e}")),
    }

    assert!(
        fairness >= 0.8,
        "load-aware placement must spread the fleet: Jain {fairness:.3} < 0.8"
    );
    assert_eq!(relay_expired, 0, "nothing may expire in the drain");
}
