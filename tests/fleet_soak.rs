//! Fleet soak: N clients × M daemons over real TCP under the hostile
//! seeds, exercising the whole fleet-serving surface at once — sharded
//! worker pools, load-aware placement, `Busy` admission control with
//! client-side backoff-and-replace, a mid-run daemon crash with failover,
//! and the store-and-forward relay for a client that starts with no
//! reachable surrogate at all.
//!
//! The assertions are invariants, not schedules: every client session
//! must complete or fail over with zero lost objects, every relay queue
//! must drain (delivered, or recalled at end of run — never expired,
//! since nobody advances the relay clock), and no VM anywhere in the
//! process may ever double-unpin. Every assert names its seed, which is
//! the reproduction (the golden `traces/fleet.trace.jsonl` was distilled
//! from such a run).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aide::core::{BackoffConfig, FailoverConfig, Platform, PlatformConfig, PlatformReport};
use aide::graph::CommParams;
use aide::rpc::{
    Dispatcher, Endpoint, EndpointConfig, MuxConn, NetClock, Reply, Request, RpcError,
};
use aide::surrogate::{
    DaemonConfig, RegistryConfig, RelayConfig, RelayQueue, ShardConfig, SurrogateDaemon,
    SurrogateRegistry,
};
use aide::vm::{GcConfig, MethodDef, MethodId, Op, Program, ProgramBuilder, Reg};

const DOC_BYTES: u32 = 4_000;
const HEAP: u64 = 256 * 1024;
const CLIENTS: usize = 4;

/// The document-store pressure workload: fill past the heap (offload),
/// drop half (GC release), read survivors (hits a dead surrogate after
/// the crash), fill again (re-offload), read everything. A read takes the
/// document's one (empty) reference slot as well as its data: the slot
/// read is waited for, so the first read of a shipped document is a
/// `GetSlot` the surrogate must answer there and then.
fn doc_store_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_native_class("Main");
    let doc = b.add_class("Doc");

    let mut ops = Vec::new();
    let new_doc = |ops: &mut Vec<Op>, slot: u16| {
        ops.push(Op::New {
            class: doc,
            scalar_bytes: DOC_BYTES,
            ref_slots: 1,
            dst: Reg(1),
        });
        ops.push(Op::PutSlot { slot, src: Reg(1) });
        ops.push(Op::Work { micros: 20 });
    };
    let read_doc = |ops: &mut Vec<Op>, slot: u16| {
        ops.push(Op::GetSlot { slot, dst: Reg(2) });
        ops.push(Op::GetSlotOf {
            obj: Reg(2),
            slot: 0,
            dst: Reg(3),
        });
        ops.push(Op::Read {
            obj: Reg(2),
            bytes: 64,
        });
    };

    for i in 0..70 {
        new_doc(&mut ops, i);
        if i % 8 == 0 {
            read_doc(&mut ops, i);
        }
    }
    ops.push(Op::Clear { reg: Reg(1) });
    for i in 0..50 {
        ops.push(Op::PutSlot {
            slot: i,
            src: Reg(1),
        });
    }
    for i in 70..80 {
        new_doc(&mut ops, i);
    }
    for i in 55..60 {
        read_doc(&mut ops, i);
    }
    for i in 80..120 {
        new_doc(&mut ops, i);
    }
    for i in [55, 60, 75, 90, 118] {
        read_doc(&mut ops, i);
    }

    b.add_method(main, MethodDef::new("main", ops));
    Arc::new(b.build(main, MethodId(0), 64, 120).unwrap())
}

/// A lighter store whose final live set always fits back into the client
/// heap — the relay client's workload, so an end-of-run recall of parked
/// shipments can never overflow (and never lose objects).
///
/// The first fill must *cross* the heap, or the memory trigger never fires
/// and nothing is ever queued for the relay. A `Doc` is
/// `ObjectRecord::footprint_of(DOC_BYTES, 0)` = 4 016 B and `Main`, with
/// its 68 slots, 64 + 16 + 8 × 68 = 624 B, so the 256 KB heap holds 65
/// docs (65 × 4 016 + 624 = 261 664 of 262 144 B: 480 B free, far under
/// `TriggerConfig::low_free_fraction`'s 5 % = 13 107 B) and the 66th of the
/// 68 allocations finds it full. Sixty docs — 92 % of the heap — never
/// arm the trigger. Re-derive these numbers when the footprint changes.
fn relay_store_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_native_class("Main");
    let doc = b.add_class("Doc");

    let mut ops = Vec::new();
    let new_doc = |ops: &mut Vec<Op>, slot: u16| {
        ops.push(Op::New {
            class: doc,
            scalar_bytes: DOC_BYTES,
            ref_slots: 0,
            dst: Reg(1),
        });
        ops.push(Op::PutSlot { slot, src: Reg(1) });
        ops.push(Op::Work { micros: 20 });
    };
    for i in 0..68 {
        new_doc(&mut ops, i);
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
    // Drop nearly everything, twice around: the end-of-run live set is a
    // handful of documents, far under the heap limit.
    ops.push(Op::Clear { reg: Reg(1) });
    for i in 0..55 {
        ops.push(Op::PutSlot {
            slot: i,
            src: Reg(1),
        });
    }
    for i in 0..35 {
        new_doc(&mut ops, i);
    }
    ops.push(Op::Clear { reg: Reg(1) });
    for i in 0..30 {
        ops.push(Op::PutSlot {
            slot: i,
            src: Reg(1),
        });
    }
    b.add_method(main, MethodDef::new("main", ops));
    Arc::new(b.build(main, MethodId(0), 64, 68).unwrap())
}

fn platform_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::prototype(HEAP);
    cfg.gc = GcConfig {
        trigger_alloc_count: 8,
        trigger_alloc_bytes: 64 * 1024,
        cost_micros_per_object: 0.05,
    };
    cfg
}

fn failover_config() -> FailoverConfig {
    FailoverConfig {
        heartbeat_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        backoff: BackoffConfig {
            base: Duration::ZERO,
            factor: 2.0,
            max: Duration::ZERO,
            jitter: 0.0,
            seed: 1,
        },
    }
}

struct NullDispatcher;

impl Dispatcher for NullDispatcher {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// Deterministic admission-control check against a real sharded daemon
/// with `max_sessions == 1`: the first session is admitted and served,
/// the second is answered `Busy` carrying the daemon's configured hint.
fn assert_admission_control(addr: std::net::SocketAddr, busy_retry_ms: u32) {
    let transport = MuxConn::connect(addr, Duration::from_secs(2)).expect("connect daemon");
    let clock = Arc::new(NetClock::new());
    let mut endpoints = Vec::new();
    for _ in 0..2 {
        let session = transport.open_session().expect("open mux session");
        endpoints.push(Endpoint::start(
            session,
            CommParams::WAVELAN,
            clock.clone(),
            Arc::new(NullDispatcher),
            EndpointConfig {
                workers: 1,
                ..EndpointConfig::default()
            },
        ));
    }
    assert_eq!(
        endpoints[0].call(Request::Ping),
        Ok(Reply::Unit),
        "first session is admitted"
    );
    match endpoints[1].call(Request::Ping) {
        Err(RpcError::Busy { retry_after_ms }) => assert_eq!(retry_after_ms, busy_retry_ms),
        other => panic!("second session past the limit must be Busy, got {other:?}"),
    }
    for endpoint in endpoints {
        endpoint.shutdown();
        endpoint.join();
    }
    transport.killer().kill();
}

fn assert_session_ok(who: &str, seed: u64, report: &PlatformReport) {
    assert!(
        report.outcome.is_ok(),
        "seed {seed}: {who} must complete or fail over: {:?}",
        report.outcome
    );
    if let Some(failover) = report.failover.as_ref() {
        assert_eq!(
            failover.objects_lost, 0,
            "seed {seed}: {who} lost objects: {failover:?}"
        );
    }
}

/// One full fleet scenario at one seed, with d1 rigged to crash on each
/// session's first request of kind `crash_on`.
fn run_seed(seed: u64, crash_on: &'static str) {
    let program = doc_store_program();

    // d0: deliberately tiny admission limit — the saturation target.
    // d1: crashes mid-run on `crash_on`; the crash is the worker pool's
    // fault injector severing the carrier of each session that reaches
    // such a request. d2: default pool and healthy, the fleet's safety net.
    let shard = ShardConfig {
        shards: 1 + (seed as usize % 3),
        max_sessions: 1,
        busy_retry_ms: 10,
    };
    let d0 = SurrogateDaemon::start(DaemonConfig::new("d0", program.clone()).sharded(shard))
        .expect("start d0");
    let mut c1 = DaemonConfig::new("d1", program.clone());
    c1.crash_on = Some(crash_on);
    let d1 = SurrogateDaemon::start(c1).expect("start d1");
    let d2 = SurrogateDaemon::start(DaemonConfig::new("d2", program.clone())).expect("start d2");

    // Deterministic Busy handshake before the concurrent churn.
    assert_admission_control(d0.local_addr(), 10);

    // The doc-store clients: every registry knows the whole fleet. With
    // d0 admitting one session and d1 crashing, completion requires the
    // busy-cooldown and failover paths to actually work.
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let program = program.clone();
        let addrs = [d0.local_addr(), d1.local_addr(), d2.local_addr()];
        handles.push(std::thread::spawn(move || {
            let registry = Arc::new(SurrogateRegistry::new(RegistryConfig::default()));
            for (name, addr) in ["d0", "d1", "d2"].iter().zip(addrs) {
                registry.add_static(name, addr, 64 << 20);
            }
            // Stagger candidate order per client via a probe round for
            // half of them: placement stays deterministic, but the soak
            // visits both the probed and unprobed orderings.
            if client % 2 == 0 {
                registry.probe_all();
                registry.refresh_load();
            }
            Platform::with_surrogates(program, platform_config(), registry)
                .with_failover_config(failover_config())
                .run()
        }));
    }

    // The relay client: starts with an EMPTY registry — the first
    // pressure has nowhere to go and must park on the relay. A watcher
    // registers the healthy daemon only after a shipment is parked, so
    // the queued-then-delivered path is reachable; whatever is still
    // parked when the program ends is recalled, never stranded.
    let relay = Arc::new(RelayQueue::new(RelayConfig {
        ttl_ms: 60 * 60 * 1000, // nobody advances the clock: expiry never fires
        max_depth: 64,
    }));
    let relay_registry = Arc::new(SurrogateRegistry::new(RegistryConfig::default()));
    let done = Arc::new(AtomicBool::new(false));
    let watcher = {
        let relay = relay.clone();
        let registry = relay_registry.clone();
        let done = done.clone();
        let addr = d2.local_addr();
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                if relay.stats().queued_total > 0 {
                    registry.add_static("d2", addr, 64 << 20);
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let relay_report = Platform::with_surrogates(
        relay_store_program(),
        platform_config(),
        relay_registry.clone(),
    )
    .with_failover_config(failover_config())
    .with_relay(relay.clone())
    .run();
    done.store(true, Ordering::SeqCst);
    watcher.join().unwrap();

    let mut on_d1 = 0;
    for (client, handle) in handles.into_iter().enumerate() {
        let report = handle.join().expect("client thread");
        assert_session_ok(&format!("client {client}"), seed, &report);
        // Every session on d1 reaches its crash point: a client that used
        // d1 must have seen it, or the rig no longer crashes where it meant
        // to.
        let failover = report.failover.as_ref().expect("provider-backed run");
        if failover.surrogates_used.iter().any(|name| name == "d1") {
            on_d1 += 1;
            assert!(
                failover.failovers >= 1,
                "seed {seed}: client {client} used d1 and never failed over: {failover:?}"
            );
        }
    }
    assert!(
        on_d1 >= 1,
        "seed {seed}: no client used d1, so its crash went untested"
    );
    assert!(
        d1.crashes() >= 1,
        "seed {seed}: d1 never crashed on {crash_on}"
    );
    assert_session_ok("relay client", seed, &relay_report);

    // Relay accounting: at least one migration parked (the registry was
    // empty at first pressure), the queue fully drained, and every parked
    // shipment is accounted for — delivered, recalled, or expired (and
    // expiry never fires here).
    let failover = relay_report.failover.as_ref().expect("provider-backed run");
    assert!(
        failover.migrations_queued >= 1,
        "seed {seed}: first pressure had no surrogate and must queue: {failover:?}"
    );
    assert_eq!(
        failover.migrations_queued,
        failover.migrations_relayed + failover.relay_expired + failover.relay_recalled,
        "seed {seed}: every parked shipment delivered or reinstated: {failover:?}"
    );
    assert_eq!(failover.relay_expired, 0, "seed {seed}: {failover:?}");
    let stats = relay.stats();
    assert_eq!(stats.depth, 0, "seed {seed}: relay queue drains: {stats:?}");
    assert_eq!(stats.expired_total, 0, "seed {seed}: {stats:?}");

    // The sharded daemons' pools wind down with no stuck sessions.
    d0.shutdown();
    d1.shutdown();
    d2.shutdown();
    assert_eq!(d0.live_sessions(), 0, "seed {seed}");
    assert_eq!(d2.live_sessions(), 0, "seed {seed}");
}

#[test]
fn fleet_survives_saturation_crashes_and_lost_surrogates_at_every_seed() {
    // Each seed crashes d1 somewhere else: inside the migration, before
    // and after its PREPARE is served, and on the first read of a shipped
    // document.
    for (seed, kind) in [
        (1u64, "MigratePrepare"),
        (7, "MigrateCommit"),
        (1234, "GetSlot"),
    ] {
        run_seed(seed, kind);
    }

    // Process-wide accounting across all seeds: no VM anywhere ever
    // double-unpinned. Each seed's relay queue drained with nothing
    // expired (its own `stats()`, above).
    let snapshot = aide::telemetry::global().snapshot();
    assert_eq!(
        snapshot.counter(aide::telemetry::names::VM_UNPIN_UNBALANCED),
        0,
        "no VM in this process double-unpinned"
    );
}
