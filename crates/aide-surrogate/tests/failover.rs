//! End-to-end tests over real TCP daemons: discovery, probing, and the
//! acceptance scenario — a surrogate daemon crashes mid-run and the
//! application still completes after local reinstatement and re-offload to
//! the second daemon.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use aide_core::{BackoffConfig, FailoverConfig, Platform, PlatformConfig};
use aide_surrogate::{
    BeaconConfig, DaemonConfig, RegistryConfig, SurrogateDaemon, SurrogateRegistry,
};
use aide_vm::{GcConfig, MethodDef, MethodId, Op, Program, ProgramBuilder, Reg};

const DOC_BYTES: u32 = 4_000;
const HEAP: u64 = 256 * 1024;

/// Minimal program for session/discovery tests.
fn tiny_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    b.add_method(main, MethodDef::new("main", vec![Op::Work { micros: 10 }]));
    Arc::new(b.build(main, MethodId(0), 64, 4).unwrap())
}

/// The document-store workload from the platform failover tests: fill past
/// the heap (offload), drop half (GC release), read survivors (hits the
/// dead surrogate), fill again (re-offload), read everything.
fn doc_store_program() -> Arc<Program> {
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
    let read_doc = |ops: &mut Vec<Op>, slot: u16| {
        ops.push(Op::GetSlot { slot, dst: Reg(2) });
        ops.push(Op::Read {
            obj: Reg(2),
            bytes: 64,
        });
    };

    for i in 0..70 {
        new_doc(&mut ops, i);
        if i % 8 == 0 {
            // Pre-offload reads: Main↔Doc interaction edges for the
            // partitioner, all served locally (offload has not happened yet
            // by the last of them).
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

#[test]
fn daemon_serves_isolated_sessions_and_answers_probes() {
    let daemon = SurrogateDaemon::start(DaemonConfig::new("porch-pc", tiny_program())).unwrap();
    let registries = [
        SurrogateRegistry::new(RegistryConfig::default()),
        SurrogateRegistry::new(RegistryConfig::default()),
    ];
    for registry in &registries {
        registry.add_static("porch-pc", daemon.local_addr(), 64 << 20);
        registry.probe_all();
        let ranked = registry.ranked();
        assert_eq!(ranked[0].name, "porch-pc");
        let rtt = ranked[0].rtt.expect("reachable daemon must be probed");
        assert!(rtt > Duration::ZERO);
    }

    // Each registry dialed a carrier of its own and probes over one pooled
    // session on it, so probing again opens nothing new.
    registries[0].probe_all();
    assert!(registries[0].ranked()[0].rtt.is_some());
    assert_eq!(daemon.sessions_accepted(), 2);

    // The two sessions are isolated: each has its own VM and reference
    // tables, which is what the per-session lease lines of a scrape list,
    // one per carrier.
    for registry in &registries {
        let stats = registry
            .scrape_stats("porch-pc")
            .expect("daemon answers STATS");
        let fleet = aide_telemetry::FleetSnapshot::parse(&stats, "porch-pc")
            .expect("the scrape carries the daemon's load lines");
        assert_eq!(fleet.live_sessions, 2);
        let carriers: Vec<u64> = fleet.leases.iter().map(|lease| lease.conn).collect();
        assert_eq!(carriers, [1, 2], "one session per carrier:\n{stats}");
    }

    daemon.shutdown();
}

#[test]
fn daemon_answers_stats_with_latency_histogram_data() {
    let daemon = SurrogateDaemon::start(DaemonConfig::new("observable", tiny_program())).unwrap();
    let registry = SurrogateRegistry::new(RegistryConfig::default());
    registry.add_static("observable", daemon.local_addr(), 64 << 20);

    // A probe records at least one real RPC round trip into the registry
    // that made it.
    registry.probe_all();
    assert_eq!(registry.ranked()[0].name, "observable");
    let probes = registry.probe_rtt_micros();
    assert!(probes.count() > 0, "at least one probe latency sample");
    assert_eq!(probes.counts().iter().sum::<u64>(), probes.count());

    // The daemon answers with its own numbers: its pool's load lines and
    // the process-wide detector, not the caller's latencies.
    let stats = registry
        .scrape_stats("observable")
        .expect("daemon answers STATS");
    let fleet = aide_telemetry::FleetSnapshot::parse(&stats, "observable")
        .expect("the scrape carries the daemon's load lines");
    assert_eq!(
        fleet.sessions_admitted_total,
        daemon.sessions_accepted(),
        "the admitted-sessions line is the daemon's count:\n{stats}"
    );
    assert!(fleet.sessions_admitted_total > 0, "{stats}");
    assert!(
        stats.contains("# TYPE aide_vm_external_unpin_unbalanced_total counter"),
        "the detector is listed:\n{stats}"
    );
    assert!(
        !stats.contains("latency"),
        "a daemon reports no caller's latencies:\n{stats}"
    );

    daemon.shutdown();
}

#[test]
fn repeated_probe_failures_evict_an_unreachable_address() {
    let config = RegistryConfig {
        connect_timeout: Duration::from_millis(200),
        probe_eviction_threshold: 3,
        ..RegistryConfig::default()
    };
    let registry = SurrogateRegistry::new(config);
    // A localhost port nobody is listening on: connect fails fast.
    registry.add_static("ghost", "127.0.0.1:1".parse().unwrap(), 1 << 20);
    // The first two failures leave the entry ranked — one lost probe on a
    // lossy link must not discard a surrogate.
    registry.probe_all();
    registry.probe_all();
    assert_eq!(registry.ranked().len(), 1);
    assert!(registry.dead_names().is_empty());
    // The third consecutive failure evicts it.
    registry.probe_all();
    assert!(registry.ranked().is_empty());
    assert_eq!(registry.dead_names(), ["ghost"]);
    assert_eq!(registry.evictions(), 1);
}

#[test]
fn beacon_discovery_registers_the_daemon() {
    // Learn a free UDP port, then point the daemon's beacon at it.
    let probe = UdpSocket::bind("127.0.0.1:0").unwrap();
    let listen = probe.local_addr().unwrap();
    drop(probe);

    let mut config = DaemonConfig::new("beaconed", tiny_program());
    config.beacon = Some(BeaconConfig {
        target: listen,
        interval: Duration::from_millis(20),
    });
    let daemon = SurrogateDaemon::start(config).unwrap();

    let registry = SurrogateRegistry::new(RegistryConfig::default());
    let found = registry
        .discover(listen, Duration::from_millis(500))
        .unwrap();
    assert_eq!(found, 1);
    let ranked = registry.ranked();
    assert_eq!(ranked[0].name, "beaconed");
    assert_eq!(ranked[0].addr, daemon.local_addr());
    assert_eq!(ranked[0].capacity_bytes, 64 << 20);

    daemon.shutdown();
}

/// Acceptance: the first daemon crashes after serving the initial offload
/// and one GC release; the next remote read hits a dead socket, the
/// platform reinstates the surviving documents locally, keeps running, and
/// re-offloads to the second daemon when pressure returns.
#[test]
fn platform_survives_daemon_crash_and_reoffloads_over_tcp() {
    let program = doc_store_program();
    let mut c1 = DaemonConfig::new("s1", program.clone());
    // Serve the migration's PREPARE and COMMIT, then sever the socket on
    // the next application request (health pings are not counted).
    c1.fail_after_requests = Some(2);
    let d1 = SurrogateDaemon::start(c1).unwrap();
    let d2 = SurrogateDaemon::start(DaemonConfig::new("s2", program.clone())).unwrap();

    let registry = Arc::new(SurrogateRegistry::new(RegistryConfig::default()));
    registry.add_static("s1", d1.local_addr(), 64 << 20);
    registry.add_static("s2", d2.local_addr(), 64 << 20);

    let report = Platform::with_surrogates(program, platform_config(), registry.clone())
        .with_failover_config(failover_config())
        .run();

    assert!(
        report.outcome.is_ok(),
        "application must survive the daemon crash: {:?}",
        report.outcome
    );
    let failover = report.failover.as_ref().expect("provider-backed run");
    assert_eq!(failover.failovers, 1, "{failover:?}");
    assert!(failover.reinstated_objects >= 10, "{failover:?}");
    assert_eq!(failover.objects_lost, 0, "{failover:?}");
    assert!(failover.reoffloads >= 1, "{failover:?}");
    assert_eq!(
        failover.surrogates_used,
        vec!["s1".to_string(), "s2".to_string()]
    );
    assert_eq!(registry.dead_names(), ["s1"]);
    assert_eq!(report.offloads.len(), 2);
    assert!(
        d2.requests_served() > 0,
        "s2 hosts the store after failover"
    );

    d1.shutdown();
    d2.shutdown();
}

/// Acceptance variant: the daemon dies *during* the very first offload (the
/// `MigratePrepare` itself is severed). The transactional migration rolls back,
/// nothing is lost, and the retry lands on the second daemon.
#[test]
fn offload_interrupted_mid_migration_rolls_back_and_retries() {
    let program = doc_store_program();
    let mut c1 = DaemonConfig::new("s1", program.clone());
    c1.fail_after_requests = Some(0); // kill the first application request
    let d1 = SurrogateDaemon::start(c1).unwrap();
    let d2 = SurrogateDaemon::start(DaemonConfig::new("s2", program.clone())).unwrap();

    let registry = Arc::new(SurrogateRegistry::new(RegistryConfig::default()));
    registry.add_static("s1", d1.local_addr(), 64 << 20);
    registry.add_static("s2", d2.local_addr(), 64 << 20);

    let report = Platform::with_surrogates(program, platform_config(), registry.clone())
        .with_failover_config(failover_config())
        .run();

    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    let failover = report.failover.as_ref().expect("provider-backed run");
    assert_eq!(failover.failovers, 1, "{failover:?}");
    assert_eq!(failover.objects_lost, 0, "{failover:?}");
    // Nothing had been shipped yet, so nothing needed reinstating.
    assert_eq!(failover.reinstated_objects, 0, "{failover:?}");
    assert!(failover.reoffloads >= 1, "{failover:?}");
    assert_eq!(
        failover.surrogates_used,
        vec!["s1".to_string(), "s2".to_string()]
    );
    // Only the successful migration is recorded.
    assert_eq!(report.offloads.len(), 1);
    assert!(d2.requests_served() > 0);

    d1.shutdown();
    d2.shutdown();
}
