//! GC leak soak: cross-VM references driven through seeded hostile links
//! must always be reclaimed — by release, by lease expiry, or by epoch
//! fencing — and never double-unpinned.
//!
//! The workload exports client objects to a surrogate holder, then mixes
//! every hostile path the lease machinery defends against: releases that
//! chaos duplicates and reorders, deliberate resends of the same release
//! watermark, stale-epoch releases from a fenced-off session, releases
//! naming long-gone objects, renewal via ordinary stamped traffic, and
//! finally silence — leases running out with nobody left to release them.
//! After every seed both reference tables must be empty, every external
//! root pin must be gone, and the VM's unpin audit must show zero
//! unbalanced (double) unpins.

use std::sync::Arc;
use std::time::Duration;

use aide::core::{RefTables, VmDispatcher};
use aide::graph::CommParams;
use aide::rpc::{
    chaos_pair, BackoffConfig, ChaosSchedule, Endpoint, EndpointConfig, GcClock, Request,
    RetryPolicy,
};
use aide::vm::{
    ClassId, Machine, MethodDef, MethodId, ObjectId, ObjectRecord, Program, ProgramBuilder,
    VmConfig,
};

const DOCS: u64 = 8;
const TTL_MS: u64 = 200;

fn tiny_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let _doc = b.add_class("Doc");
    b.add_method(main, MethodDef::new("main", vec![]));
    Arc::new(b.build(main, MethodId(0), 64, 4).unwrap())
}

fn soak_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 12,
        attempt_timeout: Duration::from_millis(100),
        backoff: BackoffConfig {
            base: Duration::from_millis(2),
            factor: 2.0,
            max: Duration::from_millis(50),
            jitter: 0.25,
            seed: 0xC0FFEE,
        },
        deadline: Duration::from_secs(30),
    }
}

fn soak_endpoint_config() -> EndpointConfig {
    EndpointConfig {
        workers: 2,
        call_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_millis(100),
        retry: soak_retry(),
    }
}

struct Side {
    machine: Machine,
    tables: Arc<RefTables>,
    dispatcher: Arc<VmDispatcher>,
    endpoint: Arc<Endpoint>,
}

/// One full hostile-seed run of the lease workload.
fn run_seed(seed: u64) {
    let mut schedule = ChaosSchedule::hostile(seed);
    schedule.max_delay = Duration::from_millis(5);
    let (link, ct, st, _stats) = chaos_pair(CommParams::WAVELAN, schedule);

    let build = |session, kind_client: bool| {
        let machine = if kind_client {
            Machine::new(tiny_program(), VmConfig::client(1 << 20))
        } else {
            Machine::new(tiny_program(), VmConfig::surrogate(16 << 20))
        };
        let tables = Arc::new(RefTables::with_clock(Arc::new(GcClock::new())));
        tables.exports.set_ttl_ms(TTL_MS);
        let dispatcher = Arc::new(VmDispatcher::new(machine.clone(), tables.clone()));
        let endpoint = Endpoint::start(
            session,
            link.params,
            link.clock.clone(),
            dispatcher.clone(),
            soak_endpoint_config(),
        );
        tables.attach_to(&endpoint, &machine);
        Side {
            machine,
            tables,
            dispatcher,
            endpoint,
        }
    };
    let client = build(ct, true);
    let surrogate = build(st, false);

    // Phase A: the client exports DOCS objects; the surrogate records the
    // matching imports. Exports pin their objects against local GC.
    {
        let vm = client.machine.vm();
        let mut vm = vm.lock();
        for i in 0..DOCS {
            let id = ObjectId::client(i);
            vm.heap_mut()
                .insert(id, ObjectRecord::new(ClassId(1), 512, 1))
                .unwrap();
            if client.tables.exports.export(id) {
                vm.external_root_inc(id);
            }
            surrogate.tables.imports.import(id);
        }
        assert_eq!(vm.external_root_count(), DOCS as usize);
    }
    assert_eq!(client.tables.exports.len(), DOCS as usize);

    // Phase B: the surrogate drops the even half and releases it over the
    // chaotic link. Retries may duplicate the frame in flight; the
    // watermark makes every duplicate a counted no-op.
    let dropped: Vec<ObjectId> = (0..DOCS)
        .filter(|i| i % 2 == 0)
        .map(ObjectId::client)
        .collect();
    for id in &dropped {
        surrogate.tables.imports.remove(*id);
    }
    let epoch = surrogate.tables.imports.advertised_epoch();
    let release_seq = surrogate.tables.imports.next_release_seq();
    let release = Request::GcReleaseSeq {
        epoch,
        release_seq,
        objects: dropped.clone(),
    };
    surrogate
        .endpoint
        .call_with_retry(release.clone())
        .expect("release survives chaos");
    // Deliberate resend of the same watermark: must be absorbed.
    surrogate
        .endpoint
        .call_with_retry(release)
        .expect("duplicate release survives chaos");
    // A release from before the epoch fence: the client counts it stale.
    surrogate.tables.imports.begin_epoch();
    surrogate
        .endpoint
        .call_with_retry(Request::GcRenew {
            epoch: surrogate.tables.imports.advertised_epoch(),
        })
        .expect("renew survives chaos");
    surrogate
        .endpoint
        .call_with_retry(Request::GcReleaseSeq {
            epoch,
            release_seq: surrogate.tables.imports.next_release_seq(),
            objects: vec![ObjectId::client(1)],
        })
        .expect("stale release survives chaos");
    // A release naming an object nobody ever exported: counted, ignored.
    surrogate
        .endpoint
        .call_with_retry(Request::GcReleaseSeq {
            epoch: surrogate.tables.imports.advertised_epoch(),
            release_seq: surrogate.tables.imports.next_release_seq(),
            objects: vec![ObjectId::client(999)],
        })
        .expect("unknown release survives chaos");

    {
        let vm = client.machine.vm();
        let vm = vm.lock();
        assert_eq!(
            vm.external_root_count(),
            (DOCS / 2) as usize,
            "seed {seed}: exactly the released half is unpinned — \
             duplicates, stale epochs, and unknown ids change nothing"
        );
        assert_eq!(vm.external_root_audit().unbalanced_unpins, 0);
    }
    assert_eq!(client.tables.exports.len(), (DOCS / 2) as usize);
    // The stale release must NOT have dropped object 1.
    assert!(client.tables.exports.contains(ObjectId::client(1)));

    // Phase C: ordinary stamped traffic renews the surviving leases.
    client.tables.exports.clock().advance_ms(TTL_MS - 10);
    surrogate
        .endpoint
        .call_with_retry(Request::Ping)
        .expect("ping survives chaos");
    let (expired, stale) = client.dispatcher.sweep_expired_exports();
    assert_eq!(
        (expired, stale),
        (0, 0),
        "seed {seed}: renewed leases must not expire"
    );

    // Phase D: silence. The surrogate dies without releasing; the leases
    // run out and the sweep hands every surviving export back. Let any
    // chaos-delayed duplicate frames land first — a straggler arriving
    // after the clock jump would legitimately renew the leases.
    std::thread::sleep(Duration::from_millis(20));
    client.tables.exports.clock().advance_ms(TTL_MS + TTL_MS);
    let (expired, _) = client.dispatcher.sweep_expired_exports();
    assert_eq!(
        expired,
        (DOCS / 2) as usize,
        "seed {seed}: every unrenewed lease expires"
    );
    // The dead surrogate's backlog finally arrives: releases for objects
    // that expiry already reclaimed are counted no-ops, not double unpins.
    surrogate
        .endpoint
        .call_with_retry(Request::GcReleaseSeq {
            epoch: surrogate.tables.imports.advertised_epoch(),
            release_seq: surrogate.tables.imports.next_release_seq(),
            objects: (0..DOCS)
                .filter(|i| i % 2 == 1)
                .map(ObjectId::client)
                .collect(),
        })
        .expect("late release survives chaos");
    for i in 0..DOCS {
        if i % 2 == 1 {
            surrogate.tables.imports.remove(ObjectId::client(i));
        }
    }

    // Final accounting: nothing leaked, nothing double-freed — on either
    // side, under every seed.
    for (name, side) in [("client", &client), ("surrogate", &surrogate)] {
        assert!(
            side.tables.exports.is_empty() && side.tables.imports.is_empty(),
            "seed {seed}: {name} reference tables must drain to empty \
             (exports={}, imports={})",
            side.tables.exports.len(),
            side.tables.imports.len(),
        );
        let vm = side.machine.vm();
        let vm = vm.lock();
        assert_eq!(
            vm.external_root_count(),
            0,
            "seed {seed}: {name} VM must hold no leftover external pins"
        );
        assert_eq!(
            vm.external_root_audit().unbalanced_unpins,
            0,
            "seed {seed}: {name} VM must never double-unpin"
        );
    }

    client.endpoint.shutdown();
    surrogate.endpoint.shutdown();
    client.endpoint.join();
    surrogate.endpoint.join();
}

#[test]
fn reference_tables_return_to_baseline_after_every_hostile_seed() {
    for seed in [1u64, 7, 1234] {
        run_seed(seed);
    }

    // Each seed's tables drained to empty above (their own `len()`); the
    // process-wide detector covers every VM the seeds ran.
    let snapshot = aide::telemetry::global().snapshot();
    assert_eq!(
        snapshot.counter(aide::telemetry::names::VM_UNPIN_UNBALANCED),
        0,
        "no VM anywhere in this process double-unpinned"
    );
}
