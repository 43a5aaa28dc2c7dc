//! One session of the benchmark's fleet shape, over a real daemon: a
//! provider-backed document store fills a 256 kB client heap with 4 kB
//! documents, ships most of them to the daemon in one migration, and then
//! visits every document once a round, writing to a third of them.
//!
//! The client knows the class of every object it shipped, so the monitor's
//! class lookups of the shipped documents never cross the link: the session
//! asks the daemon for no read at all, while the monitor still counts every
//! visit of a shipped document as a remote interaction.

use std::sync::Arc;
use std::time::Duration;

use aide_core::{BackoffConfig, FailoverConfig, Platform, PlatformConfig};
use aide_surrogate::{
    DaemonConfig, RegistryConfig, ShardConfig, SurrogateDaemon, SurrogateRegistry,
};
use aide_vm::{GcConfig, MethodDef, MethodId, Op, Program, ProgramBuilder, Reg};

const HEAP: u64 = 256 * 1024;
const DOCS: u16 = 72;
const DOC_BYTES: u32 = 4_000;
const ROUNDS: u16 = 12;
/// Documents the one migration ships: the rest stay on the client.
const SHIPPED: u64 = 65;
/// Frames the session exchanges with the daemon, both ways: 23 while a
/// queue of 128 deferred touches forced a waited flush.
const FRAMES: u64 = 11;

/// Fills `DOCS` slots, then visits every document once per round, in an
/// order that moves on by seven documents a round; a third of the visits
/// are writes.
fn document_store() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_native_class("Main");
    let doc = b.add_class("Doc");
    let mut ops = Vec::new();
    for slot in 0..DOCS {
        ops.push(Op::New {
            class: doc,
            scalar_bytes: DOC_BYTES,
            ref_slots: 0,
            dst: Reg(1),
        });
        ops.push(Op::PutSlot { slot, src: Reg(1) });
        ops.push(Op::Work { micros: 20 });
    }
    ops.push(Op::Clear { reg: Reg(1) });
    for round in 0..ROUNDS {
        for visit in 0..DOCS {
            let slot = (visit + 7 * round) % DOCS;
            ops.push(Op::GetSlot { slot, dst: Reg(2) });
            ops.push(if (visit + round) % 3 == 0 {
                Op::Write {
                    obj: Reg(2),
                    bytes: 256,
                }
            } else {
                Op::Read {
                    obj: Reg(2),
                    bytes: 64,
                }
            });
        }
        ops.push(Op::Work { micros: 50 });
    }
    b.add_method(main, MethodDef::new("main", ops));
    Arc::new(b.build(main, MethodId(0), 64, DOCS).unwrap())
}

#[test]
fn a_session_never_asks_the_class_of_what_it_shipped() {
    let program = document_store();
    let daemon = SurrogateDaemon::start(
        DaemonConfig::new("fleet-daemon", program.clone()).sharded(ShardConfig::default()),
    )
    .unwrap();
    let registry = Arc::new(SurrogateRegistry::new(RegistryConfig::default()));
    registry.add_static("fleet-daemon", daemon.local_addr(), 64 << 20);

    let mut config = PlatformConfig::prototype(HEAP);
    config.gc = GcConfig {
        trigger_alloc_count: 8,
        trigger_alloc_bytes: 64 * 1024,
        cost_micros_per_object: 0.05,
    };
    // No heartbeat probe lands inside the session: its frames are the
    // session's own.
    let failover = FailoverConfig {
        heartbeat_interval: Duration::from_secs(60),
        probe_timeout: Duration::from_millis(250),
        backoff: BackoffConfig {
            base: Duration::ZERO,
            factor: 2.0,
            max: Duration::ZERO,
            jitter: 0.0,
            seed: 1,
        },
    };
    let report = Platform::with_surrogates(program, config, registry)
        .with_failover_config(failover)
        .run();
    daemon.shutdown();

    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    let [offload] = report.offloads.as_slice() else {
        panic!("{} offloads, expected one", report.offloads.len());
    };
    assert_eq!(offload.outcome.objects_moved, SHIPPED);
    let failover = report.failover.as_ref().expect("provider-backed run");
    assert_eq!((failover.failovers, failover.objects_lost), (0, 0));
    // Every visit of a shipped document is a remote interaction ...
    assert_eq!(
        report.remote_stats.remote_interactions,
        SHIPPED * u64::from(ROUNDS)
    );
    // ... and none of them asked the daemon what class it touched.
    let access = report.remote_access;
    assert_eq!(
        (access.reads_asked, access.reads_from_memory),
        (0, SHIPPED * u64::from(ROUNDS)),
        "(remote reads asked, answered from memory)"
    );
    // The two-phase migration, the batched visits, the GC releases and the
    // one-way `Shutdown`, counted on the client's end: a round trip of its
    // own for each shipped document's class would make it 151.
    assert_eq!(report.frames_exchanged, FRAMES);
}
