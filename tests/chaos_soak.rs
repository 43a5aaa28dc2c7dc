//! Chaos soak: a deterministic workload driven through the full RPC stack
//! over seeded hostile links must land in exactly the state a fault-free
//! run produces — no lost writes, no double execution, no panics.
//!
//! Three layers carry the workload through the weather: CRC32 framing
//! rejects corruption and truncation, `call_with_retry` masks loss and
//! delay, and the serving side's at-most-once cache absorbs duplicates and
//! retransmissions. A separate scenario injects a hard connection reset in
//! the middle of a two-phase migration and checks the rollback restores
//! the pre-offload placement byte-for-byte.

use std::sync::Arc;
use std::time::Duration;

use aide::core::{execute_offload_tracked, NodeKey, RefTables, VmDispatcher};
use aide::graph::{
    plan_candidates, CommParams, EdgeInfo, ExecutionGraph, MemoryPolicy, NodeInfo, PartitionPolicy,
    PinReason, ResourceSnapshot,
};
use aide::rpc::{
    chaos_pair, chaos_wrap, BackoffConfig, ChaosSchedule, Dispatcher, Endpoint, EndpointConfig,
    Link, Reply, Request, RetryPolicy, Session,
};
use aide::telemetry::{FlightRecorder, PlatformEvent};
use aide::vm::{
    ClassId, Machine, MethodDef, MethodId, ObjectId, ObjectRecord, Program, ProgramBuilder,
    VmConfig,
};

const DOCS: u64 = 10;

fn tiny_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let _doc = b.add_class("Doc");
    b.add_method(main, MethodDef::new("main", vec![]));
    Arc::new(b.build(main, MethodId(0), 64, 4).unwrap())
}

/// The client never serves; it only calls.
struct NullDispatcher;
impl Dispatcher for NullDispatcher {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// A retry policy aggressive enough that the workload survives hostile
/// loss rates by persistence, not luck.
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

struct Harness {
    client_ep: Arc<Endpoint>,
    surrogate_ep: Arc<Endpoint>,
    /// Kept so final state can be read directly, bypassing the chaotic
    /// link.
    surrogate_dispatcher: Arc<VmDispatcher>,
}

fn start_endpoints(link: &Link, ct: Session, st: Session) -> Harness {
    let surrogate_vm = Machine::new(tiny_program(), VmConfig::surrogate(16 << 20));
    let surrogate_dispatcher =
        Arc::new(VmDispatcher::new(surrogate_vm, Arc::new(RefTables::new())));
    let client_ep = Endpoint::start(
        ct,
        link.params,
        link.clock.clone(),
        Arc::new(NullDispatcher),
        soak_endpoint_config(),
    );
    let surrogate_ep = Endpoint::start(
        st,
        link.params,
        link.clock.clone(),
        surrogate_dispatcher.clone(),
        soak_endpoint_config(),
    );
    Harness {
        client_ep,
        surrogate_ep,
        surrogate_dispatcher,
    }
}

/// The deterministic workload: two-phase-migrate `DOCS` documents into the
/// surrogate, then interleave slot writes (including overwrites and
/// clears). Every call is non-idempotent, so a single re-execution would
/// corrupt the final state.
fn run_workload(h: &Harness) -> u64 {
    let objects: Vec<(ObjectId, ObjectRecord)> = (0..DOCS)
        .map(|i| {
            let mut rec = ObjectRecord::new(ClassId(1), 1_000, 2);
            rec.slots[0] = Some(ObjectId::client((i + 1) % DOCS));
            (ObjectId::client(i), rec)
        })
        .collect();
    let mut calls = 0u64;
    h.client_ep
        .call_with_retry(Request::MigratePrepare { txn: 77, objects })
        .expect("PREPARE survives chaos");
    calls += 1;
    h.client_ep
        .call_with_retry(Request::MigrateCommit { txn: 77 })
        .expect("COMMIT survives chaos");
    calls += 1;
    for i in 0..(DOCS * 2) {
        let value = if i % 3 == 0 {
            None
        } else {
            Some(ObjectId::client((i * 7 + 3) % DOCS))
        };
        h.client_ep
            .call_with_retry(Request::PutSlot {
                target: ObjectId::client(i % DOCS),
                slot: (i % 2) as u16,
                value,
            })
            .expect("PutSlot survives chaos");
        calls += 1;
    }
    calls
}

/// Final placement signature, read directly from the surrogate VM (not
/// over the chaotic link): every document's two slots.
fn final_state(h: &Harness) -> Vec<Option<ObjectId>> {
    let mut state = Vec::new();
    for i in 0..DOCS {
        for slot in 0..2u16 {
            match h
                .surrogate_dispatcher
                .dispatch(Request::GetSlot {
                    target: ObjectId::client(i),
                    slot,
                })
                .expect("document resident on the surrogate")
            {
                Reply::Slot(v) => state.push(v),
                other => panic!("unexpected GetSlot reply {other:?}"),
            }
        }
    }
    state
}

fn shut_down(h: Harness) {
    h.client_ep.shutdown();
    h.client_ep.join();
    h.surrogate_ep.shutdown();
    h.surrogate_ep.join();
}

/// Fault-free reference run: the state every chaotic run must reproduce.
fn reference_run() -> (Vec<Option<ObjectId>>, u64) {
    let (link, ct, st) = Link::pair(CommParams::WAVELAN);
    let h = start_endpoints(&link, ct, st);
    let calls = run_workload(&h);
    assert_eq!(h.surrogate_ep.requests_served(), calls);
    assert_eq!(h.client_ep.retries(), 0);
    let state = final_state(&h);
    shut_down(h);
    (state, calls)
}

#[test]
fn workload_state_is_identical_under_seeded_chaos() {
    let (reference, calls) = reference_run();
    for seed in [1u64, 7, 1234] {
        let mut schedule = ChaosSchedule::hostile(seed);
        schedule.max_delay = Duration::from_millis(5);

        let (link, ct, st, _stats) = chaos_pair(CommParams::WAVELAN, schedule);
        let h = start_endpoints(&link, ct, st);
        let chaotic_calls = run_workload(&h);
        assert_eq!(chaotic_calls, calls);
        assert_eq!(
            h.surrogate_ep.requests_served(),
            calls,
            "seed {seed}: every logical request executes exactly once \
             (at-most-once cache absorbed the rest)"
        );
        assert_eq!(
            final_state(&h),
            reference,
            "seed {seed}: chaotic run must land in the fault-free state"
        );
        shut_down(h);
    }
}

#[test]
fn reply_loss_is_fully_accounted_by_the_dedup_cache() {
    let (reference, calls) = reference_run();
    // Asymmetric chaos: only surrogate → client frames are lost, so every
    // request arrives and executes exactly once; each client retry must
    // therefore be answered from the at-most-once cache.
    let (link, ct, st) = Link::pair(CommParams::WAVELAN);
    let mut schedule = ChaosSchedule::seeded(99);
    schedule.drop = 0.3;
    let (st, _stats) = chaos_wrap(st, schedule);
    let h = start_endpoints(&link, ct, st);

    let chaotic_calls = run_workload(&h);
    assert_eq!(chaotic_calls, calls);
    let retries = h.client_ep.retries();
    assert!(retries > 0, "a 30% reply-loss run must retry at least once");
    assert_eq!(h.surrogate_ep.requests_served(), calls);
    assert_eq!(
        h.surrogate_ep.dedup_hits(),
        retries,
        "every retry of a non-idempotent request must be a dedup hit"
    );
    assert_eq!(final_state(&h), reference);
    shut_down(h);
}

/// Builds a two-node graph (pinned Main, offloadable Doc) and a selection
/// offloading Doc — the same shape the platform's partitioner produces.
fn doc_selection(doc_bytes: u64) -> (aide::graph::SelectedPartition, Vec<NodeKey>) {
    let mut g = ExecutionGraph::new();
    let main = g.add_node(NodeInfo::pinned("Main", PinReason::NativeMethods));
    let doc = g.add_node(NodeInfo::new("Doc"));
    g.node_mut(doc).memory_bytes = doc_bytes;
    g.record_interaction(main, doc, EdgeInfo::new(5, 100));
    let cands = plan_candidates(&g);
    let sel = MemoryPolicy::new(1e-6)
        .select(&g, ResourceSnapshot::new(1 << 20, 1 << 19), &cands)
        .expect("feasible");
    (
        sel,
        vec![NodeKey::Class(ClassId(0)), NodeKey::Class(ClassId(1))],
    )
}

#[test]
fn mid_migration_reset_rolls_back_the_client_heap() {
    let program = tiny_program();
    let client = Machine::new(program.clone(), VmConfig::client(1 << 20));
    let surrogate = Machine::new(program, VmConfig::surrogate(16 << 20));

    let (link, ct, st) = Link::pair(CommParams::WAVELAN);
    // The first outbound frame (the PREPARE) passes; the second (the
    // COMMIT) trips a hard reset — the crash window where staged objects
    // exist remotely but nothing has been installed.
    let mut schedule = ChaosSchedule::seeded(5);
    schedule.reset_after_frames = Some(1);
    let (ct, cstats) = chaos_wrap(ct, schedule);

    let tables = Arc::new(RefTables::new());
    let client_ep = Endpoint::start(
        ct,
        link.params,
        link.clock.clone(),
        Arc::new(NullDispatcher),
        EndpointConfig {
            workers: 2,
            call_timeout: Duration::from_secs(1),
            drain_timeout: Duration::from_millis(100),
            retry: RetryPolicy {
                max_attempts: 2,
                attempt_timeout: Duration::from_millis(150),
                deadline: Duration::from_secs(2),
                ..RetryPolicy::default()
            },
        },
    );
    let surrogate_ep = Endpoint::start(
        st,
        link.params,
        link.clock.clone(),
        Arc::new(VmDispatcher::new(
            surrogate.clone(),
            Arc::new(RefTables::new()),
        )),
        soak_endpoint_config(),
    );

    // Three documents, one of which points back at a pinned Main object.
    let (used_before, roots_before) = {
        let vm = client.vm();
        let mut vm = vm.lock();
        for i in 0..3u64 {
            let mut rec = ObjectRecord::new(ClassId(1), 100_000, 1);
            if i == 0 {
                rec.slots[0] = Some(ObjectId::client(10));
            }
            vm.heap_mut().insert(ObjectId::client(i), rec).unwrap();
        }
        vm.heap_mut()
            .insert(ObjectId::client(10), ObjectRecord::new(ClassId(0), 64, 0))
            .unwrap();
        (vm.heap().stats().used_bytes, vm.external_root_count())
    };

    let (sel, keys) = doc_selection(300_000);
    let recorder = FlightRecorder::new(32);
    let result = execute_offload_tracked(
        &sel,
        &keys,
        &client,
        &client_ep,
        &tables,
        1,
        Some(&recorder),
    );
    assert!(
        result.is_err(),
        "a reset mid-migration must fail the offload"
    );
    assert_eq!(cstats.resets(), 1, "the schedule injected its reset");
    assert_eq!(
        surrogate_ep.requests_served(),
        1,
        "the reset fell on the COMMIT: only the PREPARE was served"
    );

    // Rollback restored the pre-offload placement exactly.
    {
        let vm = client.vm();
        let vm = vm.lock();
        for i in 0..3u64 {
            assert!(
                vm.heap().contains(ObjectId::client(i)),
                "doc {i} reinstated"
            );
        }
        assert!(vm.heap().contains(ObjectId::client(10)));
        assert_eq!(vm.heap().stats().used_bytes, used_before);
        assert_eq!(
            vm.external_root_count(),
            roots_before,
            "back-reference pins released"
        );
    }
    assert_eq!(tables.imports.len(), 0, "no phantom imports survive");
    // Nothing was ever installed on the surrogate: staged != resident.
    assert_eq!(surrogate.vm().lock().heap().stats().migrated_in, 0);

    let events: Vec<PlatformEvent> = recorder.events().into_iter().map(|e| e.event).collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, PlatformEvent::MigrationAborted { .. })),
        "flight recorder logs the abort: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, PlatformEvent::MigrationRolledBack { objects: 3, .. })),
        "flight recorder logs the rollback: {events:?}"
    );

    client_ep.shutdown();
    client_ep.join();
}
