//! End-to-end failover: a provider-backed platform run survives its
//! surrogate dying mid-execution. The paper defers "recovery from surrogate
//! failure" (§8); these tests exercise the recovery path the `failover`
//! module adds — reinstate offloaded objects locally, continue degraded,
//! re-offload to the next surrogate.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use aide_core::{
    BackoffConfig, FailoverConfig, Platform, PlatformConfig, ProviderContext, RefTables,
    SurrogateLease, SurrogateProvider, VmDispatcher,
};
use aide_graph::CommParams;
use aide_rpc::{
    Dispatcher, Endpoint, EndpointConfig, Link, Reply, Request, RetryPolicy, Session as RpcSession,
};
use aide_vm::{GcConfig, Machine, MethodDef, MethodId, Op, Program, ProgramBuilder, Reg, VmConfig};

const DOC_BYTES: u32 = 4_000;
const HEAP: u64 = 256 * 1024;

/// A document-store workload shaped to cross the failure:
///
/// * **A** — load 70 docs (~281 KB, exceeding the 256 KB heap): pressure
///   triggers and the controller offloads the live documents.
/// * **B** — drop the first 50 documents (clear their slots).
/// * **B2** — load 10 more docs; the periodic GC sweeps the dropped imports
///   and sends `GcReleaseSeq` (the kill-switch dispatcher arms on it).
/// * **C** — read the surviving offloaded docs: the first remote touch hits
///   the dead surrogate, times out, and fails over (reinstating them).
/// * **D** — load 40 more docs: pressure returns and the controller
///   re-offloads to the next surrogate.
/// * **E** — read docs from every era to prove the store is intact.
fn doc_store_program() -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    // Main drives a (native, client-pinned) UI while managing the store.
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

    // Phase A.
    for i in 0..70 {
        new_doc(&mut ops, i);
        if i % 8 == 0 {
            read_doc(&mut ops, i);
        }
    }
    // Phase B.
    ops.push(Op::Clear { reg: Reg(1) });
    for i in 0..50 {
        ops.push(Op::PutSlot {
            slot: i,
            src: Reg(1),
        });
    }
    // Phase B2.
    for i in 70..80 {
        new_doc(&mut ops, i);
    }
    // Phase C: slots 50..64 survived phase B; touch a few.
    for i in 55..60 {
        read_doc(&mut ops, i);
    }
    // Phase D.
    for i in 80..120 {
        new_doc(&mut ops, i);
    }
    // Phase E.
    for i in [55, 60, 67, 75, 90, 110, 118] {
        read_doc(&mut ops, i);
    }

    b.add_method(main, MethodDef::new("main", ops));
    Arc::new(b.build(main, MethodId(0), 64, 120).unwrap())
}

fn platform_config() -> PlatformConfig {
    let mut cfg = PlatformConfig::prototype(HEAP);
    // Small scenario: make GC sample often so the trigger sees pressure.
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
        probe_timeout: Duration::from_millis(100),
        // Zero backoff: the re-offload in phase D happens microseconds of
        // real time after the recovery, inside the allocation retry loop.
        backoff: BackoffConfig {
            base: Duration::ZERO,
            factor: 2.0,
            max: Duration::ZERO,
            jitter: 0.0,
            seed: 1,
        },
    }
}

/// Client-side endpoint tuning for provider-built sessions: a short call
/// timeout so a dead surrogate is detected quickly.
fn lease_endpoint_config() -> EndpointConfig {
    EndpointConfig {
        workers: 4,
        call_timeout: Duration::from_millis(150),
        drain_timeout: Duration::from_millis(100),
        // Failover tests want a dead surrogate detected fast; keep the
        // retry budget tight so the whole detection fits the test budget.
        retry: RetryPolicy {
            max_attempts: 2,
            attempt_timeout: Duration::from_millis(150),
            deadline: Duration::from_millis(400),
            ..RetryPolicy::default()
        },
    }
}

/// Wraps the surrogate's dispatcher with a kill switch: serves everything
/// normally until the first `GcReleaseSeq` has been answered, then delays every
/// request past the client's call timeout — the surrogate is "dead" (its
/// replies arrive after the caller has given up).
struct KillAfterGcReleaseSeq {
    inner: VmDispatcher,
    armed: AtomicBool,
}

impl Dispatcher for KillAfterGcReleaseSeq {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        if self.armed.load(Ordering::SeqCst) {
            // Longer than the client's 150 ms call timeout. Returning Ok
            // (late) rather than Err matters: an application-level error
            // would surface as RpcError::Remote, which must NOT be treated
            // as surrogate death.
            std::thread::sleep(Duration::from_millis(400));
            return self.inner.dispatch(request);
        }
        let arm = matches!(request, Request::GcReleaseSeq { .. });
        let reply = self.inner.dispatch(request);
        if arm {
            self.armed.store(true, Ordering::SeqCst);
        }
        reply
    }
}

/// One pre-built surrogate session: the client-side transport the provider
/// hands out, plus the surrogate-side machinery kept alive by the test.
struct Session {
    name: String,
    client_transport: RpcSession,
    params: CommParams,
}

struct SessionHarness {
    endpoint: Arc<Endpoint>,
    machine: Machine,
}

fn build_session(program: &Arc<Program>, name: &str, killable: bool) -> (Session, SessionHarness) {
    let (link, ct, st) = Link::pair(CommParams::WAVELAN);
    let machine = Machine::new(program.clone(), VmConfig::surrogate(16 << 20));
    let tables = Arc::new(RefTables::new());
    let inner = VmDispatcher::new(machine.clone(), tables);
    let dispatcher: Arc<dyn Dispatcher> = if killable {
        Arc::new(KillAfterGcReleaseSeq {
            inner,
            armed: AtomicBool::new(false),
        })
    } else {
        Arc::new(inner)
    };
    let endpoint = Endpoint::start(
        st,
        link.params,
        link.clock.clone(),
        dispatcher,
        EndpointConfig {
            workers: 4,
            call_timeout: Duration::from_secs(1),
            drain_timeout: Duration::from_millis(100),
            ..EndpointConfig::default()
        },
    );
    (
        Session {
            name: name.to_string(),
            client_transport: ct,
            params: link.params,
        },
        SessionHarness { endpoint, machine },
    )
}

/// Hands out pre-built sessions in order, like a registry ranking would.
struct ChainProvider {
    sessions: Mutex<VecDeque<Session>>,
    failures: Mutex<Vec<String>>,
}

impl SurrogateProvider for ChainProvider {
    fn acquire(&self, ctx: &ProviderContext) -> Option<SurrogateLease> {
        let session = self.sessions.lock().unwrap().pop_front()?;
        let endpoint = Endpoint::start(
            session.client_transport,
            session.params,
            ctx.clock.clone(),
            ctx.dispatcher.clone(),
            lease_endpoint_config(),
        );
        Some(SurrogateLease {
            name: session.name,
            endpoint,
        })
    }

    fn report_failure(&self, name: &str) {
        self.failures.lock().unwrap().push(name.to_string());
    }
}

#[test]
fn application_survives_surrogate_death_and_reoffloads() {
    let program = doc_store_program();
    let (s1, h1) = build_session(&program, "s1", true);
    let (s2, h2) = build_session(&program, "s2", false);
    let provider = Arc::new(ChainProvider {
        sessions: Mutex::new(VecDeque::from([s1, s2])),
        failures: Mutex::new(Vec::new()),
    });

    let report = Platform::with_surrogates(program, platform_config(), provider.clone())
        .with_failover_config(failover_config())
        .run();

    assert!(
        report.outcome.is_ok(),
        "the application must complete despite the dead surrogate: {:?}",
        report.outcome
    );
    let failover = report.failover.as_ref().expect("provider-backed run");
    assert_eq!(failover.failovers, 1, "{failover:?}");
    assert!(
        failover.reinstated_objects >= 10,
        "surviving offloaded docs come home: {failover:?}"
    );
    assert_eq!(failover.objects_lost, 0, "{failover:?}");
    assert!(failover.reoffloads >= 1, "{failover:?}");
    assert_eq!(
        failover.surrogates_used,
        vec!["s1".to_string(), "s2".to_string()]
    );
    assert_eq!(
        provider.failures.lock().unwrap().as_slice(),
        &["s1".to_string()]
    );
    // Both offloads really migrated objects.
    assert_eq!(report.offloads.len(), 2, "offload, failover, re-offload");
    assert!(report.offloads.iter().all(|e| e.outcome.objects_moved > 0));
    // The replacement surrogate genuinely hosts the store now.
    assert!(h2.endpoint.requests_served() > 0);
    assert!(h2.machine.vm().lock().heap().stats().migrated_in > 0);

    h1.endpoint.shutdown();
    h2.endpoint.shutdown();
    h1.endpoint.join();
    h2.endpoint.join();
}

#[test]
fn provider_backed_run_with_healthy_surrogate_never_fails_over() {
    let program = doc_store_program();
    let (solo, harness) = build_session(&program, "solo", false);
    let provider = Arc::new(ChainProvider {
        sessions: Mutex::new(VecDeque::from([solo])),
        failures: Mutex::new(Vec::new()),
    });

    let report = Platform::with_surrogates(program, platform_config(), provider.clone())
        .with_failover_config(failover_config())
        .run();

    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    let failover = report.failover.as_ref().expect("provider-backed run");
    assert_eq!(failover.failovers, 0);
    assert_eq!(failover.reinstated_objects, 0);
    assert_eq!(failover.surrogates_used, vec!["solo".to_string()]);
    assert!(provider.failures.lock().unwrap().is_empty());
    assert!(!report.offloads.is_empty(), "pressure still offloads");
    assert!(harness.endpoint.requests_served() > 0);
    assert!(report.client_requests_served > 0 || report.frames_exchanged > 0);

    harness.endpoint.shutdown();
    harness.endpoint.join();
}

#[test]
fn run_without_any_reachable_surrogate_degrades_but_may_oom() {
    // With no surrogate at all, the platform keeps running locally; this
    // workload genuinely exceeds the heap, so it ends in OOM rather than a
    // hang or a panic — degraded, deterministic behaviour.
    let program = doc_store_program();
    let provider = Arc::new(ChainProvider {
        sessions: Mutex::new(VecDeque::new()),
        failures: Mutex::new(Vec::new()),
    });
    let report = Platform::with_surrogates(program, platform_config(), provider)
        .with_failover_config(failover_config())
        .run();
    assert!(
        matches!(report.outcome, Err(aide_vm::VmError::OutOfMemory { .. })),
        "expected OOM without any surrogate, got {:?}",
        report.outcome
    );
    let failover = report.failover.as_ref().expect("provider-backed run");
    assert_eq!(failover.failovers, 0);
    assert!(failover.surrogates_used.is_empty());
}

#[test]
fn a_trivial_run_does_not_wait_out_the_heartbeat_interval() {
    // A program that finishes at once, under the default 250 ms heartbeat:
    // the run ends when the program does, not a whole interval later.
    let mut b = ProgramBuilder::new();
    let main = b.add_native_class("Main");
    b.add_method(main, MethodDef::new("main", vec![Op::Work { micros: 1 }]));
    let program = Arc::new(b.build(main, MethodId(0), 0, 0).unwrap());
    let provider = Arc::new(ChainProvider {
        sessions: Mutex::new(VecDeque::new()),
        failures: Mutex::new(Vec::new()),
    });
    assert_eq!(
        FailoverConfig::default().heartbeat_interval,
        Duration::from_millis(250)
    );

    let started = std::time::Instant::now();
    let report = Platform::with_surrogates(program, platform_config(), provider).run();
    let elapsed = started.elapsed();

    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(
        elapsed < Duration::from_millis(100),
        "run() joined its heartbeat thread after {elapsed:?}"
    );
}
