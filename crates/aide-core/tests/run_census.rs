//! What a finished `Platform::run` leaves behind: nothing. A run builds two
//! VMs, a monitor, endpoints with their worker threads and — over TCP — two
//! sockets with a reader thread each; the machines, their remote-access
//! adapters and the controller in the client's hook chain point at one
//! another, so a reference cycle among them keeps every one of those alive
//! behind the report. The census reads the whole process, so this file
//! holds exactly one test: nothing else may be starting threads or opening
//! descriptors while it counts.

#![cfg(target_os = "linux")]

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aide_core::{
    Platform, PlatformConfig, ProviderContext, RefTables, SurrogateLease, SurrogateProvider,
    TransportKind, VmDispatcher,
};
use aide_graph::CommParams;
use aide_rpc::{Endpoint, EndpointConfig, Link, Session};
use aide_vm::{GcConfig, Machine, MethodDef, MethodId, Op, Program, ProgramBuilder, Reg, VmConfig};

const DOCS: u16 = 70;
const DOC_BYTES: u32 = 4_000;
const HEAP: u64 = 256 * 1024;
const RUNS: usize = 5;

/// A document store that outgrows its heap (70 × 4 KB against 256 KB), so
/// the controller offloads the documents, and then reads them back: every
/// run migrates and then places remote calls.
fn doc_store_program() -> Arc<Program> {
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
    for slot in (0..DOCS).step_by(3) {
        ops.push(Op::GetSlot { slot, dst: Reg(2) });
        ops.push(Op::Read {
            obj: Reg(2),
            bytes: 64,
        });
    }
    b.add_method(main, MethodDef::new("main", ops));
    Arc::new(b.build(main, MethodId(0), 64, DOCS).unwrap())
}

fn config(transport: TransportKind) -> PlatformConfig {
    let mut cfg = PlatformConfig::prototype(HEAP);
    cfg.transport = transport;
    // Small scenario: make GC sample often so the trigger sees pressure.
    cfg.gc = GcConfig {
        trigger_alloc_count: 8,
        trigger_alloc_bytes: 64 * 1024,
        cost_micros_per_object: 0.05,
    };
    cfg
}

/// Hands out the client end of one in-process surrogate, once.
struct OneSurrogate {
    client_end: Mutex<Option<Session>>,
}

impl SurrogateProvider for OneSurrogate {
    fn acquire(&self, ctx: &ProviderContext) -> Option<SurrogateLease> {
        let session = self.client_end.lock().unwrap().take()?;
        Some(SurrogateLease {
            name: "census".to_string(),
            endpoint: Endpoint::start(
                session,
                ctx.comm,
                ctx.clock.clone(),
                ctx.dispatcher.clone(),
                ctx.endpoint_config,
            ),
        })
    }

    fn report_failure(&self, _name: &str) {}
}

/// One provider-backed run against a surrogate this function builds and
/// tears down, the way a daemon session would.
fn provider_backed_run(program: &Arc<Program>) {
    let (link, client_end, surrogate_end) = Link::pair(CommParams::WAVELAN);
    let machine = Machine::new(program.clone(), VmConfig::surrogate(16 << 20));
    let surrogate = Endpoint::start(
        surrogate_end,
        link.params,
        link.clock.clone(),
        Arc::new(VmDispatcher::new(machine, Arc::new(RefTables::new()))),
        EndpointConfig::default(),
    );
    let provider = Arc::new(OneSurrogate {
        client_end: Mutex::new(Some(client_end)),
    });
    let report =
        Platform::with_surrogates(program.clone(), config(TransportKind::InProcess), provider)
            .run();
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(report.offloaded(), "the provider-backed run offloads");
    surrogate.shutdown();
    surrogate.join();
}

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).expect(dir).count()
}

/// Waits, bounded, for `dir` to hold `expected` entries again: a joined
/// thread's `/proc/self/task` entry outlives the join by a moment, and a
/// carrier's reader exits — and closes its socket — only once it has seen
/// the other end hang up.
fn settles_at(dir: &str, expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = entries(dir);
        if now == expected || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_finished_run_frees_its_threads_descriptors_and_both_vms() {
    let program = doc_store_program();
    let threads = entries("/proc/self/task");
    let descriptors = entries("/proc/self/fd");
    // Both VMs, the monitor and every `Machine` clone hold the program.
    let holders = Arc::strong_count(&program);

    for transport in [TransportKind::Tcp, TransportKind::InProcess] {
        for _ in 0..RUNS {
            let platform = Platform::new(program.clone(), config(transport));
            let report = platform.run();
            assert!(report.outcome.is_ok(), "{:?}", report.outcome);
            assert!(report.offloaded(), "the run crosses the offload path");
            assert!(report.surrogate_requests_served > 0, "and calls remotely");
        }
        assert_eq!(
            settles_at("/proc/self/task", threads),
            threads,
            "threads after {RUNS} {transport:?} runs"
        );
        assert_eq!(
            settles_at("/proc/self/fd", descriptors),
            descriptors,
            "descriptors after {RUNS} {transport:?} runs"
        );
        assert_eq!(
            Arc::strong_count(&program),
            holders,
            "holders of the program after {RUNS} {transport:?} runs"
        );
    }

    for _ in 0..RUNS {
        provider_backed_run(&program);
    }
    assert_eq!(settles_at("/proc/self/task", threads), threads);
    assert_eq!(
        Arc::strong_count(&program),
        holders,
        "holders of the program after {RUNS} provider-backed runs"
    );
}
