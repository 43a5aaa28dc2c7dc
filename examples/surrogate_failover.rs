//! Surrogate failover, end to end over real TCP daemons: a document store
//! overflows its heap and is offloaded to the nearest surrogate; that
//! surrogate crashes mid-session; the platform reinstates the surviving
//! documents locally, keeps the application running, and re-offloads to
//! the standby surrogate when memory pressure returns.
//!
//! The paper (§8) leaves "recovery from surrogate failure" as future work;
//! this example shows the shape such recovery takes on the reproduction.
//!
//! ```sh
//! cargo run --release --example surrogate_failover
//! ```
//!
//! It exits non-zero unless the rigged surrogate crashed at its crash point
//! and the run completes after at least one failover and a re-offload.

use std::sync::Arc;
use std::time::Duration;

use aide::core::{BackoffConfig, FailoverConfig, Platform, PlatformConfig};
use aide::surrogate::{DaemonConfig, RegistryConfig, SurrogateDaemon, SurrogateRegistry};
use aide::vm::{GcConfig, MethodDef, MethodId, Op, Program, ProgramBuilder, Reg};

const DOC_BYTES: u32 = 4_000;
const HEAP: u64 = 256 * 1024;

/// A document store that loads 70 ~4 KB documents (overflowing a 256 KB
/// client heap), drops the first 50, re-reads the survivors, then loads 40
/// more — enough churn to offload, survive a surrogate crash, and offload
/// again. A read takes the document's one (empty) reference slot as well as
/// its data: the slot read is waited for, so the first read of a shipped
/// document is a request the surrogate must answer there and then.
fn doc_store() -> Arc<Program> {
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
    Arc::new(b.build(main, MethodId(0), 64, 120).expect("valid program"))
}

fn main() {
    let program = doc_store();

    // Two surrogate daemons on localhost. The first is rigged to crash on
    // the first read of a survivor after the initial offload — its first
    // `GetSlot`: its worker pool's fault injector severs the client's
    // carrier instead of answering, so the client sees a dead link, not an
    // error reply.
    let crash_on = "GetSlot";
    let mut doomed = DaemonConfig::new("porch-pc", program.clone());
    doomed.crash_on = Some(crash_on);
    let d1 = SurrogateDaemon::start(doomed).expect("start porch-pc");
    let d2 = SurrogateDaemon::start(DaemonConfig::new("hallway-server", program.clone()))
        .expect("start hallway-server");
    println!(
        "surrogate porch-pc        listening on {} (rigged to crash on its first {crash_on})",
        d1.local_addr(),
    );
    println!("surrogate hallway-server  listening on {}", d2.local_addr());

    // The client's registry. Daemons would normally be found over the UDP
    // beacon; static registration is the test-friendly fallback. Nothing is
    // probed before the run: unprobed surrogates rank in registration order
    // (loopback RTTs are near-identical noise that would pick one at
    // random), so the rigged porch-pc is acquired first and the crash
    // narrative is deterministic.
    let registry = Arc::new(SurrogateRegistry::new(RegistryConfig::default()));
    registry.add_static("porch-pc", d1.local_addr(), 64 << 20);
    registry.add_static("hallway-server", d2.local_addr(), 64 << 20);
    for info in registry.ranked() {
        println!(
            "registered {:<16} capacity {} MiB",
            info.name,
            info.capacity_bytes >> 20
        );
    }

    let mut cfg = PlatformConfig::prototype(HEAP);
    cfg.gc = GcConfig {
        trigger_alloc_count: 8,
        trigger_alloc_bytes: 64 * 1024,
        cost_micros_per_object: 0.05,
    };
    let failover_cfg = FailoverConfig {
        heartbeat_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(250),
        backoff: BackoffConfig {
            base: Duration::ZERO,
            factor: 2.0,
            max: Duration::ZERO,
            jitter: 0.0,
            seed: 1,
        },
    };

    println!(
        "\nrunning the document store on a {} KB client heap...\n",
        HEAP >> 10
    );
    let report = Platform::with_surrogates(program, cfg, registry.clone())
        .with_failover_config(failover_cfg)
        .run();

    match &report.outcome {
        Ok(_) => println!("application completed despite the crash"),
        Err(e) => println!("application failed: {e}"),
    }
    println!("offloads:            {}", report.offloads.len());
    for (i, event) in report.offloads.iter().enumerate() {
        println!(
            "offload #{}: {} objects, {} bytes moved",
            i + 1,
            event.outcome.objects_moved,
            event.outcome.bytes_moved
        );
    }
    if let Some(f) = &report.failover {
        println!("failovers:           {}", f.failovers);
        println!(
            "objects reinstated:  {} ({} bytes)",
            f.reinstated_objects, f.reinstated_bytes
        );
        println!("objects lost:        {}", f.objects_lost);
        println!("re-offloads:         {}", f.reoffloads);
        println!("surrogates used:     {}", f.surrogates_used.join(" -> "));
        for (i, micros) in f.failover_durations_micros.iter().enumerate() {
            println!(
                "recovery #{}:         {:.3} ms (link death to reinstatement)",
                i + 1,
                *micros as f64 / 1_000.0
            );
        }
    }
    println!("dead surrogates:     {}", registry.dead_names().join(", "));
    println!(
        "porch-pc crashes:    {} (on its first {crash_on})",
        d1.crashes(),
    );

    // The flight recorder explains every decision the run took: trigger,
    // candidates, the winner's policy score, measured migration durations,
    // the link death, and the failover.
    println!("\nflight-recorder timeline:");
    print!("{}", report.timeline());

    // Scrape the surviving daemon's Prometheus-style STATS exposition over
    // its RPC port — the same scrape an external observer would perform.
    // Its one unlabelled line is the process-wide unpin detector, which
    // counts every VM of this process, client included; the
    // `aide_daemon_*` lines labelled with its name are the daemon's own.
    let stats = registry
        .scrape_stats("hallway-server")
        .expect("survivor answers STATS");
    println!("\nSTATS scrape of hallway-server (its own lines):");
    for line in stats
        .lines()
        .filter(|l| l.starts_with("aide_daemon_") && l.contains("daemon=\"hallway-server\""))
    {
        println!("  {line}");
    }

    d1.shutdown();
    d2.shutdown();

    // The example exists to show a crash at its point, the failover and
    // the re-offload after it: without all three, or with a run that did
    // not complete, it fails.
    let crashes = d1.crashes();
    let (failovers, reoffloads) = report
        .failover
        .as_ref()
        .map_or((0, 0), |f| (f.failovers, f.reoffloads));
    if report.outcome.is_err() || crashes == 0 || failovers == 0 || reoffloads == 0 {
        eprintln!(
            "expected a completed run with a crash, a failover and a re-offload: completed {}, \
             crashes {crashes}, failovers {failovers}, re-offloads {reoffloads}",
            report.outcome.is_ok()
        );
        std::process::exit(1);
    }
}
