//! Trace a migration end to end: run a memory-pressure rescue over the
//! real TCP multiplexer with a mildly hostile link, then
//!
//! * print the critical-path breakdown of every committed migration
//!   (where did the latency go: serialize, wire, retries, remote
//!   instantiate, commit), and
//! * write the whole span forest as Chrome trace-event JSON, ready to
//!   load in Perfetto.
//!
//! ```sh
//! cargo run --release --example trace_migration
//! ```
//!
//! Then open <https://ui.perfetto.dev>, press "Open trace file", and pick
//! `target/trace/migration.trace.json` — the client and surrogate appear
//! as separate process lanes, with the surrogate's `rpc.serve` slices
//! nested (causally) under the client's migration span.
//!
//! It exits non-zero unless the run left at least one span and at least
//! one migration breakdown behind.

use std::time::Duration;

use aide::apps::{javanote, Scale};
use aide::core::{Platform, PlatformConfig, TransportKind};
use aide::rpc::ChaosSchedule;
use aide::telemetry::{chrome_trace, critical_path, span_names, SpanStore};

fn main() {
    // A scaled-down JavaNote in a heap too small for its document: the
    // platform must trigger, partition, and migrate over real TCP.
    let mut cfg = PlatformConfig::prototype(320 << 10);
    cfg.transport = TransportKind::Tcp;
    let mut chaos = ChaosSchedule::seeded(7);
    chaos.drop = 0.05;
    chaos.delay = 0.10;
    chaos.max_delay = Duration::from_millis(3);
    cfg.chaos = Some(chaos);

    // Opened before the run, so the platform hands its lane to every
    // thread that serves for it.
    let store = SpanStore::open();
    let report = Platform::new(javanote(Scale(0.05)).program, cfg).run();
    report.outcome.as_ref().expect("the rescue completes");
    assert!(report.offloaded(), "the rescue must migrate");

    let spans = store.drain();
    println!("spans recorded: {}", spans.len());
    assert!(!spans.is_empty(), "the run recorded no span");
    let serves = spans
        .iter()
        .filter(|s| s.name == span_names::RPC_SERVE)
        .count();
    let retries = spans
        .iter()
        .filter(|s| s.name == span_names::RPC_BACKOFF)
        .count();
    println!("  surrogate serve spans: {serves}");
    println!("  backoff sleeps (chaos-induced): {retries}");

    println!("\ncritical path per committed migration (microseconds):");
    let breakdowns = critical_path(&spans);
    assert!(!breakdowns.is_empty(), "no migration breakdown");
    for b in breakdowns {
        println!("  migration {:#x}", b.trace_id);
        println!("    total         {:>8}", b.total_micros);
        println!("    serialize     {:>8}", b.serialize_micros);
        println!("    wire          {:>8}", b.wire_micros);
        println!("    retry+backoff {:>8}", b.retry_micros);
        println!("    instantiate   {:>8}", b.instantiate_micros);
        println!("    commit        {:>8}", b.commit_micros);
        println!("    unattributed  {:>8}", b.unattributed_micros);
    }

    let path = "target/trace/migration.trace.json";
    std::fs::create_dir_all("target/trace").expect("create target/trace");
    std::fs::write(path, chrome_trace(&spans)).expect("write trace");
    println!("\nwrote {path}");
    println!("open https://ui.perfetto.dev and load it to see the");
    println!("client and surrogate lanes of one causal tree.");
}
