//! `memory_rescue_tcp`: the paper's Fig 6 scenario in host time.
//!
//! Dia at full scale on the paper's 6 MB heap, initial policy, two-VM
//! prototype over `TransportKind::Tcp`: heap pressure → trigger → modified
//! MINCUT → two-phase migration (~6 MB, 377 objects) → ~24 000 transparent
//! remote invocations, field accesses and native call-backs over a real
//! loopback mux socket. `aide-rpc`, the adapter and the surrogate-side
//! dispatcher dominate; the mutator is a minority. An RPC, wire or
//! serving-mode change shows here and must not move `local_mutator`.
//!
//! The issue asked for JavaNote, Dia and Biomer in one pass; that pass takes
//! 38 s of wall time on the 2-core builder, which the driver's time cap does
//! not hold even once per run, so the pass is the one application that fits
//! (4–5 s) at unchanged scale. The unit of work is one remote request served
//! (surrogate side plus client-side call-backs).

use super::local_mutator::{run_unconstrained, scale};
use super::{
    end_to_end, measure, repeat_setup, trace_overhead, windows, Finished, Measured, RunArgs,
};
use crate::golden::{mismatch, Golden, RescueStats};
use crate::reference::Reference;
use crate::report::{Metrics, Tally};
use crate::span::Tracer;
use crate::stats::{median, min, percentile};
use aide_apps::{dia, javanote, App};
use aide_core::{Platform, PlatformConfig, PlatformReport, TransportKind};
use aide_graph::CommParams;
use aide_rpc::{tcp_pair, Dispatcher, Endpoint, EndpointConfig, Link, Message, Reply, Request};
use aide_vm::{ClassId, ObjectId, ObjectRecord};
use std::sync::Arc;
use std::time::Instant;

struct State {
    app: App,
    heap: u64,
    /// Statistics every measured rescue must reproduce.
    expected: Option<RescueStats>,
}

/// The application and the heap it is squeezed into. Smoke mode needs a
/// scenario that still offloads: JavaNote at 5 % scale on a 400 kB heap.
fn scenario(args: &RunArgs) -> (App, u64) {
    if args.smoke {
        (javanote(scale(args)), 400_000)
    } else {
        (dia(scale(args)), 6 << 20)
    }
}

fn rescue(state: &State, transport: TransportKind) -> PlatformReport {
    let mut config = PlatformConfig::prototype(state.heap);
    config.transport = transport;
    Platform::new(state.app.program.clone(), config).run()
}

fn remote_calls(report: &PlatformReport) -> u64 {
    report.surrogate_requests_served + report.client_requests_served
}

/// The oracle for one rescue: the run completed *because* it offloaded,
/// exactly once, and moved what `expected` says.
fn verdict(
    name: &str,
    report: &PlatformReport,
    expected: Option<&RescueStats>,
) -> (Option<RescueStats>, Option<String>) {
    let summary = match &report.outcome {
        Ok(summary) => summary,
        Err(e) => return (None, Some(format!("{name}: rescue failed: {e}"))),
    };
    let [offload] = report.offloads.as_slice() else {
        let why = format!("{name}: {} offloads, expected one", report.offloads.len());
        return (None, Some(why));
    };
    let stats = RescueStats {
        ops: summary.ops_executed,
        at_gc_cycle: offload.at_gc_cycle,
        candidates: offload.candidates_evaluated as u64,
        objects_moved: offload.outcome.objects_moved,
        bytes_moved: offload.outcome.bytes_moved,
        remote_interactions: report.remote_stats.remote_interactions,
    };
    let problem = expected.and_then(|e| mismatch(name, Some(e), &stats));
    (Some(stats), problem)
}

/// Builds the application and runs the warm-up rescue.
fn setup(args: &RunArgs, tally: &mut Tally) -> State {
    let (app, heap) = scenario(args);
    let mut state = State {
        app,
        heap,
        expected: None,
    };
    let report = rescue(&state, TransportKind::Tcp);
    let name = state.app.name;
    let (stats, mut problem) = verdict(name, &report, None);
    if let (Some(stats), None, false, false) = (&stats, &problem, args.smoke, args.bless) {
        problem = mismatch(name, Golden::committed().memory_rescue_tcp.get(name), stats);
    }
    tally.record(problem);
    if let (Some(stats), true, false) = (&stats, args.bless, args.smoke) {
        Golden::bless(|g| {
            g.memory_rescue_tcp.insert(name.to_owned(), stats.clone());
        })
        .expect("write golden/sim_stats.json");
    }
    state.expected = stats;
    state
}

/// What the traced passes collect from each rescue's report.
#[derive(Default)]
struct Offloads {
    calls: Vec<f64>,
    partition_ms: Vec<f64>,
    migrate_ms: Vec<f64>,
    objects_moved: f64,
    bytes_moved: f64,
}

/// One pass: one rescue over TCP. Returns remote requests served.
fn pass(state: &State, tally: &mut Tally, tracer: &mut Tracer, seen: &mut Offloads) -> f64 {
    tracer.span("pass", |tracer| {
        let report = tracer.span("platform.run(6MB,tcp)", |_| {
            rescue(state, TransportKind::Tcp)
        });
        let (_, problem) = verdict(state.app.name, &report, state.expected.as_ref());
        tally.record(problem);
        let calls = remote_calls(&report) as f64;
        seen.calls.push(calls);
        if let [offload] = report.offloads.as_slice() {
            seen.partition_ms
                .push(offload.partition_elapsed.as_secs_f64() * 1e3);
            seen.migrate_ms
                .push(offload.outcome.duration_micros as f64 / 1e3);
            seen.objects_moved = offload.outcome.objects_moved as f64;
            seen.bytes_moved = offload.outcome.bytes_moved as f64;
        }
        calls
    })
}

pub fn run(args: &RunArgs, reference: &Reference) -> Finished {
    let mut tracer = Tracer::new(false);
    let mut metrics = Metrics::default();
    let mut notes =
        vec!["work unit: one remote request served (surrogate + client call-backs)".to_owned()];

    let (state, setups, mut tally) = repeat_setup(
        args.setup_reps(),
        reference,
        |tally| setup(args, tally),
        drop,
    );
    notes.push(format!(
        "scenario: {} on a {} B heap",
        state.app.name, state.heap
    ));

    let mut seen = Offloads::default();
    let (measured, untraced) = windows(args, &mut tracer, |seconds, tracer| {
        // Each window collects afresh, so that a traced run reports what
        // its traced window saw.
        seen = Offloads::default();
        measure(seconds, args.min_passes(), reference, |i| {
            tracer.set_pass(i);
            pass(&state, &mut tally, tracer, &mut seen)
        })
    });
    match untraced {
        Some(untraced) => {
            trace_overhead(
                &mut metrics,
                "remote.calls_per_s",
                reference,
                &untraced,
                &measured,
                &tracer,
            );
            ladder(
                args,
                &state,
                &measured,
                &seen,
                &mut metrics,
                &mut tally,
                &mut tracer,
            );
            rpc_rungs(args, &mut metrics, &mut tally, &mut tracer);
        }
        None => {
            notes.push(measured.summary(reference));
            end_to_end(&mut metrics, reference, &setups, &measured);
        }
    }

    Finished {
        metrics,
        tally,
        tracer,
        notes,
    }
}

/// The differential ladder 64 MB local → 6 MB in-process → 6 MB TCP for the
/// same application: the first difference is what remote execution costs
/// with a free carrier, the second what the TCP carrier adds.
fn ladder(
    args: &RunArgs,
    state: &State,
    tcp_passes: &Measured,
    seen: &Offloads,
    metrics: &mut Metrics,
    tally: &mut Tally,
    tracer: &mut Tracer,
) {
    let reps = if args.smoke { 1 } else { 3 };
    let (mut local_s, mut inproc_s) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let start = Instant::now();
        let report = tracer.span("rung.local(64MB)", |_| run_unconstrained(&state.app));
        local_s.push(start.elapsed().as_secs_f64());
        tally.record(report.outcome.err().map(|e| format!("local rung: {e}")));

        let start = Instant::now();
        let report = tracer.span("rung.rescue(6MB,inproc)", |_| {
            rescue(state, TransportKind::InProcess)
        });
        inproc_s.push(start.elapsed().as_secs_f64());
        let (_, problem) = verdict(state.app.name, &report, state.expected.as_ref());
        tally.record(problem);
    }
    // Fastest repetition of each rung; see `Measured::fastest`.
    let (local_s, inproc_s) = (min(&local_s), min(&inproc_s));
    let tcp_s = tcp_passes.fastest().0 / 1e3;
    let calls = median(&seen.calls);
    let (partition_ms, migrate_ms) = (median(&seen.partition_ms), median(&seen.migrate_ms));
    metrics.set("offload.objects_moved", seen.objects_moved);
    metrics.set("offload.bytes_moved", seen.bytes_moved);
    metrics.set("offload.partition_ms", partition_ms);
    metrics.set("offload.migrate_ms", migrate_ms);
    metrics.set(
        "offload.migrate_mb_per_s",
        seen.bytes_moved / 1e6 / ((partition_ms + migrate_ms) / 1e3),
    );
    metrics.set("remote.calls", calls);
    metrics.set("remote.us_per_call", (tcp_s - local_s) * 1e6 / calls);
    metrics.set(
        "remote.inproc_us_per_call",
        (inproc_s - local_s) * 1e6 / calls,
    );
    metrics.set("rpc.tcp_carrier_s", tcp_s - inproc_s);
}

/// Answers every request at once: the serving side of the RPC micro-rungs.
struct Echo;

impl Dispatcher for Echo {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// A connected endpoint pair over the sessions of `link`; calls placed on
/// the first are served by the second's `Echo`.
fn echo_pair(link: (Link, aide_rpc::Session, aide_rpc::Session)) -> (Arc<Endpoint>, Arc<Endpoint>) {
    let (link, client, server) = link;
    let start = |session| {
        Endpoint::start(
            session,
            link.params,
            link.clock.clone(),
            Arc::new(Echo),
            EndpointConfig::default(),
        )
    };
    (start(client), start(server))
}

fn close(pair: (Arc<Endpoint>, Arc<Endpoint>)) {
    pair.0.shutdown();
    pair.1.shutdown();
    pair.0.join();
    pair.1.join();
}

/// Round-trip microseconds of `n` single-thread 64-byte field accesses.
fn round_trips(endpoint: &Endpoint, n: usize, tally: &mut Tally) -> Vec<f64> {
    let request = Request::FieldAccess {
        target: ObjectId(1),
        bytes: 64,
        write: false,
    };
    let mut micros = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        let reply = endpoint.call(request.clone());
        micros.push(start.elapsed().as_secs_f64() * 1e6);
        if reply != Ok(Reply::Unit) {
            tally.fail(format!("echo call answered {reply:?}"));
        }
    }
    tally.attempted += n as u64;
    micros
}

/// A `MigratePrepare` carrying `objects` records of four slots each: the
/// shape of the bulk write path.
fn migrate_message(objects: u32) -> Message {
    let records = (0..objects)
        .map(|i| {
            let mut record = ObjectRecord::new(ClassId(i % 50), 4_000 + i, 4);
            record.slots[0] = Some(ObjectId(u64::from(i) + 1));
            (ObjectId(u64::from(i) + 1_000), record)
        })
        .collect();
    Message::Request {
        seq: 7,
        client: 1,
        body: Request::MigratePrepare {
            txn: 1,
            objects: records,
        },
    }
}

/// Nanoseconds per `f()` over `n` calls.
fn ns_per<T>(n: u32, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / f64::from(n)
}

/// `aide-rpc` on its own: round trips against an echo dispatcher over both
/// carriers, the bulk write path, and the codec.
fn rpc_rungs(args: &RunArgs, metrics: &mut Metrics, tally: &mut Tally, tracer: &mut Tracer) {
    let calls = if args.smoke { 500 } else { 20_000 };

    let pair = echo_pair(Link::pair(CommParams::WAVELAN));
    let rtt = tracer.span("rung.rtt(inproc)", |_| round_trips(&pair.0, calls, tally));
    metrics.set("rpc.rtt_inproc_us_p50", percentile(&rtt, 50.0));
    metrics.set("rpc.rtt_inproc_us_p99", percentile(&rtt, 99.0));
    close(pair);

    let pair = echo_pair(tcp_pair(CommParams::WAVELAN).expect("loopback TCP pair"));
    let rtt = tracer.span("rung.rtt(tcp)", |_| round_trips(&pair.0, calls, tally));
    metrics.set("rpc.rtt_tcp_us_p50", percentile(&rtt, 50.0));
    metrics.set("rpc.rtt_tcp_us_p99", percentile(&rtt, 99.0));
    metrics.set("rpc.rtt_tcp_us_p999", percentile(&rtt, 99.9));
    let traffic = pair.0.traffic();
    metrics.set(
        "rpc.bytes_per_call",
        (traffic.bytes_sent() + traffic.bytes_received()) as f64 / calls as f64,
    );
    let retries = pair.0.retries() + pair.1.retries();
    metrics.set("rpc.retries", retries as f64);
    if retries != 0 {
        tally.fail(format!("{retries} RPC retries on a fault-free loopback"));
    }

    // Bulk write path: 256-object prepare frames, back to back.
    let bulk = migrate_message(256);
    let Message::Request { body, .. } = &bulk else {
        unreachable!("built as a request")
    };
    let frames = if args.smoke { 8 } else { 128 };
    let frame_bytes = bulk.encode().len();
    let start = Instant::now();
    tracer.span("rung.bulk(tcp)", |_| {
        for _ in 0..frames {
            let reply = pair.0.call(body.clone());
            tally.record(
                (reply != Ok(Reply::Unit)).then(|| format!("bulk call answered {reply:?}")),
            );
        }
    });
    metrics.set(
        "rpc.bulk_tcp_mb_per_s",
        (frames * frame_bytes) as f64 / 1e6 / start.elapsed().as_secs_f64(),
    );
    close(pair);

    // Codec only: `Message::encode` / `Message::decode`.
    let loops = if args.smoke { 1_000 } else { 200_000 };
    let small = Message::Request {
        seq: 7,
        client: 1,
        body: Request::FieldAccess {
            target: ObjectId(1),
            bytes: 64,
            write: false,
        },
    };
    let small_frame = small.encode();
    metrics.set("rpc.codec_encode_ns", ns_per(loops, || small.encode()));
    metrics.set(
        "rpc.codec_decode_ns",
        ns_per(loops, || Message::decode(&small_frame)),
    );
    let migrate = migrate_message(64);
    let migrate_frame = migrate.encode();
    metrics.set(
        "rpc.codec_migrate64_encode_us",
        ns_per(loops / 50, || migrate.encode()) / 1e3,
    );
    metrics.set(
        "rpc.codec_migrate64_decode_us",
        ns_per(loops / 50, || Message::decode(&migrate_frame)) / 1e3,
    );
    tally.record(
        (Message::decode(&migrate_frame).ok().as_ref() != Some(&migrate))
            .then(|| "migrate frame did not decode to the message encoded".to_owned()),
    );
}
