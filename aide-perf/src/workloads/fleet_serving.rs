//! `fleet_serving`: many short sessions against one sharded daemon.
//!
//! One in-process `SurrogateDaemon` in sharded serving mode (default
//! `ShardConfig`); two client threads (one where `nproc` is one), each with
//! its own `SurrogateRegistry` (one pooled TCP carrier), run complete
//! provider-backed sessions back to back in a closed loop. A session is one
//! `Platform::with_surrogates(..).run()` of a document-store program:
//! allocate to pressure → small migration (bulk write) → remote reads and
//! writes → teardown with lease release. Where `memory_rescue_tcp` is one
//! long session of tiny steady-state calls, this is set-up, admission,
//! migration and teardown over and over: the same `aide-rpc` and
//! `aide-surrogate` layers used the other way round.
//!
//! A pass is `BATCH_PER_CLIENT` consecutive session completions per client,
//! whichever client they come from, so what is timed is how fast the fleet
//! gets sessions done; the unit of work is one completed session.
//!
//! The heartbeat interval is 5 ms, not the issue's 50 ms. Teardown joins the
//! heartbeat thread, which sleeps one whole interval between looks at its
//! stop flag, so a session lasts a whole number of intervals whatever work
//! it did. At 50 ms every session of eight consecutive runs lasted exactly
//! three intervals (pass times 1224.0–1228.7 ms): the time counted ticks,
//! blind to a change of a fifth and turning a change of a twentieth that
//! crosses a tick into a third. At 5 ms the step is a twentieth of a session
//! and the probes cost about a tenth.
//!
//! The seed shapes the program — the order in which documents are visited
//! and which visits are writes — while document count, size and the number
//! of reads and writes stay fixed, so that runs on different seeds do the
//! same amount of work and their host times compare.

use super::{end_to_end, repeat_setup, trace_overhead, windows, Finished, Measured, RunArgs};
use crate::reference::Reference;
use crate::report::{peak_rss_mb, Metrics, Tally};
use crate::rng::XorShift64;
use crate::span::Tracer;
use crate::stats::{median, percentile, reportable_tail};
use aide_core::{BackoffConfig, FailoverConfig, Platform, PlatformConfig, PlatformReport};
use aide_surrogate::{
    DaemonConfig, RegistryConfig, ShardConfig, SurrogateDaemon, SurrogateRegistry,
};
use aide_vm::{GcConfig, MethodDef, MethodId, Op, Program, ProgramBuilder, Reg};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DAEMON: &str = "fleet-daemon";
const HEARTBEAT: Duration = Duration::from_millis(5);
/// Session completions per client that make one pass.
const BATCH_PER_CLIENT: usize = 8;
const HEAP: u64 = 256 * 1024;
const DOCS: u16 = 72;
const DOC_BYTES: u32 = 4_000;

/// How many times each document is visited after the store has filled, and
/// how many of all visits are writes.
struct Shape {
    rounds: u32,
    writes_per_round: u16,
}

fn shape(args: &RunArgs) -> Shape {
    Shape {
        rounds: if args.smoke { 2 } else { 12 },
        writes_per_round: DOCS / 3,
    }
}

/// The document store: fill `DOCS` slots with ~4 kB documents (overflowing
/// the 256 kB client heap, which forces the offload), then visit every
/// document once per round in a seeded order, writing to a seeded third of
/// them and reading the rest.
fn document_store(seed: u64, shape: &Shape) -> Arc<Program> {
    let mut rng = XorShift64::new(seed);
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
    let mut order: Vec<u16> = (0..DOCS).collect();
    for _ in 0..shape.rounds {
        rng.shuffle(&mut order);
        let mut is_write = vec![false; usize::from(DOCS)];
        is_write[..usize::from(shape.writes_per_round)].fill(true);
        rng.shuffle(&mut is_write);
        for (&slot, &write) in order.iter().zip(&is_write) {
            ops.push(Op::GetSlot { slot, dst: Reg(2) });
            ops.push(if write {
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
    Arc::new(
        b.build(main, MethodId(0), 64, DOCS)
            .expect("generated document store is a valid program"),
    )
}

fn platform_config() -> PlatformConfig {
    let mut config = PlatformConfig::prototype(HEAP);
    config.gc = GcConfig {
        trigger_alloc_count: 8,
        trigger_alloc_bytes: 64 * 1024,
        cost_micros_per_object: 0.05,
    };
    config
}

fn failover_config() -> FailoverConfig {
    FailoverConfig {
        heartbeat_interval: HEARTBEAT,
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

/// A registry of its own for one client: one pooled carrier to the daemon.
fn registry_for(daemon: &SurrogateDaemon) -> Arc<SurrogateRegistry> {
    let registry = Arc::new(SurrogateRegistry::new(RegistryConfig::default()));
    registry.add_static(DAEMON, daemon.local_addr(), 64 << 20);
    registry.probe_all();
    registry
}

fn session(program: &Arc<Program>, registry: &Arc<SurrogateRegistry>) -> PlatformReport {
    Platform::with_surrogates(program.clone(), platform_config(), registry.clone())
        .with_failover_config(failover_config())
        .run()
}

/// The simulated statistics of a session, which every session of a run
/// must share.
#[derive(Debug, Clone, PartialEq)]
struct SessionStats {
    ops: u64,
    objects_moved: u64,
    bytes_moved: u64,
    remote_interactions: u64,
}

/// The oracle for one session: it ended `Ok`, offloaded once to the daemon
/// without a failover or a lost object, and left no unbalanced unpin.
fn verdict(
    report: &PlatformReport,
    expected: Option<&SessionStats>,
) -> (Option<SessionStats>, Option<String>) {
    let summary = match &report.outcome {
        Ok(summary) => summary,
        Err(e) => return (None, Some(format!("session failed: {e}"))),
    };
    let [offload] = report.offloads.as_slice() else {
        let why = format!(
            "session made {} offloads, expected one",
            report.offloads.len()
        );
        return (None, Some(why));
    };
    let stats = SessionStats {
        ops: summary.ops_executed,
        objects_moved: offload.outcome.objects_moved,
        bytes_moved: offload.outcome.bytes_moved,
        remote_interactions: report.remote_stats.remote_interactions,
    };
    let unbalanced = report
        .telemetry
        .counter(aide_telemetry::names::VM_UNPIN_UNBALANCED);
    let failover = report.failover.as_ref();
    let problem = if unbalanced != 0 {
        Some(format!("{unbalanced} unbalanced unpins"))
    } else if failover.is_none_or(|f| f.failovers != 0 || f.objects_lost != 0) {
        Some(format!(
            "session did not stay on its surrogate: {failover:?}"
        ))
    } else {
        expected
            .filter(|e| **e != stats)
            .map(|e| format!("session diverged: expected {e:?}, got {stats:?}"))
    };
    (Some(stats), problem)
}

struct State {
    program: Arc<Program>,
    daemon: SurrogateDaemon,
    daemon_start_ms: f64,
    expected: Option<SessionStats>,
    /// Closed-loop client threads: `nproc`, as the issue defines the load,
    /// but no more than two, because they share the one CPU the process is
    /// pinned to (with eight, probes miss their 250 ms timeout and sessions
    /// fail over). Results compare only between runs at the same value,
    /// which the report prints.
    clients: usize,
}

/// Sessions each client completes at the least when measured: the clients
/// complete `min_passes` whole batches between them.
fn min_sessions(args: &RunArgs) -> usize {
    args.min_passes() * BATCH_PER_CLIENT
}

/// Generates the program, starts the daemon, runs one session to fix the
/// statistics all others are held to, then warms up with one batch from
/// all clients.
fn setup(args: &RunArgs, reference: &Reference, tally: &mut Tally) -> State {
    let program = document_store(args.seed, &shape(args));
    let start = Instant::now();
    let daemon = SurrogateDaemon::start(
        DaemonConfig::new(DAEMON, program.clone()).sharded(ShardConfig::default()),
    )
    .expect("daemon binds a loopback port");
    let daemon_start_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = session(&program, &registry_for(&daemon));
    let (expected, problem) = verdict(&report, None);
    tally.record(problem);
    let state = State {
        program,
        daemon,
        daemon_start_ms,
        expected,
        clients: args.nproc.clamp(1, 2),
    };
    closed_loop(
        &state,
        0.0,
        BATCH_PER_CLIENT,
        reference,
        &mut Tracer::new(false),
        tally,
    );
    state
}

/// What one client thread brings back from its closed loop.
#[derive(Default)]
struct ClientLog {
    /// `(completion time on the reference's clock, wall milliseconds)` of
    /// each session.
    sessions: Vec<(f64, f64)>,
    migrate_ms: Vec<f64>,
    remote_calls: Vec<f64>,
    /// Peak resident set when this client had done `min_sessions`.
    peak_rss_mb: f64,
}

/// `state.clients` threads run sessions back to back until `seconds` have
/// passed and each has completed `min_sessions`; every session is checked
/// into `tally`. The passes of the returned measurement are batches of
/// `BATCH_PER_CLIENT` consecutive completions per client.
fn closed_loop(
    state: &State,
    seconds: f64,
    min_sessions: usize,
    reference: &Reference,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (Measured, ClientLog) {
    let start = reference.now();
    let results: Vec<(ClientLog, Tally, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..state.clients)
            .map(|client| {
                let mut lane = tracer.fork(client as u32 + 1);
                scope.spawn(move || {
                    let registry = registry_for(&state.daemon);
                    let mut log = ClientLog::default();
                    let mut checked = Tally::default();
                    while log.sessions.len() < min_sessions || reference.now() - start < seconds {
                        let began = Instant::now();
                        let report = lane.span("session", |lane| {
                            lane.span("platform.run(provider)", |_| {
                                session(&state.program, &registry)
                            })
                        });
                        log.sessions
                            .push((reference.now(), began.elapsed().as_secs_f64() * 1e3));
                        let (_, problem) = verdict(&report, state.expected.as_ref());
                        checked.record(problem);
                        if let [offload] = report.offloads.as_slice() {
                            log.migrate_ms
                                .push(offload.outcome.duration_micros as f64 / 1e3);
                        }
                        log.remote_calls
                            .push(report.remote_stats.remote_interactions as f64);
                        if log.sessions.len() == min_sessions {
                            log.peak_rss_mb = peak_rss_mb();
                        }
                    }
                    (log, checked, lane)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = reference.now() - start;
    let mut all = ClientLog::default();
    for (log, checked, lane) in results {
        all.sessions.extend(log.sessions);
        all.migrate_ms.extend(log.migrate_ms);
        all.remote_calls.extend(log.remote_calls);
        tally.absorb(checked);
        all.peak_rss_mb = all.peak_rss_mb.max(log.peak_rss_mb);
        tracer.absorb(lane);
    }
    all.sessions.sort_by(|a, b| a.0.total_cmp(&b.0));
    let batch = BATCH_PER_CLIENT * state.clients;
    let batches = batch_spans(start, batch, &all.sessions);
    let measured = Measured {
        pass_ms: batches.iter().map(|(from, to)| (to - from) * 1e3).collect(),
        pass_work: vec![batch as f64; batches.len()],
        pass_span: batches,
        wall_s,
        peak_rss_mb: all.peak_rss_mb,
    };
    (measured, all)
}

/// The interval each batch of `batch` consecutive completions took: from
/// the completion that closed the previous batch (the loop's `start` for
/// the first) to the one that closes this batch. Completions beyond the
/// last whole batch are left out.
fn batch_spans(start: f64, batch: usize, completions: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut previous = start;
    completions
        .chunks_exact(batch)
        .map(|chunk| {
            let closed = chunk[batch - 1].0;
            let span = (previous, closed);
            previous = closed;
            span
        })
        .collect()
}

pub fn run(args: &RunArgs, reference: &Reference) -> Finished {
    let mut tracer = Tracer::new(false);
    let mut metrics = Metrics::default();

    let (state, setups, mut tally) = repeat_setup(
        args.setup_reps(),
        reference,
        |tally| setup(args, reference, tally),
        |previous: State| previous.daemon.shutdown(),
    );
    let mut notes = vec![
        "work unit: one completed session".to_owned(),
        format!(
            "closed loop: {} clients, one pooled carrier each; a pass is {} completions",
            state.clients,
            BATCH_PER_CLIENT * state.clients
        ),
    ];

    let mut log = ClientLog::default();
    let (measured, untraced) = windows(args, &mut tracer, |seconds, tracer| {
        let (measured, window_log) = closed_loop(
            &state,
            seconds,
            min_sessions(args),
            reference,
            tracer,
            &mut tally,
        );
        log = window_log;
        measured
    });
    match untraced {
        Some(untraced) => {
            trace_overhead(
                &mut metrics,
                "fleet.sessions_per_s",
                reference,
                &untraced,
                &measured,
                &tracer,
            );
            let session_ms: Vec<f64> = log.sessions.iter().map(|s| s.1).collect();
            metrics.set("fleet.sessions", session_ms.len() as f64);
            metrics.set("fleet.session_ms_p50", median(&session_ms));
            let tail = reportable_tail(session_ms.len()).unwrap_or(50.0);
            notes.push(format!(
                "fleet.session_tail_ms is p{tail} of {} sessions",
                session_ms.len()
            ));
            metrics.set("fleet.session_tail_ms", percentile(&session_ms, tail));
            metrics.set("fleet.migrate_ms_p50", median(&log.migrate_ms));
            metrics.set("fleet.remote_calls_per_session", median(&log.remote_calls));
            daemon_rungs(args, &state, &mut metrics, &mut tally, &mut tracer);
        }
        None => {
            notes.push(measured.summary(reference));
            end_to_end(&mut metrics, reference, &setups, &measured);
        }
    }
    let rejected = state.daemon.sessions_rejected();
    if rejected != 0 {
        tally.fail(format!("daemon rejected {rejected} sessions"));
    }
    state.daemon.shutdown();

    Finished {
        metrics,
        tally,
        tracer,
        notes,
    }
}

/// `aide-surrogate` on its own: starting a daemon, and null and `STATS`
/// round trips through the sharded serving path over a pooled carrier.
fn daemon_rungs(
    args: &RunArgs,
    state: &State,
    metrics: &mut Metrics,
    tally: &mut Tally,
    tracer: &mut Tracer,
) {
    metrics.set("surrogate.daemon_start_ms", state.daemon_start_ms);
    metrics.set(
        "surrogate.sessions_rejected",
        state.daemon.sessions_rejected() as f64,
    );
    let registry = registry_for(&state.daemon);
    let n = if args.smoke { 50 } else { 2_000 };
    let mut ping_us = Vec::with_capacity(n);
    tracer.span("rung.ping", |_| {
        for _ in 0..n {
            let start = Instant::now();
            registry.probe_all();
            ping_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    });
    tally.record(
        registry
            .ranked()
            .first()
            .and_then(|info| info.rtt)
            .is_none()
            .then(|| "daemon stopped answering probes".to_owned()),
    );
    metrics.set("surrogate.ping_rtt_us_p50", percentile(&ping_us, 50.0));
    metrics.set("surrogate.ping_rtt_us_p99", percentile(&ping_us, 99.0));
    let mut scrape_us = Vec::with_capacity(n / 10);
    tracer.span("rung.stats_scrape", |_| {
        for _ in 0..n / 10 {
            let start = Instant::now();
            let text = registry.scrape_stats(DAEMON);
            scrape_us.push(start.elapsed().as_secs_f64() * 1e6);
            tally.record(text.is_none().then(|| "STATS scrape failed".to_owned()));
        }
    });
    metrics.set(
        "surrogate.stats_scrape_us_p50",
        percentile(&scrape_us, 50.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_for_tests() -> Shape {
        Shape {
            rounds: 3,
            writes_per_round: DOCS / 3,
        }
    }

    #[test]
    fn same_seed_same_program_and_seeds_differ() {
        let a = document_store(5, &shape_for_tests());
        let b = document_store(5, &shape_for_tests());
        let c = document_store(6, &shape_for_tests());
        assert_eq!(*a, *b);
        assert_ne!(*a, *c);
    }

    #[test]
    fn batches_are_timed_from_close_to_close_and_drop_the_remainder() {
        const BATCH: usize = 16;
        let completions: Vec<(f64, f64)> = (1..=2 * BATCH + 3)
            .map(|i| (10.0 + i as f64 * 0.1, 100.0))
            .collect();
        let spans = batch_spans(10.0, BATCH, &completions);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].0, 10.0);
        assert_eq!(spans[0].1, spans[1].0);
        assert!(spans
            .iter()
            .all(|(from, to)| (to - from - 1.6).abs() < 1e-9));
        assert!(batch_spans(10.0, BATCH, &completions[..BATCH - 1]).is_empty());
    }

    #[test]
    fn every_seed_does_the_same_amount_of_work() {
        fn census(program: &Program) -> (usize, usize, usize) {
            let main = &program.classes()[0];
            let body = &main.methods[0].body;
            let count = |f: fn(&Op) -> bool| body.iter().filter(|op| f(op)).count();
            (
                count(|op| matches!(op, Op::New { .. })),
                count(|op| matches!(op, Op::Read { .. })),
                count(|op| matches!(op, Op::Write { .. })),
            )
        }
        let docs = usize::from(DOCS);
        let expected = (docs, 3 * (docs - docs / 3), 3 * (docs / 3));
        for seed in 0..20 {
            assert_eq!(census(&document_store(seed, &shape_for_tests())), expected);
        }
    }
}
