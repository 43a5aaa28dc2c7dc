//! Chaos sweep: goodput of the retrying RPC stack as link loss and
//! corruption rise. The paper's WaveLAN deployment assumed a reliable
//! transport; this experiment prices what the robustness layer (CRC
//! framing, retries, at-most-once dedup) pays to keep a workload correct
//! on a degrading link.
//!
//! For each fault rate the same non-idempotent workload (a fixed count of
//! `PutSlot` calls) runs over a seeded chaos link. The run is correct by
//! construction — every call either completes or the binary panics — so
//! the measured quantities are the cost axes: wall-clock goodput, retry
//! volume, and how many retries the serving side had to answer from the
//! dedup cache instead of re-executing. Results land in
//! `BENCH_chaos.json` (JSON lines) for CI to archive.

use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_bench::{header, row, s};
use aide_graph::CommParams;
use aide_rpc::{
    chaos_pair, BackoffConfig, ChaosSchedule, Dispatcher, Endpoint, EndpointConfig, Reply, Request,
    RetryPolicy,
};
use aide_vm::ObjectId;

/// Logical calls per sweep point.
const CALLS: u64 = 100;

/// Fault seed: fixed so every run injects the identical weather.
const SEED: u64 = 0xC0_FFEE;

struct Sink;
impl Dispatcher for Sink {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

/// A retry policy tight enough that a sweep point finishes in seconds
/// even at 30% loss.
fn sweep_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        attempt_timeout: Duration::from_millis(25),
        backoff: BackoffConfig {
            base: Duration::from_millis(1),
            factor: 2.0,
            max: Duration::from_millis(20),
            jitter: 0.25,
            seed: SEED,
        },
        deadline: Duration::from_secs(20),
    }
}

struct Point {
    label: String,
    drop: f64,
    corrupt: f64,
    wall_seconds: f64,
    goodput_calls_per_sec: f64,
    retries: u64,
    dedup_hits: u64,
    bad_frames: u64,
    frames_dropped: u64,
    frames_corrupted: u64,
}

/// Runs `CALLS` non-idempotent calls over a chaos link and returns the
/// cost axes. Panics if any call fails — correctness is a precondition,
/// not a result.
fn run_point(label: &str, drop: f64, corrupt: f64) -> Point {
    let schedule = ChaosSchedule {
        drop,
        corrupt,
        ..ChaosSchedule::seeded(SEED)
    };
    let (link, ct, st, stats) = chaos_pair(CommParams::WAVELAN, schedule);
    let config = EndpointConfig {
        workers: 2,
        call_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_millis(100),
        retry: sweep_retry(),
    };
    let client = Endpoint::start(ct, link.params, link.clock.clone(), Arc::new(Sink), config);
    let surrogate = Endpoint::start(st, link.params, link.clock.clone(), Arc::new(Sink), config);

    let started = Instant::now();
    for i in 0..CALLS {
        client
            .call_with_retry(Request::PutSlot {
                target: ObjectId::client(i % 8),
                slot: 0,
                value: Some(ObjectId::client(i)),
            })
            .unwrap_or_else(|e| panic!("{label}: call {i} failed: {e:?}"));
    }
    let wall = started.elapsed().as_secs_f64();

    let point = Point {
        label: label.to_string(),
        drop,
        corrupt,
        wall_seconds: wall,
        goodput_calls_per_sec: CALLS as f64 / wall,
        retries: client.retries(),
        dedup_hits: surrogate.dedup_hits(),
        bad_frames: surrogate.bad_frames() + client.bad_frames(),
        frames_dropped: stats.client.dropped() + stats.surrogate.dropped(),
        frames_corrupted: stats.client.corrupted() + stats.surrogate.corrupted(),
    };
    client.shutdown();
    client.join();
    surrogate.shutdown();
    surrogate.join();
    point
}

fn main() {
    header(
        "chaos sweep: goodput under seeded loss and corruption",
        "robustness layer; not a paper figure — the paper assumed a reliable link",
    );

    let mut points = Vec::new();
    for loss in [0.0, 0.05, 0.10, 0.20, 0.30] {
        points.push(run_point(&format!("loss {:.0}%", loss * 100.0), loss, 0.0));
    }
    for corrupt in [0.05, 0.10, 0.20] {
        points.push(run_point(
            &format!("corrupt {:.0}%", corrupt * 100.0),
            0.0,
            corrupt,
        ));
    }

    let baseline = points[0].goodput_calls_per_sec;
    for p in &points {
        row(
            &p.label,
            format!(
                "{} calls/s ({:.0}% of clean), {} retries, {} dedup hits, {} bad frames",
                s(p.goodput_calls_per_sec),
                100.0 * p.goodput_calls_per_sec / baseline,
                p.retries,
                p.dedup_hits,
                p.bad_frames,
            ),
        );
    }

    let mut artifact = serde_json::json!({
        "kind": "summary",
        "experiment": "chaos",
        "calls_per_point": CALLS,
        "seed": SEED,
        "clean_goodput_calls_per_sec": baseline,
    })
    .to_string();
    artifact.push('\n');
    for p in &points {
        artifact.push_str(
            &serde_json::json!({
                "kind": "point",
                "label": p.label,
                "drop": p.drop,
                "corrupt": p.corrupt,
                "wall_seconds": p.wall_seconds,
                "goodput_calls_per_sec": p.goodput_calls_per_sec,
                "retries": p.retries,
                "dedup_hits": p.dedup_hits,
                "bad_frames": p.bad_frames,
                "frames_dropped": p.frames_dropped,
                "frames_corrupted": p.frames_corrupted,
            })
            .to_string(),
        );
        artifact.push('\n');
    }
    let path = "BENCH_chaos.json";
    match std::fs::write(path, artifact) {
        Ok(()) => row("artifact", path),
        Err(e) => row("artifact", format!("write failed: {e}")),
    }
}
