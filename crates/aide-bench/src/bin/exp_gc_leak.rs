//! GC leak experiment: what pin-forever bookkeeping strands when release
//! messages die with their sender, and what the lease/epoch machinery
//! pays to guarantee it strands nothing.
//!
//! For each release-loss rate the same export workload runs twice over
//! the export-table machinery:
//!
//! * **pin-forever** — the pre-lease discipline: an export stays pinned
//!   until an explicit release arrives. Lost releases leak permanently.
//! * **lease** — every export carries a TTL'd lease; whatever the lost
//!   releases strand is reclaimed by the expiry sweep after one TTL of
//!   silence.
//!
//! The third axis is the renewal tax: the lease stamp every ordinary
//! frame carries, measured as real encoded bytes per frame. Results land
//! in `BENCH_gc.json` (JSON lines) for CI to archive and gate on — the
//! `lease_leaked_total` field must be zero.

use std::sync::Arc;
use std::time::Instant;

use aide_bench::{header, row};
use aide_rpc::{ExportTable, GcClock, LeaseStamp, Message, Request};
use aide_vm::ObjectId;

/// Exports per sweep point.
const OBJECTS: u64 = 500;

/// Lease TTL for the lease-mode runs, in clock milliseconds.
const TTL_MS: u64 = 30_000;

struct Point {
    label: String,
    loss: f64,
    pin_forever_leaked: usize,
    lease_leaked: usize,
    reclaim_latency_ms: u64,
    sweep_wall_micros: u64,
}

/// Exports `OBJECTS` ids, loses `loss` of the releases, and counts what
/// each discipline strands. Lost releases are chosen deterministically
/// (every k-th) so the sweep is reproducible.
fn run_point(loss: f64) -> Point {
    let lost = |i: u64| (i as f64 * loss).fract() + loss >= 1.0 || loss >= 1.0;

    // Pin-forever: no clock, no sweep — lost releases strand pins.
    let forever = ExportTable::new();
    for i in 0..OBJECTS {
        forever.export(ObjectId::client(i));
    }
    let mut seq = 0;
    for i in 0..OBJECTS {
        if !lost(i) {
            seq += 1;
            forever.release_batch(0, seq, &[ObjectId::client(i)]);
        }
    }
    let pin_forever_leaked = forever.len();

    // Lease: identical traffic, then one TTL of silence and a sweep.
    let clock = Arc::new(GcClock::new());
    let lease = ExportTable::with_clock(clock.clone());
    lease.set_ttl_ms(TTL_MS);
    for i in 0..OBJECTS {
        lease.export(ObjectId::client(i));
    }
    let mut seq = 0;
    for i in 0..OBJECTS {
        if !lost(i) {
            seq += 1;
            lease.release_batch(0, seq, &[ObjectId::client(i)]);
        }
    }
    let stranded = lease.len();
    clock.advance_ms(TTL_MS + 1);
    let sweep_started = Instant::now();
    let reclaimed = lease.sweep_expired();
    let sweep_wall_micros = u64::try_from(sweep_started.elapsed().as_micros()).unwrap_or(u64::MAX);
    assert_eq!(
        reclaimed.len(),
        stranded,
        "the sweep reclaims exactly what the lost releases stranded"
    );

    Point {
        label: format!("loss {:.0}%", loss * 100.0),
        loss,
        pin_forever_leaked,
        lease_leaked: lease.len(),
        reclaim_latency_ms: TTL_MS + 1,
        sweep_wall_micros,
    }
}

/// Real wire bytes the lease stamp adds to an ordinary request frame.
fn renewal_overhead_bytes() -> usize {
    let msg = Message::Request {
        seq: 1,
        client: 7,
        body: Request::Ping,
    };
    let bare = msg.encode();
    let stamped = msg.encode_stamped(Some(LeaseStamp {
        epoch: 42,
        writes: 0,
    }));
    stamped.len() - bare.len()
}

fn main() {
    header(
        "gc leak: stranded exports, pin-forever vs lease/epoch",
        "distributed GC hardening; not a paper figure — the paper pinned forever",
    );

    let mut points = Vec::new();
    for loss in [0.0, 0.1, 0.25, 0.5, 1.0] {
        points.push(run_point(loss));
    }
    let overhead = renewal_overhead_bytes();

    for p in &points {
        row(
            &p.label,
            format!(
                "pin-forever leaks {} / {OBJECTS}, lease leaks {} \
                 (reclaimed in {} ms of lease time, sweep {} us)",
                p.pin_forever_leaked, p.lease_leaked, p.reclaim_latency_ms, p.sweep_wall_micros,
            ),
        );
    }
    row(
        "renewal overhead",
        format!("{overhead} bytes per stamped frame"),
    );

    let lease_leaked_total: usize = points.iter().map(|p| p.lease_leaked).sum();
    let pin_forever_leaked_total: usize = points.iter().map(|p| p.pin_forever_leaked).sum();
    row(
        "verdict",
        format!(
            "pin-forever strands {} objects across the sweep, lease strands {} \
             ({})",
            pin_forever_leaked_total,
            lease_leaked_total,
            if lease_leaked_total == 0 {
                "zero-leak"
            } else {
                "LEAK"
            },
        ),
    );

    let mut artifact = serde_json::json!({
        "kind": "summary",
        "experiment": "gc_leak",
        "objects_per_point": OBJECTS,
        "lease_ttl_ms": TTL_MS,
        "renewal_overhead_bytes_per_frame": overhead,
        "pin_forever_leaked_total": pin_forever_leaked_total,
        "lease_leaked_total": lease_leaked_total,
    })
    .to_string();
    artifact.push('\n');
    for p in &points {
        artifact.push_str(
            &serde_json::json!({
                "kind": "point",
                "label": p.label,
                "release_loss": p.loss,
                "pin_forever_leaked": p.pin_forever_leaked,
                "lease_leaked": p.lease_leaked,
                "reclaim_latency_ms": p.reclaim_latency_ms,
                "sweep_wall_micros": p.sweep_wall_micros,
            })
            .to_string(),
        );
        artifact.push('\n');
    }
    let path = "BENCH_gc.json";
    match std::fs::write(path, artifact) {
        Ok(()) => row("artifact", path),
        Err(e) => row("artifact", format!("write failed: {e}")),
    }

    assert_eq!(lease_leaked_total, 0, "lease mode must never leak");
}
