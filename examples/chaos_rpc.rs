//! Chaos RPC: drive the remote-execution substrate over a deliberately
//! hostile link and watch the robustness layers carry the workload
//! through — CRC framing rejects corruption, retries mask loss, and the
//! at-most-once cache keeps every non-idempotent call from executing
//! twice.
//!
//! ```sh
//! cargo run --release --example chaos_rpc
//! ```

use std::sync::Arc;
use std::time::Duration;

use aide::graph::CommParams;
use aide::rpc::{
    chaos_pair, BackoffConfig, ChaosSchedule, Dispatcher, Endpoint, EndpointConfig, Reply, Request,
    RetryPolicy,
};
use aide::vm::ObjectId;

/// A tiny slot store standing in for a surrogate VM: each `PutSlot`
/// overwrites, so re-executing a replayed request would corrupt it.
struct SlotStore {
    slots: std::sync::Mutex<Vec<Option<ObjectId>>>,
    executions: std::sync::atomic::AtomicU64,
}

impl Dispatcher for SlotStore {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        self.executions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        match request {
            Request::PutSlot { slot, value, .. } => {
                self.slots.lock().unwrap()[slot as usize] = value;
                Ok(Reply::Unit)
            }
            Request::GetSlot { slot, .. } => {
                Ok(Reply::Slot(self.slots.lock().unwrap()[slot as usize]))
            }
            _ => Err("unsupported".into()),
        }
    }
}

struct Quiet;
impl Dispatcher for Quiet {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Ok(Reply::Unit)
    }
}

fn main() {
    // A moderately hostile link: 8% loss, 8% corruption, 3% truncation,
    // plus delays, duplicates, and reordering — all from one seed, so
    // every run of this example injects identical weather.
    let schedule = ChaosSchedule::hostile(42);
    println!("schedule: {schedule:?}\n");

    let (link, ct, st, stats) = chaos_pair(CommParams::WAVELAN, schedule);
    let store = Arc::new(SlotStore {
        slots: std::sync::Mutex::new(vec![None; 16]),
        executions: std::sync::atomic::AtomicU64::new(0),
    });
    let config = EndpointConfig {
        workers: 2,
        call_timeout: Duration::from_secs(5),
        drain_timeout: Duration::from_millis(100),
        retry: RetryPolicy {
            max_attempts: 10,
            attempt_timeout: Duration::from_millis(50),
            backoff: BackoffConfig {
                base: Duration::from_millis(2),
                ..RetryPolicy::default().backoff
            },
            ..RetryPolicy::default()
        },
    };
    let client = Endpoint::start(ct, link.params, link.clock.clone(), Arc::new(Quiet), config);
    let surrogate = Endpoint::start(st, link.params, link.clock.clone(), store.clone(), config);

    // 64 writes followed by 16 reads — every one must succeed despite the
    // weather, and the final state must be exactly what a clean link
    // would produce.
    for i in 0..64u64 {
        client
            .call_with_retry(Request::PutSlot {
                target: ObjectId::surrogate(0),
                slot: (i % 16) as u16,
                value: Some(ObjectId::client(i)),
            })
            .expect("write survives chaos");
    }
    for slot in 0..16u16 {
        let reply = client
            .call_with_retry(Request::GetSlot {
                target: ObjectId::surrogate(0),
                slot,
            })
            .expect("read survives chaos");
        let expected = Some(ObjectId::client(48 + u64::from(slot)));
        assert_eq!(
            reply,
            Reply::Slot(expected),
            "slot {slot} holds the last write"
        );
    }

    println!("workload:   64 writes + 16 reads, all correct");
    println!(
        "served:     {} unique executions for {} logical calls",
        surrogate.requests_served(),
        80
    );
    println!(
        "dispatched: {} (replays answered from the dedup cache: {})",
        store.executions.load(std::sync::atomic::Ordering::Relaxed),
        surrogate.dedup_hits()
    );
    println!("retries:    {}", client.retries());
    println!(
        "bad frames: {} (corruption/truncation caught by the CRC)",
        surrogate.bad_frames() + client.bad_frames()
    );
    println!(
        "injected:   {} dropped, {} corrupted, {} delayed, {} duplicated",
        stats.client.dropped() + stats.surrogate.dropped(),
        stats.client.corrupted() + stats.surrogate.corrupted(),
        stats.client.delayed() + stats.surrogate.delayed(),
        stats.client.duplicated() + stats.surrogate.duplicated(),
    );

    assert_eq!(
        surrogate.requests_served(),
        80,
        "at-most-once: every logical call executed exactly once"
    );
    client.shutdown();
    client.join();
    surrogate.shutdown();
    surrogate.join();
    println!("\nat-most-once held: no request executed twice.");
}
