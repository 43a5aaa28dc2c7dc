//! Property suite for load-aware placement and relay expiry, run at the
//! soak layer's three hostile seeds with ≥256 generated cases each.
//!
//! Placement must be *bit-identical across thread counts* (the fleet soak
//! compares daemon decisions made on different pools), so the generator is
//! a hand-rolled deterministic xorshift whose case stream depends only on
//! the seed — never on scheduling, shrinking state, or a framework RNG.

use std::sync::Arc;
use std::time::Duration;

use aide_core::{RelayShipment, RelaySink};
use aide_surrogate::{placement_order, RelayConfig, RelayQueue, SurrogateInfo};

const SEEDS: [u64; 3] = [1, 7, 1234];
const CASES: usize = 300;

/// xorshift64: tiny, seedable, and identical everywhere.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// One random fleet: 1–12 surrogates with mixed probe history and load
/// data, including entries with no load report and entries at or past
/// their session limit.
fn random_fleet(rng: &mut Rng) -> Vec<SurrogateInfo> {
    let n = 1 + rng.below(12) as usize;
    (0..n)
        .map(|i| {
            let rtt = if rng.below(4) == 0 {
                None
            } else {
                Some(Duration::from_micros(100 + rng.below(50_000)))
            };
            let (live_sessions, session_limit) = if rng.below(4) == 0 {
                (None, None)
            } else {
                let limit = 1 + rng.below(32);
                // live up to limit + 3: both under- and over-limit cases.
                (Some(rng.below(limit + 4)), Some(limit))
            };
            SurrogateInfo {
                name: format!("s{i}"),
                addr: "127.0.0.1:1".parse().unwrap(),
                capacity_bytes: 1 << (10 + rng.below(20)),
                rtt,
                smoothed_rtt: rtt,
                live_sessions,
                session_limit,
            }
        })
        .collect()
}

fn order_names(fleet: Vec<SurrogateInfo>) -> Vec<String> {
    placement_order(fleet).into_iter().map(|e| e.name).collect()
}

#[test]
fn placement_is_bit_identical_across_thread_counts() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let fleets: Arc<Vec<Vec<SurrogateInfo>>> =
            Arc::new((0..CASES).map(|_| random_fleet(&mut rng)).collect());
        let reference: Vec<Vec<String>> = fleets
            .iter()
            .map(|fleet| order_names(fleet.clone()))
            .collect();

        for threads in [2usize, 4, 8] {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let fleets = fleets.clone();
                    std::thread::spawn(move || {
                        fleets
                            .iter()
                            .map(|fleet| order_names(fleet.clone()))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                let got = handle.join().expect("placement thread");
                assert_eq!(
                    got, reference,
                    "seed {seed}: placement diverged at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn placement_never_ranks_an_over_limit_surrogate_above_an_under_limit_one() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed ^ 0xA5A5);
        for case in 0..CASES {
            let fleet = random_fleet(&mut rng);
            let ordered = placement_order(fleet);
            // Once the order crosses into at-limit territory it must never
            // cross back: every under-limit candidate precedes every
            // saturated one, regardless of RTT or capacity.
            let mut seen_at_limit = false;
            for entry in &ordered {
                if entry.at_session_limit() {
                    seen_at_limit = true;
                } else {
                    assert!(
                        !seen_at_limit,
                        "seed {seed} case {case}: under-limit '{}' placed \
                         behind a saturated surrogate in {:?}",
                        entry.name,
                        ordered.iter().map(|e| &e.name).collect::<Vec<_>>(),
                    );
                }
            }
        }
    }
}

fn shipment() -> RelayShipment {
    RelayShipment {
        txn: 0,
        objects: Vec::new(),
        pins: Vec::new(),
        bytes: 256,
        queued_for_ms: 0,
    }
}

#[test]
fn relay_expiry_is_idempotent_and_monotone() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed ^ 0x5EED);
        for case in 0..CASES {
            let ttl_ms = 1 + rng.below(400);
            let queue = RelayQueue::new(RelayConfig {
                ttl_ms,
                max_depth: 4096,
            });
            let mut queued = 0u64;
            let mut expired = 0u64;
            // Random interleaving of queueing, clock advances, and expiry
            // sweeps.
            for _ in 0..(2 + rng.below(24)) {
                match rng.below(3) {
                    0 => {
                        queue.queue(shipment()).expect("queue under max_depth");
                        queued += 1;
                    }
                    1 => queue.clock().advance_ms(rng.below(ttl_ms * 2)),
                    _ => {
                        let now = queue.clock().now_ms();
                        let batch = queue.take_expired();
                        for gone in &batch {
                            assert!(
                                gone.queued_for_ms >= ttl_ms,
                                "seed {seed} case {case}: expired a shipment \
                                 only {} ms old (ttl {ttl_ms})",
                                gone.queued_for_ms
                            );
                        }
                        expired += batch.len() as u64;
                        // Idempotent: the clock has not moved, so a second
                        // sweep must find nothing.
                        assert_eq!(queue.clock().now_ms(), now);
                        assert!(
                            queue.take_expired().is_empty(),
                            "seed {seed} case {case}: second sweep at the \
                             same instant expired more"
                        );
                    }
                }
                // Monotone accounting at every step: lifetime counters
                // only grow, and nothing is both parked and expired.
                let stats = queue.stats();
                assert_eq!(stats.queued_total, queued);
                assert_eq!(stats.expired_total, expired);
                assert_eq!(stats.depth as u64, queued - expired);
            }
            // Advancing past TTL expires the entire remainder: expiry is
            // monotone in clock time, nothing left behind gets stuck.
            queue.clock().advance_ms(ttl_ms + 1);
            let rest = queue.take_expired();
            assert_eq!(rest.len() as u64, queued - expired);
            assert_eq!(queue.depth(), 0, "seed {seed} case {case}");
            assert!(queue.take_expired().is_empty());
        }
    }
}
