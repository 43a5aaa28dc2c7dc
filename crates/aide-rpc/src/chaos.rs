//! Deterministic fault injection at the transport layer.
//!
//! A chaos wrap composes over any [`Session`] — whichever backend
//! produced it (in-process channels, multiplexed TCP) — and injects the
//! failure modes of a lossy wireless link — drop, delay, duplication,
//! reordering, truncation, bit corruption, and hard connection resets —
//! from a reproducible [`ChaosSchedule`]. All randomness comes from a seeded
//! xorshift64 stream, so a failing run replays bit-for-bit from its seed.
//!
//! Faults are applied to the *outbound* direction of the wrapped end.
//! Wrapping both ends of a link (see [`chaos_pair`]) therefore covers both
//! directions, with independently derived seeds; wrapping only one end
//! injects asymmetric faults (e.g. reply-loss only).
//!
//! The layering above is what masks each fault: CRC32 framing turns
//! corruption and truncation into [`WireError::BadChecksum`] /
//! [`WireError::Truncated`] rejections, retries with fresh timeouts mask
//! loss and delay, the serving side's at-most-once dedup cache masks
//! duplication and retransmission, and two-phase migration masks hard
//! resets mid-offload.
//!
//! [`WireError::BadChecksum`]: crate::WireError::BadChecksum
//! [`WireError::Truncated`]: crate::WireError::Truncated

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aide_graph::CommParams;
use serde::{Deserialize, Serialize};

use crate::link::{session_pair, Delivered, FrameSink, Link, Session};

/// A reproducible schedule of transport faults.
///
/// Each probability is evaluated independently per outbound frame, in the
/// order drop → corrupt → truncate → delay → reorder/duplicate. All
/// randomness derives from `seed`, so two runs over the same frame
/// sequence inject identical faults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// Seed for the xorshift64 fault stream.
    pub seed: u64,
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame has one byte flipped.
    pub corrupt: f64,
    /// Probability a frame is truncated to a random prefix.
    pub truncate: f64,
    /// Probability a frame is delayed before delivery.
    pub delay: f64,
    /// Upper bound of an injected delay (uniformly drawn).
    pub max_delay: Duration,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is held back and delivered after its successor
    /// (or after `max_delay`, when no successor comes).
    pub reorder: f64,
    /// Hard reset: after this many outbound frames the connection is torn
    /// down for good — both directions of the wrapped end observe a
    /// disconnect, like a crashed peer or a dropped carrier.
    pub reset_after_frames: Option<u64>,
}

impl ChaosSchedule {
    /// A fault-free schedule with the given seed (faults opt in by
    /// setting probabilities).
    pub fn seeded(seed: u64) -> Self {
        ChaosSchedule {
            seed,
            drop: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            delay: 0.0,
            max_delay: Duration::from_millis(20),
            duplicate: 0.0,
            reorder: 0.0,
            reset_after_frames: None,
        }
    }

    /// A moderately hostile link: a bit of everything, calibrated so
    /// retries (not luck) carry the workload through.
    pub fn hostile(seed: u64) -> Self {
        ChaosSchedule {
            drop: 0.08,
            corrupt: 0.08,
            truncate: 0.03,
            delay: 0.10,
            max_delay: Duration::from_millis(5),
            duplicate: 0.08,
            reorder: 0.08,
            ..ChaosSchedule::seeded(seed)
        }
    }

    /// The same schedule with a different fault stream.
    pub fn reseeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ChaosSchedule {
    fn default() -> Self {
        ChaosSchedule::seeded(0x5DEE_CE66)
    }
}

/// Counters of faults a chaos wrap actually injected.
#[derive(Debug, Default)]
pub struct ChaosStats {
    dropped: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
    resets: AtomicU64,
    forwarded: AtomicU64,
}

impl ChaosStats {
    /// Frames silently dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Frames corrupted or truncated.
    pub fn corrupted(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Frames delayed or held back for reordering.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Frames delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Hard resets injected (0 or 1 per wrap).
    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }

    /// Frames forwarded to the underlying transport (including
    /// duplicates and corrupted deliveries).
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Total faults of any kind injected.
    pub fn total_faults(&self) -> u64 {
        self.dropped() + self.corrupted() + self.delayed() + self.duplicated() + self.resets()
    }
}

/// Deterministic xorshift64 stream (the same generator the failover
/// backoff jitter uses): a schedule's seed regenerates its whole fault
/// sequence, so the seed is all a recording keeps of it.
struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    fn new(seed: u64) -> Self {
        // xorshift64 has an absorbing zero state.
        ChaosRng { state: seed | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform draw in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The inbound half of a chaos wrap: whoever produces `inner`'s frames
/// (a carrier's reader, the in-process peer's sending thread) forwards
/// them, untouched, straight into the application-facing session.
struct ForwardInbound {
    to_app: Session,
}

impl FrameSink for ForwardInbound {
    fn deliver(&self, frame: Vec<u8>) -> Delivered {
        // Refused only after a reset or once the application is gone.
        let _ = self.to_app.send(frame);
        // Whoever waits or serves behind the shim holds an in-process
        // session and cannot read `inner`'s carrier itself.
        Delivered::Kept
    }

    fn closed(&self) {
        self.to_app.hang_up();
    }
}

/// Wraps `inner` in a chaos layer driven by `schedule`, returning the
/// wrapped session and its fault counters.
///
/// The wrapped session is a drop-in [`Session`] reporting the same
/// backend as `inner`: its own traffic statistics count the frames the
/// application sent and received, while `inner`'s statistics count what
/// actually crossed the carrier (duplicates included, drops excluded).
pub fn chaos_wrap(inner: Session, schedule: ChaosSchedule) -> (Session, Arc<ChaosStats>) {
    let stats = Arc::new(ChaosStats::default());
    // The application holds `app`; the shim holds its peer end: what the
    // application sends queues in `shim`'s inbox for the outbound thread,
    // and what `shim` sends lands in the application's inbox.
    let (app, shim) = session_pair(inner.backend());
    inner.attach_sink(Arc::new(ForwardInbound {
        to_app: shim.clone(),
    }));

    let telemetry = aide_telemetry::global();
    let tele_dropped = telemetry.counter(aide_telemetry::names::CHAOS_DROPPED);
    let tele_duplicated = telemetry.counter(aide_telemetry::names::CHAOS_DUPLICATED);
    let tele_corrupted = telemetry.counter(aide_telemetry::names::CHAOS_CORRUPTED);
    let tele_delayed = telemetry.counter(aide_telemetry::names::CHAOS_DELAYED);
    let tele_resets = telemetry.counter(aide_telemetry::names::CHAOS_RESETS);

    // Outbound shim: pull application frames, roll the dice, forward.
    // Dropping `inner` when it ends releases the inbound forwarder too.
    {
        let stats = stats.clone();
        std::thread::Builder::new()
            .name("rpc-chaos-out".into())
            .spawn(move || {
                let mut rng = ChaosRng::new(schedule.seed);
                let mut seen = 0u64;
                let mut held: Option<Vec<u8>> = None;
                let mut reset = false;
                loop {
                    // A held frame waits for its successor only so long: a
                    // synchronous caller sends nothing more until this very
                    // frame is answered. Releasing it draws nothing, so the
                    // fault stream is the same either way.
                    let next = match held {
                        Some(_) => shim.recv_timeout(schedule.max_delay),
                        None => shim.recv().map(Some),
                    };
                    let mut frame = match next {
                        Ok(Some(frame)) => frame,
                        Ok(None) => {
                            stats.forwarded.fetch_add(1, Ordering::Relaxed);
                            if inner.send(held.take().expect("waited on it")).is_err() {
                                break;
                            }
                            continue;
                        }
                        Err(_) => break,
                    };
                    seen += 1;
                    if let Some(limit) = schedule.reset_after_frames {
                        if seen > limit {
                            stats.resets.fetch_add(1, Ordering::Relaxed);
                            tele_resets.inc();
                            // Both directions die: the application's
                            // receive side now, its send side when `shim`
                            // drops with this thread.
                            shim.hang_up();
                            reset = true;
                            break;
                        }
                    }
                    if rng.unit() < schedule.drop {
                        stats.dropped.fetch_add(1, Ordering::Relaxed);
                        tele_dropped.inc();
                        continue;
                    }
                    if rng.unit() < schedule.corrupt && !frame.is_empty() {
                        let pos = (rng.next_u64() as usize) % frame.len();
                        let flip = (rng.next_u64() as u8) | 1; // never a no-op
                        frame[pos] ^= flip;
                        stats.corrupted.fetch_add(1, Ordering::Relaxed);
                        tele_corrupted.inc();
                    }
                    if rng.unit() < schedule.truncate && !frame.is_empty() {
                        let keep = (rng.next_u64() as usize) % frame.len();
                        frame.truncate(keep);
                        stats.corrupted.fetch_add(1, Ordering::Relaxed);
                        tele_corrupted.inc();
                    }
                    if rng.unit() < schedule.delay {
                        let span = schedule.max_delay.as_nanos() as f64;
                        std::thread::sleep(Duration::from_nanos((rng.unit() * span) as u64));
                        stats.delayed.fetch_add(1, Ordering::Relaxed);
                        tele_delayed.inc();
                    }
                    let duplicate = rng.unit() < schedule.duplicate;
                    if rng.unit() < schedule.reorder && held.is_none() {
                        // Hold this frame back; it rides behind its
                        // successor (or goes alone after `max_delay`, or
                        // on shutdown, if none comes).
                        stats.delayed.fetch_add(1, Ordering::Relaxed);
                        tele_delayed.inc();
                        held = Some(frame);
                        continue;
                    }
                    stats.forwarded.fetch_add(1, Ordering::Relaxed);
                    if inner.send(frame.clone()).is_err() {
                        break;
                    }
                    if duplicate {
                        stats.duplicated.fetch_add(1, Ordering::Relaxed);
                        tele_duplicated.inc();
                        stats.forwarded.fetch_add(1, Ordering::Relaxed);
                        if inner.send(frame).is_err() {
                            break;
                        }
                    }
                    if let Some(h) = held.take() {
                        stats.forwarded.fetch_add(1, Ordering::Relaxed);
                        if inner.send(h).is_err() {
                            break;
                        }
                    }
                }
                if !reset {
                    if let Some(h) = held.take() {
                        stats.forwarded.fetch_add(1, Ordering::Relaxed);
                        let _ = inner.send(h);
                    }
                }
            })
            .expect("spawn chaos outbound shim");
    }

    (app, stats)
}

/// Fault counters for both ends of a [`chaos_pair`].
#[derive(Debug)]
pub struct ChaosPairStats {
    /// Faults injected into client → surrogate frames.
    pub client: Arc<ChaosStats>,
    /// Faults injected into surrogate → client frames.
    pub surrogate: Arc<ChaosStats>,
}

/// An in-process link with chaos injected in both directions.
///
/// Like [`Link::pair`], but each session is wrapped in a chaos layer.
/// The surrogate end's fault stream is derived from the schedule seed so
/// the two directions fail independently yet reproducibly.
pub fn chaos_pair(
    params: CommParams,
    schedule: ChaosSchedule,
) -> (Link, Session, Session, ChaosPairStats) {
    let (link, ct, st) = Link::pair(params);
    let (ct, client) = chaos_wrap(ct, schedule);
    let (st, surrogate) = chaos_wrap(
        st,
        schedule.reseeded(schedule.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
    );
    (link, ct, st, ChaosPairStats { client, surrogate })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Message, Reply, WireError};

    fn quiet(seed: u64) -> ChaosSchedule {
        ChaosSchedule::seeded(seed)
    }

    #[test]
    fn fault_free_schedule_is_a_pass_through() {
        let (_, ct, st) = Link::pair(CommParams::WAVELAN);
        let (ct, stats) = chaos_wrap(ct, quiet(7));
        for i in 0..100u8 {
            ct.send(vec![i; 8]).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(st.recv().unwrap(), vec![i; 8]);
        }
        assert_eq!(stats.total_faults(), 0);
        assert_eq!(stats.forwarded(), 100);
    }

    #[test]
    fn full_loss_drops_everything() {
        let (_, ct, st) = Link::pair(CommParams::WAVELAN);
        let mut schedule = quiet(3);
        schedule.drop = 1.0;
        let (ct, stats) = chaos_wrap(ct, schedule);
        for _ in 0..50 {
            ct.send(vec![1, 2, 3]).unwrap();
        }
        assert!(st
            .recv_timeout(Duration::from_millis(100))
            .unwrap()
            .is_none());
        assert_eq!(stats.dropped(), 50);
    }

    /// A recording keeps a schedule's seed and no draw, so what the seed
    /// stands for is pinned here: xorshift64 (13, 7, 17) from `seed | 1`.
    #[test]
    fn the_fault_stream_is_xorshift64_from_the_seed() {
        for seed in [0u64, 1, 0xDEAD] {
            let mut rng = ChaosRng::new(seed);
            let mut x = seed | 1;
            for draw in 0..8 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                assert_eq!(rng.next_u64(), x, "seed {seed:#x} draw {draw}");
            }
        }
        assert_eq!(ChaosRng::new(0).next_u64(), 0x4082_2041);
    }

    #[test]
    fn same_seed_injects_identical_faults() {
        let run = |seed: u64| {
            let (_, ct, _st) = Link::pair(CommParams::WAVELAN);
            let mut schedule = ChaosSchedule::hostile(seed);
            schedule.delay = 0.0; // keep the test fast
            let (ct, stats) = chaos_wrap(ct, schedule);
            for i in 0..200u8 {
                ct.send(vec![i; 16]).unwrap();
            }
            drop(ct);
            // Wait until the shim has accounted for all 200 frames: each
            // is eventually dropped or forwarded (duplicates forward an
            // extra copy on top).
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while stats.dropped() + stats.forwarded() - stats.duplicated() < 200 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "chaos shim never drained"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            (
                stats.dropped(),
                stats.corrupted(),
                stats.duplicated(),
                stats.forwarded(),
            )
        };
        assert_eq!(run(42), run(42));
        // 42 and 43 differ only in bit 0, which `ChaosRng::new` forces on.
        assert_ne!(run(42), run(44), "different seeds should diverge");
    }

    #[test]
    fn corruption_is_caught_by_the_frame_checksum() {
        let (_, ct, st) = Link::pair(CommParams::WAVELAN);
        let mut schedule = quiet(11);
        schedule.corrupt = 1.0;
        let (ct, stats) = chaos_wrap(ct, schedule);
        let frame = Message::Reply {
            seq: 1,
            result: Ok(Reply::Unit),
        }
        .encode();
        ct.send(frame).unwrap();
        let received = st.recv().unwrap();
        assert!(matches!(
            Message::decode(&received),
            Err(WireError::BadChecksum | WireError::BadVersion(_) | WireError::Truncated)
        ));
        assert_eq!(stats.corrupted(), 1);
    }

    #[test]
    fn reset_tears_down_both_directions() {
        let (_, ct, st) = Link::pair(CommParams::WAVELAN);
        let mut schedule = quiet(5);
        schedule.reset_after_frames = Some(3);
        let (ct, stats) = chaos_wrap(ct, schedule);
        for _ in 0..3 {
            ct.send(vec![0]).unwrap();
        }
        // The 4th frame trips the reset; subsequent sends fail once the
        // shim notices, and the receive side disconnects too.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            std::thread::sleep(Duration::from_millis(5));
            if ct.send(vec![9]).is_err() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "reset never surfaced on the send side"
            );
        }
        assert_eq!(stats.resets(), 1);
        assert!(ct.recv_timeout(Duration::from_millis(200)).is_err());
        // The peer got exactly the pre-reset frames.
        let mut delivered = 0;
        while let Ok(Some(_)) = st.recv_timeout(Duration::from_millis(50)) {
            delivered += 1;
        }
        assert_eq!(delivered, 3);
    }

    #[test]
    fn a_held_frame_is_released_when_no_successor_comes() {
        let (_, ct, st) = Link::pair(CommParams::WAVELAN);
        let mut schedule = quiet(13);
        schedule.reorder = 1.0;
        let (ct, stats) = chaos_wrap(ct, schedule);
        ct.send(vec![4, 2]).unwrap();
        // `ct` stays open and silent, like a caller parked on the reply.
        let got = st.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.expect("released after max_delay"), vec![4, 2]);
        assert_eq!(stats.delayed(), 1);
        assert_eq!(stats.forwarded(), 1);
    }

    #[test]
    fn duplicates_arrive_twice() {
        let (_, ct, st) = Link::pair(CommParams::WAVELAN);
        let mut schedule = quiet(9);
        schedule.duplicate = 1.0;
        let (ct, stats) = chaos_wrap(ct, schedule);
        ct.send(vec![7, 7]).unwrap();
        assert_eq!(st.recv().unwrap(), vec![7, 7]);
        assert_eq!(st.recv().unwrap(), vec![7, 7]);
        assert_eq!(stats.duplicated(), 1);
    }
}
