//! Record/replay soak: platform runs under seeded chaos, recorded through
//! the nondeterminism seam, must replay with zero divergences and a
//! bit-identical flight-recorder timeline — at every hostile seed, and
//! when two of them record at once.

use std::sync::Barrier;
use std::time::Duration;

use aide::apps::{javanote, Scale};
use aide::core::{Platform, PlatformConfig};
use aide::emu::{decode, record_platform_run, replay, to_json_lines, ReplayTrace};
use aide::rpc::ChaosSchedule;
use aide::telemetry::{render_timeline, PlatformEvent};

/// Hostile weather without loss: duplicates, reordering, and delay keep
/// the chaos RNG busy on every frame while the workload still finishes
/// quickly (replay fidelity does not depend on which faults fire: the
/// trace holds no draw, only the seed in its header).
fn hostile_lossless(seed: u64) -> ChaosSchedule {
    let mut s = ChaosSchedule::seeded(seed);
    s.delay = 0.10;
    s.max_delay = Duration::from_millis(2);
    s.duplicate = 0.08;
    s.reorder = 0.08;
    s
}

#[test]
fn chaotic_platform_runs_replay_bit_identically_at_three_seeds() {
    for seed in [0xDEADu64, 0xBEEF, 41] {
        let mut cfg = PlatformConfig::prototype(3 << 20);
        cfg.chaos = Some(hostile_lossless(seed));
        let platform = Platform::new(javanote(Scale(0.5)).program, cfg);
        let (report, trace) = record_platform_run(platform, "javanote-chaos");
        report
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("seed {seed:#x}: chaotic run failed: {e}"));
        assert!(report.offloaded(), "seed {seed:#x}: the run must offload");
        assert!(
            trace.trigger_count() >= 1,
            "seed {seed:#x}: a decision is on tape"
        );

        // The decision pipeline replays every input on tape to a
        // bit-identical timeline, with zero divergences, even after a
        // round trip through the file format.
        let outcome =
            replay(&trace, None).unwrap_or_else(|e| panic!("seed {seed:#x}: replay diverged: {e}"));
        assert_eq!(
            outcome.events_consumed,
            trace.inputs.len() as u64,
            "seed {seed:#x}: every input on tape is one replay reads"
        );
        assert_eq!(
            outcome.timeline, trace.baseline,
            "seed {seed:#x}: timeline must be bit-identical"
        );
        assert_eq!(
            render_timeline(&outcome.timeline),
            report.timeline(),
            "seed {seed:#x}: rendered timelines identical"
        );

        let decoded = decode(to_json_lines(&trace).as_bytes())
            .unwrap_or_else(|e| panic!("seed {seed:#x}: round trip failed: {e}"));
        assert_eq!(decoded, trace, "seed {seed:#x}: the file is the trace");
        let outcome = replay(&decoded, None)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: decoded replay diverged: {e}"));
        assert_eq!(outcome.timeline, trace.baseline);
    }
}

/// A recording's source belongs to its run, so two runs may record at
/// the same time in one process: each trace holds its own run's inputs
/// and nothing of the other's.
#[test]
fn two_recordings_at_once_each_replay_their_own_run() {
    let start = Barrier::new(2);
    let record = |seed: u64| -> ReplayTrace {
        let mut cfg = PlatformConfig::prototype(3 << 20);
        cfg.chaos = Some(hostile_lossless(seed));
        let platform = Platform::new(javanote(Scale(0.5)).program, cfg);
        start.wait();
        let (report, trace) = record_platform_run(platform, "javanote-chaos");
        report
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("seed {seed:#x}: chaotic run failed: {e}"));
        trace
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| record(0xA11CE));
        let b = s.spawn(|| record(0xB0B));
        (
            a.join().expect("recording a"),
            b.join().expect("recording b"),
        )
    });
    for trace in [&a, &b] {
        let fired = trace
            .baseline
            .iter()
            .filter(|t| matches!(t.event, PlatformEvent::TriggerFired { .. }))
            .count();
        assert!(fired >= 1, "the run decided at least once");
        assert_eq!(trace.trigger_count(), fired, "its own triggers, no more");
        let outcome = replay(trace, None).expect("replay without divergence");
        assert_eq!(outcome.timeline, trace.baseline);
        assert_eq!(outcome.events_consumed, trace.inputs.len() as u64);
    }
}
