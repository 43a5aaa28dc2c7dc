//! End-to-end record/replay: a real platform run's decisions, captured
//! through the nondeterminism seam, replay bit-identically — and a
//! perturbed trace fails with a located divergence naming expected vs.
//! actual.

use aide_apps::{javanote, Scale};
use aide_core::{Platform, PlatformConfig};
use aide_emu::{
    decode, record_platform_run, replay, to_json_lines, ReplayError, ReplayEvent, ReplayTrace,
};
use aide_telemetry::{names, render_timeline, FlightRecorder, PlatformEvent};

fn recorded_javanote() -> ReplayTrace {
    let cfg = PlatformConfig::prototype(3 << 20);
    let platform = Platform::new(javanote(Scale(0.5)).program, cfg);
    let (report, trace) = record_platform_run(platform, "javanote");
    report.outcome.as_ref().expect("javanote completes");
    assert!(report.offloaded(), "the recorded run must offload");
    trace
}

#[test]
fn recorded_run_replays_bit_identically() {
    let trace = recorded_javanote();
    assert!(trace.trigger_count() >= 1, "at least one decision on tape");
    assert!(!trace.baseline.is_empty(), "baseline timeline recorded");

    let outcome = replay(&trace, None).expect("replay without divergence");
    assert_eq!(outcome.timeline, trace.baseline, "timelines bit-identical");
    assert_eq!(
        render_timeline(&outcome.timeline),
        render_timeline(&trace.baseline),
        "rendered timelines identical"
    );
    assert_eq!(outcome.events_consumed, trace.inputs.len() as u64);
}

#[test]
fn replay_survives_a_json_lines_round_trip() {
    let trace = recorded_javanote();
    let decoded = decode(to_json_lines(&trace).as_bytes()).expect("round trip");
    assert_eq!(decoded, trace);
    let outcome = replay(&decoded, None).expect("replay the decoded trace");
    assert_eq!(outcome.timeline, trace.baseline);
}

#[test]
fn perturbed_input_diverges_with_a_located_error() {
    let mut trace = recorded_javanote();

    // Tamper with the first recorded trigger: claim the heap was one
    // byte fuller than it was. The replayed TriggerFired must disagree
    // with the baseline.
    let sample = trace
        .inputs
        .iter_mut()
        .find_map(|e| match e {
            ReplayEvent::Trigger { sample, .. } => Some(sample),
            _ => None,
        })
        .expect("trace has a trigger");
    sample.snapshot.heap_used += 1;

    let before = aide_telemetry::global()
        .counter(names::REPLAY_DIVERGENCES)
        .get();
    let recorder = FlightRecorder::new(64);
    let err = replay(&trace, Some(&recorder)).expect_err("tampered trace must diverge");
    let ReplayError::Diverged {
        index,
        expected,
        actual,
    } = &err;
    assert!(expected.contains("trigger fired"), "expected: {expected}");
    assert!(actual.contains("trigger fired"), "actual: {actual}");
    assert_ne!(expected, actual);
    let msg = err.to_string();
    assert!(
        msg.contains(&format!("replay diverged at timeline event {index}")),
        "located message: {msg}"
    );
    assert!(msg.contains("expected") && msg.contains("got"), "{msg}");

    // Telemetry satellite: the counter moved and the flight recorder
    // holds a ReplayDiverged event.
    assert!(
        aide_telemetry::global()
            .counter(names::REPLAY_DIVERGENCES)
            .get()
            > before
    );
    assert!(recorder
        .events()
        .iter()
        .any(|t| matches!(t.event, PlatformEvent::ReplayDiverged { .. })));
}

#[test]
fn perturbed_baseline_diverges() {
    let mut trace = recorded_javanote();
    let winner = trace
        .baseline
        .iter_mut()
        .find(|t| matches!(t.event, PlatformEvent::WinnerChosen { .. }))
        .expect("baseline has a winner");
    if let PlatformEvent::WinnerChosen { offload_bytes, .. } = &mut winner.event {
        *offload_bytes += 1;
    }
    let err = replay(&trace, None).expect_err("edited baseline must diverge");
    assert!(matches!(err, ReplayError::Diverged { .. }));
    assert!(err.to_string().contains("winner chosen"), "{err}");
}

#[test]
fn missing_gc_stream_fails_the_trigger_gate() {
    let mut trace = recorded_javanote();
    // Drop every recorded GC report: the trigger state machine can never
    // arm, so the first recorded trigger must be rejected.
    trace
        .inputs
        .retain(|e| !matches!(e, ReplayEvent::Gc { .. }));
    let err = replay(&trace, None).expect_err("gc-less trace must diverge");
    assert!(
        err.to_string().contains("trigger gate closed"),
        "unexpected error: {err}"
    );
}
