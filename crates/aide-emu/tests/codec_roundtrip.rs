//! Properties of the trace codec, each on [`support::CASES`] seeded random
//! traces: arbitrary event streams survive the encoding bit-identically,
//! and corrupt bytes or records of a removed kind produce errors — never
//! panics.

#[path = "../../aide-graph/tests/support/mod.rs"]
mod support;

use aide_core::{MigrationRecord, NodeKey, PlatformConfig, TriggerSample};
use aide_emu::{decode, from_json_lines, to_json_lines, ReplayEvent, ReplayTrace};
use aide_graph::{GraphDelta, NodeId, PinReason, ResourceSnapshot};
use aide_telemetry::{PlatformEvent, TimedEvent};
use aide_vm::{ClassId, GcReport};
use support::{for_each_case, Rng};

const LETTERS: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const REASON: &str = "abcdefghijklmnopqrstuvwxyz-";
const HOST: &str = "abcdefghijklmnopqrstuvwxyz0123456789-";

fn report(rng: &mut Rng) -> GcReport {
    GcReport {
        cycle: rng.word(),
        capacity: rng.word(),
        used_after: rng.word(),
        free_after: rng.word(),
        freed_objects: rng.word(),
        freed_bytes: rng.word(),
        duration_micros: f64::from(rng.word() as u32),
    }
}

fn delta(rng: &mut Rng) -> GraphDelta {
    if rng.flip() {
        GraphDelta::AddNode {
            label: rng.text(LETTERS, 1, 12),
            pinned: rng.option(|_| PinReason::NativeMethods),
            memory_bytes: rng.word(),
            cpu_micros: rng.word(),
            live_objects: rng.word(),
        }
    } else {
        GraphDelta::UpdateNode {
            node: NodeId(rng.word() as u32),
            memory_bytes: rng.word(),
            cpu_micros: rng.word(),
            live_objects: rng.word(),
        }
    }
}

fn sample(rng: &mut Rng) -> TriggerSample {
    TriggerSample {
        at_gc_cycle: rng.word(),
        reason: rng.text(REASON, 1, 20),
        snapshot: ResourceSnapshot {
            heap_capacity: rng.word(),
            heap_used: rng.word(),
        },
        deltas: rng.vec(0, 4, delta),
        keys: rng.vec(0, 4, |rng| NodeKey::Class(ClassId(rng.word() as u32))),
    }
}

fn input(rng: &mut Rng) -> ReplayEvent {
    let at_micros = rng.word();
    match rng.below(4) {
        0 => ReplayEvent::Gc {
            at_micros,
            report: report(rng),
        },
        1 => ReplayEvent::Trigger {
            at_micros,
            sample: sample(rng),
        },
        2 => ReplayEvent::Migration {
            at_micros,
            record: match rng.below(3) {
                0 => MigrationRecord::Completed {
                    objects: rng.word(),
                    bytes: rng.word(),
                    duration_micros: rng.word(),
                },
                1 => MigrationRecord::Failed,
                _ => MigrationRecord::NoSurrogate,
            },
        },
        _ => ReplayEvent::LinkDown {
            at_micros,
            surrogate: rng.text(HOST, 1, 16),
        },
    }
}

fn baseline_event(rng: &mut Rng) -> PlatformEvent {
    match rng.below(4) {
        0 => PlatformEvent::TriggerFired {
            at_gc_cycle: rng.word(),
            heap_used: rng.word(),
            heap_capacity: rng.word(),
            reason: rng.text(REASON, 1, 12),
        },
        1 => PlatformEvent::WinnerChosen {
            policy_score: f64::from(rng.word() as u32),
            offload_bytes: rng.word(),
            cut_interactions: rng.word(),
        },
        2 => PlatformEvent::OffloadDeclined {
            candidates: rng.index(1 << 16),
        },
        _ => PlatformEvent::EpochSkipped {
            churn_weight: rng.word(),
            threshold: rng.word(),
        },
    }
}

fn trace(rng: &mut Rng) -> ReplayTrace {
    let mut trace = ReplayTrace::new("seeded", PlatformConfig::prototype(3 << 20));
    trace.inputs = rng.vec(0, 24, input);
    trace.baseline = (0..rng.below(12))
        .map(|seq| TimedEvent {
            seq,
            at_micros: rng.word(),
            event: baseline_event(rng),
            span: None,
        })
        .collect();
    trace
}

/// A byte to XOR in that changes the one it meets.
fn flip(rng: &mut Rng) -> u8 {
    rng.range(1, 256) as u8
}

/// JSON lines round-trip arbitrary traces exactly, and re-encoding the
/// decoded trace reproduces the original bytes bit-for-bit.
#[test]
fn arbitrary_traces_round_trip_bit_identically() {
    for_each_case(|rng| {
        let trace = trace(rng);
        let json = to_json_lines(&trace);
        let from_json = from_json_lines(&json).expect("json round-trip");
        assert_eq!(from_json, trace);

        let decoded = decode(json.as_bytes()).expect("decode the bytes");
        assert_eq!(to_json_lines(&decoded), json);
    });
}

/// Arbitrary corruption of the JSON form never panics the decoder; a
/// file of the removed binary container (its magic and version byte
/// lead) and a line of an input kind no reader has any more are errors.
#[test]
fn corrupted_json_never_panics() {
    for_each_case(|rng| {
        let good = to_json_lines(&trace(rng));
        let mut json = good.clone().into_bytes();
        let at = rng.index(json.len());
        json[at] ^= flip(rng);
        let _ = decode(&json);

        let mut container = vec![0x41, 0x49, 0x44, 0x52, 1];
        container.extend_from_slice(good.as_bytes());
        assert!(decode(&container).is_err());

        let removed = format!(
            "{good}{{\"Input\":{{\"ChaosDraw\":{{\"stream\":{},\"index\":0,\"value\":{}}}}}}}\n",
            rng.word(),
            rng.word()
        );
        assert!(decode(removed.as_bytes()).is_err());
    });
}
