//! Properties of the trace codec, each on [`support::CASES`] seeded random
//! traces: arbitrary event streams survive both encodings bit-identically,
//! and corrupt or truncated bytes produce errors — never panics.

#[path = "../../aide-graph/tests/support/mod.rs"]
mod support;

use aide_core::{MigrationRecord, NodeKey, PlatformConfig, TriggerSample};
use aide_graph::{GraphDelta, NodeId, PinReason, ResourceSnapshot};
use aide_replay::{decode, from_json_lines, to_binary, to_json_lines, ReplayEvent, ReplayTrace};
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
    match rng.below(8) {
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
        3 => ReplayEvent::LinkDown {
            at_micros,
            surrogate: rng.text(HOST, 1, 16),
        },
        4 => ReplayEvent::RpcCompletion {
            at_micros,
            seq: rng.word(),
            attempts: rng.word() as u32,
            elapsed_micros: rng.word(),
            ok: rng.flip(),
        },
        5 => ReplayEvent::ChaosDraw {
            stream: at_micros,
            index: rng.word(),
            value: rng.word(),
        },
        6 => ReplayEvent::ProbeRtt {
            at_micros,
            surrogate: rng.text(HOST, 1, 16),
            rtt_micros: rng.word(),
        },
        _ => ReplayEvent::VirtualTick { at_micros },
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

/// JSON lines and binary both round-trip arbitrary traces exactly,
/// auto-detection picks the right decoder, and re-encoding the
/// decoded trace reproduces the original bytes bit-for-bit.
#[test]
fn arbitrary_traces_round_trip_bit_identically() {
    for_each_case(|rng| {
        let trace = trace(rng);
        let json = to_json_lines(&trace);
        let from_json = from_json_lines(&json).expect("json round-trip");
        assert_eq!(from_json, trace);

        let bin = to_binary(&trace);
        let from_bin = decode(&bin).expect("binary round-trip");
        assert_eq!(from_bin, trace);

        // Cross the formats: JSON -> decode -> binary must equal the
        // binary of the original, byte for byte.
        let from_json_via_detect = decode(json.as_bytes()).expect("auto-detect json");
        assert_eq!(to_binary(&from_json_via_detect), bin);
    });
}

/// Flipping any payload byte of the first binary frame is caught by
/// the frame checksum.
#[test]
fn corrupted_binary_payloads_error() {
    for_each_case(|rng| {
        let mut bin = to_binary(&trace(rng));
        // Frame layout: magic(4) version(1) | tag(1) len(4) payload crc(4).
        let payload_len = u32::from_le_bytes([bin[6], bin[7], bin[8], bin[9]]) as usize;
        let at = 10 + rng.index(payload_len);
        bin[at] ^= flip(rng);
        assert!(decode(&bin).is_err());
    });
}

/// Truncated binary never panics; when a truncation lands exactly on
/// a frame boundary the decoder may return the surviving prefix, but
/// the header is always intact.
#[test]
fn truncated_binary_never_panics() {
    for_each_case(|rng| {
        let trace = trace(rng);
        let bin = to_binary(&trace);
        let cut = rng.index(bin.len());
        if let Ok(prefix) = decode(&bin[..cut]) {
            assert_eq!(prefix.header, trace.header);
        }
    });
}

/// Arbitrary corruption of the JSON form never panics the decoder.
#[test]
fn corrupted_json_never_panics() {
    for_each_case(|rng| {
        let mut json = to_json_lines(&trace(rng)).into_bytes();
        let at = rng.index(json.len());
        json[at] ^= flip(rng);
        let _ = decode(&json);
    });
}
