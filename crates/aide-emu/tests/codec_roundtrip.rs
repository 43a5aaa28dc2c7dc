//! Properties of the trace codec, each on [`support::CASES`] seeded random
//! traces: arbitrary event streams survive the encoding bit-identically,
//! and corrupt bytes or records of a removed kind produce errors — never
//! panics. So does a graph delta that names a node no earlier delta added.

#[path = "../../aide-graph/tests/support/mod.rs"]
mod support;

use aide_core::{MigrationRecord, NodeKey, PlatformConfig, TriggerSample};
use aide_emu::{
    decode, from_json_lines, load, to_json_lines, ReplayEvent, ReplayTrace, TraceError,
};
use aide_graph::{EdgeInfo, GraphDelta, NodeId, PinReason, ResourceSnapshot};
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

/// A node addition, or an update of one of the `added` nodes so far.
fn delta(rng: &mut Rng, added: &mut u64) -> GraphDelta {
    if *added == 0 || rng.flip() {
        *added += 1;
        GraphDelta::AddNode {
            label: rng.text(LETTERS, 1, 12),
            pinned: rng.option(|_| PinReason::NativeMethods),
            memory_bytes: rng.word(),
            cpu_micros: rng.word(),
            live_objects: rng.word(),
        }
    } else {
        GraphDelta::UpdateNode {
            node: NodeId(rng.below(*added) as u32),
            memory_bytes: rng.word(),
            cpu_micros: rng.word(),
            live_objects: rng.word(),
        }
    }
}

fn sample(rng: &mut Rng, added: &mut u64) -> TriggerSample {
    TriggerSample {
        at_gc_cycle: rng.word(),
        reason: rng.text(REASON, 1, 20),
        snapshot: ResourceSnapshot {
            heap_capacity: rng.word(),
            heap_used: rng.word(),
        },
        deltas: rng.vec(0, 4, |rng| delta(rng, added)),
        keys: rng.vec(0, 4, |rng| NodeKey::Class(ClassId(rng.word() as u32))),
    }
}

fn input(rng: &mut Rng, added: &mut u64) -> ReplayEvent {
    let at_micros = rng.word();
    match rng.below(4) {
        0 => ReplayEvent::Gc {
            at_micros,
            report: report(rng),
        },
        1 => ReplayEvent::Trigger {
            at_micros,
            sample: sample(rng, added),
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
        _ => PlatformEvent::CandidatesEvaluated {
            candidates: rng.index(1 << 16),
            elapsed_micros: rng.word(),
        },
    }
}

fn trace(rng: &mut Rng) -> ReplayTrace {
    let mut trace = ReplayTrace::new("seeded", PlatformConfig::prototype(3 << 20));
    let mut added = 0;
    trace.inputs = rng.vec(0, 24, |rng| input(rng, &mut added));
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

/// A delta that names a node no earlier `AddNode` minted — one case per
/// delta kind that names a node, pushed into the first trigger of the
/// editor trace — is a corrupt trace, not a replay that panics on it.
#[test]
fn a_delta_naming_an_unadded_node_is_corrupt() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces");
    let good = load(dir.join("editor.trace.jsonl")).expect("the editor trace loads");
    let (known, unknown) = (NodeId(0), NodeId(9_999));
    let cases = [
        GraphDelta::UpdateNode {
            node: unknown,
            memory_bytes: 1,
            cpu_micros: 1,
            live_objects: 1,
        },
        GraphDelta::SetPinned {
            node: unknown,
            pinned: Some(PinReason::Explicit),
        },
        GraphDelta::Interaction {
            a: known,
            b: unknown,
            delta: EdgeInfo::new(1, 1),
        },
        GraphDelta::Interaction {
            a: unknown,
            b: known,
            delta: EdgeInfo::new(1, 1),
        },
        GraphDelta::RemoveNode { node: unknown },
    ];
    for bad in cases {
        let mut trace = good.clone();
        let sample = trace
            .inputs
            .iter_mut()
            .find_map(|input| match input {
                ReplayEvent::Trigger { sample, .. } => Some(sample),
                _ => None,
            })
            .expect("the editor trace has a trigger");
        sample.deltas.push(bad.clone());
        let decoded = decode(to_json_lines(&trace).as_bytes());
        assert!(
            matches!(decoded, Err(TraceError::Corrupt(_))),
            "{bad:?}: {decoded:?}"
        );
    }
}

/// The editor trace, with `extra` pushed onto its first trigger's deltas.
fn editor_with(extra: &[GraphDelta]) -> ReplayTrace {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces");
    let mut trace = load(dir.join("editor.trace.jsonl")).expect("the editor trace loads");
    first_trigger_deltas(&mut trace).extend_from_slice(extra);
    trace
}

fn first_trigger_deltas(trace: &mut ReplayTrace) -> &mut Vec<GraphDelta> {
    trace
        .inputs
        .iter_mut()
        .find_map(|input| match input {
            ReplayEvent::Trigger { sample, .. } => Some(&mut sample.deltas),
            _ => None,
        })
        .expect("the editor trace has a trigger")
}

/// Every `Interaction`'s interactions plus bytes, over the whole trace.
fn traffic(trace: &ReplayTrace) -> u128 {
    trace
        .inputs
        .iter()
        .filter_map(|input| match input {
            ReplayEvent::Trigger { sample, .. } => Some(&sample.deltas),
            _ => None,
        })
        .flatten()
        .map(|delta| match delta {
            GraphDelta::Interaction { delta, .. } => {
                u128::from(delta.interactions) + u128::from(delta.bytes)
            }
            _ => 0,
        })
        .sum()
}

fn interaction(interactions: u64, bytes: u64) -> GraphDelta {
    GraphDelta::Interaction {
        a: NodeId(0),
        b: NodeId(1),
        delta: EdgeInfo::new(interactions, bytes),
    }
}

/// Interaction deltas whose interactions and bytes sum past `u64::MAX` —
/// which the graph's edge weights and cut sums would overflow on — are a
/// corrupt trace: one delta of `u64::MAX` bytes, or two that pass it only
/// together. A trace whose sum is exactly `u64::MAX` decodes and replays.
#[test]
fn interaction_deltas_past_what_the_graph_can_sum_are_corrupt() {
    let mut probe = editor_with(&[]);
    let first = first_trigger_deltas(&mut probe)
        .iter_mut()
        .find_map(|delta| match delta {
            GraphDelta::Interaction { delta, .. } => Some(delta),
            _ => None,
        })
        .expect("the editor trace's first trigger has an interaction");
    first.bytes = u64::MAX;
    let decoded = decode(to_json_lines(&probe).as_bytes());
    assert!(
        matches!(decoded, Err(TraceError::Corrupt(_))),
        "{decoded:?}"
    );

    let half = interaction(1, u64::MAX / 2);
    let alone = editor_with(std::slice::from_ref(&half));
    decode(to_json_lines(&alone).as_bytes()).expect("either delta alone decodes");
    let together = editor_with(&[half.clone(), half]);
    let decoded = decode(to_json_lines(&together).as_bytes());
    assert!(
        matches!(decoded, Err(TraceError::Corrupt(_))),
        "{decoded:?}"
    );

    let base = editor_with(&[]);
    let room = u64::try_from(u128::from(u64::MAX) - traffic(&base)).expect("room left");
    let at_bound = editor_with(&[interaction(0, room)]);
    assert_eq!(traffic(&at_bound), u128::from(u64::MAX));
    let decoded = decode(to_json_lines(&at_bound).as_bytes()).expect("at the bound decodes");
    aide_emu::bless(&decoded).expect("at the bound replays");
}
