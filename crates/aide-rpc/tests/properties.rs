//! Property tests, each on [`support::CASES`] seeded random cases: the wire
//! codec round-trips arbitrary messages and rejects arbitrary corruption
//! without panicking; reference tables keep exact counts under arbitrary
//! interleavings.

#[path = "../../aide-graph/tests/support/mod.rs"]
mod support;

use std::collections::{HashMap, HashSet};

use aide_rpc::{ExportTable, ImportTable, Message, Reply, Request};
use aide_vm::{ClassId, MethodId, NativeKind, ObjectId, ObjectRecord};
use support::{for_each_case, Rng};

fn object_id(rng: &mut Rng) -> ObjectId {
    let n = rng.word() & ((1 << 62) - 1);
    if rng.flip() {
        ObjectId::surrogate(n)
    } else {
        ObjectId::client(n)
    }
}

fn native(rng: &mut Rng) -> NativeKind {
    rng.pick(&[
        NativeKind::Math,
        NativeKind::StringOp,
        NativeKind::Framebuffer,
        NativeKind::UiToolkit,
        NativeKind::FileIo,
        NativeKind::SystemInfo,
    ])
}

fn record(rng: &mut Rng) -> ObjectRecord {
    let slots = rng.vec(0, 6, |rng| rng.option(object_id));
    let mut rec = ObjectRecord::new(
        ClassId(rng.word() as u32),
        rng.word() as u32,
        slots.len() as u16,
    );
    rec.slots = slots;
    rec
}

fn objects(rng: &mut Rng) -> Vec<(ObjectId, ObjectRecord)> {
    rng.vec(0, 12, |rng| (object_id(rng), record(rng)))
}

fn request(rng: &mut Rng) -> Request {
    match rng.below(15) {
        0 => Request::Invoke {
            target: object_id(rng),
            class: ClassId(rng.word() as u32),
            method: MethodId(rng.word() as u16),
            arg_bytes: rng.word() as u32,
            ret_bytes: rng.word() as u32,
            args: rng.vec(0, 8, object_id),
        },
        1 => Request::FieldAccess {
            target: object_id(rng),
            bytes: rng.word() as u32,
            write: rng.flip(),
        },
        2 => Request::GetSlot {
            target: object_id(rng),
            slot: rng.word() as u16,
        },
        3 => Request::PutSlot {
            target: object_id(rng),
            slot: rng.word() as u16,
            value: rng.option(object_id),
        },
        4 => Request::Native {
            caller: ClassId(rng.word() as u32),
            kind: native(rng),
            work_micros: rng.word() as u32,
            arg_bytes: rng.word() as u32,
            ret_bytes: rng.word() as u32,
        },
        5 => Request::StaticAccess {
            accessor: ClassId(rng.word() as u32),
            class: ClassId(rng.word() as u32),
            bytes: rng.word() as u32,
            write: rng.flip(),
        },
        6 => Request::ClassOf {
            target: object_id(rng),
        },
        7 => Request::RelayDeliver {
            txn: rng.word(),
            queued_for_ms: rng.word(),
            objects: objects(rng),
        },
        8 => Request::MigratePrepare {
            txn: rng.word(),
            objects: objects(rng),
        },
        9 => Request::MigrateCommit { txn: rng.word() },
        10 => Request::MigrateAbort { txn: rng.word() },
        11 => Request::GcReleaseSeq {
            epoch: rng.word(),
            release_seq: rng.word(),
            objects: rng.vec(0, 24, object_id),
        },
        12 => Request::Shutdown,
        13 => Request::Ping,
        _ => Request::Stats,
    }
}

/// Up to 64 printable ASCII characters.
fn printable(rng: &mut Rng) -> String {
    let alphabet: String = (' '..='~').collect();
    rng.text(&alphabet, 0, 64)
}

fn message(rng: &mut Rng) -> Message {
    let seq = rng.word();
    let result = match rng.below(6) {
        0 => {
            return Message::Request {
                seq,
                client: rng.word(),
                body: request(rng),
            }
        }
        1 => Ok(Reply::Unit),
        2 => Ok(Reply::Slot(rng.option(object_id))),
        3 => Ok(Reply::Class(ClassId(rng.word() as u32))),
        4 => Ok(Reply::Text(printable(rng))),
        _ => Err(printable(rng)),
    };
    Message::Reply { seq, result }
}

/// A byte to XOR in that changes the one it meets.
fn flip(rng: &mut Rng) -> u8 {
    rng.range(1, 255) as u8
}

/// Every message round-trips exactly through the codec.
#[test]
fn codec_round_trips() {
    for_each_case(|rng| {
        let msg = message(rng);
        let frame = msg.encode();
        let back = Message::decode(&frame).expect("well-formed frame decodes");
        assert_eq!(msg, back);
    });
}

/// Truncations never decode successfully to the *same* message, and never
/// panic.
#[test]
fn truncation_is_detected() {
    for_each_case(|rng| {
        let msg = message(rng);
        let frame = msg.encode();
        let cut = rng.index(frame.len());
        if let Ok(other) = Message::decode(&frame[..cut]) {
            assert_ne!(other, msg, "truncated decode must differ");
        }
    });
}

/// Random byte flips never panic the decoder; if they decode, re-encoding
/// is self-consistent.
#[test]
fn corruption_never_panics() {
    for_each_case(|rng| {
        let mut frame = message(rng).encode().to_vec();
        let pos = rng.index(frame.len());
        frame[pos] ^= flip(rng);
        if let Ok(decoded) = Message::decode(&frame) {
            let re = decoded.encode();
            let again = Message::decode(&re).expect("re-encode decodes");
            assert_eq!(decoded, again);
        }
    });
}

/// Fuzz the decoder with arbitrary byte soup: it must reject or decode,
/// never panic. (Frames this short of a valid CRC essentially always
/// reject; the property is the absence of a crash path.)
#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    for_each_case(|rng| {
        let bytes = rng.vec(0, 512, |rng| rng.word() as u8);
        if let Ok(decoded) = Message::decode(&bytes) {
            // The astronomically unlikely accidental decode must still be
            // self-consistent.
            let re = decoded.encode();
            assert_eq!(Message::decode(&re).expect("re-encode decodes"), decoded);
        }
    });
}

/// Any single-byte flip in the frame *payload* (past the 5-byte
/// version + CRC header) is caught by the checksum.
#[test]
fn payload_corruption_is_rejected() {
    for_each_case(|rng| {
        let mut frame = message(rng).encode().to_vec();
        let header = 5; // version byte + 4-byte CRC32
        let pos = header + rng.index(frame.len() - header);
        frame[pos] ^= flip(rng);
        assert!(
            Message::decode(&frame).is_err(),
            "flipped payload byte must fail the CRC"
        );
    });
}

/// Export-table counts are exact: after any interleaving of exports and
/// releases, the pin state matches a reference-counting model.
#[test]
fn export_table_matches_refcount_model() {
    for_each_case(|rng| {
        let table = ExportTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..rng.range(1, 200) {
            let obj = rng.below(16);
            let id = ObjectId::client(obj);
            let count = model.entry(obj).or_insert(0);
            if rng.flip() {
                *count += 1;
                assert_eq!(table.export(id), *count == 1);
            } else {
                let released = table.release(id);
                if *count > 0 {
                    *count -= 1;
                    assert_eq!(released, *count == 0);
                } else {
                    assert!(!released, "release of unexported object is a no-op");
                }
            }
            assert_eq!(table.contains(id), model[&obj] > 0);
        }
        let live = model.values().filter(|&&c| c > 0).count();
        assert_eq!(table.len(), live);
    });
}

/// Import-table sweeps drop exactly the unreferenced entries.
#[test]
fn import_sweep_is_exact() {
    for_each_case(|rng| {
        let held: HashSet<u64> = rng.vec(0, 32, |rng| rng.below(64)).into_iter().collect();
        let still: HashSet<u64> = rng.vec(0, 32, |rng| rng.below(64)).into_iter().collect();
        let table = ImportTable::new();
        for &h in &held {
            table.import(ObjectId::surrogate(h));
        }
        let still_ids: HashSet<ObjectId> = still.iter().map(|&s| ObjectId::surrogate(s)).collect();
        let dropped = table.sweep_dropped(&still_ids);
        assert_eq!(dropped.len(), held.difference(&still).count());
        for d in dropped {
            assert!(!still_ids.contains(&d));
        }
        assert_eq!(table.len(), held.intersection(&still).count());
    });
}
