//! Property-based tests: the wire codec round-trips arbitrary messages and
//! rejects arbitrary corruption without panicking; reference tables keep
//! exact counts under arbitrary interleavings.

use aide_rpc::{ExportTable, ImportTable, Message, Reply, Request};
use aide_vm::{ClassId, MethodId, NativeKind, ObjectId, ObjectRecord};
use proptest::prelude::*;

fn arb_object_id() -> impl Strategy<Value = ObjectId> {
    (any::<u64>(), any::<bool>()).prop_map(|(n, surrogate)| {
        let n = n & ((1 << 62) - 1);
        if surrogate {
            ObjectId::surrogate(n)
        } else {
            ObjectId::client(n)
        }
    })
}

fn arb_native() -> impl Strategy<Value = NativeKind> {
    prop_oneof![
        Just(NativeKind::Math),
        Just(NativeKind::StringOp),
        Just(NativeKind::Framebuffer),
        Just(NativeKind::UiToolkit),
        Just(NativeKind::FileIo),
        Just(NativeKind::SystemInfo),
    ]
}

fn arb_record() -> impl Strategy<Value = ObjectRecord> {
    (
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(proptest::option::of(arb_object_id()), 0..6),
    )
        .prop_map(|(class, bytes, slots)| {
            let mut rec = ObjectRecord::new(ClassId(class), bytes, slots.len() as u16);
            for (i, s) in slots.into_iter().enumerate() {
                rec.slots[i] = s;
            }
            rec
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            arb_object_id(),
            any::<u32>(),
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            proptest::collection::vec(arb_object_id(), 0..8)
        )
            .prop_map(|(target, class, method, arg_bytes, ret_bytes, args)| {
                Request::Invoke {
                    target,
                    class: ClassId(class),
                    method: MethodId(method),
                    arg_bytes,
                    ret_bytes,
                    args,
                }
            }),
        (arb_object_id(), any::<u32>(), any::<bool>()).prop_map(|(target, bytes, write)| {
            Request::FieldAccess {
                target,
                bytes,
                write,
            }
        }),
        (arb_object_id(), any::<u16>())
            .prop_map(|(target, slot)| Request::GetSlot { target, slot }),
        (
            arb_object_id(),
            any::<u16>(),
            proptest::option::of(arb_object_id())
        )
            .prop_map(|(target, slot, value)| Request::PutSlot {
                target,
                slot,
                value
            }),
        (
            any::<u32>(),
            arb_native(),
            any::<u32>(),
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(|(caller, kind, work_micros, arg_bytes, ret_bytes)| {
                Request::Native {
                    caller: ClassId(caller),
                    kind,
                    work_micros,
                    arg_bytes,
                    ret_bytes,
                }
            }),
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<bool>()).prop_map(
            |(accessor, class, bytes, write)| Request::StaticAccess {
                accessor: ClassId(accessor),
                class: ClassId(class),
                bytes,
                write,
            }
        ),
        arb_object_id().prop_map(|target| Request::ClassOf { target }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec((arb_object_id(), arb_record()), 0..12)
        )
            .prop_map(|(txn, queued_for_ms, objects)| Request::RelayDeliver {
                txn,
                queued_for_ms,
                objects
            }),
        (
            any::<u64>(),
            proptest::collection::vec((arb_object_id(), arb_record()), 0..12)
        )
            .prop_map(|(txn, objects)| Request::MigratePrepare { txn, objects }),
        any::<u64>().prop_map(|txn| Request::MigrateCommit { txn }),
        any::<u64>().prop_map(|txn| Request::MigrateAbort { txn }),
        (
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(arb_object_id(), 0..24)
        )
            .prop_map(|(epoch, release_seq, objects)| Request::GcReleaseSeq {
                epoch,
                release_seq,
                objects
            }),
        Just(Request::Shutdown),
        Just(Request::Ping),
        Just(Request::Stats),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), arb_request())
            .prop_map(|(seq, client, body)| Message::Request { seq, client, body }),
        (any::<u64>()).prop_map(|seq| Message::Reply {
            seq,
            result: Ok(Reply::Unit)
        }),
        (any::<u64>(), proptest::option::of(arb_object_id())).prop_map(|(seq, v)| {
            Message::Reply {
                seq,
                result: Ok(Reply::Slot(v)),
            }
        }),
        (any::<u64>(), any::<u32>()).prop_map(|(seq, c)| Message::Reply {
            seq,
            result: Ok(Reply::Class(ClassId(c)))
        }),
        (any::<u64>(), "[ -~]{0,64}").prop_map(|(seq, text)| Message::Reply {
            seq,
            result: Ok(Reply::Text(text))
        }),
        (any::<u64>(), "[ -~]{0,64}").prop_map(|(seq, msg)| Message::Reply {
            seq,
            result: Err(msg)
        }),
    ]
}

proptest! {
    /// Every message round-trips exactly through the codec.
    #[test]
    fn codec_round_trips(msg in arb_message()) {
        let frame = msg.encode();
        let back = Message::decode(&frame).expect("well-formed frame decodes");
        prop_assert_eq!(msg, back);
    }

    /// Truncations never decode successfully to a *different* message, and
    /// never panic.
    #[test]
    fn truncation_is_detected(msg in arb_message(), cut in any::<proptest::sample::Index>()) {
        let frame = msg.encode();
        let cut = cut.index(frame.len());
        if cut < frame.len() {
            match Message::decode(&frame[..cut]) {
                Ok(other) => prop_assert_ne!(other, msg, "truncated decode must differ"),
                Err(_) => {}
            }
        }
    }

    /// Random byte flips never panic the decoder; if they decode, re-encoding
    /// is self-consistent.
    #[test]
    fn corruption_never_panics(msg in arb_message(), pos in any::<proptest::sample::Index>(), flip in 1u8..255) {
        let mut frame = msg.encode().to_vec();
        let pos = pos.index(frame.len());
        frame[pos] ^= flip;
        if let Ok(decoded) = Message::decode(&frame) {
            let re = decoded.encode();
            let again = Message::decode(&re).expect("re-encode decodes");
            prop_assert_eq!(decoded, again);
        }
    }

    /// Fuzz the decoder with arbitrary byte soup: it must reject or decode,
    /// never panic. (Frames this short of a valid CRC essentially always
    /// reject; the property is the absence of a crash path.)
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        if let Ok(decoded) = Message::decode(&bytes) {
            // The astronomically unlikely accidental decode must still be
            // self-consistent.
            let re = decoded.encode();
            prop_assert_eq!(Message::decode(&re).expect("re-encode decodes"), decoded);
        }
    }

    /// Any single-byte flip in the frame *payload* (past the 5-byte
    /// version + CRC header) is caught by the checksum.
    #[test]
    fn payload_corruption_is_rejected(
        msg in arb_message(),
        pos in any::<proptest::sample::Index>(),
        flip in 1u8..255,
    ) {
        let mut frame = msg.encode().to_vec();
        let header = 5; // version byte + 4-byte CRC32
        let pos = header + pos.index(frame.len() - header);
        frame[pos] ^= flip;
        prop_assert!(Message::decode(&frame).is_err(), "flipped payload byte must fail the CRC");
    }

    /// Export-table counts are exact: after any interleaving of exports and
    /// releases, the pin state matches a reference-counting model.
    #[test]
    fn export_table_matches_refcount_model(
        ops in proptest::collection::vec((0u64..16, any::<bool>()), 1..200)
    ) {
        let table = ExportTable::new();
        let mut model: std::collections::HashMap<u64, u64> = Default::default();
        let mut pinned: std::collections::HashSet<u64> = Default::default();
        for (obj, is_export) in ops {
            let id = ObjectId::client(obj);
            if is_export {
                let newly = table.export(id);
                let count = model.entry(obj).or_insert(0);
                *count += 1;
                prop_assert_eq!(newly, *count == 1);
                if newly {
                    pinned.insert(obj);
                }
            } else {
                let released = table.release(id);
                let count = model.entry(obj).or_insert(0);
                if *count > 0 {
                    *count -= 1;
                    prop_assert_eq!(released, *count == 0);
                    if released {
                        pinned.remove(&obj);
                    }
                } else {
                    prop_assert!(!released, "release of unexported object is a no-op");
                }
            }
            prop_assert_eq!(table.contains(id), model.get(&obj).copied().unwrap_or(0) > 0);
        }
        let live = model.values().filter(|&&c| c > 0).count();
        prop_assert_eq!(table.len(), live);
    }

    /// Import-table sweeps drop exactly the unreferenced entries.
    #[test]
    fn import_sweep_is_exact(
        held in proptest::collection::hash_set(0u64..64, 0..32),
        still in proptest::collection::hash_set(0u64..64, 0..32),
    ) {
        let table = ImportTable::new();
        for &h in &held {
            table.import(ObjectId::surrogate(h));
        }
        let still_ids: std::collections::HashSet<ObjectId> =
            still.iter().map(|&s| ObjectId::surrogate(s)).collect();
        let dropped = table.sweep_dropped(&still_ids);
        let expected: std::collections::HashSet<u64> =
            held.difference(&still).copied().collect();
        prop_assert_eq!(dropped.len(), expected.len());
        for d in dropped {
            prop_assert!(!still_ids.contains(&d));
        }
        prop_assert_eq!(table.len(), held.intersection(&still).count());
    }
}
