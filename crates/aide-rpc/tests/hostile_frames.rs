//! A frame that announces more elements than it carries is refused
//! without allocating for the ones it announced.
//!
//! Each frame below is short, checksummed and well-formed up to a count
//! — of object records' slots, of `Invoke` arguments, of released ids, of
//! deferred touches — that its remaining bytes cannot back. The decoder
//! must refuse it, and the largest single allocation it makes while doing
//! so must stay within 16 × the frame's length.
//!
//! The allocator below records the largest request per thread, so the
//! cases do not see each other or the harness's threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aide_rpc::{crc32, Message, WireError, PROTOCOL_VERSION};

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestRequest;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every request goes unchanged to `System`, which upholds the
// `GlobalAlloc` contract. Recording touches only a const-initialised
// thread-local `Cell` that has no destructor: it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// `payload` under the current version with a valid CRC.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![PROTOCOL_VERSION];
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A request frame with no trace context, no stamp and no touches, whose
/// body starts with `request`.
fn request(request: &[u8]) -> Vec<u8> {
    // [ctx flag][stamp/touch flags][request tag][seq][client]
    let mut payload = vec![0u8, 0, 0];
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&2u64.to_le_bytes());
    payload.extend_from_slice(request);
    seal(&payload)
}

/// A `MigratePrepare` of one record announcing `u16::MAX` slots and
/// carrying none.
fn prepare_without_its_slots() -> Vec<u8> {
    let mut body = vec![12u8];
    body.extend_from_slice(&7u64.to_le_bytes()); // txn
    body.extend_from_slice(&1u32.to_le_bytes()); // one record
    body.extend_from_slice(&3u64.to_le_bytes()); // its id
    body.extend_from_slice(&4u32.to_le_bytes()); // class
    body.extend_from_slice(&16u32.to_le_bytes()); // scalar bytes
    body.extend_from_slice(&u16::MAX.to_le_bytes()); // slots announced
    request(&body)
}

/// An `Invoke` announcing `u16::MAX` arguments and carrying none.
fn invoke_without_its_args() -> Vec<u8> {
    let mut body = vec![0u8];
    body.extend_from_slice(&3u64.to_le_bytes()); // target
    body.extend_from_slice(&4u32.to_le_bytes()); // class
    body.extend_from_slice(&5u16.to_le_bytes()); // method
    body.extend_from_slice(&8u32.to_le_bytes()); // arg bytes
    body.extend_from_slice(&8u32.to_le_bytes()); // ret bytes
    body.extend_from_slice(&u16::MAX.to_le_bytes()); // args announced
    request(&body)
}

/// A `GcReleaseSeq` announcing `u32::MAX` ids and carrying none.
fn release_without_its_ids() -> Vec<u8> {
    let mut body = vec![16u8];
    body.extend_from_slice(&1u64.to_le_bytes()); // epoch
    body.extend_from_slice(&1u64.to_le_bytes()); // release seq
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // ids announced
    request(&body)
}

/// A header announcing `u16::MAX` deferred touches and followed by 64
/// zero bytes: two argument-less `Invoke`s and the start of a third.
fn header_without_its_touches() -> Vec<u8> {
    // [ctx flag][flags: touches ride][count]
    let mut payload = vec![0u8, 2];
    payload.extend_from_slice(&u16::MAX.to_le_bytes());
    payload.extend_from_slice(&[0; 64]);
    seal(&payload)
}

/// Decodes `frame` on this thread, expecting it to be `len` bytes long and
/// refused as truncated with no single allocation over 16 × `len`.
fn assert_refused_within_bound(frame: &[u8], len: usize) {
    assert_eq!(frame.len(), len, "frame length");
    LARGEST.with(|largest| largest.set(0));
    let decoded = Message::decode_framed(frame).map(|(_, message)| message);
    let largest = LARGEST.with(Cell::get);
    assert_eq!(decoded, Err(WireError::Truncated), "refused");
    assert!(
        largest <= 16 * len,
        "a {len}-byte frame made a {largest}-byte allocation"
    );
}

#[test]
fn object_slots_a_frame_cannot_hold_are_not_allocated() {
    assert_refused_within_bound(&prepare_without_its_slots(), 55);
}

#[test]
fn invoke_arguments_a_frame_cannot_hold_are_not_reserved() {
    assert_refused_within_bound(&invoke_without_its_args(), 49);
}

#[test]
fn released_ids_a_frame_cannot_hold_are_not_reserved() {
    assert_refused_within_bound(&release_without_its_ids(), 45);
}

#[test]
fn deferred_touches_a_frame_cannot_hold_are_not_reserved() {
    assert_refused_within_bound(&header_without_its_touches(), 73);
}
