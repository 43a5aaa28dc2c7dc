//! Error types for the virtual machine.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{ClassId, MethodId, ObjectId, Reg};

/// Errors raised while loading or executing a program.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum VmError {
    /// The heap could not satisfy an allocation even after garbage
    /// collection — the condition the paper's JavaNote experiment provokes
    /// with a 6 MB heap and a 600 KB document.
    OutOfMemory {
        /// The class being instantiated.
        class: ClassId,
        /// Bytes the allocation required.
        requested: u64,
        /// Bytes free after the final collection attempt.
        free: u64,
    },
    /// A class id referenced a class that does not exist in the program.
    UnknownClass(ClassId),
    /// A method id referenced a method absent from its class.
    UnknownMethod(ClassId, MethodId),
    /// An object id did not resolve to a live object on either VM.
    DanglingReference(ObjectId),
    /// An object arriving from a peer named an id already live here, or
    /// one its batch named twice.
    IdInUse(ObjectId),
    /// An object arriving from a peer named an id too far beyond every id
    /// the heap has held (see [`crate::Heap::migrate_in`]).
    IdOutOfRange(ObjectId),
    /// An instruction read a register that holds no reference.
    NullRegister(Reg),
    /// A register index was outside the frame's register file.
    InvalidRegister(Reg),
    /// A reference-slot index was outside the target object's slot array.
    SlotOutOfRange {
        /// The object whose slots were indexed.
        object: ObjectId,
        /// The out-of-range slot index.
        slot: u16,
        /// The object's slot count.
        slots: u16,
    },
    /// A method was invoked on an object of a different class.
    ClassMismatch {
        /// Class the call site named.
        expected: ClassId,
        /// Class of the receiver object.
        found: ClassId,
    },
    /// Call recursion exceeded the interpreter's frame limit.
    CallDepthExceeded(usize),
    /// A remote operation failed (link closed, peer panicked, ...).
    RemoteFailure(String),
    /// The program failed validation before execution.
    InvalidProgram(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfMemory {
                class,
                requested,
                free,
            } => write!(
                f,
                "out of memory allocating {requested} bytes for {class} ({free} bytes free after GC)"
            ),
            VmError::UnknownClass(c) => write!(f, "unknown class {c}"),
            VmError::UnknownMethod(c, m) => write!(f, "unknown method {m} on {c}"),
            VmError::DanglingReference(o) => write!(f, "dangling object reference {o}"),
            VmError::IdInUse(o) => write!(f, "object id {o} is already in use"),
            VmError::IdOutOfRange(o) => write!(f, "object id {o} is beyond this heap's reach"),
            VmError::NullRegister(r) => write!(f, "register {r} holds no reference"),
            VmError::InvalidRegister(r) => write!(f, "register {r} is out of range"),
            VmError::SlotOutOfRange {
                object,
                slot,
                slots,
            } => write!(f, "slot {slot} out of range for {object} ({slots} slots)"),
            VmError::ClassMismatch { expected, found } => {
                write!(f, "receiver class mismatch: expected {expected}, found {found}")
            }
            VmError::CallDepthExceeded(d) => write!(f, "call depth exceeded {d} frames"),
            VmError::RemoteFailure(msg) => write!(f, "remote operation failed: {msg}"),
            VmError::InvalidProgram(msg) => write!(f, "invalid program: {msg}"),
        }
    }
}

impl Error for VmError {}

/// Convenience alias for VM results.
pub type VmResult<T> = Result<T, VmError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_without_trailing_punctuation() {
        let cases: Vec<VmError> = vec![
            VmError::OutOfMemory {
                class: ClassId(1),
                requested: 600_000,
                free: 12,
            },
            VmError::UnknownClass(ClassId(9)),
            VmError::UnknownMethod(ClassId(1), MethodId(2)),
            VmError::DanglingReference(ObjectId::client(4)),
            VmError::IdInUse(ObjectId::client(5)),
            VmError::IdOutOfRange(ObjectId::client(1 << 62)),
            VmError::NullRegister(Reg(3)),
            VmError::InvalidRegister(Reg(200)),
            VmError::SlotOutOfRange {
                object: ObjectId::client(1),
                slot: 5,
                slots: 2,
            },
            VmError::ClassMismatch {
                expected: ClassId(0),
                found: ClassId(1),
            },
            VmError::CallDepthExceeded(512),
            VmError::RemoteFailure("link closed".into()),
            VmError::InvalidProgram("no classes".into()),
        ];
        for e in cases {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(!s.ends_with('.'), "{s:?} ends with a period");
            assert!(s.chars().next().unwrap().is_lowercase(), "{s:?}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VmError>();
    }
}
