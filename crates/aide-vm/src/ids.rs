//! Identifier newtypes used throughout the virtual machine.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifies a class within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Returns the class id as a dense index into the program's class table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class#{}", self.0)
    }
}

/// Identifies a method within its class's method table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MethodId(pub u16);

impl MethodId {
    /// Returns the method id as a dense index into the class's method table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "method#{}", self.0)
    }
}

/// Hashes a map key that is one `u64` — an [`ObjectId`], or an index the
/// map's owner mints itself — with one multiply and a fold. Such keys are
/// minted by the two VMs of a run, densely (a heap refuses a peer's id far
/// beyond the ids it has held), so SipHash's resistance to crafted keys
/// buys nothing on them. Maps take it as [`BuildIdHasher`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("id keys hash through write_u64")
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        // The map takes its bucket from the low bits and its tag from the
        // high ones; the product's high half is the well-mixed one, so fold
        // it down.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// The [`std::hash::BuildHasher`] of maps keyed by ids: [`IdHasher`].
pub type BuildIdHasher = std::hash::BuildHasherDefault<IdHasher>;

/// A heap object identity, unique for the lifetime of a machine.
///
/// Object ids are never reused, so a dangling id can be detected rather than
/// silently aliased. The high bit records which VM created the object (the
/// paper: "new objects are always created on the VM that performs the
/// creation operation"), giving the two VMs of a distributed platform
/// disjoint id spaces.
///
/// A heap indexes its records by the id's counter, so an id a peer chose
/// is refused by [`crate::Heap::migrate_in`] when it lies so far beyond
/// every id the heap has held that placing it would grow the heap's index
/// past 1/64 of its capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

impl ObjectId {
    const SURROGATE_BIT: u64 = 1 << 63;

    /// Builds the `n`-th object id minted by the client VM.
    #[inline]
    pub fn client(n: u64) -> Self {
        debug_assert_eq!(n & Self::SURROGATE_BIT, 0);
        ObjectId(n)
    }

    /// Builds the `n`-th object id minted by the surrogate VM.
    #[inline]
    pub fn surrogate(n: u64) -> Self {
        ObjectId(n | Self::SURROGATE_BIT)
    }

    /// Returns `true` if this id was minted by a surrogate VM.
    #[inline]
    pub fn minted_by_surrogate(self) -> bool {
        self.0 & Self::SURROGATE_BIT != 0
    }

    /// The `n` this id was built from, whichever side minted it.
    #[inline]
    pub(crate) fn counter(self) -> u64 {
        self.0 & !Self::SURROGATE_BIT
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.minted_by_surrogate() {
            write!(f, "obj@s{}", self.0 & !Self::SURROGATE_BIT)
        } else {
            write!(f, "obj@c{}", self.0)
        }
    }
}

/// A register index within an interpreter frame.
///
/// Frames have [`Reg::COUNT`] object-reference registers; method arguments
/// are copied into the lowest registers on entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(pub u8);

impl Reg {
    /// Number of registers in a frame.
    pub const COUNT: usize = 8;

    /// Returns the register as a frame-local index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` if the register index is within [`Reg::COUNT`].
    #[inline]
    pub fn is_valid(self) -> bool {
        (self.0 as usize) < Reg::COUNT
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_sides_are_disjoint() {
        let c = ObjectId::client(7);
        let s = ObjectId::surrogate(7);
        assert_ne!(c, s);
        assert!(!c.minted_by_surrogate());
        assert!(s.minted_by_surrogate());
    }

    #[test]
    fn object_id_display_distinguishes_minting_side() {
        assert_eq!(ObjectId::client(3).to_string(), "obj@c3");
        assert_eq!(ObjectId::surrogate(3).to_string(), "obj@s3");
    }

    #[test]
    fn reg_validity() {
        assert!(Reg(0).is_valid());
        assert!(Reg(7).is_valid());
        assert!(!Reg(8).is_valid());
    }

    #[test]
    fn display_formats() {
        assert_eq!(ClassId(4).to_string(), "class#4");
        assert_eq!(MethodId(2).to_string(), "method#2");
        assert_eq!(Reg(5).to_string(), "r5");
    }
}
