//! The object heap.
//!
//! Each VM owns a bounded heap of objects. An object carries its class, a
//! scalar payload size (primitive fields and array data are modelled by
//! size, not content), and an array of object-reference slots that form the
//! object graph traced by the garbage collector.
//!
//! The heap also supports *removal* and *insertion* of whole objects, which
//! is how the offloading machinery migrates objects between the client and
//! surrogate VMs.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{VmError, VmResult};
use crate::ids::{ClassId, ObjectId};

/// A heap object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectRecord {
    /// The object's class.
    pub class: ClassId,
    /// Scalar payload size in bytes.
    pub scalar_bytes: u32,
    /// Object-reference slots (the traced part of the object).
    pub slots: Vec<Option<ObjectId>>,
}

impl ObjectRecord {
    /// Creates an object with empty slots.
    pub fn new(class: ClassId, scalar_bytes: u32, ref_slots: u16) -> Self {
        ObjectRecord {
            class,
            scalar_bytes,
            slots: vec![None; ref_slots as usize],
        }
    }

    /// Total heap footprint of the object in bytes: header, scalar payload,
    /// and one word per reference slot.
    pub fn footprint(&self) -> u64 {
        Self::footprint_of(self.scalar_bytes, self.slots.len() as u16)
    }

    /// Footprint of an object with the given shape, without building it.
    pub fn footprint_of(scalar_bytes: u32, ref_slots: u16) -> u64 {
        const HEADER_BYTES: u64 = 16;
        const SLOT_BYTES: u64 = 8;
        HEADER_BYTES + scalar_bytes as u64 + SLOT_BYTES * ref_slots as u64
    }
}

/// Running statistics maintained by a [`Heap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapStats {
    /// Bytes currently occupied by live objects.
    pub used_bytes: u64,
    /// Number of live objects.
    pub live_objects: u64,
    /// Total objects ever allocated (monotonic).
    pub total_allocated: u64,
    /// Total bytes ever allocated (monotonic).
    pub total_allocated_bytes: u64,
    /// Total objects freed by the collector (monotonic).
    pub total_freed: u64,
    /// Objects migrated out to a peer VM (monotonic).
    pub migrated_out: u64,
    /// Objects migrated in from a peer VM (monotonic).
    pub migrated_in: u64,
}

/// A bounded heap of traced objects.
///
/// # Examples
///
/// ```
/// use aide_vm::{Heap, ObjectRecord, ClassId, ObjectId};
///
/// let mut heap = Heap::new(1_000_000);
/// let id = ObjectId::client(0);
/// heap.insert(id, ObjectRecord::new(ClassId(0), 128, 2))?;
/// assert!(heap.contains(id));
/// assert_eq!(heap.stats().live_objects, 1);
/// # Ok::<(), aide_vm::VmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Heap {
    capacity: u64,
    objects: HashMap<ObjectId, ObjectRecord>,
    stats: HeapStats,
    /// Bumped on every migration in or out. The interpreter's inline
    /// caches stamp cached locality decisions with this epoch, so one bump
    /// invalidates every cached "this reference is local" answer at once —
    /// a migrated object must never be served from a stale cache entry.
    /// Allocation and GC do *not* bump it: fresh ids have never been
    /// cached, freed ids are unreachable, and ids are never reused.
    locality_epoch: u64,
    /// Objects in the heap per class, by class index: kept by every insert
    /// and removal (an object's class never changes).
    instances: Vec<u64>,
}

impl Heap {
    /// Creates a heap with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Heap {
            capacity,
            objects: HashMap::new(),
            stats: HeapStats::default(),
            locality_epoch: 0,
            instances: Vec::new(),
        }
    }

    /// How many objects of `class` the heap holds, live or not yet swept.
    #[inline]
    pub fn instances_of(&self, class: ClassId) -> u64 {
        self.instances.get(class.index()).copied().unwrap_or(0)
    }

    /// Notes that an object of `class` came (`true`) or went.
    fn count(&mut self, class: ClassId, came: bool) {
        let i = class.index();
        if came {
            if self.instances.len() <= i {
                self.instances.resize(i + 1, 0);
            }
            self.instances[i] += 1;
        } else {
            self.instances[i] -= 1;
        }
    }

    /// The current locality epoch (see the field docs: bumped only by
    /// migration, compared by inline-cache entries).
    #[inline]
    pub fn locality_epoch(&self) -> u64 {
        self.locality_epoch
    }

    /// The heap's capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently free.
    #[inline]
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.stats.used_bytes
    }

    /// Fraction of the heap currently free, in `[0, 1]`.
    pub fn free_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.free_bytes() as f64 / self.capacity as f64
        }
    }

    /// Running statistics.
    #[inline]
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Returns `true` if `id` is live in this heap.
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.objects.contains_key(&id)
    }

    /// Returns `true` if an object of the given shape would fit right now.
    pub fn fits(&self, scalar_bytes: u32, ref_slots: u16) -> bool {
        ObjectRecord::footprint_of(scalar_bytes, ref_slots) <= self.free_bytes()
    }

    /// Inserts a newly created (or migrated-in) object.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] if the object does not fit. The
    /// caller is expected to garbage-collect and retry before treating this
    /// as fatal.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live in this heap (ids are never reused).
    pub fn insert(&mut self, id: ObjectId, record: ObjectRecord) -> VmResult<()> {
        let footprint = record.footprint();
        if footprint > self.free_bytes() {
            return Err(VmError::OutOfMemory {
                class: record.class,
                requested: footprint,
                free: self.free_bytes(),
            });
        }
        self.stats.used_bytes += footprint;
        self.stats.live_objects += 1;
        self.stats.total_allocated += 1;
        self.stats.total_allocated_bytes += footprint;
        self.count(record.class, true);
        let prev = self.objects.insert(id, record);
        assert!(prev.is_none(), "object id {id} reused");
        Ok(())
    }

    /// Immutable access to an object.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `id` is not live here.
    pub fn get(&self, id: ObjectId) -> VmResult<&ObjectRecord> {
        self.objects.get(&id).ok_or(VmError::DanglingReference(id))
    }

    /// Mutable access to an object, whose class must stay what it is.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `id` is not live here.
    pub fn get_mut(&mut self, id: ObjectId) -> VmResult<&mut ObjectRecord> {
        self.objects
            .get_mut(&id)
            .ok_or(VmError::DanglingReference(id))
    }

    /// Removes an object as part of garbage collection, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `id` is not live here.
    pub fn sweep(&mut self, id: ObjectId) -> VmResult<ObjectRecord> {
        let record = self
            .objects
            .remove(&id)
            .ok_or(VmError::DanglingReference(id))?;
        self.stats.used_bytes -= record.footprint();
        self.stats.live_objects -= 1;
        self.stats.total_freed += 1;
        self.count(record.class, false);
        Ok(record)
    }

    /// Removes an object for migration to a peer VM, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `id` is not live here.
    pub fn migrate_out(&mut self, id: ObjectId) -> VmResult<ObjectRecord> {
        let record = self
            .objects
            .remove(&id)
            .ok_or(VmError::DanglingReference(id))?;
        self.stats.used_bytes -= record.footprint();
        self.stats.live_objects -= 1;
        self.stats.migrated_out += 1;
        self.locality_epoch += 1;
        self.count(record.class, false);
        Ok(record)
    }

    /// Inserts an object migrated in from a peer VM.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] if the object does not fit.
    pub fn migrate_in(&mut self, id: ObjectId, record: ObjectRecord) -> VmResult<()> {
        let footprint = record.footprint();
        if footprint > self.free_bytes() {
            return Err(VmError::OutOfMemory {
                class: record.class,
                requested: footprint,
                free: self.free_bytes(),
            });
        }
        self.stats.used_bytes += footprint;
        self.stats.live_objects += 1;
        self.stats.migrated_in += 1;
        self.locality_epoch += 1;
        self.count(record.class, true);
        let prev = self.objects.insert(id, record);
        assert!(prev.is_none(), "object id {id} reused");
        Ok(())
    }

    /// Iterates over `(ObjectId, &ObjectRecord)` for all live objects, in
    /// unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectRecord)> {
        self.objects.iter().map(|(&id, rec)| (id, rec))
    }

    /// All live object ids, in unspecified order.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.objects.keys().copied()
    }

    /// Bytes of live objects per class (used to annotate graph nodes and to
    /// pick offload victims).
    pub fn bytes_by_class(&self) -> HashMap<ClassId, u64> {
        let mut out: HashMap<ClassId, u64> = HashMap::new();
        for rec in self.objects.values() {
            *out.entry(rec.class).or_default() += rec.footprint();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(class: u32, bytes: u32, slots: u16) -> ObjectRecord {
        ObjectRecord::new(ClassId(class), bytes, slots)
    }

    #[test]
    fn footprint_includes_header_and_slots() {
        let r = obj(0, 100, 3);
        assert_eq!(r.footprint(), 16 + 100 + 24);
    }

    #[test]
    fn insert_tracks_usage() {
        let mut h = Heap::new(10_000);
        h.insert(ObjectId::client(0), obj(0, 84, 0)).unwrap();
        assert_eq!(h.stats().used_bytes, 100);
        assert_eq!(h.free_bytes(), 9_900);
        assert!((h.free_fraction() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn instances_are_counted_per_class_through_every_way_in_and_out() {
        let mut h = Heap::new(10_000);
        let (a, b, c) = (
            ObjectId::client(0),
            ObjectId::client(1),
            ObjectId::client(2),
        );
        h.insert(a, obj(2, 10, 0)).unwrap();
        h.insert(b, obj(2, 10, 0)).unwrap();
        h.insert(c, obj(0, 10, 0)).unwrap();
        assert_eq!(
            [0, 1, 2, 3].map(|class| h.instances_of(ClassId(class))),
            [1, 0, 2, 0]
        );
        let gone = h.migrate_out(a).unwrap();
        h.sweep(b).unwrap();
        assert_eq!(h.instances_of(ClassId(2)), 0);
        h.migrate_in(a, gone).unwrap();
        assert_eq!(h.instances_of(ClassId(2)), 1);
        // Refused for space, nothing is counted.
        assert!(h.insert(ObjectId::client(3), obj(2, 20_000, 0)).is_err());
        assert_eq!(h.instances_of(ClassId(2)), 1);
    }

    #[test]
    fn insert_rejects_overflow() {
        let mut h = Heap::new(100);
        let err = h.insert(ObjectId::client(0), obj(3, 200, 0)).unwrap_err();
        match err {
            VmError::OutOfMemory {
                class,
                requested,
                free,
            } => {
                assert_eq!(class, ClassId(3));
                assert_eq!(requested, 216);
                assert_eq!(free, 100);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(h.stats().live_objects, 0);
    }

    #[test]
    #[should_panic(expected = "reused")]
    fn insert_panics_on_id_reuse() {
        let mut h = Heap::new(10_000);
        h.insert(ObjectId::client(0), obj(0, 1, 0)).unwrap();
        let _ = h.insert(ObjectId::client(0), obj(0, 1, 0));
    }

    #[test]
    fn sweep_releases_memory() {
        let mut h = Heap::new(1_000);
        let id = ObjectId::client(1);
        h.insert(id, obj(0, 84, 0)).unwrap();
        let rec = h.sweep(id).unwrap();
        assert_eq!(rec.scalar_bytes, 84);
        assert_eq!(h.stats().used_bytes, 0);
        assert_eq!(h.stats().total_freed, 1);
        assert!(!h.contains(id));
        assert!(matches!(h.sweep(id), Err(VmError::DanglingReference(_))));
    }

    #[test]
    fn migration_round_trip_preserves_object() {
        let mut client = Heap::new(1_000);
        let mut surrogate = Heap::new(1_000);
        let id = ObjectId::client(7);
        let mut rec = obj(2, 50, 2);
        rec.slots[0] = Some(ObjectId::client(9));
        client.insert(id, rec.clone()).unwrap();

        let out = client.migrate_out(id).unwrap();
        assert_eq!(out, rec);
        assert_eq!(client.stats().migrated_out, 1);
        assert_eq!(client.stats().used_bytes, 0);

        surrogate.migrate_in(id, out).unwrap();
        assert_eq!(surrogate.stats().migrated_in, 1);
        assert_eq!(surrogate.get(id).unwrap(), &rec);
    }

    #[test]
    fn migrate_in_respects_capacity() {
        let mut h = Heap::new(10);
        let err = h.migrate_in(ObjectId::surrogate(0), obj(0, 100, 0));
        assert!(matches!(err, Err(VmError::OutOfMemory { .. })));
    }

    #[test]
    fn bytes_by_class_groups_footprints() {
        let mut h = Heap::new(10_000);
        h.insert(ObjectId::client(0), obj(1, 84, 0)).unwrap();
        h.insert(ObjectId::client(1), obj(1, 184, 0)).unwrap();
        h.insert(ObjectId::client(2), obj(2, 4, 1)).unwrap();
        let by_class = h.bytes_by_class();
        assert_eq!(by_class[&ClassId(1)], 100 + 200);
        assert_eq!(by_class[&ClassId(2)], 16 + 4 + 8);
    }

    #[test]
    fn fits_predicts_insertion() {
        let mut h = Heap::new(150);
        assert!(h.fits(100, 0)); // 116 <= 150
        h.insert(ObjectId::client(0), obj(0, 100, 0)).unwrap();
        assert!(!h.fits(100, 0));
        assert!(h.fits(10, 0)); // 26 <= 34
    }

    #[test]
    fn zero_capacity_heap_free_fraction_is_zero() {
        let h = Heap::new(0);
        assert_eq!(h.free_fraction(), 0.0);
    }

    #[test]
    fn get_mut_allows_slot_updates() {
        let mut h = Heap::new(1_000);
        let id = ObjectId::client(0);
        h.insert(id, obj(0, 0, 2)).unwrap();
        h.get_mut(id).unwrap().slots[1] = Some(ObjectId::client(5));
        assert_eq!(h.get(id).unwrap().slots[1], Some(ObjectId::client(5)));
    }
}
