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
//!
//! Records live in two dense tables, one per minting side
//! ([`ObjectId::minted_by_surrogate`]), each indexed by the id's counter:
//! ids are minted by a per-side counter and never reused, so a lookup is two
//! array indexings and nothing is hashed. A table is a directory of
//! [`CHUNK`]-record chunks. A chunk is allocated when its first record
//! arrives and freed when its last one leaves, so a long-lived heap's dead
//! prefix costs one empty directory entry per chunk; the directory itself
//! never shrinks. Each chunk carries the collector's mark bits for its
//! records.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{VmError, VmResult};
use crate::ids::{ClassId, ObjectId};

/// Records per chunk: one `u64` of live bits and one of mark bits cover it.
const CHUNK: usize = 64;

/// One side's directory may take at most `capacity / DIRECTORY_SHARE` bytes
/// to place an id a peer chose (see [`Heap::migrate_in`]).
const DIRECTORY_SHARE: u64 = 64;

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

/// [`CHUNK`] consecutive ids of one side.
#[derive(Debug, Clone)]
struct Chunk {
    /// Bit `i` is set iff `records[i]` holds a record.
    live: u64,
    /// Bit `i` is set once the collection under way reached `records[i]`;
    /// all clear between collections.
    marks: u64,
    records: [Option<ObjectRecord>; CHUNK],
}

/// One minting side's records: chunk `c` holds counters `c * CHUNK ..`.
#[derive(Debug, Clone, Default)]
struct Table {
    chunks: Vec<Option<Box<Chunk>>>,
}

/// Where `id` lives: its side's table, the chunk, the record within it.
/// `None` only for a counter no directory on this target could index.
#[inline]
fn locate(id: ObjectId) -> Option<(usize, usize, usize)> {
    let n = id.counter();
    let chunk = usize::try_from(n / CHUNK as u64).ok()?;
    Some((
        usize::from(id.minted_by_surrogate()),
        chunk,
        (n % CHUNK as u64) as usize,
    ))
}

impl Table {
    fn chunk(&self, c: usize) -> Option<&Chunk> {
        self.chunks.get(c)?.as_deref()
    }

    fn chunk_mut(&mut self, c: usize) -> Option<&mut Chunk> {
        self.chunks.get_mut(c)?.as_deref_mut()
    }

    /// Stores `record` at `(c, i)`, which must be empty, allocating the
    /// chunk (and growing the directory) as needed.
    fn put(&mut self, c: usize, i: usize, record: ObjectRecord) {
        if self.chunks.len() <= c {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| {
            Box::new(Chunk {
                live: 0,
                marks: 0,
                records: std::array::from_fn(|_| None),
            })
        });
        chunk.live |= 1 << i;
        chunk.records[i] = Some(record);
    }

    /// Removes the record at `(c, i)`, freeing its chunk if it was the last.
    fn take(&mut self, c: usize, i: usize) -> Option<ObjectRecord> {
        let entry = self.chunks.get_mut(c)?;
        let chunk = entry.as_deref_mut()?;
        let record = chunk.records[i].take()?;
        chunk.live &= !(1 << i);
        chunk.marks &= !(1 << i);
        if chunk.live == 0 {
            *entry = None;
        }
        Some(record)
    }

    /// Live records in id order, with their counters.
    fn iter(&self) -> impl Iterator<Item = (u64, &ObjectRecord)> {
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, chunk)| Some((c, chunk.as_deref()?)))
            .flat_map(|(c, chunk)| {
                chunk
                    .records
                    .iter()
                    .enumerate()
                    .filter_map(move |(i, r)| Some(((c * CHUNK + i) as u64, r.as_ref()?)))
            })
    }
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
    /// Live records by minting side, client-minted first, each table
    /// indexed by the id's counter (see the module docs).
    tables: [Table; 2],
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

/// Notes in `instances` that an object of `class` came (`true`) or went.
fn count(instances: &mut Vec<u64>, class: ClassId, came: bool) {
    let i = class.index();
    if came {
        if instances.len() <= i {
            instances.resize(i + 1, 0);
        }
        instances[i] += 1;
    } else {
        instances[i] -= 1;
    }
}

impl Heap {
    /// Creates a heap with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Heap {
            capacity,
            tables: Default::default(),
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

    #[inline]
    fn record(&self, id: ObjectId) -> Option<&ObjectRecord> {
        let (side, c, i) = locate(id)?;
        self.tables[side].chunk(c)?.records[i].as_ref()
    }

    /// Returns `true` if `id` is live in this heap.
    #[inline]
    pub fn contains(&self, id: ObjectId) -> bool {
        self.record(id).is_some()
    }

    /// Returns `true` if an object of the given shape would fit right now.
    pub fn fits(&self, scalar_bytes: u32, ref_slots: u16) -> bool {
        ObjectRecord::footprint_of(scalar_bytes, ref_slots) <= self.free_bytes()
    }

    /// Refuses a record that does not fit, before anything is counted.
    fn check_fits(&self, record: &ObjectRecord) -> VmResult<u64> {
        let footprint = record.footprint();
        if footprint > self.free_bytes() {
            return Err(VmError::OutOfMemory {
                class: record.class,
                requested: footprint,
                free: self.free_bytes(),
            });
        }
        Ok(footprint)
    }

    /// Stores a record whose id is known free, counting it as live.
    fn place(&mut self, id: ObjectId, record: ObjectRecord, footprint: u64) {
        let (side, c, i) = locate(id).expect("an id this heap can index");
        self.stats.used_bytes += footprint;
        self.stats.live_objects += 1;
        count(&mut self.instances, record.class, true);
        self.tables[side].put(c, i, record);
    }

    /// Removes a record, uncounting it as live.
    fn remove(&mut self, id: ObjectId) -> VmResult<ObjectRecord> {
        let record = locate(id)
            .and_then(|(side, c, i)| self.tables[side].take(c, i))
            .ok_or(VmError::DanglingReference(id))?;
        self.stats.used_bytes -= record.footprint();
        self.stats.live_objects -= 1;
        count(&mut self.instances, record.class, false);
        Ok(record)
    }

    /// Inserts a newly created (or migrated-in) object.
    ///
    /// Any id this VM minted is accepted, however far its counter has run:
    /// the directory grows to reach it.
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
        let footprint = self.check_fits(&record)?;
        assert!(!self.contains(id), "object id {id} reused");
        self.stats.total_allocated += 1;
        self.stats.total_allocated_bytes += footprint;
        self.place(id, record, footprint);
        Ok(())
    }

    /// Immutable access to an object.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `id` is not live here.
    #[inline]
    pub fn get(&self, id: ObjectId) -> VmResult<&ObjectRecord> {
        self.record(id).ok_or(VmError::DanglingReference(id))
    }

    /// Mutable access to an object, whose class must stay what it is.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `id` is not live here.
    #[inline]
    pub fn get_mut(&mut self, id: ObjectId) -> VmResult<&mut ObjectRecord> {
        locate(id)
            .and_then(|(side, c, i)| self.tables[side].chunk_mut(c)?.records[i].as_mut())
            .ok_or(VmError::DanglingReference(id))
    }

    /// Removes an object as part of garbage collection, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `id` is not live here.
    pub fn sweep(&mut self, id: ObjectId) -> VmResult<ObjectRecord> {
        let record = self.remove(id)?;
        self.stats.total_freed += 1;
        Ok(record)
    }

    /// Removes an object for migration to a peer VM, returning it.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::DanglingReference`] if `id` is not live here.
    pub fn migrate_out(&mut self, id: ObjectId) -> VmResult<ObjectRecord> {
        let record = self.remove(id)?;
        self.stats.migrated_out += 1;
        self.locality_epoch += 1;
        Ok(record)
    }

    /// Refuses an id `migrate_in` must not place: one already live, or one
    /// beyond its side's directory whose placement would grow the directory
    /// past `1 / DIRECTORY_SHARE` (1/64) of the heap's capacity in bytes. An
    /// id inside the directory — any id this heap ever held — always passes
    /// the second test.
    fn check_incoming(&self, id: ObjectId) -> VmResult<()> {
        if self.contains(id) {
            return Err(VmError::IdInUse(id));
        }
        let in_reach = locate(id).is_some_and(|(side, c, _)| {
            c < self.tables[side].chunks.len()
                || (c as u64 + 1).saturating_mul(std::mem::size_of::<Option<Box<Chunk>>>() as u64)
                    <= self.capacity / DIRECTORY_SHARE
        });
        if in_reach {
            Ok(())
        } else {
            Err(VmError::IdOutOfRange(id))
        }
    }

    /// Checks a whole batch of incoming objects before any of it is
    /// installed: every id passes [`Heap::migrate_in`]'s id checks, and no
    /// id appears twice. Capacity is the caller's to check.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::IdInUse`] for an id live here or repeated in the
    /// batch, and [`VmError::IdOutOfRange`] for an id beyond the bound.
    pub fn check_batch(&self, ids: impl IntoIterator<Item = ObjectId>) -> VmResult<()> {
        let mut ids: Vec<ObjectId> = ids.into_iter().collect();
        ids.sort_unstable();
        for (k, &id) in ids.iter().enumerate() {
            if k > 0 && ids[k - 1] == id {
                return Err(VmError::IdInUse(id));
            }
            self.check_incoming(id)?;
        }
        Ok(())
    }

    /// Inserts an object migrated in from a peer VM.
    ///
    /// A refused object leaves the heap, its statistics, its per-class
    /// counts and its locality epoch as they were.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] if the object does not fit,
    /// [`VmError::IdInUse`] if `id` is already live here, and
    /// [`VmError::IdOutOfRange`] if `id` lies beyond its side's directory
    /// and placing it would grow the directory past 1/64 of the heap's
    /// capacity in bytes (eight bytes an entry, one entry per 64 ids). Ids
    /// this heap has held are always inside the directory, so bringing an
    /// object home never meets the bound; a peer naming `client(1 << 62)`
    /// does.
    pub fn migrate_in(&mut self, id: ObjectId, record: ObjectRecord) -> VmResult<()> {
        let footprint = self.check_fits(&record)?;
        self.check_incoming(id)?;
        self.stats.migrated_in += 1;
        self.locality_epoch += 1;
        self.place(id, record, footprint);
        Ok(())
    }

    /// Marks `id` for the collection under way, returning its record if it
    /// is live here and was not marked yet.
    #[inline]
    pub(crate) fn mark(&mut self, id: ObjectId) -> Option<&ObjectRecord> {
        let (side, c, i) = locate(id)?;
        let chunk = self.tables[side].chunk_mut(c)?;
        let bit = 1u64 << i;
        if chunk.live & !chunk.marks & bit == 0 {
            return None;
        }
        chunk.marks |= bit;
        chunk.records[i].as_ref()
    }

    /// Ends a collection: removes every live record it did not mark, in id
    /// order, handing each to `freed`, and clears every mark.
    pub(crate) fn sweep_unmarked(&mut self, mut freed: impl FnMut(&ObjectRecord)) {
        let Heap {
            tables,
            stats,
            instances,
            ..
        } = self;
        for table in tables {
            for entry in &mut table.chunks {
                let Some(chunk) = entry.as_deref_mut() else {
                    continue;
                };
                let mut dead = chunk.live & !chunk.marks;
                while dead != 0 {
                    let i = dead.trailing_zeros() as usize;
                    dead &= dead - 1;
                    let record = chunk.records[i].take().expect("live bit set");
                    let footprint = record.footprint();
                    stats.used_bytes -= footprint;
                    stats.live_objects -= 1;
                    stats.total_freed += 1;
                    count(instances, record.class, false);
                    freed(&record);
                }
                chunk.live &= chunk.marks;
                chunk.marks = 0;
                if chunk.live == 0 {
                    *entry = None;
                }
            }
        }
    }

    /// Iterates over `(ObjectId, &ObjectRecord)` for all live objects in id
    /// order: client-minted ids ascending, then surrogate-minted ids
    /// ascending.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &ObjectRecord)> {
        let [client, surrogate] = &self.tables;
        client
            .iter()
            .map(|(n, r)| (ObjectId::client(n), r))
            .chain(surrogate.iter().map(|(n, r)| (ObjectId::surrogate(n), r)))
    }

    /// All live object ids in id order: client-minted ids ascending, then
    /// surrogate-minted ids ascending.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Bytes of live objects per class (used to annotate graph nodes and to
    /// pick offload victims).
    pub fn bytes_by_class(&self) -> HashMap<ClassId, u64> {
        let mut out: HashMap<ClassId, u64> = HashMap::new();
        for (_, rec) in self.iter() {
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
    fn migrate_in_refuses_a_live_id_and_counts_nothing() {
        let mut h = Heap::new(10_000);
        let id = ObjectId::client(3);
        h.insert(id, obj(1, 10, 0)).unwrap();
        let (stats, epoch) = (h.stats(), h.locality_epoch());
        let err = h.migrate_in(id, obj(2, 50, 1)).unwrap_err();
        assert_eq!(err, VmError::IdInUse(id));
        assert_eq!((h.stats(), h.locality_epoch()), (stats, epoch));
        assert_eq!(h.get(id).unwrap(), &obj(1, 10, 0));
        assert_eq!(h.instances_of(ClassId(2)), 0);
    }

    #[test]
    fn a_peer_id_far_beyond_the_directory_is_refused_but_a_known_one_is_not() {
        // 64 KiB of capacity: a directory of up to 1 KiB, 128 chunks.
        let mut h = Heap::new(64 * 1024);
        let far = ObjectId::client(1 << 62);
        assert_eq!(
            h.migrate_in(far, obj(0, 0, 0)),
            Err(VmError::IdOutOfRange(far))
        );
        assert_eq!(h.stats(), HeapStats::default());
        assert_eq!(h.locality_epoch(), 0);
        assert!(h.tables[0].chunks.is_empty());
        let last = ObjectId::surrogate(128 * 64 - 1);
        h.migrate_in(last, obj(0, 0, 0)).unwrap();
        let next = ObjectId::surrogate(128 * 64);
        assert_eq!(
            h.migrate_in(next, obj(0, 0, 0)),
            Err(VmError::IdOutOfRange(next))
        );
        // Ids this heap minted are never refused, and once held, an id
        // comes back whatever the bound says.
        let minted = ObjectId::client(999_999);
        h.insert(minted, obj(0, 0, 0)).unwrap();
        let rec = h.migrate_out(minted).unwrap();
        h.migrate_in(minted, rec).unwrap();
    }

    #[test]
    fn check_batch_refuses_repeats_live_ids_and_far_ids() {
        let mut h = Heap::new(64 * 1024);
        h.insert(ObjectId::client(1), obj(0, 0, 0)).unwrap();
        let (a, b) = (ObjectId::client(2), ObjectId::surrogate(2));
        assert_eq!(h.check_batch([a, b]), Ok(()));
        assert_eq!(h.check_batch([a, b, a]), Err(VmError::IdInUse(a)));
        let live = ObjectId::client(1);
        assert_eq!(h.check_batch([b, live]), Err(VmError::IdInUse(live)));
        let far = ObjectId::surrogate(1 << 40);
        assert_eq!(h.check_batch([a, far]), Err(VmError::IdOutOfRange(far)));
    }

    #[test]
    fn a_chunk_is_freed_by_its_last_record_and_the_directory_stays() {
        let mut h = Heap::new(1 << 20);
        for n in 0..130 {
            h.insert(ObjectId::client(n), obj(0, 0, 0)).unwrap();
        }
        assert_eq!(h.tables[0].chunks.len(), 3);
        for n in 0..63 {
            h.sweep(ObjectId::client(n)).unwrap();
        }
        assert!(h.tables[0].chunks[0].is_some());
        h.migrate_out(ObjectId::client(63)).unwrap();
        assert!(h.tables[0].chunks[0].is_none());
        assert_eq!(h.tables[0].chunks.len(), 3);
        assert_eq!(h.ids().next(), Some(ObjectId::client(64)));
    }

    #[test]
    fn iteration_is_in_id_order_client_side_first() {
        let mut h = Heap::new(1 << 20);
        for id in [
            ObjectId::surrogate(70),
            ObjectId::client(200),
            ObjectId::surrogate(1),
            ObjectId::client(5),
        ] {
            h.insert(id, obj(0, 0, 0)).unwrap();
        }
        let ids: Vec<ObjectId> = h.ids().collect();
        assert_eq!(
            ids,
            [
                ObjectId::client(5),
                ObjectId::client(200),
                ObjectId::surrogate(1),
                ObjectId::surrogate(70),
            ]
        );
        assert!(h.iter().map(|(id, _)| id).eq(ids));
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
