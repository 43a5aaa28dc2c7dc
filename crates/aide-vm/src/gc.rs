//! Mark-and-sweep garbage collection.
//!
//! Chai (and hence the paper's prototype) uses an incremental mark-and-sweep
//! collector triggered by space limitations, the number of objects created
//! since the last collection, and the amount of memory occupied by objects
//! created since the last collection — causing "at least a partial sweep
//! often, which produces frequent memory usage updates" (§5.1). Those
//! frequent [`GcReport`]s are exactly what AIDE's trigger policy consumes.
//!
//! References into the *other* VM's heap (cross-VM references created by
//! offloading) are not traced here; they are handled by the distributed
//! garbage collection scheme: exported objects are pinned via an external
//! root table until the peer releases them.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::heap::Heap;
use crate::ids::{ClassId, ObjectId};

/// Collector trigger configuration (the paper's three triggers).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcConfig {
    /// Collect after this many allocations since the last cycle.
    pub trigger_alloc_count: u64,
    /// Collect after this many bytes allocated since the last cycle.
    pub trigger_alloc_bytes: u64,
    /// Virtual microseconds of client CPU charged per object examined.
    pub cost_micros_per_object: f64,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            trigger_alloc_count: 500,
            trigger_alloc_bytes: 256 * 1024,
            cost_micros_per_object: 0.05,
        }
    }
}

/// The result of one collection cycle — the "memory usage update" consumed
/// by AIDE's resource monitor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GcReport {
    /// Monotonic cycle number (per collector).
    pub cycle: u64,
    /// Heap capacity in bytes.
    pub capacity: u64,
    /// Bytes in use after the cycle.
    pub used_after: u64,
    /// Bytes free after the cycle.
    pub free_after: u64,
    /// Objects reclaimed by this cycle.
    pub freed_objects: u64,
    /// Bytes reclaimed by this cycle.
    pub freed_bytes: u64,
    /// Virtual microseconds the cycle cost.
    pub duration_micros: f64,
}

impl GcReport {
    /// Fraction of the heap free after this cycle, in `[0, 1]`.
    pub fn free_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.free_after as f64 / self.capacity as f64
        }
    }

    /// Returns `true` if the cycle failed to reclaim anything.
    pub fn reclaimed_nothing(&self) -> bool {
        self.freed_objects == 0
    }
}

/// A per-VM mark-and-sweep collector with allocation-triggered cycles.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Collector {
    config: GcConfig,
    cycle: u64,
    allocs_since: u64,
    bytes_since: u64,
    /// Objects freed per class over the collector's lifetime, for monitor
    /// bookkeeping (the monitor subtracts freed bytes from node weights).
    /// Ordered so per-class free events are emitted deterministically
    /// (class-id order), which golden event-stream fixtures rely on.
    #[serde(skip)]
    last_freed_by_class: BTreeMap<ClassId, (u64, u64)>,
}

impl Collector {
    /// Creates a collector with the given configuration.
    pub fn new(config: GcConfig) -> Self {
        Collector {
            config,
            cycle: 0,
            allocs_since: 0,
            bytes_since: 0,
            last_freed_by_class: BTreeMap::new(),
        }
    }

    /// The collector's configuration.
    pub fn config(&self) -> GcConfig {
        self.config
    }

    /// Number of completed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycle
    }

    /// Notes an allocation so trigger thresholds can fire.
    pub fn note_alloc(&mut self, bytes: u64) {
        self.allocs_since += 1;
        self.bytes_since += bytes;
    }

    /// Returns `true` if a trigger threshold has been crossed and a cycle
    /// should run at the next safe point.
    pub fn should_collect(&self) -> bool {
        self.allocs_since >= self.config.trigger_alloc_count
            || self.bytes_since >= self.config.trigger_alloc_bytes
    }

    /// `(objects, bytes)` freed per class by the most recent cycle, in
    /// class-id order.
    pub fn last_freed_by_class(&self) -> &BTreeMap<ClassId, (u64, u64)> {
        &self.last_freed_by_class
    }

    /// Runs a full mark-and-sweep cycle.
    ///
    /// `roots` are the mutator's live references (frame registers, the entry
    /// object); `external_roots` are objects exported to the peer VM, which
    /// must survive even if locally unreachable. References to objects that
    /// are not in this heap (i.e. living on the peer) are ignored by the
    /// marker.
    pub fn collect<R, E>(&mut self, heap: &mut Heap, roots: R, external_roots: E) -> GcReport
    where
        R: IntoIterator<Item = ObjectId>,
        E: IntoIterator<Item = ObjectId>,
    {
        self.cycle += 1;
        self.allocs_since = 0;
        self.bytes_since = 0;
        let mut gc_span = aide_telemetry::span(aide_telemetry::span_names::VM_GC, "vm");
        gc_span.arg("cycle", self.cycle);

        // Mark: the heap keeps the mark bits, one word per chunk of ids.
        let mut worklist: Vec<ObjectId> = roots.into_iter().chain(external_roots).collect();
        let mut examined: u64 = 0;
        while let Some(id) = worklist.pop() {
            if let Some(record) = heap.mark(id) {
                examined += 1;
                worklist.extend(record.slots.iter().flatten());
            }
        }

        // Sweep: every unmarked live record, in id order.
        let mut freed_objects = 0u64;
        let mut freed_bytes = 0u64;
        self.last_freed_by_class.clear();
        let freed_by_class = &mut self.last_freed_by_class;
        heap.sweep_unmarked(|record| {
            let footprint = record.footprint();
            freed_objects += 1;
            freed_bytes += footprint;
            let entry = freed_by_class.entry(record.class).or_default();
            entry.0 += 1;
            entry.1 += footprint;
        });
        examined += freed_objects;

        let report = GcReport {
            cycle: self.cycle,
            capacity: heap.capacity(),
            used_after: heap.stats().used_bytes,
            free_after: heap.free_bytes(),
            freed_objects,
            freed_bytes,
            duration_micros: examined as f64 * self.config.cost_micros_per_object,
        };

        gc_span.arg("freed_bytes", report.freed_bytes);
        gc_span.arg("freed_objects", report.freed_objects);

        report
    }
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new(GcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::ObjectRecord;

    fn obj(class: u32, bytes: u32, slots: u16) -> ObjectRecord {
        ObjectRecord::new(ClassId(class), bytes, slots)
    }

    #[test]
    fn unreachable_objects_are_reclaimed() {
        let mut heap = Heap::new(10_000);
        let root = ObjectId::client(0);
        let garbage = ObjectId::client(1);
        heap.insert(root, obj(0, 10, 0)).unwrap();
        heap.insert(garbage, obj(1, 500, 0)).unwrap();

        let mut gc = Collector::default();
        let report = gc.collect(&mut heap, [root], []);
        assert_eq!(report.freed_objects, 1);
        assert_eq!(report.freed_bytes, 516);
        assert!(heap.contains(root));
        assert!(!heap.contains(garbage));
        assert_eq!(gc.last_freed_by_class()[&ClassId(1)], (1, 516));
    }

    #[test]
    fn reachable_chain_survives() {
        let mut heap = Heap::new(10_000);
        let a = ObjectId::client(0);
        let b = ObjectId::client(1);
        let c = ObjectId::client(2);
        let mut ra = obj(0, 0, 1);
        ra.slots[0] = Some(b);
        let mut rb = obj(0, 0, 1);
        rb.slots[0] = Some(c);
        heap.insert(a, ra).unwrap();
        heap.insert(b, rb).unwrap();
        heap.insert(c, obj(0, 0, 0)).unwrap();

        let mut gc = Collector::default();
        let report = gc.collect(&mut heap, [a], []);
        assert_eq!(report.freed_objects, 0);
        assert!(report.reclaimed_nothing());
        assert!(heap.contains(a) && heap.contains(b) && heap.contains(c));
    }

    #[test]
    fn cycles_are_collected() {
        let mut heap = Heap::new(10_000);
        let a = ObjectId::client(0);
        let b = ObjectId::client(1);
        let mut ra = obj(0, 0, 1);
        ra.slots[0] = Some(b);
        let mut rb = obj(0, 0, 1);
        rb.slots[0] = Some(a);
        heap.insert(a, ra).unwrap();
        heap.insert(b, rb).unwrap();

        let mut gc = Collector::default();
        // No roots: the cycle a <-> b must die despite mutual references.
        let report = gc.collect(&mut heap, [], []);
        assert_eq!(report.freed_objects, 2);
        assert_eq!(heap.stats().live_objects, 0);
    }

    #[test]
    fn external_roots_pin_exported_objects() {
        let mut heap = Heap::new(10_000);
        let exported = ObjectId::client(0);
        heap.insert(exported, obj(0, 100, 0)).unwrap();

        let mut gc = Collector::default();
        let report = gc.collect(&mut heap, [], [exported]);
        assert_eq!(report.freed_objects, 0);
        assert!(heap.contains(exported));

        // Once the peer releases it, the object dies.
        let report = gc.collect(&mut heap, [], []);
        assert_eq!(report.freed_objects, 1);
    }

    #[test]
    fn cross_vm_references_are_ignored_by_marking() {
        let mut heap = Heap::new(10_000);
        let local = ObjectId::client(0);
        let mut rec = obj(0, 0, 1);
        // Points at a surrogate-side object this heap has never seen.
        rec.slots[0] = Some(ObjectId::surrogate(99));
        heap.insert(local, rec).unwrap();

        let mut gc = Collector::default();
        let report = gc.collect(&mut heap, [local], []);
        assert_eq!(report.freed_objects, 0);
        assert!(heap.contains(local));
    }

    #[test]
    fn triggers_fire_on_count_and_bytes() {
        let mut gc = Collector::new(GcConfig {
            trigger_alloc_count: 3,
            trigger_alloc_bytes: 1_000,
            cost_micros_per_object: 0.1,
        });
        assert!(!gc.should_collect());
        gc.note_alloc(10);
        gc.note_alloc(10);
        assert!(!gc.should_collect());
        gc.note_alloc(10);
        assert!(gc.should_collect(), "count trigger");

        let mut heap = Heap::new(10_000);
        gc.collect(&mut heap, [], []);
        assert!(!gc.should_collect(), "collection resets counters");

        gc.note_alloc(2_000);
        assert!(gc.should_collect(), "bytes trigger");
    }

    #[test]
    fn report_free_fraction() {
        let mut heap = Heap::new(1_000);
        heap.insert(ObjectId::client(0), obj(0, 234, 0)).unwrap();
        let mut gc = Collector::default();
        let report = gc.collect(&mut heap, [ObjectId::client(0)], []);
        assert_eq!(report.used_after, 250);
        assert_eq!(report.free_after, 750);
        assert!((report.free_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(report.cycle, 1);
    }

    #[test]
    fn duration_scales_with_examined_objects() {
        let mut heap = Heap::new(100_000);
        for i in 0..50 {
            heap.insert(ObjectId::client(i), obj(0, 8, 0)).unwrap();
        }
        let mut gc = Collector::default();
        let roots: Vec<ObjectId> = (0..10).map(ObjectId::client).collect();
        let report = gc.collect(&mut heap, roots, []);
        // 10 marked + 40 swept = 50 examined.
        assert!((report.duration_micros - 50.0 * 0.05).abs() < 1e-9);
        assert_eq!(report.freed_objects, 40);
    }
}
