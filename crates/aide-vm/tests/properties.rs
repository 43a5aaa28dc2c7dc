//! Properties of the VM's heap, collector, and program builder, each on
//! [`support::CASES`] seeded random cases.

#[path = "../../aide-graph/tests/support/mod.rs"]
mod support;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use aide_vm::{
    ClassId, Collector, GcConfig, Heap, HeapStats, Machine, MethodDef, MethodId, ObjectId,
    ObjectRecord, Op, ProgramBuilder, Reg, VmConfig, VmError,
};
use support::{for_each_case, Rng};

/// An abstract heap operation for model-based testing.
#[derive(Debug, Clone)]
enum HeapOp {
    /// Allocates the next id of one side, after skipping `skip` of them,
    /// so a case's ids spread over several chunks of 64.
    Insert {
        surrogate: bool,
        skip: u64,
        class: u32,
        bytes: u32,
        slots: u16,
    },
    Sweep(usize),
    Link {
        from: usize,
        slot: usize,
        to: usize,
    },
    MigrateOut(usize),
    /// Brings back an object that migrated out — or, when `n` lands on a
    /// live one, tries to bring in a copy of it, which must be refused.
    MigrateIn(usize),
    /// Collects with the live objects whose index bit is set as roots.
    Collect(u64),
}

fn heap_op(rng: &mut Rng) -> HeapOp {
    match rng.below(10) {
        0..=3 => HeapOp::Insert {
            surrogate: rng.below(3) == 0,
            skip: if rng.below(6) == 0 { rng.below(150) } else { 0 },
            class: rng.below(8) as u32,
            bytes: rng.below(10_000) as u32,
            slots: rng.below(4) as u16,
        },
        4 => HeapOp::Sweep(rng.index(64)),
        5 | 6 => HeapOp::Link {
            from: rng.index(64),
            slot: rng.index(4),
            to: rng.index(64),
        },
        7 => HeapOp::MigrateOut(rng.index(64)),
        8 => HeapOp::MigrateIn(rng.index(64)),
        _ => HeapOp::Collect(rng.word()),
    }
}

/// The heap against a `BTreeMap` model under inserts, sweeps, links,
/// migrations out and in, and collections: after every operation it holds
/// exactly the model's records, yields them in the model's (id) order,
/// and its statistics, per-class counts and locality epoch are the
/// model's. The used-byte ledger never exceeds capacity.
#[test]
fn heap_ledger_is_exact() {
    for_each_case(|rng| {
        let mut heap = Heap::new(512 * 1024);
        let mut gc = Collector::new(GcConfig::default());
        let mut model: BTreeMap<ObjectId, ObjectRecord> = BTreeMap::new();
        let mut away: Vec<(ObjectId, ObjectRecord)> = Vec::new();
        let mut stats = HeapStats::default();
        let mut epoch = 0u64;
        let mut next = [0u64; 2];
        let mut seen: Vec<ObjectId> = Vec::new();
        for op in rng.vec(1, 160, heap_op) {
            let live: Vec<ObjectId> = model.keys().copied().collect();
            match op {
                HeapOp::Insert {
                    surrogate,
                    skip,
                    class,
                    bytes,
                    slots,
                } => {
                    let n = &mut next[usize::from(surrogate)];
                    *n += skip;
                    let id = if surrogate {
                        ObjectId::surrogate(*n)
                    } else {
                        ObjectId::client(*n)
                    };
                    *n += 1;
                    seen.push(id);
                    let rec = ObjectRecord::new(ClassId(class), bytes, slots);
                    let fits = rec.footprint() <= heap.free_bytes();
                    assert_eq!(heap.insert(id, rec.clone()).is_ok(), fits);
                    if fits {
                        stats.used_bytes += rec.footprint();
                        stats.live_objects += 1;
                        stats.total_allocated += 1;
                        stats.total_allocated_bytes += rec.footprint();
                        model.insert(id, rec);
                    }
                }
                HeapOp::Sweep(i) => {
                    if !live.is_empty() {
                        let id = live[i % live.len()];
                        let rec = model.remove(&id).unwrap();
                        assert_eq!(heap.sweep(id).expect("live object sweeps"), rec);
                        stats.used_bytes -= rec.footprint();
                        stats.live_objects -= 1;
                        stats.total_freed += 1;
                    }
                }
                HeapOp::Link { from, slot, to } => {
                    if !live.is_empty() && !seen.is_empty() {
                        // The target may have migrated out or died: the
                        // heap holds cross-VM and dangling references too.
                        let (a, b) = (live[from % live.len()], seen[to % seen.len()]);
                        let rec = heap.get_mut(a).unwrap();
                        if slot < rec.slots.len() {
                            rec.slots[slot] = Some(b);
                            model.get_mut(&a).unwrap().slots[slot] = Some(b);
                        }
                    }
                }
                HeapOp::MigrateOut(i) => {
                    if !live.is_empty() {
                        let id = live[i % live.len()];
                        let rec = model.remove(&id).unwrap();
                        assert_eq!(heap.migrate_out(id).unwrap(), rec);
                        stats.used_bytes -= rec.footprint();
                        stats.live_objects -= 1;
                        stats.migrated_out += 1;
                        epoch += 1;
                        away.push((id, rec));
                    }
                }
                HeapOp::MigrateIn(i) => {
                    if i % 4 == 0 && !live.is_empty() {
                        let id = live[i % live.len()];
                        let copy = ObjectRecord::new(ClassId(0), 1, 0);
                        assert_eq!(heap.migrate_in(id, copy), Err(VmError::IdInUse(id)));
                    } else if !away.is_empty() {
                        let (id, rec) = away.swap_remove(i % away.len());
                        if rec.footprint() <= heap.free_bytes() {
                            heap.migrate_in(id, rec.clone()).unwrap();
                            stats.used_bytes += rec.footprint();
                            stats.live_objects += 1;
                            stats.migrated_in += 1;
                            epoch += 1;
                            model.insert(id, rec);
                        } else {
                            let err = heap.migrate_in(id, rec.clone());
                            assert!(matches!(err, Err(VmError::OutOfMemory { .. })));
                            away.push((id, rec));
                        }
                    }
                }
                HeapOp::Collect(mask) => {
                    let roots: Vec<ObjectId> = live
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| mask & (1 << (k % 64)) != 0)
                        .map(|(_, &id)| id)
                        .collect();
                    let mut reached: BTreeSet<ObjectId> = BTreeSet::new();
                    let mut stack = roots.clone();
                    while let Some(id) = stack.pop() {
                        if let Some(rec) = model.get(&id) {
                            if reached.insert(id) {
                                stack.extend(rec.slots.iter().flatten());
                            }
                        }
                    }
                    let dead: Vec<ObjectId> = live
                        .iter()
                        .copied()
                        .filter(|id| !reached.contains(id))
                        .collect();
                    let dead_bytes: u64 = dead.iter().map(|id| model[id].footprint()).sum();
                    let report = gc.collect(&mut heap, roots, []);
                    assert_eq!(report.freed_objects, dead.len() as u64);
                    assert_eq!(report.freed_bytes, dead_bytes);
                    for id in &dead {
                        model.remove(id);
                    }
                    stats.used_bytes -= dead_bytes;
                    stats.live_objects -= dead.len() as u64;
                    stats.total_freed += dead.len() as u64;
                }
            }
            assert_eq!(heap.stats(), stats);
            assert!(heap.stats().used_bytes <= heap.capacity());
            assert_eq!(heap.locality_epoch(), epoch);
            assert!(heap.iter().eq(model.iter().map(|(&id, rec)| (id, rec))));
            for &id in &seen {
                assert_eq!(heap.contains(id), model.contains_key(&id));
                assert_eq!(heap.get(id).ok(), model.get(&id));
            }
            for class in 0..8 {
                let in_model = model.values().filter(|r| r.class == ClassId(class)).count();
                assert_eq!(heap.instances_of(ClassId(class)), in_model as u64);
            }
        }
    });
}

/// After a collection: every root-reachable object survives, every
/// unreachable object is gone, and the reclaimed byte count matches.
#[test]
fn gc_preserves_exactly_the_reachable_set() {
    for_each_case(|rng| {
        let n = rng.range(2, 40) as usize;
        let edges = rng.vec(0, 80, |rng| (rng.index(40), rng.index(40)));
        let root_mask = rng.word();

        let mut heap = Heap::new(4 << 20);
        let ids: Vec<ObjectId> = (0..n as u64).map(ObjectId::client).collect();
        for &id in &ids {
            heap.insert(id, ObjectRecord::new(ClassId(0), 64, 4))
                .unwrap();
        }
        for (i, &(from, to)) in edges.iter().enumerate() {
            let (a, b) = (ids[from % n], ids[to % n]);
            let rec = heap.get_mut(a).unwrap();
            let slot = i % rec.slots.len();
            rec.slots[slot] = Some(b);
        }
        let roots: Vec<ObjectId> = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| root_mask & (1 << (i % 64)) != 0)
            .map(|(_, &id)| id)
            .collect();

        // Model: compute reachability independently.
        let mut reachable: HashSet<ObjectId> = HashSet::new();
        let mut stack: Vec<ObjectId> = roots.clone();
        while let Some(id) = stack.pop() {
            if reachable.insert(id) {
                for s in heap.get(id).unwrap().slots.iter().flatten() {
                    stack.push(*s);
                }
            }
        }

        let used_before = heap.stats().used_bytes;
        let mut gc = Collector::new(GcConfig::default());
        let report = gc.collect(&mut heap, roots, []);

        for &id in &ids {
            assert_eq!(heap.contains(id), reachable.contains(&id));
        }
        assert_eq!(report.freed_objects as usize, n - reachable.len());
        assert_eq!(used_before - report.freed_bytes, heap.stats().used_bytes);
        // Per-class free accounting sums to the report.
        let freed_from_classes: u64 = gc.last_freed_by_class().values().map(|v| v.1).sum();
        assert_eq!(freed_from_classes, report.freed_bytes);
    });
}

/// Programs with random (valid) shapes always pass validation and run
/// to completion within an adequate heap.
#[test]
fn generated_linear_programs_run() {
    for_each_case(|rng| {
        let allocs = rng.vec(1, 30, |rng| (rng.below(20_000) as u32, rng.below(4) as u16));
        let work = rng.vec(1, 30, |rng| rng.range(1, 500) as u32);

        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let data = b.add_class("Data");
        let mut body = Vec::new();
        for (i, &(bytes, slots)) in allocs.iter().enumerate() {
            body.push(Op::New {
                class: data,
                scalar_bytes: bytes,
                ref_slots: slots,
                dst: Reg((i % 8) as u8),
            });
        }
        for &w in &work {
            body.push(Op::Work { micros: w });
        }
        b.add_method(main, MethodDef::new("main", body));
        let program = Arc::new(b.build(main, MethodId(0), 64, 4).expect("valid"));
        let machine = Machine::new(program, VmConfig::client(64 << 20));
        let summary = machine.run_entry().expect("runs");
        assert_eq!(summary.objects_allocated, allocs.len() as u64 + 1);
        let expected_work: u64 = work.iter().map(|&w| u64::from(w)).sum();
        assert!(summary.cpu_seconds >= expected_work as f64 / 1e6);
    });
}

/// bytes_by_class matches a model computed from insertions.
#[test]
fn bytes_by_class_matches_model() {
    for_each_case(|rng| {
        let mut heap = Heap::new(64 << 20);
        let mut model: HashMap<ClassId, u64> = HashMap::new();
        for i in 0..rng.range(1, 60) {
            let class = ClassId(rng.below(5) as u32);
            let rec = ObjectRecord::new(class, rng.range(1, 5_000) as u32, 0);
            *model.entry(class).or_default() += rec.footprint();
            heap.insert(ObjectId::client(i), rec).unwrap();
        }
        assert_eq!(heap.bytes_by_class(), model);
    });
}
