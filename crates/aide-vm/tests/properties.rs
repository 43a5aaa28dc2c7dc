//! Properties of the VM's heap, collector, and program builder, each on
//! [`support::CASES`] seeded random cases.

#[path = "../../aide-graph/tests/support/mod.rs"]
mod support;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use aide_vm::{
    ClassId, Collector, GcConfig, Heap, Machine, MethodDef, MethodId, ObjectId, ObjectRecord, Op,
    ProgramBuilder, Reg, VmConfig,
};
use support::{for_each_case, Rng};

/// An abstract heap operation for model-based testing.
#[derive(Debug, Clone)]
enum HeapOp {
    Insert { class: u32, bytes: u32, slots: u16 },
    Sweep(usize),
    Link { from: usize, slot: usize, to: usize },
}

fn heap_op(rng: &mut Rng) -> HeapOp {
    match rng.below(3) {
        0 => HeapOp::Insert {
            class: rng.below(8) as u32,
            bytes: rng.below(10_000) as u32,
            slots: rng.below(4) as u16,
        },
        1 => HeapOp::Sweep(rng.index(64)),
        _ => HeapOp::Link {
            from: rng.index(64),
            slot: rng.index(4),
            to: rng.index(64),
        },
    }
}

/// The heap's used-byte ledger always equals the sum of live object
/// footprints, and never exceeds capacity.
#[test]
fn heap_ledger_is_exact() {
    for_each_case(|rng| {
        let mut heap = Heap::new(512 * 1024);
        let mut live: Vec<ObjectId> = Vec::new();
        let mut next = 0u64;
        for op in rng.vec(1, 120, heap_op) {
            match op {
                HeapOp::Insert {
                    class,
                    bytes,
                    slots,
                } => {
                    let id = ObjectId::client(next);
                    next += 1;
                    if heap
                        .insert(id, ObjectRecord::new(ClassId(class), bytes, slots))
                        .is_ok()
                    {
                        live.push(id);
                    }
                }
                HeapOp::Sweep(i) => {
                    if !live.is_empty() {
                        let id = live.remove(i % live.len());
                        heap.sweep(id).expect("live object sweeps");
                    }
                }
                HeapOp::Link { from, slot, to } => {
                    if !live.is_empty() {
                        let (a, b) = (live[from % live.len()], live[to % live.len()]);
                        if let Ok(rec) = heap.get_mut(a) {
                            if slot < rec.slots.len() {
                                rec.slots[slot] = Some(b);
                            }
                        }
                    }
                }
            }
            let expected: u64 = live
                .iter()
                .map(|&id| heap.get(id).expect("tracked object is live").footprint())
                .sum();
            assert_eq!(heap.stats().used_bytes, expected);
            assert!(heap.stats().used_bytes <= heap.capacity());
            assert_eq!(heap.stats().live_objects as usize, live.len());
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
