//! Properties of the lease/epoch state machine, each on
//! [`support::CASES`] seeded random schedules: under
//! arbitrary interleavings of export, renew, clock advance, epoch bumps,
//! and release batches — including duplicated, reordered, stale-epoch,
//! and unknown-id releases — the export table never double-unpins, never
//! keeps an expired entry past a sweep, and always converges to empty.
//!
//! The model is the set of currently pinned ids: every id the table hands
//! back (from a release or a sweep) must be pinned in the model at that
//! moment, exactly once. A violation is precisely a leak (model entry the
//! table forgot) or a double unpin (table returning an id twice).

#[path = "../../aide-graph/tests/support/mod.rs"]
mod support;

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use aide_rpc::{ExportTable, GcClock};
use aide_vm::ObjectId;
use support::{for_each_case, Rng};

const TTL_MS: u64 = 100;

#[derive(Debug, Clone)]
enum Op {
    /// Export id (idempotent pin: only the first export per id pins).
    Export(u64),
    /// A release batch stamped with an absolute (epoch, seq) pair —
    /// arbitrary pairs model duplicates, reordering, and stale epochs.
    Release { epoch: u64, seq: u64, ids: Vec<u64> },
    /// A renewal stamped with an absolute epoch.
    Renew(u64),
    /// Advance the lease clock.
    Advance(u64),
    /// Reclaim expired leases.
    SweepExpired,
    /// Fence off the current epoch (failover).
    BeginEpoch,
    /// Reclaim entries stranded behind the fence.
    SweepStale,
}

fn op(rng: &mut Rng) -> Op {
    match rng.below(7) {
        0 => Op::Export(rng.below(16)),
        1 => Op::Release {
            epoch: rng.below(4),
            seq: rng.below(8),
            ids: rng.vec(0, 6, |rng| rng.below(20)),
        },
        2 => Op::Renew(rng.below(4)),
        3 => Op::Advance(rng.below(200)),
        4 => Op::SweepExpired,
        5 => Op::BeginEpoch,
        _ => Op::SweepStale,
    }
}

/// Asserts `returned` ids are pinned in the model exactly once each, and
/// unpins them. Any duplicate or unknown id is exactly a double unpin.
fn unpin_all_checked(model: &mut HashSet<ObjectId>, returned: &[ObjectId], what: &str) {
    let mut seen = HashSet::new();
    for id in returned {
        assert!(
            seen.insert(*id),
            "{what} returned {id:?} twice in one batch"
        );
        assert!(
            model.remove(id),
            "{what} returned {id:?} which is not pinned — double unpin"
        );
    }
}

#[test]
fn lease_machine_never_double_unpins_and_always_converges() {
    for_each_case(|rng| {
        let ops = rng.vec(1, 80, op);
        let clock = Arc::new(GcClock::new());
        let table = ExportTable::with_clock(clock.clone());
        table.set_ttl_ms(TTL_MS);
        let mut model: HashSet<ObjectId> = HashSet::new();

        for op in &ops {
            match op {
                Op::Export(n) => {
                    let id = ObjectId::client(*n);
                    let newly = table.export(id);
                    assert_eq!(
                        newly,
                        model.insert(id),
                        "export pin decision must match the model"
                    );
                }
                Op::Release { epoch, seq, ids } => {
                    let ids: Vec<ObjectId> = ids.iter().map(|n| ObjectId::client(*n)).collect();
                    let returned = table.release_batch(*epoch, *seq, &ids);
                    unpin_all_checked(&mut model, &returned, "release_batch");
                }
                Op::Renew(epoch) => {
                    table.renew(*epoch);
                }
                Op::Advance(ms) => {
                    clock.advance_ms(*ms);
                }
                Op::SweepExpired => {
                    let returned = table.sweep_expired();
                    unpin_all_checked(&mut model, &returned, "sweep_expired");
                    // A sweep leaves no expired entry behind: sweeping
                    // again without moving the clock finds nothing.
                    assert!(
                        table.sweep_expired().is_empty(),
                        "an immediate re-sweep must find nothing expired"
                    );
                }
                Op::BeginEpoch => {
                    table.begin_epoch();
                }
                Op::SweepStale => {
                    let returned = table.sweep_stale_epochs();
                    unpin_all_checked(&mut model, &returned, "sweep_stale_epochs");
                }
            }
            // The table and the model always agree on what is pinned.
            assert_eq!(table.len(), model.len());
            for id in &model {
                assert!(table.contains(*id), "model entry {id:?} leaked");
            }
        }

        // Convergence: with the peer gone, fencing plus one full TTL of
        // silence drains every surviving entry — no reachable state leaks.
        table.begin_epoch();
        unpin_all_checked(&mut model, &table.sweep_stale_epochs(), "final stale sweep");
        clock.advance_ms(TTL_MS + 1);
        unpin_all_checked(&mut model, &table.sweep_expired(), "final expiry sweep");
        assert!(
            table.is_empty() && model.is_empty(),
            "table must converge to empty (table={}, model={})",
            table.len(),
            model.len()
        );
    });
}

#[test]
fn duplicated_and_reordered_release_streams_release_at_most_once() {
    for_each_case(|rng| {
        let clock = Arc::new(GcClock::new());
        let table = ExportTable::with_clock(clock);
        table.set_ttl_ms(TTL_MS);
        // 1..10 distinct ids, in order.
        let mut ids = BTreeSet::new();
        let wanted = rng.range(1, 10) as usize;
        while ids.len() < wanted {
            ids.insert(rng.below(12));
        }
        let ids: Vec<ObjectId> = ids.into_iter().map(ObjectId::client).collect();
        for id in &ids {
            assert!(table.export(*id));
        }

        // The real stream: one batch per id, seq 1..=n, epoch 0.
        for (i, id) in ids.iter().enumerate() {
            let returned = table.release_batch(0, (i + 1) as u64, &[*id]);
            assert_eq!(returned, vec![*id]);
        }
        assert!(table.is_empty());

        // An adversarial replay of it — arbitrary subset, arbitrary order,
        // arbitrary repetition: every batch is at or below the watermark
        // (or names an id that is long gone) and must release nothing.
        for _ in 0..rng.below(24) {
            let seq = rng.below(ids.len() as u64 + 1); // 0..=n, all stale
            let id = ObjectId::client(rng.below(12));
            let returned = table.release_batch(0, seq, &[id]);
            assert!(
                returned.is_empty(),
                "replayed batch (seq {seq}) must be a counted no-op, got {returned:?}"
            );
        }
        assert!(table.is_empty());
    });
}
