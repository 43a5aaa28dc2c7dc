//! `ExportTable` against the per-entry model it replaced.
//!
//! A renewal extends every current-epoch lease and one arrives with every
//! stamped frame, so the table records it once instead of visiting the
//! entries. The model below is the loop that used to run — each entry owns
//! its deadline and a renewal overwrites them one by one — and every
//! random operation must give the same answer on both: same return value,
//! same swept set, same multiset of lease ages, and the same count of each
//! kind of refused release — per table, exactly.
//!
//! The generator is the workspace's seeded xorshift (`placement_props`,
//! `flat_props`), so a failure names the seed and the step that reproduce
//! it.

use std::collections::HashMap;
use std::sync::Arc;

use aide_rpc::{ExportTable, GcClock, ReleaseStats, Xorshift64};
use aide_vm::ObjectId;

const SEEDS: u64 = 256;
const OPS: usize = 300;
const IDS: u64 = 24;

/// The workspace's xorshift64, from the seed's golden-ratio multiple.
struct Rng(Xorshift64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(Xorshift64::from_state(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        ))
    }

    fn next(&mut self) -> u64 {
        self.0.next_u64()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn id(&mut self) -> ObjectId {
        ObjectId::client(self.below(IDS))
    }
}

#[derive(Debug, Clone, Copy)]
struct ModelEntry {
    count: u64,
    epoch: u64,
    deadline_ms: u64,
}

/// The export table as it was: one deadline per entry, a renewal walks
/// them all.
#[derive(Debug, Default)]
struct Model {
    entries: HashMap<ObjectId, ModelEntry>,
    epoch: u64,
    peer_epoch: u64,
    watermark: u64,
    now_ms: u64,
    ttl_ms: u64,
    /// The releases it was sent that the table must refuse or not match.
    refused: ReleaseStats,
}

impl Model {
    fn export(&mut self, id: ObjectId) -> bool {
        let (epoch, deadline_ms) = (self.epoch, self.now_ms + self.ttl_ms);
        match self.entries.get_mut(&id) {
            Some(e) => {
                e.count += 1;
                e.epoch = epoch;
                e.deadline_ms = deadline_ms;
                false
            }
            None => {
                self.entries.insert(
                    id,
                    ModelEntry {
                        count: 1,
                        epoch,
                        deadline_ms,
                    },
                );
                true
            }
        }
    }

    fn release(&mut self, id: ObjectId) -> bool {
        let Some(e) = self.entries.get_mut(&id) else {
            self.refused.unknown += 1;
            return false;
        };
        e.count -= 1;
        if e.count == 0 {
            self.entries.remove(&id);
            return true;
        }
        false
    }

    fn release_batch(&mut self, epoch: u64, seq: u64, ids: &[ObjectId]) -> Vec<ObjectId> {
        if epoch < self.peer_epoch {
            self.refused.stale += 1;
            return Vec::new();
        }
        self.peer_epoch = epoch;
        if seq <= self.watermark {
            self.refused.duplicate += 1;
            return Vec::new();
        }
        self.watermark = seq;
        let released: Vec<ObjectId> = ids
            .iter()
            .copied()
            .filter(|id| self.entries.remove(id).is_some())
            .collect();
        self.refused.unknown += (ids.len() - released.len()) as u64;
        released
    }

    fn renew(&mut self, peer_epoch: u64) -> usize {
        if peer_epoch < self.peer_epoch {
            return 0;
        }
        self.peer_epoch = peer_epoch;
        let mut n = 0;
        for e in self.entries.values_mut() {
            if e.epoch == self.epoch {
                e.deadline_ms = self.now_ms + self.ttl_ms;
                n += 1;
            }
        }
        n
    }

    fn sweep(&mut self, gone: impl Fn(&ModelEntry) -> bool) -> Vec<ObjectId> {
        let ids: Vec<ObjectId> = self
            .entries
            .iter()
            .filter(|(_, e)| gone(e))
            .map(|(id, _)| *id)
            .collect();
        for id in &ids {
            self.entries.remove(id);
        }
        ids
    }

    fn lease_ages_ms(&self) -> Vec<u64> {
        self.entries
            .values()
            .map(|e| {
                self.ttl_ms
                    .saturating_sub(e.deadline_ms.saturating_sub(self.now_ms))
            })
            .collect()
    }
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

#[test]
fn constant_time_renewal_matches_the_per_entry_loop() {
    for seed in 1..=SEEDS {
        let mut rng = Rng::new(seed);
        let clock = Arc::new(GcClock::new());
        let table = ExportTable::with_clock(clock.clone());
        let mut model = Model {
            ttl_ms: table.ttl_ms(),
            ..Model::default()
        };
        // Release sequence numbers mostly climb, as a live session's do.
        let mut next_seq = 1u64;

        for step in 0..OPS {
            let at = format!("seed {seed}, step {step}");
            match rng.below(14) {
                0..=3 => {
                    let id = rng.id();
                    assert_eq!(table.export(id), model.export(id), "export at {at}");
                }
                4 => {
                    let id = rng.id();
                    assert_eq!(table.release(id), model.release(id), "release at {at}");
                }
                5 => {
                    // Current, stale and future peer epochs; fresh,
                    // duplicate and late sequence numbers.
                    let epoch = (model.peer_epoch + rng.below(3)).saturating_sub(1);
                    let seq = match rng.below(4) {
                        0 => rng.below(next_seq + 1),
                        _ => next_seq,
                    };
                    next_seq = next_seq.max(seq + 1);
                    let ids: Vec<ObjectId> = (0..rng.below(6)).map(|_| rng.id()).collect();
                    assert_eq!(
                        sorted(table.release_batch(epoch, seq, &ids)),
                        sorted(model.release_batch(epoch, seq, &ids)),
                        "release_batch({epoch}, {seq}) at {at}"
                    );
                }
                6..=8 => {
                    let peer_epoch = (model.peer_epoch + rng.below(3)).saturating_sub(1);
                    assert_eq!(
                        table.renew(peer_epoch),
                        model.renew(peer_epoch),
                        "renew({peer_epoch}) at {at}"
                    );
                }
                9 => {
                    model.epoch += 1;
                    assert_eq!(table.begin_epoch(), model.epoch, "begin_epoch at {at}");
                }
                10 => {
                    // Raised and lowered: a renewal after a lowered TTL
                    // must shorten leases, not keep the longer one.
                    model.ttl_ms = [0, 1, 50, 100, 1_000, 30_000][rng.below(6) as usize];
                    table.set_ttl_ms(model.ttl_ms);
                }
                11 => {
                    let delta = [0, 1, 49, 100, 999, 30_001][rng.below(6) as usize];
                    clock.advance_ms(delta);
                    model.now_ms += delta;
                }
                12 => {
                    let now = model.now_ms;
                    assert_eq!(
                        sorted(table.sweep_expired()),
                        sorted(model.sweep(|e| e.deadline_ms < now)),
                        "sweep_expired at {at}"
                    );
                }
                _ => {
                    let epoch = model.epoch;
                    assert_eq!(
                        sorted(table.sweep_stale_epochs()),
                        sorted(model.sweep(|e| e.epoch < epoch)),
                        "sweep_stale_epochs at {at}"
                    );
                }
            }
            assert_eq!(
                sorted(table.lease_ages_ms()),
                sorted(model.lease_ages_ms()),
                "lease ages after {at}"
            );
            assert_eq!(table.len(), model.entries.len(), "entries after {at}");
            assert_eq!(
                table.peer_epoch(),
                model.peer_epoch,
                "peer epoch after {at}"
            );
            assert_eq!(table.watermark(), model.watermark, "watermark after {at}");
            assert_eq!(
                table.release_stats(),
                model.refused,
                "refused releases after {at}"
            );
        }
        for (id, e) in &model.entries {
            assert_eq!(
                table.holds(*id),
                e.count,
                "holds({id:?}) at the end of seed {seed}"
            );
        }
    }
}
