//! The seeded case generator of the workspace's property suites (this
//! crate's, and by `#[path]` aide-rpc's, aide-vm's and aide-emu's): the
//! in-tree xorshift (`flat_props`, `monitor_props`, `lease_model`), so a case
//! depends on its seed alone and a failure names the seed that reproduces it.
//! Beside it, [`select_from_scratch`], the reference the policies' one
//! selection fold is checked against.

// Each suite draws with its own subset of the generator.
#![allow(dead_code)]

use aide_graph::{
    CandidatePlan, ExecutionGraph, PartitionPolicy, Partitioning, ResourceSnapshot,
    SelectedPartition,
};

/// Cases per property.
pub const CASES: u64 = 256;

/// xorshift64: tiny, seedable, and identical everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Uniform in `0..n`, as an index.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    pub fn flip(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Any 64 bits; one draw in eight is all zeros or all ones, the ends a
    /// codec is likeliest to get wrong. Truncate for a narrower integer.
    pub fn word(&mut self) -> u64 {
        match self.below(16) {
            0 => 0,
            1 => u64::MAX,
            _ => self.next(),
        }
    }

    /// One of `items`.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.index(items.len())]
    }

    /// `Some(item)` or `None`, evenly.
    pub fn option<T>(&mut self, item: impl FnOnce(&mut Rng) -> T) -> Option<T> {
        self.flip().then(|| item(self))
    }

    /// `lo..hi` items.
    pub fn vec<T>(&mut self, lo: usize, hi: usize, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
        let len = lo + self.index(hi - lo);
        (0..len).map(|_| item(self)).collect()
    }

    /// `lo..=hi` characters of `alphabet` (ASCII).
    pub fn text(&mut self, alphabet: &str, lo: usize, hi: usize) -> String {
        let alphabet = alphabet.as_bytes();
        self.vec(lo, hi + 1, |rng| char::from(rng.pick(alphabet)))
            .into_iter()
            .collect()
    }
}

/// Prints the seed of the case that is unwinding.
struct NameSeedOnPanic(u64);

impl Drop for NameSeedOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing seed: {}", self.0);
        }
    }
}

/// Runs `property` on [`CASES`] generators seeded `0..CASES`.
pub fn for_each_case(property: impl Fn(&mut Rng)) {
    for seed in 0..CASES {
        let _named = NameSeedOnPanic(seed);
        property(&mut Rng::new(seed));
    }
    println!("{CASES} cases");
}

/// The reference for [`PartitionPolicy::select`]: every candidate of `plan`
/// is built and its statistics computed from scratch, the first
/// strict improvement is kept (so a NaN never displaces a winner), and the
/// winner must pass the policy's `admit`. `CombinedPolicy` falls back to its
/// CPU half when nothing is memory-feasible; callers chain that fallback
/// themselves.
pub fn select_from_scratch(
    policy: &dyn PartitionPolicy,
    g: &ExecutionGraph,
    snapshot: ResourceSnapshot,
    plan: &CandidatePlan,
) -> Option<SelectedPartition> {
    let mut best: Option<SelectedPartition> = None;
    for i in 0..plan.len() {
        let partitioning = plan.candidate(i);
        let stats = partitioning.stats(g);
        if let Some(score) = policy.score_candidate(g, snapshot, &partitioning, &stats) {
            if best.as_ref().is_none_or(|b| score < b.score) {
                best = Some(SelectedPartition {
                    partitioning,
                    stats,
                    score,
                });
            }
        }
    }
    best.filter(|b| policy.admit(g, snapshot, b))
}

/// Every candidate of `plan`, built one by one, in sweep order.
pub fn candidates(plan: &CandidatePlan) -> Vec<Partitioning> {
    (0..plan.len()).map(|i| plan.candidate(i)).collect()
}
