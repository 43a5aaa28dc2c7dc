//! Atomic counters, fixed-bucket histograms, and the registry that names
//! the counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments the counter by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` observations (latencies in
/// microseconds, sizes in bytes, ...), kept by the object that observes
/// them.
///
/// Bucket bounds are inclusive upper bounds; observations above the
/// last bound land in an implicit overflow (`+Inf`) bucket. Recording
/// is a binary search plus two relaxed atomic adds — no locks.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    /// One slot per bound plus the overflow bucket.
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds.
    /// Bounds must be strictly increasing.
    pub fn new(bounds: &'static [u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observation, or 0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Per-bucket (non-cumulative) counts, one per bound plus the overflow
    /// bucket.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// The metrics registry: a name → counter map.
///
/// Registration takes a write lock; the returned `Arc` handles are then
/// lock-free to record into. Instrumented code caches handles at setup
/// and never touches the registry on the hot path.
#[derive(Debug, Default)]
pub struct Telemetry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
}

impl Telemetry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Point-in-time snapshot of every registered counter.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }
}

/// Serializable point-in-time state of a whole [`Telemetry`] registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
}

impl TelemetrySnapshot {
    /// Activity since `before`: each counter less its value there
    /// (counters absent from `before` keep their full value).
    pub fn delta_since(&self, before: &TelemetrySnapshot) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(before.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
        }
    }

    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_record() {
        let t = Telemetry::new();
        let c = t.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same handle.
        assert_eq!(t.counter("c").get(), 5);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.counts(), vec![2, 2, 0, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5122);
        assert!((h.mean() - 1024.4).abs() < 1e-9);
    }

    #[test]
    fn snapshot_delta_reports_per_run_activity() {
        let t = Telemetry::new();
        let c = t.counter("requests");
        c.add(3);
        let before = t.snapshot();
        c.add(2);
        t.counter("late").inc();
        let d = t.snapshot().delta_since(&before);
        assert_eq!(d.counter("requests"), 2);
        assert_eq!(d.counter("late"), 1);
        assert_eq!(d.counter("absent"), 0);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let t = Telemetry::new();
        t.counter("c").add(7);
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(snap, back);
    }
}
