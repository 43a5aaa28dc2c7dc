//! Atomic counters and the registry that names them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::RwLock;
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
