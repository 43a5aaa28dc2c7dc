//! Metric definitions and the result a run prints.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and bounds below for the driver; `tests/contract.rs` fails if
//! the two drift apart.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An end-to-end metric: something a user of the platform would notice.
/// Every workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "pass_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.20,
    },
];

/// A per-layer metric from the traced run: `(name, unit, better)`. A
/// workload reports the rungs of the layers it crosses and 0 for the rest.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // harness
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
    // aide-vm (local_mutator)
    ("vm.mutator_s", "s", "lower"),
    ("vm.mutator_mops_per_s", "Mops/s", "higher"),
    ("vm.ops", "count", "lower"),
    ("vm.gc_cycles", "count", "lower"),
    ("vm.ic_hit_ratio", "ratio", "higher"),
    // aide-core::monitor (local_mutator)
    ("monitor.hook_s", "s", "lower"),
    ("monitor.events", "count", "lower"),
    ("monitor.ns_per_event", "ns", "lower"),
    ("monitor.on_interaction_ns", "ns", "lower"),
    ("monitor.drain_deltas_us", "us", "lower"),
    // platform scaffold (local_mutator)
    ("core.scaffold_s", "s", "lower"),
    ("local.mops_per_s", "Mops/s", "higher"),
    // aide-core::offload / adapter (memory_rescue_tcp)
    ("offload.objects_moved", "count", "lower"),
    ("offload.bytes_moved", "B", "lower"),
    ("offload.partition_ms", "ms", "lower"),
    ("offload.migrate_ms", "ms", "lower"),
    ("offload.migrate_mb_per_s", "MB/s", "higher"),
    ("remote.calls", "count", "lower"),
    ("remote.calls_per_s", "1/s", "higher"),
    ("remote.us_per_call", "us", "lower"),
    ("remote.inproc_us_per_call", "us", "lower"),
    // aide-rpc (memory_rescue_tcp)
    ("rpc.tcp_carrier_s", "s", "lower"),
    ("rpc.rtt_inproc_us_p50", "us", "lower"),
    ("rpc.rtt_inproc_us_p99", "us", "lower"),
    ("rpc.rtt_tcp_us_p50", "us", "lower"),
    ("rpc.rtt_tcp_us_p99", "us", "lower"),
    ("rpc.rtt_tcp_us_p999", "us", "lower"),
    ("rpc.bulk_tcp_mb_per_s", "MB/s", "higher"),
    ("rpc.codec_encode_ns", "ns", "lower"),
    ("rpc.codec_decode_ns", "ns", "lower"),
    ("rpc.codec_migrate64_encode_us", "us", "lower"),
    ("rpc.codec_migrate64_decode_us", "us", "lower"),
    ("rpc.bytes_per_call", "B", "lower"),
    ("rpc.retries", "count", "lower"),
    // aide-surrogate (fleet_serving)
    ("surrogate.daemon_start_ms", "ms", "lower"),
    ("surrogate.ping_rtt_us_p50", "us", "lower"),
    ("surrogate.ping_rtt_us_p99", "us", "lower"),
    ("surrogate.stats_scrape_us_p50", "us", "lower"),
    ("surrogate.sessions_rejected", "count", "lower"),
    ("fleet.sessions", "count", "higher"),
    ("fleet.sessions_per_s", "1/s", "higher"),
    ("fleet.session_ms_p50", "ms", "lower"),
    ("fleet.session_tail_ms", "ms", "lower"),
    ("fleet.migrate_ms_p50", "ms", "lower"),
    ("fleet.remote_calls_per_session", "count", "lower"),
    // aide-core::partitioner + aide-graph (policy_sweep)
    ("partition.epoch_us_138", "us", "lower"),
    ("partition.candidates", "count", "lower"),
    ("partition.apply_deltas_us_2k", "us", "lower"),
    ("partition.epoch_us_2k", "us", "lower"),
    ("partition.decisions", "count", "lower"),
    ("partition.decisions_per_s", "1/s", "higher"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"))
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// What one run of one workload prints as its last line of output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Every output matched the oracle.
    pub correct: bool,
    /// Operations attempted (application runs, sessions, decisions).
    pub attempted: u64,
    /// Operations that errored, did not offload where they must, or
    /// diverged from the oracle.
    pub failed: u64,
    pub metrics: BTreeMap<String, MetricValue>,
}

/// Tally of operations and oracle failures a workload accumulates.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the human-readable output.
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; `problem` describes why it failed, if it did.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(why) = problem {
            self.fail(why);
        }
    }

    /// Counts a failure of an operation already recorded as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
        self.failures.truncate(8);
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
    }
}

/// Metric values by registry name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name); // panics on a name the registry does not know
        self.0.insert(name, value);
    }

    /// The metrics set so far, by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(name, value)| (*name, *value))
    }

    /// The run's result with exactly the metrics of one kind: every
    /// end-to-end metric (all must have been set), or every per-layer
    /// metric (unset rungs read 0: the workload does not cross that layer).
    pub fn into_result(self, tally: &Tally, per_layer: bool) -> RunResult {
        let mut metrics = BTreeMap::new();
        if per_layer {
            for &(name, unit, _) in PER_LAYER {
                let value = self.0.get(name).copied().unwrap_or(0.0);
                metrics.insert(
                    name.to_owned(),
                    MetricValue {
                        value,
                        unit: unit.to_owned(),
                    },
                );
            }
        } else {
            for m in END_TO_END {
                let value = *self
                    .0
                    .get(m.name)
                    .unwrap_or_else(|| panic!("workload did not report `{}`", m.name));
                metrics.insert(
                    m.name.to_owned(),
                    MetricValue {
                        value,
                        unit: m.unit.to_owned(),
                    },
                );
            }
        }
        RunResult {
            correct: tally.failed == 0 && tally.attempted > 0,
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
        }
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn end_to_end_result_needs_every_metric_and_only_those() {
        let mut m = Metrics::default();
        for e in END_TO_END {
            m.set(e.name, 1.5);
        }
        m.set("vm.ops", 9.0);
        let mut tally = Tally::default();
        tally.record(None);
        let r = m.into_result(&tally, false);
        assert!(r.correct);
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert_eq!(r.metrics["setup_s"].unit, "s");
        let line = serde_json::to_string(&r).unwrap();
        assert_eq!(serde_json::from_str::<RunResult>(&line).unwrap(), r);
    }

    #[test]
    fn per_layer_result_reports_unset_rungs_as_zero() {
        let mut m = Metrics::default();
        m.set("vm.ops", 9.0);
        let mut tally = Tally::default();
        tally.record(Some("diverged".into()));
        let r = m.into_result(&tally, true);
        assert!(!r.correct);
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert_eq!(r.metrics.len(), PER_LAYER.len());
        assert_eq!(r.metrics["vm.ops"].value, 9.0);
        assert_eq!(r.metrics["rpc.retries"].value, 0.0);
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_correct() {
        let r = Metrics::default().into_result(&Tally::default(), true);
        assert!(!r.correct);
    }

    #[test]
    fn peak_rss_is_a_positive_number_of_megabytes() {
        let mb = peak_rss_mb();
        assert!(mb > 1.0 && mb < 1e6, "{mb}");
    }
}
