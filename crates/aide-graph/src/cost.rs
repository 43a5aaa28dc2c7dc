//! Cost functions used to score candidate partitionings.
//!
//! The paper evaluates each intermediate partitioning "by applying a cost
//! function that represents part of the partitioning policy" (§3.3). The
//! prototype's cost function is the historical amount of information
//! transferred between the two partitions; the processing-constraint
//! experiments (§5.2) additionally predict completion time from per-class
//! execution times, the surrogate speed ratio, and WaveLAN link parameters.

use serde::{Deserialize, Serialize};

use crate::graph::ExecutionGraph;
use crate::partition::{PartitionStats, Partitioning};

/// Parameters of the client/surrogate communication link.
///
/// Defaults model the paper's measured 11 Mbps WaveLAN link with a 2.4 ms
/// round-trip time for a null message (§4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CommParams {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: f64,
    /// Round-trip time of a null message, in seconds.
    pub rtt_seconds: f64,
}

impl CommParams {
    /// The paper's WaveLAN link: 11 Mbps, 2.4 ms null-message RTT.
    pub const WAVELAN: CommParams = CommParams {
        bandwidth_bps: 11.0e6,
        rtt_seconds: 2.4e-3,
    };

    /// Creates link parameters from a bandwidth (bits/second) and null-RTT
    /// (seconds).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive and finite.
    pub fn new(bandwidth_bps: f64, rtt_seconds: f64) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "bandwidth must be positive, got {bandwidth_bps}"
        );
        assert!(
            rtt_seconds.is_finite() && rtt_seconds > 0.0,
            "rtt must be positive, got {rtt_seconds}"
        );
        CommParams {
            bandwidth_bps,
            rtt_seconds,
        }
    }

    /// Link seconds of `crossing`: the one price of traffic between the
    /// client and the surrogate, whoever asks (the endpoint charging a
    /// call, the emulator replaying one, the predictor scoring a cut).
    #[inline]
    pub fn charge(&self, crossing: Crossing) -> f64 {
        let (setup, bytes) = match crossing {
            Crossing::Calls { count, bytes } => (count as f64 * self.rtt_seconds, bytes),
            Crossing::Stream { bytes } => (self.rtt_seconds / 2.0, bytes),
        };
        setup + (bytes as f64 * 8.0) / self.bandwidth_bps
    }
}

/// Traffic that crosses the link, as [`CommParams::charge`] prices it.
/// `bytes` is payload only: what the monitor records for the same
/// interaction, never a header (the null-message RTT pays for those).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossing {
    /// `count` synchronous interactions carrying `bytes` between them: each
    /// waits one round trip, and the bytes stream onto the link.
    Calls {
        /// Interactions, each one round trip.
        count: u64,
        /// Payload bytes of all of them together.
        bytes: u64,
    },
    /// A bulk transfer (a migration): half a round trip of setup, then
    /// `bytes` stream onto the link.
    Stream {
        /// Payload bytes.
        bytes: u64,
    },
}

impl Default for CommParams {
    fn default() -> Self {
        CommParams::WAVELAN
    }
}

/// Scores a candidate partitioning; lower is better.
///
/// This trait is object-safe so policies can hold `Box<dyn CostFunction>`.
pub trait CostFunction: Send + Sync {
    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// The cost of `candidate` over `graph`. `stats` are the precomputed
    /// [`PartitionStats`] for the candidate (callers compute them once and
    /// share them across cost functions).
    fn cost(&self, graph: &ExecutionGraph, candidate: &Partitioning, stats: &PartitionStats)
        -> f64;
}

/// The paper's prototype cost function: historical bytes transferred across
/// the cut. "Conceptually, this policy offloads a sufficient amount of
/// information while placing the smallest demand on network bandwidth."
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutBytes;

impl CostFunction for CutBytes {
    fn name(&self) -> &str {
        "cut-bytes"
    }

    fn cost(&self, _: &ExecutionGraph, _: &Partitioning, stats: &PartitionStats) -> f64 {
        stats.cut.bytes as f64
    }
}

/// Scores by the number of interaction events crossing the cut, ignoring
/// payload sizes. Useful when per-message latency dominates (small RPCs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutInteractions;

impl CostFunction for CutInteractions {
    fn name(&self) -> &str {
        "cut-interactions"
    }

    fn cost(&self, _: &ExecutionGraph, _: &Partitioning, stats: &PartitionStats) -> f64 {
        stats.cut.interactions as f64
    }
}

/// Predicted completion time of the application under a candidate placement
/// (§5.2): client-side exclusive time at client speed, offloaded exclusive
/// time divided by the surrogate speed ratio, plus one link round trip per
/// crossing interaction and serialization of crossing bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictedTime {
    /// Link parameters used to price crossing interactions.
    pub comm: CommParams,
    /// Surrogate CPU speed as a multiple of client CPU speed (the paper
    /// measured 3.5× between a PC and a Jornada 547).
    pub surrogate_speedup: f64,
}

impl PredictedTime {
    /// Creates a predictor with the given link and speed ratio.
    ///
    /// # Panics
    ///
    /// Panics if `surrogate_speedup` is not strictly positive and finite.
    pub fn new(comm: CommParams, surrogate_speedup: f64) -> Self {
        assert!(
            surrogate_speedup.is_finite() && surrogate_speedup > 0.0,
            "surrogate speedup must be positive, got {surrogate_speedup}"
        );
        PredictedTime {
            comm,
            surrogate_speedup,
        }
    }

    /// Predicted completion time of the *unpartitioned* application, i.e.
    /// all exclusive time executed at client speed, in seconds.
    pub fn unpartitioned_seconds(&self, graph: &ExecutionGraph) -> f64 {
        graph.total_cpu_micros() as f64 / 1e6
    }

    /// Predicted completion time for `stats`, in seconds.
    pub fn predicted_seconds(&self, stats: &PartitionStats) -> f64 {
        let client = stats.client_cpu_micros as f64 / 1e6;
        let remote = stats.offloaded_cpu_micros as f64 / 1e6 / self.surrogate_speedup;
        let comm = self.comm.charge(Crossing::Calls {
            count: stats.cut.interactions,
            bytes: stats.cut.bytes,
        });
        client + remote + comm
    }
}

impl Default for PredictedTime {
    fn default() -> Self {
        PredictedTime::new(CommParams::WAVELAN, 3.5)
    }
}

impl CostFunction for PredictedTime {
    fn name(&self) -> &str {
        "predicted-time"
    }

    fn cost(&self, _: &ExecutionGraph, _: &Partitioning, stats: &PartitionStats) -> f64 {
        self.predicted_seconds(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{EdgeInfo, NodeInfo};
    use crate::partition::Side;

    #[test]
    fn wavelan_defaults_match_paper() {
        let c = CommParams::default();
        assert_eq!(c.bandwidth_bps, 11.0e6);
        assert_eq!(c.rtt_seconds, 2.4e-3);
    }

    #[test]
    fn null_interaction_costs_one_rtt() {
        let c = CommParams::WAVELAN;
        assert_eq!(c.charge(Crossing::Calls { count: 1, bytes: 0 }), 2.4e-3);
    }

    #[test]
    fn interaction_cost_scales_with_payload() {
        let c = CommParams::new(8.0e6, 1.0e-3); // 1 MB/s
                                                // 1000 bytes = 8000 bits = 1 ms on the link, plus 1 ms RTT.
        let one = c.charge(Crossing::Calls {
            count: 1,
            bytes: 1_000,
        });
        assert!((one - 2.0e-3).abs() < 1e-9);
        let three = c.charge(Crossing::Calls {
            count: 3,
            bytes: 1_000,
        });
        assert!((three - 4.0e-3).abs() < 1e-9);
    }

    #[test]
    fn transfer_uses_half_rtt_setup() {
        let c = CommParams::new(8.0e6, 2.0e-3);
        assert_eq!(c.charge(Crossing::Stream { bytes: 0 }), 1.0e-3);
        let mb = c.charge(Crossing::Stream { bytes: 1_000_000 });
        assert!((mb - (1.0e-3 + 1.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = CommParams::new(0.0, 1e-3);
    }

    #[test]
    #[should_panic(expected = "rtt must be positive")]
    fn negative_rtt_rejected() {
        let _ = CommParams::new(1e6, -1.0);
    }

    fn split_graph() -> (ExecutionGraph, Partitioning) {
        let mut g = ExecutionGraph::new();
        let a = g.add_node(NodeInfo::new("A"));
        let b = g.add_node(NodeInfo::new("B"));
        g.node_mut(a).cpu_micros = 7_000_000; // 7 s
        g.node_mut(b).cpu_micros = 3_500_000; // 3.5 s
        g.record_interaction(a, b, EdgeInfo::new(100, 11_000_000 / 8));
        let mut p = Partitioning::all_client(&g);
        p.set_side(b, Side::Surrogate);
        (g, p)
    }

    #[test]
    fn cut_bytes_scores_historical_traffic() {
        let (g, p) = split_graph();
        let stats = p.stats(&g);
        assert_eq!(CutBytes.cost(&g, &p, &stats), 11_000_000.0 / 8.0);
        assert_eq!(CutInteractions.cost(&g, &p, &stats), 100.0);
    }

    #[test]
    fn predicted_time_combines_cpu_and_comm() {
        let (g, p) = split_graph();
        let stats = p.stats(&g);
        let pt = PredictedTime::default();
        // client 7 s + remote 3.5/3.5 = 1 s + comm (100 * 2.4ms + 1 s of link).
        let expected = 7.0 + 1.0 + 0.24 + 1.0;
        assert!((pt.predicted_seconds(&stats) - expected).abs() < 1e-9);
        assert!((pt.unpartitioned_seconds(&g) - 10.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "surrogate speedup must be positive")]
    fn invalid_speedup_rejected() {
        let _ = PredictedTime::new(CommParams::WAVELAN, f64::NAN);
    }

    #[test]
    fn cost_functions_are_object_safe() {
        let fns: Vec<Box<dyn CostFunction>> = vec![
            Box::new(CutBytes),
            Box::new(CutInteractions),
            Box::new(PredictedTime::default()),
        ];
        let (g, p) = split_graph();
        let stats = p.stats(&g);
        for f in &fns {
            assert!(f.cost(&g, &p, &stats) >= 0.0, "{} negative", f.name());
        }
    }
}
