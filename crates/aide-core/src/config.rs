//! Platform configuration.

use aide_graph::{
    CombinedPolicy, CommParams, CpuPolicy, MemoryPolicy, PartitionPolicy, PredictedTime,
};
use aide_rpc::ChaosSchedule;
use aide_vm::{CostModel, GcConfig};
use serde::{Deserialize, Serialize};

use crate::monitor::TriggerConfig;

/// Which partitioning policy the platform applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Relieve memory pressure: free at least `min_free_fraction` of the
    /// client heap while minimizing historical cut bytes (paper §5.1).
    Memory {
        /// Minimum heap fraction any acceptable partitioning must free.
        min_free_fraction: f64,
    },
    /// Relieve processing pressure: minimize predicted completion time,
    /// offloading only when beneficial (paper §5.2).
    Cpu {
        /// Required fractional improvement before offloading.
        margin: f64,
    },
    /// Memory feasibility with time-optimal selection (paper §8).
    Combined {
        /// Minimum heap fraction any acceptable partitioning must free.
        min_free_fraction: f64,
        /// Required fractional improvement before offloading.
        margin: f64,
    },
}

impl PolicyKind {
    /// Builds the concrete policy for the given link and speed ratio.
    pub fn build(self, comm: CommParams, surrogate_speed: f64) -> Box<dyn PartitionPolicy> {
        let predictor = PredictedTime::new(comm, surrogate_speed);
        match self {
            PolicyKind::Memory { min_free_fraction } => {
                Box::new(MemoryPolicy::new(min_free_fraction))
            }
            PolicyKind::Cpu { margin } => Box::new(CpuPolicy::new(predictor).with_margin(margin)),
            PolicyKind::Combined {
                min_free_fraction,
                margin,
            } => Box::new(CombinedPolicy::new(
                MemoryPolicy::new(min_free_fraction),
                CpuPolicy::new(predictor).with_margin(margin),
            )),
        }
    }
}

/// Which carrier the prototype's RPC link uses. Each is built by its
/// backend's pair constructor (`aide_rpc::Link::pair`, `aide_rpc::tcp_pair`);
/// platform code sees only the two sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportKind {
    /// In-process channels (deterministic, no I/O) — the default.
    InProcess,
    /// A real localhost TCP socket carrying multiplexed sessions.
    Tcp,
}

/// When the platform re-evaluates partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EvaluationMode {
    /// Evaluate when the memory-pressure trigger fires (GC-report driven).
    OnMemoryPressure,
    /// Evaluate every `every_micros` of accumulated exclusive work
    /// (periodic re-evaluation for processing constraints).
    Periodic {
        /// Exclusive-work period between evaluations, in microseconds.
        every_micros: f64,
    },
}

/// Full configuration of a distributed platform run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Client heap capacity in bytes.
    pub client_heap: u64,
    /// Surrogate heap capacity in bytes.
    pub surrogate_heap: u64,
    /// Link parameters (defaults to the paper's WaveLAN).
    pub comm: CommParams,
    /// Surrogate CPU speed relative to the client (paper: 3.5).
    pub surrogate_speed: f64,
    /// Memory-pressure trigger configuration.
    pub trigger: TriggerConfig,
    /// Partitioning policy.
    pub policy: PolicyKind,
    /// When partitioning is re-evaluated.
    pub evaluation: EvaluationMode,
    /// Paper §5.2 "Native" enhancement: stateless natives run where invoked.
    pub stateless_natives_local: bool,
    /// Paper §5.2 "Array" enhancement: primitive arrays placed per object.
    pub array_object_granularity: bool,
    /// Whether execution monitoring is attached at all.
    pub monitoring: bool,
    /// Virtual cost charged per monitoring event (models the paper's ~11%
    /// monitoring overhead; 0 disables the overhead model).
    pub monitor_event_micros: f64,
    /// Maximum number of offload operations (the prototype performs one).
    pub max_offloads: u32,
    /// Garbage-collector configuration (both VMs).
    pub gc: GcConfig,
    /// Virtual CPU cost model (both VMs).
    pub cost: CostModel,
    /// Carrier for the RPC link.
    pub transport: TransportKind,
    /// Optional fault injection on the client↔surrogate sessions: both
    /// directions are wrapped in a seeded chaos shim (hostile soak runs,
    /// record/replay tests). `None` leaves the carrier untouched.
    #[serde(default)]
    pub chaos: Option<ChaosSchedule>,
}

impl PlatformConfig {
    /// The paper's prototype setup: 6 MB client heap, large surrogate,
    /// WaveLAN link, 3.5× surrogate, memory policy freeing ≥ 20%, trigger
    /// at three successive cycles under 5% free, single offload.
    pub fn prototype(client_heap: u64) -> Self {
        PlatformConfig {
            client_heap,
            surrogate_heap: 64 << 20,
            comm: CommParams::WAVELAN,
            surrogate_speed: 3.5,
            trigger: TriggerConfig::default(),
            policy: PolicyKind::Memory {
                min_free_fraction: 0.20,
            },
            evaluation: EvaluationMode::OnMemoryPressure,
            stateless_natives_local: false,
            array_object_granularity: false,
            monitoring: true,
            monitor_event_micros: 0.0,
            max_offloads: 1,
            gc: GcConfig::default(),
            cost: CostModel::default(),
            transport: TransportKind::InProcess,
            chaos: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_defaults_match_paper() {
        let c = PlatformConfig::prototype(6 << 20);
        assert_eq!(c.client_heap, 6 << 20);
        assert_eq!(c.comm, CommParams::WAVELAN);
        assert_eq!(c.surrogate_speed, 3.5);
        assert_eq!(c.trigger.consecutive_reports, 3);
        assert!((c.trigger.low_free_fraction - 0.05).abs() < 1e-12);
        assert_eq!(c.max_offloads, 1);
        match c.policy {
            PolicyKind::Memory { min_free_fraction } => {
                assert!((min_free_fraction - 0.20).abs() < 1e-12);
            }
            other => panic!("unexpected policy {other:?}"),
        }
    }

    #[test]
    fn policies_build() {
        for kind in [
            PolicyKind::Memory {
                min_free_fraction: 0.2,
            },
            PolicyKind::Cpu { margin: 0.0 },
            PolicyKind::Combined {
                min_free_fraction: 0.2,
                margin: 0.05,
            },
        ] {
            let p = kind.build(CommParams::WAVELAN, 3.5);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn config_serde_round_trip() {
        let c = PlatformConfig::prototype(6 << 20);
        let json = serde_json::to_string(&c).unwrap();
        let back: PlatformConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn configs_without_a_partitioner_section_still_parse() {
        let c = PlatformConfig::prototype(6 << 20);
        let json = serde_json::to_string(&c).unwrap();
        let mut value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value.get("partitioner").is_none());
        // The section older writers put there, as a `traces/` header
        // carries it, is ignored.
        let trace = include_str!("../../../traces/editor.trace.jsonl");
        let header: serde_json::Value =
            serde_json::from_str(trace.lines().next().unwrap()).unwrap();
        let old = header["Header"]["config"]["partitioner"].clone();
        assert!(old.is_object(), "{header}");
        value["partitioner"] = old;
        let back: PlatformConfig = serde_json::from_str(&value.to_string()).unwrap();
        assert_eq!(back, c);
    }
}
