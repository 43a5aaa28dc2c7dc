//! AIDE: an adaptive, transparent distributed platform for
//! resource-constrained devices.
//!
//! This crate assembles the three platform modules of the paper
//! "Towards a Distributed Platform for Resource-Constrained Devices"
//! (ICDCS 2002) on top of the [`aide_vm`] runtime and the [`aide_rpc`]
//! remote-execution substrate:
//!
//! * [`Monitor`] — records execution monitoring information as a weighted
//!   execution graph (and feeds the memory-pressure trigger).
//! * [`partitioner`] — applies the modified-MINCUT heuristic and a
//!   [`aide_graph::PartitionPolicy`] to decide whether a beneficial
//!   offloading exists.
//! * [`Platform`] — the full two-VM distributed platform: it runs an
//!   application on the client VM, offloads selected objects to the
//!   surrogate over a real RPC link when resources run low, and keeps
//!   executing with transparent remote invocations, client-pinned natives
//!   and statics, and distributed garbage collection.
//! * [`SurrogateProvider`] / [`Platform::with_surrogates`] — provider-backed
//!   surrogate acquisition with failover: when the surrogate dies, offloaded
//!   objects are reinstated into the client heap and offloading retries
//!   against the next surrogate (the `aide-surrogate` crate supplies the
//!   daemon, discovery, and ranking).
//!
//! # Examples
//!
//! Running a program under the paper's prototype configuration:
//!
//! ```
//! use std::sync::Arc;
//! use aide_core::{Platform, PlatformConfig};
//! use aide_vm::{MethodDef, Op, ProgramBuilder, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! let main = b.add_class("Main");
//! b.add_method(main, MethodDef::new("main", vec![Op::Work { micros: 50 }]));
//! let program = Arc::new(b.build(main, aide_vm::MethodId(0), 64, 4)?);
//!
//! let platform = Platform::new(program, PlatformConfig::prototype(6 << 20));
//! let report = platform.run();
//! assert!(report.outcome.is_ok());
//! assert!(!report.offloaded()); // tiny program: no pressure, no offload
//! # Ok::<(), aide_vm::VmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod config;
mod failover;
mod monitor;
mod nondet;
mod offload;
pub mod partitioner;
mod platform;
mod relay;

pub use adapter::{AdapterStats, RefTables, RemoteAdapter, VmDispatcher};
pub use config::{EvaluationMode, PlatformConfig, PolicyKind, TransportKind};
// `BackoffConfig` is `FailoverConfig::backoff`'s type, defined beside the
// RPC retry loop that shares its delay.
pub use aide_rpc::BackoffConfig;
pub use failover::{
    FailoverConfig, FailoverReport, ProviderContext, SurrogateLease, SurrogateProvider,
};
pub use monitor::{Monitor, MonitorMetrics, NodeKey, RemoteStats, TriggerConfig};
pub use nondet::{LiveSource, MigrationRecord, NondetSource, TriggerSample};
pub use offload::{execute_offload_tracked, OffloadOutcome, TrackedOffload};
pub use partitioner::{
    decide_with, HeuristicKind, IncrementalPartitioner, PartitionDecision, PartitionerConfig,
};
pub use platform::{OffloadEvent, Platform, PlatformReport};
pub use relay::{RelayShipment, RelaySink};
