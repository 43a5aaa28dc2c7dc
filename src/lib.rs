//! AIDE: an adaptive, transparently distributed platform for
//! resource-constrained devices — a Rust reproduction of the ICDCS 2002
//! paper "Towards a Distributed Platform for Resource-Constrained Devices".
//!
//! This umbrella crate re-exports the workspace's components:
//!
//! * [`vm`] — the managed runtime substrate (heap, GC, interpreter, hooks).
//! * [`graph`] — execution graphs, Stoer-Wagner, the modified-MINCUT
//!   heuristic, and partitioning policies.
//! * [`rpc`] — the transparent remote-execution substrate (wire codec,
//!   endpoints, distributed GC tables).
//! * [`core`] — the AIDE platform: monitoring, partitioning, offloading,
//!   and the two-VM prototype driver.
//! * [`emu`] — the trace-driven emulator, deterministic record/replay of
//!   the decision pipeline (versioned traces of every nondeterministic
//!   input, bit-identical timeline replay with strict divergence
//!   detection), and the parallel sweep driver behind Figure 7 and
//!   what-if policy sweeps.
//! * [`apps`] — models of the paper's five evaluation applications.
//! * [`surrogate`] — the surrogate daemon, UDP-beacon discovery, the
//!   RTT-ranked registry, and failover onto standby surrogates.
//! * [`telemetry`] — platform-wide observability: causal spans propagated
//!   across the RPC wire with Chrome/Perfetto export and per-migration
//!   critical-path attribution, the decision flight recorder, and the
//!   process-wide counter with its Prometheus-style exporter.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `EXPERIMENTS.md` for the paper-versus-measured results.
//!
//! # Examples
//!
//! ```
//! use aide::core::{Platform, PlatformConfig};
//! use aide::apps::{javanote, Scale};
//!
//! // A small JavaNote on an unconstrained platform.
//! let app = javanote(Scale(0.02));
//! let report = Platform::new(app.program, PlatformConfig::prototype(64 << 20)).run();
//! assert!(report.outcome.is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aide_apps as apps;
pub use aide_core as core;
pub use aide_emu as emu;
pub use aide_graph as graph;
pub use aide_rpc as rpc;
pub use aide_surrogate as surrogate;
pub use aide_telemetry as telemetry;
pub use aide_vm as vm;
