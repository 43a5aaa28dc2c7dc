//! Surrogate daemon, discovery, and failover for the AIDE platform.
//!
//! The paper's surrogates are nearby, better-provisioned machines that
//! lend memory and cycles to resource-constrained devices. This crate
//! supplies the pieces that turn the in-process prototype into that
//! deployment shape:
//!
//! * [`SurrogateDaemon`] — a long-running TCP daemon serving any number of
//!   concurrent client sessions, each an [`Endpoint`](aide_rpc::Endpoint)
//!   with its own surrogate VM, reference tables, and dispatcher, served by
//!   a few shared one-worker pools ([`ShardPool`]) under admission control
//!   (plus an optional fault injector that crashes a session on a named
//!   request, such as its first `GetSlot`, for failover testing). Its threads do not grow with its sessions.
//! * [`beacon`] — UDP announcements so surrogates are discovered rather
//!   than configured; static registration remains the fallback.
//! * [`SurrogateRegistry`] — the client-side directory: merges discovered
//!   and static surrogates, health-checks them with null-RPC probes (the
//!   paper measures 2.4 ms per null RPC on WaveLAN), ranks them by
//!   `RTT / capacity`, and implements
//!   [`SurrogateProvider`](aide_core::SurrogateProvider) so
//!   `Platform::with_surrogates` can lease the best surrogate and fail
//!   over down the ranking when one dies.
//!
//! The `aide-surrogate` binary wraps [`SurrogateDaemon`] around the
//! paper's application models (`aide-apps`) for manual end-to-end runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
mod daemon;
mod registry;
mod relay;
mod shard;

pub use beacon::{
    decode_announcement, encode_announcement, listen_for_announcements, Announcement, BeaconConfig,
    BEACON_MAGIC,
};
pub use daemon::{DaemonConfig, SurrogateDaemon};
pub use registry::{placement_order, RegistryConfig, SurrogateInfo, SurrogateRegistry};
pub use relay::{RelayConfig, RelayQueue, RelayStats};
pub use shard::{SessionParts, ShardConfig, ShardPool};
