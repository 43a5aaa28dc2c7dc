//! Transparent remote execution between two AIDE virtual machines.
//!
//! The paper modifies two JVMs so that accesses to remote objects become
//! "transparent RPCs between two JVMs", where "either JVM that receives a
//! request uses a pool of threads to perform RPCs on behalf of the other
//! JVM" (§3.2). This crate is that layer:
//!
//! * [`Message`] / [`Request`] / [`Reply`] — the RPC protocol: one frame
//!   format (version 5, a [`FrameHeader`] then the message) behind one
//!   hand-rolled length-safe binary codec, [`Message::encode_stamped`] /
//!   [`Message::decode_framed`]. A frame is a `Vec<u8>`: each encode and
//!   each carrier read fills one of its own.
//! * [`Session`] — one end of a duplex frame channel, whichever backend
//!   carries it. Each backend has one pair constructor: in-memory inboxes
//!   ([`Link::pair`]) and a loopback TCP carrier ([`tcp_pair`]). A TCP
//!   carrier multiplexes many sessions over one socket; both of its ends
//!   are a [`MuxConn`], one dialled ([`MuxConn::connect`]) and one that a
//!   [`TcpMuxListener`] accepts.
//! * [`Link`] — a duplex in-process frame link standing in for the WaveLAN
//!   socket, with real traffic statistics and a shared [`NetClock`]
//!   accumulating *simulated* link seconds priced by
//!   [`aide_graph::CommParams`].
//! * [`Endpoint`] — request/reply correlation (one round-trip routine
//!   behind [`Endpoint::call`] and [`Endpoint::call_with_retry`]) plus the
//!   serving [`WorkerPool`] that re-enters the interpreter to serve the
//!   peer: an endpoint's own, grown on demand, or one that the surrogate
//!   daemon's sessions share. It has no receiver thread: whoever produces an
//!   inbound frame (a carrier's reader, the in-process peer's sending
//!   thread) decodes it and completes the waiting call or hands the request
//!   to a worker — to the worker reading, when a worker reads its own next
//!   request off the carrier — so a call over TCP is two thread hand-offs
//!   (three when it meets the carrier's own thread) and four syscalls. A
//!   touch whose reply carries nothing is not a call at all:
//!   [`Endpoint::defer`] puts it on the next frame to the peer.
//! * [`Responder`] — the serving half of the protocol, once: at-most-once
//!   execution with memoized replies, the serve span, the stamped reply
//!   frame. Whoever serves for an endpoint runs it.
//! * [`ExportTable`] / [`ImportTable`] — cross-VM reference bookkeeping for
//!   the distributed garbage collection scheme, hardened with lease/epoch
//!   reclamation (TTL deadlines on a manual [`GcClock`], watermarked
//!   idempotent releases, epoch sweeps after failover).
//!
//! # Examples
//!
//! Two endpoints answering each other's class-resolution requests:
//!
//! ```
//! use std::sync::Arc;
//! use aide_graph::CommParams;
//! use aide_rpc::{Dispatcher, Endpoint, EndpointConfig, Link, Reply, Request};
//!
//! struct Fixed;
//! impl Dispatcher for Fixed {
//!     fn dispatch(&self, _request: Request) -> Result<Reply, String> {
//!         Ok(Reply::Class(aide_vm::ClassId(3)))
//!     }
//! }
//!
//! let (link, ct, st) = Link::pair(CommParams::WAVELAN);
//! let clock = link.clock.clone();
//! let client = Endpoint::start(ct, link.params, clock.clone(), Arc::new(Fixed),
//!                              EndpointConfig::default());
//! let surrogate = Endpoint::start(st, link.params, clock, Arc::new(Fixed),
//!                                 EndpointConfig::default());
//! let reply = client.call(Request::ClassOf { target: aide_vm::ObjectId::surrogate(1) })?;
//! assert_eq!(reply, Reply::Class(aide_vm::ClassId(3)));
//! client.shutdown();
//! surrogate.shutdown();
//! # Ok::<(), aide_rpc::RpcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chaos;
mod endpoint;
mod link;
mod mux;
mod pool;
mod reftable;
mod responder;
mod rng;
mod tcp;
mod wire;

pub use aide_telemetry::SpanContext;
pub use chaos::{chaos_pair, chaos_wrap, ChaosPairStats, ChaosSchedule, ChaosStats};
pub use endpoint::{
    BackoffConfig, Dispatcher, Endpoint, EndpointConfig, RetryPolicy, RpcError, DEFER_LIMIT,
};
pub use link::{BackendKind, Delivered, Link, LinkError, NetClock, Session, TrafficStats};
pub use mux::{ConnKiller, MuxConn, MuxStats};
pub use pool::WorkerPool;
pub use reftable::{
    live_remote_refs, ExportTable, GcClock, ImportTable, ReleaseOutcome, ReleaseStats,
    DEFAULT_LEASE_TTL_MS,
};
pub use responder::{
    deferred_invoke_in_service, dispatch_deferred, Responder, Served, ServingInvokes, TouchFailure,
};
pub use rng::Xorshift64;
pub use tcp::{dial_raw, nudge, tcp_pair, TcpMuxListener};
pub use wire::{
    crc32, FrameHeader, LeaseStamp, Message, Reply, Request, Touches, WireError, PROTOCOL_VERSION,
};
