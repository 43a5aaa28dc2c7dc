//! The TCP carrier: real localhost sockets behind the unified transport
//! seam.
//!
//! Two shapes are provided, both built on the shared length-prefixed
//! framing in [`crate::wire`]:
//!
//! - [`tcp_pair`] / [`tcp_transport`]: one socket carrying exactly one
//!   [`Session`] (the historical carrier, still used by loopback
//!   experiments and benches as the connection-per-session baseline).
//! - [`TcpTransport`] / [`TcpMuxListener`]: one socket carrying many
//!   multiplexed sessions (see [`crate::mux`]), which is what the
//!   surrogate daemon and registry use — probes, leases, and stats
//!   scrapes to one surrogate share a single pooled connection.
//!
//! Both are the same write half (`CarrierWriter`) and the same read half
//! (`CarrierReader`); the first merely has no session tag. A caller reads
//! its own reply off the socket, and a worker reads its next request, each
//! giving up in time, which is why reads here can carry a deadline
//! (`SocketReads`).
//!
//! This module is the **only** place in the workspace allowed to touch
//! `TcpStream` (CI greps for leaks). Simulated link *timing* is unchanged
//! by the carrier choice — the WaveLAN model is applied by the endpoint.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_graph::CommParams;

use crate::link::{CarrierWriter, Inbox, Link, Session};
use crate::mux::{spawn_mux, CarrierReader, ConnKiller, MuxConn};
use crate::transport::{BackendKind, Transport};
use crate::wire::{timed_out, DeadlineRead};

/// A socket's read half whose reads can carry a deadline.
///
/// The deadline reaches the kernel as the socket's receive timeout, which
/// is set only when what is armed would overshoot the deadline or falls
/// short of half the time left: callers with a steady timeout re-use one
/// setting call after call, and a read that wakes early just goes round
/// again. A socket nobody ever read with a deadline never has the option
/// touched.
struct SocketReads {
    stream: TcpStream,
    armed: Option<Duration>,
}

impl SocketReads {
    fn new(stream: TcpStream) -> SocketReads {
        SocketReads {
            stream,
            armed: None,
        }
    }

    fn arm(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.armed = timeout;
        Ok(())
    }
}

impl DeadlineRead for SocketReads {
    fn read_by(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> std::io::Result<usize> {
        let Some(deadline) = deadline else {
            loop {
                match self.stream.read(buf) {
                    // The carrier has been idle for as long as the last
                    // caller's timeout: stop waking up for it.
                    Err(e) if self.armed.is_some() && timed_out(&e) => self.arm(None)?,
                    read => return read,
                }
            }
        };
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        if !self
            .armed
            .is_some_and(|armed| armed <= left && armed >= left / 2)
        {
            // Armed short of the time left, so that the next caller with
            // the same timeout — a moment less on its clock — fits too.
            self.arm(Some(left - left / 4))?;
        }
        self.stream.read(buf)
    }
}

/// Creates a connected pair of TCP-backed sessions over a fresh localhost
/// socket.
///
/// Returns `(link, client_session, surrogate_session)` exactly like
/// [`Link::pair`][crate::Link::pair].
///
/// # Errors
///
/// Returns any I/O error from binding, connecting, or accepting.
pub fn tcp_pair(params: CommParams) -> std::io::Result<(Link, Session, Session)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let client_stream = TcpStream::connect(addr)?;
    let (surrogate_stream, _) = listener.accept()?;
    client_stream.set_nodelay(true)?;
    surrogate_stream.set_nodelay(true)?;

    let client = single_session(client_stream)?;
    let surrogate = single_session(surrogate_stream)?;
    Ok((
        Link {
            params,
            clock: Arc::new(crate::link::NetClock::new()),
        },
        client,
        surrogate,
    ))
}

/// Wraps one already-connected socket in a single [`Session`]: senders
/// write their frames to the socket themselves, and the carrier's read half
/// — driven by its reader thread while nobody else drives it — pushes what
/// arrives into the session's inbox.
///
/// Frames are length-prefixed with a little-endian `u32` (the shared
/// framing in `wire.rs`); a prefix larger than the 64 MiB `MAX_FRAME` cap
/// or a mid-frame EOF tears the connection down, which callers observe as
/// a disconnected session. Inbound frames land in pooled buffers. The
/// socket's write half is shut down when the last clone of the session
/// drops.
///
/// # Errors
///
/// Returns any I/O error from cloning the stream for the writer half.
pub fn tcp_transport(stream: TcpStream) -> std::io::Result<Session> {
    single_session(stream)
}

/// The tag-less carrier: the mux's write half and read half with one route
/// and no `[session][kind]` header. Both ends of it are alike.
fn single_session(stream: TcpStream) -> std::io::Result<Session> {
    let telemetry = aide_telemetry::global();
    let write_half = stream.try_clone()?;
    let shutdown_half = stream.try_clone()?;
    let writer = CarrierWriter::new(
        write_half,
        telemetry.counter(aide_telemetry::names::TCP_FRAMES_SENT),
        telemetry.counter(aide_telemetry::names::TCP_BYTES_SENT),
        move || {
            let _ = shutdown_half.shutdown(std::net::Shutdown::Write);
        },
    );

    let inbox = Inbox::new();
    let (reader, _no_acceptor) = CarrierReader::spawn(
        SocketReads::new(stream),
        Some(Arc::clone(&inbox)),
        false,
        "rpc-tcp-reader",
        telemetry.counter(aide_telemetry::names::TCP_FRAMES_RECEIVED),
        telemetry.counter(aide_telemetry::names::TCP_BYTES_RECEIVED),
    );
    Ok(Session::on_carrier(
        writer,
        None,
        inbox,
        BackendKind::Tcp,
        &reader,
    ))
}

/// Wires an already-connected socket into a multiplexed connection.
fn mux_over(stream: TcpStream, initiator: bool) -> std::io::Result<MuxConn> {
    stream.set_nodelay(true)?;
    let read_half = stream.try_clone()?;
    let write_half = stream.try_clone()?;
    let killer = ConnKiller::new(move || {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    });
    let shutdown_half = write_half.try_clone()?;
    Ok(spawn_mux(
        SocketReads::new(read_half),
        write_half,
        initiator,
        killer,
        BackendKind::Tcp,
        move || {
            let _ = shutdown_half.shutdown(std::net::Shutdown::Write);
        },
    ))
}

/// The initiating side of a multiplexed TCP connection: one socket, many
/// logical sessions. This is the client-side [`Transport`] impl for the
/// TCP backend.
#[derive(Debug)]
pub struct TcpTransport {
    conn: MuxConn,
    peer: SocketAddr,
}

impl TcpTransport {
    /// Connects to `addr` and starts the mux reader thread.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from connecting or configuring the socket.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<TcpTransport> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Ok(TcpTransport {
            conn: mux_over(stream, true)?,
            peer: addr,
        })
    }

    /// The address this transport is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// A handle that severs the whole connection (every session on it).
    pub fn killer(&self) -> ConnKiller {
        self.conn.killer()
    }
}

impl Transport for TcpTransport {
    fn backend(&self) -> BackendKind {
        BackendKind::Tcp
    }

    fn open_session(&self) -> Result<Session, crate::link::LinkError> {
        self.conn.open_session()
    }
}

/// Listener side of the multiplexed TCP backend: each accepted socket
/// becomes a [`MuxConn`] that yields (and can open) many sessions.
#[derive(Debug)]
pub struct TcpMuxListener {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpMuxListener {
    /// Binds a listener on `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding.
    pub fn bind(addr: SocketAddr) -> std::io::Result<TcpMuxListener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpMuxListener { listener, addr })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the next client connects, returning the multiplexed
    /// connection (its [`Acceptor`] impl yields the client's sessions).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from accepting or configuring the socket.
    pub fn accept(&self) -> std::io::Result<MuxConn> {
        let (stream, _) = self.listener.accept()?;
        mux_over(stream, false)
    }
}

/// Pokes `addr` with a throwaway connection so a thread blocked in
/// [`TcpMuxListener::accept`] wakes up and can observe a stop flag (used
/// by the surrogate daemon's shutdown path).
pub fn nudge(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Dispatcher, Endpoint, EndpointConfig};
    use crate::transport::Acceptor;
    use crate::wire::{Reply, Request};
    use aide_vm::{ClassId, ObjectId};

    #[test]
    fn frames_cross_a_real_socket() {
        let (_, client, surrogate) = tcp_pair(CommParams::WAVELAN).unwrap();
        client.send(vec![1, 2, 3, 4]).unwrap();
        assert_eq!(surrogate.recv().unwrap(), vec![1, 2, 3, 4]);
        surrogate.send(vec![9; 100_000]).unwrap(); // larger than one MTU
        assert_eq!(client.recv().unwrap(), vec![9; 100_000]);
    }

    #[test]
    fn dropping_one_end_disconnects_the_other() {
        let (_, client, surrogate) = tcp_pair(CommParams::WAVELAN).unwrap();
        drop(client);
        // The peer sees EOF once the queue drains.
        assert!(surrogate.recv().is_err());
    }

    struct Fixed;
    impl Dispatcher for Fixed {
        fn dispatch(&self, _request: Request) -> Result<Reply, String> {
            Ok(Reply::Class(ClassId(9)))
        }
    }

    #[test]
    fn endpoints_run_rpc_over_tcp() {
        let (link, ct, st) = tcp_pair(CommParams::WAVELAN).unwrap();
        let clock = link.clock.clone();
        let client = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            std::sync::Arc::new(Fixed),
            EndpointConfig::default(),
        );
        let surrogate = Endpoint::start(
            st,
            link.params,
            clock,
            std::sync::Arc::new(Fixed),
            EndpointConfig::default(),
        );
        for _ in 0..50 {
            let reply = client
                .call(Request::ClassOf {
                    target: ObjectId::surrogate(1),
                })
                .unwrap();
            assert_eq!(reply, Reply::Class(ClassId(9)));
        }
        assert_eq!(surrogate.requests_served(), 50);
        // Simulated WaveLAN time accrues regardless of the carrier.
        assert!(client.clock().seconds() >= 50.0 * 2.4e-3);
        client.shutdown();
        surrogate.shutdown();
    }

    /// An accepted socket paired with a raw peer we can feed bytes through.
    fn raw_pair() -> (TcpStream, Session) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        accepted.set_nodelay(true).unwrap();
        raw.set_nodelay(true).unwrap();
        (raw, tcp_transport(accepted).unwrap())
    }

    #[test]
    fn tcp_transport_carries_well_formed_frames() {
        use std::io::Write;
        let (mut raw, transport) = raw_pair();
        raw.write_all(&3u32.to_le_bytes()).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        assert_eq!(transport.recv().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn oversized_length_prefix_disconnects_without_allocating() {
        use std::io::Write;
        let (mut raw, transport) = raw_pair();
        // A corrupted prefix claiming a frame beyond MAX_FRAME must tear
        // the connection down, not attempt a 4 GiB allocation.
        raw.write_all(&(crate::wire::MAX_FRAME + 1).to_le_bytes())
            .unwrap();
        raw.write_all(&[0u8; 16]).unwrap();
        assert!(transport.recv().is_err());
    }

    #[test]
    fn mid_frame_eof_disconnects_cleanly() {
        use std::io::Write;
        let (mut raw, transport) = raw_pair();
        // Announce 100 bytes, deliver 10, then hang up.
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[7u8; 10]).unwrap();
        drop(raw);
        assert!(transport.recv().is_err());
    }

    #[test]
    fn dead_socket_surfaces_disconnected_on_the_next_call() {
        let (link, ct, st) = tcp_pair(CommParams::WAVELAN).unwrap();
        let client = Endpoint::start(
            ct,
            link.params,
            link.clock.clone(),
            std::sync::Arc::new(Fixed),
            EndpointConfig {
                workers: 2,
                call_timeout: std::time::Duration::from_secs(5),
                drain_timeout: std::time::Duration::from_millis(200),
                ..EndpointConfig::default()
            },
        );
        // The peer dies without any endpoint ever serving it.
        drop(st);
        let err = client
            .call(Request::ClassOf {
                target: ObjectId::surrogate(1),
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                crate::endpoint::RpcError::Disconnected | crate::endpoint::RpcError::Timeout
            ),
            "expected a disconnect, got {err:?}"
        );
    }

    #[test]
    fn many_sessions_share_one_socket() {
        let listener = TcpMuxListener::bind(([127, 0, 0, 1], 0).into()).unwrap();
        let transport =
            TcpTransport::connect(listener.local_addr(), Duration::from_secs(1)).unwrap();
        let conn = listener.accept().unwrap();
        assert_eq!(transport.backend(), BackendKind::Tcp);

        let mut pairs = Vec::new();
        for _ in 0..4 {
            let client = transport.open_session().unwrap();
            let server = conn.accept().unwrap();
            pairs.push((client, server));
        }
        for (i, (client, server)) in pairs.iter().enumerate() {
            client.send(vec![i as u8; 8]).unwrap();
            assert_eq!(server.recv().unwrap(), vec![i as u8; 8]);
            server.send(vec![i as u8]).unwrap();
            assert_eq!(client.recv().unwrap(), vec![i as u8]);
        }
    }

    #[test]
    fn killing_the_connection_severs_every_session() {
        let listener = TcpMuxListener::bind(([127, 0, 0, 1], 0).into()).unwrap();
        let transport =
            TcpTransport::connect(listener.local_addr(), Duration::from_secs(1)).unwrap();
        let conn = listener.accept().unwrap();
        let c1 = transport.open_session().unwrap();
        let c2 = transport.open_session().unwrap();
        let s1 = conn.accept().unwrap();
        let s2 = conn.accept().unwrap();
        c1.send(vec![1]).unwrap();
        assert_eq!(s1.recv().unwrap(), vec![1]);
        conn.killer().kill();
        assert!(s2.recv().is_err());
        assert!(c2.recv().is_err());
        let _ = c1; // still held; its recv would fail the same way
    }
}
