//! The TCP carrier: one socket carrying many multiplexed sessions (see
//! [`crate::mux`]), over the length-prefixed framing in [`crate::wire`].
//!
//! - [`MuxConn::connect`] dials a carrier and [`TcpMuxListener`] accepts
//!   them; the surrogate daemon and registry use these, so probes, leases
//!   and stats scrapes to one surrogate share a single pooled connection.
//! - [`tcp_pair`] is the TCP counterpart of [`Link::pair`]: one session
//!   pair over a loopback carrier of its own, for a two-VM platform run,
//!   tests and benches.
//!
//! A caller reads its own reply off the socket, and a worker reads its next
//! request, each giving up in time, which is why reads here can carry a
//! deadline (`SocketReads`).
//!
//! This module is the **only** place in the workspace allowed to touch
//! `TcpStream` (CI greps for leaks). Simulated link *timing* is unchanged
//! by the carrier choice — the WaveLAN model is applied by the endpoint.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use aide_graph::CommParams;

use crate::link::{Link, LinkError, Session};
use crate::mux::{spawn_mux, ConnKiller, MuxConn};
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

/// Creates a connected pair of sessions over a fresh localhost socket: a
/// multiplexed carrier of their own, with one session opened on it.
///
/// Returns `(link, client_session, surrogate_session)` exactly like
/// [`Link::pair`].
///
/// # Errors
///
/// Returns any I/O error from binding, connecting, or accepting.
pub fn tcp_pair(params: CommParams) -> std::io::Result<(Link, Session, Session)> {
    let listener = TcpMuxListener::bind(SocketAddr::from(([127, 0, 0, 1], 0)))?;
    let dialled = MuxConn::connect(listener.local_addr(), Duration::from_secs(2))?;
    let accepted = listener.accept()?;
    let aborted = |e: LinkError| std::io::Error::new(std::io::ErrorKind::ConnectionAborted, e);
    let client = dialled.open_session().map_err(aborted)?;
    let surrogate = accepted.accept().map_err(aborted)?;
    Ok((Link::new(params), client, surrogate))
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
        move || {
            let _ = shutdown_half.shutdown(std::net::Shutdown::Write);
        },
    ))
}

impl MuxConn {
    /// Dials `addr` and starts the connection's reader thread: the dialling
    /// end of a multiplexed TCP carrier ([`TcpMuxListener::accept`] yields
    /// the other).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from connecting or configuring the socket.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<MuxConn> {
        mux_over(TcpStream::connect_timeout(&addr, timeout)?, true)
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
    /// connection ([`MuxConn::accept`] yields the client's sessions).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from accepting or configuring the socket.
    pub fn accept(&self) -> std::io::Result<MuxConn> {
        let (stream, _) = self.listener.accept()?;
        mux_over(stream, false)
    }
}

/// Dials `addr` and returns the bare socket, with no carrier on it: a peer
/// that writes the mux framing by hand — hand-built OPENs, hostile or
/// broken frames — at a [`TcpMuxListener`]. Nagle is off, so each write
/// leaves at once.
///
/// # Errors
///
/// Returns any I/O error from connecting or configuring the socket.
pub fn dial_raw(addr: SocketAddr) -> std::io::Result<impl Read + std::io::Write + Send> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
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
    use crate::link::BackendKind;
    use crate::mux::{mux_head, KIND_DATA, KIND_OPEN};
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
        // Simulated WaveLAN time accrues regardless of the carrier: a
        // `ClassOf` carries no payload, so each is one round trip.
        assert!((client.clock().seconds() - 50.0 * 2.4e-3).abs() < 1e-12);
        client.shutdown();
        surrogate.shutdown();
    }

    /// The session a raw peer we can feed bytes through opened on an
    /// accepted carrier: session 1, whose frames are `[len][1][kind]…`.
    fn raw_pair() -> (impl std::io::Write, Session) {
        use std::io::Write;
        let listener = TcpMuxListener::bind(([127, 0, 0, 1], 0).into()).unwrap();
        let mut raw = dial_raw(listener.local_addr()).unwrap();
        let conn = listener.accept().unwrap();
        raw.write_all(&5u32.to_le_bytes()).unwrap();
        raw.write_all(&mux_head(1, KIND_OPEN)).unwrap();
        (raw, conn.accept().unwrap())
    }

    #[test]
    fn well_formed_frames_from_a_raw_peer_arrive() {
        use std::io::Write;
        let (mut raw, session) = raw_pair();
        raw.write_all(&8u32.to_le_bytes()).unwrap();
        raw.write_all(&mux_head(1, KIND_DATA)).unwrap();
        raw.write_all(&[1, 2, 3]).unwrap();
        assert_eq!(session.recv().unwrap(), vec![1, 2, 3]);
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
        let transport = MuxConn::connect(listener.local_addr(), Duration::from_secs(1)).unwrap();
        let conn = listener.accept().unwrap();

        let mut pairs = Vec::new();
        for _ in 0..4 {
            let client = transport.open_session().unwrap();
            let server = conn.accept().unwrap();
            assert_eq!(client.backend(), BackendKind::Tcp);
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
        let transport = MuxConn::connect(listener.local_addr(), Duration::from_secs(1)).unwrap();
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
