//! The unified transport seam: one trait pair every backend implements.
//!
//! A [`Transport`] opens logical [`Session`]s toward a peer; an
//! [`Acceptor`] yields the matching peer ends. Two backends implement
//! the pair:
//!
//! - **In-memory** ([`channel_transport`]): in-process inbox pairs, the
//!   prototype's stand-in for a local socket.
//! - **TCP** (`crate::tcp::TcpTransport` / `crate::tcp::TcpMuxListener`):
//!   many sessions multiplexed over one real socket.
//!
//! Everything above this seam — [`Endpoint`](crate::Endpoint) retry and
//! dedup, [`chaos_wrap`](crate::chaos_wrap), CRC framing, telemetry — is
//! backend-agnostic: it sees only [`Session`]s, so chaos soaks and wire
//! hardening exercise both backends identically. Simulated link time is
//! not a transport concern: the endpoint charges it per call to the
//! [`NetClock`](crate::NetClock) it was started with.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::link::{session_pair, LinkError, Session};

/// Which carrier a session rides on. Used to label telemetry per backend;
/// the RPC layer is otherwise oblivious.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Inbox pair inside one process.
    InMemory,
    /// Real TCP socket (possibly multiplexed).
    Tcp,
}

impl BackendKind {
    /// Short stable label for telemetry and bench output.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::InMemory => "inmem",
            BackendKind::Tcp => "tcp",
        }
    }
}

/// The initiating side of a backend: opens logical sessions toward the
/// peer. Object-safe so platform code can hold a `dyn Transport` chosen
/// from configuration.
pub trait Transport: Send + Sync {
    /// Which backend this transport drives.
    fn backend(&self) -> BackendKind;

    /// Opens a new logical session toward the peer.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::Disconnected`] when the peer (or the carrier
    /// underneath) is gone.
    fn open_session(&self) -> Result<Session, LinkError>;
}

/// The accepting side of a backend: yields the peer end of each session
/// the remote [`Transport`] opens.
pub trait Acceptor: Send + Sync {
    /// Blocks until the peer opens the next session and returns our end.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::Disconnected`] when the carrier is gone and no
    /// further sessions can arrive.
    fn accept(&self) -> Result<Session, LinkError>;
}

/// In-process [`Transport`]: each `open_session` builds a fresh session
/// pair and hands the peer end to the matching [`ChannelAcceptor`].
#[derive(Debug)]
pub struct ChannelTransport {
    peer_tx: Sender<Session>,
    sessions_opened: Arc<aide_telemetry::Counter>,
}

/// Accepting side of a [`ChannelTransport`].
#[derive(Debug)]
pub struct ChannelAcceptor {
    peer_rx: Receiver<Session>,
}

/// Creates a connected in-memory transport/acceptor pair.
pub fn channel_transport() -> (ChannelTransport, ChannelAcceptor) {
    let (peer_tx, peer_rx) = unbounded();
    (
        ChannelTransport {
            peer_tx,
            sessions_opened: aide_telemetry::global().counter(aide_telemetry::names::MUX_SESSIONS),
        },
        ChannelAcceptor { peer_rx },
    )
}

impl Transport for ChannelTransport {
    fn backend(&self) -> BackendKind {
        BackendKind::InMemory
    }

    fn open_session(&self) -> Result<Session, LinkError> {
        let (ours, theirs) = session_pair(BackendKind::InMemory);
        self.peer_tx
            .send(theirs)
            .map_err(|_| LinkError::Disconnected)?;
        self.sessions_opened.inc();
        Ok(ours)
    }
}

impl Acceptor for ChannelAcceptor {
    fn accept(&self) -> Result<Session, LinkError> {
        self.peer_rx.recv().map_err(|_| LinkError::Disconnected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_transport_round_trips_frames() {
        let (t, a) = channel_transport();
        let client = t.open_session().unwrap();
        let server = a.accept().unwrap();
        assert_eq!(client.backend(), BackendKind::InMemory);
        client.send(vec![1, 2, 3]).unwrap();
        assert_eq!(server.recv().unwrap(), vec![1, 2, 3]);
        server.send(vec![9]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![9]);
    }

    #[test]
    fn each_open_session_is_isolated() {
        let (t, a) = channel_transport();
        let c1 = t.open_session().unwrap();
        let c2 = t.open_session().unwrap();
        let s1 = a.accept().unwrap();
        let s2 = a.accept().unwrap();
        c1.send(vec![1]).unwrap();
        c2.send(vec![2]).unwrap();
        assert_eq!(s1.recv().unwrap(), vec![1]);
        assert_eq!(s2.recv().unwrap(), vec![2]);
    }

    #[test]
    fn acceptor_disconnects_when_transport_drops() {
        let (t, a) = channel_transport();
        drop(t);
        assert_eq!(a.accept().unwrap_err(), LinkError::Disconnected);
    }
}
