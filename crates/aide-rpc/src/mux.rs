//! Session multiplexing: many logical RPC sessions over one byte-stream
//! carrier.
//!
//! This replaces the surrogate daemon's connection-per-session model. A
//! multiplexed frame rides the carrier as
//!
//! ```text
//! [len u32 LE][session u32 LE][kind u8][payload …]
//!             `------------ len bytes ------------'
//! ```
//!
//! where `kind` is [`KIND_DATA`], [`KIND_OPEN`], or [`KIND_CLOSE`]. The
//! initiating side allocates odd session ids and the accepting side even
//! ones, so both peers can open sessions concurrently without collisions.
//!
//! There is no writer thread: a sender composes its frame and issues the
//! one `write_all` itself, under the carrier's writer mutex
//! (`CarrierWriter`). One reader thread, behind a 64 KiB `BufReader`,
//! demultiplexes inbound frames and *runs each session's consumer itself*
//! — the session's inbox queue until a sink is attached, the sink (decode,
//! complete a call or enqueue a job) afterwards. The rule that keeps this
//! deadlock-free: the reader never writes to a carrier and blocks on
//! nothing but its socket, so a slow session never stalls its siblings.
//!
//! The module is generic over `Read`/`Write` carriers; the only TCP-aware
//! code lives in `crate::tcp`, which wires a socket's two halves in here.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::link::{CarrierWriter, Inbox, LinkError, Session};
use crate::transport::{Acceptor, BackendKind, Transport};
use crate::wire::{read_framed, Frame, READ_BUFFER};

/// Application frame for an established session.
pub(crate) const KIND_DATA: u8 = 0;
/// The peer opened a new session with this id.
pub(crate) const KIND_OPEN: u8 = 1;
/// The peer finished the session with this id.
pub(crate) const KIND_CLOSE: u8 = 2;

/// Bytes of mux header inside the length-delimited frame.
const MUX_HEADER: usize = 5;

/// The mux's per-frame header: `[session u32 LE][kind u8]`.
pub(crate) fn mux_head(session: u32, kind: u8) -> [u8; MUX_HEADER] {
    let id = session.to_le_bytes();
    [id[0], id[1], id[2], id[3], kind]
}

/// A cloneable handle that severs the underlying carrier, taking every
/// session on the connection down with it (used for injected surrogate
/// crashes and daemon shutdown).
#[derive(Clone)]
pub struct ConnKiller(Arc<dyn Fn() + Send + Sync>);

impl ConnKiller {
    /// Wraps a closure that forcibly closes the carrier.
    pub fn new(f: impl Fn() + Send + Sync + 'static) -> Self {
        ConnKiller(Arc::new(f))
    }

    /// A killer that does nothing (carriers that die by being dropped).
    pub fn noop() -> Self {
        ConnKiller::new(|| {})
    }

    /// Severs the carrier.
    pub fn kill(&self) {
        (self.0)()
    }
}

impl std::fmt::Debug for ConnKiller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ConnKiller")
    }
}

type Routes = Arc<Mutex<HashMap<u32, Arc<Inbox>>>>;

/// One inbound event from a bus-routed carrier (see
/// [`MuxConn::route_accepts_to`]). Events for all sessions of a carrier —
/// and, at the consumer's choice, of many carriers — go to one
/// [`BusSink`], so a bounded pool of workers can serve every session
/// without a thread or an acceptor handoff per session.
///
/// `Opened` may be delivered more than once for the same session (a
/// duplicate OPEN, or data racing ahead of its OPEN): consumers must treat
/// it as idempotent and `Data` for an unknown session as an implicit open.
#[derive(Debug)]
pub enum BusEvent {
    /// The peer opened session `session` on carrier `conn`.
    Opened {
        /// Consumer-assigned carrier id.
        conn: u64,
        /// Mux session id within the carrier.
        session: u32,
    },
    /// An application frame for `session` on carrier `conn`.
    Data {
        /// Consumer-assigned carrier id.
        conn: u64,
        /// Mux session id within the carrier.
        session: u32,
        /// The encoded RPC frame.
        frame: Frame,
    },
    /// The peer finished session `session` on carrier `conn`.
    Closed {
        /// Consumer-assigned carrier id.
        conn: u64,
        /// Mux session id within the carrier.
        session: u32,
    },
    /// Carrier `conn` died: every session on it is implicitly closed.
    CarrierClosed {
        /// Consumer-assigned carrier id.
        conn: u64,
    },
}

/// Consumes the [`BusEvent`]s of bus-routed carriers **on each carrier's
/// reader thread**. An implementation must not write to a carrier and must
/// not block: it routes the event onto a queue some worker drains (the
/// surrogate daemon's shard pool hashes `(conn, session)` onto a shard
/// queue here, with no forwarding thread in between).
pub trait BusSink: Send + Sync {
    /// One event; events of one carrier arrive in carrier order, and
    /// [`BusEvent::CarrierClosed`] is the last for its `conn`.
    fn deliver(&self, event: BusEvent);
}

/// Where the reader routes peer-initiated sessions: a per-session inbox
/// handed out by the acceptor (default) or a shared event sink.
enum PeerSink {
    /// Classic mode: each peer session gets its own inbox, handed to
    /// [`Acceptor::accept`].
    Accept,
    /// Bus mode: OPEN/DATA/CLOSE for peer sessions become [`BusEvent`]s.
    Bus { conn: u64, sink: Arc<dyn BusSink> },
}

/// The outbound half of a bus-routed carrier: lets any worker thread reply
/// on any of the carrier's sessions. Cloneable and cheap; every clone
/// writes through the carrier's one writer mutex.
#[derive(Clone, Debug)]
pub struct MuxSender {
    conn: u64,
    writer: Arc<CarrierWriter>,
    killer: ConnKiller,
}

impl MuxSender {
    /// The consumer-assigned carrier id this sender writes to.
    pub fn conn(&self) -> u64 {
        self.conn
    }

    /// Writes an application frame for `session`.
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] if the carrier is dead.
    pub fn send(&self, session: u32, frame: Frame) -> Result<(), LinkError> {
        self.writer.send(&mux_head(session, KIND_DATA), &frame)
    }

    /// Tells the peer `session` is finished (fire-and-forget).
    pub fn close(&self, session: u32) {
        let _ = self.writer.send(&mux_head(session, KIND_CLOSE), &[]);
    }

    /// A handle that severs the whole carrier.
    pub fn killer(&self) -> ConnKiller {
        self.killer.clone()
    }
}

/// One end of a multiplexed connection. Implements both [`Transport`]
/// (open sessions toward the peer) and [`Acceptor`] (receive sessions the
/// peer opened); either side may do both.
///
/// Dropping the `MuxConn` does not tear down live sessions: each session
/// keeps the shared write half alive through its own handle.
pub struct MuxConn {
    writer: Arc<CarrierWriter>,
    accepted_rx: Receiver<(u32, Arc<Inbox>)>,
    routes: Routes,
    sink: Arc<Mutex<PeerSink>>,
    next_id: AtomicU32,
    parity: u32,
    backend: BackendKind,
    killer: ConnKiller,
    sessions_opened: Arc<aide_telemetry::Counter>,
}

impl std::fmt::Debug for MuxConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxConn")
            .field("initiator", &(self.parity == 1))
            .field("backend", &self.backend)
            .finish_non_exhaustive()
    }
}

impl MuxConn {
    /// Our end of session `id`: the carrier's write half plus `inbox`.
    fn session(&self, id: u32, inbox: Arc<Inbox>) -> Session {
        self.sessions_opened.inc();
        Session::on_carrier(Arc::clone(&self.writer), Some(id), inbox, self.backend)
    }

    /// A handle that severs the whole connection.
    pub fn killer(&self) -> ConnKiller {
        self.killer.clone()
    }

    /// The outbound handle for this carrier under the consumer-assigned id
    /// `conn`, without switching routing modes. A serving pool registers
    /// the carrier with this *before* calling
    /// [`route_accepts_to`](MuxConn::route_accepts_to), so no bus event
    /// can reach a worker that has not yet seen the carrier's sender.
    pub fn bus_sender(&self, conn: u64) -> MuxSender {
        MuxSender {
            conn,
            writer: Arc::clone(&self.writer),
            killer: self.killer.clone(),
        }
    }

    /// Switches this carrier into *bus mode*: instead of materializing an
    /// inbox and an [`Acceptor::accept`] handoff per peer-opened session,
    /// the reader hands every peer session's OPEN/DATA/CLOSE to `sink` as
    /// [`BusEvent`]s tagged with `conn`. Returns the carrier's
    /// [`MuxSender`], which any worker can use to reply on any session.
    ///
    /// Sessions the peer opened *before* the switch are drained into the
    /// sink (an `Opened` plus their queued frames), so nothing observed by
    /// the reader is lost; in-order delivery per session is preserved
    /// because the drain and the reader's dispatch serialize on the sink
    /// lock. Locally-initiated sessions ([`Transport::open_session`]) are
    /// unaffected and keep their dedicated inboxes.
    pub fn route_accepts_to(&self, conn: u64, sink: Arc<dyn BusSink>) -> MuxSender {
        let mut current = self.sink.lock();
        while let Ok((id, inbox)) = self.accepted_rx.try_recv() {
            sink.deliver(BusEvent::Opened { conn, session: id });
            for frame in inbox.take_queued() {
                sink.deliver(BusEvent::Data {
                    conn,
                    session: id,
                    frame,
                });
            }
            self.routes.lock().remove(&id);
        }
        *current = PeerSink::Bus { conn, sink };
        drop(current);
        self.bus_sender(conn)
    }
}

impl Transport for MuxConn {
    fn backend(&self) -> BackendKind {
        self.backend
    }

    fn open_session(&self) -> Result<Session, LinkError> {
        let n = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id = (n << 1) | self.parity;
        let inbox = Inbox::new();
        self.routes.lock().insert(id, Arc::clone(&inbox));
        if self.writer.send(&mux_head(id, KIND_OPEN), &[]).is_err() {
            self.routes.lock().remove(&id);
            return Err(LinkError::Disconnected);
        }
        Ok(self.session(id, inbox))
    }
}

impl Acceptor for MuxConn {
    fn accept(&self) -> Result<Session, LinkError> {
        // The reader hands over only `(id, inbox)`; the session is
        // assembled here so the reader thread never holds the write half
        // (which would keep it open after every handle dropped).
        let (id, inbox) = self
            .accepted_rx
            .recv()
            .map_err(|_| LinkError::Disconnected)?;
        Ok(self.session(id, inbox))
    }
}

/// Starts the reader thread for one multiplexed connection and returns the
/// local handle. `initiator` decides session-id parity; `on_writer_drop`
/// runs when the last handle on the write half goes away (e.g. to shut
/// down a socket's write half so the peer sees EOF).
pub(crate) fn spawn_mux<R, W>(
    reader: R,
    writer: W,
    initiator: bool,
    killer: ConnKiller,
    backend: BackendKind,
    on_writer_drop: impl FnOnce() + Send + Sync + 'static,
) -> MuxConn
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let telemetry = aide_telemetry::global();
    let frames = telemetry.counter(aide_telemetry::names::MUX_FRAMES);
    let bytes = telemetry.counter(aide_telemetry::names::MUX_BYTES);

    let writer = CarrierWriter::new(
        writer,
        Arc::clone(&frames),
        Arc::clone(&bytes),
        on_writer_drop,
    );
    let (accepted_tx, accepted_rx) = unbounded::<(u32, Arc<Inbox>)>();
    let routes: Routes = Arc::new(Mutex::new(HashMap::new()));
    let sink: Arc<Mutex<PeerSink>> = Arc::new(Mutex::new(PeerSink::Accept));
    let parity = u32::from(initiator);

    {
        let routes = Arc::clone(&routes);
        let sink = Arc::clone(&sink);
        std::thread::Builder::new()
            .name("rpc-mux-reader".into())
            .spawn(move || {
                let mut reader = BufReader::with_capacity(READ_BUFFER, reader);
                while let Ok((head, frame)) = read_framed::<MUX_HEADER>(&mut reader) {
                    let id = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
                    let kind = head[4];
                    frames.inc();
                    bytes.add((4 + MUX_HEADER + frame.len()) as u64);
                    if kind != KIND_OPEN && kind != KIND_CLOSE && kind != KIND_DATA {
                        break;
                    }
                    let peer_initiated = (id & 1) != parity;
                    // Held across the whole dispatch of a peer session's
                    // frame: it serializes against route_accepts_to's
                    // drain, which is what keeps per-session frame order
                    // intact across the switch.
                    let peer_sink = peer_initiated.then(|| sink.lock());
                    if let Some(PeerSink::Bus { conn, sink }) = peer_sink.as_deref() {
                        let (conn, session) = (*conn, id);
                        sink.deliver(match kind {
                            KIND_OPEN => BusEvent::Opened { conn, session },
                            KIND_CLOSE => BusEvent::Closed { conn, session },
                            _ => BusEvent::Data {
                                conn,
                                session,
                                frame,
                            },
                        });
                        continue;
                    }
                    match kind {
                        KIND_OPEN => {
                            open_route(&routes, &accepted_tx, id);
                        }
                        KIND_CLOSE => {
                            if let Some(inbox) = routes.lock().remove(&id) {
                                inbox.close();
                            }
                        }
                        _ => {
                            let mut inbox = routes.lock().get(&id).cloned();
                            if inbox.is_none() && peer_initiated {
                                // Data can race ahead of its OPEN only if the
                                // peer speaks a newer dialect; treat it as an
                                // implicit open so nothing is lost. (For a
                                // session of ours it is a late frame after our
                                // close: dropped.)
                                inbox = open_route(&routes, &accepted_tx, id);
                            }
                            // Pushed outside the routes lock: the push runs
                            // the session's sink, and `open_session` on
                            // another thread must not wait for it.
                            if let Some(inbox) = inbox {
                                if inbox.push(frame).is_err() {
                                    routes.lock().remove(&id);
                                }
                            }
                        }
                    }
                }
                // Carrier gone: every session sees Disconnected once its
                // queue drains, the acceptor stops yielding sessions, and a
                // bus consumer is told every session died at once.
                let orphans: Vec<Arc<Inbox>> = routes.lock().drain().map(|(_, i)| i).collect();
                for inbox in orphans {
                    inbox.close();
                }
                if let PeerSink::Bus { conn, sink } = &*sink.lock() {
                    sink.deliver(BusEvent::CarrierClosed { conn: *conn });
                }
            })
            .expect("spawning the mux reader thread");
    }

    MuxConn {
        writer,
        accepted_rx,
        routes,
        sink,
        next_id: AtomicU32::new(1),
        parity,
        backend,
        killer,
        sessions_opened: telemetry.counter(aide_telemetry::names::MUX_SESSIONS),
    }
}

/// Installs a route for a peer-opened session and hands its inbox to the
/// acceptor. `None` for a duplicate OPEN or once nobody accepts any more.
fn open_route(
    routes: &Routes,
    accepted_tx: &Sender<(u32, Arc<Inbox>)>,
    id: u32,
) -> Option<Arc<Inbox>> {
    let mut map = routes.lock();
    if map.contains_key(&id) {
        return None;
    }
    let inbox = Inbox::new();
    map.insert(id, Arc::clone(&inbox));
    drop(map);
    if accepted_tx.send((id, Arc::clone(&inbox))).is_err() {
        routes.lock().remove(&id);
        return None;
    }
    Some(inbox)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bus that is just a queue, so a test can watch the events.
    impl BusSink for Sender<BusEvent> {
        fn deliver(&self, event: BusEvent) {
            let _ = self.send(event);
        }
    }

    /// In-memory byte pipe so mux logic is testable without sockets.
    fn pipe() -> (PipeWriter, PipeReader) {
        let (tx, rx) = unbounded();
        (
            PipeWriter(tx),
            PipeReader {
                rx,
                pending: Vec::new(),
                pos: 0,
            },
        )
    }

    struct PipeWriter(Sender<Vec<u8>>);

    impl Write for PipeWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .send(buf.to_vec())
                .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe closed"))?;
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    struct PipeReader {
        rx: Receiver<Vec<u8>>,
        pending: Vec<u8>,
        pos: usize,
    }

    impl Read for PipeReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            while self.pos == self.pending.len() {
                match self.rx.recv() {
                    Ok(chunk) => {
                        self.pending = chunk;
                        self.pos = 0;
                    }
                    Err(_) => return Ok(0), // EOF
                }
            }
            let n = (self.pending.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn mux_pair() -> (MuxConn, MuxConn) {
        let (a_w, b_r) = pipe();
        let (b_w, a_r) = pipe();
        let a = spawn_mux(
            a_r,
            a_w,
            true,
            ConnKiller::noop(),
            BackendKind::InMemory,
            || {},
        );
        let b = spawn_mux(
            b_r,
            b_w,
            false,
            ConnKiller::noop(),
            BackendKind::InMemory,
            || {},
        );
        (a, b)
    }

    #[test]
    fn sessions_cross_the_mux_in_both_directions() {
        let (a, b) = mux_pair();
        let client = a.open_session().unwrap();
        let server = b.accept().unwrap();
        client.send(vec![1, 2, 3]).unwrap();
        assert_eq!(server.recv().unwrap(), vec![1, 2, 3]);
        server.send(vec![9]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![9]);
    }

    #[test]
    fn concurrent_sessions_are_demultiplexed_by_id() {
        let (a, b) = mux_pair();
        let c1 = a.open_session().unwrap();
        let c2 = a.open_session().unwrap();
        let s1 = b.accept().unwrap();
        let s2 = b.accept().unwrap();
        // Interleave traffic; each session must see only its own frames.
        c1.send(vec![1, 1]).unwrap();
        c2.send(vec![2, 2]).unwrap();
        c1.send(vec![1]).unwrap();
        assert_eq!(s1.recv().unwrap(), vec![1, 1]);
        assert_eq!(s2.recv().unwrap(), vec![2, 2]);
        assert_eq!(s1.recv().unwrap(), vec![1]);
    }

    #[test]
    fn both_sides_can_initiate_sessions_without_id_collisions() {
        let (a, b) = mux_pair();
        let from_a = a.open_session().unwrap();
        let from_b = b.open_session().unwrap();
        let at_b = b.accept().unwrap();
        let at_a = a.accept().unwrap();
        from_a.send(vec![0xA]).unwrap();
        from_b.send(vec![0xB]).unwrap();
        assert_eq!(at_b.recv().unwrap(), vec![0xA]);
        assert_eq!(at_a.recv().unwrap(), vec![0xB]);
    }

    #[test]
    fn close_tears_down_one_session_but_not_its_siblings() {
        let (a, b) = mux_pair();
        let c1 = a.open_session().unwrap();
        let c2 = a.open_session().unwrap();
        let s1 = b.accept().unwrap();
        let s2 = b.accept().unwrap();
        c1.send(vec![7]).unwrap();
        c1.close();
        // The close races behind the data frame, so the queued frame is
        // still deliverable before the disconnect is observed.
        assert_eq!(s1.recv().unwrap(), vec![7]);
        assert_eq!(s1.recv().unwrap_err(), LinkError::Disconnected);
        // Sibling session is untouched.
        c2.send(vec![8]).unwrap();
        assert_eq!(s2.recv().unwrap(), vec![8]);
    }

    #[test]
    fn bus_mode_routes_peer_sessions_onto_one_queue() {
        let (a, b) = mux_pair();
        // One session opened before the switch, with a frame already sent:
        // it must be drained into the bus, in order, not lost.
        let early = a.open_session().unwrap();
        early.send(vec![0xE, 1]).unwrap();
        // Give the reader time to route the pre-switch traffic.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (bus_tx, bus_rx) = unbounded();
        let sender = b.route_accepts_to(7, Arc::new(bus_tx));
        early.send(vec![0xE, 2]).unwrap();
        let late = a.open_session().unwrap();
        late.send(vec![0x1A]).unwrap();

        let mut opened = Vec::new();
        let mut data = Vec::new();
        for _ in 0..5 {
            match bus_rx
                .recv_timeout(std::time::Duration::from_secs(5))
                .unwrap()
            {
                BusEvent::Opened { conn, session } => {
                    assert_eq!(conn, 7);
                    opened.push(session);
                }
                BusEvent::Data {
                    conn,
                    session,
                    frame,
                } => {
                    assert_eq!(conn, 7);
                    data.push((session, frame.to_vec()));
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(opened.len(), 2);
        let early_id = opened[0];
        assert_eq!(
            data.iter()
                .filter(|(s, _)| *s == early_id)
                .map(|(_, f)| f.clone())
                .collect::<Vec<_>>(),
            vec![vec![0xE, 1], vec![0xE, 2]],
            "pre- and post-switch frames stay in order"
        );

        // Workers reply through the MuxSender; the initiator's session
        // receives on its private channel as always.
        let (_, reply_to) = data.iter().find(|(s, _)| *s != early_id).unwrap().clone();
        assert_eq!(reply_to, vec![0x1A]);
        let late_id = opened[1];
        sender
            .send(late_id, Frame::from(vec![9u8].as_slice()))
            .unwrap();
        assert_eq!(late.recv().unwrap(), vec![9]);

        // Carrier death surfaces as one CarrierClosed event.
        drop(early);
        drop(late);
        drop(a);
        loop {
            match bus_rx.recv_timeout(std::time::Duration::from_secs(5)) {
                Ok(BusEvent::CarrierClosed { conn: 7 }) => break,
                Ok(BusEvent::Closed { .. }) => continue,
                other => panic!("expected CarrierClosed, got {other:?}"),
            }
        }
    }

    #[test]
    fn carrier_death_disconnects_every_session_and_the_acceptor() {
        let (a, b) = mux_pair();
        let client = a.open_session().unwrap();
        let server = b.accept().unwrap();
        client.send(vec![1]).unwrap();
        assert_eq!(server.recv().unwrap(), vec![1]);
        // Dropping the initiator's handle and sessions drains its writer,
        // which drops the pipe and EOFs the peer's reader.
        drop(client);
        drop(a);
        assert_eq!(server.recv().unwrap_err(), LinkError::Disconnected);
        assert_eq!(b.accept().unwrap_err(), LinkError::Disconnected);
    }

    /// Records the bytes of every `write` call; refuses them while `broken`.
    #[derive(Clone, Default)]
    struct RecordingWriter {
        writes: Arc<Mutex<Vec<Vec<u8>>>>,
        broken: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Write for RecordingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.broken.load(Ordering::SeqCst) {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            self.writes.lock().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_exactly_one_write() {
        let out = RecordingWriter::default();
        // A peer that never speaks: only the write half is under test.
        let (_keep_open, silent) = pipe();
        let conn = spawn_mux(
            silent,
            out.clone(),
            true,
            ConnKiller::noop(),
            BackendKind::InMemory,
            || {},
        );
        let session = conn.open_session().unwrap();
        session.send(vec![7u8; 40]).unwrap();
        session.close();

        let writes = out.writes.lock().clone();
        let expected = [(KIND_OPEN, 0usize), (KIND_DATA, 40), (KIND_CLOSE, 0)];
        assert_eq!(writes.len(), expected.len(), "one write per frame");
        for (write, (kind, payload)) in writes.iter().zip(expected) {
            assert_eq!(write.len(), 4 + MUX_HEADER + payload, "a whole frame");
            let len = u32::from_le_bytes([write[0], write[1], write[2], write[3]]);
            assert_eq!(len as usize, MUX_HEADER + payload);
            // The initiator's first session id is 3: (1 << 1) | parity.
            assert_eq!(&write[4..9], &mux_head(3, kind));
            assert!(write[9..].iter().all(|b| *b == 7));
        }
    }

    #[test]
    fn concurrent_senders_interleave_whole_frames_in_per_session_order() {
        const THREADS: u8 = 8;
        const FRAMES: u32 = 1_000;
        let shape = |thread: u8, seq: u32| 5 + (seq as usize * 7 + thread as usize) % 97;

        let (a, b) = mux_pair();
        let ours: Vec<Session> = (0..4).map(|_| a.open_session().unwrap()).collect();
        let theirs: Vec<Session> = (0..4).map(|_| b.accept().unwrap()).collect();
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let senders: Vec<_> = (0..THREADS)
            .map(|thread| {
                let session = ours[thread as usize % 4].clone();
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for seq in 0..FRAMES {
                        let mut frame = vec![thread];
                        frame.extend_from_slice(&seq.to_le_bytes());
                        frame.resize(shape(thread, seq), thread);
                        session.send(frame).unwrap();
                    }
                })
            })
            .collect();

        // Session i carries threads i and i + 4; each thread's frames arrive
        // whole and in the order it sent them.
        for (i, session) in theirs.iter().enumerate() {
            let mut next = [0u32; THREADS as usize];
            for _ in 0..2 * FRAMES {
                let frame = session.recv().unwrap();
                let thread = frame[0];
                assert_eq!(thread as usize % 4, i, "frame crossed sessions");
                let seq = u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]);
                assert_eq!(seq, next[thread as usize], "thread {thread} out of order");
                next[thread as usize] += 1;
                assert_eq!(frame.len(), shape(thread, seq), "torn frame");
                assert!(frame[5..].iter().all(|b| *b == thread), "torn frame");
            }
        }
        for sender in senders {
            sender.join().unwrap();
        }
    }

    #[test]
    fn a_dead_carrier_refuses_sends_and_its_hook_fires_once_on_the_last_drop() {
        let out = RecordingWriter::default();
        let hook_runs = Arc::new(AtomicU32::new(0));
        let (_keep_open, silent) = pipe();
        let conn = spawn_mux(
            silent,
            out.clone(),
            true,
            ConnKiller::noop(),
            BackendKind::InMemory,
            {
                let hook_runs = Arc::clone(&hook_runs);
                move || {
                    hook_runs.fetch_add(1, Ordering::SeqCst);
                }
            },
        );
        let session = conn.open_session().unwrap();
        let sender = conn.bus_sender(1);

        out.broken.store(true, Ordering::SeqCst);
        assert_eq!(session.send(vec![1]), Err(LinkError::Disconnected));
        // Part of a frame may be on the wire: the carrier stays dead even
        // if the socket would take bytes again.
        out.broken.store(false, Ordering::SeqCst);
        assert_eq!(session.send(vec![1]), Err(LinkError::Disconnected));
        assert_eq!(
            sender.send(3, Frame::from(vec![1])),
            Err(LinkError::Disconnected)
        );
        assert_eq!(conn.open_session().unwrap_err(), LinkError::Disconnected);

        drop(session);
        drop(conn);
        assert_eq!(
            hook_runs.load(Ordering::SeqCst),
            0,
            "a MuxSender still holds the write half"
        );
        drop(sender);
        assert_eq!(hook_runs.load(Ordering::SeqCst), 1);
    }
}
