//! Duplex RPC sessions and simulated link-time accounting.
//!
//! A [`Session`] is one end of a logical duplex frame channel between two
//! VMs. Each backend has one pair constructor: in-process inbox pairs
//! ([`Link::pair`]) and a session of a multiplexed loopback TCP carrier
//! ([`tcp_pair`](crate::tcp_pair)); further sessions of a TCP carrier come
//! from its two ends (`crate::tcp`). The [`Link`] keeps the shared
//! [`NetClock`] that accumulates *simulated* communication seconds
//! according to [`CommParams`] — the paper's 11 Mbps / 2.4 ms RTT WaveLAN
//! model, charged per call by the endpoint.
//!
//! A session riding a byte-stream carrier shares the carrier's write half
//! (`CarrierWriter`: whoever sends, writes) and a handle on its read half
//! (`CarrierReader`: a caller blocked on the session's reply, or a worker
//! of the pool serving it between two jobs, may do the reading). Either
//! way a frame reaches the session through its `Inbox`, on the thread that
//! read it, which never writes while it holds the read half ([`FrameSink`]
//! says why that is enough).

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aide_graph::CommParams;
use aide_telemetry::sync::{Condvar, Mutex};

use crate::mux::{mux_head, CarrierReader, KIND_CLOSE, KIND_DATA};
use crate::wire::{write_framed, MUX_HEADER};

/// Which carrier a session rides on. Used to label telemetry per backend;
/// the RPC layer is otherwise oblivious.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Inbox pair inside one process.
    InMemory,
    /// A multiplexed TCP socket.
    Tcp,
}

/// Accumulates simulated communication time for one client/surrogate pair.
///
/// Execution is serial across the distributed platform (the paper's
/// emulator assumption), so communication seconds add directly to the
/// application's completion time.
#[derive(Debug, Default)]
pub struct NetClock {
    /// Seconds and round trips, under one lock: every charge moves both.
    tally: Mutex<(f64, u64)>,
}

impl NetClock {
    /// Creates a zeroed clock.
    pub fn new() -> Self {
        NetClock::default()
    }

    /// Notes one logical round trip that took `seconds` of simulated link
    /// time.
    pub fn add_round_trip(&self, seconds: f64) {
        let mut tally = self.tally.lock();
        tally.0 += seconds;
        tally.1 += 1;
    }

    /// Total simulated communication seconds so far.
    pub fn seconds(&self) -> f64 {
        self.tally.lock().0
    }

    /// Total round trips so far.
    pub fn round_trips(&self) -> u64 {
        self.tally.lock().1
    }
}

/// Per-endpoint traffic counters (real frames, real bytes).
#[derive(Debug, Default)]
pub struct TrafficStats {
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
}

impl TrafficStats {
    /// Frames sent by this endpoint.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Encoded bytes sent by this endpoint.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Frames received by this endpoint.
    pub fn frames_received(&self) -> u64 {
        self.frames_received.load(Ordering::Relaxed)
    }

    /// Encoded bytes received by this endpoint.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    fn note_sent(&self, bytes: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    fn note_received(&self, bytes: usize) {
        self.frames_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Errors surfaced by a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The peer hung up.
    Disconnected,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Disconnected => f.write_str("link disconnected"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Consumes a session's inbound frames **on the thread that produced
/// them** — whoever holds the carrier's read half (its reader thread, a
/// caller reading its own reply, a worker reading its next request), or the
/// in-process peer's sending thread.
///
/// The deadlock rule every implementation obeys: *nobody writes to a carrier
/// while holding a read half*. A sink run there decodes, renews, completes
/// a waiting call, hands a request to a worker (spawning that worker, if
/// need be: one `clone(2)` that waits on nobody) or to the worker reading,
/// or forwards into another session's inbox — nothing else; a worker that
/// has been handed a request it read lets go of the half before it serves
/// it. So every end of every carrier always has a reader that never waits on
/// a write, and two peers whose socket buffers are both full still drain
/// each other.
pub(crate) trait FrameSink: Send + Sync {
    /// One frame, in arrival order; what became of it tells the thread that
    /// read it whether somebody is about to come back and read (see
    /// [`CarrierReader`]).
    fn deliver(&self, frame: Vec<u8>) -> Delivered;
    /// No further frame will arrive: the peer hung up or the carrier died.
    fn closed(&self);
}

/// What a session's sink (or a carrier's accept hook, `MuxConn::accept_with`)
/// made of an inbound frame, as the thread that read it needs to know:
/// whether somebody is about to come back and read the carrier for itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivered {
    /// Nobody is coming back for it: the frame was queued, forwarded,
    /// dropped, or began a drain.
    Kept,
    /// The reply a caller blocked on this very session was waiting for: the
    /// caller is about to call again and can then read for itself.
    Reply,
    /// A job queued for a worker of a pool, which comes back to this
    /// carrier once it is done: it reads for itself, or calls the carrier's
    /// thread back.
    Handed,
    /// Taken by the worker that holds the read half: it lets go of the half
    /// and serves what it took itself.
    Claimed,
}

#[derive(Default)]
struct InboxState {
    queue: VecDeque<Vec<u8>>,
    sink: Option<Arc<dyn FrameSink>>,
    /// No further frame will arrive (peer hung up, CLOSE, carrier death).
    closed: bool,
    /// Every receiving handle is gone: producers see `Disconnected`.
    abandoned: bool,
}

/// The inbound half of a session: frames queue here until a consumer pulls
/// them ([`Session::recv`]) or a [`FrameSink`] is attached, after which
/// producers deliver straight into the sink. Queueing, the switch to a
/// sink, and delivery all happen under one lock, which is what keeps
/// per-session frame order across the switch.
pub(crate) struct Inbox {
    state: Mutex<InboxState>,
    ready: Condvar,
    stats: Arc<TrafficStats>,
}

impl std::fmt::Debug for Inbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Inbox")
            .field("queued", &state.queue.len())
            .field("sink", &state.sink.is_some())
            .field("closed", &state.closed)
            .finish()
    }
}

impl Inbox {
    pub(crate) fn new() -> Arc<Inbox> {
        Arc::new(Inbox {
            state: Mutex::default(),
            ready: Condvar::new(),
            stats: Arc::new(TrafficStats::default()),
        })
    }

    /// Producer side: hands `frame` to the attached sink, or queues it.
    /// `Ok` carries what [`FrameSink::deliver`] reported
    /// ([`Delivered::Kept`] for a queued frame).
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] once the inbox is closed or every
    /// receiving handle is gone.
    pub(crate) fn push(&self, frame: Vec<u8>) -> Result<Delivered, LinkError> {
        let mut state = self.state.lock();
        if state.closed || state.abandoned {
            return Err(LinkError::Disconnected);
        }
        match &state.sink {
            Some(sink) => {
                self.stats.note_received(frame.len());
                Ok(sink.deliver(frame))
            }
            None => {
                state.queue.push_back(frame);
                self.ready.notify_one();
                Ok(Delivered::Kept)
            }
        }
    }

    /// Producer side: no further frame will arrive. Queued frames stay
    /// deliverable; an attached sink is told and released.
    pub(crate) fn close(&self) {
        let sink = {
            let mut state = self.state.lock();
            if std::mem::replace(&mut state.closed, true) {
                return;
            }
            self.ready.notify_all();
            state.sink.take()
        };
        // After the lock: nothing can be delivered behind this any more,
        // and the sink is free to let go of whatever it holds.
        if let Some(sink) = sink {
            sink.closed();
        }
    }

    /// Hands everything queued to `sink`, in order, then routes every later
    /// frame to it directly.
    fn attach(&self, sink: Arc<dyn FrameSink>) {
        let mut state = self.state.lock();
        while let Some(frame) = state.queue.pop_front() {
            self.stats.note_received(frame.len());
            sink.deliver(frame);
        }
        if state.closed {
            sink.closed();
        } else {
            state.sink = Some(sink);
        }
    }

    fn detach(&self) {
        let sink = self.state.lock().sink.take();
        drop(sink); // outside the lock: it may own sessions of its own
    }

    /// Pulls the next queued frame, waiting until `deadline` (forever when
    /// `None`); `Ok(None)` is a timeout.
    fn pop(&self, deadline: Option<Instant>) -> Result<Option<Vec<u8>>, LinkError> {
        let mut state = self.state.lock();
        loop {
            if let Some(frame) = state.queue.pop_front() {
                self.stats.note_received(frame.len());
                return Ok(Some(frame));
            }
            if state.closed {
                return Err(LinkError::Disconnected);
            }
            state = match deadline {
                None => self.ready.wait(state),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    self.ready.wait_timeout(state, deadline - now).0
                }
            };
        }
    }
}

/// A session's claim on its inbox: when the last clone of the session is
/// dropped nobody can receive any more, so producers are refused.
#[derive(Debug)]
struct Receiving(Arc<Inbox>);

impl Drop for Receiving {
    fn drop(&mut self) {
        let orphaned = {
            let mut state = self.0.state.lock();
            state.abandoned = true;
            (std::mem::take(&mut state.queue), state.sink.take())
        };
        drop(orphaned); // outside the lock: a sink may own sessions of its own
    }
}

/// The in-process outbound half: frames go straight into the peer's inbox.
/// Dropping the last clone is the hang-up the peer observes.
#[derive(Debug)]
struct DirectTx(Arc<Inbox>);

impl Drop for DirectTx {
    fn drop(&mut self) {
        self.0.close();
    }
}

struct WriterState {
    out: Box<dyn Write + Send>,
    scratch: Vec<u8>,
    dead: bool,
}

/// The write half of a byte-stream carrier, shared by every session riding
/// it (and by its accept hook, while the carrier is up). There is no writer
/// thread: whoever sends composes the frame into the reused buffer and
/// issues the one `write_all` itself, under this mutex, so frames of
/// concurrent senders never interleave. When the last handle drops, the
/// carrier's shutdown hook runs (a socket shuts its write half so the peer
/// reads EOF).
pub(crate) struct CarrierWriter {
    state: Mutex<WriterState>,
    /// Frames written, and their bytes on the wire.
    frames: AtomicU64,
    bytes: AtomicU64,
    on_last_drop: Option<Box<dyn FnOnce() + Send + Sync>>,
}

impl std::fmt::Debug for CarrierWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CarrierWriter")
    }
}

impl CarrierWriter {
    /// Wraps `out`; `on_last_drop` runs once when the last handle goes
    /// away.
    pub(crate) fn new(
        out: impl Write + Send + 'static,
        on_last_drop: impl FnOnce() + Send + Sync + 'static,
    ) -> Arc<CarrierWriter> {
        Arc::new(CarrierWriter {
            state: Mutex::new(WriterState {
                out: Box::new(out),
                scratch: Vec::new(),
                dead: false,
            }),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            on_last_drop: Some(Box::new(on_last_drop)),
        })
    }

    /// Writes one `[len][head][payload]` frame with a single `write_all`.
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] if this or an earlier write failed: a
    /// carrier that lost part of a frame cannot be resynchronised.
    pub(crate) fn send(&self, head: &[u8; MUX_HEADER], payload: &[u8]) -> Result<(), LinkError> {
        let mut state = self.state.lock();
        let WriterState { out, scratch, dead } = &mut *state;
        if *dead {
            return Err(LinkError::Disconnected);
        }
        if write_framed(out, scratch, head, payload).is_err() {
            *dead = true;
            return Err(LinkError::Disconnected);
        }
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add((4 + head.len() + payload.len()) as u64, Ordering::Relaxed);
        Ok(())
    }

    /// `(frames, bytes)` written so far.
    pub(crate) fn written(&self) -> (u64, u64) {
        (
            self.frames.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

impl Drop for CarrierWriter {
    fn drop(&mut self) {
        if let Some(hook) = self.on_last_drop.take() {
            hook();
        }
    }
}

/// The outbound half of a session.
#[derive(Debug, Clone)]
enum SessionSender {
    /// In-process: the peer's inbox.
    Direct(Arc<DirectTx>),
    /// A share of a multiplexed carrier's write half; `mux_id` tags the
    /// session's frames. `reader` is the carrier's read half, which a
    /// caller may drive for its own reply and a worker for its next
    /// request.
    Carrier {
        writer: Arc<CarrierWriter>,
        mux_id: u32,
        reader: Arc<CarrierReader>,
    },
}

/// One end of a duplex logical frame channel — the single session
/// abstraction every backend produces.
#[derive(Debug, Clone)]
pub struct Session {
    tx: SessionSender,
    rx: Arc<Receiving>,
    backend: BackendKind,
}

impl Session {
    fn assemble(tx: SessionSender, inbox: Arc<Inbox>, backend: BackendKind) -> Self {
        Session {
            tx,
            rx: Arc::new(Receiving(inbox)),
            backend,
        }
    }

    /// Assembles session `mux_id` of a multiplexed carrier: outbound frames
    /// go through the shared `writer`, inbound frames are pushed into
    /// `inbox` by whoever drives `reader`.
    pub(crate) fn on_carrier(
        writer: Arc<CarrierWriter>,
        mux_id: u32,
        inbox: Arc<Inbox>,
        reader: &Arc<CarrierReader>,
    ) -> Self {
        let tx = SessionSender::Carrier {
            writer,
            mux_id,
            reader: Arc::clone(reader),
        };
        Session::assemble(tx, inbox, BackendKind::Tcp)
    }

    /// The read half of this session's carrier: `None` in process, and so
    /// behind a chaos shim too, whose application-side session is an
    /// in-process one.
    pub(crate) fn carrier_reader(&self) -> Option<&CarrierReader> {
        match &self.tx {
            SessionSender::Carrier { reader, .. } => Some(reader),
            SessionSender::Direct(_) => None,
        }
    }

    /// The backend this session rides on.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// Sends one encoded frame to the peer.
    ///
    /// In process the frame lands in the peer's inbox (and runs its sink)
    /// on this thread; on a carrier this thread does the socket write.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::Disconnected`] if the peer's receiver or the
    /// carrier is gone.
    pub fn send(&self, frame: Vec<u8>) -> Result<(), LinkError> {
        self.stats().note_sent(frame.len());
        match &self.tx {
            SessionSender::Direct(peer) => peer.0.push(frame).map(drop),
            SessionSender::Carrier { writer, mux_id, .. } => {
                writer.send(&mux_head(*mux_id, KIND_DATA), &frame)
            }
        }
    }

    /// Tells the peer this logical session is finished. A no-op in process
    /// (dropping the session is enough); on a carrier this releases the
    /// peer's per-session route without touching its sibling sessions.
    pub fn close(&self) {
        if let SessionSender::Carrier { writer, mux_id, .. } = &self.tx {
            let _ = writer.send(&mux_head(*mux_id, KIND_CLOSE), &[]);
        }
    }

    /// Hangs up on an in-process peer while clones of this session are
    /// still held elsewhere: the peer's inbox closes as if the last clone
    /// had dropped. Carrier sessions end with their carrier instead.
    pub(crate) fn hang_up(&self) {
        if let SessionSender::Direct(peer) = &self.tx {
            peer.0.close();
        }
    }

    /// Receives the next frame, blocking until one arrives. Frames only
    /// queue for `recv` while no sink is attached (endpoints attach one).
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::Disconnected`] when the peer hung up and the
    /// queue is drained.
    pub fn recv(&self) -> Result<Vec<u8>, LinkError> {
        self.rx
            .0
            .pop(None)
            .map(|frame| frame.expect("no deadline, no timeout"))
    }

    /// Receives the next frame, or `Ok(None)` after `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`LinkError::Disconnected`] when the peer hung up.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Option<Vec<u8>>, LinkError> {
        self.rx.0.pop(Some(Instant::now() + timeout))
    }

    /// This endpoint's traffic statistics.
    pub fn stats(&self) -> &Arc<TrafficStats> {
        &self.rx.0.stats
    }

    /// Makes `sink` the consumer of this session's inbound frames: what is
    /// already queued is delivered first, in order, then every producer
    /// runs the sink itself.
    pub(crate) fn attach_sink(&self, sink: Arc<dyn FrameSink>) {
        self.rx.0.attach(sink);
    }

    /// Releases the attached sink; later frames queue (or are refused once
    /// the session is dropped).
    pub(crate) fn detach_sink(&self) {
        self.rx.0.detach();
    }
}

/// Builds a connected pair of direct (in-process) sessions.
pub(crate) fn session_pair(backend: BackendKind) -> (Session, Session) {
    let (a_inbox, b_inbox) = (Inbox::new(), Inbox::new());
    let a_tx = SessionSender::Direct(Arc::new(DirectTx(Arc::clone(&b_inbox))));
    let b_tx = SessionSender::Direct(Arc::new(DirectTx(Arc::clone(&a_inbox))));
    (
        Session::assemble(a_tx, a_inbox, backend),
        Session::assemble(b_tx, b_inbox, backend),
    )
}

/// A connected pair of sessions plus the shared link model.
#[derive(Debug)]
pub struct Link {
    /// Link parameters used for simulated timing.
    pub params: CommParams,
    /// Shared simulated communication clock.
    pub clock: Arc<NetClock>,
}

impl Link {
    /// A link model over `params` with a zeroed clock.
    pub(crate) fn new(params: CommParams) -> Link {
        Link {
            params,
            clock: Arc::new(NetClock::new()),
        }
    }

    /// Creates a connected in-memory session pair with the given link
    /// parameters.
    ///
    /// Returns `(link, client_session, surrogate_session)`.
    pub fn pair(params: CommParams) -> (Link, Session, Session) {
        let (a, b) = session_pair(BackendKind::InMemory);
        (Link::new(params), a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn frames_cross_the_link_in_both_directions() {
        let (_, client, surrogate) = Link::pair(CommParams::WAVELAN);
        client.send(vec![1, 2, 3]).unwrap();
        assert_eq!(surrogate.recv().unwrap(), vec![1, 2, 3]);
        surrogate.send(vec![9]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![9]);
    }

    #[test]
    fn stats_count_frames_and_bytes() {
        let (_, client, surrogate) = Link::pair(CommParams::WAVELAN);
        client.send(vec![0; 10]).unwrap();
        client.send(vec![0; 5]).unwrap();
        surrogate.recv().unwrap();
        surrogate.recv().unwrap();
        assert_eq!(client.stats().frames_sent(), 2);
        assert_eq!(client.stats().bytes_sent(), 15);
        assert_eq!(surrogate.stats().frames_received(), 2);
        assert_eq!(surrogate.stats().bytes_received(), 15);
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let (_, client, _surrogate) = Link::pair(CommParams::WAVELAN);
        let got = client.recv_timeout(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn disconnection_is_reported() {
        let (_, client, surrogate) = Link::pair(CommParams::WAVELAN);
        drop(surrogate);
        assert_eq!(client.send(vec![1]), Err(LinkError::Disconnected));
        assert_eq!(client.recv(), Err(LinkError::Disconnected));
    }

    #[test]
    fn queued_frames_survive_peer_sender_drop() {
        let (_, client, surrogate) = Link::pair(CommParams::WAVELAN);
        client.send(vec![7]).unwrap();
        drop(client);
        // The queued frame is still deliverable.
        assert_eq!(surrogate.recv().unwrap(), vec![7]);
        assert_eq!(surrogate.recv(), Err(LinkError::Disconnected));
    }

    #[test]
    fn net_clock_accumulates() {
        let clock = NetClock::new();
        clock.add_round_trip(0.5);
        clock.add_round_trip(0.25);
        assert!((clock.seconds() - 0.75).abs() < 1e-12);
        assert_eq!(clock.round_trips(), 2);
    }

    /// Remembers what it was handed.
    #[derive(Default)]
    struct Recorder {
        frames: Mutex<Vec<Vec<u8>>>,
        closed: std::sync::atomic::AtomicBool,
    }

    impl FrameSink for Recorder {
        fn deliver(&self, frame: Vec<u8>) -> Delivered {
            self.frames.lock().push(frame);
            Delivered::Kept
        }

        fn closed(&self) {
            self.closed.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_late_sink_sees_the_queued_frames_first_and_in_order() {
        let (_, client, surrogate) = Link::pair(CommParams::WAVELAN);
        for i in 0..3u8 {
            client.send(vec![i]).unwrap();
        }
        let sink = Arc::new(Recorder::default());
        surrogate.attach_sink(sink.clone());
        assert_eq!(*sink.frames.lock(), [[0], [1], [2]]);
        // From here on the sender's thread runs the sink itself.
        client.send(vec![3]).unwrap();
        assert_eq!(*sink.frames.lock(), [[0], [1], [2], [3]]);
        assert_eq!(surrogate.stats().frames_received(), 4);
        assert!(!sink.closed.load(Ordering::SeqCst));
        drop(client);
        assert!(
            sink.closed.load(Ordering::SeqCst),
            "hang-up reaches the sink"
        );
    }

    #[test]
    fn a_sink_attached_after_the_hang_up_gets_the_backlog_then_the_close() {
        let (_, client, surrogate) = Link::pair(CommParams::WAVELAN);
        client.send(vec![7]).unwrap();
        drop(client);
        let sink = Arc::new(Recorder::default());
        surrogate.attach_sink(sink.clone());
        assert_eq!(*sink.frames.lock(), [[7]]);
        assert!(sink.closed.load(Ordering::SeqCst));
    }

    #[test]
    fn a_detached_session_queues_again() {
        let (_, client, surrogate) = Link::pair(CommParams::WAVELAN);
        let sink = Arc::new(Recorder::default());
        surrogate.attach_sink(sink.clone());
        client.send(vec![1]).unwrap();
        surrogate.detach_sink();
        client.send(vec![2]).unwrap();
        assert_eq!(*sink.frames.lock(), [[1]]);
        assert_eq!(surrogate.recv().unwrap(), vec![2]);
    }
}
