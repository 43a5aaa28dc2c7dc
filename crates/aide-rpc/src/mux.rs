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
//! (`CarrierWriter`). The read half — a 16 KiB buffer, the session routes,
//! the frame routing — is one object, [`CarrierReader`], that *whoever
//! holds its lock* drives: it demultiplexes inbound frames and *runs each
//! session's consumer itself* — the session's inbox queue until a sink is
//! attached, the sink (decode, complete a call, hand a request to a worker)
//! afterwards. Leader/followers, on both ends alike: a caller blocked on a
//! reply takes the lock and reads its own reply, and a worker that has just
//! sent a reply takes it and reads its pool's next request, lets go, and
//! serves that request itself (a call is then caller → peer worker → caller:
//! two hand-offs). The carrier's reader thread is the reader of last resort.
//! The sessions the peer opens queue for [`MuxConn::accept`], or, once the
//! carrier is handed a hook ([`MuxConn::accept_with`]), go to the hook on
//! the thread that read the OPEN — which is how a surrogate daemon takes
//! sessions in with no thread per carrier or per session.
//! The rule that keeps this deadlock-free: nobody writes to a carrier while
//! holding a read half, so every end always has a reader that never waits
//! on a write; and a reader hands on what it meets and moves on, so a slow
//! session never stalls its siblings (`crate::link::FrameSink` has the
//! argument in full).
//!
//! The module is generic over byte-stream carriers (`DeadlineRead` /
//! `Write`); the only TCP-aware code lives in `crate::tcp`, which wires a
//! socket's two halves in here.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use aide_telemetry::sync::{Condvar, Mutex, MutexGuard};

use crate::link::{CarrierWriter, Delivered, Inbox, LinkError, Session};
use crate::wire::{DeadlineRead, FrameHead, FrameReader, MUX_HEADER};

/// Application frame for an established session.
pub(crate) const KIND_DATA: u8 = 0;
/// The peer opened a new session with this id.
pub(crate) const KIND_OPEN: u8 = 1;
/// The peer finished the session with this id.
pub(crate) const KIND_CLOSE: u8 = 2;

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

/// What becomes of a session the peer opens on a carrier handed to
/// [`MuxConn::accept_with`]: called with the session's id and our end of it
/// on the thread that read the OPEN, which holds the carrier's read half, so
/// it may neither write to a carrier nor block. Frames for the session queue
/// in it until an endpoint takes it. It tells the reading thread who reads
/// next, as a session's sink does (see [`Delivered`]).
pub(crate) type AcceptHook = dyn Fn(u32, Session) -> Delivered + Send + Sync;

/// Where the sessions the peer opens go.
enum Accepts {
    /// To [`MuxConn::accept`].
    Queue(Sender<(u32, Arc<Inbox>)>),
    /// To a hook, with what it takes to make our end of each session. The
    /// hook holds the carrier's write half open for as long as the carrier
    /// is up.
    Hook {
        writer: Arc<CarrierWriter>,
        reader: Weak<CarrierReader>,
        accept: Box<AcceptHook>,
    },
    /// Nowhere: the carrier is gone.
    Closed,
}

/// What one end of a carrier has counted ([`MuxConn::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxStats {
    /// Sessions on this end: opened here or accepted from the peer.
    pub sessions: u64,
    /// Frames carried, both directions.
    pub frames: u64,
    /// Encoded bytes carried, both directions: `4 + MUX_HEADER + payload`
    /// a frame.
    pub bytes: u64,
    /// Replies a blocked caller read off the carrier itself, holding its
    /// read half.
    pub replies_caller_read: u64,
    /// Replies handed to a blocked caller by another thread that held the
    /// read half: the carrier's reader thread, a worker reading for its
    /// next request, or a sibling caller reading at the time.
    pub replies_handed_over: u64,
}

/// One end of a multiplexed connection: it opens sessions toward the peer
/// ([`open_session`](MuxConn::open_session)) and receives the sessions the
/// peer opened ([`accept`](MuxConn::accept)); either side may do both.
///
/// Dropping the `MuxConn` does not tear down live sessions: each session
/// keeps the shared write half alive through its own handle.
pub struct MuxConn {
    writer: Arc<CarrierWriter>,
    reader: Arc<CarrierReader>,
    /// Behind a lock because a receiver is not `Sync`; [`accept`] is the
    /// only blocking taker, and nothing calls it concurrently.
    ///
    /// [`accept`]: MuxConn::accept
    accepted_rx: Mutex<Receiver<(u32, Arc<Inbox>)>>,
    next_id: AtomicU32,
    killer: ConnKiller,
}

impl std::fmt::Debug for MuxConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MuxConn")
            .field("initiator", &(self.reader.parity == 1))
            .finish_non_exhaustive()
    }
}

impl MuxConn {
    /// Our end of session `id`: the carrier's write half plus `inbox`.
    fn session(&self, id: u32, inbox: Arc<Inbox>) -> Session {
        self.reader.session(&self.writer, id, inbox, &self.reader)
    }

    /// Opens a new session toward the peer.
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] when the carrier is gone.
    pub fn open_session(&self) -> Result<Session, LinkError> {
        let n = self.next_id.fetch_add(1, Ordering::Relaxed);
        let id = (n << 1) | self.reader.parity;
        let inbox = Inbox::new();
        self.reader.routes.lock().insert(id, Arc::clone(&inbox));
        if self.writer.send(&mux_head(id, KIND_OPEN), &[]).is_err() {
            self.reader.routes.lock().remove(&id);
            return Err(LinkError::Disconnected);
        }
        Ok(self.session(id, inbox))
    }

    /// Blocks until the peer opens the next session and returns our end.
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] when the carrier is gone and no further
    /// sessions can arrive.
    pub fn accept(&self) -> Result<Session, LinkError> {
        // The reader hands over only `(id, inbox)`; the session is
        // assembled here so the read half never holds the write half
        // (which would keep it open after every handle dropped).
        let (id, inbox) = self
            .accepted_rx
            .lock()
            .recv()
            .map_err(|_| LinkError::Disconnected)?;
        Ok(self.session(id, inbox))
    }

    /// A handle that severs the whole connection.
    pub fn killer(&self) -> ConnKiller {
        self.killer.clone()
    }

    /// Times this carrier's thread, having stepped aside for a caller or a
    /// worker to read next, took the read half back because nobody had for
    /// a handover: what reached the socket meanwhile waited. (An idle
    /// carrier counts too.)
    pub fn handovers_waited_out(&self) -> u64 {
        self.reader.handovers_waited_out.load(Ordering::Relaxed)
    }

    /// This end's counts so far.
    pub fn stats(&self) -> MuxStats {
        let reader = &self.reader;
        let (frames, bytes) = self.writer.written();
        MuxStats {
            sessions: reader.sessions.load(Ordering::Relaxed),
            frames: frames + reader.frames.load(Ordering::Relaxed),
            bytes: bytes + reader.bytes.load(Ordering::Relaxed),
            replies_caller_read: reader.replies_caller_read.load(Ordering::Relaxed),
            replies_handed_over: reader.replies_handed_over.load(Ordering::Relaxed),
        }
    }

    /// Hands every session the peer opens from now on to `accept`, on the
    /// thread that reads its OPEN (see `AcceptHook`), instead of queueing
    /// it for [`accept`](MuxConn::accept); sessions the peer opened before
    /// go to it first, here, with whatever frames they already queued. The
    /// carrier's write half stays open until the carrier dies, with or
    /// without a session on it. Sessions this end opens are unaffected.
    pub fn accept_with(&self, accept: impl Fn(u32, Session) -> Delivered + Send + Sync + 'static) {
        // Held across the hand-over: a session the peer opens meanwhile
        // waits for the hook.
        let mut accepts = self.reader.accepts.lock();
        let accepted = self.accepted_rx.lock();
        while let Ok((id, inbox)) = accepted.try_recv() {
            accept(id, self.session(id, inbox));
        }
        if matches!(*accepts, Accepts::Queue(_)) {
            *accepts = Accepts::Hook {
                writer: Arc::clone(&self.writer),
                reader: Arc::downgrade(&self.reader),
                accept: Box::new(accept),
            };
        }
    }
}

/// Wires one multiplexed connection — its write half, its read half and
/// the read half's thread — and returns the local handle. `initiator`
/// decides session-id parity; `on_writer_drop` runs when the last handle on
/// the write half goes away
/// (e.g. to shut down a socket's write half so the peer sees EOF).
pub(crate) fn spawn_mux(
    reader: impl DeadlineRead + 'static,
    writer: impl Write + Send + 'static,
    initiator: bool,
    killer: ConnKiller,
    on_writer_drop: impl FnOnce() + Send + Sync + 'static,
) -> MuxConn {
    let writer = CarrierWriter::new(writer, on_writer_drop);
    let (reader, accepted_rx) = CarrierReader::spawn(reader, initiator);

    MuxConn {
        writer,
        reader,
        accepted_rx: Mutex::new(accepted_rx),
        next_id: AtomicU32::new(1),
        killer,
    }
}

/// How long a carrier's read half may go without a caller or a worker
/// driving it before its reader thread takes it back, and how long a worker
/// reads for a request before it leaves the carrier to the thread. Two
/// orders of magnitude above the ~10 µs between the calls of a burst, so
/// the thread does not barge in between two of them (each collision sends
/// one call the long way round, through the thread); far below every
/// timeout the protocol knows, and it bounds how long a frame nobody is
/// blocked on — a request behind one a worker is busy with, a CLOSE, a late
/// reply — sits in the socket; and no shorter than a timer tick, below
/// which a timed wait is not honoured anyway. The price is one timer
/// wake-up per millisecond while a burst lasts.
const HANDOVER: Duration = Duration::from_millis(1);

/// One turn of the read half.
enum Step {
    /// A frame was read and routed, to what end [`Inbox::push`] reports.
    Routed(Delivered),
    /// The deadline passed first.
    TimedOut,
    /// The carrier is gone (now, or since before the call).
    Gone,
}

/// The read half of a byte-stream carrier: buffer, routes and frame
/// routing, driven by **whoever holds the `half` lock** — on either end of
/// the carrier, whichever end dialled.
///
/// A caller that has written its request takes the lock and reads and
/// routes frames on its own thread until its reply is among them. A worker
/// that has just written a reply takes it, reads until a request for its
/// own pool is among the frames, lets go and serves that request
/// (see [`ReadTurn::lead`]). Frames for sibling sessions, requests for other
/// workers and CLOSEs met on the way are routed exactly as the thread routes
/// them. The thread is the reader of last resort: it reads whenever nobody
/// has for [`HANDOVER`], steps aside once it has delivered a reply to a
/// caller or handed a request to a worker (either is about to come back and
/// read for itself), and is recalled at once by whoever leaves while callers
/// still wait, while bytes it read are still unrouted, or with no request to
/// serve.
///
/// Whoever holds the lock never writes to a carrier and blocks on nothing
/// but its socket (see `crate::link::FrameSink`).
pub(crate) struct CarrierReader {
    /// The framed byte stream; `None` once the carrier is gone.
    half: Mutex<Option<FrameReader>>,
    routes: Mutex<HashMap<u32, Arc<Inbox>>>,
    accepts: Mutex<Accepts>,
    /// Low bit of the session ids this end allocates.
    parity: u32,
    /// Callers blocked on a reply while someone else holds `half`.
    queued: AtomicUsize,
    /// Times a caller or a worker took `half`: how the parked thread tells
    /// a burst in progress from an idle carrier.
    turns: AtomicU64,
    /// Calls the parked thread back before [`HANDOVER`] is up.
    recalled: Mutex<bool>,
    recall: Condvar,
    /// See [`MuxConn::handovers_waited_out`].
    handovers_waited_out: AtomicU64,
    /// Frames read, and their bytes on the wire.
    frames: AtomicU64,
    bytes: AtomicU64,
    /// See [`MuxStats`].
    replies_caller_read: AtomicU64,
    replies_handed_over: AtomicU64,
    sessions: AtomicU64,
}

impl std::fmt::Debug for CarrierReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CarrierReader").finish_non_exhaustive()
    }
}

impl CarrierReader {
    /// Builds the read half of a carrier over `source` and starts its
    /// thread. The returned queue yields the sessions the peer opens.
    pub(crate) fn spawn(
        source: impl DeadlineRead + 'static,
        initiator: bool,
    ) -> (Arc<CarrierReader>, Receiver<(u32, Arc<Inbox>)>) {
        let (accepted_tx, accepted_rx) = mpsc::channel();
        let reader = Arc::new(CarrierReader {
            half: Mutex::new(Some(FrameReader::new(source))),
            routes: Mutex::new(HashMap::new()),
            accepts: Mutex::new(Accepts::Queue(accepted_tx)),
            parity: u32::from(initiator),
            queued: AtomicUsize::new(0),
            turns: AtomicU64::new(0),
            recalled: Mutex::new(false),
            recall: Condvar::new(),
            handovers_waited_out: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            replies_caller_read: AtomicU64::new(0),
            replies_handed_over: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
        });
        {
            let reader = Arc::clone(&reader);
            std::thread::Builder::new()
                .name("rpc-mux-reader".into())
                .spawn(move || reader.run())
                .expect("spawning the carrier reader thread");
        }
        (reader, accepted_rx)
    }

    /// A caller that has sent its request takes its place at the carrier:
    /// the read half if nobody holds it, the queue behind whoever does.
    pub(crate) fn enter(&self) -> Turn<'_> {
        if let Some(reading) = self.try_read() {
            return Turn::Reading(reading);
        }
        // Announced before looking again, and looked at by a leaving reader
        // after letting go: one of the two sees the other, so a caller never
        // queues behind nobody.
        self.queued.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if let Some(reading) = self.try_read() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Turn::Reading(reading);
        }
        Turn::Queued(Queued(self))
    }

    /// The read half, if nobody holds it and the carrier is up.
    pub(crate) fn try_read(&self) -> Option<ReadTurn<'_>> {
        let half = self.half.try_lock()?;
        half.as_ref()?; // gone: there is nothing to read
        self.turns.fetch_add(1, Ordering::Relaxed);
        Some(ReadTurn {
            carrier: self,
            half: Some(half),
            replies: 0,
            own_reply: false,
            idle: false,
        })
    }

    /// Our end of session `id`: `writer` plus `inbox`, read through `me`.
    fn session(
        &self,
        writer: &Arc<CarrierWriter>,
        id: u32,
        inbox: Arc<Inbox>,
        me: &Arc<CarrierReader>,
    ) -> Session {
        self.sessions.fetch_add(1, Ordering::Relaxed);
        Session::on_carrier(Arc::clone(writer), id, inbox, me)
    }

    /// Calls the carrier's thread back to the read half if nobody holds it:
    /// for a worker that will not read its carrier next although the thread
    /// stepped aside for it. (Held, its holder reads; a recall then would
    /// only keep the thread reading once it steps aside.)
    pub(crate) fn recall_if_free(&self) {
        if let Some(turn) = self.try_read() {
            turn.hand_back();
        }
    }

    /// Calls the parked reader thread back to the read half.
    fn recall_thread(&self) {
        *self.recalled.lock() = true;
        self.recall.notify_one();
    }

    /// The reader thread: reads whenever nobody else does.
    fn run(&self) {
        loop {
            // Whoever holds the half needs no help; it recalls us when it
            // leaves work behind.
            if let Some(mut half) = self.half.try_lock() {
                loop {
                    let delivered = match self.step(&mut half, None) {
                        Step::Gone => return,
                        Step::TimedOut => continue,
                        Step::Routed(delivered) => delivered,
                    };
                    if delivered == Delivered::Reply {
                        self.replies_handed_over.fetch_add(1, Ordering::Relaxed);
                    }
                    // That caller or worker reads the next frame itself.
                    if matches!(delivered, Delivered::Reply | Delivered::Handed)
                        && !half.as_ref().is_some_and(FrameReader::holds_unread)
                    {
                        break;
                    }
                }
            }
            self.park();
        }
    }

    /// Waits until recalled, or until no caller has taken the read half for
    /// [`HANDOVER`].
    fn park(&self) {
        let mut seen = self.turns.load(Ordering::Relaxed);
        let mut recalled = self.recalled.lock();
        while !std::mem::take(&mut *recalled) {
            let (guard, wait) = self.recall.wait_timeout(recalled, HANDOVER);
            recalled = guard;
            let turns = self.turns.load(Ordering::Relaxed);
            if wait.timed_out() && turns == seen {
                self.handovers_waited_out.fetch_add(1, Ordering::Relaxed);
                return;
            }
            seen = turns;
        }
    }

    /// Reads one frame — giving up at `deadline` — and routes it. Any
    /// failure of the stream ends the carrier, whoever was reading.
    fn step(&self, half: &mut Option<FrameReader>, deadline: Option<Instant>) -> Step {
        let Some(reading) = half.as_mut() else {
            return Step::Gone;
        };
        let routed = match reading.next(deadline) {
            Ok(Some((head, frame))) => {
                self.frames.fetch_add(1, Ordering::Relaxed);
                self.bytes
                    .fetch_add((4 + MUX_HEADER + frame.len()) as u64, Ordering::Relaxed);
                self.route(head, frame)
            }
            Ok(None) => return Step::TimedOut,
            Err(_) => None, // EOF, a length out of range, an I/O error
        };
        match routed {
            Some(delivered) => Step::Routed(delivered),
            None => {
                self.close(half);
                Step::Gone
            }
        }
    }

    /// Hands one frame to its session. `None` when the carrier cannot go
    /// on: a frame kind this dialect does not know.
    fn route(&self, head: FrameHead, frame: Vec<u8>) -> Option<Delivered> {
        let id = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        let kind = head[4];
        if kind != KIND_OPEN && kind != KIND_CLOSE && kind != KIND_DATA {
            return None;
        }
        let peer_initiated = (id & 1) != self.parity;
        match kind {
            KIND_OPEN => return Some(self.open_route(id).map_or(Delivered::Kept, |(_, d)| d)),
            KIND_CLOSE => {
                if let Some(inbox) = self.routes.lock().remove(&id) {
                    inbox.close();
                }
            }
            _ => {
                let mut inbox = self.routes.lock().get(&id).cloned();
                if inbox.is_none() && peer_initiated {
                    // Data can race ahead of its OPEN only if the peer
                    // speaks a newer dialect; treat it as an implicit open
                    // so nothing is lost. (For a session of ours it is a
                    // late frame after our close: dropped.)
                    inbox = self.open_route(id).map(|(inbox, _)| inbox);
                }
                // Pushed outside the routes lock: the push runs the
                // session's sink, and `open_session` on another thread must
                // not wait for it.
                if let Some(inbox) = inbox {
                    match inbox.push(frame) {
                        Ok(delivered) => return Some(delivered),
                        Err(_) => {
                            self.routes.lock().remove(&id);
                        }
                    }
                }
            }
        }
        Some(Delivered::Kept)
    }

    /// Installs a route for a peer-opened session and hands the session
    /// over: its inbox to [`MuxConn::accept`]'s queue, or our end of it to
    /// the accept hook, whose verdict comes back. `None` for a duplicate
    /// OPEN, or once nobody takes sessions any more.
    fn open_route(&self, id: u32) -> Option<(Arc<Inbox>, Delivered)> {
        let mut map = self.routes.lock();
        if map.contains_key(&id) {
            return None;
        }
        let inbox = Inbox::new();
        map.insert(id, Arc::clone(&inbox));
        drop(map);
        let delivered = match &*self.accepts.lock() {
            Accepts::Queue(tx) => tx
                .send((id, Arc::clone(&inbox)))
                .ok()
                .map(|()| Delivered::Kept),
            Accepts::Hook {
                writer,
                reader,
                accept,
            } => reader
                .upgrade()
                .map(|me| accept(id, self.session(writer, id, Arc::clone(&inbox), &me))),
            Accepts::Closed => None,
        };
        match delivered {
            Some(delivered) => Some((inbox, delivered)),
            None => {
                self.routes.lock().remove(&id);
                None
            }
        }
    }

    /// Carrier gone: the stream is let go of, every session sees
    /// Disconnected once its queue drains, nobody is handed sessions any
    /// more (which lets go of an accept hook and the write half it kept
    /// open), and the reader thread is called back to find all that and
    /// exit.
    fn close(&self, half: &mut Option<FrameReader>) {
        *half = None;
        let orphans: Vec<Arc<Inbox>> = self.routes.lock().drain().map(|(_, i)| i).collect();
        for inbox in orphans {
            inbox.close();
        }
        let accepts = std::mem::replace(&mut *self.accepts.lock(), Accepts::Closed);
        drop(accepts);
        self.recall_thread();
    }
}

/// A blocked caller's place at its carrier; see [`CarrierReader::enter`].
pub(crate) enum Turn<'a> {
    /// It holds the read half and reads for itself (and everybody else).
    Reading(ReadTurn<'a>),
    /// Somebody else holds the read half and will hand the reply over.
    Queued(#[allow(dead_code)] Queued<'a>), // held for its drop
}

/// A caller's or a worker's hold on the read half. Dropping it is leaving:
/// the half is released, and the reader thread recalled if that leaves
/// anyone waiting, anything read but unrouted, or the carrier idle.
pub(crate) struct ReadTurn<'a> {
    carrier: &'a CarrierReader,
    /// `Some` until the drop.
    half: Option<MutexGuard<'a, Option<FrameReader>>>,
    /// Replies routed to blocked callers during this turn.
    replies: u64,
    own_reply: bool,
    /// A worker read for a request and none came, or handed the half back.
    idle: bool,
}

impl ReadTurn<'_> {
    /// Reads and routes one frame, or gives up at `deadline`. `false` once
    /// the carrier is gone — every call outstanding on it has been failed
    /// by then, the holder's included.
    pub(crate) fn route_next(&mut self, deadline: Instant) -> bool {
        match self.step(deadline) {
            Step::Routed(_) | Step::TimedOut => true,
            Step::Gone => false,
        }
    }

    /// A worker that has just replied reads and routes frames until one is
    /// a job its pool hands to it ([`Delivered::Claimed`]).
    /// It steps aside, as the thread does, once it has delivered a reply to
    /// a blocked caller, who reads for itself when it calls again; it
    /// leaves the carrier to its thread once a frame it routed finds it
    /// `done` (its pool closed: the frame was the peer's `Shutdown` or
    /// `CLOSE` that ended its endpoint, or came after its endpoint's own
    /// drain), after [`HANDOVER`] without any of these, or when the carrier
    /// dies. `true` when it waited out [`HANDOVER`].
    pub(crate) fn lead(&mut self, done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + HANDOVER;
        loop {
            match self.step(deadline) {
                Step::Routed(Delivered::Claimed | Delivered::Reply) => return false,
                Step::Routed(_) if !done() => {}
                Step::Routed(_) | Step::Gone => {
                    self.idle = true;
                    return false;
                }
                Step::TimedOut => {
                    self.idle = true;
                    return true;
                }
            }
        }
    }

    /// Lets go of the read half and calls the carrier's thread back to it.
    pub(crate) fn hand_back(mut self) {
        self.idle = true;
    }

    fn step(&mut self, deadline: Instant) -> Step {
        let half = self.half.as_mut().expect("held until the drop");
        let step = self.carrier.step(half, Some(deadline));
        if let Step::Routed(Delivered::Reply) = step {
            self.replies += 1;
        }
        step
    }

    /// The holder found the reply to its call in its slot. It read that
    /// reply itself if it routed any this turn — the slot was empty when
    /// the turn began, and nothing reaches a slot but through the read half
    /// — and was handed it before the turn began otherwise.
    pub(crate) fn found_own_reply(&mut self) {
        self.own_reply = self.replies > 0;
    }
}

impl Drop for ReadTurn<'_> {
    fn drop(&mut self) {
        let carrier = self.carrier;
        let unread = self
            .half
            .take()
            .is_some_and(|half| half.as_ref().is_some_and(FrameReader::holds_unread));
        if self.own_reply {
            carrier.replies_caller_read.fetch_add(1, Ordering::Relaxed);
        }
        let for_others = self.replies - u64::from(self.own_reply);
        if for_others > 0 {
            carrier
                .replies_handed_over
                .fetch_add(for_others, Ordering::Relaxed);
        }
        // Pairs with the fence in `enter`.
        fence(Ordering::SeqCst);
        if unread || self.idle || carrier.queued.load(Ordering::SeqCst) > 0 {
            carrier.recall_thread();
        }
    }
}

/// A caller's place in the queue behind the read half's holder. Dropping
/// it is leaving; if others still wait, the reader thread is recalled for
/// them (it may have stepped aside on delivering this caller's reply).
pub(crate) struct Queued<'a>(&'a CarrierReader);

impl Drop for Queued<'_> {
    fn drop(&mut self) {
        if self.0.queued.fetch_sub(1, Ordering::SeqCst) > 1 {
            self.0.recall_thread();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory byte pipe so mux logic is testable without sockets.
    fn pipe() -> (PipeWriter, PipeReader) {
        let (tx, rx) = mpsc::channel();
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

    impl DeadlineRead for PipeReader {
        fn read_by(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> std::io::Result<usize> {
            use std::sync::mpsc::RecvTimeoutError;
            while self.pos == self.pending.len() {
                let next = match deadline {
                    Some(deadline) => self
                        .rx
                        .recv_timeout(deadline.saturating_duration_since(Instant::now())),
                    None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                };
                match next {
                    Ok(chunk) => {
                        self.pending = chunk;
                        self.pos = 0;
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(std::io::ErrorKind::TimedOut.into())
                    }
                    Err(RecvTimeoutError::Disconnected) => return Ok(0), // EOF
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
        let a = spawn_mux(a_r, a_w, true, ConnKiller::noop(), || {});
        let b = spawn_mux(b_r, b_w, false, ConnKiller::noop(), || {});
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
    fn each_carrier_end_counts_only_its_own_sessions_frames_and_bytes() {
        let frame = |payload: usize| (4 + MUX_HEADER + payload) as u64;
        let (a1, b1) = mux_pair();
        let (a2, b2) = mux_pair();
        let (ours, theirs) = (a1.open_session().unwrap(), b1.accept().unwrap());
        ours.send(vec![1, 2, 3]).unwrap();
        assert_eq!(theirs.recv().unwrap(), vec![1, 2, 3]);
        theirs.send(vec![9]).unwrap();
        assert_eq!(ours.recv().unwrap(), vec![9]);
        let (ours, theirs) = (a2.open_session().unwrap(), b2.accept().unwrap());
        ours.send(vec![7; 40]).unwrap();
        assert_eq!(theirs.recv().unwrap(), vec![7; 40]);

        // Each end saw OPEN and DATA one way, and on the first carrier one
        // DATA back; nobody called, so no reply was read or handed over.
        let first = MuxStats {
            sessions: 1,
            frames: 3,
            bytes: frame(0) + frame(3) + frame(1),
            ..MuxStats::default()
        };
        let second = MuxStats {
            sessions: 1,
            frames: 2,
            bytes: frame(0) + frame(40),
            ..MuxStats::default()
        };
        assert_eq!((a1.stats(), b1.stats()), (first, first));
        assert_eq!((a2.stats(), b2.stats()), (second, second));
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
    fn an_accept_hook_gets_every_peer_session_with_its_frames_in_order() {
        let (a, b) = mux_pair();
        // One session opened before the hook, with a frame already sent:
        // it reaches the hook with the frame queued, not lost.
        let early = a.open_session().unwrap();
        early.send(vec![0xE, 1]).unwrap();
        // Give the reader time to route the early traffic.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let (accepted_tx, accepted) = mpsc::channel();
        b.accept_with(move |id, session| {
            let _ = accepted_tx.send((id, session));
            Delivered::Kept
        });
        early.send(vec![0xE, 2]).unwrap();
        let late = a.open_session().unwrap();
        late.send(vec![0x1A]).unwrap();

        let timeout = std::time::Duration::from_secs(5);
        let (early_id, early_end) = accepted.recv_timeout(timeout).unwrap();
        let (late_id, late_end) = accepted.recv_timeout(timeout).unwrap();
        assert!(early_id < late_id, "handed over in the order opened");
        assert_eq!(early_end.recv().unwrap(), vec![0xE, 1]);
        assert_eq!(early_end.recv().unwrap(), vec![0xE, 2]);
        assert_eq!(late_end.recv().unwrap(), vec![0x1A]);
        late_end.send(vec![9]).unwrap();
        assert_eq!(late.recv().unwrap(), vec![9]);

        // The carrier's death reaches the sessions the hook holds.
        drop(early);
        drop(late);
        drop(a);
        assert_eq!(early_end.recv().unwrap_err(), LinkError::Disconnected);
        assert_eq!(late_end.recv().unwrap_err(), LinkError::Disconnected);
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
        let conn = spawn_mux(silent, out.clone(), true, ConnKiller::noop(), || {});
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
        let conn = spawn_mux(silent, out.clone(), true, ConnKiller::noop(), {
            let hook_runs = Arc::clone(&hook_runs);
            move || {
                hook_runs.fetch_add(1, Ordering::SeqCst);
            }
        });
        let session = conn.open_session().unwrap();
        let sibling = conn.open_session().unwrap();

        out.broken.store(true, Ordering::SeqCst);
        assert_eq!(session.send(vec![1]), Err(LinkError::Disconnected));
        // Part of a frame may be on the wire: the carrier stays dead even
        // if the socket would take bytes again.
        out.broken.store(false, Ordering::SeqCst);
        assert_eq!(session.send(vec![1]), Err(LinkError::Disconnected));
        assert_eq!(sibling.send(vec![1]), Err(LinkError::Disconnected));
        assert_eq!(conn.open_session().unwrap_err(), LinkError::Disconnected);

        drop(session);
        drop(conn);
        assert_eq!(
            hook_runs.load(Ordering::SeqCst),
            0,
            "a sibling session still holds the write half"
        );
        drop(sibling);
        assert_eq!(hook_runs.load(Ordering::SeqCst), 1);
    }
}
