//! The daemon's serving path: a bounded worker pool holding thousands of
//! logical sessions per daemon process.
//!
//! An [`Endpoint`] per logical session — a worker pool each — would be
//! perfect isolation but caps a process at a few hundred sessions. The
//! pool shares the threads instead: every carrier is switched into mux
//! *bus mode* ([`aide_rpc::MuxConn::route_accepts_to`]) with the pool as
//! its sink, so all sessions of all carriers feed a fixed set of shard
//! workers. Sessions keep their own surrogate VM, reference tables, and
//! dispatcher (the isolation the paper's per-client platform instances
//! require); only the *threads* are shared.
//!
//! Whoever reads a carrier hashes `(carrier, session)` onto a shard and
//! enqueues the event on that shard's queue itself — there is no router
//! thread in between. Each shard is served by exactly one worker, so frames
//! of one session are processed in arrival order without any per-session
//! locking. The worker does what the endpoint's sink does with an inbound
//! frame — decode it, renew leases from its stamp — and then serves the
//! request through the same [`aide_rpc::Responder`] the endpoint's workers
//! run (at-most-once dedup with memoized reply frames, the serve span,
//! the reply stamped with the session's advertised import epoch and its
//! VM's slot-write count), one responder per session.
//!
//! Who reads is the endpoint's rule, leader/followers: a worker that has
//! replied on a carrier, with nothing queued for it, takes the carrier's
//! read half if it is free ([`aide_rpc::MuxSender::lead`]), reads and
//! routes frames until one is for its own shard, lets go and serves that
//! one itself — a daemon request is then caller → shard worker → caller.
//! The carrier's reader thread reads when nobody else does, and steps aside
//! once it has queued a request for a shard, whose worker comes back to the
//! carrier when it has replied: it leads it, or — its queue not empty, the
//! session gone, or the half taken — recalls the thread at once.
//!
//! Admission control bounds the pool: once `max_sessions` sessions are
//! live, new sessions are answered with [`Reply::Busy`] and closed instead
//! of silently queued — the client backs off or fails over to another
//! surrogate while this one stays healthy for the sessions it already
//! carries.
//!
//! [`Endpoint`]: aide_rpc::Endpoint

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use aide_core::{RefTables, VmDispatcher};
use aide_rpc::{
    BusEvent, BusSink, Delivered, Dispatcher, Frame, LeaseStamp, Message, MuxSender, Reply,
    Request, Responder, Served,
};
use aide_vm::SlotWrites;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

/// Tuning for a [`ShardPool`].
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Number of shard workers. Each worker owns its sessions outright, so
    /// throughput scales with shards while per-session ordering is free.
    pub shards: usize,
    /// Admission limit: the pool-wide number of concurrently live
    /// sessions. Sessions beyond it are answered [`Reply::Busy`].
    pub max_sessions: usize,
    /// The `retry_after_ms` hint stamped into [`Reply::Busy`] replies.
    pub busy_retry_ms: u32,
    /// Per-session capacity of the memoized-reply (at-most-once) cache.
    pub dedup_capacity: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            max_sessions: 16_384,
            busy_retry_ms: 25,
            dedup_capacity: 128,
        }
    }
}

/// The per-session machinery a [`SessionFactory`] builds: the session's
/// serving dispatcher (fault injectors and counters already layered in),
/// its reference tables, and a GC-side dispatcher sharing the same VM so
/// the daemon's lease sweeper can reclaim expired exports out-of-band.
pub struct SessionParts {
    /// Serves the session's requests.
    pub dispatcher: Arc<dyn Dispatcher>,
    /// The session's export/import tables (lease renewal and reply
    /// stamping read these).
    pub tables: Arc<RefTables>,
    /// Shares the session's VM and tables; used by the lease sweeper.
    pub gc: Arc<VmDispatcher>,
}

/// Builds a fresh session's VM, tables, and dispatcher chain. The
/// [`aide_rpc::ConnKiller`] severs the whole carrier the session rides on,
/// which is what the daemon's crash injector
/// ([`DaemonConfig::fail_after_requests`](crate::DaemonConfig::fail_after_requests))
/// pulls.
pub type SessionFactory = dyn Fn(aide_rpc::ConnKiller) -> SessionParts + Send + Sync;

/// One live session owned by a shard worker: its machinery, the responder
/// holding its at-most-once cache, and the way back to its client.
struct ShardSession {
    parts: SessionParts,
    /// The session VM's slot-write count, stamped on every reply beside
    /// the lease epoch.
    writes: Arc<SlotWrites>,
    responder: Responder,
    /// The carrier's outbound handle, looked up once at admission. `None`
    /// if the carrier was already torn down by then: the session hears
    /// nothing more and ends with the carrier's `CarrierClosed`.
    sender: Option<MuxSender>,
}

/// State shared by the carriers' readers (which route into it), the shard
/// workers, and the daemon.
struct PoolShared {
    name: String,
    config: ShardConfig,
    /// Live sessions across all shards (the admission gate).
    live: AtomicUsize,
    /// Sessions ever admitted (the daemon's `sessions_accepted`).
    admitted: AtomicU64,
    /// Sessions refused admission.
    rejected: AtomicU64,
    /// Requests dispatched across all shards.
    served: AtomicU64,
    /// Requests served by the shard worker that read them off the carrier.
    served_where_read: AtomicU64,
    /// Workers' handles by carrier id; registered before the carrier is
    /// switched into bus mode, so no worker sees an unknown carrier.
    carriers: Mutex<HashMap<u64, MuxSender>>,
    /// Per shard, the carrier its worker is leading, if any (see [`Lead`]).
    leads: Vec<Mutex<Lead>>,
    /// GC dispatchers of every live session, for the daemon's sweeper and
    /// the per-session lease-age stats lines.
    gc_sessions: Mutex<HashMap<(u64, u32), Arc<VmDispatcher>>>,
    /// Shard inputs, one per worker (`len` on a crossbeam sender counts
    /// messages in flight, which is the queue-depth stat). Emptied by
    /// [`ShardPool::shutdown`]: the disconnect is what stops the workers.
    shard_txs: RwLock<Vec<Sender<Routed>>>,
    factory: Box<SessionFactory>,
}

/// A bus event on its way to a shard worker. An `Opened` carries whether
/// it claimed an admission slot when the carrier's reader routed it, so
/// sessions of one carrier are admitted in the order they were opened,
/// whichever shards they hash to.
struct Routed {
    event: BusEvent,
    slot_claimed: bool,
}

/// A shard worker's turn at a carrier's read half, as an endpoint keeps its
/// `leading`/`claimed`: while `on` names the carrier, the next event for
/// this shard routed off it is the worker's own. Only the worker holding
/// that carrier's read half can be routing it then, so it is the worker
/// that takes it.
#[derive(Default)]
struct Lead {
    on: Option<u64>,
    claimed: Option<Routed>,
}

impl PoolShared {
    /// Takes one of the `max_sessions` admission slots, if any is free.
    fn claim_slot(&self) -> bool {
        let limit = self.config.max_sessions;
        self.live
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
                (live < limit).then_some(live + 1)
            })
            .is_ok()
    }
}

/// Routing happens on whichever thread reads the carrier: hash, then hand
/// the event to the shard's worker if it is leading this carrier, or
/// enqueue it; return.
impl BusSink for PoolShared {
    fn deliver(&self, event: BusEvent) -> Delivered {
        let shard_txs = self.shard_txs.read();
        if shard_txs.is_empty() {
            return Delivered::Kept; // pool shut down
        }
        match &event {
            BusEvent::Opened { conn, session }
            | BusEvent::Data { conn, session, .. }
            | BusEvent::Closed { conn, session } => {
                let conn = *conn;
                let shard = shard_of(conn, *session, shard_txs.len());
                let is_data = matches!(event, BusEvent::Data { .. });
                let slot_claimed = matches!(event, BusEvent::Opened { .. }) && self.claim_slot();
                let routed = Routed {
                    event,
                    slot_claimed,
                };
                {
                    let mut lead = self.leads[shard].lock();
                    if lead.on == Some(conn) && lead.claimed.is_none() {
                        lead.claimed = Some(routed);
                        return Delivered::Claimed;
                    }
                }
                let _ = shard_txs[shard].send(routed);
                if is_data {
                    Delivered::Handed
                } else {
                    Delivered::Kept
                }
            }
            BusEvent::CarrierClosed { conn } => {
                // The carrier's sessions may live on any shard: everyone
                // hears about the death. The event is the last routed for
                // this conn, on the thread that routed the rest, so all its
                // data is already on the shard queues ahead of it (or with
                // the worker that claimed it, which serves that first).
                let conn = *conn;
                self.carriers.lock().remove(&conn);
                for tx in shard_txs.iter() {
                    let _ = tx.send(Routed {
                        event: BusEvent::CarrierClosed { conn },
                        slot_claimed: false,
                    });
                }
                Delivered::Kept
            }
        }
    }
}

/// A running sharded serving pool; create with [`ShardPool::start`], feed
/// with [`sink`](ShardPool::sink) + [`attach_carrier`](ShardPool::attach_carrier),
/// stop with [`shutdown`](ShardPool::shutdown).
pub struct ShardPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("name", &self.shared.name)
            .field("shards", &self.shared.config.shards)
            .field("live", &self.shared.live.load(Ordering::Relaxed))
            .finish()
    }
}

impl ShardPool {
    /// Spawns the shard workers. `name` labels the per-
    /// daemon stats lines; `factory` builds each admitted session's VM and
    /// dispatcher chain.
    pub fn start(name: &str, config: ShardConfig, factory: Box<SessionFactory>) -> ShardPool {
        let shards = config.shards.max(1);
        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = unbounded::<Routed>();
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }
        let shared = Arc::new(PoolShared {
            name: name.to_string(),
            config,
            live: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            served_where_read: AtomicU64::new(0),
            carriers: Mutex::new(HashMap::new()),
            leads: (0..shards).map(|_| Mutex::default()).collect(),
            gc_sessions: Mutex::new(HashMap::new()),
            shard_txs: RwLock::new(shard_txs),
            factory,
        });

        let mut threads = Vec::with_capacity(shards);
        for (i, rx) in shard_rxs.into_iter().enumerate() {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("aide-shard-{name}-{i}"))
                    .spawn(move || {
                        aide_trace::set_thread_track("surrogate");
                        worker_loop(&shared, i, &rx);
                        aide_trace::flush_thread();
                    })
                    .expect("spawn shard worker"),
            );
        }

        ShardPool {
            shared,
            threads: Mutex::new(threads),
        }
    }

    /// The routing sink to hand to [`aide_rpc::MuxConn::route_accepts_to`].
    pub fn sink(&self) -> Arc<dyn BusSink> {
        self.shared.clone()
    }

    /// Registers a carrier's outbound handle. Must be called *before* the
    /// carrier is switched into bus mode (see
    /// [`aide_rpc::MuxConn::bus_sender`]), or early frames find no way to
    /// reply.
    pub fn attach_carrier(&self, conn: u64, sender: MuxSender) {
        self.shared.carriers.lock().insert(conn, sender);
    }

    /// Sessions currently live across all shards.
    pub fn live_sessions(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Sessions ever admitted.
    pub fn sessions_admitted(&self) -> u64 {
        self.shared.admitted.load(Ordering::SeqCst)
    }

    /// Sessions refused admission with a [`Reply::Busy`].
    pub fn sessions_rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::SeqCst)
    }

    /// Requests dispatched across all shards.
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Requests served by the shard worker that read them off their carrier
    /// (leading it), counted as it takes them; the rest were read by the
    /// carrier's thread and queued.
    pub fn requests_served_where_read(&self) -> u64 {
        self.shared.served_where_read.load(Ordering::SeqCst)
    }

    /// GC dispatchers of every live session, for the lease sweeper.
    pub fn gc_handles(&self) -> Vec<Arc<VmDispatcher>> {
        self.shared.gc_sessions.lock().values().cloned().collect()
    }

    /// Stops the pool: severs every carrier, disconnects the shard queues
    /// (each worker finishes what is queued, then exits), joins the
    /// workers, and drops all session state.
    pub fn shutdown(&self) {
        let shard_txs = std::mem::take(&mut *self.shared.shard_txs.write());
        if shard_txs.is_empty() {
            return; // already shut down
        }
        for sender in self.shared.carriers.lock().values() {
            sender.killer().kill();
        }
        drop(shard_txs);
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
        self.shared.carriers.lock().clear();
        self.shared.gc_sessions.lock().clear();
    }
}

/// Deterministic shard assignment: sessions of one carrier spread across
/// shards, and the same `(conn, session)` always lands on the same worker.
fn shard_of(conn: u64, session: u32, shards: usize) -> usize {
    let mixed = (conn ^ (u64::from(session) << 32) ^ u64::from(session))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize % shards
}

fn worker_loop(shared: &PoolShared, shard: usize, rx: &Receiver<Routed>) {
    let telemetry = aide_telemetry::global();
    let active = telemetry.gauge(aide_telemetry::names::SURROGATE_ACTIVE_SESSIONS);
    let fleet_live = telemetry.gauge(aide_telemetry::names::FLEET_LIVE_SESSIONS);
    let accepted = telemetry.counter(aide_telemetry::names::SURROGATE_SESSIONS);
    let fleet_rejected = telemetry.counter(aide_telemetry::names::FLEET_SESSIONS_REJECTED);

    let mut sessions: HashMap<(u64, u32), ShardSession> = HashMap::new();
    let mut rejected: HashSet<(u64, u32)> = HashSet::new();

    let close_session = |sessions: &mut HashMap<(u64, u32), ShardSession>,
                         rejected: &mut HashSet<(u64, u32)>,
                         key: (u64, u32)| {
        rejected.remove(&key);
        let closed = sessions.remove(&key);
        if closed.is_some() {
            shared.live.fetch_sub(1, Ordering::SeqCst);
            shared.gc_sessions.lock().remove(&key);
            active.add(-1);
            fleet_live.add(-1);
        }
        closed
    };

    // The carrier of the last request served, and whether leading is held
    // off (see below).
    let mut last_from = None;
    let mut held_off = false;
    // `read_here`: the worker read the event itself, leading its carrier.
    let mut next = rx.recv().ok().map(|routed| (routed, false));
    while let Some((
        Routed {
            event,
            slot_claimed,
        },
        read_here,
    )) = next
    {
        // The session whose carrier the worker owes a read once this event
        // is done: the carrier's thread stepped aside for a request it
        // queued, and it left the carrier to a worker that read one itself.
        let mut owed = None;
        match event {
            BusEvent::Opened { conn, session } => {
                let key = (conn, session);
                if sessions.contains_key(&key) || rejected.contains(&key) {
                    // Duplicate OPEN: idempotent, and its slot goes back.
                    if slot_claimed {
                        shared.live.fetch_sub(1, Ordering::SeqCst);
                    }
                } else {
                    admit(shared, &mut sessions, &mut rejected, key, slot_claimed);
                    if sessions.contains_key(&key) {
                        accepted.inc();
                        active.add(1);
                        fleet_live.add(1);
                    } else {
                        fleet_rejected.inc();
                    }
                }
                owed = read_here.then_some(key);
            }
            BusEvent::Data {
                conn,
                session,
                frame,
            } => {
                let key = (conn, session);
                owed = Some(key);
                held_off &= last_from != Some(conn);
                last_from = Some(conn);
                if read_here {
                    shared.served_where_read.fetch_add(1, Ordering::Relaxed);
                }
                // A live session knows its way back; only a frame for one
                // that is not (yet) live looks the carrier up. With the
                // carrier already torn down the frame is dropped.
                if !sessions.contains_key(&key) {
                    if let Some(sender) = shared.carriers.lock().get(&conn).cloned() {
                        if !rejected.contains(&key) {
                            // Data racing ahead of its OPEN: implicit open.
                            let slot_claimed = shared.claim_slot();
                            admit(shared, &mut sessions, &mut rejected, key, slot_claimed);
                            if sessions.contains_key(&key) {
                                accepted.inc();
                                active.add(1);
                                fleet_live.add(1);
                            } else {
                                fleet_rejected.inc();
                            }
                        }
                        if rejected.contains(&key) {
                            reply_busy(&sender, session, &frame, shared.config.busy_retry_ms);
                        }
                    }
                }
                if serve(shared, &mut sessions, key, &frame) {
                    let closed = close_session(&mut sessions, &mut rejected, key);
                    if let Some(sender) = closed.and_then(|s| s.sender) {
                        sender.close(session);
                    }
                }
            }
            BusEvent::Closed { conn, session } => {
                close_session(&mut sessions, &mut rejected, (conn, session));
                owed = read_here.then_some((conn, session));
            }
            BusEvent::CarrierClosed { conn } => {
                let keys: Vec<(u64, u32)> = sessions
                    .keys()
                    .chain(rejected.iter())
                    .filter(|(c, _)| *c == conn)
                    .copied()
                    .collect();
                for key in keys {
                    close_session(&mut sessions, &mut rejected, key);
                }
            }
        }
        // The worker leads the carrier of a session still open. A lead that
        // read nothing while another carrier's work waited in the queue
        // holds leading off until one carrier brings two requests in a row:
        // a leader gives up a quiet socket only after `HANDOVER` rounded up
        // to the kernel's timer tick (4–8 ms), and carriers taking turns on
        // one shard would wait that long on every turn. Held off, or with
        // the session turned away or gone (nothing more of it is coming),
        // the worker recalls the carrier's thread instead.
        let led = owed.and_then(|key| match sessions.get(&key) {
            Some(live) => {
                let sender = live.sender.as_ref()?;
                if held_off {
                    sender.recall();
                    None
                } else {
                    lead(shared, shard, rx, sender, &mut held_off)
                }
            }
            None => {
                if let Some(sender) = shared.carriers.lock().get(&key.0) {
                    sender.recall();
                }
                None
            }
        });
        next = match led {
            Some(routed) => Some((routed, true)),
            None => rx.recv().ok().map(|routed| (routed, false)),
        };
    }

    // Worker exit: whatever is still live leaves the gauges with it.
    let remaining = sessions.len() as i64;
    if remaining > 0 {
        active.add(-remaining);
        fleet_live.add(-remaining);
    }
    shared.live.fetch_sub(sessions.len(), Ordering::SeqCst);
}

/// The worker of `shard`, its reply sent on `sender`'s carrier, reads that
/// carrier for its next event itself if nothing is queued for it: marked
/// as leading the carrier, it takes the first event for its shard it routes
/// ([`BusSink::deliver`] returns `Claimed` for it), and that event comes
/// back. `None` when it read none; it sets `held_off` if it read in vain
/// while work of another carrier reached its queue.
fn lead(
    shared: &PoolShared,
    shard: usize,
    rx: &Receiver<Routed>,
    sender: &MuxSender,
    held_off: &mut bool,
) -> Option<Routed> {
    let lead = &shared.leads[shard];
    let claimed = sender.lead(
        || {
            // Looked at holding the read half: whatever the carrier's
            // thread queued before is in sight, and is served first.
            let idle = rx.is_empty();
            if idle {
                lead.lock().on = Some(sender.conn());
            }
            idle
        },
        || {
            let mut lead = lead.lock();
            lead.on = None;
            lead.claimed.take()
        },
    )?;
    *held_off = claimed.is_none() && !rx.is_empty();
    claimed
}

/// Admits `key` if it holds an admission slot (`slot_claimed`: the pool
/// was under its session limit when the session asked), building the
/// session's VM and dispatcher chain; otherwise parks it in the rejected
/// set (its data frames are answered `Busy`).
fn admit(
    shared: &PoolShared,
    sessions: &mut HashMap<(u64, u32), ShardSession>,
    rejected: &mut HashSet<(u64, u32)>,
    key: (u64, u32),
    slot_claimed: bool,
) {
    if !slot_claimed {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        rejected.insert(key);
        return;
    }
    let sender = shared.carriers.lock().get(&key.0).cloned();
    let killer = sender
        .as_ref()
        .map_or_else(aide_rpc::ConnKiller::noop, MuxSender::killer);
    let parts = (shared.factory)(killer);
    shared.gc_sessions.lock().insert(key, parts.gc.clone());
    shared.admitted.fetch_add(1, Ordering::SeqCst);
    let writes = parts.gc.machine().vm().lock().slot_writes().clone();
    sessions.insert(
        key,
        ShardSession {
            parts,
            writes,
            responder: Responder::new(shared.config.dedup_capacity),
            sender,
        },
    );
}

/// Answers a frame on a rejected session with [`Reply::Busy`] and closes
/// the session — the client's failover layer treats it like saturation,
/// backing off or moving to another surrogate.
fn reply_busy(sender: &MuxSender, session: u32, frame: &Frame, retry_after_ms: u32) {
    if let Ok(Message::Request { seq, .. }) = Message::decode(frame) {
        let reply = Message::Reply {
            seq,
            result: Ok(Reply::Busy { retry_after_ms }),
        }
        .encode();
        let _ = sender.send(session, reply);
    }
    sender.close(session);
}

/// Serves one data frame on a live session: decodes it, renews the
/// session's leases from its stamp, and runs the request through the
/// session's [`Responder`]. Returns `true` when the session asked to shut
/// down.
fn serve(
    shared: &PoolShared,
    sessions: &mut HashMap<(u64, u32), ShardSession>,
    key: (u64, u32),
    frame: &Frame,
) -> bool {
    let Some(sess) = sessions.get_mut(&key) else {
        return false;
    };
    let Some(sender) = &sess.sender else {
        return false; // its carrier was gone when it was admitted: drop
    };
    let Ok((header, message)) = Message::decode_framed(frame) else {
        return false; // corrupt frame: the client's retry will re-send
    };
    if let Some(stamp) = header.lease {
        // Stamped traffic renews this session's export leases, exactly as
        // the endpoint's sink does. (The client's write count goes unread:
        // a session's VM makes no calls, so it remembers nothing.)
        sess.parts.tables.exports.renew(stamp.epoch);
    }
    let Message::Request { seq, client, body } = message else {
        return false; // a stray reply has no business here
    };
    if matches!(body, Request::Shutdown) {
        return true;
    }
    let dispatcher = WithFleetStats {
        session: sess.parts.dispatcher.as_ref(),
        shared,
    };
    let (imports, writes) = (&sess.parts.tables.imports, &sess.writes);
    let touches = header.deferred.len() as u64;
    let served = sess
        .responder
        .respond(&dispatcher, header, client, seq, body, || {
            let stamp = LeaseStamp {
                epoch: imports.advertised_epoch(),
                writes: writes.get(),
            };
            (Some(stamp), Vec::new())
        });
    if matches!(served, Served::Executed(_)) {
        shared.served.fetch_add(1 + touches, Ordering::Relaxed);
    }
    if let Served::Executed(reply) | Served::Replayed(reply) = served {
        let _ = sender.send(key.1, reply);
    }
    false
}

/// A session's dispatcher as the pool serves it: `STATS` answers get the
/// pool's per-daemon Prometheus lines appended — live-session and
/// queue-depth gauges, the admission limit, rejected sessions, each live
/// session's oldest lease age — so one scrape shows fleet load even with
/// many daemons in one process. Labelled by daemon name because the
/// process-global registry cannot tell co-hosted daemons apart.
struct WithFleetStats<'a> {
    session: &'a dyn Dispatcher,
    shared: &'a PoolShared,
}

impl Dispatcher for WithFleetStats<'_> {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        let is_stats = matches!(request, Request::Stats);
        let mut result = self.session.dispatch(request);
        if is_stats {
            if let Ok(Reply::Text(text)) = &mut result {
                text.push_str(&fleet_snapshot(self.shared).render());
            }
        }
        result
    }
}

/// The pool's current load as a typed [`aide_telemetry::FleetSnapshot`]
/// — the same struct registries parse back out of the scrape, so the
/// exposition format is pinned by its round-trip test.
fn fleet_snapshot(shared: &PoolShared) -> aide_telemetry::FleetSnapshot {
    let leases = shared
        .gc_sessions
        .lock()
        .iter()
        .map(|(&(conn, session), gc)| aide_telemetry::SessionLease {
            conn,
            session,
            age_ms: gc
                .tables()
                .exports
                .lease_ages_ms()
                .into_iter()
                .max()
                .unwrap_or(0),
        })
        .collect();
    aide_telemetry::FleetSnapshot {
        daemon: shared.name.clone(),
        live_sessions: shared.live.load(Ordering::SeqCst) as u64,
        session_limit: shared.config.max_sessions as u64,
        queue_depth: shared
            .shard_txs
            .read()
            .iter()
            .map(Sender::len)
            .sum::<usize>() as u64,
        sessions_rejected_total: shared.rejected.load(Ordering::SeqCst),
        leases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_rpc::{MuxConn, Session, TcpMuxListener};
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for conn in 0..8u64 {
                for session in 0..64u32 {
                    let a = shard_of(conn, session, shards);
                    let b = shard_of(conn, session, shards);
                    assert_eq!(a, b);
                    assert!(a < shards);
                }
            }
        }
    }

    #[test]
    fn sessions_of_one_carrier_spread_across_shards() {
        let shards = 4;
        let hit: HashSet<usize> = (0..256u32).map(|s| shard_of(1, s, shards)).collect();
        assert_eq!(hit.len(), shards, "256 sessions must reach every shard");
    }

    /// A pool whose sessions run an empty program.
    fn tiny_pool(name: &str, config: ShardConfig) -> ShardPool {
        pool_serving(name, config, |vm| vm)
    }

    /// A pool whose sessions run an empty program, served through `wrap`.
    fn pool_serving(
        name: &str,
        config: ShardConfig,
        wrap: impl Fn(Arc<dyn Dispatcher>) -> Arc<dyn Dispatcher> + Send + Sync + 'static,
    ) -> ShardPool {
        use aide_vm::{Machine, MethodDef, MethodId, ProgramBuilder, VmConfig};
        let mut b = ProgramBuilder::new();
        let main = b.add_native_class("Main");
        b.add_method(main, MethodDef::new("main", Vec::new()));
        let program = Arc::new(b.build(main, MethodId(0), 0, 0).unwrap());
        ShardPool::start(
            name,
            config,
            Box::new(move |_killer| {
                let machine = Machine::new(program.clone(), VmConfig::surrogate(1 << 20));
                let tables = Arc::new(RefTables::new());
                SessionParts {
                    dispatcher: wrap(Arc::new(VmDispatcher::new(machine.clone(), tables.clone()))),
                    gc: Arc::new(VmDispatcher::new(machine, tables.clone())),
                    tables,
                }
            }),
        )
    }

    /// A client's carrier to `pool`, attached as `conn` the way the daemon
    /// attaches each carrier it accepts.
    fn carrier(pool: &ShardPool, conn: u64) -> MuxConn {
        let listener = TcpMuxListener::bind(([127, 0, 0, 1], 0).into()).unwrap();
        let transport = MuxConn::connect(listener.local_addr(), Duration::from_secs(2)).unwrap();
        let accepted = listener.accept().unwrap();
        pool.attach_carrier(conn, accepted.bus_sender(conn));
        accepted.route_accepts_to(conn, pool.sink());
        transport
    }

    /// Sends `body` as request `seq` on `session` and waits for the reply.
    fn round_trip(session: &Session, seq: u64, body: Request) -> Frame {
        let request = Message::Request {
            seq,
            client: 9,
            body,
        };
        session.send(request.encode()).unwrap();
        let reply = session
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("the pool answers");
        assert!(
            matches!(Message::decode(&reply), Ok(Message::Reply { seq: s, .. }) if s == seq),
            "the reply to {seq}"
        );
        reply
    }

    /// The first session a client opens on a carrier: the initiator's first
    /// id, `(1 << 1) | 1`.
    const FIRST_SESSION: u32 = 3;

    /// The `p`th percentile of sorted round-trip times.
    fn percentile(sorted: &[u128], p: usize) -> u128 {
        sorted[sorted.len() * p / 100]
    }

    #[test]
    fn sequential_requests_on_a_pool_session_are_served_by_the_shard_worker_that_reads_them() {
        const CALLS: u64 = 10_000;
        let pool = tiny_pool("lead", ShardConfig::default());
        let transport = carrier(&pool, 1);
        let session = transport.open_session().unwrap();
        for seq in 0..CALLS {
            round_trip(&session, seq, Request::Ping);
        }
        assert_eq!(pool.requests_served(), CALLS);
        // The first is read by the carrier's thread, and so is the next one
        // whenever the worker was kept off the CPU for a millisecond.
        let where_read = pool.requests_served_where_read();
        assert!(
            where_read * 100 >= CALLS * 99 && where_read < CALLS,
            "{where_read} of {CALLS} served where they were read"
        );
        pool.shutdown();
    }

    #[test]
    fn sessions_of_one_shard_on_two_carriers_take_turns_without_stalling() {
        const CALLS: usize = 1_000;
        let shards = ShardConfig::default().shards;
        let shard = shard_of(1, FIRST_SESSION, shards);
        let other = (2..)
            .find(|conn| shard_of(*conn, FIRST_SESSION, shards) == shard)
            .unwrap();
        let pool = tiny_pool("turns", ShardConfig::default());
        let carriers = [carrier(&pool, 1), carrier(&pool, other)];
        let sessions: Vec<_> = carriers.iter().map(|t| t.open_session().unwrap()).collect();

        // Each call finds the worker leading the other carrier, which it
        // leaves within `HANDOVER` (1 ms) of reading nothing there.
        let mut micros: Vec<u128> = (0..CALLS)
            .map(|i| {
                let sent = Instant::now();
                round_trip(&sessions[i % 2], i as u64, Request::Ping);
                sent.elapsed().as_micros()
            })
            .collect();
        micros.sort_unstable();
        assert!(
            pool.shared
                .gc_sessions
                .lock()
                .keys()
                .all(|&(conn, session)| shard_of(conn, session, shards) == shard),
            "both sessions on one shard"
        );
        assert_eq!(pool.live_sessions(), 2);
        assert_eq!(pool.requests_served(), CALLS as u64);
        let p99 = percentile(&micros, 99);
        assert!(p99 < 5_000, "p99 {p99} us");
        pool.shutdown();
    }

    /// Serves like the session's VM, except that a `MigrateAbort` first puts
    /// an event on the worker's own queue, as another carrier's traffic
    /// arriving meanwhile would: the worker has something queued when it
    /// replies, so it does not lead the carrier it replies on.
    struct Crowding {
        vm: Arc<dyn Dispatcher>,
        sink: Arc<OnceLock<Arc<dyn BusSink>>>,
        /// The `(conn, session)` of a CLOSE nobody opened.
        crowd: (u64, u32),
    }

    impl Dispatcher for Crowding {
        fn dispatch(&self, request: Request) -> Result<Reply, String> {
            if matches!(request, Request::MigrateAbort { .. }) {
                let (conn, session) = self.crowd;
                let sink = self.sink.get().expect("set before any traffic");
                sink.deliver(BusEvent::Closed { conn, session });
            }
            self.vm.dispatch(request)
        }
    }

    #[test]
    fn a_worker_that_will_not_read_its_carrier_next_calls_the_carriers_thread_back() {
        const ROUNDS: usize = 200;
        let shards = ShardConfig::default().shards;
        let shard = shard_of(1, FIRST_SESSION, shards);
        // A CLOSE for a session of a carrier the pool never saw, on the same
        // shard: cheap to process, and owed no read.
        let crowd = (1..).find(|s| shard_of(2, *s, shards) == shard).unwrap();
        let sink = Arc::new(OnceLock::new());
        let pool = pool_serving("recall", ShardConfig::default(), {
            let sink = Arc::clone(&sink);
            move |vm| {
                Arc::new(Crowding {
                    vm,
                    sink: Arc::clone(&sink),
                    crowd: (2, crowd),
                })
            }
        });
        assert!(sink.set(pool.sink()).is_ok());
        let transport = carrier(&pool, 1);
        let session = transport.open_session().unwrap();

        // The worker reads each abort itself, leading the carrier, and
        // replies to it with the crowd queued. The ping behind it is read by
        // the carrier's thread: at once if the worker recalled it, and only
        // once `HANDOVER` (1 ms) passes with nobody reading if it did not.
        let mut micros: Vec<u128> = (0..ROUNDS as u64)
            .map(|round| {
                round_trip(
                    &session,
                    2 * round,
                    Request::MigrateAbort { txn: round + 1 },
                );
                let sent = Instant::now();
                round_trip(&session, 2 * round + 1, Request::Ping);
                sent.elapsed().as_micros()
            })
            .collect();
        micros.sort_unstable();
        let (p50, p99) = (percentile(&micros, 50), percentile(&micros, 99));
        assert!(p50 < 1_000, "p50 {p50} us: the carrier's thread waited");
        assert!(p99 < 5_000, "p99 {p99} us");
        assert_eq!(pool.requests_served(), 2 * ROUNDS as u64);
        pool.shutdown();
    }

    #[test]
    fn sessions_are_admitted_in_the_order_their_carrier_opened_them() {
        // Two sessions on different shards and room for one: the slot is
        // claimed on the routing thread, so the first to open gets it
        // however the two shard workers are scheduled.
        let shards = 4;
        let first = 1u32;
        let second = (2..)
            .find(|s| shard_of(1, *s, shards) != shard_of(1, first, shards))
            .unwrap();
        for _ in 0..20 {
            let pool = tiny_pool(
                "order",
                ShardConfig {
                    shards,
                    max_sessions: 1,
                    ..ShardConfig::default()
                },
            );
            let sink = pool.sink();
            for session in [first, second, first] {
                // The repeated OPEN is idempotent: no second slot, no leak.
                sink.deliver(BusEvent::Opened { conn: 1, session });
            }
            while pool.sessions_admitted() + pool.sessions_rejected() < 2 {
                std::thread::yield_now();
            }
            assert!(pool.shared.gc_sessions.lock().contains_key(&(1, first)));
            assert_eq!(pool.sessions_rejected(), 1);
            sink.deliver(BusEvent::CarrierClosed { conn: 1 });
            pool.shutdown(); // workers finish what is queued, then exit
            assert_eq!(pool.live_sessions(), 0);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_pool_is_its_workers_and_no_router_thread() {
        // The kernel keeps 15 bytes of "aide-shard-census-<i>".
        let census = |prefix: &str| {
            std::fs::read_dir("/proc/self/task")
                .expect("thread list")
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|name| name.starts_with(prefix))
                .count()
        };
        let pool = tiny_pool("census", ShardConfig::default());
        // A thread names itself as it starts: wait, bounded, for the last.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while census("aide-shard-cens") < ShardConfig::default().shards && Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert_eq!(census("aide-shard-cens"), ShardConfig::default().shards);
        assert_eq!(census("aide-shard-rout"), 0);
        // Disconnecting the shard queues is what stops the workers. A
        // joined thread's task entry outlives the join by a moment: wait,
        // bounded, for the last to go.
        pool.shutdown();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while census("aide-shard-cens") > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(census("aide-shard-cens"), 0);
    }

    #[test]
    fn a_duplicate_request_on_a_pool_session_is_answered_from_its_memo() {
        let pool = tiny_pool(
            "dedup",
            ShardConfig {
                dedup_capacity: 2,
                ..ShardConfig::default()
            },
        );
        let transport = carrier(&pool, 1);
        let session = transport.open_session().unwrap();

        // A non-idempotent request, sent as the same frame each time.
        let exchange = |seq: u64| {
            let request = Message::Request {
                seq,
                client: 9,
                body: Request::MigrateAbort { txn: seq },
            };
            session.send(request.encode()).unwrap();
            session
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("the pool answers every copy")
        };
        let first = exchange(1);
        assert_eq!(
            Message::decode(&first).unwrap(),
            Message::Reply {
                seq: 1,
                result: Ok(Reply::Unit),
            }
        );
        assert_eq!(exchange(1), first, "the duplicate gets the same bytes");
        assert_eq!(pool.requests_served(), 1, "and is not dispatched");

        // The session remembers two replies: 2 and 3 push 1 out.
        exchange(2);
        let third = exchange(3);
        assert_eq!(exchange(3), third);
        assert_eq!(pool.requests_served(), 3);
        exchange(1);
        assert_eq!(pool.requests_served(), 4, "the evicted memo is gone");
        pool.shutdown();
    }

    /// Logs the kind of every request it is handed, then serves it.
    struct KindLog {
        served: Arc<dyn Dispatcher>,
        log: Arc<parking_lot::Mutex<Vec<&'static str>>>,
    }

    impl Dispatcher for KindLog {
        fn dispatch(&self, request: Request) -> Result<Reply, String> {
            self.log.lock().push(request.kind());
            self.served.dispatch(request)
        }
    }

    #[test]
    fn touches_on_a_pool_sessions_frame_are_served_first_and_once() {
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let pool = {
            let log = log.clone();
            pool_serving("touches", ShardConfig::default(), move |served| {
                Arc::new(KindLog {
                    served,
                    log: log.clone(),
                })
            })
        };
        let transport = carrier(&pool, 1);
        let session = transport.open_session().unwrap();
        let exchange = |seq: u64, touches: &[Request]| {
            let request = Message::Request {
                seq,
                client: 9,
                body: Request::MigrateAbort { txn: seq },
            };
            session
                .send(request.encode_deferring(None, touches))
                .unwrap();
            let reply = session
                .recv_timeout(Duration::from_secs(5))
                .unwrap()
                .expect("the pool answers every frame");
            Message::decode(&reply).unwrap()
        };
        let touches = [
            Request::StaticAccess {
                accessor: aide_vm::ClassId(0),
                class: aide_vm::ClassId(0),
                bytes: 8,
                write: true,
            },
            Request::Native {
                caller: aide_vm::ClassId(0),
                kind: aide_vm::NativeKind::Math,
                work_micros: 5,
                arg_bytes: 0,
                ret_bytes: 0,
            },
        ];
        let answered = Message::Reply {
            seq: 1,
            result: Ok(Reply::Unit),
        };
        assert_eq!(exchange(1, &touches), answered);
        assert_eq!(*log.lock(), ["StaticAccess", "Native", "MigrateAbort"]);
        assert_eq!(pool.requests_served(), 3);
        // The same frame again is answered from the memo: nothing runs.
        assert_eq!(exchange(1, &touches), answered);
        assert_eq!(log.lock().len(), 3);

        // A touch that fails stops its frame, and the reply says so.
        let dangling = Request::FieldAccess {
            target: aide_vm::ObjectId::surrogate(404),
            bytes: 8,
            write: true,
        };
        let Message::Reply {
            result: Ok(Reply::TouchFailed(error)),
            ..
        } = exchange(2, &[dangling, touches[0].clone()])
        else {
            panic!("expected a failed touch");
        };
        assert!(error.starts_with("deferred FieldAccess"), "{error}");
        assert_eq!(log.lock()[3..], ["FieldAccess"]);
        pool.shutdown();
    }
}
