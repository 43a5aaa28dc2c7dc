//! The daemon's sessions: thousands per process, each an [`Endpoint`] with
//! its own surrogate VM, reference tables, dispatcher and at-most-once
//! cache (the isolation the paper's per-client platform instances require),
//! served by one of a few shared worker pools: a session costs its VM and a
//! few buffers, not a thread.
//!
//! Each carrier hands the sessions its peer opens to
//! [`ShardPool::attach_carrier`]'s hook, on the thread that reads the OPEN.
//! The hook takes an admission slot there, so sessions of one carrier are
//! admitted in the order they were opened, and hashes `(carrier, session)`
//! onto one of [`ShardConfig::shards`] pools of one worker each; that worker
//! builds the session and starts its endpoint on the pool
//! ([`Endpoint::start_on`]), so one session's frames are served in order by
//! one worker, and who reads a carrier is the pool's leader/followers rule.
//! Once `max_sessions` sessions are live, a new session's requests are
//! answered [`Reply::Busy`] and the session is closed — the client backs off
//! or fails over while this daemon stays healthy for the sessions it has.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Once, Weak};

use aide_core::VmDispatcher;
use aide_graph::CommParams;
use aide_rpc::{
    ConnKiller, Delivered, Dispatcher, Endpoint, EndpointConfig, MuxConn, NetClock, Reply, Request,
    Session, TouchFailure, Touches, WorkerPool,
};
use parking_lot::Mutex;

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
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            max_sessions: 16_384,
            busy_retry_ms: 25,
        }
    }
}

/// The per-session machinery a session factory builds: the session's
/// serving dispatcher (fault injectors and counters already layered in),
/// and a GC-side dispatcher sharing the same VM and reference tables, which
/// lease renewal, reply stamping and the daemon's lease sweeper use.
pub struct SessionParts {
    /// Serves the session's requests.
    pub dispatcher: Arc<dyn Dispatcher>,
    /// Shares the session's VM and tables.
    pub gc: Arc<VmDispatcher>,
}

/// Builds a fresh session's VM, tables, and dispatcher chain. The
/// [`ConnKiller`] severs the whole carrier the session rides on, which is
/// what the daemon's crash injector pulls on the request
/// [`DaemonConfig::crash_on`](crate::DaemonConfig::crash_on) names.
pub type SessionFactory = dyn Fn(ConnKiller) -> SessionParts + Send + Sync;

/// A session the daemon serves, until its endpoint closes.
struct Served {
    endpoint: Arc<Endpoint>,
    /// The session's GC handle; `None` for a session turned away.
    gc: Option<Arc<VmDispatcher>>,
}

/// A running sharded serving pool; create with [`ShardPool::start`], feed
/// with [`attach_carrier`](ShardPool::attach_carrier), stop with
/// [`shutdown`](ShardPool::shutdown).
pub struct ShardPool {
    name: String,
    config: ShardConfig,
    /// Live sessions across all shards (the admission gate).
    live: AtomicUsize,
    /// Sessions ever admitted (the daemon's `sessions_accepted`).
    admitted: AtomicU64,
    /// Sessions refused admission.
    rejected: AtomicU64,
    /// Requests dispatched across all sessions.
    served: AtomicU64,
    /// Each live carrier's killer, by carrier id, for the shutdown.
    carriers: Mutex<HashMap<u64, ConnKiller>>,
    /// Every session served, turned away ones too, by `(carrier, session)`.
    sessions: Mutex<HashMap<(u64, u32), Served>>,
    /// The shard pools, one worker each.
    shards: Vec<Arc<WorkerPool>>,
    factory: Box<SessionFactory>,
}

impl ShardPool {
    /// Takes one of the `max_sessions` admission slots, if any is free.
    fn claim_slot(&self) -> bool {
        let limit = self.config.max_sessions;
        self.live
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
                (live < limit).then_some(live + 1)
            })
            .is_ok()
    }

    /// The pool serving session `key`.
    fn shard(&self, key: (u64, u32)) -> &Arc<WorkerPool> {
        &self.shards[shard_of(key.0, key.1, self.shards.len())]
    }

    /// Admits session `key`, on its shard's worker: if it holds an
    /// admission slot (`admitted`: the pool was under its session limit when
    /// the session was opened) its machinery is built and its endpoint
    /// started; otherwise an endpoint that answers [`Reply::Busy`] serves
    /// it. Either is forgotten when it closes.
    fn admit(
        self: &Arc<Self>,
        key: (u64, u32),
        session: Session,
        admitted: bool,
        killer: ConnKiller,
    ) {
        let pool = self.shard(key);
        let (dispatcher, parts): (Arc<dyn Dispatcher>, _) = if admitted {
            let parts = (self.factory)(killer);
            self.admitted.fetch_add(1, Ordering::SeqCst);
            let dispatcher = WithFleetStats {
                session: Arc::clone(&parts.dispatcher),
                pool: Arc::downgrade(self),
            };
            (Arc::new(dispatcher), Some(parts))
        } else {
            self.rejected.fetch_add(1, Ordering::SeqCst);
            let refuse = Refuse {
                retry_after_ms: self.config.busy_retry_ms,
                session: session.clone(),
                pool: Arc::downgrade(pool),
                closing: Once::new(),
            };
            (Arc::new(refuse), None)
        };
        let endpoint = Endpoint::start_on(
            pool,
            session,
            CommParams::WAVELAN,
            Arc::new(NetClock::new()),
            dispatcher,
            EndpointConfig::default(),
        );
        let gc = parts.map(|parts| {
            let writes = parts.gc.machine().vm().lock().slot_writes().clone();
            let tables = parts.gc.tables();
            endpoint.attach_gc(tables.exports.clone(), tables.imports.clone(), writes);
            parts.gc
        });
        let served = Served {
            endpoint: Arc::clone(&endpoint),
            gc,
        };
        self.sessions.lock().insert(key, served);
        let shared = Arc::clone(self);
        endpoint.on_close(move || shared.forget(key));
    }

    /// Session `key`'s endpoint closed: it leaves the live count, the peer
    /// is told the session is over, and its VM is released.
    fn forget(&self, key: (u64, u32)) {
        let Some(served) = self.sessions.lock().remove(&key) else {
            return;
        };
        self.release(&served);
        served.endpoint.join();
    }

    /// A session leaves the live count, if it was in it.
    fn release(&self, served: &Served) {
        if served.gc.is_some() {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A carrier's accept hook: admits each session the peer opens on it. The
/// carrier lets go of it when it dies, which forgets the carrier's killer.
struct Accepting {
    conn: u64,
    killer: ConnKiller,
    pool: Arc<ShardPool>,
}

impl Accepting {
    /// Runs on the thread reading the carrier: claims the admission slot
    /// here, in the order the sessions were opened, and leaves the rest to
    /// the session's shard.
    fn accept(&self, id: u32, session: Session) -> Delivered {
        let key = (self.conn, id);
        let admitted = self.pool.claim_slot();
        let (shared, killer) = (Arc::clone(&self.pool), self.killer.clone());
        let pool = self.pool.shard(key);
        pool.run(Some(session.clone()), move || {
            shared.admit(key, session, admitted, killer);
        })
    }
}

impl Drop for Accepting {
    fn drop(&mut self) {
        self.pool.carriers.lock().remove(&self.conn);
    }
}

impl ShardPool {
    /// Spawns the shard workers, which record their spans on the calling
    /// thread's lane under the "surrogate" track. `name` labels the
    /// per-daemon stats lines; `factory` builds each admitted session's VM
    /// and dispatcher chain.
    pub fn start(name: &str, config: ShardConfig, factory: Box<SessionFactory>) -> Arc<ShardPool> {
        let lane = aide_telemetry::current_lane().with_track("surrogate");
        let shards = (0..config.shards.max(1))
            .map(|i| WorkerPool::start(&format!("aide-shard-{name}-{i}"), lane.clone(), 1))
            .collect();
        Arc::new(ShardPool {
            name: name.to_string(),
            config,
            live: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
            carriers: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            shards,
            factory,
        })
    }

    /// Serves the sessions the peer opens on `carrier`, which the daemon
    /// calls `conn`, from now on (and those it opened before).
    pub fn attach_carrier(self: &Arc<Self>, conn: u64, carrier: &MuxConn) {
        let killer = carrier.killer();
        self.carriers.lock().insert(conn, killer.clone());
        let accepting = Accepting {
            conn,
            killer,
            pool: Arc::clone(self),
        };
        carrier.accept_with(move |id, session| accepting.accept(id, session));
    }

    /// Sessions currently live across all shards.
    pub fn live_sessions(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Sessions ever admitted.
    pub fn sessions_admitted(&self) -> u64 {
        self.admitted.load(Ordering::SeqCst)
    }

    /// Sessions refused admission with a [`Reply::Busy`].
    pub fn sessions_rejected(&self) -> u64 {
        self.rejected.load(Ordering::SeqCst)
    }

    /// Requests dispatched across all sessions.
    pub fn requests_served(&self) -> u64 {
        self.served.load(Ordering::SeqCst)
    }

    /// Requests served by the shard worker that read them off their carrier
    /// (leading it); the rest were read by the carrier's thread and queued.
    pub fn requests_served_where_read(&self) -> u64 {
        let shards = self.shards.iter();
        shards.map(|pool| pool.requests_served_where_read()).sum()
    }

    /// GC dispatchers of every live session, for the lease sweeper.
    pub fn gc_handles(&self) -> Vec<Arc<VmDispatcher>> {
        let sessions = self.sessions.lock();
        sessions.values().filter_map(|s| s.gc.clone()).collect()
    }

    /// Stops the pool: severs every carrier, lets each shard worker finish
    /// what is queued and joins it, and drops all session state.
    pub fn shutdown(&self) {
        let carriers = std::mem::take(&mut *self.carriers.lock());
        for killer in carriers.values() {
            killer.kill();
        }
        for pool in &self.shards {
            pool.shutdown();
        }
        // Whatever is still live leaves the gauges with it.
        let sessions = std::mem::take(&mut *self.sessions.lock());
        for served in sessions.values() {
            self.release(served);
        }
    }
}

/// Deterministic shard assignment: sessions of one carrier spread across
/// shards, and the same `(conn, session)` always lands on the same worker.
fn shard_of(conn: u64, session: u32, shards: usize) -> usize {
    let mixed = (conn ^ (u64::from(session) << 32) ^ u64::from(session))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (mixed >> 32) as usize % shards
}

/// Serves a session turned away at admission: every request is answered
/// [`Reply::Busy`] — the client's failover layer treats it like
/// saturation, backing off or moving to another surrogate — and the session
/// is closed after the first answer.
struct Refuse {
    retry_after_ms: u32,
    session: Session,
    pool: Weak<WorkerPool>,
    closing: Once,
}

impl Dispatcher for Refuse {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        self.closing.call_once(|| {
            // Queued behind this answer on the shard's one worker, which
            // sends the answer first.
            let session = self.session.clone();
            if let Some(pool) = self.pool.upgrade() {
                pool.run(None, move || session.close());
            }
        });
        Ok(Reply::Busy {
            retry_after_ms: self.retry_after_ms,
        })
    }
}

/// A session's dispatcher as the pool serves it: every request counts in
/// the pool's `requests_served`, and `STATS` answers get the pool's
/// per-daemon Prometheus lines appended — live-session and queue-depth
/// gauges, the admission limit, admitted and rejected sessions, each live
/// session's oldest lease age. The pool is the one record of its sessions; the lines
/// are labelled by daemon name so one scrape tells co-hosted daemons apart.
struct WithFleetStats {
    session: Arc<dyn Dispatcher>,
    pool: Weak<ShardPool>,
}

impl Dispatcher for WithFleetStats {
    /// The session's own batch, counted once: every touch it dispatched,
    /// the one that failed included.
    fn dispatch_touches(&self, touches: &Touches) -> Result<(), TouchFailure> {
        let shared = self.pool.upgrade();
        let served = self.session.dispatch_touches(touches);
        if let Some(shared) = &shared {
            let dispatched = match &served {
                Ok(()) => touches.len(),
                Err(failure) => failure.at + 1,
            };
            shared
                .served
                .fetch_add(dispatched as u64, Ordering::Relaxed);
        }
        served
    }

    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        let shared = self.pool.upgrade();
        if let Some(shared) = &shared {
            shared.served.fetch_add(1, Ordering::Relaxed);
        }
        let is_stats = matches!(request, Request::Stats);
        let mut result = self.session.dispatch(request);
        if let (true, Some(shared), Ok(Reply::Text(text))) = (is_stats, &shared, &mut result) {
            text.push_str(&fleet_snapshot(shared).render());
        }
        result
    }
}

/// The pool's current load as a typed [`aide_telemetry::FleetSnapshot`]
/// — the same struct registries parse back out of the scrape, so the
/// exposition format is pinned by its round-trip test.
fn fleet_snapshot(shared: &ShardPool) -> aide_telemetry::FleetSnapshot {
    let leases = shared
        .sessions
        .lock()
        .iter()
        .filter_map(|(&(conn, session), served)| {
            let age_ms = served.gc.as_ref()?.tables().exports.lease_ages_ms();
            Some(aide_telemetry::SessionLease {
                conn,
                session,
                age_ms: age_ms.into_iter().max().unwrap_or(0),
            })
        })
        .collect();
    aide_telemetry::FleetSnapshot {
        daemon: shared.name.clone(),
        live_sessions: shared.live.load(Ordering::SeqCst) as u64,
        session_limit: shared.config.max_sessions as u64,
        queue_depth: shared
            .shards
            .iter()
            .map(|pool| pool.queued())
            .sum::<usize>() as u64,
        sessions_admitted_total: shared.admitted.load(Ordering::SeqCst),
        sessions_rejected_total: shared.rejected.load(Ordering::SeqCst),
        leases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_rpc::{Message, TcpMuxListener};
    use std::collections::HashSet;
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
    fn tiny_pool(name: &str, config: ShardConfig) -> Arc<ShardPool> {
        pool_serving(name, config, |vm| vm)
    }

    /// A pool whose sessions run an empty program, served through `wrap`.
    fn pool_serving(
        name: &str,
        config: ShardConfig,
        wrap: impl Fn(Arc<dyn Dispatcher>) -> Arc<dyn Dispatcher> + Send + Sync + 'static,
    ) -> Arc<ShardPool> {
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
                let tables = Arc::new(aide_core::RefTables::new());
                SessionParts {
                    dispatcher: wrap(Arc::new(VmDispatcher::new(machine.clone(), tables.clone()))),
                    gc: Arc::new(VmDispatcher::new(machine, tables)),
                }
            }),
        )
    }

    /// A client's carrier to `pool`, attached as `conn` the way the daemon
    /// attaches each carrier it accepts.
    fn carrier(pool: &Arc<ShardPool>, conn: u64) -> MuxConn {
        carrier_ends(pool, conn).0
    }

    /// [`carrier`], and the end of it that `pool` serves.
    fn carrier_ends(pool: &Arc<ShardPool>, conn: u64) -> (MuxConn, MuxConn) {
        let listener = TcpMuxListener::bind(([127, 0, 0, 1], 0).into()).unwrap();
        let transport = MuxConn::connect(listener.local_addr(), Duration::from_secs(2)).unwrap();
        let served = listener.accept().unwrap();
        pool.attach_carrier(conn, &served);
        (transport, served)
    }

    /// Waits, bounded, until `done` holds.
    fn wait_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    /// Sends `body` as request `seq` on `session` and waits for the reply.
    fn round_trip(session: &Session, seq: u64, body: Request) -> Vec<u8> {
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
        // The first is read by the carrier's thread (unless the worker that
        // admitted the session reads it), and so is the next one whenever
        // the worker was kept off the CPU for a millisecond.
        let where_read = pool.requests_served_where_read();
        assert!(
            where_read * 100 >= CALLS * 99 && where_read <= CALLS,
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

        // A worker that replied on one carrier leads it, reading nothing
        // there while the other carrier's call waits in the queue — once:
        // that lead holds leading off while the carriers take turns, so no
        // later call waits out a lead of the other carrier.
        for i in 0..CALLS {
            round_trip(&sessions[i % 2], i as u64, Request::Ping);
        }
        assert!(
            pool.sessions
                .lock()
                .keys()
                .all(|&(conn, session)| shard_of(conn, session, shards) == shard),
            "both sessions on one shard"
        );
        assert_eq!(pool.live_sessions(), 2);
        assert_eq!(pool.requests_served(), CALLS as u64);
        let stalled = pool.shards[shard].stalled_leads();
        assert!(stalled <= 1, "{stalled} of {CALLS} calls waited out a lead");
        pool.shutdown();
    }

    /// Serves like the session's VM, except that a `MigrateAbort` first puts
    /// a job on the worker's own queue, as another carrier's traffic
    /// arriving meanwhile would: it closes one of the crowd's sessions, on
    /// another carrier but the same shard, and waits until that session's
    /// end is queued. The worker has something queued when it replies, so
    /// it does not lead the carrier it replies on.
    struct Crowding {
        vm: Arc<dyn Dispatcher>,
        crowd: Arc<OnceLock<Crowd>>,
    }

    /// Client ends of sessions on one shard, and that shard's pool.
    struct Crowd {
        sessions: Mutex<Vec<Session>>,
        shard: Arc<WorkerPool>,
    }

    impl Dispatcher for Crowding {
        fn dispatch(&self, request: Request) -> Result<Reply, String> {
            if matches!(request, Request::MigrateAbort { .. }) {
                let crowd = self.crowd.get().expect("set before any traffic");
                let session = crowd.sessions.lock().pop().expect("one per round");
                session.close();
                wait_until(|| crowd.shard.queued() > 0);
            }
            self.vm.dispatch(request)
        }
    }

    #[test]
    fn a_worker_that_will_not_read_its_carrier_next_calls_the_carriers_thread_back() {
        const ROUNDS: usize = 200;
        let shards = ShardConfig::default().shards;
        let shard = shard_of(1, FIRST_SESSION, shards);
        let crowd = Arc::new(OnceLock::new());
        let pool = pool_serving("recall", ShardConfig::default(), {
            let crowd = Arc::clone(&crowd);
            move |vm| {
                Arc::new(Crowding {
                    vm,
                    crowd: Arc::clone(&crowd),
                })
            }
        });
        let (transport, served) = carrier_ends(&pool, 1);
        let session = transport.open_session().unwrap();
        // The crowd: sessions of a second carrier that hash to the same
        // shard, each admitted before the rounds begin.
        let crowd_carrier = carrier(&pool, 2);
        let mut sessions = Vec::new();
        let mut opened = 1;
        for id in (1..).map(|n| (n << 1) | 1) {
            let session = crowd_carrier.open_session().unwrap();
            opened += 1;
            if shard_of(2, id, shards) == shard {
                sessions.push(session);
                if sessions.len() == ROUNDS {
                    break;
                }
            }
        }
        wait_until(|| pool.sessions.lock().len() == opened);
        assert_eq!(pool.live_sessions(), opened);
        let crowd_shard = Arc::clone(&pool.shards[shard]);
        assert!(crowd
            .set(Crowd {
                sessions: Mutex::new(sessions),
                shard: crowd_shard,
            })
            .is_ok());

        // The worker reads each abort itself, leading the carrier, and
        // replies to it with a crowd session's end queued. The ping behind
        // it is read by the carrier's thread: at once if the worker called
        // it back, and only once it waits out a handover with nobody
        // reading if it did not. (A handover also runs out, harmlessly,
        // while an abort takes longer than one to serve: rarely, more
        // often on a loaded host, but not in most rounds.)
        let before = served.handovers_waited_out();
        for round in 0..ROUNDS as u64 {
            round_trip(
                &session,
                2 * round,
                Request::MigrateAbort { txn: round + 1 },
            );
            round_trip(&session, 2 * round + 1, Request::Ping);
        }
        let waited = served.handovers_waited_out() - before;
        assert!(
            waited * 2 < ROUNDS as u64,
            "the carrier's thread waited out a handover in {waited} of {ROUNDS} rounds"
        );
        assert_eq!(pool.requests_served(), 2 * ROUNDS as u64);
        pool.shutdown();
    }

    #[test]
    fn sessions_are_admitted_in_the_order_their_carrier_opened_them() {
        use std::io::Write;
        // Two sessions on different shards and room for one: the slot is
        // claimed on the thread reading the carrier, so the first to open
        // gets it however the two shard workers are scheduled.
        let shards = 4;
        let first = 1u32;
        let second = (1..)
            .map(|n| (n << 1) | 1)
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
            // A raw peer, writing OPEN frames: `[len][session][kind 1]`.
            let listener = TcpMuxListener::bind(([127, 0, 0, 1], 0).into()).unwrap();
            let mut peer = aide_rpc::dial_raw(listener.local_addr()).unwrap();
            pool.attach_carrier(1, &listener.accept().unwrap());
            for session in [first, second, first] {
                // The repeated OPEN is idempotent: no second slot, no leak.
                peer.write_all(&5u32.to_le_bytes()).unwrap();
                peer.write_all(&session.to_le_bytes()).unwrap();
                peer.write_all(&[1]).unwrap();
            }
            wait_until(|| pool.sessions.lock().len() == 2);
            let sessions = pool.sessions.lock();
            assert!(sessions[&(1, first)].gc.is_some());
            assert!(sessions[&(1, second)].gc.is_none());
            drop(sessions);
            assert_eq!(pool.sessions_admitted(), 1);
            assert_eq!(pool.sessions_rejected(), 1);
            drop(peer);
            pool.shutdown(); // workers finish what is queued, then exit
            assert_eq!(pool.live_sessions(), 0);
        }
    }

    #[test]
    fn a_dispatcher_panic_is_answered_as_an_error_and_its_shard_serves_on() {
        /// Panics on one chosen abort.
        struct Panicking(Arc<dyn Dispatcher>);
        impl Dispatcher for Panicking {
            fn dispatch(&self, request: Request) -> Result<Reply, String> {
                if matches!(request, Request::MigrateAbort { txn: 13 }) {
                    panic!("a dispatcher bug");
                }
                self.0.dispatch(request)
            }
        }
        let config = ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        };
        let pool = pool_serving("panic", config, |vm| Arc::new(Panicking(vm)));
        let transport = carrier(&pool, 1);
        let hostile = transport.open_session().unwrap();
        let other = transport.open_session().unwrap();
        round_trip(&other, 1, Request::Ping);

        let reply = round_trip(&hostile, 1, Request::MigrateAbort { txn: 13 });
        assert_eq!(
            Message::decode(&reply).unwrap(),
            Message::Reply {
                seq: 1,
                result: Err("MigrateAbort panicked".into()),
            }
        );
        // The one worker lives on, for the other session and this one.
        for seq in 2..10 {
            round_trip(&other, seq, Request::Ping);
            round_trip(&hostile, seq, Request::MigrateAbort { txn: seq });
        }
        assert_eq!(pool.live_sessions(), 2);
        pool.shutdown();
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
        let pool = tiny_pool("dedup", ShardConfig::default());
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
        exchange(2);
        assert_eq!(exchange(2), exchange(2));
        assert_eq!(pool.requests_served(), 2);
        // A session remembers as many replies as any endpoint; what it
        // forgets at capacity is the responder's
        // `eviction_at_capacity_forgets_the_oldest_completed_reply`.
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
        // The pool counts the touch that failed, and nothing after it.
        assert_eq!(pool.requests_served(), 4);
        pool.shutdown();
    }
}
