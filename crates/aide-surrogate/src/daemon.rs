//! The surrogate daemon: a long-running process that lends its memory and
//! cycles to resource-constrained clients.
//!
//! The daemon listens on TCP and serves any number of concurrent client
//! sessions. Each accepted connection is a multiplexed carrier
//! ([`aide_rpc::TcpMuxListener`]) over which the client opens any number of
//! logical sessions; each logical session gets its own surrogate VM,
//! export/import tables, dispatcher, and RPC endpoint — sessions are fully
//! isolated, exactly as the paper's surrogate hosts one platform instance
//! per client application, but they share one socket instead of one socket
//! each. A session ends when the client closes it (or the carrier dies);
//! the daemon itself runs until [`SurrogateDaemon::shutdown`].
//!
//! For failover and chaos testing the daemon can be configured to
//! misbehave deliberately: [`DaemonConfig::fail_after_requests`] arms a
//! fault injector whose behaviour is chosen by [`DaemonConfig::fault_mode`].
//! The default, [`FaultMode::Crash`], severs the session's socket after
//! serving a fixed number of application requests, which the client
//! observes as a dead surrogate (disconnected transport), not as a polite
//! error reply. The reply-level modes ([`FaultMode::DropReplies`],
//! [`FaultMode::DelayReplies`], [`FaultMode::CorruptReplies`]) keep the
//! session alive but sabotage its outbound frames through the chaos layer,
//! exercising the client's retry and checksum paths instead of failover.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aide_core::{RefTables, VmDispatcher};
use aide_graph::CommParams;
use aide_rpc::{
    chaos_wrap, nudge, Acceptor, ChaosSchedule, ConnKiller, Dispatcher, Endpoint, EndpointConfig,
    NetClock, Reply, Request, TcpMuxListener,
};
use aide_vm::{Machine, Program, VmConfig};
use parking_lot::Mutex;

use crate::beacon::{spawn_announcer, Announcement, BeaconConfig};
use crate::shard::{SessionParts, ShardConfig, ShardPool};

/// How the daemon turns accepted mux sessions into served sessions.
#[derive(Debug, Clone, Copy)]
pub enum ServingMode {
    /// One [`Endpoint`] (its own worker pool) per logical session:
    /// maximum isolation, a few hundred sessions per process.
    Threaded,
    /// A bounded sharded worker pool over mux bus events: one process
    /// holds tens of thousands of logical sessions, with admission
    /// control answering [`Reply::Busy`](aide_rpc::Reply::Busy) at the
    /// limit. Reply-level fault modes are not supported here (they wrap a
    /// per-session transport); [`FaultMode::Crash`] is.
    Sharded(ShardConfig),
}

/// Configuration for a [`SurrogateDaemon`].
#[derive(Clone)]
pub struct DaemonConfig {
    /// Address to listen on; use port 0 to let the OS pick (the bound
    /// address is available from [`SurrogateDaemon::local_addr`]).
    pub addr: SocketAddr,
    /// Name announced over the beacon and reported to registries.
    pub name: String,
    /// Heap capacity granted to *each* client session's surrogate VM, and
    /// advertised over the beacon.
    pub capacity_bytes: u64,
    /// The program this surrogate serves. Client and surrogate must run
    /// the same program: object migration ships records whose class and
    /// method identifiers are resolved against it.
    pub program: Arc<Program>,
    /// Simulated-link parameters charged by each session's endpoint.
    pub params: CommParams,
    /// Per-session endpoint tuning.
    pub endpoint: EndpointConfig,
    /// Fault injection: arm [`fault_mode`](DaemonConfig::fault_mode) after
    /// this budget is spent. For [`FaultMode::Crash`] the budget counts
    /// application requests (`Ping` health probes and `Stats` scrapes are
    /// not counted, so the crash point stays deterministic under
    /// heartbeating); `Some(0)` kills the very first request — typically
    /// the client's initial `Migrate` — exercising mid-offload rollback.
    /// For the reply-level modes the budget counts outbound frames
    /// (including probe replies), since those faults live in the transport.
    pub fail_after_requests: Option<u64>,
    /// What the armed fault injector does; ignored while
    /// [`fail_after_requests`](DaemonConfig::fail_after_requests) is `None`.
    pub fault_mode: FaultMode,
    /// Optional beacon announcing this daemon; `None` means clients must
    /// register the daemon's address statically.
    pub beacon: Option<BeaconConfig>,
    /// How often the daemon's sweeper advances each session's lease clock
    /// by the wall time elapsed and reclaims expired-lease exports. The
    /// clock only moves on these ticks, so tests that drive sessions
    /// manually stay deterministic.
    pub lease_sweep_interval: Duration,
    /// Lease TTL granted to each session's exports; renewed by any stamped
    /// frame the session receives. `None` keeps the table default.
    pub lease_ttl_ms: Option<u64>,
    /// Thread-per-session or sharded-pool serving; see [`ServingMode`].
    pub serving: ServingMode,
}

impl DaemonConfig {
    /// A daemon on an OS-assigned localhost port with WaveLAN link timing
    /// and a 64 MiB per-session heap.
    pub fn new(name: &str, program: Arc<Program>) -> Self {
        DaemonConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            name: name.to_string(),
            capacity_bytes: 64 << 20,
            program,
            params: CommParams::WAVELAN,
            endpoint: EndpointConfig::default(),
            fail_after_requests: None,
            fault_mode: FaultMode::Crash,
            beacon: None,
            lease_sweep_interval: Duration::from_millis(500),
            lease_ttl_ms: None,
            serving: ServingMode::Threaded,
        }
    }

    /// Switches the daemon to sharded serving (see [`ServingMode::Sharded`]).
    pub fn sharded(mut self, shard: ShardConfig) -> Self {
        self.serving = ServingMode::Sharded(shard);
        self
    }
}

impl std::fmt::Debug for DaemonConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonConfig")
            .field("addr", &self.addr)
            .field("name", &self.name)
            .field("capacity_bytes", &self.capacity_bytes)
            .field("fail_after_requests", &self.fail_after_requests)
            .field("fault_mode", &self.fault_mode)
            .field("beacon", &self.beacon)
            .field("serving", &self.serving)
            .finish_non_exhaustive()
    }
}

/// How an armed fault injector misbehaves once its budget is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Sever the session socket: the client sees a dead surrogate and
    /// fails over. The budget counts application requests.
    Crash,
    /// Serve every request but silently discard the reply frames: the
    /// client's retries go unanswered and its at-most-once cache absorbs
    /// the re-executions. The budget counts outbound frames.
    DropReplies,
    /// Hold each reply back for up to the given duration before
    /// delivering it, surfacing late replies and retry races.
    DelayReplies(Duration),
    /// Flip one bit in each reply frame; the client's CRC check rejects
    /// the frame and a retry fetches the memoized reply.
    CorruptReplies,
}

/// Severs the session's carrier after a budget of served requests, so the
/// client experiences a surrogate *crash* (dead link) rather than an error
/// reply — error replies are application-level and must not trigger
/// failover.
struct FaultInjector {
    inner: VmDispatcher,
    remaining: AtomicI64,
    killer: ConnKiller,
}

impl Dispatcher for FaultInjector {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        if matches!(request, Request::Ping | Request::Stats) {
            // Health probes and telemetry scrapes ride for free: neither
            // heartbeat cadence nor an observer polling `STATS` may perturb
            // the configured crash point.
            return self.inner.dispatch(request);
        }
        if self.remaining.fetch_sub(1, Ordering::SeqCst) <= 0 {
            self.killer.kill();
            return Err("injected surrogate crash".to_string());
        }
        self.inner.dispatch(request)
    }
}

/// Counts every request a session serves into the daemon's metrics
/// registry, then forwards to the real dispatcher.
struct CountingDispatcher {
    inner: Arc<dyn Dispatcher>,
    requests: Arc<aide_telemetry::Counter>,
}

impl Dispatcher for CountingDispatcher {
    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        self.requests.inc();
        self.inner.dispatch(request)
    }
}

/// One live client session kept for stats and teardown, plus the killer of
/// the carrier it rides on (shared by every session on that carrier). The
/// `gc` dispatcher shares the session's VM and tables so the daemon's
/// sweeper thread can reclaim expired-lease exports without going through
/// the wire.
struct LiveSession {
    endpoint: Arc<Endpoint>,
    killer: ConnKiller,
    gc: Arc<VmDispatcher>,
}

/// A running surrogate daemon; dropping the handle does *not* stop it —
/// call [`shutdown`](SurrogateDaemon::shutdown).
pub struct SurrogateDaemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    beacon_thread: Mutex<Option<JoinHandle<()>>>,
    sweep_thread: Mutex<Option<JoinHandle<()>>>,
    sessions: Arc<Mutex<Vec<LiveSession>>>,
    sessions_accepted: Arc<AtomicU64>,
    pool: Option<Arc<ShardPool>>,
}

impl SurrogateDaemon {
    /// Binds the listener, spawns the accept loop (and the beacon, if
    /// configured), and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding the TCP listener or the beacon's
    /// UDP socket.
    pub fn start(config: DaemonConfig) -> std::io::Result<SurrogateDaemon> {
        let listener = TcpMuxListener::bind(config.addr)?;
        let addr = listener.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let sessions: Arc<Mutex<Vec<LiveSession>>> = Arc::new(Mutex::new(Vec::new()));
        let sessions_accepted = Arc::new(AtomicU64::new(0));

        let beacon_thread = match &config.beacon {
            Some(beacon) => Some(spawn_announcer(
                Announcement {
                    name: config.name.clone(),
                    port: addr.port(),
                    capacity_bytes: config.capacity_bytes,
                },
                *beacon,
                stop.clone(),
            )?),
            None => None,
        };

        let sweep_interval = config.lease_sweep_interval;

        // Sharded serving builds its worker pool up front; each accepted
        // carrier is then switched into mux bus mode instead of getting a
        // dedicated thread.
        let pool = match config.serving {
            ServingMode::Sharded(shard) => {
                let factory_config = config.clone();
                Some(Arc::new(ShardPool::start(
                    &config.name,
                    shard,
                    Box::new(move |killer| session_parts(&factory_config, killer)),
                )))
            }
            ServingMode::Threaded => None,
        };

        let accept_thread = {
            let stop = stop.clone();
            let sessions = sessions.clone();
            let sessions_accepted = sessions_accepted.clone();
            let pool = pool.clone();
            std::thread::Builder::new()
                .name(format!("aide-surrogate-{}", config.name))
                .spawn(move || {
                    let mut next_conn: u64 = 1;
                    loop {
                        let conn = match listener.accept() {
                            _ if stop.load(Ordering::SeqCst) => break,
                            Ok(conn) => conn,
                            Err(_) => continue, // a broken accept hurts no one else
                        };
                        if let Some(pool) = &pool {
                            // Register the carrier's sender first, then
                            // switch it onto the bus: no event can reach a
                            // shard worker before the worker can reply.
                            let conn_id = next_conn;
                            next_conn += 1;
                            pool.attach_carrier(conn_id, conn.bus_sender(conn_id));
                            conn.route_accepts_to(conn_id, pool.sink());
                            // Dropping `conn` is safe: the pool's sender
                            // keeps the carrier's write half open.
                            continue;
                        }
                        // One carrier per client process; every logical session
                        // the client opens over it gets its own surrogate VM.
                        let config = config.clone();
                        let sessions = sessions.clone();
                        let sessions_accepted = sessions_accepted.clone();
                        let spawned = std::thread::Builder::new()
                            .name("aide-surrogate-conn".into())
                            .spawn(move || {
                                // Everything this carrier spawns (session
                                // endpoints and their workers) inherits the
                                // surrogate trace lane.
                                aide_trace::set_thread_track("surrogate");
                                let killer = conn.killer();
                                while let Ok(session) = conn.accept() {
                                    let live = start_session(session, killer.clone(), &config);
                                    sessions_accepted.fetch_add(1, Ordering::SeqCst);
                                    sessions.lock().push(live);
                                }
                            });
                        let _ = spawned;
                    }
                })
                .expect("spawn surrogate accept loop")
        };

        // Lease sweeper: the only mover of session GC clocks. Each tick
        // advances every live session's clock by the wall time elapsed and
        // hands expired-lease exports back to that session's collector —
        // a client that died without releasing cannot strand pins forever.
        let sweep_thread = {
            let stop = stop.clone();
            let sessions = sessions.clone();
            let pool = pool.clone();
            let interval = sweep_interval;
            std::thread::Builder::new()
                .name("aide-surrogate-gc".into())
                .spawn(move || {
                    let mut last = std::time::Instant::now();
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(interval);
                        let elapsed = u64::try_from(last.elapsed().as_millis()).unwrap_or(u64::MAX);
                        last = std::time::Instant::now();
                        for session in sessions.lock().iter() {
                            session.gc.tables().exports.clock().advance_ms(elapsed);
                            session.gc.sweep_expired_exports();
                        }
                        if let Some(pool) = &pool {
                            for gc in pool.gc_handles() {
                                gc.tables().exports.clock().advance_ms(elapsed);
                                gc.sweep_expired_exports();
                            }
                        }
                    }
                })
                .expect("spawn surrogate lease sweeper")
        };

        Ok(SurrogateDaemon {
            addr,
            stop,
            accept_thread: Mutex::new(Some(accept_thread)),
            beacon_thread: Mutex::new(beacon_thread),
            sweep_thread: Mutex::new(Some(sweep_thread)),
            sessions,
            sessions_accepted,
            pool,
        })
    }

    /// The address the daemon is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of client sessions accepted so far (including finished ones).
    /// In sharded mode this counts admitted sessions; rejected ones are in
    /// [`sessions_rejected`](SurrogateDaemon::sessions_rejected).
    pub fn sessions_accepted(&self) -> u64 {
        self.sessions_accepted.load(Ordering::SeqCst)
            + self.pool.as_ref().map_or(0, |p| p.sessions_admitted())
    }

    /// Sessions currently live (sharded mode only; threaded sessions stay
    /// registered until shutdown).
    pub fn live_sessions(&self) -> usize {
        self.pool
            .as_ref()
            .map_or_else(|| self.sessions.lock().len(), |p| p.live_sessions())
    }

    /// Sessions refused admission with a `Busy` reply (sharded mode).
    pub fn sessions_rejected(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.sessions_rejected())
    }

    /// Total application requests served across all sessions.
    pub fn requests_served(&self) -> u64 {
        let threaded: u64 = self
            .sessions
            .lock()
            .iter()
            .map(|s| s.endpoint.requests_served())
            .sum();
        threaded + self.pool.as_ref().map_or(0, |p| p.requests_served())
    }

    /// Blocks until the daemon is shut down (from another thread). This is
    /// what the `aide-surrogate` binary parks on.
    pub fn join(&self) {
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, tears down every live session, and joins the
    /// daemon's threads.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        nudge(self.addr);
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.beacon_thread.lock().take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.sweep_thread.lock().take() {
            let _ = handle.join();
        }
        let sessions = std::mem::take(&mut *self.sessions.lock());
        aide_telemetry::global()
            .gauge(aide_telemetry::names::SURROGATE_ACTIVE_SESSIONS)
            .add(-(sessions.len() as i64));
        for session in &sessions {
            session.endpoint.shutdown();
        }
        for session in &sessions {
            session.endpoint.join();
            // Sever the carrier so its per-connection accept thread exits
            // even if the client never closes its side.
            session.killer.kill();
        }
        if let Some(pool) = &self.pool {
            pool.shutdown();
        }
    }
}

/// Builds the per-session machinery: a fresh surrogate VM over the daemon's
/// program, its own reference tables and dispatcher, and an endpoint
/// bridging them to the accepted logical session. `killer` severs the whole
/// carrier the session rides on (used by [`FaultMode::Crash`]).
fn start_session(
    session: aide_rpc::Session,
    killer: ConnKiller,
    config: &DaemonConfig,
) -> LiveSession {
    let mut session_span = aide_trace::span(aide_trace::names::DAEMON_SESSION, "surrogate");
    session_span.arg("daemon", &config.name);
    let telemetry = aide_telemetry::global();
    telemetry
        .counter(aide_telemetry::names::SURROGATE_SESSIONS)
        .inc();
    telemetry
        .gauge(aide_telemetry::names::SURROGATE_ACTIVE_SESSIONS)
        .add(1);
    let SessionParts {
        dispatcher,
        tables,
        gc,
    } = session_parts(config, killer.clone());
    // Reply-level fault modes sabotage the session's *outbound* frames via
    // the chaos layer; the dispatcher itself stays honest.
    let session = match (config.fail_after_requests, config.fault_mode) {
        (Some(budget), FaultMode::DropReplies) => {
            let schedule = ChaosSchedule {
                drop: 1.0,
                after_frames: budget,
                ..ChaosSchedule::seeded(0xFA01 ^ budget)
            };
            chaos_wrap(session, schedule).0
        }
        (Some(budget), FaultMode::DelayReplies(max_delay)) => {
            let schedule = ChaosSchedule {
                delay: 1.0,
                max_delay,
                after_frames: budget,
                ..ChaosSchedule::seeded(0xFA01 ^ budget)
            };
            chaos_wrap(session, schedule).0
        }
        (Some(budget), FaultMode::CorruptReplies) => {
            let schedule = ChaosSchedule {
                corrupt: 1.0,
                after_frames: budget,
                ..ChaosSchedule::seeded(0xFA01 ^ budget)
            };
            chaos_wrap(session, schedule).0
        }
        _ => session,
    };
    let endpoint = Endpoint::start(
        session,
        config.params,
        Arc::new(NetClock::new()),
        dispatcher,
        config.endpoint,
    );
    // Lease piggybacking: stamped client traffic renews this session's
    // exports; our replies advertise the session's import epoch back.
    tables.attach_to(&endpoint);
    LiveSession {
        endpoint,
        killer,
        gc,
    }
}

/// Builds one session's VM, reference tables, and dispatcher chain — the
/// part of session setup shared by the threaded path and the sharded
/// pool's session factory. `killer` severs the carrier the session rides
/// on, which is what an armed [`FaultMode::Crash`] injector pulls; the
/// reply-level fault modes live in the transport and only apply to the
/// threaded path.
fn session_parts(config: &DaemonConfig, killer: ConnKiller) -> SessionParts {
    let machine = Machine::new(
        config.program.clone(),
        VmConfig::surrogate(config.capacity_bytes),
    );
    let tables = Arc::new(RefTables::new());
    if let Some(ttl) = config.lease_ttl_ms {
        tables.exports.set_ttl_ms(ttl);
    }
    let gc = Arc::new(VmDispatcher::new(machine.clone(), tables.clone()));
    let inner = VmDispatcher::new(machine, tables.clone());
    let dispatcher: Arc<dyn Dispatcher> = match (config.fail_after_requests, config.fault_mode) {
        (Some(budget), FaultMode::Crash) => Arc::new(FaultInjector {
            inner,
            remaining: AtomicI64::new(i64::try_from(budget).unwrap_or(i64::MAX)),
            killer,
        }),
        _ => Arc::new(inner),
    };
    let dispatcher: Arc<dyn Dispatcher> = Arc::new(CountingDispatcher {
        inner: dispatcher,
        requests: aide_telemetry::global().counter(aide_telemetry::names::SURROGATE_REQUESTS),
    });
    SessionParts {
        dispatcher,
        tables,
        gc,
    }
}
