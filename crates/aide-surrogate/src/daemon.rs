//! The surrogate daemon: a long-running process that lends its memory and
//! cycles to resource-constrained clients.
//!
//! The daemon listens on TCP and serves any number of concurrent client
//! sessions. Each accepted connection is a multiplexed carrier
//! ([`aide_rpc::TcpMuxListener`]) over which the client opens any number of
//! logical sessions; each logical session gets its own surrogate VM,
//! export/import tables, and dispatcher — sessions are fully isolated,
//! exactly as the paper's surrogate hosts one platform instance per client
//! application, but they share one socket instead of one socket each, and
//! a few worker pools of one worker each ([`ShardPool`]) instead of threads
//! each: a session is an [`Endpoint`](aide_rpc::Endpoint) served by the
//! pool its `(carrier, session)` hashes to, and admission control answers
//! [`Reply::Busy`](aide_rpc::Reply::Busy) at the session limit. The
//! daemon's threads are its accept loop, its lease sweeper, the shard
//! workers and one reader per carrier, however many sessions it holds. A
//! session ends — and its VM is released — when the client closes it (or
//! the carrier dies); the daemon itself runs until
//! [`SurrogateDaemon::shutdown`].
//!
//! For failover testing the daemon can be configured to crash
//! deliberately: [`DaemonConfig::fail_after_requests`] arms a fault
//! injector that severs the session's carrier after serving a fixed number
//! of application requests, which the client observes as a dead surrogate
//! (disconnected transport), not as a polite error reply. Lossy, late or
//! corrupted replies are a property of the link, not of the daemon: wrap
//! the client's session in [`aide_rpc::chaos_wrap`] for those.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aide_core::{RefTables, VmDispatcher};
use aide_rpc::{nudge, ConnKiller, Dispatcher, Reply, Request, TcpMuxListener};
use aide_vm::{Machine, Program, VmConfig};
use parking_lot::Mutex;

use crate::beacon::{spawn_announcer, Announcement, BeaconConfig};
use crate::shard::{SessionParts, ShardConfig, ShardPool};

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
    /// Fault injection: sever a session's carrier once it has served this
    /// many application requests (`Ping` health probes and `Stats` scrapes
    /// are not counted, so the crash point stays deterministic under
    /// heartbeating); `Some(0)` kills the very first request — typically
    /// the client's initial `MigratePrepare` — exercising mid-offload rollback.
    pub fail_after_requests: Option<u64>,
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
    /// Tuning of the worker pool that serves every session.
    pub shard: ShardConfig,
}

impl DaemonConfig {
    /// A daemon on an OS-assigned localhost port with a 64 MiB per-session
    /// heap and the default [`ShardConfig`].
    pub fn new(name: &str, program: Arc<Program>) -> Self {
        DaemonConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            name: name.to_string(),
            capacity_bytes: 64 << 20,
            program,
            fail_after_requests: None,
            beacon: None,
            lease_sweep_interval: Duration::from_millis(500),
            lease_ttl_ms: None,
            shard: ShardConfig::default(),
        }
    }

    /// Sets the worker pool's tuning.
    pub fn sharded(mut self, shard: ShardConfig) -> Self {
        self.shard = shard;
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
            .field("beacon", &self.beacon)
            .field("shard", &self.shard)
            .finish_non_exhaustive()
    }
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

/// A running surrogate daemon; dropping the handle does *not* stop it —
/// call [`shutdown`](SurrogateDaemon::shutdown).
pub struct SurrogateDaemon {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    beacon_thread: Mutex<Option<JoinHandle<()>>>,
    sweep_thread: Mutex<Option<JoinHandle<()>>>,
    pool: Arc<ShardPool>,
}

impl SurrogateDaemon {
    /// Binds the listener, spawns the worker pool, the accept loop and the
    /// lease sweeper (and the beacon, if configured), and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding the TCP listener or the beacon's
    /// UDP socket.
    pub fn start(config: DaemonConfig) -> std::io::Result<SurrogateDaemon> {
        let listener = TcpMuxListener::bind(config.addr)?;
        let addr = listener.local_addr();
        let stop = Arc::new(AtomicBool::new(false));

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
        let name = config.name.clone();
        let pool = ShardPool::start(
            &name,
            config.shard,
            Box::new(move |killer| session_parts(&config, killer)),
        );

        // Each accepted carrier hands the sessions its peer opens to the
        // pool: no thread is spawned per carrier or per session.
        let accept_thread = {
            let stop = stop.clone();
            let pool = pool.clone();
            std::thread::Builder::new()
                .name(format!("aide-surrogate-{name}"))
                .spawn(move || {
                    let mut next_conn: u64 = 1;
                    loop {
                        let conn = match listener.accept() {
                            _ if stop.load(Ordering::SeqCst) => break,
                            Ok(conn) => conn,
                            Err(_) => continue, // a broken accept hurts no one else
                        };
                        pool.attach_carrier(next_conn, &conn);
                        next_conn += 1;
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
            let pool = pool.clone();
            std::thread::Builder::new()
                .name("aide-surrogate-gc".into())
                .spawn(move || {
                    let mut last = std::time::Instant::now();
                    while !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(sweep_interval);
                        let elapsed = u64::try_from(last.elapsed().as_millis()).unwrap_or(u64::MAX);
                        last = std::time::Instant::now();
                        for gc in pool.gc_handles() {
                            gc.tables().exports.clock().advance_ms(elapsed);
                            gc.sweep_expired_exports();
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
            pool,
        })
    }

    /// The address the daemon is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of client sessions admitted so far (including finished
    /// ones); refused ones are in
    /// [`sessions_rejected`](SurrogateDaemon::sessions_rejected).
    pub fn sessions_accepted(&self) -> u64 {
        self.pool.sessions_admitted()
    }

    /// Sessions currently live: a session leaves this count, and its VM is
    /// released, as soon as the client closes it or its carrier dies.
    pub fn live_sessions(&self) -> usize {
        self.pool.live_sessions()
    }

    /// Sessions refused admission with a `Busy` reply.
    pub fn sessions_rejected(&self) -> u64 {
        self.pool.sessions_rejected()
    }

    /// Total requests served across all sessions.
    pub fn requests_served(&self) -> u64 {
        self.pool.requests_served()
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
        self.pool.shutdown();
    }
}

/// Builds one session's VM, reference tables, and dispatcher chain — the
/// pool's session factory. `killer` severs the carrier the session rides
/// on, which is what an armed fault injector pulls.
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
    let inner = VmDispatcher::new(machine, tables);
    let dispatcher: Arc<dyn Dispatcher> = match config.fail_after_requests {
        Some(budget) => Arc::new(FaultInjector {
            inner,
            remaining: AtomicI64::new(i64::try_from(budget).unwrap_or(i64::MAX)),
            killer,
        }),
        None => Arc::new(inner),
    };
    SessionParts { dispatcher, gc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_rpc::{Message, MuxConn};
    use aide_vm::{MethodDef, MethodId, ProgramBuilder};
    use std::time::Instant;

    #[test]
    fn a_finished_session_releases_its_vm_before_shutdown() {
        let mut b = ProgramBuilder::new();
        let main = b.add_native_class("Main");
        b.add_method(main, MethodDef::new("main", Vec::new()));
        let program = Arc::new(b.build(main, MethodId(0), 0, 0).unwrap());
        let daemon = SurrogateDaemon::start(DaemonConfig::new("release", program)).unwrap();

        let carrier = MuxConn::connect(daemon.local_addr(), Duration::from_secs(2)).unwrap();
        let sessions: Vec<_> = (0..8)
            .map(|_| carrier.open_session().expect("open session"))
            .collect();
        for (client, session) in sessions.iter().enumerate() {
            let ping = Message::Request {
                seq: 1,
                client: client as u64,
                body: Request::Ping,
            };
            session.send(ping.encode()).unwrap();
            let reply = Message::decode(&session.recv().unwrap()).unwrap();
            assert!(matches!(reply, Message::Reply { result: Ok(_), .. }));
        }
        assert_eq!(daemon.live_sessions(), 8);
        assert_eq!(daemon.pool.gc_handles().len(), 8);

        for session in &sessions {
            session.close();
        }
        // The CLOSE frames travel the carrier: wait, bounded, for the last.
        let deadline = Instant::now() + Duration::from_secs(5);
        while daemon.live_sessions() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(daemon.live_sessions(), 0);
        assert!(
            daemon.pool.gc_handles().is_empty(),
            "the lease sweeper must hold no finished session's VM"
        );
        assert_eq!(daemon.sessions_accepted(), 8);
        daemon.shutdown();
    }
}
