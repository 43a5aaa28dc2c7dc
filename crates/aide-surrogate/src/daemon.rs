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
//! deliberately: [`DaemonConfig::crash_on`] names a request kind, say
//! `GetSlot`, and each session's fault injector severs its carrier instead
//! of serving its first request of that kind, which the client observes as
//! a dead surrogate (disconnected transport), not as a polite error reply. [`SurrogateDaemon::crashes`] counts the crashes
//! that fired. Lossy, late or corrupted replies are a property of the link,
//! not of the daemon: wrap the client's session in [`aide_rpc::chaos_wrap`]
//! for those.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aide_core::{RefTables, VmDispatcher};
use aide_rpc::{
    nudge, ConnKiller, Dispatcher, Reply, Request, TcpMuxListener, TouchFailure, Touches,
};
use aide_telemetry::sync::{Condvar, Mutex};
use aide_vm::{Machine, Program, VmConfig};

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
    /// Fault injection: sever a session's carrier instead of serving its
    /// first request of this [`Request::kind`] (`"GetSlot"`,
    /// `"MigratePrepare"`, …), so that the client sees the surrogate crash
    /// there. `None` serves every request.
    pub crash_on: Option<&'static str>,
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
            crash_on: None,
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
            .field("crash_on", &self.crash_on)
            .field("beacon", &self.beacon)
            .field("shard", &self.shard)
            .finish_non_exhaustive()
    }
}

/// Severs the session's carrier instead of serving its first request of
/// the `crash_on` kind, so the client experiences a surrogate *crash* (dead
/// link) rather than an error reply — error replies are application-level
/// and must not trigger failover.
struct FaultInjector {
    inner: VmDispatcher,
    crash_on: &'static str,
    /// Set once this session has crashed.
    fired: AtomicBool,
    killer: ConnKiller,
    crashes: Arc<AtomicU64>,
}

impl FaultInjector {
    /// Whether `request` is the one the session crashes on: its first of
    /// the `crash_on` kind. (The session's shard serves its requests one at
    /// a time, on its one worker.)
    fn crashes_on(&self, request: &Request) -> bool {
        request.kind() == self.crash_on && !self.fired.load(Ordering::SeqCst)
    }

    /// Severs the carrier: the error of the request it crashed on.
    fn crash(&self) -> String {
        self.fired.store(true, Ordering::SeqCst);
        self.crashes.fetch_add(1, Ordering::Relaxed);
        self.killer.kill();
        format!("injected surrogate crash on {}", self.crash_on)
    }
}

impl Dispatcher for FaultInjector {
    /// A frame as the unrigged session serves it
    /// ([`VmDispatcher`]'s `dispatch_touches`), up to the touch the session
    /// crashes on, if the frame holds it.
    fn dispatch_touches(&self, touches: &Touches) -> Result<(), TouchFailure> {
        let Some(at) = touches.iter().position(|touch| self.crashes_on(&touch)) else {
            return self.inner.dispatch_touches(touches);
        };
        let before: Vec<Request> = touches.iter().take(at).collect();
        self.inner.dispatch_touches(&before.iter().collect())?;
        Err(TouchFailure::new(at, self.crash_on, self.crash()))
    }

    fn dispatch(&self, request: Request) -> Result<Reply, String> {
        if self.crashes_on(&request) {
            return Err(self.crash());
        }
        self.inner.dispatch(request)
    }
}

/// The daemon's stop flag, which its periodic threads sleep on: setting it
/// wakes them at once, so a shutdown never waits out their interval.
#[derive(Debug, Default)]
pub(crate) struct Stop {
    stopped: Mutex<bool>,
    wake: Condvar,
}

impl Stop {
    /// Sets the flag and wakes every sleeper; whether it was set already.
    pub(crate) fn stop(&self) -> bool {
        let mut stopped = self.stopped.lock();
        let already = std::mem::replace(&mut *stopped, true);
        self.wake.notify_all();
        already
    }

    /// Whether the flag is set.
    pub(crate) fn is_stopped(&self) -> bool {
        *self.stopped.lock()
    }

    /// Sleeps for `interval`, or less if the flag is set meanwhile; whether
    /// it is set.
    pub(crate) fn sleep(&self, interval: Duration) -> bool {
        let stopped = self.stopped.lock();
        let (stopped, _) = self
            .wake
            .wait_timeout_while(stopped, interval, |stopped| !*stopped);
        *stopped
    }
}

/// A running surrogate daemon; dropping the handle does *not* stop it —
/// call [`shutdown`](SurrogateDaemon::shutdown).
pub struct SurrogateDaemon {
    addr: SocketAddr,
    stop: Arc<Stop>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    beacon_thread: Mutex<Option<JoinHandle<()>>>,
    sweep_thread: Mutex<Option<JoinHandle<()>>>,
    pool: Arc<ShardPool>,
    crashes: Arc<AtomicU64>,
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
        let stop = Arc::new(Stop::default());

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
        let crashes = Arc::new(AtomicU64::new(0));
        let pool = {
            let crashes = crashes.clone();
            ShardPool::start(
                &name,
                config.shard,
                Box::new(move |killer| session_parts(&config, killer, &crashes)),
            )
        };

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
                            _ if stop.is_stopped() => break,
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
                    while !stop.sleep(sweep_interval) {
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
            crashes,
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

    /// Crashes fired at the [`DaemonConfig::crash_on`] request: one per
    /// session that reached it.
    pub fn crashes(&self) -> u64 {
        self.crashes.load(Ordering::Relaxed)
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
        if self.stop.stop() {
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
/// on, which is what an armed fault injector pulls, counting in `crashes`.
fn session_parts(
    config: &DaemonConfig,
    killer: ConnKiller,
    crashes: &Arc<AtomicU64>,
) -> SessionParts {
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
    let dispatcher: Arc<dyn Dispatcher> = match config.crash_on {
        Some(crash_on) => Arc::new(FaultInjector {
            inner,
            crash_on,
            fired: AtomicBool::new(false),
            killer,
            crashes: crashes.clone(),
        }),
        None => Arc::new(inner),
    };
    SessionParts { dispatcher, gc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_rpc::{Message, MuxConn};
    use aide_vm::{ClassId, MethodDef, MethodId, ObjectId, ObjectRecord, ProgramBuilder};
    use std::time::Instant;

    fn empty_program() -> Arc<Program> {
        let mut b = ProgramBuilder::new();
        let main = b.add_native_class("Main");
        b.add_method(main, MethodDef::new("main", Vec::new()));
        Arc::new(b.build(main, MethodId(0), 0, 0).unwrap())
    }

    #[test]
    fn shutdown_wakes_the_sweeper_and_the_beacon_instead_of_waiting_them_out() {
        let hour = Duration::from_secs(3600);
        let mut config = DaemonConfig::new("prompt", empty_program());
        config.lease_sweep_interval = hour;
        let listener = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        config.beacon = Some(BeaconConfig {
            target: listener.local_addr().unwrap(),
            interval: hour,
        });
        let daemon = SurrogateDaemon::start(config).unwrap();
        // Both threads are asleep in their first interval by now.
        std::thread::sleep(Duration::from_millis(50));
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            daemon.shutdown();
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown waited out an hour-long interval");
    }

    #[test]
    fn a_finished_session_releases_its_vm_before_shutdown() {
        let daemon = SurrogateDaemon::start(DaemonConfig::new("release", empty_program())).unwrap();

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

    const NODE: ClassId = ClassId(1);

    /// A session of a daemon rigged at `crash_on`, holding two nodes the
    /// client shipped it; its daemon's crash count; whether its carrier
    /// was severed.
    fn shipped_session(
        crash_on: Option<&'static str>,
    ) -> (SessionParts, Arc<AtomicU64>, Arc<AtomicBool>) {
        let mut b = ProgramBuilder::new();
        let main = b.add_native_class("Main");
        assert_eq!(b.add_class("Node"), NODE);
        b.add_method(main, MethodDef::new("main", Vec::new()));
        let mut config = DaemonConfig::new(
            "rigged",
            Arc::new(b.build(main, MethodId(0), 0, 0).unwrap()),
        );
        config.crash_on = crash_on;
        let crashes = Arc::new(AtomicU64::new(0));
        let severed = Arc::new(AtomicBool::new(false));
        let killer = {
            let severed = severed.clone();
            ConnKiller::new(move || severed.store(true, Ordering::SeqCst))
        };
        let parts = session_parts(&config, killer, &crashes);
        let objects = (1..=2)
            .map(|n| (ObjectId::client(n), ObjectRecord::new(NODE, 16, 2)))
            .collect();
        parts
            .dispatcher
            .dispatch(Request::MigratePrepare { txn: 1, objects })
            .unwrap();
        parts
            .dispatcher
            .dispatch(Request::MigrateCommit { txn: 1 })
            .unwrap();
        (parts, crashes, severed)
    }

    /// What serving touches may change on a session's VM: its clock, as
    /// bits, every slot of the nodes and the slot-write count.
    fn vm_state(parts: &SessionParts) -> ((u64, u64), Vec<Option<ObjectId>>, u64) {
        let vm = parts.gc.machine().vm();
        let vm = vm.lock();
        let slots = (1..=2)
            .flat_map(|n| (0..2).map(move |slot| (ObjectId::client(n), slot)))
            .map(|(id, slot)| vm.get_slot_on(id, slot).unwrap())
            .collect();
        let clock = (vm.cpu_seconds().to_bits(), vm.mutator_seconds().to_bits());
        (clock, slots, vm.slot_writes().get())
    }

    /// A frame's worth of touches of the two nodes, alternating slot writes
    /// and field accesses.
    fn touches() -> Vec<Request> {
        (0..6u16)
            .map(|i| {
                let target = ObjectId::client(1 + u64::from(i % 2));
                if i % 2 == 0 {
                    Request::PutSlot {
                        target,
                        slot: i / 2 % 2,
                        value: Some(ObjectId::client(2 - u64::from(i % 2))),
                    }
                } else {
                    Request::FieldAccess {
                        target,
                        bytes: 8 * u32::from(i),
                        write: i == 3,
                    }
                }
            })
            .collect()
    }

    #[test]
    fn a_rigged_session_crashes_on_the_touch_it_names() {
        let (rigged, crashes, severed) = shipped_session(Some("FieldAccess"));
        let (unrigged, _, _) = shipped_session(None);
        let touches = touches();
        // The first field access is the frame's second touch.
        let failure = rigged
            .dispatcher
            .dispatch_touches(&touches.iter().collect())
            .unwrap_err();
        assert_eq!(failure.at, 1, "{failure:?}");
        assert!(
            failure.message.contains("crash on FieldAccess"),
            "{failure:?}"
        );
        assert_eq!(crashes.load(Ordering::SeqCst), 1);
        assert!(severed.load(Ordering::SeqCst), "the carrier was severed");
        let served: Touches = touches[..1].iter().collect();
        assert_eq!(unrigged.dispatcher.dispatch_touches(&served), Ok(()));
        assert_eq!(vm_state(&rigged), vm_state(&unrigged));
        // Crashed, the session serves the rest as the unrigged one does.
        let rest: Touches = touches[1..].iter().collect();
        for session in [&rigged, &unrigged] {
            assert_eq!(session.dispatcher.dispatch_touches(&rest), Ok(()));
        }
        assert_eq!(vm_state(&rigged), vm_state(&unrigged));
        assert_eq!(crashes.load(Ordering::SeqCst), 1);
    }
}
