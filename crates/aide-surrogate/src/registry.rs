//! Client-side surrogate discovery, health probing, and ranking.
//!
//! The registry is the client's view of the surrogate population: entries
//! arrive by UDP-beacon discovery ([`SurrogateRegistry::discover`]) or by
//! static registration (the fallback when no beacon reaches the client),
//! are health-checked with a null-RPC probe that measures real round-trip
//! time (the paper reports 2.4 ms for this on WaveLAN), and are ranked by
//! `RTT / capacity` — prefer the fastest link, break ties toward the
//! biggest surrogate. The registry implements
//! [`SurrogateProvider`], so `Platform::with_surrogates` can lease the
//! best-ranked live surrogate and fail over down the ranking as surrogates
//! die.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aide_core::{ProviderContext, SurrogateLease, SurrogateProvider};
use aide_graph::CommParams;
use aide_rpc::{Dispatcher, Endpoint, EndpointConfig, MuxConn, NetClock, Reply, Request, Session};
use parking_lot::Mutex;

/// EWMA smoothing factor for probe RTTs: each new sample contributes this
/// fraction of the smoothed estimate (TCP's classic SRTT gain).
const RTT_EWMA_ALPHA: f64 = 0.125;

/// One known surrogate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurrogateInfo {
    /// Name (unique key within the registry).
    pub name: String,
    /// RPC listener address.
    pub addr: SocketAddr,
    /// Advertised heap capacity in bytes.
    pub capacity_bytes: u64,
    /// Last measured null-RPC round-trip time; `None` until probed.
    pub rtt: Option<Duration>,
    /// Exponentially-weighted moving average over every probe sample, so
    /// one anomalous probe does not reorder the ranking.
    pub smoothed_rtt: Option<Duration>,
    /// Live sessions the surrogate reported over its last STATS scrape;
    /// `None` until [`SurrogateRegistry::refresh_load`] has seen it.
    pub live_sessions: Option<u64>,
    /// Session limit the surrogate advertises (0 = unlimited); `None`
    /// until scraped.
    pub session_limit: Option<u64>,
}

impl SurrogateInfo {
    /// Ranking score: smoothed RTT weighted by advertised capacity (lower
    /// is better). Falls back to the last raw sample when only one probe
    /// has landed; unprobed surrogates rank after every probed one.
    pub fn rank_score(&self) -> f64 {
        match self.smoothed_rtt.or(self.rtt) {
            Some(rtt) => rtt.as_secs_f64() / self.capacity_bytes.max(1) as f64,
            None => f64::INFINITY,
        }
    }

    /// Folds one probe sample into the entry: keeps the raw value and
    /// updates the EWMA estimate.
    pub fn observe_rtt(&mut self, rtt: Duration) {
        self.rtt = Some(rtt);
        self.smoothed_rtt = Some(match self.smoothed_rtt {
            Some(prev) => Duration::from_secs_f64(
                RTT_EWMA_ALPHA * rtt.as_secs_f64() + (1.0 - RTT_EWMA_ALPHA) * prev.as_secs_f64(),
            ),
            None => rtt,
        });
    }

    /// Fraction of the surrogate's session limit in use, when both sides
    /// of the fraction are known (`None` while unscraped or unlimited).
    pub fn load_factor(&self) -> Option<f64> {
        match (self.live_sessions, self.session_limit) {
            (Some(live), Some(limit)) if limit > 0 => Some(live as f64 / limit as f64),
            _ => None,
        }
    }

    /// Whether the surrogate reported itself at (or over) its session
    /// limit: admitting one more session there earns a `Busy` reply.
    pub fn at_session_limit(&self) -> bool {
        matches!(
            (self.live_sessions, self.session_limit),
            (Some(live), Some(limit)) if limit > 0 && live >= limit
        )
    }

    /// Placement score (lower is better): the RTT/capacity rank score
    /// inflated by reported load, so among similar links the emptier
    /// surrogate wins and sessions spread. Entries with unknown load
    /// degrade gracefully to the pure rank score.
    pub fn placement_score(&self) -> f64 {
        self.rank_score() * (1.0 + self.load_factor().unwrap_or(0.0))
    }
}

/// Orders candidates for placement, deterministically: surrogates at
/// their session limit partition strictly after everyone under it, then
/// ascending [`placement_score`](SurrogateInfo::placement_score), then
/// ascending load, which is what tells apart links nobody has measured
/// (their scores are all infinite). The sort is stable, so equal keys
/// (including all-unknown load) keep the caller's order — bit-identical
/// results regardless of thread count or map iteration order upstream.
pub fn placement_order(mut candidates: Vec<SurrogateInfo>) -> Vec<SurrogateInfo> {
    let key = |s: &SurrogateInfo| {
        let load = s.load_factor().unwrap_or(0.0);
        (u8::from(s.at_session_limit()), s.placement_score(), load)
    };
    candidates.sort_by(|a, b| {
        key(a)
            .partial_cmp(&key(b))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    candidates
}

/// Registry tuning.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Simulated-link parameters for endpoints the registry builds.
    pub params: CommParams,
    /// TCP connect timeout when probing or leasing.
    pub connect_timeout: Duration,
    /// Null-RPC reply deadline for health probes.
    pub probe_timeout: Duration,
    /// Consecutive failed probes before [`SurrogateRegistry::probe_all`]
    /// evicts a surrogate from the ranking. One flaky probe on a lossy
    /// link must not discard a healthy surrogate; a string of them means
    /// it is gone.
    pub probe_eviction_threshold: u32,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            params: CommParams::WAVELAN,
            connect_timeout: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            probe_eviction_threshold: 3,
        }
    }
}

/// Probe endpoints only send; they never serve their peer.
struct ProbeDispatcher;

impl Dispatcher for ProbeDispatcher {
    fn dispatch(&self, _request: Request) -> Result<Reply, String> {
        Err("probe endpoint serves no requests".to_string())
    }
}

/// One pooled carrier to a surrogate: the multiplexed TCP connection plus
/// a long-lived probe session on it. Health probes and stats scrapes reuse
/// this instead of dialing a fresh connection each time; leases open
/// further logical sessions over the same socket.
#[derive(Debug)]
struct CachedConn {
    conn: MuxConn,
    probe: Arc<Endpoint>,
}

/// The client's surrogate directory: discovery, liveness, ranking, and the
/// [`SurrogateProvider`] the platform leases from.
#[derive(Debug)]
pub struct SurrogateRegistry {
    config: RegistryConfig,
    entries: Mutex<Vec<SurrogateInfo>>,
    dead: Mutex<HashSet<String>>,
    /// Consecutive failed probes per surrogate; cleared by any success.
    probe_failures: Mutex<HashMap<String, u32>>,
    /// Saturated surrogates under a `Busy` cooldown, with the instant the
    /// cooldown lifts. Unlike `dead`, these stay ranked — placement just
    /// skips them until the deadline passes.
    saturated: Mutex<HashMap<String, Instant>>,
    /// Pooled carriers keyed by surrogate address.
    conns: Mutex<HashMap<SocketAddr, CachedConn>>,
    /// See [`SurrogateRegistry::evictions`].
    evictions: AtomicU64,
}

impl SurrogateRegistry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        SurrogateRegistry {
            config,
            entries: Mutex::new(Vec::new()),
            dead: Mutex::new(HashSet::new()),
            probe_failures: Mutex::new(HashMap::new()),
            saturated: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            evictions: AtomicU64::new(0),
        }
    }

    /// Surrogates evicted (marked dead) after consecutive probe failures.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Statically registers a surrogate — the fallback for segments the
    /// beacon cannot reach. Re-registering a name updates its entry and
    /// clears its death mark.
    pub fn add_static(&self, name: &str, addr: SocketAddr, capacity_bytes: u64) {
        self.upsert(SurrogateInfo {
            name: name.to_string(),
            addr,
            capacity_bytes,
            rtt: None,
            smoothed_rtt: None,
            live_sessions: None,
            session_limit: None,
        });
    }

    /// Listens for beacon announcements on `listen` for `wait` and merges
    /// everything heard. Returns how many distinct surrogates were added
    /// or updated.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the UDP listener.
    pub fn discover(&self, listen: SocketAddr, wait: Duration) -> std::io::Result<usize> {
        let heard = crate::beacon::listen_for_announcements(listen, wait)?;
        let mut merged = HashSet::new();
        for (source, announcement) in heard {
            merged.insert(announcement.name.clone());
            self.upsert(SurrogateInfo {
                name: announcement.name,
                addr: SocketAddr::new(source.ip(), announcement.port),
                capacity_bytes: announcement.capacity_bytes,
                rtt: None,
                smoothed_rtt: None,
                live_sessions: None,
                session_limit: None,
            });
        }
        Ok(merged.len())
    }

    fn upsert(&self, mut info: SurrogateInfo) {
        self.dead.lock().remove(&info.name);
        self.probe_failures.lock().remove(&info.name);
        let mut entries = self.entries.lock();
        match entries.iter_mut().find(|e| e.name == info.name) {
            Some(existing) => {
                // A re-announcement carries no fresh measurement; keep the
                // probe history (and scraped load) instead of discarding it.
                if info.rtt.is_none() && info.smoothed_rtt.is_none() {
                    info.rtt = existing.rtt;
                    info.smoothed_rtt = existing.smoothed_rtt;
                }
                if info.live_sessions.is_none() && info.session_limit.is_none() {
                    info.live_sessions = existing.live_sessions;
                    info.session_limit = existing.session_limit;
                }
                *existing = info;
            }
            None => entries.push(info),
        }
    }

    /// Probes every non-dead surrogate with a null RPC. Each measured RTT
    /// feeds the entry's EWMA estimate (the ranking input). A surrogate is evicted (marked dead)
    /// only after [`RegistryConfig::probe_eviction_threshold`] *consecutive*
    /// failed probes — any success resets its failure count — so transient
    /// loss on a chaotic link does not discard a healthy surrogate.
    pub fn probe_all(&self) {
        let snapshot = self.ranked();
        for info in snapshot {
            match self.probe_one(info.addr) {
                Some(rtt) => {
                    self.note_probe_success(&info.name);
                    if let Some(entry) =
                        self.entries.lock().iter_mut().find(|e| e.name == info.name)
                    {
                        entry.observe_rtt(rtt);
                    }
                }
                None => {
                    self.note_probe_failure(&info.name);
                }
            }
        }
    }

    /// Clears the consecutive-failure count after a successful probe.
    fn note_probe_success(&self, name: &str) {
        self.probe_failures.lock().remove(name);
    }

    /// Records one failed probe; returns `true` when the failure streak
    /// reaches the eviction threshold and the surrogate is marked dead.
    fn note_probe_failure(&self, name: &str) -> bool {
        let streak = {
            let mut failures = self.probe_failures.lock();
            let streak = failures.entry(name.to_string()).or_insert(0);
            *streak += 1;
            *streak
        };
        if streak < self.config.probe_eviction_threshold.max(1) {
            return false;
        }
        self.probe_failures.lock().remove(name);
        self.dead.lock().insert(name.to_string());
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Scrapes a surrogate's Prometheus-style metrics exposition over the
    /// pooled probe session, sends a `STATS` request, and returns the
    /// text. `None` if the surrogate is unknown, unreachable, or answered
    /// with anything but text.
    pub fn scrape_stats(&self, name: &str) -> Option<String> {
        let addr = self
            .entries
            .lock()
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.addr)?;
        let endpoint = self.probe_endpoint(addr)?;
        match endpoint.call(Request::Stats) {
            Ok(Reply::Text(text)) => Some(text),
            Ok(_) => None,
            Err(_) => {
                self.drop_conn(addr);
                None
            }
        }
    }

    /// One health probe: send a null RPC over the pooled probe session and
    /// measure the real RTT. The session persists across probes — no
    /// per-probe TCP handshake — and a failed probe drops the pooled
    /// carrier so the next probe redials.
    fn probe_one(&self, addr: SocketAddr) -> Option<Duration> {
        let endpoint = self.probe_endpoint(addr)?;
        match endpoint.probe(self.config.probe_timeout) {
            Ok(rtt) => Some(rtt),
            Err(_) => {
                self.drop_conn(addr);
                None
            }
        }
    }

    /// The long-lived probe endpoint of the pooled carrier to `addr`,
    /// dialing the carrier if none is cached.
    fn probe_endpoint(&self, addr: SocketAddr) -> Option<Arc<Endpoint>> {
        let mut conns = self.conns.lock();
        if let Some(conn) = conns.get(&addr) {
            return Some(conn.probe.clone());
        }
        let conn = self.dial(addr)?;
        let probe = conn.probe.clone();
        conns.insert(addr, conn);
        Some(probe)
    }

    /// Opens a fresh logical session on the pooled carrier to `addr`. A
    /// stale carrier (surrogate restarted) is dropped and redialed once.
    fn open_pooled_session(&self, addr: SocketAddr) -> Option<Session> {
        let mut conns = self.conns.lock();
        if let Some(conn) = conns.get(&addr) {
            if let Ok(session) = conn.conn.open_session() {
                return Some(session);
            }
            teardown_conn(conns.remove(&addr));
        }
        let conn = self.dial(addr)?;
        let session = conn.conn.open_session().ok()?;
        conns.insert(addr, conn);
        Some(session)
    }

    /// Dials a new multiplexed carrier and starts its probe session.
    fn dial(&self, addr: SocketAddr) -> Option<CachedConn> {
        let conn = MuxConn::connect(addr, self.config.connect_timeout).ok()?;
        let session = conn.open_session().ok()?;
        let probe = Endpoint::start(
            session,
            self.config.params,
            Arc::new(NetClock::new()),
            Arc::new(ProbeDispatcher),
            EndpointConfig::default(),
        );
        Some(CachedConn { conn, probe })
    }

    /// Evicts the pooled carrier to `addr`, severing the socket so every
    /// session on it disconnects.
    fn drop_conn(&self, addr: SocketAddr) {
        teardown_conn(self.conns.lock().remove(&addr));
    }

    fn connect_with(
        &self,
        addr: SocketAddr,
        dispatcher: Arc<dyn Dispatcher>,
        clock: Option<Arc<NetClock>>,
        endpoint_config: EndpointConfig,
    ) -> Option<Arc<Endpoint>> {
        let session = self.open_pooled_session(addr)?;
        Some(Endpoint::start(
            session,
            self.config.params,
            clock.unwrap_or_else(|| Arc::new(NetClock::new())),
            dispatcher,
            endpoint_config,
        ))
    }

    /// Live (non-dead) surrogates, best-ranked first.
    pub fn ranked(&self) -> Vec<SurrogateInfo> {
        let dead = self.dead.lock();
        let mut live: Vec<SurrogateInfo> = self
            .entries
            .lock()
            .iter()
            .filter(|e| !dead.contains(&e.name))
            .cloned()
            .collect();
        // Stable: unprobed entries (all +inf) keep registration order.
        live.sort_by(|a, b| {
            a.rank_score()
                .partial_cmp(&b.rank_score())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        live
    }

    /// Live surrogates in load-aware placement order: under-limit
    /// candidates first, spread by reported load on top of the RTT /
    /// capacity ranking (see [`placement_order`]).
    pub fn placement(&self) -> Vec<SurrogateInfo> {
        placement_order(self.ranked())
    }

    /// Scrapes every live surrogate's STATS exposition and folds the
    /// per-daemon live-session and session-limit gauges into its entry —
    /// the load half of the placement score. Returns how many entries
    /// got fresh load data.
    pub fn refresh_load(&self) -> usize {
        let mut refreshed = 0;
        for info in self.ranked() {
            let Some(text) = self.scrape_stats(&info.name) else {
                continue;
            };
            let Some(snapshot) = aide_telemetry::FleetSnapshot::parse(&text, &info.name) else {
                continue;
            };
            if let Some(entry) = self.entries.lock().iter_mut().find(|e| e.name == info.name) {
                entry.live_sessions = Some(snapshot.live_sessions);
                entry.session_limit = Some(snapshot.session_limit);
                refreshed += 1;
            }
        }
        refreshed
    }

    /// Puts `name` under a saturation cooldown: it stays registered and
    /// ranked, but [`acquire`](SurrogateProvider::acquire) skips it until
    /// the cooldown lifts.
    pub fn note_busy(&self, name: &str, cooldown: Duration) {
        self.saturated
            .lock()
            .insert(name.to_string(), Instant::now() + cooldown);
    }

    /// Whether `name` is currently under a saturation cooldown; expired
    /// cooldowns are dropped on the way through.
    fn in_cooldown(&self, name: &str) -> bool {
        let mut saturated = self.saturated.lock();
        match saturated.get(name) {
            Some(until) if Instant::now() < *until => true,
            Some(_) => {
                saturated.remove(name);
                false
            }
            None => false,
        }
    }

    /// Names currently marked dead.
    pub fn dead_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.dead.lock().iter().cloned().collect();
        names.sort();
        names
    }
}

/// Shuts down a pooled carrier: winds down the probe endpoint and severs
/// the socket so the surrogate's side tears down too.
fn teardown_conn(conn: Option<CachedConn>) {
    if let Some(conn) = conn {
        conn.probe.shutdown();
        conn.probe.join();
        conn.conn.killer().kill();
    }
}

impl Drop for SurrogateRegistry {
    fn drop(&mut self) {
        for (_, conn) in self.conns.lock().drain() {
            teardown_conn(Some(conn));
        }
    }
}

impl SurrogateProvider for SurrogateRegistry {
    /// Leases the best-placed live surrogate: connects, builds a session
    /// endpoint wired to the platform's dispatcher and clock, and verifies
    /// the session with one null RPC. Candidates are tried in load-aware
    /// [`placement`](SurrogateRegistry::placement) order, skipping
    /// saturated surrogates still in their `Busy` cooldown; ones that fail
    /// to connect or to answer the probe are marked dead and the next
    /// candidate is tried — backoff-and-replace, client side.
    fn acquire(&self, ctx: &ProviderContext) -> Option<SurrogateLease> {
        for info in self.placement() {
            if self.in_cooldown(&info.name) {
                continue;
            }
            let Some(endpoint) = self.connect_with(
                info.addr,
                ctx.dispatcher.clone(),
                Some(ctx.clock.clone()),
                ctx.endpoint_config,
            ) else {
                self.dead.lock().insert(info.name);
                continue;
            };
            if let Err(err) = endpoint.probe(self.config.probe_timeout) {
                endpoint.shutdown();
                endpoint.join();
                self.drop_conn(info.addr);
                if let aide_rpc::RpcError::Busy { retry_after_ms } = err {
                    // Admission control refused the session: the daemon is
                    // alive, just full. Cool down and try the next
                    // candidate instead of writing it off.
                    self.report_busy(&info.name, retry_after_ms);
                } else {
                    self.dead.lock().insert(info.name);
                }
                continue;
            }
            return Some(SurrogateLease {
                name: info.name,
                endpoint,
            });
        }
        None
    }

    fn report_failure(&self, name: &str) {
        self.dead.lock().insert(name.to_string());
    }

    /// A `Busy` surrogate is alive: keep it ranked, skip it for the
    /// suggested cooldown, and let placement fall through to the next
    /// candidate.
    fn report_busy(&self, name: &str, retry_after_ms: u32) {
        self.note_busy(
            name,
            Duration::from_millis(u64::from(retry_after_ms.max(1))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(name: &str, capacity: u64, rtt_micros: Option<u64>) -> SurrogateInfo {
        SurrogateInfo {
            name: name.to_string(),
            addr: "127.0.0.1:1".parse().unwrap(),
            capacity_bytes: capacity,
            rtt: rtt_micros.map(Duration::from_micros),
            smoothed_rtt: rtt_micros.map(Duration::from_micros),
            live_sessions: None,
            session_limit: None,
        }
    }

    fn loaded(name: &str, rtt_micros: u64, live: u64, limit: u64) -> SurrogateInfo {
        let mut entry = info(name, 64 << 20, Some(rtt_micros));
        entry.live_sessions = Some(live);
        entry.session_limit = Some(limit);
        entry
    }

    #[test]
    fn ranking_prefers_fast_links_then_big_surrogates() {
        let registry = SurrogateRegistry::new(RegistryConfig::default());
        // Same capacity: the 2.4 ms link beats the 9 ms one.
        registry.upsert(info("slow", 64 << 20, Some(9_000)));
        registry.upsert(info("fast", 64 << 20, Some(2_400)));
        // Equal RTT to "fast", but 4x the memory: ranks first.
        registry.upsert(info("big", 256 << 20, Some(2_400)));
        // Never probed: last.
        registry.upsert(info("unknown", 1 << 30, None));
        let ranked = registry.ranked();
        let order: Vec<&str> = ranked.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order, ["big", "fast", "slow", "unknown"]);
    }

    #[test]
    fn dead_surrogates_leave_the_ranking_until_reregistered() {
        let registry = SurrogateRegistry::new(RegistryConfig::default());
        registry.upsert(info("a", 1, Some(100)));
        registry.upsert(info("b", 1, Some(200)));
        registry.report_failure("a");
        let ranked = registry.ranked();
        let order: Vec<&str> = ranked.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order, ["b"]);
        assert_eq!(registry.dead_names(), ["a"]);
        // Hearing from the surrogate again (beacon or static) revives it.
        registry.upsert(info("a", 1, Some(100)));
        assert!(registry.dead_names().is_empty());
        assert_eq!(registry.ranked().len(), 2);
    }

    #[test]
    fn ewma_damps_a_single_probe_spike() {
        let mut entry = info("s", 1, None);
        entry.observe_rtt(Duration::from_micros(2_400));
        assert_eq!(entry.smoothed_rtt, Some(Duration::from_micros(2_400)));
        // One 50 ms outlier barely moves the smoothed estimate...
        entry.observe_rtt(Duration::from_micros(50_000));
        let smoothed = entry.smoothed_rtt.unwrap();
        assert!(
            smoothed < Duration::from_micros(9_000),
            "EWMA absorbed the spike: {smoothed:?}"
        );
        // ...while the raw last-sample field tracks it faithfully.
        assert_eq!(entry.rtt, Some(Duration::from_micros(50_000)));
    }

    #[test]
    fn ranking_uses_the_smoothed_rtt_not_the_last_sample() {
        // A historically fast surrogate (1 ms) whose latest probe spiked,
        // against a steady 3 ms one. The gain decides: one sample moves the
        // estimate an eighth of the way, so a 12 ms spike reads as 2 375 µs
        // and is absorbed, while a 40 ms spike reads as 5 875 µs and does
        // reorder (the break-even spike is 17 ms).
        for (spike_micros, expected) in
            [(12_000, ["spiky", "steady"]), (40_000, ["steady", "spiky"])]
        {
            let registry = SurrogateRegistry::new(RegistryConfig::default());
            let mut steady = info("steady", 1, None);
            let mut spiky = info("spiky", 1, None);
            for _ in 0..8 {
                steady.observe_rtt(Duration::from_micros(3_000));
                spiky.observe_rtt(Duration::from_micros(1_000));
            }
            spiky.observe_rtt(Duration::from_micros(spike_micros));
            registry.upsert(steady);
            registry.upsert(spiky);
            let ranked = registry.ranked();
            let order: Vec<&str> = ranked.iter().map(|e| e.name.as_str()).collect();
            assert_eq!(order, expected, "after a {spike_micros} µs spike");
        }
    }

    #[test]
    fn reannouncement_preserves_probe_history() {
        let registry = SurrogateRegistry::new(RegistryConfig::default());
        registry.upsert(info("s", 1, Some(2_400)));
        // The beacon re-announces with no measurement attached.
        registry.add_static("s", "127.0.0.1:1".parse().unwrap(), 2);
        let ranked = registry.ranked();
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].capacity_bytes, 2, "announcement data updated");
        assert_eq!(
            ranked[0].smoothed_rtt,
            Some(Duration::from_micros(2_400)),
            "probe history survived the re-announcement"
        );
    }

    #[test]
    fn eviction_waits_for_consecutive_probe_failures() {
        let registry = SurrogateRegistry::new(RegistryConfig {
            probe_eviction_threshold: 3,
            ..RegistryConfig::default()
        });
        registry.upsert(info("flaky", 1, Some(2_400)));

        assert!(!registry.note_probe_failure("flaky"));
        assert!(!registry.note_probe_failure("flaky"));
        assert_eq!(
            registry.ranked().len(),
            1,
            "two failures stay under the threshold"
        );
        // A success in between wipes the streak...
        registry.note_probe_success("flaky");
        assert!(!registry.note_probe_failure("flaky"));
        assert!(!registry.note_probe_failure("flaky"));
        assert_eq!(registry.ranked().len(), 1, "streak restarted from zero");
        // ...so only three failures in a row evict.
        assert!(registry.note_probe_failure("flaky"));
        assert!(registry.ranked().is_empty());
        assert_eq!(registry.dead_names(), ["flaky"]);
        assert_eq!(registry.evictions(), 1);
        // Hearing from the surrogate again revives it with a clean slate.
        registry.upsert(info("flaky", 1, Some(2_400)));
        assert!(!registry.note_probe_failure("flaky"));
        assert_eq!(registry.ranked().len(), 1);
    }

    #[test]
    fn unprobed_entries_keep_registration_order() {
        let registry = SurrogateRegistry::new(RegistryConfig::default());
        registry.add_static("first", "127.0.0.1:1".parse().unwrap(), 1);
        registry.add_static("second", "127.0.0.1:2".parse().unwrap(), 1 << 30);
        let ranked = registry.ranked();
        let order: Vec<&str> = ranked.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(order, ["first", "second"]);
    }

    #[test]
    fn placement_spreads_by_load_at_equal_rank() {
        // Same RTT and capacity: the emptier surrogate wins placement even
        // though plain ranking would tie them.
        let order: Vec<String> = placement_order(vec![
            loaded("hot", 2_400, 9, 10),
            loaded("cool", 2_400, 1, 10),
        ])
        .into_iter()
        .map(|e| e.name)
        .collect();
        assert_eq!(order, ["cool", "hot"]);
    }

    #[test]
    fn placement_never_prefers_an_at_limit_surrogate() {
        // "full" has a far better link, but it is at its session limit;
        // any under-limit candidate must come first.
        let order: Vec<String> = placement_order(vec![
            loaded("full", 100, 10, 10),
            loaded("slow", 9_000, 2, 10),
        ])
        .into_iter()
        .map(|e| e.name)
        .collect();
        assert_eq!(order, ["slow", "full"]);
    }

    #[test]
    fn placement_without_load_data_degrades_to_the_ranking() {
        let registry = SurrogateRegistry::new(RegistryConfig::default());
        registry.upsert(info("slow", 64 << 20, Some(9_000)));
        registry.upsert(info("fast", 64 << 20, Some(2_400)));
        registry.upsert(info("big", 256 << 20, Some(2_400)));
        registry.upsert(info("unknown", 1 << 30, None));
        let order: Vec<String> = registry.placement().into_iter().map(|e| e.name).collect();
        assert_eq!(order, ["big", "fast", "slow", "unknown"]);
    }

    #[test]
    fn busy_cooldown_expires_on_its_own() {
        let registry = SurrogateRegistry::new(RegistryConfig::default());
        registry.upsert(info("s", 1, Some(100)));
        registry.report_busy("s", 0); // clamped to 1 ms
        assert!(registry.in_cooldown("s"));
        std::thread::sleep(Duration::from_millis(5));
        assert!(!registry.in_cooldown("s"));
        // The surrogate never left the ranking while saturated.
        assert_eq!(registry.ranked().len(), 1);
    }

    #[test]
    fn upsert_keeps_load_data_across_announcements() {
        let registry = SurrogateRegistry::new(RegistryConfig::default());
        registry.upsert(loaded("s", 2_400, 7, 16));
        // Beacon re-announcement carries no load fields.
        registry.upsert(info("s", 64 << 20, Some(2_400)));
        let ranked = registry.ranked();
        assert_eq!(ranked[0].live_sessions, Some(7));
        assert_eq!(ranked[0].session_limit, Some(16));
    }
}
