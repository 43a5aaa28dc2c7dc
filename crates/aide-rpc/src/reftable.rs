//! Cross-VM object-reference bookkeeping (distributed garbage collection).
//!
//! When a reference to a local object is sent to the peer, the object must
//! survive local collection for as long as the peer may use it: the sender
//! records it in its [`ExportTable`] and pins it as an external GC root.
//! Symmetrically, the receiver records the remote reference in its
//! [`ImportTable`]. After a local collection, the receiver diffs the set of
//! remote ids still reachable from its heap and frames against the import
//! table and sends a release for the dropped ones — the paper's "simple
//! distributed garbage collection scheme" (§4).
//!
//! The simple scheme pins forever when messages misbehave, so every export
//! additionally carries a **lease**: an epoch tag plus a TTL deadline on a
//! shared [`GcClock`]. Ordinary RPC traffic piggybacks the importer's lease
//! epoch on every frame, which renews the exporter's current-epoch leases
//! in constant time (see below); a session that goes quiet renews with an
//! explicit `Request::GcRenew`. An export whose lease runs out without
//! renewal is swept back to the collector
//! ([`ExportTable::sweep_expired`]) — the holder is presumed dead or
//! partitioned, so pin-forever leaks become bounded-by-TTL reclaims.
//!
//! Releases are made idempotent under the at-most-once retry machinery:
//! each batch carries the sender's lease epoch and a monotonically
//! increasing *release sequence number* ([`ImportTable::next_release_seq`]).
//! The exporter keeps a per-session watermark and drops any batch at or
//! below it (a retried, duplicated, or late-delivered batch) and any batch
//! from an older epoch (a zombie from before a failover) — counted no-ops,
//! never a double-unpin. A batch lost outright simply leaves the entries to
//! their lease deadline.
//!
//! A renewal extends *every* current-epoch lease, and one arrives with
//! every stamped frame, so [`ExportTable::renew`] does not visit the
//! entries: the table keeps the newest table-wide renewal of the current
//! epoch (its deadline and its serial number) and a count of current-epoch
//! entries, and each entry remembers how many renewals had happened when
//! its own deadline was last written. An entry's *effective* deadline is
//! its own unless a later renewal of its still-current epoch supersedes it
//! — later in order, not larger in value, so a lowered TTL shortens leases
//! exactly as a per-entry overwrite would. [`ExportTable::begin_epoch`]
//! writes the pending renewal into the entries of the epoch it closes,
//! once; the sweeps and [`ExportTable::lease_ages_ms`] read the effective
//! deadline.
//!
//! [`GcClock`] is a manual millisecond clock rather than wall time so the
//! lease state machine is fully deterministic under test: soaks and
//! property tests advance it explicitly, and the surrogate daemon advances
//! it by measured wall-clock elapsed time.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use aide_vm::{BuildIdHasher, ObjectId, Vm};

/// Default lease TTL for exported references, in [`GcClock`] milliseconds.
pub const DEFAULT_LEASE_TTL_MS: u64 = 30_000;

/// A shared monotonic millisecond clock that lease deadlines are measured
/// against. It only moves when something advances it: tests advance it
/// explicitly (deterministic expiry), long-running daemons advance it by
/// measured wall time. Platform runs that never advance it simply never
/// expire leases by time — epoch sweeps still reclaim after failover.
#[derive(Debug, Default)]
pub struct GcClock {
    now_ms: AtomicU64,
}

impl GcClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        GcClock::default()
    }

    /// Current clock reading, in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::Relaxed)
    }

    /// Advances the clock by `delta_ms` milliseconds.
    pub fn advance_ms(&self, delta_ms: u64) {
        self.now_ms.fetch_add(delta_ms, Ordering::Relaxed);
    }
}

/// What happened to a single released export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseOutcome {
    /// The entry was dropped; the caller should unpin the external root.
    Unpinned,
    /// One reference count was released but live exports remain.
    StillHeld,
    /// The object was not in the table (a replayed or misrouted release);
    /// counted, never an error.
    Unknown,
}

/// One exported object's bookkeeping: how many references are out, which
/// export epoch it was last handed out under, and when its lease runs out
/// — unless a later table-wide renewal says otherwise (see
/// [`ExportInner::deadline_of`]).
#[derive(Debug, Clone, Copy)]
struct ExportEntry {
    count: u64,
    epoch: u64,
    deadline_ms: u64,
    /// [`ExportInner::renewals`] when `deadline_ms` was written.
    renewals_seen: u64,
}

#[derive(Debug, Default)]
struct ExportInner {
    entries: HashMap<ObjectId, ExportEntry, BuildIdHasher>,
    /// Current local export epoch; bumped by failover so survivors of the
    /// old session become sweepable.
    epoch: u64,
    /// Entries tagged with `epoch`: what one renewal extends.
    current_entries: usize,
    /// Table-wide renewals so far. Only its order against
    /// [`ExportEntry::renewals_seen`] matters.
    renewals: u64,
    /// The deadline the newest renewal gave every entry that was of the
    /// current epoch then.
    renewed_deadline_ms: u64,
    /// Highest lease epoch the peer has advertised; releases and renewals
    /// from older epochs are zombies and are ignored.
    peer_epoch: u64,
    /// Highest release sequence number applied; batches at or below it
    /// are duplicates.
    watermark: u64,
}

impl ExportInner {
    /// When `e`'s lease runs out: at its own deadline, unless the table
    /// was renewed after that deadline was written and `e` is still of the
    /// current epoch (an older epoch's pending renewal was written into its
    /// entries when the epoch closed).
    fn deadline_of(&self, e: &ExportEntry) -> u64 {
        if e.epoch == self.epoch && e.renewals_seen < self.renewals {
            self.renewed_deadline_ms
        } else {
            e.deadline_ms
        }
    }

    /// Takes `id` out of the table — the one way an entry leaves it, so
    /// that `current_entries` stays true.
    fn remove(&mut self, id: &ObjectId) -> Option<ExportEntry> {
        let gone = self.entries.remove(id)?;
        if gone.epoch == self.epoch {
            self.current_entries -= 1;
        }
        Some(gone)
    }
}

/// Releases an [`ExportTable`] refused or could not match, by kind: each
/// a counted no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReleaseStats {
    /// Batches dropped because their release sequence number was at or
    /// below the session watermark (a retried or replayed batch).
    pub duplicate: u64,
    /// Batches dropped because they carried an epoch older than the peer's
    /// current lease epoch (a zombie from before a failover).
    pub stale: u64,
    /// Releases naming an object that is not in the table.
    pub unknown: u64,
}

/// Tracks local objects whose references were exported to the peer.
///
/// Counts are reference counts: exporting the same object twice requires
/// two single releases before the pin drops. Every entry is lease-tagged
/// (epoch + TTL deadline); see the module docs for the reclamation rules.
#[derive(Debug)]
pub struct ExportTable {
    inner: Mutex<ExportInner>,
    clock: Arc<GcClock>,
    ttl_ms: AtomicU64,
    recorder: Mutex<Option<Arc<aide_telemetry::FlightRecorder>>>,
    duplicate_releases: AtomicU64,
    stale_releases: AtomicU64,
    unknown_releases: AtomicU64,
}

impl Default for ExportTable {
    fn default() -> Self {
        ExportTable::with_clock(Arc::new(GcClock::new()))
    }
}

impl ExportTable {
    /// Creates an empty table with its own private [`GcClock`] (which
    /// nothing advances — leases never expire unless someone advances it).
    pub fn new() -> Self {
        ExportTable::default()
    }

    /// Creates an empty table whose lease deadlines are measured against
    /// `clock`.
    pub fn with_clock(clock: Arc<GcClock>) -> Self {
        ExportTable {
            inner: Mutex::new(ExportInner::default()),
            clock,
            ttl_ms: AtomicU64::new(DEFAULT_LEASE_TTL_MS),
            recorder: Mutex::new(None),
            duplicate_releases: AtomicU64::new(0),
            stale_releases: AtomicU64::new(0),
            unknown_releases: AtomicU64::new(0),
        }
    }

    /// The clock lease deadlines are measured against.
    pub fn clock(&self) -> &Arc<GcClock> {
        &self.clock
    }

    /// Replaces the lease TTL applied to subsequent exports and renewals.
    pub fn set_ttl_ms(&self, ttl_ms: u64) {
        self.ttl_ms.store(ttl_ms, Ordering::Relaxed);
    }

    /// Current lease TTL in milliseconds.
    pub fn ttl_ms(&self) -> u64 {
        self.ttl_ms.load(Ordering::Relaxed)
    }

    /// Attaches a flight recorder so misaccounted releases leave a
    /// visible warning event instead of disappearing.
    pub fn set_recorder(&self, recorder: Arc<aide_telemetry::FlightRecorder>) {
        *self.recorder.lock() = Some(recorder);
    }

    /// The releases this table refused or could not match, so far.
    pub fn release_stats(&self) -> ReleaseStats {
        ReleaseStats {
            duplicate: self.duplicate_releases.load(Ordering::Relaxed),
            stale: self.stale_releases.load(Ordering::Relaxed),
            unknown: self.unknown_releases.load(Ordering::Relaxed),
        }
    }

    fn warn_unknown(&self, id: ObjectId) {
        self.unknown_releases.fetch_add(1, Ordering::Relaxed);
        if let Some(r) = self.recorder.lock().as_ref() {
            r.record(aide_telemetry::PlatformEvent::GcReleaseUnknown { object: id.0 });
        }
    }

    /// Records one exported reference to `id`, tagging it with the current
    /// epoch and a fresh lease deadline. Returns `true` if this is the
    /// first live export of the object (the caller should pin it as an
    /// external GC root).
    pub fn export(&self, id: ObjectId) -> bool {
        let now = self.clock.now_ms();
        let ttl = self.ttl_ms();
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let (epoch, renewals_seen) = (inner.epoch, inner.renewals);
        match inner.entries.get_mut(&id) {
            Some(e) => {
                if e.epoch != epoch {
                    inner.current_entries += 1;
                }
                e.count += 1;
                e.epoch = epoch;
                e.deadline_ms = now + ttl;
                e.renewals_seen = renewals_seen;
                false
            }
            None => {
                inner.entries.insert(
                    id,
                    ExportEntry {
                        count: 1,
                        epoch,
                        deadline_ms: now + ttl,
                        renewals_seen,
                    },
                );
                inner.current_entries += 1;
                true
            }
        }
    }

    /// Releases one exported reference, reporting exactly what happened.
    pub fn release_one(&self, id: ObjectId) -> ReleaseOutcome {
        let mut inner = self.inner.lock();
        match inner.entries.get_mut(&id) {
            Some(e) => {
                e.count -= 1;
                if e.count == 0 {
                    inner.remove(&id);
                    ReleaseOutcome::Unpinned
                } else {
                    ReleaseOutcome::StillHeld
                }
            }
            None => {
                drop(inner);
                self.warn_unknown(id);
                ReleaseOutcome::Unknown
            }
        }
    }

    /// Records the release of one exported reference. Returns `true` when
    /// this was the last live export (the caller should unpin the root).
    /// A release of an unknown id is a counted no-op.
    pub fn release(&self, id: ObjectId) -> bool {
        self.release_one(id) == ReleaseOutcome::Unpinned
    }

    /// Applies a watermarked release batch from the peer's GC sweep.
    ///
    /// The batch is dropped whole — a counted no-op returning no ids — if
    /// `epoch` is older than the highest epoch the peer has advertised
    /// (zombie from before a failover) or `release_seq` is at or below the
    /// session watermark (a retry, a chaos duplicate, or a frame delivered
    /// after a later batch). Otherwise each object is dropped from the
    /// table entirely (the peer asserts it holds *no* references any
    /// more) and returned so the caller can unpin it.
    pub fn release_batch(
        &self,
        epoch: u64,
        release_seq: u64,
        objects: &[ObjectId],
    ) -> Vec<ObjectId> {
        let mut inner = self.inner.lock();
        if epoch < inner.peer_epoch {
            drop(inner);
            self.stale_releases.fetch_add(1, Ordering::Relaxed);
            return Vec::new();
        }
        inner.peer_epoch = epoch;
        if release_seq <= inner.watermark {
            drop(inner);
            self.duplicate_releases.fetch_add(1, Ordering::Relaxed);
            return Vec::new();
        }
        inner.watermark = release_seq;
        let mut unpinned = Vec::new();
        let mut unknown = Vec::new();
        for &id in objects {
            if inner.remove(&id).is_some() {
                unpinned.push(id);
            } else {
                unknown.push(id);
            }
        }
        drop(inner);
        for id in unknown {
            self.warn_unknown(id);
        }
        unpinned
    }

    /// Extends the lease deadline of every current-epoch entry — called on
    /// every frame that carries the peer's lease epoch, and by the
    /// explicit `GcRenew` path — in constant time: the new deadline is
    /// recorded once for the table, not per entry (see the module docs).
    /// Renewals advertising an epoch older than one already seen are
    /// zombies and extend nothing. Returns the number of leases extended.
    pub fn renew(&self, peer_epoch: u64) -> usize {
        let now = self.clock.now_ms();
        let ttl = self.ttl_ms();
        let mut inner = self.inner.lock();
        if peer_epoch < inner.peer_epoch {
            return 0;
        }
        inner.peer_epoch = peer_epoch;
        inner.renewals += 1;
        inner.renewed_deadline_ms = now + ttl;
        inner.current_entries
    }

    /// Starts a new export epoch (failover, session teardown). Entries
    /// from older epochs stop being renewable and can be reclaimed in
    /// bulk with [`ExportTable::sweep_stale_epochs`]. Returns the new
    /// epoch.
    pub fn begin_epoch(&self) -> u64 {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        // The closing epoch's entries keep what its last renewal gave
        // them; no later renewal reaches them.
        let (epoch, renewals, renewed) = (inner.epoch, inner.renewals, inner.renewed_deadline_ms);
        for e in inner.entries.values_mut() {
            if e.epoch == epoch && e.renewals_seen < renewals {
                e.deadline_ms = renewed;
            }
        }
        inner.epoch += 1;
        inner.current_entries = 0;
        inner.epoch
    }

    /// Removes every entry whose lease deadline has passed, returning the
    /// ids so the caller can unpin them.
    pub fn sweep_expired(&self) -> Vec<ObjectId> {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock();
        let expired: Vec<ObjectId> = inner
            .entries
            .iter()
            .filter(|(_, e)| inner.deadline_of(e) < now)
            .map(|(id, _)| *id)
            .collect();
        for id in &expired {
            inner.remove(id);
        }
        let epoch = inner.epoch;
        drop(inner);
        if !expired.is_empty() {
            if let Some(r) = self.recorder.lock().as_ref() {
                r.record(aide_telemetry::PlatformEvent::LeaseExpired {
                    objects: expired.len() as u64,
                    epoch,
                });
            }
        }
        expired
    }

    /// Removes every entry tagged with an epoch older than the current
    /// one, returning the ids so the caller can unpin them. Run after
    /// [`ExportTable::begin_epoch`] to hand a dead session's exports back
    /// to the collector without waiting for their TTLs.
    pub fn sweep_stale_epochs(&self) -> Vec<ObjectId> {
        let mut inner = self.inner.lock();
        let epoch = inner.epoch;
        let stale: Vec<ObjectId> = inner
            .entries
            .iter()
            .filter(|(_, e)| e.epoch < epoch)
            .map(|(id, _)| *id)
            .collect();
        for id in &stale {
            inner.remove(id);
        }
        stale
    }

    /// The current local export epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// The highest lease epoch the peer has advertised.
    pub fn peer_epoch(&self) -> u64 {
        self.inner.lock().peer_epoch
    }

    /// The highest release sequence number applied so far.
    pub fn watermark(&self) -> u64 {
        self.inner.lock().watermark
    }

    /// Number of live references recorded for `id` (0 if absent).
    pub fn holds(&self, id: ObjectId) -> u64 {
        self.inner.lock().entries.get(&id).map_or(0, |e| e.count)
    }

    /// Number of distinct objects currently exported.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Returns `true` if nothing is exported.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries.is_empty()
    }

    /// Returns `true` if `id` is currently exported.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.inner.lock().entries.contains_key(&id)
    }

    /// Age of every live lease in milliseconds: how long since each entry
    /// was last exported or renewed, measured as TTL minus remaining
    /// deadline. Entries past their deadline (not yet swept) report the
    /// full TTL. Fleet telemetry exposes these so an operator can see
    /// sessions drifting toward expiry before the sweeper reclaims them.
    pub fn lease_ages_ms(&self) -> Vec<u64> {
        let now = self.clock.now_ms();
        let ttl = self.ttl_ms();
        let inner = self.inner.lock();
        inner
            .entries
            .values()
            .map(|e| ttl.saturating_sub(inner.deadline_of(e).saturating_sub(now)))
            .collect()
    }
}

#[derive(Debug, Clone, Copy)]
struct ImportEntry {
    count: u64,
    epoch: u64,
}

#[derive(Debug, Default)]
struct ImportInner {
    held: HashMap<ObjectId, ImportEntry, BuildIdHasher>,
    /// The lease epoch this side advertises on outgoing frames; bumped on
    /// failover and rollback so the old session's releases read as stale.
    epoch: u64,
    /// Source of release-batch sequence numbers (first batch is 1).
    next_release_seq: u64,
}

/// Tracks remote objects this VM holds references to.
///
/// Entries are reference-counted: importing the same remote id twice and
/// then removing one hold leaves the other intact (the set-based table
/// used to forget it). The liveness sweep is authoritative and drops an
/// entry wholesale — GC has proven nothing references the id.
#[derive(Debug)]
pub struct ImportTable {
    inner: Mutex<ImportInner>,
    /// `inner.epoch`, written under the table lock whenever that changes,
    /// so that stamping a frame — twice per round trip — locks nothing.
    advertised_epoch: AtomicU64,
}

impl Default for ImportTable {
    fn default() -> Self {
        ImportTable {
            inner: Mutex::new(ImportInner::default()),
            advertised_epoch: AtomicU64::new(0),
        }
    }
}

impl ImportTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ImportTable::default()
    }

    /// Records receipt of a reference to the remote object `id`.
    pub fn import(&self, id: ObjectId) {
        let mut inner = self.inner.lock();
        let epoch = inner.epoch;
        match inner.held.get_mut(&id) {
            Some(e) => {
                e.count += 1;
                e.epoch = epoch;
            }
            None => {
                inner.held.insert(id, ImportEntry { count: 1, epoch });
            }
        }
    }

    /// Number of distinct remote objects held.
    pub fn len(&self) -> usize {
        self.inner.lock().held.len()
    }

    /// Returns `true` if no remote references are held.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().held.is_empty()
    }

    /// Returns `true` if `id` is recorded as held.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.inner.lock().held.contains_key(&id)
    }

    /// Number of live holds recorded for `id` (0 if absent).
    pub fn holds(&self, id: ObjectId) -> u64 {
        self.inner.lock().held.get(&id).map_or(0, |e| e.count)
    }

    /// Releases a single hold (used when an offload is rolled back and the
    /// object becomes local again). Other holds survive. Returns `true`
    /// if the id was held at all.
    pub fn remove(&self, id: ObjectId) -> bool {
        let mut inner = self.inner.lock();
        match inner.held.get_mut(&id) {
            Some(e) => {
                e.count -= 1;
                if e.count == 0 {
                    inner.held.remove(&id);
                }
                true
            }
            None => false,
        }
    }

    /// Diffs the table against the set of remote ids still reachable
    /// locally (`still_referenced`), removes the dropped entries (all
    /// holds — the collector has proven nothing references them), and
    /// returns them so the caller can send a release to the peer.
    pub fn sweep_dropped(&self, still_referenced: &HashSet<ObjectId>) -> Vec<ObjectId> {
        let mut inner = self.inner.lock();
        let dropped: Vec<ObjectId> = inner
            .held
            .keys()
            .filter(|id| !still_referenced.contains(id))
            .copied()
            .collect();
        for id in &dropped {
            inner.held.remove(id);
        }
        dropped
    }

    /// Starts a new lease epoch (failover, migration rollback). Returns
    /// the new epoch, which outgoing frames advertise from now on.
    pub fn begin_epoch(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        self.advertised_epoch.store(inner.epoch, Ordering::SeqCst);
        inner.epoch
    }

    /// The lease epoch this side currently advertises.
    pub fn advertised_epoch(&self) -> u64 {
        self.advertised_epoch.load(Ordering::SeqCst)
    }

    /// Draws the next release-batch sequence number (first call returns 1).
    pub fn next_release_seq(&self) -> u64 {
        let mut inner = self.inner.lock();
        inner.next_release_seq += 1;
        inner.next_release_seq
    }
}

/// Scans a VM's live heap slots *and* mutator roots (frame registers,
/// receivers) for references to objects that are not local — the set of
/// remote references still in use. Feed the result to
/// [`ImportTable::sweep_dropped`] after a collection.
pub fn live_remote_refs(vm: &Vm) -> HashSet<ObjectId> {
    let mut out = HashSet::new();
    let heap = vm.heap();
    for (_, rec) in heap.iter() {
        for slot in rec.slots.iter().flatten() {
            if !heap.contains(*slot) {
                out.insert(*slot);
            }
        }
    }
    for id in vm.root_refs() {
        if !heap.contains(id) {
            out.insert(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use aide_vm::{ClassId, MethodDef, ObjectRecord, ProgramBuilder, Vm, VmConfig};

    #[test]
    fn export_pins_once_per_object() {
        let t = ExportTable::new();
        let id = ObjectId::client(1);
        assert!(t.export(id), "first export pins");
        assert!(!t.export(id), "second export does not re-pin");
        assert_eq!(t.len(), 1);
        assert!(!t.release(id), "one release leaves one live export");
        assert!(t.release(id), "last release unpins");
        assert!(t.is_empty());
    }

    #[test]
    fn release_of_unknown_object_is_ignored() {
        let t = ExportTable::new();
        assert!(!t.release(ObjectId::client(9)));
        assert_eq!(t.release_one(ObjectId::client(9)), ReleaseOutcome::Unknown);
        assert_eq!(
            t.release_stats(),
            ReleaseStats {
                unknown: 2,
                ..ReleaseStats::default()
            }
        );
    }

    #[test]
    fn unknown_release_leaves_a_recorder_warning() {
        let t = ExportTable::new();
        let recorder = Arc::new(aide_telemetry::FlightRecorder::new(8));
        t.set_recorder(recorder.clone());
        t.release(ObjectId::client(42));
        let events = recorder.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].event,
            aide_telemetry::PlatformEvent::GcReleaseUnknown { object } if object == ObjectId::client(42).0
        ));
    }

    #[test]
    fn import_sweep_returns_dropped_references() {
        let t = ImportTable::new();
        let a = ObjectId::surrogate(1);
        let b = ObjectId::surrogate(2);
        let c = ObjectId::surrogate(3);
        t.import(a);
        t.import(b);
        t.import(c);
        let still: HashSet<ObjectId> = [b].into_iter().collect();
        let mut dropped = t.sweep_dropped(&still);
        dropped.sort();
        assert_eq!(dropped, vec![a, c]);
        assert!(t.contains(b));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn imports_are_refcounted_across_removals() {
        // The set-based table forgot the second hold; the refcounted one
        // keeps the entry until every hold is released.
        let t = ImportTable::new();
        let id = ObjectId::surrogate(7);
        t.import(id);
        t.import(id);
        assert_eq!(t.holds(id), 2);
        assert!(t.remove(id));
        assert!(t.contains(id), "one hold remains");
        assert!(t.remove(id));
        assert!(!t.contains(id));
        assert!(!t.remove(id), "removing an absent id reports false");
    }

    #[test]
    fn release_batches_are_idempotent_under_the_watermark() {
        let t = ExportTable::new();
        let a = ObjectId::client(1);
        let b = ObjectId::client(2);
        t.export(a);
        t.export(b);
        let first = t.release_batch(0, 1, &[a]);
        assert_eq!(first, vec![a]);
        // A retry of the same batch (same seq) is a counted no-op even
        // though `a` is gone — no Unknown warnings, no double-unpin.
        assert!(t.release_batch(0, 1, &[a]).is_empty());
        // A later batch proceeds.
        assert_eq!(t.release_batch(0, 2, &[b]), vec![b]);
        assert!(t.is_empty());
        assert_eq!(t.watermark(), 2);
    }

    #[test]
    fn stale_epoch_releases_are_dropped() {
        let t = ExportTable::new();
        let id = ObjectId::client(3);
        t.export(id);
        // The peer advertises epoch 2 (post-failover)...
        assert_eq!(t.renew(2), 1);
        // ...so a release from epoch 1 is a zombie: dropped whole, the
        // entry stays pinned.
        assert!(t.release_batch(1, 1, &[id]).is_empty());
        assert!(t.contains(id));
        // The current-epoch release still works.
        assert_eq!(t.release_batch(2, 1, &[id]), vec![id]);
    }

    #[test]
    fn leases_expire_unless_renewed() {
        let clock = Arc::new(GcClock::new());
        let t = ExportTable::with_clock(clock.clone());
        t.set_ttl_ms(100);
        let a = ObjectId::client(1);
        let b = ObjectId::client(2);
        t.export(a);
        t.export(b);
        clock.advance_ms(60);
        // A renewal mid-life pushes both deadlines out.
        assert_eq!(t.renew(0), 2);
        clock.advance_ms(90);
        assert!(t.sweep_expired().is_empty(), "renewed leases still live");
        clock.advance_ms(20);
        let mut expired = t.sweep_expired();
        expired.sort();
        assert_eq!(expired, vec![a, b]);
        assert!(t.is_empty());
    }

    #[test]
    fn epoch_bump_makes_old_exports_sweepable() {
        let t = ExportTable::new();
        let old = ObjectId::client(1);
        let fresh = ObjectId::client(2);
        t.export(old);
        assert_eq!(t.begin_epoch(), 1);
        t.export(fresh);
        let stale = t.sweep_stale_epochs();
        assert_eq!(stale, vec![old]);
        assert!(t.contains(fresh), "current-epoch entries survive");
        // Renewals only extend current-epoch entries, so a zombie client
        // advertising the old epoch cannot keep anything alive.
        assert_eq!(t.renew(0), 1);
    }

    #[test]
    fn release_seq_numbers_are_monotonic_from_one() {
        let t = ImportTable::new();
        assert_eq!(t.next_release_seq(), 1);
        assert_eq!(t.next_release_seq(), 2);
        assert_eq!(t.advertised_epoch(), 0);
        assert_eq!(t.begin_epoch(), 1);
        assert_eq!(t.advertised_epoch(), 1);
    }

    #[test]
    fn live_remote_refs_finds_cross_vm_slots() {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        b.add_method(main, MethodDef::new("main", vec![]));
        let program = Arc::new(b.build(main, aide_vm::MethodId(0), 0, 0).unwrap());
        let mut vm = Vm::new(program, VmConfig::client(1 << 20));

        let local = ObjectId::client(0);
        let remote = ObjectId::surrogate(77);
        let mut rec = ObjectRecord::new(ClassId(0), 0, 2);
        rec.slots[0] = Some(remote);
        vm.heap_mut().insert(local, rec).unwrap();

        let live = live_remote_refs(&vm);
        assert!(live.contains(&remote));
        assert!(!live.contains(&local));
        assert_eq!(live.len(), 1);
    }
}
