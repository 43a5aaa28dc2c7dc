//! The serving pool: the paper's "pool of threads to perform RPCs on behalf
//! of the other JVM", once, for every endpoint that serves.
//!
//! A [`WorkerPool`] is a queue of jobs and the workers that drain it. A job
//! carries what it is for: a request an [`Endpoint`](crate::Endpoint)'s peer
//! sent, or a task its owner runs on a worker (the surrogate daemon admits
//! a session this way). A two-VM endpoint owns a pool, grown on demand; the
//! daemon's sessions share a few pools of one worker each.
//!
//! Leader/followers: a worker that has sent its reply and has nothing queued
//! reads the carrier it replied on for its next job, if nobody else reads it
//! (see [`WorkerPool::lead`]); one that will not calls the carrier's thread
//! back, because the thread stepped aside when it handed the pool the job.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use aide_telemetry::sync::Mutex;

use crate::endpoint::Shared;
use crate::link::{Delivered, Session};
use crate::mux::CarrierReader;
use crate::wire::{FrameHeader, Request};

/// A unit of work for a pool's workers, and the session it came in on, if
/// any: where a request's reply goes, and whose carrier the worker comes
/// back to when it is done.
pub(crate) struct Job {
    pub(crate) from: Option<Session>,
    pub(crate) work: Work,
}

pub(crate) enum Work {
    /// Request `body`, sent by `client` as its `seq`-th with `header`, for
    /// an endpoint to serve.
    Serve(Arc<Shared>, u64, u64, Request, FrameHeader),
    /// A task its owner runs on a worker.
    Run(Box<dyn FnOnce() + Send>),
}

/// Names a carrier for as long as somebody holds its read half: the address
/// of its reader.
fn carrier_of(session: Option<&Session>) -> Option<usize> {
    session?
        .carrier_reader()
        .map(|carrier| carrier as *const CarrierReader as usize)
}

#[derive(Default)]
struct PoolState {
    /// Jobs no worker has taken yet, oldest first.
    queue: VecDeque<Job>,
    /// Workers with nothing to do (or about to have: see
    /// [`WorkerPool::next_job`]), by number, most recently parked last —
    /// the one a new job wakes, because it ran last and is still warm.
    parked: Vec<usize>,
    /// The carrier a worker, off the stack, is reading: the next job read
    /// off it is that worker's own (see [`WorkerPool::lead`]).
    leading: Option<usize>,
    /// The job it took.
    claimed: Option<Job>,
    /// Every worker spawned so far; a worker's number is its index.
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Nothing more is queued, and a worker that finds the queue empty
    /// exits.
    closed: bool,
}

impl PoolState {
    /// The next queued job for worker `me`, or its place on the stack of
    /// parked workers (while the pool is open: a closed one parks nobody).
    fn take_or_park(&mut self, me: usize) -> Option<Job> {
        let next = self.queue.pop_front();
        if next.is_none() && !self.closed {
            self.parked.push(me);
        }
        next
    }
}

/// A pool of serving workers that endpoints share; see the module docs.
pub struct WorkerPool {
    me: Weak<WorkerPool>,
    state: Mutex<PoolState>,
    max_workers: usize,
    /// Workers are named `{name}-{number}`.
    name: String,
    /// The trace lane the workers record their spans on.
    lane: aide_telemetry::Lane,
    served_where_read: AtomicU64,
    stalled_leads: AtomicU64,
    closed_leads_waited_out: AtomicU64,
    workers_spawned: AtomicU64,
}

impl WorkerPool {
    /// A pool that spawns no worker before a job needs one, and at most
    /// `max_workers`, recording their spans on `lane`.
    pub(crate) fn new(
        name: &str,
        lane: aide_telemetry::Lane,
        max_workers: usize,
    ) -> Arc<WorkerPool> {
        Arc::new_cyclic(|me| WorkerPool {
            me: me.clone(),
            state: Mutex::default(),
            max_workers,
            name: name.to_string(),
            lane,
            served_where_read: AtomicU64::new(0),
            stalled_leads: AtomicU64::new(0),
            closed_leads_waited_out: AtomicU64::new(0),
            workers_spawned: AtomicU64::new(0),
        })
    }

    /// A pool of `workers` workers, all spawned now, recording their spans
    /// on `lane`. It serves until [`shutdown`](WorkerPool::shutdown).
    pub fn start(name: &str, lane: aide_telemetry::Lane, workers: usize) -> Arc<WorkerPool> {
        let pool = WorkerPool::new(name, lane, workers);
        {
            let mut state = pool.state.lock();
            for _ in 0..workers {
                pool.spawn(&mut state).expect("spawning a pool worker");
            }
        }
        pool
    }

    /// Runs `task` on a worker — for `from`'s sake, if it is the session
    /// whose carrier this thread read: the worker reading that carrier for
    /// this pool takes it at once ([`Delivered::Claimed`]), and whoever does
    /// it comes back to the carrier afterwards ([`Delivered::Handed`]).
    pub fn run(&self, from: Option<Session>, task: impl FnOnce() + Send + 'static) -> Delivered {
        let job = Job {
            from,
            work: Work::Run(Box::new(task)),
        };
        self.submit(job).unwrap_or(Delivered::Kept)
    }

    /// Jobs waiting for a worker.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Requests served by the worker that read them off their carrier
    /// (leading it), counted as it takes them; the rest were read by
    /// somebody else and queued.
    pub fn requests_served_where_read(&self) -> u64 {
        self.served_where_read.load(Ordering::Relaxed)
    }

    /// Workers spawned so far: one each time a job was queued with no idle
    /// worker to take it and the pool under its bound, or at
    /// [`start`](WorkerPool::start).
    pub fn workers_spawned(&self) -> u64 {
        self.workers_spawned.load(Ordering::Relaxed)
    }

    /// Leads that read nothing for a handover while a job of another
    /// carrier waited in the queue, which waited out the lead. The first
    /// such lead holds leading off while carriers take turns.
    pub fn stalled_leads(&self) -> u64 {
        self.stalled_leads.load(Ordering::Relaxed)
    }

    /// Leads that read on after the pool closed until their handover ran
    /// out, each keeping a `join` waiting for its socket's receive timeout.
    /// A lead ends at the first frame it routes once the pool has closed
    /// (the peer's `Shutdown` or `CLOSE` that closed it, or any frame after
    /// the endpoint's own drain), so this counts only pools closed while
    /// a lead read and no frame came.
    pub fn closed_leads_waited_out(&self) -> u64 {
        self.closed_leads_waited_out.load(Ordering::Relaxed)
    }

    /// Stops the pool: each worker finishes what is queued, then exits, and
    /// is joined.
    pub fn shutdown(&self) {
        self.close();
        self.join();
    }

    /// Lets the workers run out: each finishes what is queued, then exits.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        state.parked.clear();
        for worker in &state.workers {
            worker.thread().unpark();
        }
    }

    /// Waits for every worker spawned so far to exit.
    pub(crate) fn join(&self) {
        let workers = std::mem::take(&mut self.state.lock().workers);
        for worker in workers {
            let _ = worker.join();
        }
    }

    /// The one place a job reaches a worker. The worker leading the job's
    /// carrier takes it, if there is one: it holds the carrier's read half,
    /// so it is the very thread that delivers the job. Otherwise the job is
    /// queued and the worker that parked last is woken for it; if none is
    /// parked one more is spawned, up to the bound; at the bound the job
    /// waits for the next worker that finishes. `None` when nobody ever
    /// will: no worker exists and none could be spawned.
    ///
    /// This runs on the thread that delivered the job, which may hold a
    /// carrier's read half. The spawn is the one thing here that is not a
    /// few instructions under a lock nobody holds for long: one `clone(2)`,
    /// at most `max_workers` times in the pool's life, waiting on nobody.
    pub(crate) fn submit(&self, job: Job) -> Option<Delivered> {
        let mut state = self.state.lock();
        if state.closed {
            return Some(Delivered::Kept);
        }
        if state.claimed.is_none()
            && state.leading.is_some()
            && state.leading == carrier_of(job.from.as_ref())
        {
            state.claimed = Some(job);
            return Some(Delivered::Claimed);
        }
        state.queue.push_back(job);
        if let Some(worker) = state.parked.pop() {
            let worker = state.workers[worker].thread().clone();
            drop(state);
            worker.unpark();
        } else if state.workers.len() < self.max_workers
            && self.spawn(&mut state).is_err()
            && state.workers.is_empty()
        {
            state.queue.clear();
            return None;
        }
        Some(Delivered::Handed)
    }

    /// Spawns one more worker. Should that fail with workers left, the next
    /// one that finishes gets to what is queued.
    fn spawn(&self, state: &mut PoolState) -> std::io::Result<()> {
        let number = state.workers.len();
        let me = self.me.upgrade().expect("a pool spawns through its Arc");
        let worker = std::thread::Builder::new()
            .name(format!("{}-{number}", self.name))
            .spawn(move || me.work(number))?;
        state.workers.push(worker);
        self.workers_spawned.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Worker `me`: does jobs until the pool closes and the queue has run
    /// out. Between two jobs it leads the carrier of the last one when it
    /// can (see [`WorkerPool::lead`]).
    fn work(&self, me: usize) {
        aide_telemetry::set_thread_lane(&self.lane);
        // The carrier of the last request served, and whether leading is
        // held off (see `lead`).
        let mut last_from = None;
        let mut held_off = false;
        let mut next = self.next_job(me);
        while let Some(Job { from, work }) = next {
            let queued = match work {
                Work::Serve(endpoint, client, seq, body, header) => {
                    let reply = endpoint.serve(client, seq, body, header);
                    // Settled before the reply leaves, because the reply is
                    // what lets the peer send its next request: that one must
                    // find this worker parked (or already holding it), not
                    // find nobody and spawn another.
                    let queued = self.state.lock().take_or_park(me);
                    if let (Some(frame), Some(out)) = (reply, &from) {
                        // A dead link closes the endpoint; until then there
                        // is nothing to do about it here.
                        let _ = out.send(frame);
                    }
                    let carrier = carrier_of(from.as_ref());
                    held_off &= last_from != carrier;
                    last_from = carrier;
                    queued
                }
                Work::Run(task) => {
                    task();
                    self.state.lock().take_or_park(me)
                }
            };
            let carrier = from.as_ref().and_then(Session::carrier_reader);
            next = match (queued, carrier) {
                (Some(job), Some(carrier)) => {
                    carrier.recall_if_free();
                    Some(job)
                }
                (None, Some(carrier)) => self.lead(me, carrier, &mut held_off),
                (queued, None) => queued,
            }
            .or_else(|| self.next_job(me));
        }
    }

    /// Worker `me`, parked with its reply sent on `carrier`, leads it if
    /// nobody holds its read half: off the stack (nothing is queued for a
    /// worker that reads for itself), it reads until a job for this pool is
    /// among the frames and lets go of the half before it does it — nobody
    /// writes while holding a read half. Empty-handed after
    /// [`ReadTurn::lead`](crate::mux::ReadTurn::lead)'s patience, it takes
    /// what another carrier's reader queued meanwhile, or parks again before
    /// it lets go, so that no job finds nobody and spawns a worker. `None`
    /// when it did not lead (it calls the carrier's thread back then, unless
    /// somebody else holds the half) or came away with nothing.
    ///
    /// The one hold-off rule: a socket's "`HANDOVER`" wait is its receive
    /// timeout, which the kernel rounds up to its timer tick (4–8 ms), so a
    /// lead that read nothing while another carrier's work was queued holds
    /// leading off until one carrier sends two requests in a row — carriers
    /// taking turns on one worker would wait a tick on every turn otherwise.
    /// With one carrier there is no other carrier's work: it never fires.
    fn lead(&self, me: usize, carrier: &CarrierReader, held_off: &mut bool) -> Option<Job> {
        let mut turn = carrier.try_read()?;
        let key = carrier as *const CarrierReader as usize;
        let mut state = self.state.lock();
        let at = state.parked.iter().rposition(|&worker| worker == me);
        // Held off, or woken for a job meanwhile.
        let Some(at) = at.filter(|_| !*held_off && state.leading.is_none()) else {
            drop(state);
            turn.hand_back();
            return None;
        };
        state.parked.remove(at);
        state.leading = Some(key);
        drop(state);
        let waited_out = turn.lead(|| self.state.lock().closed);
        let mut state = self.state.lock();
        if waited_out && state.closed {
            self.closed_leads_waited_out.fetch_add(1, Ordering::Relaxed);
        }
        state.leading = None;
        let next = match state.claimed.take() {
            Some(claimed) => {
                if matches!(claimed.work, Work::Serve(..)) {
                    self.served_where_read.fetch_add(1, Ordering::Relaxed);
                }
                Some(claimed)
            }
            None => {
                *held_off = state
                    .queue
                    .iter()
                    .any(|job| carrier_of(job.from.as_ref()) != Some(key));
                if *held_off {
                    self.stalled_leads.fetch_add(1, Ordering::Relaxed);
                }
                state.take_or_park(me)
            }
        };
        drop(state);
        drop(turn);
        next
    }

    /// Parks worker `me` until there is a job for it; `None` once the pool
    /// has closed and the queue has run out.
    fn next_job(&self, me: usize) -> Option<Job> {
        loop {
            {
                let mut state = self.state.lock();
                // While it is still on the stack nobody has woken this
                // worker for a job (it has not parked yet, or woke for no
                // reason), and every queued job has somebody else coming
                // for it. Off the stack it takes the job it was woken for —
                // or parks again, if a worker that finished first took it.
                if !state.parked.contains(&me) {
                    if let Some(job) = state.take_or_park(me) {
                        return Some(job);
                    }
                }
                if state.closed {
                    return None;
                }
            }
            std::thread::park();
        }
    }
}
