//! Unbounded MPMC channel and two-way receive selection.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The message could not be sent because every receiver is gone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// The channel is empty and every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on receive operation"),
            RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// Wakes one `select2` caller parked on several channels at once.
#[derive(Default)]
struct Watcher {
    fired: Mutex<bool>,
    wake: Condvar,
}

impl Watcher {
    fn fire(&self) {
        *self.fired.lock().unwrap_or_else(PoisonError::into_inner) = true;
        self.wake.notify_one();
    }

    /// Forgets a firing left over from an earlier selection.
    fn disarm(&self) {
        *self.fired.lock().unwrap_or_else(PoisonError::into_inner) = false;
    }

    /// Parks until fired, then re-arms.
    fn wait(&self) {
        let mut fired = self.fired.lock().unwrap_or_else(PoisonError::into_inner);
        while !*fired {
            fired = self
                .wake
                .wait(fired)
                .unwrap_or_else(PoisonError::into_inner);
        }
        *fired = false;
    }
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers parked on `ready`; a send signals only when this is non-zero.
    parked: usize,
    watchers: Vec<Arc<Watcher>>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Creates a channel of unbounded capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            parked: 0,
            watchers: Vec::new(),
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Queues `msg`; fails only when every receiver has been dropped.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(SendError(msg));
        }
        state.queue.push_back(msg);
        let signal = state.parked > 0;
        for w in &state.watchers {
            w.fire();
        }
        drop(state);
        if signal {
            self.shared.ready.notify_one();
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            for w in &state.watchers {
                w.fire();
            }
            drop(state);
            self.shared.ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        match state.queue.pop_front() {
            Some(msg) => Ok(msg),
            None if state.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Blocks until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state.parked += 1;
            state = self
                .shared
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        match Instant::now().checked_add(timeout) {
            Some(deadline) => self.recv_deadline(deadline),
            None => self.recv().map_err(|_| RecvTimeoutError::Disconnected),
        }
    }

    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(msg) = state.queue.pop_front() {
                return Ok(msg);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            state.parked += 1;
            state = self
                .shared
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            state.parked -= 1;
        }
    }

    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn watch(&self, watcher: &Arc<Watcher>) {
        self.shared.lock().watchers.push(watcher.clone());
    }

    fn unwatch(&self, watcher: &Arc<Watcher>) {
        self.shared
            .lock()
            .watchers
            .retain(|w| !Arc::ptr_eq(w, watcher));
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receivers -= 1;
        if state.receivers == 0 {
            // Nobody can read these any more; free them now as crossbeam does.
            let orphaned = std::mem::take(&mut state.queue);
            drop(state);
            drop(orphaned);
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Which arm of a two-way `select!` completed, with its `recv` result.
pub enum Selected2<A, B> {
    First(Result<A, RecvError>),
    Second(Result<B, RecvError>),
}

fn poll<T>(r: &Receiver<T>) -> Option<Result<T, RecvError>> {
    match r.try_recv() {
        Ok(msg) => Some(Ok(msg)),
        Err(TryRecvError::Disconnected) => Some(Err(RecvError)),
        Err(TryRecvError::Empty) => None,
    }
}

/// Blocks until either receiver has a message or is disconnected.
pub fn select2<A, B>(first: &Receiver<A>, second: &Receiver<B>) -> Selected2<A, B> {
    if let Some(res) = poll(first) {
        return Selected2::First(res);
    }
    if let Some(res) = poll(second) {
        return Selected2::Second(res);
    }
    // One watcher per thread, as crossbeam keeps one selection context per
    // thread: a blocking selection allocates nothing.
    thread_local! {
        static WATCHER: Arc<Watcher> = Arc::new(Watcher::default());
    }
    WATCHER.with(|watcher| {
        watcher.disarm();
        first.watch(watcher);
        second.watch(watcher);
        // A send between a poll and `wait` leaves the watcher fired, so the
        // wait returns at once and the next poll sees the message.
        let selected = loop {
            if let Some(res) = poll(first) {
                break Selected2::First(res);
            }
            if let Some(res) = poll(second) {
                break Selected2::Second(res);
            }
            watcher.wait();
        };
        first.unwatch(watcher);
        second.unwatch(watcher);
        selected
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn fifo_order_and_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.len(), 5);
        drop(tx);
        assert_eq!(
            std::iter::from_fn(|| rx.recv().ok()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_once_receivers_are_gone() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        drop(rx);
        assert!(tx.send(1).is_ok());
        drop(rx2);
        assert_eq!(tx.send(2), Err(SendError(2)));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn blocked_receiver_wakes_on_send_from_another_thread() {
        let (tx, rx) = unbounded();
        let gate = Arc::new(Barrier::new(2));
        let g = gate.clone();
        let h = thread::spawn(move || {
            g.wait();
            rx.recv()
        });
        gate.wait();
        tx.send(42u32).unwrap();
        assert_eq!(h.join().unwrap(), Ok(42));
    }

    #[test]
    fn many_producers_many_consumers_lose_nothing() {
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..1000 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || std::iter::from_fn(|| rx.recv().ok()).sum::<u64>())
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, (0..4000u64).sum());
    }

    #[test]
    fn select_takes_whichever_side_is_ready() {
        let (tx_a, rx_a) = unbounded::<u8>();
        let (tx_b, rx_b) = unbounded::<&'static str>();
        tx_b.send("b").unwrap();
        let got = crate::select! {
            recv(rx_a) -> m => format!("a{:?}", m),
            recv(rx_b) -> m => format!("b{:?}", m),
        };
        assert_eq!(got, "bOk(\"b\")");
        tx_a.send(1).unwrap();
        tx_b.send("again").unwrap();
        let got = crate::select! {
            recv(rx_a) -> m => m.map(u32::from).unwrap_or(0),
            recv(rx_b) -> _ => 99,
        };
        assert_eq!(got, 1);
    }

    #[test]
    fn select_parks_until_a_send_or_a_disconnect() {
        let (tx_a, rx_a) = unbounded::<u8>();
        let (tx_b, rx_b) = unbounded::<u8>();
        let (tx_seen, rx_seen) = unbounded();
        let h = thread::spawn(move || {
            for _ in 0..2 {
                let seen = match select2(&rx_a, &rx_b) {
                    Selected2::First(r) => ('a', r),
                    Selected2::Second(r) => ('b', r),
                };
                tx_seen.send(seen).unwrap();
            }
        });
        // Nothing is ready until the send; afterwards only `b` is.
        tx_b.send(5).unwrap();
        assert_eq!(rx_seen.recv(), Ok(('b', Ok(5))));
        // `b` is empty again with its sender alive: only the disconnect of
        // `a` can end the second wait.
        drop(tx_a);
        assert_eq!(rx_seen.recv(), Ok(('a', Err(RecvError))));
        h.join().unwrap();
    }

    #[test]
    fn select_arm_control_flow_reaches_the_callers_loop() {
        let (tx_a, rx_a) = unbounded::<u8>();
        let (tx_b, rx_b) = unbounded::<()>();
        tx_a.send(1).unwrap();
        tx_a.send(2).unwrap();
        tx_b.send(()).unwrap();
        let mut sum = 0;
        loop {
            let v = crate::select! {
                recv(rx_a) -> m => match m {
                    Ok(v) => v,
                    Err(_) => break,
                },
                recv(rx_b) -> _ => {
                    drop(tx_a.clone());
                    break;
                }
            };
            sum += v;
        }
        assert_eq!(sum, 3);
    }
}
