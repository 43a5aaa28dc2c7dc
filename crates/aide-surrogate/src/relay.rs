//! The store-and-forward relay queue: [`RelayQueue`] implements
//! [`aide_core::RelaySink`] over a manual clock.
//!
//! A client under memory pressure with no reachable surrogate gathers its
//! offload victims out of the heap and parks them here. The queue assigns
//! each shipment a transaction id and a queue timestamp; when the client
//! next holds a surrogate lease the queue drains front-to-back with
//! `Request::RelayDeliver` (the serving side installs each transaction at
//! most once, so redelivery after a lost acknowledgement is safe).
//! Shipments that sit past [`RelayConfig::ttl_ms`] are handed back for
//! local reinstatement instead — better slow than lost.
//!
//! Time is [`aide_rpc::GcClock`] milliseconds, the same manual clock the
//! lease tables use: nothing expires unless somebody advances the clock,
//! so tests are deterministic and the daemon's sweeper cadence drives
//! production expiry.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aide_core::{RelayShipment, RelaySink};
use aide_rpc::{Endpoint, GcClock, Request};
use aide_telemetry::sync::Mutex;

/// Tuning for a [`RelayQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayConfig {
    /// How long a shipment may sit queued ([`GcClock`] milliseconds)
    /// before it is expired back to the client instead of delivered.
    pub ttl_ms: u64,
    /// Maximum shipments parked at once; further queue attempts are
    /// refused (the caller reinstates locally).
    pub max_depth: usize,
}

impl Default for RelayConfig {
    fn default() -> Self {
        RelayConfig {
            ttl_ms: 30_000,
            max_depth: 64,
        }
    }
}

/// Counters describing a relay queue's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelayStats {
    /// Shipments ever accepted into the queue.
    pub queued_total: u64,
    /// Shipments delivered to a surrogate.
    pub relayed_total: u64,
    /// Shipments expired past TTL and handed back.
    pub expired_total: u64,
    /// Shipments currently parked.
    pub depth: usize,
}

/// One parked shipment with its queue timestamp.
#[derive(Debug)]
struct Entry {
    shipment: RelayShipment,
    queued_at_ms: u64,
}

/// A bounded FIFO of deferred migrations on a manual clock; the
/// `aide-surrogate` implementation of [`RelaySink`].
#[derive(Debug)]
pub struct RelayQueue {
    config: RelayConfig,
    clock: Arc<GcClock>,
    next_txn: AtomicU64,
    queued_total: AtomicU64,
    relayed_total: AtomicU64,
    expired_total: AtomicU64,
    inner: Mutex<VecDeque<Entry>>,
}

impl RelayQueue {
    /// Creates a queue with its own private clock (advance it via
    /// [`clock`](RelayQueue::clock) to drive expiry).
    pub fn new(config: RelayConfig) -> Self {
        RelayQueue::with_clock(config, Arc::new(GcClock::new()))
    }

    /// Creates a queue on a shared clock — typically the client's export
    /// table clock, so one sweeper cadence drives leases and relay TTLs.
    pub fn with_clock(config: RelayConfig, clock: Arc<GcClock>) -> Self {
        RelayQueue {
            config,
            clock,
            next_txn: AtomicU64::new(1),
            queued_total: AtomicU64::new(0),
            relayed_total: AtomicU64::new(0),
            expired_total: AtomicU64::new(0),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// The clock expiry is measured on.
    pub fn clock(&self) -> &Arc<GcClock> {
        &self.clock
    }

    /// Lifetime counters and current depth.
    pub fn stats(&self) -> RelayStats {
        RelayStats {
            queued_total: self.queued_total.load(Ordering::Relaxed),
            relayed_total: self.relayed_total.load(Ordering::Relaxed),
            expired_total: self.expired_total.load(Ordering::Relaxed),
            depth: self.inner.lock().len(),
        }
    }
}

impl RelaySink for RelayQueue {
    fn accepting(&self) -> bool {
        self.inner.lock().len() < self.config.max_depth
    }

    fn queue(&self, mut shipment: RelayShipment) -> Result<u64, RelayShipment> {
        let mut inner = self.inner.lock();
        if inner.len() >= self.config.max_depth {
            return Err(shipment);
        }
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed);
        shipment.txn = txn;
        inner.push_back(Entry {
            shipment,
            queued_at_ms: self.clock.now_ms(),
        });
        drop(inner);
        self.queued_total.fetch_add(1, Ordering::Relaxed);
        Ok(txn)
    }

    fn flush(&self, endpoint: &Arc<Endpoint>) -> Vec<RelayShipment> {
        let mut delivered = Vec::new();
        loop {
            // Pop one entry at a time so a delivery failure leaves the
            // remainder parked in order, the failed entry back at the
            // front.
            let Some(entry) = self.inner.lock().pop_front() else {
                break;
            };
            let result = endpoint.call_with_retry(Request::RelayDeliver {
                txn: entry.shipment.txn,
                queued_for_ms: self.clock.now_ms().saturating_sub(entry.queued_at_ms),
                objects: entry.shipment.objects.clone(),
            });
            match result {
                Ok(_) => {
                    let mut shipment = entry.shipment;
                    shipment.queued_for_ms = self.clock.now_ms().saturating_sub(entry.queued_at_ms);
                    delivered.push(shipment);
                    self.relayed_total.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // The new surrogate is already unreachable (or its
                    // heap refused the install): stop and keep the rest
                    // queued for the next lease or for expiry.
                    self.inner.lock().push_front(entry);
                    break;
                }
            }
        }
        delivered
    }

    fn take_expired(&self) -> Vec<RelayShipment> {
        let now = self.clock.now_ms();
        let mut expired = Vec::new();
        let mut inner = self.inner.lock();
        // FIFO order is queue-time order, so expired entries are a prefix:
        // repeated calls under the same clock reading drain nothing new
        // (idempotent), and advancing the clock only grows the prefix
        // (monotone).
        while let Some(front) = inner.front() {
            if now.saturating_sub(front.queued_at_ms) < self.config.ttl_ms {
                break;
            }
            let entry = inner.pop_front().expect("front exists");
            let mut shipment = entry.shipment;
            shipment.queued_for_ms = now.saturating_sub(entry.queued_at_ms);
            expired.push(shipment);
        }
        drop(inner);
        self.expired_total
            .fetch_add(expired.len() as u64, Ordering::Relaxed);
        expired
    }

    fn take_all(&self) -> Vec<RelayShipment> {
        self.inner
            .lock()
            .drain(..)
            .map(|entry| entry.shipment)
            .collect()
    }

    fn depth(&self) -> usize {
        self.inner.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_core::{RefTables, VmDispatcher};
    use aide_graph::CommParams;
    use aide_rpc::{EndpointConfig, Link};
    use aide_vm::{Machine, MethodDef, MethodId, ObjectId, ObjectRecord, ProgramBuilder, VmConfig};

    fn shipment(objects: usize) -> RelayShipment {
        RelayShipment {
            txn: 0,
            objects: (0..objects)
                .map(|i| {
                    (
                        ObjectId::client(i as u64),
                        ObjectRecord::new(aide_vm::ClassId(0), 128, 0),
                    )
                })
                .collect(),
            pins: Vec::new(),
            bytes: objects as u64 * 128,
            queued_for_ms: 0,
        }
    }

    #[test]
    fn queue_assigns_txns_and_respects_capacity() {
        let q = RelayQueue::new(RelayConfig {
            ttl_ms: 1_000,
            max_depth: 2,
        });
        assert!(q.accepting());
        let t1 = q.queue(shipment(1)).expect("first fits");
        let t2 = q.queue(shipment(1)).expect("second fits");
        assert_ne!(t1, t2);
        assert!(!q.accepting());
        let refused = q.queue(shipment(3)).expect_err("queue is full");
        assert_eq!(refused.objects.len(), 3, "shipment handed back intact");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.stats().queued_total, 2);
    }

    #[test]
    fn expiry_is_idempotent_and_monotone() {
        let q = RelayQueue::new(RelayConfig {
            ttl_ms: 100,
            max_depth: 8,
        });
        q.queue(shipment(1)).unwrap();
        q.clock().advance_ms(50);
        q.queue(shipment(2)).unwrap();
        assert!(q.take_expired().is_empty(), "nothing aged out yet");

        q.clock().advance_ms(50); // first entry hits exactly TTL
        let first = q.take_expired();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].objects.len(), 1);
        assert_eq!(first[0].queued_for_ms, 100);
        assert!(
            q.take_expired().is_empty(),
            "second call under the same clock reading drains nothing"
        );

        q.clock().advance_ms(50);
        let second = q.take_expired();
        assert_eq!(second.len(), 1, "advancing time only grows the prefix");
        assert_eq!(second[0].objects.len(), 2);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.stats().expired_total, 2);
    }

    #[test]
    fn take_all_drains_everything() {
        let q = RelayQueue::new(RelayConfig::default());
        q.queue(shipment(1)).unwrap();
        q.queue(shipment(2)).unwrap();
        let all = q.take_all();
        assert_eq!(all.len(), 2);
        assert_eq!(q.depth(), 0);
    }

    /// Flush installs queued objects into a serving VM over a real link,
    /// and a redelivered transaction (the dedup path) installs nothing
    /// twice.
    #[test]
    fn flush_delivers_into_a_serving_vm_exactly_once() {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        b.add_method(main, MethodDef::new("main", vec![]));
        let program = Arc::new(b.build(main, MethodId(0), 0, 0).unwrap());
        let surrogate = Machine::new(program, VmConfig::surrogate(1 << 20));

        let (link, ct, st) = Link::pair(CommParams::WAVELAN);
        let clock = link.clock.clone();
        let tables = Arc::new(RefTables::new());
        let dispatcher = Arc::new(VmDispatcher::new(surrogate.clone(), tables.clone()));
        let client_ep = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(VmDispatcher::new(surrogate.clone(), tables.clone())),
            EndpointConfig::default(),
        );
        let _serve_ep = Endpoint::start(
            st,
            link.params,
            clock,
            dispatcher,
            EndpointConfig::default(),
        );

        let q = RelayQueue::new(RelayConfig::default());
        q.queue(shipment(3)).unwrap();
        let delivered = q.flush(&client_ep);
        assert_eq!(delivered.len(), 1);
        let txn = delivered[0].txn;
        assert_eq!(q.depth(), 0);
        assert_eq!(surrogate.vm().lock().heap().stats().migrated_in, 3);

        // Redelivery of the same transaction is acknowledged but installs
        // nothing: the serving side dedups on txn.
        client_ep
            .call_with_retry(Request::RelayDeliver {
                txn,
                queued_for_ms: 0,
                objects: delivered[0].objects.clone(),
            })
            .expect("redelivery acknowledged");
        assert_eq!(
            surrogate.vm().lock().heap().stats().migrated_in,
            3,
            "exactly-once install per relay transaction"
        );
    }
}
