//! The offload executor: turns a selected partitioning into actual object
//! migration from the client VM to the surrogate VM.
//!
//! For every graph node the policy placed on the surrogate, the executor
//! gathers the corresponding live objects from the client heap (all objects
//! of a class, or one specific object for object-granular array nodes),
//! removes them from the client heap, and ships them to the peer as a
//! *transactional* two-phase migration over the real RPC link: batched
//! `MigratePrepare` requests stage the objects on the surrogate, and a
//! single `MigrateCommit` installs them atomically. Nothing becomes
//! resident remotely before COMMIT, so any failure rolls back to the exact
//! pre-offload placement by reinstating the local shadow copies and
//! sending a best-effort `MigrateAbort`. The link time of the transfer is
//! charged to the shared communication clock — this is the "offloading
//! time" component of the paper's remote-execution overhead.

use std::sync::Arc;

use aide_graph::{SelectedPartition, Side};
use aide_rpc::{Endpoint, Request};
use aide_telemetry::{FlightRecorder, PlatformEvent};
use aide_vm::{ClassId, Machine, ObjectId, ObjectRecord, VmError, VmResult};
use serde::{Deserialize, Serialize};

use crate::adapter::RefTables;
use crate::monitor::NodeKey;

/// Objects migrated per `MigratePrepare` request.
const MIGRATE_BATCH: usize = 256;

/// Summary of one executed offload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OffloadOutcome {
    /// Objects moved to the surrogate.
    pub objects_moved: u64,
    /// Heap bytes moved to the surrogate.
    pub bytes_moved: u64,
    /// Client heap bytes in use before the migration.
    pub client_used_before: u64,
    /// Client heap bytes in use after the migration.
    pub client_used_after: u64,
    /// Client-local objects newly pinned because migrated objects still
    /// reference them.
    pub back_references_pinned: u64,
    /// Wall-clock duration of the migration (victim gathering through the
    /// `MigrateCommit` reply), in microseconds.
    pub duration_micros: u64,
}

impl OffloadOutcome {
    /// Fraction of the client heap the migration freed.
    pub fn freed_fraction(&self, heap_capacity: u64) -> f64 {
        if heap_capacity == 0 {
            0.0
        } else {
            (self.client_used_before - self.client_used_after) as f64 / heap_capacity as f64
        }
    }
}

/// The serialized victims of one offload decision, gathered out of the
/// client heap: the objects have been removed (`migrate_out`), their
/// client-side back-references pinned, and import stubs recorded. This is
/// the raw material shared by the live two-phase migration and the relay
/// queue's deferred shipments — either path must eventually land the
/// objects on a surrogate or reinstate them.
pub(crate) struct GatheredShipment {
    /// The serialized victim objects, in migration order.
    pub objects: Vec<(ObjectId, ObjectRecord)>,
    /// Objects pinned because the gathered set still references them.
    pub pins: Vec<ObjectId>,
    /// How many of those pins were *new* exports (reference counts taken).
    pub pinned_count: u64,
    /// Total serialized payload size.
    pub bytes: u64,
    /// Client heap bytes in use before the gather.
    pub used_before: u64,
}

/// Gathers the victims named by `selection`/`keys` out of the client heap:
/// removes them, pins their client-side back-references, and records them
/// as imports for distributed GC. The caller owns what happens next —
/// shipping them live, parking them in a relay queue, or (on failure)
/// reinstating them.
///
/// # Errors
///
/// Returns [`VmError::RemoteFailure`] if a partitioning node has no
/// monitor key; the heap is untouched in that case.
pub(crate) fn gather_shipment(
    selection: &SelectedPartition,
    keys: &[NodeKey],
    client: &Machine,
    tables: &Arc<RefTables>,
) -> VmResult<GatheredShipment> {
    // Work out the concrete victim set under the client VM lock.
    let mut victim_classes: Vec<ClassId> = Vec::new();
    let mut victim_objects: Vec<ObjectId> = Vec::new();
    for node in selection.partitioning.nodes_on(Side::Surrogate) {
        match keys.get(node.index()) {
            Some(NodeKey::Class(c)) => victim_classes.push(*c),
            Some(NodeKey::Object(o)) => victim_objects.push(*o),
            None => {
                return Err(VmError::RemoteFailure(format!(
                    "partitioning node {node} has no monitor key"
                )))
            }
        }
    }

    let serialize_span =
        aide_telemetry::span(aide_telemetry::span_names::MIGRATE_SERIALIZE, "core");
    let vm = client.vm();
    let mut vm = vm.lock();
    let used_before = vm.heap().stats().used_bytes;

    // Gather ids first (can't mutate while iterating).
    let mut ids: Vec<ObjectId> = Vec::new();
    for (id, rec) in vm.heap().iter() {
        if victim_classes.contains(&rec.class) {
            ids.push(id);
        }
    }
    for &o in &victim_objects {
        if vm.heap().contains(o) {
            ids.push(o);
        }
    }
    ids.sort();
    ids.dedup();

    let mut objects: Vec<(ObjectId, ObjectRecord)> = Vec::with_capacity(ids.len());
    for id in ids {
        let record = vm.heap_mut().migrate_out(id)?;
        objects.push((id, record));
    }

    // Pin client-side objects the migrated set still points at: the
    // surrogate will hold those references from now on. The pinned set
    // is remembered so a failed migration can release it again.
    let mut pins: Vec<ObjectId> = Vec::new();
    let mut pinned_count = 0u64;
    for (_, record) in &objects {
        for slot in record.slots.iter().flatten() {
            if vm.heap().contains(*slot) {
                // Every export is recorded so a rollback can release
                // reference counts symmetrically.
                if tables.exports.export(*slot) {
                    vm.external_root_inc(*slot);
                    pinned_count += 1;
                }
                pins.push(*slot);
            }
        }
    }

    // The client keeps referencing every migrated object (frames,
    // remaining slots): record them as imports for distributed GC, and
    // their classes, which the monitor would otherwise ask the peer for.
    for (id, _) in &objects {
        tables.imports.import(*id);
    }
    tables.remember_classes(objects.iter().map(|(id, record)| (*id, record.class)));

    let bytes: u64 = objects.iter().map(|(_, r)| r.footprint()).sum();
    drop(vm);
    drop(serialize_span);
    Ok(GatheredShipment {
        objects,
        pins,
        pinned_count,
        bytes,
        used_before,
    })
}

/// A committed offload together with the raw material for a reinstatement
/// ledger: if the surrogate later dies, the failover path re-installs the
/// shadow copies into the client heap and releases the listed pins,
/// restoring purely-local execution.
#[derive(Debug)]
pub struct TrackedOffload {
    /// Summary of the migration.
    pub outcome: OffloadOutcome,
    /// Shadow copies of the shipped object records.
    pub shadow: Vec<(ObjectId, ObjectRecord)>,
    /// The back-reference pins taken.
    pub pins: Vec<ObjectId>,
}

/// Executes `selection` against the client machine, shipping the offloaded
/// objects to the surrogate through `endpoint`. `keys[i]` names what graph
/// node `i` stands for (class or single object).
///
/// The migration itself runs as two-phase transaction `txn`, which the
/// caller numbers and must not reuse toward the same peer: every batch is
/// staged with `MigratePrepare` (retried under the endpoint's
/// [`aide_rpc::RetryPolicy`]), then a single `MigrateCommit` installs the
/// whole shipment atomically. If any phase fails, the shipment is aborted
/// remotely (best effort — the surrogate installed nothing), the shadow
/// copies are reinstated into the client heap, and the back-reference pins
/// are released: the pre-offload placement is restored exactly.
/// `recorder`, when given, receives `MigrationAborted` /
/// `MigrationRolledBack` events on that path.
///
/// # Errors
///
/// Returns [`VmError::RemoteFailure`] if migration RPCs fail; the client
/// heap has been restored and nothing was tracked.
pub fn execute_offload_tracked(
    selection: &SelectedPartition,
    keys: &[NodeKey],
    client: &Machine,
    endpoint: &Arc<Endpoint>,
    tables: &Arc<RefTables>,
    txn: u64,
    recorder: Option<&FlightRecorder>,
) -> VmResult<TrackedOffload> {
    let started = std::time::Instant::now();
    // The migration root span: every serialize/prepare/commit/rollback
    // child below — and the RPC spans nested under them, including the
    // surrogate's serve spans adopted over the wire — hangs off this one
    // node, which is what the critical-path analyzer attributes.
    let mut migration_span = aide_telemetry::span(aide_telemetry::span_names::MIGRATION, "core");

    let gathered = gather_shipment(selection, keys, client, tables)?;
    let GatheredShipment {
        objects: batch,
        pins: pinned_ids,
        pinned_count: back_references_pinned,
        bytes: bytes_moved,
        used_before,
    } = gathered;

    let objects_moved = batch.len() as u64;
    // Shadow copies for the caller's reinstatement ledger, taken before the
    // batch is consumed by shipping.
    let shadow = batch.clone();

    // Ship as one transaction: stage every batch with PREPARE (retried
    // against transient faults), then COMMIT the whole shipment. Nothing
    // becomes resident on the surrogate before COMMIT, so on any failure
    // the rollback is purely local: reinstate the shadow copies (they only
    // just left the heap, so capacity is guaranteed) and tell the
    // surrogate to discard its staging buffer.
    migration_span.arg("txn", txn);
    migration_span.arg("objects", objects_moved);
    migration_span.arg("bytes", bytes_moved);
    let mut ship_error: Option<String> = None;
    {
        let mut prepare_span =
            aide_telemetry::span(aide_telemetry::span_names::MIGRATE_PREPARE, "core");
        prepare_span.arg("txn", txn);
        let mut iter = batch.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<(ObjectId, ObjectRecord)> = iter.by_ref().take(MIGRATE_BATCH).collect();
            if let Err(e) = endpoint.call_with_retry(Request::MigratePrepare {
                txn,
                objects: chunk,
            }) {
                ship_error = Some(format!("migration PREPARE failed: {e}"));
                break;
            }
        }
    }
    if ship_error.is_none() {
        let mut commit_span =
            aide_telemetry::span(aide_telemetry::span_names::MIGRATE_COMMIT, "core");
        commit_span.arg("txn", txn);
        if let Err(e) = endpoint.call_with_retry(Request::MigrateCommit { txn }) {
            ship_error = Some(format!("migration COMMIT failed: {e}"));
        }
    }
    if let Some(reason) = ship_error {
        let mut rollback_span =
            aide_telemetry::span(aide_telemetry::span_names::MIGRATE_ROLLBACK, "core");
        rollback_span.arg("reason", &reason);
        migration_span.arg("outcome", "aborted");
        // Best effort: a dead link cannot abort, but then the surrogate's
        // staging buffer dies with the session anyway.
        let _ = endpoint.call_with_retry(Request::MigrateAbort { txn });
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            for (id, record) in shadow {
                vm.heap_mut()
                    .migrate_in(id, record)
                    .expect("reinstalled objects fit the space they vacated");
                tables.imports.remove(id);
            }
            // Release the back-reference pins taken for this migration.
            for id in &pinned_ids {
                if tables.exports.release(*id) {
                    vm.external_root_dec(*id);
                }
            }
        }
        // The aborted transaction may still leak frames (a late MigrateShip
        // retry, a replayed release); a fresh import epoch fences them off
        // so the surrogate counts them as stale instead of honoring them.
        tables.imports.begin_epoch();
        if let Some(rec) = recorder {
            rec.record(PlatformEvent::MigrationAborted {
                reason: reason.clone(),
            });
            rec.record(PlatformEvent::MigrationRolledBack {
                objects: objects_moved,
                bytes: bytes_moved,
            });
        }
        return Err(VmError::RemoteFailure(reason));
    }

    migration_span.arg("outcome", "committed");
    let client_used_after = client.vm().lock().heap().stats().used_bytes;
    let duration_micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

    Ok(TrackedOffload {
        outcome: OffloadOutcome {
            objects_moved,
            bytes_moved,
            client_used_before: used_before,
            client_used_after,
            back_references_pinned,
            duration_micros,
        },
        shadow,
        pins: pinned_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aide_graph::{
        plan_candidates, EdgeInfo, ExecutionGraph, MemoryPolicy, NodeInfo, PartitionPolicy,
        PinReason, ResourceSnapshot,
    };
    use aide_rpc::{EndpointConfig, Link};
    use aide_vm::{MethodDef, MethodId, ProgramBuilder, RemoteAccess, VmConfig};

    use crate::adapter::{RemoteAdapter, VmDispatcher};

    fn setup() -> (Machine, Machine, Arc<Endpoint>, Arc<RefTables>) {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let doc = b.add_class("Document");
        let _ = doc;
        b.add_method(main, MethodDef::new("main", vec![]));
        let program = Arc::new(b.build(main, MethodId(0), 0, 0).unwrap());

        let client = Machine::new(program.clone(), VmConfig::client(1 << 20));
        let surrogate = Machine::new(program, VmConfig::surrogate(16 << 20));

        let (link, ct, st) = Link::pair(aide_graph::CommParams::WAVELAN);
        let clock = link.clock.clone();
        let ctab = Arc::new(RefTables::new());
        let stab = Arc::new(RefTables::new());
        let cep = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(VmDispatcher::new(client.clone(), ctab.clone())),
            EndpointConfig::default(),
        );
        let _sep = Endpoint::start(
            st,
            link.params,
            clock,
            Arc::new(VmDispatcher::new(surrogate.clone(), stab)),
            EndpointConfig::default(),
        );
        (client, surrogate, cep, ctab)
    }

    /// Builds a two-node graph (pinned Main, offloadable Document) and a
    /// selection offloading Document.
    fn doc_selection(doc_bytes: u64) -> (SelectedPartition, Vec<NodeKey>) {
        let mut g = ExecutionGraph::new();
        let main = g.add_node(NodeInfo::pinned("Main", PinReason::NativeMethods));
        let doc = g.add_node(NodeInfo::new("Document"));
        g.node_mut(doc).memory_bytes = doc_bytes;
        g.record_interaction(main, doc, EdgeInfo::new(5, 100));
        let cands = plan_candidates(&g);
        let sel = MemoryPolicy::new(1e-6)
            .select(&g, ResourceSnapshot::new(1 << 20, 1 << 19), &cands)
            .expect("feasible");
        (
            sel,
            vec![NodeKey::Class(ClassId(0)), NodeKey::Class(ClassId(1))],
        )
    }

    #[test]
    fn offload_moves_class_objects_to_surrogate() {
        let (client, surrogate, cep, tables) = setup();
        // Populate the client heap: 3 Documents and 1 Main object.
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            for i in 0..3 {
                vm.heap_mut()
                    .insert(
                        ObjectId::client(i),
                        ObjectRecord::new(ClassId(1), 100_000, 0),
                    )
                    .unwrap();
            }
            vm.heap_mut()
                .insert(ObjectId::client(10), ObjectRecord::new(ClassId(0), 64, 0))
                .unwrap();
        }
        let (sel, keys) = doc_selection(300_000);
        let outcome = execute_offload_tracked(&sel, &keys, &client, &cep, &tables, 1, None)
            .unwrap()
            .outcome;
        assert_eq!(outcome.objects_moved, 3);
        assert!(outcome.bytes_moved >= 300_000);
        assert!(outcome.client_used_after < outcome.client_used_before);

        let svm = surrogate.vm();
        let svm = svm.lock();
        assert_eq!(svm.heap().stats().migrated_in, 3);
        assert!(svm.heap().contains(ObjectId::client(0)));
        // Main stayed home.
        assert!(client.vm().lock().heap().contains(ObjectId::client(10)));
    }

    #[test]
    fn offload_pins_back_references() {
        let (client, _surrogate, cep, tables) = setup();
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            // A Document that points back at a Main object.
            let mut rec = ObjectRecord::new(ClassId(1), 1_000, 1);
            rec.slots[0] = Some(ObjectId::client(10));
            vm.heap_mut().insert(ObjectId::client(0), rec).unwrap();
            vm.heap_mut()
                .insert(ObjectId::client(10), ObjectRecord::new(ClassId(0), 64, 0))
                .unwrap();
        }
        let (sel, keys) = doc_selection(1_000);
        let outcome = execute_offload_tracked(&sel, &keys, &client, &cep, &tables, 1, None)
            .unwrap()
            .outcome;
        assert_eq!(outcome.back_references_pinned, 1);
        assert_eq!(client.vm().lock().external_root_count(), 1);
        assert!(tables.exports.contains(ObjectId::client(10)));
        assert!(tables.imports.contains(ObjectId::client(0)));
    }

    /// The shipping side knows the class of what it shipped: the adapter
    /// answers it without a request, and still asks the class of an object
    /// it did not ship.
    #[test]
    fn the_class_of_a_shipped_object_is_known_without_asking() {
        let (client, surrogate, cep, tables) = setup();
        let shipped = ObjectId::client(0);
        let theirs = ObjectId::surrogate(5);
        let record = |class| ObjectRecord::new(class, 1_000, 0);
        client
            .vm()
            .lock()
            .heap_mut()
            .insert(shipped, record(ClassId(1)))
            .unwrap();
        surrogate
            .vm()
            .lock()
            .heap_mut()
            .insert(theirs, record(ClassId(0)))
            .unwrap();
        let (sel, keys) = doc_selection(1_000);
        execute_offload_tracked(&sel, &keys, &client, &cep, &tables, 1, None).unwrap();

        let adapter = RemoteAdapter::new(cep.clone(), client, tables);
        let sent = cep.requests();
        assert_eq!(adapter.class_of(shipped).unwrap(), ClassId(1));
        assert_eq!(cep.requests(), sent, "shipped: known");
        assert_eq!(adapter.class_of(theirs).unwrap(), ClassId(0));
        assert_eq!(cep.requests(), sent + 1, "the surrogate's own: asked");
        let stats = adapter.stats();
        assert_eq!((stats.reads_from_memory, stats.reads_asked), (1, 1));
    }

    #[test]
    fn offload_charges_transfer_time() {
        let (client, _surrogate, cep, tables) = setup();
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(
                    ObjectId::client(0),
                    ObjectRecord::new(ClassId(1), 550_000, 0),
                )
                .unwrap();
        }
        let (sel, keys) = doc_selection(550_000);
        execute_offload_tracked(&sel, &keys, &client, &cep, &tables, 1, None).unwrap();
        // 550 KB at 11 Mbps ≈ 0.4 s of simulated link time.
        assert!(cep.clock().seconds() > 0.35);
    }

    #[test]
    fn object_granular_nodes_move_single_objects() {
        let (client, surrogate, cep, tables) = setup();
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            for i in 0..2 {
                vm.heap_mut()
                    .insert(
                        ObjectId::client(i),
                        ObjectRecord::new(ClassId(1), 10_000, 0),
                    )
                    .unwrap();
            }
        }
        // Graph: pinned Main + two object-granular array nodes.
        let mut g = ExecutionGraph::new();
        let main = g.add_node(NodeInfo::pinned("Main", PinReason::NativeMethods));
        let a0 = g.add_node(NodeInfo::new("obj0"));
        let a1 = g.add_node(NodeInfo::new("obj1"));
        g.node_mut(a0).memory_bytes = 10_000;
        g.node_mut(a1).memory_bytes = 10_000;
        g.record_interaction(main, a0, EdgeInfo::new(100, 10_000));
        g.record_interaction(main, a1, EdgeInfo::new(1, 10));
        let cands = plan_candidates(&g);
        // Free at least ~1% of a 1 MiB heap => one 10 KB object suffices.
        let sel = MemoryPolicy::new(0.009)
            .select(&g, ResourceSnapshot::new(1 << 20, 1 << 19), &cands)
            .expect("feasible");
        let keys = vec![
            NodeKey::Class(ClassId(0)),
            NodeKey::Object(ObjectId::client(0)),
            NodeKey::Object(ObjectId::client(1)),
        ];
        let outcome = execute_offload_tracked(&sel, &keys, &client, &cep, &tables, 1, None)
            .unwrap()
            .outcome;
        // The cheapest candidate offloads only the cold array (obj1).
        assert_eq!(outcome.objects_moved, 1);
        let svm = surrogate.vm();
        let svm = svm.lock();
        assert!(svm.heap().contains(ObjectId::client(1)));
        assert!(!svm.heap().contains(ObjectId::client(0)));
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;
    use aide_graph::{
        plan_candidates, EdgeInfo, ExecutionGraph, MemoryPolicy, NodeInfo, PartitionPolicy,
        PinReason, ResourceSnapshot,
    };
    use aide_rpc::{EndpointConfig, Link};
    use aide_vm::{MethodDef, MethodId, ProgramBuilder, VmConfig};

    use crate::adapter::{RefTables, VmDispatcher};
    use std::sync::Arc;

    /// A surrogate whose guest heap is far too small: migration must fail
    /// remotely and the client heap must be restored byte-for-byte.
    #[test]
    fn failed_migration_restores_the_client_heap() {
        let mut b = ProgramBuilder::new();
        let main = b.add_class("Main");
        let doc = b.add_class("Document");
        let _ = doc;
        b.add_method(main, MethodDef::new("main", vec![]));
        let program = Arc::new(b.build(main, MethodId(0), 0, 0).unwrap());

        let client = aide_vm::Machine::new(program.clone(), VmConfig::client(4 << 20));
        let surrogate = aide_vm::Machine::new(program, VmConfig::surrogate(64 << 10));

        let (link, ct, st) = Link::pair(aide_graph::CommParams::WAVELAN);
        let clock = link.clock.clone();
        let ctab = Arc::new(RefTables::new());
        let stab = Arc::new(RefTables::new());
        let cep = Endpoint::start(
            ct,
            link.params,
            clock.clone(),
            Arc::new(VmDispatcher::new(client.clone(), ctab.clone())),
            EndpointConfig::default(),
        );
        let _sep = Endpoint::start(
            st,
            link.params,
            clock,
            Arc::new(VmDispatcher::new(surrogate.clone(), stab)),
            EndpointConfig::default(),
        );

        // 3 MB of documents on the client (each pointing back at a pinned
        // anchor object); the surrogate offers 64 KB.
        {
            let vm = client.vm();
            let mut vm = vm.lock();
            vm.heap_mut()
                .insert(ObjectId::client(999), ObjectRecord::new(ClassId(0), 64, 0))
                .unwrap();
            for i in 0..30 {
                let mut rec = ObjectRecord::new(ClassId(1), 100_000, 1);
                rec.slots[0] = Some(ObjectId::client(999));
                vm.heap_mut().insert(ObjectId::client(i), rec).unwrap();
            }
        }
        let used_before = client.vm().lock().heap().stats().used_bytes;

        let mut g = ExecutionGraph::new();
        let m = g.add_node(NodeInfo::pinned("Main", PinReason::NativeMethods));
        let d = g.add_node(NodeInfo::new("Document"));
        g.node_mut(d).memory_bytes = 3_000_000;
        g.record_interaction(m, d, EdgeInfo::new(5, 100));
        let cands = plan_candidates(&g);
        let sel = MemoryPolicy::new(0.1)
            .select(&g, ResourceSnapshot::new(4 << 20, 3 << 20), &cands)
            .expect("feasible on paper");
        let keys = vec![NodeKey::Class(ClassId(0)), NodeKey::Class(ClassId(1))];

        let recorder = FlightRecorder::new(16);
        let err = execute_offload_tracked(&sel, &keys, &client, &cep, &ctab, 1, Some(&recorder))
            .unwrap_err();
        assert!(matches!(err, VmError::RemoteFailure(_)), "{err:?}");

        // The flight recorder explains the abort and the rollback.
        let events: Vec<_> = recorder.events().into_iter().map(|e| e.event).collect();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, PlatformEvent::MigrationAborted { .. })),
            "expected a MigrationAborted event, got {events:?}"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, PlatformEvent::MigrationRolledBack { objects: 30, .. })),
            "expected a MigrationRolledBack event, got {events:?}"
        );

        // Client heap restored exactly; nothing half-resident anywhere;
        // the back-reference pins taken for the migration were released.
        let vm = client.vm();
        let vm = vm.lock();
        assert_eq!(vm.heap().stats().used_bytes, used_before);
        assert_eq!(vm.heap().stats().live_objects, 31);
        assert_eq!(vm.external_root_count(), 0, "rollback releases pins");
        let svm = surrogate.vm();
        let svm = svm.lock();
        assert_eq!(svm.heap().stats().live_objects, 0, "all-or-nothing install");
        assert!(!ctab.imports.contains(ObjectId::client(0)));
    }
}
