//! End-to-end tests of the distributed platform: the paper's §5.1
//! "Avoiding Memory Constraints" scenario in miniature, plus behavioural
//! checks of triggers, transparency, and the beneficial-offload gate.

use std::sync::Arc;

use aide_core::{EvaluationMode, Platform, PlatformConfig, PolicyKind};
use aide_vm::{
    GcConfig, MethodDef, MethodId, NativeKind, Op, Program, ProgramBuilder, Reg, VmError,
};

/// A miniature JavaNote: a pinned editor UI (framebuffer natives) plus a
/// document model whose text buffers exceed a constrained heap.
///
/// `chunks` buffers of `chunk_bytes` are loaded into a document and kept
/// live (anchored through the entry object), then the editor performs
/// UI work and occasional document reads.
fn editor_program(chunks: u32, chunk_bytes: u32) -> Arc<Program> {
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    // The editor widget layer is *implemented* natively (framebuffer
    // access): it is pinned to the client.
    let editor = b.add_native_class("Editor");
    b.set_static_bytes(editor, 1_024);
    let document = b.add_class("Document");
    let buffer = b.add_array_class("CharArray");

    // Editor::draw — native framebuffer access on a native-impl class.
    let draw = b.add_method(
        editor,
        MethodDef::new(
            "draw",
            vec![
                Op::Work { micros: 20 },
                Op::Native {
                    kind: NativeKind::Framebuffer,
                    work_micros: 30,
                    arg_bytes: 256,
                    ret_bytes: 0,
                },
            ],
        ),
    );

    // Document::load(self) — allocate the chunk buffers into self slots.
    let mut load_ops = Vec::new();
    for i in 0..chunks {
        load_ops.push(Op::New {
            class: buffer,
            scalar_bytes: chunk_bytes,
            ref_slots: 0,
            dst: Reg(1),
        });
        load_ops.push(Op::PutSlot {
            slot: i as u16,
            src: Reg(1),
        });
        load_ops.push(Op::Work { micros: 50 });
    }
    let load = b.add_method(document, MethodDef::new("load", load_ops));

    // Document::scan — touch every buffer (reads through slots) and
    // consult the editor's static configuration (client-owned state).
    let mut scan_ops = vec![Op::GetStatic {
        class: editor,
        bytes: 16,
    }];
    for i in 0..chunks {
        scan_ops.push(Op::GetSlot {
            slot: i as u16,
            dst: Reg(2),
        });
        scan_ops.push(Op::Read {
            obj: Reg(2),
            bytes: 64,
        });
    }
    let scan = b.add_method(document, MethodDef::new("scan", scan_ops));

    // Main::main — build editor + document, load, then edit loop.
    b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: editor,
                    scalar_bytes: 2_000,
                    ref_slots: 0,
                    dst: Reg(0),
                },
                Op::PutSlot {
                    slot: 0,
                    src: Reg(0),
                },
                Op::New {
                    class: document,
                    scalar_bytes: 1_000,
                    ref_slots: chunks as u16,
                    dst: Reg(1),
                },
                Op::PutSlot {
                    slot: 1,
                    src: Reg(1),
                },
                Op::Call {
                    obj: Reg(1),
                    class: document,
                    method: load,
                    arg_bytes: 16,
                    ret_bytes: 0,
                    args: vec![],
                },
                // Editing session: draw, scan, draw, ...
                Op::Repeat {
                    n: 20,
                    body: vec![
                        Op::Call {
                            obj: Reg(0),
                            class: editor,
                            method: draw,
                            arg_bytes: 8,
                            ret_bytes: 8,
                            args: vec![],
                        },
                        Op::Call {
                            obj: Reg(1),
                            class: document,
                            method: scan,
                            arg_bytes: 8,
                            ret_bytes: 64,
                            args: vec![],
                        },
                    ],
                },
            ],
        ),
    );
    Arc::new(b.build(main, MethodId(0), 64, 4).unwrap())
}

fn pressure_config(heap: u64) -> PlatformConfig {
    let mut cfg = PlatformConfig::prototype(heap);
    // Small scenario: make GC sample often so the trigger sees pressure.
    cfg.gc = GcConfig {
        trigger_alloc_count: 8,
        trigger_alloc_bytes: 64 * 1024,
        cost_micros_per_object: 0.05,
    };
    cfg
}

/// The document needs ~40 × 20 KB = 800 KB + overheads; a 512 KB heap
/// cannot hold it.
// (The scan method below also reads class statics, so after offloading the
// document classes, static accesses must travel back to the client.)
const CHUNKS: u32 = 40;
const CHUNK_BYTES: u32 = 20_000;
const SMALL_HEAP: u64 = 512 * 1024;
/// Remote reads of one such rescue, run alone: answered from what had been
/// read before, and asked of the owner.
const FROM_MEMORY: u64 = 266;
const ASKED: u64 = 14;
/// Requests that rescue has served, by the surrogate and by the client.
const SERVED: (u64, u64) = (40, 314);

#[test]
fn constrained_heap_without_offloading_fails_oom() {
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let mut cfg = pressure_config(SMALL_HEAP);
    cfg.monitoring = false; // no monitor, no controller, no offload
    let report = Platform::new(program, cfg).run();
    match &report.outcome {
        Err(VmError::OutOfMemory { .. }) => {}
        other => panic!("expected OOM, got {other:?}"),
    }
    assert!(!report.offloaded());
}

#[test]
fn offloading_rescues_the_constrained_heap() {
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let report = Platform::new(program, pressure_config(SMALL_HEAP)).run();
    assert!(
        report.outcome.is_ok(),
        "expected completion, got {:?}",
        report.outcome
    );
    assert!(report.offloaded(), "an offload should have happened");

    let event = &report.offloads[0];
    assert!(event.outcome.objects_moved > 0);
    assert!(event.outcome.bytes_moved > 100_000);
    assert!(
        event.outcome.client_used_after < event.outcome.client_used_before,
        "client heap must shrink"
    );
    // The pinned Editor class stayed on the client: its node is client-side.
    let editor_node = event.graph.node_by_label("Editor").unwrap();
    assert!(event.partitioning.is_client(editor_node));
    // Remote execution happened after the offload.
    assert!(report.surrogate_requests_served > 0);
    assert!(report.comm_seconds > 0.0);
}

#[test]
fn platform_runs_are_deterministic() {
    // Virtual time makes the whole prototype repeatable, dispatcher
    // threads notwithstanding: two identical runs agree exactly.
    let run = || {
        let program = editor_program(CHUNKS, CHUNK_BYTES);
        Platform::new(program, pressure_config(SMALL_HEAP)).run()
    };
    let (a, b) = (run(), run());
    assert!(a.outcome.is_ok() && b.outcome.is_ok());
    assert_eq!(a.client_cpu_seconds, b.client_cpu_seconds);
    assert_eq!(a.surrogate_cpu_seconds, b.surrogate_cpu_seconds);
    assert_eq!(a.comm_seconds, b.comm_seconds);
    assert_eq!(a.remote_stats, b.remote_stats);
    assert_eq!(a.offloads.len(), b.offloads.len());
}

#[test]
fn static_data_is_served_by_the_client_after_offload() {
    // The offloaded Document::scan reads Editor statics: those accesses
    // must travel back to the client VM, which serves and counts them.
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let report = Platform::new(program, pressure_config(SMALL_HEAP)).run();
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(report.offloaded());
    assert!(
        report.remote_stats.remote_static_accesses > 0,
        "statics go home: {:?}",
        report.remote_stats
    );
}

#[test]
fn combined_policy_relieves_memory_while_weighing_time() {
    // Paper §8 "simultaneously consider multiple constraints": the
    // combined policy must still rescue the memory-constrained editor.
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let mut cfg = pressure_config(SMALL_HEAP);
    cfg.policy = PolicyKind::Combined {
        min_free_fraction: 0.20,
        margin: 0.0,
    };
    let report = Platform::new(program, cfg).run();
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(report.offloaded());
}

#[test]
fn offloading_works_over_a_real_tcp_socket() {
    // The same rescue scenario, with the RPC link carried by a localhost
    // TCP socket instead of in-process channels.
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let mut cfg = pressure_config(SMALL_HEAP);
    cfg.transport = aide_core::TransportKind::Tcp;
    let report = Platform::new(program, cfg).run();
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(report.offloaded());
    assert!(report.surrogate_requests_served > 0);
}

#[test]
fn a_rescue_answers_most_remote_reads_from_memory() {
    // After the offload the editor keeps reading the same few slots of the
    // document it no longer holds; each crosses the link once per write of
    // the owner, not once per read. The run is deterministic, so the split
    // is too.
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let report = Platform::new(program, pressure_config(SMALL_HEAP)).run();
    assert!(report.outcome.is_ok(), "{:?}", report.outcome);
    assert!(report.offloaded());
    // The requests served are this run's alone: had it remembered nothing,
    // there would be `FROM_MEMORY` more of them.
    assert_eq!(
        (
            report.surrogate_requests_served,
            report.client_requests_served
        ),
        SERVED,
        "(by the surrogate, by the client)"
    );
    // The counters are the process's, over the time of this run, and the
    // other tests of this file run rescues beside it: they can only add to
    // this run's share.
    let from_memory = report
        .telemetry
        .counter(aide_telemetry::names::REMOTE_READS_FROM_MEMORY);
    let asked = report
        .telemetry
        .counter(aide_telemetry::names::REMOTE_READS_ASKED);
    assert!(
        from_memory >= FROM_MEMORY && asked >= ASKED,
        "{from_memory} remote reads from memory, {asked} asked"
    );
}

#[test]
fn unconstrained_heap_never_offloads() {
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let report = Platform::new(program, pressure_config(16 << 20)).run();
    assert!(report.outcome.is_ok());
    assert!(!report.offloaded(), "no pressure, no offload");
    assert_eq!(report.surrogate_requests_served, 0);
    assert_eq!(report.comm_seconds, 0.0);
}

#[test]
fn offload_moves_most_of_the_document_memory() {
    // The paper observed ~90% of the heap offloaded for JavaNote because
    // the bandwidth-minimizing cut pushes all document data out.
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let report = Platform::new(program, pressure_config(SMALL_HEAP)).run();
    let event = &report.offloads[0];
    assert!(
        event.offloaded_memory_fraction > 0.5,
        "bulk of tracked memory should offload, got {}",
        event.offloaded_memory_fraction
    );
}

#[test]
fn partitioning_computation_is_fast() {
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let report = Platform::new(program, pressure_config(SMALL_HEAP)).run();
    let event = &report.offloads[0];
    // The paper reports ~0.1 s for a 138-node graph on a 600 MHz Pentium;
    // our graphs are smaller and machines faster.
    assert!(event.partition_elapsed.as_millis() < 1_000);
    assert!(event.candidates_evaluated >= 1);
}

#[test]
fn monitoring_metrics_are_collected() {
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let report = Platform::new(program, pressure_config(16 << 20)).run();
    let m = report.metrics;
    assert!(m.interaction_events > 0);
    assert!(m.objects_total >= CHUNKS as u64);
    assert!(m.classes_total >= 3);
    assert!(m.samples > 0, "GC cycles should sample metrics");
    assert!(m.graph_storage_bytes > 0);
}

#[test]
fn remote_native_calls_travel_back_to_the_client() {
    // Force the editor itself to be offloadable? No — natives pin it.
    // Instead check that after offload, document scans that execute on the
    // surrogate still produce client-served requests.
    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let report = Platform::new(program, pressure_config(SMALL_HEAP)).run();
    assert!(report.outcome.is_ok());
    // The client's editor keeps calling the (remote) document: surrogate
    // serves those; any surrogate->client touches show up in remote stats.
    let r = report.remote_stats;
    assert!(r.remote_interactions > 0);
}

#[test]
fn cpu_policy_platform_declines_chatty_offload() {
    // A compute loop whose classes chat constantly with the pinned UI:
    // the CPU policy must refuse to offload (beneficial-offloading gate).
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let ui = b.add_native_class("Ui");
    let engine = b.add_class("Engine");
    let ping = b.add_method(
        ui,
        MethodDef::new(
            "ping",
            vec![Op::Native {
                kind: NativeKind::Framebuffer,
                work_micros: 1,
                arg_bytes: 2_000,
                ret_bytes: 2_000,
            }],
        ),
    );
    let step = b.add_method(
        engine,
        MethodDef::new(
            "step",
            vec![
                Op::Work { micros: 5 },
                Op::Call {
                    obj: Reg(0),
                    class: ui,
                    method: ping,
                    arg_bytes: 2_000,
                    ret_bytes: 2_000,
                    args: vec![],
                },
            ],
        ),
    );
    b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: ui,
                    scalar_bytes: 100,
                    ref_slots: 0,
                    dst: Reg(0),
                },
                Op::New {
                    class: engine,
                    scalar_bytes: 100,
                    ref_slots: 0,
                    dst: Reg(1),
                },
                Op::Repeat {
                    n: 500,
                    body: vec![Op::Call {
                        obj: Reg(1),
                        class: engine,
                        method: step,
                        arg_bytes: 0,
                        ret_bytes: 0,
                        args: vec![Reg(0)],
                    }],
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, MethodId(0), 64, 4).unwrap());

    let mut cfg = PlatformConfig::prototype(8 << 20);
    cfg.policy = PolicyKind::Cpu { margin: 0.0 };
    cfg.evaluation = EvaluationMode::Periodic {
        every_micros: 500.0,
    };
    let report = Platform::new(program, cfg).run();
    assert!(report.outcome.is_ok());
    assert!(
        !report.offloaded(),
        "chatty engine must not be offloaded by the beneficial gate"
    );
}

#[test]
fn platform_report_serde_round_trip() {
    use aide_core::{FailoverReport, PlatformReport};

    let program = editor_program(CHUNKS, CHUNK_BYTES);
    let mut report = Platform::new(program, pressure_config(SMALL_HEAP)).run();
    assert!(report.offloaded());
    assert!(
        !report.events.is_empty(),
        "the flight recorder should have captured the offload decision"
    );
    assert!(
        !report.telemetry.counters.is_empty(),
        "the run should have recorded metric activity"
    );
    // Provider-backed runs attach a failover summary; graft one on so the
    // round trip exercises that field too.
    report.failover = Some(FailoverReport {
        failovers: 1,
        reinstated_objects: 7,
        reinstated_bytes: 140_000,
        objects_lost: 0,
        reoffloads: 1,
        surrogates_used: vec!["alpha".to_string(), "bravo".to_string()],
        failover_durations_micros: vec![1_250],
        ..FailoverReport::default()
    });

    let json = serde_json::to_string(&report).expect("report serializes");
    let back: PlatformReport = serde_json::from_str(&json).expect("report deserializes");
    // PlatformReport holds f64s and nested maps, so compare via a second
    // serialization: BTreeMap-backed snapshots make the encoding canonical.
    let json_again = serde_json::to_string(&back).expect("round-tripped report serializes");
    assert_eq!(json, json_again, "serde round trip must be lossless");

    assert_eq!(back.offloads.len(), report.offloads.len());
    assert_eq!(back.events.len(), report.events.len());
    assert_eq!(back.telemetry, report.telemetry);
    assert_eq!(back.failover, Some(report.failover.unwrap()));
    // The timeline survives the trip: the winner's policy score is still
    // explainable from the deserialized report.
    assert!(
        back.timeline().contains("policy score"),
        "timeline should name the winning candidate's policy score:\n{}",
        back.timeline()
    );
}

#[test]
fn cpu_policy_platform_offloads_compute_heavy_work() {
    // A heavy compute cluster with rare, small UI interactions: the CPU
    // policy should offload it to the 3.5x surrogate.
    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let ui = b.add_native_class("Ui");
    let engine = b.add_class("Engine");
    b.add_method(
        ui,
        MethodDef::new(
            "blit",
            vec![Op::Native {
                kind: NativeKind::Framebuffer,
                work_micros: 5,
                arg_bytes: 64,
                ret_bytes: 0,
            }],
        ),
    );
    let crunch = b.add_method(
        engine,
        MethodDef::new("crunch", vec![Op::Work { micros: 20_000 }]),
    );
    b.add_method(
        main,
        MethodDef::new(
            "main",
            vec![
                Op::New {
                    class: ui,
                    scalar_bytes: 100,
                    ref_slots: 0,
                    dst: Reg(0),
                },
                Op::New {
                    class: engine,
                    scalar_bytes: 100,
                    ref_slots: 0,
                    dst: Reg(1),
                },
                Op::Repeat {
                    n: 300,
                    body: vec![Op::Call {
                        obj: Reg(1),
                        class: engine,
                        method: crunch,
                        arg_bytes: 8,
                        ret_bytes: 8,
                        args: vec![],
                    }],
                },
            ],
        ),
    );
    let program = Arc::new(b.build(main, MethodId(0), 64, 4).unwrap());

    let mut cfg = PlatformConfig::prototype(8 << 20);
    cfg.policy = PolicyKind::Cpu { margin: 0.0 };
    cfg.evaluation = EvaluationMode::Periodic {
        every_micros: 200_000.0, // evaluate after ~10 crunches
    };
    let report = Platform::new(program, cfg).run();
    assert!(report.outcome.is_ok());
    assert!(report.offloaded(), "compute-heavy engine should offload");
    // Remote execution consumed surrogate CPU at 3.5x speed.
    assert!(report.surrogate_cpu_seconds > 0.0);
    assert!(report.surrogate_requests_served > 0);

    // The periodic evaluator fires at the op where accumulated work first
    // reaches the period: right after the 10th crunch's `Work`, before its
    // `Return` and the 11th `Call`. The graph it decided over says so, and
    // so does the virtual clock (a later offload runs more crunches at
    // client speed).
    let first = &report.offloads[0];
    assert_eq!(first.at_gc_cycle, 0);
    let engine_node = first.graph.node_by_label("Engine").unwrap();
    let main_node = first.graph.node_by_label("Main").unwrap();
    assert_eq!(first.graph.node(engine_node).cpu_micros, 200_000);
    assert_eq!(
        first.graph.edge(main_node, engine_node).unwrap(),
        aide_graph::EdgeInfo::new(10, 160)
    );
    assert_eq!(report.total_seconds(), 2.574_027_493_506_492_6);
}
