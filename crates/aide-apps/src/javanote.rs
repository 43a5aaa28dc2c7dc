//! JavaNote — "simple text editor; content-based, memory intensive".
//!
//! The paper's headline application: loading and editing a 600 KB text
//! file exhausts a 6 MB Java heap because the in-memory representation
//! (character arrays, paragraph metadata, undo state, editor framework
//! objects) is an order of magnitude larger than the file.
//!
//! The model reproduces JavaNote's Table 2 shape at [`Scale::FULL`]:
//! 138 classes, ~6 800 objects created, ~1.2 M interaction events spread
//! over ~1 000 execution-graph edges — and its §5.1 behaviour: live memory
//! grows past the heap as paragraphs load, the natively implemented editor
//! widgets pin to the client, and the offloadable text classes carry ~90%
//! of the heap.

use std::sync::Arc;

use aide_vm::{MethodDef, NativeKind, Op, Program, ProgramBuilder, Reg};

use crate::common::{rotating_groups, Scale, Web, WebSpec};
use crate::App;

/// Paragraphs loaded over the run (each ≈ 20 KB of character data).
const PARAGRAPHS: u32 = 340;
/// Edit-loop iterations.
const EDIT_ITERS: u32 = 2_000;
/// Load/edit phases (paragraph loading interleaves with editing).
const PHASES: u32 = 10;

/// Entry-object slot layout.
const SLOT_EDITOR: u16 = 0;
const SLOT_TEXTBUFFER: u16 = 1;
const SLOT_UNDO_BASE: u16 = 2; // rotating undo slots (a deep undo history)
const UNDO_SLOTS: u16 = 400;
const SLOT_WEB_BASE: u16 = 410;
const WEB_CLASSES: usize = 124;
const SLOT_PARA_BASE: u16 = 410 + WEB_CLASSES as u16;

/// Builds the JavaNote model at the given scale.
///
/// # Panics
///
/// Panics only if the internal program assembly is inconsistent (a bug).
pub fn javanote(scale: Scale) -> App {
    let paragraphs = scale.at_least(PARAGRAPHS, 10);
    let iters = scale.at_least(EDIT_ITERS, 10);
    let phases = PHASES.min(paragraphs).min(iters);

    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");

    // Natively implemented editor widget layer: pinned to the client.
    let editor = b.add_native_class("Editor");
    let menu = b.add_native_class("MenuSystem");
    let status = b.add_native_class("StatusBar");
    let scroll = b.add_native_class("ScrollView");
    let fonts = b.add_native_class("FontMetrics");

    // Offloadable text model.
    let document = b.add_class("Document");
    let textbuffer = b.add_class("TextBuffer");
    let undolog = b.add_class("UndoEntry");
    let clipboard = b.add_class("Clipboard");
    let search = b.add_class("SearchIndex");
    let stringpool = b.add_class("StringPool");
    let paragraph = b.add_class("Paragraph");
    let chararray = b.add_array_class("CharArray");
    b.set_static_bytes(stringpool, 4_096);

    // Editor framework web (layout managers, borders, events, colors, ...).
    let web = Web::build(
        &mut b,
        "Widget",
        WebSpec {
            classes: WEB_CLASSES,
            neighbors: (6, 8),
            touch_work: (300, 700),
            leaf_work: 20,
            read_bytes: 24,
            temp_bytes: 0,
            instance_bytes: (40, 400),
            seed: 0x4a61_764e,
        },
    );

    // Editor::draw — framebuffer natives plus layout work.
    let draw = b.add_method(
        editor,
        MethodDef::new(
            "draw",
            vec![
                Op::Work { micros: 30_000 },
                Op::Native {
                    kind: NativeKind::Framebuffer,
                    work_micros: 8_000,
                    arg_bytes: 1_024,
                    ret_bytes: 0,
                },
                Op::Native {
                    kind: NativeKind::Framebuffer,
                    work_micros: 8_000,
                    arg_bytes: 512,
                    ret_bytes: 0,
                },
            ],
        ),
    );
    // Editor::render(paragraph) — the viewport dereferences the paragraph
    // and reads the visible character data itself.
    let render = b.add_method(
        editor,
        MethodDef::new(
            "render",
            vec![
                Op::GetSlotOf {
                    obj: Reg(0),
                    slot: 0,
                    dst: Reg(3),
                },
                Op::Read {
                    obj: Reg(3),
                    bytes: 256,
                },
                Op::Work { micros: 4_000 },
            ],
        ),
    );

    // TextBuffer::process(paragraph) — editing work over the text model:
    // string natives (copies/compares) plus paragraph reads.
    let process = b.add_method(
        textbuffer,
        MethodDef::new(
            "process",
            vec![
                Op::Work { micros: 30_000 },
                Op::Read {
                    obj: Reg(0),
                    bytes: 128,
                },
                Op::GetSlotOf {
                    obj: Reg(0),
                    slot: 0,
                    dst: Reg(3),
                },
                Op::Read {
                    obj: Reg(3),
                    bytes: 192,
                },
                Op::Write {
                    obj: Reg(3),
                    bytes: 64,
                },
                Op::Native {
                    kind: NativeKind::StringOp,
                    work_micros: 2_000,
                    arg_bytes: 64,
                    ret_bytes: 64,
                },
                Op::Native {
                    kind: NativeKind::StringOp,
                    work_micros: 2_000,
                    arg_bytes: 64,
                    ret_bytes: 64,
                },
                Op::Native {
                    kind: NativeKind::StringOp,
                    work_micros: 2_000,
                    arg_bytes: 32,
                    ret_bytes: 32,
                },
                Op::GetStatic {
                    class: stringpool,
                    bytes: 32,
                },
            ],
        ),
    );
    // TextBuffer::index(paragraph) — performed at load time.
    let index = b.add_method(
        textbuffer,
        MethodDef::new(
            "index",
            vec![
                Op::Work { micros: 5_000 },
                Op::Read {
                    obj: Reg(0),
                    bytes: 64,
                },
                Op::GetSlotOf {
                    obj: Reg(0),
                    slot: 0,
                    dst: Reg(3),
                },
                Op::Read {
                    obj: Reg(3),
                    bytes: 512,
                },
                Op::Native {
                    kind: NativeKind::StringOp,
                    work_micros: 1_000,
                    arg_bytes: 128,
                    ret_bytes: 16,
                },
            ],
        ),
    );

    // MenuSystem / StatusBar / ScrollView / FontMetrics / helpers.
    let menu_poll = b.add_method(
        menu,
        MethodDef::new(
            "poll",
            vec![
                Op::Work { micros: 2_000 },
                Op::Native {
                    kind: NativeKind::UiToolkit,
                    work_micros: 1_000,
                    arg_bytes: 64,
                    ret_bytes: 16,
                },
            ],
        ),
    );
    let status_update = b.add_method(
        status,
        MethodDef::new(
            "update",
            vec![
                Op::Work { micros: 1_500 },
                Op::Native {
                    kind: NativeKind::Framebuffer,
                    work_micros: 500,
                    arg_bytes: 128,
                    ret_bytes: 0,
                },
            ],
        ),
    );
    let scroll_tick = b.add_method(
        scroll,
        MethodDef::new(
            "tick",
            vec![
                Op::Work { micros: 1_500 },
                Op::Native {
                    kind: NativeKind::SystemInfo,
                    work_micros: 200,
                    arg_bytes: 16,
                    ret_bytes: 16,
                },
            ],
        ),
    );
    let fonts_measure = b.add_method(
        fonts,
        MethodDef::new(
            "measure",
            vec![
                Op::Work { micros: 1_000 },
                Op::Native {
                    kind: NativeKind::StringOp,
                    work_micros: 300,
                    arg_bytes: 48,
                    ret_bytes: 8,
                },
            ],
        ),
    );
    let search_update = b.add_method(
        search,
        MethodDef::new(
            "update",
            vec![
                Op::Work { micros: 2_000 },
                Op::Read {
                    obj: Reg(0),
                    bytes: 96,
                },
            ],
        ),
    );
    let clip_copy = b.add_method(
        clipboard,
        MethodDef::new(
            "copy",
            vec![
                Op::Work { micros: 800 },
                Op::Read {
                    obj: Reg(0),
                    bytes: 200,
                },
            ],
        ),
    );
    let autosave = b.add_method(
        document,
        MethodDef::new(
            "autosave",
            vec![
                Op::Work { micros: 3_000 },
                Op::Native {
                    kind: NativeKind::FileIo,
                    work_micros: 2_000,
                    arg_bytes: 2_048,
                    ret_bytes: 8,
                },
            ],
        ),
    );

    // ---- main --------------------------------------------------------

    // Startup: core objects + framework web.
    let mut body: Vec<Op> = vec![
        Op::New {
            class: editor,
            scalar_bytes: 3_000,
            ref_slots: 0,
            dst: Reg(0),
        },
        Op::PutSlot {
            slot: SLOT_EDITOR,
            src: Reg(0),
        },
        Op::New {
            class: textbuffer,
            scalar_bytes: 2_000,
            ref_slots: 0,
            dst: Reg(0),
        },
        Op::PutSlot {
            slot: SLOT_TEXTBUFFER,
            src: Reg(0),
        },
    ];
    for (class, bytes) in [
        (document, 1_200u32),
        (clipboard, 600),
        (search, 2_400),
        (stringpool, 1_000),
        (menu, 900),
        (status, 300),
        (scroll, 500),
        (fonts, 700),
    ] {
        body.push(Op::New {
            class,
            scalar_bytes: bytes,
            ref_slots: 0,
            dst: Reg(0),
        });
        // Core singletons parked in high web slots region after the web.
        body.push(Op::PutSlot {
            slot: SLOT_PARA_BASE + paragraphs as u16 + offset_of(class, &mut 0),
            src: Reg(0),
        });
    }
    body.extend(web.setup_ops(SLOT_WEB_BASE));

    // Interleaved load/edit phases. Loading is front-loaded into the first
    // 60% of the phases so memory pressure arrives mid-session and leaves a
    // substantial remotely executed tail (as in the paper's scenario, where
    // the heap is exhausted while the file loads).
    let load_phases = (phases * 6 / 10).max(1);
    let per_phase_paragraphs = paragraphs / load_phases;
    let per_phase_iters = iters / phases;
    let touch_groups = rotating_groups(web.len(), 38.min(web.len()), phases as usize * 2);

    let mut para_cursor: u16 = 0;
    for phase in 0..phases {
        // Load a batch of paragraphs: char data + metadata + indexing.
        let mut load_ops = Vec::new();
        let batch = if phase == load_phases - 1 {
            paragraphs - u32::from(para_cursor)
        } else if phase < load_phases {
            per_phase_paragraphs
        } else {
            0
        };
        for _ in 0..batch {
            load_ops.push(Op::New {
                class: chararray,
                scalar_bytes: 20_000,
                ref_slots: 0,
                dst: Reg(1),
            });
            load_ops.push(Op::New {
                class: paragraph,
                scalar_bytes: 150,
                ref_slots: 3,
                dst: Reg(2),
            });
            load_ops.push(Op::PutSlotOf {
                obj: Reg(2),
                slot: 0,
                src: Reg(1),
            });
            // Style run: a small metadata object kept alive per paragraph.
            load_ops.push(Op::New {
                class: paragraph,
                scalar_bytes: 120,
                ref_slots: 0,
                dst: Reg(4),
            });
            load_ops.push(Op::PutSlotOf {
                obj: Reg(2),
                slot: 1,
                src: Reg(4),
            });
            load_ops.push(Op::PutSlot {
                slot: SLOT_PARA_BASE + para_cursor,
                src: Reg(2),
            });
            // Index the new paragraph.
            load_ops.push(Op::GetSlot {
                slot: SLOT_TEXTBUFFER,
                dst: Reg(3),
            });
            load_ops.push(Op::Call {
                obj: Reg(3),
                class: textbuffer,
                method: index,
                arg_bytes: 16,
                ret_bytes: 8,
                args: vec![Reg(2)],
            });
            para_cursor += 1;
        }
        body.extend(load_ops);

        // Edit iterations for this phase (two rotating variants).
        for half in 0..2u32 {
            let group = &touch_groups[(phase * 2 + half) as usize];
            let mut iter_body: Vec<Op> = Vec::new();
            // Pick a visible paragraph for this variant (already loaded).
            let visible = SLOT_PARA_BASE
                + (phase.min(load_phases - 1) * per_phase_paragraphs.max(1) / 2) as u16;
            iter_body.push(Op::GetSlot {
                slot: visible,
                dst: Reg(1),
            });
            iter_body.push(Op::GetSlot {
                slot: SLOT_TEXTBUFFER,
                dst: Reg(2),
            });
            iter_body.push(Op::GetSlot {
                slot: SLOT_EDITOR,
                dst: Reg(3),
            });
            // Keystroke: process text, update undo, redraw.
            iter_body.push(Op::Call {
                obj: Reg(2),
                class: textbuffer,
                method: process,
                arg_bytes: 24,
                ret_bytes: 16,
                args: vec![Reg(1)],
            });
            iter_body.push(Op::New {
                class: undolog,
                scalar_bytes: 800,
                ref_slots: 0,
                dst: Reg(5),
            });
            iter_body.push(Op::PutSlot {
                slot: SLOT_UNDO_BASE + ((phase * 7 + half * 3) % u32::from(UNDO_SLOTS)) as u16,
                src: Reg(5),
            });
            iter_body.push(Op::Call {
                obj: Reg(3),
                class: editor,
                method: draw,
                arg_bytes: 16,
                ret_bytes: 0,
                args: vec![],
            });
            // Widget framework activity.
            iter_body.extend(web.touch_ops(SLOT_WEB_BASE, group.iter().copied()));
            for _ in 0..2 {
                iter_body.push(Op::New {
                    class: stringpool,
                    scalar_bytes: 240,
                    ref_slots: 0,
                    dst: Reg(7),
                });
                iter_body.push(Op::Clear { reg: Reg(7) });
            }
            iter_body.push(Op::Work { micros: 8_000 });

            body.push(Op::Repeat {
                n: (per_phase_iters / 2).max(1),
                body: iter_body,
            });

            // Chrome updates and viewport renders run at an eighth of the
            // keystroke rate.
            let mut chrome_body = vec![
                Op::GetSlot {
                    slot: visible,
                    dst: Reg(1),
                },
                Op::GetSlot {
                    slot: SLOT_EDITOR,
                    dst: Reg(3),
                },
                Op::Call {
                    obj: Reg(3),
                    class: editor,
                    method: render,
                    arg_bytes: 8,
                    ret_bytes: 64,
                    args: vec![Reg(1)],
                },
            ];
            for (class, method, arg_para) in [
                (menu, menu_poll, false),
                (status, status_update, false),
                (scroll, scroll_tick, false),
                (fonts, fonts_measure, false),
                (search, search_update, true),
                (clipboard, clip_copy, true),
            ] {
                chrome_body.push(Op::GetSlot {
                    slot: SLOT_PARA_BASE + paragraphs as u16 + offset_of(class, &mut 0),
                    dst: Reg(6),
                });
                chrome_body.push(Op::Call {
                    obj: Reg(6),
                    class,
                    method,
                    arg_bytes: 12,
                    ret_bytes: 8,
                    args: if arg_para { vec![Reg(1)] } else { vec![] },
                });
                chrome_body.push(Op::Work { micros: 10_000 });
            }
            body.push(Op::Repeat {
                n: (per_phase_iters / 8).max(1),
                body: chrome_body,
            });
        }
        // Periodic document autosave (FileIo native).
        body.push(Op::GetSlot {
            slot: SLOT_PARA_BASE + paragraphs as u16 + offset_of(document, &mut 0),
            dst: Reg(6),
        });
        body.push(Op::Call {
            obj: Reg(6),
            class: document,
            method: autosave,
            arg_bytes: 32,
            ret_bytes: 8,
            args: vec![],
        });
    }

    let m = b.add_method(main, MethodDef::new("main", body));
    let entry_slots = SLOT_PARA_BASE + paragraphs as u16 + 16;
    let program: Arc<Program> = Arc::new(
        b.build(main, m, 2_000, entry_slots)
            .expect("JavaNote model assembles"),
    );
    App {
        name: "JavaNote",
        description: "Simple text editor",
        resource_demands: "Content-based, memory intensive",
        program,
    }
}

/// Stable slot offsets for the core singletons parked after the paragraph
/// region. Offsets are derived from the class id so the load and use sites
/// agree without shared state.
fn offset_of(class: aide_vm::ClassId, _: &mut u8) -> u16 {
    (class.0 % 16) as u16
}
