//! Dia — "image manipulation program; content-based, memory intensive".
//!
//! An image editor: the open image is tiled into pixel arrays, filter
//! passes produce retained history layers (live memory grows past the
//! heap), and the natively implemented canvas redraws from tile data every
//! step — so after offloading, redraws become remote reads. Dia's
//! remote-execution overhead sits between JavaNote's (colder cut) and
//! Biomer's (hotter cut): ≈8.5% under the initial policy (Figure 6).

use std::sync::Arc;

use aide_vm::{MethodDef, NativeKind, Op, Program, ProgramBuilder, Reg};

use crate::common::{rotating_groups, Scale, Web, WebSpec};
use crate::App;

/// Tiles of the base image (each 20 KB of pixels ≈ a 2 MB image).
const BASE_TILES: u32 = 100;
/// History layers retained while filtering (each adds tiles).
const HISTORY_LAYERS: u32 = 10;
/// Tiles per history layer.
const LAYER_TILES: u32 = 28;
/// Editing steps.
const STEPS: u32 = 1_200;

const SLOT_CANVAS: u16 = 0;
const SLOT_IMAGE: u16 = 1;
const SLOT_FILTER_BASE: u16 = 2; // 4 filters, then toolbar/palette/layer
const SLOT_WEB_BASE: u16 = 12;
const WEB_CLASSES: usize = 58;
const SLOT_TILE_BASE: u16 = 12 + WEB_CLASSES as u16;

/// Builds the Dia model at the given scale.
///
/// # Panics
///
/// Panics only if the internal program assembly is inconsistent (a bug).
pub fn dia(scale: Scale) -> App {
    let base_tiles = scale.at_least(BASE_TILES, 8);
    let layers = scale.at_least(HISTORY_LAYERS, 2);
    let layer_tiles = scale.at_least(LAYER_TILES, 4);
    let steps = scale.at_least(STEPS, 10);

    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");

    // Natively implemented display layer.
    let canvas = b.add_native_class("Canvas");
    let toolbar = b.add_native_class("Toolbar");
    let palette = b.add_native_class("Palette");

    // Offloadable image model.
    let image = b.add_class("Image");
    let layer = b.add_class("Layer");
    let histogram = b.add_class("Histogram");
    let tile = b.add_array_class("PixelArray");
    let filters = [
        b.add_class("BlurFilter"),
        b.add_class("SharpenFilter"),
        b.add_class("ColorMapFilter"),
        b.add_class("DistortFilter"),
    ];

    let web = Web::build(
        &mut b,
        "DiaUi",
        WebSpec {
            classes: WEB_CLASSES,
            neighbors: (3, 5),
            touch_work: (200, 500),
            leaf_work: 15,
            read_bytes: 20,
            temp_bytes: 180,
            instance_bytes: (50, 500),
            seed: 0xD1A_0001,
        },
    );

    // Canvas::redraw(tile) — reads pixels and blits (client-bound).
    let redraw = b.add_method(
        canvas,
        MethodDef::new(
            "redraw",
            vec![
                Op::Read {
                    obj: Reg(0),
                    bytes: 2_048,
                },
                Op::Work { micros: 38_000 },
                Op::Native {
                    kind: NativeKind::Framebuffer,
                    work_micros: 16_000,
                    arg_bytes: 2_048,
                    ret_bytes: 0,
                },
            ],
        ),
    );
    let toolbar_poll = b.add_method(
        toolbar,
        MethodDef::new(
            "poll",
            vec![
                Op::Work { micros: 2_000 },
                Op::Native {
                    kind: NativeKind::UiToolkit,
                    work_micros: 1_000,
                    arg_bytes: 48,
                    ret_bytes: 16,
                },
            ],
        ),
    );
    let palette_pick = b.add_method(
        palette,
        MethodDef::new(
            "pick",
            vec![
                Op::Work { micros: 1_200 },
                Op::Native {
                    kind: NativeKind::Framebuffer,
                    work_micros: 600,
                    arg_bytes: 96,
                    ret_bytes: 4,
                },
            ],
        ),
    );

    // Filter::apply(tile) — pixel crunching with stateless string/math
    // style natives (memcpy-ish row operations).
    let mut filter_apply = Vec::new();
    for &f in &filters {
        filter_apply.push(b.add_method(
            f,
            MethodDef::new(
                "apply",
                vec![
                    Op::Read {
                        obj: Reg(0),
                        bytes: 4_096,
                    },
                    Op::Work { micros: 25_000 },
                    Op::Native {
                        kind: NativeKind::StringOp,
                        work_micros: 3_000,
                        arg_bytes: 256,
                        ret_bytes: 256,
                    },
                    Op::Write {
                        obj: Reg(0),
                        bytes: 4_096,
                    },
                ],
            ),
        ));
    }
    let histo_update = b.add_method(
        histogram,
        MethodDef::new(
            "update",
            vec![
                Op::Read {
                    obj: Reg(0),
                    bytes: 1_024,
                },
                Op::Work { micros: 6_000 },
            ],
        ),
    );
    let image_commit = b.add_method(
        image,
        MethodDef::new(
            "commit",
            vec![
                Op::Work { micros: 4_000 },
                Op::Native {
                    kind: NativeKind::FileIo,
                    work_micros: 3_000,
                    arg_bytes: 4_096,
                    ret_bytes: 8,
                },
            ],
        ),
    );

    // ---- main --------------------------------------------------------
    let mut body: Vec<Op> = Vec::new();
    for (class, bytes, slot) in [(canvas, 4_000u32, SLOT_CANVAS), (image, 2_000, SLOT_IMAGE)] {
        body.push(Op::New {
            class,
            scalar_bytes: bytes,
            ref_slots: 0,
            dst: Reg(0),
        });
        body.push(Op::PutSlot { slot, src: Reg(0) });
    }
    for (i, &f) in filters.iter().enumerate() {
        body.push(Op::New {
            class: f,
            scalar_bytes: 600,
            ref_slots: 0,
            dst: Reg(0),
        });
        body.push(Op::PutSlot {
            slot: SLOT_FILTER_BASE + i as u16,
            src: Reg(0),
        });
    }
    body.push(Op::New {
        class: toolbar,
        scalar_bytes: 800,
        ref_slots: 0,
        dst: Reg(0),
    });
    body.push(Op::PutSlot {
        slot: SLOT_FILTER_BASE + 4,
        src: Reg(0),
    });
    body.push(Op::New {
        class: palette,
        scalar_bytes: 700,
        ref_slots: 0,
        dst: Reg(0),
    });
    body.push(Op::PutSlot {
        slot: SLOT_FILTER_BASE + 5,
        src: Reg(0),
    });
    body.extend(web.setup_ops(SLOT_WEB_BASE));

    // Open the image: base tiles.
    let mut tile_cursor: u16 = 0;
    for _ in 0..base_tiles {
        body.push(Op::New {
            class: tile,
            scalar_bytes: 20_000,
            ref_slots: 0,
            dst: Reg(1),
        });
        body.push(Op::PutSlot {
            slot: SLOT_TILE_BASE + tile_cursor,
            src: Reg(1),
        });
        tile_cursor += 1;
    }

    // Editing: `layers` filter passes, each followed by interactive steps.
    let steps_per_layer = (steps / layers).max(1);
    let groups = rotating_groups(web.len(), 12.min(web.len()), layers as usize);
    // Front-load history growth into the first 60% of the passes so the
    // heap wall arrives mid-session.
    let load_passes = (layers * 6 / 10).max(1);
    let tiles_per_pass = layers * layer_tiles / load_passes;
    for (li, group) in groups.iter().enumerate().take(layers as usize) {
        // The filter pass allocates a history layer of new tiles.
        body.push(Op::New {
            class: layer,
            scalar_bytes: 400,
            ref_slots: 0,
            dst: Reg(2),
        });
        body.push(Op::PutSlot {
            slot: SLOT_FILTER_BASE + 6,
            src: Reg(2),
        });
        let this_pass_tiles = if (li as u32) < load_passes {
            tiles_per_pass
        } else {
            0
        };
        for _ in 0..this_pass_tiles {
            body.push(Op::New {
                class: tile,
                scalar_bytes: 20_000,
                ref_slots: 0,
                dst: Reg(1),
            });
            body.push(Op::PutSlot {
                slot: SLOT_TILE_BASE + tile_cursor,
                src: Reg(1),
            });
            tile_cursor += 1;
        }

        // Interactive steps for this layer.
        let visible_tile = SLOT_TILE_BASE + (li as u16 * layer_tiles as u16) % tile_cursor.max(1);
        let filter = filters[li % filters.len()];
        let apply = filter_apply[li % filters.len()];
        let mut step_body = vec![
            Op::GetSlot {
                slot: visible_tile,
                dst: Reg(1),
            },
            Op::GetSlot {
                slot: SLOT_FILTER_BASE + (li % filters.len()) as u16,
                dst: Reg(2),
            },
            Op::GetSlot {
                slot: SLOT_CANVAS,
                dst: Reg(3),
            },
            // Apply the filter to the visible tile, then redraw — the
            // redraw reads tile data back into the canvas.
            Op::Call {
                obj: Reg(2),
                class: filter,
                method: apply,
                arg_bytes: 32,
                ret_bytes: 16,
                args: vec![Reg(1)],
            },
            Op::Call {
                obj: Reg(3),
                class: canvas,
                method: redraw,
                arg_bytes: 16,
                ret_bytes: 0,
                args: vec![Reg(1)],
            },
        ];
        // Histogram over the tile + chrome.
        step_body.push(Op::New {
            class: histogram,
            scalar_bytes: 2_100,
            ref_slots: 0,
            dst: Reg(5),
        });
        step_body.push(Op::Call {
            obj: Reg(5),
            class: histogram,
            method: histo_update,
            arg_bytes: 16,
            ret_bytes: 32,
            args: vec![Reg(1)],
        });
        step_body.push(Op::Clear { reg: Reg(5) });
        step_body.extend(web.touch_ops(SLOT_WEB_BASE, group.iter().copied()));
        step_body.push(Op::Work { micros: 9_000 });

        body.push(Op::Repeat {
            n: steps_per_layer,
            body: step_body,
        });

        // Toolbar/palette chrome at a quarter of the step rate.
        let mut chrome = Vec::new();
        for (slot, class, method) in [
            (SLOT_FILTER_BASE + 4, toolbar, toolbar_poll),
            (SLOT_FILTER_BASE + 5, palette, palette_pick),
        ] {
            chrome.push(Op::GetSlot { slot, dst: Reg(6) });
            chrome.push(Op::Call {
                obj: Reg(6),
                class,
                method,
                arg_bytes: 12,
                ret_bytes: 8,
                args: vec![],
            });
            chrome.push(Op::Work { micros: 12_000 });
        }
        body.push(Op::Repeat {
            n: (steps_per_layer / 4).max(1),
            body: chrome,
        });

        // Commit the layer (file I/O native on the image class).
        body.push(Op::GetSlot {
            slot: SLOT_IMAGE,
            dst: Reg(6),
        });
        body.push(Op::Call {
            obj: Reg(6),
            class: image,
            method: image_commit,
            arg_bytes: 64,
            ret_bytes: 8,
            args: vec![],
        });
    }

    let m = b.add_method(main, MethodDef::new("main", body));
    let entry_slots =
        SLOT_TILE_BASE + (base_tiles + load_passes * tiles_per_pass + layer_tiles) as u16 + 4;
    let program: Arc<Program> = Arc::new(
        b.build(main, m, 2_000, entry_slots)
            .expect("Dia model assembles"),
    );
    App {
        name: "Dia",
        description: "Image manipulation program",
        resource_demands: "Content-based, memory intensive",
        program,
    }
}
