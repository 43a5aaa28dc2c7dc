//! Voxel — "fractal landscape generator; CPU intensive, interactive".
//!
//! A frame loop: the natively implemented display and input layers do the
//! interactive half of the work on the client; the generator/eroder/shader
//! pipeline is offloadable compute that leans on stateless math natives
//! (`Math.sin`, `Math.sqrt` per terrain patch) and shares one primitive
//! integer-array class between two unrelated uses — height maps (generator
//! side) and pixel rows (display side). Exactly the combination the §5.2
//! enhancements target: the initial offload is *slower* than local
//! execution because every math call bounces back to the client, while the
//! Native and Array enhancements turn offloading beneficial (Figure 10).

use std::sync::Arc;

use aide_vm::{MethodDef, NativeKind, Op, Program, ProgramBuilder, Reg};

use crate::common::{rotating_groups, Scale, Web, WebSpec};
use crate::App;

/// Frames in the interactive session.
const FRAMES: u32 = 300;
/// Math-native calls per generation batch (paper: per terrain patch).
const MATH_CALLS_PER_FRAME: u32 = 400;

const SLOT_DISPLAY: u16 = 0;
const SLOT_GENERATOR: u16 = 1;
const SLOT_EROSION: u16 = 2;
const SLOT_SHADER: u16 = 3;
const SLOT_CAMERA: u16 = 4;
const SLOT_INPUT: u16 = 5;
const SLOT_HEIGHTMAP: u16 = 6;
const SLOT_PIXELS: u16 = 7;
const SLOT_WEB_BASE: u16 = 8;
const WEB_CLASSES: usize = 18;

/// Builds the Voxel model at the given scale.
///
/// # Panics
///
/// Panics only if the internal program assembly is inconsistent (a bug).
pub fn voxel(scale: Scale) -> App {
    let frames = scale.at_least(FRAMES, 6);
    let math_calls = scale.at_least(MATH_CALLS_PER_FRAME, 20);

    let mut b = ProgramBuilder::new();
    let main = b.add_class("Main");
    let display = b.add_native_class("Display");
    let input = b.add_native_class("InputHandler");
    let generator = b.add_class("Generator");
    let erosion = b.add_class("Erosion");
    let shader = b.add_class("Shader");
    let camera = b.add_class("Camera");
    let intarray = b.add_array_class("IntArray");

    let web = Web::build(
        &mut b,
        "Vox",
        WebSpec {
            classes: WEB_CLASSES,
            neighbors: (2, 4),
            touch_work: (100, 300),
            leaf_work: 10,
            read_bytes: 16,
            temp_bytes: 90,
            instance_bytes: (40, 300),
            seed: 0x70_0e1,
        },
    );

    // Display::blit(pixelrow) — reads a pixel row, draws it (client).
    let blit = b.add_method(
        display,
        MethodDef::new(
            "blit",
            vec![
                Op::Read {
                    obj: Reg(0),
                    bytes: 6_000,
                },
                Op::Work { micros: 500_000 },
                Op::Native {
                    kind: NativeKind::Framebuffer,
                    work_micros: 30_000,
                    arg_bytes: 6_000,
                    ret_bytes: 0,
                },
            ],
        ),
    );
    let poll = b.add_method(
        input,
        MethodDef::new(
            "poll",
            vec![
                Op::Work { micros: 50_000 },
                Op::Native {
                    kind: NativeKind::UiToolkit,
                    work_micros: 10_000,
                    arg_bytes: 32,
                    ret_bytes: 32,
                },
            ],
        ),
    );

    // Generator::generate(heightmap) — fractal noise: Work plus a batch of
    // stateless math natives, writing the height map.
    let generate = b.add_method(
        generator,
        MethodDef::new(
            "generate",
            vec![
                Op::Work { micros: 150_000 },
                Op::Repeat {
                    n: math_calls / 2,
                    body: vec![Op::Native {
                        kind: NativeKind::Math,
                        work_micros: 150,
                        arg_bytes: 16,
                        ret_bytes: 8,
                    }],
                },
                Op::Write {
                    obj: Reg(0),
                    bytes: 8_192,
                },
            ],
        ),
    );
    let erode = b.add_method(
        erosion,
        MethodDef::new(
            "erode",
            vec![
                Op::Read {
                    obj: Reg(0),
                    bytes: 4_096,
                },
                Op::Work { micros: 100_000 },
                Op::Repeat {
                    n: math_calls / 4,
                    body: vec![Op::Native {
                        kind: NativeKind::Math,
                        work_micros: 120,
                        arg_bytes: 16,
                        ret_bytes: 8,
                    }],
                },
                Op::Write {
                    obj: Reg(0),
                    bytes: 4_096,
                },
            ],
        ),
    );
    // Shader::shade(heightmap, pixels) — reads terrain, writes pixel rows,
    // with a final math batch (lighting).
    let shade = b.add_method(
        shader,
        MethodDef::new(
            "shade",
            vec![
                Op::Read {
                    obj: Reg(0),
                    bytes: 8_192,
                },
                Op::Work { micros: 180_000 },
                Op::Repeat {
                    n: math_calls / 4,
                    body: vec![Op::Native {
                        kind: NativeKind::Math,
                        work_micros: 130,
                        arg_bytes: 16,
                        ret_bytes: 8,
                    }],
                },
                Op::Write {
                    obj: Reg(1),
                    bytes: 12_288,
                },
            ],
        ),
    );
    let track = b.add_method(
        camera,
        MethodDef::new(
            "track",
            vec![
                Op::Work { micros: 50_000 },
                Op::Repeat {
                    n: 40,
                    body: vec![Op::Native {
                        kind: NativeKind::Math,
                        work_micros: 100,
                        arg_bytes: 16,
                        ret_bytes: 8,
                    }],
                },
            ],
        ),
    );

    // ---- main --------------------------------------------------------
    let mut body: Vec<Op> = Vec::new();
    for (class, bytes, slot) in [
        (display, 5_000u32, SLOT_DISPLAY),
        (generator, 2_000, SLOT_GENERATOR),
        (erosion, 1_200, SLOT_EROSION),
        (shader, 1_800, SLOT_SHADER),
        (camera, 600, SLOT_CAMERA),
        (input, 400, SLOT_INPUT),
    ] {
        body.push(Op::New {
            class,
            scalar_bytes: bytes,
            ref_slots: 0,
            dst: Reg(0),
        });
        body.push(Op::PutSlot { slot, src: Reg(0) });
    }
    // Two unrelated uses of the same primitive-array class.
    body.push(Op::New {
        class: intarray,
        scalar_bytes: 262_144, // 256 KB height map
        ref_slots: 0,
        dst: Reg(0),
    });
    body.push(Op::PutSlot {
        slot: SLOT_HEIGHTMAP,
        src: Reg(0),
    });
    body.push(Op::New {
        class: intarray,
        scalar_bytes: 307_200, // 300 KB pixel rows
        ref_slots: 0,
        dst: Reg(0),
    });
    body.push(Op::PutSlot {
        slot: SLOT_PIXELS,
        src: Reg(0),
    });
    body.extend(web.setup_ops(SLOT_WEB_BASE));

    // Frame loop, in four variants rotating web usage.
    let groups = rotating_groups(web.len(), 6.min(web.len()), 4);
    for group in &groups {
        let mut frame = vec![
            Op::GetSlot {
                slot: SLOT_HEIGHTMAP,
                dst: Reg(0),
            },
            Op::GetSlot {
                slot: SLOT_PIXELS,
                dst: Reg(1),
            },
        ];
        for (slot, class, method, args) in [
            (SLOT_INPUT, input, poll, vec![]),
            (SLOT_GENERATOR, generator, generate, vec![Reg(0)]),
            (SLOT_EROSION, erosion, erode, vec![Reg(0)]),
            (SLOT_CAMERA, camera, track, vec![]),
            (SLOT_SHADER, shader, shade, vec![Reg(0), Reg(1)]),
        ] {
            frame.push(Op::GetSlot { slot, dst: Reg(3) });
            frame.push(Op::Call {
                obj: Reg(3),
                class,
                method,
                arg_bytes: 16,
                ret_bytes: 8,
                args,
            });
        }
        // Display: several row blits per frame (reads pixel rows).
        frame.push(Op::GetSlot {
            slot: SLOT_DISPLAY,
            dst: Reg(3),
        });
        for _ in 0..4 {
            frame.push(Op::Call {
                obj: Reg(3),
                class: display,
                method: blit,
                arg_bytes: 16,
                ret_bytes: 0,
                args: vec![Reg(1)],
            });
        }
        frame.extend(web.touch_ops(SLOT_WEB_BASE, group.iter().copied()));
        body.push(Op::Repeat {
            n: (frames / 4).max(1),
            body: frame,
        });
    }

    let m = b.add_method(main, MethodDef::new("main", body));
    let entry_slots = SLOT_WEB_BASE + WEB_CLASSES as u16 + 4;
    let program: Arc<Program> = Arc::new(
        b.build(main, m, 2_000, entry_slots)
            .expect("Voxel model assembles"),
    );
    App {
        name: "Voxel",
        description: "Fractal landscape generator",
        resource_demands: "CPU intensive, interactive",
        program,
    }
}
