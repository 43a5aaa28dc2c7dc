//! What the interpreter's verdict tests share (this crate's, and by
//! `#[path]` aide-apps' `vm_differential`): a hook that records every event
//! verbatim, and the committed verdicts a run is held to.
//!
//! A verdict is one fixture line: the run's outcome, its event count, and an
//! FNV-1a-64 digest of the events' `Debug` renderings. `Debug` prints every
//! `f64` exactly, so outcome and digest compare clock charges bit for bit.
//! The committed verdicts were blessed while the seed tree-walking
//! interpreter still ran beside the register VM, with both agreeing on
//! every input. Re-bless after an intentional change with `AIDE_BLESS=1`:
//!
//! ```sh
//! AIDE_BLESS=1 cargo test -p aide-vm --test flat_props
//! ```

// Each suite uses its own subset.
#![allow(dead_code)]

use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use aide_vm::{
    ClassId, GcReport, Interaction, Machine, MethodId, NativeKind, ObjectId, ObjectRecord, Program,
    RunSummary, RuntimeHooks, VmConfig, VmResult,
};
use serde::{Deserialize, Serialize};

/// One recorded hook event — the full observable stream, in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Ev {
    Interaction(Interaction),
    Alloc {
        class: ClassId,
        object: ObjectId,
        bytes: u64,
    },
    Free {
        class: ClassId,
        objects: u64,
        bytes: u64,
    },
    Work {
        class: ClassId,
        micros: f64,
    },
    Native {
        caller: ClassId,
        kind: NativeKind,
        work_micros: u32,
        bytes: u64,
        remote: bool,
    },
    StaticAccess {
        accessor: ClassId,
        class: ClassId,
        bytes: u64,
        remote: bool,
    },
    MethodExit {
        class: ClassId,
        method: MethodId,
    },
    Gc {
        cycle: u64,
        freed_objects: u64,
        freed_bytes: u64,
    },
}

/// Records every hook event verbatim. It asks for the work boundary unless
/// `free_running`, in which case bursts run past a `Work` as they do for a
/// sink that takes slices; the stream must be the same either way.
#[derive(Default)]
pub struct Recorder {
    free_running: bool,
    events: Mutex<Vec<Ev>>,
}

impl Recorder {
    pub fn events(&self) -> Vec<Ev> {
        self.events.lock().expect("recorder lock").clone()
    }

    fn push(&self, event: Ev) {
        self.events.lock().expect("recorder lock").push(event);
    }
}

impl RuntimeHooks for Recorder {
    fn on_interaction(&self, event: Interaction) {
        self.push(Ev::Interaction(event));
    }
    fn on_alloc(&self, class: ClassId, object: ObjectId, bytes: u64) {
        self.push(Ev::Alloc {
            class,
            object,
            bytes,
        });
    }
    fn on_free(&self, class: ClassId, objects: u64, bytes: u64) {
        self.push(Ev::Free {
            class,
            objects,
            bytes,
        });
    }
    fn on_work(&self, class: ClassId, micros: f64) {
        self.push(Ev::Work { class, micros });
    }
    fn on_native(
        &self,
        caller: ClassId,
        kind: NativeKind,
        work_micros: u32,
        bytes: u64,
        remote: bool,
    ) {
        self.push(Ev::Native {
            caller,
            kind,
            work_micros,
            bytes,
            remote,
        });
    }
    fn on_static_access(&self, accessor: ClassId, class: ClassId, bytes: u64, remote: bool) {
        self.push(Ev::StaticAccess {
            accessor,
            class,
            bytes,
            remote,
        });
    }
    fn on_method_exit(&self, class: ClassId, method: MethodId) {
        self.push(Ev::MethodExit { class, method });
    }
    fn on_gc(&self, report: &GcReport) {
        self.push(Ev::Gc {
            cycle: report.cycle,
            freed_objects: report.freed_objects,
            freed_bytes: report.freed_bytes,
        });
    }
    fn needs_work_boundary(&self) -> bool {
        !self.free_running
    }
}

/// Runs `program`'s entry on a fresh machine, recording every event.
pub fn run(program: &Arc<Program>, config: VmConfig) -> (VmResult<RunSummary>, Vec<Ev>) {
    run_with(program, config, None, false)
}

/// As [`run`], with the call depth limited to `max_depth` (the machine's
/// default when `None`) and a [`Recorder`] that is `free_running` or not.
pub fn run_with(
    program: &Arc<Program>,
    config: VmConfig,
    max_depth: Option<usize>,
    free_running: bool,
) -> (VmResult<RunSummary>, Vec<Ev>) {
    let rec = Arc::new(Recorder {
        free_running,
        ..Recorder::default()
    });
    let mut machine = Machine::with_hooks(program.clone(), config, rec.clone());
    if let Some(depth) = max_depth {
        machine.set_max_depth(depth);
    }
    let result = machine.run_entry();
    (result, rec.events())
}

/// A machine on `program` whose VM holds, pinned as a peer's objects are,
/// `objects` — each an id and a class with 32 scalar bytes and no slots:
/// receivers for [`Machine::run_windows`].
pub fn holding(
    program: Arc<Program>,
    config: VmConfig,
    hooks: Arc<dyn RuntimeHooks>,
    objects: &[(ObjectId, ClassId)],
) -> Machine {
    let machine = Machine::with_hooks(program, config, hooks);
    {
        let mut vm = machine.vm().lock();
        for &(id, class) in objects {
            vm.heap_mut()
                .migrate_in(id, ObjectRecord::new(class, 32, 0))
                .expect("the heap holds the receivers");
            vm.external_root_inc(id);
        }
    }
    machine
}

/// The fixture line for one input: `name`, then the event count, the digest
/// of `events` and `outcome`, each rendered with `Debug`.
pub fn verdict(name: &str, outcome: &impl Debug, events: &[impl Debug]) -> String {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for event in events {
        for byte in format!("{event:?}\n").bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!(
        "{name}\tevents={}\tdigest={digest:016x}\toutcome={outcome:?}",
        events.len()
    )
}

/// Holds `lines` to the committed `tests/fixtures/verdicts/<file>`, one per
/// line and in order; with `AIDE_BLESS` set, writes them there first.
pub fn check_verdicts(file: &str, lines: &[String]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/verdicts")
        .join(file);
    if std::env::var_os("AIDE_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("fixture dir");
        std::fs::write(&path, lines.join("\n") + "\n").expect("bless verdicts");
    }
    let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "verdicts {} unreadable: {e} (re-bless with AIDE_BLESS=1)",
            path.display()
        )
    });
    let committed: Vec<&str> = on_disk.lines().collect();
    for (line, want) in lines.iter().zip(&committed) {
        let name = line.split('\t').next().unwrap_or_default();
        assert_eq!(
            line.as_str(),
            *want,
            "{file}: {name} drifted from its committed verdict"
        );
    }
    assert_eq!(
        lines.len(),
        committed.len(),
        "{file}: input count differs from the committed verdicts"
    );
}
