//! The paper's evaluation as one program: every table and figure is a
//! [`Section`] that writes its rows to a `&mut dyn Write`, and the `repro`
//! binary runs them in the order of `experiments_output.txt` — the capture
//! `tests/capture.rs` regenerates and compares byte for byte.
//!
//! The workflow is the paper's own (§4): each application is recorded once
//! on an unconstrained heap ([`Workloads`]) and every section that needs it
//! replays that one trace. Sections print virtual-time and counted values
//! only, so their output is the same on every host; the claims the paper
//! makes about a figure's *shape* are asserts inside its section, so a
//! capture cannot be regenerated from a run that lost the reproduction.
//! See `EXPERIMENTS.md` for paper-vs-measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sections;

use std::cell::OnceCell;
use std::io::{self, Write};

use aide_apps::{biomer, biomer_cpu, dia, javanote, tracer, voxel, App, Scale};
use aide_core::{Platform, PlatformConfig, PlatformReport};
use aide_emu::{record_program, Emulator, EmulatorConfig, EmulatorReport, Trace};

/// The paper's §5.1 memory-experiment heap: 6 MB.
pub(crate) const PAPER_HEAP: u64 = 6 << 20;

/// The evaluation period for CPU experiments: enough accumulated work for
/// the execution graph to be representative before the first decision.
const CPU_EVAL_PERIOD_MICROS: f64 = 90_000_000.0;

/// One application and the trace of its unconstrained run, recorded the
/// first time a section asks for it.
pub(crate) struct Recorded {
    /// The application model.
    pub(crate) app: App,
    trace: OnceCell<Trace>,
}

impl Recorded {
    /// The app's run on an unconstrained "PC" (64 MB heap), like the paper's
    /// trace-extraction runs. This is the only place a trace is recorded, so
    /// a `repro` run records each workload at most once.
    pub(crate) fn trace(&self) -> &Trace {
        self.trace.get_or_init(|| {
            record_program(self.app.name, self.app.program.clone(), 64 << 20)
                .unwrap_or_else(|e| panic!("recording {} failed: {e}", self.app.name))
        })
    }
}

/// What the sections share: Table 1's five applications at the paper's
/// scale — Biomer in both of its scenarios — and the one prototype run
/// whose graphs are Figure 5.
pub struct Workloads {
    /// §5.1's memory experiments: JavaNote, Dia, Biomer.
    pub(crate) memory: [Recorded; 3],
    /// §5.2's processing experiments: Voxel, Tracer, and Biomer's
    /// compute-heavy scenario (a different program from `memory[2]`).
    pub(crate) cpu: [Recorded; 3],
    rescue: OnceCell<PlatformReport>,
}

impl Workloads {
    /// The paper-sized workloads.
    pub fn paper() -> Self {
        let scale = Scale(1.0);
        let unrecorded = |app| Recorded {
            app,
            trace: OnceCell::new(),
        };
        Workloads {
            memory: [javanote(scale), dia(scale), biomer(scale)].map(unrecorded),
            cpu: [voxel(scale), tracer(scale), biomer_cpu(scale)].map(unrecorded),
            rescue: OnceCell::new(),
        }
    }

    /// JavaNote, the application the prototype sections run.
    pub(crate) fn javanote(&self) -> &Recorded {
        &self.memory[0]
    }

    /// §5.1's run: JavaNote on the two-VM prototype with the paper's 6 MB
    /// client heap, rescued by one offload.
    pub(crate) fn rescue(&self) -> &PlatformReport {
        self.rescue.get_or_init(|| {
            let report = self.prototype(PlatformConfig::prototype(PAPER_HEAP));
            report.outcome.as_ref().expect("platform rescues JavaNote");
            assert!(report.offloaded());
            report
        })
    }

    /// [`rescue`](Workloads::rescue)'s report, if a section ran it.
    pub fn rescue_if_run(&self) -> Option<&PlatformReport> {
        self.rescue.get()
    }

    /// Runs JavaNote on the two-VM prototype under `config`.
    pub(crate) fn prototype(&self, config: PlatformConfig) -> PlatformReport {
        Platform::new(self.javanote().app.program.clone(), config).run()
    }
}

/// Replays `trace` under the paper's initial memory policy at 6 MB.
pub(crate) fn replay_memory_initial(trace: &Trace) -> EmulatorReport {
    Emulator::new(EmulatorConfig::paper_memory(PAPER_HEAP)).replay(trace)
}

/// The paper's CPU experiment setup with the two §5.2 enhancements on or
/// off.
fn cpu_config(natives: bool, arrays: bool) -> EmulatorConfig {
    let mut cfg = EmulatorConfig::paper_cpu(16 << 20, CPU_EVAL_PERIOD_MICROS);
    cfg.stateless_natives_local = natives;
    cfg.array_object_granularity = arrays;
    cfg
}

/// The four Figure 10 configurations (Initial / Native / Array / Combined).
pub(crate) fn fig10_configs() -> [(&'static str, EmulatorConfig); 4] {
    [
        ("Initial", cpu_config(false, false)),
        ("Native", cpu_config(true, false)),
        ("Array", cpu_config(false, true)),
        ("Combined", cpu_config(true, true)),
    ]
}

/// The paper's manual Biomer partition (found by hand, with both
/// enhancements): ForceField + energy terms + fragments.
pub(crate) fn biomer_manual_config() -> EmulatorConfig {
    let mut cfg = cpu_config(true, true);
    cfg.max_offloads = 0;
    cfg.forced_surrogate = Some(aide_apps::biomer_manual_partition());
    cfg
}

/// Formats seconds with one decimal.
pub fn s(v: f64) -> String {
    format!("{v:.1}s")
}

/// Formats a fraction as a percentage with one decimal.
pub(crate) fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Writes a section's rules-style header.
pub(crate) fn write_header(out: &mut dyn Write, title: &str, paper_ref: &str) -> io::Result<()> {
    let rule = "=".repeat(72);
    writeln!(out, "{rule}\n{title}\n(reproduces {paper_ref})\n{rule}")
}

/// Writes a two-column aligned row.
pub(crate) fn write_row(
    out: &mut dyn Write,
    label: &str,
    value: impl std::fmt::Display,
) -> io::Result<()> {
    writeln!(out, "  {label:<44} {value}")
}

/// [`write_header`] to stdout, for the host-time binaries.
pub fn header(title: &str, paper_ref: &str) {
    write_header(&mut io::stdout(), title, paper_ref).expect("stdout");
}

/// [`write_row`] to stdout, for the host-time binaries.
pub fn row(label: &str, value: impl std::fmt::Display) {
    write_row(&mut io::stdout(), label, value).expect("stdout");
}

/// One table or figure of the evaluation.
pub type Section = fn(&Workloads, &mut dyn Write) -> io::Result<()>;

/// Every section by name, in the order of `experiments_output.txt`.
pub const SECTIONS: [(&str, Section); 13] = [
    ("table1_apps", sections::table1_apps),
    ("exp_memory_avoidance", sections::exp_memory_avoidance),
    ("fig6_overhead", sections::fig6_overhead),
    ("fig8_native_calls", sections::fig8_native_calls),
    ("table2_metrics", sections::table2_metrics),
    ("monitor_overhead", sections::monitor_overhead),
    ("fig9_time_attribution", sections::fig9_time_attribution),
    ("fig10_cpu_offload", sections::fig10_cpu_offload),
    ("ablate_mincut", sections::ablate_mincut),
    ("ablate_gc", sections::ablate_gc),
    ("fig7_policy_sweep", sections::fig7_policy_sweep),
    ("failover_recovery", sections::failover_recovery),
    ("calibrate", sections::calibrate),
];

/// Writes the named sections — all of them when `names` is empty — to
/// `out` in [`SECTIONS`] order, a blank line between two.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] if a name is not in [`SECTIONS`] (before
/// anything runs); otherwise whatever `out` reports.
pub fn run(workloads: &Workloads, names: &[String], out: &mut dyn Write) -> io::Result<()> {
    if let Some(unknown) = names
        .iter()
        .find(|name| SECTIONS.iter().all(|(known, _)| known != name))
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no section named {unknown:?}"),
        ));
    }
    let selected = SECTIONS
        .iter()
        .filter(|(name, _)| names.is_empty() || names.iter().any(|n| n == name));
    for (i, (_, section)) in selected.enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        section(workloads, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(s(12.34), "12.3s");
        assert_eq!(pct(0.085), "8.5%");
    }

    #[test]
    fn fig10_configs_cover_the_four_variants() {
        let configs = fig10_configs();
        assert!(!configs[0].1.stateless_natives_local);
        assert!(configs[1].1.stateless_natives_local);
        assert!(configs[2].1.array_object_granularity);
        assert!(configs[3].1.stateless_natives_local && configs[3].1.array_object_granularity);
    }

    #[test]
    fn an_unknown_section_is_refused_before_anything_runs() {
        let mut out = Vec::new();
        let err = run(&Workloads::paper(), &["fig11".to_string()], &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
    }
}
