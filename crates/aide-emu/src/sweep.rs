//! Sweeps: one recorded run under many configurations.
//!
//! Two grids run on one driver, `parallel_map`: at most
//! `available_parallelism()` scoped threads take the next index as they
//! finish, and each result lands in its index's slot, so a report is
//! byte-stable whatever the scheduling.
//!
//! * [`sweep_memory_policies`] — the experiment behind Figure 7. "The
//!   partition triggering threshold was varied from when 2% to 50% of
//!   memory remained free, the tolerance to low-memory signals was varied
//!   from one to three events, and the minimum amount of memory to free was
//!   varied from 10% to 80%." The emulator's repeatable replays make this a
//!   grid search over [`EmulatorConfig`] variants.
//! * [`sweep`] — what-if analysis of a live run. Because a [`ReplayTrace`]
//!   carries *every* nondeterministic input, the decision pipeline can be
//!   re-run under a different [`PolicyKind`] or [`PartitionerConfig`] and
//!   the alternative history is exactly as trustworthy as the recorded one
//!   — same GC stream, same graph deltas, same heap snapshots, only the
//!   decision logic swapped.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use aide_core::{PartitionerConfig, PolicyKind, TriggerConfig};
use aide_telemetry::{PlatformEvent, TimedEvent};

use crate::emulator::{Emulator, EmulatorConfig, EmulatorReport};
use crate::event::ReplayTrace;
use crate::replay::{bless, replay_with, ReplayError};
use crate::trace::Trace;

/// Runs `job` on every item, on at most `available_parallelism()` scoped
/// threads, and returns the results in item order.
fn parallel_map<T: Sync, R: Send>(items: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(items.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter only hands out indices;
                        // results come back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, job(item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was taken by a worker"))
        .collect()
}

/// One memory-policy parameter combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyParams {
    /// Trigger when less than this fraction of memory remains free.
    pub trigger_free_fraction: f64,
    /// Successive low-memory reports required (tolerance).
    pub tolerance: u32,
    /// Minimum fraction of the heap a partitioning must free.
    pub min_free_fraction: f64,
}

impl std::fmt::Display for PolicyParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trigger<{:.0}% x{} free>={:.0}%",
            self.trigger_free_fraction * 100.0,
            self.tolerance,
            self.min_free_fraction * 100.0
        )
    }
}

/// The grid the paper sweeps in Figure 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyGrid {
    /// Trigger thresholds (fraction of memory still free).
    pub trigger_free: Vec<f64>,
    /// Tolerances (successive low-memory reports).
    pub tolerance: Vec<u32>,
    /// Minimum memory-freed fractions.
    pub min_free: Vec<f64>,
}

impl Default for PolicyGrid {
    fn default() -> Self {
        PolicyGrid {
            trigger_free: vec![0.02, 0.05, 0.10, 0.20, 0.35, 0.50],
            tolerance: vec![1, 2, 3],
            min_free: vec![0.10, 0.20, 0.40, 0.60, 0.80],
        }
    }
}

impl PolicyGrid {
    /// Enumerates every parameter combination.
    pub fn combinations(&self) -> Vec<PolicyParams> {
        let mut out = Vec::new();
        for &t in &self.trigger_free {
            for &tol in &self.tolerance {
                for &mf in &self.min_free {
                    out.push(PolicyParams {
                        trigger_free_fraction: t,
                        tolerance: tol,
                        min_free_fraction: mf,
                    });
                }
            }
        }
        out
    }
}

/// A sweep result: the parameters and the replay they produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The policy parameters of this point.
    pub params: PolicyParams,
    /// The replay under those parameters.
    pub report: EmulatorReport,
}

/// Replays `trace` under every combination in `grid`, holding the rest of
/// `base` fixed, on the sweep driver.
pub fn sweep_memory_policies(
    trace: &Trace,
    base: EmulatorConfig,
    grid: &PolicyGrid,
) -> Vec<SweepPoint> {
    parallel_map(&grid.combinations(), |&params| {
        let mut cfg = base.clone();
        cfg.trigger = TriggerConfig {
            low_free_fraction: params.trigger_free_fraction,
            // Barren cycles count as pressure up to the trigger level
            // (at high thresholds any barren cycle is pressure).
            barren_concern_fraction: params.trigger_free_fraction.max(0.10),
            consecutive_reports: params.tolerance,
        };
        cfg.policy = PolicyKind::Memory {
            min_free_fraction: params.min_free_fraction,
        };
        let report = Emulator::new(cfg).replay(trace);
        SweepPoint { params, report }
    })
}

/// Picks the completed sweep point with the lowest total time; falls back
/// to `None` when every combination failed (OOM everywhere).
pub fn best_point(points: &[SweepPoint]) -> Option<&SweepPoint> {
    points
        .iter()
        .filter(|p| p.report.completed && p.report.offloaded())
        .min_by(|a, b| {
            a.report
                .total_seconds()
                .partial_cmp(&b.report.total_seconds())
                .expect("times are finite")
        })
}

/// One policy/tuning combination to evaluate against a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepVariant {
    /// Display name ("memory-0.3", "recorded", ...).
    pub name: String,
    /// The policy this variant decides with.
    pub policy: PolicyKind,
    /// The partitioner tuning this variant runs under.
    pub partitioner: PartitionerConfig,
}

/// How one trigger epoch resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EpochOutcome {
    /// A winner was chosen, moving this many bytes to the surrogate.
    Offload {
        /// Bytes the chosen partitioning moves off-client.
        bytes: u64,
    },
    /// Candidates were scored but none accepted.
    Decline,
    /// The dirty-region shortcut skipped evaluation.
    Skip,
}

impl EpochOutcome {
    fn bytes(self) -> u64 {
        match self {
            EpochOutcome::Offload { bytes } => bytes,
            _ => 0,
        }
    }
}

/// Per-epoch decisions extracted from a timeline: each `TriggerFired`
/// resolves to the first winner/decline/skip event that follows it.
pub fn decision_outcomes(timeline: &[TimedEvent]) -> Vec<EpochOutcome> {
    let mut outcomes = Vec::new();
    let mut open = false;
    for timed in timeline {
        let outcome = match timed.event {
            PlatformEvent::TriggerFired { .. } => {
                open = true;
                continue;
            }
            PlatformEvent::WinnerChosen { offload_bytes, .. } => EpochOutcome::Offload {
                bytes: offload_bytes,
            },
            PlatformEvent::OffloadDeclined { .. } => EpochOutcome::Decline,
            PlatformEvent::EpochSkipped { .. } => EpochOutcome::Skip,
            _ => continue,
        };
        if std::mem::take(&mut open) {
            outcomes.push(outcome);
        }
    }
    outcomes
}

/// A variant's sweep result, compared epoch-by-epoch against the
/// recorded baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantOutcome {
    /// Variant name.
    pub name: String,
    /// Epochs where this variant chose a winner.
    pub offloads: usize,
    /// Epochs where this variant declined to offload.
    pub declines: usize,
    /// Epochs the dirty-region shortcut skipped.
    pub skips: usize,
    /// Total bytes this variant would have moved to the surrogate.
    pub offloaded_bytes: u64,
    /// Per-epoch decisions, aligned with the baseline's trigger stream.
    pub decisions: Vec<EpochOutcome>,
    /// Fraction of baseline epochs where the variant made the same kind
    /// of decision (offload/decline/skip).
    pub agreement_with_baseline: f64,
    /// Fraction of baseline epochs where the variant offloaded at least
    /// as many bytes as the recorded run.
    pub win_fraction: f64,
    /// Total bytes of heap relief the recorded run achieved that this
    /// variant did not (sum over epochs of `max(0, baseline − variant)`).
    pub regret_bytes: u64,
}

/// Baseline summary included in a [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineSummary {
    /// Trigger epochs in the recorded run.
    pub epochs: usize,
    /// Epochs the recorded run offloaded.
    pub offloads: usize,
    /// Bytes the recorded run moved to the surrogate.
    pub offloaded_bytes: u64,
    /// Per-epoch recorded decisions.
    pub decisions: Vec<EpochOutcome>,
}

/// The full result of a sweep, serializable as `BENCH_replay.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Application the trace was recorded from.
    pub app: String,
    /// Recorded inputs in the trace.
    pub input_events: usize,
    /// The recorded run's decisions.
    pub baseline: BaselineSummary,
    /// One outcome per variant, in the order given.
    pub variants: Vec<VariantOutcome>,
}

fn compare(name: &str, decisions: Vec<EpochOutcome>, baseline: &[EpochOutcome]) -> VariantOutcome {
    let offloads = decisions
        .iter()
        .filter(|o| matches!(o, EpochOutcome::Offload { .. }))
        .count();
    let declines = decisions
        .iter()
        .filter(|o| matches!(o, EpochOutcome::Decline))
        .count();
    let skips = decisions
        .iter()
        .filter(|o| matches!(o, EpochOutcome::Skip))
        .count();
    let offloaded_bytes = decisions.iter().map(|o| o.bytes()).sum();
    let epochs = baseline.len();
    let mut agreed = 0usize;
    let mut wins = 0usize;
    let mut regret_bytes = 0u64;
    for (i, base) in baseline.iter().enumerate() {
        let ours = decisions.get(i).copied();
        if ours.is_some_and(|o| std::mem::discriminant(&o) == std::mem::discriminant(base)) {
            agreed += 1;
        }
        let ours_bytes = ours.map(EpochOutcome::bytes).unwrap_or(0);
        if ours_bytes >= base.bytes() {
            wins += 1;
        }
        regret_bytes += base.bytes().saturating_sub(ours_bytes);
    }
    let frac = |n: usize| {
        if epochs == 0 {
            1.0
        } else {
            n as f64 / epochs as f64
        }
    };
    VariantOutcome {
        name: name.to_string(),
        offloads,
        declines,
        skips,
        offloaded_bytes,
        decisions,
        agreement_with_baseline: frac(agreed),
        win_fraction: frac(wins),
        regret_bytes,
    }
}

/// A standard four-way variant grid around the recorded configuration:
/// the recorded policy itself (control), a lenient and a greedy memory
/// policy, and the combined memory+time policy. The control variant
/// doubles as a replay check — it must agree with the baseline on every
/// epoch.
pub fn default_variants(trace: &ReplayTrace) -> Vec<SweepVariant> {
    let cfg = &trace.header.config;
    vec![
        SweepVariant {
            name: "recorded".into(),
            policy: cfg.policy,
            partitioner: cfg.partitioner,
        },
        SweepVariant {
            name: "memory-lenient-0.1".into(),
            policy: PolicyKind::Memory {
                min_free_fraction: 0.1,
            },
            partitioner: cfg.partitioner,
        },
        SweepVariant {
            name: "memory-greedy-0.5".into(),
            policy: PolicyKind::Memory {
                min_free_fraction: 0.5,
            },
            partitioner: cfg.partitioner,
        },
        SweepVariant {
            name: "combined-0.2-m0.1".into(),
            policy: PolicyKind::Combined {
                min_free_fraction: 0.2,
                margin: 0.1,
            },
            partitioner: cfg.partitioner,
        },
    ]
}

/// Replays `trace` under every variant on the sweep driver and compares
/// each alternative history against the recorded baseline.
///
/// # Errors
///
/// Propagates the first variant's [`ReplayError`], by variant order.
pub fn sweep(trace: &ReplayTrace, variants: &[SweepVariant]) -> Result<SweepReport, ReplayError> {
    let baseline_timeline = if trace.baseline.is_empty() {
        bless(trace)?
    } else {
        trace.baseline.clone()
    };
    let baseline = decision_outcomes(&baseline_timeline);

    let timelines = parallel_map(variants, |variant| {
        let policy = variant.policy.build(
            trace.header.config.comm,
            trace.header.config.surrogate_speed,
        );
        replay_with(trace, policy.as_ref(), variant.partitioner)
    });
    let mut outcomes = Vec::with_capacity(variants.len());
    for (variant, timeline) in variants.iter().zip(timelines) {
        outcomes.push(compare(
            &variant.name,
            decision_outcomes(&timeline?),
            &baseline,
        ));
    }

    Ok(SweepReport {
        app: trace.header.app.clone(),
        input_events: trace.inputs.len(),
        baseline: BaselineSummary {
            epochs: baseline.len(),
            offloads: baseline
                .iter()
                .filter(|o| matches!(o, EpochOutcome::Offload { .. }))
                .count(),
            offloaded_bytes: baseline.iter().map(|o| o.bytes()).sum(),
            decisions: baseline,
        },
        variants: outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_cartesian_product() {
        let grid = PolicyGrid::default();
        let combos = grid.combinations();
        assert_eq!(combos.len(), 6 * 3 * 5);
        // All combinations distinct.
        for (i, a) in combos.iter().enumerate() {
            for b in combos.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn params_display_is_readable() {
        let p = PolicyParams {
            trigger_free_fraction: 0.05,
            tolerance: 3,
            min_free_fraction: 0.20,
        };
        assert_eq!(p.to_string(), "trigger<5% x3 free>=20%");
    }

    #[test]
    fn small_grid_is_supported() {
        let grid = PolicyGrid {
            trigger_free: vec![0.05],
            tolerance: vec![1],
            min_free: vec![0.2, 0.4],
        };
        assert_eq!(grid.combinations().len(), 2);
    }
}
