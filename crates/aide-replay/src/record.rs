//! Recording: capture every nondeterministic input of a live run.
//!
//! [`RecordingSource`] implements aide-core's [`NondetSource`] — GC
//! reports, trigger samples, migration outcomes, link deaths —
//! accumulating inputs in pipeline order. [`record_platform_run`] hands
//! one source to a [`Platform`], runs the program, and returns the
//! report together with the finished trace (whose baseline is the run's
//! flight-recorder timeline). The source belongs to its run, so
//! recordings may overlap.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use aide_core::{MigrationRecord, NondetSource, Platform, PlatformReport, TriggerSample};
use aide_vm::GcReport;

use crate::event::{ReplayEvent, ReplayTrace};

/// Captures every nondeterministic input crossing the seam.
pub struct RecordingSource {
    origin: Instant,
    inputs: Mutex<Vec<ReplayEvent>>,
}

impl Default for RecordingSource {
    fn default() -> Self {
        RecordingSource::new()
    }
}

impl RecordingSource {
    /// A fresh recorder; timestamps count from now.
    pub fn new() -> Self {
        RecordingSource {
            origin: Instant::now(),
            inputs: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn inputs(&self) -> MutexGuard<'_, Vec<ReplayEvent>> {
        self.inputs
            .lock()
            .expect("a thread panicked while recording an input")
    }

    fn push(&self, event: ReplayEvent) {
        self.inputs().push(event);
    }

    /// Drains the captured inputs into a trace for `app`, with
    /// `baseline` as the oracle timeline (the recorded run's
    /// `report.events`).
    pub fn into_trace(
        &self,
        app: impl Into<String>,
        config: aide_core::PlatformConfig,
        baseline: Vec<aide_telemetry::TimedEvent>,
    ) -> ReplayTrace {
        let mut trace = ReplayTrace::new(app, config);
        trace.inputs = std::mem::take(&mut *self.inputs());
        trace.baseline = baseline;
        trace
    }
}

impl NondetSource for RecordingSource {
    fn observe_gc(&self, report: &GcReport) {
        self.push(ReplayEvent::Gc {
            at_micros: self.now(),
            report: *report,
        });
    }

    fn trigger(&self, sample: &TriggerSample) {
        self.push(ReplayEvent::Trigger {
            at_micros: self.now(),
            sample: sample.clone(),
        });
    }

    fn migration(&self, record: MigrationRecord) {
        self.push(ReplayEvent::Migration {
            at_micros: self.now(),
            record,
        });
    }

    fn link_died(&self, surrogate: &str) {
        self.push(ReplayEvent::LinkDown {
            at_micros: self.now(),
            surrogate: surrogate.to_string(),
        });
    }
}

/// Runs `platform` with a fresh [`RecordingSource`] and returns the run
/// report plus the finished trace (baseline = the run's flight-recorder
/// timeline).
pub fn record_platform_run(platform: Platform, app: &str) -> (PlatformReport, ReplayTrace) {
    let config = *platform.config();
    let source = Arc::new(RecordingSource::new());
    let report = platform.with_nondet_source(source.clone()).run();
    let trace = source.into_trace(app, config, report.events.clone());
    (report, trace)
}
