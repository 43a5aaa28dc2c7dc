//! §5.1 "Monitoring Overhead": JavaNote executed with monitoring off and
//! on, unconstrained heap. The paper measured 31.59s vs 35.04s (~11%).
//! Our times are virtual, so the *ratio* is the reproduced quantity; the
//! per-event monitoring cost is the measured knob.
//!
//! On top of the paper's number, this binary prices the *telemetry tax*:
//! the same monitored run is executed twice with the global
//! `aide_telemetry` switch off and on, and the real (wall-clock)
//! difference is compared against a configurable budget. The enabled
//! run's metric delta is dumped as `BENCH_monitor_overhead.json` (JSON
//! lines) for CI to archive.
//!
//! The monitor's hook counters are batch-granular: a flushed burst is one
//! delivery, timed once, and `hook_events` grows by the number of
//! instrumented events in it — so "mean ns per instrumented hook" is the
//! delivery time spread over the events it carried, and the event count
//! is what per-event delivery counted.

use std::time::Instant;

use aide_apps::javanote;
use aide_bench::{experiment_scale, header, pct, row, s};
use aide_core::{Platform, PlatformConfig, PlatformReport};

/// Virtual cost per monitoring event, calibrated so JavaNote's monitoring
/// overhead lands near the paper's 11%.
const MONITOR_EVENT_MICROS: f64 = 16.5;

/// Default ceiling on the wall-clock overhead telemetry may add to a
/// monitored run, in percent. Deliberately generous: the assert exists to
/// catch structural regressions (a lock or allocation sneaking onto the
/// hook path), not scheduler noise. Override with
/// `AIDE_TELEMETRY_BUDGET_PCT`; a negative value disables the assert.
const DEFAULT_TELEMETRY_BUDGET_PCT: f64 = 50.0;

/// The §5.1 "monitoring on" configuration: monitor everything, never
/// offload.
fn monitored_config() -> PlatformConfig {
    let mut on = PlatformConfig::prototype(64 << 20);
    on.max_offloads = 0; // monitoring only — no partitioning
    on.monitor_event_micros = MONITOR_EVENT_MICROS;
    on
}

/// Runs the monitored workload and returns the report with its real
/// (wall-clock) duration in seconds.
fn timed_run(scale: aide_apps::Scale) -> (PlatformReport, f64) {
    let started = Instant::now();
    let report = Platform::new(javanote(scale).program, monitored_config()).run();
    let wall = started.elapsed().as_secs_f64();
    report.outcome.as_ref().expect("completes");
    (report, wall)
}

fn main() {
    header(
        "§5.1 monitoring overhead (JavaNote, unconstrained heap)",
        "§5.1; paper: 31.59s unmonitored vs 35.04s monitored = ~11% overhead",
    );
    let scale = experiment_scale();

    let mut off = PlatformConfig::prototype(64 << 20);
    off.monitoring = false;
    let report_off = Platform::new(javanote(scale).program, off).run();
    report_off.outcome.as_ref().expect("completes");

    let report_on = Platform::new(javanote(scale).program, monitored_config()).run();
    report_on.outcome.as_ref().expect("completes");

    let t_off = report_off.total_seconds();
    let t_on = report_on.total_seconds();
    row("monitoring off", s(t_off));
    row("monitoring on", s(t_on));
    row("monitoring overhead", pct(t_on / t_off - 1.0));
    row(
        "events monitored",
        report_on.metrics.interaction_events
            + report_on.metrics.objects_total
            + report_on.metrics.samples,
    );
    row(
        "per-event cost model",
        format!("{MONITOR_EVENT_MICROS} virtual us"),
    );

    // ---- telemetry tax: same monitored run, global switch off vs on ----
    println!();
    header(
        "telemetry overhead (monitored run, aide-telemetry off vs on)",
        "this repo's observability layer; wall-clock, not virtual, time",
    );
    // Full scale on one 2-core host, per-event delivery (f33ffc3) against
    // slice delivery into the lock-once monitor.
    println!("  before -> after batching: disabled 0.254 -> 0.077 s, enabled 0.437 -> 0.078 s,");
    println!("  overhead 72% -> 0.5-13%, 141 -> 10 ns per hook, 1 811 547 hook events both");

    // Warm-up run so neither measured run pays first-touch costs.
    let _ = timed_run(scale);

    aide_telemetry::set_enabled(false);
    let (_, wall_disabled) = timed_run(scale);

    aide_telemetry::set_enabled(true);
    let (report_enabled, wall_enabled) = timed_run(scale);
    // The per-run metric delta the platform computed for its own report —
    // exactly what a live deployment would export.
    let delta = report_enabled.telemetry.clone();

    let hook_events = delta
        .counters
        .get(aide_telemetry::names::MONITOR_HOOK_EVENTS)
        .copied()
        .unwrap_or(0);
    let hook_nanos = delta
        .counters
        .get(aide_telemetry::names::MONITOR_HOOK_NANOS)
        .copied()
        .unwrap_or(0);
    let overhead = wall_enabled / wall_disabled - 1.0;

    row(
        "wall clock, telemetry disabled",
        format!("{wall_disabled:.3}s"),
    );
    row(
        "wall clock, telemetry enabled",
        format!("{wall_enabled:.3}s"),
    );
    row("telemetry overhead", pct(overhead));
    row("monitor hook events", hook_events);
    row(
        "mean ns per instrumented hook",
        if hook_events == 0 {
            "n/a".to_string()
        } else {
            format!("{:.0}", hook_nanos as f64 / hook_events as f64)
        },
    );

    let mut artifact = serde_json::json!({
        "kind": "summary",
        "experiment": "monitor_overhead",
        "virtual_monitoring_overhead": t_on / t_off - 1.0,
        "wall_disabled_seconds": wall_disabled,
        "wall_enabled_seconds": wall_enabled,
        "telemetry_overhead": overhead,
        "hook_events": hook_events,
        "hook_nanos": hook_nanos,
    })
    .to_string();
    artifact.push('\n');
    artifact.push_str(&aide_telemetry::snapshot_json_lines(&delta));
    let path = "BENCH_monitor_overhead.json";
    match std::fs::write(path, artifact) {
        Ok(()) => row("artifact", path),
        Err(e) => row("artifact", format!("write failed: {e}")),
    }

    let budget_pct = std::env::var("AIDE_TELEMETRY_BUDGET_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_TELEMETRY_BUDGET_PCT);
    if budget_pct >= 0.0 {
        row("budget", format!("{budget_pct:.1}%"));
        assert!(
            overhead * 100.0 <= budget_pct,
            "telemetry overhead {} exceeds budget {budget_pct:.1}% \
             (set AIDE_TELEMETRY_BUDGET_PCT to adjust)",
            pct(overhead),
        );
    } else {
        row("budget", "disabled");
    }
}
