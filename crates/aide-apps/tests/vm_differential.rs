//! Every application shape from Table 1 must run on the register VM exactly
//! as its committed verdict says (`tests/fixtures/verdicts/<app>.txt`,
//! blessed where the seed tree-walker agreed): same `RunSummary`
//! (including the mutator/hook CPU split and the logical op count) and the
//! same monitor-event stream, event for event.

#[path = "../../aide-vm/tests/support/mod.rs"]
mod support;

use aide_apps::{all_apps, Scale};
use aide_vm::VmConfig;

fn check_app(name: &str, config: VmConfig) {
    let app = all_apps(Scale(0.02))
        .into_iter()
        .find(|app| app.name == name)
        .unwrap_or_else(|| panic!("unknown app {name}"));
    let (summary, events) = support::run(&app.program, config);
    support::check_verdicts(
        &format!("{}.txt", name.to_lowercase()),
        &[support::verdict(name, &summary, &events)],
    );
    let summary = summary.expect("app run succeeds");
    assert!(summary.ops_executed > 0, "{name}: no ops counted");
}

#[test]
fn javanote_is_mode_identical() {
    check_app("JavaNote", VmConfig::client(64 << 20));
}

#[test]
fn dia_is_mode_identical() {
    check_app("Dia", VmConfig::client(64 << 20));
}

#[test]
fn biomer_is_mode_identical() {
    check_app("Biomer", VmConfig::client(64 << 20));
}

#[test]
fn voxel_is_mode_identical() {
    check_app("Voxel", VmConfig::client(64 << 20));
}

#[test]
fn tracer_is_mode_identical() {
    // Tracer also exercises the monitoring cost split: the identical
    // streams must hold with per-event charging enabled.
    let mut config = VmConfig::client(64 << 20);
    config.cost.monitor_event_micros = 2.2;
    check_app("Tracer", config);
}
