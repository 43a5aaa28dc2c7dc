//! Exporter: Prometheus-style text exposition of a snapshot.

use std::fmt::Write as _;

use crate::metrics::TelemetrySnapshot;

/// Renders a snapshot's counters in the Prometheus text exposition format
/// (version 0.0.4).
pub fn prometheus_text(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    use super::*;

    #[test]
    fn prometheus_text_lists_each_counter_with_its_type() {
        let t = Telemetry::new();
        t.counter("aide_vm_external_unpin_unbalanced_total").add(3);
        t.counter("aide_other_total");
        assert_eq!(
            prometheus_text(&t.snapshot()),
            "# TYPE aide_other_total counter\naide_other_total 0\n\
             # TYPE aide_vm_external_unpin_unbalanced_total counter\n\
             aide_vm_external_unpin_unbalanced_total 3\n"
        );
    }
}
