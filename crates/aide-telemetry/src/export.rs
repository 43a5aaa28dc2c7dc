//! Exporter: Prometheus-style text exposition of a snapshot.

use std::fmt::Write as _;

use crate::metrics::TelemetrySnapshot;

/// Renders a snapshot in the Prometheus text exposition format
/// (version 0.0.4). Histogram buckets are emitted cumulatively with
/// `le` labels, as Prometheus expects.
pub fn prometheus_text(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, h) in &snapshot.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in h.bounds.iter().zip(&h.counts) {
            cumulative += count;
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::Telemetry;

    use super::*;

    fn sample() -> TelemetrySnapshot {
        let t = Telemetry::new();
        t.counter("aide_rpc_requests_total").add(3);
        t.gauge("aide_gc_export_table_entries").set(1024);
        let h = t.histogram("aide_rpc_request_latency_micros", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5000);
        t.snapshot()
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE aide_rpc_requests_total counter"));
        assert!(text.contains("aide_rpc_requests_total 3"));
        assert!(text.contains("aide_gc_export_table_entries 1024"));
        assert!(text.contains("aide_rpc_request_latency_micros_bucket{le=\"10\"} 1"));
        assert!(text.contains("aide_rpc_request_latency_micros_bucket{le=\"100\"} 2"));
        assert!(text.contains("aide_rpc_request_latency_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("aide_rpc_request_latency_micros_sum 5055"));
        assert!(text.contains("aide_rpc_request_latency_micros_count 3"));
    }
}
