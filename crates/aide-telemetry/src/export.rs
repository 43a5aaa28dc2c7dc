//! Exporters: JSON-lines snapshot dumps and Prometheus-style text
//! exposition.

use std::fmt::Write as _;

use serde_json::json;

use crate::metrics::TelemetrySnapshot;

/// Serializes a snapshot as JSON lines: one object per metric, with a
/// `kind` discriminant.
pub fn snapshot_json_lines(snapshot: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let line = json!({"kind": "counter", "name": name, "value": value});
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for (name, value) in &snapshot.gauges {
        let line = json!({"kind": "gauge", "name": name, "value": value});
        out.push_str(&line.to_string());
        out.push('\n');
    }
    for (name, h) in &snapshot.histograms {
        let buckets: Vec<_> = h
            .bounds
            .iter()
            .zip(&h.counts)
            .map(|(b, c)| json!([b, c]))
            .collect();
        let overflow = h.counts.last().copied().unwrap_or(0);
        let line = json!({
            "kind": "histogram",
            "name": name,
            "count": h.count,
            "sum": h.sum,
            "buckets": buckets,
            "overflow": overflow,
        });
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

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
        t.gauge("aide_heap_used_bytes").set(1024);
        let h = t.histogram("aide_rpc_request_latency_micros", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5000);
        t.snapshot()
    }

    #[test]
    fn json_lines_parse_individually() {
        let text = snapshot_json_lines(&sample());
        let lines: Vec<serde_json::Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid json"))
            .collect();
        assert_eq!(lines.len(), 3);
        assert!(lines
            .iter()
            .any(|l| l["kind"] == "counter" && l["value"] == 3));
        assert!(lines
            .iter()
            .any(|l| l["kind"] == "histogram" && l["count"] == 3));
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets() {
        let text = prometheus_text(&sample());
        assert!(text.contains("# TYPE aide_rpc_requests_total counter"));
        assert!(text.contains("aide_rpc_requests_total 3"));
        assert!(text.contains("aide_heap_used_bytes 1024"));
        assert!(text.contains("aide_rpc_request_latency_micros_bucket{le=\"10\"} 1"));
        assert!(text.contains("aide_rpc_request_latency_micros_bucket{le=\"100\"} 2"));
        assert!(text.contains("aide_rpc_request_latency_micros_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("aide_rpc_request_latency_micros_sum 5055"));
        assert!(text.contains("aide_rpc_request_latency_micros_count 3"));
    }
}
