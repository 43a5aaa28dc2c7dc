//! Exporters: the Prometheus-style text exposition of a registry
//! snapshot, and the Chrome trace-event JSON of a span forest
//! (Perfetto-loadable).
//!
//! In the Chrome trace each span becomes one complete (`"ph":"X"`) event;
//! track labels become process lanes via `process_name` metadata events,
//! so a single-process run that plays both platform roles still renders
//! as distinct "client" and "surrogate" tracks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::TelemetrySnapshot;
use crate::span::SpanRecord;

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

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push('"');
    escape(key, out);
    out.push_str("\":\"");
    escape(value, out);
    out.push('"');
}

/// Renders `spans` as a Chrome trace-event JSON object. Load the result
/// in Perfetto (`ui.perfetto.dev`, "Open trace file") or
/// `chrome://tracing`.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    // Stable pid per track label, in order of first appearance.
    let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
    for span in spans {
        let next = pids.len() as u64 + 1;
        pids.entry(span.track.as_str()).or_insert(next);
    }

    let mut out = String::with_capacity(128 + spans.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (track, pid) in &pids {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{"
        );
        push_str_field(&mut out, "name", track);
        out.push_str("}}");
    }
    for span in spans {
        if !first {
            out.push(',');
        }
        first = false;
        let pid = pids.get(span.track.as_str()).copied().unwrap_or(0);
        out.push('{');
        push_str_field(&mut out, "name", &span.name);
        out.push(',');
        push_str_field(&mut out, "cat", span.cat);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{",
            span.start_micros, span.duration_micros, pid, span.thread
        );
        let _ = write!(
            out,
            "\"trace_id\":\"{:#x}\",\"span_id\":\"{:#x}\"",
            span.trace_id, span.span_id
        );
        if let Some(parent) = span.parent_id {
            let _ = write!(out, ",\"parent_id\":\"{parent:#x}\"");
        }
        for (k, v) in &span.args {
            out.push(',');
            push_str_field(&mut out, k, v);
        }
        out.push_str("}}");
    }
    out.push_str("]}");
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
