//! Critical-path latency attribution for two-phase migrations.
//!
//! Given a span forest (typically [`crate::SpanStore::drain`]'s output), every
//! `migration` root is decomposed into the phases the paper's fig8/fig10
//! overhead story needs: time under the VM lock serializing victims, time
//! on the wire (RPC attempt minus remote service), retry loss (failed
//! attempts plus backoff sleeps), remote instantiation (the surrogate
//! serving PREPARE), and commit. Whatever the phases do not cover is
//! reported as `unattributed` rather than silently absorbed.

use std::collections::HashMap;

use crate::span::SpanRecord;
use crate::span_names;

/// Per-migration phase attribution, all in microseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MigrationBreakdown {
    /// The trace the migration belongs to.
    pub trace_id: u64,
    /// The migration root span.
    pub span_id: u64,
    /// End-to-end migration duration.
    pub total_micros: u64,
    /// Victim gathering under the VM lock.
    pub serialize_micros: u64,
    /// Time on the wire: successful RPC attempts minus the remote
    /// service time nested inside them (includes chaos delays).
    pub wire_micros: u64,
    /// Retry loss: timed-out attempts plus backoff sleeps.
    pub retry_micros: u64,
    /// The surrogate serving `MigratePrepare` (staging the objects).
    pub instantiate_micros: u64,
    /// The surrogate serving `MigrateCommit` (installing the objects).
    pub commit_micros: u64,
    /// Remainder of the root span the phases above do not cover.
    pub unattributed_micros: u64,
}

/// Walks the span forest and attributes every `migration` root.
/// Spans from other traces are ignored, so a drained buffer holding
/// unrelated RPC chatter still attributes cleanly.
pub fn critical_path(spans: &[SpanRecord]) -> Vec<MigrationBreakdown> {
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent_id {
            children.entry(parent).or_default().push(span);
        }
    }

    let mut out = Vec::new();
    for root in spans.iter().filter(|s| s.name == span_names::MIGRATION) {
        let mut b = MigrationBreakdown {
            trace_id: root.trace_id,
            span_id: root.span_id,
            total_micros: root.duration_micros,
            ..MigrationBreakdown::default()
        };
        // Collect the migration subtree.
        let mut frontier = vec![root.span_id];
        let mut tree: Vec<&SpanRecord> = Vec::new();
        while let Some(id) = frontier.pop() {
            if let Some(kids) = children.get(&id) {
                for kid in kids {
                    frontier.push(kid.span_id);
                    tree.push(kid);
                }
            }
        }
        for span in &tree {
            match span.name.as_str() {
                span_names::MIGRATE_SERIALIZE => b.serialize_micros += span.duration_micros,
                span_names::RPC_BACKOFF => b.retry_micros += span.duration_micros,
                span_names::RPC_ATTEMPT => {
                    if span.arg("outcome") == Some("ok") {
                        b.wire_micros += net_of_service(span, &children);
                    } else {
                        b.retry_micros += span.duration_micros;
                    }
                }
                span_names::RPC_CALL => b.wire_micros += net_of_service(span, &children),
                span_names::RPC_SERVE => match span.arg("kind") {
                    Some("MigratePrepare") | Some("Migrate") => {
                        b.instantiate_micros += span.duration_micros
                    }
                    Some("MigrateCommit") => b.commit_micros += span.duration_micros,
                    _ => {}
                },
                _ => {}
            }
        }
        let attributed = b.serialize_micros
            + b.wire_micros
            + b.retry_micros
            + b.instantiate_micros
            + b.commit_micros;
        b.unattributed_micros = b.total_micros.saturating_sub(attributed);
        out.push(b);
    }
    out
}

/// An attempt's wire share: its duration minus the remote service spans
/// nested directly under it (clamped at zero — cross-process clocks are
/// not perfectly aligned).
fn net_of_service(attempt: &SpanRecord, children: &HashMap<u64, Vec<&SpanRecord>>) -> u64 {
    let service: u64 = children
        .get(&attempt.span_id)
        .map(|kids| {
            kids.iter()
                .filter(|k| k.name == span_names::RPC_SERVE || k.name == span_names::RPC_DEDUP)
                .map(|k| k.duration_micros)
                .sum()
        })
        .unwrap_or(0);
    attempt.duration_micros.saturating_sub(service)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &str,
        trace: u64,
        id: u64,
        parent: Option<u64>,
        dur: u64,
        args: &[(&str, &str)],
    ) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_id: parent,
            name: name.to_string(),
            cat: "test",
            start_micros: 0,
            duration_micros: dur,
            track: "client".to_string(),
            thread: 1,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn attributes_every_phase_of_a_retried_migration() {
        let spans = vec![
            span(span_names::MIGRATION, 7, 1, None, 1_000, &[]),
            span(span_names::MIGRATE_SERIALIZE, 7, 2, Some(1), 100, &[]),
            span(span_names::MIGRATE_PREPARE, 7, 3, Some(1), 700, &[]),
            // First attempt timed out, then backoff, then success.
            span(
                span_names::RPC_ATTEMPT,
                7,
                4,
                Some(3),
                200,
                &[("outcome", "timeout")],
            ),
            span(
                span_names::RPC_BACKOFF,
                7,
                5,
                Some(3),
                50,
                &[("micros", "50")],
            ),
            span(
                span_names::RPC_ATTEMPT,
                7,
                6,
                Some(3),
                300,
                &[("outcome", "ok")],
            ),
            // The surrogate staged the batch inside the winning attempt.
            span(
                span_names::RPC_SERVE,
                7,
                7,
                Some(6),
                120,
                &[("kind", "MigratePrepare")],
            ),
            span(span_names::MIGRATE_COMMIT, 7, 8, Some(1), 150, &[]),
            span(
                span_names::RPC_ATTEMPT,
                7,
                9,
                Some(8),
                140,
                &[("outcome", "ok")],
            ),
            span(
                span_names::RPC_SERVE,
                7,
                10,
                Some(9),
                60,
                &[("kind", "MigrateCommit")],
            ),
            // Noise from an unrelated trace must not leak in.
            span(span_names::MIGRATE_SERIALIZE, 8, 11, None, 9_999, &[]),
        ];
        let breakdowns = critical_path(&spans);
        assert_eq!(breakdowns.len(), 1);
        let b = &breakdowns[0];
        assert_eq!(b.total_micros, 1_000);
        assert_eq!(b.serialize_micros, 100);
        assert_eq!(b.retry_micros, 250, "failed attempt + backoff");
        assert_eq!(b.wire_micros, (300 - 120) + (140 - 60));
        assert_eq!(b.instantiate_micros, 120);
        assert_eq!(b.commit_micros, 60);
        assert_eq!(b.unattributed_micros, 1_000 - (100 + 250 + 260 + 120 + 60));
    }
}
