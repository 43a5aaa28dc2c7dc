//! Per-daemon fleet load exposition: the typed form of the
//! `aide_daemon_*` lines a daemon appends to its `STATS` scrape.
//!
//! The daemon side renders a [`FleetSnapshot`] into Prometheus text
//! (`aide-surrogate`'s worker pool appends it to every `STATS` answer);
//! the client side parses the same text back to feed load-aware
//! placement. Keeping both directions here, next to a serde round-trip
//! test, pins the wire format: a renamed gauge breaks the parser in the
//! same file, not silently in a scrape three crates away.

use serde::{Deserialize, Serialize};

/// One live session's lease age as exposed in a `STATS` scrape.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionLease {
    /// Carrier connection id the session arrived on.
    pub conn: u64,
    /// Session id within the carrier (mux channel).
    pub session: u32,
    /// Age of the session's oldest outstanding export lease, in
    /// milliseconds (0 when the session holds no leases).
    pub age_ms: u64,
}

/// A daemon's load snapshot: the per-daemon gauges and per-session lease
/// ages of one `STATS` exposition, labelled by daemon name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Daemon name used as the `daemon="..."` label.
    pub daemon: String,
    /// Sessions currently live across the daemon's shards.
    pub live_sessions: u64,
    /// Admission limit: sessions beyond this are rejected `Busy`.
    pub session_limit: u64,
    /// Frames queued across the shard inboxes (backpressure signal).
    pub queue_depth: u64,
    /// Sessions rejected by admission control since startup.
    pub sessions_rejected_total: u64,
    /// Oldest-lease age per live session, sorted by `(conn, session)` so
    /// rendering is deterministic.
    pub leases: Vec<SessionLease>,
}

impl FleetSnapshot {
    /// Renders the snapshot as Prometheus text lines, sorted leases and
    /// all — exactly the lines `parse` consumes.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut text = String::new();
        let name = &self.daemon;
        let _ = writeln!(
            text,
            "aide_daemon_live_sessions{{daemon=\"{name}\"}} {}",
            self.live_sessions
        );
        let _ = writeln!(
            text,
            "aide_daemon_session_limit{{daemon=\"{name}\"}} {}",
            self.session_limit
        );
        let _ = writeln!(
            text,
            "aide_daemon_queue_depth{{daemon=\"{name}\"}} {}",
            self.queue_depth
        );
        let _ = writeln!(
            text,
            "aide_daemon_sessions_rejected_total{{daemon=\"{name}\"}} {}",
            self.sessions_rejected_total
        );
        let mut leases = self.leases.clone();
        leases.sort();
        for lease in &leases {
            let _ = writeln!(
                text,
                "aide_daemon_session_lease_age_ms{{daemon=\"{name}\",conn=\"{conn}\",session=\"{session}\"}} {age}",
                conn = lease.conn,
                session = lease.session,
                age = lease.age_ms,
            );
        }
        text
    }

    /// Parses the `aide_daemon_*` lines labelled `daemon="<daemon>"` out
    /// of a `STATS` exposition. Other daemons' lines and unrelated
    /// metrics are ignored. Returns `None` when the text carries no
    /// live-session gauge for that daemon (i.e. it is not that daemon's
    /// scrape).
    pub fn parse(text: &str, daemon: &str) -> Option<FleetSnapshot> {
        let mut snapshot = FleetSnapshot {
            daemon: daemon.to_string(),
            live_sessions: 0,
            session_limit: 0,
            queue_depth: 0,
            sessions_rejected_total: 0,
            leases: Vec::new(),
        };
        let label = format!("{{daemon=\"{daemon}\"}}");
        let mut saw_live = false;
        for line in text.lines() {
            let Some((metric, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<u64>() else {
                continue;
            };
            if let Some(rest) = metric.strip_prefix("aide_daemon_session_lease_age_ms{") {
                if let Some(lease) = parse_lease_labels(rest, daemon) {
                    snapshot.leases.push(SessionLease {
                        age_ms: value,
                        ..lease
                    });
                }
                continue;
            }
            let Some(gauge) = metric.strip_suffix(label.as_str()) else {
                continue;
            };
            match gauge {
                "aide_daemon_live_sessions" => {
                    snapshot.live_sessions = value;
                    saw_live = true;
                }
                "aide_daemon_session_limit" => snapshot.session_limit = value,
                "aide_daemon_queue_depth" => snapshot.queue_depth = value,
                "aide_daemon_sessions_rejected_total" => snapshot.sessions_rejected_total = value,
                _ => {}
            }
        }
        if !saw_live {
            return None;
        }
        snapshot.leases.sort();
        Some(snapshot)
    }
}

/// Parses `daemon="d",conn="1",session="2"}` label text into a lease with
/// `age_ms` zeroed; `None` when the daemon label differs or labels are
/// malformed.
fn parse_lease_labels(labels: &str, daemon: &str) -> Option<SessionLease> {
    let labels = labels.strip_suffix('}')?;
    let mut conn = None;
    let mut session = None;
    let mut matched_daemon = false;
    for pair in labels.split(',') {
        let (key, value) = pair.split_once('=')?;
        let value = value.strip_prefix('"')?.strip_suffix('"')?;
        match key {
            "daemon" => matched_daemon = value == daemon,
            "conn" => conn = value.parse().ok(),
            "session" => session = value.parse().ok(),
            _ => {}
        }
    }
    if !matched_daemon {
        return None;
    }
    Some(SessionLease {
        conn: conn?,
        session: session?,
        age_ms: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FleetSnapshot {
        FleetSnapshot {
            daemon: "d0".to_string(),
            live_sessions: 3,
            session_limit: 16,
            queue_depth: 2,
            sessions_rejected_total: 5,
            leases: vec![
                SessionLease {
                    conn: 2,
                    session: 1,
                    age_ms: 40,
                },
                SessionLease {
                    conn: 1,
                    session: 7,
                    age_ms: 1200,
                },
                SessionLease {
                    conn: 1,
                    session: 2,
                    age_ms: 0,
                },
            ],
        }
    }

    #[test]
    fn render_parse_round_trip_is_identity_modulo_lease_order() {
        let snapshot = sample();
        let parsed = FleetSnapshot::parse(&snapshot.render(), "d0").expect("parses");
        let mut sorted = snapshot.clone();
        sorted.leases.sort();
        assert_eq!(parsed, sorted);
        // A second render/parse cycle is a fixed point.
        assert_eq!(
            parsed.render(),
            FleetSnapshot::parse(&parsed.render(), "d0")
                .unwrap()
                .render()
        );
    }

    #[test]
    fn serde_json_round_trip_preserves_every_field() {
        let snapshot = sample();
        let json = serde_json::to_string(&snapshot).expect("serializes");
        let back: FleetSnapshot = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, snapshot);
    }

    #[test]
    fn parse_filters_other_daemons_and_foreign_metrics() {
        let mut text = sample().render();
        let mut other = sample();
        other.daemon = "d1".to_string();
        other.live_sessions = 99;
        text.push_str(&other.render());
        text.push_str("aide_vm_heap_used_bytes 12345\nnot a metric line\n");
        let parsed = FleetSnapshot::parse(&text, "d0").expect("parses");
        assert_eq!(parsed.live_sessions, 3);
        assert_eq!(parsed.leases.len(), 3);
        // A daemon absent from the scrape parses to None, not zeroes.
        assert!(FleetSnapshot::parse(&text, "d7").is_none());
    }
}
