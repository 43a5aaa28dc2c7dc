//! Trace serialization: JSON lines.
//!
//! One tagged record per line — `Header` first, then `Input` /
//! `Baseline` records in section order. Every line is independently
//! parseable, so traces diff and grep well. Anything else — bytes that
//! are not UTF-8, a line that is not one of the three records, an input
//! kind this version does not replay, a graph delta naming a node no
//! earlier delta added, interaction deltas whose sum the graph cannot hold
//! — is a [`TraceError`], never a panic.

use std::path::Path;

use aide_graph::GraphDelta;
use serde::{Deserialize, Serialize};

use crate::event::{ReplayEvent, ReplayTrace, TraceHeader, TRACE_VERSION};

/// Why a trace could not be encoded, decoded, or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Filesystem error while reading or writing a trace.
    Io(String),
    /// A record failed to serialize or deserialize.
    Parse(String),
    /// The stream is not text, or its records are out of section order.
    Corrupt(String),
    /// The trace was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The stream contained no header record.
    Empty,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse(e) => write!(f, "trace parse error: {e}"),
            TraceError::Corrupt(e) => write!(f, "corrupt trace: {e}"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (expected {TRACE_VERSION})"
                )
            }
            TraceError::Empty => write!(f, "empty trace: no header record"),
        }
    }
}

impl std::error::Error for TraceError {}

/// One tagged record in a serialized trace stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TraceLine {
    Header(Box<TraceHeader>),
    Input(crate::event::ReplayEvent),
    Baseline(aide_telemetry::TimedEvent),
}

/// Encodes `trace` as JSON-lines (one tagged record per line).
pub fn to_json_lines(trace: &ReplayTrace) -> String {
    let header = std::iter::once(TraceLine::Header(Box::new(trace.header.clone())));
    let inputs = trace.inputs.iter().cloned().map(TraceLine::Input);
    let baseline = trace.baseline.iter().cloned().map(TraceLine::Baseline);
    let mut out = String::new();
    for line in header.chain(inputs).chain(baseline) {
        out.push_str(&serde_json::to_string(&line).expect("trace records serialize"));
        out.push('\n');
    }
    out
}

/// Decodes a JSON-lines trace.
///
/// # Errors
///
/// [`TraceError::Parse`] on any malformed line, [`TraceError::Empty`] /
/// [`TraceError::Corrupt`] on section violations, a node id no earlier
/// `AddNode` minted or interaction deltas whose interactions and bytes sum
/// past `u64::MAX`, [`TraceError::UnsupportedVersion`] on a version
/// mismatch.
pub fn from_json_lines(text: &str) -> Result<ReplayTrace, TraceError> {
    let mut header: Option<TraceHeader> = None;
    let mut inputs = Vec::new();
    let mut nodes_added = 0;
    let mut traffic = 0;
    let mut baseline = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let record = serde_json::from_str(line).map_err(|e| TraceError::Parse(e.to_string()))?;
        if header.is_none() && !matches!(record, TraceLine::Header(_)) {
            return Err(TraceError::Corrupt(
                "record precedes the header record".into(),
            ));
        }
        match record {
            TraceLine::Header(_) if header.is_some() => {
                return Err(TraceError::Corrupt("duplicate header record".into()));
            }
            TraceLine::Header(h) if h.version != TRACE_VERSION => {
                return Err(TraceError::UnsupportedVersion(h.version));
            }
            TraceLine::Header(h) => header = Some(*h),
            TraceLine::Input(_) if !baseline.is_empty() => {
                return Err(TraceError::Corrupt(
                    "input record follows a baseline record".into(),
                ));
            }
            TraceLine::Input(e) => {
                check_deltas(&e, &mut nodes_added, &mut traffic)?;
                inputs.push(e);
            }
            TraceLine::Baseline(e) => baseline.push(e),
        }
    }
    let header = header.ok_or(TraceError::Empty)?;
    Ok(ReplayTrace {
        header,
        inputs,
        baseline,
    })
}

/// Walks a trigger's deltas in order, counting the nodes they add and
/// summing, into `traffic`, every `Interaction`'s interactions and bytes
/// since the trace began. Either would make the replayer's graph panic, so
/// the trace is corrupt if a delta names a node at or above that count, or
/// if the sum passes `u64::MAX`.
///
/// That bound suffices: an edge's statistics are the sum of the deltas
/// absorbed into it, and every number the graph adds up in `u64` — an edge's
/// weight (bytes plus interactions), a node's incident weight, a cut's
/// interactions, bytes or weight, a contracted min-cut edge, and each
/// partial sum on the way to them — covers each edge at most once. So none
/// exceeds this sum, and the graph's own arithmetic stays unchecked.
fn check_deltas(
    input: &ReplayEvent,
    nodes_added: &mut usize,
    traffic: &mut u64,
) -> Result<(), TraceError> {
    let ReplayEvent::Trigger { sample, .. } = input else {
        return Ok(());
    };
    for delta in &sample.deltas {
        let named = match delta {
            GraphDelta::AddNode { .. } => {
                *nodes_added += 1;
                continue;
            }
            GraphDelta::UpdateNode { node, .. }
            | GraphDelta::SetPinned { node, .. }
            | GraphDelta::RemoveNode { node } => *node,
            GraphDelta::Interaction { a, b, delta } => {
                *traffic = traffic
                    .checked_add(delta.interactions)
                    .and_then(|t| t.checked_add(delta.bytes))
                    .ok_or_else(|| {
                        TraceError::Corrupt(
                            "interaction deltas sum past u64::MAX interactions and bytes".into(),
                        )
                    })?;
                (*a).max(*b)
            }
        };
        if named.index() >= *nodes_added {
            return Err(TraceError::Corrupt(format!(
                "a delta names node {named}, but only {nodes_added} were added before it"
            )));
        }
    }
    Ok(())
}

/// Decodes a trace from raw bytes.
///
/// # Errors
///
/// [`TraceError::Corrupt`] if the bytes are not UTF-8, otherwise as
/// [`from_json_lines`].
pub fn decode(bytes: &[u8]) -> Result<ReplayTrace, TraceError> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| TraceError::Corrupt(format!("not UTF-8: {e}")))?;
    from_json_lines(text)
}

/// Writes `trace` to `path` as JSON lines, creating the directory.
pub fn save(trace: &ReplayTrace, path: impl AsRef<Path>) -> Result<(), TraceError> {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| TraceError::Io(e.to_string()))?;
        }
    }
    std::fs::write(path, to_json_lines(trace)).map_err(|e| TraceError::Io(e.to_string()))
}

/// Reads a trace from `path`.
pub fn load(path: impl AsRef<Path>) -> Result<ReplayTrace, TraceError> {
    let bytes = std::fs::read(path.as_ref()).map_err(|e| TraceError::Io(e.to_string()))?;
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ReplayEvent;
    use aide_core::PlatformConfig;

    fn sample() -> ReplayTrace {
        let mut t = ReplayTrace::new("unit", PlatformConfig::prototype(6 << 20));
        t.inputs.push(ReplayEvent::LinkDown {
            at_micros: 7,
            surrogate: "s1".into(),
        });
        t.baseline.push(aide_telemetry::TimedEvent {
            seq: 0,
            at_micros: 12,
            event: aide_telemetry::PlatformEvent::OffloadDeclined { candidates: 1 },
            span: None,
        });
        t
    }

    #[test]
    fn json_lines_round_trip_through_decode() {
        let t = sample();
        let json = to_json_lines(&t);
        assert_eq!(json.lines().count(), 3);
        assert_eq!(decode(json.as_bytes()).unwrap(), t);
    }

    /// Records no reader has any more are errors like any other unknown
    /// record: the embedded-VM section, an input kind replay never read,
    /// and a file in the removed binary container (its magic, version
    /// byte and first frame tag). So is a known record out of section
    /// order: an input after the baseline.
    #[test]
    fn unknown_records_error_cleanly() {
        for removed in [
            "{\"Vm\":{\"app\":\"unit\",\"events\":[]}}\n",
            "{\"Input\":{\"ChaosDraw\":{\"stream\":7,\"index\":0,\"value\":42}}}\n",
        ] {
            let mut json = to_json_lines(&sample());
            json.push_str(removed);
            assert!(matches!(decode(json.as_bytes()), Err(TraceError::Parse(_))));
        }
        let mut json = to_json_lines(&sample());
        json.push_str("{\"Input\":{\"LinkDown\":{\"at_micros\":8,\"surrogate\":\"s2\"}}}\n");
        assert!(matches!(
            decode(json.as_bytes()),
            Err(TraceError::Corrupt(_))
        ));
        let container = [0x41, 0x49, 0x44, 0x52, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF];
        assert!(matches!(decode(&container), Err(TraceError::Corrupt(_))));
        assert!(matches!(decode(&container[..6]), Err(TraceError::Parse(_))));
    }

    #[test]
    fn version_mismatch_is_reported() {
        let mut t = sample();
        t.header.version = 99;
        assert_eq!(
            decode(to_json_lines(&t).as_bytes()),
            Err(TraceError::UnsupportedVersion(99))
        );
    }
}
