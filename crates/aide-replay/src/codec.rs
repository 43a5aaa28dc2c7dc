//! Trace serialization: JSON-lines for debuggability, a length-prefixed
//! binary container for density, and auto-detection on load.
//!
//! **JSON-lines** (`.jsonl`): one tagged record per line — `Header`
//! first, then `Input`/`Baseline` records in section order. Every
//! line is independently parseable, so traces diff and grep well.
//!
//! **Binary** (`.trace`): the 4-byte magic `AIDR`, a format-version
//! byte, then a sequence of frames `tag:u8 | len:u32 LE | payload |
//! crc32:u32 LE` where the payload is the record's serialized bytes and
//! the CRC (the RPC wire codec's table) covers the payload. Frames are
//! strictly length-checked: corrupt or truncated bytes always produce a
//! [`TraceError`], never a panic (mirroring the RPC decoder's
//! contract).
//!
//! [`decode`] auto-detects the format by the leading magic bytes;
//! [`save`]/[`load`] add file I/O, choosing JSON-lines for `.json` /
//! `.jsonl` extensions and binary otherwise.

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::event::{ReplayTrace, TraceHeader, TRACE_VERSION};

/// Leading magic of the binary container ("AIDE Replay").
pub const BINARY_MAGIC: &[u8; 4] = b"AIDR";

const TAG_HEADER: u8 = 1;
const TAG_INPUT: u8 = 2;
const TAG_BASELINE: u8 = 3;

/// Largest frame a loader will accept (a corrupted length prefix must
/// not trigger a giant allocation).
const MAX_FRAME_LEN: usize = 256 << 20;

/// Why a trace could not be encoded, decoded, or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Filesystem error while reading or writing a trace.
    Io(String),
    /// A record failed to serialize or deserialize.
    Parse(String),
    /// The byte stream violates the container framing (bad magic, bad
    /// tag, checksum mismatch, section out of order).
    Corrupt(String),
    /// The byte stream ended mid-frame.
    Truncated,
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
            TraceError::Truncated => write!(f, "truncated trace"),
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
    Header(TraceHeader),
    Input(crate::event::ReplayEvent),
    Baseline(aide_telemetry::TimedEvent),
}

fn to_lines(trace: &ReplayTrace) -> Vec<TraceLine> {
    let mut lines = Vec::with_capacity(2 + trace.inputs.len() + trace.baseline.len());
    lines.push(TraceLine::Header(trace.header.clone()));
    for input in &trace.inputs {
        lines.push(TraceLine::Input(input.clone()));
    }
    for event in &trace.baseline {
        lines.push(TraceLine::Baseline(event.clone()));
    }
    lines
}

fn from_lines<I>(lines: I) -> Result<ReplayTrace, TraceError>
where
    I: IntoIterator<Item = Result<TraceLine, TraceError>>,
{
    let mut header: Option<TraceHeader> = None;
    let mut inputs = Vec::new();
    let mut baseline = Vec::new();
    for line in lines {
        match line? {
            TraceLine::Header(h) => {
                if header.is_some() {
                    return Err(TraceError::Corrupt("duplicate header record".into()));
                }
                if h.version != TRACE_VERSION {
                    return Err(TraceError::UnsupportedVersion(h.version));
                }
                header = Some(h);
            }
            record => {
                if header.is_none() {
                    return Err(TraceError::Corrupt(
                        "record precedes the header record".into(),
                    ));
                }
                match record {
                    TraceLine::Input(e) => inputs.push(e),
                    TraceLine::Baseline(e) => baseline.push(e),
                    TraceLine::Header(_) => unreachable!("handled above"),
                }
            }
        }
    }
    let header = header.ok_or(TraceError::Empty)?;
    Ok(ReplayTrace {
        header,
        inputs,
        baseline,
    })
}

/// Encodes `trace` as JSON-lines (one tagged record per line).
pub fn to_json_lines(trace: &ReplayTrace) -> String {
    let mut out = String::new();
    for line in to_lines(trace) {
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
/// [`TraceError::Corrupt`] on section violations,
/// [`TraceError::UnsupportedVersion`] on a version mismatch.
pub fn from_json_lines(text: &str) -> Result<ReplayTrace, TraceError> {
    from_lines(
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str(l).map_err(|e| TraceError::Parse(e.to_string()))),
    )
}

fn push_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&aide_rpc::crc32(payload).to_le_bytes());
}

/// Encodes `trace` in the binary container format.
pub fn to_binary(trace: &ReplayTrace) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(BINARY_MAGIC);
    out.push(TRACE_VERSION as u8);
    for line in to_lines(trace) {
        let (tag, payload) = match &line {
            TraceLine::Header(h) => (TAG_HEADER, serde_json::to_vec(h)),
            TraceLine::Input(e) => (TAG_INPUT, serde_json::to_vec(e)),
            TraceLine::Baseline(e) => (TAG_BASELINE, serde_json::to_vec(e)),
        };
        push_frame(&mut out, tag, &payload.expect("trace records serialize"));
    }
    out
}

/// Takes `n` bytes off the front of `buf`, or reports truncation.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], TraceError> {
    if buf.len() < n {
        return Err(TraceError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Decodes a binary-container trace.
///
/// # Errors
///
/// [`TraceError::Corrupt`] on bad magic, an unknown tag, or a checksum
/// mismatch; [`TraceError::Truncated`] if the stream ends mid-frame;
/// the same parse/version/section errors as [`from_json_lines`].
/// Never panics, whatever the input bytes.
pub fn from_binary(mut bytes: &[u8]) -> Result<ReplayTrace, TraceError> {
    let magic = take(&mut bytes, BINARY_MAGIC.len())?;
    if magic != BINARY_MAGIC {
        return Err(TraceError::Corrupt("bad magic".into()));
    }
    let version = take(&mut bytes, 1)?[0];
    if u32::from(version) != TRACE_VERSION {
        return Err(TraceError::UnsupportedVersion(u32::from(version)));
    }
    let mut lines = Vec::new();
    while !bytes.is_empty() {
        let tag = take(&mut bytes, 1)?[0];
        let len_bytes = take(&mut bytes, 4)?;
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(TraceError::Corrupt(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN} B limit"
            )));
        }
        let payload = take(&mut bytes, len)?;
        let crc_bytes = take(&mut bytes, 4)?;
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc != aide_rpc::crc32(payload) {
            return Err(TraceError::Corrupt("frame checksum mismatch".into()));
        }
        let line = match tag {
            TAG_HEADER => serde_json::from_slice(payload).map(TraceLine::Header),
            TAG_INPUT => serde_json::from_slice(payload).map(TraceLine::Input),
            TAG_BASELINE => serde_json::from_slice(payload).map(TraceLine::Baseline),
            other => return Err(TraceError::Corrupt(format!("unknown frame tag {other}"))),
        };
        lines.push(line.map_err(|e| TraceError::Parse(e.to_string())));
    }
    from_lines(lines)
}

/// Decodes a trace from raw bytes, auto-detecting the format: streams
/// starting with the [`BINARY_MAGIC`] are binary, everything else is
/// treated as JSON-lines.
pub fn decode(bytes: &[u8]) -> Result<ReplayTrace, TraceError> {
    if bytes.starts_with(BINARY_MAGIC) {
        return from_binary(bytes);
    }
    let text =
        std::str::from_utf8(bytes).map_err(|e| TraceError::Corrupt(format!("not UTF-8: {e}")))?;
    from_json_lines(text)
}

/// Writes `trace` to `path`: JSON-lines for `.json` / `.jsonl`
/// extensions, the binary container otherwise.
pub fn save(trace: &ReplayTrace, path: impl AsRef<Path>) -> Result<(), TraceError> {
    let path = path.as_ref();
    let json = matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("json") | Some("jsonl")
    );
    let bytes = if json {
        to_json_lines(trace).into_bytes()
    } else {
        to_binary(trace)
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| TraceError::Io(e.to_string()))?;
        }
    }
    std::fs::write(path, bytes).map_err(|e| TraceError::Io(e.to_string()))
}

/// Reads a trace from `path`, auto-detecting the format by content.
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
        t.inputs.push(ReplayEvent::ChaosDraw {
            stream: 7,
            index: 0,
            value: 42,
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
    fn both_formats_round_trip_and_auto_detect() {
        let t = sample();
        let json = to_json_lines(&t);
        assert_eq!(decode(json.as_bytes()).unwrap(), t);
        let bin = to_binary(&t);
        assert_eq!(decode(&bin).unwrap(), t);
        assert!(bin.starts_with(BINARY_MAGIC));
    }

    #[test]
    fn truncated_binary_errors_cleanly() {
        let bin = to_binary(&sample());
        for cut in [0, 3, 5, 9, bin.len() - 1] {
            let err = from_binary(&bin[..cut]);
            assert!(err.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bin = to_binary(&sample());
        let mid = bin.len() / 2;
        bin[mid] ^= 0xFF;
        assert!(matches!(
            from_binary(&bin),
            Err(TraceError::Corrupt(_)) | Err(TraceError::Parse(_)) | Err(TraceError::Truncated)
        ));
    }

    /// Binary tag 4 and a JSON `Vm` line — the embedded-VM section no
    /// reader has any more — are errors like any other unknown record.
    #[test]
    fn unknown_records_error_cleanly() {
        let mut bin = to_binary(&sample());
        push_frame(&mut bin, 4, br#"{"app":"unit","events":[]}"#);
        assert_eq!(
            from_binary(&bin),
            Err(TraceError::Corrupt("unknown frame tag 4".into()))
        );
        let mut json = to_json_lines(&sample());
        json.push_str("{\"Vm\":{\"app\":\"unit\",\"events\":[]}}\n");
        assert!(matches!(decode(json.as_bytes()), Err(TraceError::Parse(_))));
    }

    #[test]
    fn version_mismatch_is_reported() {
        let mut bin = to_binary(&sample());
        bin[4] = 99;
        assert_eq!(from_binary(&bin), Err(TraceError::UnsupportedVersion(99)));
    }
}
