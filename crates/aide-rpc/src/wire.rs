//! Wire format for the inter-VM RPC protocol.
//!
//! Messages are encoded into length-delimited binary frames with a
//! hand-rolled codec (no reflection, no self-describing format): a one-byte
//! tag, fixed-width little-endian integers, and explicit collections. The
//! codec is exercised by round-trip property tests.
//!
//! Payload *sizes* (method parameters, field data) are declared, not
//! carried: a `FieldAccess { bytes: 4096 }` frame does not carry 4 KiB
//! of zeros. Link timing is computed from the declared sizes (see
//! [`Request::crossing`]), which is exactly how the paper's emulator
//! stretched simulated execution time for remote interactions.
//!
//! Every frame is integrity-protected: the encoded message payload is
//! prefixed with a one-byte protocol version and a CRC32 (IEEE) of the
//! payload. A frame corrupted in flight decodes to
//! [`WireError::BadChecksum`] — never to a panic or a wrong message — so
//! the retry layer above can treat corruption exactly like loss.
//!
//! There is one frame format, version 5:
//! `[version][crc32 LE][ctx flag][ctx?][lease flag][epoch, writes?][body]`.
//! The checksummed payload opens with the [`FrameHeader`]: a *trace
//! context* — a presence flag plus, when the encoding thread has an active
//! span, its `(trace_id, span_id)` — so every RPC carries its causal parent
//! across the wire and the serving side can parent its service span under
//! the caller's span; then a *lease stamp* — a presence flag plus, when the
//! sender participates in distributed GC, its [`LeaseStamp`]: its current
//! lease epoch, so every ordinary frame doubles as a lease renewal for the
//! receiver's export table, and how many slot writes its VM has made, so
//! the receiver knows how long what it has read of the sender's objects
//! stays true; then, when the sender has any, the *touches it deferred*
//! ([`Request::is_deferrable`]), which the receiver serves, in order,
//! before the message itself. The stamp and the touches share one flags
//! byte, so a frame that carries no touches is laid out exactly as before
//! they could ride (a decoder that predates them refuses the new flag as
//! [`WireError::BadTag`] rather than misreading it). A frame announcing any
//! other version is [`WireError::BadVersion`].
//!
//! There is likewise one encoder and one decoder:
//! [`Message::encode_stamped`] returns the frame as a `Vec<u8>` of its own,
//! and [`Message::decode_framed`] returns the header with the message.
//! [`Message::encode`] and [`Message::decode`] are their shorthands for "no
//! lease" and "drop the header".

use std::io::Write;
use std::time::Instant;

use aide_graph::Crossing;
use aide_telemetry::SpanContext;
use aide_vm::{ClassId, MethodId, NativeKind, ObjectId, ObjectRecord};

/// The protocol version, carried as the first byte of every frame. A
/// frame announcing any other version is rejected with
/// [`WireError::BadVersion`].
pub const PROTOCOL_VERSION: u8 = 5;

/// Bytes of framing overhead preceding the message payload: the version
/// byte plus the little-endian CRC32.
const FRAME_HEADER: usize = 5;

/// Protocol-level errors (malformed frames, truncated buffers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before the message was complete.
    Truncated,
    /// An unknown message or enum tag was encountered.
    BadTag(u8),
    /// Trailing bytes followed a complete message.
    TrailingBytes(usize),
    /// The frame announced an unsupported protocol version.
    BadVersion(u8),
    /// The frame's CRC32 did not match its payload (in-flight corruption).
    BadChecksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("frame truncated"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadChecksum => f.write_str("frame checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// CRC32 (IEEE 802.3) lookup tables for slicing-by-16, built at compile
/// time: `CRC_TABLES[0]` is the bytewise table, and `CRC_TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let c = tables[t - 1][i];
            tables[t][i] = (c >> 8) ^ tables[0][(c & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC32 (IEEE) of `data`, sixteen bytes a step: each byte of a block
/// looks up the table for the bytes that follow it, and the lookups fold
/// into one XOR.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let block: &[u8; 16] = block.try_into().expect("a 16-byte chunk");
        let head = c ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let head = head.to_le_bytes();
        c = (0..4).fold(0, |c, j| c ^ t[15 - j][usize::from(head[j])]);
        c = (4..16).fold(c, |c, j| c ^ t[15 - j][usize::from(block[j])]);
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// A request the peer should execute.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Invoke `method` of `class` on `target`, which lives on the peer.
    Invoke {
        /// Receiver object (lives on the serving VM).
        target: ObjectId,
        /// Class the call site is compiled against.
        class: ClassId,
        /// Method index within `class`.
        method: MethodId,
        /// Declared parameter payload in bytes.
        arg_bytes: u32,
        /// Declared return payload in bytes.
        ret_bytes: u32,
        /// Reference arguments (global object ids).
        args: Vec<ObjectId>,
    },
    /// Read or write `bytes` of scalar data on `target`.
    FieldAccess {
        /// Target object.
        target: ObjectId,
        /// Declared payload in bytes.
        bytes: u32,
        /// `true` for a write.
        write: bool,
    },
    /// Read reference slot `slot` of `target`.
    GetSlot {
        /// Target object.
        target: ObjectId,
        /// Slot index.
        slot: u16,
    },
    /// Write reference slot `slot` of `target`.
    PutSlot {
        /// Target object.
        target: ObjectId,
        /// Slot index.
        slot: u16,
        /// New slot value.
        value: Option<ObjectId>,
    },
    /// Execute a client-bound native on the serving VM.
    Native {
        /// Class whose code invoked the native.
        caller: ClassId,
        /// Kind of native.
        kind: NativeKind,
        /// CPU the native burns, in client-speed microseconds.
        work_micros: u32,
        /// Declared parameter payload in bytes.
        arg_bytes: u32,
        /// Declared result payload in bytes.
        ret_bytes: u32,
    },
    /// Access static data of `class` on the serving VM (the client).
    StaticAccess {
        /// Class whose code performed the access.
        accessor: ClassId,
        /// Class owning the static data.
        class: ClassId,
        /// Declared payload in bytes.
        bytes: u32,
        /// `true` for a write.
        write: bool,
    },
    /// Resolve the class of `target` on the serving VM.
    ClassOf {
        /// Target object.
        target: ObjectId,
    },
    /// Phase one of a transactional migration: stage these objects under
    /// transaction `txn` without installing them. The serving VM checks
    /// capacity for everything staged so far and holds the objects in a
    /// side buffer until [`Request::MigrateCommit`] or
    /// [`Request::MigrateAbort`].
    MigratePrepare {
        /// Migration transaction id, unique per client.
        txn: u64,
        /// `(id, record)` pairs to stage.
        objects: Vec<(ObjectId, ObjectRecord)>,
    },
    /// Phase two of a transactional migration: atomically install every
    /// object staged under `txn` into the serving VM's heap.
    MigrateCommit {
        /// Migration transaction id.
        txn: u64,
    },
    /// Abort a transactional migration: discard everything staged under
    /// `txn`. Idempotent; aborting an unknown transaction is a no-op.
    MigrateAbort {
        /// Migration transaction id.
        txn: u64,
    },
    /// Orderly connection teardown.
    Shutdown,
    /// Null RPC: the serving VM replies immediately with no work. Used by
    /// surrogate discovery and liveness probes to measure the real
    /// round-trip time (the paper's 2.4 ms null-RPC figure, §5) — probes
    /// deliberately bypass simulated link-time accounting.
    Ping,
    /// Telemetry scrape: the serving VM replies with a Prometheus-style
    /// text exposition of its process's metrics registry, and a daemon
    /// adds its pool's load lines ([`Reply::Text`]). Like
    /// [`Request::Ping`], this is an operational request, not application
    /// communication.
    Stats,
    /// Explicit lease renewal for a quiet session: the sender still holds
    /// references to the serving VM's exports and advertises its current
    /// lease epoch. Steady-state traffic renews implicitly via the frame
    /// lease stamp; this exists so silence alone never expires a live
    /// reference. Idempotent and safe to retry.
    GcRenew {
        /// The sender's current lease epoch.
        epoch: u64,
    },
    /// Watermarked distributed-GC release: the sender's collector proved
    /// it holds no references to these objects of the serving VM. Carries
    /// the sender's lease epoch (so post-failover zombies are detectable)
    /// and a monotonically increasing per-session sequence number (so
    /// retries and chaos duplicates are dropped at the watermark instead
    /// of double-unpinning).
    GcReleaseSeq {
        /// The sender's current lease epoch.
        epoch: u64,
        /// Release-batch sequence number, monotonic per session.
        release_seq: u64,
        /// Objects the sender no longer references at all.
        objects: Vec<ObjectId>,
    },
    /// Store-and-forward delivery of a migration that was queued while the
    /// serving VM was unreachable: the objects install in one step, keyed
    /// by the relay transaction id so redelivery attempts (the relay
    /// retries until acknowledged) install them at most once.
    RelayDeliver {
        /// Relay transaction id, unique per queued migration.
        txn: u64,
        /// How long the migration sat in the relay queue, in milliseconds
        /// of relay-clock time (observability; not used for expiry, which
        /// happens at the relay).
        queued_for_ms: u64,
        /// `(id, record)` pairs to install in the serving VM's heap.
        objects: Vec<(ObjectId, ObjectRecord)>,
    },
}

impl Request {
    /// Whether this is a touch whose reply carries nothing — a field access
    /// (the VM models no scalar values), a slot write, a static access, a
    /// native or an invocation (it returns nothing either) — so that its
    /// sender need not wait for it: it may ride the next frame to the peer
    /// instead ([`FrameHeader::deferred`]). Whether an `Invoke` may wait is
    /// the sender's to decide: its callee runs code on the peer, which must
    /// neither call back nor reorder against what the sender does next.
    pub fn is_deferrable(&self) -> bool {
        matches!(
            self,
            Request::Invoke { .. }
                | Request::FieldAccess { .. }
                | Request::PutSlot { .. }
                | Request::StaticAccess { .. }
                | Request::Native { .. }
        )
    }

    /// What this request puts on the link, for
    /// [`CommParams::charge`](aide_graph::CommParams::charge): the payload
    /// the monitor records for the same interaction, never a frame header
    /// (the null-message RTT pays for one). A `MigratePrepare` streams its
    /// objects' footprints (the offload's `bytes_moved`), a `RelayDeliver`
    /// sends them in one call; requests the monitor never sees carry their
    /// ids.
    pub fn crossing(&self) -> Crossing {
        let footprints = |objects: &[(ObjectId, ObjectRecord)]| -> u64 {
            objects.iter().map(|(_, rec)| rec.footprint()).sum()
        };
        let bytes = match self {
            Request::Invoke {
                arg_bytes,
                ret_bytes,
                ..
            }
            | Request::Native {
                arg_bytes,
                ret_bytes,
                ..
            } => u64::from(*arg_bytes) + u64::from(*ret_bytes),
            Request::FieldAccess { bytes, .. } | Request::StaticAccess { bytes, .. } => {
                u64::from(*bytes)
            }
            Request::GetSlot { .. } | Request::PutSlot { .. } | Request::GcRenew { .. } => 8,
            Request::MigratePrepare { objects, .. } => {
                return Crossing::Stream {
                    bytes: footprints(objects),
                }
            }
            Request::RelayDeliver { objects, .. } => footprints(objects),
            Request::GcReleaseSeq { objects, .. } => 16 + 8 * objects.len() as u64,
            Request::ClassOf { .. }
            | Request::MigrateCommit { .. }
            | Request::MigrateAbort { .. }
            | Request::Shutdown
            | Request::Ping
            | Request::Stats => 0,
        };
        Crossing::Calls { count: 1, bytes }
    }

    /// The static name of this request variant, used to label serve
    /// spans and the critical-path attribution.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Invoke { .. } => "Invoke",
            Request::FieldAccess { .. } => "FieldAccess",
            Request::GetSlot { .. } => "GetSlot",
            Request::PutSlot { .. } => "PutSlot",
            Request::Native { .. } => "Native",
            Request::StaticAccess { .. } => "StaticAccess",
            Request::ClassOf { .. } => "ClassOf",
            Request::MigratePrepare { .. } => "MigratePrepare",
            Request::MigrateCommit { .. } => "MigrateCommit",
            Request::MigrateAbort { .. } => "MigrateAbort",
            Request::Shutdown => "Shutdown",
            Request::Ping => "Ping",
            Request::Stats => "Stats",
            Request::GcRenew { .. } => "GcRenew",
            Request::GcReleaseSeq { .. } => "GcReleaseSeq",
            Request::RelayDeliver { .. } => "RelayDeliver",
        }
    }
}

/// A successful reply payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Operation completed with no result value.
    Unit,
    /// A slot read result.
    Slot(Option<ObjectId>),
    /// A class resolution result.
    Class(ClassId),
    /// A textual payload (the [`Request::Stats`] exposition).
    Text(String),
    /// Admission-control backpressure: the serving side is at its session
    /// or queue limit and refused the request. The caller should back off
    /// for at least `retry_after_ms` or place the work elsewhere. Carried
    /// as a reply (not an error string) so it is machine-distinguishable
    /// from execution failures and never burns retry budget.
    Busy {
        /// Server's backoff hint, in milliseconds.
        retry_after_ms: u32,
    },
    /// A touch deferred onto the request's frame failed on the serving VM
    /// with this error, so the request itself did not run. Carried as a
    /// reply, like [`Reply::Busy`], so that the caller can tell it from a
    /// failure of the request it sent.
    TouchFailed(String),
}

/// What every frame carries ahead of its message, covered by the frame
/// CRC like the message itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameHeader {
    /// The span that was active on the encoding thread, so the serving
    /// side can parent its service span under the caller's.
    pub trace: Option<SpanContext>,
    /// The sender's lease stamp, when it participates in distributed GC.
    pub lease: Option<LeaseStamp>,
    /// Touches the sender deferred ([`Request::is_deferrable`]) since its
    /// last frame to this peer, oldest first. The receiver serves them
    /// before the message — on a request frame as part of the request,
    /// under its at-most-once key; on a reply frame on the caller's thread,
    /// before the caller goes on.
    pub deferred: Touches,
}

/// What a side that participates in distributed GC says about itself on
/// every frame it sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseStamp {
    /// The sender's GC lease epoch: the receiver renews its export leases
    /// from it.
    pub epoch: u64,
    /// Slot writes the sender's VM has made so far
    /// ([`aide_vm::SlotWrites`]), read when the frame is encoded: the
    /// receiver may answer reads of the sender's slots from memory until
    /// this moves.
    pub writes: u64,
}

/// A framed protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A request awaiting a matching reply.
    Request {
        /// Correlation number, unique per sender. Retries of the same
        /// logical request reuse the same `seq`, which is what lets the
        /// serving side deduplicate them.
        seq: u64,
        /// Process-unique id of the calling endpoint. Together with `seq`
        /// it forms the at-most-once dedup key on the serving side.
        client: u64,
        /// The operation to perform.
        body: Request,
    },
    /// The reply to the request with the same `seq`.
    Reply {
        /// Correlation number of the request this answers.
        seq: u64,
        /// The outcome: a [`Reply`] or a stringified remote error.
        result: Result<Reply, String>,
    },
}

impl Message {
    /// Encodes the message into a frame with no lease stamp; shorthand for
    /// [`encode_stamped(None)`](Message::encode_stamped).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_stamped(None)
    }

    /// Encodes the message into a frame
    /// (`[version][crc32 LE][trace ctx][lease stamp][body]`). The header
    /// carries the encoding thread's active span context, and `lease` — the
    /// sender's [`LeaseStamp`] — when present, so the receiving side renews
    /// its export leases as a side effect of ordinary traffic.
    pub fn encode_stamped(&self, lease: Option<LeaseStamp>) -> Vec<u8> {
        self.encode_deferring(lease, &[])
    }

    /// [`encode_stamped`](Message::encode_stamped), with `deferred` — the
    /// sender's deferred touches, oldest first — riding the header.
    pub fn encode_deferring(&self, lease: Option<LeaseStamp>, deferred: &[Request]) -> Vec<u8> {
        self.encode_queued(lease, &deferred.iter().collect())
    }

    /// [`encode_deferring`](Message::encode_deferring), with the touches
    /// already encoded: their bytes are copied.
    pub(crate) fn encode_queued(&self, lease: Option<LeaseStamp>, deferred: &Touches) -> Vec<u8> {
        let mut buf = Vec::with_capacity(FRAME_HEADER + 64 + deferred.bytes.len());
        buf.push(PROTOCOL_VERSION);
        buf.extend_from_slice(&0u32.to_le_bytes()); // checksum placeholder, patched below
        encode_trace_context(&mut buf);
        encode_stamp_and_touches(&mut buf, lease, deferred);
        self.encode_body(&mut buf);
        let crc = crc32(&buf[FRAME_HEADER..]);
        buf[1..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Writes the tagged payload bytes of this message into `buf`.
    fn encode_body(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Request { seq, client, body } => {
                buf.push(0);
                buf.extend_from_slice(&seq.to_le_bytes());
                buf.extend_from_slice(&client.to_le_bytes());
                encode_request(buf, body);
            }
            Message::Reply { seq, result } => {
                buf.push(1);
                buf.extend_from_slice(&seq.to_le_bytes());
                match result {
                    Ok(reply) => {
                        buf.push(0);
                        encode_reply(buf, reply);
                    }
                    Err(msg) => {
                        buf.push(1);
                        put_str(buf, msg);
                    }
                }
            }
        }
    }

    /// Decodes a message from a frame, dropping its header; shorthand for
    /// [`Message::decode_framed`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Message::decode_framed`].
    pub fn decode(frame: &[u8]) -> Result<Message, WireError> {
        Self::decode_framed(frame).map(|(_, message)| message)
    }

    /// Decodes a frame into its [`FrameHeader`] — the sender's trace
    /// context and GC lease stamp, when the frame carries them — and its
    /// message.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the frame announces a protocol version
    /// other than [`PROTOCOL_VERSION`], fails its checksum, is truncated,
    /// carries an unknown tag, or has trailing bytes.
    pub fn decode_framed(frame: &[u8]) -> Result<(FrameHeader, Message), WireError> {
        if frame.len() < FRAME_HEADER {
            return Err(WireError::Truncated);
        }
        let version = frame[0];
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let declared = u32::from_le_bytes([frame[1], frame[2], frame[3], frame[4]]);
        let mut payload = &frame[FRAME_HEADER..];
        if crc32(payload) != declared {
            return Err(WireError::BadChecksum);
        }
        let trace = decode_trace_context(&mut payload)?;
        let (lease, deferred) = decode_stamp_and_touches(&mut payload)?;
        let header = FrameHeader {
            trace,
            lease,
            deferred,
        };
        Ok((header, Self::decode_payload(payload)?))
    }

    /// Decodes a checksum-verified message payload.
    fn decode_payload(mut payload: &[u8]) -> Result<Message, WireError> {
        let buf = &mut payload;
        let msg = match get_u8(buf)? {
            0 => {
                let seq = get_u64(buf)?;
                let client = get_u64(buf)?;
                let body = decode_request(buf)?;
                Message::Request { seq, client, body }
            }
            1 => {
                let seq = get_u64(buf)?;
                let result = match get_u8(buf)? {
                    0 => Ok(decode_reply(buf)?),
                    1 => Err(get_str(buf)?),
                    t => return Err(WireError::BadTag(t)),
                };
                Message::Reply { seq, result }
            }
            t => return Err(WireError::BadTag(t)),
        };
        if !buf.is_empty() {
            return Err(WireError::TrailingBytes(buf.len()));
        }
        Ok(msg)
    }
}

/// Writes the trace-context prefix that opens every payload: a presence
/// flag, then the encoding thread's active `(trace_id, span_id)` when it
/// has one. The prefix is covered by the frame CRC.
fn encode_trace_context(buf: &mut Vec<u8>) {
    match aide_telemetry::current_context() {
        Some(ctx) => {
            buf.push(1);
            buf.extend_from_slice(&ctx.trace_id.to_le_bytes());
            buf.extend_from_slice(&ctx.span_id.to_le_bytes());
        }
        None => buf.push(0),
    }
}

/// Reads the trace-context prefix, advancing `buf` past it.
fn decode_trace_context(buf: &mut &[u8]) -> Result<Option<SpanContext>, WireError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => {
            let trace_id = get_u64(buf)?;
            let span_id = get_u64(buf)?;
            Ok(Some(SpanContext { trace_id, span_id }))
        }
        t => Err(WireError::BadTag(t)),
    }
}

/// Flag bits of the byte that follows the trace context.
const STAMPED: u8 = 1;
const DEFERRING: u8 = 2;

/// Writes what follows the trace context: a flags byte, then the sender's
/// GC lease epoch and slot-write count when it has a stamp, then the count
/// and the touches when it deferred any. Covered by the frame CRC like
/// everything else in the payload.
fn encode_stamp_and_touches(buf: &mut Vec<u8>, lease: Option<LeaseStamp>, deferred: &Touches) {
    let deferring = !deferred.is_empty();
    buf.push((u8::from(lease.is_some()) * STAMPED) | (u8::from(deferring) * DEFERRING));
    if let Some(LeaseStamp { epoch, writes }) = lease {
        buf.extend_from_slice(&epoch.to_le_bytes());
        buf.extend_from_slice(&writes.to_le_bytes());
    }
    if deferring {
        let count = u16::try_from(deferred.len()).expect("at most u16::MAX deferred touches");
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&deferred.bytes);
    }
}

/// Deferred touches as a frame's header carries them: each encoded once —
/// when it is queued, or as the frame that carried it was read — and
/// decoded as it is served, so a frame copies their bytes and a batch is
/// never held as [`Request`]s (a field access takes 14 B here, 48 as a
/// `Request`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Touches {
    bytes: Vec<u8>,
    /// Where each touch starts in `bytes`, oldest first.
    starts: Vec<u32>,
    /// How many of them are slot writes.
    slot_writes: u64,
}

impl Touches {
    /// Queues `touch` behind the others.
    pub(crate) fn push(&mut self, touch: &Request) {
        let start = u32::try_from(self.bytes.len()).expect("a queue under 4 GiB");
        self.starts.push(start);
        encode_request(&mut self.bytes, touch);
        self.slot_writes += u64::from(matches!(touch, Request::PutSlot { .. }));
    }

    /// How many touches there are.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The touches, oldest first, each decoded as it is reached.
    pub fn iter(&self) -> impl Iterator<Item = Request> + '_ {
        let mut rest = self.bytes.as_slice();
        (0..self.len()).map(move |_| decode_request(&mut rest).expect("a held touch decodes"))
    }

    /// How many of the queued touches are slot writes.
    pub(crate) fn slot_writes(&self) -> u64 {
        self.slot_writes
    }

    /// Takes the newest touch off the queue.
    pub(crate) fn pop(&mut self) -> Option<Request> {
        let start = self.starts.pop()? as usize;
        let touch = decode_request(&mut &self.bytes[start..]).expect("a held touch decodes");
        self.bytes.truncate(start);
        self.slot_writes -= u64::from(matches!(touch, Request::PutSlot { .. }));
        Some(touch)
    }

    /// Every touch, oldest first.
    pub fn to_vec(&self) -> Vec<Request> {
        self.iter().collect()
    }

    /// Queues `front` ahead of the touches queued now.
    pub(crate) fn prepend(&mut self, mut front: Touches) {
        let shift = u32::try_from(front.bytes.len()).expect("a queue under 4 GiB");
        front.bytes.extend_from_slice(&self.bytes);
        front
            .starts
            .extend(self.starts.iter().map(|start| start + shift));
        front.slot_writes += self.slot_writes;
        *self = front;
    }
}

impl<'a> FromIterator<&'a Request> for Touches {
    fn from_iter<I: IntoIterator<Item = &'a Request>>(touches: I) -> Self {
        let mut queued = Touches::default();
        for touch in touches {
            queued.push(touch);
        }
        queued
    }
}

/// Reads the lease stamp and the deferred touches, advancing `buf` past
/// them. Anything but a deferrable touch in the list is a bad frame.
fn decode_stamp_and_touches(buf: &mut &[u8]) -> Result<(Option<LeaseStamp>, Touches), WireError> {
    let flags = get_u8(buf)?;
    if flags & !(STAMPED | DEFERRING) != 0 {
        return Err(WireError::BadTag(flags));
    }
    let lease = if flags & STAMPED != 0 {
        Some(LeaseStamp {
            epoch: get_u64(buf)?,
            writes: get_u64(buf)?,
        })
    } else {
        None
    };
    let mut deferred = Touches::default();
    if flags & DEFERRING != 0 {
        let count = get_u16(buf)?;
        let all = *buf;
        deferred
            .starts
            .reserve(announced(usize::from(count), buf, SHORTEST_TOUCH));
        for _ in 0..count {
            let tag = buf.first().copied();
            deferred.starts.push((all.len() - buf.len()) as u32);
            let touch = decode_request(buf)?;
            if !touch.is_deferrable() {
                return Err(WireError::BadTag(tag.unwrap_or_default()));
            }
            deferred.slot_writes += u64::from(matches!(touch, Request::PutSlot { .. }));
        }
        deferred.bytes = all[..all.len() - buf.len()].to_vec();
    }
    Ok((lease, deferred))
}

/// Hard cap on a single frame read from a byte-stream carrier. A peer
/// announcing a larger frame is treated as corrupt and disconnected.
pub(crate) const MAX_FRAME: u32 = 64 << 20;

/// Largest capacity a carrier's compose buffer keeps between frames; the
/// buffer a bulk migration grew it to is freed rather than kept hot.
const SCRATCH_MAX_RETAIN: usize = 1 << 20;

/// Writes one `[len u32 LE][head][payload]` frame to a byte-stream carrier
/// with a single `write_all`, so a frame is one segment on a `TCP_NODELAY`
/// socket and one wake-up for the peer's reader. `scratch` is the carrier's
/// reused compose buffer. `head` is the mux's `[session][kind]` and counts
/// toward `len`. This and [`FrameReader`] are the only framing code.
pub(crate) fn write_framed(
    w: &mut impl Write,
    scratch: &mut Vec<u8>,
    head: &[u8; MUX_HEADER],
    payload: &[u8],
) -> std::io::Result<()> {
    let len = u32::try_from(head.len() + payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME)
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME")
        })?;
    scratch.clear();
    scratch.extend_from_slice(&len.to_le_bytes());
    scratch.extend_from_slice(head);
    scratch.extend_from_slice(payload);
    let written = w.write_all(scratch);
    if scratch.capacity() > SCRATCH_MAX_RETAIN {
        // A bulk migration passed through: do not keep its buffer hot.
        *scratch = Vec::new();
    }
    written
}

/// Size of the buffer a carrier's read half fills: a burst of small frames
/// costs one `read`, not two per frame. A payload that is not all in it is
/// read straight into its frame, so bulk frames need no room here — and
/// every byte of it is touched (it is zeroed up front), which is what a
/// process with many carriers pays for it.
pub(crate) const READ_BUFFER: usize = 16 << 10;

/// Bytes of the per-frame header a carrier puts inside the length-delimited
/// frame: the mux's `[session u32 LE][kind u8]`.
pub(crate) const MUX_HEADER: usize = 5;

/// A carrier's per-frame header as read.
pub(crate) type FrameHead = [u8; MUX_HEADER];

/// The receiving end of a byte stream whose reads can give up at a
/// deadline, which is what lets a caller with a timeout read a carrier
/// itself. The one socket-backed implementation lives in `crate::tcp`.
pub(crate) trait DeadlineRead: Send {
    /// Reads into `buf` like [`std::io::Read::read`], blocking no later than
    /// `deadline` (for as long as it takes when `None`).
    ///
    /// # Errors
    ///
    /// [`ErrorKind::WouldBlock`](std::io::ErrorKind::WouldBlock) or
    /// [`ErrorKind::TimedOut`](std::io::ErrorKind::TimedOut) when the
    /// deadline passed first; anything else is the stream's own failure.
    fn read_by(&mut self, buf: &mut [u8], deadline: Option<Instant>) -> std::io::Result<usize>;
}

/// Whether `e` is how a [`DeadlineRead`] reports that its deadline passed.
pub(crate) fn timed_out(e: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A frame whose payload has not all arrived yet.
struct PartialFrame {
    head: FrameHead,
    frame: Vec<u8>,
    filled: usize,
}

/// Reads `[len u32 LE][head][payload]` frames off a byte-stream carrier,
/// each payload into a fresh `vec![0; len]`. Everything read so far —
/// buffered bytes, a half-arrived frame — lives in the reader, so a read
/// that times out mid-frame loses nothing and the next call (from whichever
/// thread then drives the carrier) carries on where it stopped.
pub(crate) struct FrameReader {
    source: Box<dyn DeadlineRead>,
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    partial: Option<PartialFrame>,
}

impl FrameReader {
    /// The frames of `source`.
    pub(crate) fn new(source: impl DeadlineRead + 'static) -> FrameReader {
        FrameReader {
            source: Box::new(source),
            buf: vec![0; READ_BUFFER].into_boxed_slice(),
            start: 0,
            end: 0,
            partial: None,
        }
    }

    /// Whether bytes have been read off the carrier that no returned frame
    /// accounts for yet.
    pub(crate) fn holds_unread(&self) -> bool {
        self.start != self.end || self.partial.is_some()
    }

    /// The next frame, or `None` if `deadline` passed before all of it
    /// arrived.
    ///
    /// # Errors
    ///
    /// EOF (also mid-frame), a `len` shorter than the head or beyond
    /// [`MAX_FRAME`] — before anything is allocated for it — and the
    /// stream's own errors; none of them is recoverable.
    pub(crate) fn next(
        &mut self,
        deadline: Option<Instant>,
    ) -> std::io::Result<Option<(FrameHead, Vec<u8>)>> {
        use std::io::ErrorKind;
        loop {
            if let Some(whole) = self.take_buffered()? {
                return Ok(Some(whole));
            }
            // The buffer holds no whole frame. A payload under way takes
            // what is left of it straight off the carrier (a bulk frame is
            // not copied twice); otherwise the buffer is topped up.
            let read = match &mut self.partial {
                Some(partial) => {
                    let rest = &mut partial.frame[partial.filled..];
                    let read = self.source.read_by(rest, deadline);
                    if let Ok(n) = &read {
                        partial.filled += n;
                    }
                    read
                }
                None => {
                    // At most a partial header is left over: move it to the
                    // front so the read has the whole buffer behind it.
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                    let read = self.source.read_by(&mut self.buf[self.end..], deadline);
                    if let Ok(n) = &read {
                        self.end += n;
                    }
                    read
                }
            };
            match read {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if timed_out(&e) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    /// Carves the next frame out of what is buffered, if all of it is
    /// there; otherwise consumes what there is of it.
    fn take_buffered(&mut self) -> std::io::Result<Option<(FrameHead, Vec<u8>)>> {
        if self.partial.is_none() {
            let prefix = 4 + MUX_HEADER;
            let Some(bytes) = self.buf[self.start..self.end].get(..prefix) else {
                return Ok(None);
            };
            let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            if (len as usize) < MUX_HEADER || len > MAX_FRAME {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "frame length out of range",
                ));
            }
            let mut head = FrameHead::default();
            head.copy_from_slice(&bytes[4..]);
            self.start += prefix;
            self.partial = Some(PartialFrame {
                head,
                frame: vec![0; len as usize - MUX_HEADER],
                filled: 0,
            });
        }
        let partial = self.partial.as_mut().expect("set above");
        let take = (partial.frame.len() - partial.filled).min(self.end - self.start);
        partial.frame[partial.filled..partial.filled + take]
            .copy_from_slice(&self.buf[self.start..self.start + take]);
        partial.filled += take;
        self.start += take;
        if partial.filled < partial.frame.len() {
            return Ok(None);
        }
        Ok(self.partial.take().map(|whole| (whole.head, whole.frame)))
    }
}

/// Writes a request as its tag byte and fields. Tags 7 and 8 are
/// unassigned: nothing encodes them and they decode to
/// [`WireError::BadTag`].
fn encode_request(buf: &mut Vec<u8>, body: &Request) {
    match body {
        Request::Invoke {
            target,
            class,
            method,
            arg_bytes,
            ret_bytes,
            args,
        } => {
            buf.push(0);
            buf.extend_from_slice(&target.0.to_le_bytes());
            buf.extend_from_slice(&class.0.to_le_bytes());
            buf.extend_from_slice(&method.0.to_le_bytes());
            buf.extend_from_slice(&arg_bytes.to_le_bytes());
            buf.extend_from_slice(&ret_bytes.to_le_bytes());
            buf.extend_from_slice(&(args.len() as u16).to_le_bytes());
            for a in args {
                buf.extend_from_slice(&a.0.to_le_bytes());
            }
        }
        Request::FieldAccess {
            target,
            bytes,
            write,
        } => {
            buf.push(1);
            buf.extend_from_slice(&target.0.to_le_bytes());
            buf.extend_from_slice(&bytes.to_le_bytes());
            buf.push(u8::from(*write));
        }
        Request::GetSlot { target, slot } => {
            buf.push(2);
            buf.extend_from_slice(&target.0.to_le_bytes());
            buf.extend_from_slice(&slot.to_le_bytes());
        }
        Request::PutSlot {
            target,
            slot,
            value,
        } => {
            buf.push(3);
            buf.extend_from_slice(&target.0.to_le_bytes());
            buf.extend_from_slice(&slot.to_le_bytes());
            put_opt_oid(buf, *value);
        }
        Request::Native {
            caller,
            kind,
            work_micros,
            arg_bytes,
            ret_bytes,
        } => {
            buf.push(4);
            buf.extend_from_slice(&caller.0.to_le_bytes());
            buf.push(native_tag(*kind));
            buf.extend_from_slice(&work_micros.to_le_bytes());
            buf.extend_from_slice(&arg_bytes.to_le_bytes());
            buf.extend_from_slice(&ret_bytes.to_le_bytes());
        }
        Request::StaticAccess {
            accessor,
            class,
            bytes,
            write,
        } => {
            buf.push(5);
            buf.extend_from_slice(&accessor.0.to_le_bytes());
            buf.extend_from_slice(&class.0.to_le_bytes());
            buf.extend_from_slice(&bytes.to_le_bytes());
            buf.push(u8::from(*write));
        }
        Request::ClassOf { target } => {
            buf.push(6);
            buf.extend_from_slice(&target.0.to_le_bytes());
        }
        Request::Shutdown => buf.push(9),
        Request::Ping => buf.push(10),
        Request::Stats => buf.push(11),
        Request::MigratePrepare { txn, objects } => {
            buf.push(12);
            buf.extend_from_slice(&txn.to_le_bytes());
            put_object_records(buf, objects);
        }
        Request::MigrateCommit { txn } => {
            buf.push(13);
            buf.extend_from_slice(&txn.to_le_bytes());
        }
        Request::MigrateAbort { txn } => {
            buf.push(14);
            buf.extend_from_slice(&txn.to_le_bytes());
        }
        Request::GcRenew { epoch } => {
            buf.push(15);
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Request::GcReleaseSeq {
            epoch,
            release_seq,
            objects,
        } => {
            buf.push(16);
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(&release_seq.to_le_bytes());
            buf.extend_from_slice(&(objects.len() as u32).to_le_bytes());
            for id in objects {
                buf.extend_from_slice(&id.0.to_le_bytes());
            }
        }
        Request::RelayDeliver {
            txn,
            queued_for_ms,
            objects,
        } => {
            buf.push(17);
            buf.extend_from_slice(&txn.to_le_bytes());
            buf.extend_from_slice(&queued_for_ms.to_le_bytes());
            put_object_records(buf, objects);
        }
    }
}

fn put_object_records(buf: &mut Vec<u8>, objects: &[(ObjectId, ObjectRecord)]) {
    buf.extend_from_slice(&(objects.len() as u32).to_le_bytes());
    for (id, rec) in objects {
        buf.extend_from_slice(&id.0.to_le_bytes());
        buf.extend_from_slice(&rec.class.0.to_le_bytes());
        buf.extend_from_slice(&rec.scalar_bytes.to_le_bytes());
        buf.extend_from_slice(&(rec.slots.len() as u16).to_le_bytes());
        for slot in &rec.slots {
            put_opt_oid(buf, *slot);
        }
    }
}

/// Bytes of the shortest deferrable touch: a `PutSlot` of `None`.
const SHORTEST_TOUCH: usize = 1 + 8 + 2 + 1;

/// Bytes of the shortest object record: one with no slots.
const SHORTEST_RECORD: usize = 8 + 4 + 4 + 2;

/// How many of `n` announced elements, each at least `shortest` bytes, the
/// rest of the frame can hold — what a decoder reserves room for, so a
/// count the frame cannot back costs no more than the frame could carry.
fn announced(n: usize, buf: &[u8], shortest: usize) -> usize {
    n.min(buf.len() / shortest)
}

fn get_object_records(buf: &mut &[u8]) -> Result<Vec<(ObjectId, ObjectRecord)>, WireError> {
    let n = get_u32(buf)? as usize;
    let mut objects = Vec::with_capacity(announced(n, buf, SHORTEST_RECORD));
    for _ in 0..n {
        let id = ObjectId(get_u64(buf)?);
        let class = ClassId(get_u32(buf)?);
        let scalar_bytes = get_u32(buf)?;
        let slots_n = get_u16(buf)? as usize;
        if buf.len() < slots_n {
            // Each slot takes at least its presence byte.
            return Err(WireError::Truncated);
        }
        let mut rec = ObjectRecord::new(class, scalar_bytes, slots_n as u16);
        for i in 0..slots_n {
            rec.slots[i] = get_opt_oid(buf)?;
        }
        objects.push((id, rec));
    }
    Ok(objects)
}

fn decode_request(buf: &mut &[u8]) -> Result<Request, WireError> {
    Ok(match get_u8(buf)? {
        0 => {
            let target = ObjectId(get_u64(buf)?);
            let class = ClassId(get_u32(buf)?);
            let method = MethodId(get_u16(buf)?);
            let arg_bytes = get_u32(buf)?;
            let ret_bytes = get_u32(buf)?;
            let n = get_u16(buf)? as usize;
            let mut args = Vec::with_capacity(announced(n, buf, 8));
            for _ in 0..n {
                args.push(ObjectId(get_u64(buf)?));
            }
            Request::Invoke {
                target,
                class,
                method,
                arg_bytes,
                ret_bytes,
                args,
            }
        }
        1 => Request::FieldAccess {
            target: ObjectId(get_u64(buf)?),
            bytes: get_u32(buf)?,
            write: get_u8(buf)? != 0,
        },
        2 => Request::GetSlot {
            target: ObjectId(get_u64(buf)?),
            slot: get_u16(buf)?,
        },
        3 => Request::PutSlot {
            target: ObjectId(get_u64(buf)?),
            slot: get_u16(buf)?,
            value: get_opt_oid(buf)?,
        },
        4 => Request::Native {
            caller: ClassId(get_u32(buf)?),
            kind: native_from_tag(get_u8(buf)?)?,
            work_micros: get_u32(buf)?,
            arg_bytes: get_u32(buf)?,
            ret_bytes: get_u32(buf)?,
        },
        5 => Request::StaticAccess {
            accessor: ClassId(get_u32(buf)?),
            class: ClassId(get_u32(buf)?),
            bytes: get_u32(buf)?,
            write: get_u8(buf)? != 0,
        },
        6 => Request::ClassOf {
            target: ObjectId(get_u64(buf)?),
        },
        9 => Request::Shutdown,
        10 => Request::Ping,
        11 => Request::Stats,
        12 => Request::MigratePrepare {
            txn: get_u64(buf)?,
            objects: get_object_records(buf)?,
        },
        13 => Request::MigrateCommit { txn: get_u64(buf)? },
        14 => Request::MigrateAbort { txn: get_u64(buf)? },
        15 => Request::GcRenew {
            epoch: get_u64(buf)?,
        },
        16 => {
            let epoch = get_u64(buf)?;
            let release_seq = get_u64(buf)?;
            let n = get_u32(buf)? as usize;
            let mut objects = Vec::with_capacity(announced(n, buf, 8));
            for _ in 0..n {
                objects.push(ObjectId(get_u64(buf)?));
            }
            Request::GcReleaseSeq {
                epoch,
                release_seq,
                objects,
            }
        }
        17 => Request::RelayDeliver {
            txn: get_u64(buf)?,
            queued_for_ms: get_u64(buf)?,
            objects: get_object_records(buf)?,
        },
        t => return Err(WireError::BadTag(t)),
    })
}

fn encode_reply(buf: &mut Vec<u8>, reply: &Reply) {
    match reply {
        Reply::Unit => buf.push(0),
        Reply::Slot(v) => {
            buf.push(1);
            put_opt_oid(buf, *v);
        }
        Reply::Class(c) => {
            buf.push(2);
            buf.extend_from_slice(&c.0.to_le_bytes());
        }
        Reply::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
        Reply::Busy { retry_after_ms } => {
            buf.push(4);
            buf.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Reply::TouchFailed(error) => {
            buf.push(5);
            put_str(buf, error);
        }
    }
}

fn decode_reply(buf: &mut &[u8]) -> Result<Reply, WireError> {
    Ok(match get_u8(buf)? {
        0 => Reply::Unit,
        1 => Reply::Slot(get_opt_oid(buf)?),
        2 => Reply::Class(ClassId(get_u32(buf)?)),
        3 => Reply::Text(get_str(buf)?),
        4 => Reply::Busy {
            retry_after_ms: get_u32(buf)?,
        },
        5 => Reply::TouchFailed(get_str(buf)?),
        t => return Err(WireError::BadTag(t)),
    })
}

fn native_tag(kind: NativeKind) -> u8 {
    match kind {
        NativeKind::Math => 0,
        NativeKind::StringOp => 1,
        NativeKind::Framebuffer => 2,
        NativeKind::UiToolkit => 3,
        NativeKind::FileIo => 4,
        NativeKind::SystemInfo => 5,
        _ => u8::MAX,
    }
}

fn native_from_tag(tag: u8) -> Result<NativeKind, WireError> {
    Ok(match tag {
        0 => NativeKind::Math,
        1 => NativeKind::StringOp,
        2 => NativeKind::Framebuffer,
        3 => NativeKind::UiToolkit,
        4 => NativeKind::FileIo,
        5 => NativeKind::SystemInfo,
        t => return Err(WireError::BadTag(t)),
    })
}

fn put_opt_oid(buf: &mut Vec<u8>, v: Option<ObjectId>) {
    match v {
        Some(id) => {
            buf.push(1);
            buf.extend_from_slice(&id.0.to_le_bytes());
        }
        None => buf.push(0),
    }
}

fn get_opt_oid(buf: &mut &[u8]) -> Result<Option<ObjectId>, WireError> {
    match get_u8(buf)? {
        0 => Ok(None),
        1 => Ok(Some(ObjectId(get_u64(buf)?))),
        t => Err(WireError::BadTag(t)),
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String, WireError> {
    let n = get_u32(buf)? as usize;
    if buf.len() < n {
        return Err(WireError::Truncated);
    }
    let (s, rest) = buf.split_at(n);
    let s = String::from_utf8_lossy(s).into_owned();
    *buf = rest;
    Ok(s)
}

/// The next `N` bytes of `buf`, consumed.
fn take<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], WireError> {
    let (head, rest) = buf.split_first_chunk().ok_or(WireError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    Ok(u8::from_le_bytes(take(buf)?))
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, WireError> {
    Ok(u16::from_le_bytes(take(buf)?))
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(take(buf)?))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(take(buf)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let frame = msg.encode();
        let back = Message::decode(&frame).expect("decode");
        assert_eq!(msg, back);
    }

    /// A hand-built frame: `payload` under `version` with a valid CRC.
    fn seal(version: u8, payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![version];
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn invoke_round_trip() {
        round_trip(Message::Request {
            seq: 42,
            client: 7,
            body: Request::Invoke {
                target: ObjectId::surrogate(7),
                class: ClassId(3),
                method: MethodId(2),
                arg_bytes: 100,
                ret_bytes: 8,
                args: vec![ObjectId::client(1), ObjectId::client(2)],
            },
        });
    }

    #[test]
    fn all_request_variants_round_trip() {
        let mut rec = ObjectRecord::new(ClassId(5), 1000, 3);
        rec.slots[1] = Some(ObjectId::client(9));
        let requests = vec![
            Request::FieldAccess {
                target: ObjectId::client(1),
                bytes: 4096,
                write: true,
            },
            Request::GetSlot {
                target: ObjectId::surrogate(2),
                slot: 7,
            },
            Request::PutSlot {
                target: ObjectId::client(3),
                slot: 0,
                value: None,
            },
            Request::PutSlot {
                target: ObjectId::client(3),
                slot: 1,
                value: Some(ObjectId::surrogate(8)),
            },
            Request::Native {
                caller: ClassId(1),
                kind: NativeKind::Framebuffer,
                work_micros: 50,
                arg_bytes: 128,
                ret_bytes: 0,
            },
            Request::StaticAccess {
                accessor: ClassId(2),
                class: ClassId(0),
                bytes: 64,
                write: false,
            },
            Request::ClassOf {
                target: ObjectId::surrogate(11),
            },
            Request::Shutdown,
            Request::Ping,
            Request::Stats,
            Request::MigratePrepare {
                txn: 77,
                objects: vec![
                    (ObjectId::client(4), rec),
                    (ObjectId::client(12), ObjectRecord::new(ClassId(2), 256, 0)),
                ],
            },
            Request::MigrateCommit { txn: 77 },
            Request::MigrateAbort { txn: 78 },
            Request::GcRenew { epoch: 3 },
            Request::GcReleaseSeq {
                epoch: 3,
                release_seq: 41,
                objects: vec![ObjectId::surrogate(5), ObjectId::surrogate(6)],
            },
            Request::RelayDeliver {
                txn: 91,
                queued_for_ms: 1500,
                objects: vec![(ObjectId::client(13), ObjectRecord::new(ClassId(4), 128, 2))],
            },
        ];
        for (i, body) in requests.into_iter().enumerate() {
            round_trip(Message::Request {
                seq: i as u64,
                client: 3,
                body,
            });
        }
    }

    #[test]
    fn replies_round_trip() {
        round_trip(Message::Reply {
            seq: 1,
            result: Ok(Reply::Unit),
        });
        round_trip(Message::Reply {
            seq: 2,
            result: Ok(Reply::Slot(Some(ObjectId::surrogate(3)))),
        });
        round_trip(Message::Reply {
            seq: 3,
            result: Ok(Reply::Class(ClassId(12))),
        });
        round_trip(Message::Reply {
            seq: 4,
            result: Err("dangling object reference obj@c9".into()),
        });
        round_trip(Message::Reply {
            seq: 5,
            result: Ok(Reply::Text("aide_rpc_requests_total 3\n".into())),
        });
        round_trip(Message::Reply {
            seq: 6,
            result: Ok(Reply::Busy { retry_after_ms: 25 }),
        });
        round_trip(Message::Reply {
            seq: 7,
            result: Ok(Reply::TouchFailed("deferred PutSlot: dangling".into())),
        });
    }

    #[test]
    fn deferred_touches_ride_the_header_and_nothing_else_may() {
        let msg = Message::Request {
            seq: 4,
            client: 2,
            body: Request::ClassOf {
                target: ObjectId::surrogate(1),
            },
        };
        let stamp = LeaseStamp {
            epoch: 3,
            writes: 9,
        };
        let touches = vec![
            Request::FieldAccess {
                target: ObjectId::surrogate(1),
                bytes: 64,
                write: false,
            },
            Request::PutSlot {
                target: ObjectId::surrogate(1),
                slot: 2,
                value: Some(ObjectId::client(3)),
            },
            Request::StaticAccess {
                accessor: ClassId(1),
                class: ClassId(0),
                bytes: 8,
                write: true,
            },
            Request::Native {
                caller: ClassId(1),
                kind: NativeKind::Math,
                work_micros: 5,
                arg_bytes: 8,
                ret_bytes: 8,
            },
            Request::Invoke {
                target: ObjectId::surrogate(1),
                class: ClassId(1),
                method: MethodId(2),
                arg_bytes: 16,
                ret_bytes: 0,
                args: vec![ObjectId::client(3)],
            },
        ];
        assert!(touches.iter().all(Request::is_deferrable));
        let frame = msg.encode_deferring(Some(stamp), &touches);
        let (header, decoded) = Message::decode_framed(&frame).expect("decode");
        assert_eq!(
            (header.lease, header.deferred.to_vec(), decoded),
            (Some(stamp), touches.clone(), msg.clone())
        );
        let (header, _) = Message::decode_framed(&msg.encode_deferring(None, &touches)).unwrap();
        // Read off a frame, they are held as they were queued.
        assert_eq!(header.deferred, touches.iter().collect::<Touches>());
        assert_eq!((header.lease, header.deferred.to_vec()), (None, touches));
        // With none to carry, a frame is laid out as it always was.
        assert_eq!(
            msg.encode_deferring(Some(stamp), &[]),
            msg.encode_stamped(Some(stamp))
        );
        // A request that waits for its answer cannot ride a header...
        assert!(!Request::Ping.is_deferrable());
        let waiting = msg.encode_deferring(None, &[Request::Ping]);
        assert_eq!(
            Message::decode(&waiting).unwrap_err(),
            WireError::BadTag(10)
        );
        // ...and a flag nobody defined is refused, not skipped.
        let mut payload = msg.encode()[FRAME_HEADER..].to_vec();
        payload[1] = 4; // after the absent trace context: the flags byte
        assert_eq!(
            Message::decode(&seal(PROTOCOL_VERSION, &payload)).unwrap_err(),
            WireError::BadTag(4)
        );
    }

    #[test]
    fn queued_touches_pop_the_newest_and_go_back_in_front_in_order() {
        let touch = |n: u64| Request::FieldAccess {
            target: ObjectId::surrogate(n),
            bytes: 8,
            write: false,
        };
        let write = |n: u64| Request::PutSlot {
            target: ObjectId::surrogate(n),
            slot: 0,
            value: None,
        };
        let mut queue: Touches = [touch(1), write(2), touch(3)].iter().collect();
        assert_eq!((queue.len(), queue.slot_writes()), (3, 1));
        assert_eq!(queue.pop(), Some(touch(3)));
        assert_eq!(queue.pop(), Some(write(2)));
        assert_eq!((queue.len(), queue.slot_writes()), (1, 0));
        queue.push(&write(4));
        let front: Touches = [write(5), touch(6)].iter().collect();
        queue.prepend(front);
        let all = [write(5), touch(6), touch(1), write(4)];
        assert_eq!(queue.to_vec(), all);
        assert_eq!(queue.slot_writes(), 2);
        // A frame carries them byte for byte as it carries the requests.
        let msg = Message::Reply {
            seq: 1,
            result: Ok(Reply::Unit),
        };
        assert_eq!(
            msg.encode_queued(None, &queue),
            msg.encode_deferring(None, &all)
        );
        assert_eq!(queue.pop(), Some(write(4)));
        assert_eq!(queue.to_vec(), all[..3]);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let msg = Message::Request {
            seq: 9,
            client: 1,
            body: Request::ClassOf {
                target: ObjectId::client(1),
            },
        };
        let frame = msg.encode();
        for cut in 0..frame.len() {
            let err = Message::decode(&frame[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated | WireError::BadChecksum | WireError::BadTag(_)
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // A correctly checksummed payload with extra bytes after the
        // message (a peer bug, not corruption) still reports trailing.
        let msg = Message::Reply {
            seq: 1,
            result: Ok(Reply::Unit),
        };
        let mut payload = msg.encode()[FRAME_HEADER..].to_vec();
        payload.push(0xFF);
        assert_eq!(
            Message::decode(&seal(PROTOCOL_VERSION, &payload)).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn bad_tags_are_rejected() {
        // A valid envelope and an empty header around an unknown message tag.
        let frame = seal(PROTOCOL_VERSION, &[0, 0, 7]);
        assert_eq!(Message::decode(&frame).unwrap_err(), WireError::BadTag(7));
        // Request tags 7 and 8 are unassigned, like every tag past the
        // last one.
        for tag in [7u8, 8, 18] {
            let mut payload = vec![0, 0, 0]; // no trace, no stamp, a request
            payload.extend_from_slice(&[0; 16]); // seq, client
            payload.push(tag);
            let frame = seal(PROTOCOL_VERSION, &payload);
            assert_eq!(Message::decode(&frame).unwrap_err(), WireError::BadTag(tag));
        }
    }

    #[test]
    fn only_version_5_frames_decode() {
        let msg = Message::Request {
            seq: 5,
            client: 2,
            body: Request::ClassOf {
                target: ObjectId::surrogate(4),
            },
        };
        let guard = aide_telemetry::span("wire.test", "test");
        let header = FrameHeader {
            trace: Some(guard.context()),
            lease: Some(LeaseStamp {
                epoch: 7,
                writes: 11_166,
            }),
            deferred: Touches::default(),
        };
        let frame = msg.encode_stamped(header.lease);
        drop(guard);
        assert_eq!(frame[0], 5);
        assert_eq!(
            Message::decode_framed(&frame).expect("v5 decode"),
            (header, msg)
        );
        // The same checksummed payload under any other version — the three
        // retired ones, a future one, the extremes — is refused by version,
        // not misread.
        for version in [2u8, 3, 4, 6, 0, 255] {
            let other = seal(version, &frame[FRAME_HEADER..]);
            assert_eq!(
                Message::decode_framed(&other).unwrap_err(),
                WireError::BadVersion(version)
            );
        }
    }

    #[test]
    fn lease_stamp_rides_the_frame() {
        let msg = Message::Request {
            seq: 12,
            client: 5,
            body: Request::Ping,
        };
        let stamp = LeaseStamp {
            epoch: 7,
            writes: 69,
        };
        let stamped = msg.encode_stamped(Some(stamp));
        let (header, decoded) = Message::decode_framed(&stamped).expect("decode stamped");
        assert_eq!(decoded, msg);
        assert_eq!(header.lease, Some(stamp));
        // Unstamped frames decode with no lease — no epoch, no count — and
        // the stamp costs exactly the bytes of the two.
        let bare = msg.encode();
        let (header, _) = Message::decode_framed(&bare).expect("decode bare");
        assert_eq!(header.lease, None);
        assert_eq!(stamped.len(), bare.len() + 16);
    }

    #[test]
    fn gc_request_sizes_are_compact() {
        let renew = Request::GcRenew { epoch: 1 };
        assert_eq!(renew.crossing(), Crossing::Calls { count: 1, bytes: 8 });
        let release = Request::GcReleaseSeq {
            epoch: 1,
            release_seq: 2,
            objects: vec![ObjectId::surrogate(1); 3],
        };
        assert_eq!(
            release.crossing(),
            Crossing::Calls {
                count: 1,
                bytes: 16 + 24
            }
        );
    }

    #[test]
    fn trace_context_rides_the_frame_and_is_crc_protected() {
        let msg = Message::Request {
            seq: 8,
            client: 4,
            body: Request::MigrateCommit { txn: 9 },
        };
        let guard = aide_telemetry::span("wire.test", "test");
        let parent = guard.context();
        let frame = msg.encode();
        drop(guard); // the context is captured at encode time
        let (header, decoded) = Message::decode_framed(&frame).expect("decode");
        assert_eq!(decoded, msg);
        assert_eq!(header.trace, Some(parent));
        // A flipped context byte is corruption like any other payload byte.
        let mut bad = frame.to_vec();
        bad[FRAME_HEADER] ^= 0x01;
        assert_eq!(Message::decode(&bad).unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let msg = Message::Request {
            seq: 3,
            client: 9,
            body: Request::Ping,
        };
        let frame = msg.encode();
        // Flip every payload byte in turn: all must be caught.
        for pos in FRAME_HEADER..frame.len() {
            let mut bad = frame.to_vec();
            bad[pos] ^= 0x40;
            assert_eq!(
                Message::decode(&bad).unwrap_err(),
                WireError::BadChecksum,
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Slicing-by-16 is the bytewise CRC: at every length up to 4 KB, from
    /// four alignments, so every remainder and every block boundary is met.
    #[test]
    fn crc32_by_sixteen_matches_the_bytewise_loop() {
        let mut rng = crate::Xorshift64::new(0xC5C3_2016);
        let buf: Vec<u8> = (0..4096 + 4).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..4 {
            // The bytewise loop's state after each byte is the CRC of the
            // prefix that ends there.
            let mut bytewise = 0xFFFF_FFFFu32;
            for len in 0..=4096 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), !bytewise, "offset {offset}, {len} B");
                let next = u32::from(buf[offset + len]);
                bytewise = CRC_TABLES[0][((bytewise ^ next) & 0xFF) as usize] ^ (bytewise >> 8);
            }
        }
    }

    #[test]
    fn simulated_sizes_reflect_declared_payloads() {
        let call = |bytes| Crossing::Calls { count: 1, bytes };
        // Parameters and result, in one crossing; the reference arguments
        // and the headers are not charged.
        let invoke = Request::Invoke {
            target: ObjectId::client(0),
            class: ClassId(0),
            method: MethodId(0),
            arg_bytes: 1_000,
            ret_bytes: 500,
            args: vec![ObjectId::client(1)],
        };
        assert_eq!(invoke.crossing(), call(1_500));
        // A read carries its data back, a write carries it out.
        for write in [false, true] {
            let access = Request::FieldAccess {
                target: ObjectId::client(0),
                bytes: 4_096,
                write,
            };
            assert_eq!(access.crossing(), call(4_096));
        }
        let put = Request::PutSlot {
            target: ObjectId::client(0),
            slot: 1,
            value: None,
        };
        assert_eq!(put.crossing(), call(8));
        assert_eq!(Request::Ping.crossing(), call(0));
    }

    #[test]
    fn migration_size_counts_object_footprints_in_prepare_only() {
        let rec = ObjectRecord::new(ClassId(0), 984, 0); // footprint 1000
        let prepare = Request::MigratePrepare {
            txn: 1,
            objects: vec![
                (ObjectId::client(0), rec.clone()),
                (ObjectId::client(1), rec),
            ],
        };
        assert_eq!(prepare.crossing(), Crossing::Stream { bytes: 2_000 });
        let commit = Request::MigrateCommit { txn: 1 };
        assert_eq!(commit.crossing(), Crossing::Calls { count: 1, bytes: 0 });
    }

    #[test]
    fn encode_writes_the_v5_layout_byte_for_byte() {
        let target = ObjectId::surrogate(4);
        let msg = Message::Request {
            seq: 9,
            client: 3,
            body: Request::FieldAccess {
                target,
                bytes: 128,
                write: false,
            },
        };
        // [ctx flag][lease flag][request][seq][client][FieldAccess][target][bytes][write]
        let mut payload = vec![0u8, 0, 0];
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&target.0.to_le_bytes());
        payload.extend_from_slice(&128u32.to_le_bytes());
        payload.push(0);
        let frame = msg.encode();
        assert_eq!(frame, seal(5, &payload));
        assert_eq!(Message::decode(&frame).expect("decode"), msg);
        // Stamped: the flag, then the epoch, then the write count.
        let stamp = LeaseStamp {
            epoch: 2,
            writes: 72,
        };
        payload.splice(
            1..2,
            [&[1u8][..], &2u64.to_le_bytes(), &72u64.to_le_bytes()].concat(),
        );
        assert_eq!(msg.encode_stamped(Some(stamp)), seal(5, &payload));
    }

    /// A byte stream that arrives in the given pieces; `None` is a read
    /// that ran into its deadline, the end of the script is EOF.
    struct Script(std::collections::VecDeque<Option<Vec<u8>>>);

    impl DeadlineRead for Script {
        fn read_by(&mut self, buf: &mut [u8], _: Option<Instant>) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::WouldBlock.into()),
                Some(Some(mut piece)) => {
                    let n = piece.len().min(buf.len());
                    buf[..n].copy_from_slice(&piece[..n]);
                    if n < piece.len() {
                        self.0.push_front(Some(piece.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// The frames `reader` yields until EOF, and how often it timed out.
    fn drain(reader: &mut FrameReader) -> (Vec<(FrameHead, Vec<u8>)>, usize) {
        let (mut frames, mut timeouts) = (Vec::new(), 0);
        loop {
            match reader.next(Some(Instant::now())) {
                Ok(Some((head, frame))) => frames.push((head, frame.to_vec())),
                Ok(None) => timeouts += 1,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                    return (frames, timeouts);
                }
            }
        }
    }

    #[test]
    fn a_read_that_times_out_anywhere_in_a_frame_loses_nothing() {
        // Three frames under a 5-byte head — empty, small, and larger than
        // the read buffer — written the way a carrier writes them.
        let payloads = [vec![], vec![7u8; 40], vec![9u8; READ_BUFFER + 1000]];
        let (mut stream, mut scratch) = (Vec::new(), Vec::new());
        for (i, payload) in payloads.iter().enumerate() {
            write_framed(&mut stream, &mut scratch, &[i as u8; MUX_HEADER], payload).unwrap();
        }
        let expected: Vec<_> = payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| ([i as u8; MUX_HEADER], payload.clone()))
            .collect();

        // Cut the stream after every one of its first hundred bytes (inside
        // each prefix, head and small payload), and once deep in the bulk
        // payload, with a timed-out read at the cut.
        for cut in (1..100).chain([READ_BUFFER / 2, stream.len() - 1]) {
            let script = [
                Some(stream[..cut].to_vec()),
                None,
                None,
                Some(stream[cut..].to_vec()),
            ];
            let mut reader = FrameReader::new(Script(script.into()));
            let (frames, timeouts) = drain(&mut reader);
            assert_eq!(frames, expected, "cut at {cut}");
            assert_eq!(timeouts, 2, "cut at {cut}");
            assert!(!reader.holds_unread());
        }

        // One byte per read.
        let script: Vec<_> = stream.iter().map(|byte| Some(vec![*byte])).collect();
        let mut reader = FrameReader::new(Script(script.into()));
        let (frames, _) = drain(&mut reader);
        assert_eq!(frames, expected);
    }

    #[test]
    fn a_frame_reader_refuses_lengths_out_of_range_before_allocating() {
        for len in [MAX_FRAME + 1, 4] {
            // Beyond the cap; shorter than the 5-byte head it must contain.
            let mut stream = len.to_le_bytes().to_vec();
            stream.extend_from_slice(&[0; 16]);
            let mut reader = FrameReader::new(Script([Some(stream)].into()));
            let refused = reader.next(None).unwrap_err();
            assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData, "len {len}");
        }
    }
}
