//! Length-prefixed binary wire protocol for the service runtime.
//!
//! The wire format speaks the same dialect as the [`crate::snapshot`]
//! codec — little-endian integers, `f64` as raw bits, a word-wise FNV-1a
//! 64 trailer — and literally shares its `Writer`/`Reader` plumbing, so
//! the two formats cannot drift apart in framing discipline. One
//! **frame** (version 3) is:
//!
//! ```text
//! magic "RPWP" | version u16 | payload_len u32 | payload … | checksum u64
//! ```
//!
//! with the checksum — FNV-1a 64 over the little-endian `u64` words of
//! everything preceding it, then its 0–7 tail bytes — computed over
//! magic, version, and length too, so a flipped bit *anywhere* in the
//! frame is caught. Version 1 frames carried a byte-serial FNV-1a
//! trailer, and version 2 a [`Response::Submitted`] without the group's
//! ready responses; [`read_frame`] refuses either header as
//! [`WireError::UnsupportedVersion`] before reading the payload. The
//! payload is one [`Request`] or [`Response`] message.
//!
//! # Totality
//!
//! Decoding is **total**: every truncation, every single-byte flip, every
//! length-prefix lie, and every impossible tag yields a typed
//! [`WireError`], never a panic and never a silently different message —
//! fuzzed exhaustively in `tests/wire.rs`. Admission rejections
//! ([`TenantBusy`](crate::error::ServiceError::TenantBusy),
//! [`QueueFull`](crate::error::ServiceError::QueueFull),
//! [`Overloaded`](crate::error::ServiceError::Overloaded), …) travel as
//! fully-typed [`Response::Error`] values, so a wire client sheds load
//! exactly like an in-process caller.
//!
//! # Lossy corners
//!
//! Two round-trip caveats, both deliberate: a
//! [`SnapshotError::Malformed`] inside a transported error loses its
//! `&'static str` detail (the variant survives, the message cannot cross
//! an address space), and a [`WaveOutcome`]'s clustering is re-derived on
//! decode via
//! [`ScoreTable::final_assignment`](relperf_core::cluster::ScoreTable::final_assignment)
//! — which is bit-identical, since the assignment is a pure function of
//! the table.

use crate::error::ServiceError;
use crate::journal::{JournalError, JournalIoError};
use crate::replication::{Follower, ReplicationError};
use crate::runtime::{RuntimeError, RuntimeHandle};
use crate::service::{
    OpOutcome, OpResponse, SessionKey, SessionOp, SessionSpec, SessionStatus, WaveOutcome,
};
use crate::snapshot::{
    dec_config, enc_config, fnv1a64_words, Reader, SnapshotError, Writer, FNV_OFFSET,
};
use crate::stats::{RecoveryHealth, ServiceStats};
use std::sync::{Arc, Mutex};
use relperf_core::cluster::ScoreTable;
use relperf_core::session::{ConvergenceCriterion, CriterionError};
use relperf_measure::sample::SampleError;
use relperf_measure::ScratchThreeWayComparator;
use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

/// Frame magic: **R**el**P**erf **W**ire **P**rotocol.
pub const MAGIC: [u8; 4] = *b"RPWP";
/// Wire format version this build speaks.
pub const VERSION: u16 = 3;
/// Frame header length: magic + version + payload length.
const HEADER_LEN: usize = 4 + 2 + 4;
/// Checksum trailer length.
const TRAILER_LEN: usize = 8;
/// Largest payload [`read_frame`] accepts — a stated length beyond this
/// is rejected *before* any allocation, so a length-prefix lie cannot
/// balloon memory.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

/// Why a frame or message failed to decode (or a stream failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The bytes ended before the field at `offset` could be read.
    Truncated {
        /// Offset of the first missing byte.
        offset: usize,
    },
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame names a protocol version this build does not speak —
    /// an older one or a future one.
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u16,
        /// The version this build reads and writes.
        supported: u16,
    },
    /// The frame checksum does not match its content.
    ChecksumMismatch {
        /// Checksum carried in the frame.
        stored: u64,
        /// Checksum computed over the received bytes.
        computed: u64,
    },
    /// The length prefix disagrees with the actual frame size.
    LengthMismatch {
        /// Payload length the prefix claimed.
        stated: usize,
        /// Payload length actually present.
        actual: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The stated payload length.
        len: usize,
        /// The configured cap.
        cap: usize,
    },
    /// A checksum-valid payload that is semantically impossible (unknown
    /// tag, impossible flag, …).
    Malformed(&'static str),
    /// Bytes left over after a complete message.
    TrailingBytes {
        /// How many bytes were left.
        extra: usize,
    },
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The underlying transport failed.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { offset } => {
                write!(f, "frame truncated: needed a byte at offset {offset}")
            }
            WireError::BadMagic => write!(f, "not a wire frame (bad magic)"),
            WireError::UnsupportedVersion { found, supported } => write!(
                f,
                "wire version {found} is not supported (this build speaks version {supported})"
            ),
            WireError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            WireError::LengthMismatch { stated, actual } => write!(
                f,
                "length prefix says {stated} payload byte(s) but {actual} are present"
            ),
            WireError::Oversized { len, cap } => {
                write!(f, "frame payload of {len} byte(s) exceeds the {cap}-byte cap")
            }
            WireError::Malformed(what) => write!(f, "malformed wire message: {what}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} byte(s) left over after the message")
            }
            WireError::Closed => write!(f, "peer closed the stream"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<SnapshotError> for WireError {
    /// The shared `Reader` reports in [`SnapshotError`]; lift its typed
    /// failures into the wire vocabulary unchanged.
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Truncated { offset } => WireError::Truncated { offset },
            SnapshotError::BadMagic => WireError::BadMagic,
            SnapshotError::UnsupportedVersion { found, supported } => {
                WireError::UnsupportedVersion { found, supported }
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                WireError::ChecksumMismatch { stored, computed }
            }
            SnapshotError::Malformed(what) => WireError::Malformed(what),
            SnapshotError::TrailingBytes { extra } => WireError::TrailingBytes { extra },
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Wraps `payload` in a checksummed frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= u32::MAX as usize,
        "payload exceeds the u32 length prefix"
    );
    let mut w = Writer {
        buf: Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN),
    };
    w.buf.extend_from_slice(&MAGIC);
    w.u16(VERSION);
    w.u32(payload.len() as u32);
    w.buf.extend_from_slice(payload);
    let checksum = fnv1a64_words(FNV_OFFSET, &w.buf);
    w.u64(checksum);
    w.buf
}

/// Unwraps one complete frame from a byte slice, validating checksum,
/// magic, version, and the length prefix. Total: every corruption is a
/// typed [`WireError`].
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8], WireError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(WireError::Truncated {
            offset: bytes.len(),
        });
    }
    // Checksum first: it covers the header too, so any flipped bit in
    // magic/version/length is caught here with certainty.
    let body_len = bytes.len() - TRAILER_LEN;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
    let computed = fnv1a64_words(FNV_OFFSET, &bytes[..body_len]);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    if bytes[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let stated = u32::from_le_bytes(bytes[6..10].try_into().expect("4 bytes")) as usize;
    let actual = body_len - HEADER_LEN;
    if stated != actual {
        return Err(WireError::LengthMismatch { stated, actual });
    }
    Ok(&bytes[HEADER_LEN..body_len])
}

/// Writes one frame to a stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&encode_frame(payload))?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from a stream, enforcing `max_payload` *before*
/// allocating. A clean EOF at a frame boundary is [`WireError::Closed`];
/// an EOF mid-frame is a truncation.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<Vec<u8>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "peer hung up between frames" from "frame cut short":
    // probe the first byte with a plain read.
    let mut got = 0;
    while got == 0 {
        match r.read(&mut header[..1])? {
            0 => return Err(WireError::Closed),
            n => got = n,
        }
    }
    r.read_exact(&mut header[1..])
        .map_err(|_| WireError::Truncated { offset: 1 })?;
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != VERSION {
        return Err(WireError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let stated = u32::from_le_bytes(header[6..10].try_into().expect("4 bytes")) as usize;
    if stated > max_payload {
        return Err(WireError::Oversized {
            len: stated,
            cap: max_payload,
        });
    }
    let mut rest = vec![0u8; stated + TRAILER_LEN];
    r.read_exact(&mut rest)
        .map_err(|_| WireError::Truncated {
            offset: HEADER_LEN,
        })?;
    let stored = u64::from_le_bytes(rest[stated..].try_into().expect("8 bytes"));
    let mut body = Vec::with_capacity(HEADER_LEN + stated);
    body.extend_from_slice(&header);
    body.extend_from_slice(&rest[..stated]);
    let computed = fnv1a64_words(FNV_OFFSET, &body);
    if stored != computed {
        return Err(WireError::ChecksumMismatch { stored, computed });
    }
    body.drain(..HEADER_LEN);
    Ok(body)
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a fresh session.
    CreateSession {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// The session spec.
        spec: SessionSpec,
    },
    /// Rebuild a session from snapshot bytes.
    RestoreSession {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// [`crate::snapshot`] codec bytes.
        bytes: Vec<u8>,
    },
    /// Atomically enqueue an op group against one session.
    Submit {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// The ops, in order.
        ops: Vec<SessionOp>,
    },
    /// Block until the named tickets have responses (or the deadline).
    Await {
        /// The collecting tenant.
        tenant: u64,
        /// Tickets to wait for.
        seqs: Vec<u64>,
        /// Deadline in milliseconds (ignored by synchronous runtimes).
        timeout_ms: u64,
    },
    /// Drain whatever responses are already delivered for a tenant.
    Collect {
        /// The collecting tenant.
        tenant: u64,
    },
    /// Read one session's status summary.
    Status {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
    },
    /// Read the service-wide counters.
    Stats,
    /// Close the connection cleanly.
    Goodbye,
    /// Deliver one replication `SHIP` envelope to a follower (see
    /// [`crate::replication`]); answered by [`Response::ShipAck`]. A
    /// serving (non-follower) endpoint rejects it with a typed
    /// [`ReplicationError::WrongRole`].
    Ship {
        /// The opaque envelope bytes ([`crate::replication::encode_segment`]).
        envelope: Vec<u8>,
    },
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `CreateSession` succeeded.
    Created,
    /// `RestoreSession` succeeded.
    Restored,
    /// `Submit` admitted the whole group; tickets in op order.
    Submitted {
        /// The admission tickets.
        seqs: Vec<u64>,
        /// The group's responses, sorted by seq, when the runtime ran the
        /// group to completion while admitting it (an ingest group on a
        /// threaded runtime); empty otherwise. They were moved out of the
        /// mailbox, so no `Await` or `Collect` returns them again.
        ready: Vec<OpResponse>,
    },
    /// `Await` / `Collect` delivered these responses.
    Responses {
        /// The delivered responses, sorted by seq.
        responses: Vec<OpResponse>,
    },
    /// `Status` answer (`None`: no such session anywhere).
    Status {
        /// The summary, if the session exists.
        status: Option<SessionStatus>,
        /// What the last recovery or failover promotion replayed (all
        /// zero after a clean boot) — lets a reconnecting client see
        /// *that* it is talking to a recovered or promoted service.
        recovery: RecoveryHealth,
    },
    /// `Stats` answer.
    Stats {
        /// The counter snapshot.
        stats: ServiceStats,
    },
    /// The request was rejected or failed, fully typed.
    Error {
        /// The service-side error.
        error: ServiceError,
    },
    /// `Await` gave up (stopped or timed out).
    WaitError {
        /// Why the wait ended without responses.
        error: RuntimeError,
    },
    /// Goodbye acknowledged; the server closes after sending this.
    Goodbye,
    /// `Ship` applied: the follower's watermark for the envelope's lane
    /// (highest contiguously applied segment seq).
    ShipAck {
        /// The lane (shard) acked.
        shard: u64,
        /// The applied watermark on that lane.
        watermark: u64,
    },
}

// --- value codecs (shared Reader/Writer; Reader errors are lifted to
// --- WireError by the top-level decode fns) ---

pub(crate) fn enc_spec(w: &mut Writer, s: &SessionSpec) {
    w.u64(s.algorithms as u64);
    enc_config(w, &s.config);
    w.u64(s.seed);
    w.u64(s.criterion.stable_waves as u64);
    w.f64(s.criterion.score_tol);
}

pub(crate) fn dec_spec(r: &mut Reader) -> Result<SessionSpec, SnapshotError> {
    // Semantic validation (zero algorithms, bad criterion, …) is the
    // service's job and stays typed there; the wire only carries values.
    Ok(SessionSpec {
        algorithms: r.u64()? as usize,
        config: dec_config(r)?,
        seed: r.u64()?,
        criterion: ConvergenceCriterion {
            stable_waves: r.u64()? as usize,
            score_tol: r.f64()?,
        },
    })
}

pub(crate) fn enc_bytes(w: &mut Writer, bytes: &[u8]) {
    w.u64(bytes.len() as u64);
    w.buf.extend_from_slice(bytes);
}

pub(crate) fn dec_bytes(r: &mut Reader) -> Result<Vec<u8>, SnapshotError> {
    let len = r.len(1)?;
    Ok(r.take(len)?.to_vec())
}

fn enc_seqs(w: &mut Writer, seqs: &[u64]) {
    w.u64(seqs.len() as u64);
    for &s in seqs {
        w.u64(s);
    }
}

fn dec_seqs(r: &mut Reader) -> Result<Vec<u64>, SnapshotError> {
    let len = r.len(8)?;
    (0..len).map(|_| r.u64()).collect()
}

pub(crate) fn enc_op(w: &mut Writer, op: &SessionOp) {
    match op {
        SessionOp::Push { alg, value } => {
            w.u8(0);
            w.u64(*alg as u64);
            w.f64(*value);
        }
        SessionOp::Extend { alg, values } => {
            w.u8(1);
            w.u64(*alg as u64);
            w.f64s(values);
        }
        SessionOp::Score => w.u8(2),
        SessionOp::Snapshot => w.u8(3),
        SessionOp::Close => w.u8(4),
        SessionOp::ExtendAll { alg, values } => {
            w.u8(5);
            w.u64(*alg as u64);
            w.f64s(values);
        }
    }
}

pub(crate) fn dec_op(r: &mut Reader) -> Result<SessionOp, SnapshotError> {
    Ok(match r.u8()? {
        0 => SessionOp::Push {
            alg: r.u64()? as usize,
            // Non-finite values pass through: the service rejects them
            // typed (`BadSample`) at execution, same as in-proc callers.
            value: r.f64()?,
        },
        1 => SessionOp::Extend {
            alg: r.u64()? as usize,
            values: r.f64s()?,
        },
        2 => SessionOp::Score,
        3 => SessionOp::Snapshot,
        4 => SessionOp::Close,
        // Same payload as Extend; the tag alone carries the all-or-nothing
        // semantics (journal replay included).
        5 => SessionOp::ExtendAll {
            alg: r.u64()? as usize,
            values: r.f64s()?,
        },
        _ => return Err(SnapshotError::Malformed("unknown session op tag")),
    })
}

fn enc_table(w: &mut Writer, table: &ScoreTable) {
    let rows = table.score_rows();
    w.u64(rows.len() as u64);
    w.u64(rows[0].len() as u64);
    w.u64(table.num_classes() as u64);
    for row in rows {
        for &s in row {
            w.f64(s);
        }
    }
}

fn dec_table(r: &mut Reader) -> Result<ScoreTable, SnapshotError> {
    // Re-validate everything `ScoreTable::from_rows` asserts, so a forged
    // message is a typed error rather than a panic.
    let p = r.len(8)?;
    if p == 0 {
        return Err(SnapshotError::Malformed("zero-row score table"));
    }
    let width = r.len(8)?;
    if width == 0 {
        return Err(SnapshotError::Malformed("zero-width score rows"));
    }
    let max_rank = r.u64()? as usize;
    if max_rank > width {
        return Err(SnapshotError::Malformed("num_classes exceeds row width"));
    }
    let mut rows = Vec::with_capacity(p);
    for _ in 0..p {
        let mut row = Vec::with_capacity(width);
        for _ in 0..width {
            let s = r.f64()?;
            if !s.is_finite() {
                return Err(SnapshotError::Malformed("non-finite score"));
            }
            row.push(s);
        }
        rows.push(row);
    }
    Ok(ScoreTable::from_rows(rows, max_rank))
}

fn enc_wave(w: &mut Writer, wave: &WaveOutcome) {
    // The clustering is NOT encoded: it is a pure function of the table
    // (`final_assignment`), re-derived bit-identically on decode.
    enc_table(w, &wave.table);
    w.flag(wave.converged);
    w.u64(wave.waves as u64);
    w.u64(wave.stable_run as u64);
}

fn dec_wave(r: &mut Reader) -> Result<WaveOutcome, SnapshotError> {
    let table = dec_table(r)?;
    Ok(WaveOutcome {
        clustering: table.final_assignment(),
        table,
        converged: r.flag("converged flag")?,
        waves: r.u64()? as usize,
        stable_run: r.u64()? as usize,
    })
}

fn enc_service_error(w: &mut Writer, e: &ServiceError) {
    match e {
        ServiceError::SessionExists { tenant, session } => {
            w.u8(0);
            w.u64(*tenant);
            w.u64(*session);
        }
        ServiceError::SessionUnknown { tenant, session } => {
            w.u8(1);
            w.u64(*tenant);
            w.u64(*session);
        }
        ServiceError::TenantBusy {
            tenant,
            in_flight,
            cap,
        } => {
            w.u8(2);
            w.u64(*tenant);
            w.u64(*in_flight as u64);
            w.u64(*cap as u64);
        }
        ServiceError::QueueFull { shard, depth, cap } => {
            w.u8(3);
            w.u64(*shard as u64);
            w.u64(*depth as u64);
            w.u64(*cap as u64);
        }
        ServiceError::Overloaded { backlog, cap } => {
            w.u8(4);
            w.u64(*backlog as u64);
            w.u64(*cap as u64);
        }
        ServiceError::ShardFull { shard, capacity } => {
            w.u8(5);
            w.u64(*shard as u64);
            w.u64(*capacity as u64);
        }
        ServiceError::NoAlgorithms => w.u8(6),
        ServiceError::NoRepetitions => w.u8(7),
        ServiceError::InvalidCriterion(c) => {
            w.u8(8);
            match c {
                CriterionError::ZeroStableWaves => w.u8(0),
                CriterionError::BadTolerance { score_tol } => {
                    w.u8(1);
                    w.f64(*score_tol);
                }
            }
        }
        ServiceError::AlgorithmOutOfRange { alg, p } => {
            w.u8(9);
            w.u64(*alg as u64);
            w.u64(*p as u64);
        }
        ServiceError::NotReadyToScore { missing } => {
            w.u8(10);
            w.u64(*missing as u64);
        }
        ServiceError::ResponseLost { seq } => {
            w.u8(11);
            w.u64(*seq);
        }
        ServiceError::BadSample(s) => {
            w.u8(12);
            match s {
                SampleError::Empty => w.u8(0),
                SampleError::NonFinite(i) => {
                    w.u8(1);
                    w.u64(*i as u64);
                }
            }
        }
        ServiceError::BadSnapshot(s) => {
            w.u8(13);
            match s {
                SnapshotError::Truncated { offset } => {
                    w.u8(0);
                    w.u64(*offset as u64);
                }
                SnapshotError::BadMagic => w.u8(1),
                SnapshotError::UnsupportedVersion { found, supported } => {
                    w.u8(2);
                    w.u16(*found);
                    w.u16(*supported);
                }
                SnapshotError::ChecksumMismatch { stored, computed } => {
                    w.u8(3);
                    w.u64(*stored);
                    w.u64(*computed);
                }
                // Lossy: the &'static str detail cannot cross an address
                // space; the variant survives with a fixed message.
                SnapshotError::Malformed(_) => w.u8(4),
                SnapshotError::TrailingBytes { extra } => {
                    w.u8(5);
                    w.u64(*extra as u64);
                }
            }
        }
        ServiceError::Journal(j) => {
            w.u8(14);
            match j {
                JournalIoError::Crashed => w.u8(0),
                JournalIoError::Sealed => w.u8(1),
                JournalIoError::Io(msg) => {
                    w.u8(2);
                    enc_bytes(w, msg.as_bytes());
                }
            }
        }
        ServiceError::Replication(rep) => {
            w.u8(15);
            enc_replication_error(w, rep);
        }
        ServiceError::SessionTooLarge {
            algorithms,
            repetitions,
        } => {
            w.u8(16);
            w.u64(*algorithms as u64);
            w.u64(*repetitions as u64);
        }
    }
}

fn enc_replication_error(w: &mut Writer, e: &ReplicationError) {
    match e {
        // Lossy, like SnapshotError::Malformed: the &'static str detail
        // cannot cross an address space.
        ReplicationError::Envelope(_) => w.u8(0),
        ReplicationError::ChecksumMismatch { stored, computed } => {
            w.u8(1);
            w.u64(*stored);
            w.u64(*computed);
        }
        ReplicationError::SequenceGap {
            shard,
            expected,
            found,
        } => {
            w.u8(2);
            w.u32(*shard);
            w.u64(*expected);
            w.u64(*found);
        }
        ReplicationError::UnknownShard { shard, shards } => {
            w.u8(3);
            w.u32(*shard);
            w.u64(*shards as u64);
        }
        ReplicationError::DigestMismatch {
            shard,
            seq,
            expected,
            found,
        } => {
            w.u8(4);
            w.u32(*shard);
            w.u64(*seq);
            w.u64(*expected);
            w.u64(*found);
        }
        ReplicationError::Records { shard, seq, error } => {
            w.u8(5);
            w.u32(*shard);
            w.u64(*seq);
            match error {
                JournalError::BadMagic => w.u8(0),
                JournalError::UnsupportedVersion { found, supported } => {
                    w.u8(1);
                    w.u16(*found);
                    w.u16(*supported);
                }
                // Lossy: the &'static str detail stays behind.
                JournalError::Corrupt { offset, .. } => {
                    w.u8(2);
                    w.u64(*offset as u64);
                }
            }
        }
        ReplicationError::Apply {
            tenant,
            session,
            what,
        } => {
            w.u8(6);
            w.u64(*tenant);
            w.u64(*session);
            enc_bytes(w, what.as_bytes());
        }
        ReplicationError::Diverged {
            tenant,
            session,
            expected,
            found,
        } => {
            w.u8(7);
            w.u64(*tenant);
            w.u64(*session);
            w.u64(*expected);
            w.u64(*found);
        }
        ReplicationError::Sealed => w.u8(8),
        ReplicationError::WrongRole => w.u8(9),
        ReplicationError::UnsupportedVersion { found, supported } => {
            w.u8(10);
            w.u16(*found);
            w.u16(*supported);
        }
    }
}

fn dec_replication_error(r: &mut Reader) -> Result<ReplicationError, SnapshotError> {
    Ok(match r.u8()? {
        0 => ReplicationError::Envelope("detail lost in wire transit"),
        1 => ReplicationError::ChecksumMismatch {
            stored: r.u64()?,
            computed: r.u64()?,
        },
        2 => ReplicationError::SequenceGap {
            shard: r.u32()?,
            expected: r.u64()?,
            found: r.u64()?,
        },
        3 => ReplicationError::UnknownShard {
            shard: r.u32()?,
            shards: r.u64()? as usize,
        },
        4 => ReplicationError::DigestMismatch {
            shard: r.u32()?,
            seq: r.u64()?,
            expected: r.u64()?,
            found: r.u64()?,
        },
        5 => ReplicationError::Records {
            shard: r.u32()?,
            seq: r.u64()?,
            error: match r.u8()? {
                0 => JournalError::BadMagic,
                1 => JournalError::UnsupportedVersion {
                    found: r.u16()?,
                    supported: r.u16()?,
                },
                2 => JournalError::Corrupt {
                    offset: r.u64()? as usize,
                    what: "detail lost in wire transit",
                },
                _ => return Err(SnapshotError::Malformed("unknown journal error tag")),
            },
        },
        6 => ReplicationError::Apply {
            tenant: r.u64()?,
            session: r.u64()?,
            what: String::from_utf8_lossy(&dec_bytes(r)?).into_owned(),
        },
        7 => ReplicationError::Diverged {
            tenant: r.u64()?,
            session: r.u64()?,
            expected: r.u64()?,
            found: r.u64()?,
        },
        8 => ReplicationError::Sealed,
        9 => ReplicationError::WrongRole,
        10 => ReplicationError::UnsupportedVersion {
            found: r.u16()?,
            supported: r.u16()?,
        },
        _ => return Err(SnapshotError::Malformed("unknown replication error tag")),
    })
}

fn dec_service_error(r: &mut Reader) -> Result<ServiceError, SnapshotError> {
    Ok(match r.u8()? {
        0 => ServiceError::SessionExists {
            tenant: r.u64()?,
            session: r.u64()?,
        },
        1 => ServiceError::SessionUnknown {
            tenant: r.u64()?,
            session: r.u64()?,
        },
        2 => ServiceError::TenantBusy {
            tenant: r.u64()?,
            in_flight: r.u64()? as usize,
            cap: r.u64()? as usize,
        },
        3 => ServiceError::QueueFull {
            shard: r.u64()? as usize,
            depth: r.u64()? as usize,
            cap: r.u64()? as usize,
        },
        4 => ServiceError::Overloaded {
            backlog: r.u64()? as usize,
            cap: r.u64()? as usize,
        },
        5 => ServiceError::ShardFull {
            shard: r.u64()? as usize,
            capacity: r.u64()? as usize,
        },
        6 => ServiceError::NoAlgorithms,
        7 => ServiceError::NoRepetitions,
        8 => ServiceError::InvalidCriterion(match r.u8()? {
            0 => CriterionError::ZeroStableWaves,
            1 => CriterionError::BadTolerance {
                score_tol: r.f64()?,
            },
            _ => return Err(SnapshotError::Malformed("unknown criterion error tag")),
        }),
        9 => ServiceError::AlgorithmOutOfRange {
            alg: r.u64()? as usize,
            p: r.u64()? as usize,
        },
        10 => ServiceError::NotReadyToScore {
            missing: r.u64()? as usize,
        },
        11 => ServiceError::ResponseLost { seq: r.u64()? },
        12 => ServiceError::BadSample(match r.u8()? {
            0 => SampleError::Empty,
            1 => SampleError::NonFinite(r.u64()? as usize),
            _ => return Err(SnapshotError::Malformed("unknown sample error tag")),
        }),
        13 => ServiceError::BadSnapshot(match r.u8()? {
            0 => SnapshotError::Truncated {
                offset: r.u64()? as usize,
            },
            1 => SnapshotError::BadMagic,
            2 => SnapshotError::UnsupportedVersion {
                found: r.u16()?,
                supported: r.u16()?,
            },
            3 => SnapshotError::ChecksumMismatch {
                stored: r.u64()?,
                computed: r.u64()?,
            },
            4 => SnapshotError::Malformed("detail lost in wire transit"),
            5 => SnapshotError::TrailingBytes {
                extra: r.u64()? as usize,
            },
            _ => return Err(SnapshotError::Malformed("unknown snapshot error tag")),
        }),
        14 => ServiceError::Journal(match r.u8()? {
            0 => JournalIoError::Crashed,
            1 => JournalIoError::Sealed,
            2 => JournalIoError::Io(String::from_utf8_lossy(&dec_bytes(r)?).into_owned()),
            _ => return Err(SnapshotError::Malformed("unknown journal io error tag")),
        }),
        15 => ServiceError::Replication(dec_replication_error(r)?),
        16 => ServiceError::SessionTooLarge {
            algorithms: r.u64()? as usize,
            repetitions: r.u64()? as usize,
        },
        _ => return Err(SnapshotError::Malformed("unknown service error tag")),
    })
}

fn enc_outcome(w: &mut Writer, o: &OpOutcome) {
    match o {
        OpOutcome::Ingested => w.u8(0),
        OpOutcome::Scored(wave) => {
            w.u8(1);
            enc_wave(w, wave);
        }
        OpOutcome::Snapshot(bytes) => {
            w.u8(2);
            enc_bytes(w, bytes);
        }
        OpOutcome::Closed => w.u8(3),
    }
}

fn dec_outcome(r: &mut Reader) -> Result<OpOutcome, SnapshotError> {
    Ok(match r.u8()? {
        0 => OpOutcome::Ingested,
        1 => OpOutcome::Scored(dec_wave(r)?),
        2 => OpOutcome::Snapshot(dec_bytes(r)?),
        3 => OpOutcome::Closed,
        _ => return Err(SnapshotError::Malformed("unknown op outcome tag")),
    })
}

fn enc_op_response(w: &mut Writer, resp: &OpResponse) {
    w.u64(resp.key.tenant);
    w.u64(resp.key.session);
    w.u64(resp.seq);
    match &resp.result {
        Ok(o) => {
            w.flag(true);
            enc_outcome(w, o);
        }
        Err(e) => {
            w.flag(false);
            enc_service_error(w, e);
        }
    }
}

fn dec_op_response(r: &mut Reader) -> Result<OpResponse, SnapshotError> {
    let key = SessionKey {
        tenant: r.u64()?,
        session: r.u64()?,
    };
    let seq = r.u64()?;
    let result = if r.flag("op result flag")? {
        Ok(dec_outcome(r)?)
    } else {
        Err(dec_service_error(r)?)
    };
    Ok(OpResponse { key, seq, result })
}

fn enc_responses(w: &mut Writer, responses: &[OpResponse]) {
    w.u64(responses.len() as u64);
    for r in responses {
        enc_op_response(w, r);
    }
}

fn dec_responses(r: &mut Reader) -> Result<Vec<OpResponse>, SnapshotError> {
    // Each response is at least key (16) + seq (8) + result flag (1).
    let len = r.len(25)?;
    (0..len).map(|_| dec_op_response(r)).collect()
}

fn enc_status(w: &mut Writer, s: &SessionStatus) {
    w.u64(s.algorithms as u64);
    w.u64(s.total_measurements as u64);
    w.u64(s.waves as u64);
    w.flag(s.converged);
    w.u64(s.pending as u64);
    w.flag(s.spilled);
}

fn dec_status(r: &mut Reader) -> Result<SessionStatus, SnapshotError> {
    Ok(SessionStatus {
        algorithms: r.u64()? as usize,
        total_measurements: r.u64()? as usize,
        waves: r.u64()? as usize,
        converged: r.flag("converged flag")?,
        pending: r.u64()? as usize,
        spilled: r.flag("spilled flag")?,
    })
}

fn enc_stats(w: &mut Writer, s: &ServiceStats) {
    for v in [
        s.requests,
        s.rejections,
        s.batches,
        s.waves,
        s.evictions,
        s.ops_submitted,
        s.ops_admitted,
        s.ops_rejected,
        s.ops_executed,
        s.spills,
        s.rehydrations,
        s.shed,
        s.journal_appends,
        s.journal_syncs,
        s.journal_compactions,
        s.digests_emitted,
        s.segments_shipped,
        s.segments_acked,
        s.recovery_replayed_ops,
        s.recovery_torn_shards,
        s.recovery_truncated_bytes,
    ] {
        w.u64(v);
    }
}

fn dec_stats(r: &mut Reader) -> Result<ServiceStats, SnapshotError> {
    Ok(ServiceStats {
        requests: r.u64()?,
        rejections: r.u64()?,
        batches: r.u64()?,
        waves: r.u64()?,
        evictions: r.u64()?,
        ops_submitted: r.u64()?,
        ops_admitted: r.u64()?,
        ops_rejected: r.u64()?,
        ops_executed: r.u64()?,
        spills: r.u64()?,
        rehydrations: r.u64()?,
        shed: r.u64()?,
        journal_appends: r.u64()?,
        journal_syncs: r.u64()?,
        journal_compactions: r.u64()?,
        digests_emitted: r.u64()?,
        segments_shipped: r.u64()?,
        segments_acked: r.u64()?,
        recovery_replayed_ops: r.u64()?,
        recovery_torn_shards: r.u64()?,
        recovery_truncated_bytes: r.u64()?,
    })
}

fn enc_recovery_health(w: &mut Writer, h: &RecoveryHealth) {
    w.u64(h.replayed_ops);
    w.u64(h.torn_shards);
    w.u64(h.truncated_bytes);
}

fn dec_recovery_health(r: &mut Reader) -> Result<RecoveryHealth, SnapshotError> {
    Ok(RecoveryHealth {
        replayed_ops: r.u64()?,
        torn_shards: r.u64()?,
        truncated_bytes: r.u64()?,
    })
}

fn enc_runtime_error(w: &mut Writer, e: &RuntimeError) {
    match e {
        RuntimeError::Stopped => w.u8(0),
        RuntimeError::Timeout { missing } => {
            w.u8(1);
            w.u64(*missing as u64);
        }
    }
}

fn dec_runtime_error(r: &mut Reader) -> Result<RuntimeError, SnapshotError> {
    Ok(match r.u8()? {
        0 => RuntimeError::Stopped,
        1 => RuntimeError::Timeout {
            missing: r.u64()? as usize,
        },
        _ => return Err(SnapshotError::Malformed("unknown runtime error tag")),
    })
}

// --- message codecs ---

/// Serializes a request message (frame separately with
/// [`encode_frame`] / [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    match req {
        Request::CreateSession {
            tenant,
            session,
            spec,
        } => {
            w.u8(0);
            w.u64(*tenant);
            w.u64(*session);
            enc_spec(&mut w, spec);
        }
        Request::RestoreSession {
            tenant,
            session,
            bytes,
        } => {
            w.u8(1);
            w.u64(*tenant);
            w.u64(*session);
            enc_bytes(&mut w, bytes);
        }
        Request::Submit {
            tenant,
            session,
            ops,
        } => {
            w.u8(2);
            w.u64(*tenant);
            w.u64(*session);
            w.u64(ops.len() as u64);
            for op in ops {
                enc_op(&mut w, op);
            }
        }
        Request::Await {
            tenant,
            seqs,
            timeout_ms,
        } => {
            w.u8(3);
            w.u64(*tenant);
            enc_seqs(&mut w, seqs);
            w.u64(*timeout_ms);
        }
        Request::Collect { tenant } => {
            w.u8(4);
            w.u64(*tenant);
        }
        Request::Status { tenant, session } => {
            w.u8(5);
            w.u64(*tenant);
            w.u64(*session);
        }
        Request::Stats => w.u8(6),
        Request::Goodbye => w.u8(7),
        Request::Ship { envelope } => {
            w.u8(8);
            enc_bytes(&mut w, envelope);
        }
    }
    w.buf
}

/// Deserializes a request message (payload already frame-verified).
/// Total: any corruption is a typed [`WireError`].
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader { bytes, pos: 0 };
    let req = match r.u8()? {
        0 => Request::CreateSession {
            tenant: r.u64()?,
            session: r.u64()?,
            spec: dec_spec(&mut r)?,
        },
        1 => Request::RestoreSession {
            tenant: r.u64()?,
            session: r.u64()?,
            bytes: dec_bytes(&mut r)?,
        },
        2 => {
            let tenant = r.u64()?;
            let session = r.u64()?;
            let len = r.len(1)?;
            let ops = (0..len)
                .map(|_| dec_op(&mut r))
                .collect::<Result<_, _>>()?;
            Request::Submit {
                tenant,
                session,
                ops,
            }
        }
        3 => Request::Await {
            tenant: r.u64()?,
            seqs: dec_seqs(&mut r)?,
            timeout_ms: r.u64()?,
        },
        4 => Request::Collect { tenant: r.u64()? },
        5 => Request::Status {
            tenant: r.u64()?,
            session: r.u64()?,
        },
        6 => Request::Stats,
        7 => Request::Goodbye,
        8 => Request::Ship {
            envelope: dec_bytes(&mut r)?,
        },
        _ => return Err(WireError::Malformed("unknown request tag")),
    };
    if r.pos != bytes.len() {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - r.pos,
        });
    }
    Ok(req)
}

/// Serializes a response message.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    match resp {
        Response::Created => w.u8(0),
        Response::Restored => w.u8(1),
        Response::Submitted { seqs, ready } => {
            w.u8(2);
            enc_seqs(&mut w, seqs);
            enc_responses(&mut w, ready);
        }
        Response::Responses { responses } => {
            w.u8(3);
            enc_responses(&mut w, responses);
        }
        Response::Status { status, recovery } => {
            w.u8(4);
            match status {
                None => w.flag(false),
                Some(s) => {
                    w.flag(true);
                    enc_status(&mut w, s);
                }
            }
            enc_recovery_health(&mut w, recovery);
        }
        Response::Stats { stats } => {
            w.u8(5);
            enc_stats(&mut w, stats);
        }
        Response::Error { error } => {
            w.u8(6);
            enc_service_error(&mut w, error);
        }
        Response::WaitError { error } => {
            w.u8(7);
            enc_runtime_error(&mut w, error);
        }
        Response::Goodbye => w.u8(8),
        Response::ShipAck { shard, watermark } => {
            w.u8(9);
            w.u64(*shard);
            w.u64(*watermark);
        }
    }
    w.buf
}

/// Deserializes a response message. Total, like [`decode_request`].
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader { bytes, pos: 0 };
    let resp = match r.u8()? {
        0 => Response::Created,
        1 => Response::Restored,
        2 => Response::Submitted {
            seqs: dec_seqs(&mut r)?,
            ready: dec_responses(&mut r)?,
        },
        3 => Response::Responses {
            responses: dec_responses(&mut r)?,
        },
        4 => Response::Status {
            status: if r.flag("status presence flag")? {
                Some(dec_status(&mut r)?)
            } else {
                None
            },
            recovery: dec_recovery_health(&mut r)?,
        },
        5 => Response::Stats {
            stats: dec_stats(&mut r)?,
        },
        6 => Response::Error {
            error: dec_service_error(&mut r)?,
        },
        7 => Response::WaitError {
            error: dec_runtime_error(&mut r)?,
        },
        8 => Response::Goodbye,
        9 => Response::ShipAck {
            shard: r.u64()?,
            watermark: r.u64()?,
        },
        _ => return Err(WireError::Malformed("unknown response tag")),
    };
    if r.pos != bytes.len() {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - r.pos,
        });
    }
    Ok(resp)
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// Applies one request against the runtime, producing the response and
/// whether the connection should close after sending it.
fn apply<C: ScratchThreeWayComparator + Send + Sync>(
    handle: &RuntimeHandle<C>,
    req: Request,
) -> (Response, bool) {
    let resp = match req {
        Request::CreateSession {
            tenant,
            session,
            spec,
        } => match handle.create_session(tenant, session, spec) {
            Ok(()) => Response::Created,
            Err(error) => Response::Error { error },
        },
        Request::RestoreSession {
            tenant,
            session,
            bytes,
        } => match handle.restore_session(tenant, session, &bytes) {
            Ok(()) => Response::Restored,
            Err(error) => Response::Error { error },
        },
        Request::Submit {
            tenant,
            session,
            ops,
        } => match handle.submit_all(tenant, session, ops) {
            Ok(seqs) => {
                let ready = handle.take_ready(tenant, &seqs);
                Response::Submitted { seqs, ready }
            }
            Err(error) => Response::Error { error },
        },
        Request::Await {
            tenant,
            seqs,
            timeout_ms,
        } => match handle.await_responses(tenant, &seqs, Duration::from_millis(timeout_ms)) {
            Ok(responses) => Response::Responses { responses },
            Err(error) => Response::WaitError { error },
        },
        Request::Collect { tenant } => Response::Responses {
            responses: handle.collect_ready(tenant),
        },
        Request::Status { tenant, session } => Response::Status {
            status: handle.session_status(tenant, session),
            recovery: RecoveryHealth::from_stats(&handle.stats()),
        },
        Request::Stats => Response::Stats {
            stats: handle.stats(),
        },
        Request::Goodbye => return (Response::Goodbye, true),
        Request::Ship { .. } => Response::Error {
            error: ServiceError::Replication(ReplicationError::WrongRole),
        },
    };
    (resp, false)
}

/// Serves one duplex connection until `Goodbye`, clean peer close, or a
/// wire error. Framing corruption closes the connection (after a bad
/// frame the stream can no longer be trusted to be in sync) — the typed
/// error is returned to the *server* caller; the client observes
/// [`WireError::Closed`].
pub fn serve_connection<C, S>(handle: &RuntimeHandle<C>, stream: &mut S) -> Result<(), WireError>
where
    C: ScratchThreeWayComparator + Send + Sync,
    S: Read + Write,
{
    loop {
        let payload = match read_frame(stream, MAX_FRAME_PAYLOAD) {
            Ok(p) => p,
            Err(WireError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let request = decode_request(&payload)?;
        let (response, goodbye) = apply(handle, request);
        write_frame(stream, &encode_response(&response))?;
        if goodbye {
            return Ok(());
        }
    }
}

/// Serves one duplex connection to a standby [`Follower`]: `Ship`
/// requests replay into the replica (answered with the applied
/// watermark), `Goodbye` or a clean peer close ends the loop, and every
/// tenant-facing request is rejected with a typed
/// [`ReplicationError::WrongRole`] — a standby does not serve until it
/// is promoted. The follower stays shared so the caller can seal and
/// promote it after the loop returns.
pub fn serve_follower<C, S>(
    follower: &Arc<Mutex<Follower<C>>>,
    stream: &mut S,
) -> Result<(), WireError>
where
    C: ScratchThreeWayComparator + Send + Sync,
    S: Read + Write,
{
    loop {
        let payload = match read_frame(stream, MAX_FRAME_PAYLOAD) {
            Ok(p) => p,
            Err(WireError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let response = match decode_request(&payload)? {
            Request::Ship { envelope } => {
                let segment = crate::replication::decode_segment(&envelope);
                let shard = segment.as_ref().map_or(u64::MAX, |s| u64::from(s.shard));
                let applied = follower
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .apply_decoded(segment);
                match applied {
                    Ok(watermark) => Response::ShipAck { shard, watermark },
                    Err(e) => Response::Error {
                        error: ServiceError::Replication(e),
                    },
                }
            }
            Request::Goodbye => {
                write_frame(stream, &encode_response(&Response::Goodbye))?;
                return Ok(());
            }
            _ => Response::Error {
                error: ServiceError::Replication(ReplicationError::WrongRole),
            },
        };
        write_frame(stream, &encode_response(&response))?;
    }
}

/// Accepts unix-socket connections and serves each on its own thread.
/// With `max_connections: Some(n)`, returns after accepting `n`
/// connections (all of them served to completion); with `None`, loops
/// until `accept` fails.
#[cfg(unix)]
pub fn serve_unix<C>(
    handle: RuntimeHandle<C>,
    listener: std::os::unix::net::UnixListener,
    max_connections: Option<usize>,
) -> std::io::Result<()>
where
    C: ScratchThreeWayComparator + Send + Sync + 'static,
{
    let mut served = Vec::new();
    let mut accepted = 0usize;
    while max_connections.is_none_or(|n| accepted < n) {
        let (mut stream, _) = listener.accept()?;
        accepted += 1;
        let conn_handle = handle.clone();
        served.push(std::thread::spawn(move || {
            let _ = serve_connection(&conn_handle, &mut stream);
        }));
    }
    for join in served {
        let _ = join.join();
    }
    Ok(())
}
