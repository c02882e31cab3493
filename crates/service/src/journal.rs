//! Append-only per-shard op journal: the durability half of the service.
//!
//! A journaled [`SessionService`](crate::service::SessionService) writes
//! every admitted operation to a per-shard journal *before* it is
//! enqueued, so a crash between admission and execution loses nothing:
//! [`SessionService::recover`](crate::service::SessionService::recover)
//! rebuilds each shard as **snapshot + replay of the suffix**, and the
//! deterministic `(tenant, seq)` scheduler makes the recovered sessions
//! continue wave-for-wave bit-identical to a run that never crashed.
//!
//! # Stream format
//!
//! The journal reuses the snapshot codec's little-endian framing and its
//! word-wise FNV-1a checksum. Each durable artifact (the *base*
//! checkpoint and the *journal* proper) is one byte stream:
//!
//! ```text
//! "RPJL" (4 bytes)  version u16  then records:
//!   ┌──────────┬─────────────┬───────────────────────────────┐
//!   │ len: u32 │ payload     │ checksum(len_bytes ∥ payload) │
//!   └──────────┴─────────────┴───────────────────────────────┘
//! ```
//!
//! The checksum is FNV-1a 64 over the little-endian `u64` words of
//! `len_bytes ∥ payload`, then its 0–7 tail bytes. Version 1 streams
//! sealed their records with byte-serial FNV-1a; the header is outside
//! every record checksum, so [`scan`] refuses such a stream as
//! [`JournalError::UnsupportedVersion`] before reading a record.
//!
//! Record payloads are tagged [`JournalRecord`] values. A shard's durable
//! state is two artifacts managed by a [`JournalStore`]:
//!
//! * **base** — exactly one [`JournalRecord::Checkpoint`] holding a
//!   snapshot (plus applied-seq low-water mark) per session. Installed
//!   atomically; a torn or malformed base is typed corruption.
//! * **journal** — `Create`/`Restore`/`Ops` records appended since the
//!   last checkpoint. Scanned torn-tolerantly: a partial final record
//!   (crash mid-write) is detected by length/checksum and cleanly
//!   truncated; corruption *before* the tail is a typed
//!   [`JournalError::Corrupt`] naming the offset — never a panic.
//!
//! An admission group ([`submit_all`](crate::service::SessionService::submit_all))
//! is journaled as **one** `Ops` record, so torn-tail durability is
//! all-or-nothing per group — matching the scheduler's atomic admission.
//!
//! # Stores and fault injection
//!
//! [`MemJournalStore`] keeps both artifacts in memory behind a shared
//! handle and can be armed with a [`CrashPoint`] to fail at a precise
//! moment ([`MemJournalStore::arm`]); [`MemJournalStore::power_cycle`]
//! then simulates the restart, including flushing a *torn prefix* of the
//! unsynced tail into durable bytes for [`CrashPoint::TornAppend`].
//! [`FileJournalStore`] is the production store: `base.bin`/`journal.bin`
//! in a directory, appends batched under a group-commit interval
//! ([`JournalConfig::group_commit`]), checkpoints installed by
//! write-temp + fsync + rename.

use crate::service::{SessionOp, SessionSpec};
use crate::snapshot::{fnv1a64_words, Reader, SnapshotError, Writer, FNV_OFFSET};
use crate::wire::{dec_bytes, dec_op, dec_spec, enc_bytes, enc_op, enc_spec};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Journal stream magic: `RPJL`.
pub const MAGIC: [u8; 4] = *b"RPJL";
/// Current journal stream version.
pub const VERSION: u16 = 2;
/// Stream header length: magic plus version.
const HEADER_LEN: usize = 6;
/// Frame overhead per record: `u32` length plus `u64` checksum.
const FRAME_LEN: usize = 12;

/// Tuning for a journaled service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Journaled ops to accumulate before the store is `fsync`ed (group
    /// commit). `1` syncs every admission (maximum durability); larger
    /// values amortize the sync over a batch at the cost of losing the
    /// unsynced tail in a crash — acknowledged-but-unsynced admissions
    /// are the window the client retry layer must tolerate. The window
    /// is < g ops per shard in synchronous mode and on a bare service,
    /// and < 2g with a threaded runtime, whose scheduler threads run the
    /// syncs (see the runtime's
    /// [Journal flushes](crate::runtime#journal-flushes)). Treated as at
    /// least 1.
    pub group_commit: usize,
    /// Journaled ops a shard tolerates before the scheduler compacts it
    /// into a fresh checkpoint after a batch. `0` disables automatic
    /// compaction (call
    /// [`compact_all`](crate::service::SessionService::compact_all)
    /// manually).
    pub compact_every: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            group_commit: 1,
            compact_every: 1024,
        }
    }
}

/// One durable journal entry.
///
/// `Create`/`Restore`/`Ops` live in the journal stream; `Checkpoint` is
/// the single record of a base stream.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A session was admitted with a fresh spec.
    Create {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// The validated spec the session was created from.
        spec: SessionSpec,
    },
    /// A session was admitted from snapshot bytes.
    Restore {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// The (already validated) snapshot codec bytes.
        snapshot: Vec<u8>,
    },
    /// One atomically admitted op group, seqs `first_seq..first_seq + n`.
    Ops {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// Global sequence number of `ops[0]`; op `i` has seq
        /// `first_seq + i`.
        first_seq: u64,
        /// The admitted group, in submission order.
        ops: Vec<SessionOp>,
    },
    /// A full-shard checkpoint (base stream only).
    Checkpoint {
        /// Global seq low-water mark: every op covered by this checkpoint
        /// has seq below this, so recovery resumes the counter at or
        /// above it.
        seq_floor: u64,
        /// Every session resident in (or spilled from) the shard.
        sessions: Vec<CheckpointSession>,
    },
    /// A divergence-detection beacon: the leader's per-session export
    /// checksums at a quiesced point in the stream. Replicas recompute
    /// the same checksums after replay and must match; recovery skips
    /// these records (they carry no state).
    Digest {
        /// One entry per session resident in (or spilled from) the shard
        /// when the digest was emitted.
        sessions: Vec<DigestSession>,
    },
}

/// One session inside a [`JournalRecord::Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSession {
    /// Owning tenant.
    pub tenant: u64,
    /// Session id within the tenant.
    pub session: u64,
    /// Highest op seq already applied to the snapshot, if any — replayed
    /// journal ops at or below this are deduplicated (idempotent replay).
    pub last_applied: Option<u64>,
    /// Snapshot codec bytes (`RPSN`) for the session.
    pub snapshot: Vec<u8>,
}

/// One session inside a [`JournalRecord::Digest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestSession {
    /// Owning tenant.
    pub tenant: u64,
    /// Session id within the tenant.
    pub session: u64,
    /// Highest op seq applied to the session when the digest was taken.
    pub last_applied: Option<u64>,
    /// Word-wise FNV-1a 64 checksum of the session's canonical snapshot-codec
    /// export (RNG streams excluded) — bit-exact across replicas by the
    /// codec's determinism.
    pub checksum: u64,
}

/// Typed decode/scan failure for a journal or base stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The stream does not start with `RPJL`.
    BadMagic,
    /// The stream was written in a format version this build does not
    /// read — an older one or a future one.
    UnsupportedVersion {
        /// Version found in the stream header.
        found: u16,
        /// The version this build reads and writes.
        supported: u16,
    },
    /// A record before the tail failed its checksum or did not decode.
    Corrupt {
        /// Byte offset of the offending record's frame.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::BadMagic => write!(f, "journal bytes do not start with the RPJL magic"),
            JournalError::UnsupportedVersion { found, supported } => write!(
                f,
                "journal version {found} is not supported (this build reads version {supported})"
            ),
            JournalError::Corrupt { offset, what } => {
                write!(f, "journal corrupt at offset {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Typed storage failure from a [`JournalStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalIoError {
    /// An injected crash point fired (fault-injection harness).
    Crashed,
    /// The shard's journal was sealed by an earlier append failure;
    /// journaled admissions are rejected until the service is recovered.
    Sealed,
    /// An operating-system I/O error, stringified.
    Io(String),
}

impl fmt::Display for JournalIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalIoError::Crashed => write!(f, "journal store crashed (injected fault)"),
            JournalIoError::Sealed => {
                write!(f, "journal sealed after an append failure; recover the service")
            }
            JournalIoError::Io(e) => write!(f, "journal I/O error: {e}"),
        }
    }
}

impl std::error::Error for JournalIoError {}

/// The two durable artifacts of one shard, as loaded from a store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoredShard {
    /// Base stream: header plus exactly one `Checkpoint` record (empty
    /// for a store never checkpointed).
    pub base: Vec<u8>,
    /// Journal stream: header plus records appended since the base was
    /// installed (possibly with a torn tail).
    pub journal: Vec<u8>,
}

/// Durable backing for one shard's journal.
///
/// Implementations must make `append`ed bytes durable no later than the
/// next successful `sync`, and must install checkpoints atomically (a
/// crash mid-install leaves either the old or the new base, never a
/// mix). All methods take `&mut self`; the service serializes calls
/// under the shard's store lock, not the shard lock, so a scheduler
/// thread's `sync` may run while admissions to the shard go on (see the
/// runtime's [Journal flushes](crate::runtime#journal-flushes)). Records
/// still reach `append` one by one, in admission order.
pub trait JournalStore: Send {
    /// Appends raw record bytes to the journal stream.
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError>;
    /// Makes all appended bytes durable (group commit boundary).
    fn sync(&mut self) -> Result<(), JournalIoError>;
    /// Atomically replaces the base stream and resets the journal stream.
    fn install_checkpoint(&mut self, base: &[u8], journal: &[u8]) -> Result<(), JournalIoError>;
    /// Loads the durable state (what a restarted process would see).
    fn load(&mut self) -> Result<StoredShard, JournalIoError>;
}

/// Where an injected crash fires inside a [`MemJournalStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// During `append`, after the bytes reached the store's volatile
    /// buffer but before any sync — the whole unsynced tail is lost at
    /// [`power_cycle`](MemJournalStore::power_cycle).
    AfterAppend,
    /// During `append`, with the crash tearing the write: half of the
    /// unsynced tail lands in durable bytes at power-cycle, cutting a
    /// record mid-frame — the scanner must truncate it.
    TornAppend,
    /// During `sync`, *after* the bytes became durable but before the
    /// service could enqueue/execute them — recovery must replay ops the
    /// client was never acknowledged for.
    BeforeExecute,
    /// During `install_checkpoint`, after the new base was installed but
    /// before the journal was reset — recovery sees the new checkpoint
    /// plus stale journal records and must deduplicate them.
    MidSnapshot,
    /// During `install_checkpoint`, before anything was installed — the
    /// old base and journal survive untouched.
    MidCompaction,
}

/// All crash points, in the order the harness sweeps them.
pub const CRASH_POINTS: [CrashPoint; 5] = [
    CrashPoint::AfterAppend,
    CrashPoint::TornAppend,
    CrashPoint::BeforeExecute,
    CrashPoint::MidSnapshot,
    CrashPoint::MidCompaction,
];

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CrashPoint::AfterAppend => "after-append",
            CrashPoint::TornAppend => "torn-append",
            CrashPoint::BeforeExecute => "before-execute",
            CrashPoint::MidSnapshot => "mid-snapshot",
            CrashPoint::MidCompaction => "mid-compaction",
        };
        write!(f, "{name}")
    }
}

// ---------------------------------------------------------------------------
// Stream codec
// ---------------------------------------------------------------------------

/// A fresh stream header (magic + version), the prefix of every artifact.
pub fn stream_header() -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(payload.len() + FRAME_LEN);
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    let sum = fnv1a64_words(FNV_OFFSET, &bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Encodes one record as a framed stream chunk (length ∥ payload ∥
/// checksum), ready to append after a [`stream_header`].
pub fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    match record {
        JournalRecord::Create { tenant, session, spec } => {
            w.u8(0);
            w.u64(*tenant);
            w.u64(*session);
            enc_spec(&mut w, spec);
        }
        JournalRecord::Restore { tenant, session, snapshot } => {
            w.u8(1);
            w.u64(*tenant);
            w.u64(*session);
            enc_bytes(&mut w, snapshot);
        }
        JournalRecord::Ops { tenant, session, first_seq, ops } => {
            return encode_ops_record(*tenant, *session, *first_seq, ops);
        }
        JournalRecord::Checkpoint { seq_floor, sessions } => {
            w.u8(3);
            w.u64(*seq_floor);
            w.u64(sessions.len() as u64);
            for s in sessions {
                w.u64(s.tenant);
                w.u64(s.session);
                w.flag(s.last_applied.is_some());
                w.u64(s.last_applied.unwrap_or(0));
                enc_bytes(&mut w, &s.snapshot);
            }
        }
        JournalRecord::Digest { sessions } => {
            w.u8(4);
            w.u64(sessions.len() as u64);
            for s in sessions {
                w.u64(s.tenant);
                w.u64(s.session);
                w.flag(s.last_applied.is_some());
                w.u64(s.last_applied.unwrap_or(0));
                w.u64(s.checksum);
            }
        }
    }
    frame(&w.buf)
}

/// Encodes an `Ops` record directly from borrowed ops (the admission hot
/// path journals a group without cloning it).
pub(crate) fn encode_ops_record(tenant: u64, session: u64, first_seq: u64, ops: &[SessionOp]) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.u8(2);
    w.u64(tenant);
    w.u64(session);
    w.u64(first_seq);
    w.u64(ops.len() as u64);
    for op in ops {
        enc_op(&mut w, op);
    }
    frame(&w.buf)
}

fn payload_error(offset: usize, e: SnapshotError) -> JournalError {
    let what = match e {
        SnapshotError::Malformed(what) => what,
        SnapshotError::Truncated { .. } => "record payload truncated",
        _ => "record payload malformed",
    };
    JournalError::Corrupt { offset, what }
}

fn decode_payload(offset: usize, payload: &[u8]) -> Result<JournalRecord, JournalError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let err = |e| payload_error(offset, e);
    let record = match r.u8().map_err(err)? {
        0 => JournalRecord::Create {
            tenant: r.u64().map_err(err)?,
            session: r.u64().map_err(err)?,
            spec: dec_spec(&mut r).map_err(err)?,
        },
        1 => JournalRecord::Restore {
            tenant: r.u64().map_err(err)?,
            session: r.u64().map_err(err)?,
            snapshot: dec_bytes(&mut r).map_err(err)?,
        },
        2 => {
            let tenant = r.u64().map_err(err)?;
            let session = r.u64().map_err(err)?;
            let first_seq = r.u64().map_err(err)?;
            let n = r.len(1).map_err(err)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(dec_op(&mut r).map_err(err)?);
            }
            JournalRecord::Ops { tenant, session, first_seq, ops }
        }
        3 => {
            let seq_floor = r.u64().map_err(err)?;
            let n = r.len(17).map_err(err)?;
            let mut sessions = Vec::with_capacity(n);
            for _ in 0..n {
                let tenant = r.u64().map_err(err)?;
                let session = r.u64().map_err(err)?;
                let has = r.flag("last_applied flag").map_err(err)?;
                let seq = r.u64().map_err(err)?;
                let snapshot = dec_bytes(&mut r).map_err(err)?;
                sessions.push(CheckpointSession {
                    tenant,
                    session,
                    last_applied: has.then_some(seq),
                    snapshot,
                });
            }
            JournalRecord::Checkpoint { seq_floor, sessions }
        }
        4 => {
            let n = r.len(33).map_err(err)?;
            let mut sessions = Vec::with_capacity(n);
            for _ in 0..n {
                let tenant = r.u64().map_err(err)?;
                let session = r.u64().map_err(err)?;
                let has = r.flag("last_applied flag").map_err(err)?;
                let seq = r.u64().map_err(err)?;
                let checksum = r.u64().map_err(err)?;
                sessions.push(DigestSession {
                    tenant,
                    session,
                    last_applied: has.then_some(seq),
                    checksum,
                });
            }
            JournalRecord::Digest { sessions }
        }
        _ => {
            return Err(JournalError::Corrupt {
                offset,
                what: "unknown record tag",
            })
        }
    };
    if r.pos != payload.len() {
        return Err(JournalError::Corrupt {
            offset,
            what: "trailing bytes in record payload",
        });
    }
    Ok(record)
}

/// The result of a torn-tolerant [`scan`] of a journal stream.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalScan {
    /// Every intact record, with the byte offset of its frame.
    pub records: Vec<(usize, JournalRecord)>,
    /// Length of the valid prefix (header plus intact records); bytes
    /// beyond this are the torn tail, if any.
    pub valid_len: usize,
    /// `true` when a partial final record was detected and truncated.
    pub torn: bool,
}

/// Scans a journal stream, tolerating a torn tail.
///
/// A record whose frame runs past the end of the stream, or whose
/// checksum fails *at the very end* of the stream, is treated as a
/// partial write at crash: the scan stops cleanly at the longest valid
/// prefix and reports `torn`. A checksum or decode failure with intact
/// bytes after it is real corruption and yields a typed error — never a
/// panic. An empty stream is a clean empty journal; a stream shorter
/// than the header is a torn empty one.
pub fn scan(bytes: &[u8]) -> Result<JournalScan, JournalError> {
    if bytes.is_empty() {
        return Ok(JournalScan { records: Vec::new(), valid_len: 0, torn: false });
    }
    if bytes.len() < HEADER_LEN {
        // Not even a full header made it out: a torn, empty journal when
        // the bytes agree with the magic prefix, corruption otherwise.
        if MAGIC.starts_with(&bytes[..bytes.len().min(4)]) {
            return Ok(JournalScan { records: Vec::new(), valid_len: 0, torn: true });
        }
        return Err(JournalError::BadMagic);
    }
    if bytes[..4] != MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(JournalError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        if rem < 4 {
            // Not even a length prefix: torn tail.
            return Ok(JournalScan { records, valid_len: pos, torn: true });
        }
        let len =
            u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                as usize;
        let end = pos + 4 + len + 8;
        if end > bytes.len() {
            // The declared frame runs past the stream: torn tail. (A
            // corrupted length byte mid-stream is indistinguishable from
            // a partial write, so truncation is the only safe answer.)
            return Ok(JournalScan { records, valid_len: pos, torn: true });
        }
        let sum_at = pos + 4 + len;
        let expect = u64::from_le_bytes(bytes[sum_at..end].try_into().expect("8 bytes"));
        if fnv1a64_words(FNV_OFFSET, &bytes[pos..sum_at]) != expect {
            if end == bytes.len() {
                // Checksum failure on the very last record: partial write.
                return Ok(JournalScan { records, valid_len: pos, torn: true });
            }
            return Err(JournalError::Corrupt {
                offset: pos,
                what: "record checksum mismatch",
            });
        }
        let record = decode_payload(pos, &bytes[pos + 4..sum_at])?;
        records.push((pos, record));
        pos = end;
    }
    Ok(JournalScan { records, valid_len: pos, torn: false })
}

// ---------------------------------------------------------------------------
// In-memory store with crash-point injection
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemStore {
    base: Vec<u8>,
    /// Synced journal bytes (what survives a power cycle).
    durable: Vec<u8>,
    /// Appended but not yet synced journal bytes.
    volatile: Vec<u8>,
    armed: Option<CrashPoint>,
    /// The crash point that actually fired, consulted by `power_cycle`.
    tripped: Option<CrashPoint>,
    crashed: bool,
    appends: u64,
    syncs: u64,
    checkpoints: u64,
}

/// In-memory [`JournalStore`] with injectable [`CrashPoint`]s.
///
/// The store is a shared handle (`Clone`): the fault-injection harness
/// keeps a handle, hands a clone to the service, arms a crash point,
/// lets the service trip over it, drops the service, and calls
/// [`power_cycle`](MemJournalStore::power_cycle) before recovering from
/// the same handle — exactly a process crash plus restart, minus the
/// process.
#[derive(Debug, Clone, Default)]
pub struct MemJournalStore {
    inner: Arc<Mutex<MemStore>>,
}

impl MemJournalStore {
    /// A fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemStore> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arms the next matching store call to crash (one-shot).
    pub fn arm(&self, point: CrashPoint) {
        let mut s = self.lock();
        s.armed = Some(point);
    }

    /// `true` once an armed crash point has fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Simulates the machine restarting after a crash: unsynced bytes are
    /// dropped (for [`CrashPoint::TornAppend`], half of the torn tail is
    /// first flushed into durable bytes, cutting a record mid-frame) and
    /// the store accepts calls again.
    pub fn power_cycle(&self) {
        let mut s = self.lock();
        if s.tripped == Some(CrashPoint::TornAppend) && !s.volatile.is_empty() {
            let cut = (s.volatile.len() / 2).max(1);
            let torn: Vec<u8> = s.volatile[..cut].to_vec();
            s.durable.extend_from_slice(&torn);
        }
        s.volatile.clear();
        s.armed = None;
        s.tripped = None;
        s.crashed = false;
    }

    /// The durable state, as [`load`](JournalStore::load) would see it.
    pub fn stored(&self) -> StoredShard {
        let s = self.lock();
        StoredShard {
            base: s.base.clone(),
            journal: s.durable.clone(),
        }
    }

    /// Replaces the durable state wholesale (corruption-injection tests).
    pub fn replace(&self, shard: StoredShard) {
        let mut s = self.lock();
        s.base = shard.base;
        s.durable = shard.journal;
        s.volatile.clear();
    }

    /// `(appends, syncs, checkpoints)` observed by this store.
    pub fn counters(&self) -> (u64, u64, u64) {
        let s = self.lock();
        (s.appends, s.syncs, s.checkpoints)
    }
}

impl JournalStore for MemJournalStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError> {
        let mut s = self.lock();
        if s.crashed {
            return Err(JournalIoError::Crashed);
        }
        s.volatile.extend_from_slice(bytes);
        s.appends += 1;
        if matches!(s.armed, Some(CrashPoint::AfterAppend | CrashPoint::TornAppend)) {
            s.tripped = s.armed.take();
            s.crashed = true;
            return Err(JournalIoError::Crashed);
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalIoError> {
        let mut s = self.lock();
        if s.crashed {
            return Err(JournalIoError::Crashed);
        }
        let tail = std::mem::take(&mut s.volatile);
        s.durable.extend_from_slice(&tail);
        s.syncs += 1;
        if s.armed == Some(CrashPoint::BeforeExecute) {
            // The bytes just became durable; the crash hits before the
            // service can act on the successful sync.
            s.tripped = s.armed.take();
            s.crashed = true;
            return Err(JournalIoError::Crashed);
        }
        Ok(())
    }

    fn install_checkpoint(&mut self, base: &[u8], journal: &[u8]) -> Result<(), JournalIoError> {
        let mut s = self.lock();
        if s.crashed {
            return Err(JournalIoError::Crashed);
        }
        if s.armed == Some(CrashPoint::MidCompaction) {
            s.tripped = s.armed.take();
            s.crashed = true;
            return Err(JournalIoError::Crashed);
        }
        s.base = base.to_vec();
        if s.armed == Some(CrashPoint::MidSnapshot) {
            // New base installed, journal not yet reset: stale records
            // survive and must be deduplicated at recovery.
            s.tripped = s.armed.take();
            s.crashed = true;
            return Err(JournalIoError::Crashed);
        }
        s.durable = journal.to_vec();
        s.volatile.clear();
        s.checkpoints += 1;
        Ok(())
    }

    fn load(&mut self) -> Result<StoredShard, JournalIoError> {
        let s = self.lock();
        if s.crashed {
            return Err(JournalIoError::Crashed);
        }
        Ok(StoredShard {
            base: s.base.clone(),
            journal: s.durable.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------------

/// File-backed [`JournalStore`]: `base.bin` and `journal.bin` in a
/// directory, one directory per shard.
///
/// Appends go to an append-mode handle and become durable at
/// [`sync`](JournalStore::sync) (`File::sync_data`). Checkpoints are
/// installed atomically: each artifact is written to a temp file, synced,
/// and renamed over the live one (with a best-effort directory sync), so
/// a crash mid-install leaves the old or the new artifact, never a mix.
#[derive(Debug)]
pub struct FileJournalStore {
    dir: PathBuf,
    journal: Option<fs::File>,
}

impl FileJournalStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, JournalIoError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        Ok(FileJournalStore { dir, journal: None })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    fn journal_file(&mut self) -> Result<&mut fs::File, JournalIoError> {
        if self.journal.is_none() {
            let file = fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(self.dir.join("journal.bin"))
                .map_err(io_err)?;
            self.journal = Some(file);
        }
        Ok(self.journal.as_mut().expect("just opened"))
    }

    fn install_file(&self, name: &str, bytes: &[u8]) -> Result<(), JournalIoError> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let live = self.dir.join(name);
        let mut file = fs::File::create(&tmp).map_err(io_err)?;
        file.write_all(bytes).map_err(io_err)?;
        file.sync_all().map_err(io_err)?;
        drop(file);
        fs::rename(&tmp, &live).map_err(io_err)?;
        // Make the rename itself durable where the platform allows it.
        if let Ok(dir) = fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> JournalIoError {
    JournalIoError::Io(e.to_string())
}

impl JournalStore for FileJournalStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError> {
        self.journal_file()?.write_all(bytes).map_err(io_err)
    }

    fn sync(&mut self) -> Result<(), JournalIoError> {
        match &self.journal {
            Some(file) => file.sync_data().map_err(io_err),
            None => Ok(()),
        }
    }

    fn install_checkpoint(&mut self, base: &[u8], journal: &[u8]) -> Result<(), JournalIoError> {
        // Close the append handle first so the rename swaps under us
        // cleanly and the next append reopens the fresh file.
        self.journal = None;
        self.install_file("base.bin", base)?;
        self.install_file("journal.bin", journal)
    }

    fn load(&mut self) -> Result<StoredShard, JournalIoError> {
        let read = |name: &str| -> Result<Vec<u8>, JournalIoError> {
            match fs::read(self.dir.join(name)) {
                Ok(bytes) => Ok(bytes),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
                Err(e) => Err(io_err(e)),
            }
        };
        Ok(StoredShard {
            base: read("base.bin")?,
            journal: read("journal.bin")?,
        })
    }
}
