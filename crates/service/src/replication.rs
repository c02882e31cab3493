//! Journal-shipping replication: deterministic follower replicas,
//! failover promotion, and divergence detection.
//!
//! The durability layer ([`crate::journal`]) already writes every
//! admitted op to a per-shard `RPJL` stream *before* it is visible, and
//! the service's determinism contract makes replaying that stream
//! reproduce session state bit-for-bit. Replication is therefore journal
//! shipping: a [`JournalShipper`] on the leader taps the same record
//! bytes the journal makes durable, cuts them into `SHIP` segments (one
//! envelope per shard lane carrying a segment sequence number and a
//! cumulative digest chained over the lane's segments), and delivers
//! them through a [`SegmentTransport`]. A [`Follower`] applies the
//! records into a warm standby session set through the one record
//! applier crash recovery uses, and acks the highest contiguously applied
//! segment (the **watermark**); the shipper retransmits everything above
//! the ack, so drops, duplicates, bounded reordering, truncation, and bit
//! flips on the transport all heal — or surface as a typed
//! [`ReplicationError`], never a panic. Only two replay policies differ
//! from recovery's: a create or restore for a session the replica
//! already holds fails it typed rather than being skipped, and digest
//! records are verified rather than skipped.
//!
//! # Envelope layout (version 2)
//!
//! ```text
//! "SHIP" (4)  version u16  shard u32  seq u64  cum_digest u64
//! payload_len u32  payload (raw RPJL record bytes, any cut point)
//! checksum(everything preceding) u64
//! ```
//!
//! The checksum is the word-wise FNV-1a 64 every framed format shares
//! (little-endian `u64` words, then the 0–7 tail bytes). It covers the
//! entire envelope, so any bit flip or truncation is caught before a
//! single field is trusted; a version-1 envelope (byte-serial FNV-1a)
//! therefore fails as a checksum mismatch, and a version-1 header under a
//! valid checksum as [`ReplicationError::UnsupportedVersion`].
//! `cum_digest` is that checksum chained per segment over every payload
//! shipped on the lane **including this segment** — the shipper and the
//! follower chain the same segments, so two replicas that applied the
//! same watermark agree on it, and a mismatch means the streams diverged
//! even though each segment was individually intact. Segments may cut the
//! record stream anywhere (mid-record included); the follower buffers
//! the torn tail until the next segment completes it.
//!
//! # Failover
//!
//! [`Follower::promote`] consumes the replica: replication is sealed,
//! any buffered torn tail and parked out-of-order segments are
//! discarded (they were never contiguously applied, hence never acked),
//! the global seq counter resumes past every applied op, and the warm
//! sessions become a serving [`SessionService`]. Clients re-drive
//! ambiguous in-flight groups through the same
//! [`session_status`](SessionService::session_status) reconciliation
//! they use after a crash-restart.
//!
//! # Divergence detection
//!
//! [`SessionService::emit_digests`] appends a
//! [`Digest`](JournalRecord::Digest) record to each quiesced shard
//! carrying the leader's per-session export checksums. The follower
//! recomputes the same checksums after replaying the preceding records;
//! any mismatch (or a session present on one side only) moves the
//! replica to [`ReplicaState::Diverged`] — it stops applying and
//! refuses promotion instead of silently serving wrong answers.

use crate::error::ServiceError;
use crate::journal::{
    self, JournalConfig, JournalError, JournalIoError, JournalRecord, JournalStore, StoredShard,
};
use crate::service::{
    session_checksum, shard_for, Replay, ServiceLimits, SessionKey, SessionService,
};
use crate::snapshot::{fnv1a64_words, FNV_OFFSET};
use relperf_core::cluster::Parallelism;
use relperf_measure::ScratchThreeWayComparator;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Ship envelope magic: `SHIP`.
pub const SHIP_MAGIC: [u8; 4] = *b"SHIP";
/// Current ship envelope version.
pub const SHIP_VERSION: u16 = 2;
/// Fixed envelope bytes around the payload: magic + version + shard +
/// seq + cum_digest + payload_len + trailing checksum.
const ENVELOPE_OVERHEAD: usize = 4 + 2 + 4 + 8 + 8 + 4 + 8;
/// How far ahead of the expected sequence a follower parks segments
/// before reporting a gap (reorder tolerance).
const REORDER_WINDOW: u64 = 64;

/// Why a shipped segment (or a replication-layer request) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationError {
    /// The envelope did not parse (bad magic, short buffer, payload
    /// length mismatch). The message is advisory and not preserved across
    /// the wire.
    Envelope(&'static str),
    /// A checksum-valid envelope named a version this build does not
    /// read — an older one or a future one.
    UnsupportedVersion {
        /// Version found in the envelope header.
        found: u16,
        /// The version this build reads and writes ([`SHIP_VERSION`]).
        supported: u16,
    },
    /// The envelope's trailing checksum did not match its bytes — a bit
    /// flip or truncation in transit. Retransmission recovers.
    ChecksumMismatch {
        /// Checksum stored in the envelope trailer.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// A segment arrived beyond the reorder window: segments in between
    /// were lost. Retransmission from the watermark recovers.
    SequenceGap {
        /// Lane (shard) the segment addressed.
        shard: u32,
        /// The next sequence the follower can apply.
        expected: u64,
        /// The sequence that arrived.
        found: u64,
    },
    /// The envelope named a shard lane the follower does not have.
    UnknownShard {
        /// Lane the envelope named.
        shard: u32,
        /// Lanes the follower was built with.
        shards: usize,
    },
    /// The cumulative stream digest diverged at an in-order, intact
    /// segment: the leader and follower disagree about the bytes already
    /// shipped. The replica stops applying (fatal for the lane).
    DigestMismatch {
        /// Lane (shard) the segment addressed.
        shard: u32,
        /// Sequence of the offending segment.
        seq: u64,
        /// Cumulative digest the envelope carried.
        expected: u64,
        /// Cumulative digest the follower computed.
        found: u64,
    },
    /// The shipped record bytes failed to scan as an `RPJL` stream
    /// (mid-stream corruption, or a record kind that cannot appear in a
    /// journal). Fatal: the replica cannot trust its state.
    Records {
        /// Lane (shard) the segment addressed.
        shard: u32,
        /// Sequence of the offending segment.
        seq: u64,
        /// The underlying scan failure.
        error: JournalError,
    },
    /// A replayed record could not be applied (duplicate create, a
    /// snapshot that no longer decodes). Fatal: the replica cannot
    /// reach the leader's state.
    Apply {
        /// Owning tenant of the offending record.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// The underlying rejection, stringified.
        what: String,
    },
    /// A divergence digest did not match the replica's own state: the
    /// named session's export checksum differs (a zero side means the
    /// session exists on one side only). Fatal — the replica refuses to
    /// serve or promote.
    Diverged {
        /// Owning tenant of the mismatched session.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// The leader's export checksum (0 = absent on the leader).
        expected: u64,
        /// The follower's export checksum (0 = absent on the follower).
        found: u64,
    },
    /// The replica was sealed (promotion under way or operator cutover);
    /// no further segments are accepted.
    Sealed,
    /// The endpoint is in the wrong role: a standby replica was asked to
    /// serve tenant requests (promote it first), or a serving service
    /// was shipped a replication segment.
    WrongRole,
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::Envelope(what) => write!(f, "ship envelope rejected: {what}"),
            ReplicationError::UnsupportedVersion { found, supported } => write!(
                f,
                "ship envelope version {found} is not supported (this build reads version {supported})"
            ),
            ReplicationError::ChecksumMismatch { stored, computed } => write!(
                f,
                "ship envelope checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            ReplicationError::SequenceGap { shard, expected, found } => write!(
                f,
                "shard {shard}: segment {found} arrived but {expected} is next (gap)"
            ),
            ReplicationError::UnknownShard { shard, shards } => {
                write!(f, "segment addressed shard {shard} of a {shards}-shard replica")
            }
            ReplicationError::DigestMismatch { shard, seq, expected, found } => write!(
                f,
                "shard {shard}: cumulative digest diverged at segment {seq} \
                 (leader {expected:#018x}, replica {found:#018x})"
            ),
            ReplicationError::Records { shard, seq, error } => {
                write!(f, "shard {shard}: segment {seq} records rejected: {error}")
            }
            ReplicationError::Apply { tenant, session, what } => write!(
                f,
                "session {session} of tenant {tenant} failed to replay: {what}"
            ),
            ReplicationError::Diverged { tenant, session, expected, found } => write!(
                f,
                "replica diverged: session {session} of tenant {tenant} exports \
                 {found:#018x}, leader digests {expected:#018x}"
            ),
            ReplicationError::Sealed => write!(f, "replica sealed; no further segments accepted"),
            ReplicationError::WrongRole => {
                write!(f, "endpoint is in the wrong role for this request")
            }
        }
    }
}

impl std::error::Error for ReplicationError {}

// ---------------------------------------------------------------------------
// SHIP envelope codec
// ---------------------------------------------------------------------------

/// One decoded `SHIP` envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipSegment {
    /// The shard lane the segment belongs to.
    pub shard: u32,
    /// Per-lane segment sequence number, starting at 1.
    pub seq: u64,
    /// Cumulative digest of the lane: the envelope checksum chained per
    /// segment over every payload shipped on it, this segment included
    /// (see the [module docs](self)).
    pub cum_digest: u64,
    /// Raw `RPJL` record bytes (any cut point — a record may straddle
    /// segments).
    pub payload: Vec<u8>,
}

/// Encodes one `SHIP` envelope (see the [module docs](self) for the
/// layout).
pub fn encode_segment(shard: u32, seq: u64, cum_digest: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(ENVELOPE_OVERHEAD + payload.len());
    bytes.extend_from_slice(&SHIP_MAGIC);
    bytes.extend_from_slice(&SHIP_VERSION.to_le_bytes());
    bytes.extend_from_slice(&shard.to_le_bytes());
    bytes.extend_from_slice(&seq.to_le_bytes());
    bytes.extend_from_slice(&cum_digest.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    let sum = fnv1a64_words(FNV_OFFSET, &bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
    bytes
}

/// Decodes a `SHIP` envelope, checksum first: the trailing checksum covers
/// every preceding byte, so a truncated or bit-flipped envelope is
/// rejected typed before any field is trusted — never a panic.
pub fn decode_segment(bytes: &[u8]) -> Result<ShipSegment, ReplicationError> {
    if bytes.len() < ENVELOPE_OVERHEAD {
        return Err(ReplicationError::Envelope("envelope shorter than its fixed fields"));
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = fnv1a64_words(FNV_OFFSET, body);
    if stored != computed {
        return Err(ReplicationError::ChecksumMismatch { stored, computed });
    }
    if body[..4] != SHIP_MAGIC {
        return Err(ReplicationError::Envelope("bad envelope magic"));
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    if version != SHIP_VERSION {
        return Err(ReplicationError::UnsupportedVersion {
            found: version,
            supported: SHIP_VERSION,
        });
    }
    let shard = u32::from_le_bytes(body[6..10].try_into().expect("4 bytes"));
    let seq = u64::from_le_bytes(body[10..18].try_into().expect("8 bytes"));
    let cum_digest = u64::from_le_bytes(body[18..26].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(body[26..30].try_into().expect("4 bytes")) as usize;
    if payload_len != body.len() - 30 {
        return Err(ReplicationError::Envelope("payload length disagrees with envelope"));
    }
    Ok(ShipSegment {
        shard,
        seq,
        cum_digest,
        payload: body[30..].to_vec(),
    })
}

// ---------------------------------------------------------------------------
// Leader side: outbox-tapping store + shipper
// ---------------------------------------------------------------------------

/// Per-shard tap of the journal byte stream.
///
/// `staged` holds appended-but-unsynced bytes; only *durable* bytes ship
/// (a leader crash may legitimately lose the unsynced tail, and the
/// follower must not hold state the leader never promised). A successful
/// `sync` — or a checkpoint install, which makes the staged records'
/// effects durable through the base — moves staged bytes to `ready`.
#[derive(Debug, Default)]
struct Outbox {
    staged: Vec<u8>,
    ready: Vec<u8>,
}

/// A [`JournalStore`] wrapper that mirrors every durable record byte
/// into a shared [`Outbox`] exactly once, in admission order. The
/// re-framed fresh journal a checkpoint installs is *not* shipped — the
/// follower already replayed those records from the original stream.
struct ShippingStore {
    inner: Box<dyn JournalStore>,
    outbox: Arc<Mutex<Outbox>>,
}

impl ShippingStore {
    fn lock(&self) -> std::sync::MutexGuard<'_, Outbox> {
        self.outbox.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl JournalStore for ShippingStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError> {
        self.inner.append(bytes)?;
        self.lock().staged.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalIoError> {
        self.inner.sync()?;
        let mut outbox = self.lock();
        let staged = std::mem::take(&mut outbox.staged);
        outbox.ready.extend_from_slice(&staged);
        Ok(())
    }

    fn install_checkpoint(&mut self, base: &[u8], journal: &[u8]) -> Result<(), JournalIoError> {
        self.inner.install_checkpoint(base, journal)?;
        // The checkpoint made every staged record's effect durable; ship
        // the original record bytes (never the re-framed fresh journal).
        let mut outbox = self.lock();
        let staged = std::mem::take(&mut outbox.staged);
        outbox.ready.extend_from_slice(&staged);
        Ok(())
    }

    fn load(&mut self) -> Result<StoredShard, JournalIoError> {
        self.inner.load()
    }
}

/// Tuning for a [`JournalShipper`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShipperConfig {
    /// Largest payload one segment carries; a bigger ready backlog is
    /// cut into multiple segments (at arbitrary byte offsets — the
    /// follower reassembles records across segments). `0` means
    /// unbounded.
    pub max_segment: usize,
}

impl Default for ShipperConfig {
    fn default() -> Self {
        ShipperConfig { max_segment: 1 << 20 }
    }
}

/// One lane's shipping state.
#[derive(Debug, Default)]
struct ShipLane {
    /// Sequence the next cut segment gets (first segment is 1).
    next_seq: u64,
    /// Cumulative digest, chained per segment over every payload cut so far.
    cum_digest: u64,
    /// Cut but not yet acknowledged segments, oldest first; retransmitted
    /// until the follower's watermark covers them.
    unacked: VecDeque<(u64, Vec<u8>)>,
}

/// What one [`JournalShipper::pump`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PumpReport {
    /// Segments newly cut from the outboxes this pump.
    pub cut: usize,
    /// Segment deliveries attempted (retransmissions included).
    pub shipped: usize,
    /// Segments the follower's watermark newly acknowledged.
    pub acked: usize,
    /// Per-lane delivery failures (the lane retries next pump; a fatal
    /// follower state keeps surfacing here).
    pub errors: Vec<(usize, ReplicationError)>,
}

/// The leader half of replication: taps the journal streams of a
/// [`SessionService`] and ships them as `SHIP` segments (see the
/// [module docs](self)).
pub struct JournalShipper {
    outboxes: Vec<Arc<Mutex<Outbox>>>,
    lanes: Vec<ShipLane>,
    config: ShipperConfig,
}

impl fmt::Debug for JournalShipper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournalShipper")
            .field("lanes", &self.lanes.len())
            .field("unacked", &self.unacked_segments())
            .finish_non_exhaustive()
    }
}

impl JournalShipper {
    /// Wraps one journal store per shard so every durable record byte is
    /// mirrored into the shipper, and returns the wrapped stores (hand
    /// them to [`SessionService::with_journal`]) plus the shipper.
    pub fn wrap_stores(
        stores: Vec<Box<dyn JournalStore>>,
        config: ShipperConfig,
    ) -> (Vec<Box<dyn JournalStore>>, JournalShipper) {
        let outboxes: Vec<Arc<Mutex<Outbox>>> =
            (0..stores.len()).map(|_| Arc::new(Mutex::new(Outbox::default()))).collect();
        let wrapped = stores
            .into_iter()
            .zip(&outboxes)
            .map(|(inner, outbox)| {
                Box::new(ShippingStore { inner, outbox: Arc::clone(outbox) })
                    as Box<dyn JournalStore>
            })
            .collect();
        let lanes = (0..outboxes.len())
            .map(|_| ShipLane { next_seq: 1, cum_digest: FNV_OFFSET, unacked: VecDeque::new() })
            .collect();
        (wrapped, JournalShipper { outboxes, lanes, config })
    }

    /// Segments cut but not yet acknowledged across all lanes.
    pub fn unacked_segments(&self) -> usize {
        self.lanes.iter().map(|l| l.unacked.len()).sum()
    }

    /// Drains every outbox's ready bytes into sequenced, digested
    /// segments (respecting [`ShipperConfig::max_segment`]), returning
    /// how many were cut. Normally called by [`pump`](Self::pump).
    pub fn cut_segments(&mut self) -> usize {
        let mut cut = 0;
        for (idx, outbox) in self.outboxes.iter().enumerate() {
            let ready = {
                let mut outbox = outbox.lock().unwrap_or_else(|e| e.into_inner());
                std::mem::take(&mut outbox.ready)
            };
            if ready.is_empty() {
                continue;
            }
            let lane = &mut self.lanes[idx];
            let chunk = if self.config.max_segment == 0 { ready.len() } else { self.config.max_segment };
            for payload in ready.chunks(chunk.max(1)) {
                let seq = lane.next_seq;
                lane.next_seq += 1;
                lane.cum_digest = fnv1a64_words(lane.cum_digest, payload);
                let envelope = encode_segment(idx as u32, seq, lane.cum_digest, payload);
                lane.unacked.push_back((seq, envelope));
                cut += 1;
            }
        }
        cut
    }

    /// Cuts fresh segments, then delivers every unacknowledged segment
    /// in sequence order per lane through `transport`, dropping the ones
    /// the returned watermarks cover. A delivery failure stops that lane
    /// for this pump (its segments retransmit next time) and is reported
    /// in the [`PumpReport`]; other lanes proceed.
    pub fn pump<T: SegmentTransport + ?Sized>(&mut self, transport: &mut T) -> PumpReport {
        let mut report = PumpReport { cut: self.cut_segments(), ..PumpReport::default() };
        for (idx, lane) in self.lanes.iter_mut().enumerate() {
            let mut delivered_up_to = None;
            for (seq, envelope) in &lane.unacked {
                report.shipped += 1;
                match transport.deliver(idx, envelope) {
                    Ok(watermark) => delivered_up_to = Some(delivered_up_to.unwrap_or(0).max(watermark)),
                    Err(e) => {
                        report.errors.push((idx, e));
                        break;
                    }
                }
                let _ = seq;
            }
            if let Some(watermark) = delivered_up_to {
                while lane.unacked.front().is_some_and(|(seq, _)| *seq <= watermark) {
                    lane.unacked.pop_front();
                    report.acked += 1;
                }
            }
        }
        report
    }
}

/// Delivers `SHIP` envelopes to a replica and reports its applied
/// watermark (highest contiguously applied segment seq on that lane; 0
/// when none). The fault-injection harness scripts this trait to drop,
/// duplicate, reorder, truncate, and bit-flip segments.
pub trait SegmentTransport {
    /// Delivers one envelope for `shard`, returning the lane watermark.
    fn deliver(&mut self, shard: usize, envelope: &[u8]) -> Result<u64, ReplicationError>;
}

/// The in-process transport: hands envelopes straight to a shared
/// [`Follower`].
#[derive(Debug)]
pub struct InProcTransport<C: ScratchThreeWayComparator + Send + Sync> {
    follower: Arc<Mutex<Follower<C>>>,
}

impl<C: ScratchThreeWayComparator + Send + Sync> InProcTransport<C> {
    /// A transport delivering into `follower`.
    pub fn new(follower: Arc<Mutex<Follower<C>>>) -> Self {
        InProcTransport { follower }
    }
}

impl<C: ScratchThreeWayComparator + Send + Sync> SegmentTransport for InProcTransport<C> {
    fn deliver(&mut self, _shard: usize, envelope: &[u8]) -> Result<u64, ReplicationError> {
        self.follower
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .apply_segment(envelope)
    }
}

// ---------------------------------------------------------------------------
// Follower side
// ---------------------------------------------------------------------------

/// Where a replica stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicaState {
    /// Healthy: applying shipped segments.
    Following,
    /// Sealed by [`Follower::seal`] (operator cutover); segments are
    /// rejected with [`ReplicationError::Sealed`].
    Sealed,
    /// A divergence digest did not match — the replica's state is not
    /// the leader's. It stops applying and refuses promotion.
    Diverged {
        /// Owning tenant of the mismatched session.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// The leader's export checksum (0 = absent on the leader).
        expected: u64,
        /// The follower's export checksum (0 = absent on the follower).
        found: u64,
    },
    /// A fatal replay failure (corrupt records, a record that cannot be
    /// applied, a cumulative-digest mismatch); the cause is kept.
    Failed(ReplicationError),
}

/// One lane's replay state.
struct FollowerLane {
    /// The segment seq the lane applies next (first segment is 1).
    expected: u64,
    /// Cumulative digest, chained per segment over every payload applied so far.
    digest: u64,
    /// Record bytes received but not yet forming a complete record (a
    /// record cut across segments).
    buf: Vec<u8>,
    /// In-window future segments parked until the gap fills:
    /// `seq → (cum_digest, payload)`.
    parked: BTreeMap<u64, (u64, Vec<u8>)>,
}

/// What [`Follower::promote`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PromotionReport {
    /// Sessions alive in the promoted service.
    pub sessions: usize,
    /// Ops the replica applied over its lifetime.
    pub applied_ops: u64,
    /// Segments the replica applied over its lifetime.
    pub applied_segments: u64,
    /// Parked out-of-order segments discarded at promotion (never acked,
    /// so the leader-side history never covered them).
    pub discarded_segments: usize,
    /// Torn-tail record bytes discarded at promotion (a record cut mid-
    /// segment when the leader died).
    pub truncated_bytes: usize,
    /// Where the promoted service's seq counter resumes — strictly above
    /// every applied op.
    pub next_seq: u64,
}

/// The follower half of replication: replays shipped segments into a
/// warm standby session set (see the [module docs](self)).
pub struct Follower<C: ScratchThreeWayComparator + Send + Sync> {
    lanes: Vec<FollowerLane>,
    /// The warm standby sessions.
    replay: Replay<C>,
    state: ReplicaState,
    applied_segments: u64,
}

impl<C: ScratchThreeWayComparator + Send + Sync> fmt::Debug for Follower<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Follower")
            .field("lanes", &self.lanes.len())
            .field("sessions", &self.replay.sessions.len())
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl<C: ScratchThreeWayComparator + Send + Sync> Follower<C> {
    /// A fresh replica with `shards` lanes (must equal the leader's shard
    /// count) sharing `comparator` across its sessions.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(comparator: C, shards: usize) -> Self {
        assert!(shards > 0, "need at least one lane");
        Follower {
            lanes: (0..shards)
                .map(|_| FollowerLane {
                    expected: 1,
                    digest: FNV_OFFSET,
                    buf: Vec::new(),
                    parked: BTreeMap::new(),
                })
                .collect(),
            replay: Replay::new(Arc::new(comparator)),
            state: ReplicaState::Following,
            applied_segments: 0,
        }
    }

    /// The replica's current state.
    pub fn state(&self) -> &ReplicaState {
        &self.state
    }

    /// Sessions currently replicated.
    pub fn num_sessions(&self) -> usize {
        self.replay.sessions.len()
    }

    /// The lane's applied watermark (highest contiguously applied
    /// segment seq; 0 when none).
    ///
    /// # Panics
    /// Panics when `shard` is out of range.
    pub fn watermark(&self, shard: usize) -> u64 {
        self.lanes[shard].expected - 1
    }

    /// The export checksum of one replicated session, if present — the
    /// same value a leader digest carries for it.
    pub fn session_checksum(&self, tenant: u64, session: u64) -> Option<u64> {
        self.replay
            .sessions
            .get(&SessionKey { tenant, session })
            .map(|(live, _)| session_checksum(live))
    }

    /// Seals the replica: every further segment is rejected with
    /// [`ReplicationError::Sealed`]. The operator-side fence before a
    /// cutover; [`promote`](Self::promote) does not require it (consuming
    /// the follower seals implicitly).
    pub fn seal(&mut self) {
        if self.state == ReplicaState::Following {
            self.state = ReplicaState::Sealed;
        }
    }

    /// Applies one shipped envelope, returning the lane's watermark.
    ///
    /// Total and typed, never a panic: transport damage (bad checksum,
    /// short envelope), duplicates, bounded reordering, and gaps come
    /// back as recoverable errors (or an unchanged watermark) and leave
    /// the replica healthy — retransmission heals them. Only evidence
    /// that the replica's *state* cannot match the leader's (digest
    /// mismatch, corrupt records, a record that will not apply, a failed
    /// divergence digest) moves it to a terminal [`ReplicaState`].
    pub fn apply_segment(&mut self, envelope: &[u8]) -> Result<u64, ReplicationError> {
        self.apply_decoded(decode_segment(envelope))
    }

    /// [`apply_segment`](Self::apply_segment) on an envelope the caller
    /// already decoded, so a server that reads the shard for its ack
    /// decodes each envelope once. A decode error still ranks below a
    /// sealed or failed replica state, as in `apply_segment`.
    pub(crate) fn apply_decoded(
        &mut self,
        segment: Result<ShipSegment, ReplicationError>,
    ) -> Result<u64, ReplicationError> {
        match &self.state {
            ReplicaState::Following => {}
            ReplicaState::Sealed => return Err(ReplicationError::Sealed),
            ReplicaState::Diverged { tenant, session, expected, found } => {
                return Err(ReplicationError::Diverged {
                    tenant: *tenant,
                    session: *session,
                    expected: *expected,
                    found: *found,
                })
            }
            ReplicaState::Failed(e) => return Err(e.clone()),
        }
        let segment = segment?;
        let shard = segment.shard as usize;
        if shard >= self.lanes.len() {
            return Err(ReplicationError::UnknownShard {
                shard: segment.shard,
                shards: self.lanes.len(),
            });
        }
        let expected = self.lanes[shard].expected;
        if segment.seq < expected {
            // Duplicate delivery: already applied, re-ack.
            return Ok(expected - 1);
        }
        if segment.seq > expected {
            if segment.seq - expected <= REORDER_WINDOW {
                self.lanes[shard]
                    .parked
                    .insert(segment.seq, (segment.cum_digest, segment.payload));
                return Ok(expected - 1);
            }
            return Err(ReplicationError::SequenceGap {
                shard: segment.shard,
                expected,
                found: segment.seq,
            });
        }
        // In order: apply, then drain any parked successors.
        let mut next = (segment.cum_digest, segment.payload);
        loop {
            let (cum, payload) = next;
            if let Err(e) = self.apply_in_order(shard, cum, payload) {
                return Err(e);
            }
            let applied_up_to = self.lanes[shard].expected;
            match self.lanes[shard].parked.remove(&applied_up_to) {
                Some(parked) => next = parked,
                None => break,
            }
        }
        Ok(self.lanes[shard].expected - 1)
    }

    /// Applies the next in-sequence segment payload on `shard`. Any
    /// error here is fatal (the lane cannot reach the leader's state)
    /// and latches the replica state.
    fn apply_in_order(
        &mut self,
        shard: usize,
        cum: u64,
        payload: Vec<u8>,
    ) -> Result<(), ReplicationError> {
        let seq = self.lanes[shard].expected;
        let chained = fnv1a64_words(self.lanes[shard].digest, &payload);
        if chained != cum {
            let e = ReplicationError::DigestMismatch {
                shard: shard as u32,
                seq,
                expected: cum,
                found: chained,
            };
            self.state = ReplicaState::Failed(e.clone());
            return Err(e);
        }
        if let Err(e) = self.replay(shard, seq, &payload) {
            self.state = match &e {
                ReplicationError::Diverged { tenant, session, expected, found } => {
                    ReplicaState::Diverged {
                        tenant: *tenant,
                        session: *session,
                        expected: *expected,
                        found: *found,
                    }
                }
                other => ReplicaState::Failed(other.clone()),
            };
            return Err(e);
        }
        let lane = &mut self.lanes[shard];
        lane.digest = chained;
        lane.expected += 1;
        self.applied_segments += 1;
        Ok(())
    }

    /// Scans the lane's buffered bytes plus `payload` as an `RPJL`
    /// stream and applies every complete record; an incomplete trailing
    /// record (cut across segments) stays buffered for the next segment.
    fn replay(&mut self, shard: usize, seq: u64, payload: &[u8]) -> Result<(), ReplicationError> {
        let mut stream = journal::stream_header();
        let header_len = stream.len();
        stream.extend_from_slice(&self.lanes[shard].buf);
        stream.extend_from_slice(payload);
        let scan = journal::scan(&stream).map_err(|error| ReplicationError::Records {
            shard: shard as u32,
            seq,
            error,
        })?;
        for (_, record) in scan.records {
            self.apply_record(shard, seq, record)?;
        }
        self.lanes[shard].buf = stream[scan.valid_len.max(header_len)..].to_vec();
        Ok(())
    }

    /// Applies one complete record. A record the shared [`Replay`]
    /// rejects — a create or restore for a session the replica already
    /// holds included — is a typed [`ReplicationError::Apply`]; digests
    /// are verified here, and a checkpoint cannot appear in a shipped
    /// stream.
    fn apply_record(
        &mut self,
        shard: usize,
        seq: u64,
        record: JournalRecord,
    ) -> Result<(), ReplicationError> {
        match record {
            JournalRecord::Checkpoint { .. } => Err(ReplicationError::Records {
                shard: shard as u32,
                seq,
                error: JournalError::Corrupt {
                    offset: 0,
                    what: "checkpoint record in a shipped stream",
                },
            }),
            JournalRecord::Digest { sessions } => self.verify_digest(shard, &sessions),
            record => self.replay.apply(record).map_err(|(key, e)| ReplicationError::Apply {
                tenant: key.tenant,
                session: key.session,
                what: e.to_string(),
            }),
        }
    }

    /// Checks a leader divergence digest against the replica's own
    /// sessions on `shard`. Sessions are compared both ways: a checksum
    /// mismatch, a digested session the replica lacks, and a replica
    /// session the digest lacks are all divergence. (A leader *hard
    /// eviction* — a capacity drop that is deliberately not journaled —
    /// therefore surfaces here as typed divergence rather than passing
    /// silently.)
    fn verify_digest(
        &self,
        shard: usize,
        digested: &[journal::DigestSession],
    ) -> Result<(), ReplicationError> {
        let diverged = |tenant, session, expected, found| ReplicationError::Diverged {
            tenant,
            session,
            expected,
            found,
        };
        for d in digested {
            let key = SessionKey { tenant: d.tenant, session: d.session };
            let Some((live, _)) = self.replay.sessions.get(&key) else {
                return Err(diverged(d.tenant, d.session, d.checksum, 0));
            };
            let found = session_checksum(live);
            if found != d.checksum {
                return Err(diverged(d.tenant, d.session, d.checksum, found));
            }
        }
        for (key, (live, _)) in &self.replay.sessions {
            if shard_for(*key, self.lanes.len()) == shard
                && !digested.iter().any(|d| d.tenant == key.tenant && d.session == key.session)
            {
                let found = session_checksum(live);
                return Err(diverged(key.tenant, key.session, 0, found));
            }
        }
        Ok(())
    }

    /// Promotes the replica into a serving [`SessionService`]: seals
    /// replication, discards the unacked remainder (parked segments and
    /// any torn record tail — never contiguously applied, hence never
    /// acked), resumes the global seq counter past every applied op, and
    /// installs the warm sessions. A [`Diverged`](ReplicaState::Diverged)
    /// or [`Failed`](ReplicaState::Failed) replica refuses with a typed
    /// [`ServiceError::Replication`] — promoting corrupt state is worse
    /// than serving nothing.
    ///
    /// The promoted service is **unjournaled**; use
    /// [`promote_with_journal`](Self::promote_with_journal) to attach
    /// fresh stores and checkpoint the promoted state durably.
    pub fn promote(
        self,
        scheduler: Parallelism,
        limits: ServiceLimits,
    ) -> Result<(SessionService<C>, PromotionReport), ServiceError> {
        match &self.state {
            ReplicaState::Following | ReplicaState::Sealed => {}
            ReplicaState::Diverged { tenant, session, expected, found } => {
                return Err(ServiceError::Replication(ReplicationError::Diverged {
                    tenant: *tenant,
                    session: *session,
                    expected: *expected,
                    found: *found,
                }))
            }
            ReplicaState::Failed(e) => return Err(ServiceError::Replication(e.clone())),
        }
        let (applied_ops, next_seq) = (self.replay.replayed_ops as u64, self.replay.next_seq);
        let service =
            SessionService::install_replay(self.replay, self.lanes.len(), scheduler, limits)
                .map_err(|(_, error)| error)?;
        let report = PromotionReport {
            sessions: service.num_sessions() + service.num_spilled(),
            applied_ops,
            applied_segments: self.applied_segments,
            discarded_segments: self.lanes.iter().map(|l| l.parked.len()).sum(),
            truncated_bytes: self.lanes.iter().map(|l| l.buf.len()).sum(),
            next_seq,
        };
        service.stat_counters().record_recovery(
            report.applied_ops,
            u64::from(report.truncated_bytes > 0),
            report.truncated_bytes as u64,
        );
        Ok((service, report))
    }

    /// [`promote`](Self::promote) plus durability: attaches one fresh
    /// [`JournalStore`] per shard and installs checkpoints of the
    /// promoted state, so the new leader immediately journals onward —
    /// ready to be shipped from in turn.
    pub fn promote_with_journal(
        self,
        scheduler: Parallelism,
        limits: ServiceLimits,
        config: JournalConfig,
        stores: Vec<Box<dyn JournalStore>>,
    ) -> Result<(SessionService<C>, PromotionReport), ServiceError> {
        let (service, report) = self.promote(scheduler, limits)?;
        service.attach_journals(config, stores).map_err(|(_, error)| error)?;
        Ok((service, report))
    }
}
