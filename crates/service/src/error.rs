//! Typed errors of the session service.
//!
//! The service's contract is **reject, never panic, never block forever**:
//! every admission decision (bad spec, unknown session, a tenant over its
//! in-flight cap, a full queue or shard) and every per-op failure surfaces
//! as a [`ServiceError`] value, so one misbehaving tenant can neither take
//! the process down nor wedge the scheduler.

use crate::journal::{JournalError, JournalIoError};
use crate::replication::ReplicationError;
use crate::snapshot::SnapshotError;
use relperf_core::session::CriterionError;
use relperf_measure::sample::SampleError;
use std::fmt;

/// Why the service rejected a request, or why an accepted op failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// `create_session` / `restore_session` for a key that is already
    /// hosted.
    SessionExists {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
    },
    /// The session does not exist (never created, closed, or evicted).
    SessionUnknown {
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
    },
    /// Backpressure: the tenant already has `in_flight` queued ops, at its
    /// admission cap. Retry after the next batch drains.
    TenantBusy {
        /// The tenant over its cap.
        tenant: u64,
        /// Ops currently queued for the tenant.
        in_flight: usize,
        /// The per-tenant cap.
        cap: usize,
    },
    /// Backpressure: the session's shard queue is full. Retry after the
    /// next batch drains.
    QueueFull {
        /// Shard index.
        shard: usize,
        /// Current queue depth.
        depth: usize,
        /// The per-shard depth cap.
        cap: usize,
    },
    /// Load shedding: the whole service's backlog of admitted-but-not-yet
    /// -executed ops crossed the [`max_backlog`](crate::service::ServiceLimits::max_backlog)
    /// watermark. Shed requests are cheap to reject and cheap to retry
    /// after the scheduler catches up.
    Overloaded {
        /// Admitted-but-unexecuted ops at rejection time.
        backlog: usize,
        /// The configured watermark.
        cap: usize,
    },
    /// The shard is at session capacity and every resident session has
    /// pending ops, so none can be evicted.
    ShardFull {
        /// Shard index.
        shard: usize,
        /// The per-shard session capacity.
        capacity: usize,
    },
    /// The session spec requested zero algorithms.
    NoAlgorithms,
    /// The session spec requested zero clustering repetitions.
    NoRepetitions,
    /// The session's comparison caches (one per repetition, `algorithms²`
    /// slots each) would exceed
    /// [`MAX_SESSION_CACHE_BYTES`](crate::service::MAX_SESSION_CACHE_BYTES).
    SessionTooLarge {
        /// The requested algorithm count.
        algorithms: usize,
        /// The requested clustering repetitions.
        repetitions: usize,
    },
    /// The session spec's convergence criterion was invalid (routed
    /// through [`ConvergenceCriterion::try_validate`](relperf_core::session::ConvergenceCriterion::try_validate)).
    InvalidCriterion(CriterionError),
    /// A `Push`/`Extend` addressed an algorithm index outside the session.
    AlgorithmOutOfRange {
        /// The offending index.
        alg: usize,
        /// The session's algorithm count.
        p: usize,
    },
    /// A `Score` arrived before every algorithm had at least one
    /// measurement.
    NotReadyToScore {
        /// How many algorithms still have no measurements.
        missing: usize,
    },
    /// An accepted op's response did not appear in the batch this caller
    /// drained — another driver's `run_batch` delivered it elsewhere.
    /// Single-driver loops never see this; concurrent drivers must route
    /// responses externally.
    ResponseLost {
        /// The op's admission ticket.
        seq: u64,
    },
    /// A pushed measurement was rejected by the sample layer (non-finite).
    BadSample(SampleError),
    /// A snapshot failed to decode.
    BadSnapshot(SnapshotError),
    /// The shard's durable journal failed (or was sealed by an earlier
    /// failure): the op was **not** admitted and nothing was enqueued.
    /// For [`JournalIoError::Crashed`]/[`JournalIoError::Io`] the record
    /// may or may not have reached durable storage, so a client must not
    /// blindly resubmit — recover the service and consult
    /// [`session_status`](crate::service::SessionService::session_status)
    /// first.
    Journal(JournalIoError),
    /// The replication layer failed: a shipped segment was rejected, a
    /// follower diverged or was sealed, or a promotion was attempted on
    /// a replica that is not cleanly [`Following`](crate::replication::ReplicaState::Following).
    Replication(ReplicationError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::SessionExists { tenant, session } => {
                write!(f, "session {session} of tenant {tenant} already exists")
            }
            ServiceError::SessionUnknown { tenant, session } => {
                write!(f, "session {session} of tenant {tenant} is not hosted")
            }
            ServiceError::TenantBusy {
                tenant,
                in_flight,
                cap,
            } => write!(
                f,
                "tenant {tenant} has {in_flight} ops in flight (cap {cap})"
            ),
            ServiceError::QueueFull { shard, depth, cap } => {
                write!(f, "shard {shard} queue holds {depth} ops (cap {cap})")
            }
            ServiceError::Overloaded { backlog, cap } => write!(
                f,
                "service backlog holds {backlog} admitted ops (shed watermark {cap})"
            ),
            ServiceError::ShardFull { shard, capacity } => write!(
                f,
                "shard {shard} hosts {capacity} sessions and none are idle"
            ),
            ServiceError::NoAlgorithms => write!(f, "a session needs at least one algorithm"),
            ServiceError::NoRepetitions => {
                write!(f, "a session needs at least one clustering repetition")
            }
            ServiceError::SessionTooLarge {
                algorithms,
                repetitions,
            } => write!(
                f,
                "{repetitions} repetitions over {algorithms} algorithms exceed the \
                 {} comparison-cache bytes a session may hold",
                crate::service::MAX_SESSION_CACHE_BYTES
            ),
            ServiceError::InvalidCriterion(e) => write!(f, "invalid convergence criterion: {e}"),
            ServiceError::AlgorithmOutOfRange { alg, p } => {
                write!(f, "algorithm {alg} out of range for a session over {p}")
            }
            ServiceError::NotReadyToScore { missing } => {
                write!(f, "{missing} algorithm(s) have no measurements yet")
            }
            ServiceError::ResponseLost { seq } => write!(
                f,
                "no response for op {seq} in this batch (drained by another driver?)"
            ),
            ServiceError::BadSample(e) => write!(f, "measurement rejected: {e}"),
            ServiceError::BadSnapshot(e) => write!(f, "snapshot rejected: {e}"),
            ServiceError::Journal(e) => write!(f, "admission not journaled: {e}"),
            ServiceError::Replication(e) => write!(f, "replication failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CriterionError> for ServiceError {
    fn from(e: CriterionError) -> Self {
        ServiceError::InvalidCriterion(e)
    }
}

impl From<SampleError> for ServiceError {
    fn from(e: SampleError) -> Self {
        ServiceError::BadSample(e)
    }
}

impl From<SnapshotError> for ServiceError {
    fn from(e: SnapshotError) -> Self {
        ServiceError::BadSnapshot(e)
    }
}

impl From<JournalIoError> for ServiceError {
    fn from(e: JournalIoError) -> Self {
        ServiceError::Journal(e)
    }
}

impl From<ReplicationError> for ServiceError {
    fn from(e: ReplicationError) -> Self {
        ServiceError::Replication(e)
    }
}

/// Why [`SessionService::recover`](crate::service::SessionService::recover)
/// could not rebuild the service from its journal stores.
///
/// Recovery is **total and typed**: a torn final record is silently
/// truncated (reported in the
/// [`RecoveryReport`](crate::service::RecoveryReport), not an error),
/// while anything that would silently lose or corrupt acknowledged state
/// — an unreadable store, mid-journal corruption, a snapshot that no
/// longer decodes — names the shard (and where applicable the byte
/// offset or session) instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// A store could not be read at all.
    Store {
        /// Index of the failing shard store.
        shard: usize,
        /// The underlying storage failure.
        error: JournalIoError,
    },
    /// A base or journal stream failed to scan (bad magic, future
    /// version, mid-stream corruption).
    Journal {
        /// Index of the failing shard store.
        shard: usize,
        /// The scan failure, with byte offset where applicable.
        error: JournalError,
    },
    /// A journaled session could not be rebuilt (snapshot no longer
    /// decodes, spec no longer validates, duplicate key across shards).
    Session {
        /// Index of the shard whose record failed.
        shard: usize,
        /// Owning tenant.
        tenant: u64,
        /// Session id within the tenant.
        session: u64,
        /// The underlying rejection.
        error: ServiceError,
    },
    /// The post-recovery checkpoint (which makes the rebuilt state
    /// durable and truncates torn tails) failed to install.
    Checkpoint {
        /// Index of the failing shard store (the lowest, when several
        /// fail: every shard attempts its install).
        shard: usize,
        /// The underlying rejection.
        error: ServiceError,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Store { shard, error } => {
                write!(f, "shard {shard}: journal store unreadable: {error}")
            }
            RecoveryError::Journal { shard, error } => {
                write!(f, "shard {shard}: {error}")
            }
            RecoveryError::Session {
                shard,
                tenant,
                session,
                error,
            } => write!(
                f,
                "shard {shard}: session {session} of tenant {tenant} failed to rebuild: {error}"
            ),
            RecoveryError::Checkpoint { shard, error } => {
                write!(f, "shard {shard}: post-recovery checkpoint failed: {error}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}
