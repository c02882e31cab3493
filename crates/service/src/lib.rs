//! Multi-tenant hosted session service for the measure → compare → cluster
//! pipeline.
//!
//! Everything below this crate is a single-caller library: one
//! [`ClusterSession`](relperf_core::session::ClusterSession), one driver.
//! This crate turns those sessions into **first-class hosted objects** so
//! thousands of concurrent clustering campaigns — many tenants, many
//! sessions each — can share one process, one comparator, and one
//! scheduler, with admission control, load metrics, and durability:
//!
//! * [`service`] — the [`SessionService`]: a
//!   **sharded registry** (fixed array of mutex-guarded shards, lock per
//!   shard, capacity-bounded with **snapshot-on-evict**: the LRU idle
//!   session spills to its own codec bytes and rehydrates transparently
//!   on the next touch) plus a **deterministic batch scheduler** that
//!   drains queued `Push` / `Extend` / `Score` / `Snapshot` / `Close`
//!   ops in `(tenant, seq)` order and fans independent sessions' score
//!   waves across worker threads. For any request interleaving, shard
//!   count, and thread count the served results are **bit-identical** to
//!   driving each session directly.
//! * [`runtime`] — the pipelined front half: [`ServiceRuntime`] spawns
//!   background scheduler threads that drain disjoint shard partitions
//!   on a bounded cadence (slow tenants stop convoying fast ones) and
//!   route responses into per-tenant mailboxes;
//!   `scheduler_threads: 0` is a fully synchronous, deterministic
//!   drive-on-drain mode.
//! * [`wire`] + [`client`] — a length-prefixed, checksummed binary wire
//!   protocol (same LE/FNV dialect as the snapshot codec) with a
//!   [`WireClient`] over in-process duplex pipes or unix sockets;
//!   decoding is total (fuzzed byte-by-byte) and admission rejections
//!   travel as typed wire errors.
//! * [`error`] — typed admission/backpressure/shedding errors: the
//!   service rejects, it never panics on tenant input and never blocks a
//!   caller.
//! * [`stats`] — atomic counters (request-, op-, and lifecycle-level:
//!   spills, rehydrations, shed load) read as one [`ServiceStats`],
//!   with quiesced-identity guarantees the overload tests pin down.
//! * [`snapshot`] — a hand-rolled, versioned, checksummed binary
//!   checkpoint format (no serde — offline constraint): samples,
//!   convergence state, score table, and carried measurement RNG states. A
//!   restored session continues **wave-for-wave identically** to one that
//!   never stopped.
//! * [`journal`] — a durable, append-only **per-shard op journal** in the
//!   same LE/FNV framing: every admitted op group is journaled before it
//!   is enqueued, periodic checkpoints truncate the log, and
//!   [`SessionService::recover`] rebuilds every shard as snapshot +
//!   replay — torn final records are cleanly truncated, mid-journal
//!   corruption is a typed [`RecoveryError`], and recovered sessions
//!   continue **bit-identically** to an uninterrupted run (proven by an
//!   exhaustive crash-point fault-injection sweep in
//!   `tests/recovery.rs`).
//! * [`replication`] — journal-shipping replication: a
//!   [`JournalShipper`] taps the leader's durable record stream and
//!   ships checksummed, sequenced `SHIP` segments to a [`Follower`]
//!   that replays them into a warm standby and acks its applied
//!   watermark; periodic divergence digests catch any state drift as a
//!   typed [`ReplicaState::Diverged`], and
//!   [`Follower::promote`] turns the standby into a serving leader
//!   after a failover — proven bit-identical under a partition
//!   fault-injection sweep (drop / duplicate / reorder / truncate /
//!   bit-flip) in `tests/replication.rs`.
//! * [`campaign`] — adaptive measurement campaigns
//!   ([`ServiceCampaign`]) driven through the
//!   service instead of a private session, checkpointable mid-flight —
//!   the same wave loop as `AdaptiveExperiment`, committed on admission.
//!
//! # Quickstart
//!
//! ```
//! use relperf_service::prelude::*;
//! use relperf_measure::compare::MedianComparator;
//!
//! let service = SessionService::new(
//!     MedianComparator::new(0.05),
//!     8,                        // registry shards
//!     Parallelism::auto(),      // scheduler fan-out
//!     ServiceLimits::default(),
//! );
//! // Tenant 7 opens session 1 over two algorithms.
//! service.create_session(7, 1, SessionSpec::new(2, 42)).unwrap();
//! service.submit(7, 1, SessionOp::Extend { alg: 0, values: vec![1.0, 1.1, 0.9] }).unwrap();
//! service.submit(7, 1, SessionOp::Extend { alg: 1, values: vec![2.0, 2.1, 1.9] }).unwrap();
//! let seq = service.submit(7, 1, SessionOp::Score).unwrap();
//! let responses = service.run_batch();
//! let scored = responses.iter().find(|r| r.seq == seq).unwrap();
//! let Ok(OpOutcome::Scored(wave)) = &scored.result else { panic!() };
//! assert_eq!(wave.clustering.num_classes(), 2);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod client;
pub mod error;
pub mod journal;
pub mod replication;
pub mod runtime;
pub mod service;
pub mod snapshot;
pub mod stats;
pub mod wire;

pub use campaign::ServiceCampaign;
pub use client::{ClientError, RetryPolicy, RetryStats, SubmitOutcome, WireClient};
pub use error::{RecoveryError, ServiceError};
pub use journal::{
    CrashPoint, FileJournalStore, JournalConfig, JournalError, JournalIoError, JournalRecord,
    JournalStore, MemJournalStore, StoredShard, CRASH_POINTS,
};
pub use replication::{
    Follower, InProcTransport, JournalShipper, PromotionReport, PumpReport, ReplicaState,
    ReplicationError, SegmentTransport, ShipperConfig, ShipSegment,
};
pub use runtime::{RuntimeConfig, RuntimeError, RuntimeHandle, ServiceRuntime};
pub use service::{
    OpOutcome, OpResponse, RecoveryReport, SessionKey, SessionOp, SessionService, SessionSpec,
    SessionStatus, ServiceLimits, SharedComparator, WaveOutcome, MAX_SESSION_CACHE_BYTES,
};
pub use snapshot::{SessionSnapshot, SnapshotError};
pub use stats::{RecoveryHealth, ServiceStats};
pub use wire::WireError;

/// The commonly used service surface, re-exported flat.
pub mod prelude {
    pub use crate::campaign::ServiceCampaign;
    pub use crate::client::{ClientError, RetryPolicy, RetryStats, SubmitOutcome, WireClient};
    pub use crate::error::{RecoveryError, ServiceError};
    pub use crate::journal::{
        CrashPoint, FileJournalStore, JournalConfig, JournalError, JournalIoError, JournalRecord,
        JournalStore, MemJournalStore, StoredShard, CRASH_POINTS,
    };
    pub use crate::replication::{
        Follower, InProcTransport, JournalShipper, PromotionReport, PumpReport, ReplicaState,
        ReplicationError, SegmentTransport, ShipperConfig, ShipSegment,
    };
    pub use crate::runtime::{RuntimeConfig, RuntimeError, RuntimeHandle, ServiceRuntime};
    pub use crate::service::{
        OpOutcome, OpResponse, RecoveryReport, SessionKey, SessionOp, SessionService, SessionSpec,
        SessionStatus, ServiceLimits, WaveOutcome,
    };
    pub use crate::snapshot::{SessionSnapshot, SnapshotError};
    pub use crate::stats::{RecoveryHealth, ServiceStats};
    pub use crate::wire::WireError;
    pub use relperf_core::cluster::{ClusterConfig, Parallelism};
    pub use relperf_core::session::ConvergenceCriterion;
}
