//! The hosted session service: sharded registry + deterministic batch
//! scheduler + admission control.
//!
//! # Sharding
//!
//! Sessions are keyed by `(tenant, session)` and live in a **fixed array
//! of mutex-guarded shards**, each holding a hash map of hosted sessions
//! and that shard's request queue. The shard of a key is a pure function
//! of the key (`stream_seed(tenant, session) % shards`), so placement is
//! stable across runs and no global lock exists anywhere: admission takes
//! one shard lock; the scheduler takes each shard lock briefly to drain
//! its queue and to check sessions in and out. Shards are
//! capacity-bounded; an over-capacity insert **spills** the
//! least-recently used *idle* (no pending ops) session to its own
//! snapshot bytes (see below), or rejects when none is idle.
//!
//! # Snapshot-on-evict
//!
//! Registry capacity is a residency bound, not a session ceiling. When a
//! shard is full, the LRU idle resident is serialized through the
//! [`crate::snapshot`] codec and parked in the shard's **spill store**;
//! the next op addressed to a spilled session transparently rehydrates it
//! (decoding the bytes, restoring the session, spilling someone else if
//! the shard is still full) before the op is enqueued. Because the codec
//! round-trip is bit-exact, a session that was spilled and rehydrated
//! mid-campaign continues wave-for-wave identically to one that never
//! left memory — the golden test in `tests/checkpoint.rs` pins this down.
//! The spill store is itself bounded ([`ServiceLimits::spill_per_shard`]);
//! beyond it the oldest snapshot is dropped for good (a hard eviction),
//! and `spill_per_shard: 0` disables spilling entirely, restoring plain
//! LRU eviction.
//!
//! # Deterministic batch scheduling
//!
//! [`SessionService::submit`] only enqueues; [`SessionService::run_batch`]
//! drains every shard queue, orders all ops by `(tenant, seq)` — `seq` is
//! a global monotone ticket, so each tenant's ops keep their submission
//! order — groups them per session, and executes each session's group
//! sequentially while **independent sessions fan out across worker
//! threads** via
//! [`parallel_map_indexed_with`](relperf_parallel::parallel_map_indexed_with).
//! A session's results depend only on its own op sequence (everything
//! underneath is the seeded, stream-addressed engine), so for **any**
//! cross-tenant interleaving, shard count, and thread count the served
//! tables are bit-identical to driving a private
//! [`ClusterSession`] with the same
//! ops — property-tested in `tests/`.
//!
//! # Admission control
//!
//! Every rejection is a typed [`ServiceError`] and every accepted op
//! eventually gets a response from `run_batch` — the service never blocks
//! a caller and never panics on tenant input. Per-tenant in-flight caps
//! and per-shard queue depth bounds provide backpressure under overload,
//! and a service-wide **load shedder** rejects new ops with
//! [`ServiceError::Overloaded`] once the backlog of admitted-but-not-yet
//! -executed ops crosses [`ServiceLimits::max_backlog`] — cheap to
//! reject, cheap to retry once the scheduler catches up.
//!
//! # Durability (optional)
//!
//! A service built with [`SessionService::with_journal`] writes every
//! admitted op group, create, and restore to a per-shard append-only
//! journal (see [`crate::journal`]) *before* enqueuing, under the same
//! shard lock — so the durable order equals the admission order. The
//! store itself sits behind its own lock, taken after the shard lock, so
//! on a threaded runtime the group-commit fsync can run on a scheduler
//! thread with the shard lock released (see the runtime's
//! [Journal flushes](crate::runtime#journal-flushes)).
//! Executed batches advance a per-session applied-seq low-water mark,
//! periodic checkpoints truncate the journal (compaction), and
//! [`SessionService::recover`] rebuilds the whole service from the
//! stores as snapshot + replay of the suffix; by the determinism
//! contract above, recovered sessions continue wave-for-wave
//! bit-identical to a run that never crashed.

use crate::error::{RecoveryError, ServiceError};
use crate::journal::{
    self, CheckpointSession, DigestSession, JournalConfig, JournalIoError, JournalRecord,
    JournalStore,
};
use crate::snapshot::{self, fnv1a64_words, SessionSnapshot, SnapshotError, FNV_OFFSET};
use crate::stats::{ServiceStats, StatCounters};
use relperf_core::cache::ComparisonCache;
use relperf_core::cluster::{ClusterConfig, Clustering, Parallelism, ScoreTable};
use relperf_core::session::{ClusterSession, ConvergenceCriterion};
use relperf_measure::{
    stream_seed, Outcome, Sample, ScratchThreeWayComparator, SeededThreeWayComparator,
    ThreeWayComparator,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Identifies one hosted session: a tenant id plus the tenant's own
/// session id. Different tenants' sessions never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey {
    /// The owning tenant.
    pub tenant: u64,
    /// The session id within the tenant's namespace.
    pub session: u64,
}

/// The most comparison-cache memory one session may allocate, in bytes:
/// one [`ComparisonCache`] per clustering repetition, each a fixed header
/// plus `p²` `Option<Outcome>` slots. Every path that builds a session — a
/// fresh spec, a restored or rehydrated snapshot, a journaled create on
/// recovery or follower replay — rejects a larger shape with
/// [`ServiceError::SessionTooLarge`] before allocating, so one hostile
/// spec cannot exhaust the memory every tenant shares. 16 MiB is far above
/// any spec in this repository (16 algorithms × 100 repetitions is 30 KiB).
pub const MAX_SESSION_CACHE_BYTES: usize = 1 << 24;

/// Everything needed to open a fresh session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Number of algorithms `p` the session clusters.
    pub algorithms: usize,
    /// Clustering configuration. `repetitions` shapes the results;
    /// `parallelism` is stored, snapshotted and round-tripped but only
    /// advisory: the service decides how many threads each `Score` runs
    /// on (see [`SessionService::run_shard_batch`]), and results never
    /// depend on it.
    pub config: ClusterConfig,
    /// Clustering seed.
    pub seed: u64,
    /// Convergence criterion.
    pub criterion: ConvergenceCriterion,
}

impl SessionSpec {
    /// A spec over `algorithms` with the given seed and default config /
    /// criterion.
    pub fn new(algorithms: usize, seed: u64) -> Self {
        SessionSpec {
            algorithms,
            config: ClusterConfig::default(),
            seed,
            criterion: ConvergenceCriterion::default(),
        }
    }
}

/// One queued request against a hosted session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOp {
    /// Ingest one measurement for algorithm `alg`.
    Push {
        /// Algorithm index.
        alg: usize,
        /// The measurement.
        value: f64,
    },
    /// Ingest a wave of measurements for algorithm `alg` (streaming
    /// semantics: a non-finite value fails the op but keeps the finite
    /// prefix before it).
    Extend {
        /// Algorithm index.
        alg: usize,
        /// The measurements, in order.
        values: Vec<f64>,
    },
    /// Ingest a wave of measurements for algorithm `alg` **all or
    /// nothing**: the wave is validated before anything mutates, so a
    /// non-finite value anywhere rejects the whole op and leaves the
    /// session untouched (the transactional contract remote tenants
    /// usually want — no guessing which prefix landed).
    ExtendAll {
        /// Algorithm index.
        alg: usize,
        /// The measurements, in order.
        values: Vec<f64>,
    },
    /// Run one scored wave over the session's current samples.
    Score,
    /// Serialize the session into a checkpoint (see [`crate::snapshot`]).
    Snapshot,
    /// Close the session and free its slot.
    Close,
}

/// What one scored wave produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WaveOutcome {
    /// The wave's score table.
    pub table: ScoreTable,
    /// The wave's final clustering.
    pub clustering: Clustering,
    /// Whether the session's criterion has been met.
    pub converged: bool,
    /// Scored waves so far (including this one).
    pub waves: usize,
    /// Consecutive stable waves so far.
    pub stable_run: usize,
}

/// The successful result of one executed [`SessionOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// A `Push`/`Extend`/`ExtendAll` was applied.
    Ingested,
    /// A `Score` ran (or replayed the previous table when no evidence
    /// arrived since the last wave — see
    /// [`ClusterSession::score`](relperf_core::session::ClusterSession::score)).
    Scored(WaveOutcome),
    /// A `Snapshot` serialized the session.
    Snapshot(Vec<u8>),
    /// A `Close` removed the session.
    Closed,
}

/// The response to one submitted op, delivered by
/// [`SessionService::run_batch`].
#[derive(Debug, Clone, PartialEq)]
pub struct OpResponse {
    /// The session the op addressed.
    pub key: SessionKey,
    /// The op's admission ticket (as returned by
    /// [`SessionService::submit`]).
    pub seq: u64,
    /// What happened.
    pub result: Result<OpOutcome, ServiceError>,
}

/// Capacity bounds enforced by admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceLimits {
    /// Hosted sessions per shard; the LRU idle session is spilled (or,
    /// with spilling disabled, evicted) to admit a new one beyond this.
    pub sessions_per_shard: usize,
    /// Queued ops per tenant across all shards (in-flight cap).
    pub tenant_in_flight: usize,
    /// Queued ops per shard (queue-depth backpressure).
    pub shard_queue_depth: usize,
    /// Spilled session snapshots kept per shard (see the [module
    /// docs](self)). `0` disables snapshot-on-evict: over-capacity
    /// inserts drop the LRU idle session for good.
    pub spill_per_shard: usize,
    /// Service-wide load-shedding watermark: once `ops_admitted -
    /// ops_executed` would exceed this, new ops are rejected with
    /// [`ServiceError::Overloaded`] until the scheduler catches up.
    pub max_backlog: usize,
}

impl Default for ServiceLimits {
    /// Generous defaults for library use; services facing real tenants
    /// should size these to their memory budget.
    fn default() -> Self {
        ServiceLimits {
            sessions_per_shard: 1024,
            tenant_in_flight: 4096,
            shard_queue_depth: 65536,
            spill_per_shard: 4096,
            max_backlog: 1 << 20,
        }
    }
}

/// A cheap observable summary of one hosted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionStatus {
    /// Number of algorithms `p`.
    pub algorithms: usize,
    /// Measurements ingested across all algorithms.
    pub total_measurements: usize,
    /// Scored waves so far.
    pub waves: usize,
    /// Whether the convergence criterion has been met.
    pub converged: bool,
    /// Ops currently queued against this session.
    pub pending: usize,
    /// Whether the session currently lives in the spill store (as
    /// snapshot bytes) rather than in memory. A spilled session is still
    /// fully addressable — its next op rehydrates it.
    pub spilled: bool,
}

/// Shares one comparator instance across every hosted session: all three
/// comparator traits take `&self`, so an [`Arc`] delegates transparently
/// (sessions move between scheduler workers; the comparator itself is
/// `Sync` and never cloned).
#[derive(Debug)]
pub struct SharedComparator<C>(pub(crate) Arc<C>);

impl<C> Clone for SharedComparator<C> {
    fn clone(&self) -> Self {
        SharedComparator(Arc::clone(&self.0))
    }
}

impl<C: ThreeWayComparator> ThreeWayComparator for SharedComparator<C> {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        self.0.compare(a, b)
    }
}

impl<C: SeededThreeWayComparator> SeededThreeWayComparator for SharedComparator<C> {
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        self.0.compare_seeded(a, b, stream)
    }
}

impl<C: ScratchThreeWayComparator> ScratchThreeWayComparator for SharedComparator<C> {
    type Scratch = C::Scratch;

    fn new_scratch(&self) -> C::Scratch {
        self.0.new_scratch()
    }

    fn compare_seeded_scratch(
        &self,
        scratch: &mut C::Scratch,
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        self.0.compare_seeded_scratch(scratch, a, b, stream)
    }
}

/// A hosted session plus its registry bookkeeping.
struct Hosted<C: ScratchThreeWayComparator + Send + Sync> {
    /// `None` while a running batch has the session checked out. The
    /// entry itself stays in the map, so admission keeps seeing the
    /// session as alive: `create_session` on the key still reports
    /// `SessionExists`, and `submit` keeps enqueuing (the ops run in the
    /// next batch).
    session: Option<ClusterSession<SharedComparator<C>>>,
    /// Summary cached at insert/check-in so admission validation and
    /// status reads stay answerable while the session is checked out.
    algorithms: usize,
    total_measurements: usize,
    waves: usize,
    converged: bool,
    /// Logical time of the last touch (submit or execution) — the LRU
    /// eviction key.
    last_used: u64,
    /// Ops queued but not yet executed; only idle (`pending == 0`)
    /// sessions are evictable.
    pending: usize,
    /// Highest op seq a batch has applied to this session — the durable
    /// low-water mark carried into checkpoints so journal replay can
    /// deduplicate (`None` until the first batch touches the session).
    last_applied: Option<u64>,
}

impl<C: ScratchThreeWayComparator + Send + Sync> Hosted<C> {
    fn new(session: ClusterSession<SharedComparator<C>>, tick: u64) -> Self {
        let mut hosted = Hosted {
            algorithms: session.num_algorithms(),
            total_measurements: 0,
            waves: 0,
            converged: false,
            last_used: tick,
            pending: 0,
            last_applied: None,
            session: None,
        };
        hosted.refresh(&session);
        hosted.session = Some(session);
        hosted
    }

    /// Re-caches the observable summary from the live session.
    fn refresh(&mut self, session: &ClusterSession<SharedComparator<C>>) {
        self.total_measurements = session.total_measurements();
        self.waves = session.waves();
        self.converged = session.converged();
    }
}

/// One queued op with its ordering ticket.
struct QueuedOp {
    key: SessionKey,
    seq: u64,
    op: SessionOp,
}

/// A session parked in the spill store: its snapshot bytes plus the
/// cached summary so status reads stay answerable without decoding.
struct Spilled {
    bytes: Vec<u8>,
    algorithms: usize,
    total_measurements: usize,
    waves: usize,
    converged: bool,
    /// Carried from the resident entry so rehydration order follows true
    /// recency, and the spill store's own LRU drop is well-defined.
    last_used: u64,
    /// Carried applied-seq low-water mark (see [`Hosted::last_applied`]).
    last_applied: Option<u64>,
}

/// One shard: a slice of the session map, the spill store, and the
/// shard's request queue, guarded by a single mutex (lock per shard,
/// never a global lock).
struct Shard<C: ScratchThreeWayComparator + Send + Sync> {
    sessions: HashMap<SessionKey, Hosted<C>>,
    spilled: HashMap<SessionKey, Spilled>,
    queue: Vec<QueuedOp>,
    /// The shard's durable op journal; `None` on an unjournaled service.
    journal: Option<ShardJournal>,
}

/// One shard's journal. The group-commit bookkeeping lives inside the
/// shard mutex, so the durable order equals admission order; the store
/// sits behind its own mutex (lock order: shard → store), so a scheduler
/// flush can fsync it with the shard lock released (see
/// [`run_due_flush`](SessionService::run_due_flush)).
struct ShardJournal {
    store: Arc<Mutex<StoreSlot>>,
    config: JournalConfig,
    /// Journaled ops appended since the last sync (group commit counter).
    unsynced: usize,
    /// Journaled ops since the last checkpoint (auto-compaction counter).
    since_checkpoint: usize,
    /// Set on the first append/sync failure: the journal can no longer
    /// vouch for durability, so journaled admissions are rejected with
    /// [`JournalIoError::Sealed`] until the service is recovered.
    sealed: bool,
    /// Records admitted while a flush holds the store, in admission
    /// order. Whoever takes the store next writes them first, so the
    /// store always holds a prefix of the admission order and the tail
    /// the rest.
    tail: Vec<Vec<u8>>,
    /// `Some(n)` while a scheduler flush runs: the unsynced ops its fsync
    /// covers (0 once a later sync has covered them too).
    flushing: Option<usize>,
    /// A deferred admission brought `unsynced` to the group-commit
    /// interval: the owning scheduler thread flushes next.
    flush_due: bool,
}

/// A shard's store, plus whether a flush that ran with the shard lock
/// released failed (the shard seals when its lock is next taken).
struct StoreSlot {
    store: Box<dyn JournalStore>,
    failed: bool,
}

impl ShardJournal {
    fn new(store: Box<dyn JournalStore>, config: JournalConfig) -> Self {
        ShardJournal {
            store: Arc::new(Mutex::new(StoreSlot { store, failed: false })),
            config,
            unsynced: 0,
            since_checkpoint: 0,
            sealed: false,
            tail: Vec::new(),
            flushing: None,
            flush_due: false,
        }
    }

    fn group_commit(&self) -> usize {
        self.config.group_commit.max(1)
    }

    /// Runs `f` on the store once the tail is written into it; the
    /// caller holds the shard lock, so nothing is admitted meanwhile.
    /// Waits out a running flush's fsync. Any failure, that flush's
    /// included, seals the journal.
    fn with_store<T>(
        &mut self,
        f: impl FnOnce(&mut dyn JournalStore) -> Result<T, JournalIoError>,
    ) -> Result<T, ServiceError> {
        if self.sealed {
            return Err(ServiceError::Journal(JournalIoError::Sealed));
        }
        let mut slot = self.store.lock().expect("journal store poisoned");
        let result = if slot.failed {
            Err(JournalIoError::Sealed)
        } else {
            let store = slot.store.as_mut();
            let mut tail = self.tail.drain(..);
            tail.try_for_each(|record| store.append(&record)).and_then(|()| f(store))
        };
        drop(slot);
        result.map_err(|e| {
            self.sealed = true;
            ServiceError::Journal(e)
        })
    }

    /// Appends one framed record covering `ops` journaled ops (to the
    /// tail while a flush holds the store). At the group-commit boundary
    /// it syncs in place, unless `defer`: then, below twice the interval,
    /// it marks a flush due for the scheduler thread and returns whether
    /// that mark is new. Any store failure seals the journal.
    fn append(
        &mut self,
        bytes: Vec<u8>,
        ops: usize,
        defer: bool,
        stats: &StatCounters,
    ) -> Result<bool, ServiceError> {
        if self.sealed {
            return Err(ServiceError::Journal(JournalIoError::Sealed));
        }
        if self.flushing.is_some() {
            self.tail.push(bytes);
        } else {
            self.with_store(|store| store.append(&bytes))?;
        }
        StatCounters::bump(&stats.journal_appends);
        self.unsynced += ops;
        self.since_checkpoint += ops;
        let g = self.group_commit();
        if self.unsynced < g {
            return Ok(false);
        }
        if defer && g > 1 && self.unsynced < 2 * g {
            return Ok(!std::mem::replace(&mut self.flush_due, true));
        }
        self.sync(stats)?;
        Ok(false)
    }

    /// Forces every appended record durable (end of a group-commit
    /// window), the tail included.
    fn sync(&mut self, stats: &StatCounters) -> Result<(), ServiceError> {
        self.with_store(|store| store.sync())?;
        StatCounters::bump(&stats.journal_syncs);
        self.synced_all();
        Ok(())
    }

    /// Installs a checkpoint whose fresh journal re-frames `queued` ops.
    fn install(&mut self, base: &[u8], fresh: &[u8], queued: usize) -> Result<(), ServiceError> {
        self.with_store(|store| store.install_checkpoint(base, fresh))?;
        self.synced_all();
        self.since_checkpoint = queued;
        Ok(())
    }

    /// Every journaled op is durable: nothing is due, and a running
    /// flush covers nothing more.
    fn synced_all(&mut self) {
        self.unsynced = 0;
        self.flush_due = false;
        if let Some(covered) = self.flushing.as_mut() {
            *covered = 0;
        }
    }
}

/// One scheduler work item: a session's checked-out state plus its op
/// group for this batch.
struct Job<C: ScratchThreeWayComparator + Send + Sync> {
    key: SessionKey,
    /// The checked-out session; `None` when the registry entry was gone
    /// (evicted between submit and batch), or after a `Close` executed.
    session: Option<ClusterSession<SharedComparator<C>>>,
    /// Whether checkout found a live session — distinguishes "closed by
    /// this batch" from "was already gone" at check-in (a new session may
    /// have been created under the same key in the meantime and must not
    /// be touched).
    live: bool,
    ops: Vec<(u64, SessionOp)>,
}

/// The multi-tenant session service (see the [module docs](self)).
pub struct SessionService<C: ScratchThreeWayComparator + Send + Sync> {
    comparator: Arc<C>,
    shards: Box<[Mutex<Shard<C>>]>,
    limits: ServiceLimits,
    /// How scored waves of *independent sessions* fan out in `run_batch`.
    scheduler: Parallelism,
    /// Non-empty batches executing right now, across every caller of
    /// [`run_shard_batch`](Self::run_shard_batch) — what sizes each
    /// batch's `Score` grant (see [`score_grant`]). Inline Score-free
    /// batches ([`run_score_free_batch`](Self::run_score_free_batch)) do
    /// not count.
    executing: AtomicUsize,
    /// Queued ops per tenant (the in-flight admission counter).
    tenants: Mutex<HashMap<u64, usize>>,
    /// Global monotone ticket counter; per-tenant tickets are monotone
    /// because each tenant submits its own ops in order.
    seq: AtomicU64,
    /// Logical clock for LRU bookkeeping.
    clock: AtomicU64,
    stats: StatCounters,
}

impl<C: ScratchThreeWayComparator + Send + Sync> SessionService<C> {
    /// A service sharing `comparator` across all sessions, with `shards`
    /// registry shards and the given scheduler parallelism and limits.
    ///
    /// # Panics
    /// Panics when `shards == 0` or a limit is zero.
    pub fn new(comparator: C, shards: usize, scheduler: Parallelism, limits: ServiceLimits) -> Self {
        Self::from_arc(Arc::new(comparator), shards, scheduler, limits)
    }

    pub(crate) fn from_arc(
        comparator: Arc<C>,
        shards: usize,
        scheduler: Parallelism,
        limits: ServiceLimits,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(limits.sessions_per_shard > 0, "zero-capacity shards");
        assert!(limits.tenant_in_flight > 0, "zero tenant in-flight cap");
        assert!(limits.shard_queue_depth > 0, "zero queue depth");
        SessionService {
            comparator,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        sessions: HashMap::new(),
                        spilled: HashMap::new(),
                        queue: Vec::new(),
                        journal: None,
                    })
                })
                .collect(),
            limits,
            scheduler,
            executing: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
            seq: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            stats: StatCounters::default(),
        }
    }

    /// A **journaled** service: one [`JournalStore`] per shard (the store
    /// count *is* the shard count), every admission made durable before
    /// it is enqueued. The stores are initialized with a fresh empty
    /// checkpoint — this constructor starts a new durable history; use
    /// [`recover`](Self::recover) to resume an existing one.
    ///
    /// # Panics
    /// Panics when `stores` is empty or a limit is zero (same contract as
    /// [`new`](Self::new)).
    pub fn with_journal(
        comparator: C,
        scheduler: Parallelism,
        limits: ServiceLimits,
        config: JournalConfig,
        stores: Vec<Box<dyn JournalStore>>,
    ) -> Result<Self, ServiceError> {
        assert!(!stores.is_empty(), "need at least one journal store");
        let service = Self::from_arc(Arc::new(comparator), stores.len(), scheduler, limits);
        // Install empty checkpoints so every store holds a parseable
        // durable history from the first moment.
        service.attach_journals(config, stores).map_err(|(_, error)| error)?;
        Ok(service)
    }

    /// The shard hosting `key` — a pure function of the key, so placement
    /// is stable across runs and processes.
    fn shard_of(&self, key: SessionKey) -> usize {
        shard_for(key, self.shards.len())
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn shard(&self, idx: usize) -> std::sync::MutexGuard<'_, Shard<C>> {
        self.shards[idx].lock().expect("shard poisoned")
    }

    /// Opens a fresh session. All spec validation is typed — a bad tenant
    /// spec is rejected, never a panic (the criterion goes through
    /// [`ConvergenceCriterion::try_validate`]).
    pub fn create_session(
        &self,
        tenant: u64,
        session: u64,
        spec: SessionSpec,
    ) -> Result<(), ServiceError> {
        StatCounters::bump(&self.stats.requests);
        self.admit(tenant, session, spec)
            .inspect_err(|_| StatCounters::bump(&self.stats.rejections))
    }

    fn admit(&self, tenant: u64, session: u64, spec: SessionSpec) -> Result<(), ServiceError> {
        let session_obj = build_session(&self.comparator, &spec)?;
        self.insert(
            SessionKey { tenant, session },
            session_obj,
            Some(JournalRecord::Create { tenant, session, spec }),
        )
    }

    /// Rebuilds a session from checkpoint bytes produced by a `Snapshot`
    /// op (or [`snapshot::encode`]). The restored session continues
    /// wave-for-wave identically to one that never stopped; any carried
    /// RNG states in the snapshot are ignored here (they belong to the
    /// campaign layer, see [`crate::campaign`]).
    pub fn restore_session(
        &self,
        tenant: u64,
        session: u64,
        bytes: &[u8],
    ) -> Result<(), ServiceError> {
        StatCounters::bump(&self.stats.requests);
        snapshot::decode(bytes)
            .map_err(ServiceError::from)
            .and_then(|snap| self.readmit(tenant, session, snap))
            .inspect_err(|_| StatCounters::bump(&self.stats.rejections))
    }

    /// [`restore_session`](SessionService::restore_session) for an
    /// already-decoded snapshot — callers that inspected the snapshot
    /// first (e.g. [`ServiceCampaign::resume`](crate::campaign::ServiceCampaign::resume),
    /// which needs the RNG states) avoid decoding the bytes twice.
    pub fn restore_snapshot(
        &self,
        tenant: u64,
        session: u64,
        snap: SessionSnapshot,
    ) -> Result<(), ServiceError> {
        StatCounters::bump(&self.stats.requests);
        self.readmit(tenant, session, snap)
            .inspect_err(|_| StatCounters::bump(&self.stats.rejections))
    }

    fn readmit(
        &self,
        tenant: u64,
        session: u64,
        snap: SessionSnapshot,
    ) -> Result<(), ServiceError> {
        // `restore_snapshot` accepts caller-built values, so they go
        // through the same typed checks as decoded bytes.
        let session_obj = restore_session_state(&self.comparator, snap)?;
        // Journal the *validated* session's own export, not the caller's
        // bytes: replaying the record must decode back into exactly this
        // state (carried RNG states are a campaign-layer concern and
        // deliberately not journaled).
        let record = JournalRecord::Restore {
            tenant,
            session,
            snapshot: export_session(&session_obj),
        };
        self.insert(SessionKey { tenant, session }, session_obj, Some(record))
    }

    /// Registers a session, spilling (or, with spilling disabled,
    /// evicting) the LRU idle resident when the shard is at capacity.
    /// Checked-out and pending-op sessions are never displaced.
    ///
    /// On a journaled service, `record` is appended under the same shard
    /// lock as the insert — so the durable order equals the registry
    /// order — and a failed append undoes the insert: a create/restore
    /// the journal cannot vouch for is rejected, not half-done.
    fn insert(
        &self,
        key: SessionKey,
        session: ClusterSession<SharedComparator<C>>,
        record: Option<JournalRecord>,
    ) -> Result<(), ServiceError> {
        let idx = self.shard_of(key);
        let tick = self.tick();
        let mut guard = self.shard(idx);
        if guard.journal.as_ref().is_some_and(|j| j.sealed) {
            return Err(ServiceError::Journal(JournalIoError::Sealed));
        }
        self.insert_locked(&mut guard, idx, key, session, tick)?;
        let shard = &mut *guard;
        if let (Some(record), Some(j)) = (record, shard.journal.as_mut()) {
            let bytes = journal::encode_record(&record);
            if let Err(e) = j.append(bytes, 1, false, &self.stats) {
                shard.sessions.remove(&key);
                return Err(e);
            }
        }
        Ok(())
    }

    /// [`insert`](Self::insert) against an already-locked shard — shared
    /// with the rehydration path, which must make room while holding the
    /// shard lock (re-locking would deadlock).
    fn insert_locked(
        &self,
        shard: &mut Shard<C>,
        idx: usize,
        key: SessionKey,
        session: ClusterSession<SharedComparator<C>>,
        tick: u64,
    ) -> Result<(), ServiceError> {
        if shard.sessions.contains_key(&key) || shard.spilled.contains_key(&key) {
            return Err(ServiceError::SessionExists {
                tenant: key.tenant,
                session: key.session,
            });
        }
        if shard.sessions.len() >= self.limits.sessions_per_shard {
            self.make_room(shard, idx)?;
        }
        shard.sessions.insert(key, Hosted::new(session, tick));
        Ok(())
    }

    /// Frees one residency slot in `shard`: the LRU idle resident is
    /// serialized into the spill store, or dropped for good when spilling
    /// is disabled. Fails typed with `ShardFull` when every resident is
    /// checked out or has pending ops.
    fn make_room(&self, shard: &mut Shard<C>, idx: usize) -> Result<(), ServiceError> {
        let victim = shard
            .sessions
            .iter()
            .filter(|(_, h)| h.pending == 0 && h.session.is_some())
            .min_by_key(|(k, h)| (h.last_used, **k))
            .map(|(k, _)| *k);
        let Some(v) = victim else {
            return Err(ServiceError::ShardFull {
                shard: idx,
                capacity: self.limits.sessions_per_shard,
            });
        };
        let hosted = shard.sessions.remove(&v).expect("victim is resident");
        if self.limits.spill_per_shard == 0 {
            StatCounters::bump(&self.stats.evictions);
            return Ok(());
        }
        let session = hosted.session.expect("victim is idle (checked in)");
        shard.spilled.insert(
            v,
            Spilled {
                bytes: export_session(&session),
                algorithms: hosted.algorithms,
                total_measurements: hosted.total_measurements,
                waves: hosted.waves,
                converged: hosted.converged,
                last_used: hosted.last_used,
                last_applied: hosted.last_applied,
            },
        );
        StatCounters::bump(&self.stats.spills);
        // The spill store is itself bounded; beyond the cap the oldest
        // snapshot is dropped for good (a hard eviction).
        while shard.spilled.len() > self.limits.spill_per_shard {
            let oldest = shard
                .spilled
                .iter()
                .min_by_key(|(k, s)| (s.last_used, **k))
                .map(|(k, _)| *k)
                .expect("spill store is non-empty");
            shard.spilled.remove(&oldest);
            StatCounters::bump(&self.stats.evictions);
        }
        Ok(())
    }

    /// Rebuilds a spilled session in place (shard lock held), making room
    /// by spilling someone else if necessary. On `ShardFull` the snapshot
    /// goes back into the spill store untouched, so the session survives
    /// the failed touch and the caller can retry after the backlog drains.
    fn rehydrate_locked(
        &self,
        shard: &mut Shard<C>,
        idx: usize,
        key: SessionKey,
        tick: u64,
    ) -> Result<(), ServiceError> {
        let spilled = shard
            .spilled
            .remove(&key)
            .expect("caller checked the spill store");
        let session = match rebuild_session(&self.comparator, &spilled.bytes) {
            Ok(session) => session,
            Err(e) => {
                // Unreachable for bytes the spill path itself encoded,
                // but stay total: the entry is dropped and the error
                // surfaces typed.
                StatCounters::bump(&self.stats.evictions);
                return Err(e);
            }
        };
        if let Err(e) = self.insert_locked(shard, idx, key, session, tick) {
            shard.spilled.insert(key, spilled);
            return Err(e);
        }
        if let Some(h) = shard.sessions.get_mut(&key) {
            h.last_applied = spilled.last_applied;
        }
        StatCounters::bump(&self.stats.rehydrations);
        Ok(())
    }

    /// Enqueues one op against a hosted session, returning its ticket.
    /// The op executes at the next [`run_batch`](SessionService::run_batch);
    /// rejection (unknown session, in-flight cap, queue depth, bad
    /// algorithm index) is immediate and typed — the caller is never
    /// blocked.
    pub fn submit(&self, tenant: u64, session: u64, op: SessionOp) -> Result<u64, ServiceError> {
        let seqs = self.submit_all(tenant, session, vec![op])?;
        Ok(seqs[0])
    }

    /// Atomically enqueues a group of ops against one session: either
    /// every op is admitted (returning their tickets, in order) or none
    /// is. This is the transactional form campaign drivers need — a
    /// mid-group `TenantBusy`/`QueueFull` cannot leave half a wave queued.
    pub fn submit_all(
        &self,
        tenant: u64,
        session: u64,
        ops: Vec<SessionOp>,
    ) -> Result<Vec<u64>, ServiceError> {
        self.submit_group(tenant, session, ops, false).map(|(seqs, _)| seqs)
    }

    /// [`submit_all`](Self::submit_all), with the journal sync at the
    /// group-commit boundary optionally deferred to a scheduler thread:
    /// with `defer_sync` and `group_commit` g > 1, an admission that
    /// brings its shard's unsynced ops to g marks the shard's flush due
    /// instead of syncing, and the returned flag says the mark is new, so
    /// the caller must wake the shard's scheduler thread (see the
    /// runtime's "Journal flushes"). One that would leave 2g or more
    /// unsynced still syncs before it returns.
    pub(crate) fn submit_group(
        &self,
        tenant: u64,
        session: u64,
        ops: Vec<SessionOp>,
        defer_sync: bool,
    ) -> Result<(Vec<u64>, bool), ServiceError> {
        if ops.is_empty() {
            return Ok((Vec::new(), false));
        }
        let n = ops.len() as u64;
        self.stats.requests.fetch_add(n, Ordering::Relaxed);
        self.stats.ops_submitted.fetch_add(n, Ordering::Relaxed);
        self.enqueue_all(tenant, session, ops, defer_sync)
            .inspect(|_| {
                self.stats.ops_admitted.fetch_add(n, Ordering::Relaxed);
            })
            .inspect_err(|_| {
                self.stats.rejections.fetch_add(n, Ordering::Relaxed);
                self.stats.ops_rejected.fetch_add(n, Ordering::Relaxed);
            })
    }

    fn enqueue_all(
        &self,
        tenant: u64,
        session: u64,
        ops: Vec<SessionOp>,
        defer_sync: bool,
    ) -> Result<(Vec<u64>, bool), ServiceError> {
        let key = SessionKey { tenant, session };
        let n = ops.len();
        // Load shedding first — one relaxed read, no lock. The backlog is
        // a cross-counter snapshot (see `stats`), so the watermark is
        // approximate under concurrency, which is exactly what a shedder
        // wants: cheap, monotone-ish, and typed.
        let backlog = self.stats.backlog();
        if backlog.saturating_add(n as u64) > self.limits.max_backlog as u64 {
            self.stats.shed.fetch_add(n as u64, Ordering::Relaxed);
            return Err(ServiceError::Overloaded {
                backlog: backlog as usize,
                cap: self.limits.max_backlog,
            });
        }
        // Reserve the in-flight slots next (tenant lock), then validate
        // under the shard lock; the two locks are never held together.
        {
            let mut tenants = self.tenants.lock().expect("tenant map poisoned");
            let in_flight = tenants.entry(tenant).or_insert(0);
            if *in_flight + n > self.limits.tenant_in_flight {
                return Err(ServiceError::TenantBusy {
                    tenant,
                    in_flight: *in_flight,
                    cap: self.limits.tenant_in_flight,
                });
            }
            *in_flight += n;
        }
        let idx = self.shard_of(key);
        let tick = self.tick();
        let result = 'admit: {
            let mut guard = self.shard(idx);
            let shard = &mut *guard;
            if shard.queue.len() + n > self.limits.shard_queue_depth {
                break 'admit Err(ServiceError::QueueFull {
                    shard: idx,
                    depth: shard.queue.len(),
                    cap: self.limits.shard_queue_depth,
                });
            }
            if shard.journal.as_ref().is_some_and(|j| j.sealed) {
                break 'admit Err(ServiceError::Journal(JournalIoError::Sealed));
            }
            // Transparent rehydration: a touch on a spilled session pulls
            // it back into residency before the op is enqueued. Failure
            // (no idle victim to displace) is typed and leaves the
            // snapshot parked.
            if !shard.sessions.contains_key(&key) && shard.spilled.contains_key(&key) {
                if let Err(e) = self.rehydrate_locked(shard, idx, key, tick) {
                    break 'admit Err(e);
                }
            }
            {
                let Shard { sessions, queue, journal, .. } = shard;
                match sessions.get_mut(&key) {
                    None => Err(ServiceError::SessionUnknown { tenant, session }),
                    Some(hosted) => {
                        let p = hosted.algorithms;
                        let bad_alg = ops.iter().find_map(|op| match op {
                            SessionOp::Push { alg, .. }
                            | SessionOp::Extend { alg, .. }
                            | SessionOp::ExtendAll { alg, .. }
                                if *alg >= p =>
                            {
                                Some(*alg)
                            }
                            _ => None,
                        });
                        match bad_alg {
                            Some(alg) => Err(ServiceError::AlgorithmOutOfRange { alg, p }),
                            None => {
                                let first = self.seq.fetch_add(n as u64, Ordering::Relaxed);
                                // Durability before visibility: the whole
                                // group becomes one journal record, under
                                // this shard lock, before anything is
                                // enqueued — a failed append admits
                                // nothing (the seq tickets are burned,
                                // which is harmless: they are monotone,
                                // never dense).
                                let mut flush_due = false;
                                if let Some(j) = journal.as_mut() {
                                    let bytes = journal::encode_ops_record(
                                        tenant, session, first, &ops,
                                    );
                                    match j.append(bytes, n, defer_sync, &self.stats) {
                                        Ok(due) => flush_due = due,
                                        Err(e) => break 'admit Err(e),
                                    }
                                }
                                hosted.pending += n;
                                hosted.last_used = tick;
                                let seqs: Vec<u64> = (0..n as u64).map(|i| first + i).collect();
                                for (seq, op) in seqs.iter().zip(ops) {
                                    queue.push(QueuedOp { key, seq: *seq, op });
                                }
                                Ok((seqs, flush_due))
                            }
                        }
                    }
                }
            }
        };
        if result.is_err() {
            // Give the reserved in-flight slots back on rejection.
            self.release_in_flight(tenant, n);
        }
        result
    }

    /// Returns `n` in-flight slots to `tenant`, dropping the map entry
    /// when its count reaches zero — so a client probing arbitrary tenant
    /// ids cannot grow the admission map without bound.
    fn release_in_flight(&self, tenant: u64, n: usize) {
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        if let Some(in_flight) = tenants.get_mut(&tenant) {
            *in_flight = in_flight.saturating_sub(n);
            if *in_flight == 0 {
                tenants.remove(&tenant);
            }
        }
    }

    /// Drains every shard queue and executes one scheduler batch:
    /// ops ordered by `(tenant, seq)`, grouped per session, each session's
    /// group applied sequentially while independent sessions' waves fan
    /// out across threads. Responses come back sorted by `(tenant, seq)`.
    ///
    /// Determinism: a session's responses depend only on its own op
    /// sequence (and its spec/seed), never on batch boundaries, shard
    /// count, thread count, or what other tenants did — bit-identical to
    /// driving a private `ClusterSession` with the same calls.
    ///
    /// Concurrency: sessions stay registered while a batch executes them
    /// (marked checked-out), so concurrent `create_session` on a live key
    /// still reports `SessionExists` and concurrent `submit`s keep
    /// enqueuing for the next batch. If two `run_batch` calls race, ops
    /// addressing a session the other batch holds are simply carried over
    /// to the next batch (their responses arrive there) — never lost,
    /// never run out of order.
    pub fn run_batch(&self) -> Vec<OpResponse> {
        self.run_shard_batch(0..self.shards.len())
    }

    /// [`run_batch`](Self::run_batch) over a subset of shards — the
    /// primitive the background scheduler builds on: each scheduler
    /// thread drains only the shards it owns, so one slow session delays
    /// its own shard's batch, never the whole service's.
    ///
    /// Determinism is unaffected: a session lives entirely in one shard,
    /// so its ops are always drained together and in `(tenant, seq)`
    /// order, whatever partition of shards the callers use.
    ///
    /// An all-empty subset returns immediately without counting a batch,
    /// so a polling scheduler does not inflate `batches` while idle.
    ///
    /// Thread grant: a batch that starts while `k` other such batches
    /// execute (inline Score-free batches do not count, see
    /// [`RuntimeHandle::submit_all`](crate::runtime::RuntimeHandle::submit_all))
    /// may use `hardware_threads() − k` threads (at least 1), split
    /// evenly over the scheduler workers its jobs fan across; every
    /// `Score` in it runs on that share, whatever the session's
    /// `config.parallelism` says. The rule subtracts executing batches,
    /// not the threads they were granted, and a batch keeps its grant
    /// until it ends. Tables do not depend on the grant.
    ///
    /// # Panics
    /// Panics when a shard index is out of range
    /// (`>= `[`num_shards`](Self::num_shards)).
    pub fn run_shard_batch(&self, shards: impl IntoIterator<Item = usize>) -> Vec<OpResponse> {
        let shard_indices: Vec<usize> = shards.into_iter().collect();
        let mut jobs: Vec<Mutex<Job<C>>> = Vec::new();
        let mut drained = false;
        for &idx in &shard_indices {
            drained |= Self::check_out_queue(&mut self.shard(idx), &mut jobs);
        }
        self.execute(&shard_indices, drained, jobs, true).0
    }

    /// [`run_shard_batch`](Self::run_shard_batch) over shard `idx` alone,
    /// but only when its queue holds no `Score`: the check, the drain and
    /// the checkout happen under one shard lock, so a `Score` queued
    /// meanwhile stays for the scheduler. `None` when a `Score` is queued
    /// (nothing is drained); otherwise the batch's responses and whether
    /// the shard queue held ops once the batch was done — ops it pushed
    /// back, or ops pushed back or enqueued while it ran. This is how a
    /// submitting thread runs an ingest group to completion itself (see
    /// the runtime's module docs). Holding no `Score`, the batch needs no
    /// grant, and it does not count toward the executing batches that
    /// size other batches' grants: it ends within microseconds, and a
    /// `Score` batch keeps the grant it starts with to its end.
    pub(crate) fn run_score_free_batch(&self, idx: usize) -> Option<(Vec<OpResponse>, bool)> {
        let mut jobs: Vec<Mutex<Job<C>>> = Vec::new();
        let drained = {
            let mut shard = self.shard(idx);
            if shard.queue.iter().any(|e| matches!(e.op, SessionOp::Score)) {
                return None;
            }
            Self::check_out_queue(&mut shard, &mut jobs)
        };
        Some(self.execute(&[idx], drained, jobs, false))
    }

    /// Drains `shard`'s queue into per-session jobs and checks each
    /// session out, all under the caller's one hold of the shard lock
    /// (a session lives in the shard whose queue holds its ops). So no op
    /// is ever drained without its session held: a racing batch that
    /// finds the session checked out pushes its ops back behind the ones
    /// being run, and a compaction, which skips a shard with checkouts,
    /// never misses a drained op. Returns whether the queue held ops.
    fn check_out_queue(shard: &mut Shard<C>, jobs: &mut Vec<Mutex<Job<C>>>) -> bool {
        if shard.queue.is_empty() {
            return false;
        }
        let mut entries = std::mem::take(&mut shard.queue);
        entries.sort_by_key(|e| (e.key.tenant, e.seq));

        // Group per session, preserving the (tenant, seq) order within
        // each group.
        let mut group_of: HashMap<SessionKey, usize> = HashMap::new();
        let mut groups: Vec<(SessionKey, Vec<(u64, SessionOp)>)> = Vec::new();
        for e in entries {
            let gi = *group_of.entry(e.key).or_insert_with(|| {
                groups.push((e.key, Vec::new()));
                groups.len() - 1
            });
            groups[gi].1.push((e.seq, e.op));
        }

        // Check each involved session out (the entry stays, marked
        // checked-out). A missing entry means the session was evicted
        // since submit — its ops fail typed. An entry already checked
        // out by a concurrently running batch gets its ops pushed back
        // for the next batch.
        for (key, ops) in groups {
            match shard.sessions.get_mut(&key) {
                Some(hosted) => match hosted.session.take() {
                    Some(session) => jobs.push(Mutex::new(Job {
                        key,
                        session: Some(session),
                        live: true,
                        ops,
                    })),
                    None => shard
                        .queue
                        .extend(ops.into_iter().map(|(seq, op)| QueuedOp { key, seq, op })),
                },
                None => jobs.push(Mutex::new(Job {
                    key,
                    session: None,
                    live: false,
                    ops,
                })),
            }
        }
        true
    }

    /// Executes the jobs checked out of `shard_indices` as one batch (see
    /// [`run_shard_batch`](Self::run_shard_batch)); `drained` says whether
    /// any queue held ops, and `counted` whether the batch counts toward
    /// the executing batches that size `Score` grants. Returns the
    /// responses and whether any of the shard queues held ops once the
    /// batch was done.
    fn execute(
        &self,
        shard_indices: &[usize],
        drained: bool,
        jobs: Vec<Mutex<Job<C>>>,
        counted: bool,
    ) -> (Vec<OpResponse>, bool) {
        if !drained {
            return (Vec::new(), false);
        }
        StatCounters::bump(&self.stats.batches);

        // Fan independent sessions across workers. Each job is locked by
        // exactly one worker (uncontended — the Mutex only converts the
        // shared borrow into the mutable one the session needs).
        let stats = &self.stats;
        let executing = counted.then(|| ExecutingBatch::enter(&self.executing));
        let grant = score_grant(
            relperf_parallel::hardware_threads(),
            executing.as_ref().map_or(0, |e| e.others),
            self.scheduler,
            jobs.len(),
        );
        let per_job: Vec<Vec<OpResponse>> = relperf_parallel::parallel_map_indexed_with(
            jobs.len(),
            self.scheduler,
            || (),
            |(), i| {
                let mut job = jobs[i].lock().expect("job poisoned");
                let Job { key, session, ops, .. } = &mut *job;
                run_session_ops(*key, session, std::mem::take(ops), grant, stats)
            },
        );
        drop(executing);

        // Check sessions back in and release bookkeeping.
        let tick = self.tick();
        for (job, responses) in jobs.into_iter().zip(&per_job) {
            let job = job.into_inner().expect("job poisoned");
            if !job.live {
                // Nothing was checked out; if a *new* session has been
                // created under this key meanwhile, it is not ours to
                // touch.
                continue;
            }
            let mut shard = self.shard(self.shard_of(job.key));
            if let Some(hosted) = shard.sessions.get_mut(&job.key) {
                hosted.pending = hosted.pending.saturating_sub(responses.len());
                hosted.last_used = tick;
                // Advance the durable low-water mark over *every*
                // responded seq, errored ops included — an errored
                // `Extend` still ingests the values before the bad one,
                // and replay executes it identically, so "applied" must
                // mean "executed", not "succeeded".
                if let Some(max_seq) = responses.iter().map(|r| r.seq).max() {
                    hosted.last_applied =
                        Some(hosted.last_applied.map_or(max_seq, |l| l.max(max_seq)));
                }
                match job.session {
                    Some(session) => {
                        hosted.refresh(&session);
                        hosted.session = Some(session);
                    }
                    // Closed by this batch: drop the registry entry.
                    None => {
                        shard.sessions.remove(&job.key);
                    }
                }
            }
        }
        let mut responses: Vec<OpResponse> = per_job.into_iter().flatten().collect();
        let mut executed_per_tenant: HashMap<u64, usize> = HashMap::new();
        for r in &responses {
            *executed_per_tenant.entry(r.key.tenant).or_insert(0) += 1;
        }
        for (tenant, n) in executed_per_tenant {
            self.release_in_flight(tenant, n);
        }
        self.stats
            .ops_executed
            .fetch_add(responses.len() as u64, Ordering::Relaxed);
        // Auto-compaction rides on the batch that crossed the threshold:
        // the journal suffix a recovery would replay stays bounded.
        let mut queued = false;
        for &idx in shard_indices {
            queued |= self.maybe_compact(idx);
        }
        responses.sort_by_key(|r| (r.key.tenant, r.seq));
        (responses, queued)
    }

    /// Compacts `idx` if its journal crossed the auto-compaction
    /// threshold, and reports whether its queue holds ops. Best-effort: a
    /// failed install seals the shard journal and surfaces on the next
    /// journaled admission.
    fn maybe_compact(&self, idx: usize) -> bool {
        let mut guard = self.shard(idx);
        let due = guard.journal.as_ref().is_some_and(|j| {
            !j.sealed && j.config.compact_every > 0 && j.since_checkpoint >= j.config.compact_every
        });
        if due {
            let _ = self.compact_locked(&mut guard);
        }
        !guard.queue.is_empty()
    }

    /// A cheap status read of one hosted session (served from the cached
    /// summary, so it stays answerable while a batch has the session
    /// checked out — and while the session sits in the spill store).
    pub fn session_status(&self, tenant: u64, session: u64) -> Option<SessionStatus> {
        let key = SessionKey { tenant, session };
        let shard = self.shard(self.shard_of(key));
        if let Some(h) = shard.sessions.get(&key) {
            return Some(SessionStatus {
                algorithms: h.algorithms,
                total_measurements: h.total_measurements,
                waves: h.waves,
                converged: h.converged,
                pending: h.pending,
                spilled: false,
            });
        }
        shard.spilled.get(&key).map(|s| SessionStatus {
            algorithms: s.algorithms,
            total_measurements: s.total_measurements,
            waves: s.waves,
            converged: s.converged,
            pending: 0,
            spilled: true,
        })
    }

    /// Number of sessions currently resident in memory across all shards
    /// (spilled sessions not included — see
    /// [`num_spilled`](Self::num_spilled)).
    pub fn num_sessions(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).sessions.len())
            .sum()
    }

    /// Number of sessions currently parked in the spill stores as
    /// snapshot bytes.
    pub fn num_spilled(&self) -> usize {
        (0..self.shards.len())
            .map(|i| self.shard(i).spilled.len())
            .sum()
    }

    /// Ops currently sitting in shard queues — admitted but not yet
    /// drained by a batch.
    pub fn queued_ops(&self) -> usize {
        (0..self.shards.len()).map(|i| self.shard_queue_len(i)).sum()
    }

    /// Ops sitting in shard `idx`'s queue.
    pub(crate) fn shard_queue_len(&self, idx: usize) -> usize {
        self.shard(idx).queue.len()
    }

    /// Number of registry shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index hosting `(tenant, session)` — a pure function of
    /// the key, exposed so schedulers partitioning shards across threads
    /// (see [`crate::runtime`]) can route wake-ups.
    pub fn shard_index(&self, tenant: u64, session: u64) -> usize {
        self.shard_of(SessionKey { tenant, session })
    }

    /// The service's capacity limits.
    pub fn limits(&self) -> ServiceLimits {
        self.limits
    }

    /// A point-in-time reading of the load counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats.snapshot()
    }

    /// The live counters (replication and recovery paths bump them from
    /// outside the service's own methods).
    pub(crate) fn stat_counters(&self) -> &StatCounters {
        &self.stats
    }

    /// Attaches one journal per shard and installs fresh checkpoints —
    /// the tail `with_journal`, `recover` and follower promotion share
    /// (each builds the service first and makes it durable after). On
    /// failure, names the lowest-index shard whose install failed.
    pub(crate) fn attach_journals(
        &self,
        config: JournalConfig,
        stores: Vec<Box<dyn JournalStore>>,
    ) -> Result<(), (usize, ServiceError)> {
        assert_eq!(
            stores.len(),
            self.shards.len(),
            "one journal store per shard"
        );
        for (idx, store) in stores.into_iter().enumerate() {
            self.shard(idx).journal = Some(ShardJournal::new(store, config));
        }
        self.compact_shards().map(drop)
    }

    /// Appends a divergence-detection
    /// [`Digest`](JournalRecord::Digest) record to every **quiesced**
    /// journaled shard (no checkouts, no pending ops, empty queue) and
    /// syncs it durable, returning how many shards emitted one. A
    /// replica replaying the stream reaches exactly the state the digest
    /// checksums, so the digest pins the whole replicated prefix;
    /// busy or sealed shards are skipped (the next quiesce catches up).
    ///
    /// The per-session checksum is word-wise FNV-1a 64 over the session's
    /// canonical snapshot-codec export with RNG streams excluded — the
    /// same bytes a spill or checkpoint would write, so resident and
    /// spilled sessions digest identically.
    pub fn emit_digests(&self) -> Result<usize, ServiceError> {
        let mut emitted = 0;
        for idx in 0..self.shards.len() {
            let mut guard = self.shard(idx);
            let shard = &mut *guard;
            let ready = shard.journal.as_ref().is_some_and(|j| !j.sealed)
                && shard.queue.is_empty()
                && shard
                    .sessions
                    .values()
                    .all(|h| h.session.is_some() && h.pending == 0);
            if !ready {
                continue;
            }
            let mut sessions: Vec<DigestSession> =
                Vec::with_capacity(shard.sessions.len() + shard.spilled.len());
            for (key, hosted) in &shard.sessions {
                let session = hosted.session.as_ref().expect("quiesced (checked above)");
                sessions.push(DigestSession {
                    tenant: key.tenant,
                    session: key.session,
                    last_applied: hosted.last_applied,
                    checksum: session_checksum(session),
                });
            }
            for (key, spilled) in &shard.spilled {
                sessions.push(DigestSession {
                    tenant: key.tenant,
                    session: key.session,
                    last_applied: spilled.last_applied,
                    checksum: fnv1a64_words(FNV_OFFSET, &spilled.bytes),
                });
            }
            sessions.sort_by_key(|s| (s.tenant, s.session));
            let bytes = journal::encode_record(&JournalRecord::Digest { sessions });
            let j = shard.journal.as_mut().expect("journaled (checked above)");
            j.append(bytes, 0, false, &self.stats)?;
            // A digest is only useful once shipped; force it durable now
            // rather than waiting out the group-commit window.
            j.sync(&self.stats)?;
            StatCounters::bump(&self.stats.digests_emitted);
            emitted += 1;
        }
        Ok(emitted)
    }

    // -- durability ---------------------------------------------------------

    /// Installs a fresh checkpoint for shard `idx` and truncates its
    /// journal (compaction): the base becomes one
    /// [`Checkpoint`](JournalRecord::Checkpoint) over every resident and
    /// spilled session, and the journal restarts holding only the ops
    /// still queued (admitted, not yet executed). Returns `Ok(false)`
    /// without touching anything when the shard has no journal or a
    /// racing batch holds one of its sessions checked out (retry after
    /// the batch).
    ///
    /// # Panics
    /// Panics when `idx >= `[`num_shards`](Self::num_shards).
    pub fn compact_shard(&self, idx: usize) -> Result<bool, ServiceError> {
        let mut guard = self.shard(idx);
        self.compact_locked(&mut guard)
    }

    /// [`compact_shard`](Self::compact_shard) over every shard, all
    /// shards at once; returns how many shards installed a fresh
    /// checkpoint. Every shard attempts its install; on failure the
    /// error is the lowest-index failing shard's.
    pub fn compact_all(&self) -> Result<usize, ServiceError> {
        self.compact_shards().map_err(|(_, error)| error)
    }

    /// Runs [`compact_shard`](Self::compact_shard) on every shard
    /// concurrently, one thread per shard: an install blocks in fsync,
    /// not on a core, and the filesystem folds concurrent fsyncs into
    /// shared journal commits, so the width is the shard count, not the
    /// core count. Each shard's own install order is unchanged. Results
    /// are read in shard order, so a failure names the lowest-index
    /// failing shard; a one-shard service runs inline.
    fn compact_shards(&self) -> Result<usize, (usize, ServiceError)> {
        let n = self.shards.len();
        let width = Parallelism { threads: n, chunk: 1 };
        let results =
            relperf_parallel::parallel_map_indexed(n, width, |idx| self.compact_shard(idx));
        let mut compacted = 0;
        for (idx, result) in results.into_iter().enumerate() {
            compacted += usize::from(result.map_err(|error| (idx, error))?);
        }
        Ok(compacted)
    }

    /// Forces every shard journal's unsynced tail durable — the group
    /// commit boundary a graceful shutdown (or a paranoid caller) wants
    /// regardless of [`JournalConfig::group_commit`]. A no-op on an
    /// unjournaled service.
    pub fn flush_journals(&self) -> Result<(), ServiceError> {
        for idx in 0..self.shards.len() {
            let mut guard = self.shard(idx);
            if let Some(j) = guard.journal.as_mut() {
                if j.unsynced > 0 {
                    j.sync(&self.stats)?;
                }
            }
        }
        Ok(())
    }

    /// Runs shard `idx`'s due journal flush, if any — the step a
    /// scheduler thread takes after delivering a batch (see the
    /// runtime's "Journal flushes"). The flush takes the
    /// store under the shard lock, releases the shard lock, and fsyncs
    /// holding only the store, so admissions to the shard go on meanwhile
    /// and add their records to the tail. When the fsync ends it takes
    /// the shard lock again and writes the tail to the store; a failed
    /// fsync seals the shard. A flush that leaves a full interval
    /// unsynced runs again.
    pub(crate) fn run_due_flush(&self, idx: usize) {
        while self.flush_once(idx) {}
    }

    /// One flush of shard `idx` if it is due and none runs; returns
    /// whether one ran. A running flush leaves a due one to its own
    /// caller, which checks again when it ends.
    fn flush_once(&self, idx: usize) -> bool {
        let mut guard = self.shard(idx);
        let Some(j) = guard
            .journal
            .as_mut()
            .filter(|j| j.flush_due && j.flushing.is_none() && !j.sealed)
        else {
            return false;
        };
        j.flush_due = false;
        j.flushing = Some(j.unsynced);
        let store = Arc::clone(&j.store);
        let mut slot = store.lock().expect("journal store poisoned");
        drop(guard); // the fsync runs with the shard lock released
        let synced = slot.store.sync();
        slot.failed = synced.is_err();
        drop(slot);
        let mut guard = self.shard(idx);
        let j = guard.journal.as_mut().expect("journaled (checked above)");
        let covered = j.flushing.take().unwrap_or(0);
        if synced.is_err() {
            j.sealed = true;
            return true;
        }
        StatCounters::bump(&self.stats.journal_syncs);
        j.unsynced -= covered;
        // Write the tail; a failure seals the shard, and the next
        // journaled admission reports it.
        let _ = j.with_store(|_| Ok(()));
        j.flush_due = j.unsynced >= j.group_commit();
        true
    }

    fn compact_locked(&self, shard: &mut Shard<C>) -> Result<bool, ServiceError> {
        if shard.journal.is_none() {
            return Ok(false);
        }
        if shard.journal.as_ref().is_some_and(|j| j.sealed) {
            return Err(ServiceError::Journal(JournalIoError::Sealed));
        }
        if shard.sessions.values().any(|h| h.session.is_none()) {
            // A racing batch holds a checkout; its check-in would not be
            // in the checkpoint. Skip — the next batch retries.
            return Ok(false);
        }
        // `seq_floor` is the next unissued ticket: every record this
        // checkpoint covers sits below it, so recovery resumes the
        // counter at or above the floor and never reuses a seq.
        let seq_floor = self.seq.load(Ordering::Relaxed);
        let mut sessions: Vec<CheckpointSession> =
            Vec::with_capacity(shard.sessions.len() + shard.spilled.len());
        for (key, hosted) in &shard.sessions {
            let session = hosted.session.as_ref().expect("no checkouts (checked above)");
            sessions.push(CheckpointSession {
                tenant: key.tenant,
                session: key.session,
                last_applied: hosted.last_applied,
                snapshot: export_session(session),
            });
        }
        for (key, spilled) in &shard.spilled {
            sessions.push(CheckpointSession {
                tenant: key.tenant,
                session: key.session,
                last_applied: spilled.last_applied,
                snapshot: spilled.bytes.clone(),
            });
        }
        sessions.sort_by_key(|s| (s.tenant, s.session));
        let mut base = journal::stream_header();
        base.extend_from_slice(&journal::encode_record(&JournalRecord::Checkpoint {
            seq_floor,
            sessions,
        }));
        // The fresh journal re-frames the ops still queued: admitted is a
        // durable promise, and compaction must not narrow it.
        let mut fresh = journal::stream_header();
        for e in &shard.queue {
            fresh.extend_from_slice(&journal::encode_ops_record(
                e.key.tenant,
                e.key.session,
                e.seq,
                std::slice::from_ref(&e.op),
            ));
        }
        let queued = shard.queue.len();
        let j = shard.journal.as_mut().expect("journaled (checked above)");
        j.install(&base, &fresh, queued)?;
        StatCounters::bump(&self.stats.journal_compactions);
        Ok(true)
    }

    /// Rebuilds a journaled service from its durable stores: each shard's
    /// base checkpoint is restored, then the journal suffix is replayed
    /// in `(tenant, seq)` order through the same executor live batches
    /// use — so by the service's determinism contract the recovered
    /// sessions continue **wave-for-wave bit-identical** to a run that
    /// never crashed. A torn final record (partial write at crash) is
    /// truncated and reported in the [`RecoveryReport`]; replay is
    /// idempotent under the per-session applied-seq mark, so records
    /// double-covered by a mid-crash checkpoint are deduplicated.
    ///
    /// Recovery is total and typed: unreadable stores, mid-journal
    /// corruption, and snapshots that no longer decode come back as a
    /// [`RecoveryError`] naming the shard (and offset/session), never a
    /// panic. On success the stores hold a fresh checkpoint of the
    /// recovered state — torn tails are truncated *durably* — and the
    /// returned service journals onward into them.
    ///
    /// # Panics
    /// Panics when `stores` is empty or a limit is zero (operator
    /// configuration, same contract as [`new`](Self::new)).
    pub fn recover(
        comparator: C,
        scheduler: Parallelism,
        limits: ServiceLimits,
        config: JournalConfig,
        mut stores: Vec<Box<dyn JournalStore>>,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        assert!(!stores.is_empty(), "need at least one journal store");
        let shards = stores.len();
        let typed = |shard, key: SessionKey, error| RecoveryError::Session {
            shard,
            tenant: key.tenant,
            session: key.session,
            error,
        };
        let mut report = RecoveryReport::default();
        let mut replay = Replay::new(Arc::new(comparator));
        for (shard, store) in stores.iter_mut().enumerate() {
            let stored = store
                .load()
                .map_err(|error| RecoveryError::Store { shard, error })?;
            // The base is strict: exactly one intact checkpoint record
            // (or empty for a never-checkpointed store). Installs are
            // atomic, so anything else is corruption, not a torn write.
            if !stored.base.is_empty() {
                let scan = journal::scan(&stored.base)
                    .map_err(|error| RecoveryError::Journal { shard, error })?;
                let strict = !scan.torn && scan.records.len() == 1;
                let checkpoint = strict
                    .then(|| scan.records.into_iter().next().expect("one record").1)
                    .and_then(|record| match record {
                        JournalRecord::Checkpoint { seq_floor, sessions } => {
                            Some((seq_floor, sessions))
                        }
                        _ => None,
                    });
                let Some((seq_floor, checkpointed)) = checkpoint else {
                    return Err(RecoveryError::Journal {
                        shard,
                        error: journal::JournalError::Corrupt {
                            offset: 0,
                            what: "base is not exactly one intact checkpoint record",
                        },
                    });
                };
                replay.next_seq = replay.next_seq.max(seq_floor);
                for cp in checkpointed {
                    let key = SessionKey { tenant: cp.tenant, session: cp.session };
                    replay
                        .open(key, &cp.snapshot, cp.last_applied)
                        .map_err(|error| typed(shard, key, error))?;
                }
            }
            // The journal is torn-tolerant: scan stops at the longest
            // valid prefix when the tail is a partial write.
            let scan = journal::scan(&stored.journal)
                .map_err(|error| RecoveryError::Journal { shard, error })?;
            if scan.torn {
                report.torn_shards += 1;
                report.truncated_bytes += stored.journal.len() - scan.valid_len;
            }
            for (offset, record) in scan.records {
                if matches!(record, JournalRecord::Checkpoint { .. }) {
                    return Err(RecoveryError::Journal {
                        shard,
                        error: journal::JournalError::Corrupt {
                            offset,
                            what: "checkpoint record in a journal stream",
                        },
                    });
                }
                // `apply` passes over divergence digests: they carry no
                // state (replicas verify them).
                match replay.apply(record) {
                    Ok(()) => {}
                    // A create or restore a mid-crash checkpoint already
                    // covers.
                    Err((_, ServiceError::SessionExists { .. })) => {}
                    Err((key, error)) => return Err(typed(shard, key, error)),
                }
            }
        }
        report.sessions = replay.sessions.len();
        report.replayed_ops = replay.replayed_ops;
        report.deduped_ops = replay.deduped_ops;
        report.dropped_ops = replay.dropped_ops;
        report.next_seq = replay.next_seq;
        let service = Self::install_replay(replay, shards, scheduler, limits)
            .map_err(|(key, error)| typed(shard_for(key, shards), key, error))?;
        service.stats.record_recovery(
            report.replayed_ops as u64,
            report.torn_shards as u64,
            report.truncated_bytes as u64,
        );
        // A fresh checkpoint everywhere makes the recovered state — and
        // the truncation of any torn tail — durable before the service
        // accepts new work.
        service
            .attach_journals(config, stores)
            .map_err(|(shard, error)| RecoveryError::Checkpoint { shard, error })?;
        Ok((service, report))
    }

    /// Builds an unjournaled service over `replay`'s comparator and
    /// sessions — the install step recovery and follower promotion
    /// share. Sessions go in key order, so spill decisions are
    /// deterministic when the set exceeds residency capacity, each keeps
    /// its applied mark, and the seq counter resumes past every replayed
    /// op. On failure, names the session whose install failed.
    pub(crate) fn install_replay(
        replay: Replay<C>,
        shards: usize,
        scheduler: Parallelism,
        limits: ServiceLimits,
    ) -> Result<Self, (SessionKey, ServiceError)> {
        let service = Self::from_arc(replay.comparator, shards, scheduler, limits);
        service.seq.store(replay.next_seq, Ordering::Relaxed);
        for (key, (session, last_applied)) in replay.sessions {
            let idx = service.shard_of(key);
            let tick = service.tick();
            let mut guard = service.shard(idx);
            service
                .insert_locked(&mut guard, idx, key, session, tick)
                .map_err(|error| (key, error))?;
            if let Some(h) = guard.sessions.get_mut(&key) {
                h.last_applied = last_applied;
            }
        }
        Ok(service)
    }
}

/// What [`SessionService::recover`] rebuilt, for operators and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Sessions alive after recovery (checkpointed + created − closed).
    pub sessions: usize,
    /// Journal ops executed during replay.
    pub replayed_ops: usize,
    /// Journal ops skipped because a checkpoint already covered them
    /// (seq at or below the session's applied mark) — the idempotence
    /// path a crash between checkpoint-install and journal-reset relies
    /// on.
    pub deduped_ops: usize,
    /// Journal ops addressed to sessions that no longer existed (closed
    /// in an earlier record); the live run answered these with typed
    /// errors and no state change.
    pub dropped_ops: usize,
    /// Shards whose journal ended in a torn (partially written) record;
    /// the tail was truncated and the truncation made durable.
    pub torn_shards: usize,
    /// Total torn-tail bytes truncated across all shards.
    pub truncated_bytes: usize,
    /// Where the global seq counter resumes — strictly above every
    /// recovered ticket.
    pub next_seq: u64,
}

/// The shard of `key` among `shards` — a pure function of the key, so
/// a replica, a recovered service and the leader place it alike.
pub(crate) fn shard_for(key: SessionKey, shards: usize) -> usize {
    (stream_seed(key.tenant, key.session) % shards as u64) as usize
}

/// The one path from journal records to session state, shared by
/// [`SessionService::recover`] and the replication follower; both
/// install the result through [`SessionService::install_replay`]. What
/// differs stays at the call sites: recovery skips a create or restore
/// the replay already holds (a mid-crash checkpoint covers it) and digest
/// records, while the follower fails on the first and verifies the
/// second.
pub(crate) struct Replay<C: ScratchThreeWayComparator + Send + Sync> {
    comparator: Arc<C>,
    /// Replayed sessions, each with its applied-seq mark, in key order.
    pub(crate) sessions: BTreeMap<SessionKey, (ClusterSession<SharedComparator<C>>, Option<u64>)>,
    /// Strictly above every replayed op seq (and every checkpoint's seq
    /// floor): where the installed service's counter resumes.
    pub(crate) next_seq: u64,
    /// Ops executed.
    pub(crate) replayed_ops: usize,
    /// Ops at or below their session's applied mark, skipped.
    pub(crate) deduped_ops: usize,
    /// Ops addressed to a closed (or never durable) session, or after a
    /// `Close` in their group: the live run answered them with typed
    /// errors and no state change, and dropping them replays exactly
    /// that.
    pub(crate) dropped_ops: usize,
    /// Replay discards responses; scratch counters keep `run_op` honest
    /// without polluting the installed service's stats.
    scratch: StatCounters,
}

impl<C: ScratchThreeWayComparator + Send + Sync> Replay<C> {
    pub(crate) fn new(comparator: Arc<C>) -> Self {
        Replay {
            comparator,
            sessions: BTreeMap::new(),
            next_seq: 0,
            replayed_ops: 0,
            deduped_ops: 0,
            dropped_ops: 0,
            scratch: StatCounters::default(),
        }
    }

    /// Opens `key` from snapshot bytes with its applied mark (a base
    /// checkpoint entry, or a `Restore` record with none).
    pub(crate) fn open(
        &mut self,
        key: SessionKey,
        snapshot: &[u8],
        last_applied: Option<u64>,
    ) -> Result<(), ServiceError> {
        self.vacant(key)?;
        let session = rebuild_session(&self.comparator, snapshot)?;
        self.sessions.insert(key, (session, last_applied));
        Ok(())
    }

    fn vacant(&self, key: SessionKey) -> Result<(), ServiceError> {
        if self.sessions.contains_key(&key) {
            return Err(ServiceError::SessionExists { tenant: key.tenant, session: key.session });
        }
        Ok(())
    }

    /// Replays one journal record; a `Create` or `Restore` for a key
    /// the replay already holds fails with `SessionExists`. Op-level
    /// typed errors are the leader's own behavior, replayed bit for bit
    /// (the state change, if any, is identical), so they are not replay
    /// failures. `Checkpoint` and `Digest` records carry no session
    /// state; the callers vet them.
    pub(crate) fn apply(&mut self, record: JournalRecord) -> Result<(), (SessionKey, ServiceError)> {
        match record {
            JournalRecord::Create { tenant, session, spec } => {
                let key = SessionKey { tenant, session };
                self.vacant(key).map_err(|e| (key, e))?;
                let built = build_session(&self.comparator, &spec).map_err(|e| (key, e))?;
                self.sessions.insert(key, (built, None));
            }
            JournalRecord::Restore { tenant, session, snapshot } => {
                let key = SessionKey { tenant, session };
                self.open(key, &snapshot, None).map_err(|e| (key, e))?;
            }
            JournalRecord::Ops { tenant, session, first_seq, ops } => {
                self.next_seq = self.next_seq.max(first_seq + ops.len() as u64);
                let key = SessionKey { tenant, session };
                let total = ops.len();
                let Some((live, mark)) = self.sessions.get_mut(&key) else {
                    self.dropped_ops += total;
                    return Ok(());
                };
                for (i, op) in ops.into_iter().enumerate() {
                    let seq = first_seq + i as u64;
                    if mark.is_some_and(|mark| seq <= mark) {
                        self.deduped_ops += 1;
                        continue;
                    }
                    // Replay applies one op at a time and serves nothing
                    // meanwhile: each Score may use every hardware thread.
                    let result = run_op(live, op, Parallelism::auto(), &self.scratch);
                    *mark = Some(seq);
                    self.replayed_ops += 1;
                    if matches!(result, Ok(OpOutcome::Closed)) {
                        self.sessions.remove(&key);
                        self.dropped_ops += total - (i + 1);
                        break;
                    }
                }
            }
            JournalRecord::Checkpoint { .. } | JournalRecord::Digest { .. } => {}
        }
        Ok(())
    }
}

/// The typed shape checks every session source shares — admission,
/// restore, rehydration, and the [`Replay`] that recovery and follower
/// replication share — so no path builds a session another path would
/// reject, and none reaches a session constructor that panics or
/// over-allocates on tenant input.
fn check_session_shape(
    algorithms: usize,
    config: &ClusterConfig,
    criterion: &ConvergenceCriterion,
) -> Result<(), ServiceError> {
    if algorithms == 0 {
        return Err(ServiceError::NoAlgorithms);
    }
    if config.repetitions == 0 {
        return Err(ServiceError::NoRepetitions);
    }
    let bytes = algorithms
        .checked_mul(algorithms)
        .and_then(|cells| cells.checked_mul(std::mem::size_of::<Option<Outcome>>()))
        .and_then(|slots| slots.checked_add(std::mem::size_of::<ComparisonCache>()))
        .and_then(|per_rep| per_rep.checked_mul(config.repetitions));
    if bytes.is_none_or(|b| b > MAX_SESSION_CACHE_BYTES) {
        return Err(ServiceError::SessionTooLarge {
            algorithms,
            repetitions: config.repetitions,
        });
    }
    criterion.try_validate()?;
    Ok(())
}

/// Validates a `Create` spec and builds the session — the admission
/// path, shared with [`Replay`] so a replica applies exactly what the
/// leader admitted.
pub(crate) fn build_session<C: ScratchThreeWayComparator + Send + Sync>(
    comparator: &Arc<C>,
    spec: &SessionSpec,
) -> Result<ClusterSession<SharedComparator<C>>, ServiceError> {
    check_session_shape(spec.algorithms, &spec.config, &spec.criterion)?;
    Ok(ClusterSession::with_criterion(
        spec.algorithms,
        SharedComparator(Arc::clone(comparator)),
        spec.config,
        spec.seed,
        spec.criterion,
    ))
}

/// A live session's canonical snapshot-codec export, RNG streams
/// excluded — the bytes every spill, checkpoint, journaled restore and
/// `Snapshot` op writes, and the inverse of [`rebuild_session`].
fn export_session<C: ScratchThreeWayComparator + Send + Sync>(
    session: &ClusterSession<SharedComparator<C>>,
) -> Vec<u8> {
    snapshot::encode(&SessionSnapshot {
        config: session.config(),
        seed: session.seed(),
        criterion: session.criterion(),
        state: session.export_state(),
        rng_states: Vec::new(),
    })
}

/// The divergence-detection checksum of a live session: word-wise FNV-1a
/// 64 (the frame checksum) over
/// its [`export_session`] bytes — exactly what a spill or checkpoint
/// writes, so the checksum is bit-exact across replicas, residency
/// states, and processes.
pub(crate) fn session_checksum<C: ScratchThreeWayComparator + Send + Sync>(
    session: &ClusterSession<SharedComparator<C>>,
) -> u64 {
    fnv1a64_words(FNV_OFFSET, &export_session(session))
}

/// Decodes [`export_session`] (or any checkpoint/restore) bytes back into
/// a live session, with the same typed validation as the admission path.
pub(crate) fn rebuild_session<C: ScratchThreeWayComparator + Send + Sync>(
    comparator: &Arc<C>,
    bytes: &[u8],
) -> Result<ClusterSession<SharedComparator<C>>, ServiceError> {
    restore_session_state(comparator, snapshot::decode(bytes)?)
}

/// Rebuilds a live session from a decoded or caller-built snapshot, with
/// the same typed validation as the admission path.
fn restore_session_state<C: ScratchThreeWayComparator + Send + Sync>(
    comparator: &Arc<C>,
    snap: SessionSnapshot,
) -> Result<ClusterSession<SharedComparator<C>>, ServiceError> {
    check_session_shape(snap.state.samples.len(), &snap.config, &snap.criterion)?;
    ClusterSession::try_restore(
        SharedComparator(Arc::clone(comparator)),
        snap.config,
        snap.seed,
        snap.criterion,
        snap.state,
    )
    .map_err(|what| ServiceError::BadSnapshot(SnapshotError::Malformed(what)))
}

impl<C: ScratchThreeWayComparator + Send + Sync> std::fmt::Debug for SessionService<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionService")
            .field("shards", &self.shards.len())
            .field("sessions", &self.num_sessions())
            .field("limits", &self.limits)
            .field("stats", &self.stats.snapshot())
            .finish_non_exhaustive()
    }
}

/// Registers one executing batch in the service's counter for as long as
/// it lives, so a batch that panics still leaves the count right.
struct ExecutingBatch<'a> {
    counter: &'a AtomicUsize,
    /// Batches that were already executing when this one entered.
    others: usize,
}

impl<'a> ExecutingBatch<'a> {
    fn enter(counter: &'a AtomicUsize) -> Self {
        // Relaxed: the count sizes a thread grant and publishes no data.
        let others = counter.fetch_add(1, Ordering::Relaxed);
        ExecutingBatch { counter, others }
    }
}

impl Drop for ExecutingBatch<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The parallelism one job's `Score` runs on: `hardware` threads less
/// one per batch among the `others` executing (at least 1), split evenly
/// over the threads `scheduler` fans this batch's `jobs` across.
fn score_grant(hardware: usize, others: usize, scheduler: Parallelism, jobs: usize) -> Parallelism {
    let budget = hardware.saturating_sub(others).max(1);
    Parallelism::with_threads((budget / scheduler.effective_threads(jobs)).max(1))
}

/// Executes one session's op group in `(tenant, seq)` order. `session` is
/// `None` when the registry entry was gone at checkout (every op fails
/// typed); it is set to `None` on `Close` so check-in drops the entry.
fn run_session_ops<C: ScratchThreeWayComparator + Send + Sync>(
    key: SessionKey,
    session: &mut Option<ClusterSession<SharedComparator<C>>>,
    ops: Vec<(u64, SessionOp)>,
    grant: Parallelism,
    stats: &StatCounters,
) -> Vec<OpResponse> {
    let mut responses = Vec::with_capacity(ops.len());
    for (seq, op) in ops {
        let result = match session.as_mut() {
            None => Err(ServiceError::SessionUnknown {
                tenant: key.tenant,
                session: key.session,
            }),
            Some(live) => run_op(live, op, grant, stats),
        };
        let closed = matches!(result, Ok(OpOutcome::Closed));
        responses.push(OpResponse { key, seq, result });
        if closed {
            *session = None;
        }
    }
    responses
}

/// Executes one op against a live session, a `Score` on `parallelism`
/// (the tables do not depend on it). Never panics on tenant input:
/// index and readiness preconditions are re-checked here (defense in
/// depth — `submit` validated indices already).
pub(crate) fn run_op<C: ScratchThreeWayComparator + Send + Sync>(
    session: &mut ClusterSession<SharedComparator<C>>,
    op: SessionOp,
    parallelism: Parallelism,
    stats: &StatCounters,
) -> Result<OpOutcome, ServiceError> {
    let p = session.num_algorithms();
    match op {
        SessionOp::Push { alg, value } => {
            if alg >= p {
                return Err(ServiceError::AlgorithmOutOfRange { alg, p });
            }
            session.push(alg, value)?;
            Ok(OpOutcome::Ingested)
        }
        SessionOp::Extend { alg, values } => {
            if alg >= p {
                return Err(ServiceError::AlgorithmOutOfRange { alg, p });
            }
            // On a non-finite value mid-wave the values before it stay
            // ingested (the `ClusterSession::extend` contract) and the
            // error is reported; determinism is unaffected since the
            // ingested prefix is the same on every replay.
            session.extend(alg, &values)?;
            Ok(OpOutcome::Ingested)
        }
        SessionOp::ExtendAll { alg, values } => {
            if alg >= p {
                return Err(ServiceError::AlgorithmOutOfRange { alg, p });
            }
            // All-or-nothing: validation happens before any mutation, so
            // a rejected wave leaves the session (and its comparison
            // caches) exactly as it was — on replay too.
            session.try_extend_all(alg, &values)?;
            Ok(OpOutcome::Ingested)
        }
        SessionOp::Score => {
            let missing = (0..p).filter(|&i| session.sample(i).is_none()).count();
            if missing > 0 {
                return Err(ServiceError::NotReadyToScore { missing });
            }
            StatCounters::bump(&stats.waves);
            let table = session.score_with(parallelism).clone();
            Ok(OpOutcome::Scored(WaveOutcome {
                clustering: table.final_assignment(),
                table,
                converged: session.converged(),
                waves: session.waves(),
                stable_run: session.stable_run(),
            }))
        }
        SessionOp::Snapshot => Ok(OpOutcome::Snapshot(export_session(session))),
        SessionOp::Close => Ok(OpOutcome::Closed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(hardware, others, scheduler threads, jobs) → Score threads`.
    #[test]
    fn score_grant_splits_the_idle_threads() {
        let cases = [
            // One scheduler worker per batch: the batch gets every idle thread.
            (2, 0, 1, 1, 2),
            (2, 1, 1, 1, 1),
            (2, 2, 1, 1, 1),
            (2, 0, 1, 4, 2),
            (2, 1, 1, 4, 1),
            (2, 2, 1, 4, 1),
            // Jobs fanned over 2 scheduler workers share the budget.
            (2, 0, 2, 1, 2),
            (2, 0, 2, 4, 1),
            (2, 1, 2, 4, 1),
            (2, 2, 2, 4, 1),
            (4, 0, 2, 1, 4),
            (4, 1, 2, 1, 3),
            (4, 2, 2, 1, 2),
            (4, 0, 2, 4, 2),
            (4, 1, 2, 4, 1),
            (4, 2, 2, 4, 1),
            // More batches than threads still leaves each Score one.
            (1, 5, 3, 4, 1),
        ];
        for (hardware, others, scheduler, jobs, want) in cases {
            let got = score_grant(hardware, others, Parallelism::with_threads(scheduler), jobs);
            assert_eq!(
                got,
                Parallelism::with_threads(want),
                "hardware={hardware} others={others} scheduler={scheduler} jobs={jobs}"
            );
        }
    }

    #[test]
    fn executing_count_survives_a_panicking_batch() {
        let counter = AtomicUsize::new(0);
        let outer = ExecutingBatch::enter(&counter);
        assert_eq!(outer.others, 0);
        let unwound = std::panic::catch_unwind(|| {
            let inner = ExecutingBatch::enter(&counter);
            assert_eq!(inner.others, 1);
            panic!("batch failed");
        });
        assert!(unwound.is_err());
        assert_eq!(counter.load(Ordering::Relaxed), 1);
        drop(outer);
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }
}
