//! The pipelined front half of the service: background scheduler threads
//! plus per-tenant response mailboxes.
//!
//! [`SessionService`] by itself is passive — someone must call
//! [`run_batch`](SessionService::run_batch), and with one synchronous
//! driver every tenant's latency is convoyed behind the slowest session
//! in the batch (the PR-5 bench shows p99 growing linearly with tenant
//! count for exactly this reason). [`ServiceRuntime`] fixes the shape of
//! the problem rather than the constant: it spawns `N` **scheduler
//! threads**, thread `t` owning the shards `s ≡ t (mod N)`, each draining
//! only its own shards via
//! [`run_shard_batch`](SessionService::run_shard_batch) on a bounded
//! cadence. A slow session now delays its own shard's batch — tenants
//! hashed to other shards keep their latency regardless.
//!
//! # Run to completion
//!
//! A group whose shard queue holds no `Score` does not wait for a
//! scheduler thread: [`submit_all`](RuntimeHandle::submit_all) runs the
//! shard's batch on the submitting thread and delivers it before it
//! returns, so an ingest request costs no thread handoff (no kick, no
//! condvar wake). It is the same batch a scheduler thread would run, so
//! checkout and push-back keep each session's `(tenant, seq)` order. It
//! holds no `Score`, so it needs no thread grant, and it does not count
//! toward the executing batches that size other batches' grants: a
//! `Score` batch keeps the grant it starts with for milliseconds, and an
//! ingest batch beside it ends within microseconds.
//!
//! A `Score` never runs on a submitting thread: the Score-free check and
//! the drain happen under one shard lock, and a queue holding a `Score`
//! is left to its scheduler thread, as is anything a batch had to push
//! back because another batch held its session. Every drainer checks the
//! drained sessions out under that same lock, so no op is ever out of the
//! queue without its session held: a session's pipelined groups run in
//! seq order whichever threads drain them, and a compaction never misses
//! a drained op. Synchronous mode is untouched. The wire `Submit` handler
//! then hands back the group's responses with its tickets (see
//! [`crate::wire::Response::Submitted`]).
//!
//! # Journal flushes
//!
//! On a journaled service with `group_commit` g > 1, the fsync at the
//! group-commit boundary is the shard's scheduler thread's job, not the
//! submitting thread's. The admission that brings its shard's unsynced
//! ops to g marks the shard's flush due, and
//! [`submit_all`](RuntimeHandle::submit_all) kicks the owning scheduler
//! thread once its inline batch is delivered. A flush kick alone runs no
//! batch, so the woken thread cannot drain a group whose submitting
//! thread is about to run it. After delivering any batch it ran, the
//! thread takes each owned shard's store under the shard lock, releases
//! the shard lock, and fsyncs holding only the store (lock order: shard
//! → store). Admissions to the shard go on meanwhile: their records wait
//! in an in-memory tail, which the flush writes to the store in
//! admission order when it ends. So the journal stream is byte-identical
//! for a given admission order.
//!
//! The loss window stays bounded. An admission that would leave 2g or
//! more of its shard's ops unsynced makes them durable itself before it
//! returns, so an acknowledged op is durable once 2g more ops reach its
//! shard, where synchronous mode and a bare [`SessionService`] make it
//! durable once g do. A failed flush seals the shard, as a failed inline
//! sync does. A clean [`shutdown`](ServiceRuntime::shutdown) joins the
//! scheduler threads, runs every due flush, and only then lets a
//! shipper thread (see
//! [`attach_shipper`](ServiceRuntime::attach_shipper)) make its final
//! pump. Once shutdown has begun, an admission through a surviving
//! handle that makes a flush due runs it itself. Everything outside
//! [`submit_all`](RuntimeHandle::submit_all) (creates, restores,
//! digests, compactions, [`flush_journals`](RuntimeHandle::flush_journals))
//! syncs in place, after writing the tail. At `group_commit` 1 and in
//! synchronous mode nothing is deferred, and the store sees the same
//! calls as on a bare service.
//!
//! # Mailboxes
//!
//! Batch responses are routed into a per-tenant **mailbox** instead of
//! being returned to whoever happened to drain the batch. Callers collect
//! with [`collect_ready`](RuntimeHandle::collect_ready) (non-blocking) or
//! [`await_responses`](RuntimeHandle::await_responses) (blocking with a
//! deadline, satisfied by a condvar signal from the delivering worker).
//! Mailboxes are bounded ([`RuntimeConfig::mailbox_cap`]); a tenant that
//! never collects loses its **oldest** responses first — the runtime
//! never blocks a scheduler thread on a lazy client.
//!
//! # Determinism
//!
//! The runtime only moves *when* batches are cut, never *what* a session
//! computes: a session's ops still execute in `(tenant, seq)` order
//! inside whichever batch drains them, so served tables remain
//! bit-identical to direct [`ClusterSession`](relperf_core::session::ClusterSession)
//! drives for any thread count and cadence — property-tested in
//! `tests/pipeline.rs`.
//!
//! # Score threads
//!
//! Each batch a scheduler thread runs is granted the hardware threads
//! minus one per other scheduler (or synchronous) batch executing when
//! it starts
//! ([`run_shard_batch`](SessionService::run_shard_batch)): when one
//! tenant is live, its `Score` spreads its repetitions over every core
//! (the scheduler thread works too, joined by spawned helpers); when
//! every scheduler thread is busy, each new `Score` runs on its own
//! thread. A batch keeps its grant until it ends, so the count
//! subtracts batches, not the threads they hold. The grant is the same
//! in synchronous mode, where batches run on the awaiting caller's
//! thread.
//!
//! # Synchronous mode
//!
//! `scheduler_threads == 0` spawns nothing: batches run inline inside
//! `await_responses` / `collect_ready` ("drive-on-drain"). This mode is
//! fully deterministic end to end — no timing anywhere — and is what the
//! fuzz and overload tests pin their golden values against.

use crate::error::{RecoveryError, ServiceError};
use crate::journal::{JournalConfig, JournalStore};
use crate::replication::{JournalShipper, SegmentTransport};
use crate::service::{
    OpResponse, RecoveryReport, SessionOp, SessionService, SessionSpec, SessionStatus,
    ServiceLimits,
};
use crate::stats::ServiceStats;
use relperf_core::cluster::Parallelism;
use relperf_measure::ScratchThreeWayComparator;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How the background scheduler is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Scheduler threads. Thread `t` owns shards `s ≡ t (mod threads)`;
    /// `0` means synchronous drive-on-drain mode (no threads, batches run
    /// inline in `await_responses` / `collect_ready`).
    pub scheduler_threads: usize,
    /// How long an idle scheduler thread sleeps between queue polls.
    /// A submission that leaves work for the scheduler unparks the owning
    /// thread immediately, so the cadence bounds wake-up latency only when
    /// the unpark signal is missed.
    pub cadence: Duration,
    /// Responses kept per tenant mailbox; beyond this the oldest are
    /// dropped (the runtime never blocks a worker on a lazy client).
    pub mailbox_cap: usize,
}

/// [`RuntimeConfig::mailbox_cap`]'s default. It also bounds each
/// tenant's [`WireClient`](crate::client::WireClient) stash, which cannot
/// see the server's setting.
pub(crate) const DEFAULT_MAILBOX_CAP: usize = 16384;

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            scheduler_threads: 2,
            cadence: Duration::from_millis(1),
            mailbox_cap: DEFAULT_MAILBOX_CAP,
        }
    }
}

/// Why a blocking runtime call gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeError {
    /// The runtime was shut down while the caller waited.
    Stopped,
    /// The deadline passed with `missing` awaited responses still
    /// undelivered (or, in synchronous mode, the queues drained dry
    /// without producing them — e.g. they were delivered to a different
    /// collector or dropped by a full mailbox).
    Timeout {
        /// Awaited responses still missing when the caller gave up.
        missing: usize,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Stopped => write!(f, "runtime stopped while waiting"),
            RuntimeError::Timeout { missing } => {
                write!(f, "gave up waiting with {missing} response(s) missing")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// State shared between the runtime owner, its scheduler threads, and any
/// number of [`RuntimeHandle`] clones.
struct Shared<C: ScratchThreeWayComparator + Send + Sync> {
    service: SessionService<C>,
    config: RuntimeConfig,
    /// Per-tenant delivered-response queues, with `delivered` signalled on
    /// every non-empty delivery.
    mailboxes: Mutex<HashMap<u64, VecDeque<OpResponse>>>,
    delivered: Condvar,
    /// Set first at shutdown: the scheduler threads stop, and submits
    /// stop deferring journal syncs to them.
    stop: AtomicBool,
    /// Set once the scheduler threads are joined and the due journal
    /// flushes ran: the shipper threads make their final pump.
    stop_shipping: AtomicBool,
    /// Scheduler thread handles for submit-side unparking (empty in
    /// synchronous mode).
    workers: Mutex<Vec<Thread>>,
    /// One word of [`WAKE_BATCH`] / [`WAKE_FLUSH`] bits per scheduler
    /// thread: what the kicks since its last look asked for. A kick's
    /// unpark token can be taken by a park inside a store call, so the
    /// thread reads these before it parks.
    wakes: Box<[AtomicU8]>,
}

/// A kick asked for a batch.
const WAKE_BATCH: u8 = 1;
/// A kick asked for the due journal flushes only.
const WAKE_FLUSH: u8 = 2;

impl<C: ScratchThreeWayComparator + Send + Sync> Shared<C> {
    fn sync_mode(&self) -> bool {
        self.config.scheduler_threads == 0
    }

    /// Routes one batch's responses into the tenants' mailboxes.
    fn deliver(&self, responses: Vec<OpResponse>) {
        if responses.is_empty() {
            return;
        }
        let mut boxes = self.mailboxes.lock().expect("mailboxes poisoned");
        for r in responses {
            let mailbox = boxes.entry(r.key.tenant).or_default();
            mailbox.push_back(r);
            while mailbox.len() > self.config.mailbox_cap {
                mailbox.pop_front();
            }
        }
        drop(boxes);
        self.delivered.notify_all();
    }

    /// Wakes the scheduler thread owning `shard` (no-op in sync mode) to
    /// run its due journal flushes and, with `batch`, a batch.
    fn kick(&self, shard: usize, batch: bool) {
        let workers = self.workers.lock().expect("workers poisoned");
        if !workers.is_empty() {
            let t = shard % workers.len();
            let wake = if batch { WAKE_BATCH } else { WAKE_FLUSH };
            self.wakes[t].fetch_or(wake, Ordering::Release);
            workers[t].unpark();
        }
    }

    /// Runs one inline batch over every shard and delivers it —
    /// synchronous mode's scheduling step. Returns how many responses
    /// the batch produced.
    fn drive_once(&self) -> usize {
        let responses = self.service.run_batch();
        let n = responses.len();
        self.deliver(responses);
        n
    }
}

/// Counts how many of `seqs` are not yet in the tenant's mailbox.
fn missing_count(
    boxes: &HashMap<u64, VecDeque<OpResponse>>,
    tenant: u64,
    seqs: &[u64],
) -> usize {
    match boxes.get(&tenant) {
        None => seqs.len(),
        Some(mailbox) => seqs
            .iter()
            .filter(|s| !mailbox.iter().any(|r| r.seq == **s))
            .count(),
    }
}

/// Moves exactly `seqs` out of the tenant's mailbox (all known present),
/// returning them sorted by seq; unrelated responses stay queued in
/// order. Nothing is cloned, so a large payload (a `Snapshot`'s bytes)
/// changes hands once.
fn extract(
    boxes: &mut HashMap<u64, VecDeque<OpResponse>>,
    tenant: u64,
    seqs: &[u64],
) -> Vec<OpResponse> {
    let queued = boxes.remove(&tenant).expect("caller verified presence");
    let (mut out, kept): (Vec<OpResponse>, Vec<OpResponse>) =
        queued.into_iter().partition(|r| seqs.contains(&r.seq));
    if !kept.is_empty() {
        boxes.insert(tenant, kept.into());
    }
    out.sort_by_key(|r| r.seq);
    out
}

/// The owning half of the pipelined runtime: holds the scheduler threads
/// and stops them on [`shutdown`](ServiceRuntime::shutdown) (or drop).
/// All request-side methods live on [`RuntimeHandle`], which this type
/// [`Deref`](std::ops::Deref)s to — wire servers clone handles freely.
pub struct ServiceRuntime<C: ScratchThreeWayComparator + Send + Sync + 'static> {
    handle: RuntimeHandle<C>,
    /// Scheduler threads.
    joins: Vec<JoinHandle<()>>,
    /// Shipper threads, stopped after the scheduler threads.
    shippers: Vec<JoinHandle<()>>,
}

/// A cheap cloneable reference to a running [`ServiceRuntime`] — the
/// submit/collect surface handed to wire connection handlers.
pub struct RuntimeHandle<C: ScratchThreeWayComparator + Send + Sync>(Arc<Shared<C>>);

impl<C: ScratchThreeWayComparator + Send + Sync> Clone for RuntimeHandle<C> {
    fn clone(&self) -> Self {
        RuntimeHandle(Arc::clone(&self.0))
    }
}

impl<C: ScratchThreeWayComparator + Send + Sync + 'static> ServiceRuntime<C> {
    /// Wraps `service` and starts the scheduler threads (none in
    /// synchronous mode — see the [module docs](self)).
    pub fn start(service: SessionService<C>, config: RuntimeConfig) -> Self {
        let shared = Arc::new(Shared {
            service,
            config,
            mailboxes: Mutex::new(HashMap::new()),
            delivered: Condvar::new(),
            stop: AtomicBool::new(false),
            stop_shipping: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            wakes: (0..config.scheduler_threads).map(|_| AtomicU8::new(0)).collect(),
        });
        let mut joins = Vec::new();
        let n = config.scheduler_threads;
        for t in 0..n {
            let shard_count = shared.service.num_shards();
            let worker = Arc::clone(&shared);
            let join = thread::Builder::new()
                .name(format!("relperf-sched-{t}"))
                .spawn(move || {
                    // Thread t polls shards t, t+n, t+2n, … — a fixed
                    // partition, so a slow shard only delays its own
                    // owner. Submitting threads drain Score-free queues
                    // too (see "Run to completion"); a shard's queue is
                    // drained and its sessions checked out under one
                    // shard lock, so racing drainers keep each session's
                    // ops in order.
                    //
                    // It polls when kicked for a batch, once a cadence
                    // has passed since its last poll (the first one
                    // included, so a group submitted right after start
                    // runs inline; `start` kicks it when its shards
                    // already hold ops), and again at once after a
                    // non-empty batch. Every wake ends with the owned
                    // shards' due journal flushes (see "Journal
                    // flushes"); a flush kick alone runs no batch.
                    let owned: Vec<usize> = (t..shard_count).step_by(n).collect();
                    let cadence = worker.config.cadence;
                    let mut polled = Instant::now();
                    let mut idle = true;
                    loop {
                        let mut wake = worker.wakes[t].swap(0, Ordering::AcqRel);
                        if idle && wake == 0 && !worker.stop.load(Ordering::Acquire) {
                            thread::park_timeout(cadence.saturating_sub(polled.elapsed()));
                            wake = worker.wakes[t].swap(0, Ordering::AcqRel);
                        }
                        if worker.stop.load(Ordering::Acquire) {
                            break;
                        }
                        if !idle || wake & WAKE_BATCH != 0 || polled.elapsed() >= cadence {
                            polled = Instant::now();
                            let responses = worker.service.run_shard_batch(owned.iter().copied());
                            idle = responses.is_empty();
                            worker.deliver(responses);
                        }
                        for &idx in &owned {
                            worker.service.run_due_flush(idx);
                        }
                    }
                })
                .expect("spawn scheduler thread");
            joins.push(join);
        }
        {
            let mut workers = shared.workers.lock().expect("workers poisoned");
            *workers = joins.iter().map(|j| j.thread().clone()).collect();
        }
        for idx in 0..shared.service.num_shards() {
            if shared.service.shard_queue_len(idx) > 0 {
                shared.kick(idx, true);
            }
        }
        ServiceRuntime {
            handle: RuntimeHandle(shared),
            joins,
            shippers: Vec::new(),
        }
    }

    /// Rebuilds a journaled service from its durable stores
    /// ([`SessionService::recover`]) and starts a runtime over it in one
    /// move — the restart path of a crashed pipelined deployment.
    pub fn recover(
        comparator: C,
        scheduler: Parallelism,
        limits: ServiceLimits,
        journal_config: JournalConfig,
        stores: Vec<Box<dyn JournalStore>>,
        runtime_config: RuntimeConfig,
    ) -> Result<(Self, RecoveryReport), RecoveryError> {
        let (service, report) =
            SessionService::recover(comparator, scheduler, limits, journal_config, stores)?;
        Ok((Self::start(service, runtime_config), report))
    }

    /// A cloneable submit/collect handle (e.g. one per wire connection).
    pub fn handle(&self) -> RuntimeHandle<C> {
        self.handle.clone()
    }

    /// Starts a background **shipper thread** that pumps `shipper`
    /// through `transport` every `interval` until shutdown (with one
    /// final pump after the scheduler threads are joined and every due
    /// journal flush ran, so a cleanly stopped leader leaves nothing
    /// durable unshipped). Build the pair with
    /// [`JournalShipper::wrap_stores`] and hand the wrapped stores to the
    /// service before starting the runtime. Ship/ack progress lands in
    /// [`ServiceStats::segments_shipped`] /
    /// [`segments_acked`](ServiceStats::segments_acked); per-lane
    /// delivery failures are retried on the next pump (see
    /// [`JournalShipper::pump`]).
    pub fn attach_shipper<T: SegmentTransport + Send + 'static>(
        &mut self,
        mut shipper: JournalShipper,
        mut transport: T,
        interval: Duration,
    ) {
        let shared = Arc::clone(&self.handle.0);
        let join = thread::Builder::new()
            .name("relperf-shipper".to_string())
            .spawn(move || {
                loop {
                    let stopping = shared.stop_shipping.load(Ordering::Acquire);
                    let report = shipper.pump(&mut transport);
                    let counters = shared.service.stat_counters();
                    counters
                        .segments_shipped
                        .fetch_add(report.cut as u64, Ordering::Relaxed);
                    counters
                        .segments_acked
                        .fetch_add(report.acked as u64, Ordering::Relaxed);
                    if stopping {
                        break;
                    }
                    thread::park_timeout(interval);
                }
            })
            .expect("spawn shipper thread");
        self.shippers.push(join);
    }

    /// Stops the scheduler threads and joins them, runs every due journal
    /// flush (see "Journal flushes"), and only then stops the shipper
    /// threads, whose final pump ships what those flushes made durable.
    /// Queued-but-undrained ops stay queued in the underlying service;
    /// undelivered mailbox contents are dropped with the runtime.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let shared = &self.handle.0;
        shared.stop.store(true, Ordering::Release);
        {
            let workers = shared.workers.lock().expect("workers poisoned");
            for w in workers.iter() {
                w.unpark();
            }
        }
        shared.delivered.notify_all();
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
        for idx in 0..shared.service.num_shards() {
            shared.service.run_due_flush(idx);
        }
        shared.stop_shipping.store(true, Ordering::Release);
        for join in self.shippers.drain(..) {
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

impl<C: ScratchThreeWayComparator + Send + Sync + 'static> Drop for ServiceRuntime<C> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

impl<C: ScratchThreeWayComparator + Send + Sync + 'static> std::ops::Deref for ServiceRuntime<C> {
    type Target = RuntimeHandle<C>;

    fn deref(&self) -> &RuntimeHandle<C> {
        &self.handle
    }
}

impl<C: ScratchThreeWayComparator + Send + Sync> RuntimeHandle<C> {
    /// The wrapped service, for admission calls the runtime does not
    /// intercept (status reads, stats, limits).
    pub fn service(&self) -> &SessionService<C> {
        &self.0.service
    }

    /// [`SessionService::create_session`] pass-through.
    pub fn create_session(
        &self,
        tenant: u64,
        session: u64,
        spec: SessionSpec,
    ) -> Result<(), ServiceError> {
        self.0.service.create_session(tenant, session, spec)
    }

    /// [`SessionService::restore_session`] pass-through.
    pub fn restore_session(
        &self,
        tenant: u64,
        session: u64,
        bytes: &[u8],
    ) -> Result<(), ServiceError> {
        self.0.service.restore_session(tenant, session, bytes)
    }

    /// Enqueues one op like [`submit_all`](Self::submit_all). The
    /// response lands in the tenant's mailbox.
    pub fn submit(&self, tenant: u64, session: u64, op: SessionOp) -> Result<u64, ServiceError> {
        let seqs = self.submit_all(tenant, session, vec![op])?;
        Ok(seqs[0])
    }

    /// Atomic group enqueue ([`SessionService::submit_all`]), then, in
    /// threaded mode, the shard's batch: run here and delivered before
    /// this returns when the shard queue holds no `Score` (see [Run to
    /// completion](self#run-to-completion)), otherwise left to the owning
    /// scheduler thread, which is woken. In threaded mode the journal
    /// sync at the group-commit boundary is that thread's too (see
    /// [Journal flushes](self#journal-flushes)), and it is woken after
    /// the batch. Synchronous mode only enqueues, and syncs in place.
    pub fn submit_all(
        &self,
        tenant: u64,
        session: u64,
        ops: Vec<SessionOp>,
    ) -> Result<Vec<u64>, ServiceError> {
        let threaded = !self.0.sync_mode();
        let (seqs, flush_due) = self.0.service.submit_group(tenant, session, ops, threaded)?;
        if !seqs.is_empty() && threaded {
            let shard = self.0.service.shard_index(tenant, session);
            let queued = match self.0.service.run_score_free_batch(shard) {
                Some((responses, queued)) => {
                    self.0.deliver(responses);
                    queued
                }
                None => true,
            };
            if queued || flush_due {
                self.0.kick(shard, queued);
            }
            if flush_due && self.0.stop.load(Ordering::Acquire) {
                // Shutdown has begun, so the scheduler thread may be gone
                // before it flushes: flush here.
                self.0.service.run_due_flush(shard);
            }
        }
        Ok(seqs)
    }

    /// Moves the responses to `seqs` out of the tenant's mailbox, sorted
    /// by seq, when every one of them is already there; otherwise takes
    /// nothing and returns an empty list. The wire `Submit` handler sends
    /// what this returns with the tickets.
    pub(crate) fn take_ready(&self, tenant: u64, seqs: &[u64]) -> Vec<OpResponse> {
        let mut boxes = self.0.mailboxes.lock().expect("mailboxes poisoned");
        if seqs.is_empty() || missing_count(&boxes, tenant, seqs) > 0 {
            return Vec::new();
        }
        extract(&mut boxes, tenant, seqs)
    }

    /// Non-blocking drain of the tenant's whole mailbox (synchronous mode
    /// runs one inline batch first so there is something to drain).
    pub fn collect_ready(&self, tenant: u64) -> Vec<OpResponse> {
        if self.0.sync_mode() {
            self.0.drive_once();
        }
        let mut boxes = self.0.mailboxes.lock().expect("mailboxes poisoned");
        boxes
            .remove(&tenant)
            .map(|mailbox| mailbox.into())
            .unwrap_or_default()
    }

    /// Blocks until every ticket in `seqs` has a delivered response (then
    /// removes and returns exactly those, sorted by seq — unrelated
    /// responses stay queued), the runtime stops, or `timeout` passes.
    ///
    /// Synchronous mode ignores `timeout` and instead drives inline
    /// batches until the tickets resolve or the queues run dry.
    pub fn await_responses(
        &self,
        tenant: u64,
        seqs: &[u64],
        timeout: Duration,
    ) -> Result<Vec<OpResponse>, RuntimeError> {
        if seqs.is_empty() {
            return Ok(Vec::new());
        }
        if self.0.sync_mode() {
            return self.await_sync(tenant, seqs);
        }
        let deadline = Instant::now() + timeout;
        let mut boxes = self.0.mailboxes.lock().expect("mailboxes poisoned");
        loop {
            let missing = missing_count(&boxes, tenant, seqs);
            if missing == 0 {
                return Ok(extract(&mut boxes, tenant, seqs));
            }
            if self.0.stop.load(Ordering::Acquire) {
                return Err(RuntimeError::Stopped);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RuntimeError::Timeout { missing });
            }
            let (guard, _) = self
                .0
                .delivered
                .wait_timeout(boxes, deadline - now)
                .expect("mailboxes poisoned");
            boxes = guard;
        }
    }

    /// Synchronous-mode wait: drive inline batches until the tickets
    /// resolve; dry queues with tickets still missing is a typed timeout.
    fn await_sync(&self, tenant: u64, seqs: &[u64]) -> Result<Vec<OpResponse>, RuntimeError> {
        loop {
            {
                let mut boxes = self.0.mailboxes.lock().expect("mailboxes poisoned");
                let missing = missing_count(&boxes, tenant, seqs);
                if missing == 0 {
                    return Ok(extract(&mut boxes, tenant, seqs));
                }
                if self.0.stop.load(Ordering::Acquire) {
                    return Err(RuntimeError::Stopped);
                }
            }
            if self.0.drive_once() == 0 {
                let boxes = self.0.mailboxes.lock().expect("mailboxes poisoned");
                let missing = missing_count(&boxes, tenant, seqs);
                if missing == 0 {
                    drop(boxes);
                    continue;
                }
                return Err(RuntimeError::Timeout { missing });
            }
        }
    }

    /// [`SessionService::session_status`] pass-through.
    pub fn session_status(&self, tenant: u64, session: u64) -> Option<SessionStatus> {
        self.0.service.session_status(tenant, session)
    }

    /// [`SessionService::stats`] pass-through.
    pub fn stats(&self) -> ServiceStats {
        self.0.service.stats()
    }

    /// [`SessionService::flush_journals`] pass-through — force the group
    /// commit boundary before a planned shutdown.
    pub fn flush_journals(&self) -> Result<(), ServiceError> {
        self.0.service.flush_journals()
    }

    /// [`SessionService::compact_all`] pass-through.
    pub fn compact_all(&self) -> Result<usize, ServiceError> {
        self.0.service.compact_all()
    }

    /// [`SessionService::emit_digests`] pass-through — append divergence
    /// digests to every quiesced shard so downstream followers can audit
    /// their replayed state.
    pub fn emit_digests(&self) -> Result<usize, ServiceError> {
        self.0.service.emit_digests()
    }
}

impl<C: ScratchThreeWayComparator + Send + Sync> fmt::Debug for RuntimeHandle<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuntimeHandle")
            .field("sync", &self.0.sync_mode())
            .field("config", &self.0.config)
            .finish_non_exhaustive()
    }
}

impl<C: ScratchThreeWayComparator + Send + Sync + 'static> fmt::Debug for ServiceRuntime<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceRuntime")
            .field("scheduler_threads", &self.joins.len())
            .field("config", &self.handle.0.config)
            .finish_non_exhaustive()
    }
}
