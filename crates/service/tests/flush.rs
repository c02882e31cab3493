//! Group commit off the request path: on a threaded runtime with
//! `group_commit` g > 1, the fsync at the group-commit boundary runs on
//! the shard's scheduler thread with the shard lock released. A gated
//! store holds that fsync open, so each test sees what runs while it is
//! in flight. Nothing here sleeps: timeouts bound how long a broken
//! build gets to show itself, and one check gives an admission that
//! must block 200 ms to return anyway.

use relperf_core::cluster::Parallelism;
use relperf_measure::compare::MedianComparator;
use relperf_service::journal::{self, CrashPoint, JournalIoError, StoredShard};
use relperf_service::prelude::*;
use relperf_service::replication::decode_segment;
use relperf_service::service::SessionService;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The group-commit interval of every gated test.
const G: usize = 4;
/// How long a test waits for something that must happen.
const LIVENESS: Duration = Duration::from_secs(10);

/// A store whose first `sync` reports its thread's name on `entered`,
/// then blocks until `release` yields (or its sender is dropped); every
/// other call goes straight to `inner`.
struct GatedStore {
    inner: Box<dyn JournalStore>,
    gate: Option<(Sender<String>, Receiver<()>)>,
}

impl JournalStore for GatedStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), JournalIoError> {
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> Result<(), JournalIoError> {
        if let Some((entered, release)) = self.gate.take() {
            let name = std::thread::current().name().unwrap_or("unnamed").to_string();
            let _ = entered.send(name);
            let _ = release.recv();
        }
        self.inner.sync()
    }

    fn install_checkpoint(&mut self, base: &[u8], journal: &[u8]) -> Result<(), JournalIoError> {
        self.inner.install_checkpoint(base, journal)
    }

    fn load(&mut self) -> Result<StoredShard, JournalIoError> {
        self.inner.load()
    }
}

/// The test's ends of a [`GatedStore`]'s gate.
struct Gate {
    entered: Receiver<String>,
    release: Sender<()>,
}

impl Gate {
    /// Waits until the gated fsync is in flight; returns its thread's name.
    fn wait_entered(&self) -> String {
        self.entered.recv_timeout(LIVENESS).expect("no flush reached the store")
    }

    fn open(&self) {
        self.release.send(()).expect("the gated fsync is waiting");
    }
}

/// A one-shard journaled runtime over a gated store. `gate` is declared
/// first, so it drops first: a failing test opens the gate before the
/// runtime joins its scheduler thread.
struct Harness {
    gate: Gate,
    rt: ServiceRuntime<MedianComparator>,
}

fn comparator() -> MedianComparator {
    MedianComparator::new(0.05)
}

fn config(group_commit: usize) -> JournalConfig {
    JournalConfig {
        group_commit,
        compact_every: 0,
    }
}

/// One scheduler thread that only wakes when kicked.
fn runtime(service: SessionService<MedianComparator>) -> ServiceRuntime<MedianComparator> {
    ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads: 1,
            cadence: Duration::from_secs(3600),
            ..Default::default()
        },
    )
}

fn harness(store: Box<dyn JournalStore>) -> Harness {
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let gated = GatedStore {
        inner: store,
        gate: Some((entered_tx, release_rx)),
    };
    let service = SessionService::with_journal(
        comparator(),
        Parallelism::serial(),
        ServiceLimits::default(),
        config(G),
        vec![Box::new(gated)],
    )
    .unwrap();
    Harness {
        gate: Gate { entered, release },
        rt: runtime(service),
    }
}

/// The `i`th ingest group of the scripted session (tenant 1, session 1,
/// two algorithms).
fn group(i: usize) -> Vec<SessionOp> {
    vec![SessionOp::ExtendAll {
        alg: i % 2,
        values: vec![1.0 + i as f64, 1.5 + (i % 3) as f64, 0.5 * i as f64],
    }]
}

/// Submits group `i` through `rt` and checks it ran to completion on
/// this thread.
fn admit(rt: &RuntimeHandle<MedianComparator>, i: usize) {
    admit_to(rt, 1, i);
}

/// [`admit`] for session 1 of `tenant`.
fn admit_to(rt: &RuntimeHandle<MedianComparator>, tenant: u64, i: usize) {
    let seqs = rt.submit_all(tenant, 1, group(i)).unwrap();
    let ready = rt.collect_ready(tenant);
    assert_eq!(ready.iter().map(|r| r.seq).collect::<Vec<_>>(), seqs);
    assert!(ready.iter().all(|r| matches!(r.result, Ok(OpOutcome::Ingested))));
}

/// Creates the scripted session (its record is the first unsynced op)
/// and admits groups `0..G - 1`, which bring the shard to G unsynced ops
/// and hand the sync to the scheduler thread; returns the name of the
/// thread whose fsync is now held at the gate.
fn fill_first_interval(h: &Harness) -> String {
    h.rt.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    for i in 0..G - 1 {
        admit(&h.rt, i);
    }
    h.gate.wait_entered()
}

/// Runs `admissions` on another thread while the held fsync is in
/// flight, then opens the gate. Fails when they did not finish first:
/// they waited for their shard's fsync.
fn while_fsync_is_held(
    h: &Harness,
    admissions: impl FnOnce(&RuntimeHandle<MedianComparator>) + Send + 'static,
) {
    let rt = h.rt.handle();
    let (done, finished) = channel();
    let admitting = std::thread::spawn(move || {
        admissions(&rt);
        done.send(()).unwrap();
    });
    let finished = finished.recv_timeout(LIVENESS);
    h.gate.open();
    admitting.join().unwrap();
    finished.expect("an admission waited for its shard's fsync");
}

/// Records in the durable part of `store`'s journal.
fn durable_records(store: &MemJournalStore) -> usize {
    journal::scan(&store.stored().journal).unwrap().records.len()
}

#[test]
fn admission_completes_while_its_shards_fsync_is_blocked() {
    let mem = MemJournalStore::new();
    let h = harness(Box::new(mem.clone()));
    assert_eq!(fill_first_interval(&h), "relperf-sched-0", "the fsync left the request path");
    while_fsync_is_held(&h, |rt| admit(rt, G - 1));
    h.rt.shutdown();
    assert_eq!(durable_records(&mem), G, "the flush covered the first interval, not the tail");
}

#[test]
fn admission_reaching_twice_the_interval_waits_for_the_fsync() {
    let mem = MemJournalStore::new();
    let h = harness(Box::new(mem.clone()));
    fill_first_interval(&h);
    // G - 1 more groups go to the tail while the fsync is held; the next
    // one would leave 2G unsynced, so it syncs itself and waits.
    let (tail_done, tail) = channel();
    let (done, finished) = channel();
    let rt = h.rt.handle();
    let durable = mem.clone();
    let admitting = std::thread::spawn(move || {
        for i in G - 1..2 * G - 2 {
            admit(&rt, i);
        }
        tail_done.send(()).unwrap();
        admit(&rt, 2 * G - 2);
        done.send(durable_records(&durable)).unwrap();
    });
    let tail = tail.recv_timeout(LIVENESS);
    let early = finished.recv_timeout(Duration::from_millis(200));
    h.gate.open();
    admitting.join().unwrap();
    tail.expect("an admission below 2g waited for its shard's fsync");
    assert!(early.is_err(), "the admission at 2g returned while its shard's fsync was held");
    let durable = finished.recv().unwrap();
    assert_eq!(durable, 2 * G, "the admission at 2g returned before every record was durable");
    h.rt.shutdown();
}

#[test]
fn failed_flush_on_the_scheduler_thread_seals_the_shard() {
    let mem = MemJournalStore::new();
    let h = harness(Box::new(mem.clone()));
    mem.arm(CrashPoint::BeforeExecute);
    assert_eq!(fill_first_interval(&h), "relperf-sched-0");
    h.gate.open();
    let rt = h.rt.handle();
    // Joining the scheduler thread waits out its failed flush.
    h.rt.shutdown();
    assert!(mem.crashed());
    assert_eq!(
        rt.submit_all(1, 1, group(G)),
        Err(ServiceError::Journal(JournalIoError::Sealed))
    );
}

/// A handle that outlives its runtime has no scheduler thread left to
/// flush for it, so its admission at the interval syncs in place.
#[test]
fn handle_outliving_its_runtime_syncs_in_place() {
    let mem = MemJournalStore::new();
    let service = SessionService::with_journal(
        comparator(),
        Parallelism::serial(),
        ServiceLimits::default(),
        config(G),
        vec![Box::new(mem.clone())],
    )
    .unwrap();
    let rt = runtime(service);
    let handle = rt.handle();
    rt.shutdown();
    handle.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    for i in 0..G - 1 {
        admit(&handle, i);
    }
    assert_eq!(durable_records(&mem), G, "the interval was left to a stopped runtime");
}

/// Collects the payload bytes shipped on each shard lane.
struct Recorder(Arc<Mutex<Vec<Vec<u8>>>>);

impl SegmentTransport for Recorder {
    fn deliver(&mut self, shard: usize, envelope: &[u8]) -> Result<u64, ReplicationError> {
        let segment = decode_segment(envelope)?;
        self.0.lock().unwrap()[shard].extend_from_slice(&segment.payload);
        Ok(segment.seq)
    }
}

/// A clean shutdown ships every record a flush made durable: the flush
/// its scheduler thread was running when shutdown began, and the due
/// flush that thread left behind. Two shards share the one scheduler
/// thread; the fsync of one is held while the other's flush falls due.
#[test]
fn clean_shutdown_ships_every_flushed_record() {
    let probe =
        SessionService::new(comparator(), 2, Parallelism::serial(), ServiceLimits::default());
    let held = probe.shard_index(1, 1);
    let other = (2..).find(|&t| probe.shard_index(t, 1) != held).unwrap();
    let (entered_tx, entered) = channel();
    let (release, release_rx) = channel();
    let mut gate = Some((entered_tx, release_rx));
    let mems = [MemJournalStore::new(), MemJournalStore::new()];
    let stores = mems
        .iter()
        .enumerate()
        .map(|(idx, mem)| {
            let gate = if idx == held { gate.take() } else { None };
            Box::new(GatedStore { inner: Box::new(mem.clone()), gate }) as Box<dyn JournalStore>
        })
        .collect();
    let (stores, shipper) = JournalShipper::wrap_stores(stores, ShipperConfig::default());
    let service = SessionService::with_journal(
        comparator(),
        Parallelism::serial(),
        ServiceLimits::default(),
        config(G),
        stores,
    )
    .unwrap();
    let shipped = Arc::new(Mutex::new(vec![Vec::new(); 2]));
    let mut rt = runtime(service);
    // Declared after `rt`, so it drops first (see [`Harness`]).
    let gate = Gate { entered, release };
    rt.attach_shipper(shipper, Recorder(Arc::clone(&shipped)), Duration::from_millis(1));

    rt.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    for i in 0..G - 1 {
        admit(&rt, i);
    }
    assert_eq!(gate.wait_entered(), "relperf-sched-0");
    rt.create_session(other, 1, SessionSpec::new(2, 7)).unwrap();
    for i in 0..G - 1 {
        admit_to(&rt, other, i);
    }
    let (done, stopped) = channel();
    let stopping = std::thread::spawn(move || {
        rt.shutdown();
        done.send(()).unwrap();
    });
    // Correct code cannot return here: shutdown joins the held thread.
    let early = stopped.recv_timeout(Duration::from_millis(200));
    gate.open();
    stopping.join().unwrap();
    assert!(early.is_err(), "shutdown returned while a flush was held");

    let shipped = shipped.lock().unwrap();
    for (idx, mem) in mems.iter().enumerate() {
        let durable = mem.stored().journal;
        let records = journal::scan(&durable).unwrap().records.len();
        assert_eq!(records, G, "shard {idx}: its interval was not flushed");
        let expected = [journal::stream_header(), shipped[idx].clone()].concat();
        assert!(durable == expected, "shard {idx}: durable records went unshipped");
    }
}

/// Drives the scripted session through a gated runtime, with groups
/// admitted before, during and after a held flush, then recovers from
/// `open()` and checks the recovered session against a service that
/// never journaled: the same snapshot bytes and the same score table.
fn groups_recover_in_order(open: impl Fn() -> Box<dyn JournalStore>) {
    const GROUPS: usize = 3 * G;
    let h = harness(open());
    fill_first_interval(&h);
    while_fsync_is_held(&h, |rt| {
        for i in G - 1..2 * G - 2 {
            admit(rt, i);
        }
    });
    for i in 2 * G - 2..GROUPS {
        admit(&h.rt, i);
    }
    h.rt.flush_journals().unwrap();
    h.rt.shutdown();

    let (recovered, report) = SessionService::recover(
        comparator(),
        Parallelism::serial(),
        ServiceLimits::default(),
        config(G),
        vec![open()],
    )
    .unwrap();
    assert_eq!(report.replayed_ops, GROUPS);
    let golden =
        SessionService::new(comparator(), 1, Parallelism::serial(), ServiceLimits::default());
    golden.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    for i in 0..GROUPS {
        golden.submit_all(1, 1, group(i)).unwrap();
    }
    golden.run_batch();
    let probe = |service: &SessionService<MedianComparator>| {
        service.submit_all(1, 1, vec![SessionOp::Snapshot, SessionOp::Score]).unwrap();
        service.run_batch().into_iter().map(|r| r.result.unwrap()).collect::<Vec<_>>()
    };
    let (got, want) = (probe(&recovered), probe(&golden));
    assert!(matches!(want[1], OpOutcome::Scored(_)));
    assert_eq!(got, want, "recovery lost or reordered groups admitted during a flush");
}

#[test]
fn groups_admitted_during_a_flush_recover_in_order_in_memory() {
    let mem = MemJournalStore::new();
    groups_recover_in_order(|| Box::new(mem.clone()));
}

#[test]
fn groups_admitted_during_a_flush_recover_in_order_on_file() {
    let dir: PathBuf = std::env::temp_dir().join(format!("relperf-flush-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    groups_recover_in_order(|| Box::new(FileJournalStore::open(&dir).unwrap()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// At `group_commit` 1 a runtime syncs every admission in place, exactly
/// as before flushes moved to the scheduler thread: a scripted run makes
/// the same store calls, counted by the store.
#[test]
fn group_commit_one_keeps_the_store_calls() {
    let mem = MemJournalStore::new();
    let service = SessionService::with_journal(
        comparator(),
        Parallelism::serial(),
        ServiceLimits::default(),
        JournalConfig {
            group_commit: 1,
            compact_every: 8,
        },
        vec![Box::new(mem.clone())],
    )
    .unwrap();
    let rt = runtime(service);
    rt.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    for i in 0..10 {
        admit(&rt, i);
    }
    let seqs = rt.submit_all(1, 1, vec![SessionOp::Score]).unwrap();
    rt.await_responses(1, &seqs, LIVENESS).unwrap();
    rt.emit_digests().unwrap();
    rt.flush_journals().unwrap();
    rt.shutdown();
    assert_eq!(mem.counters(), (13, 13, 2));
}
