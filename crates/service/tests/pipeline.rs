//! Background-scheduler pipelining: tables served by the threaded
//! runtime are bit-identical to direct `ClusterSession` drives for any
//! interleaving and thread count, and a slow tenant does not convoy fast
//! tenants that live on other scheduler threads' shards.

mod support;

use proptest::prelude::*;
use rand::prelude::*;
use relperf_core::cluster::{ClusterConfig, Parallelism, ScoreTable};
use relperf_core::session::{ClusterSession, ConvergenceCriterion};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
use relperf_measure::{
    Outcome, Sample, ScratchThreeWayComparator, SeededThreeWayComparator, ThreeWayComparator,
};
use relperf_service::journal::{self, JournalRecord};
use relperf_service::prelude::*;
use relperf_service::service::SessionService;
use relperf_service::snapshot;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use support::{
    boxed, comparator, direct_tables, fnv1a64_words, handles, noisy, scripts, Script, FNV_OFFSET,
};

/// Drives all scripts through a pipelined runtime: submissions follow
/// `order` while background threads drain shards on their own cadence —
/// the test never calls `run_batch` itself.
fn pipelined_tables(
    scripts: &[Script],
    cfg: ClusterConfig,
    shards: usize,
    scheduler_threads: usize,
    order: &[usize],
) -> Vec<Vec<ScoreTable>> {
    let service = SessionService::new(
        comparator(),
        shards,
        Parallelism::serial(),
        ServiceLimits::default(),
    );
    let rt = ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads,
            cadence: Duration::from_millis(1),
            ..Default::default()
        },
    );
    for s in scripts {
        rt.create_session(s.tenant, s.session, s.spec(cfg)).unwrap();
    }
    let mut score_seqs: Vec<Vec<u64>> = scripts.iter().map(|_| Vec::new()).collect();
    let mut next_wave: Vec<usize> = vec![0; scripts.len()];
    for &si in order {
        let s = &scripts[si];
        let wave = &s.waves[next_wave[si]];
        next_wave[si] += 1;
        let mut ops: Vec<SessionOp> = wave
            .iter()
            .enumerate()
            .map(|(alg, values)| SessionOp::Extend {
                alg,
                values: values.clone(),
            })
            .collect();
        ops.push(SessionOp::Score);
        let seqs = rt.submit_all(s.tenant, s.session, ops).unwrap();
        score_seqs[si].push(*seqs.last().unwrap());
    }
    let mut tables: Vec<Vec<ScoreTable>> = scripts.iter().map(|_| Vec::new()).collect();
    for (si, s) in scripts.iter().enumerate() {
        let responses = rt
            .await_responses(s.tenant, &score_seqs[si], Duration::from_secs(60))
            .unwrap();
        for response in responses {
            let OpOutcome::Scored(wave) = response.result.expect("scripted ops never fail") else {
                panic!("awaited seqs are Score ops");
            };
            tables[si].push(wave.table);
        }
    }
    rt.shutdown();
    tables
}

/// Background threads, arbitrary cut of tenants across shards: every
/// served table equals the direct drive.
#[test]
fn pipelined_runtime_matches_direct_sessions() {
    let scripts = scripts(4, 3, 0x5EED);
    let cfg = ClusterConfig {
        repetitions: 15,
        parallelism: Parallelism::serial(),
    };
    let reference = direct_tables(&scripts, cfg);
    let round_robin: Vec<usize> = (0..3).flat_map(|_| 0..scripts.len()).collect();
    for (shards, threads) in [(1, 1), (4, 2), (8, 3), (5, 4)] {
        let got = pipelined_tables(&scripts, cfg, shards, threads, &round_robin);
        assert_eq!(got, reference, "shards={shards} threads={threads}");
    }
    // And the synchronous fallback (threads=0) — the same entry points,
    // no threads at all.
    let got = pipelined_tables(&scripts, cfg, 4, 0, &round_robin);
    assert_eq!(got, reference, "sync drive-on-drain mode");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The satellite's proptest: a slow tenant (heavy waves) interleaved
    /// arbitrarily with fast ones under the background scheduler — all
    /// tables still match the direct drives, regardless of shuffle,
    /// shard count, and thread count.
    #[test]
    fn shuffled_pipelined_interleavings_are_bit_identical(
        shuffle_seed in 0u64..1_000,
        shards in 1usize..9,
        threads in 1usize..5,
    ) {
        let mut scripts = scripts(3, 2, 0xFADE);
        // Make tenant 0 the slow one: much larger waves.
        for wave in &mut scripts[0].waves {
            for (alg, values) in wave.iter_mut().enumerate() {
                *values = noisy(1.0 + alg as f64, 64, 0xD1CE ^ alg as u64);
            }
        }
        let cfg = ClusterConfig {
            repetitions: 15,
            parallelism: Parallelism::serial(),
        };
        let reference = direct_tables(&scripts, cfg);
        let mut order: Vec<usize> = (0..scripts.len()).flat_map(|s| [s; 2]).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        order.shuffle(&mut rng);
        let got = pipelined_tables(&scripts, cfg, shards, threads, &order);
        prop_assert_eq!(got, reference);
    }
}

/// The anti-convoy claim, asserted by delivery order rather than wall
/// clock: while one scheduler thread grinds a slow tenant's expensive
/// wave, the other thread serves a fast tenant's wave to completion —
/// the fast responses arrive while the slow score is still in flight.
#[test]
fn slow_tenant_does_not_convoy_fast_tenants() {
    let cmp = BootstrapComparator::with_config(
        5,
        BootstrapConfig {
            reps: 1000,
            ..Default::default()
        },
    );
    let service = SessionService::new(cmp, 4, Parallelism::serial(), ServiceLimits::default());

    // Pick session ids whose shards land on DIFFERENT scheduler threads
    // (thread t owns shards ≡ t mod 2).
    let slow_session = (0..)
        .find(|&s| service.shard_index(1, s) % 2 == 0)
        .unwrap();
    let fast_session = (0..)
        .find(|&s| service.shard_index(2, s) % 2 == 1)
        .unwrap();

    let rt = ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads: 2,
            cadence: Duration::from_millis(1),
            ..Default::default()
        },
    );
    let heavy_cfg = ClusterConfig {
        repetitions: 40,
        parallelism: Parallelism::serial(),
    };
    let light_cfg = ClusterConfig {
        repetitions: 3,
        parallelism: Parallelism::serial(),
    };
    rt.create_session(
        1,
        slow_session,
        SessionSpec {
            algorithms: 4,
            config: heavy_cfg,
            seed: 3,
            criterion: ConvergenceCriterion::default(),
        },
    )
    .unwrap();
    rt.create_session(
        2,
        fast_session,
        SessionSpec {
            algorithms: 2,
            config: light_cfg,
            seed: 4,
            criterion: ConvergenceCriterion::default(),
        },
    )
    .unwrap();

    // Kick off the slow tenant's expensive wave: large samples, many
    // algorithms, a thousand bootstrap reps. The samples overlap (1%
    // apart, ±0.2 noise) so every comparison runs its rounds; separated
    // ranges would be decided by the range certificate without any.
    let mut slow_ops: Vec<SessionOp> = (0..4)
        .map(|alg| SessionOp::Extend {
            alg,
            values: noisy(1.0 + 0.01 * alg as f64, 400, 0xBEEF ^ alg as u64),
        })
        .collect();
    slow_ops.push(SessionOp::Score);
    let slow_seqs = rt.submit_all(1, slow_session, slow_ops).unwrap();
    // Give thread 0 a moment to check the batch out before racing it.
    std::thread::sleep(Duration::from_millis(50));

    // The fast tenant's tiny wave, owned by the OTHER thread.
    let fast_seqs = rt
        .submit_all(
            2,
            fast_session,
            vec![
                SessionOp::Extend { alg: 0, values: vec![1.0, 1.1, 0.9] },
                SessionOp::Extend { alg: 1, values: vec![2.0, 2.1, 1.9] },
                SessionOp::Score,
            ],
        )
        .unwrap();
    let fast = rt
        .await_responses(2, &fast_seqs, Duration::from_secs(60))
        .unwrap();
    assert!(matches!(fast[2].result, Ok(OpOutcome::Scored(_))));

    // Delivery-order proof of independence: the fast wave completed
    // while the slow one was still being ground out.
    assert!(
        rt.collect_ready(1).is_empty(),
        "slow tenant's wave finished before the fast tenant was served — \
         the pipeline convoyed"
    );

    // The slow wave still completes and is still correct.
    let slow = rt
        .await_responses(1, &slow_seqs, Duration::from_secs(300))
        .unwrap();
    let Ok(OpOutcome::Scored(wave)) = &slow[4].result else {
        panic!("slow score failed: {:?}", slow[4].result);
    };
    assert_eq!(wave.table.num_algorithms(), 4);
    rt.shutdown();
}

type Threads = Arc<Mutex<HashSet<ThreadId>>>;

/// A comparator busy enough (300 bootstrap rounds) that every `Score`
/// lasts milliseconds, so a granted worker thread gets chunks to run
/// even on a loaded host.
fn busy_comparator() -> BootstrapComparator {
    BootstrapComparator::with_config(
        5,
        BootstrapConfig {
            reps: 300,
            ..Default::default()
        },
    )
}

/// Holds every comparison until the test opens it (or a deadline
/// passes, so a broken run fails instead of hanging), and tells the test
/// when the first comparison has arrived.
struct Gate {
    /// `(open, comparisons that reached the gate)`.
    state: Mutex<(bool, usize)>,
    changed: Condvar,
    deadline: Instant,
}

impl Gate {
    fn new() -> Arc<Self> {
        Arc::new(Gate {
            state: Mutex::new((false, 0)),
            changed: Condvar::new(),
            deadline: Instant::now() + Duration::from_secs(20),
        })
    }

    fn open(&self) {
        self.state.lock().unwrap().0 = true;
        self.changed.notify_all();
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.changed.notify_all();
        let wait = self.deadline.saturating_duration_since(Instant::now());
        drop(self.changed.wait_timeout_while(state, wait, |(open, _)| !*open).unwrap());
    }

    /// Blocks until a comparison is held at the gate; `false` if none
    /// arrived before the deadline.
    fn wait_arrival(&self) -> bool {
        let wait = self.deadline.saturating_duration_since(Instant::now());
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, wait, |(_, arrived)| *arrived == 0)
            .unwrap();
        state.1 > 0
    }
}

/// [`busy_comparator`], recording which threads ran its comparisons and,
/// when gated, holding each one at the gate.
struct ThreadLog {
    inner: BootstrapComparator,
    threads: Threads,
    gate: Option<Arc<Gate>>,
}

impl ThreadLog {
    fn new(threads: &Threads) -> Self {
        ThreadLog {
            inner: busy_comparator(),
            threads: Arc::clone(threads),
            gate: None,
        }
    }
}

impl ThreeWayComparator for ThreadLog {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        self.inner.compare(a, b)
    }
}

impl SeededThreeWayComparator for ThreadLog {
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        self.inner.compare_seeded(a, b, stream)
    }
}

impl ScratchThreeWayComparator for ThreadLog {
    type Scratch = <BootstrapComparator as ScratchThreeWayComparator>::Scratch;

    fn new_scratch(&self) -> Self::Scratch {
        self.inner.new_scratch()
    }

    fn compare_seeded_scratch(
        &self,
        scratch: &mut Self::Scratch,
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        self.threads.lock().unwrap().insert(std::thread::current().id());
        if let Some(gate) = &self.gate {
            gate.pass();
        }
        self.inner.compare_seeded_scratch(scratch, a, b, stream)
    }
}

/// What one hosted campaign shows a tenant: every scored table, the
/// `Snapshot` op bytes, and the session checksum of the digest the
/// service journals for it.
#[derive(Debug, PartialEq)]
struct Observed {
    tables: Vec<ScoreTable>,
    snapshot: Vec<u8>,
    checksum: u64,
}

/// One tenant's campaign through a journaled runtime with
/// `scheduler_threads` scheduler threads over a serial-spec session.
fn hosted_campaign(
    script: &Script,
    cfg: ClusterConfig,
    comparator: ThreadLog,
    scheduler_threads: usize,
) -> Observed {
    let stores = handles(4);
    let service = SessionService::with_journal(
        comparator,
        Parallelism::serial(),
        ServiceLimits::default(),
        JournalConfig::default(),
        boxed(&stores),
    )
    .unwrap();
    let rt = ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads,
            ..Default::default()
        },
    );
    rt.create_session(script.tenant, script.session, script.spec(cfg)).unwrap();
    let ask = |ops: Vec<SessionOp>| {
        let seqs = rt.submit_all(script.tenant, script.session, ops).unwrap();
        let responses = rt
            .await_responses(script.tenant, &seqs, Duration::from_secs(60))
            .unwrap();
        responses.into_iter().last().unwrap().result.unwrap()
    };
    let mut tables = Vec::new();
    for wave in &script.waves {
        let mut ops: Vec<SessionOp> = wave
            .iter()
            .enumerate()
            .map(|(alg, values)| SessionOp::Extend { alg, values: values.clone() })
            .collect();
        ops.push(SessionOp::Score);
        let OpOutcome::Scored(outcome) = ask(ops) else {
            panic!("the last op is a Score");
        };
        tables.push(outcome.table);
    }
    let OpOutcome::Snapshot(snapshot) = ask(vec![SessionOp::Snapshot]) else {
        panic!("asked for a Snapshot");
    };
    assert_eq!(rt.emit_digests().unwrap(), 4);
    rt.shutdown();
    let checksums: Vec<u64> = stores
        .iter()
        .flat_map(|store| journal::scan(&store.stored().journal).unwrap().records)
        .filter_map(|(_, record)| match record {
            JournalRecord::Digest { sessions } => Some(sessions),
            _ => None,
        })
        .flatten()
        .filter(|d| (d.tenant, d.session) == (script.tenant, script.session))
        .map(|d| d.checksum)
        .collect();
    assert_eq!(checksums.len(), 1, "one digest entry for the session");
    Observed {
        tables,
        snapshot,
        checksum: checksums[0],
    }
}

/// A lone tenant on a 2-thread runtime has its `Score`s granted every
/// hardware thread, yet what it observes — tables, snapshot bytes,
/// session checksum — equals synchronous mode and a bare serial
/// `ClusterSession`, and the session's stored config stays serial.
#[test]
fn idle_core_grant_is_invisible() {
    let mut script = scripts(1, 4, 0x1D1E).remove(0);
    for (w, wave) in script.waves.iter_mut().enumerate() {
        for (alg, values) in wave.iter_mut().enumerate() {
            *values = noisy(1.0 + 0.05 * alg as f64, 24, 0xC0DE ^ ((w as u64) << 8) ^ alg as u64);
        }
    }
    let cfg = ClusterConfig {
        repetitions: 24,
        parallelism: Parallelism::serial(),
    };

    let cmp = busy_comparator();
    let mut bare = ClusterSession::new(script.p, &cmp, cfg, script.seed);
    let tables: Vec<ScoreTable> = script
        .waves
        .iter()
        .map(|wave| {
            for (alg, values) in wave.iter().enumerate() {
                bare.extend(alg, values).unwrap();
            }
            bare.score().clone()
        })
        .collect();
    let bare_snapshot = snapshot::encode(&SessionSnapshot {
        config: bare.config(),
        seed: bare.seed(),
        criterion: bare.criterion(),
        state: bare.export_state(),
        rng_states: Vec::new(),
    });
    let reference = Observed {
        checksum: fnv1a64_words(FNV_OFFSET, &bare_snapshot),
        tables,
        snapshot: bare_snapshot,
    };

    let sync = hosted_campaign(&script, cfg, ThreadLog::new(&Threads::default()), 0);
    assert_eq!(sync, reference, "sync drive-on-drain mode");
    let threads = Threads::default();
    let pipelined = hosted_campaign(&script, cfg, ThreadLog::new(&threads), 2);
    assert_eq!(pipelined, reference, "2 scheduler threads");
    assert_eq!(
        snapshot::decode(&pipelined.snapshot).unwrap().config,
        cfg,
        "the grant never reaches the stored config"
    );
    if relperf_parallel::hardware_threads() >= 2 {
        assert!(
            threads.lock().unwrap().len() >= 2,
            "a lone tenant's Scores ran on one thread"
        );
    }
}

/// Run to completion: on a threaded runtime whose scheduler threads
/// sleep for an hour, an ingest-only group's responses are already in
/// the mailbox when `submit_all` returns — the submitting thread ran its
/// batch.
#[test]
fn ingest_group_runs_to_completion_on_the_submitting_thread() {
    let service = SessionService::new(comparator(), 4, Parallelism::serial(), ServiceLimits::default());
    let rt = ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads: 2,
            cadence: Duration::from_secs(3600),
            ..Default::default()
        },
    );
    rt.create_session(9, 1, SessionSpec::new(3, 21)).unwrap();
    let groups = [
        (0..3)
            .map(|alg| SessionOp::ExtendAll {
                alg,
                values: noisy(1.0 + alg as f64, 16, alg as u64),
            })
            .collect::<Vec<_>>(),
        vec![
            SessionOp::Push { alg: 0, value: 1.5 },
            SessionOp::Extend { alg: 1, values: vec![2.0, f64::NAN] },
            SessionOp::Snapshot,
        ],
    ];
    for ops in groups {
        let seqs = rt.submit_all(9, 1, ops).unwrap();
        let ready = rt.collect_ready(9);
        assert_eq!(ready.iter().map(|r| r.seq).collect::<Vec<_>>(), seqs);
    }
    let status = rt.session_status(9, 1).unwrap();
    assert_eq!((status.total_measurements, status.pending), (3 * 16 + 2, 0));
    rt.shutdown();
}

/// A group queued behind a `Score` still goes to the scheduler: while
/// the only scheduler thread is held inside a `Score`, a second tenant's
/// `Score` group waits in the queue, and a third tenant's ingest group
/// submitted behind it is not run by the submitting thread. No `Score`
/// ever runs on the submitting thread.
#[test]
fn group_queued_behind_a_score_goes_to_the_scheduler() {
    let threads = Threads::default();
    let gate = Gate::new();
    let comparator = ThreadLog {
        gate: Some(Arc::clone(&gate)),
        ..ThreadLog::new(&threads)
    };
    let service = SessionService::new(comparator, 1, Parallelism::serial(), ServiceLimits::default());
    let rt = ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads: 1,
            cadence: Duration::from_secs(3600),
            ..Default::default()
        },
    );
    let wave = |base: f64| -> Vec<SessionOp> {
        vec![
            SessionOp::Extend { alg: 0, values: vec![base, base + 0.1, base - 0.1] },
            SessionOp::Extend { alg: 1, values: vec![base + 0.05, base + 0.15, base - 0.05] },
            SessionOp::Score,
        ]
    };
    for tenant in 1..=3 {
        rt.create_session(tenant, 1, SessionSpec::new(2, tenant)).unwrap();
    }
    // Tenant 1's `Score` goes to the scheduler thread and stops at the
    // gate; only then does tenant 2's `Score` group queue behind it, so
    // the scheduler thread cannot have drained it by the time tenant 3
    // submits.
    let held = rt.submit_all(1, 1, wave(1.0)).unwrap();
    assert!(gate.wait_arrival(), "tenant 1's Score never reached the gate");
    let queued = rt.submit_all(2, 1, wave(2.0)).unwrap();
    let ingest = rt
        .submit_all(3, 1, vec![SessionOp::ExtendAll { alg: 0, values: vec![1.0, 2.0] }])
        .unwrap();
    let ready = rt.collect_ready(3);
    assert!(ready.is_empty(), "a group queued behind a Score ran on the submitting thread");
    gate.open();

    for (tenant, seqs) in [(1, &held), (2, &queued)] {
        let got = rt.await_responses(tenant, seqs, Duration::from_secs(300)).unwrap();
        assert!(matches!(got[2].result, Ok(OpOutcome::Scored(_))));
    }
    let got = rt.await_responses(3, &ingest, Duration::from_secs(300)).unwrap();
    assert!(matches!(got[0].result, Ok(OpOutcome::Ingested)));
    assert!(
        !threads.lock().unwrap().contains(&std::thread::current().id()),
        "a Score ran on the submitting thread"
    );
    rt.shutdown();
}

/// Pipelined ingest groups on one session — submitted without awaiting
/// while the scheduler thread polls the same shard every few
/// microseconds — run in submission order, and the journal, compacted
/// every few ops while they run, recovers the same values in the same
/// order.
#[test]
fn pipelined_ingest_groups_keep_submission_order() {
    const GROUPS: usize = 3000;
    let stores = handles(1);
    let config = JournalConfig {
        group_commit: 1,
        compact_every: 8,
    };
    let service = SessionService::with_journal(
        comparator(),
        Parallelism::serial(),
        ServiceLimits::default(),
        config,
        boxed(&stores),
    )
    .unwrap();
    let rt = ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads: 1,
            cadence: Duration::from_micros(5),
            ..Default::default()
        },
    );
    rt.create_session(1, 1, SessionSpec::new(2, 3)).unwrap();
    let submitted: Vec<f64> = (0..GROUPS).map(|i| 1.0 + i as f64).collect();
    let mut seqs = Vec::new();
    for &value in &submitted {
        seqs.extend(rt.submit_all(1, 1, vec![SessionOp::Push { alg: 0, value }]).unwrap());
    }
    let got = rt.await_responses(1, &seqs, Duration::from_secs(60)).unwrap();
    assert!(got.iter().all(|r| matches!(r.result, Ok(OpOutcome::Ingested))));
    let seq = rt.submit(1, 1, SessionOp::Snapshot).unwrap();
    let got = rt.await_responses(1, &[seq], Duration::from_secs(60)).unwrap();
    let Ok(OpOutcome::Snapshot(live)) = &got[0].result else {
        panic!("snapshot failed: {:?}", got[0].result);
    };
    rt.shutdown();
    let values = |bytes: &[u8]| -> Vec<f64> {
        let snapshot = snapshot::decode(bytes).unwrap();
        snapshot.state.samples[0].as_ref().unwrap().values().to_vec()
    };
    assert!(values(live) == submitted, "the session ran its ops out of submission order");

    let (recovered, _) = SessionService::recover(
        comparator(),
        Parallelism::serial(),
        ServiceLimits::default(),
        config,
        boxed(&stores),
    )
    .unwrap();
    recovered.submit(1, 1, SessionOp::Snapshot).unwrap();
    let got = recovered.run_batch();
    let Ok(OpOutcome::Snapshot(replayed)) = &got[0].result else {
        panic!("snapshot failed after recovery: {:?}", got[0].result);
    };
    assert!(values(replayed) == submitted, "recovery lost or reordered admitted ops");
}
