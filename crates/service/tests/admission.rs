//! Admission control, backpressure under overload, eviction, and stats.

use relperf_core::cluster::{ClusterConfig, Parallelism};
use relperf_core::session::ConvergenceCriterion;
use relperf_measure::compare::MedianComparator;
use relperf_measure::sample::SampleError;
use relperf_service::prelude::*;
use relperf_service::service::SessionService;

fn tiny_service(limits: ServiceLimits) -> SessionService<MedianComparator> {
    SessionService::new(MedianComparator::new(0.05), 1, Parallelism::serial(), limits)
}

#[test]
fn bad_specs_are_rejected_with_typed_errors_not_panics() {
    let s = tiny_service(ServiceLimits::default());
    assert_eq!(
        s.create_session(1, 1, SessionSpec::new(0, 7)),
        Err(ServiceError::NoAlgorithms)
    );
    let mut spec = SessionSpec::new(2, 7);
    spec.config = ClusterConfig {
        repetitions: 0,
        ..Default::default()
    };
    assert_eq!(s.create_session(1, 1, spec), Err(ServiceError::NoRepetitions));
    // The satellite routing: a bad criterion flows through try_validate
    // into a typed admission error.
    let mut spec = SessionSpec::new(2, 7);
    spec.criterion = ConvergenceCriterion {
        stable_waves: 0,
        score_tol: 0.1,
    };
    assert!(matches!(
        s.create_session(1, 1, spec),
        Err(ServiceError::InvalidCriterion(_))
    ));
    let mut spec = SessionSpec::new(2, 7);
    spec.criterion = ConvergenceCriterion {
        stable_waves: 1,
        score_tol: f64::NAN,
    };
    assert!(matches!(
        s.create_session(1, 1, spec),
        Err(ServiceError::InvalidCriterion(_))
    ));
    assert_eq!(s.num_sessions(), 0);
    assert_eq!(s.stats().rejections, 4);
}

#[test]
fn unknown_sessions_and_bad_indices_rejected_at_submit() {
    let s = tiny_service(ServiceLimits::default());
    assert!(matches!(
        s.submit(1, 1, SessionOp::Score),
        Err(ServiceError::SessionUnknown { .. })
    ));
    s.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    assert_eq!(
        s.submit(1, 1, SessionOp::Push { alg: 2, value: 1.0 }),
        Err(ServiceError::AlgorithmOutOfRange { alg: 2, p: 2 })
    );
    // Duplicate create.
    assert!(matches!(
        s.create_session(1, 1, SessionSpec::new(2, 7)),
        Err(ServiceError::SessionExists { .. })
    ));
}

/// The overload path of the acceptance criteria: a flooding tenant is
/// rejected with typed backpressure errors — never blocked, never a panic
/// — and the stats record it.
#[test]
fn overload_hits_tenant_cap_then_queue_depth() {
    let s = tiny_service(ServiceLimits {
        sessions_per_shard: 8,
        tenant_in_flight: 4,
        shard_queue_depth: 6,
        ..ServiceLimits::default()
    });
    s.create_session(1, 1, SessionSpec::new(1, 7)).unwrap();
    s.create_session(2, 1, SessionSpec::new(1, 7)).unwrap();

    // Tenant 1 floods: 4 accepted, the 5th bounces off its in-flight cap.
    for _ in 0..4 {
        s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    }
    assert_eq!(
        s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }),
        Err(ServiceError::TenantBusy {
            tenant: 1,
            in_flight: 4,
            cap: 4
        })
    );

    // Tenant 2 fills the remaining queue slots; the shard depth cap turns
    // it away after 2 more (queue already holds tenant 1's 4).
    for _ in 0..2 {
        s.submit(2, 1, SessionOp::Push { alg: 0, value: 2.0 }).unwrap();
    }
    assert_eq!(
        s.submit(2, 1, SessionOp::Push { alg: 0, value: 2.0 }),
        Err(ServiceError::QueueFull {
            shard: 0,
            depth: 6,
            cap: 6
        })
    );

    let stats = s.stats();
    assert_eq!(stats.rejections, 2);

    // Draining the batch releases the backpressure; every accepted op got
    // a response.
    let responses = s.run_batch();
    assert_eq!(responses.len(), 6);
    assert!(responses.iter().all(|r| r.result.is_ok()));
    s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    s.submit(2, 1, SessionOp::Push { alg: 0, value: 2.0 }).unwrap();
}

/// `submit_all` is all-or-nothing: a rejected group queues nothing, so a
/// campaign wave can be retried without desynchronizing.
#[test]
fn submit_all_is_atomic_under_rejection() {
    let s = tiny_service(ServiceLimits {
        sessions_per_shard: 8,
        tenant_in_flight: 3,
        shard_queue_depth: 64,
        ..ServiceLimits::default()
    });
    s.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    let wave = |n: usize| -> Vec<SessionOp> {
        (0..n)
            .map(|i| SessionOp::Push {
                alg: i % 2,
                value: 1.0,
            })
            .collect()
    };
    // Over the in-flight cap: rejected as a whole.
    assert!(matches!(
        s.submit_all(1, 1, wave(4)),
        Err(ServiceError::TenantBusy { .. })
    ));
    // One bad index poisons the whole group.
    let mut ops = wave(2);
    ops.push(SessionOp::Push { alg: 9, value: 1.0 });
    assert!(matches!(
        s.submit_all(1, 1, ops),
        Err(ServiceError::AlgorithmOutOfRange { alg: 9, p: 2 })
    ));
    // Nothing was queued by either rejection…
    assert_eq!(s.run_batch().len(), 0);
    assert_eq!(s.session_status(1, 1).unwrap().pending, 0);
    // …and an admissible group goes through with consecutive tickets.
    let seqs = s.submit_all(1, 1, wave(3)).unwrap();
    assert_eq!(seqs.len(), 3);
    assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    assert_eq!(s.run_batch().len(), 3);
    // The freed in-flight slots admit the next full wave.
    s.submit_all(1, 1, wave(3)).unwrap();
}

#[test]
fn shard_capacity_evicts_lru_idle_sessions_only() {
    // spill_per_shard: 0 turns snapshot-on-evict off — this test pins the
    // plain hard-eviction semantics (the spill path has its own tests).
    let s = tiny_service(ServiceLimits {
        sessions_per_shard: 2,
        tenant_in_flight: 64,
        shard_queue_depth: 64,
        spill_per_shard: 0,
        ..ServiceLimits::default()
    });
    s.create_session(1, 1, SessionSpec::new(1, 7)).unwrap();
    s.create_session(1, 2, SessionSpec::new(1, 7)).unwrap();
    // Touch session 1 so session 2 is the LRU.
    s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    s.run_batch();

    // A third session evicts the idle LRU (session 2).
    s.create_session(1, 3, SessionSpec::new(1, 7)).unwrap();
    assert_eq!(s.num_sessions(), 2);
    assert!(s.session_status(1, 2).is_none(), "LRU idle session evicted");
    assert!(s.session_status(1, 1).is_some());
    assert_eq!(s.stats().evictions, 1);

    // With pending ops on every resident, nothing is evictable: reject.
    s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    s.submit(1, 3, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    assert_eq!(
        s.create_session(1, 4, SessionSpec::new(1, 7)),
        Err(ServiceError::ShardFull {
            shard: 0,
            capacity: 2
        })
    );
    // Ops queued against an evicted session fail typed at execution.
    let responses = s.run_batch();
    assert!(responses.iter().all(|r| r.result.is_ok()));
}

#[test]
fn per_op_failures_are_typed_and_isolated() {
    let s = tiny_service(ServiceLimits::default());
    s.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    // Score before both algorithms have data → NotReadyToScore.
    s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    let not_ready = s.submit(1, 1, SessionOp::Score).unwrap();
    // A NaN measurement → BadSample; the op before it is unaffected.
    let bad = s
        .submit(
            1,
            1,
            SessionOp::Extend {
                alg: 1,
                values: vec![2.0, f64::NAN],
            },
        )
        .unwrap();
    let good = s.submit(1, 1, SessionOp::Score).unwrap();
    let responses = s.run_batch();
    let by_seq = |seq: u64| responses.iter().find(|r| r.seq == seq).unwrap().result.clone();
    assert_eq!(
        by_seq(not_ready),
        Err(ServiceError::NotReadyToScore { missing: 1 })
    );
    assert_eq!(
        by_seq(bad),
        Err(ServiceError::BadSample(SampleError::NonFinite(1)))
    );
    // The finite prefix of the failed Extend was ingested, so the final
    // Score succeeds over both algorithms.
    assert!(matches!(by_seq(good), Ok(OpOutcome::Scored(_))));
    assert_eq!(s.session_status(1, 1).unwrap().total_measurements, 2);
}

/// `ExtendAll` is transactional where `Extend` is streaming: a poisoned
/// wave ingests nothing, reports the slice-relative offender, and leaves
/// the session byte-for-byte where it was.
#[test]
fn extend_all_is_all_or_nothing_at_the_service_layer() {
    let s = tiny_service(ServiceLimits::default());
    s.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    // Out-of-range algorithm index is rejected at submit, before queueing.
    assert!(matches!(
        s.submit(
            1,
            1,
            SessionOp::ExtendAll { alg: 2, values: vec![1.0] }
        ),
        Err(ServiceError::AlgorithmOutOfRange { alg: 2, p: 2 })
    ));
    let ok = s
        .submit(
            1,
            1,
            SessionOp::ExtendAll {
                alg: 0,
                values: vec![1.0, 2.0, 3.0],
            },
        )
        .unwrap();
    let poisoned = s
        .submit(
            1,
            1,
            SessionOp::ExtendAll {
                alg: 1,
                values: vec![4.0, f64::NAN, 5.0],
            },
        )
        .unwrap();
    let responses = s.run_batch();
    let by_seq = |seq: u64| responses.iter().find(|r| r.seq == seq).unwrap().result.clone();
    assert_eq!(by_seq(ok), Ok(OpOutcome::Ingested));
    // The offender index is relative to the submitted wave, and nothing
    // from the wave — not even the finite prefix — was ingested.
    assert_eq!(
        by_seq(poisoned),
        Err(ServiceError::BadSample(SampleError::NonFinite(1)))
    );
    assert_eq!(s.session_status(1, 1).unwrap().total_measurements, 3);
}

#[test]
fn close_frees_the_slot_and_later_ops_fail_typed() {
    let s = tiny_service(ServiceLimits::default());
    s.create_session(1, 1, SessionSpec::new(1, 7)).unwrap();
    let close = s.submit(1, 1, SessionOp::Close).unwrap();
    let after = s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    let responses = s.run_batch();
    assert_eq!(
        responses.iter().find(|r| r.seq == close).unwrap().result,
        Ok(OpOutcome::Closed)
    );
    assert!(matches!(
        responses.iter().find(|r| r.seq == after).unwrap().result,
        Err(ServiceError::SessionUnknown { .. })
    ));
    assert_eq!(s.num_sessions(), 0);
    assert!(matches!(
        s.submit(1, 1, SessionOp::Score),
        Err(ServiceError::SessionUnknown { .. })
    ));
}

/// `restore_snapshot` takes caller-built (not codec-validated) values and
/// must still reject — never panic — on inconsistent ones.
#[test]
fn restore_snapshot_rejects_inconsistent_caller_built_values() {
    use relperf_core::session::SessionState;
    use relperf_service::snapshot::SessionSnapshot;
    let s = tiny_service(ServiceLimits::default());
    let empty_state = |p: usize| SessionState {
        samples: vec![None; p],
        dirty: vec![false; p],
        ingested: false,
        table: None,
        waves: 0,
        stable_run: 0,
        converged: false,
    };
    let snap = |state: SessionState, repetitions: usize, stable_waves: usize| SessionSnapshot {
        config: ClusterConfig {
            repetitions,
            ..Default::default()
        },
        seed: 1,
        criterion: ConvergenceCriterion {
            stable_waves,
            score_tol: 0.1,
        },
        state,
        rng_states: Vec::new(),
    };
    assert_eq!(
        s.restore_snapshot(1, 1, snap(empty_state(0), 5, 2)),
        Err(ServiceError::NoAlgorithms)
    );
    assert_eq!(
        s.restore_snapshot(1, 1, snap(empty_state(2), 0, 2)),
        Err(ServiceError::NoRepetitions)
    );
    assert!(matches!(
        s.restore_snapshot(1, 1, snap(empty_state(2), 5, 0)),
        Err(ServiceError::InvalidCriterion(_))
    ));
    let mut ragged = empty_state(2);
    ragged.dirty = vec![false];
    assert!(matches!(
        s.restore_snapshot(1, 1, snap(ragged, 5, 2)),
        Err(ServiceError::BadSnapshot(_))
    ));
    assert_eq!(s.num_sessions(), 0);
    // A consistent caller-built snapshot is admitted.
    s.restore_snapshot(1, 1, snap(empty_state(2), 5, 2)).unwrap();
    assert_eq!(s.num_sessions(), 1);
}

/// A spec whose comparison caches would not fit the per-session budget is
/// rejected typed before anything is allocated — through a fresh create
/// and through restore bytes carrying a forged repetition count — so one
/// tenant cannot abort the process every tenant shares.
#[test]
fn oversized_sessions_are_rejected_before_allocating() {
    use relperf_core::cache::ComparisonCache;
    use relperf_core::session::SessionState;
    use relperf_measure::Outcome;
    use relperf_service::service::MAX_SESSION_CACHE_BYTES;
    use relperf_service::snapshot::{self, SessionSnapshot};
    use std::mem::size_of;
    let s = tiny_service(ServiceLimits::default());
    let huge = 1usize << 40;
    let too_large = |algorithms, repetitions| {
        Err(ServiceError::SessionTooLarge {
            algorithms,
            repetitions,
        })
    };
    let spec = |algorithms: usize, repetitions: usize| {
        let mut spec = SessionSpec::new(algorithms, 7);
        spec.config = ClusterConfig {
            repetitions,
            ..Default::default()
        };
        spec
    };
    assert_eq!(s.create_session(1, 1, spec(1, huge)), too_large(1, huge));
    assert_eq!(s.create_session(1, 2, spec(8, huge)), too_large(8, huge));
    // p² overflows usize: still typed, not a wrapped product.
    assert_eq!(s.create_session(1, 3, spec(huge, 1)), too_large(huge, 1));
    // The budget itself fits; one repetition more does not.
    let per_rep = size_of::<ComparisonCache>() + 64 * 64 * size_of::<Option<Outcome>>();
    let fits = MAX_SESSION_CACHE_BYTES / per_rep;
    assert_eq!(
        s.create_session(1, 4, spec(64, fits + 1)),
        too_large(64, fits + 1)
    );
    s.create_session(1, 5, spec(64, fits)).unwrap();

    let forged = |repetitions: usize| {
        snapshot::encode(&SessionSnapshot {
            config: ClusterConfig {
                repetitions,
                ..Default::default()
            },
            seed: 1,
            criterion: ConvergenceCriterion::default(),
            state: SessionState {
                samples: vec![None; 8],
                dirty: vec![false; 8],
                ingested: false,
                table: None,
                waves: 0,
                stable_run: 0,
                converged: false,
            },
            rng_states: Vec::new(),
        })
    };
    assert_eq!(s.restore_session(2, 1, &forged(huge)), too_large(8, huge));
    assert_eq!(s.num_sessions(), 1);
    assert_eq!(s.stats().rejections, 5);
}

#[test]
fn stats_count_requests_waves_and_batches() {
    let s = tiny_service(ServiceLimits::default());
    s.create_session(1, 1, SessionSpec::new(1, 7)).unwrap();
    s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    s.submit(1, 1, SessionOp::Score).unwrap();
    s.run_batch();
    s.run_batch(); // empty batch: counts nothing (idle pollers stay free)
    let stats = s.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.rejections, 0);
    assert_eq!(stats.waves, 1);
    assert_eq!(stats.batches, 1);
    // Op-level identities (quiesced): every submitted op was admitted and
    // executed, nothing queued, nothing shed.
    assert_eq!(stats.ops_submitted, 2);
    assert_eq!(stats.ops_admitted + stats.ops_rejected, stats.ops_submitted);
    assert_eq!(stats.ops_executed, stats.ops_admitted);
    assert_eq!(stats.shed, 0);
    assert_eq!(s.queued_ops(), 0);
}

/// Snapshot-on-evict: with spilling on, a displaced LRU session is not
/// gone — it is parked as snapshot bytes, reports `spilled` status, and
/// the next op addressed to it transparently rehydrates it (displacing
/// someone else in turn).
#[test]
fn evicted_sessions_spill_and_rehydrate_on_touch() {
    let s = tiny_service(ServiceLimits {
        sessions_per_shard: 2,
        tenant_in_flight: 64,
        shard_queue_depth: 64,
        spill_per_shard: 8,
        ..ServiceLimits::default()
    });
    s.create_session(1, 1, SessionSpec::new(1, 7)).unwrap();
    s.create_session(1, 2, SessionSpec::new(1, 7)).unwrap();
    // Touch session 1 so session 2 is the LRU, then overflow the shard.
    s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    s.run_batch();
    s.create_session(1, 3, SessionSpec::new(1, 7)).unwrap();

    assert_eq!(s.num_sessions(), 2);
    assert_eq!(s.num_spilled(), 1);
    let status = s.session_status(1, 2).expect("spilled, not gone");
    assert!(status.spilled);
    assert_eq!(s.stats().spills, 1);
    assert_eq!(s.stats().evictions, 0, "spilled sessions are not lost");

    // A duplicate create on the spilled key is still SessionExists.
    assert!(matches!(
        s.create_session(1, 2, SessionSpec::new(1, 7)),
        Err(ServiceError::SessionExists { .. })
    ));

    // Touching the spilled session rehydrates it; its measurements are
    // intact and someone else got spilled to make room.
    let seq = s.submit(1, 2, SessionOp::Push { alg: 0, value: 2.0 }).unwrap();
    assert!(!s.session_status(1, 2).unwrap().spilled);
    assert_eq!(s.stats().rehydrations, 1);
    assert_eq!(s.num_sessions(), 2);
    assert_eq!(s.num_spilled(), 1);
    let responses = s.run_batch();
    assert!(responses.iter().any(|r| r.seq == seq && r.result.is_ok()));
    assert_eq!(s.session_status(1, 2).unwrap().total_measurements, 1);
}

/// The spill store is bounded: beyond `spill_per_shard` the oldest
/// snapshot is dropped for good, counted as a hard eviction.
#[test]
fn spill_store_overflow_drops_oldest_for_good() {
    let s = tiny_service(ServiceLimits {
        sessions_per_shard: 1,
        tenant_in_flight: 64,
        shard_queue_depth: 64,
        spill_per_shard: 1,
        ..ServiceLimits::default()
    });
    s.create_session(1, 1, SessionSpec::new(1, 7)).unwrap();
    s.create_session(1, 2, SessionSpec::new(1, 7)).unwrap(); // spills 1
    s.create_session(1, 3, SessionSpec::new(1, 7)).unwrap(); // spills 2, drops 1
    assert_eq!(s.num_sessions(), 1);
    assert_eq!(s.num_spilled(), 1);
    assert!(s.session_status(1, 1).is_none(), "oldest spill dropped");
    assert!(s.session_status(1, 2).unwrap().spilled);
    let stats = s.stats();
    assert_eq!(stats.spills, 2);
    assert_eq!(stats.evictions, 1);
}
