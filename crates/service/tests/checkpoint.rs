//! Checkpoint/restore goldens: a restored session (or campaign) continues
//! wave-for-wave bit-identically to one that never stopped.

mod support;

use relperf_core::cluster::{ClusterConfig, Parallelism};
use relperf_core::session::ConvergenceCriterion;
use relperf_measure::compare::BootstrapComparator;
use relperf_service::prelude::*;
use relperf_service::service::SessionService;
use relperf_workloads::adaptive::{AdaptiveExperiment, WaveSchedule};
use relperf_workloads::experiment::Experiment;
use support::{comparator, noisy, scored};

fn service(shards: usize) -> SessionService<BootstrapComparator> {
    SessionService::new(
        comparator(),
        shards,
        Parallelism::auto(),
        ServiceLimits::default(),
    )
}

fn submit_wave(service: &SessionService<BootstrapComparator>, tenant: u64, session: u64, wave: u64) -> u64 {
    for alg in 0..2u64 {
        service
            .submit(
                tenant,
                session,
                SessionOp::Extend {
                    alg: alg as usize,
                    values: noisy(1.0 + alg as f64, 5, wave * 2 + alg),
                },
            )
            .unwrap();
    }
    service.submit(tenant, session, SessionOp::Score).unwrap()
}

/// The satellite's golden: snapshot → restore → continue equals an
/// uninterrupted run, wave for wave, across different shard counts and a
/// fresh service instance (i.e. across a simulated process restart).
#[test]
fn snapshot_restore_continue_matches_uninterrupted_run() {
    let uninterrupted = service(4);
    uninterrupted.create_session(1, 9, SessionSpec::new(2, 33)).unwrap();
    let interrupted = service(4);
    interrupted.create_session(1, 9, SessionSpec::new(2, 33)).unwrap();

    for wave in 0..2 {
        let a = submit_wave(&uninterrupted, 1, 9, wave);
        let b = submit_wave(&interrupted, 1, 9, wave);
        let wa = scored(&uninterrupted.run_batch(), a);
        let wb = scored(&interrupted.run_batch(), b);
        assert_eq!(wa, wb);
    }

    // Checkpoint the interrupted service's session and carry the bytes to
    // a brand-new service with a different shard count.
    let seq = interrupted.submit(1, 9, SessionOp::Snapshot).unwrap();
    let responses = interrupted.run_batch();
    let r = responses.iter().find(|r| r.seq == seq).unwrap();
    let OpOutcome::Snapshot(bytes) = r.result.clone().unwrap() else {
        panic!("expected snapshot bytes");
    };
    drop(interrupted);

    let restored = service(13);
    restored.restore_session(1, 9, &bytes).unwrap();
    assert_eq!(
        restored.session_status(1, 9).unwrap().waves,
        2,
        "wave count survives the restore"
    );

    for wave in 2..5 {
        let a = submit_wave(&uninterrupted, 1, 9, wave);
        let b = submit_wave(&restored, 1, 9, wave);
        let wa = scored(&uninterrupted.run_batch(), a);
        let wb = scored(&restored.run_batch(), b);
        assert_eq!(wa, wb, "wave {wave} diverged after restore");
    }
}

/// The snapshot-on-evict golden: a session forced out of residency
/// mid-campaign (spilled to codec bytes by registry pressure) and
/// rehydrated by its next touch continues wave-for-wave bit-identically
/// to a session that never left memory.
#[test]
fn evicted_and_rehydrated_session_is_wave_for_wave_identical() {
    // Roomy reference service: the session never leaves memory.
    let uninterrupted = service(4);
    uninterrupted.create_session(1, 9, SessionSpec::new(2, 33)).unwrap();
    // One-shard, two-slot service: creating filler sessions forces the
    // session under test out of residency between waves.
    let tight = SessionService::new(
        comparator(),
        1,
        Parallelism::auto(),
        ServiceLimits {
            sessions_per_shard: 2,
            spill_per_shard: 16,
            ..ServiceLimits::default()
        },
    );
    tight.create_session(1, 9, SessionSpec::new(2, 33)).unwrap();

    for wave in 0..4 {
        if wave == 1 || wave == 3 {
            // Fill the shard with fresher sessions; the session under
            // test is the LRU idle resident and must spill.
            for filler in 0..2 {
                let key = 100 + wave * 10 + filler;
                let _ = tight.create_session(2, key, SessionSpec::new(1, 7));
                tight
                    .submit(2, key, SessionOp::Push { alg: 0, value: 1.0 })
                    .unwrap();
            }
            tight.run_batch();
            assert!(
                tight.session_status(1, 9).expect("spilled, not gone").spilled,
                "registry pressure must have spilled the session before wave {wave}"
            );
        }
        let a = submit_wave(&uninterrupted, 1, 9, wave);
        let b = submit_wave(&tight, 1, 9, wave); // touch rehydrates
        assert!(!tight.session_status(1, 9).unwrap().spilled);
        let wa = scored(&uninterrupted.run_batch(), a);
        let wb = scored(&tight.run_batch(), b);
        assert_eq!(wa, wb, "wave {wave} diverged across spill/rehydrate");
    }
    let stats = tight.stats();
    assert!(stats.spills >= 2, "expected at least two spills, got {}", stats.spills);
    assert!(stats.rehydrations >= 2);
    assert_eq!(stats.evictions, 0, "nothing was dropped for good");
}

#[test]
fn restore_rejects_corrupt_and_duplicate() {
    let s = service(2);
    s.create_session(1, 1, SessionSpec::new(2, 5)).unwrap();
    s.submit(1, 1, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
    let seq = s.submit(1, 1, SessionOp::Snapshot).unwrap();
    let responses = s.run_batch();
    let OpOutcome::Snapshot(bytes) = scored_any(&responses, seq) else {
        panic!()
    };
    // Corruption is rejected with a typed error.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 1;
    assert!(matches!(
        s.restore_session(1, 2, &corrupt),
        Err(ServiceError::BadSnapshot(SnapshotError::ChecksumMismatch { .. }))
    ));
    // Restoring over a live key is rejected.
    assert!(matches!(
        s.restore_session(1, 1, &bytes),
        Err(ServiceError::SessionExists { .. })
    ));
    // Restoring under a fresh key clones the session's state.
    s.restore_session(1, 2, &bytes).unwrap();
    assert_eq!(s.session_status(1, 2).unwrap().total_measurements, 1);
}

fn scored_any(responses: &[OpResponse], seq: u64) -> OpOutcome {
    responses
        .iter()
        .find(|r| r.seq == seq)
        .unwrap()
        .result
        .clone()
        .unwrap()
}

/// A service campaign equals the single-caller `AdaptiveExperiment` —
/// same measurement streams, same tables, same stopping point.
#[test]
fn service_campaign_matches_adaptive_experiment() {
    let exp = Experiment::fig1();
    let cmp = comparator();
    let cfg = ClusterConfig {
        repetitions: 20,
        ..Default::default()
    };
    let criterion = ConvergenceCriterion::default();
    let schedule = WaveSchedule {
        initial: 8,
        wave: 4,
        max_per_algorithm: 24,
    };

    let mut reference = AdaptiveExperiment::new(&exp, &cmp, cfg, criterion, schedule, 77, 13);
    let svc = service(8);
    let mut campaign =
        ServiceCampaign::new(&svc, &exp, 42, 1, cfg, criterion, schedule, 77, 13).unwrap();

    while reference.budget_remaining() && !reference.converged() {
        let expect = reference.wave().clone();
        let got = campaign.wave().unwrap().table.clone();
        assert_eq!(got, expect);
        assert_eq!(campaign.converged(), reference.converged());
        assert_eq!(
            campaign.measurements_per_algorithm(),
            reference.measurements_per_algorithm()
        );
    }
}

/// Campaign checkpoints carry the measurement RNG states: a resumed
/// campaign's remaining waves are bit-identical to an uninterrupted one.
#[test]
fn campaign_checkpoint_resume_is_bit_identical() {
    let exp = Experiment::fig1();
    let cfg = ClusterConfig {
        repetitions: 20,
        ..Default::default()
    };
    // Never converge: exercise the full budget on both sides.
    let never = ConvergenceCriterion {
        stable_waves: usize::MAX,
        score_tol: 0.0,
    };
    let schedule = WaveSchedule {
        initial: 6,
        wave: 3,
        max_per_algorithm: 18,
    };

    let svc_a = service(4);
    let mut uninterrupted =
        ServiceCampaign::new(&svc_a, &exp, 1, 1, cfg, never, schedule, 5, 6).unwrap();
    let svc_b = service(4);
    let mut doomed = ServiceCampaign::new(&svc_b, &exp, 1, 1, cfg, never, schedule, 5, 6).unwrap();

    let first_a = uninterrupted.wave().unwrap().table.clone();
    let first_b = doomed.wave().unwrap().table.clone();
    assert_eq!(first_a, first_b);

    // Kill the second service mid-campaign; resume from the checkpoint in
    // a brand-new one.
    let checkpoint = doomed.checkpoint().unwrap();
    drop(doomed);
    drop(svc_b);
    let svc_c = service(9);
    let mut resumed =
        ServiceCampaign::resume(&svc_c, &exp, 1, 1, schedule, &checkpoint).unwrap();
    assert_eq!(resumed.measurements_per_algorithm(), 6);

    while uninterrupted.budget_remaining() {
        let expect = uninterrupted.wave().unwrap().table.clone();
        let got = resumed.wave().unwrap().table.clone();
        assert_eq!(got, expect, "post-resume wave diverged");
    }
    assert!(!resumed.budget_remaining());
    resumed.close().unwrap();
    assert_eq!(svc_c.num_sessions(), 0);
}

/// A wave the service refuses at admission consumes nothing: the campaign
/// commits its advanced measurement streams and counts only once
/// `submit_all` admits the whole wave, so the retried wave draws exactly
/// what the refused one drew and every table equals an uninterrupted
/// campaign's, bit for bit.
#[test]
fn refused_wave_commits_nothing_and_retries_bit_identically() {
    let exp = Experiment::fig1();
    let p = exp.placements.len();
    let cfg = ClusterConfig {
        repetitions: 20,
        ..Default::default()
    };
    let never = ConvergenceCriterion {
        stable_waves: usize::MAX,
        score_tol: 0.0,
    };
    let schedule = WaveSchedule {
        initial: 6,
        wave: 3,
        max_per_algorithm: 15,
    };

    let svc_ref = service(4);
    let mut uninterrupted =
        ServiceCampaign::new(&svc_ref, &exp, 1, 1, cfg, never, schedule, 5, 6).unwrap();
    // A wave is `p` Extends plus one Score: the cap admits one whole wave
    // and nothing beside it.
    let svc = SessionService::new(
        comparator(),
        4,
        Parallelism::auto(),
        ServiceLimits {
            tenant_in_flight: p + 1,
            ..ServiceLimits::default()
        },
    );
    let mut campaign = ServiceCampaign::new(&svc, &exp, 1, 1, cfg, never, schedule, 5, 6).unwrap();
    svc.create_session(1, 2, SessionSpec::new(p, 9)).unwrap();

    let mut waves = 0;
    while uninterrupted.budget_remaining() {
        let expect = uninterrupted.wave().unwrap().table.clone();
        let drawn = campaign.measurements_per_algorithm();
        // The tenant's second session holds one in-flight slot.
        svc.submit(1, 2, SessionOp::Push { alg: 0, value: 1.0 }).unwrap();
        let refused = campaign.wave().err();
        assert!(
            matches!(refused, Some(ServiceError::TenantBusy { tenant: 1, .. })),
            "{refused:?}"
        );
        assert_eq!(campaign.measurements_per_algorithm(), drawn);
        svc.run_batch();
        let got = campaign.wave().unwrap().table.clone();
        assert_eq!(got, expect, "retried wave {waves} diverged");
        waves += 1;
    }
    assert_eq!(waves, 4);
    assert!(!campaign.budget_remaining());
    assert_eq!(
        campaign.measurements_per_algorithm(),
        uninterrupted.measurements_per_algorithm()
    );
}

/// `resume` reads every placement's measurement count: a checkpoint whose
/// placements hold different counts does not fit the uniform wave
/// schedule, so it is refused typed — whatever the first placement holds
/// — and nothing is restored.
#[test]
fn resume_refuses_unequal_placement_counts() {
    let exp = Experiment::fig1();
    let cfg = ClusterConfig {
        repetitions: 20,
        ..Default::default()
    };
    let schedule = WaveSchedule {
        initial: 6,
        wave: 3,
        max_per_algorithm: 18,
    };
    let svc = service(4);
    let mut campaign = ServiceCampaign::new(
        &svc,
        &exp,
        1,
        1,
        cfg,
        ConvergenceCriterion::default(),
        schedule,
        5,
        6,
    )
    .unwrap();
    campaign.wave().unwrap();
    let mut snap = relperf_service::snapshot::decode(&campaign.checkpoint().unwrap()).unwrap();
    snap.state.samples[2]
        .as_mut()
        .expect("the wave measured every placement")
        .push(0.5)
        .unwrap();
    snap.state.dirty[2] = true;
    snap.state.ingested = true;
    let bytes = relperf_service::snapshot::encode(&snap);

    let fresh = service(4);
    let err = ServiceCampaign::resume(&fresh, &exp, 1, 1, schedule, &bytes).err();
    assert!(
        matches!(
            err,
            Some(ServiceError::BadSnapshot(SnapshotError::Malformed(_)))
        ),
        "{err:?}"
    );
    assert_eq!(fresh.num_sessions(), 0, "a refused resume restores nothing");
}
