//! Crash recovery goldens: a journaled service recovered from its stores
//! continues **wave-for-wave bit-identical** to a run that never crashed,
//! proven by an exhaustive crash-point × campaign-step fault-injection
//! sweep; corruption and future-version streams surface as typed
//! [`RecoveryError`]s, never panics.

mod support;

use relperf_core::cluster::Parallelism;
use relperf_measure::compare::BootstrapComparator;
use relperf_service::journal::{self, JournalError};
use relperf_service::prelude::*;
use relperf_service::service::SessionService;
use support::*;

fn recover(
    handles: &[MemJournalStore],
) -> Result<(SessionService<BootstrapComparator>, RecoveryReport), RecoveryError> {
    SessionService::recover(
        comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        config(),
        boxed(handles),
    )
}

/// Journaling itself must not perturb results: the journaled script run
/// equals the same script on an unjournaled service, wave for wave.
#[test]
fn journaled_run_matches_unjournaled_run() {
    let (journaled_outcomes, journaled_probes) = golden();
    let plain = SessionService::new(
        comparator(),
        SHARDS,
        Parallelism::auto(),
        ServiceLimits::default(),
    );
    for (i, step) in script().into_iter().enumerate() {
        let outcome = match step {
            Step::Compact => None, // no journal to compact
            s => apply(&plain, s),
        };
        assert_eq!(outcome, journaled_outcomes[i], "step {i} diverged");
    }
    for (i, &(t, s)) in TENANTS.iter().enumerate() {
        assert_eq!(run_wave(&plain, t, s, WAVES), journaled_probes[i]);
    }
    // The journaled run actually journaled.
    let handles = handles(1);
    let svc = journaled(&handles);
    svc.create_session(1, 1, SessionSpec::new(2, 1)).unwrap();
    let stats = svc.stats();
    assert!(stats.journal_appends >= 1);
    assert!(stats.journal_syncs >= 1);
    assert!(stats.journal_compactions >= 1, "with_journal installs a base");
}

/// A graceful restart — flush, drop, recover — is bit-identical and torn
/// -free.
#[test]
fn graceful_restart_is_bit_identical() {
    let (golden_outcomes, golden_probes) = golden();
    let steps = script();
    let handles = handles(SHARDS);
    let service = journaled(&handles);
    let half = steps.len() / 2;
    for (i, &step) in steps[..half].iter().enumerate() {
        assert_eq!(apply(&service, step), golden_outcomes[i]);
    }
    service.flush_journals().unwrap();
    drop(service);

    let (recovered, report) = recover(&handles).unwrap();
    assert_eq!(report.torn_shards, 0, "graceful shutdown tears nothing");
    assert_eq!(report.sessions, TENANTS.len());
    for (i, &step) in steps.iter().enumerate().skip(half) {
        assert_eq!(apply(&recovered, step), golden_outcomes[i], "step {i} diverged");
    }
    for (i, &(t, s)) in TENANTS.iter().enumerate() {
        assert_eq!(run_wave(&recovered, t, s, WAVES), golden_probes[i]);
    }
}

/// Re-runs the campaign, crashing at step `k` via `point`, recovering,
/// reconciling the ambiguous step through `session_status`, and asserting
/// every observable wave (and the final probes) against the golden.
fn crash_at(
    point: CrashPoint,
    k: usize,
    golden_outcomes: &[Option<WaveOutcome>],
    golden_probes: &[WaveOutcome],
) {
    let steps = script();
    let handles = handles(SHARDS);
    let service = journaled(&handles);
    for (i, &step) in steps[..k].iter().enumerate() {
        assert_eq!(apply(&service, step), golden_outcomes[i]);
    }

    // Arm every store: an admission step fires only the store it
    // touches, a `Compact` step fires every store (shards compact
    // concurrently and each attempts its install); power_cycle disarms
    // the rest.
    for h in &handles {
        h.arm(point);
    }
    match steps[k] {
        Step::Create(t, s) => {
            let err = service
                .create_session(t, s, SessionSpec::new(2, 33 + t))
                .unwrap_err();
            assert!(matches!(err, ServiceError::Journal(_)), "{point}: {err}");
        }
        Step::Wave(t, s, w) => {
            let err = service.submit_all(t, s, wave_ops(w)).unwrap_err();
            assert!(matches!(err, ServiceError::Journal(_)), "{point}: {err}");
        }
        Step::Compact => {
            let err = service.compact_all().unwrap_err();
            assert!(matches!(err, ServiceError::Journal(_)), "{point}: {err}");
        }
    }
    assert!(
        handles.iter().any(|h| h.crashed()),
        "{point} at step {k}: no store crashed"
    );

    // The process dies; the machine restarts; we recover from the stores.
    drop(service);
    for h in &handles {
        h.power_cycle();
    }
    let (recovered, _report) = recover(&handles)
        .unwrap_or_else(|e| panic!("{point} at step {k}: recovery failed: {e}"));

    // Reconcile the ambiguous step: `Crashed` does not say whether the
    // admission became durable (BeforeExecute: yes; AfterAppend/Torn
    // Append: no), so consult the recovered state before resubmitting —
    // the journal's (tenant, seq) idempotence forbids blind resubmission.
    match steps[k] {
        Step::Create(t, s) => {
            if recovered.session_status(t, s).is_none() {
                recovered.create_session(t, s, SessionSpec::new(2, 33 + t)).unwrap();
            }
        }
        Step::Wave(t, s, w) => {
            let status = recovered.session_status(t, s).expect("created earlier");
            if status.waves == w as usize {
                // The group never became durable: resubmit it whole and
                // the outcome must equal the golden's.
                assert_eq!(
                    status.total_measurements,
                    w as usize * WAVE_MEASUREMENTS,
                    "{point} at step {k}: partial wave survived an atomic group"
                );
                let outcome = run_wave(&recovered, t, s, w);
                assert_eq!(
                    Some(outcome),
                    golden_outcomes[k],
                    "{point} at step {k}: resubmitted wave diverged"
                );
            } else {
                // Durable-but-unacked: replay already applied the whole
                // group, bit-identically.
                assert_eq!(status.waves, w as usize + 1, "{point} at step {k}");
                assert_eq!(
                    status.total_measurements,
                    (w as usize + 1) * WAVE_MEASUREMENTS,
                    "{point} at step {k}: replayed wave applied partially"
                );
            }
        }
        Step::Compact => {
            // Compaction is internal bookkeeping; recovery already
            // installed a fresh checkpoint everywhere.
        }
    }

    // The rest of the campaign, and the probes, must match the golden
    // exactly.
    for (i, &step) in steps.iter().enumerate().skip(k + 1) {
        assert_eq!(
            apply(&recovered, step),
            golden_outcomes[i],
            "{point} at step {k}: post-recovery step {i} diverged"
        );
    }
    for (i, &(t, s)) in TENANTS.iter().enumerate() {
        assert_eq!(
            run_wave(&recovered, t, s, WAVES),
            golden_probes[i],
            "{point} at step {k}: probe wave for tenant {t} diverged"
        );
    }
}

/// The tentpole's proof: every crash point, injected at every compatible
/// step of the scripted multi-tenant campaign, recovers to a service
/// whose every subsequent wave is bit-identical to the crash-free golden.
#[test]
fn exhaustive_crash_point_sweep_is_bit_identical() {
    let (golden_outcomes, golden_probes) = golden();
    let steps = script();
    let mut injected = 0;
    for &point in CRASH_POINTS.iter() {
        for (k, &step) in steps.iter().enumerate() {
            // Append-path points fire inside admissions; install-path
            // points fire inside checkpoint installs.
            let compatible = match point {
                CrashPoint::AfterAppend | CrashPoint::TornAppend | CrashPoint::BeforeExecute => {
                    !matches!(step, Step::Compact)
                }
                CrashPoint::MidSnapshot | CrashPoint::MidCompaction => {
                    matches!(step, Step::Compact)
                }
            };
            if !compatible {
                continue;
            }
            crash_at(point, k, &golden_outcomes, &golden_probes);
            injected += 1;
        }
    }
    assert_eq!(
        injected,
        3 * (steps.len() - WAVES as usize) + 2 * WAVES as usize,
        "the sweep must cover every compatible (point, step) pair"
    );
}

/// A torn final record is detected, truncated, and reported — recovery
/// succeeds.
#[test]
fn torn_tail_is_truncated_and_reported() {
    let handles = handles(1);
    let service = journaled(&handles);
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    run_wave(&service, 1, 1, 0);
    handles[0].arm(CrashPoint::TornAppend);
    assert!(service.submit_all(1, 1, wave_ops(1)).is_err());
    drop(service);
    handles[0].power_cycle();

    let (recovered, report) = recover(&handles).unwrap();
    assert_eq!(report.torn_shards, 1, "the half-written group must be torn");
    // The torn group is gone entirely: atomic admission, atomic loss.
    let status = recovered.session_status(1, 1).unwrap();
    assert_eq!(status.waves, 1);
    assert_eq!(status.total_measurements, WAVE_MEASUREMENTS);
}

/// A crash between base-install and journal-reset leaves stale journal
/// records under a newer checkpoint; replay deduplicates them by seq.
#[test]
fn mid_snapshot_crash_dedupes_replay() {
    let handles = handles(1);
    let service = journaled(&handles);
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    run_wave(&service, 1, 1, 0);
    handles[0].arm(CrashPoint::MidSnapshot);
    assert!(service.compact_all().is_err());
    drop(service);
    handles[0].power_cycle();

    let (recovered, report) = recover(&handles).unwrap();
    assert!(
        report.deduped_ops >= 3,
        "the checkpointed wave's journal records must dedupe, got {report:?}"
    );
    assert_eq!(report.replayed_ops, 0);
    assert_eq!(recovered.session_status(1, 1).unwrap().waves, 1);
}

/// A replayed `Close` removes the session: the ops after it in its group
/// and a later group addressed to the closed key are dropped (the live
/// run answered them `SessionUnknown`), counted, and leave the other
/// session untouched.
#[test]
fn replayed_close_drops_the_session_and_its_later_ops() {
    let handles = handles(1);
    let service = journaled(&handles);
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    service.create_session(1, 2, SessionSpec::new(2, 8)).unwrap();
    run_wave(&service, 1, 2, 0);
    // Both groups are admitted before either executes, so both are
    // journaled.
    let close = vec![
        SessionOp::Extend { alg: 0, values: noisy(1.0, 5, 1) },
        SessionOp::Close,
        SessionOp::Score,
    ];
    service.submit_all(1, 1, close).unwrap();
    service.submit_all(1, 1, vec![SessionOp::Push { alg: 1, value: 2.0 }]).unwrap();
    service.run_batch();
    assert!(service.session_status(1, 1).is_none());
    drop(service);

    let (recovered, report) = recover(&handles).unwrap();
    assert!(recovered.session_status(1, 1).is_none(), "a closed session came back");
    assert_eq!(recovered.session_status(1, 2).unwrap().waves, 1);
    assert_eq!(report.sessions, 1);
    assert_eq!(report.dropped_ops, 2, "the Score after Close and the later Push, got {report:?}");
}

/// Shards compact concurrently, but failures still come back in shard
/// order: with two armed stores, `compact_all` and the post-recovery
/// checkpoint both name the lower shard, and every unarmed shard still
/// installs its fresh checkpoint.
#[test]
fn concurrent_compaction_reports_the_lowest_failing_shard() {
    const WIDE: usize = 16;
    const ARMED: [usize; 2] = [3, 9];
    let arm = |handles: &[MemJournalStore]| {
        for idx in ARMED {
            handles[idx].arm(CrashPoint::MidSnapshot);
        }
    };
    let handles = handles(WIDE);
    let service = journaled(&handles);
    for tenant in 1..=8 {
        service.create_session(tenant, 1, SessionSpec::new(2, tenant)).unwrap();
    }
    let installed = |h: &MemJournalStore| h.counters().2;
    let before: Vec<u64> = handles.iter().map(installed).collect();

    arm(&handles);
    let err = service.compact_all().unwrap_err();
    assert!(matches!(err, ServiceError::Journal(JournalIoError::Crashed)), "{err}");
    for (idx, h) in handles.iter().enumerate() {
        let armed = ARMED.contains(&idx);
        assert_eq!(h.crashed(), armed, "shard {idx}");
        let fresh = installed(h) == before[idx] + 1;
        assert_eq!(fresh, !armed, "shard {idx}: fresh checkpoint iff unarmed");
    }
    drop(service);

    for h in &handles {
        h.power_cycle();
    }
    arm(&handles);
    match recover(&handles) {
        Err(RecoveryError::Checkpoint { shard, .. }) => assert_eq!(shard, ARMED[0]),
        Err(e) => panic!("expected a checkpoint failure, got {e}"),
        Ok(_) => panic!("recovery must fail on the armed shards"),
    }
    assert!(ARMED.iter().all(|&idx| handles[idx].crashed()));
}

/// Mid-journal corruption (not a torn tail) is a typed error naming the
/// shard and byte offset — never a panic, never silent truncation.
#[test]
fn mid_journal_corruption_is_typed() {
    let handles = handles(1);
    let service = journaled(&handles);
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    run_wave(&service, 1, 1, 0); // ≥ 2 journal records (create + ops)
    service.flush_journals().unwrap();
    drop(service);

    let mut stored = handles[0].stored();
    // Flip one bit inside the *first* record's payload: bytes after it
    // are intact, so this must scan as corruption, not a torn tail.
    stored.journal[10] ^= 1;
    handles[0].replace(stored);
    match recover(&handles) {
        Err(RecoveryError::Journal {
            shard: 0,
            error: JournalError::Corrupt { offset, .. },
        }) => assert_eq!(offset, 6, "the offending record's frame offset is named"),
        other => panic!("expected typed corruption, got {other:?}"),
    }
}

/// A corrupt base (the strict artifact) is typed; a future-version stream
/// is refused as `UnsupportedVersion`, not misread as corruption.
#[test]
fn corrupt_base_and_future_versions_are_typed() {
    let handles = handles(1);
    let service = journaled(&handles);
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    service.compact_all().unwrap();
    drop(service);
    let good = handles[0].stored();

    // Garbage base: bad magic.
    handles[0].replace(StoredShard {
        base: b"garbage".to_vec(),
        journal: good.journal.clone(),
    });
    assert!(matches!(
        recover(&handles),
        Err(RecoveryError::Journal {
            shard: 0,
            error: JournalError::BadMagic,
        })
    ));

    // Version-bumped base: typed as a future version.
    let mut future = good.clone();
    future.base[4] = journal::VERSION as u8 + 1;
    handles[0].replace(future);
    assert!(matches!(
        recover(&handles),
        Err(RecoveryError::Journal {
            shard: 0,
            error: JournalError::UnsupportedVersion {
                found,
                supported,
            },
        }) if found == journal::VERSION + 1 && supported == journal::VERSION
    ));

    // Truncated base (strict artifact — torn is not tolerated there).
    let mut torn = good.clone();
    torn.base.truncate(torn.base.len() - 3);
    handles[0].replace(torn);
    assert!(matches!(
        recover(&handles),
        Err(RecoveryError::Journal {
            shard: 0,
            error: JournalError::Corrupt { .. },
        })
    ));

    // Intact stores still recover fine.
    handles[0].replace(good);
    let (recovered, report) = recover(&handles).unwrap();
    assert_eq!(report.sessions, 1);
    assert!(recovered.session_status(1, 1).is_some());
}

/// Recovering from never-written stores yields an empty, working service.
#[test]
fn recover_from_empty_stores() {
    let handles = handles(3);
    let (service, report) = recover(&handles).unwrap();
    assert_eq!(report, RecoveryReport { next_seq: 0, ..Default::default() });
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    run_wave(&service, 1, 1, 0);
}

/// Admission tickets stay monotone across a recovery: no recycled seqs.
#[test]
fn seq_counter_resumes_past_journaled_ops() {
    let handles = handles(2);
    let service = journaled(&handles);
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    let seqs = service.submit_all(1, 1, wave_ops(0)).unwrap();
    let max_seq = *seqs.last().unwrap();
    service.run_batch();
    service.flush_journals().unwrap();
    drop(service);

    let (recovered, report) = recover(&handles).unwrap();
    assert!(report.next_seq > max_seq);
    let fresh = recovered.submit_all(1, 1, wave_ops(1)).unwrap();
    assert!(fresh[0] >= report.next_seq, "recycled admission ticket");
}

/// The runtime convenience path: `ServiceRuntime::recover` resumes a
/// pipelined deployment, and the recovered sessions keep their goldens.
#[test]
fn runtime_recover_resumes_pipelined_service() {
    let (golden_outcomes, _) = golden();
    let handles = handles(SHARDS);
    let service = journaled(&handles);
    let steps = script();
    let half = steps.len() / 2;
    for (i, &step) in steps[..half].iter().enumerate() {
        assert_eq!(apply(&service, step), golden_outcomes[i]);
    }
    service.flush_journals().unwrap();
    drop(service);

    let (runtime, report) = ServiceRuntime::recover(
        comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        config(),
        boxed(&handles),
        RuntimeConfig {
            scheduler_threads: 0, // deterministic drive-on-drain
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.sessions, TENANTS.len());
    let (t, s) = TENANTS[0];
    let seqs = runtime.submit_all(t, s, wave_ops(1)).unwrap();
    let responses = runtime
        .await_responses(t, &seqs, std::time::Duration::from_secs(5))
        .unwrap();
    let outcome = scored(&responses, *seqs.last().unwrap());
    // Step indices: 3 creates, then wave 0 × 3 tenants, compact, wave 1…
    let golden_wave1 = golden_outcomes[3 + TENANTS.len() + 1].clone().unwrap();
    assert_eq!(outcome, golden_wave1);
    runtime.flush_journals().unwrap();
    runtime.compact_all().unwrap();
    runtime.shutdown();
}

/// End-to-end over real files: run, drop, reopen the directory, recover.
#[test]
fn file_backed_recovery_round_trip() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("recovery-file-store");
    let _ = std::fs::remove_dir_all(&root);
    let open_stores = || -> Vec<Box<dyn JournalStore>> {
        (0..2)
            .map(|i| {
                Box::new(FileJournalStore::open(root.join(format!("shard-{i}"))).unwrap())
                    as Box<dyn JournalStore>
            })
            .collect()
    };
    let service = SessionService::with_journal(
        comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        config(),
        open_stores(),
    )
    .unwrap();
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    let first = run_wave(&service, 1, 1, 0);
    // No flush: group_commit=1 already synced every admission.
    drop(service);

    let (recovered, report) = SessionService::recover(
        comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        config(),
        open_stores(),
    )
    .unwrap();
    assert_eq!(report.sessions, 1);
    let status = recovered.session_status(1, 1).unwrap();
    assert_eq!(status.waves, 1);
    assert_eq!(status.total_measurements, WAVE_MEASUREMENTS);
    // The recovered session keeps scoring deterministically.
    let golden_svc = SessionService::new(comparator(), 2, Parallelism::auto(), ServiceLimits::default());
    golden_svc.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    assert_eq!(run_wave(&golden_svc, 1, 1, 0), first);
    assert_eq!(run_wave(&recovered, 1, 1, 1), run_wave(&golden_svc, 1, 1, 1));
}
