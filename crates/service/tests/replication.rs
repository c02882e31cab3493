//! Replication goldens: a follower replaying shipped journal segments
//! converges **bit-identical** to the leader (proven by the leader's own
//! divergence digests), heals scripted transport damage — drops,
//! duplicates, bounded reordering, truncation, bit flips — injected at
//! every step of a multi-tenant campaign, promotes into a serving leader
//! that finishes the campaign wave-for-wave identical to the golden, and
//! surfaces real divergence as typed [`ReplicationError`]s, never a
//! panic, never silently.

mod support;

use relperf_core::cluster::Parallelism;
use relperf_measure::compare::BootstrapComparator;
use relperf_service::journal::{self, DigestSession, JournalRecord};
use relperf_service::prelude::*;
use relperf_service::replication::{decode_segment, encode_segment};
use relperf_service::service::SessionService;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use support::*;

/// Payload cap for sweep runs: small enough that waves regularly span
/// several segments, so cut points and reordering really bite.
const SWEEP_SEGMENT: usize = 48;

/// A journaled leader whose stores are tapped by a [`JournalShipper`].
fn shipping_leader(
    handles: &[MemJournalStore],
    max_segment: usize,
    limits: ServiceLimits,
) -> (SessionService<BootstrapComparator>, JournalShipper) {
    let (stores, shipper) =
        JournalShipper::wrap_stores(boxed(handles), ShipperConfig { max_segment });
    let service =
        SessionService::with_journal(comparator(), Parallelism::auto(), limits, config(), stores)
            .unwrap();
    (service, shipper)
}

// ---------------------------------------------------------------------------
// Scripted faulty transport
// ---------------------------------------------------------------------------

/// One transport lesion the harness injects into a single delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The segment vanishes (partition): the follower never sees it.
    Drop,
    /// The segment is delivered twice back to back.
    Duplicate,
    /// The segment is held back and delivered after its successor.
    Reorder,
    /// The last 7 bytes are cut off in transit.
    Truncate,
    /// One mid-envelope bit is flipped in transit.
    BitFlip,
}

const FAULTS: [Fault; 5] = [
    Fault::Drop,
    Fault::Duplicate,
    Fault::Reorder,
    Fault::Truncate,
    Fault::BitFlip,
];

/// A [`SegmentTransport`] wrapping a shared follower that applies the
/// armed [`Fault`] to exactly one delivery, then behaves cleanly.
struct FaultyTransport {
    follower: Arc<Mutex<Follower<BootstrapComparator>>>,
    armed: Option<Fault>,
    /// A segment held back by [`Fault::Reorder`], delivered on the next
    /// call (after its successor, when they share a lane).
    held: Option<(usize, Vec<u8>)>,
    injected: usize,
}

impl FaultyTransport {
    fn new(follower: Arc<Mutex<Follower<BootstrapComparator>>>) -> Self {
        FaultyTransport { follower, armed: None, held: None, injected: 0 }
    }

    fn arm(&mut self, fault: Fault) {
        self.armed = Some(fault);
    }

    fn apply(&self, envelope: &[u8]) -> Result<u64, ReplicationError> {
        self.follower
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .apply_segment(envelope)
    }

    fn watermark(&self, shard: usize) -> u64 {
        self.follower.lock().unwrap_or_else(|e| e.into_inner()).watermark(shard)
    }
}

impl SegmentTransport for FaultyTransport {
    fn deliver(&mut self, shard: usize, envelope: &[u8]) -> Result<u64, ReplicationError> {
        if let Some((held_shard, held)) = self.held.take() {
            if held_shard == shard {
                // Swap: the successor lands first (parked in-window), the
                // held segment second (applied, draining the park).
                let _ = self.apply(envelope)?;
                return self.apply(&held);
            }
            // Different lane: release the held segment out of band; its
            // lane re-acks on the next pump.
            let _ = self.apply(&held);
        }
        match self.armed.take() {
            None => self.apply(envelope),
            Some(fault) => {
                self.injected += 1;
                match fault {
                    Fault::Drop => Ok(self.watermark(shard)),
                    Fault::Duplicate => {
                        let _ = self.apply(envelope)?;
                        self.apply(envelope)
                    }
                    Fault::Reorder => {
                        self.held = Some((shard, envelope.to_vec()));
                        Ok(self.watermark(shard))
                    }
                    Fault::Truncate => {
                        self.apply(&envelope[..envelope.len().saturating_sub(7)])
                    }
                    Fault::BitFlip => {
                        let mut tampered = envelope.to_vec();
                        let mid = tampered.len() / 2;
                        tampered[mid] ^= 0x10;
                        self.apply(&tampered)
                    }
                }
            }
        }
    }
}

/// Runs the scripted campaign on a shipping leader, pumping segments to
/// a fresh follower (with `fault` armed at step `k`'s pump, when given),
/// then quiesces, emits divergence digests, and converges. Returns the
/// follower's per-tenant export checksums, every typed delivery error
/// observed, and how many faults actually fired.
fn replicate_campaign(
    max_segment: usize,
    pump_every: usize,
    fault: Option<(Fault, usize)>,
    golden_outcomes: &[Option<WaveOutcome>],
) -> (Vec<u64>, Vec<(usize, ReplicationError)>, usize) {
    let handles = handles(SHARDS);
    let (service, mut shipper) = shipping_leader(&handles, max_segment, ServiceLimits::default());
    let follower = Arc::new(Mutex::new(Follower::new(comparator(), SHARDS)));
    let mut transport = FaultyTransport::new(Arc::clone(&follower));
    let mut errors: Vec<(usize, ReplicationError)> = Vec::new();

    let steps = script();
    for (i, &step) in steps.iter().enumerate() {
        let outcome = apply(&service, step);
        if !golden_outcomes.is_empty() {
            assert_eq!(outcome, golden_outcomes[i], "leader step {i} diverged");
        }
        if let Some((f, at)) = fault {
            if at == i {
                transport.arm(f);
            }
        }
        if (i + 1) % pump_every == 0 {
            errors.extend(shipper.pump(&mut transport).errors);
        }
    }
    // Quiesce the leader and publish its per-session checksums: the
    // follower verifying these digests *is* the bit-identity proof.
    service.flush_journals().unwrap();
    service.emit_digests().unwrap();
    service.flush_journals().unwrap();
    drop(service);

    // Converge: retransmission from the watermark heals every lesion.
    let mut rounds = 0;
    loop {
        let report = shipper.pump(&mut transport);
        errors.extend(report.errors.iter().cloned());
        if report.errors.is_empty()
            && shipper.unacked_segments() == 0
            && transport.held.is_none()
            && transport.armed.is_none()
        {
            break;
        }
        rounds += 1;
        assert!(rounds < 8, "shipper failed to converge: {errors:?}");
    }

    let injected = transport.injected;
    drop(transport);
    let follower = Arc::try_unwrap(follower).ok().expect("transport dropped").into_inner().unwrap();
    assert_eq!(
        *follower.state(),
        ReplicaState::Following,
        "fault {fault:?}: replica left healthy state"
    );
    assert_eq!(follower.num_sessions(), TENANTS.len());
    let checksums = TENANTS
        .iter()
        .map(|&(t, s)| follower.session_checksum(t, s).unwrap())
        .collect();
    (checksums, errors, injected)
}

/// Clean shipping converges: the follower passes every leader digest
/// (bit-identity), acks everything, and holds every campaign session.
#[test]
fn clean_replication_converges_bit_identical() {
    let (golden_outcomes, _) = golden();
    let (checksums, errors, injected) =
        replicate_campaign(SWEEP_SEGMENT, 1, None, &golden_outcomes);
    assert!(errors.is_empty(), "clean transport reported errors: {errors:?}");
    assert_eq!(injected, 0);
    assert_eq!(checksums.len(), TENANTS.len());
    // The checksums are the real export digests, not placeholders.
    assert!(checksums.iter().all(|&c| c != 0));
}

/// The tentpole's proof: every transport lesion, injected at every step
/// of the scripted campaign, either heals through retransmission (the
/// follower converges to the leader's exact state, digest-verified) or
/// surfaces as a recoverable typed error — never a panic, never a
/// silently diverged replica.
#[test]
fn partition_fault_sweep_converges_or_reports_typed() {
    let (golden_outcomes, _) = golden();
    let (clean, _, _) = replicate_campaign(SWEEP_SEGMENT, 1, None, &golden_outcomes);
    let steps = script();
    for &fault in FAULTS.iter() {
        for k in 0..steps.len() {
            let (checksums, errors, injected) =
                replicate_campaign(SWEEP_SEGMENT, 1, Some((fault, k)), &golden_outcomes);
            assert_eq!(injected, 1, "{fault:?} at step {k}: fault never fired");
            assert_eq!(
                checksums, clean,
                "{fault:?} at step {k}: follower diverged from the clean replica"
            );
            for (lane, e) in &errors {
                assert!(
                    matches!(
                        e,
                        ReplicationError::ChecksumMismatch { .. } | ReplicationError::Envelope(_)
                    ),
                    "{fault:?} at step {k}: lane {lane} surfaced a non-recoverable error: {e}"
                );
            }
            match fault {
                Fault::Truncate | Fault::BitFlip => assert!(
                    !errors.is_empty(),
                    "{fault:?} at step {k}: damaged delivery produced no typed error"
                ),
                Fault::Drop | Fault::Duplicate | Fault::Reorder => assert!(
                    errors.is_empty(),
                    "{fault:?} at step {k}: lossless lesion produced errors: {errors:?}"
                ),
            }
        }
    }
}

/// Failover sweep: kill the leader after each step of the campaign,
/// promote the follower, reconcile per-session progress through
/// `session_status`, and finish the remaining script on the promoted
/// leader — every subsequent wave (and the probes) bit-identical to the
/// never-failed golden.
#[test]
fn failover_promotion_finishes_campaign_bit_identical() {
    let (golden_outcomes, golden_probes) = golden();
    let steps = script();
    for k in 0..=steps.len() {
        let handles = handles(SHARDS);
        let (service, mut shipper) =
            shipping_leader(&handles, SWEEP_SEGMENT, ServiceLimits::default());
        let follower = Arc::new(Mutex::new(Follower::new(comparator(), SHARDS)));
        let mut transport = InProcTransport::new(Arc::clone(&follower));
        for (i, &step) in steps[..k].iter().enumerate() {
            assert_eq!(apply(&service, step), golden_outcomes[i]);
            let report = shipper.pump(&mut transport);
            assert!(report.errors.is_empty());
        }
        // The leader dies here. Everything it admitted was synced
        // (group_commit = 1), so one last pump ships the durable tail.
        drop(service);
        let report = shipper.pump(&mut transport);
        assert!(report.errors.is_empty());
        assert_eq!(shipper.unacked_segments(), 0, "durable tail not shipped");
        drop(transport);
        let follower =
            Arc::try_unwrap(follower).ok().expect("transport dropped").into_inner().unwrap();

        let fresh: Vec<MemJournalStore> = (0..SHARDS).map(|_| MemJournalStore::new()).collect();
        let (promoted, promotion) = follower
            .promote_with_journal(
                Parallelism::auto(),
                ServiceLimits::default(),
                config(),
                boxed(&fresh),
            )
            .unwrap_or_else(|e| panic!("promotion after step {k} refused: {e}"));

        // Reconcile: read each session's applied progress the same way a
        // client re-driving an ambiguous group would.
        let mut expected_waves: HashMap<(u64, u64), usize> = HashMap::new();
        let mut created = 0usize;
        for &step in &steps[..k] {
            match step {
                Step::Create(t, s) => {
                    expected_waves.insert((t, s), 0);
                    created += 1;
                }
                Step::Wave(t, s, _) => *expected_waves.get_mut(&(t, s)).unwrap() += 1,
                Step::Compact => {}
            }
        }
        assert_eq!(promotion.sessions, created, "after step {k}");
        for (&(t, s), &waves) in &expected_waves {
            let status = promoted.session_status(t, s).unwrap();
            assert_eq!(status.waves, waves, "after step {k}: session ({t},{s})");
            assert_eq!(status.total_measurements, waves * WAVE_MEASUREMENTS);
        }

        // The promoted leader finishes the campaign on the golden's rails.
        for (i, &step) in steps.iter().enumerate().skip(k) {
            assert_eq!(
                apply(&promoted, step),
                golden_outcomes[i],
                "after failover at step {k}: step {i} diverged"
            );
        }
        for (i, &(t, s)) in TENANTS.iter().enumerate() {
            assert_eq!(
                run_wave(&promoted, t, s, WAVES),
                golden_probes[i],
                "after failover at step {k}: probe for tenant {t} diverged"
            );
        }
        // No recycled admission tickets across the failover.
        if created > 0 {
            let (t, s) = TENANTS[0];
            let seqs = promoted.submit_all(t, s, wave_ops(WAVES + 1)).unwrap();
            assert!(seqs[0] >= promotion.next_seq, "recycled admission ticket");
            promoted.run_batch();
        }
    }
}

/// Captures envelopes instead of delivering them (acking each), so tests
/// can craft exact cut points from real shipped bytes.
#[derive(Default)]
struct CaptureTransport {
    envelopes: Vec<(usize, Vec<u8>)>,
}

impl SegmentTransport for CaptureTransport {
    fn deliver(&mut self, shard: usize, envelope: &[u8]) -> Result<u64, ReplicationError> {
        let seq = decode_segment(envelope).unwrap().seq;
        self.envelopes.push((shard, envelope.to_vec()));
        Ok(seq)
    }
}

/// A record cut mid-frame when the leader died never applies: promotion
/// discards the torn tail (reported, atomically — no partial group) and
/// the promoted service re-drives it to the golden outcome.
#[test]
fn promotion_discards_torn_record_tail() {
    let handles = handles(1);
    let (service, mut shipper) = shipping_leader(&handles, 0, ServiceLimits::default());
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    let golden_wave = run_wave(&service, 1, 1, 0);
    service.flush_journals().unwrap();
    drop(service);
    let mut capture = CaptureTransport::default();
    shipper.pump(&mut capture);
    assert_eq!(capture.envelopes.len(), 1, "unbounded segments: one per lane");
    let full = decode_segment(&capture.envelopes[0].1).unwrap();

    // Re-ship the stream cut 3 bytes short: the create record arrives
    // whole, the wave's ops record is torn mid-frame.
    let cut = &full.payload[..full.payload.len() - 3];
    let mut follower = Follower::new(comparator(), 1);
    let watermark = follower
        .apply_segment(&encode_segment(0, 1, fnv1a64_words(FNV_OFFSET, cut), cut))
        .unwrap();
    assert_eq!(watermark, 1);
    assert_eq!(follower.num_sessions(), 1);

    let (promoted, report) = follower
        .promote(Parallelism::auto(), ServiceLimits::default())
        .unwrap();
    assert!(report.truncated_bytes > 0, "the torn tail must be reported");
    assert_eq!(report.sessions, 1);
    let status = promoted.session_status(1, 1).unwrap();
    assert_eq!(status.waves, 0, "a torn group is lost atomically");
    assert_eq!(status.total_measurements, 0);
    // Re-driving the lost wave lands on the golden outcome.
    assert_eq!(run_wave(&promoted, 1, 1, 0), golden_wave);
}

/// A replayed `Close` removes the session on the follower too: the
/// leader's digest (which lists only the survivor) passes, and the
/// promoted service does not serve the closed session.
#[test]
fn replayed_close_is_absent_after_promotion() {
    let handles = handles(1);
    let (service, mut shipper) = shipping_leader(&handles, 0, ServiceLimits::default());
    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    service.create_session(1, 2, SessionSpec::new(2, 8)).unwrap();
    let golden_wave = run_wave(&service, 1, 2, 0);
    let close = vec![
        SessionOp::Extend { alg: 0, values: noisy(1.0, 5, 1) },
        SessionOp::Close,
        SessionOp::Score,
    ];
    service.submit_all(1, 1, close).unwrap();
    service.submit_all(1, 1, vec![SessionOp::Push { alg: 1, value: 2.0 }]).unwrap();
    service.run_batch();
    service.emit_digests().unwrap();
    service.flush_journals().unwrap();
    drop(service);

    let follower = Arc::new(Mutex::new(Follower::new(comparator(), 1)));
    let report = shipper.pump(&mut InProcTransport::new(Arc::clone(&follower)));
    assert!(report.errors.is_empty(), "clean stream errored: {report:?}");
    let follower = Arc::try_unwrap(follower).ok().expect("transport dropped").into_inner().unwrap();
    assert_eq!(*follower.state(), ReplicaState::Following);
    assert_eq!(follower.num_sessions(), 1);

    let (promoted, report) = follower
        .promote(Parallelism::auto(), ServiceLimits::default())
        .unwrap();
    assert_eq!(report.sessions, 1);
    assert!(promoted.session_status(1, 1).is_none(), "a closed session was promoted");
    assert_eq!(promoted.session_status(1, 2).unwrap().waves, 1);
    let next = run_wave(&promoted, 1, 2, 1);
    assert_eq!(next.waves, golden_wave.waves + 1);
}

/// A stream that creates the same session twice cannot come from a
/// leader (admission rejects the second create): the follower fails
/// typed with `Apply` instead of replacing the session, and refuses
/// promotion.
#[test]
fn duplicate_create_fails_typed_and_refuses_promotion() {
    let create = journal::encode_record(&JournalRecord::Create {
        tenant: 1,
        session: 1,
        spec: SessionSpec::new(2, 7),
    });
    let stream = [create.as_slice(), create.as_slice()].concat();
    let mut follower = Follower::new(comparator(), 1);
    let err = follower
        .apply_segment(&encode_segment(0, 1, fnv1a64_words(FNV_OFFSET, &stream), &stream))
        .unwrap_err();
    assert!(
        matches!(err, ReplicationError::Apply { tenant: 1, session: 1, .. }),
        "expected a typed Apply failure, got {err}"
    );
    assert!(matches!(
        follower.state(),
        ReplicaState::Failed(ReplicationError::Apply { tenant: 1, session: 1, .. })
    ));
    match follower.promote(Parallelism::auto(), ServiceLimits::default()) {
        Err(ServiceError::Replication(ReplicationError::Apply { tenant: 1, session: 1, .. })) => {}
        other => panic!("failed replica promoted: {other:?}"),
    }
}

/// Divergence digests are verified both ways on crafted streams: a
/// matching digest passes; a checksum mismatch, a digested session the
/// replica lacks, and a replica session the digest lacks each latch
/// [`ReplicaState::Diverged`] — and a diverged replica refuses both
/// further segments and promotion, with typed errors throughout.
#[test]
fn forged_digest_is_typed_divergence_and_refuses_promotion() {
    let build = || {
        let mut follower = Follower::new(comparator(), 1);
        let create = journal::encode_record(&JournalRecord::Create {
            tenant: 1,
            session: 1,
            spec: SessionSpec::new(2, 7),
        });
        let digest = fnv1a64_words(FNV_OFFSET, &create);
        follower.apply_segment(&encode_segment(0, 1, digest, &create)).unwrap();
        (follower, digest)
    };
    let ship_digest = |follower: &mut Follower<BootstrapComparator>,
                       lane_digest: u64,
                       sessions: Vec<DigestSession>| {
        let record = journal::encode_record(&JournalRecord::Digest { sessions });
        follower.apply_segment(&encode_segment(0, 2, fnv1a64_words(lane_digest, &record), &record))
    };

    // A truthful digest passes and the replica keeps following.
    let (mut follower, lane) = build();
    let real = follower.session_checksum(1, 1).unwrap();
    let truthful = vec![DigestSession { tenant: 1, session: 1, last_applied: None, checksum: real }];
    assert_eq!(ship_digest(&mut follower, lane, truthful), Ok(2));
    assert_eq!(*follower.state(), ReplicaState::Following);

    // A wrong checksum is typed divergence naming both sides.
    let (mut follower, lane) = build();
    let forged =
        vec![DigestSession { tenant: 1, session: 1, last_applied: None, checksum: real ^ 1 }];
    let err = ship_digest(&mut follower, lane, forged).unwrap_err();
    assert_eq!(
        err,
        ReplicationError::Diverged { tenant: 1, session: 1, expected: real ^ 1, found: real }
    );
    assert!(matches!(follower.state(), ReplicaState::Diverged { .. }));
    // Diverged replicas refuse further segments…
    let more = journal::encode_record(&JournalRecord::Create {
        tenant: 2,
        session: 2,
        spec: SessionSpec::new(2, 8),
    });
    let refused = follower.apply_segment(&encode_segment(0, 2, fnv1a64_words(lane, &more), &more));
    assert!(matches!(refused, Err(ReplicationError::Diverged { .. })));
    // …and refuse promotion: corrupt state must not serve.
    match follower.promote(Parallelism::auto(), ServiceLimits::default()) {
        Err(ServiceError::Replication(ReplicationError::Diverged { tenant: 1, session: 1, .. })) => {}
        other => panic!("diverged replica promoted: {other:?}"),
    }

    // A digested session the replica lacks: divergence with found = 0.
    let (mut follower, lane) = build();
    let ghost = vec![
        DigestSession { tenant: 1, session: 1, last_applied: None, checksum: real },
        DigestSession { tenant: 9, session: 9, last_applied: None, checksum: 0xBEEF },
    ];
    let err = ship_digest(&mut follower, lane, ghost).unwrap_err();
    assert_eq!(
        err,
        ReplicationError::Diverged { tenant: 9, session: 9, expected: 0xBEEF, found: 0 }
    );

    // A replica session the digest lacks: divergence with expected = 0.
    let (mut follower, lane) = build();
    let err = ship_digest(&mut follower, lane, Vec::new()).unwrap_err();
    assert_eq!(
        err,
        ReplicationError::Diverged { tenant: 1, session: 1, expected: 0, found: real }
    );
}

/// A leader **hard eviction** (a capacity drop that is deliberately not
/// journaled) really does surface as typed divergence at the next digest
/// — the follower still holds the dropped session, and says so.
#[test]
fn leader_hard_eviction_surfaces_as_typed_divergence() {
    let limits = ServiceLimits {
        sessions_per_shard: 1,
        spill_per_shard: 0, // plain LRU eviction, no spill store
        ..Default::default()
    };
    let handles = handles(1);
    let (service, mut shipper) = shipping_leader(&handles, 0, limits);
    let follower = Arc::new(Mutex::new(Follower::new(comparator(), 1)));
    let mut transport = InProcTransport::new(Arc::clone(&follower));

    service.create_session(1, 1, SessionSpec::new(2, 7)).unwrap();
    // The second create hard-evicts the idle first — silently, off the
    // journal. Both creates still ship.
    service.create_session(1, 2, SessionSpec::new(2, 8)).unwrap();
    service.flush_journals().unwrap();
    let report = shipper.pump(&mut transport);
    assert!(report.errors.is_empty());
    assert_eq!(
        follower.lock().unwrap().num_sessions(),
        2,
        "the follower replays both creates — it cannot see the eviction"
    );

    // The next digest tells on the leader: it lists only the survivor.
    service.emit_digests().unwrap();
    service.flush_journals().unwrap();
    let report = shipper.pump(&mut transport);
    assert_eq!(report.errors.len(), 1, "divergence must be typed, got {report:?}");
    let (_, err) = &report.errors[0];
    assert!(
        matches!(err, ReplicationError::Diverged { tenant: 1, session: 1, expected: 0, .. }),
        "expected the evicted session named with expected = 0, got {err}"
    );
    drop(transport);
    let follower = Arc::try_unwrap(follower).ok().expect("transport dropped").into_inner().unwrap();
    assert!(matches!(follower.state(), ReplicaState::Diverged { tenant: 1, session: 1, .. }));
}

/// Pure transport lesions are typed and leave the replica healthy:
/// unknown lanes, out-of-window gaps, duplicates, in-window parking, and
/// sealing all answer typed without disturbing applied state.
#[test]
fn transport_lesions_are_typed_and_recoverable() {
    let mut follower = Follower::new(comparator(), 2);
    let rec = |session: u64| {
        journal::encode_record(&JournalRecord::Create {
            tenant: 1,
            session,
            spec: SessionSpec::new(2, session),
        })
    };

    // Unknown lane: typed, nothing applied.
    let p1 = rec(1);
    let err = follower
        .apply_segment(&encode_segment(7, 1, fnv1a64_words(FNV_OFFSET, &p1), &p1))
        .unwrap_err();
    assert_eq!(err, ReplicationError::UnknownShard { shard: 7, shards: 2 });

    // A gap beyond the reorder window: typed, not latched.
    let err = follower
        .apply_segment(&encode_segment(0, 66, fnv1a64_words(FNV_OFFSET, &p1), &p1))
        .unwrap_err();
    assert_eq!(err, ReplicationError::SequenceGap { shard: 0, expected: 1, found: 66 });
    assert_eq!(*follower.state(), ReplicaState::Following);

    // The in-order segment still applies afterwards…
    let d1 = fnv1a64_words(FNV_OFFSET, &p1);
    assert_eq!(follower.apply_segment(&encode_segment(0, 1, d1, &p1)), Ok(1));
    // …a duplicate of it just re-acks…
    assert_eq!(follower.apply_segment(&encode_segment(0, 1, d1, &p1)), Ok(1));
    assert_eq!(follower.num_sessions(), 1);

    // …and an in-window future segment parks until the gap fills.
    let p2 = rec(2);
    let p3 = rec(3);
    let d2 = fnv1a64_words(d1, &p2);
    let d3 = fnv1a64_words(d2, &p3);
    assert_eq!(
        follower.apply_segment(&encode_segment(0, 3, d3, &p3)),
        Ok(1),
        "a parked segment does not move the watermark"
    );
    assert_eq!(
        follower.apply_segment(&encode_segment(0, 2, d2, &p2)),
        Ok(3),
        "filling the gap drains the park"
    );
    assert_eq!(follower.num_sessions(), 3);
    assert_eq!(follower.watermark(0), 3);
    assert_eq!(follower.watermark(1), 0);

    // Sealing fences the replica; promotion from Sealed still works.
    follower.seal();
    let p4 = rec(4);
    let err = follower
        .apply_segment(&encode_segment(0, 4, fnv1a64_words(d3, &p4), &p4))
        .unwrap_err();
    assert_eq!(err, ReplicationError::Sealed);
    assert_eq!(*follower.state(), ReplicaState::Sealed);
    let (promoted, report) = follower
        .promote(Parallelism::auto(), ServiceLimits::default())
        .unwrap();
    assert_eq!(report.sessions, 3);
    assert!(promoted.session_status(1, 3).is_some());
}

/// Satellite: the `SHIP` codec survives an exhaustive single-bit-flip
/// and truncation sweep — every damaged envelope decodes to a typed
/// error, never a panic, and the intact one round-trips exactly.
#[test]
fn ship_codec_rejects_every_bit_flip_and_truncation() {
    let payload: Vec<u8> = (0..57u32).map(|i| (i * 31 + 5) as u8).collect();
    let envelope = encode_segment(3, 42, 0xABCD_EF01_2345_6789, &payload);
    assert_eq!(
        decode_segment(&envelope),
        Ok(ShipSegment { shard: 3, seq: 42, cum_digest: 0xABCD_EF01_2345_6789, payload })
    );
    for cut in 0..envelope.len() {
        assert!(
            decode_segment(&envelope[..cut]).is_err(),
            "truncation to {cut} bytes decoded"
        );
    }
    for bit in 0..envelope.len() * 8 {
        let mut tampered = envelope.clone();
        tampered[bit / 8] ^= 1 << (bit % 8);
        assert!(decode_segment(&tampered).is_err(), "bit flip {bit} decoded");
    }
}

/// A version-1 envelope under a valid checksum is refused as a typed
/// `UnsupportedVersion`, never as a checksum mismatch or a bare envelope
/// error.
#[test]
fn version_one_envelope_is_refused_typed() {
    let payload: Vec<u8> = (0..21u8).collect();
    let mut envelope = encode_segment(0, 1, fnv1a64_words(FNV_OFFSET, &payload), &payload);
    assert_eq!(
        envelope[4..6],
        relperf_service::replication::SHIP_VERSION.to_le_bytes()
    );
    envelope[4..6].copy_from_slice(&1u16.to_le_bytes());
    let body_len = envelope.len() - 8;
    let sum = fnv1a64_words(FNV_OFFSET, &envelope[..body_len]);
    envelope[body_len..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        decode_segment(&envelope),
        Err(ReplicationError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    );
}

/// Satellite: follower replay is bit-identical under arbitrary segment
/// sizes and pump cadences — every batching cuts records at different
/// byte offsets, and every run must pass the leader's digests.
mod cut_points {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn any_segmentation_converges_bit_identical(
            max_segment in 1usize..200,
            pump_every in 1usize..6,
        ) {
            // `replicate_campaign` asserts the follower ends `Following`
            // (so it passed every digest) with all sessions warm.
            let (checksums, errors, _) = replicate_campaign(max_segment, pump_every, None, &[]);
            prop_assert!(errors.is_empty(), "clean transport errored: {errors:?}");
            prop_assert_eq!(checksums.len(), TENANTS.len());
        }
    }
}

/// The runtime integration: a background shipper thread replicates a
/// live pipelined campaign, counters land in [`ServiceStats`], and the
/// final post-stop pump leaves nothing durable unshipped.
#[test]
fn runtime_shipper_thread_replicates_live_campaign() {
    let handles = handles(2);
    let (stores, shipper) =
        JournalShipper::wrap_stores(boxed(&handles), ShipperConfig { max_segment: 64 });
    let service = SessionService::with_journal(
        comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        config(),
        stores,
    )
    .unwrap();
    let mut runtime = ServiceRuntime::start(
        service,
        RuntimeConfig { scheduler_threads: 0, ..Default::default() },
    );
    let follower = Arc::new(Mutex::new(Follower::new(comparator(), 2)));
    runtime.attach_shipper(
        shipper,
        InProcTransport::new(Arc::clone(&follower)),
        std::time::Duration::from_millis(1),
    );

    for &(t, s) in &TENANTS {
        runtime.create_session(t, s, SessionSpec::new(2, 33 + t)).unwrap();
        let seqs = runtime.submit_all(t, s, wave_ops(0)).unwrap();
        runtime
            .await_responses(t, &seqs, std::time::Duration::from_secs(5))
            .unwrap();
    }
    runtime.flush_journals().unwrap();
    runtime.emit_digests().unwrap();
    runtime.flush_journals().unwrap();
    // Shutdown performs one final pump, so nothing durable stays behind.
    let stats_handle = runtime.handle();
    runtime.shutdown();

    let stats = stats_handle.stats();
    assert!(stats.segments_shipped >= 1, "shipper thread never cut: {stats:?}");
    assert_eq!(stats.segments_shipped, stats.segments_acked, "unacked segments after shutdown");
    assert!(stats.digests_emitted >= 1);

    let follower = Arc::try_unwrap(follower).ok().expect("shipper joined").into_inner().unwrap();
    assert_eq!(*follower.state(), ReplicaState::Following, "digest-verified bit-identity");
    assert_eq!(follower.num_sessions(), TENANTS.len());
    for &(t, s) in &TENANTS {
        assert!(follower.session_checksum(t, s).is_some());
    }
}
