//! Wire-protocol fault injection: every single-bit flip, every
//! truncation, and every length-prefix lie on a valid frame must yield a
//! typed decode error — never a panic and never a silently different
//! message — plus end-to-end drives of the in-proc and unix-socket
//! transports.

mod support;

use proptest::prelude::*;
use relperf_core::cluster::{ClusterConfig, Parallelism, ScoreTable};
use relperf_core::session::ConvergenceCriterion;
use relperf_measure::compare::MedianComparator;
use relperf_measure::sample::SampleError;
use relperf_core::session::CriterionError;
use relperf_service::prelude::*;
use relperf_service::service::SessionService;
use relperf_service::wire::{
    self, decode_frame, decode_request, decode_response, encode_frame, encode_request,
    encode_response, Request, Response,
};
use std::time::Duration;
use support::{fnv1a64_words, FNV_OFFSET};

fn table() -> ScoreTable {
    ScoreTable::from_rows(vec![vec![0.7, 0.2, 0.1], vec![0.1, 0.6, 0.3]], 2)
}

fn wave() -> WaveOutcome {
    let table = table();
    WaveOutcome {
        clustering: table.final_assignment(),
        table,
        converged: true,
        waves: 4,
        stable_run: 2,
    }
}

/// One of every request shape, with non-trivial payloads.
fn rich_requests() -> Vec<Request> {
    vec![
        Request::CreateSession {
            tenant: 7,
            session: 11,
            spec: SessionSpec {
                algorithms: 3,
                config: ClusterConfig {
                    repetitions: 15,
                    parallelism: Parallelism::with_threads(2),
                },
                seed: 0xDEAD_BEEF,
                criterion: ConvergenceCriterion {
                    stable_waves: 3,
                    score_tol: 1e-9,
                },
            },
        },
        Request::RestoreSession {
            tenant: 7,
            session: 11,
            bytes: vec![1, 2, 3, 255, 0, 42],
        },
        Request::Submit {
            tenant: u64::MAX,
            session: 0,
            ops: vec![
                SessionOp::Push { alg: 0, value: 1.5 },
                SessionOp::Extend {
                    alg: 2,
                    values: vec![-1.0, 0.0, 3.25e300],
                },
                SessionOp::ExtendAll {
                    alg: 1,
                    values: vec![f64::NEG_INFINITY, 2.5, -0.0],
                },
                SessionOp::Score,
                SessionOp::Snapshot,
                SessionOp::Close,
            ],
        },
        Request::Await {
            tenant: 7,
            seqs: vec![0, 1, u64::MAX],
            timeout_ms: 12345,
        },
        Request::Collect { tenant: 9 },
        Request::Status {
            tenant: 9,
            session: 1,
        },
        Request::Stats,
        Request::Goodbye,
        Request::Ship {
            envelope: relperf_service::replication::encode_segment(3, 9, 0xFEED, &[1, 2, 3, 200]),
        },
    ]
}

fn all_service_errors() -> Vec<ServiceError> {
    vec![
        ServiceError::SessionExists { tenant: 1, session: 2 },
        ServiceError::SessionUnknown { tenant: 3, session: 4 },
        ServiceError::TenantBusy {
            tenant: 5,
            in_flight: 6,
            cap: 7,
        },
        ServiceError::QueueFull {
            shard: 8,
            depth: 9,
            cap: 10,
        },
        ServiceError::Overloaded {
            backlog: 11,
            cap: 12,
        },
        ServiceError::ShardFull {
            shard: 13,
            capacity: 14,
        },
        ServiceError::NoAlgorithms,
        ServiceError::NoRepetitions,
        ServiceError::SessionTooLarge {
            algorithms: 50,
            repetitions: 51,
        },
        ServiceError::InvalidCriterion(CriterionError::ZeroStableWaves),
        ServiceError::InvalidCriterion(CriterionError::BadTolerance { score_tol: -1.0 }),
        ServiceError::AlgorithmOutOfRange { alg: 15, p: 16 },
        ServiceError::NotReadyToScore { missing: 17 },
        ServiceError::ResponseLost { seq: 18 },
        ServiceError::BadSample(SampleError::Empty),
        ServiceError::BadSample(SampleError::NonFinite(19)),
        ServiceError::BadSnapshot(SnapshotError::Truncated { offset: 20 }),
        ServiceError::BadSnapshot(SnapshotError::BadMagic),
        ServiceError::BadSnapshot(SnapshotError::UnsupportedVersion {
            found: 21,
            supported: 2,
        }),
        ServiceError::BadSnapshot(SnapshotError::ChecksumMismatch {
            stored: 22,
            computed: 23,
        }),
        ServiceError::BadSnapshot(SnapshotError::TrailingBytes { extra: 24 }),
        ServiceError::Journal(JournalIoError::Crashed),
        ServiceError::Journal(JournalIoError::Sealed),
        ServiceError::Journal(JournalIoError::Io("disk on fire".to_string())),
        // The two lossy replication corners are constructed with the
        // exact post-transit message, so they round-trip equal here; a
        // dedicated assertion below covers the lossy path itself.
        ServiceError::Replication(ReplicationError::Envelope("detail lost in wire transit")),
        ServiceError::Replication(ReplicationError::ChecksumMismatch {
            stored: 25,
            computed: 26,
        }),
        ServiceError::Replication(ReplicationError::SequenceGap {
            shard: 27,
            expected: 28,
            found: 29,
        }),
        ServiceError::Replication(ReplicationError::UnknownShard { shard: 30, shards: 31 }),
        ServiceError::Replication(ReplicationError::DigestMismatch {
            shard: 32,
            seq: 33,
            expected: 34,
            found: 35,
        }),
        ServiceError::Replication(ReplicationError::Records {
            shard: 36,
            seq: 37,
            error: JournalError::BadMagic,
        }),
        ServiceError::Replication(ReplicationError::Records {
            shard: 38,
            seq: 39,
            error: JournalError::UnsupportedVersion {
                found: 40,
                supported: 2,
            },
        }),
        ServiceError::Replication(ReplicationError::Records {
            shard: 41,
            seq: 42,
            error: JournalError::Corrupt {
                offset: 43,
                what: "detail lost in wire transit",
            },
        }),
        ServiceError::Replication(ReplicationError::Apply {
            tenant: 44,
            session: 45,
            what: "replayed create was rejected".to_string(),
        }),
        ServiceError::Replication(ReplicationError::Diverged {
            tenant: 46,
            session: 47,
            expected: 48,
            found: 49,
        }),
        ServiceError::Replication(ReplicationError::Sealed),
        ServiceError::Replication(ReplicationError::WrongRole),
        ServiceError::Replication(ReplicationError::UnsupportedVersion {
            found: 50,
            supported: 2,
        }),
    ]
}

/// One of every response shape.
fn rich_responses() -> Vec<Response> {
    let mut responses = vec![
        Response::Created,
        Response::Restored,
        Response::Submitted {
            seqs: vec![3, 4, 5],
            ready: Vec::new(),
        },
        // A group run to completion while admitted: its responses ride
        // along with the tickets.
        Response::Submitted {
            seqs: vec![8, 9],
            ready: vec![
                OpResponse {
                    key: SessionKey { tenant: 7, session: 11 },
                    seq: 8,
                    result: Ok(OpOutcome::Ingested),
                },
                OpResponse {
                    key: SessionKey { tenant: 7, session: 11 },
                    seq: 9,
                    result: Err(ServiceError::BadSample(SampleError::NonFinite(3))),
                },
            ],
        },
        Response::Responses {
            responses: vec![
                OpResponse {
                    key: SessionKey { tenant: 7, session: 11 },
                    seq: 3,
                    result: Ok(OpOutcome::Ingested),
                },
                OpResponse {
                    key: SessionKey { tenant: 7, session: 11 },
                    seq: 4,
                    result: Ok(OpOutcome::Scored(wave())),
                },
                OpResponse {
                    key: SessionKey { tenant: 7, session: 11 },
                    seq: 5,
                    result: Ok(OpOutcome::Snapshot(vec![9, 8, 7])),
                },
                OpResponse {
                    key: SessionKey { tenant: 7, session: 11 },
                    seq: 6,
                    result: Ok(OpOutcome::Closed),
                },
            ],
        },
        Response::Status {
            status: None,
            recovery: RecoveryHealth::default(),
        },
        Response::Status {
            status: Some(SessionStatus {
                algorithms: 2,
                total_measurements: 30,
                waves: 4,
                converged: false,
                pending: 1,
                spilled: true,
            }),
            recovery: RecoveryHealth {
                replayed_ops: 77,
                torn_shards: 1,
                truncated_bytes: 123,
            },
        },
        Response::Stats {
            stats: ServiceStats {
                requests: 1,
                rejections: 2,
                batches: 3,
                waves: 4,
                evictions: 5,
                ops_submitted: 6,
                ops_admitted: 7,
                ops_rejected: 8,
                ops_executed: 9,
                spills: 10,
                rehydrations: 11,
                shed: 12,
                journal_appends: 13,
                journal_syncs: 14,
                journal_compactions: 15,
                digests_emitted: 16,
                segments_shipped: 17,
                segments_acked: 18,
                recovery_replayed_ops: 19,
                recovery_torn_shards: 20,
                recovery_truncated_bytes: 21,
            },
        },
        Response::WaitError {
            error: RuntimeError::Stopped,
        },
        Response::WaitError {
            error: RuntimeError::Timeout { missing: 2 },
        },
        Response::Goodbye,
        Response::ShipAck {
            shard: 2,
            watermark: 40,
        },
    ];
    // Every typed service error travels (one response per variant).
    for error in all_service_errors() {
        responses.push(Response::Error { error });
        let inner = responses.len() as u64;
        responses.push(Response::Responses {
            responses: vec![OpResponse {
                key: SessionKey { tenant: 1, session: 2 },
                seq: inner,
                result: Err(all_service_errors().pop().unwrap()),
            }],
        });
    }
    responses
}

/// Every frame round-trips exactly — except the two documented lossy
/// corners (clustering re-derived bit-identically; Malformed's static
/// message replaced).
#[test]
fn rich_messages_round_trip() {
    for req in rich_requests() {
        let frame = encode_frame(&encode_request(&req));
        let payload = decode_frame(&frame).expect("valid frame");
        assert_eq!(decode_request(payload).expect("valid request"), req);
    }
    for resp in rich_responses() {
        let frame = encode_frame(&encode_response(&resp));
        let payload = decode_frame(&frame).expect("valid frame");
        let got = decode_response(payload).expect("valid response");
        match (&got, &resp) {
            // Lossy corner: the &'static str detail of Malformed.
            (
                Response::Error {
                    error: ServiceError::BadSnapshot(SnapshotError::Malformed(_)),
                },
                Response::Error {
                    error: ServiceError::BadSnapshot(SnapshotError::Malformed(_)),
                },
            ) => {}
            _ => assert_eq!(got, resp),
        }
    }
    // The Malformed variant specifically: survives as the same variant.
    let lossy = Response::Error {
        error: ServiceError::BadSnapshot(SnapshotError::Malformed("original detail")),
    };
    let frame = encode_frame(&encode_response(&lossy));
    let got = decode_response(decode_frame(&frame).unwrap()).unwrap();
    assert!(matches!(
        got,
        Response::Error {
            error: ServiceError::BadSnapshot(SnapshotError::Malformed(_))
        }
    ));

    // Same contract for the two lossy replication corners: the variant
    // (and any numeric fields) survive, the &'static str detail does not.
    let lossy = Response::Error {
        error: ServiceError::Replication(ReplicationError::Envelope("original detail")),
    };
    let frame = encode_frame(&encode_response(&lossy));
    let got = decode_response(decode_frame(&frame).unwrap()).unwrap();
    assert!(matches!(
        got,
        Response::Error {
            error: ServiceError::Replication(ReplicationError::Envelope(_))
        }
    ));
    let lossy = Response::Error {
        error: ServiceError::Replication(ReplicationError::Records {
            shard: 3,
            seq: 4,
            error: JournalError::Corrupt { offset: 99, what: "original detail" },
        }),
    };
    let frame = encode_frame(&encode_response(&lossy));
    let got = decode_response(decode_frame(&frame).unwrap()).unwrap();
    match got {
        Response::Error {
            error:
                ServiceError::Replication(ReplicationError::Records {
                    shard: 3,
                    seq: 4,
                    error: JournalError::Corrupt { offset: 99, .. },
                }),
        } => {}
        other => panic!("lossy Records corner decoded as {other:?}"),
    }
}

/// The `ClusterConfig` codec ends in a reserved byte that once tagged a
/// pair schedule. Encoders write 0; a 1 from an older client decodes to
/// the same request; anything else stays a typed `Malformed`.
#[test]
fn reserved_config_byte_accepts_legacy_one() {
    // tag, tenant, session, algorithms, repetitions, threads, chunk
    const RESERVED: usize = 1 + 6 * 8;
    let req = &rich_requests()[0];
    assert!(matches!(req, Request::CreateSession { .. }));
    let payload = encode_request(req);
    assert_eq!(payload[RESERVED], 0, "encoders write 0");
    let mut legacy = payload.clone();
    legacy[RESERVED] = 1;
    assert_eq!(decode_request(&legacy).expect("legacy byte accepted"), *req);
    legacy[RESERVED] = 2;
    assert_eq!(
        decode_request(&legacy),
        Err(WireError::Malformed("unknown pair schedule"))
    );
}

/// The headline fault-injection sweep: EVERY single-bit flip anywhere in
/// a valid frame (header, payload, checksum) yields a typed error from
/// `decode_frame` — never a panic, never an accepted frame. Exhaustive,
/// not sampled: the FNV trailer covers the whole frame, so any flip must
/// be caught — and, since the checksum is checked first, caught as a
/// checksum mismatch, header flips included.
#[test]
fn every_single_bit_flip_is_a_typed_decode_error() {
    let mut frames: Vec<Vec<u8>> = rich_requests()
        .iter()
        .map(|r| encode_frame(&encode_request(r)))
        .collect();
    frames.extend(
        rich_responses()
            .iter()
            .map(|r| encode_frame(&encode_response(r))),
    );
    let mut cases = 0u64;
    for frame in &frames {
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupt = frame.clone();
                corrupt[i] ^= 1 << bit;
                let err = decode_frame(&corrupt)
                    .err()
                    .unwrap_or_else(|| panic!("flip at byte {i} bit {bit} was accepted"));
                assert!(
                    matches!(err, WireError::ChecksumMismatch { .. }),
                    "flip at byte {i} bit {bit}: {err}"
                );
                cases += 1;
            }
        }
    }
    assert!(cases > 10_000, "swept {cases} single-bit corruptions");
}

/// A version-1 frame (byte-serial checksum) and a version-2 frame
/// (`Submitted` without its ready responses) are refused as
/// `UnsupportedVersion`, never as a checksum mismatch: `decode_frame`
/// checks the version right after the checksum passes, and `read_frame`
/// refuses the header before it reads the payload, whatever trailer
/// follows.
#[test]
fn version_one_frame_is_refused_typed() {
    assert_eq!(wire::VERSION, 3);
    for old in [1u16, 2] {
        let mut frame = encode_frame(&encode_request(&rich_requests()[2]));
        assert_eq!(frame[4..6], wire::VERSION.to_le_bytes());
        frame[4..6].copy_from_slice(&old.to_le_bytes());
        let body_len = frame.len() - 8;
        let sum = fnv1a64_words(FNV_OFFSET, &frame[..body_len]);
        frame[body_len..].copy_from_slice(&sum.to_le_bytes());
        let refused = WireError::UnsupportedVersion {
            found: old,
            supported: 3,
        };
        assert_eq!(decode_frame(&frame), Err(refused.clone()));
        assert_eq!(
            wire::read_frame(&mut &frame[..], wire::MAX_FRAME_PAYLOAD),
            Err(refused.clone())
        );
        frame[body_len..].fill(0);
        assert_eq!(
            wire::read_frame(&mut &frame[..], wire::MAX_FRAME_PAYLOAD),
            Err(refused)
        );
    }
}

/// Every strict prefix of a valid frame is a typed error (truncation
/// sweep, exhaustive over all cut points of every rich message).
#[test]
fn every_truncation_is_a_typed_decode_error() {
    for req in rich_requests() {
        let frame = encode_frame(&encode_request(&req));
        for cut in 0..frame.len() {
            let err = decode_frame(&frame[..cut])
                .err()
                .unwrap_or_else(|| panic!("prefix of {cut} bytes was accepted"));
            let _ = err.to_string();
        }
        // And mid-payload cuts through the streaming reader too.
        for cut in [0, 1, 5, 9, 10, frame.len() - 1] {
            let mut cursor = &frame[..cut.min(frame.len())];
            let result = wire::read_frame(&mut cursor, wire::MAX_FRAME_PAYLOAD);
            if cut == 0 {
                assert_eq!(result, Err(WireError::Closed), "empty stream is a clean close");
            } else {
                assert!(result.is_err(), "streaming prefix of {cut} bytes accepted");
            }
        }
    }
}

/// Length-prefix lies: rewrite the length field to every plausible wrong
/// value and re-checksum (so ONLY the lie is wrong) — the mismatch
/// between stated and actual payload length must be caught typed.
#[test]
fn every_length_prefix_lie_is_a_typed_decode_error() {
    let req = &rich_requests()[2]; // the big Submit
    let payload = encode_request(req);
    let frame = encode_frame(&payload);
    let actual = payload.len();
    for lie in (0..actual + 16).filter(|&l| l != actual) {
        let mut lied = frame.clone();
        lied[6..10].copy_from_slice(&(lie as u32).to_le_bytes());
        // Recompute the trailer so the checksum is consistent with the
        // lie — isolating the length check itself.
        let body_len = lied.len() - 8;
        let sum = fnv1a64_words(FNV_OFFSET, &lied[..body_len]);
        lied[body_len..].copy_from_slice(&sum.to_le_bytes());
        match decode_frame(&lied) {
            Err(WireError::LengthMismatch { stated, actual: got }) => {
                assert_eq!(stated, lie);
                assert_eq!(got, actual);
            }
            other => panic!("length lie {lie} (actual {actual}): got {other:?}"),
        }
    }
    // Oversized lies through the streaming reader are rejected before
    // allocation.
    let mut lied = frame.clone();
    lied[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut cursor = &lied[..];
    assert!(matches!(
        wire::read_frame(&mut cursor, wire::MAX_FRAME_PAYLOAD),
        Err(WireError::Oversized { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage presented as a message payload (already past
    /// frame verification, as a forged-but-checksummed frame would be)
    /// never panics the message decoders.
    #[test]
    fn garbage_payloads_never_panic_decoders(
        bytes in proptest::collection::vec(0u8..255, 0usize..96),
    ) {
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = decode_frame(&bytes);
        let mut cursor = &bytes[..];
        let _ = wire::read_frame(&mut cursor, wire::MAX_FRAME_PAYLOAD);
    }

    /// Random single-byte rewrites (not just flips) of valid frames stay
    /// typed through the streaming reader.
    #[test]
    fn random_byte_rewrites_stay_typed_through_read_frame(
        msg_idx in 0usize..9,
        pos_seed in 0usize..10_000,
        value in 0u8..255,
    ) {
        let req = &rich_requests()[msg_idx];
        let frame = encode_frame(&encode_request(req));
        let pos = pos_seed % frame.len();
        let mut corrupt = frame.clone();
        if corrupt[pos] != value {
            // (equal value is not a corruption — skip those draws)
            corrupt[pos] = value;
            let mut cursor = &corrupt[..];
            let streamed = wire::read_frame(&mut cursor, wire::MAX_FRAME_PAYLOAD);
            let sliced = decode_frame(&corrupt);
            prop_assert!(streamed.is_err() || sliced.is_err(),
                "corruption at {pos} accepted by both readers");
        }
    }
}

// ---------------------------------------------------------------------
// End-to-end transports
// ---------------------------------------------------------------------

fn runtime(scheduler_threads: usize) -> ServiceRuntime<MedianComparator> {
    let service = SessionService::new(
        MedianComparator::new(0.05),
        4,
        Parallelism::serial(),
        ServiceLimits::default(),
    );
    ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads,
            ..Default::default()
        },
    )
}

/// Drives a full session lifecycle through the in-proc wire client and
/// checks the served wave is bit-identical to a direct session drive.
#[test]
fn in_proc_wire_client_end_to_end_matches_direct_session() {
    use relperf_core::session::ClusterSession;

    let rt = runtime(0); // synchronous: fully deterministic
    let (mut client, server) = WireClient::connect_in_proc(rt.handle());

    let spec = SessionSpec::new(2, 42);
    client.create_session(7, 1, spec).unwrap();
    let mut seqs = client
        .submit(
            7,
            1,
            vec![
                SessionOp::Extend { alg: 0, values: vec![1.0, 1.1, 0.9] },
                SessionOp::Extend { alg: 1, values: vec![2.0, 2.1, 1.9] },
                SessionOp::Score,
            ],
        )
        .unwrap();
    assert_eq!(seqs.len(), 3);
    let score_seq = seqs.pop().unwrap();
    let responses = client
        .await_responses(7, &[score_seq], Duration::from_secs(5))
        .unwrap();
    assert_eq!(responses.len(), 1);
    let Ok(OpOutcome::Scored(served)) = &responses[0].result else {
        panic!("expected a scored wave, got {:?}", responses[0].result);
    };

    // Reference: a private session with the same ops.
    let cmp = MedianComparator::new(0.05);
    let mut direct = ClusterSession::new(2, &cmp, spec.config, spec.seed);
    direct.extend(0, &[1.0, 1.1, 0.9]).unwrap();
    direct.extend(1, &[2.0, 2.1, 1.9]).unwrap();
    assert_eq!(&served.table, direct.score(), "wire-served table must be bit-identical");

    // Status and stats travel typed.
    let status = client.session_status(7, 1).unwrap().unwrap();
    assert_eq!(status.total_measurements, 6);
    let stats = client.stats().unwrap();
    assert_eq!(stats.ops_submitted, 3);
    assert_eq!(stats.ops_executed, 3);

    // Typed admission rejection over the wire: duplicate create.
    assert!(matches!(
        client.create_session(7, 1, spec),
        Err(ClientError::Service(ServiceError::SessionExists { .. }))
    ));

    client.goodbye().unwrap();
    server.join().unwrap().unwrap();
}

/// The same lifecycle with background scheduler threads — responses are
/// delivered by the pipeline, not by the caller's own drain.
#[test]
fn in_proc_wire_client_works_with_background_scheduler() {
    let rt = runtime(2);
    let (mut client, server) = WireClient::connect_in_proc(rt.handle());
    client.create_session(3, 1, SessionSpec::new(1, 5)).unwrap();
    let seqs = client
        .submit(
            3,
            1,
            vec![
                SessionOp::Extend { alg: 0, values: vec![1.0, 2.0, 3.0] },
                SessionOp::Score,
            ],
        )
        .unwrap();
    let responses = client
        .await_responses(3, &seqs, Duration::from_secs(10))
        .unwrap();
    assert_eq!(responses.len(), 2);
    assert!(matches!(responses[0].result, Ok(OpOutcome::Ingested)));
    assert!(matches!(responses[1].result, Ok(OpOutcome::Scored(_))));
    client.goodbye().unwrap();
    server.join().unwrap().unwrap();
    rt.shutdown();
}

/// A client stream that records the request tag of every frame it
/// writes (the wire client writes each frame with one `write_all`).
struct TagLog {
    inner: relperf_service::client::DuplexPipe,
    tags: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
}

impl std::io::Read for TagLog {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(out)
    }
}

impl std::io::Write for TagLog {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        assert_eq!(bytes[..4], wire::MAGIC, "one frame per write");
        self.tags.lock().unwrap().push(bytes[10]);
        self.inner.write(bytes)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Run to completion over the wire: on a threaded runtime an ingest
/// group's responses come back with `Submitted`, so awaiting them sends
/// no `Await`; a group with a `Score` is still awaited over the wire; and
/// the stash plus `Collect` deliver every response exactly once.
#[test]
fn ingest_submit_answers_await_without_a_round_trip() {
    const SUBMIT: u8 = 2;
    const AWAIT: u8 = 3;
    let rt = ServiceRuntime::start(
        SessionService::new(
            MedianComparator::new(0.05),
            4,
            Parallelism::serial(),
            ServiceLimits::default(),
        ),
        RuntimeConfig {
            scheduler_threads: 2,
            cadence: Duration::from_secs(3600),
            ..Default::default()
        },
    );
    let (client_end, mut server_end) = relperf_service::client::duplex();
    let handle = rt.handle();
    let server = std::thread::spawn(move || wire::serve_connection(&handle, &mut server_end));
    let tags = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut client = WireClient::new(TagLog {
        inner: client_end,
        tags: std::sync::Arc::clone(&tags),
    });
    let ingest = |base: f64| -> Vec<SessionOp> {
        (0..2)
            .map(|alg| SessionOp::ExtendAll {
                alg,
                values: vec![base + alg as f64, base + 0.1, base + 0.2],
            })
            .collect()
    };
    client.create_session(5, 1, SessionSpec::new(2, 8)).unwrap();
    let mut submitted: Vec<u64> = Vec::new();
    let mut delivered: Vec<u64> = Vec::new();

    // An ingest group: awaited from the stash alone.
    let seqs = client.submit(5, 1, ingest(1.0)).unwrap();
    submitted.extend(&seqs);
    tags.lock().unwrap().clear();
    let got = client.await_responses(5, &seqs, Duration::from_secs(30)).unwrap();
    assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), seqs);
    assert!(got.iter().all(|r| matches!(r.result, Ok(OpOutcome::Ingested))));
    assert!(tags.lock().unwrap().is_empty(), "no frame sent for a stashed await");
    delivered.extend(got.iter().map(|r| r.seq));

    // A second ingest group is never awaited: `collect_ready` drains the
    // stash first, and `Collect` finds nothing left in the mailbox.
    let collected = client.submit(5, 1, ingest(2.0)).unwrap();
    submitted.extend(&collected);
    let got = client.collect_ready(5).unwrap();
    assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), collected);
    delivered.extend(got.iter().map(|r| r.seq));
    assert!(tags.lock().unwrap().contains(&SUBMIT));

    // A third ingest group stays stashed, then a group with a `Score`
    // goes to the scheduler: one await spans both, and only the rest is
    // awaited over the wire. (Last, because the scheduler thread it
    // wakes polls again before it parks.)
    let stashed = client.submit(5, 1, ingest(3.0)).unwrap();
    submitted.extend(&stashed);
    let scored = client.submit(5, 1, vec![SessionOp::Score]).unwrap();
    submitted.extend(&scored);
    tags.lock().unwrap().clear();
    let both: Vec<u64> = stashed.iter().chain(&scored).copied().collect();
    let got = client.await_responses(5, &both, Duration::from_secs(30)).unwrap();
    assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), both, "merged, sorted by seq");
    assert!(matches!(got[2].result, Ok(OpOutcome::Scored(_))));
    assert_eq!(*tags.lock().unwrap(), vec![AWAIT], "one Await, for the Score alone");
    delivered.extend(got.iter().map(|r| r.seq));
    assert!(client.collect_ready(5).unwrap().is_empty(), "nothing delivered twice");

    delivered.sort_unstable();
    assert_eq!(delivered, submitted, "every response exactly once");
    client.goodbye().unwrap();
    server.join().unwrap().unwrap();
    rt.shutdown();
}

/// The stash is bounded like a mailbox: a client that never awaits keeps
/// only each tenant's newest responses, as many as a default runtime's
/// mailbox holds.
#[test]
fn stash_drops_its_oldest_beyond_its_cap() {
    const GROUP: usize = 4000;
    let cap = RuntimeConfig::default().mailbox_cap;
    let rt = ServiceRuntime::start(
        SessionService::new(
            MedianComparator::new(0.05),
            4,
            Parallelism::serial(),
            ServiceLimits::default(),
        ),
        RuntimeConfig {
            scheduler_threads: 2,
            cadence: Duration::from_secs(3600),
            ..Default::default()
        },
    );
    let (client_end, mut server_end) = relperf_service::client::duplex();
    let handle = rt.handle();
    let server = std::thread::spawn(move || wire::serve_connection(&handle, &mut server_end));
    let mut client = WireClient::new(client_end);
    client.create_session(5, 1, SessionSpec::new(2, 8)).unwrap();
    let mut seqs = Vec::new();
    while seqs.len() <= cap {
        let pushes = (0..GROUP)
            .map(|i| SessionOp::Push { alg: i % 2, value: 1.0 + i as f64 })
            .collect();
        seqs.extend(client.submit(5, 1, pushes).unwrap());
    }
    let got = client.collect_ready(5).unwrap();
    assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), seqs[seqs.len() - cap..]);
    client.goodbye().unwrap();
    server.join().unwrap().unwrap();
    rt.shutdown();
}

/// A serving endpoint refuses `Ship` with a typed `WrongRole` — the
/// replication role check travels the wire like any other rejection.
#[test]
fn serving_endpoint_rejects_ship_with_wrong_role() {
    let rt = runtime(0);
    let (mut client, server) = WireClient::connect_in_proc(rt.handle());
    let envelope = relperf_service::replication::encode_segment(0, 1, 0xABCD, &[1, 2, 3]);
    assert!(matches!(
        client.ship(envelope),
        Err(ClientError::Service(ServiceError::Replication(
            ReplicationError::WrongRole
        )))
    ));
    client.goodbye().unwrap();
    server.join().unwrap().unwrap();
}

/// End-to-end replication over the wire: a journaled leader ships its
/// record stream through `Request::Ship` frames into a `serve_follower`
/// loop; the follower converges and a tenant request at the standby is
/// refused typed until promotion.
#[test]
fn follower_over_wire_converges_and_refuses_tenant_requests() {
    use relperf_service::client::duplex;
    use relperf_service::replication::{Follower, JournalShipper, SegmentTransport, ShipperConfig};
    use relperf_service::wire::serve_follower;
    use std::sync::{Arc, Mutex};

    const SHARDS: usize = 2;
    let stores: Vec<Box<dyn JournalStore>> =
        (0..SHARDS).map(|_| Box::new(MemJournalStore::new()) as _).collect();
    let (stores, mut shipper) = JournalShipper::wrap_stores(stores, ShipperConfig::default());
    let leader = SessionService::with_journal(
        MedianComparator::new(0.05),
        Parallelism::serial(),
        ServiceLimits::default(),
        JournalConfig::default(),
        stores,
    )
    .unwrap();

    let follower = Arc::new(Mutex::new(Follower::new(MedianComparator::new(0.05), SHARDS)));
    let (client_end, mut server_end) = duplex();
    let served = Arc::clone(&follower);
    let server = std::thread::spawn(move || serve_follower(&served, &mut server_end));

    // The leader runs a small campaign…
    leader.create_session(7, 1, SessionSpec::new(2, 42)).unwrap();
    for alg in 0..2 {
        leader
            .submit(7, 1, SessionOp::Extend { alg, values: vec![1.0 + alg as f64, 2.0, 3.0] })
            .unwrap();
    }
    leader.submit(7, 1, SessionOp::Score).unwrap();
    leader.run_batch();
    leader.flush_journals().unwrap();
    leader.emit_digests().unwrap();

    // …and ships it through the wire client acting as the transport.
    struct WireTransport(WireClient<relperf_service::client::DuplexPipe>);
    impl SegmentTransport for WireTransport {
        fn deliver(&mut self, _shard: usize, envelope: &[u8]) -> Result<u64, ReplicationError> {
            match self.0.ship(envelope.to_vec()) {
                Ok(watermark) => Ok(watermark),
                Err(ClientError::Service(ServiceError::Replication(e))) => Err(e),
                Err(e) => panic!("wire transport failed: {e}"),
            }
        }
    }
    let mut transport = WireTransport(WireClient::new(client_end));
    let report = shipper.pump(&mut transport);
    assert!(report.errors.is_empty(), "clean pump: {:?}", report.errors);
    assert_eq!(shipper.unacked_segments(), 0, "everything acked");

    // Tenant requests at the standby are refused typed.
    assert!(matches!(
        transport.0.create_session(9, 9, SessionSpec::new(1, 1)),
        Err(ClientError::Service(ServiceError::Replication(
            ReplicationError::WrongRole
        )))
    ));
    transport.0.goodbye().unwrap();
    server.join().unwrap().unwrap();

    // The follower replayed the digest cleanly (no divergence) and holds
    // the session warm.
    let follower = Arc::try_unwrap(follower).expect("server done").into_inner().unwrap();
    assert_eq!(*follower.state(), ReplicaState::Following);
    assert_eq!(follower.num_sessions(), 1);
    assert!(follower.session_checksum(7, 1).is_some());
}

/// Unix-socket smoke test: one real socket connection, one session, one
/// scored wave, a clean goodbye.
#[cfg(unix)]
#[test]
fn unix_socket_transport_smoke() {
    use std::os::unix::net::{UnixListener, UnixStream};

    let rt = runtime(1);
    let dir = std::env::temp_dir().join(format!("relperf-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("svc.sock");
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let handle = rt.handle();
    let server = std::thread::spawn(move || wire::serve_unix(handle, listener, Some(1)));

    let mut client = WireClient::new(UnixStream::connect(&path).unwrap());
    client.create_session(1, 1, SessionSpec::new(1, 9)).unwrap();
    let seqs = client
        .submit(
            1,
            1,
            vec![
                SessionOp::Extend { alg: 0, values: vec![5.0, 6.0] },
                SessionOp::Score,
            ],
        )
        .unwrap();
    let responses = client
        .await_responses(1, &seqs, Duration::from_secs(10))
        .unwrap();
    assert!(matches!(responses[1].result, Ok(OpOutcome::Scored(_))));
    client.goodbye().unwrap();
    server.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
    rt.shutdown();
}
