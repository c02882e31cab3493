//! Journal codec fault injection, mirroring `tests/wire.rs`: encode/scan
//! roundtrips (property-tested), every single-bit flip and every
//! truncation of a multi-record journal must yield a typed error or a
//! clean torn-tail truncation — never a panic and never a silently
//! different record — plus unit drives of the in-memory (crash-point) and
//! file-backed stores.

use proptest::prelude::*;
use relperf_service::journal::{
    self, encode_record, scan, stream_header, CheckpointSession, CrashPoint, FileJournalStore,
    JournalError, JournalIoError, JournalRecord, JournalStore, MemJournalStore, StoredShard,
};
use relperf_service::prelude::*;

fn sample_ops(seed: u64) -> Vec<SessionOp> {
    vec![
        SessionOp::Push {
            alg: (seed % 3) as usize,
            value: seed as f64 * 0.5,
        },
        SessionOp::Extend {
            alg: 0,
            values: (0..(seed % 4 + 1)).map(|i| i as f64 + 0.25).collect(),
        },
        SessionOp::ExtendAll {
            alg: 1,
            values: (0..(seed % 3 + 1)).map(|i| i as f64 * 1.5 - 0.5).collect(),
        },
        SessionOp::Score,
        SessionOp::Snapshot,
        SessionOp::Close,
    ]
}

fn sample_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Create {
            tenant: 7,
            session: 11,
            spec: SessionSpec::new(3, 42),
        },
        JournalRecord::Restore {
            tenant: 8,
            session: 12,
            snapshot: vec![1, 2, 3, 4, 5],
        },
        JournalRecord::Ops {
            tenant: 9,
            session: 13,
            first_seq: 100,
            ops: sample_ops(5),
        },
        JournalRecord::Ops {
            tenant: 9,
            session: 13,
            first_seq: 105,
            ops: Vec::new(),
        },
        JournalRecord::Checkpoint {
            seq_floor: 200,
            sessions: vec![
                CheckpointSession {
                    tenant: 1,
                    session: 2,
                    last_applied: Some(33),
                    snapshot: vec![9; 17],
                },
                CheckpointSession {
                    tenant: 1,
                    session: 3,
                    last_applied: None,
                    snapshot: Vec::new(),
                },
            ],
        },
    ]
}

/// A multi-record journal stream of every record shape.
fn sample_stream() -> Vec<u8> {
    let mut bytes = stream_header();
    for record in sample_records() {
        bytes.extend_from_slice(&encode_record(&record));
    }
    bytes
}

#[test]
fn roundtrip_every_record_shape() {
    let scanned = scan(&sample_stream()).unwrap();
    assert!(!scanned.torn);
    assert_eq!(scanned.valid_len, sample_stream().len());
    let records: Vec<JournalRecord> = scanned.records.into_iter().map(|(_, r)| r).collect();
    assert_eq!(records, sample_records());
}

#[test]
fn empty_and_header_only_streams_are_clean() {
    let empty = scan(&[]).unwrap();
    assert_eq!((empty.records.len(), empty.torn), (0, false));
    let header = scan(&stream_header()).unwrap();
    assert_eq!((header.records.len(), header.torn), (0, false));
    assert_eq!(header.valid_len, stream_header().len());
}

#[test]
fn wrong_magic_and_future_version_are_typed() {
    let mut bad = sample_stream();
    bad[0] ^= 0xFF;
    assert_eq!(scan(&bad), Err(JournalError::BadMagic));

    // The one-byte version bump: a future format is refused with a typed
    // error naming both versions, not misread as corruption.
    let mut future = sample_stream();
    future[4] = journal::VERSION as u8 + 1;
    assert_eq!(
        scan(&future),
        Err(JournalError::UnsupportedVersion {
            found: journal::VERSION + 1,
            supported: journal::VERSION,
        })
    );
}

/// A version-1 stream is refused at its header as `UnsupportedVersion`,
/// never read as corruption: the header sits outside every record
/// checksum, so records sealed by the version-1 checksum (here: trailers
/// that fail the current one) are never looked at.
#[test]
fn version_one_stream_is_refused_typed() {
    let mut old = stream_header();
    assert_eq!(old[4..6], journal::VERSION.to_le_bytes());
    old[4..6].copy_from_slice(&1u16.to_le_bytes());
    for record in sample_records() {
        let mut framed = encode_record(&record);
        let n = framed.len();
        framed[n - 8..].iter_mut().for_each(|b| *b ^= 0x5A);
        old.extend_from_slice(&framed);
    }
    assert_eq!(
        scan(&old),
        Err(JournalError::UnsupportedVersion {
            found: 1,
            supported: 2
        })
    );
}

/// Every single-bit flip anywhere in a multi-record stream yields a typed
/// error or a clean torn-tail truncation to a strict prefix of the
/// original records — never a panic, never a silently altered record.
#[test]
fn every_single_bit_flip_is_typed_or_torn() {
    let stream = sample_stream();
    let golden = sample_records();
    for i in 0..stream.len() {
        for bit in 0..8 {
            let mut bad = stream.clone();
            bad[i] ^= 1 << bit;
            match scan(&bad) {
                Err(_) => {} // typed rejection
                Ok(s) => {
                    assert!(
                        s.torn,
                        "flip at byte {i} bit {bit} scanned clean without tearing"
                    );
                    assert!(
                        s.records.len() < golden.len(),
                        "flip at byte {i} bit {bit} kept every record"
                    );
                    for (j, (_, r)) in s.records.iter().enumerate() {
                        assert_eq!(
                            *r, golden[j],
                            "flip at byte {i} bit {bit} silently altered record {j}"
                        );
                    }
                }
            }
        }
    }
}

/// Every truncation point recovers the longest valid prefix: records
/// whose frames fit entirely in the cut survive intact, the partial tail
/// is reported torn, and nothing panics.
#[test]
fn every_truncation_recovers_longest_valid_prefix() {
    let stream = sample_stream();
    let full = scan(&stream).unwrap();
    // Frame boundaries: header end plus each record's end offset.
    let mut boundaries = vec![stream_header().len()];
    for w in full.records.windows(2) {
        boundaries.push(w[1].0);
    }
    boundaries.push(stream.len());
    for cut in 0..=stream.len() {
        let s = scan(&stream[..cut]).unwrap_or_else(|e| {
            panic!("cut at {cut} must stay Ok (torn, not corrupt): {e}")
        });
        let expect = full
            .records
            .iter()
            .zip(boundaries.iter().skip(1))
            .filter(|(_, end)| **end <= cut)
            .count();
        assert_eq!(s.records.len(), expect, "cut at {cut} kept the wrong prefix");
        for (j, (_, r)) in s.records.iter().enumerate() {
            assert_eq!(*r, sample_records()[j]);
        }
        let at_boundary = cut == 0 || boundaries.contains(&cut);
        assert_eq!(
            s.torn, !at_boundary,
            "cut at {cut}: torn flag disagrees with the frame boundaries"
        );
    }
}

/// A full-length final record whose checksum fails is the power-loss
/// tail (the frame's bytes were allocated but never all reached the
/// disk): it scans as torn and keeps every record before it. The same
/// damage one record earlier has intact bytes after it, so it is real
/// corruption and must come back typed.
#[test]
fn garbled_checksum_is_torn_only_on_the_final_record() {
    let stream = sample_stream();
    let golden = sample_records();
    let full = scan(&stream).unwrap();
    let last_at = full.records[golden.len() - 1].0;

    let mut last = stream.clone();
    let n = last.len();
    last[n - 1] ^= 0x5A;
    let s = scan(&last).expect("a garbled final checksum is a torn tail");
    assert!(s.torn);
    assert_eq!(s.valid_len, last_at);
    let kept: Vec<JournalRecord> = s.records.into_iter().map(|(_, r)| r).collect();
    assert_eq!(kept, golden[..golden.len() - 1]);

    // The checksum of the record before: the 8 bytes ending where the
    // final record starts.
    let prev_at = full.records[golden.len() - 2].0;
    let mut earlier = stream.clone();
    earlier[last_at - 1] ^= 0x5A;
    assert_eq!(
        scan(&earlier),
        Err(JournalError::Corrupt {
            offset: prev_at,
            what: "record checksum mismatch",
        })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized roundtrips: arbitrary op groups and checkpoint shapes
    /// survive encode → scan bit-identically.
    #[test]
    fn random_records_roundtrip(
        tenant in 0u64..1000,
        session in 0u64..1000,
        first_seq in 0u64..1_000_000,
        op_seed in 0u64..100,
        n_ops in 0usize..6,
        floor in 0u64..1_000_000,
    ) {
        let ops: Vec<SessionOp> = sample_ops(op_seed).into_iter().cycle().take(n_ops).collect();
        let records = vec![
            JournalRecord::Create { tenant, session, spec: SessionSpec::new(2, op_seed) },
            JournalRecord::Ops { tenant, session, first_seq, ops },
            JournalRecord::Checkpoint {
                seq_floor: floor,
                sessions: vec![CheckpointSession {
                    tenant,
                    session,
                    last_applied: (first_seq % 2 == 0).then_some(first_seq),
                    snapshot: vec![op_seed as u8; (op_seed % 9) as usize],
                }],
            },
        ];
        let mut bytes = stream_header();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let scanned = scan(&bytes).unwrap();
        prop_assert!(!scanned.torn);
        let got: Vec<JournalRecord> = scanned.records.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(got, records);
    }
}

// ---------------------------------------------------------------------------
// In-memory store: crash points and power cycles
// ---------------------------------------------------------------------------

#[test]
fn mem_store_append_sync_load_roundtrip() {
    let handle = MemJournalStore::new();
    let mut store: Box<dyn JournalStore> = Box::new(handle.clone());
    store.append(b"abc").unwrap();
    // Unsynced bytes are volatile: not yet in the durable image.
    assert_eq!(handle.stored().journal, b"".to_vec());
    store.sync().unwrap();
    assert_eq!(handle.stored().journal, b"abc".to_vec());
    store.install_checkpoint(b"BASE", b"J").unwrap();
    let loaded = store.load().unwrap();
    assert_eq!(loaded.base, b"BASE".to_vec());
    assert_eq!(loaded.journal, b"J".to_vec());
    assert_eq!(handle.counters(), (1, 1, 1));
}

#[test]
fn mem_store_after_append_crash_loses_unsynced_tail() {
    let handle = MemJournalStore::new();
    let mut store: Box<dyn JournalStore> = Box::new(handle.clone());
    store.append(b"synced").unwrap();
    store.sync().unwrap();
    handle.arm(CrashPoint::AfterAppend);
    assert_eq!(store.append(b"lost"), Err(JournalIoError::Crashed));
    assert!(handle.crashed());
    // Every call fails until the machine restarts.
    assert_eq!(store.sync(), Err(JournalIoError::Crashed));
    assert_eq!(store.load(), Err(JournalIoError::Crashed));
    handle.power_cycle();
    assert_eq!(store.load().unwrap().journal, b"synced".to_vec());
}

#[test]
fn mem_store_torn_append_flushes_half_the_tail() {
    let handle = MemJournalStore::new();
    let mut store: Box<dyn JournalStore> = Box::new(handle.clone());
    handle.arm(CrashPoint::TornAppend);
    assert_eq!(store.append(b"0123456789"), Err(JournalIoError::Crashed));
    handle.power_cycle();
    // Half of the torn write reached the platter: a mid-record cut.
    assert_eq!(store.load().unwrap().journal, b"01234".to_vec());
}

#[test]
fn mem_store_mid_snapshot_keeps_new_base_and_old_journal() {
    let handle = MemJournalStore::new();
    let mut store: Box<dyn JournalStore> = Box::new(handle.clone());
    store.append(b"old-journal").unwrap();
    store.sync().unwrap();
    store.install_checkpoint(b"old-base", b"").unwrap();
    store.append(b"tail").unwrap();
    store.sync().unwrap();

    handle.arm(CrashPoint::MidSnapshot);
    assert_eq!(
        store.install_checkpoint(b"new-base", b""),
        Err(JournalIoError::Crashed)
    );
    handle.power_cycle();
    let after = store.load().unwrap();
    assert_eq!(after.base, b"new-base".to_vec(), "new base was installed");
    assert_eq!(after.journal, b"tail".to_vec(), "old journal survived");

    // MidCompaction, by contrast, fires before anything is touched.
    handle.arm(CrashPoint::MidCompaction);
    assert_eq!(
        store.install_checkpoint(b"unseen", b"unseen"),
        Err(JournalIoError::Crashed)
    );
    handle.power_cycle();
    let untouched = store.load().unwrap();
    assert_eq!(untouched.base, b"new-base".to_vec());
    assert_eq!(untouched.journal, b"tail".to_vec());
}

#[test]
fn mem_store_before_execute_crash_is_durable_but_unacked() {
    let handle = MemJournalStore::new();
    let mut store: Box<dyn JournalStore> = Box::new(handle.clone());
    store.append(b"group").unwrap();
    handle.arm(CrashPoint::BeforeExecute);
    // The sync fails — but the bytes made it to durable storage first:
    // exactly the ambiguous window a client must resolve via recovery.
    assert_eq!(store.sync(), Err(JournalIoError::Crashed));
    handle.power_cycle();
    assert_eq!(store.load().unwrap().journal, b"group".to_vec());
}

#[test]
fn mem_store_replace_overwrites_durable_state() {
    let handle = MemJournalStore::new();
    let mut store: Box<dyn JournalStore> = Box::new(handle.clone());
    store.append(b"x").unwrap();
    store.sync().unwrap();
    handle.replace(StoredShard {
        base: b"B".to_vec(),
        journal: b"J".to_vec(),
    });
    let loaded = store.load().unwrap();
    assert_eq!((loaded.base, loaded.journal), (b"B".to_vec(), b"J".to_vec()));
}

// ---------------------------------------------------------------------------
// File-backed store
// ---------------------------------------------------------------------------

fn temp_store_dir(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("journal-store-tests")
        .join(name)
}

#[test]
fn file_store_append_sync_load_roundtrip() {
    let dir = temp_store_dir("roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = FileJournalStore::open(&dir).unwrap();
    assert_eq!(store.load().unwrap(), StoredShard::default(), "fresh dir is empty");
    store.append(b"hello ").unwrap();
    store.append(b"journal").unwrap();
    store.sync().unwrap();
    assert_eq!(store.load().unwrap().journal, b"hello journal".to_vec());

    store.install_checkpoint(b"BASE", b"RESET").unwrap();
    let after = store.load().unwrap();
    assert_eq!(after.base, b"BASE".to_vec());
    assert_eq!(after.journal, b"RESET".to_vec());

    // Appends after a checkpoint land in the fresh journal file.
    store.append(b"+tail").unwrap();
    store.sync().unwrap();
    assert_eq!(store.load().unwrap().journal, b"RESET+tail".to_vec());
}

#[test]
fn file_store_survives_reopen() {
    let dir = temp_store_dir("reopen");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = FileJournalStore::open(&dir).unwrap();
        store.install_checkpoint(b"durable-base", b"durable-journal").unwrap();
        store.append(b"+more").unwrap();
        store.sync().unwrap();
    }
    // A brand-new handle (a restarted process) sees the same bytes.
    let mut reopened = FileJournalStore::open(&dir).unwrap();
    let loaded = reopened.load().unwrap();
    assert_eq!(loaded.base, b"durable-base".to_vec());
    assert_eq!(loaded.journal, b"durable-journal+more".to_vec());
    assert_eq!(reopened.dir(), dir.as_path());
}
