//! Machine-readable benchmark of journal-shipping replication: ship +
//! replay throughput as a function of segment size, and failover
//! promotion latency as a function of journal length. Writes
//! `BENCH_replication.json`.
//!
//! Two sweeps:
//!
//! 1. **Ship + replay throughput vs segment size** — a deterministic
//!    16-session script journaled through shipper-tapped in-memory
//!    stores, then shipped to a fresh [`Follower`] through the
//!    in-process transport at `max_segment` 4 KiB / 64 KiB / 1 MiB. The
//!    timed section covers the full replication path: cutting outbox
//!    bytes into checksummed `SHIP` segments, delivering, decoding, and
//!    replaying every record into warm standby sessions.
//!
//! 2. **Promotion latency vs journal length** — the same script at
//!    several lengths, fully replicated, then `Follower::promote` timed:
//!    sealing, resuming the admission counter, and installing every warm
//!    session into a serving service.
//!
//! Before any timing, the same script is replicated once and verified:
//! the leader's divergence digests must pass on the follower (the
//! bit-identity proof), and the promoted service's probe wave must equal
//! a crash-free golden's.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_replication
//! ```

use relperf_bench::report::{Report, Row};
use relperf_bench::{
    boxed, drive_script, journal_comparator, journal_config, mem_stores, probe, row,
};
use relperf_core::cluster::Parallelism;
use relperf_measure::compare::BootstrapComparator;
use relperf_service::prelude::*;
use relperf_service::service::SessionService;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const SHARDS: usize = 4;
const SESSIONS: u64 = 16;
/// Ops driven by the ship-throughput sweep.
const SHIP_OPS: usize = 5_000;
/// Segment payload caps swept by the ship-throughput benchmark.
const SEGMENT_SIZES: [usize; 3] = [1 << 12, 1 << 16, 1 << 20];
/// Journal lengths (in ops) swept by the promotion-latency benchmark.
const PROMOTE_SIZES: [usize; 3] = [100, 1_000, 5_000];

/// Drives the script on a shipper-tapped leader (digests emitted when
/// asked), leaving everything durable in the outboxes. Returns the store
/// handles (for byte accounting) and the armed shipper.
fn shipped_journal(
    n: usize,
    max_segment: usize,
    digests: bool,
) -> (Vec<MemJournalStore>, JournalShipper) {
    let handles = mem_stores(SHARDS);
    let (stores, shipper) =
        JournalShipper::wrap_stores(boxed(&handles), ShipperConfig { max_segment });
    let service = SessionService::with_journal(
        journal_comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        journal_config(1),
        stores,
    )
    .expect("journaled leader");
    drive_script(&service, SESSIONS, n);
    service.flush_journals().expect("flush");
    if digests {
        service.emit_digests().expect("digests");
        service.flush_journals().expect("flush digests");
    }
    (handles, shipper)
}

/// Replicates everything the shipper holds into a fresh follower,
/// asserting clean convergence, and returns the follower.
fn replicate(shipper: &mut JournalShipper) -> Follower<BootstrapComparator> {
    let follower = Arc::new(Mutex::new(Follower::new(journal_comparator(), SHARDS)));
    let mut transport = InProcTransport::new(Arc::clone(&follower));
    let report = shipper.pump(&mut transport);
    assert!(report.errors.is_empty(), "clean transport errored: {report:?}");
    assert_eq!(shipper.unacked_segments(), 0, "unshipped durable bytes");
    drop(transport);
    let follower = Arc::try_unwrap(follower).ok().expect("transport dropped").into_inner().unwrap();
    assert_eq!(
        *follower.state(),
        ReplicaState::Following,
        "follower failed the leader's digests"
    );
    follower
}

fn bench_ship(max_segment: usize) -> Row {
    let (handles, mut shipper) = shipped_journal(SHIP_OPS, max_segment, true);
    let journal_bytes: usize = handles.iter().map(|h| h.stored().journal.len()).sum();

    let follower = Arc::new(Mutex::new(Follower::new(journal_comparator(), SHARDS)));
    let mut transport = InProcTransport::new(Arc::clone(&follower));
    let started = Instant::now();
    let report = shipper.pump(&mut transport);
    let ship_s = started.elapsed().as_secs_f64();
    assert!(report.errors.is_empty() && shipper.unacked_segments() == 0);
    // The digests rode along in the timed stream: Following = verified.
    assert_eq!(
        *follower.lock().unwrap().state(),
        ReplicaState::Following,
        "follower failed the leader's digests"
    );

    row![
        "max_segment" => max_segment,
        "journal_bytes" => journal_bytes,
        "segments" => report.cut,
        "ship_ms" => ship_s * 1e3,
        "ops_per_s" => SHIP_OPS as f64 / ship_s,
        "mib_per_s" => journal_bytes as f64 / (1 << 20) as f64 / ship_s,
    ]
}

fn bench_promote(n: usize) -> Row {
    let (_handles, mut shipper) = shipped_journal(n, ShipperConfig::default().max_segment, true);
    let follower = replicate(&mut shipper);
    let started = Instant::now();
    let (service, report) = follower
        .promote(Parallelism::auto(), ServiceLimits::default())
        .expect("healthy replica promotes");
    let promote_s = started.elapsed().as_secs_f64();
    assert_eq!(report.sessions, SESSIONS as usize);
    drop(service);
    row![
        "journal_ops" => n,
        "sessions" => report.sessions,
        "applied_ops" => report.applied_ops,
        "promote_ms" => promote_s * 1e3,
    ]
}

fn main() {
    // Bit-identity gate before any timing: replicate once, promote, and
    // probe every session against a crash-free golden run.
    {
        let (_handles, mut shipper) = shipped_journal(1_000, 1 << 12, true);
        let follower = replicate(&mut shipper);
        let (promoted, _) = follower
            .promote(Parallelism::auto(), ServiceLimits::default())
            .expect("promotes");
        let golden = SessionService::new(
            journal_comparator(),
            SHARDS,
            Parallelism::auto(),
            ServiceLimits::default(),
        );
        drive_script(&golden, SESSIONS, 1_000);
        for s in 0..SESSIONS {
            assert_eq!(
                probe(&promoted, s),
                probe(&golden, s),
                "promoted session {s} diverged from the crash-free golden"
            );
        }
    }

    let ships: Vec<Row> = SEGMENT_SIZES.iter().map(|&m| bench_ship(m)).collect();
    let promotes: Vec<Row> = PROMOTE_SIZES.iter().map(|&n| bench_promote(n)).collect();

    let units = row![
        "ship" => "ms to cut, checksum, deliver, decode, and replay the whole journal into a warm follower (in-proc transport)",
        "promotion" => "ms to seal, resume the seq counter, and install every warm session into a serving service",
    ];
    Report::new(
        "replication",
        row![
            "units" => units,
            "note" => "deterministic 16-session script; digest-verified bit-identity and a promoted-vs-golden probe sweep asserted before timing",
        ],
    )
    .table("ship", ships)
    .table("promotion", promotes)
    .write();
}
