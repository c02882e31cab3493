//! Machine-readable benchmark of the durability layer: journal append
//! throughput under group commit, recovery (replay) time as a function
//! of journal length, and the set-up of a 16-shard journaled service.
//! Writes `BENCH_recovery.json`.
//!
//! Three sweeps:
//!
//! 1. **Append throughput** — one session on a file-backed journal
//!    (`FileJournalStore` in a temp directory), admitting single-`Push`
//!    groups as fast as the journal accepts them, at `group_commit`
//!    1 / 8 / 64. Every admission appends one record; a sync (real
//!    `fdatasync`) lands every `group_commit` ops, so the sweep shows how
//!    group commit amortises the sync cost. The timed section is admission
//!    only — execution runs untimed afterwards. The `runtime` rows admit
//!    the same groups through a 2-thread `ServiceRuntime::submit_all` at
//!    `group_commit` 8 / 64: each admission also runs its batch inline
//!    (timed), and the group-commit fsync runs on the shard's scheduler
//!    thread while admissions go on.
//!
//! 2. **Recovery time vs journal length** — a scripted session (pushes
//!    with a `Score` every 50 ops, no compaction) journaled to in-memory
//!    stores, then recovered. Before any timing, the same script is
//!    recovered once on an identical store set and its probe wave is
//!    asserted **bit-identical** to a crash-free golden run; only then is
//!    a fresh, identical store set timed. Recovery here is pure replay —
//!    the time scales with the journal, not with disk.
//!
//! 3. **Set-up over 16 shards** — `SessionService::with_journal` and
//!    `SessionService::recover` over one `FileJournalStore` per shard in a
//!    temp directory, which is what a service start or a crash restart
//!    pays before it admits anything: mostly the fresh checkpoint each
//!    shard installs (four fsyncs each). The shards install concurrently;
//!    the `compact_serial` row runs the same 16 installs one shard after
//!    another (interleaved with `compact_all` on the same service) as the
//!    reference. Each row reports the quartiles of its runs. Each
//!    `with_journal` start is interleaved the same way with one
//!    `compact_all` call, and the `setup_ratio` table reports the
//!    quartiles of both per-run ratios, `with_journal / compact_all` and
//!    `compact_serial / compact_all`: runs in one loop iteration share the
//!    host's phase, so their ratio holds still where separately taken
//!    quartiles drift apart.
//!
//! The first two sweeps use one shard, so their installs run inline.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_recovery
//! ```

use relperf_bench::report::{Report, Row};
use relperf_bench::{
    boxed, drive_script, journal_comparator, journal_config, mem_stores, probe, row, script_op,
};
use relperf_core::cluster::Parallelism;
use relperf_measure::compare::BootstrapComparator;
use relperf_service::prelude::*;
use relperf_service::service::SessionService;
use std::path::Path;
use std::time::Instant;

const APPEND_OPS: usize = 2_000;
/// Journal lengths (in ops) swept by the recovery-time benchmark.
const REPLAY_SIZES: [usize; 3] = [100, 1_000, 5_000];
/// Shards of the set-up sweep, one file store each (the repo
/// benchmark's service runs with 16).
const SETUP_SHARDS: usize = 16;
/// Sessions the recovered set-up service hosts, two per shard on
/// average.
const SETUP_SESSIONS: u64 = 32;
/// Timed runs per set-up row.
const SETUP_RUNS: usize = 21;

/// Builds the length-`n` journal on fresh in-memory stores and returns
/// the handles (flushed, service dropped).
fn build_journal(n: usize) -> Vec<MemJournalStore> {
    let stores = mem_stores(1);
    let service = journaled(boxed(&stores));
    drive_script(&service, 1, n);
    service.flush_journals().expect("flush");
    stores
}

fn recover(
    stores: Vec<Box<dyn JournalStore>>,
) -> (SessionService<BootstrapComparator>, RecoveryReport) {
    SessionService::recover(
        journal_comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        journal_config(64),
        stores,
    )
    .expect("recovery")
}

/// Times [`APPEND_OPS`] single-op groups into a fresh file-backed
/// journal at `group_commit`, admitted on a bare service or, with
/// `runtime`, through a 2-thread runtime: then the timed section includes
/// each group's inline batch, and the group-commit fsyncs run on the
/// shard's scheduler thread.
fn bench_append(root: &Path, group_commit: usize, runtime: bool) -> Row {
    let mode = if runtime { "runtime" } else { "service" };
    let dir = root.join(format!("{mode}-gc-{group_commit}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = FileJournalStore::open(&dir).expect("open store");
    let service = SessionService::with_journal(
        journal_comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        journal_config(group_commit),
        vec![Box::new(store) as Box<dyn JournalStore>],
    )
    .expect("journaled service");
    service.create_session(1, 1, SessionSpec::new(2, 7)).expect("create");

    let (total_s, syncs) = if runtime {
        let rt = ServiceRuntime::start(
            service,
            RuntimeConfig {
                scheduler_threads: 2,
                ..RuntimeConfig::default()
            },
        );
        let total_s = time_appends(|op| rt.submit_all(1, 1, vec![op]), || rt.flush_journals());
        let syncs = rt.stats().journal_syncs;
        rt.shutdown();
        (total_s, syncs)
    } else {
        let total_s =
            time_appends(|op| service.submit_all(1, 1, vec![op]), || service.flush_journals());
        service.run_batch(); // untimed: execution is not the journal's cost
        (total_s, service.stats().journal_syncs)
    };
    row![
        "mode" => mode,
        "group_commit" => group_commit,
        "ops" => APPEND_OPS,
        "total_s" => total_s,
        "ops_per_s" => APPEND_OPS as f64 / total_s,
        "syncs" => syncs,
    ]
}

/// Seconds to admit [`APPEND_OPS`] scripted single-op groups through
/// `submit`, then `flush` them durable.
fn time_appends(
    submit: impl Fn(SessionOp) -> Result<Vec<u64>, ServiceError>,
    flush: impl FnOnce() -> Result<(), ServiceError>,
) -> f64 {
    let started = Instant::now();
    for i in 0..APPEND_OPS {
        submit(script_op(i, 1)).expect("admission");
    }
    flush().expect("flush");
    started.elapsed().as_secs_f64()
}

fn bench_recovery(n: usize) -> Row {
    // Bit-identity first, on its own identical store set: the recovered
    // session's probe wave must equal a crash-free golden's.
    let (recovered, report) = recover(boxed(&build_journal(n)));
    assert!(report.replayed_ops > 0, "nothing replayed at n={n}");
    let golden = SessionService::new(
        journal_comparator(),
        1,
        Parallelism::auto(),
        ServiceLimits::default(),
    );
    drive_script(&golden, 1, n);
    assert_eq!(
        probe(&recovered, 0),
        probe(&golden, 0),
        "recovered session diverged from the crash-free golden at n={n}"
    );

    // Now time a fresh, identical store set.
    let stores = boxed(&build_journal(n));
    let started = Instant::now();
    let (_service, report) = recover(stores);
    let recover_s = started.elapsed().as_secs_f64();
    row![
        "journal_ops" => n,
        "replayed_ops" => report.replayed_ops,
        "recover_ms" => recover_s * 1e3,
        "replay_ops_per_s" => report.replayed_ops as f64 / recover_s,
    ]
}

/// One `FileJournalStore` per set-up shard under `dir`.
fn file_stores(dir: &Path) -> Vec<Box<dyn JournalStore>> {
    (0..SETUP_SHARDS)
        .map(|i| {
            let store = FileJournalStore::open(dir.join(format!("shard-{i:02}"))).expect("open");
            Box::new(store) as Box<dyn JournalStore>
        })
        .collect()
}

fn journaled(stores: Vec<Box<dyn JournalStore>>) -> SessionService<BootstrapComparator> {
    SessionService::with_journal(
        journal_comparator(),
        Parallelism::auto(),
        ServiceLimits::default(),
        journal_config(64),
        stores,
    )
    .expect("journaled service")
}

/// `SETUP_SESSIONS` sessions spread over the shards, each fed the first
/// 20 ops of the script, then flushed: the state the recover row
/// restores.
fn populate(service: &SessionService<BootstrapComparator>) {
    for tenant in 1..=SETUP_SESSIONS {
        service.create_session(tenant, 1, SessionSpec::new(2, 7)).expect("create");
        let ops = (0..20).map(|i| script_op(i, 1)).collect();
        service.submit_all(tenant, 1, ops).expect("admission");
    }
    service.run_batch();
    service.flush_journals().expect("flush");
}

/// The first quartile, median and third quartile of `xs`.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| xs[(xs.len() - 1) * q / 4])
}

/// The quartiles of `times_s` as a set-up row, in milliseconds.
fn setup_row(op: &str, times_s: &[f64], replayed_ops: usize) -> Row {
    let [p25, median, p75] = quartiles(times_s.to_vec()).map(|s| s * 1e3);
    row![
        "op" => op,
        "shards" => SETUP_SHARDS,
        "replayed_ops" => replayed_ops,
        "runs" => times_s.len(),
        "p25_ms" => p25,
        "median_ms" => median,
        "p75_ms" => p75,
    ]
}

/// The quartiles of the per-run ratio `num[r] / den[r]` of two
/// interleaved set-up timings.
fn ratio_row(ratio: &str, num: &[f64], den: &[f64]) -> Row {
    let [p25, median, p75] = quartiles(num.iter().zip(den).map(|(n, d)| n / d).collect());
    row![
        "ratio" => ratio,
        "runs" => num.len(),
        "p25" => p25,
        "median" => median,
        "p75" => p75,
    ]
}

/// The `setup` table (quartiles per operation) and the `setup_ratio`
/// table (quartiles of the interleaved per-run ratios).
fn bench_setup(root: &Path) -> (Vec<Row>, Vec<Row>) {
    let fresh = |name: String| {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // The installs alone, one shard after another vs all at once, on one
    // populated service.
    let service = journaled(file_stores(&fresh("compact".to_string())));
    populate(&service);
    let serial = || {
        for idx in 0..SETUP_SHARDS {
            assert!(service.compact_shard(idx).expect("install"));
        }
    };
    let fan_out = || assert_eq!(service.compact_all().expect("install"), SETUP_SHARDS);
    let time = |f: &dyn Fn()| {
        let started = Instant::now();
        f();
        started.elapsed().as_secs_f64()
    };

    // A fresh start: every shard installs an empty checkpoint. Each start
    // runs next to one `compact_all`, so the two share the host's phase.
    let (starts, start_fan_outs): (Vec<f64>, Vec<f64>) = (0..=SETUP_RUNS)
        .map(|r| {
            let stores = file_stores(&fresh(format!("start-{r}")));
            let started = Instant::now();
            let started_service = journaled(stores);
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(started_service.stats().journal_compactions, SETUP_SHARDS as u64);
            (elapsed, time(&fan_out))
        })
        .unzip();

    // A crash restart: load, replay and re-checkpoint every shard.
    let mut replayed_ops = 0;
    let restarts: Vec<f64> = (0..=SETUP_RUNS)
        .map(|r| {
            let dir = fresh(format!("restart-{r}"));
            populate(&journaled(file_stores(&dir)));
            let stores = file_stores(&dir);
            let started = Instant::now();
            let (service, report) = recover(stores);
            let elapsed = started.elapsed().as_secs_f64();
            assert_eq!(report.sessions, SETUP_SESSIONS as usize);
            replayed_ops = report.replayed_ops;
            assert_eq!(service.stats().journal_compactions, SETUP_SHARDS as u64);
            elapsed
        })
        .collect();

    let (serials, fan_outs): (Vec<f64>, Vec<f64>) =
        (0..=SETUP_RUNS).map(|_| (time(&serial), time(&fan_out))).unzip();
    let _ = std::fs::remove_dir_all(root);

    // Each list's first run is the warmup.
    let setup = vec![
        setup_row("with_journal", &starts[1..], 0),
        setup_row("recover", &restarts[1..], replayed_ops),
        setup_row("compact_serial", &serials[1..], 0),
        setup_row("compact_all", &fan_outs[1..], 0),
    ];
    let ratios = vec![
        ratio_row("with_journal/compact_all", &starts[1..], &start_fan_outs[1..]),
        ratio_row("compact_serial/compact_all", &serials[1..], &fan_outs[1..]),
    ];
    (setup, ratios)
}

fn main() {
    let root = std::env::temp_dir().join("relperf-bench-recovery");

    let appends: Vec<Row> = [1usize, 8, 64]
        .iter()
        .map(|&gc| bench_append(&root, gc, false))
        .chain([8, 64].iter().map(|&gc| bench_append(&root, gc, true)))
        .collect();
    let _ = std::fs::remove_dir_all(&root);

    let recoveries: Vec<Row> = REPLAY_SIZES.iter().map(|&n| bench_recovery(n)).collect();

    let (setup, setup_ratio) = bench_setup(&root);

    let units = row![
        "append_throughput" => "admissions/s (file-backed, fdatasync every group_commit ops); `runtime` rows admit through a 2-thread ServiceRuntime, so they include the inline batch, and their fsyncs run on the scheduler thread",
        "recovery" => "ms to rebuild all sessions from checkpoint + replay (in-memory stores)",
        "setup" => "ms per call over 16 file-backed shards (quartiles of the runs)",
        "setup_ratio" => "per-run time ratio of two interleaved set-up calls (quartiles of the runs)",
    ];
    Report::new(
        "recovery",
        row![
            "units" => units,
            "note" => "single-Push admission groups; recovery bit-identity vs a crash-free golden asserted on an identical store set before timing",
        ],
    )
    .table("append", appends)
    .table("recovery", recoveries)
    .table("setup", setup)
    .table("setup_ratio", setup_ratio)
    .write();
}
