//! Machine-readable benchmark of the multi-tenant session service:
//! wave-completion latency and scheduler throughput across tenant counts,
//! synchronous drain loop vs pipelined background scheduler. Writes
//! `BENCH_service.json`.
//!
//! The sweep runs 1 → 128 tenants against a registry whose tight
//! configuration holds at most 64 resident sessions (16 shards × 4
//! slots): above that, snapshot-on-evict kicks in and sessions commute
//! between residency and the spill store every wave. Before any timing,
//! each tenant count is driven three ways — roomy synchronous (the
//! reference, nothing ever spills), tight synchronous, and tight
//! pipelined — and all three final score tables are asserted
//! bit-identical; above capacity the tight runs are additionally required
//! to show `spills > 0` and `rehydrations > 0`, so the numbers measure a
//! registry that really is thrashing, with identical results.
//!
//! The latency unit is **per-tenant wave completion**: the time from a
//! tenant's `submit_all` of one wave (4 `Extend` + 1 `Score`) to its
//! responses being available. In the synchronous mode every tenant waits
//! for the full `run_batch`; in the pipelined mode scheduler threads
//! drain shards independently, so early tenants complete while later
//! ones are still queuing.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_service
//! ```
//!
//! Single-core container caveat: with one hardware thread the pipelined
//! scheduler timeslices rather than overlaps, so its throughput ≈ the
//! synchronous loop; the signal to check there is bit-identity under
//! spill churn and that pipelining adds no overhead. On multi-core hosts
//! the shard partitions genuinely run in parallel.

use rand::prelude::*;
use relperf_bench::report::{Report, Row};
use relperf_bench::{paper_comparator, row};
use relperf_core::cluster::{ClusterConfig, Parallelism, ScoreTable};
use relperf_core::session::ConvergenceCriterion;
use relperf_measure::Sample;
use relperf_service::prelude::*;
use relperf_service::service::SessionService;
use std::time::{Duration, Instant};

const ALGORITHMS: usize = 4;
const WAVES: usize = 6;
const WAVE_SIZE: usize = 5;
const SHARDS: usize = 16;
/// Tight registry: 16 shards × 4 slots = 64 resident sessions. The
/// sweep's top tenant counts exceed this on purpose.
const TIGHT_SLOTS: usize = 4;

fn noisy(center: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| center + rng.random_range(-0.2..0.2)).collect()
}

fn wave_ops(tenant: u64, wave: usize) -> Vec<SessionOp> {
    let mut ops: Vec<SessionOp> = (0..ALGORITHMS)
        .map(|alg| SessionOp::Extend {
            alg,
            values: noisy(
                1.0 + alg as f64,
                WAVE_SIZE,
                (tenant << 32) ^ ((wave as u64) << 8) ^ alg as u64,
            ),
        })
        .collect();
    ops.push(SessionOp::Score);
    ops
}

fn limits(tight: bool) -> ServiceLimits {
    if tight {
        ServiceLimits {
            sessions_per_shard: TIGHT_SLOTS,
            ..ServiceLimits::default()
        }
    } else {
        ServiceLimits::default()
    }
}

struct RunResult {
    /// Final score table per tenant (for the bit-identity assertion).
    tables: Vec<ScoreTable>,
    /// Ops executed.
    ops: usize,
    /// Per-tenant wave-completion latencies in seconds.
    latencies: Vec<f64>,
    /// Total wall time spent driving waves.
    total_s: f64,
    stats: ServiceStats,
}

fn create_all<C: relperf_measure::ScratchThreeWayComparator + Send + Sync>(
    service: &SessionService<C>,
    tenants: u64,
) {
    let config = ClusterConfig::with_repetitions(50);
    for t in 0..tenants {
        service
            .create_session(
                t,
                1,
                SessionSpec {
                    algorithms: ALGORITHMS,
                    config,
                    seed: 7 + t,
                    criterion: ConvergenceCriterion::default(),
                },
            )
            .expect("admission");
    }
}

fn final_tables(per_tenant: &mut [Vec<ScoreTable>]) -> Vec<ScoreTable> {
    per_tenant
        .iter_mut()
        .map(|waves| waves.pop().expect("every tenant scored"))
        .collect()
}

/// The PR-5-style synchronous loop: submit every tenant's wave, then one
/// blocking `run_batch`. A `ShardFull` during registry thrash (every
/// resident has queued ops, so there is no idle victim to spill) is
/// handled the way a sync caller must: drain, then retry.
fn drive_sync(tenants: u64, tight: bool) -> RunResult {
    let service =
        SessionService::new(paper_comparator(42), SHARDS, Parallelism::serial(), limits(tight));
    create_all(&service, tenants);
    let mut per_tenant: Vec<Vec<ScoreTable>> = (0..tenants).map(|_| Vec::new()).collect();
    let mut latencies = Vec::new();
    let mut ops = 0usize;
    let started = Instant::now();
    for wave in 0..WAVES {
        let mut submit_at: Vec<Option<Instant>> = vec![None; tenants as usize];
        // Absorbs one drain's responses: a tenant's Scored response marks
        // its wave complete (mid-wave retry drains count too — their
        // responses must not be dropped).
        let absorb = |responses: Vec<OpResponse>,
                          per_tenant: &mut Vec<Vec<ScoreTable>>,
                          latencies: &mut Vec<f64>,
                          submit_at: &[Option<Instant>]| {
            let done = Instant::now();
            for r in responses {
                if let Ok(OpOutcome::Scored(w)) = &r.result {
                    let t = r.key.tenant as usize;
                    per_tenant[t].push(w.table.clone());
                    let at = submit_at[t].expect("scored before submitting");
                    latencies.push(done.duration_since(at).as_secs_f64());
                } else {
                    r.result.as_ref().expect("scripted ops never fail");
                }
            }
        };
        for t in 0..tenants {
            let mut group = wave_ops(t, wave);
            submit_at[t as usize] = Some(Instant::now());
            let seqs = loop {
                match service.submit_all(t, 1, std::mem::take(&mut group)) {
                    Ok(seqs) => break seqs,
                    Err(ServiceError::ShardFull { .. }) => {
                        // No idle victim to spill: drain queued work, retry.
                        let responses = service.run_batch();
                        absorb(responses, &mut per_tenant, &mut latencies, &submit_at);
                        group = wave_ops(t, wave);
                    }
                    Err(e) => panic!("admission failed: {e}"),
                }
            };
            ops += seqs.len();
        }
        let responses = service.run_batch();
        absorb(responses, &mut per_tenant, &mut latencies, &submit_at);
    }
    RunResult {
        tables: final_tables(&mut per_tenant),
        ops,
        latencies,
        total_s: started.elapsed().as_secs_f64(),
        stats: service.stats(),
    }
}

/// The pipelined runtime: background scheduler threads drain shard
/// partitions on their own cadence; the driver only submits and awaits.
fn drive_pipelined(tenants: u64, tight: bool, threads: usize) -> RunResult {
    let service =
        SessionService::new(paper_comparator(42), SHARDS, Parallelism::serial(), limits(tight));
    create_all(&service, tenants);
    let rt = ServiceRuntime::start(
        service,
        RuntimeConfig {
            scheduler_threads: threads,
            cadence: Duration::from_micros(200),
            ..Default::default()
        },
    );
    let mut per_tenant: Vec<Vec<ScoreTable>> = (0..tenants).map(|_| Vec::new()).collect();
    let mut latencies = Vec::new();
    let mut ops = 0usize;
    let started = Instant::now();
    for wave in 0..WAVES {
        let mut submitted_at: Vec<(u64, Instant, Vec<u64>)> = Vec::new();
        for t in 0..tenants {
            let mut group = wave_ops(t, wave);
            let at = Instant::now();
            let seqs = loop {
                match rt.submit_all(t, 1, std::mem::take(&mut group)) {
                    Ok(seqs) => break seqs,
                    Err(ServiceError::ShardFull { .. }) => {
                        // The background threads are already draining;
                        // yield and retry like a real client under
                        // backpressure.
                        std::thread::sleep(Duration::from_micros(200));
                        group = wave_ops(t, wave);
                    }
                    Err(e) => panic!("admission failed: {e}"),
                }
            };
            ops += seqs.len();
            submitted_at.push((t, at, seqs));
        }
        for (t, at, seqs) in &submitted_at {
            let responses = rt
                .await_responses(*t, seqs, Duration::from_secs(600))
                .expect("pipelined wave");
            latencies.push(at.elapsed().as_secs_f64());
            for r in responses {
                if let Ok(OpOutcome::Scored(w)) = &r.result {
                    per_tenant[*t as usize].push(w.table.clone());
                } else {
                    r.result.as_ref().expect("scripted ops never fail");
                }
            }
        }
    }
    let stats = rt.stats();
    rt.shutdown();
    RunResult {
        tables: final_tables(&mut per_tenant),
        ops,
        latencies,
        total_s: started.elapsed().as_secs_f64(),
        stats,
    }
}

fn entry(tenants: u64, mode: &str, r: &RunResult) -> Row {
    let latencies = Sample::new(r.latencies.clone()).expect("non-empty");
    row![
        "tenants" => tenants,
        "mode" => mode,
        "ops" => r.ops,
        "total_s" => r.total_s,
        "ops_per_s" => r.ops as f64 / r.total_s,
        "wave_p50_ms" => latencies.quantile(0.5) * 1e3,
        "wave_p99_ms" => latencies.quantile(0.99) * 1e3,
        "spills" => r.stats.spills,
        "rehydrations" => r.stats.rehydrations,
    ]
}

fn main() {
    let capacity = (SHARDS * TIGHT_SLOTS) as u64;
    let mut entries: Vec<Row> = Vec::new();
    for &tenants in &[1u64, 4, 16, 64, 128] {
        // Bit-identity first: roomy sync is the reference; tight sync and
        // tight pipelined must match it exactly even while the registry
        // spills and rehydrates under them.
        let reference = drive_sync(tenants, false);
        let sync = drive_sync(tenants, true);
        let pipelined = drive_pipelined(tenants, true, 2);
        assert_eq!(
            reference.tables, sync.tables,
            "tight sync diverged at {tenants} tenants"
        );
        assert_eq!(
            reference.tables, pipelined.tables,
            "pipelined diverged at {tenants} tenants"
        );
        if tenants > capacity {
            for (label, r) in [("sync", &sync), ("pipelined", &pipelined)] {
                assert!(
                    r.stats.spills > 0 && r.stats.rehydrations > 0,
                    "{label} at {tenants} tenants (> {capacity} slots) never spilled: {:?}",
                    r.stats
                );
            }
        }
        entries.push(entry(tenants, "sync", &sync));
        entries.push(entry(tenants, "pipelined", &pipelined));
    }

    Report::new(
        "service",
        row![
            "units" => row![
                "throughput" => "ops/s",
                "latency" => "ms per tenant wave (submit -> responses available)",
            ],
            "registry" => row![
                "shards" => SHARDS,
                "sessions_per_shard" => TIGHT_SLOTS,
                "resident_capacity" => capacity,
            ],
            "note" => "6 waves x (4 Extend + 1 Score) per tenant; roomy-sync reference vs tight-sync vs tight-pipelined asserted bit-identical before timing; above 64 tenants the tight registry must spill and rehydrate",
        ],
    )
    .table("entries", entries)
    .write();
}
