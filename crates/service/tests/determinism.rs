//! The service's headline contract: for ANY cross-tenant request
//! interleaving, shard count, scheduler thread count, and batch cut
//! points, every session's served results are bit-identical to driving a
//! private `ClusterSession` with the same op sequence.

mod support;

use proptest::prelude::*;
use rand::prelude::*;
use relperf_core::cluster::{ClusterConfig, Parallelism, ScoreTable};
use relperf_service::prelude::*;
use relperf_service::service::SessionService;
use support::{comparator, direct_tables, scripts, Script};

fn config(threads: usize) -> ClusterConfig {
    ClusterConfig {
        repetitions: 15,
        parallelism: Parallelism::with_threads(threads),
    }
}

/// Drives all scripts through one service, interleaving the tenants'
/// submissions according to `order` (a shuffled schedule of (script,
/// wave) pairs) and cutting scheduler batches every `batch_every` waves.
fn service_tables(
    scripts: &[Script],
    cfg: ClusterConfig,
    shards: usize,
    scheduler_threads: usize,
    order: &[usize],
    batch_every: usize,
) -> Vec<Vec<ScoreTable>> {
    let service = SessionService::new(
        comparator(),
        shards,
        Parallelism::with_threads(scheduler_threads),
        ServiceLimits::default(),
    );
    for s in scripts {
        service.create_session(s.tenant, s.session, s.spec(cfg)).unwrap();
    }
    let mut tables: Vec<Vec<ScoreTable>> = scripts.iter().map(|_| Vec::new()).collect();
    let mut score_seqs: Vec<Vec<u64>> = scripts.iter().map(|_| Vec::new()).collect();
    let mut next_wave: Vec<usize> = vec![0; scripts.len()];
    let mut drain = |score_seqs: &mut Vec<Vec<u64>>| {
        for response in service.run_batch() {
            let result = response.result.expect("scripted ops never fail");
            if let OpOutcome::Scored(wave) = result {
                let si = scripts
                    .iter()
                    .position(|s| s.tenant == response.key.tenant)
                    .unwrap();
                assert!(
                    score_seqs[si].contains(&response.seq),
                    "unexpected scored response"
                );
                tables[si].push(wave.table);
            }
        }
    };
    for (submitted, &si) in order.iter().enumerate() {
        let s = &scripts[si];
        let wave = &s.waves[next_wave[si]];
        next_wave[si] += 1;
        for (alg, values) in wave.iter().enumerate() {
            service
                .submit(
                    s.tenant,
                    s.session,
                    SessionOp::Extend {
                        alg,
                        values: values.clone(),
                    },
                )
                .unwrap();
        }
        let seq = service.submit(s.tenant, s.session, SessionOp::Score).unwrap();
        score_seqs[si].push(seq);
        if (submitted + 1) % batch_every == 0 {
            drain(&mut score_seqs);
        }
    }
    drain(&mut score_seqs);
    tables
}

#[test]
fn interleaved_multi_tenant_service_matches_direct_sessions() {
    let scripts = scripts(4, 3, 0xA11CE);
    let cfg = config(2);
    let reference = direct_tables(&scripts, cfg);
    // Round-robin and blocked interleavings, several shard/thread
    // combinations, batches cut at different points.
    let round_robin: Vec<usize> = (0..3).flat_map(|_| 0..scripts.len()).collect();
    let blocked: Vec<usize> = (0..scripts.len()).flat_map(|s| [s; 3]).collect();
    for order in [round_robin, blocked] {
        for (shards, threads, batch_every) in [(1, 1, 1), (4, 3, 2), (16, 0, 5), (3, 2, 100)] {
            let got = service_tables(&scripts, cfg, shards, threads, &order, batch_every);
            assert_eq!(
                got, reference,
                "shards={shards} threads={threads} batch_every={batch_every}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any shuffled interleaving of tenants' wave submissions — the
    /// service result never depends on who submitted first, how shards
    /// split the keys, how many threads drained the batch, or where the
    /// batch boundaries fell.
    #[test]
    fn any_shuffled_interleaving_is_bit_identical(
        shuffle_seed in 0u64..1_000,
        shards in 1usize..9,
        threads in 1usize..5,
        batch_every in 1usize..8,
    ) {
        let scripts = scripts(3, 2, 0xBEE);
        let cfg = config(1);
        let reference = direct_tables(&scripts, cfg);
        // A random interleaving: each script appears `waves` times, order
        // shuffled by the seed.
        let mut order: Vec<usize> = (0..scripts.len()).flat_map(|s| [s; 2]).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        order.shuffle(&mut rng);
        let got = service_tables(&scripts, cfg, shards, threads, &order, batch_every);
        prop_assert_eq!(got, reference);
    }
}

#[test]
fn shard_count_does_not_change_results() {
    let scripts = scripts(5, 2, 0xF00D);
    let cfg = config(0);
    let order: Vec<usize> = (0..2).flat_map(|_| 0..scripts.len()).collect();
    let reference = service_tables(&scripts, cfg, 1, 1, &order, 1);
    for shards in [2, 7, 64] {
        let got = service_tables(&scripts, cfg, shards, 3, &order, 3);
        assert_eq!(got, reference, "shards={shards}");
    }
    assert_eq!(reference, direct_tables(&scripts, cfg));
}

#[test]
fn batch_boundaries_do_not_change_results() {
    // All ops in one giant batch vs. one batch per op.
    let scripts = scripts(3, 3, 0xCAFE);
    let cfg = config(2);
    let order: Vec<usize> = (0..3).flat_map(|_| 0..scripts.len()).collect();
    let one_batch = service_tables(&scripts, cfg, 4, 2, &order, usize::MAX);
    let per_op = service_tables(&scripts, cfg, 4, 2, &order, 1);
    assert_eq!(one_batch, per_op);
    assert_eq!(one_batch, direct_tables(&scripts, cfg));
}
