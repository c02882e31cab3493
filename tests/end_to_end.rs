//! End-to-end integration tests of the full pipeline through the facade
//! crate: simulate → measure → compare → sort → cluster → decide.

use rand::prelude::*;
use relative_performance::prelude::*;

#[test]
fn paper_pipeline_fig1() {
    let experiment = Experiment::fig1();
    let seed = 1;
    let measured = measure_all_seeded(&experiment, 100, seed, Parallelism::auto());
    assert_eq!(measured.len(), 4);

    let comparator = BootstrapComparator::new(2);
    let table = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(50),
        seed,
    );
    let clustering = table.final_assignment();

    // AD is the best class; DD and DA share a class.
    let idx = |l: &str| measured.iter().position(|m| m.label == l).unwrap();
    assert_eq!(clustering.assignment(idx("AD")).rank, 1);
    assert_eq!(
        clustering.assignment(idx("DD")).rank,
        clustering.assignment(idx("DA")).rank
    );
    assert!(clustering.assignment(idx("AA")).rank < clustering.assignment(idx("DD")).rank);
}

#[test]
fn paper_pipeline_table1_with_decisions() {
    let experiment = Experiment::table1(10);
    let seed = 3;
    let measured = measure_all_seeded(&experiment, 30, seed, Parallelism::auto());
    let comparator = BootstrapComparator::new(4);
    let table = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(60),
        seed,
    );
    let clustering = table.final_assignment();
    let profs = profiles(&measured, &clustering);

    // DDA leads; a frugal decision model must still choose the free DDD.
    let dda = profs.iter().find(|p| p.label == "DDA").unwrap();
    assert_eq!(dda.rank, 1);
    let frugal = CostSpeedModel {
        time_weight: 1.0,
        cost_weight: 50.0,
        confidence_weight: 0.0,
    };
    let pick = &profs[frugal.select(&profs).unwrap()];
    assert_eq!(pick.label, "DDD");
    assert_eq!(pick.operating_cost, 0.0);

    // The energy controller must cycle between DDD and DAA.
    let high = profs.iter().find(|p| p.label == "DDD").unwrap();
    let low = profs.iter().find(|p| p.label == "DAA").unwrap();
    // DAA cuts device FLOPs by >10x; device *energy* falls less because
    // the device still draws idle power while the accelerator computes.
    assert!(low.device_flops < high.device_flops / 10);
    assert!(low.device_energy_j < 0.8 * high.device_energy_j);
    let ctrl = EnergyBudgetController {
        high_watermark_j: 4.0 * high.device_energy_j,
        low_watermark_j: 1.5 * high.device_energy_j,
        dissipation_j: 0.5 * high.device_energy_j,
    };
    let trace = ctrl.simulate(high, low, 60);
    assert!(trace.iter().any(|s| s.mode == Mode::LowEnergy));
    assert!(trace.iter().filter(|s| s.switched).count() >= 2);
}

#[test]
fn sort_trace_matches_paper_walkthrough() {
    // The Fig. 2 walkthrough through the facade's sort API.
    use relative_performance::core::sort::{sort_with_trace, SortState};
    let class = |x: usize| match x {
        3 => 0,
        1 => 1,
        _ => 2,
    };
    let cmp = |a: usize, b: usize| match class(a).cmp(&class(b)) {
        std::cmp::Ordering::Less => Outcome::Better,
        std::cmp::Ordering::Greater => Outcome::Worse,
        std::cmp::Ordering::Equal => Outcome::Equivalent,
    };
    let (final_state, steps) = sort_with_trace(SortState::initial(4), cmp);
    assert_eq!(final_state.sequence, vec![3, 1, 0, 2]);
    assert_eq!(final_state.ranks, vec![1, 2, 3, 3]);
    assert_eq!(steps.len(), 6);
}

#[test]
fn clustering_survives_measurement_replacement() {
    // Re-measuring (fresh noise, same platform) must preserve the final
    // clustering structure at N=500 — the stability the paper attributes
    // to large N.
    use relative_performance::core::similarity::adjusted_rand_index;
    let experiment = Experiment::fig1();
    let comparator = BootstrapComparator::new(5);

    let run = |seed: u64| {
        let measured = measure_all_seeded(&experiment, 500, seed, Parallelism::auto());
        cluster_measurements_seeded(
            &measured,
            &comparator,
            ClusterConfig::with_repetitions(30),
            seed,
        )
        .final_assignment()
    };
    let c1 = run(10);
    let c2 = run(20);
    let ari = adjusted_rand_index(&c1, &c2);
    assert!(ari > 0.99, "N=500 clusterings should match across campaigns, ARI = {ari}");
}

#[test]
fn triplets_from_paper_clusters_feed_model_training() {
    use relative_performance::core::triplet::{enumerate_triplets, sample_triplets};
    let experiment = Experiment::table1(10);
    let seed = 6;
    let measured = measure_all_seeded(&experiment, 30, seed, Parallelism::auto());
    let comparator = BootstrapComparator::new(7);
    let clustering = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(50),
        seed,
    )
    .final_assignment();

    // Table I has multi-member classes, so triplets must exist.
    let all = enumerate_triplets(&clustering);
    assert!(!all.is_empty(), "expected triplets from the Table I clustering");
    let sampled = sample_triplets(&clustering, 16, &mut StdRng::seed_from_u64(seed)).unwrap();
    assert_eq!(sampled.len(), 16);
    for t in sampled {
        assert!(clustering.assignment(t.negative).rank > clustering.assignment(t.anchor).rank);
    }
}

#[test]
fn simulated_flops_match_linalg_accounting() {
    // The simulator's task descriptions carry exactly the FLOPs that the
    // real kernels would execute (per the flops module), keeping the
    // energy model honest.
    use relative_performance::linalg::flops;
    let experiment = Experiment::table1(7);
    let ddd = &experiment.placements[0].1;
    let rec = experiment.platform.execute_noiseless(&experiment.tasks, ddd);
    let expected: u64 = [50usize, 75, 300]
        .iter()
        .map(|&s| flops::rls_task(s, 7))
        .sum();
    assert_eq!(rec.device_flops, expected);
    assert_eq!(rec.accel_flops, 0);
}
