//! Calibration tests: the simulated platforms must reproduce the paper's
//! qualitative results (cluster structure, not absolute times).
//!
//! These are the guardrails for `relperf-sim::presets` — if a preset
//! constant changes, these tests tell you which paper artifact broke.

use relperf_core::cluster::{ClusterConfig, Parallelism};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
use relperf_workloads::experiment::{cluster_measurements_seeded, measure_all_seeded, Experiment};

fn comparator() -> BootstrapComparator {
    BootstrapComparator::with_config(
        9,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    )
}

/// Fig. 1b at N=500: AD significantly best, AA second, DD ≈ DA worst.
#[test]
fn fig1_cluster_structure_at_n500() {
    let e = Experiment::fig1();
    let seed = 1;
    let measured = measure_all_seeded(&e, 500, seed, Parallelism::auto());
    let label = |i: usize| measured[i].label.as_str();

    // Mean ordering first: AD < AA < DD < DA (paper Fig. 1b shapes).
    let mean_of = |l: &str| {
        measured
            .iter()
            .find(|m| m.label == l)
            .map(|m| m.sample.mean())
            .unwrap()
    };
    assert!(mean_of("AD") < mean_of("AA"));
    assert!(mean_of("AA") < mean_of("DD"));
    // DD and DA within 2.5% of each other.
    assert!((mean_of("DA") - mean_of("DD")).abs() / mean_of("DD") < 0.025);

    let table = cluster_measurements_seeded(
        &measured,
        &comparator(),
        ClusterConfig::with_repetitions(50),
        seed,
    );
    let clustering = table.final_assignment();
    let rank_of = |l: &str| {
        (0..4)
            .find(|&i| label(i) == l)
            .map(|i| clustering.assignment(i).rank)
            .unwrap()
    };
    assert_eq!(rank_of("AD"), 1, "AD must be the sole top class");
    assert_eq!(rank_of("AA"), 2, "AA must be the second class");
    assert_eq!(
        rank_of("DD"),
        rank_of("DA"),
        "DD and DA must share a class (the paper's equivalent pair)"
    );
    assert!(rank_of("DD") > rank_of("AA"));
}

/// Table I at N=30: DDA best, DAA straddling C1/C2, DDD second, AAD/AAA at
/// the bottom, five-ish classes, and the ~1.05 end-to-end speed-up of DDA
/// over DDD.
#[test]
fn table1_cluster_structure_at_n30() {
    let e = Experiment::table1(10);
    // Whether DAA straddles C1/C2 depends on the concrete N=30 measurement
    // draw; this seed yields a genuinely borderline DAA sample (≈0.5/0.5
    // over five classes, the paper reports 0.6/0.4) under the workspace
    // StdRng streams.
    let seed = 74;
    let measured = measure_all_seeded(&e, 30, seed, Parallelism::auto());
    let idx = |l: &str| measured.iter().position(|m| m.label == l).unwrap();

    // The paper's headline speed-up: mean(DDD)/mean(DDA) ≈ 1.05.
    let speedup = measured[idx("DDD")].sample.mean() / measured[idx("DDA")].sample.mean();
    assert!(
        (1.03..1.09).contains(&speedup),
        "DDA speed-up over DDD drifted: {speedup}"
    );

    let table = cluster_measurements_seeded(
        &measured,
        &comparator(),
        ClusterConfig::with_repetitions(100),
        seed,
    );

    // DDA always lands in the best class.
    assert!(
        table.score(idx("DDA"), 1) > 0.95,
        "DDA must anchor C1, score {}",
        table.score(idx("DDA"), 1)
    );
    // DAA straddles C1 and C2 (paper: 0.6 / 0.4).
    let daa1 = table.score(idx("DAA"), 1);
    let daa2 = table.score(idx("DAA"), 2);
    assert!(daa1 > 0.05, "DAA must sometimes join C1 (got {daa1})");
    assert!(daa2 > 0.05, "DAA must sometimes fall to C2 (got {daa2})");

    let clustering = table.final_assignment();
    let rank = |l: &str| clustering.assignment(idx(l)).rank;

    // Final classes: DDA top; DDD strictly better than the L1-offloading
    // placements; AAD and AAA at the bottom.
    assert_eq!(rank("DDA"), 1);
    assert!(rank("DDD") < rank("ADA"));
    assert!(rank("DDD") < rank("ADD"));
    let worst = clustering.num_classes();
    assert!(
        rank("AAA") == worst || rank("AAD") == worst,
        "the bottom class must hold AAA or AAD"
    );
    assert!(rank("AAA") >= rank("ADA"));
    assert!(rank("AAD") >= rank("ADA"));
    // The paper reports five classes; allow a small band around that.
    assert!(
        (4..=6).contains(&clustering.num_classes()),
        "expected ~5 classes, got {}",
        clustering.num_classes()
    );
}

/// The decision-model inputs of Sec. IV: DDD does everything on the device
/// (zero operating cost), DAA offloads most FLOPs (the energy fallback),
/// DDA buys the speed-up with accelerator cost.
#[test]
fn table1_profiles_support_decision_models() {
    let e = Experiment::table1(10);
    let measured = measure_all_seeded(&e, 30, 2, Parallelism::auto());
    let idx = |l: &str| measured.iter().position(|m| m.label == l).unwrap();

    let ddd = &measured[idx("DDD")].record;
    let daa = &measured[idx("DAA")].record;
    let dda = &measured[idx("DDA")].record;

    assert_eq!(ddd.operating_cost, 0.0);
    assert!(dda.operating_cost > 0.0);
    // DAA moves the bulk of the FLOPs off the device.
    assert!(daa.device_flops < ddd.device_flops / 10);
    assert!(daa.energy.device_j < ddd.energy.device_j);
}

/// Growing `n` must grow the DDA-over-DDD speed-up (paper: "when n becomes
/// larger, the speed up increases"). Below the crossover (~n=12 on this
/// platform) offloading L3 does not pay at all — the per-boundary context
/// switch still dominates the accumulated per-iteration gain.
#[test]
fn speedup_grows_with_n() {
    let mut last = 0.0;
    let mut final_speedup = 0.0;
    for n in [5usize, 20, 80] {
        let e = Experiment::table1(n);
        let ddd = e
            .platform
            .execute_noiseless(&e.tasks, &e.placements[0].1)
            .total_time_s;
        let dda_placement = &e
            .placements
            .iter()
            .find(|(l, _)| l == "DDA")
            .unwrap()
            .1;
        let dda = e
            .platform
            .execute_noiseless(&e.tasks, dda_placement)
            .total_time_s;
        let speedup = ddd / dda;
        assert!(
            speedup > last,
            "speed-up must grow with n: n={n} gave {speedup} after {last}"
        );
        last = speedup;
        final_speedup = speedup;
    }
    assert!(
        final_speedup > 1.04,
        "offloading L3 must clearly pay at n=80, got {final_speedup}"
    );
}
