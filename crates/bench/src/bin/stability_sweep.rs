//! E7 — Clustering stability vs the number of measurements N (the paper's
//! Sec. III discussion: with N=30 the AD/AA boundary can flip between
//! campaigns; with N=500 it is sharp).
//!
//! For each N we run several independent *measurement campaigns* (fresh
//! noise draws on the same platform), cluster each, and report
//!
//! * the mean pairwise adjusted Rand index between campaigns (1 = every
//!   campaign produces the same classes), and
//! * the spread of class counts,
//!
//! under a borderline comparator configuration (a 2.7% equivalence
//! margin, close to the AD/AA gap).

use relperf_bench::{header, SEED};
use relperf_core::cluster::{ClusterConfig, Clustering, Parallelism};
use relperf_core::similarity::adjusted_rand_index;
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
use relperf_workloads::experiment::{cluster_measurements_seeded, measure_all_seeded, Experiment};

const CAMPAIGNS: usize = 8;

fn campaign(n: usize, seed: u64) -> Clustering {
    let exp = Experiment::fig1();
    let measured = measure_all_seeded(&exp, n, seed, Parallelism::auto());
    // A borderline configuration, where the AD/AA decision genuinely
    // depends on the draw.
    let comparator = BootstrapComparator::with_config(
        seed ^ 0xBEEF,
        BootstrapConfig {
            margin: 0.027,
            ..Default::default()
        },
    );
    cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(60),
        seed,
    )
    .final_assignment()
}

fn main() {
    header("Clustering stability vs number of measurements N (two-loop code)");
    println!(
        "{:>6} {:>10} {:>14} {:>12}",
        "N", "mean ARI", "min..max ARI", "classes"
    );
    for n in [10usize, 30, 100, 500] {
        let clusterings: Vec<Clustering> =
            (0..CAMPAIGNS).map(|c| campaign(n, SEED + c as u64)).collect();
        let mut aris = Vec::new();
        for i in 0..CAMPAIGNS {
            for j in (i + 1)..CAMPAIGNS {
                aris.push(adjusted_rand_index(&clusterings[i], &clusterings[j]));
            }
        }
        let mean = aris.iter().sum::<f64>() / aris.len() as f64;
        let min = aris.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = aris.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut counts: Vec<usize> = clusterings.iter().map(|c| c.num_classes()).collect();
        counts.sort_unstable();
        println!(
            "{:>6} {:>10.3} {:>7.2}..{:<5.2} {:>4}..{}",
            n,
            mean,
            min,
            max,
            counts[0],
            counts[counts.len() - 1]
        );
    }
    println!("\nexpected: campaign agreement (ARI) rises towards 1.0 as N grows;");
    println!("at small N the borderline AD/AA boundary lands differently per campaign.");
}
