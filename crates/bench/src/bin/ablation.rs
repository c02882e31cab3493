//! A1 — Ablation study of three design choices of the pipeline:
//!
//! 1. comparator family (bootstrap quantile-dominance vs Mann–Whitney vs
//!    median vs mean-CI) on the same measured data,
//! 2. the bootstrap margin δ (equivalence resolution), and
//! 3. the number of clustering repetitions `Rep` (score convergence).
//!
//! Reported as class counts and Rand similarity against the default
//! pipeline, for both paper experiments.

use relperf_bench::{header, SEED};
use relperf_core::cluster::{relative_scores_seeded, ClusterConfig, Clustering, Parallelism};
use relperf_core::similarity::rand_index;
use relperf_measure::compare::{
    BootstrapComparator, BootstrapConfig, MeanCiComparator, MedianComparator,
};
use relperf_measure::ranksum::MannWhitneyComparator;
use relperf_measure::SeededThreeWayComparator;
use relperf_workloads::experiment::{measure_all_seeded, Experiment, MeasuredAlgorithm};

fn cluster(
    measured: &[MeasuredAlgorithm],
    cmp: &(dyn SeededThreeWayComparator + Sync),
    rep: usize,
    seed: u64,
) -> Clustering {
    relative_scores_seeded(measured.len(), ClusterConfig::with_repetitions(rep), seed, |s, a, b| {
        cmp.compare_seeded(&measured[a].sample, &measured[b].sample, s)
    })
    .final_assignment()
}

fn describe(c: &Clustering, measured: &[MeasuredAlgorithm]) -> String {
    (1..=c.num_classes())
        .map(|r| {
            let members: Vec<&str> = c
                .class(r)
                .iter()
                .map(|a| measured[a.algorithm].label.as_str())
                .collect();
            format!("{{{}}}", members.join(","))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn main() {
    for (name, exp, n) in [
        ("fig1 (N=500)", Experiment::fig1(), 500usize),
        ("table1 (N=30)", Experiment::table1(10), 30),
    ] {
        header(&format!("Ablations on {name}"));
        let measured = measure_all_seeded(&exp, n, SEED, Parallelism::auto());
        let reference = cluster(&measured, &BootstrapComparator::new(SEED), 100, 1);
        println!("reference (bootstrap, Rep=100): {}", describe(&reference, &measured));

        println!("\n-- comparator family --");
        let comparators: Vec<(&str, Box<dyn SeededThreeWayComparator + Sync>)> = vec![
            (
                "mann-whitney",
                Box::new(MannWhitneyComparator {
                    alpha: 0.05,
                    min_effect: 0.02,
                }),
            ),
            ("median(2%)", Box::new(MedianComparator::new(0.02))),
            ("mean-ci", Box::new(MeanCiComparator::new(SEED))),
        ];
        for (label, cmp) in &comparators {
            let c = cluster(&measured, cmp.as_ref(), 100, 1);
            println!(
                "{label:<14} classes={} rand-vs-ref={:.2}  {}",
                c.num_classes(),
                rand_index(&reference, &c),
                describe(&c, &measured)
            );
        }

        println!("\n-- bootstrap margin δ --");
        for margin in [0.005, 0.01, 0.02, 0.05, 0.10] {
            let cmp = BootstrapComparator::with_config(
                SEED,
                BootstrapConfig {
                    margin,
                    ..Default::default()
                },
            );
            let c = cluster(&measured, &cmp, 100, 1);
            println!(
                "δ = {margin:<5} classes={} rand-vs-ref={:.2}  {}",
                c.num_classes(),
                rand_index(&reference, &c),
                describe(&c, &measured)
            );
        }

        println!("\n-- clustering repetitions Rep --");
        for rep in [5usize, 20, 100, 400] {
            let c = cluster(&measured, &BootstrapComparator::new(SEED), rep, 1);
            println!(
                "Rep = {rep:<4} classes={} rand-vs-ref={:.2}",
                c.num_classes(),
                rand_index(&reference, &c)
            );
        }
        println!();
    }
}
