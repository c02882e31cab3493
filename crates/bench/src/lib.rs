//! Shared harness code for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one paper artifact (the
//! top-level ARCHITECTURE.md lists which binary produces which figure or
//! table); the helpers here keep their output formats consistent so the
//! outputs can be quoted directly.

#![warn(missing_docs)]

use rand::prelude::*;
use relperf_core::cluster::{ClusterConfig, Parallelism, ScoreTable};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
use relperf_workloads::experiment::{
    cluster_measurements, cluster_measurements_seeded, measure_all, measure_all_seeded,
    Experiment, MeasuredAlgorithm,
};
use std::time::Instant;

/// Standard seed for all experiment binaries — every number in
/// EXPERIMENTS.md is reproducible from this.
pub const SEED: u64 = 1234;

/// The comparator configuration used by the experiment binaries: 30
/// bootstrap rounds keeps borderline pairs visibly stochastic, matching the
/// paper's N=30 discussion.
pub fn paper_comparator(seed: u64) -> BootstrapComparator {
    BootstrapComparator::with_config(
        seed,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    )
}

/// Measures an experiment and clusters it with the standard pipeline.
/// Returns the measurements and the relative-score table.
pub fn run_pipeline(
    exp: &Experiment,
    n_measurements: usize,
    repetitions: usize,
    seed: u64,
) -> (Vec<MeasuredAlgorithm>, ScoreTable) {
    let mut rng = StdRng::seed_from_u64(seed);
    let measured = measure_all(exp, n_measurements, &mut rng);
    let comparator = paper_comparator(seed ^ 0xC0FF_EE);
    let table = cluster_measurements(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(repetitions),
        &mut rng,
    );
    (measured, table)
}

/// [`run_pipeline`] on the parallel engine: measurement fans out across
/// placements and the clustering repetitions across threads
/// (`measure_all_seeded` + `cluster_measurements_seeded`). The result is
/// bit-identical for any thread count, but *not* to [`run_pipeline`],
/// whose legacy path threads a single RNG through all stages.
pub fn run_pipeline_seeded(
    exp: &Experiment,
    n_measurements: usize,
    repetitions: usize,
    seed: u64,
    parallelism: Parallelism,
) -> (Vec<MeasuredAlgorithm>, ScoreTable) {
    let measured = measure_all_seeded(exp, n_measurements, seed, parallelism);
    let comparator = paper_comparator(seed ^ 0xC0FF_EE);
    let table = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig {
            repetitions,
            parallelism,
        },
        seed ^ 0xC1_05_7E,
    );
    (measured, table)
}

/// Median wall time of `runs` executions of `f` after one warmup run, in
/// seconds — the timer of the `bench_*` binaries.
pub fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    f();
    median((0..runs).map(|_| time(&mut f)).collect())
}

/// Median wall times of `runs` **interleaved** executions of `before` and
/// `after` after one warmup run each, in seconds. Alternating the two
/// sides inside one loop keeps machine drift (shared-host load, frequency
/// scaling) from landing on only one of them.
pub fn median_pair(runs: usize, mut before: impl FnMut(), mut after: impl FnMut()) -> (f64, f64) {
    before();
    after();
    let (tb, ta): (Vec<f64>, Vec<f64>) =
        (0..runs).map(|_| (time(&mut before), time(&mut after))).unzip();
    (median(tb), median(ta))
}

fn time(f: &mut impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Prints a section header in the shared format.
pub fn header(title: &str) {
    println!("==================================================================");
    println!("{title}");
    println!("==================================================================");
}

/// Prints the per-algorithm mean/sd summary table.
pub fn print_summary(measured: &[MeasuredAlgorithm]) {
    println!(
        "{:<6} {:>12} {:>12} {:>8} {:>14} {:>12}",
        "alg", "mean [s]", "sd [s]", "cv [%]", "device MFLOPs", "cost"
    );
    for m in measured {
        println!(
            "{:<6} {:>12.6} {:>12.6} {:>8.2} {:>14.2} {:>12.5}",
            m.label,
            m.sample.mean(),
            m.sample.std_dev(),
            100.0 * m.sample.coeff_of_variation(),
            m.record.device_flops as f64 / 1e6,
            m.record.operating_cost,
        );
    }
}

/// Prints the relative-score clusters in the paper's Table I layout.
pub fn print_clusters(table: &ScoreTable, measured: &[MeasuredAlgorithm]) {
    println!("\nCluster  Algorithm  Relative Score");
    for (i, cluster) in table.clusters().iter().enumerate() {
        let mut first = true;
        for &(alg, score) in cluster {
            println!(
                "{:<8} alg{:<7} {:.2}",
                if first { format!("C{}", i + 1) } else { String::new() },
                measured[alg].label,
                score
            );
            first = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_smoke_test() {
        let exp = Experiment::table1(2);
        let (measured, table) = run_pipeline(&exp, 10, 10, SEED);
        assert_eq!(measured.len(), 8);
        assert_eq!(table.num_algorithms(), 8);
        print_summary(&measured);
        print_clusters(&table, &measured);
    }

    #[test]
    fn pipeline_is_reproducible() {
        let exp = Experiment::fig1();
        let (_, t1) = run_pipeline(&exp, 10, 5, 7);
        let (_, t2) = run_pipeline(&exp, 10, 5, 7);
        assert_eq!(t1, t2);
    }
}
