//! Machine-readable before/after benchmark of the bootstrap comparison
//! engine: times the sort-based **reference oracle** (the pre-fast-path
//! implementation, kept in-tree as
//! `BootstrapComparator::compare_seeded_reference`) against the
//! allocation-free count-based fast path on the same machine and build,
//! and writes the medians to `BENCH_comparator.json`.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_comparator
//! ```

use rand::prelude::*;
use relperf_bench::median_secs;
use relperf_core::cluster::{relative_scores_seeded, ClusterConfig, Parallelism};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig, Scratch};
use relperf_measure::{Sample, ScratchThreeWayComparator};
use relperf_workloads::experiment::{cluster_measurements_seeded, measure_all_seeded, Experiment};
use std::hint::black_box;

fn noisy_sample(center: f64, n: usize, seed: u64) -> Sample {
    let mut rng = StdRng::seed_from_u64(seed);
    Sample::new(
        (0..n)
            .map(|_| center * (1.0 + 0.05 * rng.random_range(-1.0..1.0)))
            .collect(),
    )
    .unwrap()
}

struct Entry {
    name: String,
    before_s: f64,
    after_s: f64,
}

fn main() {
    let mut entries: Vec<Entry> = Vec::new();

    // Single-comparison cost at the borderline the clustering engine
    // lives on (5% gap, N-sized samples, stream-addressed comparisons).
    for &(n, reps) in &[(30usize, 30usize), (30, 100), (100, 100), (500, 100)] {
        let a = noisy_sample(1.00, n, 4);
        let b = noisy_sample(1.05, n, 5);
        let cmp = BootstrapComparator::with_config(
            6,
            BootstrapConfig {
                reps,
                ..Default::default()
            },
        );
        let streams = 64u64;
        let before_s = median_secs(9, || {
            for s in 0..streams {
                black_box(cmp.compare_seeded_reference(&a, &b, s));
            }
        }) / streams as f64;
        let mut scratch = Scratch::new();
        let after_s = median_secs(9, || {
            for s in 0..streams {
                black_box(cmp.compare_seeded_scratch(&mut scratch, &a, &b, s));
            }
        }) / streams as f64;
        entries.push(Entry {
            name: format!("compare/n{n}_reps{reps}"),
            before_s,
            after_s,
        });
    }

    // End to end: the Table I pipeline's clustering stage (measurements
    // are shared; the comparator dominates). Before = same engine with
    // every comparison answered by the reference oracle.
    let exp = Experiment::table1(2);
    let measured = measure_all_seeded(&exp, 30, 31, Parallelism::serial());
    let comparator = BootstrapComparator::with_config(
        7,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    );
    let config = ClusterConfig {
        repetitions: 40,
        parallelism: Parallelism::serial(),
    };
    let before_s = median_secs(9, || {
        black_box(relative_scores_seeded(
            measured.len(),
            config,
            3,
            |stream, x, y| {
                comparator.compare_seeded_reference(&measured[x].sample, &measured[y].sample, stream)
            },
        ));
    });
    let after_s = median_secs(9, || {
        black_box(cluster_measurements_seeded(&measured, &comparator, config, 3));
    });
    entries.push(Entry {
        name: "end_to_end/table1_cluster_rep40".to_string(),
        before_s,
        after_s,
    });

    // Render: human table to stdout, machine-readable JSON to disk.
    println!("{:<34} {:>12} {:>12} {:>8}", "benchmark", "before", "after", "speedup");
    let mut json = String::from("{\n  \"bench\": \"comparator\",\n  \"units\": \"seconds\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let speedup = e.before_s / e.after_s;
        println!(
            "{:<34} {:>9.2} µs {:>9.2} µs {:>7.2}x",
            e.name,
            e.before_s * 1e6,
            e.after_s * 1e6,
            speedup
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"before_median_s\": {:.3e}, \"after_median_s\": {:.3e}, \"speedup\": {:.2}}}{}\n",
            e.name,
            e.before_s,
            e.after_s,
            speedup,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_comparator.json", &json).expect("write BENCH_comparator.json");
    println!("\nwrote BENCH_comparator.json");
}
