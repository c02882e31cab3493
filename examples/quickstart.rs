//! Quickstart: cluster three *real* (wall-clock-measured) equivalent
//! algorithms on this machine.
//!
//! The three algorithms are the three GEMM variants from `relperf-linalg` —
//! mathematically equivalent, different performance — measured with the
//! `relperf-measure` harness and clustered with the paper's methodology.
//!
//! Expected output: a per-variant `median = … s (cv …%)` line for naive /
//! blocked / parallel GEMM, then the performance classes
//! `C1: … (score)` … `Ck` (class structure is machine-dependent — on a
//! single-core container the "parallel" variant usually loses).
//!
//! Run with: `cargo run --release --example quickstart`

use rand::prelude::*;
use relative_performance::linalg::gemm::{gemm_blocked, gemm_naive, gemm_parallel_with};
use relative_performance::linalg::random::random_matrix;
use relative_performance::measure::timer::{measure, MeasureConfig};
use relative_performance::prelude::*;

fn main() {
    let n = 192; // big enough that the variants genuinely differ
    let mut rng = StdRng::seed_from_u64(7);
    let a = random_matrix(&mut rng, n, n);
    let b = random_matrix(&mut rng, n, n);

    println!("measuring 3 equivalent GEMM algorithms on {n}x{n} matrices…");
    let cfg = MeasureConfig {
        warmup: 2,
        repetitions: 20,
    };

    let labels = ["naive", "blocked", "parallel"];
    let samples: Vec<Sample> = vec![
        measure(cfg, || {
            std::hint::black_box(gemm_naive(&a, &b).unwrap());
        })
        .unwrap(),
        measure(cfg, || {
            std::hint::black_box(gemm_blocked(&a, &b).unwrap());
        })
        .unwrap(),
        measure(cfg, || {
            std::hint::black_box(gemm_parallel_with(&a, &b, Parallelism::auto()).unwrap());
        })
        .unwrap(),
    ];

    for (label, s) in labels.iter().zip(&samples) {
        println!(
            "  {label:<9} median = {:.4} s   (cv {:.1}%)",
            s.median(),
            100.0 * s.coeff_of_variation()
        );
    }

    // Pair-wise three-way comparison + clustering (Procedures 1–4).
    let comparator = BootstrapComparator::new(42);
    let table = relative_scores_seeded(
        samples.len(),
        ClusterConfig::with_repetitions(50),
        7,
        |stream, i, j| comparator.compare_seeded(&samples[i], &samples[j], stream),
    );
    let clustering = table.final_assignment();

    println!("\nperformance classes (1 = fastest):");
    for rank in 1..=clustering.num_classes() {
        let members: Vec<String> = clustering
            .class(rank)
            .iter()
            .map(|asn| format!("{} ({:.2})", labels[asn.algorithm], asn.score))
            .collect();
        println!("  C{rank}: {}", members.join(", "));
    }
    println!("\nequivalent algorithms share a class; pick by any secondary criterion.");
}
