//! Ranking equivalent algorithms across *different* platforms: the same
//! two-loop scientific code on the paper's CPU+GPU pair, a CPU+Raspberry-Pi
//! pair, and a smartphone+cloudlet pair. The clusters are specific to the
//! architecture — exactly the paper's point that "the subsets Cᵢ are
//! specific to a given computing architecture".
//!
//! Expected output: three platform blocks (`── edge CPU + GPU … ──`), each
//! with the four placement means and its own `C1:`/`C2:`/… clustering —
//! the class of a given placement changes from platform to platform.
//!
//! Run with: `cargo run --release --example algorithm_ranking`

use relative_performance::prelude::*;
use relative_performance::workloads::two_loop;

fn rank_on(platform: Platform, name: &str, seed: u64) {
    let experiment = Experiment {
        platform,
        tasks: two_loop::tasks(),
        placements: two_loop::placements(),
    };
    let measured = measure_all_seeded(&experiment, 50, seed, Parallelism::auto());
    let comparator = BootstrapComparator::new(11);
    let table = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(50),
        seed,
    );
    let clustering = table.final_assignment();

    println!("── {name} ──");
    for m in &measured {
        println!("  alg{}: mean {:.4} s", m.label, m.sample.mean());
    }
    for rank in 1..=clustering.num_classes() {
        let members: Vec<String> = clustering
            .class(rank)
            .iter()
            .map(|a| format!("alg{} ({:.2})", measured[a.algorithm].label, a.score))
            .collect();
        println!("  C{rank}: {}", members.join(", "));
    }
    println!();
}

fn main() {
    println!("same code, same four algorithms, three platforms:\n");
    rank_on(presets::fig1_platform(), "edge CPU + GPU accelerator", 2468);
    rank_on(presets::raspberry_platform(), "edge CPU + Raspberry Pi", 2469);
    rank_on(
        presets::smartphone_platform(),
        "smartphone + cloudlet GPU over Wi-Fi",
        2470,
    );
    println!("the best split is architecture-specific — measurements cannot be reused.");
}
