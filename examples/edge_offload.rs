//! Edge-offloading scenario: which parts of a three-task scientific code
//! should move to the accelerator?
//!
//! Expected output: a mean/MFLOPs/cost line for each of the 8 placements
//! (algDDD … algAAA), the performance classes `C1: algDDA (1.00)` …, the
//! decision-model picks at several cost weights, and a short switching
//! timeline. DDA leads, the all-accelerator AAA trails.
//!
//! Reproduces the paper's Table I workflow end to end on the simulated
//! Xeon+accelerator platform: measure all 8 placements, cluster them, then
//! let the cost/speed decision model pick an algorithm under different
//! weightings.
//!
//! Run with: `cargo run --release --example edge_offload`

use relative_performance::prelude::*;

fn main() {
    let experiment = Experiment::table1(10);

    println!("measuring all 8 placements of the 3-task RLS code (N = 30)…");
    let seed = 2021;
    let measured = measure_all_seeded(&experiment, 30, seed, Parallelism::auto());
    for m in &measured {
        println!(
            "  alg{}: mean {:.5} s, device {:.1} MFLOPs, cost {:.5}",
            m.label,
            m.sample.mean(),
            m.record.device_flops as f64 / 1e6,
            m.record.operating_cost
        );
    }

    let comparator = BootstrapComparator::with_config(
        9,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    );
    let table = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(100),
        seed,
    );
    let clustering = table.final_assignment();
    println!("\nperformance classes:");
    for rank in 1..=clustering.num_classes() {
        let members: Vec<String> = clustering
            .class(rank)
            .iter()
            .map(|a| format!("alg{} ({:.2})", measured[a.algorithm].label, a.score))
            .collect();
        println!("  C{rank}: {}", members.join(", "));
    }

    let profs = profiles(&measured, &clustering);
    println!("\ndecision-model picks:");
    let speedy = CostSpeedModel {
        time_weight: 1.0,
        cost_weight: 0.05,
        confidence_weight: 0.1,
    };
    let frugal = CostSpeedModel {
        time_weight: 1.0,
        cost_weight: 10.0,
        confidence_weight: 0.1,
    };
    println!(
        "  latency-critical app  -> alg{}",
        profs[speedy.select(&profs).unwrap()].label
    );
    println!(
        "  cost-sensitive app    -> alg{}",
        profs[frugal.select(&profs).unwrap()].label
    );
    if let Some(i) = CostSpeedModel::cheapest_within_rank(&profs, 2) {
        println!("  cheapest in C1 or C2  -> alg{}", profs[i].label);
    }

    // Where does the winner spend its time? (D = device compute,
    // A = accelerator compute, ~ = link)
    let best = clustering.class(1)[0].algorithm;
    println!("\ntimeline of alg{}:", measured[best].label);
    println!(
        "{}",
        relative_performance::sim::trace::render_gantt(&measured[best].record, 60)
    );
}
