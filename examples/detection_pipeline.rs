//! Hierarchical object detection on the edge (the paper's second
//! motivating application): preprocessing + low-fidelity detector +
//! high-fidelity correction, each placeable on the device or the
//! accelerator. Clusters the 8 splits and shows where the winning split
//! spends its time.
//!
//! Expected output: the per-stage MFLOP/offload table, per-placement batch
//! latencies (DDD … AAA), the performance classes with relative scores,
//! and the hi-fi correction lag of each split — placements offloading the
//! hi-fi stage (..A) dominate C1.
//!
//! Run with: `cargo run --release --example detection_pipeline`

use relative_performance::prelude::*;
use relative_performance::sim::trace::render_gantt;
use relative_performance::workloads::object_detection::{self, DetectionConfig};

fn main() {
    let config = DetectionConfig::default();
    let tasks = object_detection::tasks(&config);
    println!(
        "detection pipeline: {}px frames, {} per batch; stages:",
        config.frame_px, config.frames_per_batch
    );
    for t in &tasks {
        println!(
            "  {:<5} {:>8.1} MFLOP/frame, {:>8.1} KB offload/frame",
            t.name,
            t.flops_per_iter as f64 / 1e6,
            t.offload_bytes_per_iter as f64 / 1e3
        );
    }

    let experiment = Experiment {
        platform: presets::fig1_platform(),
        tasks,
        placements: object_detection::placements(),
    };
    let seed = 777;
    let measured = measure_all_seeded(&experiment, 40, seed, Parallelism::auto());

    let comparator = BootstrapComparator::new(13);
    let table = cluster_measurements_seeded(
        &measured,
        &comparator,
        ClusterConfig::with_repetitions(60),
        seed,
    );
    let clustering = table.final_assignment();

    println!("\nper-placement batch latency:");
    for m in &measured {
        println!("  {}: {:.4} s", m.label, m.sample.mean());
    }
    println!("\nperformance classes:");
    for rank in 1..=clustering.num_classes() {
        let members: Vec<String> = clustering
            .class(rank)
            .iter()
            .map(|a| format!("{} ({:.2})", measured[a.algorithm].label, a.score))
            .collect();
        println!("  C{rank}: {}", members.join(", "));
    }

    let best = clustering.class(1)[0].algorithm;
    println!(
        "\nwinning split {} — timeline (D device, A accelerator, ~ link):",
        measured[best].label
    );
    println!("{}", render_gantt(&measured[best].record, 60));

    // The latency-lag story from the paper: the hi-fi correction runs
    // "in the background … but with a lag" — report each split's lag
    // contribution (time of the hifi stage).
    println!("hi-fi correction lag per split:");
    for m in &measured {
        let hifi = m.record.per_task.last().expect("three stages");
        println!("  {}: {:.4} s on {}", m.label, hifi.time_s, hifi.loc);
    }
}
