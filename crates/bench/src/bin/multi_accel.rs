//! E9 (extension) — the paper's "Device-Accelerator(s)" plural: the
//! three-task scientific code on a platform with TWO accelerators (a fast
//! expensive GPU `A` and a slow cheap Raspberry-Pi-class board `B`),
//! clustering all 3^3 = 27 placements.
//!
//! The interesting structure: compute-heavy tasks want `A`, nothing wants
//! `B` for speed — but `B` placements dominate the *cheap* end of each
//! class, which is exactly the multi-criteria selection the clusters
//! enable.

use rand::prelude::*;
use relperf_bench::{header, paper_comparator, SEED};
use relperf_core::cluster::{relative_scores_seeded, ClusterConfig};
use relperf_measure::{stream_seed, Sample, SeededThreeWayComparator};
use relperf_sim::device::{DeviceKind, DeviceSpec};
use relperf_sim::link::LinkSpec;
use relperf_sim::noise::NoiseModel;
use relperf_sim::{enumerate_placements, placement_label, AcceleratorSlot, Platform};
use relperf_workloads::scientific_code;

/// The Table I platform plus a Raspberry-Pi-class board as accelerator `B`.
fn platform() -> Platform {
    let mut p = relperf_sim::presets::table1_platform();
    p.accelerators.push(AcceleratorSlot {
        spec: DeviceSpec {
            name: "raspberry-pi-4".into(),
            kind: DeviceKind::RaspberryPi,
            peak_flops: 5.0e9,
            mem_capacity_bytes: 512 << 20,
            mem_pressure_penalty: 1.0,
            energy_per_flop: 0.15e-9,
            idle_power_watts: 2.5,
            cost_per_second: 1.0e-3,
            launch_overhead_s: 5.0e-5,
        },
        link: LinkSpec {
            name: "gigabit-ethernet".into(),
            latency_s: 2.0e-4,
            bandwidth_bytes_per_s: 1.2e8,
            energy_per_byte: 6.0e-9,
        },
        noise: NoiseModel::Gaussian { std_frac: 0.03 },
        transfer_noise: NoiseModel::LogNormal { sigma: 0.1 },
    });
    p.validate();
    p
}

fn main() {
    header("Two accelerators (A = GPU, B = Raspberry Pi): 27 placements of the RLS code");
    let platform = platform();
    let tasks = scientific_code::tasks(10);
    let placements = enumerate_placements(tasks.len(), platform.accelerators.len());

    let samples: Vec<(String, Sample)> = placements
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let label = placement_label(p);
            let mut rng = StdRng::seed_from_u64(stream_seed(SEED, i as u64));
            let sample = platform
                .measure(&tasks, p, 30, &mut rng)
                .expect("finite simulated times");
            (label, sample)
        })
        .collect();

    println!("{:<6} {:>12} {:>12}", "alg", "mean [s]", "cost");
    let mut costs = Vec::new();
    for (p, (label, sample)) in placements.iter().zip(&samples) {
        let rec = platform.execute(&tasks, p, &mut StdRng::seed_from_u64(1));
        costs.push(rec.operating_cost);
        println!("{:<6} {:>12.5} {:>12.6}", label, sample.mean(), rec.operating_cost);
    }

    let comparator = paper_comparator(SEED ^ 0x51);
    let table = relative_scores_seeded(
        samples.len(),
        ClusterConfig::with_repetitions(40),
        SEED,
        |stream, a, b| comparator.compare_seeded(&samples[a].1, &samples[b].1, stream),
    );
    let clustering = table.final_assignment();
    println!("\nperformance classes ({} total):", clustering.num_classes());
    for rank in 1..=clustering.num_classes() {
        let members: Vec<String> = clustering
            .class(rank)
            .iter()
            .map(|a| samples[a.algorithm].0.clone())
            .collect();
        println!("  C{rank}: {}", members.join(" "));
    }

    // Cheapest algorithm inside the best two classes — the multi-criteria
    // selection the clusters exist for.
    let mut best_cheap: Option<(usize, f64)> = None;
    for (i, a) in clustering.assignments().iter().enumerate() {
        if a.rank <= 2 {
            let c = costs[i];
            if best_cheap.is_none() || c < best_cheap.unwrap().1 {
                best_cheap = Some((i, c));
            }
        }
    }
    if let Some((i, c)) = best_cheap {
        println!(
            "\ncheapest placement within the two best classes: {} (cost {:.6})",
            samples[i].0, c
        );
    }
}
