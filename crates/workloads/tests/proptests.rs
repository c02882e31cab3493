//! Property-based tests of the workload generators and the experiment
//! pipeline.

use proptest::prelude::*;
use relperf_sim::task::parse_placement;
use relperf_sim::{enumerate_placements, placement_label, Loc};
use relperf_workloads::digital_twin::MultiScaleConfig;
use relperf_core::cluster::Parallelism;
use relperf_workloads::experiment::{measure_all_seeded, Experiment};
use relperf_workloads::features::placement_features;
use relperf_workloads::{digital_twin, mathtask, scientific_code};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn placement_labels_roundtrip(n in 0usize..10) {
        for p in enumerate_placements(n, 1) {
            let label = placement_label(&p);
            prop_assert_eq!(label.len(), n);
            prop_assert_eq!(parse_placement(&label), Some(p));
        }
    }

    #[test]
    fn placement_enumeration_is_a_bijection(n in 0usize..12) {
        let all = enumerate_placements(n, 1);
        prop_assert_eq!(all.len(), 1usize << n);
        let labels: std::collections::HashSet<String> =
            all.iter().map(|p| placement_label(p)).collect();
        prop_assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn mathtask_flops_scale_with_size_and_iters(
        s1 in 1usize..100,
        s2 in 101usize..300,
        iters in 1usize..50,
    ) {
        let small = mathtask::simulated_task("a", s1, iters);
        let large = mathtask::simulated_task("b", s2, iters);
        prop_assert!(large.flops_per_iter > small.flops_per_iter);
        prop_assert!(large.working_set_bytes > small.working_set_bytes);
        prop_assert_eq!(small.total_flops(), iters as u64 * small.flops_per_iter);
    }

    #[test]
    fn features_are_finite_and_conserve_flops(iters in 1usize..20) {
        let tasks = scientific_code::tasks(iters);
        let total: f64 = tasks.iter().map(|t| t.total_flops() as f64).sum();
        for (_, placement) in scientific_code::placements() {
            let f = placement_features(&tasks, &placement);
            prop_assert!(f.iter().all(|x| x.is_finite() && *x >= 0.0));
            prop_assert!((f[0] + f[1] - total).abs() < 1e-6 * total);
            // Crossings are bounded by the number of tasks.
            prop_assert!(f[3] <= tasks.len() as f64);
            // Offloaded count matches the placement.
            let offloaded = placement.iter().filter(|l| matches!(l, Loc::Accelerator(_))).count();
            prop_assert_eq!(f[4], offloaded as f64);
        }
    }

    #[test]
    fn hierarchy_sizes_monotone(stages in 1usize..8, base in 5usize..50, growth_pct in 100u32..300) {
        let config = MultiScaleConfig {
            stages,
            base_size: base,
            growth: growth_pct as f64 / 100.0,
            iters_per_stage: 2,
        };
        let tasks = digital_twin::tasks(&config);
        prop_assert_eq!(tasks.len(), stages);
        for w in tasks.windows(2) {
            prop_assert!(w[1].flops_per_iter >= w[0].flops_per_iter);
        }
    }

    #[test]
    fn measurement_pipeline_deterministic_and_positive(seed in 0u64..200, n in 1usize..10) {
        let exp = Experiment::table1(2);
        let a = measure_all_seeded(&exp, n, seed, Parallelism::serial());
        let b = measure_all_seeded(&exp, n, seed, Parallelism::auto());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.sample.values(), y.sample.values());
            prop_assert!(x.sample.min() > 0.0);
            prop_assert_eq!(x.sample.len(), n);
        }
        // DDD has zero accelerator involvement in every draw.
        let ddd = a.iter().find(|m| m.label == "DDD").unwrap();
        prop_assert_eq!(ddd.record.accel_flops, 0);
        prop_assert_eq!(ddd.record.bytes_transferred, 0);
    }
}
