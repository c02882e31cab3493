//! Feature extraction for execution-less performance prediction.
//!
//! Turns a (tasks, placement) pair into the numeric feature vector that
//! `relperf-core::predict` consumes — computed purely from static
//! accounting (FLOPs, bytes, crossings), never from measurements, so a
//! trained model can rank placements *without executing them* (the
//! paper's future-work loop).

use relperf_core::predict::LabelledExample;
use relperf_sim::{Loc, Task};

/// Number of features produced by [`placement_features`].
pub const NUM_FEATURES: usize = 6;

/// Static features of a placement:
/// `[device_flops, accel_flops, offload_bytes, crossings, offloaded_tasks,
///   max_offloaded_working_set]`.
pub fn placement_features(tasks: &[Task], placement: &[Loc]) -> Vec<f64> {
    assert_eq!(tasks.len(), placement.len(), "placement must cover every task");
    let mut device_flops = 0.0;
    let mut accel_flops = 0.0;
    let mut bytes = 0.0;
    let mut offloaded = 0.0;
    let mut max_ws = 0.0_f64;
    let mut crossings = 0usize;
    let mut prev = Loc::Device;
    for (task, &loc) in tasks.iter().zip(placement) {
        if loc != prev {
            crossings += 1;
        }
        match loc {
            Loc::Device => device_flops += task.total_flops() as f64,
            Loc::Accelerator(_) => {
                accel_flops += task.total_flops() as f64;
                bytes += task.total_offload_bytes() as f64;
                offloaded += 1.0;
                max_ws = max_ws.max(task.working_set_bytes as f64);
            }
        }
        prev = loc;
    }
    vec![
        device_flops,
        accel_flops,
        bytes,
        crossings as f64,
        offloaded,
        max_ws,
    ]
}

/// Builds a labelled training set from measured algorithms and their final
/// clustering (classes become labels).
pub fn training_set(
    tasks: &[Task],
    measured: &[crate::experiment::MeasuredAlgorithm],
    clustering: &relperf_core::cluster::Clustering,
) -> Vec<LabelledExample> {
    measured
        .iter()
        .enumerate()
        .map(|(i, m)| LabelledExample {
            features: placement_features(tasks, &m.placement),
            class: clustering.assignment(i).rank,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scientific_code;

    #[test]
    fn feature_vector_shape_and_content() {
        let tasks = scientific_code::tasks(10);
        let ddd: Vec<Loc> = vec![Loc::Device; 3];
        let f = placement_features(&tasks, &ddd);
        assert_eq!(f.len(), NUM_FEATURES);
        assert!(f[0] > 0.0); // device flops
        assert_eq!(f[1], 0.0); // no accel flops
        assert_eq!(f[3], 0.0); // no crossings
        assert_eq!(f[4], 0.0); // nothing offloaded

        let daa = vec![Loc::Device, Loc::Accelerator(0), Loc::Accelerator(0)];
        let g = placement_features(&tasks, &daa);
        assert!(g[1] > 0.0);
        assert_eq!(g[3], 1.0); // one crossing D→A
        assert_eq!(g[4], 2.0);
        assert!(g[5] > 0.0);
    }

    #[test]
    fn flops_conserved_across_placements() {
        let tasks = scientific_code::tasks(5);
        for (_, placement) in scientific_code::placements() {
            let f = placement_features(&tasks, &placement);
            let total: f64 = tasks.iter().map(|t| t.total_flops() as f64).sum();
            assert!((f[0] + f[1] - total).abs() < 1e-6);
        }
    }

    #[test]
    fn crossings_count_matches_label_transitions() {
        let tasks = scientific_code::tasks(2);
        let ada = vec![Loc::Accelerator(0), Loc::Device, Loc::Accelerator(0)];
        let f = placement_features(&tasks, &ada);
        assert_eq!(f[3], 3.0); // D(start)→A, A→D, D→A
    }

    #[test]
    fn training_set_end_to_end_prediction() {
        use crate::digital_twin::{self, MultiScaleConfig};
        use crate::experiment::{cluster_measurements_seeded, measure_all_seeded, Experiment};
        use relperf_core::cluster::{ClusterConfig, Parallelism};
        use relperf_core::predict::KnnClassModel;
        use relperf_measure::compare::MedianComparator;

        // A 5-stage hierarchy gives 32 placements — enough examples that
        // every class has several members and leave-one-out is meaningful.
        let config = MultiScaleConfig {
            stages: 5,
            base_size: 30,
            growth: 1.8,
            iters_per_stage: 3,
        };
        let exp = Experiment {
            platform: relperf_sim::presets::table1_platform(),
            tasks: digital_twin::tasks(&config),
            placements: digital_twin::placements(&config),
        };
        let measured = measure_all_seeded(&exp, 15, 221, Parallelism::auto());
        // A coarse comparator keeps the class count small (several members
        // per class).
        let cmp = MedianComparator::new(0.05);
        let clustering = cluster_measurements_seeded(
            &measured,
            &cmp,
            ClusterConfig::with_repetitions(20),
            221,
        )
        .final_assignment();

        let train = training_set(&exp.tasks, &measured, &clustering);
        assert_eq!(train.len(), 32);
        let model = KnnClassModel::fit(train, 3).unwrap();
        let (exact, within_one) = model.leave_one_out();
        // Static features carry real signal: well above the uniform-guess
        // baseline exactly, and close on the soft (±1 class) criterion.
        assert!(
            exact > 1.5 / clustering.num_classes() as f64,
            "exact LOO accuracy {exact} with {} classes",
            clustering.num_classes()
        );
        assert!(within_one >= 0.7, "soft LOO accuracy {within_one}");
    }
}
