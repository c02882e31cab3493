//! Property-based tests of the simulator: physical sanity of timing,
//! energy, and cost under arbitrary task mixes and placements.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::prelude::*;
use relperf_sim::device::{DeviceKind, DeviceSpec};
use relperf_sim::executor::{AcceleratorSlot, Platform};
use relperf_sim::link::LinkSpec;
use relperf_sim::noise::NoiseModel;
use relperf_sim::task::{enumerate_placements, Loc, Task};

fn quiet_platform() -> Platform {
    Platform {
        device: DeviceSpec {
            name: "d".into(),
            kind: DeviceKind::EdgeCpu,
            peak_flops: 1e9,
            mem_capacity_bytes: 1 << 30,
            mem_pressure_penalty: 2.0,
            energy_per_flop: 1e-9,
            idle_power_watts: 1.0,
            cost_per_second: 0.0,
            launch_overhead_s: 0.0,
        },
        device_noise: NoiseModel::None,
        accelerators: vec![AcceleratorSlot {
            spec: DeviceSpec {
                name: "a".into(),
                kind: DeviceKind::Gpu,
                peak_flops: 1e10,
                mem_capacity_bytes: 1 << 20,
                mem_pressure_penalty: 3.0,
                energy_per_flop: 5e-10,
                idle_power_watts: 2.0,
                cost_per_second: 0.1,
                launch_overhead_s: 1e-4,
            },
            link: LinkSpec {
                name: "l".into(),
                latency_s: 1e-4,
                bandwidth_bytes_per_s: 1e9,
                energy_per_byte: 1e-9,
            },
            noise: NoiseModel::None,
            transfer_noise: NoiseModel::None,
        }],
        context_switch_s: 1e-3,
    }
}

#[derive(Debug, Clone)]
struct TaskSpec {
    iters: u64,
    flops: u64,
    bytes: u64,
    ws: u64,
}

fn task_strategy() -> impl Strategy<Value = TaskSpec> {
    (1u64..20, 1u64..10_000_000, 0u64..1_000_000, 0u64..(4 << 20)).prop_map(
        |(iters, flops, bytes, ws)| TaskSpec {
            iters,
            flops,
            bytes,
            ws,
        },
    )
}

fn build_tasks(specs: &[TaskSpec]) -> Vec<Task> {
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| Task {
            name: format!("T{i}"),
            iterations: s.iters,
            flops_per_iter: s.flops,
            offload_bytes_per_iter: s.bytes,
            return_bytes_per_iter: 8,
            working_set_bytes: s.ws,
            handoff_bytes: 8,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_placements_physically_sane(specs in vec(task_strategy(), 1..5), seed in 0u64..1_000) {
        let platform = quiet_platform();
        let tasks = build_tasks(&specs);
        let mut rng = StdRng::seed_from_u64(seed);
        for placement in enumerate_placements(tasks.len(), 1) {
            let rec = platform.execute(&tasks, &placement, &mut rng);
            prop_assert!(rec.total_time_s > 0.0);
            prop_assert!(rec.device_busy_s >= 0.0 && rec.accel_busy_s >= 0.0);
            prop_assert!(rec.device_busy_s + rec.accel_busy_s <= rec.total_time_s + 1e-12);
            prop_assert!(rec.energy.total() >= 0.0);
            prop_assert!(rec.operating_cost >= 0.0);
            // FLOPs conserved across devices.
            let total: u64 = tasks.iter().map(|t| t.total_flops()).sum();
            prop_assert_eq!(rec.device_flops + rec.accel_flops, total);
            // Per-task times sum to the total.
            let sum: f64 = rec.per_task.iter().map(|t| t.time_s).sum();
            prop_assert!((sum - rec.total_time_s).abs() < 1e-9 * rec.total_time_s.max(1.0));
            // Device-only placements move no bytes.
            if placement.iter().all(|&l| l == Loc::Device) {
                prop_assert_eq!(rec.bytes_transferred, 0);
                prop_assert_eq!(rec.operating_cost, 0.0);
            }
        }
    }

    #[test]
    fn time_monotone_in_flops(specs in vec(task_strategy(), 1..4), scale in 2u64..10, seed in 0u64..500) {
        let platform = quiet_platform();
        let base = build_tasks(&specs);
        let mut scaled = base.clone();
        for t in &mut scaled {
            t.flops_per_iter *= scale;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for placement in enumerate_placements(base.len(), 1) {
            let t_base = platform.execute(&base, &placement, &mut rng).total_time_s;
            let t_scaled = platform.execute(&scaled, &placement, &mut rng).total_time_s;
            prop_assert!(t_scaled > t_base, "scaling flops must slow execution");
        }
    }

    #[test]
    fn noise_preserves_mean_scale(specs in vec(task_strategy(), 1..3), seed in 0u64..200) {
        let mut platform = quiet_platform();
        platform.device_noise = NoiseModel::Gaussian { std_frac: 0.05 };
        platform.accelerators[0].noise = NoiseModel::Gaussian { std_frac: 0.05 };
        let tasks = build_tasks(&specs);
        let quiet_time = quiet_platform()
            .execute(&tasks, &vec![Loc::Device; tasks.len()], &mut StdRng::seed_from_u64(0))
            .total_time_s;
        let mut rng = StdRng::seed_from_u64(seed);
        let sample = platform
            .measure(&tasks, &vec![Loc::Device; tasks.len()], 60, &mut rng)
            .unwrap();
        // The noisy mean stays within 10% of the noise-free time (5%
        // Gaussian noise, 60 repetitions).
        prop_assert!(
            (sample.mean() - quiet_time).abs() < 0.10 * quiet_time,
            "mean {} vs quiet {quiet_time}", sample.mean()
        );
        prop_assert!(sample.min() > 0.0);
    }

    #[test]
    fn offloading_more_tasks_never_reduces_transfers(
        specs in vec(task_strategy(), 2..5),
        seed in 0u64..500,
    ) {
        let platform = quiet_platform();
        let tasks = build_tasks(&specs);
        let n = tasks.len();
        let mut rng = StdRng::seed_from_u64(seed);
        // Compare all-device against each single-offload placement.
        let none = platform.execute(&tasks, &vec![Loc::Device; n], &mut rng);
        for k in 0..n {
            let mut placement = vec![Loc::Device; n];
            placement[k] = Loc::Accelerator(0);
            let one = platform.execute(&tasks, &placement, &mut rng);
            prop_assert!(one.bytes_transferred >= none.bytes_transferred);
            prop_assert!(one.operating_cost > 0.0);
        }
    }

    #[test]
    fn energy_scales_with_idle_power(specs in vec(task_strategy(), 1..3), seed in 0u64..200) {
        let tasks = build_tasks(&specs);
        let placement = vec![Loc::Device; tasks.len()];
        let mut lazy = quiet_platform();
        lazy.accelerators[0].spec.idle_power_watts = 0.0;
        let mut hungry = quiet_platform();
        hungry.accelerators[0].spec.idle_power_watts = 50.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let e_lazy = lazy.execute(&tasks, &placement, &mut rng).energy.total();
        let e_hungry = hungry.execute(&tasks, &placement, &mut rng).energy.total();
        prop_assert!(e_hungry > e_lazy, "idle power must show up in energy");
    }
}
