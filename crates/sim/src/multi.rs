//! Multi-accelerator platforms.
//!
//! The paper's approach "extends naturally to any Device-Accelerator(s)
//! combinations (such as CPU-Raspbian, Smartphone-GPU(s) etc.)" — plural.
//! This module generalizes [`crate::executor::Platform`] from one
//! accelerator to any number: a placement assigns each task a
//! [`MultiLoc`], either the edge device or accelerator `k`, each
//! accelerator with its own link and noise.

use crate::device::DeviceSpec;
use crate::energy::EnergyBreakdown;
use crate::link::LinkSpec;
use crate::noise::NoiseModel;
use crate::task::Task;
use rand::Rng;
use relperf_measure::sample::{Sample, SampleError};

/// Placement target on a multi-accelerator platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MultiLoc {
    /// The edge device.
    Device,
    /// Accelerator `k` (0-based).
    Accelerator(usize),
}

impl MultiLoc {
    /// Paper-style label: `D` for the device, `A`, `B`, `C`, … for
    /// accelerators 0, 1, 2, …
    pub fn letter(self) -> char {
        match self {
            MultiLoc::Device => 'D',
            MultiLoc::Accelerator(k) => {
                char::from_u32('A' as u32 + k as u32).unwrap_or('?')
            }
        }
    }
}

/// One accelerator: its device spec and the link connecting it to the
/// edge device, plus noise models.
#[derive(Debug, Clone)]
pub struct AcceleratorSlot {
    /// The accelerator hardware.
    pub spec: DeviceSpec,
    /// The link from the edge device to this accelerator.
    pub link: LinkSpec,
    /// Compute-time noise.
    pub noise: NoiseModel,
    /// Transfer-time noise.
    pub transfer_noise: NoiseModel,
}

/// An edge device with any number of accelerators.
#[derive(Debug, Clone)]
pub struct MultiPlatform {
    /// The edge device.
    pub device: DeviceSpec,
    /// Edge-device compute noise.
    pub device_noise: NoiseModel,
    /// The accelerators.
    pub accelerators: Vec<AcceleratorSlot>,
    /// Framework context-switch cost per execution-location change.
    pub context_switch_s: f64,
}

/// Accounting record of one multi-platform execution (a reduced version of
/// [`crate::executor::ExecutionRecord`] with per-accelerator slots).
#[derive(Debug, Clone, Default)]
pub struct MultiRecord {
    /// End-to-end wall time, seconds.
    pub total_time_s: f64,
    /// Edge-device busy seconds.
    pub device_busy_s: f64,
    /// Busy seconds per accelerator.
    pub accel_busy_s: Vec<f64>,
    /// FLOPs on the edge device.
    pub device_flops: u64,
    /// FLOPs per accelerator.
    pub accel_flops: Vec<u64>,
    /// Bytes over each accelerator's link.
    pub bytes_per_link: Vec<u64>,
    /// Energy breakdown (accelerators aggregated into `accel_j`).
    pub energy: EnergyBreakdown,
    /// Operating cost across all devices.
    pub operating_cost: f64,
}

impl MultiPlatform {
    /// Validates all specs.
    ///
    /// # Panics
    /// Panics on invalid components or zero accelerators (use the
    /// single-accelerator [`crate::executor::Platform`] for the k=1 case if
    /// preferred; k=1 is still allowed here).
    pub fn validate(&self) {
        assert!(self.device.peak_flops > 0.0, "device needs throughput");
        assert!(
            !self.accelerators.is_empty(),
            "multi-platform needs at least one accelerator"
        );
        self.device_noise.validate();
        for slot in &self.accelerators {
            assert!(slot.spec.peak_flops > 0.0, "accelerator needs throughput");
            assert!(slot.link.bandwidth_bytes_per_s > 0.0, "link needs bandwidth");
            slot.noise.validate();
            slot.transfer_noise.validate();
        }
    }

    /// Executes the task sequence under the placement.
    ///
    /// # Panics
    /// Panics on length mismatch or an accelerator index out of range.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        tasks: &[Task],
        placement: &[MultiLoc],
        rng: &mut R,
    ) -> MultiRecord {
        assert_eq!(tasks.len(), placement.len(), "placement must cover every task");
        let k = self.accelerators.len();
        let mut rec = MultiRecord {
            accel_busy_s: vec![0.0; k],
            accel_flops: vec![0; k],
            bytes_per_link: vec![0; k],
            ..Default::default()
        };
        let mut prev = MultiLoc::Device;
        let mut resident = vec![0u64; k];

        for (task, &loc) in tasks.iter().zip(placement) {
            let iters = task.iterations as f64;
            match loc {
                MultiLoc::Device => {
                    let t = iters
                        * self
                            .device
                            .compute_time(task.flops_per_iter, task.working_set_bytes)
                        * self.device_noise.sample(rng);
                    let handoff = if prev != loc { self.context_switch_s } else { 0.0 };
                    rec.device_busy_s += t;
                    rec.device_flops += task.total_flops();
                    rec.total_time_s += t + handoff;
                }
                MultiLoc::Accelerator(a) => {
                    assert!(a < k, "accelerator index {a} out of range ({k})");
                    let slot = &self.accelerators[a];
                    let eff_ws = task.working_set_bytes + resident[a];
                    let compute = iters
                        * slot.spec.compute_time(task.flops_per_iter, eff_ws)
                        * slot.noise.sample(rng);
                    let launch = iters * slot.spec.launch_overhead_s;
                    let transfer = iters
                        * (slot.link.transfer_time(task.offload_bytes_per_iter)
                            + slot.link.transfer_time(task.return_bytes_per_iter))
                        * slot.transfer_noise.sample(rng);
                    let handoff = if prev != loc {
                        slot.link.transfer_time(task.handoff_bytes) + self.context_switch_s
                    } else {
                        0.0
                    };
                    resident[a] += task.working_set_bytes;
                    rec.accel_busy_s[a] += compute + launch;
                    rec.accel_flops[a] += task.total_flops();
                    rec.bytes_per_link[a] += task.total_offload_bytes();
                    rec.total_time_s += compute + launch + transfer + handoff;
                }
            }
            prev = loc;
        }

        // Energy: dynamic per device plus idle while others work.
        let mut energy = EnergyBreakdown {
            device_j: self.device.compute_energy(rec.device_flops)
                + (rec.total_time_s - rec.device_busy_s).max(0.0) * self.device.idle_power_watts,
            ..Default::default()
        };
        let mut cost = rec.device_busy_s * self.device.cost_per_second;
        for (a, slot) in self.accelerators.iter().enumerate() {
            energy.accel_j += slot.spec.compute_energy(rec.accel_flops[a])
                + (rec.total_time_s - rec.accel_busy_s[a]).max(0.0)
                    * slot.spec.idle_power_watts;
            energy.link_j += slot.link.transfer_energy(rec.bytes_per_link[a]);
            cost += rec.accel_busy_s[a] * slot.spec.cost_per_second;
        }
        rec.energy = energy;
        rec.operating_cost = cost;
        rec
    }

    /// Measures `n` repetitions of the placement as a [`Sample`].
    pub fn measure<R: Rng + ?Sized>(
        &self,
        tasks: &[Task],
        placement: &[MultiLoc],
        n: usize,
        rng: &mut R,
    ) -> Result<Sample, SampleError> {
        Sample::new(
            (0..n)
                .map(|_| self.execute(tasks, placement, rng).total_time_s)
                .collect(),
        )
    }
}

/// Enumerates all `(1+k)^n` placements of `n` tasks over a device plus `k`
/// accelerators, lexicographic with `D < A < B < …`.
pub fn enumerate_multi_placements(n: usize, k: usize) -> Vec<Vec<MultiLoc>> {
    let base = 1 + k;
    let total = (base as u64).pow(n as u32);
    assert!(total <= 1 << 20, "placement space too large to enumerate");
    let mut out = Vec::with_capacity(total as usize);
    for mut code in 0..total {
        let mut p = vec![MultiLoc::Device; n];
        for slot in (0..n).rev() {
            let digit = (code % base as u64) as usize;
            p[slot] = if digit == 0 {
                MultiLoc::Device
            } else {
                MultiLoc::Accelerator(digit - 1)
            };
            code /= base as u64;
        }
        out.push(p);
    }
    out
}

/// Paper-style label of a multi-placement, e.g. `"DAB"`.
pub fn multi_label(placement: &[MultiLoc]) -> String {
    placement.iter().map(|l| l.letter()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use rand::prelude::*;

    fn spec(flops: f64, cost: f64) -> DeviceSpec {
        DeviceSpec {
            name: "x".into(),
            kind: DeviceKind::Gpu,
            peak_flops: flops,
            mem_capacity_bytes: 1 << 30,
            mem_pressure_penalty: 1.0,
            energy_per_flop: 1e-9,
            idle_power_watts: 1.0,
            cost_per_second: cost,
            launch_overhead_s: 1e-5,
        }
    }

    fn link(bw: f64) -> LinkSpec {
        LinkSpec {
            name: "l".into(),
            latency_s: 1e-5,
            bandwidth_bytes_per_s: bw,
            energy_per_byte: 1e-9,
        }
    }

    fn platform() -> MultiPlatform {
        MultiPlatform {
            device: spec(1e9, 0.0),
            device_noise: NoiseModel::None,
            accelerators: vec![
                AcceleratorSlot {
                    spec: spec(1e10, 0.1), // fast GPU
                    link: link(1e9),
                    noise: NoiseModel::None,
                    transfer_noise: NoiseModel::None,
                },
                AcceleratorSlot {
                    spec: spec(2e9, 0.01), // slow cheap accelerator
                    link: link(1e8),
                    noise: NoiseModel::None,
                    transfer_noise: NoiseModel::None,
                },
            ],
            context_switch_s: 1e-4,
        }
    }

    fn task(flops: u64) -> Task {
        Task {
            name: "t".into(),
            iterations: 10,
            flops_per_iter: flops,
            offload_bytes_per_iter: 1_000,
            return_bytes_per_iter: 8,
            working_set_bytes: 1_000,
            handoff_bytes: 8,
        }
    }

    #[test]
    fn letters_and_labels() {
        assert_eq!(MultiLoc::Device.letter(), 'D');
        assert_eq!(MultiLoc::Accelerator(0).letter(), 'A');
        assert_eq!(MultiLoc::Accelerator(2).letter(), 'C');
        let p = vec![MultiLoc::Device, MultiLoc::Accelerator(1)];
        assert_eq!(multi_label(&p), "DB");
    }

    #[test]
    fn enumeration_counts_and_order() {
        let all = enumerate_multi_placements(2, 2);
        assert_eq!(all.len(), 9);
        let labels: Vec<String> = all.iter().map(|p| multi_label(p)).collect();
        assert_eq!(labels[0], "DD");
        assert_eq!(labels[8], "BB");
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn faster_accelerator_wins_for_compute_dense_task() {
        let p = platform();
        p.validate();
        let tasks = vec![task(10_000_000)];
        let mut rng = StdRng::seed_from_u64(201);
        let on_dev = p.execute(&tasks, &[MultiLoc::Device], &mut rng).total_time_s;
        let on_a = p
            .execute(&tasks, &[MultiLoc::Accelerator(0)], &mut rng)
            .total_time_s;
        let on_b = p
            .execute(&tasks, &[MultiLoc::Accelerator(1)], &mut rng)
            .total_time_s;
        assert!(on_a < on_dev, "GPU must beat the device: {on_a} vs {on_dev}");
        assert!(on_a < on_b, "GPU must beat the slow accelerator");
    }

    #[test]
    fn accounting_splits_across_accelerators() {
        let p = platform();
        let tasks = vec![task(1_000_000), task(2_000_000)];
        let mut rng = StdRng::seed_from_u64(202);
        let rec = p.execute(
            &tasks,
            &[MultiLoc::Accelerator(0), MultiLoc::Accelerator(1)],
            &mut rng,
        );
        assert_eq!(rec.device_flops, 0);
        assert_eq!(rec.accel_flops[0], 10_000_000);
        assert_eq!(rec.accel_flops[1], 20_000_000);
        assert!(rec.bytes_per_link[0] > 0 && rec.bytes_per_link[1] > 0);
        assert!(rec.operating_cost > 0.0);
        assert!(rec.energy.total() > 0.0);
    }

    #[test]
    fn cheap_slow_accelerator_minimizes_cost() {
        let p = platform();
        let tasks = vec![task(5_000_000)];
        let mut rng = StdRng::seed_from_u64(203);
        let rec_a = p.execute(&tasks, &[MultiLoc::Accelerator(0)], &mut rng);
        let rec_b = p.execute(&tasks, &[MultiLoc::Accelerator(1)], &mut rng);
        // B is slower but its cost rate is 10x lower; with these volumes
        // the total cost on B is lower.
        assert!(rec_b.total_time_s > rec_a.total_time_s);
        assert!(rec_b.operating_cost < rec_a.operating_cost);
    }

    #[test]
    fn measure_produces_sample() {
        let mut p = platform();
        p.device_noise = NoiseModel::Gaussian { std_frac: 0.05 };
        let tasks = vec![task(1_000_000)];
        let mut rng = StdRng::seed_from_u64(204);
        let s = p
            .measure(&tasks, &[MultiLoc::Device], 20, &mut rng)
            .unwrap();
        assert_eq!(s.len(), 20);
        assert!(s.std_dev() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_accelerator_index_panics() {
        let p = platform();
        let tasks = vec![task(1)];
        let mut rng = StdRng::seed_from_u64(205);
        p.execute(&tasks, &[MultiLoc::Accelerator(5)], &mut rng);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn enumeration_guard() {
        enumerate_multi_placements(30, 3);
    }

    #[test]
    fn residency_is_per_accelerator() {
        // Two big-ws tasks on DIFFERENT accelerators must not throttle each
        // other; on the SAME accelerator the second one slows down.
        let mut p = platform();
        p.accelerators[0].spec.mem_capacity_bytes = 1_500;
        p.accelerators[1].spec.mem_capacity_bytes = 1_500;
        let tasks = vec![task(50_000_000), task(50_000_000)];
        let mut rng = StdRng::seed_from_u64(206);
        let same = p
            .execute(
                &tasks,
                &[MultiLoc::Accelerator(0), MultiLoc::Accelerator(0)],
                &mut rng,
            )
            .total_time_s;
        // Second accelerator is 5x slower, so compare like against like:
        // same accelerator twice with vs without residency pressure.
        let mut fresh = p.clone();
        fresh.accelerators[0].spec.mem_capacity_bytes = 1 << 30;
        let unthrottled = fresh
            .execute(
                &tasks,
                &[MultiLoc::Accelerator(0), MultiLoc::Accelerator(0)],
                &mut rng,
            )
            .total_time_s;
        assert!(same > unthrottled, "residency must throttle the second task");
    }
}
