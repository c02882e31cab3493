//! The discrete-event executor: turns (tasks, placement) into timing,
//! energy, and cost numbers.

use crate::device::DeviceSpec;
use crate::energy::EnergyBreakdown;
use crate::link::LinkSpec;
use crate::noise::NoiseModel;
use crate::task::{Loc, Task};
use rand::Rng;
use relperf_measure::sample::{Sample, SampleError};

/// A two-device platform: edge device `D`, accelerator `A`, and the link
/// between them, each with its own noise model.
#[derive(Debug, Clone)]
pub struct Platform {
    /// The edge device (`D`).
    pub device: DeviceSpec,
    /// The accelerator (`A`).
    pub accelerator: DeviceSpec,
    /// The interconnect.
    pub link: LinkSpec,
    /// Framework-level cost of moving execution between devices (TensorFlow
    /// device-context switch), charged once per boundary crossing in the
    /// task sequence — on top of the handoff transfer itself. Milliseconds
    /// in practice, and the reason placements that ping-pong between `D`
    /// and `A` (e.g. `ADA`) trail placements with a single crossing.
    pub context_switch_s: f64,
    /// Noise on edge-device compute times.
    pub device_noise: NoiseModel,
    /// Noise on accelerator compute times.
    pub accel_noise: NoiseModel,
    /// Noise on transfer times.
    pub transfer_noise: NoiseModel,
}

impl Platform {
    /// Validates all component specs and noise models.
    ///
    /// # Panics
    /// Panics with a descriptive message on invalid parameters.
    pub fn validate(&self) {
        assert!(self.device.peak_flops > 0.0, "device needs throughput");
        assert!(self.accelerator.peak_flops > 0.0, "accelerator needs throughput");
        assert!(self.link.bandwidth_bytes_per_s > 0.0, "link needs bandwidth");
        self.device_noise.validate();
        self.accel_noise.validate();
        self.transfer_noise.validate();
    }

    fn spec(&self, loc: Loc) -> &DeviceSpec {
        match loc {
            Loc::Device => &self.device,
            Loc::Accelerator => &self.accelerator,
        }
    }

    fn noise(&self, loc: Loc) -> &NoiseModel {
        match loc {
            Loc::Device => &self.device_noise,
            Loc::Accelerator => &self.accel_noise,
        }
    }

    /// Executes `tasks` sequentially under `placement`, drawing measurement
    /// noise from `rng`. Tasks are strictly serialized — the paper's
    /// workloads thread a penalty value from each loop into the next, so no
    /// overlap is possible.
    ///
    /// # Panics
    /// Panics when `tasks.len() != placement.len()`.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        tasks: &[Task],
        placement: &[Loc],
        rng: &mut R,
    ) -> ExecutionRecord {
        assert_eq!(
            tasks.len(),
            placement.len(),
            "placement must assign every task"
        );
        let mut rec = ExecutionRecord::default();
        let mut prev_loc = Loc::Device; // the code is invoked from the edge device
        // Accelerator-resident bytes: frameworks keep earlier tasks' tensors
        // allocated, so every offloaded task squeezes the ones after it.
        let mut resident_bytes: u64 = 0;

        for (task, &loc) in tasks.iter().zip(placement) {
            let spec = self.spec(loc);
            let iters = task.iterations as f64;

            // Pure compute, throttled by memory pressure (including residue
            // left by earlier offloaded tasks), with one noise draw per task
            // (system state is correlated within a loop).
            let effective_ws = if loc == Loc::Accelerator {
                task.working_set_bytes + resident_bytes
            } else {
                task.working_set_bytes
            };
            let compute = iters * spec.compute_time(task.flops_per_iter, effective_ws);
            let compute = compute * self.noise(loc).sample(rng);

            // Offload overheads only apply on the accelerator: a kernel
            // launch plus the per-iteration input/output transfers.
            let (launch, transfer, moved) = if loc == Loc::Accelerator {
                let t_in = self.link.transfer_time(task.offload_bytes_per_iter);
                let t_out = self.link.transfer_time(task.return_bytes_per_iter);
                let raw = iters * (t_in + t_out);
                (
                    iters * spec.launch_overhead_s,
                    raw * self.transfer_noise.sample(rng),
                    task.total_offload_bytes(),
                )
            } else {
                (0.0, 0.0, 0)
            };

            // Handoff of the running value plus the framework context
            // switch when crossing devices.
            let (handoff_time, handoff_bytes) = if loc != prev_loc {
                (
                    self.link.transfer_time(task.handoff_bytes) + self.context_switch_s,
                    task.handoff_bytes,
                )
            } else {
                (0.0, 0)
            };
            if loc == Loc::Accelerator {
                resident_bytes += task.working_set_bytes;
            }

            let task_time = compute + launch + transfer + handoff_time;
            let flops = task.total_flops();
            match loc {
                Loc::Device => {
                    rec.device_busy_s += compute;
                    rec.device_flops += flops;
                }
                Loc::Accelerator => {
                    rec.accel_busy_s += compute + launch;
                    rec.accel_flops += flops;
                }
            }
            rec.transfer_s += transfer + handoff_time;
            rec.bytes_transferred += moved + handoff_bytes;
            rec.total_time_s += task_time;
            rec.per_task.push(TaskRecord {
                name: task.name.clone(),
                loc,
                time_s: task_time,
                transfer_s: transfer + handoff_time,
                flops,
            });
            prev_loc = loc;
        }

        // Energy: dynamic per executed flop, idle power while the other
        // side works, transfer energy on the link.
        let e_dev_dyn = self.device.compute_energy(rec.device_flops);
        let e_acc_dyn = self.accelerator.compute_energy(rec.accel_flops);
        let dev_idle = (rec.total_time_s - rec.device_busy_s).max(0.0);
        let acc_idle = (rec.total_time_s - rec.accel_busy_s).max(0.0);
        rec.energy = EnergyBreakdown {
            device_j: e_dev_dyn + dev_idle * self.device.idle_power_watts,
            accel_j: e_acc_dyn + acc_idle * self.accelerator.idle_power_watts,
            link_j: self.link.transfer_energy(rec.bytes_transferred),
        };
        rec.operating_cost = rec.device_busy_s * self.device.cost_per_second
            + rec.accel_busy_s * self.accelerator.cost_per_second;
        rec
    }

    /// Runs `execute` `n` times and collects the total execution times as a
    /// [`Sample`] — the simulated counterpart of the paper's "the execution
    /// time of every algorithm is measured N times".
    pub fn measure<R: Rng + ?Sized>(
        &self,
        tasks: &[Task],
        placement: &[Loc],
        n: usize,
        rng: &mut R,
    ) -> Result<Sample, SampleError> {
        let times: Vec<f64> = (0..n)
            .map(|_| self.execute(tasks, placement, rng).total_time_s)
            .collect();
        Sample::new(times)
    }

    /// Noise-free execution record (useful for FLOP/energy/cost accounting
    /// where the decision models need the deterministic expectation).
    pub fn execute_noiseless(&self, tasks: &[Task], placement: &[Loc]) -> ExecutionRecord {
        let quiet = Platform {
            device_noise: NoiseModel::None,
            accel_noise: NoiseModel::None,
            transfer_noise: NoiseModel::None,
            ..self.clone()
        };
        // The RNG is never consulted by NoiseModel::None.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        quiet.execute(tasks, placement, &mut rng)
    }
}

/// Per-task slice of an [`ExecutionRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Task name.
    pub name: String,
    /// Where it ran.
    pub loc: Loc,
    /// Wall time including transfers and launch overhead, seconds.
    pub time_s: f64,
    /// Transfer portion of `time_s`, seconds.
    pub transfer_s: f64,
    /// FLOPs executed.
    pub flops: u64,
}

/// Full accounting of one simulated execution.
#[derive(Debug, Clone, Default)]
pub struct ExecutionRecord {
    /// End-to-end wall time, seconds.
    pub total_time_s: f64,
    /// Busy time of the edge device, seconds.
    pub device_busy_s: f64,
    /// Busy time of the accelerator (compute + launches), seconds.
    pub accel_busy_s: f64,
    /// Total link time, seconds.
    pub transfer_s: f64,
    /// FLOPs executed on the edge device.
    pub device_flops: u64,
    /// FLOPs executed on the accelerator.
    pub accel_flops: u64,
    /// Bytes moved over the link.
    pub bytes_transferred: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Operating cost (mostly accelerator time, per the paper's Sec. IV).
    pub operating_cost: f64,
    /// Per-task details in execution order.
    pub per_task: Vec<TaskRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceKind;
    use rand::prelude::*;

    fn quiet_platform() -> Platform {
        Platform {
            device: DeviceSpec {
                name: "edge".into(),
                kind: DeviceKind::EdgeCpu,
                peak_flops: 1e9,
                mem_capacity_bytes: u64::MAX,
                mem_pressure_penalty: 0.0,
                energy_per_flop: 1e-9,
                idle_power_watts: 1.0,
                cost_per_second: 0.0,
                launch_overhead_s: 0.0,
            },
            accelerator: DeviceSpec {
                name: "accel".into(),
                kind: DeviceKind::Gpu,
                peak_flops: 1e10,
                mem_capacity_bytes: 10_000,
                mem_pressure_penalty: 4.0,
                energy_per_flop: 2e-9,
                idle_power_watts: 2.0,
                cost_per_second: 1.0,
                launch_overhead_s: 1e-3,
            },
            link: LinkSpec {
                name: "link".into(),
                latency_s: 1e-3,
                bandwidth_bytes_per_s: 1e9,
                energy_per_byte: 1e-9,
            },
            context_switch_s: 0.0,
            device_noise: NoiseModel::None,
            accel_noise: NoiseModel::None,
            transfer_noise: NoiseModel::None,
        }
    }

    fn task(iters: u64, flops: u64, bytes: u64) -> Task {
        Task {
            name: "T".into(),
            iterations: iters,
            flops_per_iter: flops,
            offload_bytes_per_iter: bytes,
            return_bytes_per_iter: 8,
            working_set_bytes: 0,
            handoff_bytes: 8,
        }
    }

    #[test]
    fn device_only_run_has_no_transfers() {
        let p = quiet_platform();
        let tasks = vec![task(10, 1_000_000, 1_000)];
        let mut rng = StdRng::seed_from_u64(1);
        let rec = p.execute(&tasks, &[Loc::Device], &mut rng);
        assert_eq!(rec.bytes_transferred, 0);
        assert_eq!(rec.transfer_s, 0.0);
        assert_eq!(rec.device_flops, 10_000_000);
        assert_eq!(rec.accel_flops, 0);
        // 1e7 flops at 1e9 flop/s = 10 ms.
        assert!((rec.total_time_s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn offloaded_run_pays_launch_transfer_and_handoff() {
        let p = quiet_platform();
        let tasks = vec![task(10, 1_000_000, 1_000)];
        let mut rng = StdRng::seed_from_u64(2);
        let rec = p.execute(&tasks, &[Loc::Accelerator], &mut rng);
        // compute: 1e7 / 1e10 = 1 ms; launches: 10 x 1 ms = 10 ms;
        // transfers: 10 x (1e-3 + 1e-6) h2d + 10 x (1e-3 + 8e-9) d2h ≈ 20 ms;
        // handoff (D→A at the first task): 1e-3 + 8e-9.
        assert!(rec.total_time_s > 0.030 && rec.total_time_s < 0.033);
        assert_eq!(rec.accel_flops, 10_000_000);
        assert_eq!(rec.bytes_transferred, 10 * 1_008 + 8);
        assert!(rec.operating_cost > 0.0);
    }

    #[test]
    fn handoff_only_on_device_change() {
        let p = quiet_platform();
        let tasks = vec![task(1, 1_000, 0), task(1, 1_000, 0), task(1, 1_000, 0)];
        let mut rng = StdRng::seed_from_u64(3);
        // D D D: no handoffs.
        let rec = p.execute(&tasks, &[Loc::Device, Loc::Device, Loc::Device], &mut rng);
        assert_eq!(rec.bytes_transferred, 0);
        // D A D: two crossings (D→A before task 2, A→D before task 3).
        let rec = p.execute(&tasks, &[Loc::Device, Loc::Accelerator, Loc::Device], &mut rng);
        assert_eq!(rec.bytes_transferred, 8 /*return*/ + 8 /*handoff in*/ + 8 /*handoff out*/);
    }

    #[test]
    fn memory_pressure_slows_accelerator() {
        let p = quiet_platform();
        let small = Task {
            working_set_bytes: 1_000,
            ..task(1, 1_000_000_000, 0)
        };
        let large = Task {
            working_set_bytes: 100_000, // 10x the accel capacity
            ..task(1, 1_000_000_000, 0)
        };
        let mut rng = StdRng::seed_from_u64(4);
        let t_small = p.execute(std::slice::from_ref(&small), &[Loc::Accelerator], &mut rng);
        let t_large = p.execute(std::slice::from_ref(&large), &[Loc::Accelerator], &mut rng);
        assert!(t_large.total_time_s > 5.0 * t_small.total_time_s);
        // The same working sets run identically on the unthrottled device.
        let d_small = p.execute(std::slice::from_ref(&small), &[Loc::Device], &mut rng);
        let d_large = p.execute(std::slice::from_ref(&large), &[Loc::Device], &mut rng);
        assert!((d_small.total_time_s - d_large.total_time_s).abs() < 1e-12);
    }

    #[test]
    fn energy_accounts_dynamic_idle_and_link() {
        let p = quiet_platform();
        let tasks = vec![task(1, 1_000_000_000, 0)];
        let mut rng = StdRng::seed_from_u64(5);
        let rec = p.execute(&tasks, &[Loc::Device], &mut rng);
        // 1e9 flops on the device at 1e-9 J/flop = 1 J dynamic.
        // Accelerator idles for the full second at 2 W = 2 J.
        assert!((rec.energy.device_j - 1.0).abs() < 1e-9);
        assert!((rec.energy.accel_j - 2.0).abs() < 1e-6);
        assert_eq!(rec.energy.link_j, 0.0);
    }

    #[test]
    fn noise_perturbs_repeated_measurements() {
        let mut p = quiet_platform();
        p.device_noise = NoiseModel::Gaussian { std_frac: 0.1 };
        let tasks = vec![task(5, 1_000_000, 0)];
        let mut rng = StdRng::seed_from_u64(6);
        let s = p.measure(&tasks, &[Loc::Device], 30, &mut rng).unwrap();
        assert_eq!(s.len(), 30);
        assert!(s.std_dev() > 0.0);
    }

    #[test]
    fn measurement_is_seeded() {
        let p = {
            let mut p = quiet_platform();
            p.device_noise = NoiseModel::LogNormal { sigma: 0.2 };
            p
        };
        let tasks = vec![task(3, 1_000_000, 0)];
        let a = p
            .measure(&tasks, &[Loc::Device], 10, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let b = p
            .measure(&tasks, &[Loc::Device], 10, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn noiseless_execution_matches_quiet_platform() {
        let mut noisy_platform = quiet_platform();
        noisy_platform.device_noise = NoiseModel::Gaussian { std_frac: 0.5 };
        let tasks = vec![task(2, 1_000_000, 100)];
        let quiet_rec = quiet_platform().execute(
            &tasks,
            &[Loc::Accelerator],
            &mut StdRng::seed_from_u64(8),
        );
        let noiseless = noisy_platform.execute_noiseless(&tasks, &[Loc::Accelerator]);
        assert!((quiet_rec.total_time_s - noiseless.total_time_s).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "placement must assign every task")]
    fn mismatched_placement_panics() {
        let p = quiet_platform();
        let tasks = vec![task(1, 1, 0)];
        let mut rng = StdRng::seed_from_u64(9);
        p.execute(&tasks, &[], &mut rng);
    }

    #[test]
    fn per_task_records_cover_all_tasks() {
        let p = quiet_platform();
        let tasks = vec![task(1, 1_000, 0), task(2, 2_000, 10)];
        let mut rng = StdRng::seed_from_u64(10);
        let rec = p.execute(&tasks, &[Loc::Device, Loc::Accelerator], &mut rng);
        assert_eq!(rec.per_task.len(), 2);
        assert_eq!(rec.per_task[0].loc, Loc::Device);
        assert_eq!(rec.per_task[1].loc, Loc::Accelerator);
        let sum: f64 = rec.per_task.iter().map(|t| t.time_s).sum();
        assert!((sum - rec.total_time_s).abs() < 1e-12);
        assert_eq!(rec.device_flops, 1_000);
        assert_eq!(rec.accel_flops, 4_000);
    }

    #[test]
    fn validate_accepts_good_platform() {
        quiet_platform().validate();
    }

    #[test]
    fn context_switch_charged_per_crossing() {
        let mut p = quiet_platform();
        p.context_switch_s = 0.5;
        let tasks = vec![task(1, 1_000, 0), task(1, 1_000, 0), task(1, 1_000, 0)];
        let mut rng = StdRng::seed_from_u64(20);
        let ddd = p
            .execute(&tasks, &[Loc::Device, Loc::Device, Loc::Device], &mut rng)
            .total_time_s;
        let ada = p
            .execute(
                &tasks,
                &[Loc::Accelerator, Loc::Device, Loc::Accelerator],
                &mut rng,
            )
            .total_time_s;
        let dda = p
            .execute(&tasks, &[Loc::Device, Loc::Device, Loc::Accelerator], &mut rng)
            .total_time_s;
        // ADA crosses three times, DDA once.
        assert!(ada - ddd > 3.0 * 0.5);
        assert!(dda - ddd > 0.5 && dda - ddd < 1.0);
        assert!(ada > dda + 2.0 * 0.5 - 1e-9);
    }

    #[test]
    fn accelerator_residency_throttles_later_offloads() {
        let p = quiet_platform(); // accel capacity 10_000 bytes, penalty 4
        let small = Task {
            working_set_bytes: 9_000,
            ..task(1, 1_000_000_000, 0)
        };
        let big = Task {
            working_set_bytes: 9_500,
            ..task(1, 10_000_000_000, 0)
        };
        let seq = vec![small.clone(), big.clone()];
        let mut rng = StdRng::seed_from_u64(21);
        // DA: big task runs with an empty accelerator.
        let da = p
            .execute(&seq, &[Loc::Device, Loc::Accelerator], &mut rng)
            .total_time_s;
        // AA: the small task's tensors stay resident, pushing the big task
        // past capacity.
        let aa = p
            .execute(&seq, &[Loc::Accelerator, Loc::Accelerator], &mut rng)
            .total_time_s;
        // AA also saves the small task's device time, but the residency
        // throttling on the big task dominates.
        assert!(aa > da, "aa={aa} da={da}");
        // Residue does not slow down device-placed tasks: the big task takes
        // the same device time in AD (small offloaded first) as in DD.
        let ad = p.execute(&seq, &[Loc::Accelerator, Loc::Device], &mut rng);
        let dd = p.execute(&seq, &[Loc::Device, Loc::Device], &mut rng);
        // Strip the A→D handoff from the AD record before comparing compute.
        let ad_compute = ad.per_task[1].time_s - ad.per_task[1].transfer_s;
        let dd_compute = dd.per_task[1].time_s - dd.per_task[1].transfer_s;
        assert!((ad_compute - dd_compute).abs() < 1e-12);
    }
}
