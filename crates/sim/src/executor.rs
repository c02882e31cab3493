//! The discrete-event executor: turns (tasks, placement) into timing,
//! energy, and cost numbers.

use crate::device::DeviceSpec;
use crate::energy::EnergyBreakdown;
use crate::link::LinkSpec;
use crate::noise::NoiseModel;
use crate::task::{Loc, Task};
use rand::Rng;
use relperf_measure::sample::{Sample, SampleError};

/// One accelerator: its hardware, the link that connects it to the edge
/// device, and the noise on its compute and transfer times.
#[derive(Debug, Clone)]
pub struct AcceleratorSlot {
    /// The accelerator hardware.
    pub spec: DeviceSpec,
    /// The link between the edge device and this accelerator.
    pub link: LinkSpec,
    /// Noise on this accelerator's compute times.
    pub noise: NoiseModel,
    /// Noise on this link's transfer times.
    pub transfer_noise: NoiseModel,
}

/// An edge platform: the edge device `D` and `k ≥ 1` accelerators `A`,
/// `B`, `C`, … (see [`Loc::letter`]), each behind its own link.
///
/// The paper measures one device–accelerator pair and notes that its
/// approach "extends naturally to any Device-Accelerator(s) combinations";
/// the presets carry one accelerator, and pushing more slots onto
/// [`Platform::accelerators`] widens the placement space to `(1 + k)^n`.
#[derive(Debug, Clone)]
pub struct Platform {
    /// The edge device (`D`).
    pub device: DeviceSpec,
    /// Noise on edge-device compute times.
    pub device_noise: NoiseModel,
    /// The accelerators; [`Loc::Accelerator`]`(k)` runs on slot `k`.
    pub accelerators: Vec<AcceleratorSlot>,
    /// Framework-level cost of moving execution between devices (TensorFlow
    /// device-context switch), charged once per boundary crossing in the
    /// task sequence — on top of the handoff transfer itself. Milliseconds
    /// in practice, and the reason placements that ping-pong between `D`
    /// and `A` (e.g. `ADA`) trail placements with a single crossing.
    pub context_switch_s: f64,
}

/// Per-accelerator running totals of one execution.
#[derive(Clone, Default)]
struct Meter {
    busy_s: f64,
    flops: u64,
    link_bytes: u64,
    /// Bytes left allocated by earlier offloaded tasks.
    resident_bytes: u64,
}

impl Platform {
    /// Validates all component specs and noise models.
    ///
    /// # Panics
    /// Panics with a descriptive message on invalid parameters, on zero
    /// accelerators, and on more accelerators than [`Loc`] has letters.
    pub fn validate(&self) {
        assert!(self.device.peak_flops > 0.0, "device needs throughput");
        assert!(
            (1..=Loc::MAX_ACCELERATORS).contains(&self.accelerators.len()),
            "platform needs 1..={} accelerators",
            Loc::MAX_ACCELERATORS
        );
        self.device_noise.validate();
        for slot in &self.accelerators {
            assert!(slot.spec.peak_flops > 0.0, "accelerator needs throughput");
            assert!(
                slot.link.bandwidth_bytes_per_s > 0.0,
                "link needs bandwidth"
            );
            slot.noise.validate();
            slot.transfer_noise.validate();
        }
    }

    /// Executes `tasks` sequentially under `placement`, drawing measurement
    /// noise from `rng`. Tasks are strictly serialized — the paper's
    /// workloads thread a penalty value from each loop into the next, so no
    /// overlap is possible.
    ///
    /// # Panics
    /// Panics when `tasks.len() != placement.len()` or a placement names an
    /// accelerator the platform does not have.
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
        let k = self.accelerators.len();
        let mut rec = ExecutionRecord::default();
        let mut meters = vec![Meter::default(); k];
        let mut prev_loc = Loc::Device; // the code is invoked from the edge device

        for (task, &loc) in tasks.iter().zip(placement) {
            let iters = task.iterations as f64;
            let flops = task.total_flops();

            // Pure compute, throttled by memory pressure, with one noise
            // draw per task (system state is correlated within a loop).
            // Offloaded tasks add a kernel launch per iteration and the
            // per-iteration input/output transfers over the slot's link;
            // frameworks keep earlier tasks' tensors allocated, so every
            // offloaded task squeezes the later ones on its accelerator.
            let (compute, launch, transfer) = match loc {
                Loc::Device => {
                    let compute = iters
                        * self
                            .device
                            .compute_time(task.flops_per_iter, task.working_set_bytes);
                    let compute = compute * self.device_noise.sample(rng);
                    rec.device_busy_s += compute;
                    rec.device_flops += flops;
                    (compute, 0.0, 0.0)
                }
                Loc::Accelerator(a) => {
                    assert!(a < k, "accelerator index {a} out of range ({k})");
                    let slot = &self.accelerators[a];
                    let meter = &mut meters[a];
                    let effective_ws = task.working_set_bytes + meter.resident_bytes;
                    let compute = iters * slot.spec.compute_time(task.flops_per_iter, effective_ws);
                    let compute = compute * slot.noise.sample(rng);
                    let t_in = slot.link.transfer_time(task.offload_bytes_per_iter);
                    let t_out = slot.link.transfer_time(task.return_bytes_per_iter);
                    let raw = iters * (t_in + t_out);
                    let launch = iters * slot.spec.launch_overhead_s;
                    let transfer = raw * slot.transfer_noise.sample(rng);
                    meter.resident_bytes += task.working_set_bytes;
                    meter.busy_s += compute + launch;
                    meter.flops += flops;
                    meter.link_bytes += task.total_offload_bytes();
                    rec.accel_busy_s += compute + launch;
                    rec.accel_flops += flops;
                    rec.bytes_transferred += task.total_offload_bytes();
                    (compute, launch, transfer)
                }
            };

            // Handoff of the running value plus the framework context
            // switch when crossing devices. The value crosses the link of
            // the accelerator it enters or, back on the device, of the
            // accelerator it leaves.
            let crossed = match (prev_loc, loc) {
                _ if prev_loc == loc => None,
                (_, Loc::Accelerator(b)) => Some(b),
                (Loc::Accelerator(a), Loc::Device) => Some(a),
                (Loc::Device, Loc::Device) => None,
            };
            let switch_s = if loc != prev_loc {
                self.context_switch_s
            } else {
                0.0
            };
            let handoff_time = match crossed {
                Some(a) => {
                    meters[a].link_bytes += task.handoff_bytes;
                    rec.bytes_transferred += task.handoff_bytes;
                    self.accelerators[a].link.transfer_time(task.handoff_bytes) + switch_s
                }
                None => switch_s,
            };

            let task_time = compute + launch + transfer + handoff_time;
            rec.transfer_s += transfer + handoff_time;
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

        // Energy: dynamic per executed flop, idle power while another
        // component works, transfer energy on each link.
        let dev_idle = (rec.total_time_s - rec.device_busy_s).max(0.0);
        rec.energy.device_j =
            self.device.compute_energy(rec.device_flops) + dev_idle * self.device.idle_power_watts;
        rec.operating_cost = rec.device_busy_s * self.device.cost_per_second;
        for (slot, meter) in self.accelerators.iter().zip(&meters) {
            let idle = (rec.total_time_s - meter.busy_s).max(0.0);
            rec.energy.accel_j +=
                slot.spec.compute_energy(meter.flops) + idle * slot.spec.idle_power_watts;
            rec.energy.link_j += slot.link.transfer_energy(meter.link_bytes);
            rec.operating_cost += meter.busy_s * slot.spec.cost_per_second;
        }
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
        let mut quiet = self.clone();
        quiet.device_noise = NoiseModel::None;
        for slot in &mut quiet.accelerators {
            slot.noise = NoiseModel::None;
            slot.transfer_noise = NoiseModel::None;
        }
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

/// Full accounting of one simulated execution. Accelerator and link
/// fields are totals over all of the platform's accelerators.
#[derive(Debug, Clone, Default)]
pub struct ExecutionRecord {
    /// End-to-end wall time, seconds.
    pub total_time_s: f64,
    /// Busy time of the edge device, seconds.
    pub device_busy_s: f64,
    /// Busy time of the accelerators (compute + launches), seconds.
    pub accel_busy_s: f64,
    /// Total link time, seconds.
    pub transfer_s: f64,
    /// FLOPs executed on the edge device.
    pub device_flops: u64,
    /// FLOPs executed on the accelerators.
    pub accel_flops: u64,
    /// Bytes moved over the links.
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
    use crate::task::{enumerate_placements, placement_label};
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
            device_noise: NoiseModel::None,
            accelerators: vec![AcceleratorSlot {
                spec: DeviceSpec {
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
                noise: NoiseModel::None,
                transfer_noise: NoiseModel::None,
            }],
            context_switch_s: 0.0,
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
        let rec = p.execute(&tasks, &[Loc::Accelerator(0)], &mut rng);
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
        let rec = p.execute(
            &tasks,
            &[Loc::Device, Loc::Accelerator(0), Loc::Device],
            &mut rng,
        );
        assert_eq!(
            rec.bytes_transferred,
            8 /*return*/ + 8 /*handoff in*/ + 8 /*handoff out*/
        );
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
        let t_small = p.execute(
            std::slice::from_ref(&small),
            &[Loc::Accelerator(0)],
            &mut rng,
        );
        let t_large = p.execute(
            std::slice::from_ref(&large),
            &[Loc::Accelerator(0)],
            &mut rng,
        );
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
            &[Loc::Accelerator(0)],
            &mut StdRng::seed_from_u64(8),
        );
        let noiseless = noisy_platform.execute_noiseless(&tasks, &[Loc::Accelerator(0)]);
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
        let rec = p.execute(&tasks, &[Loc::Device, Loc::Accelerator(0)], &mut rng);
        assert_eq!(rec.per_task.len(), 2);
        assert_eq!(rec.per_task[0].loc, Loc::Device);
        assert_eq!(rec.per_task[1].loc, Loc::Accelerator(0));
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
                &[Loc::Accelerator(0), Loc::Device, Loc::Accelerator(0)],
                &mut rng,
            )
            .total_time_s;
        let dda = p
            .execute(
                &tasks,
                &[Loc::Device, Loc::Device, Loc::Accelerator(0)],
                &mut rng,
            )
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
            .execute(&seq, &[Loc::Device, Loc::Accelerator(0)], &mut rng)
            .total_time_s;
        // AA: the small task's tensors stay resident, pushing the big task
        // past capacity.
        let aa = p
            .execute(&seq, &[Loc::Accelerator(0), Loc::Accelerator(0)], &mut rng)
            .total_time_s;
        // AA also saves the small task's device time, but the residency
        // throttling on the big task dominates.
        assert!(aa > da, "aa={aa} da={da}");
        // Residue does not slow down device-placed tasks: the big task takes
        // the same device time in AD (small offloaded first) as in DD.
        let ad = p.execute(&seq, &[Loc::Accelerator(0), Loc::Device], &mut rng);
        let dd = p.execute(&seq, &[Loc::Device, Loc::Device], &mut rng);
        // Strip the A→D handoff from the AD record before comparing compute.
        let ad_compute = ad.per_task[1].time_s - ad.per_task[1].transfer_s;
        let dd_compute = dd.per_task[1].time_s - dd.per_task[1].transfer_s;
        assert!((ad_compute - dd_compute).abs() < 1e-12);
    }

    // Platforms with more than one accelerator.

    fn accel_spec(flops: f64, cost: f64) -> DeviceSpec {
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

    fn link_spec(bw: f64) -> LinkSpec {
        LinkSpec {
            name: "l".into(),
            latency_s: 1e-5,
            bandwidth_bytes_per_s: bw,
            energy_per_byte: 1e-9,
        }
    }

    fn two_accel_platform() -> Platform {
        Platform {
            device: accel_spec(1e9, 0.0),
            device_noise: NoiseModel::None,
            accelerators: vec![
                AcceleratorSlot {
                    spec: accel_spec(1e10, 0.1), // fast GPU
                    link: link_spec(1e9),
                    noise: NoiseModel::None,
                    transfer_noise: NoiseModel::None,
                },
                AcceleratorSlot {
                    spec: accel_spec(2e9, 0.01), // slow cheap accelerator
                    link: link_spec(1e8),
                    noise: NoiseModel::None,
                    transfer_noise: NoiseModel::None,
                },
            ],
            context_switch_s: 1e-4,
        }
    }

    fn dense_task(flops: u64) -> Task {
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

    const A: Loc = Loc::Accelerator(0);
    const B: Loc = Loc::Accelerator(1);

    #[test]
    fn letters_and_labels() {
        assert_eq!(Loc::Device.letter(), 'D');
        assert_eq!(Loc::Accelerator(0).letter(), 'A');
        assert_eq!(Loc::Accelerator(2).letter(), 'C');
        let p = vec![Loc::Device, Loc::Accelerator(1)];
        assert_eq!(placement_label(&p), "DB");
    }

    #[test]
    fn enumeration_counts_and_order() {
        let all = enumerate_placements(2, 2);
        assert_eq!(all.len(), 9);
        let labels: Vec<String> = all.iter().map(|p| placement_label(p)).collect();
        assert_eq!(labels[0], "DD");
        assert_eq!(labels[8], "BB");
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), 9);
    }

    #[test]
    fn faster_accelerator_wins_for_compute_dense_task() {
        let p = two_accel_platform();
        p.validate();
        let tasks = vec![dense_task(10_000_000)];
        let mut rng = StdRng::seed_from_u64(201);
        let on_dev = p.execute(&tasks, &[Loc::Device], &mut rng).total_time_s;
        let on_a = p.execute(&tasks, &[A], &mut rng).total_time_s;
        let on_b = p.execute(&tasks, &[B], &mut rng).total_time_s;
        assert!(
            on_a < on_dev,
            "GPU must beat the device: {on_a} vs {on_dev}"
        );
        assert!(on_a < on_b, "GPU must beat the slow accelerator");
    }

    #[test]
    fn accounting_splits_across_accelerators() {
        let p = two_accel_platform();
        let tasks = vec![dense_task(1_000_000), dense_task(2_000_000)];
        let mut rng = StdRng::seed_from_u64(202);
        let rec = p.execute(&tasks, &[A, B], &mut rng);
        let flops_on = |loc: Loc| -> u64 {
            rec.per_task
                .iter()
                .filter(|t| t.loc == loc)
                .map(|t| t.flops)
                .sum()
        };
        assert_eq!(rec.device_flops, 0);
        assert_eq!(flops_on(A), 10_000_000);
        assert_eq!(flops_on(B), 20_000_000);
        // Each task moved its data over its own accelerator's link.
        assert!(rec.per_task[0].transfer_s > 0.0 && rec.per_task[1].transfer_s > 0.0);
        assert!(rec.operating_cost > 0.0);
        assert!(rec.energy.total() > 0.0);
    }

    #[test]
    fn cheap_slow_accelerator_minimizes_cost() {
        let p = two_accel_platform();
        let tasks = vec![dense_task(5_000_000)];
        let mut rng = StdRng::seed_from_u64(203);
        let rec_a = p.execute(&tasks, &[A], &mut rng);
        let rec_b = p.execute(&tasks, &[B], &mut rng);
        // B is slower but its cost rate is 10x lower; with these volumes
        // the total cost on B is lower.
        assert!(rec_b.total_time_s > rec_a.total_time_s);
        assert!(rec_b.operating_cost < rec_a.operating_cost);
    }

    #[test]
    fn measure_produces_sample() {
        let mut p = two_accel_platform();
        p.device_noise = NoiseModel::Gaussian { std_frac: 0.05 };
        let tasks = vec![dense_task(1_000_000)];
        let mut rng = StdRng::seed_from_u64(204);
        let s = p.measure(&tasks, &[Loc::Device], 20, &mut rng).unwrap();
        assert_eq!(s.len(), 20);
        assert!(s.std_dev() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_accelerator_index_panics() {
        let p = two_accel_platform();
        let tasks = vec![dense_task(1)];
        let mut rng = StdRng::seed_from_u64(205);
        p.execute(&tasks, &[Loc::Accelerator(5)], &mut rng);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn enumeration_guard() {
        enumerate_placements(30, 3);
    }

    #[test]
    fn residency_is_per_accelerator() {
        // Two big-ws tasks on DIFFERENT accelerators must not throttle each
        // other; on the SAME accelerator the second one slows down.
        let mut p = two_accel_platform();
        p.accelerators[0].spec.mem_capacity_bytes = 1_500;
        p.accelerators[1].spec.mem_capacity_bytes = 1_500;
        let tasks = vec![dense_task(50_000_000), dense_task(50_000_000)];
        let mut rng = StdRng::seed_from_u64(206);
        let same = p.execute(&tasks, &[A, A], &mut rng).total_time_s;
        // Second accelerator is 5x slower, so compare like against like:
        // same accelerator twice with vs without residency pressure.
        let mut fresh = p.clone();
        fresh.accelerators[0].spec.mem_capacity_bytes = 1 << 30;
        let unthrottled = fresh.execute(&tasks, &[A, A], &mut rng).total_time_s;
        assert!(
            same > unthrottled,
            "residency must throttle the second task"
        );
    }

    #[test]
    fn handoffs_cross_the_link_they_use() {
        // Each handoff crosses the link of the accelerator it enters or,
        // back on the device, of the accelerator it leaves; its bytes are
        // metered on that link.
        let p = two_accel_platform();
        let task = Task {
            handoff_bytes: 1_000_000,
            ..dense_task(1_000)
        };
        let tasks = vec![task.clone(), task.clone(), task.clone()];
        let (link_a, link_b) = (&p.accelerators[0].link, &p.accelerators[1].link);
        let per_iter = |link: &LinkSpec| {
            10.0 * (link.transfer_time(task.offload_bytes_per_iter)
                + link.transfer_time(task.return_bytes_per_iter))
        };
        let handoff = |link: &LinkSpec| link.transfer_time(task.handoff_bytes) + p.context_switch_s;
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-12 * want.abs();
        let (offload, h) = (task.total_offload_bytes(), task.handoff_bytes);

        // A B D: D→A over A's link, A→B over B's link, B→D over B's link.
        let rec = p.execute_noiseless(&tasks, &[A, B, Loc::Device]);
        let t: Vec<f64> = rec.per_task.iter().map(|t| t.transfer_s).collect();
        assert!(close(t[0], per_iter(link_a) + handoff(link_a)), "{t:?}");
        assert!(close(t[1], per_iter(link_b) + handoff(link_b)), "{t:?}");
        assert!(close(t[2], handoff(link_b)), "{t:?}");
        assert_eq!(rec.bytes_transferred, 2 * offload + 3 * h);
        let link_j = link_a.transfer_energy(offload + h) + link_b.transfer_energy(offload + 2 * h);
        assert!(
            close(rec.energy.link_j, link_j),
            "{} vs {link_j}",
            rec.energy.link_j
        );

        // D A D: both handoffs over A's link; B's link stays idle.
        let rec = p.execute_noiseless(&tasks, &[Loc::Device, A, Loc::Device]);
        let t: Vec<f64> = rec.per_task.iter().map(|t| t.transfer_s).collect();
        assert_eq!(t[0], 0.0);
        assert!(close(t[1], per_iter(link_a) + handoff(link_a)), "{t:?}");
        assert!(close(t[2], handoff(link_a)), "{t:?}");
        let link_j = link_a.transfer_energy(offload + 2 * h);
        assert!(
            close(rec.energy.link_j, link_j),
            "{} vs {link_j}",
            rec.energy.link_j
        );
    }
}
