//! Calibrated platform presets.
//!
//! Each preset is a *calibration*, not a spec sheet: constants are chosen so
//! that the simulated workloads reproduce the qualitative structure the
//! paper measured on its Xeon-8160 + P100 testbed (who wins, which
//! distributions overlap, roughly what factors separate the classes).
//! Absolute times are in the right ballpark but are not the point — the
//! calibration tests in `relperf-workloads` (`tests/calibration.rs`) pin
//! the structure each preset must reproduce.

use crate::device::{DeviceKind, DeviceSpec};
use crate::executor::{AcceleratorSlot, Platform};
use crate::link::LinkSpec;
use crate::noise::NoiseModel;

/// Edge CPU modelled on a single Xeon-class core (dense-kernel rate).
fn edge_cpu() -> DeviceSpec {
    DeviceSpec {
        name: "xeon-8160-1core".into(),
        kind: DeviceKind::EdgeCpu,
        peak_flops: 5.0e10,
        mem_capacity_bytes: 16 << 30, // effectively unthrottled
        mem_pressure_penalty: 0.0,
        energy_per_flop: 0.6e-9,
        idle_power_watts: 12.0,
        cost_per_second: 0.0, // the device is already owned, per Sec. IV
        launch_overhead_s: 0.0,
    }
}

/// The platform of the paper's Fig. 1 experiment (two-loop code, four
/// placements DD/DA/AD/AA): a strong accelerator whose *effective* memory
/// for this workload class is small, so the larger loop's working set
/// throttles it — the paper's "data-movement overhead slightly more than
/// the speed-up gain".
pub fn fig1_platform() -> Platform {
    let p = Platform {
        device: edge_cpu(),
        device_noise: NoiseModel::GaussianWithSpikes {
            std_frac: 0.012,
            spike_prob: 0.02,
            spike_alpha: 2.0,
            spike_scale: 0.05,
        },
        accelerators: vec![AcceleratorSlot {
            spec: DeviceSpec {
                name: "p100-edge-slice".into(),
                kind: DeviceKind::Gpu,
                peak_flops: 2.0e11, // 4x the edge core on dense kernels
                mem_capacity_bytes: 2_400_000,
                mem_pressure_penalty: 0.141,
                energy_per_flop: 0.25e-9,
                idle_power_watts: 30.0,
                cost_per_second: 2.0e-2,
                launch_overhead_s: 1.0e-5,
            },
            link: pcie_link(),
            noise: NoiseModel::LogNormal { sigma: 0.012 },
            transfer_noise: NoiseModel::LogNormal { sigma: 0.05 },
        }],
        context_switch_s: 5.0e-4,
    };
    p.validate();
    p
}

/// The platform of the paper's Table I experiment (three `MathTask`s of
/// sizes 50/75/300): a modest accelerator where per-iteration launch and
/// transfer overheads make offloading the small tasks a loss while the
/// size-300 task gains ~5% end to end (the paper's 1.05 speed-up of
/// `alg_DDA` over `alg_DDD`), and framework context switches penalize
/// ping-pong placements.
pub fn table1_platform() -> Platform {
    let p = Platform {
        device: edge_cpu(),
        device_noise: NoiseModel::GaussianWithSpikes {
            std_frac: 0.012,
            spike_prob: 0.02,
            spike_alpha: 2.0,
            spike_scale: 0.05,
        },
        accelerators: vec![AcceleratorSlot {
            spec: DeviceSpec {
                name: "edge-accelerator".into(),
                kind: DeviceKind::Gpu,
                peak_flops: 5.95e10, // modest 1.19x advantage on dense kernels
                mem_capacity_bytes: 2_300_000,
                mem_pressure_penalty: 12.0,
                energy_per_flop: 0.3e-9,
                idle_power_watts: 20.0,
                cost_per_second: 2.0e-2,
                launch_overhead_s: 4.0e-5,
            },
            link: LinkSpec {
                name: "pcie3-x16".into(),
                latency_s: 3.0e-5,
                bandwidth_bytes_per_s: 2.0e10,
                energy_per_byte: 1.2e-9,
            },
            noise: NoiseModel::LogNormal { sigma: 0.012 },
            transfer_noise: NoiseModel::LogNormal { sigma: 0.05 },
        }],
        context_switch_s: 2.5e-3,
    };
    p.validate();
    p
}

/// The Table-I testbed reused for the **FEM-extended** experiment: the
/// three dense `MathTask`s plus the sparse FEM assembly/solve task
/// (4 tasks, 16 placements).
///
/// Deliberately the *same calibration* as [`table1_platform`] — the dense
/// classes must stay where Table I put them; what changes is the new
/// task's pricing. The sparse solve's working set is its byte traffic
/// (see [`crate::Task::cg_solve_loop`]), and at FEM scale that traffic is
/// many times this accelerator's 2.3 MB effective capacity, so
/// [`crate::DeviceSpec::effective_flops`]'s roofline throttles offloaded
/// FEM hard while the (unthrottled, big-memory) edge device runs it at
/// full rate. Dense working sets (≤ ~2.2 MB at size 300) stay under the
/// knee — the new performance class comes from bandwidth, not from a
/// retuned platform.
pub fn table1_fem_platform() -> Platform {
    table1_platform()
}

fn pcie_link() -> LinkSpec {
    LinkSpec {
        name: "pcie3-x16".into(),
        latency_s: 2.0e-5,
        bandwidth_bytes_per_s: 2.0e10,
        energy_per_byte: 1.2e-9,
    }
}

/// A CPU + Raspberry-Pi-class pairing (paper Sec. I: "CPU-Raspbian"): the
/// "accelerator" is *slower* than the device but far cheaper energetically —
/// useful for exercising the energy-aware decision models.
pub fn raspberry_platform() -> Platform {
    let p = Platform {
        device: edge_cpu(),
        device_noise: NoiseModel::Gaussian { std_frac: 0.015 },
        accelerators: vec![AcceleratorSlot {
            spec: DeviceSpec {
                name: "raspberry-pi-4".into(),
                kind: DeviceKind::RaspberryPi,
                peak_flops: 5.0e9, // 10x slower
                mem_capacity_bytes: 512 << 20,
                mem_pressure_penalty: 1.0,
                energy_per_flop: 0.15e-9,
                idle_power_watts: 2.5,
                cost_per_second: 0.0,
                launch_overhead_s: 5.0e-5,
            },
            link: LinkSpec {
                name: "gigabit-ethernet".into(),
                latency_s: 2.0e-4,
                bandwidth_bytes_per_s: 1.2e8,
                energy_per_byte: 6.0e-9,
            },
            noise: NoiseModel::GaussianWithSpikes {
                std_frac: 0.04,
                spike_prob: 0.05,
                spike_alpha: 1.8,
                spike_scale: 0.2,
            },
            transfer_noise: NoiseModel::LogNormal { sigma: 0.15 },
        }],
        context_switch_s: 1.0e-3,
    };
    p.validate();
    p
}

/// A smartphone SoC offloading to a cloudlet GPU over Wi-Fi (paper Sec. I:
/// "Smartphone-GPU(s)"): big compute gain, expensive and noisy link.
pub fn smartphone_platform() -> Platform {
    let p = Platform {
        device: DeviceSpec {
            name: "smartphone-soc".into(),
            kind: DeviceKind::Smartphone,
            peak_flops: 8.0e9,
            mem_capacity_bytes: 2 << 30,
            mem_pressure_penalty: 2.0,
            energy_per_flop: 0.2e-9,
            idle_power_watts: 1.2,
            cost_per_second: 0.0,
            launch_overhead_s: 0.0,
        },
        device_noise: NoiseModel::Gaussian { std_frac: 0.03 },
        accelerators: vec![AcceleratorSlot {
            spec: DeviceSpec {
                name: "cloudlet-gpu".into(),
                kind: DeviceKind::Server,
                peak_flops: 5.0e12,
                mem_capacity_bytes: 16 << 30,
                mem_pressure_penalty: 0.5,
                energy_per_flop: 0.1e-9,
                idle_power_watts: 80.0,
                cost_per_second: 0.1,
                launch_overhead_s: 1.0e-4,
            },
            link: LinkSpec {
                name: "wifi-5".into(),
                latency_s: 3.0e-3,
                bandwidth_bytes_per_s: 5.0e7,
                energy_per_byte: 2.0e-8,
            },
            noise: NoiseModel::Gaussian { std_frac: 0.02 },
            transfer_noise: NoiseModel::GaussianWithSpikes {
                std_frac: 0.1,
                spike_prob: 0.1,
                spike_alpha: 1.5,
                spike_scale: 0.5,
            },
        }],
        context_switch_s: 5.0e-3,
    };
    p.validate();
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        fig1_platform();
        table1_platform();
        table1_fem_platform();
        raspberry_platform();
        smartphone_platform();
    }

    #[test]
    fn fem_platform_throttles_sparse_traffic_but_not_dense_sets() {
        let p = table1_fem_platform();
        // A dense size-300 MathTask working set (3 matrices ≈ 2.16 MB)
        // stays at full accelerator rate...
        let dense_ws = 3 * 8 * 300 * 300u64;
        assert_eq!(
            p.accelerators[0].spec.effective_flops(dense_ws),
            p.accelerators[0].spec.peak_flops
        );
        // ...while FEM-scale sparse byte traffic (tens of MB per solve)
        // is throttled by more than an order of magnitude — the mechanism
        // that gives the sparse family its own performance class.
        let sparse_traffic = 12_000_000u64;
        assert!(
            p.accelerators[0].spec.effective_flops(sparse_traffic) * 10.0
                < p.accelerators[0].spec.peak_flops
        );
        // The edge device is never throttled at these scales.
        assert_eq!(
            p.device.effective_flops(sparse_traffic),
            p.device.peak_flops
        );
    }

    #[test]
    fn fig1_accelerator_is_faster_but_memory_constrained() {
        let p = fig1_platform();
        assert!(p.accelerators[0].spec.peak_flops > p.device.peak_flops);
        assert!(p.accelerators[0].spec.mem_capacity_bytes < p.device.mem_capacity_bytes);
    }

    #[test]
    fn table1_accelerator_has_modest_advantage() {
        let p = table1_platform();
        let ratio = p.accelerators[0].spec.peak_flops / p.device.peak_flops;
        assert!(ratio > 1.0 && ratio < 1.5, "ratio {ratio}");
    }

    #[test]
    fn raspberry_is_slower_but_more_efficient() {
        let p = raspberry_platform();
        assert!(p.accelerators[0].spec.peak_flops < p.device.peak_flops);
        assert!(p.accelerators[0].spec.energy_per_flop < p.device.energy_per_flop);
    }

    #[test]
    fn smartphone_link_is_high_latency() {
        let p = smartphone_platform();
        assert!(p.accelerators[0].link.latency_s >= 1e-3);
        assert!(p.accelerators[0].spec.cost_per_second > 0.0);
    }
}
