//! Edge-computing simulator.
//!
//! The paper measures a scientific code on a concrete testbed (Intel Xeon
//! Platinum 8160 + NVIDIA P100 over PCIe, TensorFlow 2.1). That hardware is
//! not available here, so this crate provides the substitute substrate: a
//! deterministic, seeded simulator of an edge platform — an edge *device*
//! `D` and one or more *accelerators* `A`, `B`, … ([`Platform`]; the presets
//! carry one, as the paper's testbed does) — with
//!
//! * per-device compute throughput, memory capacity and memory-pressure
//!   throttling ([`device`]),
//! * one interconnect per accelerator with latency, bandwidth and per-byte
//!   energy ([`link`]),
//! * stochastic measurement noise from scratch-built distributions
//!   ([`noise`]),
//! * a task/placement execution model with per-iteration offload transfers
//!   and kernel-launch overhead ([`task`], [`executor`]),
//! * energy and operating-cost metering ([`energy`]),
//! * calibrated platform presets reproducing the paper's qualitative
//!   behaviour ([`presets`]).
//!
//! The paper itself notes (footnote 2) that other device/accelerator pairs
//! "can be simulated by adding artificial delays and controlling the number
//! of threads" — this crate is the systematic version of that remark.

#![warn(missing_docs)]

pub mod device;
pub mod energy;
pub mod executor;
pub mod link;
pub mod noise;
pub mod presets;
pub mod task;
pub mod trace;

pub use device::{DeviceKind, DeviceSpec};
pub use executor::{AcceleratorSlot, ExecutionRecord, Platform};
pub use link::LinkSpec;
pub use noise::NoiseModel;
pub use task::{enumerate_placements, placement_label, Loc, Task};
