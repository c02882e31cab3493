//! The paper's workloads and the end-to-end experiment pipeline.
//!
//! * [`mathtask`] — the Regularized-Least-Squares `MathTask` (Procedure 6)
//!   as both a *real* computation (via `relperf-linalg`) and a *simulated*
//!   task description (for `relperf-sim`).
//! * [`two_loop`] — the Fig. 1 workload: two matrix-multiplication loops
//!   split between device and accelerator (4 algorithms DD/DA/AD/AA).
//! * [`scientific_code`] — the Sec. IV workload (Procedure 5): three
//!   `MathTask`s of sizes 50/75/300 (8 algorithms, Table I).
//! * [`fem`] — the sparse workload family's scenario: FEM assembly of a
//!   Poisson system into CSR (element kernels on the [`mathtask`]
//!   engines) plus a fixed-iteration CG solve, runnable for real and
//!   priced for the simulator by FLOPs *and* byte traffic.
//! * [`experiment`] — glue that measures every placement, clusters the
//!   distributions, and builds decision-model profiles.
//! * [`adaptive`] — the streaming loop over that glue: measure in waves,
//!   re-score a warm [`ClusterSession`](relperf_core::session), stop when
//!   the clustering is stable instead of at a hand-picked `N`.

#![warn(missing_docs)]

pub mod adaptive;
pub mod digital_twin;
pub mod experiment;
pub mod features;
pub mod fem;
pub mod mathtask;
pub mod object_detection;
pub mod scientific_code;
pub mod two_loop;

pub use adaptive::{
    measure_until_converged_seeded, AdaptiveExperiment, AdaptiveResult, WaveSchedule,
};
pub use experiment::{profiles, Experiment, MeasuredAlgorithm};
pub use fem::{FemRun, FemScenario};
