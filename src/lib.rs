//! # relative-performance
//!
//! A complete, self-contained reproduction of *"Performance Comparison for
//! Scientific Computations on the Edge via Relative Performance"* (Sankaran
//! & Bientinesi, 2021, arXiv:2102.12740).
//!
//! Mathematically equivalent algorithms — here, the different ways of
//! splitting a scientific code between an edge device and an accelerator —
//! are clustered into *performance classes* by pair-wise, bootstrap-based
//! three-way comparison of their execution-time distributions, and scored
//! by how confidently they belong to each class.
//!
//! This facade re-exports the five workspace crates:
//!
//! * [`linalg`] — dense linear algebra substrate (GEMM, Cholesky,
//!   the Regularized-Least-Squares `MathTask`, FLOP accounting) plus the
//!   sparse family: CSR/COO, SpMV, and the conjugate-gradient solver,
//!   bit-identity-contracted against their dense oracles,
//! * [`sim`] — the edge-platform simulator (devices, links, noise,
//!   energy/cost metering, calibrated presets),
//! * [`measure`] — samples (a sorted index merged into in place by
//!   every wave), bootstrap, three-way comparators, and the opt-in
//!   bounded-memory [`QuantileSketch`](crate::measure::QuantileSketch),
//! * [`core`] — three-way bubble sort, performance classes, relative
//!   scores, decision models, and the streaming
//!   [`ClusterSession`](crate::core::session::ClusterSession),
//! * [`workloads`] — the paper's Fig. 1 and Table I experiments end to
//!   end, batch or adaptive
//!   ([`measure_until_converged_seeded`](crate::workloads::adaptive::measure_until_converged_seeded)),
//!   plus the sparse FEM scenario
//!   ([`FemScenario`](crate::workloads::fem::FemScenario)) and its
//!   FEM-extended Table I experiment
//!   ([`Experiment::table1_fem`](crate::workloads::experiment::Experiment::table1_fem)),
//! * [`service`] — the multi-tenant hosted session service
//!   ([`SessionService`](crate::service::SessionService)): sharded
//!   registry with snapshot-on-evict, deterministic batch scheduler,
//!   pipelined background runtime
//!   ([`ServiceRuntime`](crate::service::ServiceRuntime)), a checksummed
//!   binary wire protocol with in-proc/unix clients
//!   ([`WireClient`](crate::service::WireClient)), admission control and
//!   load shedding, checkpoint/restore, a durable per-shard op
//!   journal with crash recovery
//!   ([`SessionService::recover`](crate::service::SessionService::recover)),
//!   and journal-shipping replication to deterministic warm standbys
//!   with failover promotion
//!   ([`JournalShipper`](crate::service::JournalShipper) /
//!   [`Follower`](crate::service::Follower)).
//!
//! ## Quickstart
//!
//! ```
//! use relative_performance::prelude::*;
//!
//! // The paper's Table I experiment, scaled down for the doctest.
//! let experiment = Experiment::table1(2);
//! let measured = measure_all_seeded(&experiment, 30, 7, Parallelism::auto());
//!
//! let comparator = BootstrapComparator::new(42);
//! let scores = cluster_measurements_seeded(
//!     &measured,
//!     &comparator,
//!     ClusterConfig::with_repetitions(20),
//!     7,
//! );
//! let clustering = scores.final_assignment();
//! assert!(clustering.num_classes() >= 1);
//! ```

#![warn(missing_docs)]

pub use relperf_core as core;
pub use relperf_linalg as linalg;
pub use relperf_measure as measure;
pub use relperf_parallel as parallel;
pub use relperf_service as service;
pub use relperf_sim as sim;
pub use relperf_workloads as workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use relperf_core::cache::ComparisonCache;
    pub use relperf_core::cluster::{
        relative_scores_seeded, ClusterConfig, Clustering, ScoreTable,
    };
    pub use relperf_core::session::{ClusterSession, ConvergenceCriterion};
    pub use relperf_core::decision::{
        AlgorithmProfile, CostSpeedModel, EnergyBudgetController, Mode,
    };
    pub use relperf_core::sort::{sort, sort_from, sort_with_trace, SortState};
    pub use relperf_measure::compare::{BootstrapComparator, BootstrapConfig, MedianComparator};
    pub use relperf_measure::{
        Outcome, QuantileSketch, Sample, Scratch, ScratchThreeWayComparator,
        SeededThreeWayComparator, ThreeWayComparator,
    };
    pub use relperf_linalg::sparse::{CooMatrix, CsrMatrix, IterSolve, SparseError};
    pub use relperf_parallel::{parallel_map_indexed, parallel_map_indexed_with, Parallelism};
    pub use relperf_service::{
        ClientError, CrashPoint, FileJournalStore, Follower, InProcTransport, JournalConfig,
        JournalShipper, JournalStore, MemJournalStore, OpOutcome, OpResponse, PromotionReport,
        PumpReport, RecoveryError, RecoveryReport, ReplicaState, ReplicationError, RetryPolicy,
        RuntimeConfig, RuntimeError, SegmentTransport, ServiceCampaign, ServiceError,
        ServiceLimits, ServiceRuntime, ServiceStats, SessionOp, SessionService, SessionSpec,
        SessionStatus, ShipperConfig, WireClient, WireError,
    };
    pub use relperf_sim::presets;
    pub use relperf_sim::{Loc, Platform, Task};
    pub use relperf_workloads::adaptive::{
        measure_until_converged_seeded, AdaptiveExperiment, AdaptiveResult, WaveSchedule,
    };
    pub use relperf_workloads::experiment::{
        cluster_measurements_seeded, measure_all_seeded, profiles, Experiment,
        MeasuredAlgorithm,
    };
    pub use relperf_workloads::fem::{FemRun, FemScenario};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_are_wired() {
        // Touch one item from each crate to keep the wiring honest.
        let _ = crate::linalg::Matrix::identity(2);
        let _ = crate::linalg::CsrMatrix::from_dense(&crate::linalg::Matrix::identity(2));
        let _ = crate::workloads::fem::FemScenario::table1().nnz();
        let _ = crate::measure::Sample::new(vec![1.0]).unwrap();
        let _ = crate::sim::presets::fig1_platform();
        let _ = crate::core::sort::SortState::initial(3);
        let _ = crate::workloads::experiment::Experiment::fig1();
        let _ = crate::service::ServiceLimits::default();
    }
}
