//! Relative performance analysis — the paper's primary contribution.
//!
//! Given `p` mathematically equivalent algorithms and a three-way comparator
//! over their measurement distributions (`relperf-measure`), this crate
//!
//! 1. sorts the algorithms with a **three-way bubble sort** whose rank
//!    update rules merge equivalent algorithms into the same performance
//!    class ([`sort`](mod@sort), Procedures 1–3 of the paper),
//! 2. repeats the clustering over shuffled inputs to compute **relative
//!    scores** — the confidence of each algorithm's membership in each
//!    class ([`cluster`], Procedure 4),
//! 3. applies **decision models** that pick an algorithm from the clusters
//!    under additional criteria such as operating cost or an energy budget
//!    ([`decision`], Sec. IV), and
//! 4. renders the tables and figures of the paper from those results
//!    ([`report`]).
//!
//! The clustering engine is [`relative_scores_seeded`]: per-repetition
//! seed streams (`relperf_measure::stream_seed`), per-repetition
//! [`cache::ComparisonCache`]s, and work fanned out across threads via
//! [`cluster::Parallelism`] — bit-identical for any thread count.
//!
//! On top of the batch engine, [`session::ClusterSession`] streams the
//! same computation: measurements arrive in waves, every repetition's
//! comparison cache stays warm across waves (only pairs touching updated
//! samples are invalidated), and a [`session::ConvergenceCriterion`]
//! answers "have we measured enough?" — the adaptive-stopping layer the
//! batch entry points are thin one-wave wrappers over.

#![warn(missing_docs)]

pub mod cache;
pub mod cluster;
pub mod decision;
pub mod predict;
pub mod report;
pub mod search;
pub mod session;
pub mod similarity;
pub mod sort;
pub mod triplet;

pub use cache::ComparisonCache;
pub use cluster::{relative_scores_seeded, ClusterConfig, Clustering, Parallelism, ScoreTable};
pub use session::{ClusterSession, ConvergenceCriterion, CriterionError, SessionState};
pub use relperf_measure::Outcome;
pub use sort::{sort, sort_with_trace, SortState, SortStep};
