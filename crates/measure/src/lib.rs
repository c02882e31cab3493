//! Measurement collection, sample statistics, bootstrap resampling, and the
//! three-way distribution comparison at the heart of relative performance
//! analysis.
//!
//! The paper's methodology never reduces a set of performance measurements
//! to a single number. A measured algorithm is represented by a [`Sample`]
//! (all `N` measurements); two samples are compared with a
//! [`compare::ThreeWayComparator`] which returns one of three
//! [`compare::Outcome`]s — `Better`, `Worse`, or `Equivalent` — using the
//! bootstrap strategy of Sankaran & Bientinesi (arXiv:2010.07226), the
//! companion method paper cited as \[15\].
//!
//! Modules:
//!
//! * [`sample`] — the `Sample` type with quantiles, moments, histograms,
//!   and the sorted index (built on first read, merged into in place by
//!   every later write) the comparator fast path rides on.
//! * [`bootstrap`] — resampling engine (buffer- and count-vector forms),
//!   percentile confidence intervals, and the [`bootstrap::QuantilePlan`]
//!   one-pass quantile reader.
//! * [`compare`] — three-way comparators (bootstrap quantile-dominance,
//!   mean-CI/TOST, deterministic scripted comparators for tests), the
//!   [`compare::SeededThreeWayComparator`] contract for order-independent
//!   stochastic comparison, the [`compare::Scratch`] arena threaded
//!   through the allocation-free O(n) bootstrap round
//!   ([`compare::ScratchThreeWayComparator`]), and [`compare::stream_seed`],
//!   the workspace's per-index seed derivation.
//! * [`merge`] — the sorted-merge walk the Mann–Whitney rank statistic
//!   runs over two samples' sorted views.
//! * [`ranksum`] — the Mann–Whitney U comparator for ablations.
//! * [`sketch`] — bounded-memory quantile sketching
//!   ([`QuantileSketch`]) for streams too large to retain; rank-approximate
//!   quantiles, exact count/extremes/mean, mergeable.
//! * [`timer`] — wall-clock measurement harness with warmup control.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod compare;
pub mod merge;
pub mod ranksum;
pub mod sample;
pub mod sketch;
pub mod timer;

pub use compare::{
    stream_seed, BootstrapComparator, Outcome, Scratch, ScratchThreeWayComparator,
    SeededThreeWayComparator, ThreeWayComparator,
};
pub use sample::Sample;
pub use sketch::QuantileSketch;
