//! Streaming clustering sessions with warm caches and adaptive stopping.
//!
//! The paper's Procedures 1–4 assume a fixed, pre-chosen number of
//! measurements `N` per algorithm — but never say how large `N` must be.
//! In a live system measurements arrive one at a time and wasting them is
//! the dominant cost, so the natural question is the inverse one: *have we
//! measured enough for the classes to be trustworthy?*
//!
//! A [`ClusterSession`] answers it by turning the batch pipeline into a
//! loop: ingest a wave of measurements ([`push`](ClusterSession::push) /
//! [`extend`](ClusterSession::extend), riding `Sample`'s incremental
//! binary-insert), re-score ([`score`](ClusterSession::score)) with
//! **warm caches** — each of the `Rep` repetitions keeps its
//! [`ComparisonCache`] across waves, and only the pairs touching updated
//! samples are invalidated — and check a [`ConvergenceCriterion`]: stop
//! once the [`ScoreTable`] and final [`Clustering`] have been stable for
//! `stable_waves` consecutive waves within `score_tol`.
//!
//! Determinism is inherited wholesale from the seeded batch engine: every
//! comparison outcome is a pure function of `(samples, stream)`, so a
//! session wave is **bit-identical** to running the batch
//! [`relative_scores_seeded`](crate::cluster::relative_scores_seeded)
//! on the session's current samples — for any
//! [`Parallelism`], and regardless of how
//! the measurements were split into waves. The batch entry points are in
//! fact thin wrappers over a one-wave session (see
//! `relperf_workloads::experiment::cluster_measurements_seeded`).

use crate::cache::ComparisonCache;
use crate::cluster::{scored_wave, ClusterConfig, Clustering, Parallelism, ScoreTable};
use relperf_measure::sample::SampleError;
use relperf_measure::{Sample, ScratchThreeWayComparator};
use std::sync::Mutex;

/// When is a streamed clustering "measured enough"?
///
/// After each scored wave the session compares the new [`ScoreTable`]
/// against the previous wave's: the wave is *stable* when every
/// `(algorithm, class)` relative score moved by at most `score_tol`
/// **and** the final [`Clustering`] assigns every algorithm to the same
/// class as before. The session is converged once `stable_waves`
/// consecutive waves were stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvergenceCriterion {
    /// Consecutive stable waves required to declare convergence (≥ 1).
    pub stable_waves: usize,
    /// Largest tolerated per-score movement between consecutive waves.
    pub score_tol: f64,
}

impl Default for ConvergenceCriterion {
    /// Two consecutive stable waves within a 0.05 score tolerance — tight
    /// enough that borderline classes must stop flapping, loose enough
    /// that the `1/Rep` score quantization doesn't block convergence.
    fn default() -> Self {
        ConvergenceCriterion {
            stable_waves: 2,
            score_tol: 0.05,
        }
    }
}

impl ConvergenceCriterion {
    /// Validates the criterion, panicking with a descriptive message on
    /// nonsensical values. Construction-time boundaries (the session
    /// constructors) keep this panicking form; admission paths that must
    /// reject rather than crash (the `relperf-service` session service)
    /// use [`try_validate`](ConvergenceCriterion::try_validate).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Validates the criterion without panicking — the admission-control
    /// form: a hosted service rejects a bad tenant-supplied criterion with
    /// a typed error instead of taking the process down.
    pub fn try_validate(&self) -> Result<(), CriterionError> {
        if self.stable_waves < 1 {
            return Err(CriterionError::ZeroStableWaves);
        }
        if !(self.score_tol >= 0.0 && self.score_tol.is_finite()) {
            return Err(CriterionError::BadTolerance {
                score_tol: self.score_tol,
            });
        }
        Ok(())
    }
}

/// Why a [`ConvergenceCriterion`] was rejected by
/// [`try_validate`](ConvergenceCriterion::try_validate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CriterionError {
    /// `stable_waves` was 0 — convergence would trigger immediately.
    ZeroStableWaves,
    /// `score_tol` was negative, NaN, or infinite.
    BadTolerance {
        /// The offending tolerance.
        score_tol: f64,
    },
}

impl std::fmt::Display for CriterionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CriterionError::ZeroStableWaves => write!(f, "need at least one stable wave"),
            CriterionError::BadTolerance { score_tol } => write!(
                f,
                "score tolerance must be finite and non-negative, got {score_tol}"
            ),
        }
    }
}

impl std::error::Error for CriterionError {}

/// A streaming measure → compare → cluster session (see the [module
/// docs](self) for the design).
///
/// Owns the comparator, the per-repetition [`ComparisonCache`]s (warm
/// across waves), and a pool of comparator scratch arenas reused by the
/// worker threads of every wave.
///
/// # Examples
///
/// ```
/// use relperf_core::session::{ClusterSession, ConvergenceCriterion};
/// use relperf_core::cluster::ClusterConfig;
/// use relperf_measure::compare::MedianComparator;
///
/// // Two clearly separated algorithms, measured three values at a time.
/// let mut session = ClusterSession::new(
///     2,
///     MedianComparator::new(0.05),
///     ClusterConfig::with_repetitions(20),
///     7,
/// );
/// let mut wave = 0;
/// while !session.converged() && wave < 10 {
///     session.extend(0, &[1.0, 1.1, 0.9]).unwrap();
///     session.extend(1, &[2.0, 2.1, 1.9]).unwrap();
///     session.score();
///     wave += 1;
/// }
/// assert!(session.converged());
/// let clustering = session.clustering().unwrap();
/// assert_eq!(clustering.assignment(0).rank, 1);
/// assert_eq!(clustering.assignment(1).rank, 2);
/// ```
pub struct ClusterSession<C: ScratchThreeWayComparator + Sync> {
    comparator: C,
    config: ClusterConfig,
    seed: u64,
    criterion: ConvergenceCriterion,
    samples: Vec<Option<Sample>>,
    /// Algorithms whose sample changed since the last scored wave.
    dirty: Vec<bool>,
    /// Whether anything was ingested since the last scored wave — an
    /// evidence-free re-score must not advance the convergence state.
    ingested: bool,
    /// Repetition `r`'s memo of pairwise outcomes, valid for the current
    /// samples of all non-dirty pairs. Persisted across waves.
    caches: Vec<ComparisonCache>,
    /// Scratch arenas returned by workers after each wave and handed back
    /// out on the next — allocation amortized across the whole session.
    pool: Mutex<Vec<C::Scratch>>,
    table: Option<ScoreTable>,
    waves: usize,
    stable_run: usize,
    converged: bool,
}

impl<C: ScratchThreeWayComparator + Sync> ClusterSession<C> {
    /// A session over `p` algorithms with the default
    /// [`ConvergenceCriterion`]. `config` and `seed` mean exactly what
    /// they mean for
    /// [`relative_scores_seeded`](crate::cluster::relative_scores_seeded);
    /// the comparator may be owned or borrowed (`&C` is a comparator too).
    ///
    /// # Panics
    /// Panics when `p == 0` or `config.repetitions == 0`.
    pub fn new(p: usize, comparator: C, config: ClusterConfig, seed: u64) -> Self {
        Self::with_criterion(p, comparator, config, seed, ConvergenceCriterion::default())
    }

    /// A session with an explicit [`ConvergenceCriterion`].
    ///
    /// # Panics
    /// Panics when `p == 0`, `config.repetitions == 0`, or the criterion
    /// is invalid.
    pub fn with_criterion(
        p: usize,
        comparator: C,
        config: ClusterConfig,
        seed: u64,
        criterion: ConvergenceCriterion,
    ) -> Self {
        assert!(p > 0, "need at least one algorithm");
        assert!(config.repetitions > 0, "need at least one repetition");
        criterion.validate();
        ClusterSession {
            comparator,
            config,
            seed,
            criterion,
            samples: (0..p).map(|_| None).collect(),
            dirty: vec![false; p],
            ingested: false,
            caches: (0..config.repetitions).map(|_| ComparisonCache::new(p)).collect(),
            pool: Mutex::new(Vec::new()),
            table: None,
            waves: 0,
            stable_run: 0,
            converged: false,
        }
    }

    /// Rebuilds a session from an exported [`SessionState`] — the
    /// checkpoint/restore path of the hosted session service.
    ///
    /// The comparator, `config`, `seed`, and `criterion` are *not* part of
    /// the state (a comparator is code, not data); the caller supplies
    /// them, and they must match the original session's for the restored
    /// session to continue identically. The per-repetition comparison
    /// caches restart **cold**: every outcome is a pure function of
    /// `(samples, stream)`, so the first wave after a restore recomputes
    /// what the warm caches held and lands on bit-identical tables — the
    /// restored session is indistinguishable from one that never stopped,
    /// wave for wave (golden-tested in `relperf-service`).
    ///
    /// # Panics
    /// Panics when the state's vectors disagree about `p`, when `p == 0`
    /// or `config.repetitions == 0`, or when the criterion is invalid.
    pub fn restore(
        comparator: C,
        config: ClusterConfig,
        seed: u64,
        criterion: ConvergenceCriterion,
        state: SessionState,
    ) -> Self {
        match Self::try_restore(comparator, config, seed, criterion, state) {
            Ok(session) => session,
            Err(what) => panic!("{what}"),
        }
    }

    /// The non-panicking form of [`restore`](ClusterSession::restore) —
    /// the rehydration hook the hosted service uses when a spilled
    /// session's snapshot bytes come back to life on a tenant's touch:
    /// every inconsistency is reported as a typed message instead of
    /// taking the process down.
    ///
    /// Validation mirrors the constructor panics plus
    /// [`SessionState::check_consistent`].
    pub fn try_restore(
        comparator: C,
        config: ClusterConfig,
        seed: u64,
        criterion: ConvergenceCriterion,
        state: SessionState,
    ) -> Result<Self, &'static str> {
        if state.samples.is_empty() {
            return Err("need at least one algorithm");
        }
        if config.repetitions == 0 {
            return Err("need at least one repetition");
        }
        if criterion.try_validate().is_err() {
            return Err("invalid convergence criterion");
        }
        state.check_consistent()?;
        let mut session = Self::with_criterion(
            state.samples.len(),
            comparator,
            config,
            seed,
            criterion,
        );
        session.samples = state.samples;
        session.dirty = state.dirty;
        session.ingested = state.ingested;
        session.table = state.table;
        session.waves = state.waves;
        session.stable_run = state.stable_run;
        session.converged = state.converged;
        Ok(session)
    }

    /// Exports everything a checkpoint must carry to rebuild this session
    /// via [`restore`](ClusterSession::restore): samples, dirty flags, the
    /// last score table, and the convergence bookkeeping. Warm caches are
    /// deliberately excluded — they are a recomputable pure function of
    /// the samples (see [`restore`](ClusterSession::restore)).
    pub fn export_state(&self) -> SessionState {
        SessionState {
            samples: self.samples.clone(),
            dirty: self.dirty.clone(),
            ingested: self.ingested,
            table: self.table.clone(),
            waves: self.waves,
            stable_run: self.stable_run,
            converged: self.converged,
        }
    }

    /// Number of algorithms `p`.
    pub fn num_algorithms(&self) -> usize {
        self.samples.len()
    }

    /// Borrow the comparator.
    pub fn comparator(&self) -> &C {
        &self.comparator
    }

    /// The session's convergence criterion.
    pub fn criterion(&self) -> ConvergenceCriterion {
        self.criterion
    }

    /// The session's clustering configuration.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    /// The session's clustering seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Ingests one measurement for algorithm `alg`, invalidating the
    /// cached comparisons that touch it at the next
    /// [`score`](ClusterSession::score).
    ///
    /// # Panics
    /// Panics when `alg` is out of range.
    pub fn push(&mut self, alg: usize, value: f64) -> Result<(), SampleError> {
        match &mut self.samples[alg] {
            Some(sample) => sample.push(value)?,
            slot @ None => *slot = Some(Sample::new(vec![value])?),
        }
        self.dirty[alg] = true;
        self.ingested = true;
        Ok(())
    }

    /// Ingests a wave of measurements for algorithm `alg` through the
    /// sample's bulk path ([`Sample::try_extend_all`]): once a score has
    /// read the sample, the wave is sorted once and merged into its sorted
    /// index in a single pass; before that, it is only appended, and the
    /// first score builds the index. Either way the result is
    /// bit-identical to (and far cheaper than) pushing each value
    /// individually. Streaming error semantics: on the first non-finite
    /// value everything before it is ingested, the error is returned, and
    /// the remaining values are not — exactly as the per-element loop
    /// behaved. See [`try_extend_all`](ClusterSession::try_extend_all)
    /// for the all-or-nothing variant.
    ///
    /// # Panics
    /// Panics when `alg` is out of range.
    pub fn extend(&mut self, alg: usize, values: &[f64]) -> Result<(), SampleError> {
        let bad = values.iter().position(|v| !v.is_finite());
        let prefix = &values[..bad.unwrap_or(values.len())];
        if !prefix.is_empty() {
            match &mut self.samples[alg] {
                Some(sample) => sample.try_extend_all(prefix).expect("prefix is all-finite"),
                slot @ None => *slot = Some(Sample::new(prefix.to_vec()).expect("all-finite")),
            }
            self.dirty[alg] = true;
            self.ingested = true;
        }
        match bad {
            Some(_) => Err(SampleError::NonFinite(self.measurements(alg))),
            None => Ok(()),
        }
    }

    /// All-or-nothing wave ingest ([`Sample::try_extend_all`]): the whole
    /// wave is validated before anything mutates, so a non-finite value
    /// anywhere leaves the session untouched and the returned
    /// [`SampleError::NonFinite`] carries the offender's index **within
    /// `values`**. The transactional contract service callers want; the
    /// streaming [`extend`](ClusterSession::extend) keeps the
    /// partial-prefix semantics. Like `extend`, a wave into a sample no
    /// score has read yet only appends.
    ///
    /// An empty wave is a no-op `Ok(())` — it ingests nothing and does
    /// not mark the session dirty.
    ///
    /// # Panics
    /// Panics when `alg` is out of range.
    pub fn try_extend_all(&mut self, alg: usize, values: &[f64]) -> Result<(), SampleError> {
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(SampleError::NonFinite(i));
        }
        if values.is_empty() {
            return Ok(());
        }
        match &mut self.samples[alg] {
            Some(sample) => sample.try_extend_all(values).expect("validated above"),
            slot @ None => *slot = Some(Sample::new(values.to_vec()).expect("validated above")),
        }
        self.dirty[alg] = true;
        self.ingested = true;
        Ok(())
    }

    /// Replaces algorithm `alg`'s sample wholesale (the batch-wrapper
    /// path: all measurements already exist as a [`Sample`]).
    ///
    /// # Panics
    /// Panics when `alg` is out of range.
    pub fn set_sample(&mut self, alg: usize, sample: Sample) {
        self.samples[alg] = Some(sample);
        self.dirty[alg] = true;
        self.ingested = true;
    }

    /// Algorithm `alg`'s current sample, if it has any measurements yet.
    pub fn sample(&self, alg: usize) -> Option<&Sample> {
        self.samples[alg].as_ref()
    }

    /// Measurements ingested so far for algorithm `alg`.
    pub fn measurements(&self, alg: usize) -> usize {
        self.samples[alg].as_ref().map_or(0, Sample::len)
    }

    /// Measurements ingested so far across all algorithms — the budget an
    /// adaptive experiment is trying to minimize.
    pub fn total_measurements(&self) -> usize {
        (0..self.samples.len()).map(|i| self.measurements(i)).sum()
    }

    /// Runs one scored wave: invalidates the cached comparisons of every
    /// algorithm whose sample changed, recomputes the [`ScoreTable`] with
    /// warm caches, and updates the convergence state.
    ///
    /// The returned table is **bit-identical** to
    /// [`relative_scores_seeded`](crate::cluster::relative_scores_seeded)
    /// over the session's current samples with the same `config` and
    /// `seed`, for any `Parallelism` — no matter how the measurements were
    /// split into waves.
    ///
    /// A `score()` with **no new measurements** since the previous one is
    /// a no-op: it returns the previous table and leaves the wave count
    /// and convergence state untouched. Stability is only ever assessed
    /// between waves that added evidence — re-scoring on a timer (or any
    /// other ingest-free call pattern) cannot talk the session into
    /// converging.
    ///
    /// # Panics
    /// Panics unless every algorithm has at least one measurement.
    pub fn score(&mut self) -> &ScoreTable {
        self.score_with(self.config.parallelism)
    }

    /// [`score`](ClusterSession::score) on `parallelism` for this call
    /// only: the wave runs with it in place of `config().parallelism`,
    /// which stays as it was. The table is the same for any
    /// `parallelism`, so a host can size each wave to the cores it has
    /// free without touching the session's exported configuration.
    ///
    /// # Panics
    /// Panics unless every algorithm has at least one measurement.
    pub fn score_with(&mut self, parallelism: Parallelism) -> &ScoreTable {
        let p = self.samples.len();
        assert!(
            self.samples.iter().all(Option::is_some),
            "every algorithm needs at least one measurement before scoring"
        );
        if !std::mem::take(&mut self.ingested) && self.table.is_some() {
            // Nothing changed: the wave would replay the previous table
            // from warm caches. Don't let it count as evidence.
            return self.table.as_ref().expect("checked above");
        }
        for alg in 0..p {
            if std::mem::take(&mut self.dirty[alg]) {
                for cache in &mut self.caches {
                    cache.invalidate_algorithm(alg);
                }
            }
        }

        // Disjoint field borrows: workers read comparator/samples/pool,
        // the engine writes the caches back.
        let comparator = &self.comparator;
        let samples = &self.samples;
        let pool = &self.pool;
        let table = scored_wave(
            p,
            ClusterConfig { parallelism, ..self.config },
            self.seed,
            &mut self.caches,
            &|| PoolGuard::checkout(pool, || comparator.new_scratch()),
            &|guard: &mut PoolGuard<'_, C::Scratch>, stream, a, b| {
                let sa = samples[a].as_ref().expect("checked above");
                let sb = samples[b].as_ref().expect("checked above");
                comparator.compare_seeded_scratch(guard.scratch(), sa, sb, stream)
            },
        );

        // Convergence bookkeeping against the previous wave.
        if let Some(prev) = &self.table {
            let scores_stable = prev.max_abs_diff(&table) <= self.criterion.score_tol;
            let classes_stable = same_classes(&prev.final_assignment(), &table.final_assignment());
            if scores_stable && classes_stable {
                self.stable_run += 1;
            } else {
                self.stable_run = 0;
            }
            if self.stable_run >= self.criterion.stable_waves {
                self.converged = true;
            }
        }
        self.waves += 1;
        self.table = Some(table);
        self.table.as_ref().expect("just stored")
    }

    /// The most recent [`ScoreTable`], if a wave has been scored.
    pub fn table(&self) -> Option<&ScoreTable> {
        self.table.as_ref()
    }

    /// The final clustering of the most recent wave.
    pub fn clustering(&self) -> Option<Clustering> {
        self.table.as_ref().map(ScoreTable::final_assignment)
    }

    /// `true` once the criterion has been met. Convergence latches: more
    /// waves may still be scored, but the flag never goes back down.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Number of scored waves so far.
    pub fn waves(&self) -> usize {
        self.waves
    }

    /// Length of the current run of consecutive stable waves.
    pub fn stable_run(&self) -> usize {
        self.stable_run
    }
}

impl<C: ScratchThreeWayComparator + Sync> std::fmt::Debug for ClusterSession<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSession")
            .field("p", &self.samples.len())
            .field("waves", &self.waves)
            .field("total_measurements", &self.total_measurements())
            .field("stable_run", &self.stable_run)
            .field("converged", &self.converged)
            .finish_non_exhaustive()
    }
}

/// The data half of a [`ClusterSession`], as captured by
/// [`export_state`](ClusterSession::export_state) and consumed by
/// [`restore`](ClusterSession::restore).
///
/// This is deliberately a plain public struct: the serialization codec
/// lives *outside* this crate (`relperf-service`'s versioned binary
/// snapshot format), and anything that can fill these fields consistently
/// can rebuild a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Per-algorithm samples (insertion order preserved), `None` for
    /// algorithms not measured yet.
    pub samples: Vec<Option<Sample>>,
    /// Algorithms whose sample changed since the last scored wave.
    pub dirty: Vec<bool>,
    /// Whether anything was ingested since the last scored wave.
    pub ingested: bool,
    /// The most recent wave's score table, if any wave was scored.
    pub table: Option<ScoreTable>,
    /// Number of scored waves.
    pub waves: usize,
    /// Length of the current run of consecutive stable waves.
    pub stable_run: usize,
    /// Whether the criterion has been met.
    pub converged: bool,
}

impl SessionState {
    /// Checks the cross-field invariants a session relies on: the dirty
    /// flags and the score table (when present) must cover exactly the
    /// same algorithms as `samples`. Callers that assemble a state from
    /// untrusted bytes (the service snapshot codec, spill rehydration)
    /// route through this instead of hitting the constructor panics.
    pub fn check_consistent(&self) -> Result<(), &'static str> {
        if self.dirty.len() != self.samples.len() {
            return Err("dirty flags must cover every algorithm");
        }
        if let Some(table) = &self.table {
            if table.num_algorithms() != self.samples.len() {
                return Err("score table must cover every algorithm");
            }
        }
        Ok(())
    }

    /// Measurements held across all algorithms — the summary the service
    /// caches for spilled sessions so status reads stay cheap.
    pub fn total_measurements(&self) -> usize {
        self.samples
            .iter()
            .map(|s| s.as_ref().map_or(0, relperf_measure::Sample::len))
            .sum()
    }
}

/// `true` when the two clusterings assign every algorithm the same class.
fn same_classes(a: &Clustering, b: &Clustering) -> bool {
    a.assignments()
        .iter()
        .zip(b.assignments())
        .all(|(x, y)| x.rank == y.rank)
}

/// A scratch arena checked out of the session's pool for the duration of
/// one worker's share of a wave; returned on drop. This is how arenas
/// survive *across* waves even though the parallel engine creates fresh
/// per-worker state each call.
struct PoolGuard<'a, S> {
    pool: &'a Mutex<Vec<S>>,
    scratch: Option<S>,
}

impl<'a, S> PoolGuard<'a, S> {
    fn checkout(pool: &'a Mutex<Vec<S>>, make: impl FnOnce() -> S) -> Self {
        let recycled = pool.lock().expect("scratch pool poisoned").pop();
        PoolGuard {
            pool,
            scratch: Some(recycled.unwrap_or_else(make)),
        }
    }

    fn scratch(&mut self) -> &mut S {
        self.scratch.as_mut().expect("present until drop")
    }
}

impl<S> Drop for PoolGuard<'_, S> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            // Ignore a poisoned pool: losing an arena during a panic
            // unwind only costs a future allocation.
            if let Ok(mut pool) = self.pool.lock() {
                pool.push(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{relative_scores_seeded, Parallelism};
    use rand::prelude::*;
    use relperf_measure::compare::{BootstrapComparator, BootstrapConfig, MedianComparator};
    use relperf_measure::{SeededThreeWayComparator, ThreeWayComparator};
    use std::collections::HashSet;

    fn noisy(center: f64, spread: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| center + rng.random_range(-spread..spread))
            .collect()
    }

    fn comparator() -> BootstrapComparator {
        BootstrapComparator::with_config(
            5,
            BootstrapConfig {
                reps: 20,
                ..Default::default()
            },
        )
    }

    fn config(threads: usize) -> ClusterConfig {
        ClusterConfig {
            repetitions: 30,
            parallelism: Parallelism::with_threads(threads),
        }
    }

    /// The key streaming invariant: after any sequence of ingest waves,
    /// a session's table equals the cold batch engine over the same
    /// samples — warm caches and all.
    #[test]
    fn warm_waves_match_cold_batch_for_any_schedule_and_parallelism() {
        let waves: [Vec<Vec<f64>>; 3] = [
            vec![noisy(1.00, 0.1, 10, 1), noisy(1.05, 0.1, 10, 2), noisy(2.0, 0.1, 10, 3)],
            vec![noisy(1.00, 0.1, 7, 4), noisy(1.05, 0.1, 7, 5), noisy(2.0, 0.1, 7, 6)],
            vec![noisy(1.00, 0.1, 12, 7), noisy(1.05, 0.1, 12, 8), noisy(2.0, 0.1, 12, 9)],
        ];
        for threads in [1usize, 0, 3] {
            let cmp = comparator();
            let mut session = ClusterSession::new(3, &cmp, config(threads), 11);
            let mut accumulated: Vec<Vec<f64>> = vec![Vec::new(); 3];
            for wave in &waves {
                for (alg, values) in wave.iter().enumerate() {
                    session.extend(alg, values).unwrap();
                    accumulated[alg].extend_from_slice(values);
                }
                let got = session.score().clone();
                // Cold reference over the accumulated samples.
                let samples: Vec<Sample> = accumulated
                    .iter()
                    .map(|v| Sample::new(v.clone()).unwrap())
                    .collect();
                let reference = relative_scores_seeded(3, config(threads), 11, |stream, a, b| {
                    cmp.compare_seeded(&samples[a], &samples[b], stream)
                });
                assert_eq!(got, reference, "threads={threads}");
            }
        }
    }

    /// A per-call parallelism runs the same wave: every table equals the
    /// configured `score()` drive and the stored config never changes.
    #[test]
    fn score_with_matches_score_and_keeps_config() {
        let cmp = comparator();
        let waves = [
            [noisy(1.00, 0.1, 8, 21), noisy(1.05, 0.1, 8, 22), noisy(2.0, 0.1, 8, 23)],
            [noisy(1.00, 0.1, 5, 24), noisy(1.05, 0.1, 5, 25), noisy(2.0, 0.1, 5, 26)],
        ];
        let drive = |score: &mut dyn FnMut(&mut ClusterSession<&BootstrapComparator>) -> ScoreTable| {
            let mut session = ClusterSession::new(3, &cmp, config(1), 13);
            let tables: Vec<ScoreTable> = waves
                .iter()
                .map(|wave| {
                    for (alg, values) in wave.iter().enumerate() {
                        session.extend(alg, values).unwrap();
                    }
                    score(&mut session)
                })
                .collect();
            assert_eq!(session.config(), config(1));
            (tables, session.export_state())
        };
        let reference = drive(&mut |s| s.score().clone());
        for k in 1..=3 {
            let got = drive(&mut |s| s.score_with(Parallelism::with_threads(k)).clone());
            assert_eq!(got, reference, "threads={k}");
        }
    }

    /// A deterministic comparator that logs every call as
    /// `(stream, alg_a, alg_b)`. The cache-discipline tests feed algorithm
    /// `k` only values in `[k, k + 1)`, so a sample's minimum names its
    /// algorithm.
    #[derive(Debug, Default)]
    struct Logging(Mutex<Vec<(u64, usize, usize)>>);

    impl ThreeWayComparator for Logging {
        fn compare(&self, a: &Sample, b: &Sample) -> relperf_measure::Outcome {
            MedianComparator::new(0.05).compare(a, b)
        }
    }
    impl SeededThreeWayComparator for Logging {
        fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> relperf_measure::Outcome {
            let call = (stream, a.min() as usize, b.min() as usize);
            self.0.lock().unwrap().push(call);
            self.compare(a, b)
        }
    }
    impl ScratchThreeWayComparator for Logging {
        type Scratch = ();
        fn new_scratch(&self) {}
        fn compare_seeded_scratch(
            &self,
            (): &mut (),
            a: &Sample,
            b: &Sample,
            stream: u64,
        ) -> relperf_measure::Outcome {
            self.compare_seeded(a, b, stream)
        }
    }

    fn logging_session(log: &Logging) -> ClusterSession<&Logging> {
        ClusterSession::new(3, log, ClusterConfig::with_repetitions(10), 3)
    }

    /// Scores one wave after the algorithms in `dirtied` changed and
    /// checks the warm-cache discipline: every call involves a dirtied
    /// algorithm, and no `(stream, pair)` in `clean` — the comparisons
    /// computed so far over still-unchanged samples — is computed again.
    /// Returns the number of comparator calls the wave made.
    fn score_checked(
        session: &mut ClusterSession<&Logging>,
        clean: &mut HashSet<(u64, usize, usize)>,
        dirtied: &[usize],
    ) -> usize {
        clean.retain(|&(_, a, b)| !dirtied.contains(&a) && !dirtied.contains(&b));
        session.score();
        let calls = std::mem::take(&mut *session.comparator.0.lock().unwrap());
        for &(stream, a, b) in &calls {
            assert!(
                dirtied.contains(&a) || dirtied.contains(&b),
                "pair ({a}, {b}) touches no changed algorithm"
            );
            assert!(
                clean.insert((stream, a, b)),
                "pair ({a}, {b}) recomputed on stream {stream} while its samples were clean"
            );
        }
        calls.len()
    }

    #[test]
    fn warm_caches_skip_clean_pair_recomputation() {
        let log = Logging::default();
        let mut session = logging_session(&log);
        let mut clean = HashSet::new();
        for alg in 0..3 {
            session.extend(alg, &[alg as f64 + 0.5; 4]).unwrap();
        }
        assert!(score_checked(&mut session, &mut clean, &[0, 1, 2]) > 0);

        // Update only algorithm 2: only pairs touching it are recomputed.
        session.extend(2, &[2.75; 2]).unwrap();
        assert!(score_checked(&mut session, &mut clean, &[2]) > 0);

        // No updates at all: a re-score computes nothing.
        assert_eq!(score_checked(&mut session, &mut clean, &[]), 0);
    }

    #[test]
    fn comparator_caches_stay_warm_across_bulk_waves() {
        // Every extend after the first score merges its wave into a built
        // index; the cache discipline must be unchanged — a bulk wave
        // dirties exactly the algorithms it touched.
        let log = Logging::default();
        let mut session = logging_session(&log);
        let mut clean = HashSet::new();
        let wave = |alg: usize, k: usize| -> Vec<f64> {
            (0..32).map(|i| alg as f64 + ((i * 7 + k) % 5) as f64 * 0.01).collect()
        };
        for alg in 0..3 {
            session.extend(alg, &wave(alg, 0)).unwrap();
        }
        assert!(score_checked(&mut session, &mut clean, &[0, 1, 2]) > 0);

        // A bulk wave into algorithm 1 only: the 0–2 pair stays cached.
        session.extend(1, &wave(1, 1)).unwrap();
        assert!(score_checked(&mut session, &mut clean, &[1]) > 0);

        // An all-or-nothing wave follows the same dirty discipline…
        session.try_extend_all(0, &wave(0, 2)).unwrap();
        assert!(score_checked(&mut session, &mut clean, &[0]) > 0);

        // …and a rejected one leaves every cache warm.
        let mut poisoned = wave(2, 3);
        poisoned[17] = f64::NAN;
        assert!(session.try_extend_all(2, &poisoned).is_err());
        assert_eq!(score_checked(&mut session, &mut clean, &[]), 0, "rejection is free");
    }

    #[test]
    fn bulk_extend_session_matches_per_push_session() {
        // The session-level growth contract: wave ingest through the bulk
        // path produces bit-identical samples and score tables to a twin
        // session fed one push at a time.
        let waves: Vec<Vec<f64>> = (0..4)
            .map(|w| (0..40).map(|i| 1.0 + ((i * 13 + w * 7) % 11) as f64 * 0.05).collect())
            .collect();
        let mk = || {
            ClusterSession::new(
                2,
                MedianComparator::new(0.05),
                ClusterConfig::with_repetitions(5),
                7,
            )
        };
        let (mut bulk, mut pushed) = (mk(), mk());
        for (w, wave) in waves.iter().enumerate() {
            let alg = w % 2;
            bulk.extend(alg, wave).unwrap();
            for &v in wave {
                pushed.push(alg, v).unwrap();
            }
        }
        bulk.extend(1, &waves[0]).unwrap();
        for &v in &waves[0] {
            pushed.push(1, v).unwrap();
        }
        for alg in 0..2 {
            assert_eq!(bulk.sample(alg), pushed.sample(alg));
        }
        assert_eq!(bulk.score(), pushed.score());
    }

    #[test]
    fn extend_keeps_streaming_error_semantics() {
        let mut session = ClusterSession::new(
            1,
            MedianComparator::new(0.05),
            ClusterConfig::with_repetitions(2),
            1,
        );
        // Offender first, nothing yet ingested: index 0, still no sample.
        assert_eq!(
            session.extend(0, &[f64::NAN, 1.0]),
            Err(SampleError::NonFinite(0))
        );
        assert_eq!(session.measurements(0), 0);
        // Prefix before the offender lands; index is the insertion point.
        assert_eq!(
            session.extend(0, &[1.0, 2.0, f64::INFINITY, 3.0]),
            Err(SampleError::NonFinite(2))
        );
        assert_eq!(session.sample(0).unwrap().values(), &[1.0, 2.0]);
        // try_extend_all reports the wave-relative index and ingests nothing.
        assert_eq!(
            session.try_extend_all(0, &[5.0, f64::NAN]),
            Err(SampleError::NonFinite(1))
        );
        assert_eq!(session.sample(0).unwrap().values(), &[1.0, 2.0]);
    }

    #[test]
    fn converges_after_stable_evidence_waves() {
        let mut session = ClusterSession::new(
            2,
            MedianComparator::new(0.05),
            ClusterConfig::with_repetitions(10),
            1,
        );
        session.extend(0, &[1.0, 1.0]).unwrap();
        session.extend(1, &[2.0, 2.0]).unwrap();
        session.score();
        assert!(!session.converged(), "one wave has nothing to compare to");
        session.extend(0, &[1.0]).unwrap();
        session.extend(1, &[2.0]).unwrap();
        session.score();
        assert_eq!(session.stable_run(), 1);
        assert!(!session.converged());
        session.extend(0, &[1.0]).unwrap();
        session.extend(1, &[2.0]).unwrap();
        session.score();
        assert!(session.converged(), "two stable waves hit the default k");
        assert_eq!(session.waves(), 3);
        assert_eq!(session.total_measurements(), 8);
    }

    #[test]
    fn evidence_free_rescores_do_not_advance_convergence() {
        // Re-scoring on a timer (no ingest in between) must not talk the
        // session into converging: the table is replayed, the wave count
        // and stable run stay put.
        let mut session = ClusterSession::new(
            2,
            MedianComparator::new(0.05),
            ClusterConfig::with_repetitions(10),
            1,
        );
        session.extend(0, &[1.0, 1.0]).unwrap();
        session.extend(1, &[2.0, 2.0]).unwrap();
        let first = session.score().clone();
        for _ in 0..5 {
            assert_eq!(session.score(), &first);
        }
        assert_eq!(session.waves(), 1);
        assert_eq!(session.stable_run(), 0);
        assert!(!session.converged());
        // Ingesting again re-arms scoring.
        session.extend(0, &[1.0]).unwrap();
        session.extend(1, &[2.0]).unwrap();
        session.score();
        assert_eq!(session.waves(), 2);
        assert_eq!(session.stable_run(), 1);
    }

    #[test]
    fn unstable_waves_reset_the_stable_run() {
        // A comparator whose verdict flips when sample sizes cross a
        // threshold — convergence must not trigger across the flip.
        #[derive(Debug)]
        struct SizeGate;
        impl relperf_measure::ThreeWayComparator for SizeGate {
            fn compare(&self, a: &Sample, b: &Sample) -> relperf_measure::Outcome {
                if a.len() + b.len() < 8 {
                    relperf_measure::Outcome::Equivalent
                } else {
                    MedianComparator::new(0.05).compare(a, b)
                }
            }
        }
        impl relperf_measure::SeededThreeWayComparator for SizeGate {
            fn compare_seeded(
                &self,
                a: &Sample,
                b: &Sample,
                _stream: u64,
            ) -> relperf_measure::Outcome {
                self.compare(a, b)
            }
        }
        impl relperf_measure::ScratchThreeWayComparator for SizeGate {
            type Scratch = ();
            fn new_scratch(&self) {}
            fn compare_seeded_scratch(
                &self,
                (): &mut (),
                a: &Sample,
                b: &Sample,
                stream: u64,
            ) -> relperf_measure::Outcome {
                use relperf_measure::SeededThreeWayComparator as _;
                self.compare_seeded(a, b, stream)
            }
        }

        let mut session = ClusterSession::with_criterion(
            2,
            SizeGate,
            ClusterConfig::with_repetitions(10),
            1,
            ConvergenceCriterion {
                stable_waves: 2,
                score_tol: 0.0,
            },
        );
        // Waves 1–2: both tiny → everything equivalent, stable once.
        session.extend(0, &[1.0]).unwrap();
        session.extend(1, &[2.0]).unwrap();
        session.score();
        session.extend(0, &[1.0]).unwrap();
        session.extend(1, &[2.0]).unwrap();
        session.score();
        assert_eq!(session.stable_run(), 1);
        // Wave 3 crosses the gate: classes split, run resets.
        session.extend(0, &[1.0, 1.0]).unwrap();
        session.extend(1, &[2.0, 2.0]).unwrap();
        session.score();
        assert_eq!(session.stable_run(), 0);
        assert!(!session.converged());
        // Two more stable evidence waves now converge.
        for _ in 0..2 {
            session.extend(0, &[1.0]).unwrap();
            session.extend(1, &[2.0]).unwrap();
            session.score();
        }
        assert!(session.converged());
    }

    #[test]
    #[should_panic(expected = "at least one measurement")]
    fn scoring_without_measurements_panics() {
        let mut session = ClusterSession::new(
            2,
            MedianComparator::new(0.05),
            ClusterConfig::with_repetitions(5),
            0,
        );
        session.push(0, 1.0).unwrap();
        session.score();
    }

    #[test]
    #[should_panic(expected = "at least one stable wave")]
    fn zero_stable_waves_rejected() {
        ClusterSession::with_criterion(
            1,
            MedianComparator::new(0.05),
            ClusterConfig::with_repetitions(5),
            0,
            ConvergenceCriterion {
                stable_waves: 0,
                score_tol: 0.1,
            },
        );
    }

    #[test]
    fn try_validate_reports_typed_errors() {
        assert_eq!(ConvergenceCriterion::default().try_validate(), Ok(()));
        let zero = ConvergenceCriterion {
            stable_waves: 0,
            score_tol: 0.1,
        };
        assert_eq!(zero.try_validate(), Err(CriterionError::ZeroStableWaves));
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let c = ConvergenceCriterion {
                stable_waves: 1,
                score_tol: bad,
            };
            assert!(matches!(
                c.try_validate(),
                Err(CriterionError::BadTolerance { .. })
            ));
        }
        // The panicking form surfaces the same message.
        assert!(format!("{}", CriterionError::ZeroStableWaves).contains("at least one stable wave"));
    }

    /// A restored session must continue wave-for-wave identically to one
    /// that never stopped — the contract the service snapshot codec builds
    /// on.
    #[test]
    fn export_restore_continues_identically() {
        let cmp = comparator();
        let drive = |session: &mut ClusterSession<&BootstrapComparator>, wave: usize| {
            for alg in 0..3 {
                let vals = noisy(1.0 + alg as f64, 0.2, 5, (wave * 3 + alg) as u64);
                session.extend(alg, &vals).unwrap();
            }
            session.score().clone()
        };
        let mut uninterrupted = ClusterSession::new(3, &cmp, config(2), 41);
        let mut checkpointed = ClusterSession::new(3, &cmp, config(2), 41);
        for wave in 0..2 {
            assert_eq!(drive(&mut uninterrupted, wave), drive(&mut checkpointed, wave));
        }
        // Checkpoint, drop, restore — caches restart cold.
        let state = checkpointed.export_state();
        drop(checkpointed);
        let mut restored = ClusterSession::restore(
            &cmp,
            config(2),
            41,
            ConvergenceCriterion::default(),
            state,
        );
        assert_eq!(restored.waves(), uninterrupted.waves());
        assert_eq!(restored.table(), uninterrupted.table());
        for wave in 2..5 {
            assert_eq!(
                drive(&mut uninterrupted, wave),
                drive(&mut restored, wave),
                "wave {wave} after restore"
            );
            assert_eq!(restored.stable_run(), uninterrupted.stable_run());
            assert_eq!(restored.converged(), uninterrupted.converged());
        }
    }

    #[test]
    fn restored_ingest_free_rescore_stays_a_noop() {
        // `ingested == false` must survive the round trip: a restored
        // session may not count a timer re-score as evidence.
        let mut session = ClusterSession::new(
            2,
            MedianComparator::new(0.05),
            ClusterConfig::with_repetitions(5),
            1,
        );
        session.extend(0, &[1.0, 1.0]).unwrap();
        session.extend(1, &[2.0, 2.0]).unwrap();
        session.score();
        let mut restored = ClusterSession::restore(
            MedianComparator::new(0.05),
            ClusterConfig::with_repetitions(5),
            1,
            ConvergenceCriterion::default(),
            session.export_state(),
        );
        restored.score();
        assert_eq!(restored.waves(), 1, "no new evidence, no new wave");
    }

    #[test]
    #[should_panic(expected = "dirty flags")]
    fn restore_rejects_inconsistent_state() {
        let state = SessionState {
            samples: vec![None, None],
            dirty: vec![false],
            ingested: false,
            table: None,
            waves: 0,
            stable_run: 0,
            converged: false,
        };
        let _ = ClusterSession::restore(
            MedianComparator::new(0.05),
            ClusterConfig::with_repetitions(5),
            0,
            ConvergenceCriterion::default(),
            state,
        );
    }

    #[test]
    fn try_restore_reports_typed_inconsistencies() {
        let good = |p: usize| SessionState {
            samples: (0..p).map(|_| None).collect(),
            dirty: vec![false; p],
            ingested: false,
            table: None,
            waves: 0,
            stable_run: 0,
            converged: false,
        };
        let cmp = || MedianComparator::new(0.05);
        let cfg = ClusterConfig::with_repetitions(5);
        let crit = ConvergenceCriterion::default();
        assert!(ClusterSession::try_restore(cmp(), cfg, 0, crit, good(2)).is_ok());
        assert_eq!(
            ClusterSession::try_restore(cmp(), cfg, 0, crit, good(0)).err(),
            Some("need at least one algorithm")
        );
        let mut ragged = good(2);
        ragged.dirty.pop();
        assert_eq!(
            ClusterSession::try_restore(cmp(), cfg, 0, crit, ragged).err(),
            Some("dirty flags must cover every algorithm")
        );
        let mut bad_table = good(2);
        bad_table.table = Some(crate::cluster::ScoreTable::from_rows(
            vec![vec![1.0], vec![0.0], vec![0.0]],
            1,
        ));
        assert_eq!(
            ClusterSession::try_restore(cmp(), cfg, 0, crit, bad_table).err(),
            Some("score table must cover every algorithm")
        );
        assert_eq!(
            ClusterSession::try_restore(
                cmp(),
                ClusterConfig::with_repetitions(0),
                0,
                crit,
                good(1)
            )
            .err(),
            Some("need at least one repetition")
        );
        let bad_crit = ConvergenceCriterion {
            stable_waves: 0,
            score_tol: 0.1,
        };
        assert_eq!(
            ClusterSession::try_restore(cmp(), cfg, 0, bad_crit, good(1)).err(),
            Some("invalid convergence criterion")
        );
        // The state summary used for spilled-session status reads.
        assert_eq!(good(3).total_measurements(), 0);
    }

    #[test]
    fn set_sample_replaces_and_dirties() {
        let cmp = comparator();
        let mut session = ClusterSession::new(2, &cmp, config(1), 9);
        session.set_sample(0, Sample::new(noisy(1.0, 0.05, 20, 21)).unwrap());
        session.set_sample(1, Sample::new(noisy(2.0, 0.05, 20, 22)).unwrap());
        let first = session.score().clone();
        assert_eq!(first.final_assignment().num_classes(), 2);
        // Replace one side with an equivalent distribution → classes merge.
        session.set_sample(1, Sample::new(noisy(1.0, 0.05, 20, 23)).unwrap());
        let second = session.score().clone();
        assert_eq!(second.final_assignment().num_classes(), 1);
    }
}
