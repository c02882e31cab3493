//! Adaptive measurement campaigns: measure → compare → cluster in waves,
//! stopping as soon as the clustering is trustworthy.
//!
//! The paper measures every algorithm a fixed, hand-picked `N` times
//! (N = 30 throughout Sec. V) and only then clusters. An
//! [`AdaptiveExperiment`] inverts that: it draws measurements in waves,
//! feeds them into a streaming [`ClusterSession`], and stops when the
//! session's [`ConvergenceCriterion`] declares the [`ScoreTable`] stable
//! — typically well before a conservative fixed budget would have been
//! spent.
//!
//! The wave loop is one [`CampaignDriver`]: schedule, carried
//! per-placement RNGs, per-placement counts. It draws each wave on a copy
//! of the streams and commits the advanced streams and counts only when
//! the caller's ingest returns `Ok`, so a refused wave consumes nothing.
//! [`AdaptiveExperiment`] ingests into a private session; the hosted
//! `ServiceCampaign` (`relperf-service`) submits to a session service,
//! where admission is the commit point.
//!
//! Determinism is preserved end to end:
//!
//! * Placement `i` draws from an RNG seeded `stream_seed(measure_seed, i)`
//!   whose state persists across waves — the concatenation of all waves is
//!   **bit-identical** to one batch
//!   [`measure_all_seeded`](crate::experiment::measure_all_seeded) call of
//!   the same total `n`, for any [`Parallelism`].
//! * Scoring inherits the session guarantee: at any wave the table equals
//!   the batch
//!   [`cluster_measurements_seeded`](crate::experiment::cluster_measurements_seeded)
//!   over the measurements drawn so far.
//!
//! So a fixed wave budget reproduces the batch pipeline exactly, and the
//! adaptive stop only decides *how many* waves to pay for.

use crate::experiment::{Experiment, MeasuredAlgorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relperf_core::cluster::{ClusterConfig, Clustering, Parallelism, ScoreTable};
use relperf_core::session::{ClusterSession, ConvergenceCriterion};
use relperf_measure::{stream_seed, ScratchThreeWayComparator};
use std::convert::Infallible;

/// How measurements are budgeted across waves, per algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveSchedule {
    /// Measurements per algorithm in the first wave (must cover the
    /// comparator's minimum useful sample size).
    pub initial: usize,
    /// Measurements per algorithm in every subsequent wave.
    pub wave: usize,
    /// Hard per-algorithm budget: no wave starts once this many
    /// measurements have been drawn for each algorithm.
    pub max_per_algorithm: usize,
}

impl Default for WaveSchedule {
    /// Waves of 5 after an initial 10, capped at 60 per algorithm (twice
    /// the paper's hand-picked N = 30).
    fn default() -> Self {
        WaveSchedule {
            initial: 10,
            wave: 5,
            max_per_algorithm: 60,
        }
    }
}

impl WaveSchedule {
    /// Validates the schedule, panicking with a descriptive message on
    /// nonsensical values.
    pub fn validate(&self) {
        assert!(self.initial > 0, "first wave must draw measurements");
        assert!(self.wave > 0, "waves must draw measurements");
        assert!(
            self.max_per_algorithm >= self.initial,
            "budget below the first wave"
        );
    }

    /// Size of the next wave given `drawn` measurements per algorithm so
    /// far; 0 once the budget is exhausted. The last wave is truncated to
    /// land exactly on the budget.
    pub fn next_wave(&self, drawn: usize) -> usize {
        if drawn >= self.max_per_algorithm {
            return 0;
        }
        let want = if drawn == 0 { self.initial } else { self.wave };
        want.min(self.max_per_algorithm - drawn)
    }
}

/// The wave loop of a campaign over one [`Experiment`] (see the [module
/// docs](self)): the schedule, the draw fan-out, every placement's carried
/// measurement RNG and the measurements each placement has drawn.
#[derive(Debug)]
pub struct CampaignDriver<'a> {
    experiment: &'a Experiment,
    schedule: WaveSchedule,
    /// Fan-out of the measurement draws.
    parallelism: Parallelism,
    /// Placement `i`'s measurement RNG, carried across waves so the
    /// concatenated draws equal one batch `measure_all_seeded` stream.
    rngs: Vec<StdRng>,
    /// Measurements drawn per placement so far.
    drawn: Vec<usize>,
}

impl<'a> CampaignDriver<'a> {
    /// A fresh campaign, on the streams
    /// [`measure_all_seeded`](crate::experiment::measure_all_seeded) uses.
    /// Panics when the schedule is invalid.
    pub fn new(
        experiment: &'a Experiment,
        schedule: WaveSchedule,
        parallelism: Parallelism,
        measure_seed: u64,
    ) -> Self {
        let seeded = |i| StdRng::seed_from_u64(stream_seed(measure_seed, i)).state();
        let states: Vec<[u64; 4]> = (0..experiment.placements.len() as u64).map(seeded).collect();
        let drawn = vec![0; states.len()];
        Self::resume(experiment, schedule, parallelism, &states, drawn)
            .expect("a fresh state covers every placement with equal counts")
    }

    /// Continues a campaign from carried RNG states and per-placement
    /// counts. Fails when they miss a placement or the counts differ
    /// (waves are uniform); panics when the schedule is invalid.
    pub fn resume(
        experiment: &'a Experiment,
        schedule: WaveSchedule,
        parallelism: Parallelism,
        rng_states: &[[u64; 4]],
        drawn: Vec<usize>,
    ) -> Result<Self, &'static str> {
        schedule.validate();
        let p = experiment.placements.len();
        if rng_states.len() != p || drawn.len() != p {
            return Err("campaign state does not match the experiment's placement count");
        }
        if drawn.windows(2).any(|w| w[0] != w[1]) {
            return Err("placements hold different measurement counts");
        }
        Ok(CampaignDriver {
            experiment,
            schedule,
            parallelism,
            rngs: rng_states.iter().map(|&s| StdRng::from_state(s)).collect(),
            drawn,
        })
    }

    /// Measurements drawn per algorithm so far (the most any placement drew).
    pub fn measurements_per_algorithm(&self) -> usize {
        self.drawn.iter().copied().max().unwrap_or(0)
    }

    /// `true` while the budget allows another wave.
    pub fn budget_remaining(&self) -> bool {
        self.schedule.next_wave(self.measurements_per_algorithm()) > 0
    }

    /// The carried RNG states: what a checkpoint persists so a resumed
    /// campaign continues every stream (see [`StdRng::from_state`]).
    pub fn rng_states(&self) -> Vec<[u64; 4]> {
        self.rngs.iter().map(StdRng::state).collect()
    }

    /// Draws the next wave (placement `i`'s values in slot `i`) on copies
    /// of the streams and hands it to `ingest`; the advanced streams and
    /// counts are committed only when it returns `Ok`. Panics when the
    /// budget is exhausted.
    pub fn wave<T, E>(
        &mut self,
        ingest: impl FnOnce(Vec<Vec<f64>>) -> Result<T, E>,
    ) -> Result<T, E> {
        let exp = self.experiment;
        let n = self.schedule.next_wave(self.measurements_per_algorithm());
        assert!(n > 0, "measurement budget exhausted");
        let (waves, advanced): (Vec<Vec<f64>>, Vec<StdRng>) =
            relperf_parallel::parallel_map_indexed(self.rngs.len(), self.parallelism, |i| {
                let mut rng = self.rngs[i].clone();
                let (_, placement) = &exp.placements[i];
                let values = (0..n)
                    .map(|_| exp.platform.execute(&exp.tasks, placement, &mut rng).total_time_s)
                    .collect();
                (values, rng)
            })
            .into_iter()
            .unzip();
        let ingested = ingest(waves)?;
        self.rngs = advanced;
        self.drawn.iter_mut().for_each(|d| *d += n);
        Ok(ingested)
    }
}

/// A live adaptive campaign over one [`Experiment`]: the [`CampaignDriver`]
/// and the streaming cluster session its waves feed.
///
/// Drive it with [`wave`](AdaptiveExperiment::wave) /
/// [`run_to_convergence`](AdaptiveExperiment::run_to_convergence), or use
/// the one-shot [`measure_until_converged_seeded`].
#[derive(Debug)]
pub struct AdaptiveExperiment<'a, C: ScratchThreeWayComparator + Sync> {
    driver: CampaignDriver<'a>,
    session: ClusterSession<&'a C>,
}

impl<'a, C: ScratchThreeWayComparator + Sync> AdaptiveExperiment<'a, C> {
    /// Sets up a campaign. `measure_seed` addresses the per-placement
    /// measurement streams (as in
    /// [`measure_all_seeded`](crate::experiment::measure_all_seeded));
    /// `cluster_seed` addresses the clustering repetitions (as in
    /// [`cluster_measurements_seeded`](crate::experiment::cluster_measurements_seeded)).
    ///
    /// # Panics
    /// Panics when the experiment has no placements or the schedule /
    /// criterion / config are invalid.
    pub fn new(
        experiment: &'a Experiment,
        comparator: &'a C,
        config: ClusterConfig,
        criterion: ConvergenceCriterion,
        schedule: WaveSchedule,
        measure_seed: u64,
        cluster_seed: u64,
    ) -> Self {
        let p = experiment.placements.len();
        AdaptiveExperiment {
            driver: CampaignDriver::new(experiment, schedule, config.parallelism, measure_seed),
            session: ClusterSession::with_criterion(p, comparator, config, cluster_seed, criterion),
        }
    }

    /// The streaming session (tables, convergence state, measurement
    /// counts).
    pub fn session(&self) -> &ClusterSession<&'a C> {
        &self.session
    }

    /// Measurements drawn per algorithm so far.
    pub fn measurements_per_algorithm(&self) -> usize {
        self.driver.measurements_per_algorithm()
    }

    /// Measurements drawn across all algorithms so far.
    pub fn total_measurements(&self) -> usize {
        self.driver.drawn.iter().sum()
    }

    /// `true` once the session's criterion has been met.
    pub fn converged(&self) -> bool {
        self.session.converged()
    }

    /// `true` while the budget allows another wave.
    pub fn budget_remaining(&self) -> bool {
        self.driver.budget_remaining()
    }

    /// Draws the next wave of measurements for every placement (fanned
    /// out across threads, bit-identical for any [`Parallelism`]), ingests
    /// them, and re-scores the session with warm caches.
    ///
    /// # Panics
    /// Panics when the budget is already exhausted (check
    /// [`budget_remaining`](AdaptiveExperiment::budget_remaining)).
    pub fn wave(&mut self) -> &ScoreTable {
        let session = &mut self.session;
        let Ok(table) = self.driver.wave::<_, Infallible>(|waves| {
            for (i, values) in waves.iter().enumerate() {
                session.extend(i, values).expect("simulated times are finite");
            }
            Ok(session.score())
        });
        table
    }

    /// Runs waves until the criterion is met or the budget is exhausted;
    /// returns `true` when the campaign converged.
    pub fn run_to_convergence(&mut self) -> bool {
        while !self.converged() && self.budget_remaining() {
            self.wave();
        }
        self.converged()
    }

    /// The measured algorithms in placement order — samples as drawn so
    /// far plus the noiseless accounting records, ready for
    /// [`profiles`](crate::experiment::profiles).
    pub fn measured(&self) -> Vec<MeasuredAlgorithm> {
        let exp = self.driver.experiment;
        exp.placements
            .iter()
            .enumerate()
            .map(|(i, (label, placement))| MeasuredAlgorithm {
                label: label.clone(),
                placement: placement.clone(),
                sample: self
                    .session
                    .sample(i)
                    .expect("wave() measured every placement")
                    .clone(),
                record: exp.platform.execute_noiseless(&exp.tasks, placement),
            })
            .collect()
    }
}

/// Everything a finished adaptive campaign produced.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// Per-placement samples (as drawn) and accounting records.
    pub measured: Vec<MeasuredAlgorithm>,
    /// The final wave's score table.
    pub table: ScoreTable,
    /// The final wave's clustering.
    pub clustering: Clustering,
    /// Number of scored waves.
    pub waves: usize,
    /// Measurements drawn per algorithm.
    pub measurements_per_algorithm: usize,
    /// Measurements drawn in total (`per_algorithm × placements`).
    pub total_measurements: usize,
    /// Whether the criterion was met (vs. the budget running out).
    pub converged: bool,
}

/// One-shot adaptive pipeline — the streaming replacement for the
/// hand-picked-`N` sequence `measure_all_seeded(n)` →
/// `cluster_measurements_seeded`: measures wave by wave and stops as soon
/// as the clustering is stable under `criterion` (or `schedule` runs out
/// of budget).
///
/// # Examples
///
/// ```
/// use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
/// use relperf_workloads::adaptive::{measure_until_converged_seeded, WaveSchedule};
/// use relperf_workloads::experiment::Experiment;
/// use relperf_core::cluster::ClusterConfig;
/// use relperf_core::session::ConvergenceCriterion;
///
/// let experiment = Experiment::fig1();
/// let comparator = BootstrapComparator::with_config(
///     42,
///     BootstrapConfig { reps: 20, ..Default::default() },
/// );
/// let result = measure_until_converged_seeded(
///     &experiment,
///     &comparator,
///     ClusterConfig::with_repetitions(20),
///     ConvergenceCriterion::default(),
///     WaveSchedule { initial: 10, wave: 5, max_per_algorithm: 40 },
///     1234,
///     7,
/// );
/// assert!(result.measurements_per_algorithm <= 40);
/// assert_eq!(result.clustering.assignments().len(), 4);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn measure_until_converged_seeded<C: ScratchThreeWayComparator + Sync>(
    experiment: &Experiment,
    comparator: &C,
    config: ClusterConfig,
    criterion: ConvergenceCriterion,
    schedule: WaveSchedule,
    measure_seed: u64,
    cluster_seed: u64,
) -> AdaptiveResult {
    let mut campaign = AdaptiveExperiment::new(
        experiment,
        comparator,
        config,
        criterion,
        schedule,
        measure_seed,
        cluster_seed,
    );
    let converged = campaign.run_to_convergence();
    let table = campaign
        .session()
        .table()
        .expect("at least one wave ran")
        .clone();
    AdaptiveResult {
        measured: campaign.measured(),
        clustering: table.final_assignment(),
        table,
        waves: campaign.session().waves(),
        measurements_per_algorithm: campaign.measurements_per_algorithm(),
        total_measurements: campaign.total_measurements(),
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{cluster_measurements_seeded, measure_all_seeded};
    use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};

    fn comparator() -> BootstrapComparator {
        BootstrapComparator::with_config(
            5,
            BootstrapConfig {
                reps: 20,
                ..Default::default()
            },
        )
    }

    #[test]
    fn schedule_next_wave_budgeting() {
        let s = WaveSchedule {
            initial: 10,
            wave: 4,
            max_per_algorithm: 17,
        };
        assert_eq!(s.next_wave(0), 10);
        assert_eq!(s.next_wave(10), 4);
        assert_eq!(s.next_wave(14), 3, "last wave truncates to the budget");
        assert_eq!(s.next_wave(17), 0);
        assert_eq!(s.next_wave(99), 0);
    }

    #[test]
    #[should_panic(expected = "first wave")]
    fn schedule_rejects_empty_first_wave() {
        WaveSchedule {
            initial: 0,
            wave: 1,
            max_per_algorithm: 10,
        }
        .validate();
    }

    /// The headline determinism contract: a fixed wave budget reproduces
    /// the batch pipeline bit for bit — measurements and score table.
    #[test]
    fn fixed_budget_campaign_is_bit_identical_to_batch() {
        let exp = Experiment::fig1();
        let cmp = comparator();
        let config = ClusterConfig::with_repetitions(30);
        // Never converges: forces the campaign to spend the whole budget.
        let never = ConvergenceCriterion {
            stable_waves: usize::MAX,
            score_tol: 0.0,
        };
        let schedule = WaveSchedule {
            initial: 8,
            wave: 5,
            max_per_algorithm: 23, // 8 + 5 + 5 + 5
        };
        let result =
            measure_until_converged_seeded(&exp, &cmp, config, never, schedule, 77, 13);
        assert!(!result.converged);
        assert_eq!(result.measurements_per_algorithm, 23);
        assert_eq!(result.waves, 4);

        let batch_measured = measure_all_seeded(&exp, 23, 77, Parallelism::auto());
        for (a, b) in result.measured.iter().zip(&batch_measured) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.sample, b.sample, "label {}", a.label);
        }
        let batch_table = cluster_measurements_seeded(&batch_measured, &cmp, config, 13);
        assert_eq!(result.table, batch_table);
    }

    #[test]
    fn campaign_is_parallelism_invariant() {
        let exp = Experiment::fig1();
        let cmp = comparator();
        let criterion = ConvergenceCriterion::default();
        let schedule = WaveSchedule {
            initial: 10,
            wave: 5,
            max_per_algorithm: 30,
        };
        let run = |threads: usize| {
            let config = ClusterConfig {
                repetitions: 30,
                parallelism: Parallelism::with_threads(threads),
            };
            measure_until_converged_seeded(&exp, &cmp, config, criterion, schedule, 5, 6)
        };
        let reference = run(1);
        for threads in [0usize, 3] {
            let got = run(threads);
            assert_eq!(got.table, reference.table, "threads={threads}");
            assert_eq!(
                got.measurements_per_algorithm,
                reference.measurements_per_algorithm
            );
            assert_eq!(got.waves, reference.waves);
        }
    }

    #[test]
    fn adaptive_stops_early_on_separated_distributions() {
        // Fig. 1's platform separates AD/AA/(DD~DA) clearly; the default
        // criterion should stop well under the paper's N = 30.
        let exp = Experiment::fig1();
        let cmp = comparator();
        let result = measure_until_converged_seeded(
            &exp,
            &cmp,
            ClusterConfig::with_repetitions(40),
            ConvergenceCriterion::default(),
            WaveSchedule {
                initial: 10,
                wave: 5,
                max_per_algorithm: 60,
            },
            11,
            13,
        );
        assert!(result.converged, "clear separation must converge in budget");
        assert!(
            result.measurements_per_algorithm < 60,
            "converged campaigns stop before the cap"
        );
        // And the structure is the paper's.
        let idx = |l: &str| result.measured.iter().position(|m| m.label == l).unwrap();
        let rank = |l: &str| result.clustering.assignment(idx(l)).rank;
        assert_eq!(rank("AD"), 1);
        assert_eq!(rank("DD"), rank("DA"));
    }
}
