//! End-to-end pipeline: measure every placement, cluster, build profiles.

use rand::rngs::StdRng;
use rand::SeedableRng;
use relperf_core::cluster::{ClusterConfig, Clustering, Parallelism, ScoreTable};
use relperf_core::session::ClusterSession;
use relperf_core::decision::AlgorithmProfile;
use relperf_measure::{stream_seed, Sample, ScratchThreeWayComparator};
use relperf_sim::{ExecutionRecord, Loc, Platform, Task};

/// A fully-specified experiment: a platform, a task sequence, and the set
/// of placements (equivalent algorithms) to rank.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// The simulated platform.
    pub platform: Platform,
    /// The task sequence (the scientific code's loops).
    pub tasks: Vec<Task>,
    /// Labelled placements — the algorithm set `A`.
    pub placements: Vec<(String, Vec<Loc>)>,
}

impl Experiment {
    /// The paper's Fig. 1 experiment: two-loop code on the Fig. 1 platform,
    /// four algorithms.
    pub fn fig1() -> Self {
        Experiment {
            platform: relperf_sim::presets::fig1_platform(),
            tasks: crate::two_loop::tasks(),
            placements: crate::two_loop::placements(),
        }
    }

    /// The paper's Table I experiment: three `MathTask`s (sizes 50/75/300,
    /// `iters` loop iterations each) on the Table I platform, eight
    /// algorithms.
    pub fn table1(iters: usize) -> Self {
        Experiment {
            platform: relperf_sim::presets::table1_platform(),
            tasks: crate::scientific_code::tasks(iters),
            placements: crate::scientific_code::placements(),
        }
    }

    /// The Table I experiment scaled to the blocked kernel engine's reach:
    /// `MathTask` sizes 128/256/512
    /// ([`LARGE_SIZES`](crate::scientific_code::LARGE_SIZES)) on the same
    /// platform and placements. The simulated costs come from the same
    /// shared FLOP formulas the real kernels execute, so the experiment is
    /// exactly as runnable on hardware (see
    /// [`run_real_custom_with`](crate::scientific_code::run_real_custom_with))
    /// as in simulation.
    pub fn table1_large(iters: usize) -> Self {
        Experiment {
            platform: relperf_sim::presets::table1_platform(),
            tasks: crate::scientific_code::tasks_large(iters),
            placements: crate::scientific_code::placements(),
        }
    }

    /// The FEM-extended Table I experiment: the three dense `MathTask`s
    /// plus the sparse FEM assembly/solve task
    /// ([`FemScenario::table1`](crate::fem::FemScenario::table1), labelled
    /// `L4`) on the [same calibration](relperf_sim::presets::table1_fem_platform)
    /// — 4 tasks, 16 placements.
    ///
    /// The dense tasks are compute-priced and the FEM task is priced by
    /// its solver's *byte traffic*, so the accelerator's roofline
    /// throttles every placement that offloads it: the sparse workload
    /// lands in its own relative-performance class instead of shadowing
    /// the dense ones.
    pub fn table1_fem(iters: usize) -> Self {
        let mut tasks = crate::scientific_code::tasks(iters);
        tasks.push(crate::fem::FemScenario::table1().simulated_task("L4", iters));
        let platform = relperf_sim::presets::table1_fem_platform();
        let placements =
            relperf_sim::enumerate_placements(tasks.len(), platform.accelerators.len())
                .into_iter()
                .map(|p| (relperf_sim::placement_label(&p), p))
                .collect();
        Experiment {
            platform,
            tasks,
            placements,
        }
    }

    /// Labels of all placements, in order.
    pub fn labels(&self) -> Vec<String> {
        self.placements.iter().map(|(l, _)| l.clone()).collect()
    }
}

/// One algorithm's measurements plus its noiseless accounting record.
#[derive(Debug, Clone)]
pub struct MeasuredAlgorithm {
    /// Placement label (paper notation, e.g. `"DDA"`).
    pub label: String,
    /// The placement itself.
    pub placement: Vec<Loc>,
    /// `N` simulated execution-time measurements.
    pub sample: Sample,
    /// Noise-free execution record (expected time, FLOPs, energy, cost).
    pub record: ExecutionRecord,
}

/// Measures every placement `n` times — the paper's "the execution time of
/// every algorithm is measured N times" — with the placements fanned out
/// across threads.
///
/// Placement `i` draws its measurements from an RNG derived from
/// `(seed, i)`, so the result does not depend on `parallelism` — any
/// thread count, one included, produces identical samples.
pub fn measure_all_seeded(
    exp: &Experiment,
    n: usize,
    seed: u64,
    parallelism: Parallelism,
) -> Vec<MeasuredAlgorithm> {
    relperf_parallel::parallel_map_indexed(exp.placements.len(), parallelism, |i| {
        let (label, placement) = &exp.placements[i];
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, i as u64));
        let sample = exp
            .platform
            .measure(&exp.tasks, placement, n, &mut rng)
            .expect("n > 0 and simulated times are finite");
        let record = exp.platform.execute_noiseless(&exp.tasks, placement);
        MeasuredAlgorithm {
            label: label.clone(),
            placement: placement.clone(),
            sample,
            record,
        }
    })
}

/// Procedure 4 over measured algorithms — repeated shuffled three-way
/// bubble sorts using `comparator` on the stored samples — with parallel
/// repetitions. Runs a **one-wave [`ClusterSession`]** — the batch entry
/// point is a thin wrapper over the streaming engine, so the two can never
/// drift.
/// Every comparison is addressed by an explicit stream id, so any
/// [`Parallelism`] in `config` yields a bit-identical score table.
///
/// Each worker thread gets one scratch arena from the comparator
/// ([`ScratchThreeWayComparator::new_scratch`]) and reuses it across every
/// repetition and pair it evaluates — for the default
/// [`BootstrapComparator`](relperf_measure::BootstrapComparator) that
/// makes the whole clustering allocation-free per bootstrap round.
///
/// To keep measuring *beyond* a batch — adding waves until the clustering
/// is trustworthy — use the session directly or
/// [`measure_until_converged_seeded`](crate::adaptive::measure_until_converged_seeded).
pub fn cluster_measurements_seeded<C>(
    measured: &[MeasuredAlgorithm],
    comparator: &C,
    config: ClusterConfig,
    seed: u64,
) -> ScoreTable
where
    C: ScratchThreeWayComparator + Sync,
{
    let mut session = ClusterSession::new(measured.len(), comparator, config, seed);
    for (i, m) in measured.iter().enumerate() {
        session.set_sample(i, m.sample.clone());
    }
    session.score().clone()
}

/// Builds decision-model profiles by joining measurements, accounting
/// records, and the final clustering.
pub fn profiles(measured: &[MeasuredAlgorithm], clustering: &Clustering) -> Vec<AlgorithmProfile> {
    measured
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let a = clustering.assignment(i);
            AlgorithmProfile {
                label: m.label.clone(),
                rank: a.rank,
                score: a.score,
                mean_time_s: m.sample.mean(),
                device_flops: m.record.device_flops,
                accel_flops: m.record.accel_flops,
                operating_cost: m.record.operating_cost,
                device_energy_j: m.record.energy.device_j,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_experiment_shape() {
        let e = Experiment::fig1();
        assert_eq!(e.tasks.len(), 2);
        assert_eq!(e.placements.len(), 4);
        assert_eq!(e.labels(), vec!["DD", "DA", "AD", "AA"]);
    }

    #[test]
    fn table1_experiment_shape() {
        let e = Experiment::table1(10);
        assert_eq!(e.tasks.len(), 3);
        assert_eq!(e.placements.len(), 8);
        assert!(e.tasks.iter().all(|t| t.iterations == 10));
    }

    #[test]
    fn measure_all_returns_samples_and_records() {
        let e = Experiment::table1(2);
        let measured = measure_all_seeded(&e, 5, 121, Parallelism::auto());
        assert_eq!(measured.len(), 8);
        for m in &measured {
            assert_eq!(m.sample.len(), 5);
            assert!(m.record.total_time_s > 0.0);
        }
        // DDD must execute everything on the device.
        let ddd = measured.iter().find(|m| m.label == "DDD").unwrap();
        assert_eq!(ddd.record.accel_flops, 0);
        assert_eq!(ddd.record.operating_cost, 0.0);
        // AAA must offload everything.
        let aaa = measured.iter().find(|m| m.label == "AAA").unwrap();
        assert_eq!(aaa.record.device_flops, 0);
        assert!(aaa.record.operating_cost > 0.0);
    }

    #[test]
    fn measure_all_seeded_is_parallelism_invariant() {
        let e = Experiment::table1(2);
        let serial = measure_all_seeded(&e, 20, 9, Parallelism::serial());
        for threads in [0usize, 2, 5] {
            let par = measure_all_seeded(&e, 20, 9, Parallelism::with_threads(threads));
            assert_eq!(par.len(), serial.len());
            for (x, y) in par.iter().zip(&serial) {
                assert_eq!(x.label, y.label);
                assert_eq!(x.sample.values(), y.sample.values(), "label {}", x.label);
            }
        }
    }

    #[test]
    fn seeded_pipeline_is_bit_identical_across_parallelism() {
        use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
        let e = Experiment::table1(2);
        let measured = measure_all_seeded(&e, 15, 31, Parallelism::auto());
        let comparator = BootstrapComparator::with_config(
            7,
            BootstrapConfig {
                reps: 10,
                ..Default::default()
            },
        );
        let config = |par: Parallelism| ClusterConfig {
            repetitions: 40,
            parallelism: par,
        };
        let reference =
            cluster_measurements_seeded(&measured, &comparator, config(Parallelism::serial()), 3);
        for threads in [0usize, 2, 7] {
            let par = cluster_measurements_seeded(
                &measured,
                &comparator,
                config(Parallelism::with_threads(threads)),
                3,
            );
            assert_eq!(par, reference, "threads = {threads}");
        }
        // And the scores are sane: every row sums to 1.
        for alg in 0..reference.num_algorithms() {
            let total: f64 = (1..=reference.num_classes())
                .map(|r| reference.score(alg, r))
                .sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn table1_fem_experiment_shape() {
        let e = Experiment::table1_fem(2);
        assert_eq!(e.tasks.len(), 4);
        assert_eq!(e.placements.len(), 16);
        assert_eq!(e.tasks[3].name, "L4");
        assert_eq!(e.labels()[0], "DDDD");
        assert_eq!(e.labels()[15], "AAAA");
    }

    #[test]
    fn offloading_fem_always_loses_noiselessly() {
        // The FEM solve's byte traffic throttles the accelerator far below
        // the edge device's rate, so for *every* dense prefix the
        // placement that offloads L4 must be noiselessly slower than its
        // device-side twin.
        let e = Experiment::table1_fem(2);
        for prefix in ["DDD", "DDA", "DAD", "DAA", "ADD", "ADA", "AAD", "AAA"] {
            let time = |label: String| {
                let (_, p) = e
                    .placements
                    .iter()
                    .find(|(l, _)| *l == label)
                    .unwrap();
                e.platform.execute_noiseless(&e.tasks, p).total_time_s
            };
            let on_device = time(format!("{prefix}D"));
            let on_accel = time(format!("{prefix}A"));
            assert!(
                on_accel > 1.15 * on_device,
                "{prefix}: A {on_accel} vs D {on_device}"
            );
        }
    }

    #[test]
    fn fem_clustering_puts_sparse_offload_in_a_worse_class() {
        // Table-I-style clustering over the 16 FEM-extended placements:
        // every `…A` placement (FEM offloaded) must rank strictly worse
        // than its `…D` twin — the sparse workload forms its own
        // relative-performance classes rather than shadowing the dense
        // structure.
        use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
        let e = Experiment::table1_fem(2);
        let measured = measure_all_seeded(&e, 40, 17, Parallelism::auto());
        let comparator = BootstrapComparator::with_config(
            5,
            BootstrapConfig {
                reps: 20,
                ..Default::default()
            },
        );
        let table = cluster_measurements_seeded(
            &measured,
            &comparator,
            ClusterConfig::with_repetitions(40),
            19,
        );
        let clustering = table.final_assignment();
        let rank = |label: String| {
            let i = measured.iter().position(|m| m.label == label).unwrap();
            clustering.assignment(i).rank
        };
        for prefix in ["DDD", "DDA", "DAD", "DAA", "ADD", "ADA", "AAD", "AAA"] {
            assert!(
                rank(format!("{prefix}A")) > rank(format!("{prefix}D")),
                "{prefix}: offloaded FEM must rank worse"
            );
        }
    }

    #[test]
    fn fem_pipeline_bit_identical_across_parallelism() {
        use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
        let e = Experiment::table1_fem(2);
        let serial = measure_all_seeded(&e, 15, 23, Parallelism::serial());
        let comparator = BootstrapComparator::with_config(
            7,
            BootstrapConfig {
                reps: 10,
                ..Default::default()
            },
        );
        let reference = cluster_measurements_seeded(
            &serial,
            &comparator,
            ClusterConfig {
                repetitions: 40,
                parallelism: Parallelism::serial(),
            },
            29,
        );
        for threads in [0usize, 2, 7] {
            let par = measure_all_seeded(&e, 15, 23, Parallelism::with_threads(threads));
            for (x, y) in par.iter().zip(&serial) {
                assert_eq!(x.sample.values(), y.sample.values(), "label {}", x.label);
            }
            let table = cluster_measurements_seeded(
                &par,
                &comparator,
                ClusterConfig {
                    repetitions: 40,
                    parallelism: Parallelism::with_threads(threads),
                },
                29,
            );
            assert_eq!(table, reference, "threads = {threads}");
        }
    }

    #[test]
    fn seeded_clustering_matches_paper_structure() {
        // The pipeline must reproduce the qualitative Fig. 1 structure:
        // AD best, AA second, DD ~ DA.
        use relperf_measure::compare::{BootstrapComparator, BootstrapConfig};
        let e = Experiment::fig1();
        let measured = measure_all_seeded(&e, 100, 11, Parallelism::auto());
        let idx = |l: &str| measured.iter().position(|m| m.label == l).unwrap();
        let comparator = BootstrapComparator::with_config(
            5,
            BootstrapConfig {
                reps: 30,
                ..Default::default()
            },
        );
        let table = cluster_measurements_seeded(
            &measured,
            &comparator,
            ClusterConfig::with_repetitions(50),
            13,
        );
        let clustering = table.final_assignment();
        let rank = |l: &str| clustering.assignment(idx(l)).rank;
        assert_eq!(rank("AD"), 1);
        assert_eq!(rank("AA"), 2);
        assert_eq!(rank("DD"), rank("DA"));
    }
}
