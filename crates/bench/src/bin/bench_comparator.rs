//! Machine-readable benchmark of the bootstrap comparison engine and the
//! clustering pipeline around it. Writes `BENCH_comparator.json` with two
//! tables:
//!
//! * `entries` — before/after medians on the same machine and build: the
//!   sort-based **reference oracle** (the pre-fast-path implementation,
//!   kept in-tree as `BootstrapComparator::compare_seeded_reference`)
//!   against the allocation-free count-based fast path, a fresh scratch
//!   arena per comparison against a reused one, the same two paths over
//!   the recorded comparisons of `solo_campaign`-shaped session waves
//!   (the meta counts them, `solo_wave_jobs`, and how many of them the
//!   range certificate decides without a round, `solo_wave_certified`) and
//!   on an n = 5000 pair, and the clustering repetition loop on one thread
//!   against all cores (asserted bit-identical before timing);
//! * `timings` — single medians of the layers the pipeline is built from:
//!   the per-round split of the replay's overlapping comparisons (the
//!   ones the certificate leaves to the rounds: RNG draws, tally scatter,
//!   both rank passes, vote plus lock-in, each the difference between
//!   two cumulative replays and read per round; the meta counts them),
//!   a two-thread fork/join, bootstrap resampling, the median
//!   comparator, the platform simulator, the three-way sort and
//!   Procedure 4, and the full measure → compare → cluster pipeline of
//!   both paper experiments.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_comparator
//! ```

use rand::prelude::*;
use relperf_bench::report::{Report, Row};
use relperf_bench::{median_pair, median_secs, noisy_sample, paper_comparator, row, run_pipeline};
use relperf_core::cluster::{relative_scores_seeded, ClusterConfig, Parallelism};
use relperf_core::session::ClusterSession;
use relperf_core::sort::sort;
use relperf_measure::bootstrap::{mean_ci, resample, resample_id_counts_into, QuantilePlan};
use relperf_measure::compare::{BootstrapComparator, BootstrapConfig, MedianComparator, Scratch};
use relperf_measure::{
    stream_seed, Outcome, Sample, ScratchThreeWayComparator, SeededThreeWayComparator,
    ThreeWayComparator,
};
use relperf_parallel::parallel_map_indexed_with;
use relperf_workloads::experiment::{cluster_measurements_seeded, measure_all_seeded, Experiment};
use std::hint::black_box;
use std::sync::Mutex;

/// Median seconds per call of `f`, timed over batches of `calls` calls so
/// sub-microsecond operations stay above the timer's resolution.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    median_secs(9, || (0..calls).for_each(|_| f())) / calls as f64
}

fn pair(name: String, (before_s, after_s): (f64, f64)) -> Row {
    row![
        "name" => name,
        "before_median_s" => before_s,
        "after_median_s" => after_s,
        "speedup" => before_s / after_s,
    ]
}

fn timing(name: String, median_s: f64) -> Row {
    row!["name" => name, "median_s" => median_s]
}

/// One comparison a session asked for: `(stream, a, b)`, with `a` and `b`
/// indices into the recorded sample table.
type Job = (u64, usize, usize);

/// A [`BootstrapComparator`] that records every comparison it answers.
/// Samples are stored once per distinct content, so a wave's p samples
/// take p table slots however many comparisons read them.
struct Recording<'a> {
    inner: &'a BootstrapComparator,
    log: Mutex<(Vec<Sample>, Vec<Job>)>,
}

impl Recording<'_> {
    fn record(&self, a: &Sample, b: &Sample, stream: u64) {
        let mut log = self.log.lock().expect("recorder lock");
        let (samples, jobs) = &mut *log;
        let mut slot = |s: &Sample| match samples.iter().rposition(|t| t.values() == s.values()) {
            Some(i) => i,
            None => {
                samples.push(s.clone());
                samples.len() - 1
            }
        };
        jobs.push((stream, slot(a), slot(b)));
    }
}

impl ThreeWayComparator for Recording<'_> {
    fn compare(&self, a: &Sample, b: &Sample) -> Outcome {
        self.inner.compare(a, b)
    }
}

impl SeededThreeWayComparator for Recording<'_> {
    fn compare_seeded(&self, a: &Sample, b: &Sample, stream: u64) -> Outcome {
        self.record(a, b, stream);
        self.inner.compare_seeded(a, b, stream)
    }
}

impl ScratchThreeWayComparator for Recording<'_> {
    type Scratch = Scratch;

    fn new_scratch(&self) -> Scratch {
        Scratch::new()
    }

    fn compare_seeded_scratch(
        &self,
        scratch: &mut Scratch,
        a: &Sample,
        b: &Sample,
        stream: u64,
    ) -> Outcome {
        self.record(a, b, stream);
        self.inner.compare_seeded_scratch(scratch, a, b, stream)
    }
}

/// The comparisons `campaigns` `solo_campaign`-shaped campaigns ask for:
/// one session per campaign over `Experiment::table1(10)`, 50
/// repetitions, six waves that each extend every algorithm by 5 values
/// (n 5 → 30) and score. Seeds are derived the way the repo benchmark
/// derives them from its seed 1.
fn solo_wave_jobs(comparator: &BootstrapComparator, campaigns: u64) -> (Vec<Sample>, Vec<Job>) {
    let (waves, per_wave) = (6, 5);
    let exp = Experiment::table1(10);
    let recording = Recording {
        inner: comparator,
        log: Mutex::default(),
    };
    for k in 0..campaigns {
        let seed = stream_seed(1, k + 1);
        let measured = measure_all_seeded(&exp, waves * per_wave, seed, Parallelism::serial());
        let config = ClusterConfig {
            repetitions: 50,
            parallelism: Parallelism::serial(),
        };
        let mut session =
            ClusterSession::new(measured.len(), &recording, config, stream_seed(seed, 7));
        for w in 0..waves {
            for (alg, m) in measured.iter().enumerate() {
                let values = &m.sample.values()[w * per_wave..(w + 1) * per_wave];
                session.extend(alg, values).expect("finite measurements");
            }
            session.score();
        }
    }
    recording.log.into_inner().expect("recorder lock")
}

/// How far [`replay_rounds`] runs each bootstrap round; each phase adds
/// one step of the comparator's round to the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    /// Both sides' `n` uniform index draws, folded into a checksum.
    Draws,
    /// The draws scattered into the insertion-order tallies.
    Tally,
    /// Plus both sides' quantile reads (rank passes at these sizes).
    RankPasses,
    /// Plus the dominance vote and the repetition lock-in: the whole
    /// comparison.
    Vote,
}

/// Replays `jobs` through the public pieces of
/// [`BootstrapComparator`]'s round, up to `phase`. `Phase::Vote` runs
/// each comparison to its lock-in as the comparator does and returns
/// every job's rounds and outcome; the earlier phases run `rounds[i]`
/// rounds of job `i` and return `None` outcomes. Every phase seeds each
/// job's RNG stream as the comparator does (so that cost lands in the
/// draws).
fn replay_rounds(
    comparator: &BootstrapComparator,
    base_seed: u64,
    samples: &[Sample],
    jobs: &[Job],
    rounds: &[usize],
    phase: Phase,
) -> Vec<(usize, Option<Outcome>)> {
    let config = comparator.config();
    let reps = config.reps;
    let q = config.quantiles.len();
    let needed = ((config.dominance * q as f64).ceil() as usize).max(1);
    let decide = |wins_a: usize, wins_b: usize| {
        let (pa, pb) = (wins_a as f64 / reps as f64, wins_b as f64 / reps as f64);
        if pa - pb > config.threshold {
            Outcome::Better
        } else if pb - pa > config.threshold {
            Outcome::Worse
        } else {
            Outcome::Equivalent
        }
    };
    let (mut counts, mut stats) = (Vec::new(), Vec::new());
    let (mut q_a, mut q_b) = (Vec::new(), Vec::new());
    let (mut plan_a, mut plan_b) = (QuantilePlan::default(), QuantilePlan::default());
    let mut checksum = 0usize;
    let mut out = Vec::with_capacity(jobs.len());
    for (i, &(stream, a, b)) in jobs.iter().enumerate() {
        let (a, b) = (&samples[a], &samples[b]);
        let mut rng = StdRng::seed_from_u64(stream_seed(base_seed, stream));
        if phase < Phase::Tally {
            for _ in 0..rounds[i] {
                for n in [a.len(), b.len()] {
                    for _ in 0..n {
                        checksum ^= rng.random_range(0..n);
                    }
                }
            }
            out.push((rounds[i], None));
            continue;
        }
        if phase < Phase::RankPasses {
            for _ in 0..rounds[i] {
                resample_id_counts_into(&mut rng, a, &mut counts);
                resample_id_counts_into(&mut rng, b, &mut counts);
            }
            out.push((rounds[i], None));
            continue;
        }
        plan_a.prepare(&config.quantiles, a.len());
        plan_b.prepare(&config.quantiles, b.len());
        let (mut wins_a, mut wins_b, mut done) = (0usize, 0usize, 0usize);
        while done < reps {
            resample_id_counts_into(&mut rng, a, &mut counts);
            plan_a.extract_sample_into(a, &counts, &mut stats, &mut q_a);
            resample_id_counts_into(&mut rng, b, &mut counts);
            plan_b.extract_sample_into(b, &counts, &mut stats, &mut q_b);
            done += 1;
            if phase < Phase::Vote {
                if done == rounds[i] {
                    break;
                }
                continue;
            }
            // The comparator's early-exit vote.
            let (mut votes_a, mut votes_b) = (0usize, 0usize);
            for k in 0..q {
                let gap = config.margin * q_a[k].abs().min(q_b[k].abs());
                if q_a[k] < q_b[k] - gap {
                    votes_a += 1;
                } else if q_b[k] < q_a[k] - gap {
                    votes_b += 1;
                }
                if votes_a >= needed {
                    wins_a += 1;
                    break;
                }
                let rem = q - k - 1;
                if votes_a + rem < needed {
                    if votes_b >= needed {
                        wins_b += 1;
                        break;
                    }
                    if votes_b + rem < needed {
                        break;
                    }
                }
            }
            let rem = reps - done;
            if decide(wins_a, wins_b + rem) == decide(wins_a + rem, wins_b) {
                break;
            }
        }
        let outcome = (phase == Phase::Vote).then(|| decide(wins_a, wins_b));
        out.push((done, outcome));
    }
    black_box(checksum);
    out
}

/// Comparator answering by a fixed quality level per algorithm.
fn by_level(levels: &[usize]) -> impl Fn(usize, usize) -> Outcome + Sync + '_ {
    move |a, b| match levels[a].cmp(&levels[b]) {
        std::cmp::Ordering::Less => Outcome::Better,
        std::cmp::Ordering::Greater => Outcome::Worse,
        std::cmp::Ordering::Equal => Outcome::Equivalent,
    }
}

fn main() {
    let mut entries: Vec<Row> = Vec::new();
    let mut timings: Vec<Row> = Vec::new();

    // Single-comparison cost at the borderline the clustering engine
    // lives on (5% gap, N-sized samples, stream-addressed comparisons).
    let streams = 64u64;
    for &(n, reps) in &[(30usize, 30usize), (30, 100), (100, 100), (500, 100)] {
        let a = noisy_sample(1.00, n, 4);
        let b = noisy_sample(1.05, n, 5);
        let cmp = BootstrapComparator::with_config(
            6,
            BootstrapConfig {
                reps,
                ..Default::default()
            },
        );
        let before_s = median_secs(9, || {
            for s in 0..streams {
                black_box(cmp.compare_seeded_reference(&a, &b, s));
            }
        }) / streams as f64;
        let mut scratch = Scratch::new();
        let after_s = median_secs(9, || {
            for s in 0..streams {
                black_box(cmp.compare_seeded_scratch(&mut scratch, &a, &b, s));
            }
        }) / streams as f64;
        entries.push(pair(
            format!("compare/n{n}_reps{reps}"),
            (before_s, after_s),
        ));
        if reps == 100 {
            // The allocation-cost share: a fresh arena per comparison.
            let mut scratch = Scratch::new();
            let (fresh_s, reused_s) = median_pair(
                9,
                || {
                    (0..streams).for_each(|s| {
                        black_box(cmp.compare_seeded(&a, &b, s));
                    })
                },
                || {
                    (0..streams).for_each(|s| {
                        black_box(cmp.compare_seeded_scratch(&mut scratch, &a, &b, s));
                    })
                },
            );
            let per_stream = (fresh_s / streams as f64, reused_s / streams as f64);
            entries.push(pair(format!("scratch/n{n}_reps{reps}"), per_stream));
        }
    }

    // The comparisons of real session waves, replayed: unlike the
    // single-pair rows above, they change pair and sample size from one
    // comparison to the next, as a wave does.
    let replay_seed = stream_seed(1, 0x00C0_FFEE);
    let comparator = paper_comparator(replay_seed);
    let (samples, jobs) = solo_wave_jobs(&comparator, 8);
    let replay_reference = || {
        jobs.iter()
            .map(|&(s, a, b)| comparator.compare_seeded_reference(&samples[a], &samples[b], s))
            .collect::<Vec<_>>()
    };
    let mut scratch = Scratch::new();
    let mut replay_fast = || {
        jobs.iter()
            .map(|&(s, a, b)| {
                comparator.compare_seeded_scratch(&mut scratch, &samples[a], &samples[b], s)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        replay_reference(),
        replay_fast(),
        "the fast path must replay the reference outcomes"
    );
    let (before_s, after_s) = median_pair(
        3,
        || {
            black_box(replay_reference());
        },
        || {
            black_box(replay_fast());
        },
    );
    let per_job = |t: f64| t / jobs.len() as f64;
    entries.push(pair(
        "compare/solo_waves".to_string(),
        (per_job(before_s), per_job(after_s)),
    ));

    // The comparisons the range certificate leaves to the rounds, split
    // per round. The full replay must reach the comparator's outcomes
    // before anything is timed.
    let overlap: Vec<Job> = jobs
        .iter()
        .copied()
        .filter(|&(_, a, b)| {
            comparator
                .range_certificate(&samples[a], &samples[b])
                .is_none()
        })
        .collect();
    let certified = jobs.len() - overlap.len();
    let replay = |rounds: &[usize], phase| {
        replay_rounds(&comparator, replay_seed, &samples, &overlap, rounds, phase)
    };
    let full = replay(&[], Phase::Vote);
    let mut scratch = Scratch::new();
    for (&(s, a, b), &(_, outcome)) in overlap.iter().zip(&full) {
        let expected = comparator.compare_seeded_scratch(&mut scratch, &samples[a], &samples[b], s);
        assert_eq!(
            outcome,
            Some(expected),
            "the split replay must reach the comparator's outcome"
        );
    }
    let rounds: Vec<usize> = full.iter().map(|&(r, _)| r).collect();
    let total_rounds: usize = rounds.iter().sum();
    let total_draws: usize = overlap
        .iter()
        .zip(&rounds)
        .map(|(&(_, a, b), &r)| r * (samples[a].len() + samples[b].len()))
        .sum();
    // Interleave the phases run by run so host drift spreads over all
    // four, then difference the cumulative medians.
    let phases = [Phase::Draws, Phase::Tally, Phase::RankPasses, Phase::Vote];
    let mut times: [Vec<f64>; 4] = Default::default();
    for run in 0..10 {
        for (t, &phase) in times.iter_mut().zip(&phases) {
            let started = std::time::Instant::now();
            black_box(replay(&rounds, phase));
            if run > 0 {
                t.push(started.elapsed().as_secs_f64());
            }
        }
    }
    let cumulative: Vec<f64> = times
        .into_iter()
        .map(|mut t| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2] / total_rounds as f64
        })
        .collect();
    let steps = ["draws", "tally_scatter", "rank_passes", "vote_lock_in"];
    for (k, name) in steps.iter().enumerate() {
        let before = if k == 0 { 0.0 } else { cumulative[k - 1] };
        timings.push(timing(format!("round/{name}"), cumulative[k] - before));
    }
    let mut scratch = Scratch::new();
    timings.push(timing(
        "round/comparator".to_string(),
        median_secs(9, || {
            for &(s, a, b) in &overlap {
                black_box(comparator.compare_seeded_scratch(
                    &mut scratch,
                    &samples[a],
                    &samples[b],
                    s,
                ));
            }
        }) / total_rounds as f64,
    ));

    // What `Score`'s fan-out pays per call on two threads: one scoped
    // spawn and join around trivial work.
    timings.push(timing(
        "parallel/fork_join".to_string(),
        per_call(64, || {
            black_box(parallel_map_indexed_with(
                2,
                Parallelism::with_threads(2),
                || (),
                |(), i| i,
            ));
        }),
    ));

    // A large pair (n = 5000): the rounds take the cumulative walk.
    let (a, b) = (noisy_sample(1.00, 5000, 4), noisy_sample(1.05, 5000, 5));
    let large_streams = 8u64;
    let mut scratch = Scratch::new();
    let (before_s, after_s) = median_pair(
        5,
        || {
            for s in 0..large_streams {
                black_box(comparator.compare_seeded_reference(&a, &b, s));
            }
        },
        || {
            for s in 0..large_streams {
                black_box(comparator.compare_seeded_scratch(&mut scratch, &a, &b, s));
            }
        },
    );
    let per_stream = |t: f64| t / large_streams as f64;
    entries.push(pair(
        "compare/n5000_reps30".to_string(),
        (per_stream(before_s), per_stream(after_s)),
    ));

    // End to end: the Table I pipeline's clustering stage (measurements
    // are shared; the comparator dominates). Before = same engine with
    // every comparison answered by the reference oracle.
    let exp = Experiment::table1(2);
    let measured = measure_all_seeded(&exp, 30, 31, Parallelism::serial());
    let comparator = BootstrapComparator::with_config(
        7,
        BootstrapConfig {
            reps: 30,
            ..Default::default()
        },
    );
    let config = ClusterConfig {
        repetitions: 40,
        parallelism: Parallelism::serial(),
    };
    let before_s = median_secs(9, || {
        black_box(relative_scores_seeded(
            measured.len(),
            config,
            3,
            |stream, x, y| {
                comparator.compare_seeded_reference(
                    &measured[x].sample,
                    &measured[y].sample,
                    stream,
                )
            },
        ));
    });
    let after_s = median_secs(9, || {
        black_box(cluster_measurements_seeded(
            &measured,
            &comparator,
            config,
            3,
        ));
    });
    entries.push(pair(
        "end_to_end/table1_cluster_rep40".to_string(),
        (before_s, after_s),
    ));

    // Procedure 4's repetition loop on one thread vs all cores. The two
    // are bit-identical by construction; check that before timing.
    let measured = measure_all_seeded(&exp, 30, 1234, Parallelism::auto());
    let comparator = paper_comparator(1234);
    let cluster = |repetitions, parallelism| {
        let config = ClusterConfig {
            repetitions,
            parallelism,
        };
        cluster_measurements_seeded(&measured, &comparator, config, 7)
    };
    assert_eq!(
        cluster(20, Parallelism::serial()),
        cluster(20, Parallelism::auto()),
        "parallel clustering must be bit-identical"
    );
    entries.push(pair(
        "parallel/table1_cluster_rep50".to_string(),
        median_pair(
            9,
            || {
                black_box(cluster(50, Parallelism::serial()));
            },
            || {
                black_box(cluster(50, Parallelism::auto()));
            },
        ),
    ));
    let serial20 = ClusterConfig {
        repetitions: 20,
        parallelism: Parallelism::serial(),
    };
    timings.push(timing(
        "procedure4/table1_cached_rep20".to_string(),
        median_secs(9, || {
            black_box(relative_scores_seeded(
                measured.len(),
                serial20,
                7,
                |stream, x, y| {
                    comparator.compare_seeded(&measured[x].sample, &measured[y].sample, stream)
                },
            ));
        }),
    ));

    // Bootstrap resampling and the median comparator.
    for n in [30usize, 100, 500] {
        let s = noisy_sample(1.0, n, 1);
        let mut rng = StdRng::seed_from_u64(2);
        timings.push(timing(
            format!("bootstrap/resample_n{n}"),
            per_call(256, || {
                black_box(resample(&mut rng, black_box(&s)));
            }),
        ));
        let mut rng = StdRng::seed_from_u64(3);
        timings.push(timing(
            format!("bootstrap/mean_ci_200_n{n}"),
            per_call(4, || {
                black_box(mean_ci(&mut rng, black_box(&s), 200, 0.95));
            }),
        ));
    }
    let (a, b) = (noisy_sample(1.00, 30, 4), noisy_sample(1.05, 30, 5));
    let median = MedianComparator::new(0.02);
    timings.push(timing(
        "three-way-compare/median_n30".to_string(),
        per_call(1024, || {
            black_box(median.compare(black_box(&a), black_box(&b)));
        }),
    ));

    // The platform simulator: one execution and one N-sample.
    let exp = Experiment::table1(10);
    let placement = &exp.placements[1].1; // DDA
    let mut rng = StdRng::seed_from_u64(1);
    timings.push(timing(
        "simulate/one_execution".to_string(),
        per_call(1024, || {
            black_box(
                exp.platform
                    .execute(black_box(&exp.tasks), black_box(placement), &mut rng),
            );
        }),
    ));
    for n in [30usize, 500] {
        let mut rng = StdRng::seed_from_u64(2);
        timings.push(timing(
            format!("simulate/measure_n{n}"),
            per_call(16, || {
                black_box(
                    exp.platform
                        .measure(&exp.tasks, placement, n, &mut rng)
                        .expect("measures"),
                );
            }),
        ));
    }

    // The three-way sort and Procedure 4 on synthetic level comparators,
    // as the algorithm count p grows.
    for p in [8usize, 32, 128] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let levels: Vec<usize> = (0..p).map(|_| rng.random_range(0..p / 2)).collect();
        timings.push(timing(
            format!("three-way-sort/p{p}"),
            per_call(16, || {
                black_box(sort(black_box(p), by_level(&levels)));
            }),
        ));
    }
    for p in [8usize, 16] {
        let mut rng = StdRng::seed_from_u64(p as u64);
        let levels: Vec<usize> = (0..p).map(|_| rng.random_range(0..4)).collect();
        let cmp = by_level(&levels);
        timings.push(timing(
            format!("procedure4/p{p}_rep100"),
            median_secs(9, || {
                let config = ClusterConfig::with_repetitions(100);
                black_box(relative_scores_seeded(
                    black_box(p),
                    config,
                    9,
                    |_, a, b| cmp(a, b),
                ));
            }),
        ));
    }

    // The full measure → compare → cluster pipeline of both experiments.
    for (name, exp) in [
        ("fig1", Experiment::fig1()),
        ("table1", Experiment::table1(10)),
    ] {
        timings.push(timing(
            format!("pipeline/{name}_n30_rep20"),
            median_secs(9, || {
                black_box(run_pipeline(&exp, 30, 20, 3).1.final_assignment());
            }),
        ));
    }

    Report::new(
        "comparator",
        row![
            "units" => "seconds",
            "solo_wave_jobs" => jobs.len(),
            "solo_wave_certified" => certified,
            "overlap_jobs" => overlap.len(),
            "overlap_rounds_per_job" => total_rounds as f64 / overlap.len() as f64,
            "overlap_draws_per_round" => total_draws as f64 / total_rounds as f64,
        ],
    )
        .table("entries", entries)
        .table("timings", timings)
        .write();
}
