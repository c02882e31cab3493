//! Guided search over an exponentially large placement space — the
//! paper's conclusion scenario: "in case of exponential explosion of the
//! search space, our methodology can still be applied on a subset of
//! possible solutions".
//!
//! A 12-stage multi-scale digital-twin chain has 2^12 = 4096 placements.
//! Exhaustively measuring and clustering all of them at Rep=10 would cost
//! ~84 million comparisons; the tournament search below finds a
//! top-class placement with a few thousand, measuring candidates lazily.
//!
//! Expected output: the search-space size, a `search finished: … rounds,
//! … comparisons, … placements measured` summary, the champion placements
//! with their means, and the gap to the noiseless optimum (typically a
//! few percent, from a few hundred of the 4096 placements measured).
//!
//! Run with: `cargo run --release --example guided_search`

use rand::prelude::*;
use relative_performance::core::search::{tournament_search, SearchConfig};
use relative_performance::measure::stream_seed;
use relative_performance::prelude::*;
use relative_performance::workloads::digital_twin::{self, MultiScaleConfig};
use std::collections::HashMap;
use std::sync::Mutex;

fn main() {
    let config = MultiScaleConfig {
        stages: 12,
        base_size: 20,
        growth: 1.4,
        iters_per_stage: 3,
    };
    let tasks = digital_twin::tasks(&config);
    let placements = digital_twin::placements(&config);
    println!(
        "search space: {} placements of {} stages (sizes {}..{})",
        placements.len(),
        config.stages,
        config.stage_size(0),
        config.stage_size(config.stages - 1)
    );

    let platform = presets::table1_platform();
    let comparator = BootstrapComparator::new(7);

    // Lazy measurement: a placement is simulated (N = 15) the first time
    // the search compares it. Placement i draws from its own seed stream,
    // so its sample does not depend on which thread measures it first.
    let cache: Mutex<HashMap<usize, Sample>> = Mutex::new(HashMap::new());
    let sample_of = |i: usize| -> Sample {
        cache
            .lock()
            .unwrap()
            .entry(i)
            .or_insert_with(|| {
                let mut rng = StdRng::seed_from_u64(stream_seed(99, i as u64));
                platform
                    .measure(&tasks, &placements[i].1, 15, &mut rng)
                    .expect("simulated times are finite")
            })
            .clone()
    };

    let result = tournament_search(
        placements.len(),
        SearchConfig {
            round_size: 6,
            repetitions: 8,
            comparison_budget: 30_000,
        },
        5,
        |stream, a, b| comparator.compare_seeded(&sample_of(a), &sample_of(b), stream),
    );

    println!(
        "\nsearch finished: {} rounds, {} comparisons, {} placements measured",
        result.rounds,
        result.comparisons_used,
        cache.lock().unwrap().len()
    );
    println!("champions:");
    for &c in &result.champions {
        println!(
            "  {}  mean {:.4} s",
            placements[c].0,
            sample_of(c).mean()
        );
    }

    // Ground truth for comparison: the noiseless best placement.
    let best = placements
        .iter()
        .enumerate()
        .min_by(|(_, (_, p1)), (_, (_, p2))| {
            let t1 = platform.execute_noiseless(&tasks, p1).total_time_s;
            let t2 = platform.execute_noiseless(&tasks, p2).total_time_s;
            t1.partial_cmp(&t2).unwrap()
        })
        .unwrap();
    let best_time = platform
        .execute_noiseless(&tasks, &best.1 .1)
        .total_time_s;
    println!(
        "\nnoiseless optimum: {} at {:.4} s (exhaustive check over all {})",
        best.1 .0,
        best_time,
        placements.len()
    );
    let champ_best = result
        .champions
        .iter()
        .map(|&c| platform.execute_noiseless(&tasks, &placements[c].1).total_time_s)
        .fold(f64::INFINITY, f64::min);
    println!(
        "best champion: {:.4} s ({:.1}% above the optimum)",
        champ_best,
        100.0 * (champ_best / best_time - 1.0)
    );
}
