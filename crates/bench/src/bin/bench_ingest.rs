//! Machine-readable before/after benchmark of the measurement ingest
//! engine: times the seed's per-element push loop (replicated in-bin as
//! [`BaselineSample`] — `Vec::insert` into the sorted view plus an O(n)
//! position fixup per element) against the bulk extend path
//! ([`Sample::try_extend_all`], one in-place merge per wave), ingesting
//! waves of 1 000 measurements at a time (1e4, 1e5 and 1e6 in all), and
//! writes the medians to `BENCH_ingest.json`.
//!
//! A sample builds its sorted index on the first order read, and a wave
//! into an unread sample only appends. So the bulk path reads one order
//! statistic after every wave, as a session that scores each wave does,
//! and every wave after the first merges into a built index. A separate
//! `write_only` row times the same waves with no read between them: the
//! append-only path, then one index build by the final read.
//!
//! Before any timing, the harness asserts the growth contract: bulk
//! extend, the baseline push loop, and `Sample::new` over the
//! concatenated waves must agree **bit for bit** on values, sorted view,
//! and insertion ids of the sorted order — and the bounded-memory sketch
//! must agree with the exact engine within its documented rank-error
//! bound. A benchmark of a wrong answer is worthless.
//!
//! The baseline is O(n²) in total, so at N = 1e6 it is not run to
//! completion: its time is extrapolated quadratically from the measured
//! N = 1e5 run and the entry is flagged `"baseline_extrapolated": true`
//! in the JSON.
//!
//! Run from the workspace root:
//!
//! ```bash
//! cargo run --release -p relperf-bench --bin bench_ingest
//! ```

use rand::prelude::*;
use relperf_bench::report::{Report, Row};
use relperf_bench::{median_secs, row};
use relperf_measure::{QuantileSketch, Sample};
use std::hint::black_box;

/// The seed ingest path, reproduced verbatim: every push does a binary
/// search, a `Vec::insert` memmove, and a full pass over the position
/// map. O(n) per element, O(n²) for a session.
struct BaselineSample {
    values: Vec<f64>,
    sorted: Vec<f64>,
    sorted_pos: Vec<usize>,
}

impl BaselineSample {
    fn new() -> Self {
        BaselineSample {
            values: Vec::new(),
            sorted: Vec::new(),
            sorted_pos: Vec::new(),
        }
    }

    fn push(&mut self, value: f64) {
        assert!(value.is_finite());
        // Upper bound: ties sort stably by insertion order, and this value
        // is the latest insertion, so it lands after all equal values.
        let ins = self.sorted.partition_point(|&v| v <= value);
        self.sorted.insert(ins, value);
        for pos in &mut self.sorted_pos {
            if *pos >= ins {
                *pos += 1;
            }
        }
        self.sorted_pos.push(ins);
        self.values.push(value);
    }

    /// The insertion ids of the sorted order: the inverse of `sorted_pos`,
    /// built outside any timed region.
    fn sorted_ids(&self) -> Vec<u32> {
        let mut ids = vec![0u32; self.sorted_pos.len()];
        for (i, &pos) in self.sorted_pos.iter().enumerate() {
            ids[pos] = i as u32;
        }
        ids
    }
}

/// Noisy timing-like measurements with deliberate ties (quantised to a
/// tick) so the stable-tie ordering contract is actually exercised.
fn measurements(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let raw = 1.0 + 0.25 * rng.random_range(-1.0f64..1.0);
            (raw * 4096.0).round() / 4096.0
        })
        .collect()
}

const WAVE: usize = 1_000;

/// Ingests `values` in waves of [`WAVE`], reading the median order
/// statistic after each wave when `read_each_wave` (which keeps the
/// sorted index built, so every later wave merges into it) and
/// only once at the end otherwise.
fn ingest_waves(values: &[f64], read_each_wave: bool) -> Sample {
    let mut it = values.chunks(WAVE);
    let mut s = Sample::new(it.next().expect("non-empty").to_vec()).expect("finite");
    for wave in it {
        if read_each_wave {
            black_box(s.order_stat(s.len() / 2));
        }
        s.try_extend_all(wave).expect("finite");
    }
    black_box(s.order_stat(s.len() / 2));
    s
}

fn ingest_baseline(values: &[f64]) -> BaselineSample {
    let mut s = BaselineSample::new();
    for &v in values {
        s.push(v);
    }
    s
}

/// The growth contract, checked before anything is timed: bulk extend
/// (read each wave or write-only) ≡ seed push loop ≡ batch construction,
/// bit for bit, on all three views.
fn assert_bit_identity(values: &[f64]) {
    let bulk = ingest_waves(values, true);
    let base = ingest_baseline(values);
    let batch = Sample::new(values.to_vec()).expect("finite");
    assert_eq!(bulk.values(), base.values.as_slice());
    assert_eq!(bulk.sorted(), base.sorted.as_slice());
    assert_eq!(bulk.sorted_ids(), base.sorted_ids());
    assert_eq!(batch.values(), bulk.values());
    assert_eq!(batch.sorted(), bulk.sorted());
    assert_eq!(batch.sorted_ids(), bulk.sorted_ids());
    assert_eq!(ingest_waves(values, false), bulk);
}

/// Exact-vs-sketch agreement, checked before the sketch is timed: every
/// probed quantile of the bounded-memory sketch must sit within the
/// documented rank-error bound of the exact engine.
fn assert_sketch_agreement(sample: &Sample, capacity: usize) {
    let sketch = QuantileSketch::from_sample(sample, capacity);
    assert_eq!(sketch.count(), sample.len() as u64);
    assert_eq!(sketch.min(), sample.min());
    assert_eq!(sketch.max(), sample.max());
    let n = sample.len() as f64;
    let k = capacity as f64;
    let rank_bound = (n * (n / k).log2() / (2.0 * k)).ceil().max(1.0) as usize;
    for &q in &[0.05, 0.25, 0.5, 0.75, 0.95] {
        let approx = sketch.quantile(q);
        let target = (q * (sample.len() - 1) as f64).round() as usize;
        let lo = sample.order_stat(target.saturating_sub(rank_bound));
        let hi = sample.order_stat((target + rank_bound).min(sample.len() - 1));
        assert!(
            (lo..=hi).contains(&approx),
            "sketch q{q} = {approx} outside exact rank band [{lo}, {hi}]"
        );
    }
}

fn entry(name: String, (before_s, after_s): (f64, f64), extrapolated: bool) -> Row {
    row![
        "name" => name,
        "before_median_s" => before_s,
        "after_median_s" => after_s,
        "speedup" => before_s / after_s,
        "baseline_extrapolated" => extrapolated,
    ]
}

fn main() {
    let mut entries: Vec<Row> = Vec::new();

    // ---- correctness gates, before any clock starts --------------------
    for &n in &[WAVE, 10 * WAVE, 100 * WAVE] {
        assert_bit_identity(&measurements(n, 11));
    }
    // At 1e6 the baseline is infeasible; batch construction is the oracle.
    {
        let big = measurements(1_000_000, 13);
        let bulk = ingest_waves(&big, true);
        let batch = Sample::new(big.clone()).expect("finite");
        assert_eq!(bulk.sorted(), batch.sorted());
        assert_eq!(bulk.sorted_ids(), batch.sorted_ids());
        assert_eq!(ingest_waves(&big, false), bulk);
        assert_sketch_agreement(&bulk, 256);
    }
    println!("bit-identity and sketch-agreement gates passed\n");

    // ---- before/after per N -------------------------------------------
    // At 1e5 the baseline run is seconds; at 1e6 it would be ~100x that,
    // so it is extrapolated quadratically (total work is O(n²)). The
    // smallest row holds ten waves: a single wave would only construct
    // the sample and never merge.
    let mut baseline_1e5 = f64::NAN;
    let mut million = (f64::NAN, f64::NAN);
    for &(n, runs) in &[(10 * WAVE, 9usize), (100 * WAVE, 3), (1_000 * WAVE, 3)] {
        let values = measurements(n, 17);
        let (before_s, extrapolated) = if n <= 100 * WAVE {
            let t = median_secs(runs, || {
                black_box(ingest_baseline(black_box(&values)));
            });
            if n == 100 * WAVE {
                baseline_1e5 = t;
            }
            (t, false)
        } else {
            let scale = (n as f64 / (100 * WAVE) as f64).powi(2);
            (baseline_1e5 * scale, true)
        };
        let after_s = median_secs(runs.max(3), || {
            black_box(ingest_waves(black_box(&values), true));
        });
        let name = format!("ingest/n{n}_wave{WAVE}");
        entries.push(entry(name, (before_s, after_s), extrapolated));
        if n == 1_000 * WAVE {
            million = (before_s, after_s);
        }
    }

    // ---- write-only ingest at 1e6 -------------------------------------
    // Same wave stream with no read between waves: every wave only
    // appends, and the final read builds the index once. Before = bulk
    // ingest read after each wave at the same N.
    {
        let values = measurements(1_000 * WAVE, 17);
        let write_only_s = median_secs(3, || {
            black_box(ingest_waves(black_box(&values), false));
        });
        let name = format!("write_only/n{}_wave{WAVE}", 1_000 * WAVE);
        entries.push(entry(name, (million.1, write_only_s), false));
    }

    // ---- bounded-memory sketch ingest at 1e6 ---------------------------
    // Same wave stream, but the consumer is the opt-in sketch: O(k log n)
    // memory instead of O(n). Before = exact bulk ingest at the same N.
    {
        let values = measurements(1_000 * WAVE, 17);
        let exact_s = million.1;
        let sketch_s = median_secs(3, || {
            let mut sk = QuantileSketch::new(256);
            for wave in values.chunks(WAVE) {
                sk.extend(wave);
            }
            black_box(sk.quantile(0.5));
        });
        let name = format!("sketch/n{}_wave{WAVE}_k256", 1_000 * WAVE);
        entries.push(entry(name, (exact_s, sketch_s), false));
    }

    Report::new("ingest", row!["units" => "seconds", "wave" => WAVE])
        .table("entries", entries)
        .write();

    let speedup = million.0 / million.1;
    assert!(speedup >= 50.0, "expected ≥ 50x at 1e6, got {speedup:.1}x");
}
