//! Property-based tests of samples, bootstrap, and comparators.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::prelude::*;
use relperf_measure::bootstrap::{
    mean_ci, quantile_sorted, resample, resample_id_counts_into, resample_into, QuantilePlan,
};
use relperf_measure::compare::{
    BootstrapComparator, BootstrapConfig, MedianComparator, Outcome, SeededThreeWayComparator,
    ThreeWayComparator,
};
use relperf_measure::ranksum::MannWhitneyComparator;
use relperf_measure::Sample;

/// The growth-contract properties below start some samples just under
/// or past this size and grow them across it, so merges run long
/// gallops and large shifts as well as small ones.
const LARGE: usize = 2048;

fn finite_values() -> impl Strategy<Value = Vec<f64>> {
    vec(0.001f64..1_000.0, 1..200)
}

/// One measurement that is either a continuous draw or one of six discrete
/// levels — mixing the two makes duplicate values (cross- and within-wave
/// ties) common, which is what stresses the stable tie order of the
/// sorted index.
fn tie_prone_value() -> impl Strategy<Value = f64> {
    (proptest::bool::ANY, 0.001f64..1_000.0, 0u8..6).prop_map(|(discrete, cont, level)| {
        if discrete {
            level as f64 * 0.25 + 0.25
        } else {
            cont
        }
    })
}

/// One measurement drawn to collide: `0.0`, `-0.0` (equal to `0.0` but
/// not bit-identical, so only the stable tie order tells them apart), one
/// of six discrete levels on both sides of zero, or a continuous draw.
fn signed_tie_value() -> impl Strategy<Value = f64> {
    (0u8..4, -1_000.0f64..1_000.0, 0u8..6).prop_map(|(kind, cont, level)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => level as f64 * 0.5 - 1.5,
        _ => cont,
    })
}

/// The largest sample `QuantilePlan::extract_sample_into` reads by its
/// rank pass (the private `RANK_PASS_MAX` of `relperf_measure::bootstrap`,
/// whose unit tests pin it to this value).
const RANK_PASS_MAX: usize = 256;

/// A sample size in `1..=2·RANK_PASS_MAX + 88`, with both sides of the
/// rank-pass cutoff drawn explicitly a quarter of the time each.
fn rank_pass_size() -> impl Strategy<Value = usize> {
    (0u8..4, 1usize..2 * RANK_PASS_MAX + 89).prop_map(|(pick, n)| match pick {
        0 => RANK_PASS_MAX,
        1 => RANK_PASS_MAX + 1,
        _ => n,
    })
}

/// 1–12 quantiles mixing the ends of `[0, 1]`, duplicates of the previous
/// quantile, and continuous draws.
fn quantile_list() -> impl Strategy<Value = Vec<f64>> {
    vec((0u8..5, 0.0f64..1.0), 1..13).prop_map(|picks| {
        let mut qs: Vec<f64> = Vec::with_capacity(picks.len());
        for (kind, q) in picks {
            qs.push(match (kind, qs.last()) {
                (0, _) => 0.0,
                (1, _) => 1.0,
                (2, Some(&prev)) => prev,
                _ => q,
            });
        }
        qs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sample_quantile_reads_equal_expanded_counts(
        n in rank_pass_size(),
        seed in 0u64..1_000,
        quantiles in quantile_list(),
        resampled in proptest::bool::ANY,
    ) {
        // Both strategies of QuantilePlan::extract_sample_into — the rank
        // pass (n ≤ RANK_PASS_MAX) and the cumulative walk (larger
        // samples) — must be BIT-identical to expanding the tallies into a
        // resample, sorting it, and calling quantile_sorted: on either
        // side of the cutoff, for tie-prone values, more than 16 planned
        // order statistics, and tallies that sum to n (a bootstrap draw)
        // or to any other size.
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<f64> = (0..n)
            .map(|_| {
                if rng.random_bool(0.5) {
                    rng.random_range(0..6) as f64 * 0.25 + 0.25
                } else {
                    rng.random_range(0.001f64..1_000.0)
                }
            })
            .collect();
        let s = Sample::new(values).unwrap();

        let mut counts = Vec::new();
        if resampled {
            resample_id_counts_into(&mut rng, &s, &mut counts);
        } else {
            counts = (0..n).map(|_| rng.random_range(0..4u32)).collect();
            counts[rng.random_range(0..n)] += 1;
        }
        let mut expanded: Vec<f64> = s
            .values()
            .iter()
            .zip(&counts)
            .flat_map(|(&v, &c)| std::iter::repeat_n(v, c as usize))
            .collect();
        expanded.sort_by(|x, y| x.partial_cmp(y).unwrap());

        let mut plan = QuantilePlan::default();
        plan.prepare(&quantiles, expanded.len());
        let (mut stats, mut out) = (Vec::new(), Vec::new());
        plan.extract_sample_into(&s, &counts, &mut stats, &mut out);
        prop_assert_eq!(out.len(), quantiles.len());
        for (&got, &q) in out.iter().zip(&quantiles) {
            let want = quantile_sorted(&expanded, q);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "n = {}, q = {}", n, q);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(values in finite_values()) {
        let s = Sample::new(values).unwrap();
        let qs: Vec<f64> = (0..=10).map(|i| s.quantile(i as f64 / 10.0)).collect();
        for w in qs.windows(2) {
            prop_assert!(w[1] >= w[0], "quantiles must be monotone: {qs:?}");
        }
        prop_assert_eq!(qs[0], s.min());
        prop_assert_eq!(qs[10], s.max());
        prop_assert!(s.mean() >= s.min() && s.mean() <= s.max());
        prop_assert!(s.median() >= s.min() && s.median() <= s.max());
    }

    #[test]
    fn variance_is_translation_invariant(values in finite_values(), shift in -100.0f64..100.0) {
        let s = Sample::new(values.clone()).unwrap();
        let shifted = Sample::new(values.iter().map(|v| v + shift).collect()).unwrap();
        prop_assert!((s.variance() - shifted.variance()).abs() < 1e-6 * s.variance().max(1.0));
        prop_assert!((s.mean() + shift - shifted.mean()).abs() < 1e-9 * s.mean().abs().max(1.0));
    }

    #[test]
    fn histogram_conserves_mass(values in finite_values(), bins in 1usize..32) {
        let s = Sample::new(values).unwrap();
        let h = s.histogram(bins);
        prop_assert_eq!(h.total(), s.len());
        prop_assert_eq!(h.edges.len(), bins + 1);
    }

    #[test]
    fn resample_stays_within_sample_range(values in finite_values(), seed in 0u64..1_000) {
        let s = Sample::new(values).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let r = resample(&mut rng, &s);
        prop_assert_eq!(r.len(), s.len());
        for v in r {
            prop_assert!(v >= s.min() && v <= s.max());
            prop_assert!(s.values().contains(&v));
        }
    }

    #[test]
    fn bootstrap_cis_bracket_the_statistic_range(values in finite_values(), seed in 0u64..500) {
        let s = Sample::new(values).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let ci_mean = mean_ci(&mut rng, &s, 100, 0.9);
        prop_assert!(ci_mean.lo <= ci_mean.hi);
        prop_assert!(ci_mean.lo >= s.min() - 1e-9 && ci_mean.hi <= s.max() + 1e-9);
    }

    #[test]
    fn comparators_are_reflexively_equivalent(values in finite_values(), seed in 0u64..500) {
        let s = Sample::new(values).unwrap();
        let boot = BootstrapComparator::new(seed);
        prop_assert_eq!(boot.compare(&s, &s), Outcome::Equivalent);
        let med = MedianComparator::new(0.01);
        prop_assert_eq!(med.compare(&s, &s), Outcome::Equivalent);
        let mw = MannWhitneyComparator::new(0.05);
        prop_assert_eq!(mw.compare(&s, &s), Outcome::Equivalent);
    }

    #[test]
    fn median_comparator_is_antisymmetric(a in finite_values(), b in finite_values()) {
        let sa = Sample::new(a).unwrap();
        let sb = Sample::new(b).unwrap();
        let cmp = MedianComparator::new(0.02);
        prop_assert_eq!(cmp.compare(&sa, &sb), cmp.compare(&sb, &sa).invert());
    }

    #[test]
    fn mann_whitney_is_antisymmetric(a in finite_values(), b in finite_values()) {
        let sa = Sample::new(a).unwrap();
        let sb = Sample::new(b).unwrap();
        let cmp = MannWhitneyComparator::new(0.05);
        prop_assert_eq!(cmp.compare(&sa, &sb), cmp.compare(&sb, &sa).invert());
    }

    #[test]
    fn clearly_separated_samples_always_decided(base in 0.5f64..10.0, seed in 0u64..300) {
        // b = 3x a elementwise: every comparator must call a better.
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..40).map(|_| base * (1.0 + 0.05 * rng.random_range(-1.0..1.0))).collect();
        let b: Vec<f64> = a.iter().map(|v| 3.0 * v).collect();
        let sa = Sample::new(a).unwrap();
        let sb = Sample::new(b).unwrap();
        prop_assert_eq!(BootstrapComparator::new(seed).compare(&sa, &sb), Outcome::Better);
        prop_assert_eq!(MedianComparator::new(0.02).compare(&sa, &sb), Outcome::Better);
        prop_assert_eq!(MannWhitneyComparator::new(0.05).compare(&sa, &sb), Outcome::Better);
    }

    #[test]
    fn count_based_quantiles_equal_sort_based_reference(
        values in finite_values(),
        seed in 0u64..1_000,
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        // The comparator fast path in one property: drawing a resample as
        // a tally over insertion ids and reading quantiles through the
        // sorted ids must be BIT-identical (== on f64, no epsilon) to
        // materializing the same seeded resample, sorting it, and calling
        // quantile_sorted — for arbitrary samples and quantiles. The tally
        // must consume the RNG exactly as resample_into does.
        let s = Sample::new(values).unwrap();

        let mut buf = Vec::new();
        resample_into(&mut StdRng::seed_from_u64(seed), &s, &mut buf);
        buf.sort_by(|x, y| x.partial_cmp(y).unwrap());

        let mut counts = Vec::new();
        resample_id_counts_into(&mut StdRng::seed_from_u64(seed), &s, &mut counts);
        prop_assert_eq!(counts.iter().map(|&c| c as usize).sum::<usize>(), s.len());

        let quantiles = [qa, qb, 0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0];
        let mut plan = QuantilePlan::default();
        plan.prepare(&quantiles, s.len());
        let (mut stats, mut fast) = (Vec::new(), Vec::new());
        plan.extract_sample_into(&s, &counts, &mut stats, &mut fast);
        prop_assert_eq!(fast.len(), quantiles.len());
        for (i, &q) in quantiles.iter().enumerate() {
            prop_assert_eq!(fast[i], quantile_sorted(&buf, q), "q = {}", q);
        }
    }

    #[test]
    fn incremental_push_equals_batch_construction(values in finite_values()) {
        // A sample grown one push at a time must be bit-identical — values,
        // sorted view, insertion ids, quantiles — to one built by
        // Sample::new from the same prefix, at every prefix length. This
        // is the invariant that keeps the count-vector comparator fast
        // path valid mid-stream.
        let mut grown = Sample::new(values[..1].to_vec()).unwrap();
        for (i, &v) in values.iter().enumerate().skip(1) {
            grown.push(v).unwrap();
            let rebuilt = Sample::new(values[..=i].to_vec()).unwrap();
            prop_assert_eq!(grown.values(), rebuilt.values());
            prop_assert_eq!(grown.sorted(), rebuilt.sorted());
            prop_assert_eq!(grown.sorted_ids(), rebuilt.sorted_ids());
        }
        let rebuilt = Sample::new(values).unwrap();
        for q in [0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0] {
            prop_assert_eq!(grown.quantile(q), rebuilt.quantile(q), "q = {}", q);
        }
    }

    #[test]
    fn bulk_extend_equals_push_equals_batch_construction(
        base in vec(tie_prone_value(), 1..20),
        waves in vec(vec(tie_prone_value(), 0..30), 1..6),
        read_first in proptest::bool::ANY,
    ) {
        // The ingest-engine growth contract: a sample grown by bulk
        // merge waves (any batch split, the first wave into a built or an
        // unbuilt index) must be bit-identical — values, sorted view,
        // insertion ids — to one grown by per-element push AND to one
        // built by Sample::new from the concatenation, after every wave.
        let mut bulk = Sample::new(base.clone()).unwrap();
        if read_first {
            let _ = bulk.min(); // builds the index before the first wave
        }
        let mut pushed = Sample::new(base.clone()).unwrap();
        let mut all = base.clone();
        for wave in &waves {
            bulk.try_extend_all(wave).unwrap();
            for &v in wave {
                pushed.push(v).unwrap();
            }
            all.extend_from_slice(wave);
            let rebuilt = Sample::new(all.clone()).unwrap();
            prop_assert_eq!(bulk.values(), pushed.values());
            prop_assert_eq!(bulk.sorted(), pushed.sorted());
            prop_assert_eq!(bulk.sorted_ids(), pushed.sorted_ids());
            prop_assert_eq!(bulk.values(), rebuilt.values());
            prop_assert_eq!(bulk.sorted(), rebuilt.sorted());
            prop_assert_eq!(bulk.sorted_ids(), rebuilt.sorted_ids());
            // Running moments ride the same insertion-order fold.
            prop_assert_eq!(bulk.mean(), pushed.mean());
            prop_assert_eq!(bulk.variance(), pushed.variance());
        }
    }

    #[test]
    fn write_before_first_read_equals_batch_construction(
        base in vec(signed_tie_value(), 1..64),
        size in 0u8..3,
        more in vec(signed_tie_value(), 1..40),
        write in 0u8..2,
        read_first in proptest::bool::ANY,
    ) {
        // `Sample::new` defers the sorted index. Unread, the write only
        // appends and the first read builds the index from every value;
        // read first (`read_first`), the read builds it from the values
        // before the write, which then merges into it. Both must land on
        // the same bits as building the concatenation in one go: for
        // small samples, for ones just under `LARGE` (the write crosses
        // it), and for ones past it.
        let n = match size {
            0 => base.len(),
            1 => LARGE - base.len() % 8,
            _ => LARGE + base.len(),
        };
        // Cycling scaled copies keeps ±0.0 and the discrete levels tied.
        let a: Vec<f64> =
            (0..n).map(|i| base[i % base.len()] * (1 + i / base.len()) as f64).collect();
        let mut grown = Sample::new(a.clone()).unwrap();
        if read_first {
            let _ = grown.min(); // builds the index from `a`
        }
        match write {
            0 => {
                for &v in &more {
                    grown.push(v).unwrap();
                }
            }
            _ => grown.try_extend_all(&more).unwrap(),
        }
        let rebuilt = Sample::new(a.iter().chain(&more).copied().collect()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(grown.values()), bits(rebuilt.values()));
        prop_assert_eq!(bits(grown.sorted()), bits(rebuilt.sorted()));
        prop_assert_eq!(grown.sorted_ids(), rebuilt.sorted_ids());
        prop_assert!(grown == rebuilt);
    }

    #[test]
    fn interleaved_reads_and_writes_equal_batch_construction(
        base in vec(signed_tie_value(), 1..64),
        near_large in proptest::bool::ANY,
        steps in vec((0u8..3, vec(signed_tie_value(), 0..48)), 1..12),
    ) {
        // A random schedule of writes (push, bulk extend) and reads.
        // Writes before the first read only append, and writes after it
        // merge into the built index; starting just under `LARGE`, the
        // schedule crosses it. After every read the sample must equal
        // `Sample::new` of everything written so far, bit for bit.
        let n = if near_large {
            LARGE - base.len() % 32
        } else {
            base.len()
        };
        let mut all: Vec<f64> =
            (0..n).map(|i| base[i % base.len()] * (1 + i / base.len()) as f64).collect();
        let mut grown = Sample::new(all.clone()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (op, vals) in &steps {
            match op {
                0 => {
                    for &v in vals {
                        grown.push(v).unwrap();
                    }
                }
                1 => grown.try_extend_all(vals).unwrap(),
                _ => {
                    let rebuilt = Sample::new(all.clone()).unwrap();
                    prop_assert_eq!(bits(grown.values()), bits(rebuilt.values()));
                    prop_assert_eq!(bits(grown.sorted()), bits(rebuilt.sorted()));
                    prop_assert_eq!(grown.sorted_ids(), rebuilt.sorted_ids());
                    let mid = all.len() / 2;
                    let mid_bits = rebuilt.sorted()[mid].to_bits();
                    prop_assert_eq!(grown.order_stat(mid).to_bits(), mid_bits);
                    prop_assert_eq!(grown.mean().to_bits(), rebuilt.mean().to_bits());
                    continue;
                }
            }
            all.extend_from_slice(vals);
        }
        let rebuilt = Sample::new(all).unwrap();
        prop_assert_eq!(bits(grown.sorted()), bits(rebuilt.sorted()));
        prop_assert_eq!(grown.sorted_ids(), rebuilt.sorted_ids());
        prop_assert!(grown == rebuilt);
    }

    #[test]
    fn merged_walks_match_their_naive_definitions(
        a in finite_values(),
        b in finite_values(),
    ) {
        // The merge cursor behind mann_whitney_u, pinned against the
        // direct O(n²) definition.
        let sa = Sample::new(a.clone()).unwrap();
        let sb = Sample::new(b.clone()).unwrap();

        // Mann–Whitney U: the pair-counting definition
        // U_a = #{(i,j) : a_i > b_j} + ½·#{ties}.
        let mut u_naive = 0.0;
        for &x in &a {
            for &y in &b {
                if x > y {
                    u_naive += 1.0;
                } else if x == y {
                    u_naive += 0.5;
                }
            }
        }
        let (u, ..) = relperf_measure::ranksum::mann_whitney_u(&sa, &sb);
        prop_assert!((u - u_naive).abs() < 1e-6, "U {} vs naive {}", u, u_naive);
    }

    #[test]
    fn fast_comparator_equals_reference_oracle(
        a in finite_values(),
        b in finite_values(),
        stream in 0u64..500,
        reps in 1usize..40,
    ) {
        // End-to-end per-comparison property: the allocation-free O(n)
        // bootstrap path must reproduce the sort-based oracle exactly.
        let sa = Sample::new(a).unwrap();
        let sb = Sample::new(b).unwrap();
        let cmp = BootstrapComparator::with_config(99, BootstrapConfig {
            reps,
            ..Default::default()
        });
        prop_assert_eq!(
            cmp.compare_seeded(&sa, &sb, stream),
            cmp.compare_seeded_reference(&sa, &sb, stream)
        );
    }
}

/// `x` moved by `ulps` steps through the positive floats (clamped to the
/// finite positive range).
fn step_ulps(x: f64, ulps: i64) -> f64 {
    let bits = (x.to_bits() as i64 + ulps).clamp(1, f64::MAX.to_bits() as i64);
    f64::from_bits(bits as u64)
}

/// `n` values spread away from `edge` (downwards when `dir` is −1, up
/// when +1), `edge` itself first: all equal to it, a few ulps apart, or up
/// to 1% or 50% away. The ulp lattice is where the type-7 interpolation's
/// rounding decides a quantile vote.
fn spread_from(edge: f64, dir: i64, kind: u8, draws: &[f64]) -> Vec<f64> {
    let mut values: Vec<f64> = draws
        .iter()
        .map(|&u| match kind {
            0 => edge,
            1 => step_ulps(edge, dir * (u * 4.0) as i64),
            k => edge * (1.0 + dir as f64 * [0.01, 0.5][k as usize - 2] * u),
        })
        .map(|v| if v.is_finite() { v } else { edge })
        .collect();
    values[0] = edge;
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn range_certificate_equals_reference_oracle(
        shape_a in (vec(0.0f64..1.0, 1..24), 0u8..4, 0u8..4),
        shape_b in (vec(0.0f64..1.0, 1..24), 0u8..4),
        config in (0u8..4, 0u8..3, 0u8..3, 1usize..25),
        boundary in (0u8..6, 1u64..64, 0u8..3, -8i64..9),
        swap in proptest::bool::ANY,
        stream in 0u64..500,
    ) {
        // The certificate decides a comparison from the samples' extremes
        // alone; pin it to the oracle where that is tightest. `b.min()`
        // sits within ±8 ulps of `a.max()·(1 + margin)` (the vote's own
        // boundary), of that times `1 + 1e-12` (the certificate's
        // boundary), or clearly past both, with `a.max()` anywhere from
        // subnormal to near `f64::MAX`.
        let (ua, kind_a, sign) = shape_a;
        let (ub, kind_b) = shape_b;
        let (mi, di, ti, reps) = config;
        let (magnitude, k, anchor, ulps) = boundary;
        let margin = [0.0, 0.02, 0.5, 1e3][mi as usize];
        let tiny = f64::from_bits(1);
        let top = match magnitude {
            0 => tiny * k as f64,
            1 => tiny * (1e6 + k as f64),
            2 => f64::MIN_POSITIVE * (1.0 + k as f64 / 64.0),
            3 => 1.0 + k as f64 / 64.0,
            4 => 1e300,
            _ => f64::MAX / (1.0 + margin) / 1.6,
        };
        // `sign` puts a zero or a negative value at the bottom of `a`.
        let mut a = spread_from(top, -1, kind_a, &ua);
        match (sign, a.len()) {
            (0, n) if n > 1 => a[n - 1] = 0.0,
            (1, n) if n > 1 => a[n - 1] = -top,
            _ => {}
        }
        let scaled = top * (1.0 + margin);
        let b_min = step_ulps(match anchor {
            0 => scaled,
            1 => scaled * (1.0 + 1e-12),
            _ => scaled * 1.25,
        }, ulps);
        let b = spread_from(b_min, 1, kind_b, &ub);
        let (mut sa, mut sb) = (Sample::new(a).unwrap(), Sample::new(b).unwrap());
        if swap {
            std::mem::swap(&mut sa, &mut sb);
        }
        let cmp = BootstrapComparator::with_config(2024, BootstrapConfig {
            reps,
            margin,
            dominance: [0.0, 0.8, 1.0][di as usize],
            threshold: [0.0, 0.5, 1.0][ti as usize],
            ..Default::default()
        });
        prop_assert_eq!(
            cmp.compare_seeded(&sa, &sb, stream),
            cmp.compare_seeded_reference(&sa, &sb, stream),
            "margin {} top {:e} anchor {} ulps {}", margin, top, anchor, ulps
        );
    }
}
