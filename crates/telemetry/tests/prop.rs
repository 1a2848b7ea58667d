//! Property-based tests for the statistics toolkit.

use acme_telemetry::{BoxplotStats, Cdf, QuantileSketch};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e9f64..1e9, 1..200)
}

/// Exact rank over a sorted multiset: number of samples ≤ `x`.
fn exact_rank(sorted: &[f64], x: f64) -> u64 {
    sorted.partition_point(|&s| s.total_cmp(&x).is_le()) as u64
}

/// `xs` as the count table `BoxplotStats::from_counts` reads: each
/// distinct value once, increasing, with its number of samples.
fn counts_of(xs: &[f64]) -> Vec<(f64, u64)> {
    let mut sorted = xs.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let mut counts: Vec<(f64, u64)> = Vec::new();
    for x in sorted {
        match counts.last_mut() {
            Some((v, c)) if *v == x => *c += 1,
            _ => counts.push((x, 1)),
        }
    }
    counts
}

/// Every field of a boxplot, floats as bit patterns.
fn bits(b: &BoxplotStats) -> ([u64; 5], usize) {
    let floats = [b.q1, b.median, b.q3, b.whisker_lo, b.whisker_hi];
    (floats.map(f64::to_bits), b.outliers)
}

/// The count-based boxplot equals the sample-based one bit for bit on
/// the edge cases `boxplot.rs` pins (one sample, all samples equal, a high
/// whisker held at a real sample, one far outlier) and on every sample of
/// one to five values from {0, 1, 2, 8}. Among those, interpolated
/// quartiles can put the nearest in-fence sample beyond the box, as in
/// `[0, 8, 8, 8]` and `[0, 0, 0, 8]`, so both whisker clamps act.
#[test]
fn boxplot_from_counts_matches_samples_on_pinned_cases() {
    let mut far = vec![10.0; 20];
    far.push(1000.0);
    let mut cases = vec![
        vec![4.0],
        vec![8.0; 7],
        vec![0.0, 0.0, 0.0, 0.0, 100.0],
        far,
    ];
    let values = [0.0, 1.0, 2.0, 8.0];
    for n in 1..=5 {
        for code in 0..values.len().pow(n) {
            let digit = |i: u32| code / values.len().pow(i) % values.len();
            cases.push((0..n).map(|i| values[digit(i)]).collect());
        }
    }
    for xs in cases {
        let exact = BoxplotStats::from_samples(xs.clone()).unwrap();
        let counted = BoxplotStats::from_counts(&counts_of(&xs)).unwrap();
        assert_eq!(bits(&counted), bits(&exact), "{xs:?}");
    }
    assert!(BoxplotStats::from_counts(&[]).is_none());
    assert!(BoxplotStats::from_counts(&[(1.0, 0), (2.0, 0)]).is_none());
}

fn sketch_of(xs: &[f64], k: usize) -> QuantileSketch {
    let mut s = QuantileSketch::with_capacity(k);
    for &x in xs {
        s.insert(x);
    }
    s
}

proptest! {
    /// Quantiles are monotone in p and bounded by min/max.
    #[test]
    fn quantiles_monotone_and_bounded(xs in finite_samples(), ps in prop::collection::vec(0.0f64..=1.0, 2..10)) {
        let cdf = Cdf::from_samples(xs).unwrap();
        let mut sorted_ps = ps;
        sorted_ps.sort_by(|a, b| a.total_cmp(b));
        let mut last = f64::NEG_INFINITY;
        for &p in &sorted_ps {
            let q = cdf.quantile(p);
            prop_assert!(q >= last);
            prop_assert!(q >= cdf.min() && q <= cdf.max());
            last = q;
        }
    }

    /// fraction_le is a valid CDF: monotone, 0 below min, 1 at max.
    #[test]
    fn fraction_le_is_a_cdf(xs in finite_samples()) {
        let cdf = Cdf::from_samples(xs).unwrap();
        prop_assert_eq!(cdf.fraction_le(cdf.min() - 1.0), 0.0);
        prop_assert_eq!(cdf.fraction_le(cdf.max()), 1.0);
        let lo = cdf.fraction_le(cdf.quantile(0.3));
        let hi = cdf.fraction_le(cdf.quantile(0.8));
        prop_assert!(hi >= lo);
    }

    /// Boxplot invariants: ordering of the five numbers, whiskers inside
    /// the data range, outliers counted consistently.
    #[test]
    fn boxplot_invariants(xs in finite_samples()) {
        let n = xs.len();
        let b = BoxplotStats::from_samples(xs.clone()).unwrap();
        prop_assert!(b.whisker_lo <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median && b.median <= b.q3);
        prop_assert!(b.whisker_hi >= b.q3 - 1e-9);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(b.whisker_lo >= min && b.whisker_hi <= max);
        prop_assert!(b.outliers < n);
    }

    /// The count-based boxplot equals `from_samples` bit for bit on
    /// integer samples with heavy ties, shaped like Figure 5's GPU demands:
    /// half the draws are 1, a quarter one of 0, 1 and 2, and the rest a
    /// power of two up to 4096. The ties put the quartiles, and so often
    /// the fences, on sample values.
    #[test]
    fn boxplot_from_counts_matches_samples(draws in prop::collection::vec((0u32..4, 0u32..13), 1..120)) {
        let xs: Vec<f64> = draws
            .iter()
            .map(|&(pick, k)| f64::from(match pick {
                0 => 1 << k,
                1 | 2 => 1,
                _ => k % 3,
            }))
            .collect();
        let exact = BoxplotStats::from_samples(xs.clone()).unwrap();
        let counted = BoxplotStats::from_counts(&counts_of(&xs)).unwrap();
        prop_assert_eq!(bits(&counted), bits(&exact));
    }

    /// Differential check against the exact CDF: the sketch's rank
    /// estimate honors its self-reported `error_bound` at every inserted
    /// value, and each `quantile(p)` lands inside the value window the
    /// bound implies around the exact quantile.
    #[test]
    fn sketch_quantile_within_guaranteed_rank_error_of_exact(xs in prop::collection::vec(-1e9f64..1e9, 1..400)) {
        // Tiny capacity so compaction (and a nonzero bound) actually occurs.
        let sketch = sketch_of(&xs, 8);
        let mut sorted = xs.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len() as u64;
        // The documented invariant, verbatim: |est − truth| ≤ error_bound.
        for &x in &xs {
            let err = sketch.estimated_rank(x).abs_diff(exact_rank(&sorted, x));
            prop_assert!(err <= sketch.error_bound(),
                "rank error {err} exceeds bound {}", sketch.error_bound());
        }
        // Quantiles: true rank of the estimate is within
        // error_bound + max_item_weight of the target rank, expressed as a
        // value window so ties in the data cannot fail the check.
        let slack = sketch.error_bound() + sketch.max_item_weight();
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = sketch.quantile(p);
            let target = (p * n as f64).max(1.0);
            let lo_rank = (target - slack as f64).floor().max(1.0) as u64;
            let hi_rank = ((target + slack as f64).ceil() as u64).min(n);
            prop_assert!(q >= sorted[(lo_rank - 1) as usize],
                "quantile({p}) = {q} below rank-{lo_rank} value");
            prop_assert!(q <= sorted[(hi_rank - 1) as usize],
                "quantile({p}) = {q} above rank-{hi_rank} value");
        }
    }

    /// `merge(a, b)` summarizes the concatenation of both streams: count,
    /// min, max exact; mean exact up to summation order; rank estimates
    /// honor the merged error bound against the concatenated multiset.
    #[test]
    fn sketch_merge_equals_sketching_the_concatenation(
        xs in prop::collection::vec(-1e6f64..1e6, 1..300),
        ys in prop::collection::vec(-1e6f64..1e6, 0..300),
    ) {
        let mut merged = sketch_of(&xs, 8);
        merged.merge(&sketch_of(&ys, 8));
        let mut all: Vec<f64> = xs.iter().chain(&ys).copied().collect();
        let exact = Cdf::from_samples(all.clone()).unwrap();
        all.sort_unstable_by(f64::total_cmp);
        prop_assert_eq!(merged.count(), all.len() as u64);
        prop_assert_eq!(merged.min(), exact.min());
        prop_assert_eq!(merged.max(), exact.max());
        prop_assert!((merged.mean() - exact.mean()).abs()
            <= 1e-9 * exact.mean().abs().max(1.0));
        for (value, _) in merged.items() {
            let err = merged.estimated_rank(value).abs_diff(exact_rank(&all, value));
            prop_assert!(err <= merged.error_bound(),
                "merged rank error {err} exceeds bound {}", merged.error_bound());
        }
        // Weight conservation: retained items account for every sample.
        let total: u64 = merged.items().iter().map(|&(_, w)| w).sum();
        prop_assert_eq!(total, all.len() as u64);
    }
}
