//! Empirical cumulative distribution functions.
//!
//! Every distributional figure in the paper is a CDF; this type turns a bag
//! of samples into quantiles, point-wise evaluations, and printable series.
//!
//! Construction is the hot path — every distributional experiment builds
//! CDFs over hundreds of thousands of monitor samples — so `from_samples`
//! radix-sorts large inputs by their IEEE-754 bit patterns (a monotone
//! transform makes unsigned order equal `total_cmp` order; see
//! `radix_sort_f64`), falls back to a comparison sort for small ones,
//! and validates NaN-freedom and accumulates the mean in one pass.

/// An empirical CDF over `f64` samples. NaNs are rejected at construction.
#[derive(Debug, Clone)]
pub struct Cdf {
    /// Invariant: non-empty, sorted by `total_cmp`, NaN-free.
    sorted: Vec<f64>,
    /// Arithmetic mean, computed once during the construction pass.
    mean: f64,
}

/// Single pass over `samples`: panics on NaN, returns the sum.
fn checked_sum(samples: &[f64]) -> f64 {
    let mut sum = 0.0;
    for &x in samples {
        assert!(!x.is_nan(), "NaN sample in CDF input");
        sum += x;
    }
    sum
}

/// [`Cdf::quantile`]'s rule for the `p` quantile of `n` samples whose
/// `i`-th smallest is `at(i)`; `BoxplotStats::from_counts` shares it.
pub(crate) fn interpolate(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
    if n == 1 {
        return at(0);
    }
    let pos = p * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    at(lo) * (1.0 - frac) + at(hi) * frac
}

/// Below this length a comparison sort beats the radix passes.
const RADIX_MIN_LEN: usize = 1024;

/// Map an `f64`'s bits to a `u64` whose unsigned order equals `total_cmp`
/// order: flip the sign bit for non-negatives, all bits for negatives.
/// Monotone and injective over every bit pattern, so sorting or comparing
/// keys sorts or compares by `total_cmp` (including `-0.0 < +0.0`). The
/// radix sort and [`QuantileSketch`](crate::QuantileSketch)'s levels both
/// work on these keys.
#[inline]
pub(crate) fn sort_key(x: f64) -> u64 {
    let b = x.to_bits();
    b ^ (((b as i64 >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Inverse of [`sort_key`].
#[inline]
pub(crate) fn key_to_f64(k: u64) -> f64 {
    let mask = if k & 0x8000_0000_0000_0000 != 0 {
        0x8000_0000_0000_0000 // was non-negative: undo the sign flip
    } else {
        u64::MAX // was negative: undo the full complement
    };
    f64::from_bits(k ^ mask)
}

/// LSD radix sort (eight 8-bit digits) by [`sort_key`]. O(n), and produces
/// exactly the order `sort_unstable_by(f64::total_cmp)` produces — equal
/// keys have identical bit patterns, so even instability is unobservable.
/// Passes whose digit is constant across all keys (common: a narrow
/// exponent range pins the high bytes) are skipped outright.
fn radix_sort_f64(samples: &mut [f64]) {
    let n = samples.len();
    let mut keys: Vec<u64> = samples.iter().map(|&x| sort_key(x)).collect();
    let mut scratch: Vec<u64> = vec![0; n];
    for pass in 0..8 {
        let shift = pass * 8;
        let mut counts = [0usize; 256];
        for &k in &keys {
            counts[((k >> shift) & 0xff) as usize] += 1;
        }
        if counts.contains(&n) {
            continue;
        }
        let mut pos = 0usize;
        for c in &mut counts {
            let start = pos;
            pos += *c;
            *c = start;
        }
        for &k in &keys {
            let d = ((k >> shift) & 0xff) as usize;
            scratch[counts[d]] = k;
            counts[d] += 1;
        }
        std::mem::swap(&mut keys, &mut scratch);
    }
    for (dst, k) in samples.iter_mut().zip(keys) {
        *dst = key_to_f64(k);
    }
}

impl Cdf {
    /// Build from samples (any order). Returns `None` when empty.
    ///
    /// # Panics
    /// Panics if any sample is NaN — a NaN metric is always an upstream bug.
    pub fn from_samples(mut samples: Vec<f64>) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let sum = checked_sum(&samples);
        if samples.len() >= RADIX_MIN_LEN {
            radix_sort_f64(&mut samples);
        } else {
            samples.sort_unstable_by(f64::total_cmp);
        }
        let mean = sum / samples.len() as f64;
        Some(Cdf {
            sorted: samples,
            mean,
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty inputs, so a `Cdf` holds
    /// at least one sample by invariant. Derived from the sample vector
    /// (not hardcoded) so the invariant is checked where it lives.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Smallest sample (first of the sorted vector, O(1)).
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample (last of the sorted vector, O(1)).
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Arithmetic mean, cached at construction (O(1)).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Quantile by nearest-rank with linear interpolation, `p ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        interpolate(self.sorted.len(), p, |i| self.sorted[i])
    }

    /// The median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of samples ≤ `x` (the CDF evaluated at `x`).
    pub fn fraction_le(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// `n` evenly spaced `(value, cumulative_fraction)` points for printing
    /// or plotting, including both endpoints.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two points");
        (0..n)
            .map(|i| {
                let p = i as f64 / (n - 1) as f64;
                (self.quantile(p), p)
            })
            .collect()
    }

    /// Iterate over the sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cdf(xs: &[f64]) -> Cdf {
        Cdf::from_samples(xs.to_vec()).unwrap()
    }

    #[test]
    fn empty_is_none() {
        assert!(Cdf::from_samples(vec![]).is_none());
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_rejected() {
        Cdf::from_samples(vec![1.0, f64::NAN]);
    }

    #[test]
    fn basic_stats() {
        let c = cdf(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 4.0);
        assert_eq!(c.mean(), 2.5);
        assert_eq!(c.median(), 2.5);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn mean_cached_equals_recomputed() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0).collect();
        let expect = xs.iter().sum::<f64>() / xs.len() as f64;
        let c = Cdf::from_samples(xs).unwrap();
        assert!((c.mean() - expect).abs() < 1e-9);
    }

    #[test]
    fn negative_zero_sorts_before_positive_zero() {
        // total_cmp ordering: -0.0 < 0.0; both construction paths agree.
        let c = cdf(&[0.0, -0.0]);
        assert!(c.samples()[0].is_sign_negative());
        assert!(!c.samples()[1].is_sign_negative());
    }

    #[test]
    fn quantiles_interpolate() {
        let c = cdf(&[0.0, 10.0]);
        assert_eq!(c.quantile(0.0), 0.0);
        assert_eq!(c.quantile(0.25), 2.5);
        assert_eq!(c.quantile(1.0), 10.0);
    }

    #[test]
    fn single_sample_quantiles() {
        let c = cdf(&[7.0]);
        assert_eq!(c.quantile(0.0), 7.0);
        assert_eq!(c.quantile(0.5), 7.0);
        assert_eq!(c.quantile(1.0), 7.0);
    }

    #[test]
    fn fraction_le_counts_ties() {
        let c = cdf(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(c.fraction_le(0.5), 0.0);
        assert_eq!(c.fraction_le(2.0), 0.75);
        assert_eq!(c.fraction_le(3.0), 1.0);
        assert_eq!(c.fraction_le(100.0), 1.0);
    }

    #[test]
    fn points_cover_range_monotonically() {
        let c = cdf(&[5.0, 1.0, 3.0, 9.0, 7.0]);
        let pts = c.points(11);
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[0], (1.0, 0.0));
        assert_eq!(pts[10], (9.0, 1.0));
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_rejects_bad_p() {
        cdf(&[1.0]).quantile(1.5);
    }

    #[test]
    fn radix_sort_matches_total_cmp_order() {
        // Cross the RADIX_MIN_LEN threshold with adversarial values:
        // negatives, ±0.0, infinities, subnormals, and ties.
        let mut xs: Vec<f64> = (0..RADIX_MIN_LEN as i64 + 500)
            .map(|i| {
                let x = ((i * 2654435761) % 10_007) as f64 - 5_000.0;
                x * 1e-3 * if i % 7 == 0 { 1e300 } else { 1.0 }
            })
            .collect();
        xs.extend([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, -5e-324]);
        let mut expect = xs.clone();
        expect.sort_unstable_by(f64::total_cmp);
        let c = Cdf::from_samples(xs).unwrap();
        // Bit-level equality: -0.0 and 0.0 must land exactly where
        // total_cmp puts them.
        let got: Vec<u64> = c.samples().iter().map(|x| x.to_bits()).collect();
        let want: Vec<u64> = expect.iter().map(|x| x.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sort_key_roundtrips_and_is_monotone() {
        let xs = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        for w in xs.windows(2) {
            assert!(sort_key(w[0]) < sort_key(w[1]), "{} !< {}", w[0], w[1]);
        }
        for &x in &xs {
            assert_eq!(key_to_f64(sort_key(x)).to_bits(), x.to_bits());
        }
    }
}
