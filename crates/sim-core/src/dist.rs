//! Probability distributions used to calibrate workloads and failures.
//!
//! All samplers draw from a [`SimRng`] so that an experiment's entire random
//! behaviour is a pure function of its seed. The set is exactly what the
//! reproduction needs:
//!
//! * [`Exponential`] — inter-arrival times;
//! * [`LogNormal`] — job durations, time-to-failure, restart times (heavy
//!   right tail with a well-defined median, matching the paper's avg≫median
//!   rows in Table 3);
//! * [`Categorical`] — weighted choices (job types, failure reasons);
//! * [`Zipf`] — the fleet's tenant skew.

use crate::rng::SimRng;

/// A distribution over `f64` that can be sampled from a [`SimRng`].
pub trait Distribution {
    /// Draw one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean, where defined in closed form.
    fn mean(&self) -> f64;
}

/// Exponential with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// From a mean.
    ///
    /// # Panics
    /// Panics unless the rate `1/mean` is positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        let lambda = 1.0 / mean;
        assert!(lambda > 0.0 && lambda.is_finite(), "bad exponential rate");
        Exponential { lambda }
    }
}

impl Distribution for Exponential {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.f64_open0().ln() / self.lambda
    }
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Log-normal: `exp(mu + sigma·Z)` with `Z ~ N(0,1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Fit a log-normal from its *median* and *mean* (the form the paper's
    /// tables report). Requires `mean >= median > 0`; the median fixes `mu`
    /// and the mean/median ratio fixes `sigma`.
    pub fn from_median_mean(median: f64, mean: f64) -> Self {
        assert!(
            median > 0.0 && mean > 0.0,
            "median and mean must be positive"
        );
        // Degenerate or inconsistent inputs collapse toward a point mass at
        // the median: Table 3 has rows where sparse data makes mean < median.
        let ratio = (mean / median).max(1.0);
        let sigma = (2.0 * ratio.ln()).sqrt();
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// The distribution median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    #[inline]
    fn standard_normal(rng: &mut SimRng) -> f64 {
        // Box–Muller; one draw per call keeps the stream layout simple.
        let u1 = rng.f64_open0();
        let u2 = rng.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Distribution for LogNormal {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// Weighted choice over `0..n` with O(log n) sampling via a cumulative table.
#[derive(Debug, Clone)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Build from non-negative weights (not necessarily normalized).
    ///
    /// # Panics
    /// Panics if the weights are empty, contain a negative/non-finite value,
    /// or sum to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty categorical");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "bad categorical weight {w}");
            total += w;
            cumulative.push(total);
        }
        assert!(total > 0.0, "categorical weights sum to zero");
        for c in &mut cumulative {
            *c /= total;
        }
        // Guard against FP drift: the last bucket must cover 1.0 exactly.
        *cumulative.last_mut().unwrap() = 1.0;
        Categorical { cumulative }
    }

    /// Draw a category index.
    #[inline]
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        self.cumulative.partition_point(|&c| c <= u)
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when there is exactly one category (never truly empty).
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Zipf-distributed ranks over `1..=n` with exponent `s`: rank `k` has
/// weight `k^-s`. This is the tenant-skew model for the open-system fleet
/// workload — a handful of heavy tenants (pretraining groups) submit most
/// jobs while a long tail of small tenants submits the rest, matching the
/// multi-tenant traffic shape the paper describes for Acme.
///
/// Sampling inverts the [`Categorical`] cumulative table with one uniform
/// draw, so the stream layout is a single `f64()` per sample and the
/// sampler is deterministic for a given `(n, s)`. A guide table (Chen &
/// Asau 1974) starts the search next to the answer: expected O(1) probes,
/// and always the index [`Categorical::sample_index`] returns for the same
/// `u`.
#[derive(Debug, Clone)]
pub struct Zipf {
    ranks: Categorical,
    /// `guide[j]`: the first index whose cumulative weight exceeds
    /// `j / guide.len()`; the length is a power of two.
    guide: Vec<u32>,
    mean_rank: f64,
}

impl Zipf {
    /// Build a Zipf sampler over ranks `1..=n`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "bad zipf exponent {s}");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mean_rank = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (i + 1) as f64 * w)
            .sum::<f64>()
            / total;
        let ranks = Categorical::new(&weights);
        let m = (4 * n).next_power_of_two();
        let guide = (0..m)
            .map(|j| {
                let floor = j as f64 / m as f64;
                ranks.cumulative.partition_point(|&c| c <= floor) as u32
            })
            .collect();
        Zipf {
            ranks,
            guide,
            mean_rank,
        }
    }

    /// Draw a 0-based rank index in `0..n` (index 0 is the heaviest rank).
    #[inline]
    pub fn sample_index(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        // `u · m` and `j / m` are exact for a power-of-two `m`, so the
        // guide entry never passes `partition_point(|c| c <= u)`, and the
        // last cumulative entry is 1.0 > u, so the scan always stops.
        let cumulative = &self.ranks.cumulative;
        let mut i = self.guide[(u * self.guide.len() as f64) as usize] as usize;
        while cumulative[i] <= u {
            i += 1;
        }
        i
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Never empty (construction rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Distribution for Zipf {
    /// Sample the 1-based rank as a float.
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.sample_index(rng) + 1) as f64
    }
    fn mean(&self) -> f64 {
        self.mean_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean<D: Distribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(5.0);
        let m = sample_mean(&d, 200_000, 1);
        assert!((m - 5.0).abs() < 0.1, "mean = {m}");
        assert_eq!(d.mean(), 5.0);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::with_mean(0.5);
        let mut rng = SimRng::new(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn lognormal_median_mean_fit() {
        // Table-3-like row: median 155.3, mean 868.1.
        let d = LogNormal::from_median_mean(155.3, 868.1);
        assert!((d.median() - 155.3).abs() < 1e-9);
        let m = sample_mean(&d, 400_000, 3);
        assert!((m - 868.1).abs() / 868.1 < 0.08, "mean = {m}");
        // Empirical median close to the target.
        let mut rng = SimRng::new(4);
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        let med = xs[50_000];
        assert!((med - 155.3).abs() / 155.3 < 0.05, "median = {med}");
    }

    #[test]
    fn lognormal_degenerate_mean_below_median_collapses() {
        let d = LogNormal::from_median_mean(10.0, 5.0);
        let mut rng = SimRng::new(5);
        for _ in 0..100 {
            assert!((d.sample(&mut rng) - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let c = Categorical::new(&[1.0, 2.0, 7.0]);
        let mut rng = SimRng::new(8);
        let mut counts = [0u32; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[c.sample_index(&mut rng)] += 1;
        }
        let probs: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((probs[0] - 0.1).abs() < 0.01);
        assert!((probs[1] - 0.2).abs() < 0.01);
        assert!((probs[2] - 0.7).abs() < 0.01);
    }

    #[test]
    fn categorical_zero_weight_bucket_never_sampled() {
        let c = Categorical::new(&[1.0, 0.0, 1.0]);
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            assert_ne!(c.sample_index(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn categorical_rejects_all_zero() {
        Categorical::new(&[0.0, 0.0]);
    }

    #[test]
    fn zipf_frequencies_are_skewed_and_ordered() {
        let z = Zipf::new(100, 1.1);
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
        let mut rng = SimRng::new(12);
        let n = 200_000;
        let mut counts = vec![0u32; 100];
        for _ in 0..n {
            counts[z.sample_index(&mut rng)] += 1;
        }
        // Rank 1 beats rank 2 beats rank 10 beats rank 100.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[9]);
        assert!(counts[9] > counts[99]);
        // Heaviest rank holds a substantial share; the tail is long.
        let top = counts[0] as f64 / n as f64;
        assert!((0.10..0.35).contains(&top), "top share {top:.3}");
        assert!(counts[99] > 0, "tail ranks must still appear");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(8, 0.0);
        let mut rng = SimRng::new(13);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[z.sample_index(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 1_000.0, "count {c}");
        }
        assert!((z.mean() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn zipf_mean_matches_samples() {
        let z = Zipf::new(64, 1.3);
        let m = sample_mean(&z, 200_000, 14);
        assert!((m - z.mean()).abs() / z.mean() < 0.05, "mean {m}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_zero_ranks() {
        Zipf::new(0, 1.0);
    }
}
