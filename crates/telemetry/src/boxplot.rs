//! Box-plot statistics exactly as Figure 5 defines them: the box spans the
//! first and third quartiles, the median is marked inside, and both whiskers
//! extend to the furthest sample within 1.5× the inter-quartile range.

use crate::cdf::{interpolate, Cdf};

/// Five-number summary plus outlier count, Figure-5 convention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotStats {
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Lowest sample ≥ `q1 − 1.5·IQR`.
    pub whisker_lo: f64,
    /// Highest sample ≤ `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Samples outside the whiskers.
    pub outliers: usize,
}

impl BoxplotStats {
    /// Compute from raw samples. Returns `None` when empty.
    pub fn from_samples(samples: Vec<f64>) -> Option<Self> {
        let cdf = Cdf::from_samples(samples)?;
        let q1 = cdf.quantile(0.25);
        let median = cdf.median();
        let q3 = cdf.quantile(0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let xs = cdf.samples();
        // The samples are sorted, so both whiskers and the outlier count
        // come from two binary searches instead of full scans. Whiskers
        // reach the furthest sample inside the fences, clamped to the box:
        // with interpolated quantiles on tiny samples the nearest in-fence
        // sample can otherwise land beyond q1/q3.
        let first_inside = xs.partition_point(|&x| x < lo_fence);
        let past_inside = xs.partition_point(|&x| x <= hi_fence);
        let whisker_lo = xs.get(first_inside).copied().unwrap_or(q1).min(q1);
        let whisker_hi = if past_inside > first_inside {
            xs[past_inside - 1].max(q3)
        } else {
            q3
        };
        let outliers = first_inside + (xs.len() - past_inside);
        Some(BoxplotStats {
            q1,
            median,
            q3,
            whisker_lo,
            whisker_hi,
            outliers,
        })
    }

    /// Compute from `(value, count)` pairs, values strictly increasing:
    /// equal bit for bit to [`Self::from_samples`] over the samples they
    /// count, with no sample stored. Returns `None` when every count is 0.
    ///
    /// # Panics
    /// Panics unless the values strictly increase (which rules out NaN).
    pub fn from_counts(counts: &[(f64, u64)]) -> Option<Self> {
        let increasing = counts.windows(2).all(|w| w[0].0 < w[1].0);
        assert!(increasing, "boxplot values must strictly increase");
        // Samples whose value passes `keep`; at the fences, these counts
        // stand in for the two binary searches of `from_samples`.
        let count = |keep: &dyn Fn(f64) -> bool| -> usize {
            let kept = counts.iter().filter(|e| keep(e.0));
            kept.map(|e| e.1 as usize).sum()
        };
        let n = count(&|_| true);
        if n == 0 {
            return None;
        }
        // The sample at rank `r`: the first value whose running count
        // passes `r`.
        let at = |r: usize| {
            let mut seen = 0;
            let passes = |e: &&(f64, u64)| {
                seen += e.1 as usize;
                seen > r
            };
            counts.iter().find(passes).map(|e| e.0)
        };
        let sample = |r| at(r).expect("rank below the count");
        let q1 = interpolate(n, 0.25, sample);
        let q3 = interpolate(n, 0.75, sample);
        let iqr = q3 - q1;
        let first_inside = count(&|x| x < q1 - 1.5 * iqr);
        let past_inside = count(&|x| x <= q3 + 1.5 * iqr);
        let whisker_hi = if past_inside > first_inside {
            sample(past_inside - 1).max(q3)
        } else {
            q3
        };
        Some(BoxplotStats {
            q1,
            median: interpolate(n, 0.5, sample),
            q3,
            whisker_lo: at(first_inside).unwrap_or(q1).min(q1),
            whisker_hi,
            outliers: first_inside + (n - past_inside),
        })
    }

    /// Inter-quartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(BoxplotStats::from_samples(vec![]).is_none());
    }

    #[test]
    fn symmetric_data() {
        let b = BoxplotStats::from_samples((1..=9).map(f64::from).collect()).unwrap();
        assert_eq!(b.median, 5.0);
        assert_eq!(b.q1, 3.0);
        assert_eq!(b.q3, 7.0);
        assert_eq!(b.iqr(), 4.0);
        assert_eq!(b.whisker_lo, 1.0);
        assert_eq!(b.whisker_hi, 9.0);
        assert_eq!(b.outliers, 0);
    }

    #[test]
    fn outliers_detected_beyond_fences() {
        // Tight cluster plus one far point.
        let mut xs: Vec<f64> = (0..20).map(|i| 10.0 + i as f64 * 0.1).collect();
        xs.push(1000.0);
        let b = BoxplotStats::from_samples(xs).unwrap();
        assert_eq!(b.outliers, 1);
        assert!(b.whisker_hi < 1000.0);
    }

    #[test]
    fn whiskers_clip_to_innermost_sample() {
        // Quartiles of [0, 0, 0, 0, 100]: the 100 is an outlier; high whisker
        // must fall back to a real sample, not the fence.
        let b = BoxplotStats::from_samples(vec![0.0, 0.0, 0.0, 0.0, 100.0]).unwrap();
        assert_eq!(b.whisker_hi, 0.0);
        assert_eq!(b.outliers, 1);
    }

    #[test]
    fn single_sample_degenerates() {
        let b = BoxplotStats::from_samples(vec![4.0]).unwrap();
        assert_eq!(b.q1, 4.0);
        assert_eq!(b.median, 4.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.whisker_lo, 4.0);
        assert_eq!(b.whisker_hi, 4.0);
        assert_eq!(b.outliers, 0);
    }
}
