//! A deterministic, mergeable quantile sketch for fleet-scale telemetry.
//!
//! [`Cdf`](crate::cdf::Cdf) materializes and sorts every sample, so memory
//! grows linearly with job count — fine for a month of Seren (~110K jobs),
//! hopeless for the 10⁶–10⁷ job open-system runs the `fleet` experiment
//! simulates. [`QuantileSketch`] is a KLL-style compactor hierarchy: level
//! `l` holds items of weight `2^l`; when a level fills past its capacity
//! `k` it is sorted and every other item is promoted to the next level at
//! doubled weight. Memory is `O(k · log(n/k))` regardless of `n`.
//!
//! Two properties distinguish this implementation:
//!
//! * **Deterministic.** Classic KLL flips a coin to decide whether a
//!   compaction keeps the even- or odd-indexed items. Here each level
//!   carries a parity bit that alternates per compaction, so the sketch is
//!   a pure function of the insert/merge sequence — the same discipline as
//!   every other sampler in the workspace. No floats are ever hashed.
//! * **Exact error accounting.** Each compaction of level `l` perturbs the
//!   estimated rank of any query point by at most `2^l` (for a fixed query
//!   at most one promoted/discarded pair straddles it). The sketch adds
//!   `2^l` to [`QuantileSketch::error_bound`] on every compaction and sums
//!   both operands' bounds on merge, so the reported bound is a hard,
//!   per-instance guarantee: for every value `x`,
//!   `|estimated_rank(x) − true_rank(x)| ≤ error_bound`. The differential
//!   proptests enforce exactly this inequality against a materialized
//!   sample set.
//!
//! With the fleet's capacity `k = 1024` and `n = 10⁶` inserts the bound
//! works out to roughly `log2(n/k) · n/k ≈ 10⁴` ranks — about 1% of `n` —
//! and in practice lands far lower because most compactions happen at the
//! cheap low levels.
//!
//! Levels store each sample as its `u64` order key
//! (`cdf::sort_key`), whose unsigned order is
//! `total_cmp` order, so compaction sorts plain integers. Level 0 holds
//! inserts in arrival order and takes an unstable sort; every higher level
//! holds its straggler plus a few sorted runs promoted from below, which
//! the stable sort detects and merges. Equal keys are equal samples, so
//! neither sort can reorder anything observable.

use crate::cdf::{key_to_f64, sort_key};

/// One compactor level: items of weight `2^level` as order keys, plus the
/// parity bit that deterministically alternates which half a compaction
/// keeps.
#[derive(Debug, Clone, Default)]
struct Level {
    items: Vec<u64>,
    parity: bool,
}

/// A deterministic mergeable quantile sketch (see module docs).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    k: usize,
    levels: Vec<Level>,
    count: u64,
    min: f64,
    max: f64,
    sum: f64,
    error_bound: u64,
}

impl QuantileSketch {
    /// A sketch whose levels each hold up to `k` items before compacting.
    /// Larger `k` means lower rank error and more memory.
    ///
    /// # Panics
    /// Panics if `k < 2` — a compaction must have at least one pair.
    pub fn with_capacity(k: usize) -> Self {
        assert!(k >= 2, "sketch capacity must be at least 2");
        QuantileSketch {
            k,
            levels: vec![Level::default()],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            error_bound: 0,
        }
    }

    /// Insert one sample.
    ///
    /// # Panics
    /// Panics on NaN — a NaN metric is always an upstream bug, matching
    /// [`Cdf`](crate::cdf::Cdf)'s contract.
    #[inline]
    pub fn insert(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample in sketch input");
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
        self.levels[0].items.push(sort_key(x));
        // Checked here so an insert that fills no level makes no call.
        if self.levels[0].items.len() > self.k {
            self.compact_from(0);
        }
    }

    /// Cascade compactions upward from `start` until every level is within
    /// capacity.
    fn compact_from(&mut self, start: usize) {
        let mut l = start;
        while l < self.levels.len() && self.levels[l].items.len() > self.k {
            if l + 1 == self.levels.len() {
                self.levels.push(Level::default());
            }
            let (below, above) = self.levels.split_at_mut(l + 1);
            let (level, next) = (&mut below[l], &mut above[0]);
            if l == 0 {
                level.items.sort_unstable();
            } else {
                level.items.sort();
            }
            // Compact pairs only: an odd straggler (always the current
            // maximum, deterministically) stays behind at this level so
            // total weight is conserved exactly.
            let straggler = if level.items.len() % 2 == 1 {
                level.items.pop()
            } else {
                None
            };
            let offset = usize::from(level.parity);
            level.parity = !level.parity;
            // Each promoted item doubles in weight; the discarded half of
            // each pair shifts any fixed rank query by at most 2^l.
            next.items
                .extend(level.items.iter().skip(offset).step_by(2));
            level.items.clear();
            if let Some(s) = straggler {
                level.items.push(s);
            }
            self.error_bound += 1u64 << l;
            l += 1;
        }
    }

    /// Merge another sketch into this one. The result summarizes the
    /// concatenation of both input streams; its error bound is the sum of
    /// the operands' bounds plus whatever new compactions cost.
    ///
    /// # Panics
    /// Panics if the sketches have different capacities — merging across
    /// capacities would silently adopt the looser error behaviour.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(self.k, other.k, "cannot merge sketches of different k");
        if other.count == 0 {
            return;
        }
        while self.levels.len() < other.levels.len() {
            self.levels.push(Level::default());
        }
        for (l, level) in other.levels.iter().enumerate() {
            self.levels[l].items.extend_from_slice(&level.items);
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.error_bound += other.error_bound;
        for l in 0..self.levels.len() {
            self.compact_from(l);
        }
    }

    /// Number of samples inserted (across merges).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest inserted sample (exact).
    ///
    /// # Panics
    /// Panics on an empty sketch.
    pub fn min(&self) -> f64 {
        assert!(self.count > 0, "empty sketch has no min");
        self.min
    }

    /// Largest inserted sample (exact).
    ///
    /// # Panics
    /// Panics on an empty sketch.
    pub fn max(&self) -> f64 {
        assert!(self.count > 0, "empty sketch has no max");
        self.max
    }

    /// Arithmetic mean of all inserted samples (exact up to summation
    /// order).
    ///
    /// # Panics
    /// Panics on an empty sketch.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "empty sketch has no mean");
        self.sum / self.count as f64
    }

    /// The hard rank-error bound accumulated so far: for any `x`, the
    /// estimated rank is within `error_bound` of the true rank.
    pub fn error_bound(&self) -> u64 {
        self.error_bound
    }

    /// The largest weight any retained item carries (`2^top_level`).
    pub fn max_item_weight(&self) -> u64 {
        1u64 << (self.levels.len() - 1)
    }

    /// Number of items currently retained across all levels — the sketch's
    /// memory footprint in samples.
    pub fn retained(&self) -> usize {
        self.levels.iter().map(|l| l.items.len()).sum()
    }

    /// Release the slack capacity compaction leaves in each level, so the
    /// allocation matches [`Self::retained`] instead of the high-water
    /// mark (roughly `2k` per level). Worth calling on sketches that will
    /// be *held* rather than inserted into — per-shard results awaiting a
    /// merge — where the slack, not the data, dominates the footprint.
    pub fn shrink_to_fit(&mut self) {
        for level in &mut self.levels {
            level.items.shrink_to_fit();
        }
    }

    /// All retained `(value, weight)` items, sorted by value. Weights sum
    /// to [`Self::count`]. This is the sketch's entire state as far as
    /// rank estimation is concerned, and what the differential proptests
    /// check the error invariant against.
    pub fn items(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = Vec::with_capacity(self.retained());
        for (l, level) in self.levels.iter().enumerate() {
            let w = 1u64 << l;
            out.extend(level.items.iter().map(|&key| (key_to_f64(key), w)));
        }
        out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Estimated number of inserted samples ≤ `x`.
    pub fn estimated_rank(&self, x: f64) -> u64 {
        let key = sort_key(x);
        self.levels
            .iter()
            .enumerate()
            .map(|(l, level)| {
                (1u64 << l) * level.items.iter().filter(|&&k| k <= key).count() as u64
            })
            .sum()
    }

    /// Quantile estimate for `p ∈ [0, 1]`: the smallest retained value
    /// whose estimated rank reaches `p · count`. Its true rank is within
    /// `error_bound + max_item_weight` of the target. Monotone in `p`;
    /// returns the exact min at `p = 0` and the exact max at `p = 1`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` or the sketch is empty.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        assert!(self.count > 0, "empty sketch has no quantiles");
        if p == 0.0 {
            return self.min;
        }
        if p == 1.0 {
            return self.max;
        }
        let target = (p * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (value, weight) in self.items() {
            cum += weight;
            if cum as f64 >= target {
                // Retained items can sit outside [min, max] only by never
                // happening (min/max are inserted items); clamp anyway so
                // the p=0/p=1 exactness extends to near-extreme p.
                return value.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl crate::table::Quantiles for QuantileSketch {
    fn quantile(&self, p: f64) -> f64 {
        QuantileSketch::quantile(self, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdf::Cdf;
    use proptest::prelude::*;

    fn exact_rank(sorted: &[f64], x: f64) -> u64 {
        sorted.partition_point(|&s| s.total_cmp(&x).is_le()) as u64
    }

    /// The `f64` compaction the order-key one replaced, kept as the
    /// differential oracle for [`QuantileSketch`]: every overflowing level
    /// is sorted with `sort_unstable_by(f64::total_cmp)` and its kept half
    /// collected into a fresh vector.
    #[derive(Clone)]
    struct Reference {
        k: usize,
        /// `(items, parity)` per level.
        levels: Vec<(Vec<f64>, bool)>,
        count: u64,
        error_bound: u64,
    }

    impl Reference {
        fn new(k: usize) -> Self {
            Reference {
                k,
                levels: vec![(Vec::new(), false)],
                count: 0,
                error_bound: 0,
            }
        }

        fn insert(&mut self, x: f64) {
            self.count += 1;
            self.levels[0].0.push(x);
            self.compact_from(0);
        }

        fn compact_from(&mut self, start: usize) {
            let mut l = start;
            while l < self.levels.len() && self.levels[l].0.len() > self.k {
                if l + 1 == self.levels.len() {
                    self.levels.push((Vec::new(), false));
                }
                let (items, parity) = &mut self.levels[l];
                items.sort_unstable_by(f64::total_cmp);
                let straggler = if items.len() % 2 == 1 {
                    items.pop()
                } else {
                    None
                };
                let offset = usize::from(*parity);
                *parity = !*parity;
                let kept: Vec<f64> = items.iter().copied().skip(offset).step_by(2).collect();
                items.clear();
                items.extend(straggler);
                self.error_bound += 1u64 << l;
                self.levels[l + 1].0.extend(kept);
                l += 1;
            }
        }

        fn merge(&mut self, other: &Reference) {
            if other.count == 0 {
                return;
            }
            while self.levels.len() < other.levels.len() {
                self.levels.push((Vec::new(), false));
            }
            for (l, (items, _)) in other.levels.iter().enumerate() {
                self.levels[l].0.extend_from_slice(items);
            }
            self.count += other.count;
            self.error_bound += other.error_bound;
            for l in 0..self.levels.len() {
                self.compact_from(l);
            }
        }

        fn items(&self) -> Vec<(f64, u64)> {
            let mut out = Vec::new();
            for (l, (items, _)) in self.levels.iter().enumerate() {
                out.extend(items.iter().map(|&x| (x, 1u64 << l)));
            }
            out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            out
        }
    }

    /// Samples that reach every corner of the key map: signed zeros,
    /// infinities, subnormals, small integers (so duplicates are common),
    /// and arbitrary non-NaN bit patterns of either sign.
    fn edge_sample() -> impl Strategy<Value = f64> {
        (0u8..5, any::<u64>()).prop_map(|(kind, bits)| match kind {
            0 => [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY][(bits % 4) as usize],
            // Exponent bits cleared: a subnormal (or a signed zero).
            1 => f64::from_bits(bits & 0x800f_ffff_ffff_ffff),
            2 => (bits % 7) as f64 - 3.0,
            // Clearing the top exponent bit rules out NaN.
            _ => f64::from_bits(bits & !(1 << 62)),
        })
    }

    fn assert_matches_reference(
        sketch: &QuantileSketch,
        reference: &Reference,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let bits = |items: Vec<(f64, u64)>| -> Vec<(u64, u64)> {
            items.into_iter().map(|(x, w)| (x.to_bits(), w)).collect()
        };
        let expected = reference.items();
        prop_assert_eq!(bits(sketch.items()), bits(expected.clone()));
        prop_assert_eq!(sketch.error_bound(), reference.error_bound);
        prop_assert_eq!(sketch.count(), reference.count);
        prop_assert_eq!(sketch.retained(), expected.len());
        prop_assert_eq!(
            sketch.max_item_weight(),
            1u64 << (reference.levels.len() - 1)
        );
        for &(x, _) in &expected {
            let rank: u64 = expected
                .iter()
                .filter(|(v, _)| v.total_cmp(&x).is_le())
                .map(|&(_, w)| w)
                .sum();
            prop_assert_eq!(sketch.estimated_rank(x), rank, "rank of {}", x);
        }
        Ok(())
    }

    proptest! {
        /// Insert batches, merges of fresh sketches and self-merges, at
        /// several capacities: the order-key sketch retains exactly the
        /// items, bits and weights the `f64` compaction retains.
        #[test]
        fn order_key_compaction_matches_the_f64_reference(
            ops in prop::collection::vec(
                (0u8..4, prop::collection::vec(edge_sample(), 0..48)),
                1..20,
            )
        ) {
            for k in [2, 3, 8] {
                let mut sketch = QuantileSketch::with_capacity(k);
                let mut reference = Reference::new(k);
                for (op, batch) in &ops {
                    match op {
                        0 => {
                            let mut other = QuantileSketch::with_capacity(k);
                            let mut other_ref = Reference::new(k);
                            for &x in batch {
                                other.insert(x);
                                other_ref.insert(x);
                            }
                            sketch.merge(&other);
                            reference.merge(&other_ref);
                        }
                        1 => {
                            sketch.merge(&sketch.clone());
                            reference.merge(&reference.clone());
                        }
                        _ => {
                            for &x in batch {
                                sketch.insert(x);
                                reference.insert(x);
                            }
                        }
                    }
                    assert_matches_reference(&sketch, &reference)?;
                }
            }
        }
    }

    /// The core invariant: every retained item's estimated rank is within
    /// `error_bound` of its true rank over the inserted multiset.
    fn assert_rank_invariant(sketch: &QuantileSketch, samples: &[f64]) {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        assert_eq!(sketch.count(), samples.len() as u64);
        for (value, _) in sketch.items() {
            let est = sketch.estimated_rank(value);
            let truth = exact_rank(&sorted, value);
            let err = est.abs_diff(truth);
            assert!(
                err <= sketch.error_bound(),
                "rank error {err} exceeds bound {} at value {value}",
                sketch.error_bound()
            );
        }
    }

    #[test]
    fn small_sketch_is_exact() {
        let mut s = QuantileSketch::with_capacity(64);
        for i in 0..50 {
            s.insert(i as f64);
        }
        assert_eq!(s.error_bound(), 0, "no compaction below capacity");
        assert_eq!(s.count(), 50);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 49.0);
        assert_eq!(s.estimated_rank(10.0), 11);
        assert_eq!(s.quantile(0.5), 24.0);
    }

    #[test]
    fn compaction_tracks_error_exactly() {
        let mut s = QuantileSketch::with_capacity(8);
        let samples: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 1000) as f64).collect();
        for &x in &samples {
            s.insert(x);
        }
        assert!(s.error_bound() > 0, "capacity 8 must compact");
        assert!(s.retained() < 200, "retained {} items", s.retained());
        assert_rank_invariant(&s, &samples);
    }

    #[test]
    fn quantiles_monotone_and_bounded() {
        let mut s = QuantileSketch::with_capacity(16);
        for i in 0..5_000 {
            s.insert(((i * 101) % 997) as f64);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = s.quantile(i as f64 / 20.0);
            assert!(q >= last, "quantiles must be monotone");
            assert!(q >= s.min() && q <= s.max());
            last = q;
        }
        assert_eq!(s.quantile(0.0), s.min());
        assert_eq!(s.quantile(1.0), s.max());
    }

    #[test]
    fn deterministic_for_a_given_stream() {
        let build = || {
            let mut s = QuantileSketch::with_capacity(8);
            for i in 0..3_000 {
                s.insert(((i * 17) % 512) as f64);
            }
            s
        };
        let a = build();
        let b = build();
        assert_eq!(a.items(), b.items());
        assert_eq!(a.error_bound(), b.error_bound());
    }

    #[test]
    fn merge_summarizes_the_concatenation() {
        let xs: Vec<f64> = (0..4_000).map(|i| ((i * 13) % 701) as f64).collect();
        let ys: Vec<f64> = (0..4_000)
            .map(|i| ((i * 29) % 883) as f64 + 500.0)
            .collect();
        let mut a = QuantileSketch::with_capacity(32);
        let mut b = QuantileSketch::with_capacity(32);
        for &x in &xs {
            a.insert(x);
        }
        for &y in &ys {
            b.insert(y);
        }
        let (ea, eb) = (a.error_bound(), b.error_bound());
        a.merge(&b);
        let all: Vec<f64> = xs.iter().chain(&ys).copied().collect();
        assert_eq!(a.count(), all.len() as u64);
        assert!(a.error_bound() >= ea + eb);
        assert_rank_invariant(&a, &all);
        let exact = Cdf::from_samples(all).unwrap();
        assert_eq!(a.min(), exact.min());
        assert_eq!(a.max(), exact.max());
        assert!((a.mean() - exact.mean()).abs() < 1e-9 * exact.mean().abs().max(1.0));
    }

    #[test]
    fn merge_empty_is_identity() {
        let mut a = QuantileSketch::with_capacity(16);
        for i in 0..100 {
            a.insert(i as f64);
        }
        let before = a.items();
        a.merge(&QuantileSketch::with_capacity(16));
        assert_eq!(a.items(), before);
        let mut empty = QuantileSketch::with_capacity(16);
        empty.merge(&a);
        assert_eq!(empty.count(), 100);
        assert_eq!(empty.min(), 0.0);
    }

    #[test]
    fn memory_is_sublinear() {
        let k = 1024;
        let mut s = QuantileSketch::with_capacity(k);
        for i in 0..1_000_000u64 {
            s.insert((i.wrapping_mul(2654435761) % 1_000_003) as f64);
        }
        // k · (levels + slack): a million inserts retain ~10 levels of
        // ≤ 1024 items each, not a million samples.
        assert!(s.retained() <= 16 * k, "{}", s.retained());
        // And the hard bound stays around the 1% design point.
        assert!(
            s.error_bound() < s.count() / 50,
            "error {} on {}",
            s.error_bound(),
            s.count()
        );
    }

    #[test]
    fn shrink_to_fit_preserves_state() {
        let mut s = QuantileSketch::with_capacity(8);
        for i in 0..5_000 {
            s.insert(((i * 7) % 331) as f64);
        }
        let items = s.items();
        let bound = s.error_bound();
        s.shrink_to_fit();
        assert_eq!(s.items(), items);
        assert_eq!(s.error_bound(), bound);
        // Still usable for inserts and merges afterwards.
        s.insert(1.0);
        assert_eq!(s.count(), 5_001);
    }

    #[test]
    fn weights_conserve_count() {
        let mut s = QuantileSketch::with_capacity(4);
        for i in 0..999 {
            s.insert(i as f64);
        }
        let total: u64 = s.items().iter().map(|&(_, w)| w).sum();
        assert_eq!(total, 999);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_rejected() {
        QuantileSketch::with_capacity(1024).insert(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn merge_rejects_capacity_mismatch() {
        let mut a = QuantileSketch::with_capacity(16);
        a.merge(&QuantileSketch::with_capacity(32));
    }

    #[test]
    #[should_panic(expected = "empty sketch")]
    fn empty_quantile_panics() {
        QuantileSketch::with_capacity(1024).quantile(0.5);
    }
}
