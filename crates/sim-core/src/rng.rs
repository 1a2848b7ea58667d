//! Deterministic random number generation.
//!
//! The simulator's only source of nondeterminism must be the seed, so the
//! generator is implemented here rather than pulled from a crate whose
//! stream might change across versions. [`SimRng`] is xoshiro256++ seeded
//! via SplitMix64 — the standard, well-tested construction — with a
//! [`SimRng::fork`] operation that derives statistically independent
//! substreams so that, e.g., the failure injector and the workload generator
//! can each own a stream and adding draws to one never perturbs the other.

/// SplitMix64: used to expand a single `u64` seed into generator state and
/// to derive fork keys. Passes BigCrush when used as a generator itself.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The simulator RNG: xoshiro256++.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed the generator. Equal seeds give byte-identical streams forever.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        SimRng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Derive an independent substream labeled by `tag`.
    ///
    /// Forking mixes the parent's next output with the tag through SplitMix64,
    /// so distinct tags give uncorrelated streams and the parent advances by
    /// exactly one draw regardless of how much the child is used.
    pub fn fork(&mut self, tag: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ tag.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]` — safe to feed into `ln()`.
    pub fn f64_open0(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift rejection.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Unbiased bounded sampling (Lemire 2018).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_of_child_usage() {
        let mut parent1 = SimRng::new(99);
        let mut parent2 = SimRng::new(99);
        let mut child1 = parent1.fork(1);
        let _ = parent2.fork(1);
        // Drain the first child heavily; parents must stay in lockstep.
        for _ in 0..10_000 {
            child1.next_u64();
        }
        for _ in 0..100 {
            assert_eq!(parent1.next_u64(), parent2.next_u64());
        }
    }

    #[test]
    fn fork_tags_give_distinct_streams() {
        let mut p = SimRng::new(5);
        let mut q = SimRng::new(5);
        let mut a = p.fork(10);
        let mut b = q.fork(11);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f64_open0();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = SimRng::new(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn below_is_unbiased_over_small_range() {
        let mut r = SimRng::new(11);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 7.0;
            assert!((c as f64 - expected).abs() < expected * 0.1, "count {c}");
        }
    }

    #[test]
    fn range_u64_inclusive_bounds_hit() {
        let mut r = SimRng::new(8);
        let mut lo_hit = false;
        let mut hi_hit = false;
        for _ in 0..10_000 {
            match r.range_u64(3, 5) {
                3 => lo_hit = true,
                5 => hi_hit = true,
                4 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(21);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input sorted"
        );
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = SimRng::new(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }
}
