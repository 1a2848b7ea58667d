//! Property-based tests for the simulation kernel.

use acme_sim_core::dist::{Categorical, Distribution, Exponential, LogNormal, Zipf};
use acme_sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// The event queue is a stable priority queue: popping always yields
    /// non-decreasing timestamps, and equal timestamps preserve push order.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal timestamps");
                }
            }
            last = Some((t, idx));
        }
    }

    /// The queue pops in exact (time, insertion sequence) order under any
    /// interleaving of pops with every scheduling form: checked `schedule`,
    /// the fast paths `schedule_in` and `schedule_now`, and ordered-`f64`
    /// keys (`SimTime::from_ordered_secs_f64`, the evaluation coordinator's
    /// encoding). Offsets run from 0 (same-instant ties) to about 2^46 µs
    /// (far-future keys). A sorted reference model also checks `len` and
    /// `peek_time` after every operation.
    #[test]
    fn fast_path_scheduling_matches_reference_model(
        ops in prop::collection::vec((0u8..4, 0u64..50, 0u32..5, any::<bool>()), 1..200),
    ) {
        let mut q = EventQueue::new();
        // Reference future-event list: (raw key, insertion seq).
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (seq, &(mode, offset, far, pop_after)) in ops.iter().enumerate() {
            let offset = offset << (far * 10);
            let at = match mode {
                0 => {
                    let at = now + SimDuration::from_micros(offset);
                    q.schedule(at, seq);
                    at
                }
                1 => {
                    q.schedule_in(SimDuration::from_micros(offset), seq);
                    now + SimDuration::from_micros(offset)
                }
                2 => {
                    q.schedule_now(seq);
                    now
                }
                _ => {
                    let secs = now.as_ordered_secs_f64() + offset as f64 * 1e-6;
                    let at = SimTime::from_ordered_secs_f64(secs);
                    q.schedule(at, seq);
                    at
                }
            };
            pending.push((at.as_micros(), seq));
            if pop_after {
                let k = (0..pending.len()).min_by_key(|&k| pending[k]).unwrap();
                let (rt, rs) = pending.remove(k);
                let (t, s) = q.pop().unwrap();
                prop_assert_eq!((t.as_micros(), s), (rt, rs));
                now = t;
            }
            prop_assert_eq!(q.len(), pending.len());
            prop_assert_eq!(
                q.peek_time().map(SimTime::as_micros),
                pending.iter().min().map(|p| p.0)
            );
        }
        pending.sort_unstable();
        for (rt, rs) in pending {
            let (t, s) = q.pop().unwrap();
            prop_assert_eq!((t.as_micros(), s), (rt, rs));
        }
        prop_assert!(q.pop().is_none());
    }

    /// Forked RNG streams never change the parent's stream.
    #[test]
    fn forking_preserves_parent_stream(seed in any::<u64>(), tag in any::<u64>(), drains in 0usize..500) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let mut child = a.fork(tag);
        let _ = b.fork(tag);
        for _ in 0..drains {
            child.next_u64();
        }
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// below(n) is always within range for arbitrary n.
    #[test]
    fn below_in_range(seed in any::<u64>(), n in 1u64..u64::MAX) {
        let mut rng = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(n) < n);
        }
    }

    /// Every supported distribution yields non-negative, finite samples.
    #[test]
    fn samples_nonnegative_finite(seed in any::<u64>(), mean in 0.001f64..1e6) {
        let mut rng = SimRng::new(seed);
        let e = Exponential::with_mean(mean);
        let l = LogNormal::from_median_mean(mean, mean * 1.5);
        for _ in 0..16 {
            let (x, y) = (e.sample(&mut rng), l.sample(&mut rng));
            prop_assert!(x >= 0.0 && x.is_finite());
            prop_assert!(y > 0.0 && y.is_finite());
        }
    }

    /// Categorical never returns an out-of-range index and never selects a
    /// zero-weight bucket.
    #[test]
    fn categorical_index_valid(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let c = Categorical::new(&weights);
        let mut rng = SimRng::new(seed);
        for _ in 0..64 {
            let i = c.sample_index(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "picked zero-weight bucket {}", i);
        }
    }

    /// Zipf's guide-table search returns the index a plain binary search
    /// over the same `k^-s` weights returns, draw for draw.
    #[test]
    fn zipf_guide_table_matches_binary_search(
        seed in any::<u64>(),
        n in 1usize..2048,
        s in 0.0f64..=3.0,
    ) {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let oracle = Categorical::new(&weights);
        let zipf = Zipf::new(n, s);
        let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
        for _ in 0..256 {
            prop_assert_eq!(zipf.sample_index(&mut a), oracle.sample_index(&mut b));
        }
    }

    /// Shuffling preserves the multiset of elements.
    #[test]
    fn shuffle_preserves_elements(seed in any::<u64>(), mut xs in prop::collection::vec(any::<u32>(), 0..100)) {
        let mut sorted_before = xs.clone();
        sorted_before.sort_unstable();
        let mut rng = SimRng::new(seed);
        rng.shuffle(&mut xs);
        xs.sort_unstable();
        prop_assert_eq!(xs, sorted_before);
    }
}
