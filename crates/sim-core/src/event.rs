//! Time-ordered event queue with FIFO tie-breaking.
//!
//! Events scheduled for the same instant pop in the order they were pushed;
//! this stability is what makes whole-simulation determinism possible when
//! many components schedule work at identical timestamps (e.g. a batch of
//! evaluation trials submitted "simultaneously", exactly as §3.2 describes).
//!
//! [`EventQueue`] is a binary heap ordered by the total order
//! `(time, seq)`, where `seq` is the insertion sequence number. It compares
//! raw `u64` keys only, so integer microseconds and the ordered-`f64` bit
//! encoding used by the evaluation coordinator both pop in key order. No
//! simulation in the workspace holds more than a few thousand pending
//! events, where the heap's `O(log n)` is as fast as any bucketed queue
//! (DESIGN.md §7).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::stats::{Counters, QueueStats};
use crate::time::SimDuration;
use crate::time::SimTime;

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// BinaryHeap is a max-heap; invert the ordering to pop earliest-first,
// breaking ties by insertion sequence.
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

/// A deterministic future-event list: a binary heap with exact
/// `(time, seq)` FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    /// Lifetime activity counters, deposited into the thread's
    /// [`crate::stats`] totals when the queue is dropped.
    stats: QueueStats,
}

impl<E> Drop for EventQueue<E> {
    fn drop(&mut self) {
        crate::stats::absorb(Counters {
            queue: self.stats,
            ..Counters::ZERO
        });
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `capacity` pending events before any
    /// reallocation — callers that know their event population (one event
    /// per job, per trial, per failure) should prefer this constructor.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
            stats: QueueStats::ZERO,
        }
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past — scheduling backwards is
    /// always a bug in the caller.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled into the past: {} < now {}",
            at.as_micros(),
            self.now.as_micros()
        );
        self.push_unchecked(at, event);
    }

    /// Schedule `event` after `delay` from the current clock. This is the
    /// fast path for the overwhelmingly common "relative timer" shape: the
    /// result can never land in the past, so the past-check is skipped.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.push_unchecked(at, event);
    }

    /// Schedule `event` at the current clock instant (it pops after every
    /// event already pending at `now`, preserving FIFO order). Fast path:
    /// no past-check needed.
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.push_unchecked(self.now, event);
    }

    #[inline]
    fn push_unchecked(&mut self, at: SimTime, event: E) {
        self.heap.push(Scheduled {
            time: at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
        self.stats.schedules += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.heap.len() as u64);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.stats.pops += 1;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(1), 1u8);
        q.schedule(SimTime::from_secs(2), 2u8);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
    }

    #[test]
    fn schedule_in_is_relative_to_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(5), "second");
        assert_eq!(q.pop(), Some((SimTime::from_secs(15), "second")));
    }

    #[test]
    fn schedule_now_pops_after_existing_same_time_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "kick");
        q.pop();
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule_now("b");
        q.schedule_in(SimDuration::ZERO, "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fast_paths_preserve_fifo_with_checked_schedule() {
        // Interleave all three scheduling forms at one instant; pops must
        // come back in exact insertion order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 0u32);
        q.pop();
        for i in 0..30u32 {
            match i % 3 {
                0 => q.schedule(q.now(), i),
                1 => q.schedule_now(i),
                _ => q.schedule_in(SimDuration::ZERO, i),
            }
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_secs(1) + SimDuration::from_millis(500), 1u8);
        q.schedule(SimTime::from_secs(1), 2u8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 2)));
        assert_eq!(q.len(), 1);
    }
}
