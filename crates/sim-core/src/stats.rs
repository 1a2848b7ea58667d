//! Event-queue activity counters.
//!
//! Every [`EventQueue`](crate::EventQueue) counts its schedules, pops and
//! peak pending depth in plain integer fields — three updates on paths
//! that already touch the same cache lines, cheap enough to leave on
//! unconditionally. When a queue is dropped it absorbs its counters into
//! a thread-local accumulator; the experiment harness
//! drains that accumulator per experiment (and per shard, forwarding
//! worker-thread totals to the calling thread) so `--timings-json` can
//! report `events_processed` and `max_queue_depth` without any plumbing
//! through simulation code.

use std::cell::Cell;

/// Counter totals from one or more event queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueStats {
    /// Events scheduled (`schedule` / `schedule_in` / `schedule_now`).
    pub schedules: u64,
    /// Events popped.
    pub pops: u64,
    /// Peak number of simultaneously pending events.
    pub max_depth: u64,
}

impl QueueStats {
    /// All-zero counters.
    pub const ZERO: QueueStats = QueueStats {
        schedules: 0,
        pops: 0,
        max_depth: 0,
    };

    /// Combine two totals: counts add, peak depths take the maximum (the
    /// queues were live at different times or in different shards; summing
    /// depths would overstate the peak).
    pub fn merge(self, other: QueueStats) -> QueueStats {
        QueueStats {
            schedules: self.schedules + other.schedules,
            pops: self.pops + other.pops,
            max_depth: self.max_depth.max(other.max_depth),
        }
    }
}

thread_local! {
    static SCHEDULES: Cell<u64> = const { Cell::new(0) };
    static POPS: Cell<u64> = const { Cell::new(0) };
    static MAX_DEPTH: Cell<u64> = const { Cell::new(0) };
}

/// Fold `stats` into the calling thread's accumulator. Called by
/// `EventQueue::drop`; harness code normally only needs [`take`].
pub fn absorb(stats: QueueStats) {
    SCHEDULES.with(|c| c.set(c.get() + stats.schedules));
    POPS.with(|c| c.set(c.get() + stats.pops));
    MAX_DEPTH.with(|c| c.set(c.get().max(stats.max_depth)));
}

/// Drain the calling thread's accumulated totals, resetting them to zero.
pub fn take() -> QueueStats {
    QueueStats {
        schedules: SCHEDULES.with(|c| c.replace(0)),
        pops: POPS.with(|c| c.replace(0)),
        max_depth: MAX_DEPTH.with(|c| c.replace(0)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts_and_maxes_depth() {
        let a = QueueStats {
            schedules: 10,
            pops: 8,
            max_depth: 5,
        };
        let b = QueueStats {
            schedules: 3,
            pops: 3,
            max_depth: 9,
        };
        let m = a.merge(b);
        assert_eq!(m.schedules, 13);
        assert_eq!(m.pops, 11);
        assert_eq!(m.max_depth, 9);
        assert_eq!(QueueStats::ZERO.merge(a), a);
    }

    #[test]
    fn absorb_take_roundtrip() {
        take(); // isolate from queues dropped earlier on this thread
        absorb(QueueStats {
            schedules: 2,
            pops: 1,
            max_depth: 4,
        });
        absorb(QueueStats {
            schedules: 5,
            pops: 5,
            max_depth: 3,
        });
        let got = take();
        assert_eq!(
            got,
            QueueStats {
                schedules: 7,
                pops: 6,
                max_depth: 4,
            }
        );
        assert_eq!(take(), QueueStats::ZERO, "take drains");
    }

    #[test]
    fn dropping_a_queue_deposits_its_counters() {
        use crate::{EventQueue, SimTime};
        take();
        {
            let mut q = EventQueue::new();
            for i in 0..50u64 {
                q.schedule(SimTime::from_micros(i), i);
            }
            for _ in 0..20 {
                q.pop();
            }
        }
        let got = take();
        assert_eq!(got.schedules, 50);
        assert_eq!(got.pops, 20);
        assert_eq!(got.max_depth, 50);
    }
}
