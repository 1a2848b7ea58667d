//! Activity counters deposited from below the experiment harness.
//!
//! Every [`EventQueue`](crate::EventQueue) counts its schedules, pops and
//! peak pending depth in plain integer fields — three updates on paths
//! that already touch the same cache lines, cheap enough to leave on
//! unconditionally — and deposits them when it is dropped. The fat-tree
//! flow scheduler (`acme_cluster::net::FlowSim`) deposits its flow count
//! and busiest-link utilization after each run. Both land in one
//! thread-local [`Counters`] cell, which `acme_obs::take` drains with the
//! rest of an experiment's tally, so `--timings-json` reports them without
//! any plumbing through simulation code.

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
}

/// Flow-scheduler totals from one or more fat-tree flow runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetStats {
    /// Flows routed through a fat tree.
    pub flows_routed: u64,
    /// Peak time-averaged utilization (0..=1) of the busiest link across
    /// runs.
    pub max_link_utilization: f64,
}

impl NetStats {
    /// All-zero counters.
    pub const ZERO: NetStats = NetStats {
        flows_routed: 0,
        max_link_utilization: 0.0,
    };
}

/// Every counter deposited from below the harness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counters {
    /// Event-queue activity.
    pub queue: QueueStats,
    /// Fat-tree flow activity.
    pub net: NetStats,
}

impl Counters {
    /// All-zero counters.
    pub const ZERO: Counters = Counters {
        queue: QueueStats::ZERO,
        net: NetStats::ZERO,
    };
}

thread_local! {
    static COUNTERS: Cell<Counters> = const { Cell::new(Counters::ZERO) };
}

/// Fold `c` into the calling thread's totals. Counts add; peaks take the
/// maximum, because the deposits come from queues and flow runs that were
/// live at different times or in different shards, and summing peaks would
/// overstate them.
pub fn absorb(c: Counters) {
    let t = COUNTERS.get();
    COUNTERS.set(Counters {
        queue: QueueStats {
            schedules: t.queue.schedules + c.queue.schedules,
            pops: t.queue.pops + c.queue.pops,
            max_depth: t.queue.max_depth.max(c.queue.max_depth),
        },
        net: NetStats {
            flows_routed: t.net.flows_routed + c.net.flows_routed,
            max_link_utilization: t.net.max_link_utilization.max(c.net.max_link_utilization),
        },
    });
}

/// Drain the calling thread's totals, resetting them to zero.
pub fn take() -> Counters {
    COUNTERS.replace(Counters::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(schedules: u64, pops: u64, max_depth: u64, flows: u64, util: f64) -> Counters {
        Counters {
            queue: QueueStats {
                schedules,
                pops,
                max_depth,
            },
            net: NetStats {
                flows_routed: flows,
                max_link_utilization: util,
            },
        }
    }

    #[test]
    fn absorb_take_roundtrip() {
        take(); // isolate from queues dropped earlier on this thread
        absorb(counters(2, 1, 4, 5, 0.4));
        absorb(counters(5, 5, 3, 2, 0.8));
        // Counts add; peak depth and peak utilization take the maximum.
        assert_eq!(take(), counters(7, 6, 4, 7, 0.8));
        assert_eq!(take(), Counters::ZERO, "take drains");
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
        let got = take().queue;
        assert_eq!(got.schedules, 50);
        assert_eq!(got.pops, 20);
        assert_eq!(got.max_depth, 50);
    }
}
