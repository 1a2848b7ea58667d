//! Stuck-job detection (§5.3 trigger 3, Appendix A.1).
//!
//! Some infrastructure problems hang a job *without throwing an error* —
//! the paper's users found such jobs "only to be addressed upon manual
//! inspection ... leading to significant resource wastage". The watchdog
//! closes that gap: it tracks iteration heartbeats and raises a stuck
//! verdict when no progress lands within a timeout, feeding the same
//! recovery path as a diagnosed failure
//! ([`crate::RecoveryManager::decide_stuck`]).

use acme_sim_core::{SimDuration, SimTime};

/// The watchdog's view of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogState {
    /// Progress within the timeout.
    Healthy,
    /// No heartbeat for longer than the timeout.
    Stuck,
}

/// A per-job progress watchdog.
#[derive(Debug, Clone)]
pub struct Watchdog {
    timeout: SimDuration,
    last_heartbeat: SimTime,
    last_iteration: u64,
}

impl Watchdog {
    /// A watchdog that declares a job stuck after `timeout` without a new
    /// iteration. The job is considered alive at `start`.
    ///
    /// # Panics
    /// Panics on a zero timeout.
    pub fn new(start: SimTime, timeout: SimDuration) -> Self {
        assert!(!timeout.is_zero(), "timeout must be positive");
        Watchdog {
            timeout,
            last_heartbeat: start,
            last_iteration: 0,
        }
    }

    /// The production default: 30 minutes without an iteration.
    pub fn standard(start: SimTime) -> Self {
        Self::new(start, SimDuration::from_mins(30))
    }

    /// The tighter watchdog armed *during recovery*: a restarted job that
    /// produces no iteration within 10 minutes is wedged, and waiting the
    /// full steady-state timeout would only burn more fleet time. The
    /// escalation ladder arms this one over each restart window.
    pub fn recovery(start: SimTime) -> Self {
        Self::new(start, SimDuration::from_mins(10))
    }

    /// Record a heartbeat: the job reports `iteration` at `now`. Only
    /// *advancing* iterations count as progress — a job re-reporting the
    /// same step is as stuck as a silent one.
    pub fn heartbeat(&mut self, now: SimTime, iteration: u64) {
        if iteration > self.last_iteration {
            self.last_iteration = iteration;
            self.last_heartbeat = now;
        }
    }

    /// Evaluate the job's state at `now`.
    pub fn check(&self, now: SimTime) -> WatchdogState {
        if now.saturating_since(self.last_heartbeat) > self.timeout {
            WatchdogState::Stuck
        } else {
            WatchdogState::Healthy
        }
    }

    /// Time since the last progress, as of `now`.
    pub fn silence(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.last_heartbeat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_secs(mins * 60)
    }

    #[test]
    fn healthy_while_progressing() {
        let mut w = Watchdog::standard(t(0));
        for i in 1..10 {
            w.heartbeat(t(i * 5), i);
            assert_eq!(w.check(t(i * 5)), WatchdogState::Healthy);
        }
    }

    #[test]
    fn fires_after_silence() {
        let mut w = Watchdog::standard(t(0));
        w.heartbeat(t(5), 1);
        assert_eq!(w.check(t(30)), WatchdogState::Healthy);
        assert_eq!(w.check(t(36)), WatchdogState::Stuck);
        assert_eq!(w.silence(t(36)), SimDuration::from_mins(31));
    }

    #[test]
    fn repeated_iteration_is_not_progress() {
        // A hung NCCL collective often keeps the process alive and logging
        // the same step.
        let mut w = Watchdog::standard(t(0));
        w.heartbeat(t(5), 7);
        for m in [10u64, 20, 30, 40] {
            w.heartbeat(t(m), 7); // same iteration, no progress
        }
        assert_eq!(w.check(t(36)), WatchdogState::Stuck);
    }

    #[test]
    fn recovery_resets_the_clock() {
        let mut w = Watchdog::standard(t(0));
        w.heartbeat(t(5), 1);
        assert_eq!(w.check(t(40)), WatchdogState::Stuck);
        // Progress resumes.
        w.heartbeat(t(41), 2);
        assert_eq!(w.check(t(60)), WatchdogState::Healthy);
    }

    #[test]
    fn recovery_watchdog_fires_faster_than_standard() {
        let standard = Watchdog::standard(t(0));
        let recovery = Watchdog::recovery(t(0));
        // At 15 minutes of silence the recovery watchdog has fired, the
        // steady-state one has not.
        assert_eq!(standard.check(t(15)), WatchdogState::Healthy);
        assert_eq!(recovery.check(t(15)), WatchdogState::Stuck);
    }
}
