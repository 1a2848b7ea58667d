//! Stuck-job detection (§5.3 trigger 3, Appendix A.1).
//!
//! Some infrastructure problems hang a job *without throwing an error* —
//! the paper's users found such jobs "only to be addressed upon manual
//! inspection ... leading to significant resource wastage". The watchdog
//! closes that gap: armed when the job was last seen progressing, it
//! raises a stuck verdict once a timeout passes with no progress, feeding
//! the same recovery path as a diagnosed failure
//! ([`crate::RecoveryManager::decide_stuck`]). The replays arm it where
//! the silence starts (a hang, a restart) and check it at the timeout.

use acme_sim_core::{SimDuration, SimTime};

/// The watchdog's view of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogState {
    /// Progress within the timeout.
    Healthy,
    /// No progress for longer than the timeout.
    Stuck,
}

/// A per-job progress watchdog.
#[derive(Debug, Clone)]
pub struct Watchdog {
    timeout: SimDuration,
    start: SimTime,
}

impl Watchdog {
    /// A watchdog that declares a job stuck after `timeout` without a new
    /// iteration. The job was last seen progressing at `start`.
    ///
    /// # Panics
    /// Panics on a zero timeout.
    pub fn new(start: SimTime, timeout: SimDuration) -> Self {
        assert!(!timeout.is_zero(), "timeout must be positive");
        Watchdog { timeout, start }
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

    /// Evaluate the job's state at `now`.
    pub fn check(&self, now: SimTime) -> WatchdogState {
        if now.saturating_since(self.start) > self.timeout {
            WatchdogState::Stuck
        } else {
            WatchdogState::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::from_secs(mins * 60)
    }

    #[test]
    fn fires_after_silence() {
        // Last progress at minute 5: up to 30 minutes of silence is
        // healthy, 31 is stuck.
        let w = Watchdog::standard(t(5));
        assert_eq!(w.check(t(30)), WatchdogState::Healthy);
        assert_eq!(w.check(t(35)), WatchdogState::Healthy);
        assert_eq!(w.check(t(36)), WatchdogState::Stuck);
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
