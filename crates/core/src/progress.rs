//! Long-horizon training progress under failures (Figure 14, §5.3).
//!
//! A pretraining job alternates between making progress, failing, rolling
//! back to its last checkpoint, and waiting for somebody (or something) to
//! restart it. Figure 14 contrasts two generations:
//!
//! * the early **104B** run — sparse checkpoints, purely manual recovery
//!   (with painful overnight gaps while the on-call slept), big rollbacks;
//! * the later **123B** run — 30-minute checkpoints and graceful
//!   termination, so interruptions lose little progress but still demand
//!   rapid manual restarts.
//!
//! Like the storm, netstorm and pipeline replays, [`ProgressSim`] books the
//! job on a [`Ledger`]: each handled strike's reaction as detect, its
//! restart overhead as restart, and the run time since the kept (whole)
//! iteration as rollback; a strike while the job is down is absorbed.

use acme_failure::FailureCategory;
use acme_obs::Rec;
use acme_sim_core::{SimDuration, SimRng, SimTime};

use crate::ledger::Ledger;
use crate::storm::{reaction, DIAGNOSE};

/// How interrupted training gets back on its feet.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPolicy {
    /// Checkpoint cadence.
    pub checkpoint_interval: SimDuration,
    /// Whether restarts require a human (true for both Figure-14 runs; the
    /// §6.1 system flips this off).
    pub manual_restart: bool,
    /// Whether planned terminations first save state (the 123B run's
    /// graceful-termination feature) — halving effective rollback loss.
    pub graceful_termination: bool,
    /// Cold-start cost per restart: checkpoint load + initialization.
    pub restart_overhead: SimDuration,
    /// Mean human reaction time during the day, for manual restarts.
    pub daytime_reaction: SimDuration,
}

impl RecoveryPolicy {
    /// The early 104B configuration.
    pub fn early_104b() -> Self {
        RecoveryPolicy {
            checkpoint_interval: SimDuration::from_hours(5),
            manual_restart: true,
            graceful_termination: false,
            restart_overhead: SimDuration::from_mins(40),
            daytime_reaction: SimDuration::from_mins(30),
        }
    }

    /// The improved 123B configuration (§5.3).
    pub fn improved_123b() -> Self {
        RecoveryPolicy {
            checkpoint_interval: SimDuration::from_mins(30),
            manual_restart: true,
            graceful_termination: true,
            restart_overhead: SimDuration::from_mins(15),
            daytime_reaction: SimDuration::from_mins(20),
        }
    }

    /// The §6.1 fault-tolerant system: automatic restart from the latest
    /// properly saved checkpoint.
    pub fn automatic() -> Self {
        RecoveryPolicy {
            checkpoint_interval: SimDuration::from_mins(30),
            manual_restart: false,
            graceful_termination: true,
            restart_overhead: SimDuration::from_mins(10),
            daytime_reaction: SimDuration::ZERO,
        }
    }
}

/// The outcome of one simulated training campaign.
#[derive(Debug, Clone, Default)]
pub struct ProgressTrace {
    /// Iterations completed and *kept* by the end of the horizon.
    pub final_iteration: u64,
    /// Iterations recomputed because of rollbacks.
    pub lost_iterations: u64,
    /// Number of restarts.
    pub restarts: u32,
    /// Restarts that needed a human.
    pub manual_interventions: u32,
    /// The job's books: downtime (waiting + restarting), rollback and
    /// useful time.
    pub ledger: Ledger,
}

impl ProgressTrace {
    /// Goodput: kept iterations per wall hour of the horizon.
    pub fn goodput_iters_per_hour(&self) -> f64 {
        self.final_iteration as f64 / self.ledger.horizon.as_hours_f64()
    }
}

/// Simulates a pretraining campaign against a failure schedule.
#[derive(Debug, Clone)]
pub struct ProgressSim {
    /// Wall time per training iteration.
    pub iter_time: SimDuration,
    /// Recovery configuration.
    pub policy: RecoveryPolicy,
}

impl ProgressSim {
    /// Build a simulator.
    ///
    /// # Panics
    /// Panics if the iteration time is zero.
    pub fn new(iter_time: SimDuration, policy: RecoveryPolicy) -> Self {
        assert!(!iter_time.is_zero(), "iteration time must be positive");
        ProgressSim { iter_time, policy }
    }

    /// Run until `horizon`, failing at each time in `failures` (must be
    /// sorted ascending). Failures that strike while the job is already
    /// down are absorbed by the ongoing recovery.
    pub fn run(
        &self,
        rng: &mut SimRng,
        failures: &[SimTime],
        horizon: SimDuration,
    ) -> ProgressTrace {
        assert!(
            failures.windows(2).all(|w| w[0] <= w[1]),
            "failure schedule must be sorted"
        );
        let iter_us = self.iter_time.as_micros();
        let ckpt_iters = (self.policy.checkpoint_interval.as_micros() / iter_us).max(1);
        let mut ledger = Ledger::new(horizon);
        let mut trace = ProgressTrace::default();
        let end = ledger.end();
        // When the job last came up, and its durable progress then (as of
        // the last checkpoint or clean state).
        let (mut up, mut durable) = (SimTime::ZERO, 0);
        let mut rec = Rec::off();
        for &at in failures.iter().take_while(|&&at| at < end) {
            if ledger.is_down(at) {
                continue; // absorbed by the ongoing recovery
            }
            ledger.run_until(at, 1.0);
            let ran = at - up;
            let iters_run = ran.as_micros() / iter_us;
            let reached = durable + iters_run;
            // Roll back to the last checkpoint boundary.
            let kept = if self.policy.graceful_termination && rng.chance(0.5) {
                // Half the interruptions are graceful (user-pause, planned
                // maintenance): state is saved at the kill point.
                reached
            } else {
                durable + (iters_run / ckpt_iters) * ckpt_iters
            };
            trace.lost_iterations += reached - kept;
            let react = if self.policy.manual_restart {
                trace.manual_interventions += 1;
                let daytime = self.policy.daytime_reaction;
                reaction(at, rng, |rng| daytime.mul_f64(0.5 + rng.f64()))
            } else {
                DIAGNOSE // detection + reschedule
            };
            let stages = [react, SimDuration::ZERO, self.policy.restart_overhead];
            let rollback = (ran - self.iter_time * (kept - durable)).as_secs_f64();
            // `pretrain_schedule` draws infrastructure-class interruptions.
            let infra = FailureCategory::Infrastructure;
            let wait = ledger.book(at, "Interruption", infra, stages, rollback, &mut rec);
            trace.restarts += 1;
            up = at + wait;
            durable = kept;
        }
        ledger.run_until(end, 1.0);
        trace.final_iteration = durable + end.saturating_since(up).as_micros() / iter_us;
        ProgressTrace { ledger, ..trace }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use acme_failure::FailureInjector;
    use proptest::prelude::*;

    impl ProgressSim {
        /// The loop before the replay booked on the ledger, kept verbatim
        /// (but for its breakpoint list) as the oracle: it absorbs strikes,
        /// rolls back and sums downtime by itself. Returns (final
        /// iteration, lost iterations, downtime, restarts, manual
        /// interventions).
        fn run_reference(
            &self,
            rng: &mut SimRng,
            failures: &[SimTime],
            horizon: SimDuration,
        ) -> (u64, u64, SimDuration, u32, u32) {
            let end = SimTime::ZERO + horizon;
            let mut now = SimTime::ZERO;
            let mut iter: u64 = 0; // durable progress (as of last checkpoint or clean state)
            let mut lost: u64 = 0;
            let mut downtime = SimDuration::ZERO;
            let mut restarts = 0;
            let mut manual = 0;

            let mut fi = 0;
            while now < end {
                // Next interruption while running, if any.
                while fi < failures.len() && failures[fi] < now {
                    fi += 1; // absorbed by downtime
                }
                let fail_at = failures.get(fi).copied().unwrap_or(SimTime::MAX).min(end);
                let run_span = fail_at - now;
                let iters_run = run_span.as_micros() / self.iter_time.as_micros();
                let reached = iter + iters_run;

                if fail_at >= end {
                    // Clean run to the horizon.
                    iter = reached;
                    break;
                }

                // Failure: roll back to the last checkpoint boundary.
                let ckpt_iters =
                    self.policy.checkpoint_interval.as_micros() / self.iter_time.as_micros();
                let ckpt_iters = ckpt_iters.max(1);
                let kept = if self.policy.graceful_termination && rng.chance(0.5) {
                    // Half the interruptions are graceful (user-pause, planned
                    // maintenance): state is saved at the kill point.
                    reached
                } else {
                    iter + (iters_run / ckpt_iters) * ckpt_iters
                };
                lost += reached - kept;

                // Recovery delay.
                let wait = if self.policy.manual_restart {
                    manual += 1;
                    self.manual_delay_reference(fail_at, rng)
                } else {
                    SimDuration::from_mins(2) // detection + reschedule
                };
                let back_up = fail_at + wait + self.policy.restart_overhead;
                downtime += back_up - fail_at;
                restarts += 1;
                iter = kept;
                now = back_up;
                fi += 1;
            }
            (iter, lost, downtime, restarts, manual)
        }

        /// Human reaction time: short in the day, until-morning at night.
        fn manual_delay_reference(&self, at: SimTime, rng: &mut SimRng) -> SimDuration {
            let hour = (at.as_secs() / 3600) % 24;
            let night = !(8..23).contains(&hour);
            if night {
                // Sleep until ~08:00 next morning plus a coffee.
                let secs_into_day = at.as_secs() % 86_400;
                let morning = if secs_into_day < 8 * 3600 {
                    8 * 3600 - secs_into_day
                } else {
                    86_400 - secs_into_day + 8 * 3600
                };
                SimDuration::from_secs(morning) + SimDuration::from_mins(rng.range_u64(10, 40))
            } else {
                self.policy.daytime_reaction.mul_f64(0.5 + rng.f64())
            }
        }
    }

    /// Figure 14's three campaigns at `seed`, set up as
    /// `experiments::training::fig14` sets them up: (label, iteration
    /// time, outcome).
    pub(crate) fn fig14(seed: u64) -> [(&'static str, SimDuration, ProgressTrace); 3] {
        let horizon = SimDuration::from_days(21);
        let mut sched_rng = SimRng::new(seed).fork(401);
        let mtbf = SimDuration::from_hours(15);
        let failures = FailureInjector::pretrain_schedule(&mut sched_rng, mtbf, horizon);
        [
            ("104B manual", 13, RecoveryPolicy::early_104b()),
            ("123B manual", 15, RecoveryPolicy::improved_123b()),
            ("123B automatic", 15, RecoveryPolicy::automatic()),
        ]
        .map(|(label, secs, policy)| {
            let iter_time = SimDuration::from_secs(secs);
            let mut rng = SimRng::new(seed).fork(402);
            let trace = ProgressSim::new(iter_time, policy).run(&mut rng, &failures, horizon);
            (label, iter_time, trace)
        })
    }

    /// A gap between strikes: back to back, one second, exactly the
    /// automatic arm's 2 + 10 min recovery (so the next strike lands on
    /// the restart instant), or anywhere up to about a day.
    fn gap() -> impl Strategy<Value = SimDuration> {
        (0usize..4, 0u64..100_000)
            .prop_map(|(kind, wide)| SimDuration::from_secs([0, 1, 720, wide][kind]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Booked on the ledger, the replay keeps the hand-rolled loop's
        /// iterations, restarts, downtime and rng draws under every policy,
        /// with strikes inside a recovery, on a restart instant, and at or
        /// past the horizon.
        #[test]
        fn run_matches_the_reference(
            seed in any::<u64>(),
            policy in 0usize..3,
            iter_secs in 1u64..90,
            gaps in prop::collection::vec(gap(), 0..40),
            horizon_hours in 1u64..96,
            ends_on_strike in 0usize..48,
        ) {
            let policy = [
                RecoveryPolicy::early_104b(),
                RecoveryPolicy::improved_123b(),
                RecoveryPolicy::automatic(),
            ][policy];
            let sim = ProgressSim::new(SimDuration::from_secs(iter_secs), policy);
            let mut at = SimTime::ZERO;
            let failures: Vec<SimTime> = gaps.iter().map(|&g| { at += g; at }).collect();
            // Often the horizon ends exactly on a strike.
            let horizon = match failures.get(ends_on_strike) {
                Some(&end) => end - SimTime::ZERO,
                None => SimDuration::from_hours(horizon_hours),
            };
            let (mut got_rng, mut want_rng) = (SimRng::new(seed), SimRng::new(seed));
            let got = sim.run(&mut got_rng, &failures, horizon);
            let (final_iteration, lost, downtime, restarts, manual) =
                sim.run_reference(&mut want_rng, &failures, horizon);
            prop_assert_eq!(got.final_iteration, final_iteration);
            prop_assert_eq!(got.lost_iterations, lost);
            prop_assert_eq!(got.restarts, restarts);
            prop_assert_eq!(got.manual_interventions, manual);
            prop_assert_eq!(got.ledger.downtime.as_micros(), downtime.as_micros());
            prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Progress simulation: kept iterations never exceed the failure-free
        /// bound; downtime and losses are zero without failures.
        #[test]
        fn progress_invariants(seed in any::<u64>(), n_failures in 0usize..10, iter_secs in 5u64..60) {
            let horizon = SimDuration::from_days(7);
            let failures: Vec<SimTime> = (0..n_failures)
                .map(|i| SimTime::from_secs((i as u64 + 1) * 50_000))
                .filter(|t| t.as_secs() < horizon.as_secs())
                .collect();
            let sim = ProgressSim::new(SimDuration::from_secs(iter_secs), RecoveryPolicy::automatic());
            let mut rng = SimRng::new(seed);
            let trace = sim.run(&mut rng, &failures, horizon);
            let bound = horizon.as_secs() / iter_secs;
            prop_assert!(trace.final_iteration <= bound);
            prop_assert!(trace.restarts as usize <= failures.len());
            if failures.is_empty() {
                prop_assert_eq!(trace.final_iteration, bound);
                prop_assert_eq!(trace.lost_iterations, 0);
            }
        }
    }

    fn sim(policy: RecoveryPolicy) -> ProgressSim {
        ProgressSim::new(SimDuration::from_secs(12), policy)
    }

    fn day_failures() -> Vec<SimTime> {
        // Failures at 10:00 on days 0, 2, 4 and 03:00 on days 1, 3.
        let mut f = vec![];
        for d in 0..5u64 {
            let base = d * 86_400;
            let hour = if d % 2 == 0 { 10 } else { 3 };
            f.push(SimTime::from_secs(base + hour * 3600));
        }
        f
    }

    #[test]
    fn no_failures_run_straight_through() {
        let mut rng = SimRng::new(1);
        let t = sim(RecoveryPolicy::improved_123b()).run(&mut rng, &[], SimDuration::from_days(1));
        assert_eq!(t.restarts, 0);
        assert_eq!(t.lost_iterations, 0);
        assert_eq!(t.ledger.downtime, SimDuration::ZERO);
        assert_eq!(t.final_iteration, 86_400 / 12);
    }

    #[test]
    fn failures_cost_progress_and_downtime() {
        let mut rng = SimRng::new(2);
        let t = sim(RecoveryPolicy::early_104b()).run(
            &mut rng,
            &day_failures(),
            SimDuration::from_days(5),
        );
        assert_eq!(t.restarts, 5);
        assert_eq!(t.manual_interventions, 5);
        assert!(t.lost_iterations > 0);
        assert!(
            t.ledger.downtime > SimDuration::from_hours(5),
            "night waits add up"
        );
        assert!(t.final_iteration < 5 * 86_400 / 12);
    }

    #[test]
    fn improved_policy_loses_less() {
        let mut r1 = SimRng::new(3);
        let mut r2 = SimRng::new(3);
        let horizon = SimDuration::from_days(5);
        let early = sim(RecoveryPolicy::early_104b()).run(&mut r1, &day_failures(), horizon);
        let improved = sim(RecoveryPolicy::improved_123b()).run(&mut r2, &day_failures(), horizon);
        // Figure 14: the 123B run is visibly more stable.
        assert!(improved.lost_iterations < early.lost_iterations / 2);
        assert!(improved.final_iteration > early.final_iteration);
    }

    #[test]
    fn automatic_recovery_eliminates_manual_interventions() {
        let mut rng = SimRng::new(4);
        let t = sim(RecoveryPolicy::automatic()).run(
            &mut rng,
            &day_failures(),
            SimDuration::from_days(5),
        );
        assert_eq!(t.manual_interventions, 0);
        assert_eq!(t.restarts, 5);
        assert!(t.ledger.downtime < SimDuration::from_hours(2));
    }

    #[test]
    fn night_failures_wait_until_morning() {
        let mut rng = SimRng::new(5);
        // One failure at 02:00.
        let failures = vec![SimTime::from_secs(2 * 3600)];
        let t =
            sim(RecoveryPolicy::early_104b()).run(&mut rng, &failures, SimDuration::from_days(1));
        // At least six hours of downtime (02:00 → 08:00).
        assert!(
            t.ledger.downtime >= SimDuration::from_hours(6),
            "downtime {}",
            t.ledger.downtime
        );
    }

    #[test]
    fn failures_during_downtime_are_absorbed() {
        let mut rng = SimRng::new(7);
        // A cluster of failures one minute apart at 03:00: the job is down
        // until morning, so they collapse into one restart.
        let failures: Vec<SimTime> = (0..5)
            .map(|i| SimTime::from_secs(3 * 3600 + i * 60))
            .collect();
        let t =
            sim(RecoveryPolicy::early_104b()).run(&mut rng, &failures, SimDuration::from_days(1));
        assert_eq!(t.restarts, 1, "downtime absorbs the burst");
    }

    #[test]
    fn a_strike_at_the_restart_instant_is_handled() {
        // The automatic arm is back up 2 + 10 min after a strike. A second
        // strike at that very instant finds the job up and costs a second
        // recovery; one a microsecond earlier is absorbed.
        let first = SimTime::from_secs(3600);
        let back_up = first + SimDuration::from_mins(12);
        for (second, restarts) in [(back_up, 2), (back_up - SimDuration::from_micros(1), 1)] {
            let mut rng = SimRng::new(9);
            let t = sim(RecoveryPolicy::automatic()).run(
                &mut rng,
                &[first, second],
                SimDuration::from_days(1),
            );
            assert_eq!(t.restarts, restarts);
            assert_eq!(
                t.ledger.downtime,
                SimDuration::from_mins(12) * restarts.into()
            );
        }
    }

    #[test]
    fn goodput_reflects_interruption_cost() {
        let mut r1 = SimRng::new(8);
        let mut r2 = SimRng::new(8);
        let horizon = SimDuration::from_days(5);
        let clean = sim(RecoveryPolicy::automatic()).run(&mut r1, &[], horizon);
        let rough = sim(RecoveryPolicy::early_104b()).run(&mut r2, &day_failures(), horizon);
        assert!(clean.goodput_iters_per_hour() > rough.goodput_iters_per_hour());
    }
}
