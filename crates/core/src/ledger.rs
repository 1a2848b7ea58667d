//! One job timeline for the §6.1 replays.
//!
//! [`crate::storm`], [`crate::netstorm`], [`crate::pipeline`] and
//! [`crate::progress`] (Figure 14) each replay one pretraining job through
//! its failures. Their runners only decide how to answer each strike; a
//! [`Ledger`] books the answers, by one set of rules:
//!
//! * a strike that lands while the job is down is absorbed by the ongoing
//!   recovery: it is neither handled nor charged;
//! * while up, the job trains at a throughput factor, less the shares of
//!   the degradation windows still open, and the shortfall is degraded
//!   loss; a degradation, absorbed or not, is paid only while the job is
//!   up;
//! * each recovery's wait is booked as detect → localize → restart stages
//!   per [`FailureCategory`], beside its rollback;
//! * uptime stops at the horizon, so the last wait's overshoot past it is
//!   downtime but no lost goodput: useful + rollback + degraded loss +
//!   downtime − overshoot = horizon.

use acme_failure::FailureCategory;
use acme_obs::{ArgValue, Rec};
use acme_sim_core::{SimDuration, SimTime};

/// The books of one replayed job.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// The campaign horizon.
    pub horizon: SimDuration,
    /// Total recovery wait, the overshoot included.
    pub downtime: SimDuration,
    /// Training progress rolled back, seconds.
    pub rollback_secs: f64,
    /// Seconds spent running below full throughput.
    pub degraded_secs: f64,
    /// Throughput lost to running degraded, seconds of full-width
    /// training.
    pub degraded_loss_secs: f64,
    /// Recovery wait per fault category (rows, in [`FailureCategory`]
    /// order) and stage (columns: detect, localize, restart), seconds,
    /// summed in booking order. It sums to `downtime`.
    pub stage_secs: [[f64; 3]; 3],
    /// Rolled-back progress per fault category, seconds, summed in booking
    /// order.
    pub category_rollback_secs: [f64; 3],
    /// When the job last came back up, or the last instant accrued.
    up: SimTime,
    /// Throughput-weighted uptime accrued so far, seconds.
    trained: f64,
    /// Open degradation windows: (end, share of throughput lost).
    windows: Vec<(SimTime, f64)>,
}

impl Ledger {
    /// Empty books for a job that starts up at t = 0.
    pub fn new(horizon: SimDuration) -> Self {
        Ledger {
            horizon,
            ..Ledger::default()
        }
    }

    /// The horizon as an instant.
    pub fn end(&self) -> SimTime {
        SimTime::ZERO + self.horizon
    }

    /// True while the job is down at `at`, so a strike then is absorbed.
    pub fn is_down(&self, at: SimTime) -> bool {
        at < self.up
    }

    /// Run the job from its last accrual to `to` at throughput `factor`
    /// times what the open degradation windows leave (their shares add,
    /// up to the whole job). Accrues span by span between window ends and
    /// drops each window at its end, so the part of a window that falls
    /// while the job is down is never paid.
    pub fn run_until(&mut self, to: SimTime, factor: f64) {
        while to > self.up {
            let up = self.up;
            self.windows.retain(|&(until, _)| until > up);
            let next = self.windows.iter().fold(to, |t, &(until, _)| t.min(until));
            let share = self.windows.iter().map(|&(_, s)| s).sum::<f64>().min(1.0);
            let span = (next - up).as_secs_f64();
            self.trained += span * factor * (1.0 - share);
            // 1 − factor·(1 − share), summed term by term: with no window
            // it is exactly 1 − factor, and at full factor exactly `share`.
            let lost = (1.0 - factor) + factor * share;
            if lost > 0.0 {
                self.degraded_secs += span;
                self.degraded_loss_secs += span * lost;
            }
            self.up = next;
        }
    }

    /// Open a degradation window: until `until`, the job gives up `share`
    /// of its throughput whenever it is up.
    pub fn degrade_until(&mut self, until: SimTime, share: f64) {
        self.windows.push((until, share));
    }

    /// Book the recovery from a strike at `at`, its wait as `stages`
    /// (detect, localize, restart), and return the wait; the job is up
    /// again when it ends. Exports the stages, the rollback and the end
    /// of the incident span `name`.
    pub fn book(
        &mut self,
        at: SimTime,
        name: &str,
        category: FailureCategory,
        stages: [SimDuration; 3],
        rollback_secs: f64,
        rec: &mut Rec<'_>,
    ) -> SimDuration {
        let [detect, localize, restart] = stages;
        let wait = detect + localize + restart;
        self.downtime += wait;
        self.rollback_secs += rollback_secs;
        let ci = category as usize;
        for (total, stage) in self.stage_secs[ci].iter_mut().zip(stages) {
            *total += stage.as_secs_f64();
        }
        self.category_rollback_secs[ci] += rollback_secs;
        if rec.enabled() {
            let (t0, cat) = (at.as_secs_f64(), category.label());
            for (stage, to, secs) in [
                ("stage/detect", detect, detect),
                ("stage/localize", detect + localize, localize),
                ("stage/restart", wait, restart),
            ] {
                let secs = ArgValue::F64(secs.as_secs_f64());
                rec.instant(t0 + to.as_secs_f64(), stage, cat, &[("secs", secs)]);
            }
            if rollback_secs > 0.0 {
                let secs = ArgValue::F64(rollback_secs);
                rec.instant(t0, "rollback", cat, &[("secs", secs)]);
            }
            rec.end(t0 + wait.as_secs_f64(), name);
        }
        self.up = at + wait;
        wait
    }

    /// Once the job has run to the horizon, export the time it spent
    /// degraded and the last recovery's overshoot.
    pub fn close(&self, rec: &mut Rec<'_>) {
        let end_s = self.end().as_secs_f64();
        if self.degraded_secs > 0.0 {
            let (secs, loss) = (self.degraded_secs, self.degraded_loss_secs);
            let args = [
                ("secs", ArgValue::F64(secs)),
                ("loss_secs", ArgValue::F64(loss)),
            ];
            rec.instant(end_s, "degraded", "Infrastructure", &args);
        }
        if self.up > self.end() {
            let args = [("lost_secs", ArgValue::F64(self.overshoot_secs()))];
            rec.instant(end_s, "overshoot", "", &args);
        }
    }

    /// The last recovery's wait past the horizon, seconds.
    pub fn overshoot_secs(&self) -> f64 {
        self.up.saturating_since(self.end()).as_secs_f64()
    }

    /// Useful training seconds kept: throughput-weighted uptime net of
    /// rollback.
    pub fn useful_secs(&self) -> f64 {
        (self.trained - self.rollback_secs).max(0.0)
    }

    /// Useful training time over the horizon.
    pub fn goodput(&self) -> f64 {
        self.useful_secs() / self.horizon.as_secs_f64()
    }

    /// Recovery wait per stage (detect, localize, restart), seconds: the
    /// columns of [`Self::stage_secs`], summed over categories.
    pub fn stage_totals(&self) -> [f64; 3] {
        let mut totals = [0.0; 3];
        for stages in &self.stage_secs {
            for (total, secs) in totals.iter_mut().zip(stages) {
                *total += secs;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use crate::netstorm::tests as netstorm;
    use crate::pipeline::tests as pipeline;
    use crate::progress::tests as progress;
    use crate::storm::{tests as storm, StormPolicy};
    use acme_policy::NetRecoveryPolicy;

    #[test]
    fn every_runner_closes_its_books() {
        for seed in [42, 7, 3] {
            let storm = StormPolicy::ALL.map(|p| {
                let o = storm::outcome(seed, p);
                (format!("storm {p:?}"), o.ledger)
            });
            let net = NetRecoveryPolicy::ALL.iter().enumerate().map(|(arm, p)| {
                let o = netstorm::outcome(seed, p, arm as u64);
                (format!("netstorm {p:?}"), o.ledger)
            });
            let pipeline = [true, false].map(|automatic| {
                let r = pipeline::campaign(automatic, seed);
                (format!("pipeline automatic={automatic}"), r.ledger)
            });
            // fig14 keeps whole iterations: its useful time exceeds the
            // kept iterations' by the last iteration's unfinished part.
            let fig14 = progress::fig14(seed).map(|(label, iter_time, t)| {
                let iter = iter_time.as_secs_f64();
                let unkept = t.ledger.useful_secs() - t.final_iteration as f64 * iter;
                assert!(
                    (0.0..iter).contains(&unkept),
                    "fig14 {label}, seed {seed}: {unkept} s useful beyond the kept iterations"
                );
                (format!("fig14 {label}"), t.ledger)
            });
            let runners = storm.into_iter().chain(net).chain(pipeline).chain(fig14);
            for (runner, l) in runners {
                let horizon = l.horizon.as_secs_f64();
                let down = l.downtime.as_secs_f64();
                let closed = l.useful_secs() + l.rollback_secs + l.degraded_loss_secs + down
                    - l.overshoot_secs();
                assert!(
                    (closed - horizon).abs() <= 1e-9 * horizon,
                    "{runner}, seed {seed}: books close at {closed} s, horizon {horizon} s"
                );
                assert!(
                    l.degraded_loss_secs <= l.degraded_secs,
                    "{runner}, seed {seed}: degraded loss {} s over {} s degraded",
                    l.degraded_loss_secs,
                    l.degraded_secs
                );
                let staged: f64 = l.stage_secs.iter().flatten().sum();
                assert!(
                    (staged - down).abs() <= 1e-9 * down,
                    "{runner}, seed {seed}: stages {staged} s, downtime {down} s"
                );
            }
        }
    }
}
