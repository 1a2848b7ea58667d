//! Recovery-policy objects and the Pareto sweep harness.
//!
//! Recovery *policy* — when to checkpoint, how hard to retry, when to
//! cordon or degrade — dominates delivered goodput under routine faults.
//! The storm ablation's hardwired choices live here as policy objects, so
//! the policy lab can sweep any combination of them:
//!
//! * [`RetryPolicy`] — retry budget and exponential backoff ladders (the
//!   canonical definition; `acme-failure`'s orchestrator re-exports it,
//!   and the evaluation coordinator retries crashed trials on
//!   [`RetryPolicy::evaluation`]);
//! * [`CordonPolicy`] — per-node strike thresholds feeding cordons;
//! * [`CheckpointChoice`] — checkpoint-cadence strategies: fixed interval,
//!   Young/Daly MTTF-optimal, adaptive-on-cascade;
//! * [`RepairModel`] — how long a cordoned node takes to return to
//!   service (replacing a hardwired 36 h constant);
//! * [`SweepHarness`] — runs a policy grid across seeds × fault
//!   intensities and emits the Pareto frontier over (goodput, manual
//!   interventions, wasted GPU-time).
//!
//! [`NetRecoveryPolicy`] names the three arms of the netstorm ablation:
//! naive, topology-blind and topology-aware network recovery.
//!
//! Everything here is plain data + pure functions: deterministic,
//! `Send`-able into shard workers, and cheap to copy into sweep cells.
//! The *default* policy objects reproduce the historical hardwired
//! behavior exactly — the golden-output tests pin that byte for byte.

#![warn(missing_docs)]

use acme_sim_core::{SimDuration, SimTime};

// ---------------------------------------------------------------------------
// Structured validation errors
// ---------------------------------------------------------------------------

/// A structured policy/configuration validation error: which field is
/// wrong and how. `Display` renders the operator-facing message.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyError {
    /// A quantity that must be strictly positive is zero (or negative).
    NonPositive {
        /// The offending field.
        field: &'static str,
    },
    /// A collection or axis that must not be empty is empty.
    Empty {
        /// The offending field.
        field: &'static str,
    },
    /// A retry budget of zero: every incident would escalate immediately.
    ZeroBudget {
        /// The offending field.
        field: &'static str,
    },
    /// A threshold pair is inverted (lower bound above upper bound).
    Inverted {
        /// The offending field.
        field: &'static str,
        /// The lower value that should not exceed `hi`.
        lo: f64,
        /// The upper value.
        hi: f64,
    },
    /// A probability or intensity is NaN/infinite.
    NonFinite {
        /// The offending field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A probability lies outside `[0, 1]`.
    OutOfRange {
        /// The offending field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A subset field does not describe a non-empty subset of its parent.
    NotSubset {
        /// The offending field.
        field: &'static str,
    },
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::NonPositive { field } => write!(f, "{field} must be positive"),
            PolicyError::Empty { field } => write!(f, "{field} cannot be empty"),
            PolicyError::ZeroBudget { field } => {
                write!(f, "{field}: retry budget must be at least 1")
            }
            PolicyError::Inverted { field, lo, hi } => {
                write!(f, "{field}: inverted threshold ({lo} > {hi})")
            }
            PolicyError::NonFinite { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            PolicyError::OutOfRange { field, value } => {
                write!(f, "{field} must lie in [0, 1], got {value}")
            }
            PolicyError::NotSubset { field } => {
                write!(f, "{field} must be a non-empty subset of the fleet")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// Validate one probability field: finite and inside `[0, 1]`.
pub fn validate_probability(field: &'static str, value: f64) -> Result<(), PolicyError> {
    if !value.is_finite() {
        return Err(PolicyError::NonFinite { field, value });
    }
    if !(0.0..=1.0).contains(&value) {
        return Err(PolicyError::OutOfRange { field, value });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Retry ladders
// ---------------------------------------------------------------------------

/// Retry budget and backoff schedule.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Identical incidents tolerated within one window before escalation.
    pub budget: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub backoff_base: SimDuration,
    /// Backoff ceiling.
    pub backoff_cap: SimDuration,
    /// Sliding window: an identical incident further apart than this
    /// resets the attempt count (a fresh incident, not a loop).
    pub window: SimDuration,
}

impl RetryPolicy {
    /// No ladder at all: infinite budget, zero backoff. The configuration
    /// under which the orchestrator equals the stateless manager.
    pub fn infinite() -> Self {
        RetryPolicy {
            budget: u32::MAX,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            window: SimDuration::ZERO,
        }
    }

    /// The production ladder: three identical incidents within four hours,
    /// backing off 1 → 2 → 4 → … minutes (capped at 16), then a human.
    pub fn production() -> Self {
        RetryPolicy {
            budget: 3,
            backoff_base: SimDuration::from_mins(1),
            backoff_cap: SimDuration::from_mins(16),
            window: SimDuration::from_hours(4),
        }
    }

    /// The evaluation-campaign ladder: trials are minutes long, so the
    /// backoff runs in seconds (10 s doubling to 160 s) with a one-hour
    /// window and four identical crashes tolerated before the coordinator
    /// escalates (migrates the work instead of retrying in place).
    pub fn evaluation() -> Self {
        RetryPolicy {
            budget: 4,
            backoff_base: SimDuration::from_secs(10),
            backoff_cap: SimDuration::from_secs(160),
            window: SimDuration::from_hours(1),
        }
    }

    /// A patient ladder for the policy lab: twice the production budget
    /// inside a wider window — more automated retries before anyone is
    /// paged, at the price of longer crash loops on genuinely bad nodes.
    pub fn patient() -> Self {
        RetryPolicy {
            budget: 6,
            backoff_base: SimDuration::from_mins(1),
            backoff_cap: SimDuration::from_mins(16),
            window: SimDuration::from_hours(8),
        }
    }

    /// Backoff before attempt `attempt` (1-based; the first attempt never
    /// waits).
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        if attempt <= 1 || self.backoff_base.is_zero() {
            return SimDuration::ZERO;
        }
        let doublings = (attempt - 2).min(20);
        let raw = self.backoff_base * (1u64 << doublings);
        if raw > self.backoff_cap {
            self.backoff_cap
        } else {
            raw
        }
    }

    /// Structured validation: a zero budget would escalate every incident
    /// immediately, and an inverted base/cap pair silently clamps.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.budget == 0 {
            return Err(PolicyError::ZeroBudget {
                field: "retry.budget",
            });
        }
        if self.backoff_cap < self.backoff_base {
            return Err(PolicyError::Inverted {
                field: "retry.backoff",
                lo: self.backoff_base.as_secs_f64(),
                hi: self.backoff_cap.as_secs_f64(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Cordon policy
// ---------------------------------------------------------------------------

/// Strike-threshold cordoning: a node implicated `strike_threshold` times
/// is taken out of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CordonPolicy {
    /// Strikes against one node before it is cordoned (`u32::MAX`
    /// disables strike-based cordoning).
    pub strike_threshold: u32,
}

impl CordonPolicy {
    /// Strike-based cordoning disabled.
    pub fn disabled() -> Self {
        CordonPolicy {
            strike_threshold: u32::MAX,
        }
    }

    /// The deployed threshold: two strikes and the node is out.
    pub fn two_strikes() -> Self {
        CordonPolicy {
            strike_threshold: 2,
        }
    }

    /// An explicit threshold.
    pub fn strikes(n: u32) -> Self {
        CordonPolicy {
            strike_threshold: n,
        }
    }

    /// Whether `strikes` against one node cross the cordon threshold.
    pub fn should_cordon(&self, strikes: u32) -> bool {
        strikes >= self.strike_threshold
    }

    /// Structured validation: a zero threshold cordons a node before its
    /// first strike, silently draining the fleet.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.strike_threshold == 0 {
            return Err(PolicyError::NonPositive {
                field: "cordon.strike_threshold",
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Repair model
// ---------------------------------------------------------------------------

/// How a cordoned node returns to service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairModel {
    /// Turnaround from cordon to back-in-service.
    pub turnaround: SimDuration,
    /// Expedited (rush-dispatched) repairs: faster turnaround, but every
    /// cordon pages a field engineer — the sweep counts those dispatches
    /// as manual interventions.
    pub rush: bool,
}

impl RepairModel {
    /// The datacenter default: 36 hours from cordon to return, no pages.
    pub fn datacenter_default() -> Self {
        RepairModel {
            turnaround: SimDuration::from_hours(36),
            rush: false,
        }
    }

    /// Rush dispatch: 12-hour turnaround, one field-engineer page per
    /// cordon.
    pub fn expedited() -> Self {
        RepairModel {
            turnaround: SimDuration::from_hours(12),
            rush: true,
        }
    }

    /// When a node cordoned at `at` rejoins the fleet.
    pub fn return_at(&self, at: SimTime) -> SimTime {
        at + self.turnaround
    }

    /// Structured validation: a zero turnaround repairs nodes instantly,
    /// which hides the entire cost of cordoning.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.turnaround.is_zero() {
            return Err(PolicyError::NonPositive {
                field: "repair.turnaround",
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Network recovery policy
// ---------------------------------------------------------------------------

/// How recovery reacts to faults on the network substrate (the netstorm
/// ablation axis): does it see topology at all, and if so does it reroute
/// around partial faults and ride out congestion degraded instead of
/// restarting? Each arm strictly adds capability to the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetRecoveryPolicy {
    /// Every network symptom is a crash: restart, and page a human when
    /// restarts stop helping.
    Naive,
    /// The full escalation ladder localizes faulty *nodes* and cordons
    /// them one by one, never seeing that they share a switch.
    TopologyBlind,
    /// Localization results map onto fault domains (cordon the switch,
    /// one action), partial faults reroute, and congestion windows run
    /// degraded instead of restarting.
    TopologyAware,
}

impl NetRecoveryPolicy {
    /// Naive always-restart.
    pub fn naive() -> Self {
        NetRecoveryPolicy::Naive
    }

    /// Topology-blind orchestration.
    pub fn topology_blind() -> Self {
        NetRecoveryPolicy::TopologyBlind
    }

    /// Topology-aware orchestration.
    pub fn topology_aware() -> Self {
        NetRecoveryPolicy::TopologyAware
    }

    /// Policy name, for tables and trace labels.
    pub fn label(&self) -> &'static str {
        match self {
            NetRecoveryPolicy::Naive => "naive restart",
            NetRecoveryPolicy::TopologyBlind => "topology-blind orchestrator",
            NetRecoveryPolicy::TopologyAware => "topology-aware orchestrator",
        }
    }

    /// Maps localization results onto fault domains: a dead ToR is ONE
    /// switch cordon, not one cordon per stranded node.
    pub fn sees_fault_domains(&self) -> bool {
        matches!(self, NetRecoveryPolicy::TopologyAware)
    }

    /// Reroutes around partial faults (link flaps, aggregation-switch
    /// deaths) instead of restarting the job.
    pub fn reroutes(&self) -> bool {
        !matches!(self, NetRecoveryPolicy::Naive)
    }

    /// Rides out congestion windows at degraded throughput instead of
    /// treating stragglers as failures.
    pub fn degrades_on_congestion(&self) -> bool {
        matches!(self, NetRecoveryPolicy::TopologyAware)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint cadence policies
// ---------------------------------------------------------------------------

/// What a [`CheckpointChoice`] sees when choosing a cadence.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointContext {
    /// The deployment's configured (historical) interval, seconds.
    pub default_secs: f64,
    /// Cost of writing one checkpoint until it is durable, seconds — the
    /// δ of the Young/Daly formula.
    pub checkpoint_cost_secs: f64,
    /// Observed mean time to failure, seconds (campaign horizon over
    /// observed primary incidents).
    pub mttf_secs: f64,
    /// Fraction of observed primaries that sprayed correlated secondary
    /// faults — the cascade signal the adaptive policy reacts to.
    pub cascade_fraction: f64,
}

/// The Young/Daly interval √(2 · δ · MTTF) in seconds, floored at 60 s.
pub fn young_daly_interval_secs(checkpoint_cost_secs: f64, mttf_secs: f64) -> f64 {
    (2.0 * checkpoint_cost_secs.max(0.0) * mttf_secs.max(0.0))
        .sqrt()
        .max(60.0)
}

/// A checkpoint-cadence strategy: maps observed campaign conditions to a
/// checkpoint interval. Plain `Copy` data, so policy bundles stay
/// shard-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointChoice {
    /// Checkpoint every `default_secs` of the context, unconditionally —
    /// the historical hardwired behavior.
    Fixed,
    /// Young/Daly MTTF-optimal cadence: interval = √(2 · δ · MTTF), where
    /// δ is the checkpoint cost and MTTF the observed mean time to failure
    /// (Meta's "Revisiting Reliability" formulation). Floored at one
    /// minute so a pathological context cannot demand continuous
    /// checkpointing.
    YoungDaly,
    /// Adaptive-on-cascade cadence: once a quarter of the observed
    /// primaries cascade (correlated storms), halve the default interval
    /// (floored at one minute) — cheaper rollbacks exactly when incidents
    /// cluster, at the price of extra checkpoint traffic.
    Adaptive,
}

impl CheckpointChoice {
    /// The historical fixed-cadence default.
    pub fn fixed() -> Self {
        CheckpointChoice::Fixed
    }

    /// Young/Daly MTTF-optimal cadence.
    pub fn young_daly() -> Self {
        CheckpointChoice::YoungDaly
    }

    /// Adaptive-on-cascade: halve the interval once a quarter of
    /// primaries cascade.
    pub fn adaptive() -> Self {
        CheckpointChoice::Adaptive
    }

    /// The chosen interval, seconds (always strictly positive).
    pub fn interval_secs(&self, ctx: &CheckpointContext) -> f64 {
        match self {
            CheckpointChoice::Fixed => ctx.default_secs,
            CheckpointChoice::YoungDaly => {
                young_daly_interval_secs(ctx.checkpoint_cost_secs, ctx.mttf_secs)
            }
            CheckpointChoice::Adaptive if ctx.cascade_fraction >= 0.25 => {
                (ctx.default_secs * 0.5).max(60.0)
            }
            CheckpointChoice::Adaptive => ctx.default_secs,
        }
    }

    /// Short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            CheckpointChoice::Fixed => "fixed interval",
            CheckpointChoice::YoungDaly => "Young/Daly",
            CheckpointChoice::Adaptive => "adaptive-on-cascade",
        }
    }
}

// ---------------------------------------------------------------------------
// Pareto frontier
// ---------------------------------------------------------------------------

/// One point in the sweep's objective space: goodput is maximized, manual
/// interventions and wasted GPU-time are minimized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// Useful training fraction of the horizon (higher is better).
    pub goodput: f64,
    /// Humans paged (lower is better).
    pub manual_interventions: f64,
    /// GPU-hours thrown away — rollback, degraded-width loss, wasted
    /// restart cycles and checkpoint traffic (lower is better).
    pub wasted_gpu_hours: f64,
}

impl FrontierPoint {
    /// Pareto dominance: at least as good on every axis and strictly
    /// better on at least one.
    pub fn dominates(&self, other: &FrontierPoint) -> bool {
        let ge = self.goodput >= other.goodput
            && self.manual_interventions <= other.manual_interventions
            && self.wasted_gpu_hours <= other.wasted_gpu_hours;
        let strict = self.goodput > other.goodput
            || self.manual_interventions < other.manual_interventions
            || self.wasted_gpu_hours < other.wasted_gpu_hours;
        ge && strict
    }
}

/// Indices of the non-dominated points, ascending. A point belongs to the
/// frontier iff no other point dominates it; duplicated points all stay.
pub fn pareto_frontier(points: &[FrontierPoint]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| !points.iter().any(|p| p.dominates(&points[i])))
        .collect()
}

// ---------------------------------------------------------------------------
// Sweep harness
// ---------------------------------------------------------------------------

/// The sweep grid: every (policy, seed, intensity) combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepGrid {
    /// Number of policy bundles swept (cells refer to them by index).
    pub n_policies: usize,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Fault-intensity axis (storm-horizon scale multipliers).
    pub intensities: Vec<u32>,
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCell {
    /// Index into the policy-bundle list.
    pub policy: usize,
    /// The cell's seed.
    pub seed: u64,
    /// The cell's fault intensity (storm-horizon scale).
    pub intensity: u32,
}

impl SweepGrid {
    /// Every cell, policy-major then seed then intensity — the canonical
    /// deterministic order the harness aggregates in.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells =
            Vec::with_capacity(self.n_policies * self.seeds.len() * self.intensities.len());
        for policy in 0..self.n_policies {
            for &seed in &self.seeds {
                for &intensity in &self.intensities {
                    cells.push(SweepCell {
                        policy,
                        seed,
                        intensity,
                    });
                }
            }
        }
        cells
    }

    /// Structured validation: every axis non-empty, every intensity
    /// positive.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.n_policies == 0 {
            return Err(PolicyError::Empty {
                field: "sweep.policies",
            });
        }
        if self.seeds.is_empty() {
            return Err(PolicyError::Empty {
                field: "sweep.seeds",
            });
        }
        if self.intensities.is_empty() {
            return Err(PolicyError::Empty {
                field: "sweep.intensities",
            });
        }
        if self.intensities.contains(&0) {
            return Err(PolicyError::NonPositive {
                field: "sweep.intensities",
            });
        }
        Ok(())
    }
}

/// The aggregated result of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Per-cell metrics, in [`SweepGrid::cells`] order.
    pub per_cell: Vec<FrontierPoint>,
    /// Per-policy means across the seed × intensity plane.
    pub per_policy: Vec<FrontierPoint>,
    /// Indices (into `per_policy`) of the Pareto-non-dominated policies.
    pub frontier: Vec<usize>,
}

/// Runs a policy grid across seeds × intensities and aggregates the
/// Pareto frontier. Cell evaluation is supplied by the caller (the
/// policylab experiment fans cells out through the shard pool; tests
/// evaluate inline) — the harness owns cell ordering and aggregation, so
/// both paths agree byte for byte.
#[derive(Debug, Clone)]
pub struct SweepHarness {
    /// The grid.
    pub grid: SweepGrid,
}

impl SweepHarness {
    /// Wrap a grid. Panics on an invalid grid — callers wanting structured
    /// errors run [`SweepGrid::validate`] first (the policylab arg path
    /// does).
    pub fn new(grid: SweepGrid) -> Self {
        if let Err(e) = grid.validate() {
            panic!("{e}");
        }
        SweepHarness { grid }
    }

    /// Evaluate every cell with `eval` (in [`SweepGrid::cells`] order) and
    /// aggregate.
    pub fn run(&self, eval: impl FnMut(&SweepCell) -> FrontierPoint) -> SweepOutcome {
        let per_cell: Vec<FrontierPoint> = self.grid.cells().iter().map(eval).collect();
        self.collect(per_cell)
    }

    /// Aggregate already-evaluated per-cell metrics (in
    /// [`SweepGrid::cells`] order) into per-policy means and the frontier.
    pub fn collect(&self, per_cell: Vec<FrontierPoint>) -> SweepOutcome {
        let cells_per_policy = self.grid.seeds.len() * self.grid.intensities.len();
        assert_eq!(
            per_cell.len(),
            self.grid.n_policies * cells_per_policy,
            "per-cell metrics must cover the whole grid"
        );
        let per_policy: Vec<FrontierPoint> = (0..self.grid.n_policies)
            .map(|p| {
                let chunk = &per_cell[p * cells_per_policy..(p + 1) * cells_per_policy];
                let n = chunk.len() as f64;
                FrontierPoint {
                    goodput: chunk.iter().map(|c| c.goodput).sum::<f64>() / n,
                    manual_interventions: chunk.iter().map(|c| c.manual_interventions).sum::<f64>()
                        / n,
                    wasted_gpu_hours: chunk.iter().map(|c| c.wasted_gpu_hours).sum::<f64>() / n,
                }
            })
            .collect();
        let frontier = pareto_frontier(&per_policy);
        SweepOutcome {
            per_cell,
            per_policy,
            frontier,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn net_recovery_policies_are_distinct_and_valid() {
        let arms = [
            NetRecoveryPolicy::naive(),
            NetRecoveryPolicy::topology_blind(),
            NetRecoveryPolicy::topology_aware(),
        ];
        let labels: std::collections::BTreeSet<&str> = arms.iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 3);
        // The axis is monotone: each arm strictly adds capability.
        assert!(!arms[0].reroutes() && !arms[0].sees_fault_domains());
        assert!(!arms[0].degrades_on_congestion());
        assert!(arms[1].reroutes() && !arms[1].sees_fault_domains());
        assert!(!arms[1].degrades_on_congestion());
        assert!(arms[2].reroutes() && arms[2].sees_fault_domains());
        assert!(arms[2].degrades_on_congestion());
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::production();
        assert_eq!(p.backoff(1), SimDuration::ZERO);
        assert_eq!(p.backoff(2), SimDuration::from_mins(1));
        assert_eq!(p.backoff(3), SimDuration::from_mins(2));
        assert_eq!(p.backoff(4), SimDuration::from_mins(4));
        assert_eq!(p.backoff(10), SimDuration::from_mins(16)); // capped
        assert_eq!(p.backoff(40), SimDuration::from_mins(16)); // no overflow
    }

    #[test]
    fn named_ladders_validate() {
        for p in [
            RetryPolicy::infinite(),
            RetryPolicy::production(),
            RetryPolicy::evaluation(),
            RetryPolicy::patient(),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn zero_budget_is_a_structured_error() {
        let mut p = RetryPolicy::production();
        p.budget = 0;
        let e = p.validate().unwrap_err();
        assert_eq!(
            e,
            PolicyError::ZeroBudget {
                field: "retry.budget"
            }
        );
        assert!(e.to_string().contains("at least 1"));
    }

    #[test]
    fn inverted_backoff_is_a_structured_error() {
        let mut p = RetryPolicy::production();
        p.backoff_cap = SimDuration::from_secs(1);
        assert!(matches!(
            p.validate(),
            Err(PolicyError::Inverted {
                field: "retry.backoff",
                ..
            })
        ));
    }

    #[test]
    fn cordon_threshold_semantics() {
        let c = CordonPolicy::two_strikes();
        assert!(!c.should_cordon(1));
        assert!(c.should_cordon(2));
        assert!(c.should_cordon(3));
        assert!(!CordonPolicy::disabled().should_cordon(1_000_000));
        assert!(CordonPolicy::strikes(0).validate().is_err());
        assert!(CordonPolicy::two_strikes().validate().is_ok());
    }

    #[test]
    fn repair_model_returns_after_turnaround() {
        let m = RepairModel::datacenter_default();
        assert_eq!(m.turnaround, SimDuration::from_hours(36));
        assert!(!m.rush);
        let at = SimTime::from_secs(1000);
        assert_eq!(m.return_at(at), at + SimDuration::from_hours(36));
        let e = RepairModel::expedited();
        assert_eq!(e.turnaround, SimDuration::from_hours(12));
        assert!(e.rush);
        assert!(RepairModel {
            turnaround: SimDuration::ZERO,
            rush: false
        }
        .validate()
        .is_err());
    }

    #[test]
    fn fixed_interval_reproduces_the_default() {
        let ctx = CheckpointContext {
            default_secs: 1800.0,
            checkpoint_cost_secs: 190.0,
            mttf_secs: 21_600.0,
            cascade_fraction: 0.5,
        };
        assert_eq!(CheckpointChoice::fixed().interval_secs(&ctx), 1800.0);
    }

    #[test]
    fn young_daly_matches_the_formula() {
        let got = young_daly_interval_secs(190.0, 21_600.0);
        let want = (2.0f64 * 190.0 * 21_600.0).sqrt();
        assert!((got - want).abs() < 1e-9);
        // The floor guards degenerate contexts.
        assert_eq!(young_daly_interval_secs(0.0, 21_600.0), 60.0);
    }

    #[test]
    fn adaptive_tightens_only_under_cascades() {
        let calm = CheckpointContext {
            default_secs: 1800.0,
            checkpoint_cost_secs: 190.0,
            mttf_secs: 21_600.0,
            cascade_fraction: 0.1,
        };
        let stormy = CheckpointContext {
            cascade_fraction: 0.6,
            ..calm
        };
        let p = CheckpointChoice::adaptive();
        assert_eq!(p.interval_secs(&calm), 1800.0);
        assert_eq!(p.interval_secs(&stormy), 900.0);
    }

    #[test]
    fn probability_validation_catches_nan_and_range() {
        validate_probability("p", 0.3).unwrap();
        assert!(matches!(
            validate_probability("p", f64::NAN),
            Err(PolicyError::NonFinite { field: "p", .. })
        ));
        assert!(matches!(
            validate_probability("p", 1.5),
            Err(PolicyError::OutOfRange { field: "p", .. })
        ));
    }

    #[test]
    fn frontier_keeps_only_nondominated_points() {
        let pts = [
            FrontierPoint {
                goodput: 0.9,
                manual_interventions: 10.0,
                wasted_gpu_hours: 100.0,
            },
            FrontierPoint {
                goodput: 0.8,
                manual_interventions: 5.0,
                wasted_gpu_hours: 120.0,
            },
            // Dominated by the first point on every axis.
            FrontierPoint {
                goodput: 0.7,
                manual_interventions: 12.0,
                wasted_gpu_hours: 150.0,
            },
        ];
        assert_eq!(pareto_frontier(&pts), vec![0, 1]);
    }

    #[test]
    fn identical_points_do_not_dominate_each_other() {
        let p = FrontierPoint {
            goodput: 0.5,
            manual_interventions: 1.0,
            wasted_gpu_hours: 2.0,
        };
        assert!(!p.dominates(&p));
        assert_eq!(pareto_frontier(&[p, p]), vec![0, 1]);
    }

    #[test]
    fn grid_cells_are_policy_major() {
        let grid = SweepGrid {
            n_policies: 2,
            seeds: vec![42, 7],
            intensities: vec![1, 2],
        };
        let cells = grid.cells();
        assert_eq!(cells.len(), 8);
        assert_eq!(
            cells[0],
            SweepCell {
                policy: 0,
                seed: 42,
                intensity: 1
            }
        );
        assert_eq!(
            cells[3],
            SweepCell {
                policy: 0,
                seed: 7,
                intensity: 2
            }
        );
        assert_eq!(cells[4].policy, 1);
    }

    #[test]
    fn empty_axes_are_structured_errors() {
        let grid = SweepGrid {
            n_policies: 0,
            seeds: vec![42],
            intensities: vec![1],
        };
        assert!(matches!(
            grid.validate(),
            Err(PolicyError::Empty {
                field: "sweep.policies"
            })
        ));
        let grid = SweepGrid {
            n_policies: 1,
            seeds: vec![],
            intensities: vec![1],
        };
        assert!(grid.validate().is_err());
        let grid = SweepGrid {
            n_policies: 1,
            seeds: vec![42],
            intensities: vec![1, 0],
        };
        assert!(matches!(
            grid.validate(),
            Err(PolicyError::NonPositive {
                field: "sweep.intensities"
            })
        ));
    }

    #[test]
    fn harness_aggregates_per_policy_means() {
        let grid = SweepGrid {
            n_policies: 2,
            seeds: vec![1, 2],
            intensities: vec![1],
        };
        let outcome = SweepHarness::new(grid).run(|c| FrontierPoint {
            goodput: c.policy as f64 + c.seed as f64 / 10.0,
            manual_interventions: c.policy as f64,
            wasted_gpu_hours: 1.0,
        });
        assert_eq!(outcome.per_cell.len(), 4);
        assert!((outcome.per_policy[0].goodput - 0.15).abs() < 1e-12);
        assert!((outcome.per_policy[1].goodput - 1.15).abs() < 1e-12);
        // Policy 1 has better goodput but more interventions: both on the
        // frontier.
        assert_eq!(outcome.frontier, vec![0, 1]);
    }

    proptest! {
        #[test]
        fn young_daly_is_monotone_in_mttf(
            cost in 1.0f64..600.0,
            mttf_a in 60.0f64..1_000_000.0,
            mttf_b in 60.0f64..1_000_000.0,
        ) {
            let (lo, hi) = if mttf_a <= mttf_b { (mttf_a, mttf_b) } else { (mttf_b, mttf_a) };
            prop_assert!(
                young_daly_interval_secs(cost, lo) <= young_daly_interval_secs(cost, hi)
            );
        }

        #[test]
        fn frontier_points_are_never_dominated(
            raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..50.0, 0.0f64..500.0), 1..24),
        ) {
            let pts: Vec<FrontierPoint> = raw
                .iter()
                .map(|&(g, m, w)| FrontierPoint {
                    goodput: g,
                    manual_interventions: m,
                    wasted_gpu_hours: w,
                })
                .collect();
            let frontier = pareto_frontier(&pts);
            prop_assert!(!frontier.is_empty(), "a non-empty set has a frontier");
            for &i in &frontier {
                for p in &pts {
                    prop_assert!(!p.dominates(&pts[i]), "frontier point {i} is dominated");
                }
            }
            // And every non-frontier point is dominated by someone.
            for i in 0..pts.len() {
                if !frontier.contains(&i) {
                    prop_assert!(pts.iter().any(|p| p.dominates(&pts[i])));
                }
            }
        }

        #[test]
        fn sweep_is_deterministic_for_equal_seeds(seed in 0u64..1000) {
            let grid = SweepGrid {
                n_policies: 3,
                seeds: vec![seed, seed ^ 0x5555],
                intensities: vec![1, 2, 3],
            };
            let eval = |c: &SweepCell| {
                // A cheap deterministic stand-in for a storm cell.
                let x = ((c.policy as u64 + 1) * 1_000_003)
                    ^ c.seed.wrapping_mul(2_654_435_761)
                    ^ (u64::from(c.intensity) << 7);
                FrontierPoint {
                    goodput: (x % 1000) as f64 / 1000.0,
                    manual_interventions: (x % 37) as f64,
                    wasted_gpu_hours: (x % 97) as f64,
                }
            };
            let a = SweepHarness::new(grid.clone()).run(eval);
            let b = SweepHarness::new(grid).run(eval);
            prop_assert_eq!(a, b);
        }
    }
}
