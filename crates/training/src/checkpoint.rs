//! Synchronous vs asynchronous checkpointing (§6.1.1).
//!
//! A checkpoint persists the full model states (16Ψ bytes — TB-scale for
//! the flagship models). Two engines:
//!
//! * **Synchronous**: training blocks while every writer serializes its
//!   shard over PCIe *and* pushes it to the remote parallel FS. Remote
//!   bandwidth per writer collapses as TB-scale checkpoints from many
//!   writers contend on the storage fabric.
//! * **Asynchronous**: training blocks only for the GPU→host snapshot into
//!   the abundant idle host memory (Figure 7b); a background thread
//!   persists the staged copy to remote storage off the critical path.
//!
//! The blocking-time ratio between the two is the paper's headline
//! **3.6×** (7B) to **58.7×** (123B) reduction at a 30-minute interval.

use acme_policy::{CheckpointChoice, CheckpointContext};

use crate::model::ModelConfig;

/// How the checkpoint is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Blocking write-through to remote storage.
    Synchronous,
    /// Snapshot to host memory; persisted in the background.
    Asynchronous,
}

/// One model's checkpointing setup.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointScenario {
    /// The model being checkpointed.
    pub model: ModelConfig,
    /// Ranks that write shards (with hierarchical ZeRO every rank in one
    /// shard group writes; with 3D parallelism the dp-rank-0 of each model
    /// slice writes).
    pub writers: u32,
    /// GPU→host snapshot bandwidth per writer, GB/s (pinned-memory DMA).
    pub snapshot_gbps: f64,
    /// Effective remote-storage bandwidth per writer, GB/s. Falls with the
    /// volume contending on the parallel FS.
    pub remote_gbps_per_writer: f64,
    /// Fixed coordination cost per checkpoint (quiesce + metadata), s.
    pub fixed_overhead_s: f64,
}

impl CheckpointScenario {
    /// The paper's 7B setup: 64 writers, healthy per-writer storage share.
    pub fn paper_7b() -> Self {
        CheckpointScenario {
            model: ModelConfig::dense_7b(),
            writers: 64,
            snapshot_gbps: 20.0,
            remote_gbps_per_writer: 1.8,
            fixed_overhead_s: 0.2,
        }
    }

    /// The paper's 123B setup: 32 writers (dp-rank-0 of each of the
    /// pp×tp = 32 model slices) pushing ~62 GB each; the TB-scale burst
    /// drives per-writer storage bandwidth down.
    pub fn paper_123b() -> Self {
        CheckpointScenario {
            model: ModelConfig::dense_123b(),
            writers: 32,
            snapshot_gbps: 20.0,
            remote_gbps_per_writer: 0.33,
            fixed_overhead_s: 0.2,
        }
    }

    /// Shard size per writer, GB.
    pub fn shard_gb(&self) -> f64 {
        self.model.checkpoint_gb() / self.writers as f64
    }

    /// The same scenario with the per-writer remote bandwidth replaced —
    /// how the topology-aware fabric injects a network-limited write path
    /// (`remote.min(net share)`) without touching the other knobs.
    pub fn with_remote_gbps(mut self, gbps: f64) -> Self {
        self.remote_gbps_per_writer = gbps;
        self
    }
}

/// Computes blocking cost and overhead for a scenario.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointEngine {
    scenario: CheckpointScenario,
}

impl CheckpointEngine {
    /// Wrap a scenario.
    pub fn new(scenario: CheckpointScenario) -> Self {
        CheckpointEngine { scenario }
    }

    /// The scenario.
    pub fn scenario(&self) -> &CheckpointScenario {
        &self.scenario
    }

    /// Seconds the *training loop is blocked* per checkpoint.
    pub fn blocking_secs(&self, mode: CheckpointMode) -> f64 {
        let s = &self.scenario;
        let snapshot = s.shard_gb() / s.snapshot_gbps;
        match mode {
            CheckpointMode::Synchronous => {
                s.fixed_overhead_s + snapshot + s.shard_gb() / s.remote_gbps_per_writer
            }
            CheckpointMode::Asynchronous => s.fixed_overhead_s + snapshot,
        }
    }

    /// Wall seconds until the checkpoint is durable on remote storage.
    /// For the async engine this exceeds the blocking time — persistence
    /// happens in the background.
    pub fn durable_secs(&self, mode: CheckpointMode) -> f64 {
        let s = &self.scenario;
        match mode {
            CheckpointMode::Synchronous => self.blocking_secs(mode),
            CheckpointMode::Asynchronous => {
                self.blocking_secs(mode) + s.shard_gb() / s.remote_gbps_per_writer
            }
        }
    }

    /// Blocking-time speedup of async over sync.
    pub fn speedup(&self) -> f64 {
        self.blocking_secs(CheckpointMode::Synchronous)
            / self.blocking_secs(CheckpointMode::Asynchronous)
    }

    /// Fraction of training time lost to checkpointing at the given
    /// interval.
    ///
    /// # Panics
    /// Panics if the interval is not positive.
    pub fn overhead_fraction(&self, mode: CheckpointMode, interval_secs: f64) -> f64 {
        assert!(interval_secs > 0.0, "interval must be positive");
        let b = self.blocking_secs(mode);
        b / (b + interval_secs)
    }

    /// Host memory consumed by staged checkpoints per writer node, GB,
    /// assuming `staged` checkpoints resident and 8 writers per node.
    pub fn staging_gb_per_node(&self, staged: u32) -> f64 {
        self.scenario.shard_gb() * 8.0 * staged as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_bracket_the_paper_range() {
        let small = CheckpointEngine::new(CheckpointScenario::paper_7b()).speedup();
        let big = CheckpointEngine::new(CheckpointScenario::paper_123b()).speedup();
        // §6.1: reduced by 3.6–58.7×.
        assert!((3.0..5.0).contains(&small), "7B speedup {small:.1}");
        assert!((45.0..70.0).contains(&big), "123B speedup {big:.1}");
        assert!(big > small);
    }

    #[test]
    fn async_blocking_is_seconds_not_minutes() {
        let e = CheckpointEngine::new(CheckpointScenario::paper_123b());
        let b = e.blocking_secs(CheckpointMode::Asynchronous);
        assert!(b < 10.0, "async block {b:.1}s");
        let sync = e.blocking_secs(CheckpointMode::Synchronous);
        assert!(sync > 120.0, "sync block {sync:.0}s");
    }

    #[test]
    fn overhead_at_30min_interval() {
        let e = CheckpointEngine::new(CheckpointScenario::paper_123b());
        let sync = e.overhead_fraction(CheckpointMode::Synchronous, 1800.0);
        let async_ = e.overhead_fraction(CheckpointMode::Asynchronous, 1800.0);
        // Sync checkpointing costs ~10% of training; async well under 1%.
        assert!(sync > 0.05, "sync overhead {sync:.3}");
        assert!(async_ < 0.01, "async overhead {async_:.4}");
    }

    #[test]
    fn durability_lags_blocking_for_async() {
        let e = CheckpointEngine::new(CheckpointScenario::paper_123b());
        assert!(
            e.durable_secs(CheckpointMode::Asynchronous)
                > e.blocking_secs(CheckpointMode::Asynchronous)
        );
        assert_eq!(
            e.durable_secs(CheckpointMode::Synchronous),
            e.blocking_secs(CheckpointMode::Synchronous)
        );
    }

    #[test]
    fn staging_fits_in_host_memory() {
        // Figure 7(b): host memory stays under 50%; several staged
        // checkpoints must fit (§6.1).
        let e = CheckpointEngine::new(CheckpointScenario::paper_123b());
        let gb = e.staging_gb_per_node(3);
        // Kalos nodes have 2 TB.
        assert!(gb < 2048.0 * 0.8, "staging uses {gb:.0} GB");
    }

    #[test]
    fn shard_sizes() {
        let s7 = CheckpointScenario::paper_7b();
        let s123 = CheckpointScenario::paper_123b();
        assert!(
            (1.0..3.0).contains(&s7.shard_gb()),
            "7B shard {:.2}",
            s7.shard_gb()
        );
        assert!(
            (50.0..70.0).contains(&s123.shard_gb()),
            "123B shard {:.1}",
            s123.shard_gb()
        );
    }

    #[test]
    fn checkpoint_interval_sweep_is_monotone() {
        let e = CheckpointEngine::new(CheckpointScenario::paper_123b());
        let mut last = 1.0;
        for mins in [5.0, 15.0, 30.0, 60.0, 240.0] {
            let o = e.overhead_fraction(CheckpointMode::Synchronous, mins * 60.0);
            assert!(o < last, "overhead should fall as the interval grows");
            last = o;
        }
    }
}

/// How much the system actually knows about a checkpoint's integrity.
///
/// A checkpoint whose background persist has completed is *assumed*
/// durable — the bytes landed, but nobody has read them back. Only after a
/// validation pass (a full re-read of every shard at remote-storage
/// bandwidth) is it *verified*: guaranteed loadable. The distinction
/// matters under adversity: an assumed-durable checkpoint can turn out
/// corrupt on load, forcing a fallback to the previous generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Persist completed *and* a validation re-read succeeded.
    Verified,
    /// Persist completed; integrity never checked.
    Assumed,
}

/// Tracks which checkpoint is *properly saved* (§6.1.3) at any instant.
///
/// Asynchronous checkpoints become durable only after the background
/// persist completes; a failure in that window must fall back to the
/// previous durable checkpoint. This is the subtle correctness point the
/// recovery system honors: it restarts "from the properly saved
/// checkpoint", not merely the most recent snapshot.
///
/// On top of the durable/not-durable split the tracker distinguishes
/// *verified* from *assumed* durability (see [`Durability`]) and offers
/// [`DurabilityTracker::fallback_position`] — the generation the recovery
/// orchestrator drops to when the newest assumed-durable checkpoint is
/// corrupt on load.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityTracker {
    engine: CheckpointEngine,
    mode: CheckpointMode,
    /// Checkpoint cadence, seconds.
    pub interval_secs: f64,
}

impl DurabilityTracker {
    /// Track checkpoints taken every `interval_secs` under `mode`.
    ///
    /// # Panics
    /// Panics on a non-positive interval.
    pub fn new(engine: CheckpointEngine, mode: CheckpointMode, interval_secs: f64) -> Self {
        assert!(interval_secs > 0.0, "interval must be positive");
        DurabilityTracker {
            engine,
            mode,
            interval_secs,
        }
    }

    /// Track checkpoints at the cadence a [`CheckpointChoice`] picks for
    /// the observed campaign conditions. The policy sees the deployment's
    /// default interval, the engine's time-to-durable under `mode` (the δ
    /// of the Young/Daly formula — what a checkpoint actually *costs*, not
    /// just its blocking stall), the observed MTTF and the cascade
    /// fraction.
    ///
    /// `with_policy(engine, mode, &CheckpointChoice::Fixed, d, …)` is
    /// exactly `new(engine, mode, d)` — the differential tests pin that.
    pub fn with_policy(
        engine: CheckpointEngine,
        mode: CheckpointMode,
        policy: &CheckpointChoice,
        default_interval_secs: f64,
        mttf_secs: f64,
        cascade_fraction: f64,
    ) -> Self {
        let ctx = CheckpointContext {
            default_secs: default_interval_secs,
            checkpoint_cost_secs: engine.durable_secs(mode),
            mttf_secs,
            cascade_fraction,
        };
        Self::new(engine, mode, policy.interval_secs(&ctx))
    }

    /// The training-time position (seconds since run start) of the newest
    /// checkpoint that is durable at wall time `t` seconds. Returns 0.0
    /// when nothing is durable yet (restart from the run's beginning).
    pub fn durable_position_at(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "time cannot be negative");
        let lag = self.engine.durable_secs(self.mode);
        // Checkpoint k is taken at k·interval and durable at k·interval+lag.
        let k = ((t - lag) / self.interval_secs).floor();
        if k < 1.0 {
            0.0
        } else {
            k * self.interval_secs
        }
    }

    /// Training progress lost if a failure strikes at wall time `t`.
    pub fn loss_at(&self, t: f64) -> f64 {
        t - self.durable_position_at(t)
    }

    /// Seconds a validation re-read of one checkpoint takes: every shard
    /// is read back at the same contended remote bandwidth that wrote it.
    pub fn validation_secs(&self) -> f64 {
        let s = self.engine.scenario();
        s.shard_gb() / s.remote_gbps_per_writer
    }

    /// The training-time position of the newest checkpoint that is
    /// **verified** durable at wall time `t`: persisted *and* validated.
    /// Always at or behind [`Self::durable_position_at`].
    pub fn verified_position_at(&self, t: f64) -> f64 {
        assert!(t >= 0.0, "time cannot be negative");
        self.durable_position_at((t - self.validation_secs()).max(0.0))
    }

    /// The durability confidence of the newest durable checkpoint at wall
    /// time `t`: [`Durability::Assumed`] while its validation re-read is
    /// still in flight, [`Durability::Verified`] once it has completed.
    pub fn durability_at(&self, t: f64) -> Durability {
        if self.durable_position_at(t) <= self.verified_position_at(t) {
            Durability::Verified
        } else {
            Durability::Assumed
        }
    }

    /// One generation back from `position`: where recovery lands when the
    /// checkpoint at `position` turns out corrupt on load. Clamped at the
    /// run's beginning.
    pub fn fallback_position(&self, position: f64) -> f64 {
        (position - self.interval_secs).max(0.0)
    }

    /// Expected progress loss per failure, averaged over a uniform failure
    /// time within one steady-state interval.
    pub fn expected_loss(&self) -> f64 {
        // Sample densely over one interval far from the start.
        let base = 100.0 * self.interval_secs;
        let n = 1000;
        (0..n)
            .map(|i| self.loss_at(base + self.interval_secs * i as f64 / n as f64))
            .sum::<f64>()
            / n as f64
    }
}

#[cfg(test)]
mod durability_tests {
    use super::*;

    fn tracker(mode: CheckpointMode) -> DurabilityTracker {
        DurabilityTracker::new(
            CheckpointEngine::new(CheckpointScenario::paper_123b()),
            mode,
            1800.0,
        )
    }

    #[test]
    fn nothing_durable_at_the_start() {
        let t = tracker(CheckpointMode::Asynchronous);
        assert_eq!(t.durable_position_at(0.0), 0.0);
        assert_eq!(t.durable_position_at(60.0), 0.0);
    }

    #[test]
    fn fixed_policy_reproduces_the_plain_constructor() {
        // The differential guarantee for the policy hook: a Fixed policy
        // is byte-identical to `new` at the same interval.
        let engine = CheckpointEngine::new(CheckpointScenario::paper_123b());
        let direct = DurabilityTracker::new(engine, CheckpointMode::Asynchronous, 1800.0);
        let via_policy = DurabilityTracker::with_policy(
            engine,
            CheckpointMode::Asynchronous,
            &CheckpointChoice::Fixed,
            1800.0,
            21_600.0,
            0.5,
        );
        assert_eq!(direct.interval_secs, via_policy.interval_secs);
        for t in [0.0, 1801.0, 7200.0, 100_000.0] {
            assert_eq!(
                direct.durable_position_at(t),
                via_policy.durable_position_at(t)
            );
        }
    }

    #[test]
    fn young_daly_policy_sees_the_durable_cost() {
        // δ must be the time-to-durable (what a checkpoint costs), not the
        // 3.3 s blocking stall — the whole interval tradeoff hinges on it.
        let engine = CheckpointEngine::new(CheckpointScenario::paper_123b());
        let delta = engine.durable_secs(CheckpointMode::Asynchronous);
        let t = DurabilityTracker::with_policy(
            engine,
            CheckpointMode::Asynchronous,
            &CheckpointChoice::YoungDaly,
            1800.0,
            21_600.0,
            0.5,
        );
        let want = acme_policy::young_daly_interval_secs(delta, 21_600.0);
        assert!((t.interval_secs - want).abs() < 1e-9);
        assert!(
            t.interval_secs > 1800.0,
            "123B Young/Daly interval ({:.0}s) should exceed the fixed 30 min",
            t.interval_secs
        );
    }

    #[test]
    fn adaptive_policy_halves_under_cascades() {
        let engine = CheckpointEngine::new(CheckpointScenario::paper_123b());
        let stormy = DurabilityTracker::with_policy(
            engine,
            CheckpointMode::Asynchronous,
            &CheckpointChoice::Adaptive,
            1800.0,
            21_600.0,
            0.5,
        );
        assert_eq!(stormy.interval_secs, 900.0);
        let calm = DurabilityTracker::with_policy(
            engine,
            CheckpointMode::Asynchronous,
            &CheckpointChoice::Adaptive,
            1800.0,
            21_600.0,
            0.1,
        );
        assert_eq!(calm.interval_secs, 1800.0);
    }

    #[test]
    fn async_durability_lags_the_snapshot() {
        let t = tracker(CheckpointMode::Asynchronous);
        let lag = t.engine.durable_secs(CheckpointMode::Asynchronous);
        assert!(lag > 60.0, "123B persists for minutes: {lag:.0}s");
        // Just after the k=2 checkpoint is taken, only k=1 is durable.
        let just_after = 2.0 * 1800.0 + 1.0;
        assert_eq!(t.durable_position_at(just_after), 1800.0);
        // Once the persist completes, k=2 is durable.
        assert_eq!(t.durable_position_at(2.0 * 1800.0 + lag + 1.0), 3600.0);
    }

    #[test]
    fn sync_durability_is_immediate() {
        let t = tracker(CheckpointMode::Synchronous);
        let lag = t.engine.durable_secs(CheckpointMode::Synchronous);
        assert_eq!(t.durable_position_at(2.0 * 1800.0 + lag + 1.0), 3600.0);
        // Before the (blocking) save completes, the previous one holds.
        assert_eq!(t.durable_position_at(2.0 * 1800.0 + 1.0), 1800.0);
    }

    #[test]
    fn loss_is_bounded_by_interval_plus_lag() {
        let t = tracker(CheckpointMode::Asynchronous);
        let lag = t.engine.durable_secs(CheckpointMode::Asynchronous);
        for i in 0..200 {
            let at = 50_000.0 + i as f64 * 37.0;
            let loss = t.loss_at(at);
            assert!(loss >= 0.0);
            assert!(loss <= 1800.0 + lag + 1e-9, "loss {loss:.0} at {at:.0}");
        }
    }

    #[test]
    fn expected_loss_near_half_interval_plus_lag() {
        let t = tracker(CheckpointMode::Asynchronous);
        let lag = t.engine.durable_secs(CheckpointMode::Asynchronous);
        let e = t.expected_loss();
        let ideal = 0.5 * 1800.0 + lag;
        assert!(
            (e - ideal).abs() < 0.05 * ideal,
            "expected {e:.0} vs {ideal:.0}"
        );
    }

    #[test]
    fn verified_durability_lags_assumed() {
        let t = tracker(CheckpointMode::Asynchronous);
        let lag = t.engine.durable_secs(CheckpointMode::Asynchronous);
        // Just after generation 2 becomes (assumed) durable, its
        // validation re-read is still running: verified is a generation
        // behind, and the tracker reports Assumed.
        let at = 2.0 * 1800.0 + lag + 1.0;
        assert_eq!(t.durable_position_at(at), 3600.0);
        assert_eq!(t.verified_position_at(at), 1800.0);
        assert_eq!(t.durability_at(at), Durability::Assumed);
        // Once the validation window passes, the generations agree again.
        let later = at + t.validation_secs();
        assert_eq!(t.verified_position_at(later), 3600.0);
        assert_eq!(t.durability_at(later), Durability::Verified);
    }

    #[test]
    fn verified_never_ahead_of_assumed() {
        let t = tracker(CheckpointMode::Asynchronous);
        for i in 0..300 {
            let at = i as f64 * 411.0;
            assert!(t.verified_position_at(at) <= t.durable_position_at(at));
        }
    }

    #[test]
    fn fallback_steps_one_generation_and_clamps() {
        let t = tracker(CheckpointMode::Asynchronous);
        assert_eq!(t.fallback_position(3600.0), 1800.0);
        assert_eq!(t.fallback_position(1800.0), 0.0);
        assert_eq!(t.fallback_position(0.0), 0.0);
    }

    #[test]
    fn validation_takes_minutes_for_the_flagship() {
        let t = tracker(CheckpointMode::Asynchronous);
        let v = t.validation_secs();
        assert!(v > 60.0, "123B validation {v:.0}s");
        assert!(v < 3600.0, "validation should not dominate the interval");
    }

    #[test]
    fn shorter_intervals_lose_less() {
        let engine = CheckpointEngine::new(CheckpointScenario::paper_123b());
        let coarse = DurabilityTracker::new(engine, CheckpointMode::Asynchronous, 7200.0);
        let fine = DurabilityTracker::new(engine, CheckpointMode::Asynchronous, 900.0);
        assert!(fine.expected_loss() < coarse.expected_loss() / 3.0);
    }
}
