//! Deterministic fault injection for evaluation campaigns, and the
//! recovery policies that survive it.
//!
//! The paper's Table 3 shows evaluation-style short jobs failing constantly
//! — environment errors, loading errors, flaky storage — while §6.2's
//! coordinator assumes every trial runs to completion. This module closes
//! that gap in two layers:
//!
//! 1. A **fault plan** ([`FaultPlan::generate`]): a seeded, pre-drawn
//!    schedule of trial crashes (reasons drawn from the Table-3 evaluation
//!    failure mix), node failures that kill all 8 resident trials,
//!    straggler windows (GC pauses / dataloader leaks slowing a GPU, the
//!    Appendix-B lore), degraded remote-storage bandwidth windows, and
//!    flaky CPU metric jobs. The plan is fixed before the campaign starts,
//!    so every recovery policy faces *exactly* the same adversity.
//! 2. A **campaign replay** ([`run_campaign`]): a discrete-event
//!    simulation of the §6.2 full-coordinator schedule under one
//!    [`CampaignPolicy`] arm, mirroring the fault-storm study. Naive
//!    restart resubmits the whole campaign on any loss. Retry-only retries
//!    each crashed trial in place on the exponential-backoff ladder of
//!    `failure::orchestrator`. The fault-tolerant arm adds dataset-granular
//!    completion tracking (a retried trial re-runs only missing datasets),
//!    a watchdog that speculatively re-executes stragglers, elastic
//!    re-packing of work stranded on dead nodes onto survivors, and
//!    idempotent result dedup when a speculative copy and the original
//!    both finish.

use std::collections::VecDeque;

use acme_cluster::SharedStorage;
use acme_failure::taxonomy::{FailureCategory, FailureReason};
use acme_obs::{ArgValue, Rec};
use acme_policy::RetryPolicy;
use acme_sim_core::dist::{Distribution, Exponential};
use acme_sim_core::rng::SplitMix64;
use acme_sim_core::{EventQueue, SimRng, SimTime};

use crate::benchmarks::Dataset;
use crate::coordinator::{plan_order, CoordinatorError, Scheduler};

/// Seconds to respawn a crashed trial process before any backoff applies.
const RESTART_DELAY_SECS: f64 = 5.0;
/// Metric flake chains are cut after this many attempts (the CPU pool
/// pages a human instead); keeps every chain finite.
const MAX_METRIC_ATTEMPTS: u32 = 8;
/// The straggler watchdog fires at this multiple of an item's expected
/// work, plus [`WATCHDOG_SLACK_SECS`].
const WATCHDOG_FACTOR: f64 = 2.0;
/// Fixed slack added to the watchdog deadline, seconds.
const WATCHDOG_SLACK_SECS: f64 = 1.0;

/// The Table-3 failure mix restricted to reasons that strike evaluation
/// trials: environment and script errors, loading failures, and flaky
/// storage/connection paths. Weights are the paper's occurrence counts.
const EVAL_FAILURE_MIX: [FailureReason; 10] = [
    FailureReason::ModelLoadingError,
    FailureReason::DatasetLoadingError,
    FailureReason::FileNotFoundError,
    FailureReason::TypeError,
    FailureReason::KeyError,
    FailureReason::OsError,
    FailureReason::ImportError,
    FailureReason::ConnectionError,
    FailureReason::S3StorageError,
    FailureReason::OutOfMemoryError,
];

fn sample_eval_reason(rng: &mut SimRng) -> FailureReason {
    let total: u64 = EVAL_FAILURE_MIX.iter().map(|r| r.spec().num as u64).sum();
    let mut pick = rng.below(total);
    for r in EVAL_FAILURE_MIX {
        let n = r.spec().num as u64;
        if pick < n {
            return r;
        }
        pick -= n;
    }
    EVAL_FAILURE_MIX[0]
}

/// Knobs for one generated fault campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Fleet size the faults are drawn against.
    pub nodes: u32,
    /// Faults arrive within `[0, horizon_secs)`.
    pub horizon_secs: f64,
    /// Mean seconds between trial crashes (Poisson arrivals).
    pub mean_between_crashes_secs: f64,
    /// Mean seconds between node failures (Poisson arrivals; at most
    /// `nodes - 1` nodes ever fail so the campaign can finish).
    pub mean_between_node_failures_secs: f64,
    /// Number of per-GPU straggler windows (GC / dataloader slowdowns).
    pub straggler_windows: u32,
    /// Slowdown factor inside a straggler window.
    pub straggler_factor: f64,
    /// Length of each straggler window, seconds.
    pub straggler_window_secs: f64,
    /// Number of degraded remote-storage windows (cluster-wide).
    pub storage_windows: u32,
    /// Remote-bandwidth division factor inside a storage window.
    pub storage_factor: f64,
    /// Length of each storage window, seconds.
    pub storage_window_secs: f64,
    /// Probability that one CPU metric job attempt flakes and re-runs.
    pub metric_flake_prob: f64,
}

impl FaultConfig {
    /// The default storm for a campaign whose fault-free makespan is
    /// known: crashes every sixth of the clean makespan, roughly one node
    /// failure, a few straggler windows, one degraded-storage window and
    /// mildly flaky metric jobs, all within a horizon of twice the clean
    /// makespan. Because every knob is proportional to the fault-free
    /// makespan, scaling the campaign (`--scale` repeats the dataset
    /// registry) scales the fault horizon with it.
    pub fn default_campaign(nodes: u32, fault_free_makespan_secs: f64) -> Self {
        let m = fault_free_makespan_secs;
        FaultConfig {
            nodes,
            horizon_secs: 2.0 * m,
            mean_between_crashes_secs: m / 6.0,
            mean_between_node_failures_secs: 2.0 * m,
            straggler_windows: 3,
            straggler_factor: 3.0,
            straggler_window_secs: 0.2 * m,
            storage_windows: 1,
            storage_factor: 4.0,
            storage_window_secs: 0.5 * m,
            metric_flake_prob: 0.05,
        }
    }
}

/// One trial crash: whatever runs on `gpu` at `at_secs` dies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialCrash {
    /// When the crash strikes, seconds.
    pub at_secs: f64,
    /// The GPU whose resident trial dies.
    pub gpu: u32,
    /// Diagnosed root cause, from the Table-3 evaluation mix.
    pub reason: FailureReason,
}

/// One node failure: all 8 resident trials die and the node never returns
/// within the campaign (repair turnaround is hours, campaigns are minutes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    /// When the node dies, seconds.
    pub at_secs: f64,
    /// The failing node.
    pub node: u32,
}

/// A window during which one GPU runs slow (GC pressure, a leaking
/// dataloader starving the host — the Appendix-B lessons).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerWindow {
    /// The straggling GPU.
    pub gpu: u32,
    /// Window start, seconds.
    pub from_secs: f64,
    /// Window end, seconds.
    pub until_secs: f64,
    /// Work started inside the window takes this factor longer.
    pub factor: f64,
}

/// A cluster-wide window of degraded remote-storage bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageWindow {
    /// Window start, seconds.
    pub from_secs: f64,
    /// Window end, seconds.
    pub until_secs: f64,
    /// Remote loads started inside the window take this factor longer
    /// (see [`SharedStorage::degraded`]).
    pub factor: f64,
}

/// A fully pre-drawn fault campaign. Equal seeds give identical plans, and
/// the plan is independent of the recovery policy replaying it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Faults arrive within `[0, horizon_secs)`.
    pub horizon_secs: f64,
    /// Trial crashes, sorted by time.
    pub crashes: Vec<TrialCrash>,
    /// Node failures, sorted by time; each node fails at most once.
    pub node_failures: Vec<NodeFailure>,
    /// Straggler windows, sorted by start.
    pub stragglers: Vec<StragglerWindow>,
    /// Degraded-storage windows, sorted by start.
    pub storage_windows: Vec<StorageWindow>,
    /// Per-attempt metric flake probability.
    pub metric_flake_prob: f64,
    /// Salt for the per-(item, attempt) flake hash.
    flake_salt: u64,
}

impl FaultPlan {
    /// A plan with no faults at all — the fault-free reference.
    pub fn empty() -> Self {
        FaultPlan {
            horizon_secs: 0.0,
            crashes: Vec::new(),
            node_failures: Vec::new(),
            stragglers: Vec::new(),
            storage_windows: Vec::new(),
            metric_flake_prob: 0.0,
            flake_salt: 0,
        }
    }

    /// Draw a plan from `config`. Deterministic in the rng state: equal
    /// seeds give byte-identical plans.
    pub fn generate(config: &FaultConfig, rng: &mut SimRng) -> Self {
        let gpus = config.nodes * 8;

        let mut crashes = Vec::new();
        let crash_gap = Exponential::with_mean(config.mean_between_crashes_secs);
        let mut t = crash_gap.sample(rng);
        while t < config.horizon_secs {
            crashes.push(TrialCrash {
                at_secs: t,
                gpu: rng.below(gpus as u64) as u32,
                reason: sample_eval_reason(rng),
            });
            t += crash_gap.sample(rng);
        }

        // Node failures: at most nodes-1 distinct nodes, so survivors can
        // always finish the campaign.
        let mut node_failures: Vec<NodeFailure> = Vec::new();
        let node_gap = Exponential::with_mean(config.mean_between_node_failures_secs);
        let mut t = node_gap.sample(rng);
        while t < config.horizon_secs && (node_failures.len() as u32) + 1 < config.nodes {
            let node = rng.below(config.nodes as u64) as u32;
            if !node_failures.iter().any(|f| f.node == node) {
                node_failures.push(NodeFailure { at_secs: t, node });
            }
            t += node_gap.sample(rng);
        }

        // Straggler windows land in the first 60% of the horizon, where
        // the healthy campaign actually runs.
        let mut stragglers = Vec::new();
        for _ in 0..config.straggler_windows {
            let from = rng.range_f64(0.0, 0.6 * config.horizon_secs);
            stragglers.push(StragglerWindow {
                gpu: rng.below(gpus as u64) as u32,
                from_secs: from,
                until_secs: from + config.straggler_window_secs,
                factor: config.straggler_factor,
            });
        }
        stragglers.sort_by(|a, b| a.from_secs.total_cmp(&b.from_secs));

        let mut storage_windows = Vec::new();
        for _ in 0..config.storage_windows {
            let from = rng.range_f64(0.0, 0.6 * config.horizon_secs);
            storage_windows.push(StorageWindow {
                from_secs: from,
                until_secs: from + config.storage_window_secs,
                factor: config.storage_factor,
            });
        }
        storage_windows.sort_by(|a, b| a.from_secs.total_cmp(&b.from_secs));

        FaultPlan {
            horizon_secs: config.horizon_secs,
            crashes,
            node_failures,
            stragglers,
            storage_windows,
            metric_flake_prob: config.metric_flake_prob,
            flake_salt: rng.next_u64(),
        }
    }

    /// Slowdown factor for work *starting* on `gpu` at `at_secs`.
    pub fn slowdown(&self, gpu: u32, at_secs: f64) -> f64 {
        for w in &self.stragglers {
            if w.gpu == gpu && at_secs >= w.from_secs && at_secs < w.until_secs {
                return w.factor;
            }
        }
        1.0
    }

    /// Remote-load stretch factor for a load starting at `at_secs`.
    pub fn storage_factor_at(&self, at_secs: f64) -> f64 {
        for w in &self.storage_windows {
            if at_secs >= w.from_secs && at_secs < w.until_secs {
                return w.factor;
            }
        }
        1.0
    }

    /// Does attempt `attempt` (1-based) of item `item`'s CPU metric job
    /// flake? Pure hash of (salt, item, attempt): independent of timing
    /// and policy, so every arm sees the same flakes.
    pub fn metric_flake(&self, item: usize, attempt: u32) -> bool {
        if self.metric_flake_prob <= 0.0 || attempt >= MAX_METRIC_ATTEMPTS {
            return false;
        }
        let mut h = SplitMix64::new(
            self.flake_salt
                ^ (item as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((attempt as u64) << 48),
        );
        let u = (h.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < self.metric_flake_prob
    }
}

/// The recovery-policy ablation arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignPolicy {
    /// Any trial loss aborts and resubmits the *entire* campaign — the
    /// pre-coordinator operational reality for short jobs.
    NaiveRestart,
    /// Per-trial retry with backoff, nothing else: no completion
    /// tracking, no speculation, no re-packing.
    RetryOnly,
    /// The full fault-tolerant coordinator.
    FaultTolerant,
}

impl CampaignPolicy {
    /// All arms, weakest first.
    pub const ALL: [CampaignPolicy; 3] = [
        CampaignPolicy::NaiveRestart,
        CampaignPolicy::RetryOnly,
        CampaignPolicy::FaultTolerant,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CampaignPolicy::NaiveRestart => "naive restart",
            CampaignPolicy::RetryOnly => "retry only",
            CampaignPolicy::FaultTolerant => "fault-tolerant",
        }
    }

    /// Any trial loss aborts and resubmits the whole campaign.
    fn restarts_whole_campaign(self) -> bool {
        matches!(self, CampaignPolicy::NaiveRestart)
    }

    /// Each dataset's result commits the moment it lands, so a retried
    /// trial re-runs only missing datasets. Otherwise results commit only
    /// when the whole consolidated trial ends, and a crash loses all of
    /// them.
    fn tracks_datasets(self) -> bool {
        matches!(self, CampaignPolicy::FaultTolerant)
    }

    /// A per-item watchdog launches a speculative twin of a straggler.
    fn speculates(self) -> bool {
        matches!(self, CampaignPolicy::FaultTolerant)
    }

    /// Work stranded on a dead node (or a crashed GPU) moves to survivors
    /// at once. Otherwise a crashed trial retries on its own GPU and
    /// stranded work waits for a resubmission wave after the rest of the
    /// campaign drains.
    fn repacks(self) -> bool {
        matches!(self, CampaignPolicy::FaultTolerant)
    }
}

/// What one policy arm achieved against a fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    /// Wall seconds until every metric is in and the fleet is idle.
    pub makespan_secs: f64,
    /// GPU seconds spent on work whose result was committed.
    pub useful_gpu_secs: f64,
    /// GPU seconds lost: crash partials, invalidated uncommitted results,
    /// whole-campaign restarts, and speculative losers.
    pub wasted_gpu_secs: f64,
    /// Remote model loads performed (initial staging + re-staging).
    pub remote_loads: usize,
    /// Remote loads beyond the initial per-node staging.
    pub redundant_remote_loads: usize,
    /// Crash-triggered trial retries.
    pub retries: u32,
    /// Items escalated past the retry budget (migrated off their GPU).
    pub escalations: u32,
    /// Whole-campaign restarts (naive arm only).
    pub campaign_restarts: u32,
    /// Speculative copies launched by the straggler watchdog.
    pub speculative_copies: u32,
    /// Finished duplicates discarded by idempotent result dedup.
    pub duplicate_results: u32,
    /// Flaky CPU metric jobs re-run.
    pub metric_reruns: u32,
    /// Nodes lost to node failures.
    pub nodes_lost: u32,
    /// Work items (dataset shards) the campaign had to land.
    pub items_expected: usize,
    /// Items whose metric landed exactly once.
    pub items_landed_once: usize,
}

impl CampaignOutcome {
    /// Fraction of items whose metric landed exactly once — 1.0 means no
    /// result was lost *and* none was double-counted.
    pub fn coverage(&self) -> f64 {
        self.items_landed_once as f64 / self.items_expected as f64
    }

    /// Makespan inflation over a fault-free reference run.
    pub fn inflation_vs(&self, fault_free_makespan_secs: f64) -> f64 {
        self.makespan_secs / fault_free_makespan_secs
    }
}

/// Replay `plan` over the campaign under one ablation arm and report the
/// outcome.
///
/// Deterministic: the outcome is a pure function of the inputs — the
/// simulation draws no randomness of its own.
pub fn run_campaign(
    policy: CampaignPolicy,
    datasets: &[Dataset],
    nodes: u32,
    storage: &SharedStorage,
    model_gb: f64,
    plan: &FaultPlan,
) -> Result<CampaignOutcome, CoordinatorError> {
    run_campaign_traced(
        policy,
        datasets,
        nodes,
        storage,
        model_gb,
        plan,
        &mut Rec::off(),
    )
}

/// [`run_campaign`] with a flight recorder attached: trial lifecycle
/// (crashes, retries, speculation, re-packing, campaign restarts) becomes
/// instant events, every wasted GPU-second is attributed to a fault
/// category × recovery stage as it accrues, and fault arrivals sample the
/// event-queue depth. Recording never touches the simulation: the outcome
/// is identical to the untraced run.
pub fn run_campaign_traced(
    policy: CampaignPolicy,
    datasets: &[Dataset],
    nodes: u32,
    storage: &SharedStorage,
    model_gb: f64,
    plan: &FaultPlan,
    rec: &mut Rec<'_>,
) -> Result<CampaignOutcome, CoordinatorError> {
    if datasets.is_empty() {
        return Err(CoordinatorError::EmptyDatasets);
    }
    if nodes == 0 {
        return Err(CoordinatorError::ZeroNodes);
    }
    Ok(CampaignSim::new(
        policy,
        datasets,
        nodes,
        storage,
        model_gb,
        plan,
        rec.borrow(),
    )
    .run())
}

// ---------------------------------------------------------------------------
// The campaign simulation.

#[derive(Debug, Clone, Copy)]
struct WorkRef {
    item: usize,
    spec: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GpuState {
    Idle,
    Busy,
    Backoff,
    Dead,
}

#[derive(Debug, Clone, Copy)]
struct Busy {
    item: usize,
    started: f64,
    work: f64,
}

#[derive(Debug)]
struct Gpu {
    state: GpuState,
    /// Bumped on every crash / restart; stale in-flight events are ignored.
    epoch: u64,
    loaded: bool,
    busy: Option<Busy>,
    /// Crash retries pinned to this GPU (no elastic re-packing).
    pinned: VecDeque<WorkRef>,
    /// Finished-but-uncommitted results (no dataset-granular tracking).
    uncommitted: Vec<(usize, f64)>,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    GpuFree { gpu: u32, epoch: u64 },
    ItemDone { gpu: u32, epoch: u64 },
    Fault(usize),
    Watchdog { gpu: u32, item: usize, epoch: u64 },
    MetricDone { item: usize, attempt: u32, era: u32 },
}

#[derive(Debug, Clone, Copy)]
enum FaultEvent {
    Crash(TrialCrash),
    Node(NodeFailure),
}

impl FaultEvent {
    fn at_secs(&self) -> f64 {
        match self {
            FaultEvent::Crash(c) => c.at_secs,
            FaultEvent::Node(f) => f.at_secs,
        }
    }
}

fn key(secs: f64) -> SimTime {
    SimTime::from_ordered_secs_f64(secs)
}

struct CampaignSim<'a> {
    policy: CampaignPolicy,
    /// The crash-retry ladder of the retry-only and fault-tolerant arms
    /// (the naive arm restarts the campaign before reaching it).
    retry: RetryPolicy,
    plan: &'a FaultPlan,
    items: Vec<Dataset>,
    gpus: u32,
    shm_load: f64,
    precursor_base: f64,
    faults: Vec<FaultEvent>,

    queue: EventQueue<Ev>,
    gpu: Vec<Gpu>,
    node_alive: Vec<bool>,
    alive_nodes: u32,
    global: VecDeque<WorkRef>,
    deferred: Vec<WorkRef>,
    committed: Vec<bool>,
    metric_landed: Vec<u32>,
    attempts: Vec<u32>,
    spec_launched: Vec<bool>,
    era: u32,

    useful: f64,
    wasted: f64,
    remote_loads: usize,
    redundant_remote_loads: usize,
    retries: u32,
    escalations: u32,
    campaign_restarts: u32,
    speculative_copies: u32,
    duplicate_results: u32,
    metric_reruns: u32,
    nodes_lost: u32,
    last_gpu_done: f64,
    last_metric_done: f64,
    rec: Rec<'a>,
}

/// Recovery-stage labels for waste attribution (the Lablup decomposition
/// the `blame` experiment aggregates by).
mod stage {
    /// Duplicate work paid to detect/outrun stragglers (speculation
    /// losers).
    pub const DETECT: &str = "detect";
    /// Work thrown away restarting after a trial crash (partials,
    /// invalidated uncommitted results, whole-campaign restarts).
    pub const RESTART: &str = "restart/backoff";
    /// Work stranded on failed nodes (re-packed or deferred).
    pub const CORDON: &str = "cordon/spare";
}

impl<'a> CampaignSim<'a> {
    fn new(
        policy: CampaignPolicy,
        datasets: &[Dataset],
        nodes: u32,
        storage: &SharedStorage,
        model_gb: f64,
        plan: &'a FaultPlan,
        rec: Rec<'a>,
    ) -> Self {
        let gpus = nodes * 8;
        let items = plan_order(Scheduler::FullCoordinator, datasets, gpus);
        let n = items.len();

        // Merge the fault streams into one time-sorted list.
        let mut faults: Vec<FaultEvent> = plan
            .crashes
            .iter()
            .map(|&c| FaultEvent::Crash(c))
            .chain(plan.node_failures.iter().map(|&f| FaultEvent::Node(f)))
            .collect();
        faults.sort_by(|a, b| a.at_secs().total_cmp(&b.at_secs()));

        CampaignSim {
            policy,
            retry: RetryPolicy::evaluation(),
            plan,
            gpus,
            shm_load: storage.local_load_secs(model_gb, 8.min(gpus)),
            precursor_base: storage.remote_load_secs(model_gb, 1, nodes),
            faults,
            queue: EventQueue::with_capacity(n + gpus as usize),
            gpu: (0..gpus)
                .map(|_| Gpu {
                    state: GpuState::Backoff,
                    epoch: 0,
                    loaded: false,
                    busy: None,
                    pinned: VecDeque::new(),
                    uncommitted: Vec::new(),
                })
                .collect(),
            node_alive: vec![true; nodes as usize],
            alive_nodes: nodes,
            global: (0..n).map(|item| WorkRef { item, spec: false }).collect(),
            deferred: Vec::new(),
            committed: vec![false; n],
            metric_landed: vec![0; n],
            attempts: vec![0; n],
            spec_launched: vec![false; n],
            era: 0,
            useful: 0.0,
            wasted: 0.0,
            remote_loads: nodes as usize,
            redundant_remote_loads: 0,
            retries: 0,
            escalations: 0,
            campaign_restarts: 0,
            speculative_copies: 0,
            duplicate_results: 0,
            metric_reruns: 0,
            nodes_lost: 0,
            last_gpu_done: 0.0,
            last_metric_done: 0.0,
            rec,
            items,
        }
    }

    /// Account `secs` of wasted GPU time, attributing it to a fault
    /// category × recovery stage for the flight recorder. The *only* site
    /// that touches `self.wasted`, so the recorded attribution always sums
    /// to `CampaignOutcome::wasted_gpu_secs` exactly.
    fn waste(&mut self, now: f64, cat: &'static str, stage: &'static str, secs: f64) {
        self.wasted += secs;
        self.rec.instant(
            now,
            "waste",
            cat,
            &[
                ("stage", ArgValue::Str(stage)),
                ("secs", ArgValue::F64(secs)),
            ],
        );
    }

    fn run(mut self) -> CampaignOutcome {
        // Initial staging: one precursor per node, then every GPU frees.
        let stage = self.precursor_base * self.plan.storage_factor_at(0.0);
        for g in 0..self.gpus {
            self.queue
                .schedule(key(stage), Ev::GpuFree { gpu: g, epoch: 0 });
        }
        for i in 0..self.faults.len() {
            self.queue
                .schedule(key(self.faults[i].at_secs()), Ev::Fault(i));
        }

        while let Some((at, ev)) = self.queue.pop() {
            let now = at.as_ordered_secs_f64();
            match ev {
                Ev::GpuFree { gpu, epoch } => self.on_gpu_free(gpu, epoch, now),
                Ev::ItemDone { gpu, epoch } => self.on_item_done(gpu, epoch, now),
                Ev::Fault(i) => match self.faults[i] {
                    FaultEvent::Crash(c) => self.on_crash(c, now),
                    FaultEvent::Node(f) => self.on_node_failure(f, now),
                },
                Ev::Watchdog { gpu, item, epoch } => self.on_watchdog(gpu, item, epoch, now),
                Ev::MetricDone { item, attempt, era } => {
                    self.on_metric_done(item, attempt, era, now)
                }
            }
        }

        let items_landed_once = self.metric_landed.iter().filter(|&&c| c == 1).count();
        CampaignOutcome {
            makespan_secs: self.last_gpu_done.max(self.last_metric_done),
            useful_gpu_secs: self.useful,
            wasted_gpu_secs: self.wasted,
            remote_loads: self.remote_loads,
            redundant_remote_loads: self.redundant_remote_loads,
            retries: self.retries,
            escalations: self.escalations,
            campaign_restarts: self.campaign_restarts,
            speculative_copies: self.speculative_copies,
            duplicate_results: self.duplicate_results,
            metric_reruns: self.metric_reruns,
            nodes_lost: self.nodes_lost,
            items_expected: self.items.len(),
            items_landed_once,
        }
    }

    fn on_gpu_free(&mut self, g: u32, epoch: u64, now: f64) {
        let gi = g as usize;
        if epoch != self.gpu[gi].epoch
            || matches!(self.gpu[gi].state, GpuState::Dead | GpuState::Busy)
        {
            return;
        }
        self.gpu[gi].state = GpuState::Idle;
        self.try_dispatch(g, now);
    }

    /// Pull the next runnable work item onto an idle GPU.
    fn try_dispatch(&mut self, g: u32, now: f64) {
        let gi = g as usize;
        if self.gpu[gi].state != GpuState::Idle {
            return;
        }
        loop {
            let w = self.gpu[gi]
                .pinned
                .pop_front()
                .or_else(|| self.global.pop_front());
            let Some(w) = w else {
                // Trial boundary: without dataset tracking this is where
                // the consolidated trial's results finally commit.
                self.commit_batch(gi, now);
                self.maybe_wave(now);
                return;
            };
            if self.committed[w.item] {
                continue; // landed elsewhere already (speculation dedup)
            }
            let d = self.items[w.item];
            let load = if self.gpu[gi].loaded {
                0.0
            } else {
                self.gpu[gi].loaded = true;
                self.shm_load
            };
            let base = load + d.preprocess_secs + d.inference_secs;
            let work = base * self.plan.slowdown(g, now);
            let epoch = self.gpu[gi].epoch;
            self.gpu[gi].state = GpuState::Busy;
            self.gpu[gi].busy = Some(Busy {
                item: w.item,
                started: now,
                work,
            });
            self.queue
                .schedule(key(now + work), Ev::ItemDone { gpu: g, epoch });
            self.rec.instant(
                now,
                "trial/dispatch",
                "",
                &[
                    ("item", ArgValue::U64(w.item as u64)),
                    ("gpu", ArgValue::U64(u64::from(g))),
                    ("spec", ArgValue::Str(if w.spec { "yes" } else { "no" })),
                ],
            );
            if self.policy.speculates() && !w.spec {
                self.queue.schedule(
                    key(now + base * WATCHDOG_FACTOR + WATCHDOG_SLACK_SECS),
                    Ev::Watchdog {
                        gpu: g,
                        item: w.item,
                        epoch,
                    },
                );
            }
            return;
        }
    }

    fn on_item_done(&mut self, g: u32, epoch: u64, now: f64) {
        let gi = g as usize;
        if epoch != self.gpu[gi].epoch {
            return; // the trial this event belonged to crashed
        }
        let b = self.gpu[gi].busy.take().expect("busy GPU must hold work");
        self.gpu[gi].state = GpuState::Idle;
        self.last_gpu_done = self.last_gpu_done.max(now);
        self.rec.instant(
            now,
            "trial/done",
            "",
            &[
                ("item", ArgValue::U64(b.item as u64)),
                ("gpu", ArgValue::U64(u64::from(g))),
            ],
        );
        if self.committed[b.item] {
            // Idempotent dedup: the speculative twin already landed.
            self.duplicate_results += 1;
            self.waste(
                now,
                FailureCategory::Infrastructure.label(),
                stage::DETECT,
                b.work,
            );
        } else if self.policy.tracks_datasets() {
            self.commit(b.item, b.work, now);
        } else {
            self.gpu[gi].uncommitted.push((b.item, b.work));
        }
        self.try_dispatch(g, now);
    }

    /// Commit one finished item and launch its CPU metric job.
    fn commit(&mut self, item: usize, work: f64, now: f64) {
        if self.committed[item] {
            self.duplicate_results += 1;
            self.waste(
                now,
                FailureCategory::Infrastructure.label(),
                stage::DETECT,
                work,
            );
            return;
        }
        self.committed[item] = true;
        self.useful += work;
        self.schedule_metric(item, 1, now);
    }

    fn commit_batch(&mut self, gi: usize, now: f64) {
        let batch: Vec<(usize, f64)> = self.gpu[gi].uncommitted.drain(..).collect();
        for (item, work) in batch {
            self.commit(item, work, now);
        }
    }

    fn schedule_metric(&mut self, item: usize, attempt: u32, now: f64) {
        self.queue.schedule(
            key(now + self.items[item].metric_secs),
            Ev::MetricDone {
                item,
                attempt,
                era: self.era,
            },
        );
    }

    fn on_metric_done(&mut self, item: usize, attempt: u32, era: u32, now: f64) {
        if era != self.era || !self.committed[item] {
            return; // campaign restarted underneath this metric job
        }
        if self.plan.metric_flake(item, attempt) {
            self.metric_reruns += 1;
            self.rec.instant(
                now,
                "metric/flake",
                FailureCategory::Script.label(),
                &[
                    ("item", ArgValue::U64(item as u64)),
                    ("attempt", ArgValue::U64(u64::from(attempt))),
                ],
            );
            self.schedule_metric(item, attempt + 1, now);
        } else {
            self.metric_landed[item] += 1;
            self.last_metric_done = self.last_metric_done.max(now);
        }
    }

    fn on_watchdog(&mut self, g: u32, item: usize, epoch: u64, _now: f64) {
        let gi = g as usize;
        if epoch != self.gpu[gi].epoch || self.gpu[gi].state != GpuState::Busy {
            return;
        }
        let Some(b) = self.gpu[gi].busy else { return };
        if b.item != item || self.committed[item] || self.spec_launched[item] {
            return;
        }
        // The trial has overrun its prior: speculate a copy on the next
        // free GPU; whichever finishes first commits, the loser dedups.
        self.spec_launched[item] = true;
        self.speculative_copies += 1;
        self.rec.instant(
            _now,
            "trial/speculate",
            FailureCategory::Infrastructure.label(),
            &[
                ("item", ArgValue::U64(item as u64)),
                ("gpu", ArgValue::U64(u64::from(g))),
            ],
        );
        self.global.push_front(WorkRef { item, spec: true });
        self.wake_idle();
    }

    fn on_crash(&mut self, c: TrialCrash, now: f64) {
        let gi = c.gpu as usize;
        if c.gpu >= self.gpus
            || self.gpu[gi].state != GpuState::Busy
            || self.committed.iter().all(|&done| done)
        {
            return; // struck an empty slot, a dead GPU, or a finished campaign
        }
        let cat = c.reason.spec().category.label();
        self.rec
            .counter(now, "queue_depth", self.queue.len() as u64);
        self.rec.instant(
            now,
            "trial/crash",
            cat,
            &[("gpu", ArgValue::U64(u64::from(c.gpu)))],
        );
        if self.policy.restarts_whole_campaign() {
            self.campaign_restart(now, cat);
            return;
        }
        let b = self.gpu[gi].busy.take().expect("busy GPU must hold work");
        self.gpu[gi].epoch += 1;
        self.retries += 1;
        // Partial work dies with the trial.
        self.waste(now, cat, stage::RESTART, now - b.started);

        // Without dataset tracking, everything the consolidated trial had
        // finished but not committed dies too.
        let mut requeue: Vec<WorkRef> = Vec::new();
        let invalidated: Vec<(usize, f64)> = self.gpu[gi].uncommitted.drain(..).collect();
        for (item, work) in invalidated {
            self.waste(now, cat, stage::RESTART, work);
            requeue.push(WorkRef { item, spec: false });
        }
        requeue.push(WorkRef {
            item: b.item,
            spec: false,
        });

        self.attempts[b.item] += 1;
        let attempt = self.attempts[b.item];
        let escalated = attempt > self.retry.budget;
        if escalated {
            self.escalations += 1;
        }
        if escalated || self.policy.repacks() {
            // Migrate: any surviving GPU may pick the work up immediately.
            for w in requeue.into_iter().rev() {
                self.global.push_front(w);
            }
            self.wake_idle();
        } else {
            // Pin the retried trial to its own GPU, behind the backoff.
            for w in requeue.into_iter().rev() {
                self.gpu[gi].pinned.push_front(w);
            }
        }

        let backoff = if escalated {
            0.0
        } else {
            self.retry.backoff(attempt + 1).as_secs_f64()
        };
        self.gpu[gi].state = GpuState::Backoff;
        let epoch = self.gpu[gi].epoch;
        self.queue.schedule(
            key(now + RESTART_DELAY_SECS + backoff),
            Ev::GpuFree { gpu: c.gpu, epoch },
        );
    }

    fn on_node_failure(&mut self, f: NodeFailure, now: f64) {
        let ni = f.node as usize;
        if ni >= self.node_alive.len() || !self.node_alive[ni] || self.alive_nodes <= 1 {
            return; // unknown/already-dead node, or the last one standing
        }
        self.node_alive[ni] = false;
        self.alive_nodes -= 1;
        self.nodes_lost += 1;
        let infra = FailureCategory::Infrastructure.label();
        self.rec
            .counter(now, "queue_depth", self.queue.len() as u64);
        self.rec.instant(
            now,
            "node/failure",
            infra,
            &[("node", ArgValue::U64(u64::from(f.node)))],
        );

        let mut lost: Vec<WorkRef> = Vec::new();
        for g in (f.node * 8)..(f.node * 8 + 8) {
            let gi = g as usize;
            self.gpu[gi].epoch += 1;
            if let Some(b) = self.gpu[gi].busy.take() {
                self.waste(now, infra, stage::CORDON, now - b.started);
                lost.push(WorkRef {
                    item: b.item,
                    spec: false,
                });
            }
            let invalidated: Vec<(usize, f64)> = self.gpu[gi].uncommitted.drain(..).collect();
            for (item, work) in invalidated {
                self.waste(now, infra, stage::CORDON, work);
                lost.push(WorkRef { item, spec: false });
            }
            lost.extend(self.gpu[gi].pinned.drain(..));
            self.gpu[gi].state = GpuState::Dead;
            self.gpu[gi].loaded = false;
        }

        if self.committed.iter().all(|&done| done) {
            return; // trials all finished; only CPU metric jobs remain
        }
        if self.policy.restarts_whole_campaign() {
            self.campaign_restart(now, infra);
        } else if self.policy.repacks() {
            // Elastic re-packing: survivors absorb the stranded shards now.
            self.rec.instant(
                now,
                "repack",
                infra,
                &[("items", ArgValue::U64(lost.len() as u64))],
            );
            for w in lost.into_iter().rev() {
                self.global.push_front(w);
            }
            self.wake_idle();
        } else {
            // No re-packing: stranded work waits for a resubmission wave
            // after the rest of the campaign drains.
            self.deferred.extend(lost);
            self.maybe_wave(now);
        }
    }

    /// Naive recovery: throw everything away and resubmit the campaign on
    /// the surviving fleet, re-staging the model from (possibly degraded)
    /// remote storage.
    fn campaign_restart(&mut self, now: f64, cat: &'static str) {
        self.campaign_restarts += 1;
        self.era += 1;
        self.rec.instant(
            now,
            "campaign/restart",
            cat,
            &[("era", ArgValue::U64(u64::from(self.era)))],
        );
        for gi in 0..self.gpu.len() {
            if self.gpu[gi].state == GpuState::Dead {
                continue;
            }
            self.gpu[gi].epoch += 1;
            if let Some(b) = self.gpu[gi].busy.take() {
                self.waste(now, cat, stage::RESTART, now - b.started);
            }
            let dropped: Vec<(usize, f64)> = self.gpu[gi].uncommitted.drain(..).collect();
            for (_, work) in dropped {
                self.waste(now, cat, stage::RESTART, work);
            }
            self.gpu[gi].pinned.clear();
            self.gpu[gi].loaded = false;
            self.gpu[gi].state = GpuState::Backoff;
        }
        // Every committed result is discarded with the campaign.
        let discarded = self.useful;
        self.waste(now, cat, stage::RESTART, discarded);
        self.useful = 0.0;
        self.committed.fill(false);
        self.metric_landed.fill(0);
        self.spec_launched.fill(false);
        self.deferred.clear();
        self.global = (0..self.items.len())
            .map(|item| WorkRef { item, spec: false })
            .collect();

        self.remote_loads += self.alive_nodes as usize;
        self.redundant_remote_loads += self.alive_nodes as usize;
        let stage = self.precursor_base * self.plan.storage_factor_at(now);
        let restart_at = now + RESTART_DELAY_SECS + stage;
        for g in 0..self.gpus {
            let gi = g as usize;
            if self.gpu[gi].state == GpuState::Dead {
                continue;
            }
            let epoch = self.gpu[gi].epoch;
            self.queue
                .schedule(key(restart_at), Ev::GpuFree { gpu: g, epoch });
        }
    }

    /// Kick every idle surviving GPU to look at the queue again.
    fn wake_idle(&mut self) {
        for g in 0..self.gpus {
            let gi = g as usize;
            if self.gpu[gi].state == GpuState::Idle {
                let epoch = self.gpu[gi].epoch;
                self.queue.schedule_now(Ev::GpuFree { gpu: g, epoch });
            }
        }
    }

    /// Resubmission wave: once the fleet is drained and idle, stranded
    /// (deferred) work goes back into the queue as a fresh batch.
    fn maybe_wave(&mut self, _now: f64) {
        if self.deferred.is_empty() || !self.global.is_empty() {
            return;
        }
        let all_quiet = self
            .gpu
            .iter()
            .all(|g| matches!(g.state, GpuState::Idle | GpuState::Dead) && g.pinned.is_empty());
        if !all_quiet {
            return;
        }
        self.global.extend(self.deferred.drain(..));
        self.wake_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::registry;
    use crate::coordinator::run;
    use acme_obs::Recorder;

    fn seren() -> SharedStorage {
        SharedStorage::seren()
    }

    fn fault_free_makespan(nodes: u32) -> f64 {
        run(
            Scheduler::FullCoordinator,
            &registry(),
            nodes,
            &seren(),
            14.0,
        )
        .unwrap()
        .makespan_secs
    }

    fn plan_for(seed: u64, nodes: u32) -> FaultPlan {
        let config = FaultConfig::default_campaign(nodes, fault_free_makespan(nodes));
        let mut rng = SimRng::new(seed).fork(1101);
        FaultPlan::generate(&config, &mut rng)
    }

    #[test]
    fn same_seed_same_plan() {
        let a = plan_for(42, 4);
        let b = plan_for(42, 4);
        assert_eq!(a, b);
        assert_ne!(a, plan_for(43, 4));
    }

    #[test]
    fn plans_respect_the_horizon_and_fleet() {
        let plan = plan_for(42, 4);
        for c in &plan.crashes {
            assert!(c.at_secs >= 0.0 && c.at_secs < plan.horizon_secs);
            assert!(c.gpu < 32);
        }
        for f in &plan.node_failures {
            assert!(f.node < 4);
        }
        assert!(plan.node_failures.len() < 4, "survivors must remain");
        assert!(!plan.crashes.is_empty(), "the default storm must bite");
    }

    #[test]
    fn empty_plan_matches_the_fault_free_coordinator() {
        let datasets = registry();
        let clean = run(Scheduler::FullCoordinator, &datasets, 4, &seren(), 14.0).unwrap();
        let o = run_campaign(
            CampaignPolicy::FaultTolerant,
            &datasets,
            4,
            &seren(),
            14.0,
            &FaultPlan::empty(),
        )
        .unwrap();
        let rel = (o.makespan_secs - clean.makespan_secs).abs() / clean.makespan_secs;
        assert!(rel < 1e-9, "{} vs {}", o.makespan_secs, clean.makespan_secs);
        assert_eq!(o.remote_loads, clean.remote_loads);
        assert_eq!(o.redundant_remote_loads, 0);
        assert_eq!(o.wasted_gpu_secs, 0.0);
        assert_eq!(o.coverage(), 1.0);
    }

    #[test]
    fn full_strictly_beats_naive_at_the_pinned_seeds() {
        // The acceptance bar: makespan AND waste, every seed.
        for seed in [42, 7, 3] {
            let plan = plan_for(seed, 4);
            let naive = run_campaign(
                CampaignPolicy::NaiveRestart,
                &registry(),
                4,
                &seren(),
                14.0,
                &plan,
            )
            .unwrap();
            let retry = run_campaign(
                CampaignPolicy::RetryOnly,
                &registry(),
                4,
                &seren(),
                14.0,
                &plan,
            )
            .unwrap();
            let full = run_campaign(
                CampaignPolicy::FaultTolerant,
                &registry(),
                4,
                &seren(),
                14.0,
                &plan,
            )
            .unwrap();
            assert!(
                full.makespan_secs < naive.makespan_secs,
                "seed {seed}: full {} !< naive {}",
                full.makespan_secs,
                naive.makespan_secs
            );
            assert!(
                full.wasted_gpu_secs < naive.wasted_gpu_secs,
                "seed {seed}: full waste {} !< naive waste {}",
                full.wasted_gpu_secs,
                naive.wasted_gpu_secs
            );
            // Speculative duplicates can cost a few percent of makespan on
            // unlucky seeds (a Graham-style scheduling anomaly), so full
            // only has to be close-or-better against retry-only; the hard
            // ordering requirement is against naive.
            assert!(
                full.makespan_secs <= retry.makespan_secs * 1.05,
                "seed {seed}: full {} far behind retry {}",
                full.makespan_secs,
                retry.makespan_secs
            );
            assert!(
                retry.makespan_secs < naive.makespan_secs,
                "seed {seed}: retry {} !< naive {}",
                retry.makespan_secs,
                naive.makespan_secs
            );
            // Nothing lost, nothing double-counted, on any arm.
            for o in [&naive, &retry, &full] {
                assert_eq!(o.coverage(), 1.0, "seed {seed}");
            }
        }
    }

    #[test]
    fn faulted_makespan_never_beats_fault_free() {
        let clean = fault_free_makespan(4);
        for seed in [42, 7, 3, 11] {
            let plan = plan_for(seed, 4);
            for policy in CampaignPolicy::ALL {
                let o = run_campaign(policy, &registry(), 4, &seren(), 14.0, &plan).unwrap();
                assert!(
                    o.makespan_secs >= clean - 1e-9,
                    "{policy:?} seed {seed}: {} < clean {clean}",
                    o.makespan_secs
                );
            }
        }
    }

    #[test]
    fn node_failure_strands_and_recovers_all_eight_trials() {
        let mut plan = FaultPlan::empty();
        plan.node_failures.push(NodeFailure {
            at_secs: 60.0,
            node: 1,
        });
        for policy in CampaignPolicy::ALL {
            let o = run_campaign(policy, &registry(), 2, &seren(), 14.0, &plan).unwrap();
            assert_eq!(o.nodes_lost, 1, "{policy:?}");
            assert_eq!(o.coverage(), 1.0, "{policy:?}");
            assert!(o.wasted_gpu_secs > 0.0, "{policy:?}");
        }
    }

    #[test]
    fn each_arm_runs_only_its_own_mechanisms() {
        let traced = |policy: CampaignPolicy, plan: &FaultPlan| {
            let mut r = Recorder::new();
            let o = run_campaign_traced(
                policy,
                &registry(),
                2,
                &seren(),
                14.0,
                plan,
                &mut Rec::on(&mut r),
            )
            .unwrap();
            (o, r)
        };
        let instants =
            |r: &Recorder, name: &str| r.events().iter().filter(|e| e.name == name).count();

        // A node failure: only the fault-tolerant arm re-packs the stranded
        // trials, only the naive arm restarts the whole campaign.
        let mut plan = FaultPlan::empty();
        plan.node_failures.push(NodeFailure {
            at_secs: 60.0,
            node: 1,
        });
        for policy in CampaignPolicy::ALL {
            let (o, r) = traced(policy, &plan);
            let repacked = instants(&r, "repack") > 0;
            assert_eq!(
                repacked,
                policy == CampaignPolicy::FaultTolerant,
                "{policy:?}"
            );
            let restarted = o.campaign_restarts > 0;
            assert_eq!(
                restarted,
                policy == CampaignPolicy::NaiveRestart,
                "{policy:?}"
            );
        }

        // A crash on GPU 0 mid-campaign: without dataset tracking the
        // consolidated trial's finished-but-uncommitted items die with it,
        // so retry-only wastes more than the crashed item's partial.
        let mut plan = FaultPlan::empty();
        plan.crashes.push(TrialCrash {
            at_secs: 0.5 * fault_free_makespan(2),
            gpu: 0,
            reason: FailureReason::OsError,
        });
        let (retry, retry_rec) = traced(CampaignPolicy::RetryOnly, &plan);
        let (full, full_rec) = traced(CampaignPolicy::FaultTolerant, &plan);
        assert_eq!((retry.retries, full.retries), (1, 1));
        assert_eq!(instants(&full_rec, "waste"), 1, "only the partial is lost");
        assert!(
            instants(&retry_rec, "waste") > 1,
            "uncommitted items die too"
        );
        assert!(
            retry.wasted_gpu_secs > full.wasted_gpu_secs,
            "retry-only {} vs fault-tolerant {}",
            retry.wasted_gpu_secs,
            full.wasted_gpu_secs
        );
    }

    #[test]
    fn the_last_node_is_never_killed() {
        let mut plan = FaultPlan::empty();
        plan.node_failures.push(NodeFailure {
            at_secs: 10.0,
            node: 0,
        });
        let o = run_campaign(
            CampaignPolicy::FaultTolerant,
            &registry(),
            1,
            &seren(),
            14.0,
            &plan,
        )
        .unwrap();
        assert_eq!(o.nodes_lost, 0);
        assert_eq!(o.coverage(), 1.0);
    }

    #[test]
    fn speculation_fires_on_stragglers() {
        let clean = fault_free_makespan(4);
        let mut plan = FaultPlan::empty();
        // A GPU that runs 4x slow for most of the campaign.
        plan.stragglers.push(StragglerWindow {
            gpu: 3,
            from_secs: 0.0,
            until_secs: clean,
            factor: 4.0,
        });
        let full = run_campaign(
            CampaignPolicy::FaultTolerant,
            &registry(),
            4,
            &seren(),
            14.0,
            &plan,
        )
        .unwrap();
        let retry = run_campaign(
            CampaignPolicy::RetryOnly,
            &registry(),
            4,
            &seren(),
            14.0,
            &plan,
        )
        .unwrap();
        assert!(full.speculative_copies > 0, "watchdog never fired");
        assert_eq!(retry.speculative_copies, 0);
        assert!(
            full.makespan_secs < retry.makespan_secs,
            "speculation should cut the straggler tail: {} vs {}",
            full.makespan_secs,
            retry.makespan_secs
        );
        assert_eq!(full.coverage(), 1.0);
    }

    #[test]
    fn degraded_storage_window_prices_naive_restaging() {
        let clean = fault_free_makespan(2);
        let mut plan = FaultPlan::empty();
        plan.crashes.push(TrialCrash {
            at_secs: clean * 0.3,
            gpu: 0,
            reason: FailureReason::ModelLoadingError,
        });
        let naive_healthy = run_campaign(
            CampaignPolicy::NaiveRestart,
            &registry(),
            2,
            &seren(),
            14.0,
            &plan,
        )
        .unwrap();
        plan.storage_windows.push(StorageWindow {
            from_secs: 0.0,
            until_secs: clean,
            factor: 8.0,
        });
        let naive_degraded = run_campaign(
            CampaignPolicy::NaiveRestart,
            &registry(),
            2,
            &seren(),
            14.0,
            &plan,
        )
        .unwrap();
        assert!(
            naive_degraded.makespan_secs > naive_healthy.makespan_secs,
            "restaging through a degraded window must cost more"
        );
        assert!(naive_degraded.redundant_remote_loads > 0);
    }

    #[test]
    fn metric_flakes_rerun_but_land_exactly_once() {
        let mut plan = FaultPlan::empty();
        plan.metric_flake_prob = 0.5;
        plan.flake_salt = 0xDEAD_BEEF;
        let o = run_campaign(
            CampaignPolicy::FaultTolerant,
            &registry(),
            4,
            &seren(),
            14.0,
            &plan,
        )
        .unwrap();
        assert!(o.metric_reruns > 0, "a 50% flake rate must rerun metrics");
        assert_eq!(o.coverage(), 1.0);
    }

    #[test]
    fn eval_failure_mix_draws_only_short_job_reasons() {
        let mut rng = SimRng::new(42);
        for _ in 0..256 {
            let r = sample_eval_reason(&mut rng);
            assert!(EVAL_FAILURE_MIX.contains(&r));
        }
    }
}
