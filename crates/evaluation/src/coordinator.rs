//! The trial coordinator vs the baseline scheduler (§6.2, Figure 16 right).
//!
//! **Baseline**: every dataset is its own trial; each trial pulls the model
//! from remote storage (contending with its siblings, Figure 16 left), and
//! metric computation runs inside the trial, holding the GPU.
//!
//! **Trial coordinator**: three techniques, individually switchable so the
//! ablation can price each one:
//!
//! 1. *Decoupled model loading* — precursor jobs stage the model into each
//!    node's shared memory once; trials read it over local memory.
//! 2. *Decoupled metric computation* — inference output is dumped to files
//!    and CPU jobs compute metrics off the critical path.
//! 3. *Prior-based elastic scheduling* — datasets are packed into
//!    consolidated per-GPU trials using known runtimes (longest first),
//!    with long-CPU-metric datasets prioritized so their tails overlap.

use std::fmt;

use acme_cluster::SharedStorage;
use acme_sim_core::{EventQueue, SimTime};

use crate::benchmarks::Dataset;

/// Scheduler variants for the ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// One dataset per trial, remote loads, coupled metrics.
    Baseline,
    /// Only technique 1 (staged loading).
    DecoupledLoadingOnly,
    /// Only technique 2 (CPU metric jobs).
    DecoupledMetricsOnly,
    /// All three techniques.
    FullCoordinator,
}

impl Scheduler {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Scheduler::Baseline => "baseline",
            Scheduler::DecoupledLoadingOnly => "decoupled loading only",
            Scheduler::DecoupledMetricsOnly => "decoupled metrics only",
            Scheduler::FullCoordinator => "full coordinator",
        }
    }

    fn staged_loading(self) -> bool {
        matches!(
            self,
            Scheduler::DecoupledLoadingOnly | Scheduler::FullCoordinator
        )
    }

    fn decoupled_metrics(self) -> bool {
        matches!(
            self,
            Scheduler::DecoupledMetricsOnly | Scheduler::FullCoordinator
        )
    }

    fn prior_packing(self) -> bool {
        matches!(self, Scheduler::FullCoordinator)
    }
}

/// The outcome of one evaluation campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalRun {
    /// Wall seconds until every metric is in.
    pub makespan_secs: f64,
    /// Total GPU-busy seconds across the fleet.
    pub gpu_busy_secs: f64,
    /// Remote model loads performed.
    pub remote_loads: usize,
    /// GPUs used.
    pub gpus: u32,
}

impl EvalRun {
    /// Average GPU occupancy over the makespan.
    pub fn gpu_occupancy(&self) -> f64 {
        self.gpu_busy_secs / (self.makespan_secs * self.gpus as f64)
    }
}

/// Why a campaign could not be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordinatorError {
    /// The dataset list was empty — there is nothing to evaluate.
    EmptyDatasets,
    /// Zero nodes were offered — there is nowhere to evaluate.
    ZeroNodes,
}

impl fmt::Display for CoordinatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinatorError::EmptyDatasets => write!(f, "no datasets to evaluate"),
            CoordinatorError::ZeroNodes => write!(f, "need at least one node"),
        }
    }
}

impl std::error::Error for CoordinatorError {}

/// The planned work-item order: whole datasets, or — under prior-based
/// elastic scheduling — shards of the large ones ("we can also break down
/// large datasets", §6.2), sized so no single piece dominates a GPU.
pub(crate) fn plan_order(scheduler: Scheduler, datasets: &[Dataset], gpus: u32) -> Vec<Dataset> {
    if !scheduler.prior_packing() {
        return datasets.to_vec();
    }
    let total_work: f64 = datasets.iter().map(|d| d.decoupled_gpu_secs()).sum();
    let target_piece = (total_work / gpus as f64 * 0.5).max(120.0);
    let mut order: Vec<Dataset> = datasets
        .iter()
        .flat_map(|d| {
            let k = (d.decoupled_gpu_secs() / target_piece).ceil().max(1.0) as u32;
            let kf = k as f64;
            (0..k).map(move |_| Dataset {
                preprocess_secs: d.preprocess_secs / kf,
                inference_secs: d.inference_secs / kf,
                metric_secs: d.metric_secs / kf,
                ..*d
            })
        })
        .collect();
    // Prior-based: longest CPU metric first (so tails overlap), then
    // longest GPU work first (LPT balancing).
    order.sort_by(|a, b| {
        b.metric_secs
            .total_cmp(&a.metric_secs)
            .then(b.decoupled_gpu_secs().total_cmp(&a.decoupled_gpu_secs()))
    });
    order
}

/// Run a fault-free evaluation campaign over `nodes` 8-GPU nodes.
///
/// The campaign is a discrete-event simulation on [`EventQueue`]: every GPU
/// emits a "free" event, the earliest free GPU pulls the next work item,
/// and simultaneous frees dispatch in ascending GPU order. Instants are the
/// exact `f64` second values (via [`SimTime::from_ordered_secs_f64`]), so
/// the schedule — and therefore the output — is identical to the closed-form
/// greedy list schedule this replaced, down to the last bit.
pub fn run(
    scheduler: Scheduler,
    datasets: &[Dataset],
    nodes: u32,
    storage: &SharedStorage,
    model_gb: f64,
) -> Result<EvalRun, CoordinatorError> {
    if datasets.is_empty() {
        return Err(CoordinatorError::EmptyDatasets);
    }
    if nodes == 0 {
        return Err(CoordinatorError::ZeroNodes);
    }
    let gpus = nodes * 8;
    let order = plan_order(scheduler, datasets, gpus);

    // Model acquisition cost per trial.
    let remote_contended = storage.remote_load_secs(model_gb, 8.min(gpus), nodes);
    let shm_load = storage.local_load_secs(model_gb, 8.min(gpus));
    let precursor = storage.remote_load_secs(model_gb, 1, nodes);

    let start_at = if scheduler.staged_loading() {
        precursor
    } else {
        0.0
    };
    let mut gpu_loaded = vec![false; gpus as usize];
    let mut gpu_busy = 0.0;
    let mut remote_loads = if scheduler.staged_loading() {
        nodes as usize
    } else {
        0
    };
    let mut last_metric_done: f64 = 0.0;
    let mut last_gpu_done: f64 = 0.0;

    // Event payload: the GPU that just became free.
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(gpus as usize);
    for g in 0..gpus {
        queue.schedule(SimTime::from_ordered_secs_f64(start_at), g);
    }

    let mut pending = order.iter();
    while let Some((at, first)) = queue.pop() {
        // Drain every GPU freed at this exact instant and dispatch in
        // ascending GPU order — the earliest-available-GPU rule with
        // lowest-index tie-breaking. Work items always take strictly
        // positive time, so nothing dispatched here frees at `at` again.
        let mut freed = vec![first];
        while queue.peek_time() == Some(at) {
            freed.push(queue.pop().expect("peeked event must pop").1);
        }
        freed.sort_unstable();
        let now = at.as_ordered_secs_f64();
        for g in freed {
            let Some(d) = pending.next() else { continue };
            // Loading: consolidated trials load once per GPU; separate
            // trials load every time.
            let load = if scheduler.staged_loading() {
                if scheduler.prior_packing() && gpu_loaded[g as usize] {
                    0.0 // consolidated into the running trial
                } else {
                    gpu_loaded[g as usize] = true;
                    shm_load
                }
            } else {
                remote_loads += 1;
                remote_contended
            };

            let gpu_work = load
                + d.preprocess_secs
                + d.inference_secs
                + if scheduler.decoupled_metrics() {
                    0.0
                } else {
                    d.metric_secs
                };
            let t = now + gpu_work;
            gpu_busy += gpu_work;
            last_gpu_done = last_gpu_done.max(t);
            let metric_done = if scheduler.decoupled_metrics() {
                t + d.metric_secs // CPU job, off the GPU
            } else {
                t
            };
            last_metric_done = last_metric_done.max(metric_done);
            queue.schedule(SimTime::from_ordered_secs_f64(t), g);
        }
    }

    Ok(EvalRun {
        makespan_secs: last_gpu_done.max(last_metric_done),
        gpu_busy_secs: gpu_busy,
        remote_loads,
        gpus,
    })
}

/// The §6.2 experiment: all four schedulers at `nodes` nodes over the full
/// 63-dataset suite with a 7B model (14 GB of weights).
///
/// # Panics
/// Panics if `nodes == 0`: the §6.2 sweep is defined over at least one node.
pub fn section62_experiment(nodes: u32) -> Vec<(Scheduler, EvalRun)> {
    let datasets = crate::benchmarks::registry();
    let storage = SharedStorage::seren();
    [
        Scheduler::Baseline,
        Scheduler::DecoupledLoadingOnly,
        Scheduler::DecoupledMetricsOnly,
        Scheduler::FullCoordinator,
    ]
    .into_iter()
    .map(|s| {
        let outcome = run(s, &datasets, nodes, &storage, 14.0)
            .expect("the registry is non-empty, so only zero nodes can fail here");
        (s, outcome)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::registry;

    /// The coordinator keys its queue with [`SimTime::from_ordered_secs_f64`]
    /// — an order-preserving bit transform, not a quantization — so the
    /// event queue must pop in exact `total_cmp` order, with FIFO ties, for
    /// arbitrary `f64` second values. This pins the contract the whole
    /// evaluation subsystem's determinism rests on.
    #[test]
    fn ordered_f64_keys_drain_in_total_cmp_order() {
        let mut queue: EventQueue<usize> = EventQueue::new();
        let secs = [
            1.0e-300, 0.25, 0.25, 1.5, 1.5, 3600.0, 86_400.0, 1.0e12, 0.75,
        ];
        for (i, &s) in secs.iter().enumerate() {
            queue.schedule(SimTime::from_ordered_secs_f64(s), i);
        }
        let mut sorted: Vec<(f64, usize)> = secs.iter().copied().zip(0..).collect();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (s, i) in sorted {
            let (t, e) = queue.pop().expect("queue drains all scheduled events");
            assert_eq!((t, e), (SimTime::from_ordered_secs_f64(s), i));
        }
        assert!(queue.pop().is_none());
    }

    fn makespan(s: Scheduler, nodes: u32) -> f64 {
        run(s, &registry(), nodes, &SharedStorage::seren(), 14.0)
            .unwrap()
            .makespan_secs
    }

    #[test]
    fn empty_datasets_is_a_structured_error() {
        let err = run(
            Scheduler::FullCoordinator,
            &[],
            1,
            &SharedStorage::seren(),
            14.0,
        )
        .unwrap_err();
        assert_eq!(err, CoordinatorError::EmptyDatasets);
        assert_eq!(err.to_string(), "no datasets to evaluate");
    }

    #[test]
    fn zero_nodes_is_a_structured_error() {
        let err = run(
            Scheduler::Baseline,
            &registry(),
            0,
            &SharedStorage::seren(),
            14.0,
        )
        .unwrap_err();
        assert_eq!(err, CoordinatorError::ZeroNodes);
        assert_eq!(err.to_string(), "need at least one node");
    }

    #[test]
    fn coordinator_hits_the_paper_ratios() {
        // §6.2: makespan reduced 1.3× on one node, 1.8× on four nodes.
        let r1 = makespan(Scheduler::Baseline, 1) / makespan(Scheduler::FullCoordinator, 1);
        let r4 = makespan(Scheduler::Baseline, 4) / makespan(Scheduler::FullCoordinator, 4);
        assert!((1.15..1.55).contains(&r1), "1-node ratio {r1:.2}");
        assert!((1.55..2.1).contains(&r4), "4-node ratio {r4:.2}");
        assert!(r4 > r1, "the win grows with resources");
    }

    #[test]
    fn ablation_each_technique_helps() {
        for nodes in [1, 4] {
            let base = makespan(Scheduler::Baseline, nodes);
            let loading = makespan(Scheduler::DecoupledLoadingOnly, nodes);
            let metrics = makespan(Scheduler::DecoupledMetricsOnly, nodes);
            let full = makespan(Scheduler::FullCoordinator, nodes);
            assert!(loading < base, "loading-only should help at {nodes} nodes");
            assert!(metrics < base, "metrics-only should help at {nodes} nodes");
            assert!(
                full <= loading && full <= metrics,
                "full is best at {nodes} nodes"
            );
        }
    }

    #[test]
    fn coordinator_eliminates_redundant_remote_loads() {
        let base = run(
            Scheduler::Baseline,
            &registry(),
            4,
            &SharedStorage::seren(),
            14.0,
        )
        .unwrap();
        let full = run(
            Scheduler::FullCoordinator,
            &registry(),
            4,
            &SharedStorage::seren(),
            14.0,
        )
        .unwrap();
        assert_eq!(base.remote_loads, 63);
        // One precursor per node.
        assert_eq!(full.remote_loads, 4);
    }

    #[test]
    fn gpu_occupancy_improves() {
        let base = run(
            Scheduler::Baseline,
            &registry(),
            1,
            &SharedStorage::seren(),
            14.0,
        )
        .unwrap();
        let full = run(
            Scheduler::FullCoordinator,
            &registry(),
            1,
            &SharedStorage::seren(),
            14.0,
        )
        .unwrap();
        // Decoupling strips idle stages off the GPU, so the busy seconds
        // drop while the makespan drops too.
        assert!(full.gpu_busy_secs < base.gpu_busy_secs);
        assert!(full.makespan_secs < base.makespan_secs);
    }

    #[test]
    fn more_nodes_never_hurt() {
        for s in [Scheduler::Baseline, Scheduler::FullCoordinator] {
            assert!(makespan(s, 4) <= makespan(s, 1), "{s:?}");
            assert!(makespan(s, 8) <= makespan(s, 4), "{s:?}");
        }
    }

    #[test]
    fn single_dataset_degenerate_case() {
        let one = vec![registry()[0]];
        let r = run(
            Scheduler::FullCoordinator,
            &one,
            1,
            &SharedStorage::seren(),
            14.0,
        )
        .unwrap();
        assert!(r.makespan_secs > 0.0);
        assert_eq!(r.remote_loads, 1);
        assert_eq!(r.gpus, 8);
    }

    #[test]
    fn section62_helper_returns_all_four() {
        let rows = section62_experiment(1);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, Scheduler::Baseline);
        assert_eq!(rows[3].0, Scheduler::FullCoordinator);
    }
}
