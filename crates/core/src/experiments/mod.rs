//! The experiment registry: one entry per paper table/figure.
//!
//! Every experiment is a pure function of a seed, returning the printable
//! rows/series the paper reports. The `repro` binary in `acme-bench` is a
//! thin dispatcher over [`select`] / [`run_selection`]; `EXPERIMENTS.md`
//! records paper-vs-measured for each id.

mod blame;
mod evalstorm;
mod evaluation;
mod extensions;
mod failures;
mod fleet;
mod infra;
mod netstorm;
mod policylab;
pub mod queueing;
pub mod runner;
pub mod shard;
mod storm;
mod training;
mod workload;

pub use runner::{default_jobs, run_selection, ExperimentRun};
pub use shard::{set_workers, ShardTiming};

/// Inputs to one experiment run.
///
/// `scale` is the stress knob behind `repro --scale`: it multiplies the
/// workload of the eight heavy experiments — `data` corpus size, `diag`
/// log volume, `pipeline` campaign length, the storm horizon that
/// `storm`, `blame` and `netstorm` replay, the dataset registry
/// `evalstorm` runs, and `policylab`'s fault intensities. The other
/// experiments ignore it. At `scale == 1` every experiment's output is
/// byte-identical to the historical seed-only interface — the
/// golden-output test pins this down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunParams {
    /// RNG seed; every experiment is a pure function of it.
    pub seed: u64,
    /// Workload multiplier for the heavy experiments (≥ 1).
    pub scale: u32,
    /// Total arrivals for the open-system `fleet` experiment; the other
    /// experiments ignore it.
    pub fleet_jobs: u64,
    /// When true, instrumented experiments record flight-recorder chunks
    /// (deposited via `acme_obs::deposit` and collected by the runner).
    /// Must never change any experiment's stdout: recording happens beside
    /// the simulation, not inside its control flow.
    pub trace: bool,
    /// Shard worker count for the experiments that fan out internally
    /// ([`shard::run_shards`]). 1 (inline) from every constructor;
    /// [`run_selection`] sets it from its `jobs`.
    pub(crate) workers: usize,
}

/// Default arrival count for `repro fleet`: ~267 simulated days of the
/// combined Seren+Kalos fleet.
pub const DEFAULT_FLEET_JOBS: u64 = 1_000_000;

impl RunParams {
    /// Default-scale parameters for a seed.
    pub fn new(seed: u64) -> Self {
        RunParams {
            seed,
            scale: 1,
            fleet_jobs: DEFAULT_FLEET_JOBS,
            trace: false,
            workers: 1,
        }
    }

    /// Parameters with an explicit scale factor (clamped to ≥ 1).
    pub fn with_scale(seed: u64, scale: u32) -> Self {
        RunParams {
            scale: scale.max(1),
            ..RunParams::new(seed)
        }
    }

    /// These parameters with a different fleet arrival count.
    pub fn with_fleet_jobs(mut self, jobs: u64) -> Self {
        self.fleet_jobs = jobs;
        self
    }

    /// These parameters with flight-recorder tracing on or off.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// One reproducible artifact.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Short id (`fig10`, `table3`, `ckpt`, …).
    pub id: &'static str,
    /// What the artifact shows.
    pub title: &'static str,
    /// One-line description for `repro --list`: what the experiment
    /// simulates and what the headline numbers mean.
    pub desc: &'static str,
    /// Produce the rows for a seed (+ scale, where it applies).
    pub run: fn(RunParams) -> String,
}

/// Every experiment, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1: cluster specifications",
            desc: "Hardware/interconnect specs of the Seren and Kalos clusters.",
            run: |p| workload::table1(p.seed),
        },
        Experiment {
            id: "table2",
            title: "Table 2: datacenter comparison",
            desc: "LLM vs prior DL datacenter traces: duration, jobs, GPUs per job, fleet GPUs.",
            run: |p| workload::table2(p.seed),
        },
        Experiment {
            id: "fig2",
            title: "Figure 2: job duration & GPU utilization across datacenters",
            desc: "CDFs of job runtime and GPU utilization against Philly/Helios.",
            run: workload::fig2,
        },
        Experiment {
            id: "fig3",
            title: "Figure 3: job count & GPU time vs requested GPUs",
            desc: "How job counts and GPU-time concentrate by requested GPU count.",
            run: |p| workload::fig3(p.seed),
        },
        Experiment {
            id: "fig4",
            title: "Figure 4: workload-type shares of jobs and GPU time",
            desc: "Share of jobs vs GPU time per workload type (eval dominates count).",
            run: |p| workload::fig4(p.seed),
        },
        Experiment {
            id: "fig5",
            title: "Figure 5: GPU demand per workload type (boxplots)",
            desc: "GPU-demand quartiles per workload type; pretraining takes the bulk.",
            run: |p| workload::fig5(p.seed),
        },
        Experiment {
            id: "fig6",
            title: "Figure 6: duration & queuing delay per workload type",
            desc: "Run-time and queue-delay CDFs per workload type from the sim trace.",
            run: |p| queueing::fig6(p.seed),
        },
        Experiment {
            id: "fig7",
            title: "Figure 7: infrastructure utilization CDFs",
            desc: "CPU, host-memory, GPU-memory and network utilization CDFs.",
            run: |p| infra::fig7(p.seed),
        },
        Experiment {
            id: "fig8",
            title: "Figure 8: GPU & server power CDFs",
            desc: "Per-GPU and whole-server power draw distributions.",
            run: |p| infra::fig8(p.seed),
        },
        Experiment {
            id: "fig9",
            title: "Figure 9: server power split by module",
            desc: "Where server watts go: GPUs, CPUs, memory, fans, the rest.",
            run: |p| infra::fig9(p.seed),
        },
        Experiment {
            id: "fig10",
            title: "Figure 10: SM utilization, 123B over 2048 GPUs (V1 vs V2)",
            desc: "SM-utilization timeline of a 123B run before/after stack tuning.",
            run: |p| training::fig10(p.seed),
        },
        Experiment {
            id: "fig11",
            title: "Figure 11: memory snapshot per strategy",
            desc: "GPU-memory footprint under different parallelism strategies.",
            run: |p| training::fig11(p.seed),
        },
        Experiment {
            id: "fig12",
            title: "Figure 12: per-pipeline-rank memory (1F1B)",
            desc: "Memory per pipeline rank under the 1F1B schedule.",
            run: |p| training::fig12(p.seed),
        },
        Experiment {
            id: "fig13",
            title: "Figure 13: SM utilization over a HumanEval evaluation",
            desc: "Stage-by-stage SM utilization across one HumanEval pass.",
            run: |p| evaluation::fig13(p.seed),
        },
        Experiment {
            id: "fig14",
            title: "Figure 14: training progress with manual recovery",
            desc: "Kept vs lost iterations, downtime and restarts: manual vs automatic recovery.",
            run: |p| training::fig14(p.seed),
        },
        Experiment {
            id: "table3",
            title: "Table 3: failure statistics",
            desc: "Failure taxonomy: frequency and GPU-time cost per root cause.",
            run: |p| failures::table3(p.seed),
        },
        Experiment {
            id: "fig16l",
            title: "Figure 16 (left): model loading speed vs concurrency",
            desc: "Checkpoint-load throughput as loader concurrency scales.",
            run: |p| evaluation::fig16l(p.seed),
        },
        Experiment {
            id: "fig16r",
            title: "Figure 16 (right): baseline vs decoupled evaluation makespan",
            desc: "Makespan, speedup, remote loads and occupancy of four schedulers at 1/4 nodes.",
            run: |p| evaluation::fig16r(p.seed),
        },
        Experiment {
            id: "fig17",
            title: "Figure 17: final job statuses",
            desc: "Completed/cancelled/failed shares of jobs and GPU time.",
            run: |p| workload::fig17(p.seed),
        },
        Experiment {
            id: "fig18",
            title: "Figure 18: host memory breakdown on a pretraining node",
            desc: "Host-memory anatomy of a pretraining node (cache, heap, pinned).",
            run: |p| infra::fig18(p.seed),
        },
        Experiment {
            id: "fig19",
            title: "Figure 19: SM utilization at 1024 GPUs",
            desc: "SM utilization of the 123B model re-sharded onto 1024 GPUs.",
            run: |p| training::fig19(p.seed),
        },
        Experiment {
            id: "fig20",
            title: "Figure 20: memory snapshot at 1024 GPUs",
            desc: "GPU-memory snapshot of the 1024-GPU re-sharded configuration.",
            run: |p| training::fig20(p.seed),
        },
        Experiment {
            id: "fig21",
            title: "Figure 21: GPU core & memory temperature CDFs",
            desc: "Core and HBM temperature distributions across the fleet.",
            run: |p| infra::fig21(p.seed),
        },
        Experiment {
            id: "fig22",
            title: "Figure 22: MoE pretraining SM utilization",
            desc: "SM utilization of MoE pretraining vs the dense baseline.",
            run: |p| training::fig22(p.seed),
        },
        Experiment {
            id: "ckpt",
            title: "§6.1: sync vs async checkpointing (3.6–58.7×)",
            desc: "Checkpoint-stall reduction from asynchronous checkpointing.",
            run: |p| training::ckpt(p.seed),
        },
        Experiment {
            id: "diag",
            title: "§6.1: diagnosis accuracy & manual-intervention reduction",
            desc: "LLM-assisted log diagnosis accuracy and saved manual escalations.",
            run: failures::diag,
        },
        Experiment {
            id: "carbon",
            title: "Appendix A.3: energy & carbon accounting",
            desc: "Fleet energy use and carbon totals under the paper's assumptions.",
            run: |p| infra::carbon(p.seed),
        },
        Experiment {
            id: "data",
            title: "§2.1/A.2: data-preparation pipeline & dataloader memory",
            desc: "Corpus dedup/tokenize pipeline and dataloader memory accounting.",
            run: extensions::data,
        },
        Experiment {
            id: "loss",
            title: "§5.3/§6.1.3: loss-spike detection and recovery",
            desc: "Loss-spike detector ROC and rollback-and-skip recovery cost.",
            run: |p| extensions::loss(p.seed),
        },
        Experiment {
            id: "preempt",
            title: "§3.1 ablation: preemption vs quota reservation",
            desc: "Scheduler ablation: preemption against static quota reservation.",
            run: |p| extensions::preempt(p.seed),
        },
        Experiment {
            id: "pipeline",
            title: "Figure 1/15: development walk & integrated fault tolerance",
            desc: "End-to-end development pipeline walk plus fault-tolerant campaign.",
            run: extensions::pipeline,
        },
        Experiment {
            id: "thermal",
            title: "§5.2/A.5: overheating episode & cooling upgrade",
            desc: "Thermal-throttling episode replay and post-upgrade comparison.",
            run: |p| extensions::thermal(p.seed),
        },
        Experiment {
            id: "hpo",
            title: "§7 future work: Hydro-style surrogate hyperparameter tuning",
            desc: "Surrogate-model hyperparameter search vs full-size trial cost.",
            run: |p| extensions::hpo(p.seed),
        },
        Experiment {
            id: "longseq",
            title: "§7 future work: long-sequence pretraining cost structure",
            desc: "Attention/activation cost scaling as sequence length grows.",
            run: |p| extensions::longseq(p.seed),
        },
        Experiment {
            id: "lessons",
            title: "Appendix B: GC stragglers & the dataloader leak",
            desc: "Two postmortems: GC-induced stragglers and a dataloader leak.",
            run: |p| extensions::lessons(p.seed),
        },
        Experiment {
            id: "cache",
            title: "§4.2: tokenized-data caching across checkpoint evaluations",
            desc: "Hit rates and saved work from caching tokenized eval data.",
            run: |p| extensions::cache(p.seed),
        },
        Experiment {
            id: "storm",
            title: "§6.1 stress: fault-storm recovery-policy ablation",
            desc: "14-day fault storm (x --scale) replayed under three recovery policies.",
            run: storm::storm,
        },
        Experiment {
            id: "evalstorm",
            title: "§6.2 stress: fault-tolerant evaluation-campaign ablation",
            desc: "Faulty evaluation campaign under naive/retry/full coordinators.",
            run: evalstorm::evalstorm,
        },
        Experiment {
            id: "fleet",
            title: "§2/§3 stress: open-system fleet at 10⁶ streamed arrivals",
            desc: "Streaming million-job fleet with mergeable quantile sketches.",
            run: fleet::fleet,
        },
        Experiment {
            id: "blame",
            title: "§5/§6 observability: fault-stage blame attribution",
            desc: "Replays the storm and evalstorm arms; decomposes their lost goodput \
                   and wasted GPU-time per fault category x recovery stage.",
            run: blame::blame,
        },
        Experiment {
            id: "policylab",
            title: "§6 policy lab: recovery-policy Pareto sweep over fault intensity",
            desc: "Sweeps checkpoint/retry/cordon/repair policies across seeds and \
                   storm intensities; prints the Pareto frontier over goodput, \
                   human actions and wasted GPU-time.",
            run: policylab::policylab,
        },
        Experiment {
            id: "netstorm",
            title: "§5/§6 robustness: topology-aware network-fault ablation",
            desc: "Replays the fault storm plus link flaps, switch deaths and \
                   congestion windows on a k=8 fat tree; ablates naive vs \
                   topology-blind vs topology-aware recovery.",
            run: netstorm::netstorm,
        },
    ]
}

/// Resolve requested ids into registry experiments, in request order and
/// with duplicates preserved; the id `all` expands to the full registry in
/// paper order. Unknown ids are returned in `Err` (none are run).
pub fn select(ids: &[String]) -> Result<Vec<Experiment>, Vec<String>> {
    let registry = all();
    if ids.iter().any(|i| i == "all") {
        return Ok(registry);
    }
    let mut selection = Vec::with_capacity(ids.len());
    let mut unknown = Vec::new();
    for id in ids {
        match registry.iter().find(|e| e.id == *id) {
            Some(e) => selection.push(*e),
            None => unknown.push(id.clone()),
        }
    }
    if unknown.is_empty() {
        Ok(selection)
    } else {
        Err(unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_listed_artifact() {
        let ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        for expected in [
            "table1",
            "table2",
            "table3",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig16l",
            "fig16r",
            "fig17",
            "fig18",
            "fig19",
            "fig20",
            "fig21",
            "fig22",
            "ckpt",
            "diag",
            "carbon",
            "data",
            "loss",
            "preempt",
            "pipeline",
            "thermal",
            "hpo",
            "longseq",
            "lessons",
            "cache",
            "storm",
            "evalstorm",
            "fleet",
            "blame",
            "policylab",
            "netstorm",
        ] {
            assert!(ids.contains(&expected), "missing {expected}");
        }
        assert_eq!(ids.len(), 42);
        assert_eq!(
            ids.last(),
            Some(&"netstorm"),
            "new experiments append at the end so the historical registry is a stable prefix"
        );
        // Every entry carries a --list description.
        for e in all() {
            assert!(!e.desc.is_empty(), "{} has no description", e.id);
        }
        // Ids unique.
        let set: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(set.len(), ids.len());
    }

    #[test]
    fn every_experiment_runs_and_is_deterministic() {
        // Keep the fleet small here; the default 10⁶ arrivals belong to
        // `repro fleet` and the CI smoke, not the unit suite.
        let params = RunParams::new(7).with_fleet_jobs(20_000);
        for e in all() {
            let a = (e.run)(params);
            let b = (e.run)(params);
            assert!(!a.is_empty(), "{} produced nothing", e.id);
            assert_eq!(a, b, "{} is nondeterministic", e.id);
        }
    }

    #[test]
    fn scale_grows_the_heavy_experiments_only() {
        // The stress knob must actually change the heavy workloads…
        let heavy = [
            "data",
            "diag",
            "pipeline",
            "storm",
            "evalstorm",
            "blame",
            "policylab",
            "netstorm",
        ];
        for e in select(&heavy.map(String::from)).unwrap() {
            let base = (e.run)(RunParams::new(3));
            let scaled = (e.run)(RunParams::with_scale(3, 2));
            assert_ne!(base, scaled, "{} ignored scale", e.id);
        }
        // …and leave a scale-insensitive experiment untouched.
        let table1 = select(&["table1".to_owned()]).unwrap()[0];
        assert_eq!(
            (table1.run)(RunParams::new(3)),
            (table1.run)(RunParams::with_scale(3, 4))
        );
    }

    #[test]
    fn with_scale_clamps_zero_to_one() {
        assert_eq!(RunParams::with_scale(1, 0).scale, 1);
        assert_eq!(RunParams::with_scale(1, 16).scale, 16);
        assert_eq!(RunParams::with_scale(1, 2).fleet_jobs, DEFAULT_FLEET_JOBS);
        assert_eq!(RunParams::new(1).with_fleet_jobs(5).fleet_jobs, 5);
        assert!(!RunParams::new(1).trace, "tracing defaults off");
        assert!(RunParams::new(1).with_trace(true).trace);
    }

    #[test]
    fn select_expands_all_and_preserves_order() {
        let ids = vec!["all".to_string()];
        assert_eq!(select(&ids).unwrap().len(), all().len());
        let ids = vec![
            "table3".to_string(),
            "fig2".to_string(),
            "table3".to_string(),
        ];
        let sel = select(&ids).unwrap();
        let got: Vec<&str> = sel.iter().map(|e| e.id).collect();
        assert_eq!(got, vec!["table3", "fig2", "table3"]);
    }

    #[test]
    fn select_reports_unknown_ids() {
        let ids = vec!["fig2".to_string(), "bogus".to_string(), "nope".to_string()];
        assert_eq!(select(&ids).unwrap_err(), vec!["bogus", "nope"]);
    }
}
