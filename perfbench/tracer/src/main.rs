//! One traced pass of the repo benchmark (`perfbench/run.py --trace 1`).
//!
//! ```text
//! perfbench-tracer [--pass N] --seed N --report PATH --spans PATH <id>...
//! ```
//!
//! The pass runs the selection through `run_selection` exactly as
//! `repro <id>... --jobs 1` does and writes the report it would print (the
//! benchmark checks it against the untraced pass byte for byte). It then
//! replays, for every experiment whose internals the layer map covers, that
//! experiment's calls into each layer's public entry point on the same
//! inputs, one span per call. The program itself carries no spans, so a
//! replayed call is recorded as a child of the experiment (or of the
//! enclosing replayed call) it stands for; `run.py` charges self time from
//! that tree.
//!
//! Spans live in memory and are written as JSON when the pass ends, with
//! the mean cost of one span that times nothing: what tracing adds per
//! recorded call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use acme::experiments::queueing::{EVAL_BATCH_WINDOW, EXPERIMENT_GPUS, RESERVED_FRACTION};
use acme::experiments::{self, ExperimentRun, RunParams};
use acme::storm::{StormPolicies, StormPolicy, StormRunner};
use acme::NetStormRunner;
use acme_cluster::{FabricSpec, Flow, FlowSim, NetConfig, NetFabric, SharedStorage};
use acme_evaluation::coordinator::{self, Scheduler};
use acme_evaluation::faults::{run_campaign, run_campaign_traced};
use acme_evaluation::{registry, CampaignPolicy, FaultConfig, FaultPlan};
use acme_failure::storm::{NetStormConfig, StormCampaign, StormConfig, StormEngine};
use acme_failure::{DiagnosisPipeline, FailureReason, LogBundle, RecoveryAction, RecoveryManager};
use acme_obs::{Phase, Rec, Recorder};
use acme_policy::{
    CheckpointChoice, CordonPolicy, NetRecoveryPolicy, RepairModel, RetryPolicy, SweepGrid,
};
use acme_scheduler::{
    coalesce_eval_batches, ClusterScheduler, PreemptiveScheduler, SchedulerConfig,
};
use acme_sim_core::dist::{Categorical, Distribution, Exponential};
use acme_sim_core::stats::QueueStats;
use acme_sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use acme_training::checkpoint::CheckpointScenario;
use acme_workload::{FleetConfig, FleetJob, FleetShardStats, FleetStream, WorkloadGenerator};

/// Empty spans timed to price one span.
const SPAN_PROBES: u32 = 10_000;

/// Fleet arrivals drawn (then pushed) per span: large enough that the two
/// clock reads per span are noise, small enough that the batch stays in
/// cache between the stream and the stats pass.
const FLEET_BATCH: usize = 1024;

/// The evaluation fleet of `evalstorm` and `blame` (four 8-GPU nodes, the
/// 7B model's 14 GB checkpoint).
const EVAL_NODES: u32 = 4;
const EVAL_MODEL_GB: f64 = 14.0;

/// Radix of the `netstorm` fat tree (128 hosts).
const NET_RADIX: u32 = 8;

struct Span {
    name: String,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
    /// `call`: timed here; `reported`: an experiment's wall as the runner
    /// returned it.
    kind: &'static str,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Run `f` inside one span named `name` under `parent`; returns the
    /// result and the span's index.
    fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> (T, usize) {
        let start = self.origin.elapsed();
        let out = std::hint::black_box(f());
        let end = self.origin.elapsed();
        (out, self.push(name.to_owned(), parent, start, end, "call"))
    }

    fn push(
        &mut self,
        name: String,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
        kind: &'static str,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
            kind,
        });
        self.spans.len() - 1
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_insert(0.0) += v;
    }

    fn max(&mut self, key: &'static str, v: f64) {
        let e = self.counts.entry(key).or_insert(0.0);
        *e = e.max(v);
    }

    /// The pass's spans and counts, and `span_ns`, the cost of one span;
    /// `pass` identifies the pass within its benchmark run (every span here
    /// belongs to it).
    fn json(&self, pass: u64, seed: u64, span_ns: f64) -> String {
        let mut out = format!(
            "{{\"pass\": {pass}, \"seed\": {seed}, \"span_ns\": {span_ns}, \"spans\": [\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"kind\": \"{}\"}}{}\n",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.kind,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("], \"counts\": {");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            let _ = write!(out, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " });
        }
        out.push_str("}}\n");
        out
    }
}

struct Args {
    pass: u64,
    seed: u64,
    report: String,
    spans: String,
    ids: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        pass: 0,
        seed: 42,
        report: String::new(),
        spans: String::new(),
        ids: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--pass" => args.pass = value()?.parse().map_err(|e| format!("--pass: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--report" => args.report = value()?,
            "--spans" => args.spans = value()?,
            _ if a.starts_with("--") => return Err(format!("unknown flag {a}")),
            _ => args.ids.push(a),
        }
    }
    if args.report.is_empty() || args.spans.is_empty() || args.ids.is_empty() {
        return Err(
            "usage: perfbench-tracer [--pass N] --seed N --report PATH --spans PATH <id>...".into(),
        );
    }
    Ok(args)
}

/// Mean nanoseconds one span adds around a call: `SPAN_PROBES` spans that
/// time nothing, on a scratch tracer.
fn span_cost_ns() -> f64 {
    let mut probe = Tracer::new();
    let start = Instant::now();
    for _ in 0..SPAN_PROBES {
        probe.time("probe", None, || ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(SPAN_PROBES)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let selection = match experiments::select(&args.ids) {
        Ok(s) => s,
        Err(unknown) => {
            eprintln!("error: unknown experiment ids {unknown:?}");
            return ExitCode::from(2);
        }
    };
    // The same worker set-up as `repro --jobs 1`.
    experiments::set_workers(1);
    let params = RunParams::with_scale(args.seed, 1);

    let mut t = Tracer::new();
    let (runs, selection_span) = t.time("run_selection", None, || {
        experiments::run_selection(&selection, params, 1)
    });
    if let Err(e) = std::fs::write(&args.report, acme_bench::render_report(args.seed, &runs)) {
        eprintln!("error: cannot write {}: {e}", args.report);
        return ExitCode::FAILURE;
    }
    if acme_bench::any_failed(&runs) {
        eprintln!("error: an experiment FAILED");
        return ExitCode::FAILURE;
    }

    record_runner(&mut t, selection_span, &runs);
    let experiment_spans: Vec<usize> = (selection_span + 1..=selection_span + runs.len()).collect();
    let mut trace_cache_filled = false;
    for (run, &span) in runs.iter().zip(&experiment_spans) {
        let queue_host = match run.id {
            "fleet" => replay_fleet(&mut t, span, params),
            "diag" => replay_diag(&mut t, span, params),
            "storm" => replay_storm(&mut t, span, params),
            "blame" => replay_blame(&mut t, span, params),
            "policylab" => replay_policylab(&mut t, span),
            "netstorm" => replay_netstorm(&mut t, span, params),
            "fig6" => replay_fig6(&mut t, span, params),
            "preempt" => replay_preempt(&mut t, span, params),
            "fig16r" => replay_fig16r(&mut t, span),
            "evalstorm" => replay_evalstorm(&mut t, span, params),
            "table2" | "fig3" | "fig4" | "fig5" | "fig17" if !trace_cache_filled => {
                trace_cache_filled = true;
                replay_trace_cache(&mut t, span, params)
            }
            _ => None,
        };
        if run.queue.schedules > 0 {
            replay_queue_hold(&mut t, queue_host.unwrap_or(span), run.queue);
        }
    }

    if let Err(e) = std::fs::write(&args.spans, t.json(args.pass, args.seed, span_cost_ns())) {
        eprintln!("error: cannot write {}: {e}", args.spans);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Experiment spans from the walls the runner returned, laid end to end
/// from the selection's start as the one runner worker ran them, plus the
/// runner's own counters: shards, event-queue and fat-tree activity.
fn record_runner(t: &mut Tracer, selection_span: usize, runs: &[ExperimentRun]) {
    let mut cursor = t.spans[selection_span].start;
    for run in runs {
        let end = cursor + run.wall;
        t.push(
            format!("experiment.{}", run.id),
            Some(selection_span),
            cursor,
            end,
            "reported",
        );
        cursor = end;
    }
    for run in runs {
        for s in &run.shards {
            t.add("shard.count", 1.0);
            t.add("shard.busy_s", s.wall.as_secs_f64());
            t.max("shard.max_s", s.wall.as_secs_f64());
        }
        t.add("sim_core.queue.schedules", run.queue.schedules as f64);
        t.add("sim_core.queue.pops", run.queue.pops as f64);
        t.max("sim_core.queue.max_depth", run.queue.max_depth as f64);
        t.add("cluster.net.flows_routed", run.net.flows_routed as f64);
    }
}

// ---- fleet: stream → stats push → sketch insert, then sketch merges -------

fn replay_fleet(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    let cfg = FleetConfig::new(p.seed).with_jobs(p.fleet_jobs);
    // A fresh sketch at the capacity the fleet's own aggregates use.
    let fresh = FleetShardStats::new(cfg.tenants).gap_sketch;
    let mut merged_durations = fresh.clone();
    let mut merged_gaps = fresh.clone();
    let mut batch: Vec<FleetJob> = Vec::with_capacity(FLEET_BATCH);
    let mut durations = Vec::with_capacity(FLEET_BATCH);
    let mut gaps = Vec::with_capacity(FLEET_BATCH);
    for i in 0..cfg.shard_count() {
        let (mut stream, _) = t.time("workload.stream", Some(exp), || FleetStream::shard(&cfg, i));
        let mut stats = FleetShardStats::new(cfg.tenants);
        let mut duration_sketch = fresh.clone();
        let mut gap_sketch = fresh.clone();
        let mut last_submit: Option<f64> = None;
        loop {
            batch.clear();
            t.time("workload.stream", Some(exp), || {
                batch.extend((&mut stream).take(FLEET_BATCH))
            });
            if batch.is_empty() {
                break;
            }
            let (_, push) = t.time("workload.stats", Some(exp), || {
                for fj in &batch {
                    stats.push(fj);
                }
            });
            // The values `push` inserted into its two sketches, replayed
            // into sketches of the same capacity.
            durations.clear();
            gaps.clear();
            for fj in &batch {
                durations.push(fj.job.duration.as_mins_f64());
                let submit = fj.job.submit.as_secs_f64();
                if let Some(prev) = last_submit {
                    gaps.push(submit - prev);
                }
                last_submit = Some(submit);
            }
            t.time("telemetry.sketch", Some(push), || {
                for &x in &durations {
                    duration_sketch.insert(x);
                }
                for &x in &gaps {
                    gap_sketch.insert(x);
                }
            });
            t.add("workload.stream.arrivals", batch.len() as f64);
            t.add("workload.stats.pushes", batch.len() as f64);
            t.add(
                "telemetry.sketch.inserts",
                (durations.len() + gaps.len()) as f64,
            );
        }
        t.add("workload.stream.candidates", stream.candidates() as f64);
        t.time("telemetry.sketch.merge", Some(exp), || {
            merged_durations.merge(&duration_sketch);
            merged_gaps.merge(&gap_sketch);
        });
    }
    t.add(
        "telemetry.sketch.retained",
        (merged_durations.retained() + merged_gaps.retained()) as f64,
    );
    None
}

// ---- the storm family: campaign generation, replay, render + diagnose ------

/// One timed `StormEngine::generate` call.
fn generate_campaign(
    t: &mut Tracer,
    parent: usize,
    config: StormConfig,
    seed: u64,
    fork: u64,
) -> StormCampaign {
    let mut rng = SimRng::new(seed).fork(fork);
    let (campaign, _) = t.time("failure.storm", Some(parent), || {
        StormEngine::new(config).generate(&mut rng)
    });
    t.add("failure.storm.calls", 1.0);
    t.add("failure.storm.events", campaign.events.len() as f64);
    campaign
}

/// The campaign events the runner handled as incidents (the rest were
/// absorbed by an ongoing recovery), read off a recording of the replay:
/// one `Begin` per incident, at the event's time, named by its reason.
fn incident_reasons(campaign: &StormCampaign, rec: &Recorder) -> Vec<FailureReason> {
    let begins: Vec<_> = rec
        .events()
        .iter()
        .filter(|e| e.phase == Phase::Begin)
        .collect();
    let mut next = 0;
    let mut reasons = Vec::with_capacity(begins.len());
    for e in &campaign.events {
        if let Some(b) = begins.get(next) {
            if b.ts_secs == e.at.as_secs_f64() && b.name == e.reason.label() {
                reasons.push(e.reason);
                next += 1;
            }
        }
    }
    assert_eq!(
        next,
        begins.len(),
        "every recorded incident maps onto a campaign event"
    );
    reasons
}

/// One timed `StormRunner::run_with` call (`run_with_traced` with a
/// recorder where the experiment records, as `blame` does), then the log
/// rendering and diagnosis inside it: every incident's bundle rendered at
/// the cell's depth and diagnosed by a fresh all-rules pipeline, as
/// children of the replay span.
fn run_storm_cell(
    t: &mut Tracer,
    parent: usize,
    campaign: &StormCampaign,
    policies: &StormPolicies,
    arm: (u64, u64),
    recorded: bool,
) {
    let runner = StormRunner::deployed(campaign.fleet_nodes);
    let arm_rng = || SimRng::new(arm.0).fork(arm.1);
    let mut rec = Recorder::new();
    let (outcome, span) = if recorded {
        let mut rng = arm_rng();
        t.time("core.storm", Some(parent), || {
            runner.run_with_traced(campaign, policies, &mut rng, &mut Rec::on(&mut rec))
        })
    } else {
        let mut rng = arm_rng();
        let timed = t.time("core.storm", Some(parent), || {
            runner.run_with(campaign, policies, &mut rng)
        });
        // Untimed: the same replay with a recorder, to learn which events
        // became incidents.
        runner.run_with_traced(campaign, policies, &mut arm_rng(), &mut Rec::on(&mut rec));
        timed
    };
    let reasons = incident_reasons(campaign, &rec);
    assert_eq!(reasons.len(), outcome.incidents as usize);
    t.add("core.storm.calls", 1.0);
    t.add("core.storm.incidents", f64::from(outcome.incidents));

    let mut pipeline = DiagnosisPipeline::with_all_rules();
    let mut rng = arm_rng();
    for reason in reasons {
        let (bundle, _) = t.time("failure.logs", Some(span), || {
            LogBundle::generate(reason, policies.noise_lines, &mut rng)
        });
        t.add("failure.logs.calls", 1.0);
        t.add("failure.logs.lines", bundle.lines.len() as f64);
        let (report, _) = t.time("failure.diagnose", Some(span), || {
            pipeline.diagnose(&bundle.lines)
        });
        t.add("failure.diagnose.calls", 1.0);
        t.add(
            "failure.diagnose.escalated",
            f64::from(u8::from(report.is_none())),
        );
    }
}

const ARMS: [StormPolicy; 3] = [
    StormPolicy::NaiveRestart,
    StormPolicy::RetryBackoff,
    StormPolicy::FullOrchestrator,
];

fn replay_storm(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    let campaign = generate_campaign(t, exp, StormConfig::scaled(p.scale), p.seed, 1001);
    for policy in ARMS {
        let arm = (p.seed, 1002 + policy as u64);
        run_storm_cell(
            t,
            exp,
            &campaign,
            &StormPolicies::for_arm(policy),
            arm,
            false,
        );
    }
    None
}

/// `diag`: the learning pipeline (infrastructure rules seeded, the rest
/// learned as it goes) on 400 Table-3-distributed bundles — the experiment's
/// own draw sequence, so every bundle and diagnosis is the one it made.
fn replay_diag(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    let mut rng = SimRng::new(p.seed).fork(502);
    let seeded: Vec<FailureReason> = FailureReason::ALL
        .iter()
        .copied()
        .filter(|r| r.is_infrastructure())
        .collect();
    let mut pipeline = DiagnosisPipeline::new(&seeded);
    let weights: Vec<f64> = FailureReason::ALL
        .iter()
        .map(|r| r.spec().num as f64)
        .collect();
    let picker = Categorical::new(&weights);
    let mut lines: Vec<String> = Vec::new();
    for _ in 0..400 * p.scale as usize {
        let truth = FailureReason::ALL[picker.sample_index(&mut rng)];
        t.time("failure.logs", Some(exp), || {
            LogBundle::generate_into(&mut lines, truth, 120, &mut rng)
        });
        t.add("failure.logs.calls", 1.0);
        t.add("failure.logs.lines", lines.len() as f64);
        let (report, _) = t.time("failure.diagnose", Some(exp), || pipeline.diagnose(&lines));
        t.add("failure.diagnose.calls", 1.0);
        match report {
            None => t.add("failure.diagnose.escalated", 1.0),
            Some(report) => {
                if let RecoveryAction::AutoRestart { cordon_nodes: true } =
                    RecoveryManager.decide(&report)
                {
                    rng.below(302); // the cordon target draw, as in the experiment
                }
            }
        }
    }
    None
}

/// The evaluation campaign `evalstorm` and `blame` share: fault-free
/// reference run, then the seeded fault plan.
fn eval_campaign(
    t: &mut Tracer,
    exp: usize,
    p: RunParams,
) -> (Vec<acme_evaluation::Dataset>, FaultPlan, usize) {
    let datasets: Vec<_> = (0..p.scale).flat_map(|_| registry()).collect();
    let storage = SharedStorage::seren();
    let (clean, span) = t.time("evaluation", Some(exp), || {
        coordinator::run(
            Scheduler::FullCoordinator,
            &datasets,
            EVAL_NODES,
            &storage,
            EVAL_MODEL_GB,
        )
    });
    let clean = clean.expect("the registry is non-empty and the fleet has nodes");
    t.add("evaluation.campaigns", 1.0);
    let config = FaultConfig::default_campaign(EVAL_NODES, clean.makespan_secs);
    let plan = FaultPlan::generate(&config, &mut SimRng::new(p.seed).fork(1101));
    (datasets, plan, span)
}

fn replay_blame(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    let campaign = generate_campaign(t, exp, StormConfig::scaled(p.scale), p.seed, 1001);
    let full = StormPolicy::FullOrchestrator;
    let arm = (p.seed, 1002 + full as u64);
    run_storm_cell(t, exp, &campaign, &StormPolicies::for_arm(full), arm, true);

    let (datasets, plan, _) = eval_campaign(t, exp, p);
    let storage = SharedStorage::seren();
    let mut rec = Recorder::new();
    let (outcome, span) = t.time("evaluation", Some(exp), || {
        run_campaign_traced(
            CampaignPolicy::FaultTolerant,
            &datasets,
            EVAL_NODES,
            &storage,
            EVAL_MODEL_GB,
            &plan,
            &mut Rec::on(&mut rec),
        )
    });
    outcome.expect("the campaign inputs are valid");
    t.add("evaluation.campaigns", 1.0);
    Some(span)
}

/// The policy lab's eight bundles: the three legacy arms at sweep depth,
/// then one policy dimension varied off the full orchestrator each.
fn sweep_bundles() -> Vec<StormPolicies> {
    let mut bundles: Vec<StormPolicies> = ARMS
        .iter()
        .map(|&arm| StormPolicies {
            noise_lines: 24,
            ..StormPolicies::for_arm(arm)
        })
        .collect();
    let full = bundles[2];
    bundles.push(StormPolicies {
        checkpoint: CheckpointChoice::young_daly(),
        ..full
    });
    bundles.push(StormPolicies {
        checkpoint: CheckpointChoice::adaptive(),
        ..full
    });
    let mut patient = full;
    patient.orchestrator.retry = RetryPolicy::patient();
    bundles.push(patient);
    let mut strikes = full;
    strikes.orchestrator.cordon = CordonPolicy::strikes(3);
    bundles.push(strikes);
    bundles.push(StormPolicies {
        repair: RepairModel::expedited(),
        ..full
    });
    bundles
}

fn replay_policylab(t: &mut Tracer, exp: usize) -> Option<usize> {
    let bundles = sweep_bundles();
    let grid = SweepGrid {
        n_policies: bundles.len(),
        seeds: vec![42, 7, 3],
        intensities: vec![1, 2, 3],
    };
    for cell in grid.cells() {
        let campaign =
            generate_campaign(t, exp, StormConfig::scaled(cell.intensity), cell.seed, 1001);
        let arm = (
            cell.seed,
            3000 + cell.policy as u64 * 16 + u64::from(cell.intensity),
        );
        run_storm_cell(t, exp, &campaign, &bundles[cell.policy], arm, false);
    }
    None
}

/// `netstorm`: the storm plus its network fault stream, the checkpoint
/// write path through the fat tree (healthy, then with the storage pod
/// congested), and the three recovery arms.
fn replay_netstorm(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    let mut config = StormConfig::scaled(p.scale);
    config.fleet_nodes = NET_RADIX * NET_RADIX * NET_RADIX / 4;
    config.net = Some(NetStormConfig::default_net());
    let campaign = generate_campaign(t, exp, config, p.seed, 1101);

    let spec = FabricSpec::kalos();
    let mut fabric = NetFabric::new(spec, NetConfig::for_fabric(&spec, NET_RADIX));
    let scenario = CheckpointScenario::paper_123b();
    let hosts = fabric.tree().hosts();
    let storage_pod = fabric.tree().pods() - 1;
    let gateways: Vec<u32> = fabric.tree().hosts_under_pod(storage_pod).collect();
    let flows: Vec<Flow> = (0..scenario.writers)
        .map(|w| Flow {
            src: w * hosts / scenario.writers,
            dst: gateways[w as usize % gateways.len()],
            gb: scenario.shard_gb(),
            start: SimTime::ZERO,
            tag: u64::from(w),
        })
        .collect();
    t.time("core.netstorm", Some(exp), || {
        FlowSim::new(&fabric).run(&flows)
    });
    let factor = f64::from(NetStormConfig::default_net().congestion_factor_pct) / 100.0;
    fabric.congest_pod(storage_pod, factor);
    t.time("core.netstorm", Some(exp), || {
        FlowSim::new(&fabric).run(&flows)
    });

    let runner = NetStormRunner::deployed(NET_RADIX);
    let arms = [
        NetRecoveryPolicy::naive(),
        NetRecoveryPolicy::topology_blind(),
        NetRecoveryPolicy::topology_aware(),
    ];
    let mut last = exp;
    for (i, policy) in arms.iter().enumerate() {
        let mut rng = SimRng::new(p.seed).fork(4000 + i as u64);
        last = t
            .time("core.netstorm", Some(exp), || {
                runner.run(&campaign, policy, &mut rng)
            })
            .1;
    }
    Some(last)
}

// ---- scheduling: generator, cluster schedulers, evaluation coordinator -----

fn replay_fig6(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    let mut last = exp;
    for with_reservation in [true, false] {
        let mut rng = SimRng::new(p.seed).fork(201);
        let (mut jobs, _) = t.time("workload.generator", Some(exp), || {
            WorkloadGenerator::kalos().generate(&mut rng, 30.0, 0).jobs
        });
        t.add("workload.generator.jobs", jobs.len() as f64);
        coalesce_eval_batches(&mut jobs, EVAL_BATCH_WINDOW);
        let config = if with_reservation {
            SchedulerConfig::with_reservation(EXPERIMENT_GPUS, RESERVED_FRACTION)
        } else {
            SchedulerConfig::without_reservation(EXPERIMENT_GPUS)
        };
        t.add("scheduler.jobs", jobs.len() as f64);
        last = t
            .time("scheduler", Some(exp), || {
                ClusterScheduler::new(config).run(jobs)
            })
            .1;
    }
    Some(last)
}

fn replay_preempt(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    let mut rng = SimRng::new(p.seed).fork(604);
    let (mut jobs, _) = t.time("workload.generator", Some(exp), || {
        WorkloadGenerator::kalos().generate(&mut rng, 14.0, 0).jobs
    });
    t.add("workload.generator.jobs", jobs.len() as f64);
    for j in &mut jobs {
        j.gpus = j.gpus.min(256);
    }
    let copy = jobs.clone();
    t.time("scheduler", Some(exp), || {
        ClusterScheduler::new(SchedulerConfig::with_reservation(512, 0.9)).run(copy)
    });
    t.add("scheduler.jobs", 2.0 * jobs.len() as f64);
    let preemptive = PreemptiveScheduler {
        total_gpus: 512,
        checkpoint_interval: SimDuration::from_mins(30),
        restore_overhead: SimDuration::from_mins(10),
    };
    Some(t.time("scheduler", Some(exp), || preemptive.run(jobs)).1)
}

fn replay_fig16r(t: &mut Tracer, exp: usize) -> Option<usize> {
    let datasets = registry();
    let storage = SharedStorage::seren();
    let mut last = exp;
    for nodes in [1u32, 4] {
        for s in [
            Scheduler::Baseline,
            Scheduler::DecoupledLoadingOnly,
            Scheduler::DecoupledMetricsOnly,
            Scheduler::FullCoordinator,
        ] {
            let (run, span) = t.time("evaluation", Some(exp), || {
                coordinator::run(s, &datasets, nodes, &storage, EVAL_MODEL_GB)
            });
            run.expect("the registry is non-empty");
            t.add("evaluation.campaigns", 1.0);
            last = span;
        }
    }
    Some(last)
}

fn replay_evalstorm(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    let (datasets, plan, mut last) = eval_campaign(t, exp, p);
    let storage = SharedStorage::seren();
    for policy in CampaignPolicy::ALL {
        let (outcome, span) = t.time("evaluation", Some(exp), || {
            run_campaign(
                policy,
                &datasets,
                EVAL_NODES,
                &storage,
                EVAL_MODEL_GB,
                &plan,
            )
        });
        outcome.expect("the campaign inputs are valid");
        t.add("evaluation.campaigns", 1.0);
        last = span;
    }
    Some(last)
}

/// The Seren-month and Kalos-six-month traces that `table2`, `fig3`,
/// `fig4`, `fig5` and `fig17` share through one cache: the first of them
/// in the selection pays for generating both.
fn replay_trace_cache(t: &mut Tracer, exp: usize, p: RunParams) -> Option<usize> {
    for (generator, fork, days) in [
        (WorkloadGenerator::seren(), 101, 30.0),
        (WorkloadGenerator::kalos(), 102, 183.0),
    ] {
        let mut rng = SimRng::new(p.seed).fork(fork);
        let (trace, _) = t.time("workload.generator", Some(exp), || {
            generator.generate(&mut rng, days, 0)
        });
        t.add("workload.generator.jobs", trace.jobs.len() as f64);
    }
    None
}

// ---- sim-core event queue: a hold replay at the recorded counts ------------

/// Fill one queue to the experiment's peak depth, hold it there with
/// pop + reschedule pairs until the recorded schedule count is spent, then
/// pop the rest of the recorded pops. Increments are drawn before the span
/// opens, so the span times queue operations only.
fn replay_queue_hold(t: &mut Tracer, parent: usize, stats: QueueStats) {
    let depth = stats.max_depth;
    let holds = stats.schedules.saturating_sub(depth).min(stats.pops);
    let gap = Exponential::with_mean(1_000.0);
    let mut rng = SimRng::new(stats.schedules).fork(stats.max_depth);
    let gaps: Vec<SimDuration> = (0..depth + holds)
        .map(|_| SimDuration::from_micros(1 + gap.sample(&mut rng) as u64))
        .collect();
    t.time("sim_core.queue", Some(parent), || {
        let mut q = EventQueue::new();
        let mut next_gap = gaps.iter().copied();
        let mut gap = || next_gap.next().expect("one increment per schedule");
        for i in 0..depth {
            q.schedule(SimTime::ZERO + gap(), i);
        }
        for _ in 0..holds {
            let (at, e) = q.pop().expect("held events are pending");
            q.schedule(at + gap(), e);
        }
        for _ in holds..stats.pops {
            q.pop();
        }
        q.len()
    });
}
