//! Extension experiments beyond the numbered figures: the §2.1 data
//! pipeline (with Appendix A.2's dataloader comparison), the §5.3
//! loss-spike recovery policy, and the §3.1 preemption ablation.

use acme_data::loader::{DataLoader, LoaderStrategy};
use acme_data::pipeline::DataPipeline;
use acme_scheduler::{ClusterScheduler, PreemptiveScheduler, SchedulerConfig};
use acme_sim_core::{SimDuration, SimRng};
use acme_telemetry::table::{f, pct};
use acme_telemetry::Table;
use acme_training::loss::{run_with_recovery, DataSpike, LossCurve};
use acme_workload::{JobType, WorkloadGenerator};

use super::shard::{run_shards, shard};
use super::RunParams;

/// `data` — the data-preparation pipeline and dataloader memory
/// comparison (§2.1, Appendix A.2). `scale` multiplies the raw corpus.
pub fn data(p: RunParams) -> String {
    let seed = p.seed;
    let mut rng = SimRng::new(seed).fork(601);
    let (dataset, tokenizer, stats) =
        DataPipeline::new(512).run_synthetic(&mut rng, 400 * p.scale as usize, 1500, 100.0);

    let mut t = Table::new(["pipeline stage", "value"]);
    t.row(["raw documents".to_owned(), stats.raw_docs.to_string()]);
    t.row([
        "removed by detoxification".to_owned(),
        stats.detoxed.to_string(),
    ]);
    t.row([
        "removed as near-duplicates".to_owned(),
        stats.deduped.to_string(),
    ]);
    t.row([
        "curated documents".to_owned(),
        stats.curated_docs.to_string(),
    ]);
    t.row([
        "BPE vocabulary".to_owned(),
        tokenizer.vocab_size().to_string(),
    ]);
    t.row(["tokens".to_owned(), stats.total_tokens.to_string()]);
    t.row(["bytes/token".to_owned(), f(stats.bytes_per_token, 2)]);

    // Appendix A.2: dataloader strategies. The two loaders consume
    // identical forks of the seed stream, so they are independent shards.
    let loaders = vec![
        shard("loader/metadata-preload", || {
            let mut r = SimRng::new(seed).fork(602);
            DataLoader::new(&dataset, LoaderStrategy::MetadataPreload, 512, &mut r)
        }),
        shard("loader/on-the-fly", || {
            let mut r = SimRng::new(seed).fork(602);
            DataLoader::new(
                &dataset,
                LoaderStrategy::OnTheFly { buffer_docs: 8 },
                512,
                &mut r,
            )
        }),
    ];
    let mut loaders = run_shards(p.workers, loaders);
    let stream = loaders.pop().expect("two shards");
    let preload = loaders.pop().expect("two shards");
    let mut l = Table::new(["dataloader", "resident bytes", "relative"]);
    let base = preload.resident_bytes() as f64;
    for (name, loader) in [
        ("Megatron-style metadata preload", &preload),
        ("InternEvo on-the-fly", &stream),
    ] {
        l.row([
            name.to_owned(),
            loader.resident_bytes().to_string(),
            pct(loader.resident_bytes() as f64 / base),
        ]);
    }
    format!(
        "{}\n== dataloader memory (Appendix A.2) ==\n{}on-the-fly loading is \
         memory-efficient without changing the delivered batches\n",
        t.render(),
        l.render()
    )
}

/// `loss` — loss-spike detection and the rollback-and-skip-data recovery
/// (§5.3, §6.1.3).
pub fn loss(seed: u64) -> String {
    let curve = LossCurve::default();
    let spikes = [DataSpike {
        data_position: 3_000,
        width: 500,
        magnitude: 2.0,
    }];
    let mut r1 = SimRng::new(seed).fork(603);
    let mut r2 = SimRng::new(seed).fork(603);
    let with_skip = run_with_recovery(&curve, &spikes, 12_000, true, 5, &mut r1);
    let without = run_with_recovery(&curve, &spikes, 12_000, false, 3, &mut r2);
    let mut t = Table::new([
        "recovery policy",
        "spike detections",
        "iterations spent spiking",
        "final loss",
    ]);
    t.row([
        "rollback + skip data (§6.1.3)".to_owned(),
        with_skip.detections.to_string(),
        with_skip.spiked_iters.to_string(),
        f(with_skip.final_loss, 3),
    ]);
    t.row([
        "plain rollback (replay same data)".to_owned(),
        without.detections.to_string(),
        without.spiked_iters.to_string(),
        f(without.final_loss, 3),
    ]);
    format!(
        "{}skipping the offending batches clears the spike after one detection; \
         replaying the same data reproduces it\n",
        t.render()
    )
}

/// `preempt` — the §3.1 ablation: a preemption-based priority scheduler
/// vs quota reservation, priced in wasted GPU time.
pub fn preempt(seed: u64) -> String {
    let mut rng = SimRng::new(seed).fork(604);
    // A scaled-down testbed (512 GPUs, demands clipped to 256) so the cluster runs
    // near capacity — the regime where preemption actually fires and the
    // §3.1 trade-off is visible.
    let mut jobs = WorkloadGenerator::kalos().generate(&mut rng, 14.0, 0).jobs;
    for j in &mut jobs {
        j.gpus = j.gpus.min(256);
    }

    let reservation =
        ClusterScheduler::new(SchedulerConfig::with_reservation(512, 0.9)).run(jobs.clone());
    let preemptive = PreemptiveScheduler {
        total_gpus: 512,
        checkpoint_interval: SimDuration::from_mins(30),
        restore_overhead: SimDuration::from_mins(10),
    }
    .run(jobs);

    let pre_delay = |out: &[acme_workload::JobRecord]| {
        let mut d: Vec<f64> = out
            .iter()
            .filter(|j| j.job_type == JobType::Pretrain)
            .map(|j| j.queue_delay.as_mins_f64())
            .collect();
        d.sort_by(|a, b| a.total_cmp(b));
        d[d.len() / 2]
    };

    let mut t = Table::new([
        "policy",
        "pretrain median delay (min)",
        "preemptions",
        "wasted GPU-hours",
    ]);
    t.row([
        "quota reservation (production)".to_owned(),
        f(pre_delay(&reservation.jobs), 2),
        "0".to_owned(),
        "0.0".to_owned(),
    ]);
    t.row([
        "priority preemption (prior DL schedulers)".to_owned(),
        f(pre_delay(&preemptive.jobs), 2),
        preemptive.preemptions.to_string(),
        f(preemptive.wasted_gpu_seconds / 3600.0, 1),
    ]);
    format!(
        "{}both give pretraining fast starts, but preemption pays {} of useful GPU time \
         in recovery overhead — the §3.1 argument for reservation\n",
        t.render(),
        pct(preemptive.waste_fraction())
    )
}

/// `pipeline` — the Figure-1 development walk and the integrated §6.1
/// fault-tolerance campaign (deployed system vs manual baseline).
/// `scale` multiplies the corpus and both campaign horizons.
pub fn pipeline(p: RunParams) -> String {
    use crate::pipeline::{
        CampaignReport, DevelopmentPipeline, FaultTolerantTrainer, PipelineReport,
    };
    let seed = p.seed;
    let pretrain_days = 14 * p.scale as u64;
    let campaign_days = 21 * p.scale as u64;
    let horizon = SimDuration::from_days(campaign_days);

    // Three independent pieces — the staged pipeline report and the two
    // §6.1 campaign arms (each on its own forked rng stream) — fan out as
    // shards and are consumed in a fixed order.
    enum Piece {
        Report(Box<PipelineReport>),
        Campaign(Box<CampaignReport>),
    }
    let campaign_arm = |deployed: bool| {
        move || {
            let trainer = if deployed {
                FaultTolerantTrainer::deployed()
            } else {
                FaultTolerantTrainer::manual_baseline()
            };
            let mut rng = SimRng::new(seed).fork(905);
            let label = if deployed {
                "campaign/fault-tolerant"
            } else {
                "campaign/manual-baseline"
            };
            let report = if p.trace {
                let mut r = acme_obs::Recorder::new();
                let report = trainer.run_campaign_traced(
                    &mut rng,
                    SimDuration::from_hours(15),
                    horizon,
                    &mut acme_obs::Rec::on(&mut r),
                );
                acme_obs::deposit(r.into_chunk(label.to_owned()));
                report
            } else {
                trainer.run_campaign(&mut rng, SimDuration::from_hours(15), horizon)
            };
            Piece::Campaign(Box::new(report))
        }
    };
    let pieces = vec![
        shard("stage/pipeline-report", || {
            Piece::Report(Box::new(
                DevelopmentPipeline::with_scale(seed, p.scale).run(),
            ))
        }),
        shard("campaign/fault-tolerant", campaign_arm(true)),
        shard("campaign/manual-baseline", campaign_arm(false)),
    ];
    let mut pieces = run_shards(p.workers, pieces);
    let manual = pieces.pop().expect("three shards");
    let auto = pieces.pop().expect("three shards");
    let report = pieces.pop().expect("three shards");
    let (Piece::Report(report), Piece::Campaign(auto), Piece::Campaign(manual)) =
        (report, auto, manual)
    else {
        unreachable!("shards return in order")
    };

    let mut t = Table::new(["stage", "outcome"]);
    t.row([
        "1. data preparation".to_owned(),
        format!(
            "{} raw docs -> {} curated ({} detoxed, {} deduped), {} tokens",
            report.data.raw_docs,
            report.data.curated_docs,
            report.data.detoxed,
            report.data.deduped,
            report.data.total_tokens
        ),
    ]);
    t.row([
        format!("2. pretraining ({pretrain_days} days, faults)"),
        format!(
            "{} incidents, {} manual, {} cordoned, goodput {}",
            report.pretraining.incidents.len(),
            report.pretraining.manual_interventions,
            report.pretraining.nodes_cordoned,
            pct(report
                .pretraining
                .goodput(SimDuration::from_days(pretrain_days)))
        ),
    ]);
    t.row([
        "3. alignment (SFT)".to_owned(),
        format!("{:.0} GPU-hours", report.alignment_gpu_hours),
    ]);
    t.row([
        "4. evaluation (63 datasets, 4 nodes)".to_owned(),
        format!(
            "makespan {:.0}s via the trial coordinator",
            report.evaluation_makespan_secs
        ),
    ]);

    // The §6.1 campaign head-to-head.
    let mut c = Table::new([
        format!("campaign ({campaign_days} days)"),
        "incidents".to_owned(),
        "manual".to_owned(),
        "downtime (h)".to_owned(),
        "rollback (h)".to_owned(),
        "goodput".to_owned(),
    ]);
    for (name, r) in [
        ("§6.1 fault-tolerant system", &auto),
        ("manual baseline", &manual),
    ] {
        c.row([
            name.to_owned(),
            r.incidents.len().to_string(),
            r.manual_interventions.to_string(),
            f(r.downtime.as_hours_f64(), 1),
            f(r.rollback_secs / 3600.0, 1),
            pct(r.goodput(horizon)),
        ]);
    }
    format!(
        "{}
== fault-tolerant pretraining vs manual baseline ==
{}manual interventions cut by {} (paper: ~90%)
",
        t.render(),
        c.render(),
        pct(1.0 - auto.manual_interventions as f64 / manual.manual_interventions.max(1) as f64),
    )
}

/// `thermal` — §5.2 / Appendix A.5: the July-2023 overheating episode.
/// Thermally sensitive failure rates (NVLink, ECC) under normal cooling,
/// the heat wave, and the post-upgrade configuration.
pub fn thermal(seed: u64) -> String {
    use crate::monitor::ClusterMonitor;
    use acme_cluster::{ClusterSpec, ThermalModel};
    use acme_failure::FailureReason;
    use acme_telemetry::counters::metric;

    let base_weekly =
        (FailureReason::NvLinkError.spec().num + FailureReason::EccError.spec().num) as f64 / 26.0;
    let mut t = Table::new([
        "cooling regime",
        "GPUs >65°C (mem)",
        "mean failure-rate multiplier",
        "expected NVLink+ECC / week",
    ]);
    for (name, model) in [
        ("design point", ThermalModel::normal()),
        (
            "July 2023 heat wave (+5°C ambient)",
            ThermalModel::heat_wave(),
        ),
        ("after cooling upgrade", ThermalModel::upgraded_cooling()),
    ] {
        let mut rng = SimRng::new(seed).fork(701);
        let store = ClusterMonitor::new(ClusterSpec::kalos())
            .with_thermal(model)
            .sample(&mut rng, 96, 4);
        let mem = store.cdf(metric::GPU_MEM_TEMP_C).unwrap();
        let hot_share = 1.0 - mem.fraction_le(65.0);
        // Average multiplier over the sampled power population.
        let powers = store.all_values(metric::GPU_POWER_W);
        let mult = powers
            .iter()
            .map(|&p| model.failure_rate_multiplier(p))
            .sum::<f64>()
            / powers.len() as f64;
        t.row([
            name.to_owned(),
            pct(hot_share),
            f(mult, 2),
            f(base_weekly * mult, 1),
        ]);
    }
    format!(
        "{}§5.2: 7B training under the heat wave drove NVLink/ECC failures up; the cooling upgrade 'led to a significant reduction in the frequency of such failures'
",
        t.render()
    )
}

/// `hpo` — §7 future work: Hydro-style surrogate hyperparameter tuning.
pub fn hpo(seed: u64) -> String {
    use acme_training::hpo::{random_search, surrogate_search, ResponseSurface};
    use acme_training::ModelConfig;
    let s = ResponseSurface::default();
    let tokens = 2_000_000_000;
    let mut r1 = SimRng::new(seed).fork(702);
    let mut r2 = SimRng::new(seed).fork(702);
    let direct = random_search(&s, &ModelConfig::dense_123b(), 16, tokens, &mut r1);
    let hydro = surrogate_search(
        &s,
        &ModelConfig::dense_7b(),
        &ModelConfig::dense_123b(),
        16,
        2,
        tokens,
        &mut r2,
    );
    let mut t = Table::new(["tuner", "best lr", "target loss", "GPU-hours"]);
    t.row([
        "random search @123B".to_owned(),
        format!("{:.2e}", direct.best.lr),
        f(direct.target_loss, 3),
        f(direct.gpu_hours, 0),
    ]);
    t.row([
        "Hydro surrogate (7B) + transfer".to_owned(),
        format!("{:.2e}", hydro.best.lr),
        f(hydro.target_loss, 3),
        f(hydro.gpu_hours, 0),
    ]);
    format!(
        "{}surrogate tuning reaches comparable loss at {} of the direct tuning cost
",
        t.render(),
        pct(hydro.gpu_hours / direct.gpu_hours)
    )
}

/// `longseq` — §7 future work: long-sequence pretraining cost structure.
pub fn longseq(_seed: u64) -> String {
    use acme_training::longseq::{
        attention_compute_fraction, flops_per_token_at_seq, max_seq_on_one_gpu,
        required_sequence_parallelism,
    };
    use acme_training::{ModelConfig, Strategy};
    let m = ModelConfig::dense_7b();
    let strat = Strategy::hierarchical_paper(64);
    let cap = max_seq_on_one_gpu(&m, &strat);
    let mut t = Table::new([
        "sequence length",
        "attention share of FLOPs",
        "GFLOPs/token",
        "sequence-parallel degree",
    ]);
    for seq in [4_096u32, 32_768, 131_072, 524_288, 2_097_152] {
        t.row([
            seq.to_string(),
            pct(attention_compute_fraction(&m, seq)),
            f(flops_per_token_at_seq(&m, seq) / 1e9, 1),
            required_sequence_parallelism(&m, &strat, seq).to_string(),
        ]);
    }
    format!(
        "{}a single 80 GB A100 holds up to {cap} tokens of 7B activations under recompute; longer contexts require sequence parallelism
",
        t.render()
    )
}

/// `lessons` — Appendix B: the garbage-collection straggler effect and
/// the dataloader memory leak, quantified.
pub fn lessons(seed: u64) -> String {
    use acme_training::lessons::{simulate_gc, DataloaderLeak, GcPolicy};
    let mut t = Table::new([
        "GC policy (2048 ranks)",
        "mean step (ms)",
        "relative throughput",
    ]);
    for (name, policy) in [
        ("uncoordinated (Python default)", GcPolicy::Uncoordinated),
        (
            "fixed interval, aligned (InternEvo V2)",
            GcPolicy::FixedInterval { every: 10 },
        ),
    ] {
        let mut rng = SimRng::new(seed).fork(801);
        let impact = simulate_gc(policy, 2048, 2000, 100.0, 180.0, 10, &mut rng);
        t.row([
            name.to_owned(),
            f(impact.mean_step_ms, 1),
            pct(impact.relative_throughput),
        ]);
    }
    let leak = DataloaderLeak::paper_default();
    let fixed = DataloaderLeak { workers: 0, ..leak };
    format!(
        "{}
== dataloader leak ==
num_worker={}: OOM-kill after {:.1} h (Table 3 DataloaderKilled mean TTF: 26.3 h)
num_worker=0 workaround: {}
",
        t.render(),
        leak.workers,
        leak.hours_to_oom().unwrap(),
        match fixed.hours_to_oom() {
            None => "no leak, no kill".to_owned(),
            Some(h) => format!("{h:.1} h"),
        },
    )
}

/// `cache` — §4.2: caching tokenized data across checkpoint evaluations.
pub fn cache(_seed: u64) -> String {
    use acme_evaluation::benchmarks::registry;
    use acme_evaluation::cache::preprocessing_cost_over_checkpoints;
    let datasets = registry();
    let mut t = Table::new([
        "checkpoints evaluated",
        "preprocess w/o cache (s)",
        "with cache (s)",
        "saved",
    ]);
    for ckpts in [1u32, 2, 5, 10, 20] {
        let (uncached, cached) = preprocessing_cost_over_checkpoints(&datasets, ckpts);
        t.row([
            ckpts.to_string(),
            f(uncached, 0),
            f(cached, 0),
            pct(1.0 - cached / uncached),
        ]);
    }
    format!(
        "{}§4.2: \"one effective strategy is to cache the tokenized data\" — tokenization is identical across checkpoints, so every evaluation after the first pays ~5%
",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lessons_quantifies_both_appendix_b_items() {
        let s = lessons(1);
        assert!(s.contains("uncoordinated"));
        assert!(s.contains("InternEvo V2"));
        assert!(s.contains("OOM-kill"));
    }

    #[test]
    fn cache_savings_grow_with_checkpoints() {
        let s = cache(0);
        assert!(s.contains("20"));
        assert!(s.contains("saved"));
    }

    #[test]
    fn thermal_shows_heat_wave_elevation() {
        let s = thermal(1);
        assert!(s.contains("heat wave"));
        assert!(s.contains("cooling upgrade"));
    }

    #[test]
    fn hpo_reports_cost_advantage() {
        let s = hpo(2);
        assert!(s.contains("Hydro surrogate"));
        assert!(s.contains("of the direct tuning cost"));
    }

    #[test]
    fn longseq_shows_attention_takeover() {
        let s = longseq(0);
        assert!(s.contains("2097152"));
        assert!(s.contains("sequence parallelism"));
    }

    #[test]
    fn pipeline_experiment_walks_stages_and_compares() {
        let s = pipeline(RunParams::new(5));
        for needle in [
            "data preparation",
            "pretraining",
            "alignment",
            "evaluation",
            "fault-tolerant",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
        assert!(s.contains("manual interventions cut by"));
    }

    #[test]
    fn data_experiment_reports_all_stages() {
        let s = data(RunParams::new(1));
        for needle in [
            "detoxification",
            "near-duplicates",
            "BPE",
            "bytes/token",
            "on-the-fly",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn loss_experiment_contrasts_policies() {
        let s = loss(2);
        assert!(s.contains("skip data"));
        assert!(s.contains("plain rollback"));
    }

    #[test]
    fn preempt_experiment_prices_the_waste() {
        let s = preempt(3);
        assert!(s.contains("quota reservation"));
        assert!(s.contains("preemption"));
        // There must be real preemptions and waste in a two-week trace.
        let row = s
            .lines()
            .find(|l| l.contains("priority preemption"))
            .unwrap();
        let cols: Vec<&str> = row.split_whitespace().collect();
        let preemptions: u32 = cols[cols.len() - 2].parse().unwrap();
        assert!(preemptions > 0, "{row}");
    }
}
