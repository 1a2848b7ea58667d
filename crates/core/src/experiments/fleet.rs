//! Fleet-scale stress: the open-system arrival stream at 10⁶⁺ jobs.
//!
//! Everything the closed-world experiments report is bounded by what fits
//! in memory: a month of Seren is ~10⁵ jobs, materialized. The fleet
//! experiment runs both clusters side by side for simulated *months* —
//! 10⁶ jobs by default, ~267 days at the calibrated 3 740 jobs/day — and
//! never materializes a single shard: arrivals stream out of
//! [`FleetStream`](acme_workload::FleetStream) one record at a time and
//! fold into mergeable bounded-memory aggregates ([`FleetShardStats`]:
//! flat counter tables plus KLL-style quantile sketches). Peak RSS is
//! O(shards × sketch k), independent of job count; the CI smoke test pins
//! it below 256 MiB and asserts it barely moves between 10⁵ and 10⁶ jobs.
//!
//! Shards are pure functions of `(seed, shard index)` and merge in shard
//! order, so the output is byte-identical at any `--jobs` worker count.

use acme_telemetry::table::{pct, render_quantiles};
use acme_telemetry::Table;
use acme_workload::{FleetConfig, FleetShardStats};

use super::shard::{run_shards, shard};
use super::RunParams;

/// Quantiles printed for the sketch-backed distributions.
const QS: [f64; 7] = [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];

/// `repro fleet` — multi-cluster, multi-tenant open-system run.
pub fn fleet(p: RunParams) -> String {
    let config = FleetConfig::new(p.seed).with_jobs(p.fleet_jobs);
    let shards: Vec<_> = (0..config.shard_count())
        .map(|i| {
            let cfg = config.clone();
            let (lo, hi) = config.shard_range(i);
            shard(format!("fleet/{lo}..{hi}"), move || {
                if p.trace {
                    let mut r = acme_obs::Recorder::new();
                    let s = FleetShardStats::collect(&cfg, i);
                    // Stream shards have no single sim-clock; index the
                    // counter samples by the shard's job range instead.
                    let mut rec = acme_obs::Rec::on(&mut r);
                    rec.counter(lo as f64, "fleet arrivals", s.candidates);
                    rec.counter(lo as f64, "fleet completions", s.trace.len() as u64);
                    acme_obs::deposit(r.into_chunk(format!("fleet/{lo}..{hi}")));
                    s
                } else {
                    FleetShardStats::collect(&cfg, i)
                }
            })
        })
        .collect();
    let mut merged = FleetShardStats::new(config.tenants);
    for s in run_shards(p.workers, shards) {
        merged.merge(&s);
    }

    let mut out = format!(
        "open-system fleet: {} jobs over {:.1} simulated days ({} tenants, {} shards)\n\
         arrival process: thinned Poisson at {:.0} jobs/day, diurnal amplitude ±{:.0}%\n",
        merged.trace.len(),
        config.expected_days(),
        config.tenants,
        config.shard_count(),
        config.jobs_per_day(),
        config.burst_amp * 100.0,
    );

    // Arrival bursts: the diurnal modulation as hour-of-day peakedness,
    // thinning efficiency, and the inter-arrival gap distribution.
    out.push_str(&format!(
        "burst ratio (peak hour / mean hour): {:.2}; thinning acceptance: {} (expected ~{})\n",
        merged.burst_ratio(),
        pct(merged.acceptance_ratio()),
        pct(1.0 / (1.0 + config.burst_amp)),
    ));
    // A gap needs two arrivals in one shard; `--fleet-jobs 1` has none.
    if merged.gap_sketch.is_empty() {
        out.push_str("inter-arrival gap (s): none (no shard has two arrivals)\n");
    } else {
        out.push_str(&render_quantiles(
            "inter-arrival gap (s)",
            &[("fleet", &merged.gap_sketch)],
            &QS,
        ));
    }

    // Tenant skew: the Zipf head against the long tail.
    let mut skew = Table::new(["tenants", "job share", "GPU-time share"]);
    for n in [1usize, 10, 50] {
        skew.row([
            format!("top {n}"),
            pct(merged.top_tenant_job_share(n)),
            pct(merged.top_tenant_time_share(n)),
        ]);
    }
    out.push_str(&skew.render());
    out.push_str(&format!(
        "active tenants: {} of {} (Zipf s = {:.1})\n",
        merged.active_tenants(),
        config.tenants,
        config.zipf_s,
    ));

    // The §3 workload mix at fleet scale, from the same streaming tables
    // the closed-world figures use.
    let mut mix = Table::new(["type", "% jobs", "% GPU time"]);
    for (ty, jobs, time) in merged.trace.type_shares() {
        mix.row([ty.label().to_owned(), pct(jobs), pct(time)]);
    }
    out.push_str(&mix.render());
    let mut status = Table::new(["status", "% jobs", "% GPU time"]);
    for (st, jobs, time) in merged.trace.status_shares() {
        status.row([st.label().to_owned(), pct(jobs), pct(time)]);
    }
    out.push_str(&status.render());
    let mut demand = Table::new(["GPUs ≤", "% jobs", "% GPU time"]);
    for ((gpus, jobs), (_, time)) in merged
        .trace
        .demand_count_cdf()
        .into_iter()
        .zip(merged.trace.demand_gpu_time_cdf())
        .take(8)
    {
        demand.row([gpus.to_string(), pct(jobs), pct(time)]);
    }
    out.push_str(&demand.render());

    // Duration quantiles come from the mergeable sketch; state its
    // deterministic rank-error guarantee next to the numbers.
    let sketch = merged
        .trace
        .duration_sketch()
        .expect("fleet stats carry a duration sketch");
    out.push_str(&render_quantiles(
        "job duration (min)",
        &[("fleet", sketch)],
        &QS,
    ));
    out.push_str(&format!(
        "sketch: {} of {} samples retained; rank error ≤ {} ({} of n)\n",
        sketch.retained(),
        sketch.count(),
        sketch.error_bound(),
        pct(sketch.error_bound() as f64 / sketch.count() as f64),
    ));
    out.push_str(&format!(
        "totals: {:.3}M GPU hours, {:.1} GPUs/job average\n",
        merged.trace.total_gpu_hours() / 1e6,
        merged.trace.avg_gpus(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> RunParams {
        RunParams::new(seed).with_fleet_jobs(30_000)
    }

    #[test]
    fn fleet_reports_every_panel() {
        let s = fleet(small(1));
        for needle in [
            "open-system fleet: 30000 jobs",
            "burst ratio",
            "inter-arrival gap",
            "top 10",
            "active tenants",
            "job duration",
            "rank error",
            "GPU hours",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn fleet_output_is_independent_of_worker_count() {
        let sequential = fleet(small(42));
        let parallel = fleet(RunParams {
            workers: 4,
            ..small(42)
        });
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn fleet_job_count_is_a_knob() {
        let a = fleet(small(7));
        let b = fleet(RunParams::new(7).with_fleet_jobs(40_000));
        assert_ne!(a, b);
        assert!(b.contains("40000 jobs"));
        // One arrival has no inter-arrival gap to report.
        let one = fleet(RunParams::new(7).with_fleet_jobs(1));
        assert!(one.contains("open-system fleet: 1 jobs"));
        assert!(one.contains("inter-arrival gap (s): none"));
    }
}
