//! Print a full §3-style characterization report for a simulated month of
//! Acme — the "operator's view" over every subsystem at once.
//!
//! ```text
//! cargo run -p acme --example characterization_report
//! ```

use acme::datacenter::Acme;
use acme::monitor::{self, Metric};
use acme_workload::stats::duration_cdf;
use acme_workload::{JobStatus, TraceStats};

fn main() {
    let seed = 42;
    let acme = Acme::new(seed);
    let trace = acme.run_days(30.0);

    println!("================================================================");
    println!(" Acme characterization report — 30 simulated days, seed {seed}");
    println!("================================================================");

    for (spec, workload) in [
        (acme.seren_spec(), &trace.seren),
        (acme.kalos_spec(), &trace.kalos),
    ] {
        let stats = TraceStats::new(&workload.jobs);
        let durations = duration_cdf(&workload.jobs);
        println!(
            "\n--- {} ({} nodes, {} GPUs) ---",
            spec.name,
            spec.nodes,
            spec.total_gpus()
        );
        println!("workload:");
        println!(
            "  {} GPU jobs, {:.0} GPU-hours total",
            stats.len(),
            stats.total_gpu_hours()
        );
        println!(
            "  median runtime {:.1} min | p95 {:.0} min | avg request {:.1} GPUs",
            durations.median(),
            durations.quantile(0.95),
            stats.avg_gpus()
        );
        for (ty, count, time) in stats.type_shares() {
            println!(
                "  {:<11} {:>5.1}% of jobs  {:>5.1}% of GPU time",
                ty.label(),
                count * 100.0,
                time * 100.0
            );
        }
        let canceled = stats
            .status_shares()
            .into_iter()
            .find(|&(s, _, _)| s == JobStatus::Canceled)
            .unwrap();
        println!(
            "  canceled jobs: {:.1}% of count holding {:.1}% of resources",
            canceled.1 * 100.0,
            canceled.2 * 100.0
        );

        // Infrastructure snapshot.
        let mut rng = acme.rng(if spec.name == "Seren" { 71 } else { 72 });
        let samples = monitor::sample(spec, &mut rng, 64, 4);
        let sm = samples.cdf(Metric::SmActive);
        let power = samples.cdf(Metric::GpuPowerW);
        let mem = samples.cdf(Metric::FbUsedGb);
        println!("infrastructure:");
        println!(
            "  SM activity median {:.0}% | GPU memory median {:.0} GB | power median {:.0} W",
            sm.median() * 100.0,
            mem.median(),
            power.median()
        );
        println!(
            "  GPUs above TDP: {:.1}% | idle GPUs (≤65 W): {:.1}%",
            (1.0 - power.fraction_le(400.0)) * 100.0,
            power.fraction_le(65.0) * 100.0
        );
    }

    println!("\n--- failures (both clusters, 30 days) ---");
    println!("  {} failures injected", trace.failures.len());
    let infra: Vec<_> = trace
        .failures
        .iter()
        .filter(|e| e.reason.is_infrastructure())
        .collect();
    let infra_time: f64 = infra.iter().map(|e| e.gpu_time_mins()).sum();
    let total_time: f64 = trace.failures.iter().map(|e| e.gpu_time_mins()).sum();
    println!(
        "  infrastructure: {} events ({:.1}% of count) destroying {:.1}% of failed GPU time",
        infra.len(),
        infra.len() as f64 / trace.failures.len() as f64 * 100.0,
        infra_time / total_time * 100.0
    );
    let worst = trace
        .failures
        .iter()
        .max_by(|a, b| a.gpu_time_mins().total_cmp(&b.gpu_time_mins()))
        .unwrap();
    println!(
        "  single worst event: {} on a {}-GPU job after {} of training",
        worst.reason.label(),
        worst.gpu_demand,
        worst.time_to_failure
    );
}
