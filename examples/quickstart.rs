//! Quickstart: build the Acme datacenter, generate a week of workload, and
//! print the headline characterization numbers.
//!
//! ```text
//! cargo run -p acme --example quickstart
//! ```

use acme::datacenter::Acme;
use acme_workload::stats::duration_cdf;
use acme_workload::{JobStatus, JobType, TraceStats};

fn main() {
    let acme = Acme::new(42);
    println!("Acme datacenter (seed {}):", acme.seed());
    for spec in [acme.seren_spec(), acme.kalos_spec()] {
        println!(
            "  {:<6} {} nodes x {} GPUs = {} x {}",
            spec.name,
            spec.nodes,
            spec.node.gpus,
            spec.total_gpus(),
            spec.node.gpu.name
        );
    }

    println!("\nGenerating one week of jobs and failures...");
    let trace = acme.run_days(7.0);

    for (name, workload) in [("Seren", &trace.seren), ("Kalos", &trace.kalos)] {
        let stats = TraceStats::new(&workload.jobs);
        println!("\n== {name} ==");
        println!("  jobs:            {}", stats.len());
        println!(
            "  GPU time:        {:.0} GPU-hours",
            stats.total_gpu_hours()
        );
        println!("  avg request:     {:.1} GPUs", stats.avg_gpus());
        println!(
            "  median runtime:  {:.1} min",
            duration_cdf(&workload.jobs).median()
        );
        for (ty, count, time) in stats.type_shares() {
            if ty == JobType::Pretrain || ty == JobType::Evaluation {
                println!(
                    "  {:<11} {:>5.1}% of jobs, {:>5.1}% of GPU time",
                    ty.label(),
                    count * 100.0,
                    time * 100.0
                );
            }
        }
        let failed = stats
            .status_shares()
            .into_iter()
            .find(|&(s, _, _)| s == JobStatus::Failed)
            .unwrap();
        println!(
            "  failed jobs:     {:.1}% (holding {:.1}% of GPU time)",
            failed.1 * 100.0,
            failed.2 * 100.0
        );
    }

    println!(
        "\n{} failures injected this week; the most damaging reasons:",
        trace.failures.len()
    );
    let mut by_time: Vec<_> = trace.failures.iter().collect();
    by_time.sort_by(|a, b| b.gpu_time_mins().total_cmp(&a.gpu_time_mins()));
    for e in by_time.iter().take(3) {
        println!(
            "  {:<20} {} GPUs lost after {}",
            e.reason.label(),
            e.gpu_demand,
            e.time_to_failure
        );
    }

    println!(
        "\nNext: `cargo run -p acme-bench --bin repro -- all` regenerates every paper artifact."
    );
}
