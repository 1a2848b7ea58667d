//! Workload-characterization experiments (§3.1–3.2, Appendix A.1).

use std::sync::{Arc, Mutex};

use acme_cluster::ClusterSpec;
use acme_sim_core::SimRng;
use acme_telemetry::table::{f, pct, render_quantiles};
use acme_telemetry::{Cdf, Table};
use acme_workload::datacenters::{table2 as table2_rows, RefDatacenter};
use acme_workload::{TraceStats, WorkloadGenerator};

use super::shard::{run_shards, shard};
use super::RunParams;

/// Quantiles printed for CDF-style figures.
const QS: [f64; 7] = [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];

/// Memoized trace lookup. Five experiments (`table2`, `fig3`, `fig4`,
/// `fig5`, `fig17`) consume the *same* seed-keyed Seren/Kalos traces;
/// generating them once and sharing the `Arc` removes the single largest
/// redundant cost in `repro all`. The trace is a pure function of
/// `(seed, kind)`, so caching cannot perturb any output — a racing miss on
/// two workers just builds the same value twice and keeps one.
fn cached_trace(
    seed: u64,
    kind: u8,
    build: impl FnOnce() -> acme_workload::ClusterWorkload,
) -> Arc<acme_workload::ClusterWorkload> {
    static CACHE: Mutex<Vec<(u64, u8, Arc<acme_workload::ClusterWorkload>)>> =
        Mutex::new(Vec::new());
    if let Some((_, _, hit)) = CACHE
        .lock()
        .expect("trace cache poisoned")
        .iter()
        .find(|e| e.0 == seed && e.1 == kind)
    {
        return hit.clone();
    }
    let built = Arc::new(build());
    let mut cache = CACHE.lock().expect("trace cache poisoned");
    if let Some((_, _, hit)) = cache.iter().find(|e| e.0 == seed && e.1 == kind) {
        return hit.clone();
    }
    // Small FIFO bound: `repro` touches one seed, tests touch a handful.
    if cache.len() >= 8 {
        cache.remove(0);
    }
    cache.push((seed, kind, built.clone()));
    built
}

fn seren_month(seed: u64) -> Arc<acme_workload::ClusterWorkload> {
    cached_trace(seed, 0, || {
        let mut rng = SimRng::new(seed).fork(101);
        WorkloadGenerator::seren().generate(&mut rng, 30.0, 0)
    })
}

fn kalos_six_months(seed: u64) -> Arc<acme_workload::ClusterWorkload> {
    cached_trace(seed, 1, || {
        let mut rng = SimRng::new(seed).fork(102);
        WorkloadGenerator::kalos().generate(&mut rng, 183.0, 0)
    })
}

/// Table 1 — the static hardware facts.
pub fn table1(_seed: u64) -> String {
    let mut t = Table::new(["Cluster", "#CPUs", "#GPUs", "Mem(GB)", "Network", "#Nodes"]);
    for spec in ClusterSpec::acme() {
        // Table 1 counts the dedicated storage HCA in the network column.
        let hcas = spec.node.ib_hcas + u32::from(spec.node.dedicated_storage_hca);
        let net = format!("{}x{}Gb/s", hcas, spec.node.ib_gbps_per_hca);
        t.row([
            spec.name.to_owned(),
            spec.node.cpus.to_string(),
            spec.node.gpus.to_string(),
            format!("{:.0}", spec.node.host_memory_gb),
            net,
            spec.nodes.to_string(),
        ]);
    }
    t.render()
}

/// Table 2 — cross-datacenter comparison, paper values plus our generated
/// average-GPU check for the Acme clusters.
pub fn table2(seed: u64) -> String {
    let mut t = Table::new([
        "Datacenter",
        "Year",
        "Duration",
        "#Jobs",
        "Avg #GPUs",
        "Total #GPUs",
        "GPU model",
    ]);
    for r in table2_rows() {
        t.row([
            r.name.to_owned(),
            r.year.to_string(),
            format!("{} months", r.duration_months),
            format!("{:.2}M", r.total_jobs / 1e6),
            f(r.avg_gpus, 1),
            r.total_gpus.to_string(),
            r.gpu_models.to_owned(),
        ]);
    }
    let seren = seren_month(seed);
    let kalos = kalos_six_months(seed);
    let s = TraceStats::new(&seren.jobs);
    let k = TraceStats::new(&kalos.jobs);
    format!(
        "{}\nmeasured: Seren avg {:.1} GPUs/job, Kalos avg {:.1} GPUs/job (paper overall: 6.3)\n",
        t.render(),
        s.avg_gpus(),
        k.avg_gpus()
    )
}

/// Figure 2 — duration and utilization CDFs across the four datacenters.
pub fn fig2(p: RunParams) -> String {
    let mut rng = SimRng::new(p.seed).fork(103);
    let n = 40_000;
    let dcs = [
        RefDatacenter::acme_cluster("Seren", 97.0),
        RefDatacenter::acme_cluster("Kalos", 99.0),
        RefDatacenter::philly(),
        RefDatacenter::helios(),
        RefDatacenter::pai(),
    ];
    // Sampling threads one sequential rng stream, so it stays on this
    // thread; the O(n log n) CDF builds are pure per-series work and fan
    // out as shards (one per datacenter and panel, consumed in order).
    let dur_samples: Vec<Vec<f64>> = dcs
        .iter()
        .map(|dc| {
            dc.sample_jobs(&mut rng, n)
                .iter()
                .map(|j| j.duration_mins)
                .collect()
        })
        .collect();
    let util_samples: Vec<Vec<f64>> = dcs
        .iter()
        .map(|dc| dc.sample_utilization(&mut rng, n))
        .collect();
    let mut shards = Vec::new();
    for (dc, xs) in dcs.iter().zip(dur_samples) {
        shards.push(shard(format!("cdf/duration/{}", dc.name), move || {
            Cdf::from_samples(xs)
        }));
    }
    for (dc, xs) in dcs.iter().zip(util_samples) {
        shards.push(shard(format!("cdf/utilization/{}", dc.name), move || {
            Cdf::from_samples(xs)
        }));
    }
    let mut cdfs = run_shards(p.workers, shards);
    let util_cdfs = cdfs.split_off(dcs.len());

    let durations: Vec<(&str, Cdf)> = dcs
        .iter()
        .zip(cdfs)
        .map(|(dc, c)| (dc.name, c.unwrap()))
        .collect();
    let dur_refs: Vec<(&str, &Cdf)> = durations.iter().map(|(n, c)| (*n, c)).collect();
    let mut out = render_quantiles("(a) GPU job duration, minutes", &dur_refs, &QS);

    let utils: Vec<(&str, Cdf)> = dcs
        .iter()
        .zip(util_cdfs)
        .filter_map(|(dc, c)| c.map(|c| (dc.name, c)))
        .collect();
    let util_refs: Vec<(&str, &Cdf)> = utils.iter().map(|(n, c)| (*n, c)).collect();
    out.push_str(&render_quantiles(
        "(b) GPU utilization, percent (source trace lacks utilization for one datacenter)",
        &util_refs,
        &QS,
    ));
    out
}

/// Figure 3 — CDFs of job count and GPU time against requested GPUs.
pub fn fig3(seed: u64) -> String {
    let seren = seren_month(seed);
    let kalos = kalos_six_months(seed);
    let mut t = Table::new([
        "GPUs ≤",
        "Seren count",
        "Seren GPU-time",
        "Kalos count",
        "Kalos GPU-time",
    ]);
    let s = TraceStats::new(&seren.jobs);
    let k = TraceStats::new(&kalos.jobs);
    let sc = s.demand_count_cdf();
    let st = s.demand_gpu_time_cdf();
    let kc = k.demand_count_cdf();
    let kt = k.demand_gpu_time_cdf();
    for i in 0..sc.len() {
        t.row([
            sc[i].0.to_string(),
            pct(sc[i].1),
            pct(st[i].1),
            pct(kc[i].1),
            pct(kt[i].1),
        ]);
    }
    t.render()
}

/// Figure 4 — per-type shares of job count and GPU time.
pub fn fig4(seed: u64) -> String {
    let mut out = String::new();
    for (name, trace) in [
        ("Seren", seren_month(seed)),
        ("Kalos", kalos_six_months(seed)),
    ] {
        let stats = TraceStats::new(&trace.jobs);
        let mut t = Table::new(["type", "job count share", "GPU time share"]);
        for (ty, count, time) in stats.type_shares() {
            t.row([ty.label().to_owned(), pct(count), pct(time)]);
        }
        out.push_str(&format!("== {name} ==\n{}", t.render()));
    }
    out
}

/// Figure 5 — GPU-demand boxplots per workload type.
pub fn fig5(seed: u64) -> String {
    let mut out = String::new();
    for (name, trace) in [
        ("Seren", seren_month(seed)),
        ("Kalos", kalos_six_months(seed)),
    ] {
        let stats = TraceStats::new(&trace.jobs);
        let mut t = Table::new([
            "type", "whisker-", "q1", "median", "q3", "whisker+", "outliers",
        ]);
        for (ty, b) in stats.demand_boxplots() {
            t.row([
                ty.label().to_owned(),
                f(b.whisker_lo, 0),
                f(b.q1, 0),
                f(b.median, 0),
                f(b.q3, 0),
                f(b.whisker_hi, 0),
                b.outliers.to_string(),
            ]);
        }
        out.push_str(&format!("== {name} ==\n{}", t.render()));
    }
    out
}

/// Figure 17 — final statuses by count and resources.
pub fn fig17(seed: u64) -> String {
    let mut out = String::new();
    for (name, trace) in [
        ("Seren", seren_month(seed)),
        ("Kalos", kalos_six_months(seed)),
    ] {
        let stats = TraceStats::new(&trace.jobs);
        let mut t = Table::new(["status", "job count share", "GPU resource share"]);
        for (st, count, time) in stats.status_shares() {
            t.row([st.label().to_owned(), pct(count), pct(time)]);
        }
        out.push_str(&format!("== {name} ==\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_both_clusters() {
        let s = table1(0);
        assert!(s.contains("Seren") && s.contains("Kalos"));
        assert!(s.contains("286") && s.contains("302"));
        assert!(s.contains("5x200"));
    }

    #[test]
    fn table2_reports_measured_averages() {
        let s = table2(1);
        assert!(s.contains("Philly") && s.contains("PAI"));
        assert!(s.contains("measured"));
    }

    #[test]
    fn fig2_has_both_panels() {
        let s = fig2(RunParams::new(1));
        assert!(s.contains("(a) GPU job duration"));
        assert!(s.contains("(b) GPU utilization"));
        assert!(s.contains("Seren") && s.contains("Philly"));
        // Helios appears in durations but not in the utilization table.
        let panel_b = s.split("(b)").nth(1).unwrap();
        let header = panel_b.lines().nth(1).unwrap();
        assert!(!header.contains("Helios"), "{header}");
    }

    #[test]
    fn fig3_shows_the_count_time_divergence() {
        let s = fig3(2);
        // The ≤8 row: count high, Kalos GPU time tiny.
        let row8 = s.lines().find(|l| l.starts_with("8 ")).unwrap();
        assert!(row8.contains('%'));
    }

    #[test]
    fn fig4_and_fig5_cover_types() {
        let s4 = fig4(3);
        assert!(s4.contains("pretrain") && s4.contains("evaluation"));
        assert!(s4.contains("sft"), "Seren has SFT");
        let s5 = fig5(3);
        assert!(s5.contains("median"));
    }

    #[test]
    fn fig17_covers_statuses() {
        let s = fig17(4);
        for label in ["completed", "failed", "canceled"] {
            assert!(s.contains(label));
        }
    }
}
