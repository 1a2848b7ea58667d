//! Infrastructure experiments: Figures 7, 8, 9, 18, 21 and Appendix A.3.

use acme_cluster::power::CarbonModel;
use acme_cluster::{ClusterSpec, GpuActivity, HostMemoryBreakdown, Node, ServerPowerModel};
use acme_sim_core::SimRng;
use acme_telemetry::counters::metric;
use acme_telemetry::table::{f, pct, render_quantiles};
use acme_telemetry::{MetricStore, Table};

use crate::monitor::ClusterMonitor;

const QS: [f64; 7] = [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];

fn stores(seed: u64) -> (MetricStore, MetricStore) {
    let mut s_rng = SimRng::new(seed).fork(301);
    let mut k_rng = SimRng::new(seed).fork(302);
    let seren = ClusterMonitor::new(ClusterSpec::seren()).sample(&mut s_rng, 96, 6);
    let kalos = ClusterMonitor::new(ClusterSpec::kalos()).sample(&mut k_rng, 96, 6);
    (seren, kalos)
}

fn two_cluster_panel(title: &str, m: &str, seren: &MetricStore, kalos: &MetricStore) -> String {
    let sc = seren.cdf(m).unwrap();
    let kc = kalos.cdf(m).unwrap();
    render_quantiles(title, &[("Seren", &sc), ("Kalos", &kc)], &QS)
}

/// Figure 7 — SM/TC activity, memory footprints, CPU and IB utilization.
pub fn fig7(seed: u64) -> String {
    let (seren, kalos) = stores(seed);
    let mut out = String::new();
    out.push_str(&two_cluster_panel(
        "(a) SM activity (fraction)",
        metric::SM_ACTIVE,
        &seren,
        &kalos,
    ));
    out.push_str(&two_cluster_panel(
        "(a) TC activity (fraction)",
        metric::TENSOR_ACTIVE,
        &seren,
        &kalos,
    ));
    out.push_str(&two_cluster_panel(
        "(b) GPU memory used (GB)",
        metric::FB_USED_GB,
        &seren,
        &kalos,
    ));
    out.push_str(&two_cluster_panel(
        "(b) host memory used (GB)",
        metric::HOST_MEM_GB,
        &seren,
        &kalos,
    ));
    out.push_str(&two_cluster_panel(
        "(c) CPU utilization (fraction)",
        metric::CPU_UTIL,
        &seren,
        &kalos,
    ));
    let ib_send = seren.cdf(metric::IB_SEND).unwrap();
    let ib_recv = seren.cdf(metric::IB_RECV).unwrap();
    out.push_str(&render_quantiles(
        "(d) normalized IB bandwidth (Seren)",
        &[("send", &ib_send), ("recv", &ib_recv)],
        &QS,
    ));
    out.push_str(&format!(
        "notes: Kalos GPUs >60GB: {}; Seren IB idle share: {}\n",
        pct(1.0 - kalos.cdf(metric::FB_USED_GB).unwrap().fraction_le(60.0)),
        pct(ib_send.fraction_le(0.001)),
    ));
    out
}

/// Figure 8 — GPU power and server power CDFs.
pub fn fig8(seed: u64) -> String {
    let (seren, kalos) = stores(seed);
    let mut out = two_cluster_panel("(a) GPU power (W)", metric::GPU_POWER_W, &seren, &kalos);
    let over_tdp = |s: &MetricStore| 1.0 - s.cdf(metric::GPU_POWER_W).unwrap().fraction_le(400.0);
    out.push_str(&format!(
        "share above TDP (400 W): Seren {} (paper 22.1%), Kalos {} (paper 12.5%)\n",
        pct(over_tdp(&seren)),
        pct(over_tdp(&kalos)),
    ));
    let server = seren.cdf(metric::SERVER_POWER_W).unwrap();
    out.push_str(&render_quantiles(
        "(b) Seren server power (W)",
        &[("GPU servers", &server)],
        &QS,
    ));
    let cpu_server = ServerPowerModel::default().cpu_server_w(0.3);
    out.push_str(&format!(
        "CPU-only server at 30% load: {:.0} W → GPU servers average {:.1}x (paper: ~5x)\n",
        cpu_server,
        server.mean() / cpu_server,
    ));
    out
}

/// Figure 9 — average power split across server modules.
pub fn fig9(_seed: u64) -> String {
    // The cluster-average operating point (partially loaded GPUs).
    let mut node = Node::new(ClusterSpec::seren().node);
    for g in 0..8 {
        node.gpu_mut(g).set_activity(GpuActivity {
            sm_active: 0.7,
            tensor_active: 0.15,
            memory_used_gb: 62.0,
        });
    }
    node.set_cpu_util(0.55);
    let b = ServerPowerModel::default().breakdown(&node);
    let mut t = Table::new(["module", "watts", "share"]);
    for (name, w, share) in b.rows() {
        t.row([name.to_owned(), f(w, 0), pct(share)]);
    }
    format!(
        "{}total: {:.0} W (paper: GPUs ≈ 2/3, CPUs 11.2%, PSU 9.6%)\n",
        t.render(),
        b.total_w()
    )
}

/// Figure 18 — host memory breakdown on a pretraining node.
pub fn fig18(_seed: u64) -> String {
    let m = HostMemoryBreakdown::figure18_pretraining();
    let mut t = Table::new(["consumer", "GB"]);
    for (name, gb) in m.rows() {
        t.row([name.to_owned(), f(gb, 1)]);
    }
    format!(
        "{}total {:.1} GB of 1024 GB ({}) — the idle remainder hosts async-checkpoint staging (§6.1)\n",
        t.render(),
        m.total_gb(),
        pct(m.total_gb() / 1024.0)
    )
}

/// Figure 21 — GPU core and memory temperature CDFs.
pub fn fig21(seed: u64) -> String {
    let (seren, _) = stores(seed);
    let core = seren.cdf(metric::GPU_TEMP_C).unwrap();
    let mem = seren.cdf(metric::GPU_MEM_TEMP_C).unwrap();
    let mut out = render_quantiles(
        "GPU temperature (°C)",
        &[("core", &core), ("memory", &mem)],
        &QS,
    );
    out.push_str(&format!(
        "share of GPUs with memory over 65°C: {} (the §5.2 overheating regime)\n",
        pct(1.0 - mem.fraction_le(65.0))
    ));
    out
}

/// Appendix A.3 — energy and carbon accounting for Seren.
pub fn carbon(seed: u64) -> String {
    let mut rng = SimRng::new(seed).fork(303);
    let store = ClusterMonitor::new(ClusterSpec::seren()).sample(&mut rng, 96, 6);
    let mean_server_w = store.cdf(metric::SERVER_POWER_W).unwrap().mean();
    let nodes = ClusterSpec::seren().nodes as f64;
    // One month of wall time.
    let monthly_mwh = mean_server_w * nodes * 730.0 / 1e9 * 1e3; // W→MW × hours
    let c = CarbonModel::default();
    let paper = 673.0;
    format!(
        "mean GPU-server power: {:.0} W\nestimated Seren monthly energy: {:.0} MWh (paper: ~673 MWh in May 2023)\n\
         effective emissions at 0.478 tCO2e/MWh: {:.1} tCO2e (paper: 321.7)\n\
         facility energy at PUE {:.2}: {:.0} MWh\ncarbon-free share: {}\n",
        mean_server_w,
        monthly_mwh,
        c.effective_tco2e(monthly_mwh),
        c.pue,
        c.facility_mwh(paper),
        pct(c.carbon_free_fraction),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_renders_all_panels() {
        let s = fig7(1);
        for needle in [
            "SM activity",
            "TC activity",
            "GPU memory",
            "host memory",
            "CPU utilization",
            "IB bandwidth",
        ] {
            assert!(s.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn fig8_reports_tdp_shares() {
        let s = fig8(1);
        assert!(s.contains("above TDP"));
        assert!(s.contains("CPU-only server"));
    }

    #[test]
    fn fig9_splits_sum_sensibly() {
        let s = fig9(0);
        assert!(s.contains("GPUs") && s.contains("PSU loss"));
        assert!(s.contains("total:"));
    }

    #[test]
    fn fig18_matches_paper_figures() {
        let s = fig18(0);
        assert!(s.contains("tensorboard"));
        assert!(s.contains("45.3"));
        assert!(s.contains("123.0 GB") || s.contains("total 12"));
    }

    #[test]
    fn fig21_memory_hotter() {
        let s = fig21(2);
        assert!(s.contains("core") && s.contains("memory"));
        assert!(s.contains("65°C"));
    }

    #[test]
    fn carbon_lands_near_appendix_a3() {
        let s = carbon(3);
        assert!(s.contains("MWh"));
        // Extract the estimated monthly energy and check the ballpark.
        let line = s
            .lines()
            .find(|l| l.contains("estimated Seren monthly"))
            .unwrap();
        let mwh: f64 = line
            .split_whitespace()
            .find_map(|w| w.parse::<f64>().ok())
            .unwrap();
        assert!((450.0..950.0).contains(&mwh), "estimated {mwh} MWh");
    }
}
