//! Infrastructure experiments: Figures 7, 8, 9, 18, 21 and Appendix A.3.

use acme_cluster::power::{cpu_server_w, CARBON_FREE_FRACTION, PUE, TCO2E_PER_MWH};
use acme_cluster::{
    ClusterSpec, GpuActivity, HostMemoryBreakdown, ServerPowerBreakdown, ThermalModel,
};
use acme_sim_core::SimRng;
use acme_telemetry::table::{f, pct, render_quantiles};
use acme_telemetry::{Cdf, Table};

use crate::monitor::{self, Metric, Samples};

const QS: [f64; 7] = [0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99];

/// One monitoring sweep of `spec`, 96 nodes × 6 rounds, on the seed's
/// `fork` stream.
fn sweep(spec: &ClusterSpec, seed: u64, fork: u64) -> Samples {
    monitor::sample(spec, &mut SimRng::new(seed).fork(fork), 96, 6)
}

fn two_cluster_panel(title: &str, seren: &Cdf, kalos: &Cdf) -> String {
    render_quantiles(title, &[("Seren", seren), ("Kalos", kalos)], &QS)
}

/// Figure 7 — SM/TC activity, memory footprints, CPU and IB utilization.
pub fn fig7(seed: u64) -> String {
    let seren = sweep(&ClusterSpec::seren(), seed, 301);
    let kalos = sweep(&ClusterSpec::kalos(), seed, 302);
    let mut out = String::new();
    let mut kalos_over_60gb = 0.0;
    for (title, m) in [
        ("(a) SM activity (fraction)", Metric::SmActive),
        ("(a) TC activity (fraction)", Metric::TensorActive),
        ("(b) GPU memory used (GB)", Metric::FbUsedGb),
        ("(b) host memory used (GB)", Metric::HostMemGb),
        ("(c) CPU utilization (fraction)", Metric::CpuUtil),
    ] {
        let kc = kalos.cdf(m);
        out.push_str(&two_cluster_panel(title, &seren.cdf(m), &kc));
        if m == Metric::FbUsedGb {
            kalos_over_60gb = 1.0 - kc.fraction_le(60.0);
        }
    }
    // The links are symmetric: one gauge fills both columns.
    let ib = seren.cdf(Metric::IbSend);
    out.push_str(&render_quantiles(
        "(d) normalized IB bandwidth (Seren)",
        &[("send", &ib), ("recv", &ib)],
        &QS,
    ));
    out.push_str(&format!(
        "notes: Kalos GPUs >60GB: {}; Seren IB idle share: {}\n",
        pct(kalos_over_60gb),
        pct(ib.fraction_le(0.001)),
    ));
    out
}

/// Figure 8 — GPU power and server power CDFs.
pub fn fig8(seed: u64) -> String {
    let seren = sweep(&ClusterSpec::seren(), seed, 301);
    let kalos = sweep(&ClusterSpec::kalos(), seed, 302);
    let (sc, kc) = (seren.cdf(Metric::GpuPowerW), kalos.cdf(Metric::GpuPowerW));
    let mut out = two_cluster_panel("(a) GPU power (W)", &sc, &kc);
    let over_tdp = |c: &Cdf| 1.0 - c.fraction_le(400.0);
    out.push_str(&format!(
        "share above TDP (400 W): Seren {} (paper 22.1%), Kalos {} (paper 12.5%)\n",
        pct(over_tdp(&sc)),
        pct(over_tdp(&kc)),
    ));
    let server = seren.cdf(Metric::ServerPowerW);
    out.push_str(&render_quantiles(
        "(b) Seren server power (W)",
        &[("GPU servers", &server)],
        &QS,
    ));
    let cpu_server = cpu_server_w(0.3);
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
    let node = ClusterSpec::seren().node;
    let p = node.gpu.power_w(GpuActivity {
        sm_active: 0.7,
        tensor_active: 0.15,
        memory_used_gb: 62.0,
    });
    // Summed one GPU at a time, as the monitor sums a node's draw.
    let gpus_w = (0..node.gpus).map(|_| p).sum();
    let b = ServerPowerBreakdown::new(&node, gpus_w, 0.55);
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
    let seren = sweep(&ClusterSpec::seren(), seed, 301);
    let thermal = ThermalModel::normal();
    let core = seren.cdf_of(Metric::GpuPowerW, |p| thermal.core_temp_c(p));
    let mem = seren.cdf_of(Metric::GpuPowerW, |p| thermal.memory_temp_c(p));
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
    let samples = sweep(&ClusterSpec::seren(), seed, 303);
    let mean_server_w = samples.cdf(Metric::ServerPowerW).mean();
    let nodes = ClusterSpec::seren().nodes as f64;
    // One month of wall time.
    let monthly_mwh = mean_server_w * nodes * 730.0 / 1e9 * 1e3; // W→MW × hours
    format!(
        "mean GPU-server power: {:.0} W\nestimated Seren monthly energy: {:.0} MWh (paper: ~673 MWh in May 2023)\n\
         effective emissions at 0.478 tCO2e/MWh: {:.1} tCO2e (paper: 321.7)\n\
         facility energy at PUE {:.2}: {:.0} MWh\ncarbon-free share: {}\n",
        mean_server_w,
        monthly_mwh,
        monthly_mwh * TCO2E_PER_MWH,
        PUE,
        monthly_mwh * PUE,
        pct(CARBON_FREE_FRACTION),
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

    /// The first number on the line of `s` that contains `needle`.
    fn number_on(s: &str, needle: &str) -> f64 {
        s.lines()
            .find(|l| l.contains(needle))
            .and_then(|l| l.split_whitespace().find_map(|w| w.parse().ok()))
            .unwrap_or_else(|| panic!("no number on the {needle:?} line"))
    }

    #[test]
    fn carbon_lands_near_appendix_a3() {
        let s = carbon(3);
        assert!(s.contains("MWh"));
        let mwh = number_on(&s, "estimated Seren monthly");
        assert!((450.0..950.0).contains(&mwh), "estimated {mwh} MWh");
    }

    #[test]
    fn carbon_facility_energy_is_the_estimate_times_pue() {
        for seed in [3, 42] {
            let s = carbon(seed);
            let estimate = number_on(&s, "estimated Seren monthly");
            let facility = number_on(&s, "facility energy");
            // Both lines round to the MWh.
            assert!(
                (facility - estimate * PUE).abs() <= 0.5 * PUE + 0.5,
                "facility {facility} MWh vs {estimate} MWh × PUE {PUE}"
            );
        }
    }
}
