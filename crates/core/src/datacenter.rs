//! The Acme datacenter: both clusters, end to end.

use acme_cluster::ClusterSpec;
use acme_failure::{FailureEvent, FailureInjector};
use acme_sim_core::{SimDuration, SimRng};
use acme_workload::{ClusterWorkload, WorkloadGenerator};

/// A six-month (or shorter) simulation output.
#[derive(Debug)]
pub struct AcmeTrace {
    /// Seren's job trace.
    pub seren: ClusterWorkload,
    /// Kalos's job trace.
    pub kalos: ClusterWorkload,
    /// The failure event population across both clusters.
    pub failures: Vec<FailureEvent>,
}

/// The datacenter facade.
#[derive(Debug)]
pub struct Acme {
    seed: u64,
    seren_spec: ClusterSpec,
    kalos_spec: ClusterSpec,
}

impl Acme {
    /// Build the datacenter with a reproducibility seed.
    pub fn new(seed: u64) -> Self {
        Acme {
            seed,
            seren_spec: ClusterSpec::seren(),
            kalos_spec: ClusterSpec::kalos(),
        }
    }

    /// The seed in force.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Seren's hardware spec (Table 1).
    pub fn seren_spec(&self) -> &ClusterSpec {
        &self.seren_spec
    }

    /// Kalos's hardware spec (Table 1).
    pub fn kalos_spec(&self) -> &ClusterSpec {
        &self.kalos_spec
    }

    /// A dedicated RNG substream for a named purpose. Streams with
    /// different tags are independent, so experiments never perturb each
    /// other.
    pub fn rng(&self, tag: u64) -> SimRng {
        SimRng::new(self.seed).fork(tag)
    }

    /// Generate `days` of workload and failures for both clusters.
    pub fn run_days(&self, days: f64) -> AcmeTrace {
        let mut seren_rng = self.rng(1);
        let mut kalos_rng = self.rng(2);
        let mut fail_rng = self.rng(3);
        let seren = WorkloadGenerator::seren().generate(&mut seren_rng, days, 0);
        let kalos = WorkloadGenerator::kalos().generate(&mut kalos_rng, days, 1_000_000_000);
        let failures = FailureInjector::over(SimDuration::from_secs_f64(days * 86_400.0))
            .generate(&mut fail_rng);
        AcmeTrace {
            seren,
            kalos,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acme_workload::TraceStats;

    #[test]
    fn week_long_trace_has_both_clusters() {
        let t = Acme::new(1).run_days(7.0);
        assert!(!t.seren.jobs.is_empty());
        assert!(!t.kalos.jobs.is_empty());
        // Seren submits far more jobs (664K vs 20K over six months).
        assert!(t.seren.jobs.len() > 10 * t.kalos.jobs.len());
        assert!(!t.failures.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Acme::new(5).run_days(3.0);
        let b = Acme::new(5).run_days(3.0);
        assert_eq!(a.seren.jobs, b.seren.jobs);
        assert_eq!(a.kalos.jobs, b.kalos.jobs);
        assert_eq!(a.failures, b.failures);
        let c = Acme::new(6).run_days(3.0);
        assert_ne!(a.seren.jobs.len(), 0);
        assert_ne!(a.seren.jobs, c.seren.jobs);
    }

    #[test]
    fn six_month_scale_matches_section23() {
        let t = Acme::new(2).run_days(183.0);
        let s = TraceStats::new(&t.seren.jobs);
        let k = TraceStats::new(&t.kalos.jobs);
        // §2.3: Seren 664K GPU jobs, Kalos 20K GPU jobs.
        assert!(
            (550_000..800_000).contains(&s.len()),
            "seren n = {}",
            s.len()
        );
        assert!((15_000..25_000).contains(&k.len()), "kalos n = {}", k.len());
        // Table 3: 2,575 failures.
        assert_eq!(t.failures.len(), 2575);
    }

    #[test]
    fn independent_rng_streams() {
        let acme = Acme::new(7);
        let mut a = acme.rng(10);
        let mut b = acme.rng(11);
        assert_ne!(a.next_u64(), b.next_u64());
        // Re-derivation yields the same stream.
        let mut a2 = acme.rng(10);
        let mut a3 = acme.rng(10);
        assert_eq!(a2.next_u64(), a3.next_u64());
    }
}
