//! Adversarial fault-storm generation.
//!
//! The §6.1 fault-tolerance experiments assume a friendly world: failures
//! arrive independently, every restart succeeds, and checkpoints always
//! load. Follow-up reliability studies (Meta's restart-storm analysis,
//! ByteDance's escalation ladder) show production storms are *correlated
//! and hostile*. This module deterministically renders such campaigns from
//! a seed so the recovery orchestrator can be measured under adversity:
//!
//! * **correlated cascades** — a hardware primary (NVLink, ECC, CUDA, node
//!   or network death) sprays secondary NCCL/runtime noise, every secondary
//!   stamped with the primary's correlation id (the same cascade structure
//!   [`crate::logs::secondary_signatures`] renders into the logs);
//! * **flapping nodes** — a small set of *hot* nodes attracts repeated
//!   faults and re-fails right after each restart until cordoned or
//!   physically replaced;
//! * **corrupt checkpoints** — the newest assumed-durable checkpoint turns
//!   out unreadable on load, forcing a generation fallback;
//! * **hangs during recovery** — the restarted job comes back wedged and
//!   only a watchdog notices.
//!
//! Same seed → byte-identical campaign; no event (primary or secondary) is
//! ever scheduled past the horizon.

use acme_policy::{validate_probability, PolicyError};
use acme_sim_core::dist::{Categorical, Distribution, Exponential};
use acme_sim_core::{SimDuration, SimRng, SimTime};

use crate::taxonomy::FailureReason;

/// The secondary faults a hardware primary sprays, mirroring the cascade
/// structure of [`crate::logs::secondary_signatures`].
pub fn cascade_reasons(primary: FailureReason) -> &'static [FailureReason] {
    use FailureReason::*;
    match primary {
        CudaError | EccError => &[NcclTimeoutError],
        NvLinkError => &[NcclTimeoutError, CudaError],
        NodeFailure | NetworkError => &[NcclRemoteError],
        _ => &[],
    }
}

/// One secondary fault inside a cascade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecondaryEvent {
    /// The correlation id of the primary that sprayed this event.
    pub correlation: u32,
    /// The secondary symptom.
    pub reason: FailureReason,
    /// Delay after the primary strike.
    pub delay: SimDuration,
}

/// One storm incident: a primary fault plus its adversarial modifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormEvent {
    /// When the primary strikes.
    pub at: SimTime,
    /// Cascade id, unique per primary within a campaign.
    pub correlation: u32,
    /// The node the fault implicates.
    pub node: u32,
    /// Root cause of the primary.
    pub reason: FailureReason,
    /// Correlated secondary symptoms (same correlation id).
    pub secondaries: Vec<SecondaryEvent>,
    /// The implicated node re-fails right after every restart until it is
    /// cordoned or physically replaced.
    pub flapping: bool,
    /// The newest assumed-durable checkpoint is unreadable on load.
    pub corrupt_checkpoint: bool,
    /// The first restarted attempt comes back wedged (no error raised);
    /// only a watchdog notices.
    pub hang_in_recovery: bool,
}

/// One fault on the network substrate, aimed at fat-tree coordinates
/// rather than a node id. The topology radix the coordinates index into
/// is [`NetStormConfig::radix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// One edge→aggregation uplink flaps (down for the event duration,
    /// then restored). ECMP siblings keep the hosts reachable.
    LinkFlap {
        /// Global edge-switch index.
        edge: u32,
        /// Uplink port (aggregation index within the pod).
        port: u32,
    },
    /// An edge (ToR) switch dies: every host under it is stranded — the
    /// whole fault domain is down until the switch is replaced.
    EdgeSwitchFail {
        /// Global edge-switch index.
        edge: u32,
    },
    /// An aggregation switch dies: the pod loses one of its `k/2` uplink
    /// planes; traffic reroutes, degraded.
    AggSwitchFail {
        /// Pod index.
        pod: u32,
        /// Aggregation index within the pod.
        agg: u32,
    },
    /// An oversubscription window: the pod's edge↔agg tier runs at
    /// `100/factor_pct` of line rate — jobs straggle instead of crashing.
    Congestion {
        /// Pod index.
        pod: u32,
        /// Slowdown factor in percent (400 = links at quarter rate).
        factor_pct: u32,
    },
}

/// One network incident inside a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetStormEvent {
    /// When the fault strikes.
    pub at: SimTime,
    /// What breaks.
    pub fault: NetFault,
    /// How long it lasts (flap length, switch replacement lead time, or
    /// congestion-window width), clamped inside the horizon.
    pub duration: SimDuration,
}

/// Knobs of the network fault surface, [`None`] by default so legacy
/// campaigns are byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetStormConfig {
    /// Fat-tree radix the fault coordinates index into (power of two
    /// ≥ 4; the topology layer validates the shape structurally).
    pub radix: u32,
    /// Mean spacing between link flaps (Poisson arrivals).
    pub mean_between_flaps: SimDuration,
    /// Shortest flap, seconds.
    pub flap_secs_lo: u64,
    /// Longest flap, seconds.
    pub flap_secs_hi: u64,
    /// Mean spacing between switch failures (edge or aggregation, 50/50).
    pub mean_between_switch_faults: SimDuration,
    /// Replacement lead time for a dead switch.
    pub switch_repair: SimDuration,
    /// Mean spacing between oversubscription windows.
    pub mean_between_congestion: SimDuration,
    /// Width of one oversubscription window.
    pub congestion_duration: SimDuration,
    /// Congestion slowdown factor, percent (400 = links at 1/4 rate).
    pub congestion_factor_pct: u32,
}

impl NetStormConfig {
    /// The default network storm riding along the default fault storm: a
    /// k=8 tree (128 hosts), a link flap every ~12 h, a switch death
    /// every ~3.5 days (24 h replacement), and an oversubscription window
    /// every ~36 h that runs the pod at quarter rate for two hours.
    pub fn default_net() -> Self {
        NetStormConfig {
            radix: 8,
            mean_between_flaps: SimDuration::from_hours(12),
            flap_secs_lo: 60,
            flap_secs_hi: 600,
            mean_between_switch_faults: SimDuration::from_hours(84),
            switch_repair: SimDuration::from_hours(24),
            mean_between_congestion: SimDuration::from_hours(36),
            congestion_duration: SimDuration::from_hours(2),
            congestion_factor_pct: 400,
        }
    }

    /// Structured validation, following [`StormConfig::validate`]. The
    /// tree *shape* (power-of-two radix, link capacities) is validated
    /// separately by the topology layer's `NetConfig::validate`.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.radix == 0 {
            return Err(PolicyError::Empty {
                field: "net topology",
            });
        }
        if self.mean_between_flaps.is_zero() {
            return Err(PolicyError::NonPositive { field: "flap MTBF" });
        }
        if self.flap_secs_lo == 0 {
            return Err(PolicyError::NonPositive {
                field: "flap duration",
            });
        }
        if self.flap_secs_lo > self.flap_secs_hi {
            return Err(PolicyError::Inverted {
                field: "flap duration",
                lo: self.flap_secs_lo as f64,
                hi: self.flap_secs_hi as f64,
            });
        }
        if self.mean_between_switch_faults.is_zero() {
            return Err(PolicyError::NonPositive {
                field: "switch-fault MTBF",
            });
        }
        if self.switch_repair.is_zero() {
            return Err(PolicyError::NonPositive {
                field: "switch repair time",
            });
        }
        if self.mean_between_congestion.is_zero() {
            return Err(PolicyError::NonPositive {
                field: "congestion MTBF",
            });
        }
        if self.congestion_duration.is_zero() {
            return Err(PolicyError::NonPositive {
                field: "congestion window",
            });
        }
        if self.congestion_factor_pct <= 100 {
            return Err(PolicyError::NonPositive {
                field: "congestion slowdown (factor - 100%)",
            });
        }
        Ok(())
    }
}

/// Knobs of the storm generator.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Campaign length.
    pub horizon: SimDuration,
    /// Mean spacing between primary faults (Poisson arrivals).
    pub mean_between: SimDuration,
    /// Nodes in the fleet.
    pub fleet_nodes: u32,
    /// Size of the *hot* subset that attracts flapping faults.
    pub hot_nodes: u32,
    /// Probability a hardware primary flaps its node.
    pub flap_prob: f64,
    /// Probability the newest checkpoint is corrupt when an incident needs
    /// it.
    pub corrupt_prob: f64,
    /// Probability the first recovery attempt hangs.
    pub hang_prob: f64,
    /// Network fault surface. `None` (the default) generates no network
    /// events and draws nothing extra from the rng, so legacy campaigns
    /// are byte-identical.
    pub net: Option<NetStormConfig>,
}

impl StormConfig {
    /// The default storm: two weeks of a hostile fortnight — a fault every
    /// ~6 hours on average, four hot nodes in a 64-node fleet, and a
    /// healthy dose of flaps, corruption and recovery hangs.
    pub fn default_storm() -> Self {
        StormConfig {
            horizon: SimDuration::from_days(14),
            mean_between: SimDuration::from_hours(6),
            fleet_nodes: 64,
            hot_nodes: 4,
            flap_prob: 0.35,
            corrupt_prob: 0.15,
            hang_prob: 0.10,
            net: None,
        }
    }

    /// The default storm stretched to `scale`× the horizon (the
    /// `repro storm --scale` stress knob).
    pub fn scaled(scale: u32) -> Self {
        let mut c = Self::default_storm();
        c.horizon = c.horizon * scale.max(1) as u64;
        c
    }

    /// Structured validation: zero horizons/MTBFs, empty fleets, oversized
    /// hot subsets and NaN probabilities are reported instead of silently
    /// misbehaving. [`StormEngine::new`] panics with the same messages;
    /// the policylab arg path surfaces them as usage errors.
    pub fn validate(&self) -> Result<(), PolicyError> {
        if self.horizon.is_zero() {
            return Err(PolicyError::NonPositive { field: "horizon" });
        }
        if self.mean_between.is_zero() {
            return Err(PolicyError::NonPositive { field: "MTBF" });
        }
        if self.fleet_nodes == 0 {
            return Err(PolicyError::Empty { field: "fleet" });
        }
        if self.hot_nodes == 0 || self.hot_nodes > self.fleet_nodes {
            return Err(PolicyError::NotSubset {
                field: "hot subset",
            });
        }
        validate_probability("flap_prob", self.flap_prob)?;
        validate_probability("corrupt_prob", self.corrupt_prob)?;
        validate_probability("hang_prob", self.hang_prob)?;
        if let Some(net) = &self.net {
            net.validate()?;
        }
        Ok(())
    }
}

/// A generated campaign: every event, sorted by strike time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormCampaign {
    /// Campaign length.
    pub horizon: SimDuration,
    /// Fleet size the storm was generated for.
    pub fleet_nodes: u32,
    /// The primaries, sorted by `at`.
    pub events: Vec<StormEvent>,
    /// Network faults, sorted by `at`. Empty unless the config carries a
    /// [`NetStormConfig`].
    pub net_events: Vec<NetStormEvent>,
}

impl StormCampaign {
    /// Total secondary events across all cascades.
    pub fn secondary_count(&self) -> usize {
        self.events.iter().map(|e| e.secondaries.len()).sum()
    }

    /// Number of flapping incidents.
    pub fn flapping_count(&self) -> usize {
        self.events.iter().filter(|e| e.flapping).count()
    }

    /// Number of incidents whose newest checkpoint is corrupt.
    pub fn corrupt_count(&self) -> usize {
        self.events.iter().filter(|e| e.corrupt_checkpoint).count()
    }

    /// Number of incidents whose first recovery attempt hangs.
    pub fn hang_count(&self) -> usize {
        self.events.iter().filter(|e| e.hang_in_recovery).count()
    }

    /// Number of link flaps on the network substrate.
    pub fn link_flap_count(&self) -> usize {
        self.net_events
            .iter()
            .filter(|e| matches!(e.fault, NetFault::LinkFlap { .. }))
            .count()
    }

    /// Number of switch deaths (edge or aggregation).
    pub fn switch_fault_count(&self) -> usize {
        self.net_events
            .iter()
            .filter(|e| {
                matches!(
                    e.fault,
                    NetFault::EdgeSwitchFail { .. } | NetFault::AggSwitchFail { .. }
                )
            })
            .count()
    }

    /// Number of oversubscription windows.
    pub fn congestion_count(&self) -> usize {
        self.net_events
            .iter()
            .filter(|e| matches!(e.fault, NetFault::Congestion { .. }))
            .count()
    }
}

/// The storm generator. A pure function of (config, rng): equal seeds give
/// byte-identical campaigns.
#[derive(Debug, Clone)]
pub struct StormEngine {
    config: StormConfig,
}

/// The hostile reason mix: hardware-heavy (so cascades and cordons fire
/// constantly) with enough framework/script trouble that the human-handoff
/// path is exercised too. Weights are loosely proportional to the Table-3
/// pretraining mix, tilted toward the correlated reasons.
const STORM_MIX: [(FailureReason, f64); 12] = [
    (FailureReason::CudaError, 12.0),
    (FailureReason::NvLinkError, 10.0),
    (FailureReason::EccError, 8.0),
    (FailureReason::NodeFailure, 8.0),
    (FailureReason::NetworkError, 6.0),
    (FailureReason::NcclRemoteError, 5.0),
    (FailureReason::NcclTimeoutError, 5.0),
    (FailureReason::ConnectionError, 6.0),
    (FailureReason::DataloaderKilled, 4.0),
    (FailureReason::OutOfMemoryError, 3.0),
    (FailureReason::RuntimeError, 3.0),
    (FailureReason::AssertionError, 2.0),
];

impl StormEngine {
    /// Wrap a config. Panics on an invalid one with the same message
    /// [`StormConfig::validate`] returns; callers wanting a structured
    /// error validate first.
    pub fn new(config: StormConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        StormEngine { config }
    }

    /// The config.
    pub fn config(&self) -> &StormConfig {
        &self.config
    }

    /// Generate one campaign.
    pub fn generate(&self, rng: &mut SimRng) -> StormCampaign {
        let c = &self.config;
        let horizon_secs = c.horizon.as_secs_f64();
        let arrivals = Exponential::with_mean(c.mean_between.as_secs_f64());
        let weights: Vec<f64> = STORM_MIX.iter().map(|&(_, w)| w).collect();
        let picker = Categorical::new(&weights);

        let mut events = Vec::new();
        let mut t = 0.0;
        let mut correlation = 0u32;
        loop {
            t += arrivals.sample(rng);
            if t >= horizon_secs {
                break;
            }
            let at = SimTime::from_secs_f64(t);
            let reason = STORM_MIX[picker.sample_index(rng)].0;
            let hardware = reason.is_infrastructure()
                && matches!(
                    reason,
                    FailureReason::NvLinkError
                        | FailureReason::CudaError
                        | FailureReason::EccError
                        | FailureReason::NodeFailure
                        | FailureReason::NetworkError
                );
            // Flapping faults concentrate on the hot subset — that is what
            // makes per-node strike counts worth keeping.
            let flapping = hardware && rng.chance(c.flap_prob);
            let node = if flapping {
                rng.below(c.hot_nodes as u64) as u32
            } else {
                rng.below(c.fleet_nodes as u64) as u32
            };
            let corrupt_checkpoint = rng.chance(c.corrupt_prob);
            let hang_in_recovery = rng.chance(c.hang_prob);

            // Cascade: secondaries land seconds after the primary and are
            // clamped inside the horizon.
            let mut secondaries = Vec::new();
            for &sec in cascade_reasons(reason) {
                let delay_secs = 1.0 + rng.f64() * 29.0;
                let delay_secs = delay_secs.min((horizon_secs - t).max(0.0));
                secondaries.push(SecondaryEvent {
                    correlation,
                    reason: sec,
                    delay: SimDuration::from_secs_f64(delay_secs),
                });
            }

            events.push(StormEvent {
                at,
                correlation,
                node,
                reason,
                secondaries,
                flapping,
                corrupt_checkpoint,
                hang_in_recovery,
            });
            correlation += 1;
        }

        // Network faults draw strictly AFTER the primary loop, and only
        // when a net surface is configured — a legacy config consumes the
        // exact historical draw sequence.
        let net_events = match &c.net {
            Some(net) => Self::generate_net(net, horizon_secs, rng),
            None => Vec::new(),
        };

        StormCampaign {
            horizon: c.horizon,
            fleet_nodes: c.fleet_nodes,
            events,
            net_events,
        }
    }

    /// Render the network fault streams: Poisson link flaps, switch
    /// deaths (edge vs aggregation, 50/50) and oversubscription windows,
    /// merged and sorted by strike time. Durations are clamped inside the
    /// horizon.
    fn generate_net(
        net: &NetStormConfig,
        horizon_secs: f64,
        rng: &mut SimRng,
    ) -> Vec<NetStormEvent> {
        let half = net.radix / 2;
        let edges = u64::from(net.radix) * u64::from(half);
        let pods = u64::from(net.radix);
        let clamp = |t: f64, d: SimDuration| {
            SimDuration::from_secs_f64(d.as_secs_f64().min((horizon_secs - t).max(0.0)))
        };
        let mut events = Vec::new();

        let flaps = Exponential::with_mean(net.mean_between_flaps.as_secs_f64());
        let mut t = 0.0;
        loop {
            t += flaps.sample(rng);
            if t >= horizon_secs {
                break;
            }
            let edge = rng.below(edges) as u32;
            let port = rng.below(u64::from(half)) as u32;
            let secs = rng.range_u64(net.flap_secs_lo, net.flap_secs_hi + 1);
            events.push(NetStormEvent {
                at: SimTime::from_secs_f64(t),
                fault: NetFault::LinkFlap { edge, port },
                duration: clamp(t, SimDuration::from_secs(secs)),
            });
        }

        let switches = Exponential::with_mean(net.mean_between_switch_faults.as_secs_f64());
        let mut t = 0.0;
        loop {
            t += switches.sample(rng);
            if t >= horizon_secs {
                break;
            }
            let fault = if rng.chance(0.5) {
                NetFault::EdgeSwitchFail {
                    edge: rng.below(edges) as u32,
                }
            } else {
                NetFault::AggSwitchFail {
                    pod: rng.below(pods) as u32,
                    agg: rng.below(u64::from(half)) as u32,
                }
            };
            events.push(NetStormEvent {
                at: SimTime::from_secs_f64(t),
                fault,
                duration: clamp(t, net.switch_repair),
            });
        }

        let congestion = Exponential::with_mean(net.mean_between_congestion.as_secs_f64());
        let mut t = 0.0;
        loop {
            t += congestion.sample(rng);
            if t >= horizon_secs {
                break;
            }
            events.push(NetStormEvent {
                at: SimTime::from_secs_f64(t),
                fault: NetFault::Congestion {
                    pod: rng.below(pods) as u32,
                    factor_pct: net.congestion_factor_pct,
                },
                duration: clamp(t, net.congestion_duration),
            });
        }

        events.sort_by_key(|e| e.at);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign(seed: u64) -> StormCampaign {
        let mut rng = SimRng::new(seed);
        StormEngine::new(StormConfig::default_storm()).generate(&mut rng)
    }

    #[test]
    fn same_seed_same_storm() {
        assert_eq!(campaign(42), campaign(42));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(campaign(1), campaign(2));
    }

    #[test]
    fn default_storm_is_genuinely_hostile() {
        let c = campaign(42);
        assert!(c.events.len() > 30, "only {} events", c.events.len());
        assert!(c.flapping_count() > 0, "no flapping nodes");
        assert!(c.corrupt_count() > 0, "no corrupt checkpoints");
        assert!(c.hang_count() > 0, "no hangs during recovery");
        assert!(c.secondary_count() > 0, "no cascades");
    }

    #[test]
    fn events_sorted_and_inside_horizon() {
        let c = campaign(7);
        for w in c.events.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        for e in &c.events {
            let end = e.at
                + e.secondaries
                    .iter()
                    .map(|s| s.delay)
                    .max()
                    .unwrap_or(SimDuration::ZERO);
            assert!(end.saturating_since(SimTime::ZERO) <= c.horizon);
        }
    }

    #[test]
    fn secondaries_share_the_primary_correlation_id() {
        let c = campaign(3);
        for e in &c.events {
            for s in &e.secondaries {
                assert_eq!(s.correlation, e.correlation);
            }
        }
    }

    #[test]
    fn correlation_ids_unique_per_primary() {
        let c = campaign(9);
        let ids: std::collections::BTreeSet<u32> = c.events.iter().map(|e| e.correlation).collect();
        assert_eq!(ids.len(), c.events.len());
    }

    #[test]
    fn flapping_targets_the_hot_subset() {
        let cfg = StormConfig::default_storm();
        let c = campaign(11);
        for e in c.events.iter().filter(|e| e.flapping) {
            assert!(e.node < cfg.hot_nodes, "flap on cold node {}", e.node);
        }
    }

    #[test]
    fn scaled_storm_stretches_the_horizon() {
        let c = StormConfig::scaled(4);
        assert_eq!(c.horizon, SimDuration::from_days(56));
        let mut rng = SimRng::new(5);
        let long = StormEngine::new(c).generate(&mut rng);
        assert!(long.events.len() > campaign(5).events.len() * 2);
    }

    fn net_campaign(seed: u64) -> StormCampaign {
        let mut cfg = StormConfig::default_storm();
        cfg.net = Some(NetStormConfig::default_net());
        let mut rng = SimRng::new(seed);
        StormEngine::new(cfg).generate(&mut rng)
    }

    #[test]
    fn net_surface_is_off_by_default_and_byte_pinned() {
        let legacy = campaign(42);
        assert!(legacy.net_events.is_empty());
        // Turning the net surface on draws only AFTER the primary loop:
        // the primaries are byte-identical to the legacy campaign.
        let net = net_campaign(42);
        assert_eq!(net.events, legacy.events);
        assert!(!net.net_events.is_empty());
    }

    #[test]
    fn net_events_cover_every_fault_kind_and_stay_inside_horizon() {
        let c = net_campaign(42);
        assert!(c.link_flap_count() > 0, "no link flaps");
        assert!(c.switch_fault_count() > 0, "no switch deaths");
        assert!(c.congestion_count() > 0, "no congestion windows");
        for w in c.net_events.windows(2) {
            assert!(w[1].at >= w[0].at);
        }
        for e in &c.net_events {
            assert!(e.at.saturating_since(SimTime::ZERO) < c.horizon);
            assert!((e.at + e.duration).saturating_since(SimTime::ZERO) <= c.horizon);
        }
        assert_eq!(net_campaign(42), net_campaign(42), "deterministic");
        assert_ne!(net_campaign(42).net_events, net_campaign(7).net_events);
    }

    #[test]
    fn net_fault_coordinates_stay_on_the_tree() {
        let net = NetStormConfig::default_net();
        let (half, edges, pods) = (net.radix / 2, net.radix * net.radix / 2, net.radix);
        for e in &net_campaign(3).net_events {
            match e.fault {
                NetFault::LinkFlap { edge, port } => {
                    assert!(edge < edges && port < half);
                    let secs = e.duration.as_secs_f64() as u64;
                    assert!(secs >= net.flap_secs_lo.min(60) && secs <= net.flap_secs_hi);
                }
                NetFault::EdgeSwitchFail { edge } => assert!(edge < edges),
                NetFault::AggSwitchFail { pod, agg } => assert!(pod < pods && agg < half),
                NetFault::Congestion { pod, factor_pct } => {
                    assert!(pod < pods);
                    assert_eq!(factor_pct, net.congestion_factor_pct);
                }
            }
        }
    }

    #[test]
    fn net_config_validates_structurally() {
        NetStormConfig::default_net().validate().unwrap();

        let mut n = NetStormConfig::default_net();
        n.radix = 0;
        assert_eq!(
            n.validate().unwrap_err().to_string(),
            "net topology cannot be empty"
        );

        let mut n = NetStormConfig::default_net();
        n.mean_between_flaps = SimDuration::ZERO;
        assert_eq!(
            n.validate().unwrap_err().to_string(),
            "flap MTBF must be positive"
        );

        let mut n = NetStormConfig::default_net();
        n.flap_secs_lo = 900;
        assert!(matches!(
            n.validate(),
            Err(PolicyError::Inverted {
                field: "flap duration",
                ..
            })
        ));

        let mut n = NetStormConfig::default_net();
        n.switch_repair = SimDuration::ZERO;
        assert_eq!(
            n.validate().unwrap_err().to_string(),
            "switch repair time must be positive"
        );

        let mut n = NetStormConfig::default_net();
        n.congestion_factor_pct = 100;
        assert_eq!(
            n.validate().unwrap_err().to_string(),
            "congestion slowdown (factor - 100%) must be positive"
        );

        // An invalid net surface fails the whole storm config.
        let mut c = StormConfig::default_storm();
        let mut n = NetStormConfig::default_net();
        n.congestion_duration = SimDuration::ZERO;
        c.net = Some(n);
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "congestion window must be positive"
        );
    }

    #[test]
    #[should_panic(expected = "hot subset")]
    fn rejects_oversized_hot_subset() {
        let mut c = StormConfig::default_storm();
        c.hot_nodes = c.fleet_nodes + 1;
        StormEngine::new(c);
    }

    #[test]
    fn validate_reports_structured_errors() {
        StormConfig::default_storm().validate().unwrap();
        StormConfig::scaled(3).validate().unwrap();

        let mut c = StormConfig::default_storm();
        c.horizon = SimDuration::ZERO;
        let e = c.validate().unwrap_err();
        assert!(matches!(e, PolicyError::NonPositive { field: "horizon" }));
        assert_eq!(e.to_string(), "horizon must be positive");

        let mut c = StormConfig::default_storm();
        c.mean_between = SimDuration::ZERO;
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "MTBF must be positive"
        );

        let mut c = StormConfig::default_storm();
        c.fleet_nodes = 0;
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "fleet cannot be empty"
        );

        let mut c = StormConfig::default_storm();
        c.hot_nodes = c.fleet_nodes + 1;
        assert_eq!(
            c.validate().unwrap_err().to_string(),
            "hot subset must be a non-empty subset of the fleet"
        );

        let mut c = StormConfig::default_storm();
        c.flap_prob = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(PolicyError::NonFinite {
                field: "flap_prob",
                ..
            })
        ));

        let mut c = StormConfig::default_storm();
        c.corrupt_prob = 1.5;
        assert!(matches!(
            c.validate(),
            Err(PolicyError::OutOfRange {
                field: "corrupt_prob",
                ..
            })
        ));

        let mut c = StormConfig::default_storm();
        c.hang_prob = -0.1;
        assert!(c.validate().is_err());
    }
}
