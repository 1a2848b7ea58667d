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
//! An optional network surface ([`NetStormConfig`]) adds link flaps,
//! switch deaths and congestion windows on a [`NET_RADIX`] fat tree.
//!
//! The fault mix — arrival gaps, the hot subset, the flap, corruption and
//! hang probabilities, the network fault cadence — is fixed by module
//! constants. A [`StormConfig`] sets only what callers vary: the horizon
//! (`--scale` stretches it), the fleet size, and whether the network
//! surface rides along.
//!
//! Same seed → byte-identical campaign; no event (primary or secondary) is
//! ever scheduled past the horizon.

use std::ops::RangeInclusive;

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
/// is [`NET_RADIX`].
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

/// Fat-tree radix the network fault coordinates index into: a k=8 tree,
/// 128 hosts.
pub const NET_RADIX: u32 = 8;

/// Mean spacing between link flaps (Poisson arrivals).
const MEAN_BETWEEN_FLAPS: SimDuration = SimDuration::from_hours(12);
/// Link flap lengths, seconds.
const FLAP_SECS: RangeInclusive<u64> = 60..=600;
/// Mean spacing between switch deaths (edge or aggregation, 50/50).
const MEAN_BETWEEN_SWITCH_FAULTS: SimDuration = SimDuration::from_hours(84);
/// Replacement lead time for a dead switch.
const SWITCH_REPAIR: SimDuration = SimDuration::from_hours(24);
/// Mean spacing between oversubscription windows.
const MEAN_BETWEEN_CONGESTION: SimDuration = SimDuration::from_hours(36);
/// Width of one oversubscription window.
const CONGESTION_DURATION: SimDuration = SimDuration::from_hours(2);

/// The network fault surface of a storm: a link flap every ~12 h on a
/// [`NET_RADIX`] tree, a switch death every ~3.5 days (24 h replacement),
/// and an oversubscription window every ~36 h that runs one pod slow for
/// two hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetStormConfig {
    /// Congestion slowdown factor, percent (400 = links at 1/4 rate).
    pub congestion_factor_pct: u32,
}

impl NetStormConfig {
    /// The default network storm riding along the default fault storm:
    /// oversubscription windows run the pod at quarter rate.
    pub fn default_net() -> Self {
        NetStormConfig {
            congestion_factor_pct: 400,
        }
    }
}

/// Mean spacing between primary faults (Poisson arrivals).
const MEAN_BETWEEN: SimDuration = SimDuration::from_hours(6);
/// Size of the *hot* subset that attracts flapping faults: nodes
/// `0..HOT_NODES`.
const HOT_NODES: u32 = 4;
/// Probability a hardware primary flaps its node.
const FLAP_PROB: f64 = 0.35;
/// Probability the newest checkpoint is corrupt when an incident needs it.
const CORRUPT_PROB: f64 = 0.15;
/// Probability the first recovery attempt hangs.
const HANG_PROB: f64 = 0.10;

/// What a storm covers. The fault mix itself is fixed: a primary every
/// ~6 hours on average, four hot nodes, and a healthy dose of flaps,
/// corruption and recovery hangs.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Campaign length.
    pub horizon: SimDuration,
    /// Nodes in the fleet.
    pub fleet_nodes: u32,
    /// Network fault surface. `None` (the default) generates no network
    /// events and draws nothing extra from the rng, so legacy campaigns
    /// are byte-identical.
    pub net: Option<NetStormConfig>,
}

impl StormConfig {
    /// The default storm: a hostile fortnight over a 64-node fleet.
    pub fn default_storm() -> Self {
        StormConfig {
            horizon: SimDuration::from_days(14),
            fleet_nodes: 64,
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
    /// Wrap a config. Panics unless the hot subset fits the fleet:
    /// flapping faults draw their node ids from it.
    pub fn new(config: StormConfig) -> Self {
        assert!(
            HOT_NODES <= config.fleet_nodes,
            "the fleet must hold the hot subset"
        );
        StormEngine { config }
    }

    /// Generate one campaign.
    pub fn generate(&self, rng: &mut SimRng) -> StormCampaign {
        let c = &self.config;
        let horizon_secs = c.horizon.as_secs_f64();
        let arrivals = Exponential::with_mean(MEAN_BETWEEN.as_secs_f64());
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
            let flapping = hardware && rng.chance(FLAP_PROB);
            let node = if flapping {
                rng.below(u64::from(HOT_NODES)) as u32
            } else {
                rng.below(c.fleet_nodes as u64) as u32
            };
            let corrupt_checkpoint = rng.chance(CORRUPT_PROB);
            let hang_in_recovery = rng.chance(HANG_PROB);

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
        let half = NET_RADIX / 2;
        let edges = u64::from(NET_RADIX) * u64::from(half);
        let pods = u64::from(NET_RADIX);
        let clamp = |t: f64, d: SimDuration| {
            SimDuration::from_secs_f64(d.as_secs_f64().min((horizon_secs - t).max(0.0)))
        };
        let mut events = Vec::new();

        let flaps = Exponential::with_mean(MEAN_BETWEEN_FLAPS.as_secs_f64());
        let mut t = 0.0;
        loop {
            t += flaps.sample(rng);
            if t >= horizon_secs {
                break;
            }
            let edge = rng.below(edges) as u32;
            let port = rng.below(u64::from(half)) as u32;
            let secs = rng.range_u64(*FLAP_SECS.start(), FLAP_SECS.end() + 1);
            events.push(NetStormEvent {
                at: SimTime::from_secs_f64(t),
                fault: NetFault::LinkFlap { edge, port },
                duration: clamp(t, SimDuration::from_secs(secs)),
            });
        }

        let switches = Exponential::with_mean(MEAN_BETWEEN_SWITCH_FAULTS.as_secs_f64());
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
                duration: clamp(t, SWITCH_REPAIR),
            });
        }

        let congestion = Exponential::with_mean(MEAN_BETWEEN_CONGESTION.as_secs_f64());
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
                duration: clamp(t, CONGESTION_DURATION),
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
        let c = campaign(11);
        for e in c.events.iter().filter(|e| e.flapping) {
            assert!(e.node < HOT_NODES, "flap on cold node {}", e.node);
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
        let (half, edges, pods) = (NET_RADIX / 2, NET_RADIX * NET_RADIX / 2, NET_RADIX);
        for e in &net_campaign(3).net_events {
            match e.fault {
                NetFault::LinkFlap { edge, port } => {
                    assert!(edge < edges && port < half);
                    let secs = e.duration.as_secs_f64() as u64;
                    assert!(FLAP_SECS.contains(&secs));
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
    #[should_panic(expected = "hot subset")]
    fn rejects_oversized_hot_subset() {
        let mut c = StormConfig::default_storm();
        c.fleet_nodes = HOT_NODES - 1;
        StormEngine::new(c);
    }
}
