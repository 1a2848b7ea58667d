//! Topology-aware network substrate: a k-ary fat tree under the fabric.
//!
//! The [`comm`](crate::comm) and [`storage`](crate::storage) models price
//! collectives and checkpoint writes *analytically* — a bandwidth number
//! per node with no notion of paths. That cannot express the failure modes
//! reliability studies put at the top of the large-job downtime bill:
//! switch faults that take out whole *fault domains*, link flaps that ECMP
//! could route around, and oversubscription windows that manifest as
//! stragglers rather than crashes.
//!
//! This module adds the missing substrate:
//!
//! * [`NetConfig`] / [`FatTree`] — a classic k-ary fat-tree (k pods, k/2
//!   edge + k/2 aggregation switches per pod, (k/2)² core switches, k³/4
//!   hosts) with deterministic ECMP-style routing (the path is a pure
//!   function of `(src, dst, flow tag)`);
//! * [`max_min_rates`] — flow-level max-min fair bandwidth sharing via
//!   progressive filling, the fairness model flow-level simulators
//!   (htsim-style) use;
//! * [`FlowSim`] — an event-driven flow scheduler on the sim-core event
//!   queue: rates are recomputed at every arrival and completion, so flow
//!   finish times are exact under max-min sharing;
//! * [`NetFabric`] — the pricing adapter. On a healthy tree its per-GPU
//!   bottleneck is **byte-identical** to
//!   [`FabricSpec::bottleneck_gbps`] (the differential tests pin this), so
//!   every historical golden output is unchanged; under link/switch faults
//!   and congestion the bottleneck degrades topologically.
//!
//! Each [`FlowSim`] run deposits its flow count and busiest-link
//! utilization into the thread's `acme_sim_core::stats` counters, next to
//! the event-queue counters, for `--timings-json`.

use acme_sim_core::stats::{self, Counters, NetStats};
use acme_sim_core::{EventQueue, SimTime};

use crate::comm::{Collective, FabricSpec};

/// The fat-tree shape and its link capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Switch radix `k`: `k` pods, `k/2` hosts per edge switch, `k³/4`
    /// hosts total.
    pub radix: u32,
    /// Capacity of every link, host uplinks and switch-to-switch alike,
    /// GB/s: the tree is non-blocking.
    pub line_gbps: f64,
}

impl NetConfig {
    /// The non-blocking tree for a [`FabricSpec`]: every link at the
    /// node-uplink line rate. On this shape the per-GPU bottleneck equals
    /// the analytic `ib_node_gbps / gpus_per_node` exactly (same floats,
    /// same arithmetic).
    pub fn for_fabric(fabric: &FabricSpec, radix: u32) -> Self {
        NetConfig {
            radix,
            line_gbps: fabric.ib_node_gbps,
        }
    }
}

/// Directed link id inside a [`FatTree`]. Links are directed — the two
/// directions of one cable are separate ids — because collective and
/// checkpoint traffic is directional.
pub type LinkId = u32;

/// A k-ary fat-tree topology with deterministic ECMP-style routing.
///
/// Host `h` lives in pod `h / (k/2)²` under edge switch `(h mod (k/2)²) /
/// (k/2)`. Each pod has `k/2` edge and `k/2` aggregation switches; core
/// switches form `k/2` groups of `k/2`, group `a` wired to aggregation
/// switch `a` of every pod.
#[derive(Debug, Clone)]
pub struct FatTree {
    config: NetConfig,
    half: u32,
    hosts: u32,
    edges: u32,
}

impl FatTree {
    /// Build a tree. Panics unless the radix is a power of two ≥ 4: the
    /// host, switch and link numbering assume it.
    pub fn new(config: NetConfig) -> Self {
        let k = config.radix;
        assert!(
            k >= 4 && k.is_power_of_two(),
            "fat-tree radix must be a power of two >= 4, got {k}"
        );
        FatTree {
            config,
            half: k / 2,
            hosts: k * k * k / 4,
            edges: k * k / 2,
        }
    }

    /// The configuration the tree was built from.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    /// Hosts in the tree: `k³/4`.
    pub fn hosts(&self) -> u32 {
        self.hosts
    }

    /// Pods: `k`.
    pub fn pods(&self) -> u32 {
        self.config.radix
    }

    /// Edge (ToR) switches: `k²/2`.
    pub fn edge_switches(&self) -> u32 {
        self.edges
    }

    /// Aggregation switches: `k²/2`.
    pub fn agg_switches(&self) -> u32 {
        self.edges
    }

    /// Core switches: `(k/2)²`.
    pub fn core_switches(&self) -> u32 {
        self.half * self.half
    }

    /// Hosts per pod: `(k/2)²`.
    pub fn hosts_per_pod(&self) -> u32 {
        self.half * self.half
    }

    /// The pod a host lives in.
    pub fn pod_of_host(&self, host: u32) -> u32 {
        host / self.hosts_per_pod()
    }

    /// The global edge-switch index a host hangs off.
    pub fn edge_of_host(&self, host: u32) -> u32 {
        host / self.half
    }

    /// The hosts under one edge switch — the tree's smallest fault domain.
    pub fn hosts_under_edge(&self, edge: u32) -> std::ops::Range<u32> {
        edge * self.half..(edge + 1) * self.half
    }

    /// The hosts inside one pod — the aggregation-layer fault domain.
    pub fn hosts_under_pod(&self, pod: u32) -> std::ops::Range<u32> {
        pod * self.hosts_per_pod()..(pod + 1) * self.hosts_per_pod()
    }

    // ---- directed link layout -----------------------------------------
    //
    // Block layout, in order: host→edge, edge→host, edge→agg, agg→edge,
    // agg→core, core→agg. Each block is indexed by its natural tuple.

    /// Total directed links.
    pub fn link_count(&self) -> u32 {
        2 * self.hosts + 4 * self.edges * self.half
    }

    /// Host `h` → its edge switch.
    pub fn host_up(&self, host: u32) -> LinkId {
        host
    }

    /// Edge switch → host `h`.
    pub fn host_down(&self, host: u32) -> LinkId {
        self.hosts + host
    }

    /// Edge switch `e` (global index) → aggregation switch `a` (index
    /// within the pod).
    pub fn edge_up(&self, edge: u32, agg: u32) -> LinkId {
        2 * self.hosts + edge * self.half + agg
    }

    /// Aggregation switch `a` of `pod` → edge switch `e` (index within the
    /// pod).
    pub fn agg_down(&self, pod: u32, agg: u32, edge_in_pod: u32) -> LinkId {
        2 * self.hosts + self.edges * self.half + (pod * self.half + agg) * self.half + edge_in_pod
    }

    /// Aggregation switch `a` of `pod` → core switch `c` of group `a`.
    pub fn agg_up(&self, pod: u32, agg: u32, core: u32) -> LinkId {
        2 * self.hosts + 2 * self.edges * self.half + (pod * self.half + agg) * self.half + core
    }

    /// Core switch `c` of group `a` → aggregation switch `a` of `pod`.
    pub fn core_down(&self, agg: u32, core: u32, pod: u32) -> LinkId {
        2 * self.hosts
            + 3 * self.edges * self.half
            + (agg * self.half + core) * self.config.radix
            + pod
    }

    /// Line-rate capacity of every directed link, GB/s, from the config.
    pub fn line_rate(&self) -> f64 {
        self.config.line_gbps
    }

    /// Deterministic ECMP hash: which of the `k/2` aggregation (and core)
    /// choices a flow takes. A pure function of `(src, dst, tag)` —
    /// rerunning the same flow always picks the same path, which is what
    /// keeps flow schedules byte-reproducible.
    fn ecmp(&self, src: u32, dst: u32, tag: u64) -> u64 {
        // splitmix64-style avalanche over the flow key.
        let mut z = (u64::from(src) << 40) ^ (u64::from(dst) << 16) ^ tag;
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The directed links a flow from `src` to `dst` traverses, in hop
    /// order. ECMP choices are deterministic in `(src, dst, tag)`.
    ///
    /// # Panics
    /// Panics if either endpoint is outside the tree.
    pub fn route(&self, src: u32, dst: u32, tag: u64) -> Vec<LinkId> {
        assert!(src < self.hosts && dst < self.hosts, "host outside tree");
        if src == dst {
            return Vec::new();
        }
        let mut path = vec![self.host_up(src)];
        let (src_edge, dst_edge) = (self.edge_of_host(src), self.edge_of_host(dst));
        if src_edge != dst_edge {
            let (src_pod, dst_pod) = (self.pod_of_host(src), self.pod_of_host(dst));
            let h = self.ecmp(src, dst, tag);
            let agg = (h % u64::from(self.half)) as u32;
            let dst_edge_in_pod = dst_edge % self.half;
            path.push(self.edge_up(src_edge, agg));
            if src_pod == dst_pod {
                path.push(self.agg_down(src_pod, agg, dst_edge_in_pod));
            } else {
                let core = ((h / u64::from(self.half)) % u64::from(self.half)) as u32;
                path.push(self.agg_up(src_pod, agg, core));
                path.push(self.core_down(agg, core, dst_pod));
                path.push(self.agg_down(dst_pod, agg, dst_edge_in_pod));
            }
        }
        path.push(self.host_down(dst));
        path
    }
}

/// Max-min fair rates for `paths` over per-link `capacity` (GB/s), via
/// progressive filling: repeatedly saturate the tightest link, freeze its
/// flows at the fair share, subtract, repeat. Deterministic: ties break
/// toward the lowest link id. Flows crossing a dead (≤ 0 capacity) link
/// get rate 0.
pub fn max_min_rates(paths: &[Vec<LinkId>], capacity: &[f64]) -> Vec<f64> {
    let n = paths.len();
    let mut rate = vec![0.0f64; n];
    let mut fixed = vec![false; n];
    let mut remaining = capacity.to_vec();
    let mut users: Vec<u32> = vec![0; capacity.len()];
    for p in paths {
        for &l in p {
            users[l as usize] += 1;
        }
    }
    // Flows over dead links are stalled at rate 0 and release their other
    // links immediately.
    for (i, p) in paths.iter().enumerate() {
        if p.iter().any(|&l| capacity[l as usize] <= 0.0) {
            fixed[i] = true;
            for &l in p {
                users[l as usize] -= 1;
            }
        }
    }
    loop {
        // The bottleneck: the live link with the smallest fair share.
        let mut bottleneck: Option<(usize, f64)> = None;
        for (l, &r) in remaining.iter().enumerate() {
            if users[l] == 0 || capacity[l] <= 0.0 {
                continue;
            }
            let share = r / f64::from(users[l]);
            match bottleneck {
                Some((_, best)) if share >= best => {}
                _ => bottleneck = Some((l, share)),
            }
        }
        let Some((link, share)) = bottleneck else {
            break;
        };
        // Freeze every unfixed flow through the bottleneck at the share.
        for i in 0..n {
            if fixed[i] || !paths[i].contains(&(link as LinkId)) {
                continue;
            }
            rate[i] = share;
            fixed[i] = true;
            for &l in &paths[i] {
                remaining[l as usize] -= share;
                users[l as usize] -= 1;
            }
        }
    }
    rate
}

/// One flow offered to the [`FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source host.
    pub src: u32,
    /// Destination host.
    pub dst: u32,
    /// Bytes to move, GB.
    pub gb: f64,
    /// When the flow starts.
    pub start: SimTime,
    /// ECMP tag (e.g. a per-flow sequence number): distinct tags spread
    /// same-pair flows over distinct paths deterministically.
    pub tag: u64,
}

/// What one flow achieved in a [`FlowSim`] run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOutcome {
    /// When the flow finished; `None` if it was stalled on a dead link
    /// when the last live flow completed.
    pub finish: Option<SimTime>,
}

/// Event-driven flow-level simulation over a [`NetFabric`]: max-min rates
/// are recomputed at every arrival and completion, scheduled through the
/// sim-core event queue, so finish times are exact under fair sharing
/// and byte-reproducible across runs.
#[derive(Debug)]
pub struct FlowSim<'a> {
    fabric: &'a NetFabric,
}

/// Events the flow scheduler processes.
#[derive(Debug, Clone, Copy)]
enum FlowEvent {
    Arrive(usize),
    /// Tentative completion, valid only while `version` matches the
    /// scheduler's current rate epoch (stale completions are skipped).
    Complete(usize, u64),
}

impl<'a> FlowSim<'a> {
    /// A scheduler over the fabric's current link health.
    pub fn new(fabric: &'a NetFabric) -> Self {
        FlowSim { fabric }
    }

    /// Run every flow to completion (or stall) and return per-flow
    /// outcomes in input order. Deposits `flows_routed` and peak
    /// time-averaged link utilization into the thread's [`stats`] counters.
    pub fn run(&self, flows: &[Flow]) -> Vec<FlowOutcome> {
        let tree = self.fabric.tree();
        let paths: Vec<Vec<LinkId>> = flows
            .iter()
            .map(|f| tree.route(f.src, f.dst, f.tag))
            .collect();
        let capacity = self.fabric.capacities();
        let mut remaining: Vec<f64> = flows.iter().map(|f| f.gb).collect();
        let mut finish: Vec<Option<SimTime>> = vec![None; flows.len()];
        let mut active: Vec<bool> = vec![false; flows.len()];
        let mut carried: Vec<f64> = vec![0.0; capacity.len()];

        let mut q: EventQueue<FlowEvent> = EventQueue::new();
        for (i, f) in flows.iter().enumerate() {
            q.schedule(f.start, FlowEvent::Arrive(i));
        }

        let mut epoch = 0u64;
        let mut rates: Vec<f64> = vec![0.0; flows.len()];
        let mut last = SimTime::ZERO;
        while let Some((at, ev)) = q.pop() {
            // Advance every active flow by the span since the last event.
            let span = at.saturating_since(last).as_secs_f64();
            if span > 0.0 {
                for i in 0..flows.len() {
                    if active[i] {
                        remaining[i] -= rates[i] * span;
                        for &l in &paths[i] {
                            carried[l as usize] += rates[i] * span;
                        }
                    }
                }
            }
            last = at;
            match ev {
                FlowEvent::Arrive(i) => active[i] = true,
                FlowEvent::Complete(i, v) => {
                    if v != epoch {
                        continue; // stale: rates changed since scheduling
                    }
                    active[i] = false;
                    remaining[i] = 0.0;
                    finish[i] = Some(at);
                }
            }
            // Rates changed: recompute the max-min allocation and schedule
            // fresh tentative completions under the new epoch.
            epoch += 1;
            let live: Vec<Vec<LinkId>> = (0..flows.len())
                .map(|i| {
                    if active[i] {
                        paths[i].clone()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            rates = max_min_rates(&live, &capacity);
            for i in 0..flows.len() {
                if active[i] && rates[i] > 0.0 {
                    let dt = (remaining[i] / rates[i]).max(0.0);
                    q.schedule(
                        at + acme_sim_core::SimDuration::from_secs_f64(dt),
                        FlowEvent::Complete(i, epoch),
                    );
                }
            }
        }

        // Peak time-averaged utilization of the busiest link. The max-min
        // rates on a saturated link can sum to an ulp past its capacity, so
        // the ratio is clamped to 1.
        let makespan = last.as_secs_f64();
        let mut peak = 0.0f64;
        if makespan > 0.0 {
            for (l, &gb) in carried.iter().enumerate() {
                if capacity[l] > 0.0 {
                    peak = peak.max((gb / (capacity[l] * makespan)).min(1.0));
                }
            }
        }
        stats::absorb(Counters {
            net: NetStats {
                flows_routed: flows.len() as u64,
                max_link_utilization: peak,
            },
            ..Counters::ZERO
        });
        finish
            .into_iter()
            .map(|f| FlowOutcome { finish: f })
            .collect()
    }
}

/// The live fabric: a [`FatTree`] plus per-link health, and the pricing
/// adapter that makes network state visible to the analytic models.
///
/// On a healthy [`NetConfig::for_fabric`] tree the derived per-GPU
/// bottleneck is the *same float* as [`FabricSpec::bottleneck_gbps`], so
/// collective prices routed through the tree are byte-identical to the
/// analytic ones — the differential tests pin that. Faults and congestion
/// then lower the bottleneck topologically.
#[derive(Debug, Clone)]
pub struct NetFabric {
    fabric: FabricSpec,
    tree: FatTree,
    capacity: Vec<f64>,
}

impl NetFabric {
    /// A healthy fabric over a tree shape.
    pub fn new(fabric: FabricSpec, config: NetConfig) -> Self {
        let tree = FatTree::new(config);
        let capacity = vec![tree.line_rate(); tree.link_count() as usize];
        NetFabric {
            fabric,
            tree,
            capacity,
        }
    }

    /// The analytic fabric underneath.
    pub fn fabric(&self) -> &FabricSpec {
        &self.fabric
    }

    /// The topology.
    pub fn tree(&self) -> &FatTree {
        &self.tree
    }

    /// Current per-link capacities, GB/s (0 for failed links).
    pub fn capacities(&self) -> Vec<f64> {
        self.capacity.clone()
    }

    /// Restore every link to its configured line rate.
    pub fn heal(&mut self) {
        self.capacity.fill(self.tree.line_rate());
    }

    /// Fail one edge→agg uplink (both directions) — a link flap while it
    /// lasts. ECMP still has `k/2 − 1` sibling uplinks.
    pub fn fail_edge_uplink(&mut self, edge: u32, agg: u32) {
        let pod = edge / self.tree.half;
        let edge_in_pod = edge % self.tree.half;
        self.capacity[self.tree.edge_up(edge, agg) as usize] = 0.0;
        self.capacity[self.tree.agg_down(pod, agg, edge_in_pod) as usize] = 0.0;
    }

    /// Fail an edge (ToR) switch: every host under it is stranded — the
    /// canonical whole-fault-domain failure.
    pub fn fail_edge_switch(&mut self, edge: u32) {
        for h in self.tree.hosts_under_edge(edge) {
            self.capacity[self.tree.host_up(h) as usize] = 0.0;
            self.capacity[self.tree.host_down(h) as usize] = 0.0;
        }
        let pod = edge / self.tree.half;
        let edge_in_pod = edge % self.tree.half;
        for a in 0..self.tree.half {
            self.capacity[self.tree.edge_up(edge, a) as usize] = 0.0;
            self.capacity[self.tree.agg_down(pod, a, edge_in_pod) as usize] = 0.0;
        }
    }

    /// Fail an aggregation switch: the pod keeps `k/2 − 1` of its uplink
    /// capacity; ECMP reroutes around it.
    pub fn fail_agg_switch(&mut self, pod: u32, agg: u32) {
        for e in 0..self.tree.half {
            let edge = pod * self.tree.half + e;
            self.capacity[self.tree.edge_up(edge, agg) as usize] = 0.0;
            self.capacity[self.tree.agg_down(pod, agg, e) as usize] = 0.0;
        }
        for c in 0..self.tree.half {
            self.capacity[self.tree.agg_up(pod, agg, c) as usize] = 0.0;
            self.capacity[self.tree.core_down(agg, c, pod) as usize] = 0.0;
        }
    }

    /// An oversubscription window: the pod's edge↔agg tier runs at
    /// `1/factor` of line rate (external tenant traffic, incast, a sick
    /// firmware queue) — collectives crossing the pod straggle instead of
    /// crashing.
    ///
    /// # Panics
    /// Panics if `factor < 1`.
    pub fn congest_pod(&mut self, pod: u32, factor: f64) {
        assert!(factor >= 1.0, "congestion factor must be >= 1");
        let congested = self.tree.line_rate() / factor;
        for e in 0..self.tree.half {
            let edge = pod * self.tree.half + e;
            for a in 0..self.tree.half {
                self.capacity[self.tree.edge_up(edge, a) as usize] = congested;
                self.capacity[self.tree.agg_down(pod, a, e) as usize] = congested;
            }
        }
    }

    /// Per-GPU bottleneck bandwidth (GB/s) for a collective over `gpus`
    /// ranks placed on `hosts`, derived from link shares instead of the
    /// analytic constant.
    ///
    /// Inside one node the NVLink term is untouched. Across nodes the
    /// ring's per-host bandwidth is the minimum over participating hosts
    /// of three fair shares: the host uplink split across its GPUs, the
    /// host's edge-switch uplink tier split across participating hosts
    /// under that edge, and the pod's aggregation tier split across
    /// participating hosts in the pod (the latter two only when the ring
    /// actually crosses that tier). On a healthy tree every link runs at
    /// the line rate, so the minimum is exactly `line_gbps /
    /// gpus_per_node` — the analytic price.
    pub fn bottleneck_gbps(&self, hosts: &[u32], gpus: u32, collective: Collective) -> f64 {
        let efficiency = match collective {
            Collective::AllToAll => self.fabric.a2a_efficiency,
            _ => self.fabric.ring_efficiency,
        };
        if gpus <= self.fabric.gpus_per_node || hosts.len() < 2 {
            return self.fabric.bottleneck_gbps(gpus, collective);
        }
        let tree = &self.tree;
        let per_node = f64::from(self.fabric.gpus_per_node);
        // Participation counts per edge switch and per pod.
        let mut under_edge = std::collections::BTreeMap::<u32, u32>::new();
        let mut under_pod = std::collections::BTreeMap::<u32, u32>::new();
        for &h in hosts {
            *under_edge.entry(tree.edge_of_host(h)).or_insert(0) += 1;
            *under_pod.entry(tree.pod_of_host(h)).or_insert(0) += 1;
        }
        let crosses_edges = under_edge.len() > 1;
        let crosses_pods = under_pod.len() > 1;
        let mut per_host = f64::INFINITY;
        for &h in hosts {
            let mut bw = self.capacity[tree.host_up(h) as usize];
            if crosses_edges {
                let edge = tree.edge_of_host(h);
                let pod = tree.pod_of_host(h);
                let up: f64 = (0..tree.half)
                    .map(|a| self.capacity[tree.edge_up(edge, a) as usize])
                    .sum();
                bw = bw.min(up / f64::from(under_edge[&edge]));
                if crosses_pods {
                    let agg_up: f64 = (0..tree.half)
                        .flat_map(|a| (0..tree.half).map(move |c| (a, c)))
                        .map(|(a, c)| self.capacity[tree.agg_up(pod, a, c) as usize])
                        .sum();
                    bw = bw.min(agg_up / f64::from(under_pod[&pod]));
                }
            }
            per_host = per_host.min(bw);
        }
        (per_host / per_node) * efficiency
    }

    /// Wall seconds for a collective over `gpus` ranks on `hosts`, priced
    /// through the tree. Identical arithmetic to
    /// [`FabricSpec::collective_secs`], with the topology-derived
    /// bottleneck — byte-identical on a healthy non-blocking tree.
    pub fn collective_secs(
        &self,
        collective: Collective,
        bytes_per_gpu: f64,
        gpus: u32,
        hosts: &[u32],
    ) -> f64 {
        let bw = self.bottleneck_gbps(hosts, gpus, collective);
        self.fabric
            .collective_secs_at(collective, bytes_per_gpu, gpus, bw)
    }

    /// Effective per-writer bandwidth (GB/s) for checkpoint shards pushed
    /// from `writers` hosts up through the tree to the storage fabric
    /// behind the core layer: the minimum over writers of their host
    /// uplink share, edge-tier share and pod aggregation-tier share. The
    /// caller clamps the analytic `remote_gbps_per_writer` with this — on
    /// a healthy tree the network term is far above the storage term, so
    /// the min leaves analytic checkpoint prices byte-identical.
    pub fn checkpoint_write_gbps(&self, writers: &[u32]) -> f64 {
        let tree = &self.tree;
        let mut on_host = std::collections::BTreeMap::<u32, u32>::new();
        let mut under_edge = std::collections::BTreeMap::<u32, u32>::new();
        let mut under_pod = std::collections::BTreeMap::<u32, u32>::new();
        for &w in writers {
            *on_host.entry(w).or_insert(0) += 1;
            *under_edge.entry(tree.edge_of_host(w)).or_insert(0) += 1;
            *under_pod.entry(tree.pod_of_host(w)).or_insert(0) += 1;
        }
        let mut per_writer = f64::INFINITY;
        for &w in writers {
            let edge = tree.edge_of_host(w);
            let pod = tree.pod_of_host(w);
            let up: f64 = (0..tree.half)
                .map(|a| self.capacity[tree.edge_up(edge, a) as usize])
                .sum();
            let agg_up: f64 = (0..tree.half)
                .flat_map(|a| (0..tree.half).map(move |c| (a, c)))
                .map(|(a, c)| self.capacity[tree.agg_up(pod, a, c) as usize])
                .sum();
            let bw = (self.capacity[tree.host_up(w) as usize] / f64::from(on_host[&w]))
                .min(up / f64::from(under_edge[&edge]))
                .min(agg_up / f64::from(under_pod[&pod]));
            per_writer = per_writer.min(bw);
        }
        per_writer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn tree8() -> FatTree {
        FatTree::new(NetConfig::for_fabric(&FabricSpec::kalos(), 8))
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tree_rejects_bad_radix() {
        let mut c = NetConfig::for_fabric(&FabricSpec::seren(), 8);
        c.radix = 12;
        FatTree::new(c);
    }

    #[test]
    fn k8_tree_has_canonical_counts() {
        let t = tree8();
        assert_eq!(t.hosts(), 128);
        assert_eq!(t.pods(), 8);
        assert_eq!(t.edge_switches(), 32);
        assert_eq!(t.agg_switches(), 32);
        assert_eq!(t.core_switches(), 16);
        assert_eq!(t.hosts_per_pod(), 16);
        assert_eq!(t.pod_of_host(17), 1);
        assert_eq!(t.edge_of_host(17), 4);
        assert_eq!(t.hosts_under_edge(0).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(t.hosts_under_pod(1), 16..32);
    }

    #[test]
    fn link_ids_are_unique_and_in_range() {
        let t = tree8();
        let half = t.hosts_under_edge(0).len() as u32;
        let mut seen = BTreeSet::new();
        for h in 0..t.hosts() {
            seen.insert(t.host_up(h));
            seen.insert(t.host_down(h));
        }
        for e in 0..t.edge_switches() {
            for a in 0..half {
                seen.insert(t.edge_up(e, a));
            }
        }
        for p in 0..t.pods() {
            for a in 0..half {
                for x in 0..half {
                    seen.insert(t.agg_down(p, a, x));
                    seen.insert(t.agg_up(p, a, x));
                }
            }
        }
        for a in 0..half {
            for c in 0..half {
                for p in 0..t.pods() {
                    seen.insert(t.core_down(a, c, p));
                }
            }
        }
        assert_eq!(seen.len() as u32, t.link_count());
        assert_eq!(*seen.iter().max().unwrap(), t.link_count() - 1);
    }

    #[test]
    fn routes_have_the_canonical_hop_counts() {
        let t = tree8();
        assert!(t.route(5, 5, 0).is_empty());
        // Same edge switch: up, down.
        assert_eq!(t.route(0, 1, 0).len(), 2);
        // Same pod, different edge: up, edge-up, agg-down, down.
        assert_eq!(t.route(0, 15, 0).len(), 4);
        // Cross-pod: six hops through a core switch.
        assert_eq!(t.route(0, 127, 0).len(), 6);
    }

    #[test]
    fn ecmp_is_deterministic_and_spreads() {
        let t = tree8();
        assert_eq!(t.route(0, 127, 9), t.route(0, 127, 9));
        let distinct: BTreeSet<Vec<LinkId>> = (0..32).map(|tag| t.route(0, 127, tag)).collect();
        assert!(distinct.len() > 1, "ECMP never spread across paths");
    }

    #[test]
    fn max_min_conserves_and_saturates() {
        // Two flows share link 0 (cap 10); one continues over link 1
        // (cap 4): the constrained flow gets 4, the other the leftovers.
        let paths = vec![vec![0, 1], vec![0]];
        let rates = max_min_rates(&paths, &[10.0, 4.0]);
        assert!((rates[0] - 4.0).abs() < 1e-12);
        assert!((rates[1] - 6.0).abs() < 1e-12);
        // Dead link: the flow stalls, the other takes the whole pipe.
        let rates = max_min_rates(&paths, &[10.0, 0.0]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn flow_sim_matches_hand_computed_schedule() {
        let fabric = NetFabric::new(
            FabricSpec::kalos(),
            NetConfig::for_fabric(&FabricSpec::kalos(), 4),
        );
        // Two equal flows from distinct hosts to distinct hosts under the
        // same remote edge: each rides its own host uplink (100 GB/s),
        // 50 GB each → 0.5 s.
        let flows = vec![
            Flow {
                src: 0,
                dst: 2,
                gb: 50.0,
                start: SimTime::ZERO,
                tag: 0,
            },
            Flow {
                src: 1,
                dst: 3,
                gb: 50.0,
                start: SimTime::ZERO,
                tag: 1,
            },
        ];
        let out = FlowSim::new(&fabric).run(&flows);
        for o in &out {
            let f = o.finish.unwrap().as_secs_f64();
            assert!((f - 0.5).abs() < 1e-6, "finish {f}");
        }
        // Two flows into ONE destination host share its downlink: 1.0 s.
        let flows = vec![
            Flow {
                src: 0,
                dst: 2,
                gb: 50.0,
                start: SimTime::ZERO,
                tag: 0,
            },
            Flow {
                src: 1,
                dst: 2,
                gb: 50.0,
                start: SimTime::ZERO,
                tag: 1,
            },
        ];
        let out = FlowSim::new(&fabric).run(&flows);
        for o in &out {
            let f = o.finish.unwrap().as_secs_f64();
            assert!((f - 1.0).abs() < 1e-6, "finish {f}");
        }
    }

    #[test]
    fn flow_sim_stalls_flows_over_dead_links() {
        let mut fabric = NetFabric::new(
            FabricSpec::kalos(),
            NetConfig::for_fabric(&FabricSpec::kalos(), 4),
        );
        fabric.fail_edge_switch(0);
        let flows = vec![
            Flow {
                src: 0,
                dst: 4,
                gb: 1.0,
                start: SimTime::ZERO,
                tag: 0,
            },
            Flow {
                src: 2,
                dst: 4,
                gb: 1.0,
                start: SimTime::ZERO,
                tag: 0,
            },
        ];
        let out = FlowSim::new(&fabric).run(&flows);
        assert_eq!(out[0].finish, None, "stranded behind a dead ToR");
        assert!(out[1].finish.is_some());
    }

    #[test]
    fn healthy_bottleneck_is_bit_identical_to_analytic() {
        for fabric in [FabricSpec::seren(), FabricSpec::kalos()] {
            let net = NetFabric::new(fabric, NetConfig::for_fabric(&fabric, 8));
            let hosts: Vec<u32> = (0..16).collect();
            for c in [
                Collective::AllReduce,
                Collective::AllGather,
                Collective::AllToAll,
                Collective::Broadcast,
            ] {
                let gpus = 16 * 8;
                assert_eq!(
                    net.bottleneck_gbps(&hosts, gpus, c).to_bits(),
                    fabric.bottleneck_gbps(gpus, c).to_bits(),
                );
                assert_eq!(
                    net.collective_secs(c, 64e6, gpus, &hosts).to_bits(),
                    fabric.collective_secs(c, 64e6, gpus).to_bits(),
                );
                // Intra-node collectives are the NVLink term either way.
                assert_eq!(
                    net.collective_secs(c, 64e6, 8, &hosts[..1]).to_bits(),
                    fabric.collective_secs(c, 64e6, 8).to_bits(),
                );
            }
        }
    }

    #[test]
    fn congestion_lowers_the_bottleneck() {
        let fabric = FabricSpec::kalos();
        let hosts: Vec<u32> = (0..16).collect();
        let clean = fabric.bottleneck_gbps(128, Collective::AllReduce);
        let mut net = NetFabric::new(fabric, NetConfig::for_fabric(&fabric, 8));
        net.congest_pod(0, 4.0);
        let congested = net.bottleneck_gbps(&hosts, 128, Collective::AllReduce);
        assert!(congested < clean);
        net.heal();
        assert_eq!(
            net.bottleneck_gbps(&hosts, 128, Collective::AllReduce)
                .to_bits(),
            clean.to_bits()
        );
    }

    #[test]
    fn agg_failure_degrades_but_does_not_strand() {
        let fabric = FabricSpec::kalos();
        let mut net = NetFabric::new(fabric, NetConfig::for_fabric(&fabric, 8));
        let hosts: Vec<u32> = (0..32).collect(); // pods 0 and 1

        // A step of 0.35 s compute plus a 0.25 GB-per-GPU all-reduce.
        let step = |net: &NetFabric| {
            0.35 + net.collective_secs(Collective::AllReduce, 0.25e9, 256, &hosts)
        };
        let clean = step(&net);
        net.fail_agg_switch(0, 0);
        let factor = clean / step(&net);
        assert!(factor < 1.0, "factor {factor}");
        assert!(factor > 0.3, "factor {factor} — reroute, not an outage");
    }

    #[test]
    fn checkpoint_write_share_is_generous_when_healthy() {
        let fabric = FabricSpec::kalos();
        let net = NetFabric::new(fabric, NetConfig::for_fabric(&fabric, 8));
        let writers: Vec<u32> = (0..32).collect();
        let share = net.checkpoint_write_gbps(&writers);
        // One writer per host: the host uplink is the cap.
        assert_eq!(share.to_bits(), fabric.ib_node_gbps.to_bits());
        // Clamping the analytic per-writer storage bandwidth is a no-op.
        assert_eq!(0.33f64.min(share).to_bits(), 0.33f64.to_bits());
        // Congesting the writers' pods pushes the network below storage.
        let mut sick = net.clone();
        for pod in 0..2 {
            sick.congest_pod(pod, 64.0);
        }
        assert!(sick.checkpoint_write_gbps(&writers) < fabric.ib_node_gbps / 32.0);
    }
}
