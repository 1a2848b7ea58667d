//! A DCGM-like metric registry.
//!
//! The paper collects named performance counters per GPU/node
//! (`PROF_SM_ACTIVE`, `PROF_PIPE_TENSOR_ACTIVE`, `DEV_FB_USED`, …). The
//! [`MetricStore`] keys a [`TimeSeries`] by `(metric name, entity id)` so
//! monitors can record against the same vocabulary and experiments can pull
//! cluster-wide sample bags for CDFs.

use std::collections::BTreeMap;

use acme_sim_core::SimTime;

use crate::cdf::Cdf;
use crate::series::TimeSeries;

/// Well-known metric names (mirroring the DCGM fields the paper cites).
pub mod metric {
    /// Streaming-multiprocessor activity fraction (0–1).
    pub const SM_ACTIVE: &str = "PROF_SM_ACTIVE";
    /// Tensor-core pipe activity fraction (0–1).
    pub const TENSOR_ACTIVE: &str = "PROF_PIPE_TENSOR_ACTIVE";
    /// GPU framebuffer memory used, GB.
    pub const FB_USED_GB: &str = "DEV_FB_USED";
    /// GPU power draw, W.
    pub const GPU_POWER_W: &str = "DEV_POWER_USAGE";
    /// GPU core temperature, °C.
    pub const GPU_TEMP_C: &str = "DEV_GPU_TEMP";
    /// GPU memory temperature, °C.
    pub const GPU_MEM_TEMP_C: &str = "DEV_MEMORY_TEMP";
    /// Host CPU utilization fraction (0–1).
    pub const CPU_UTIL: &str = "HOST_CPU_UTIL";
    /// Host memory used, GB.
    pub const HOST_MEM_GB: &str = "HOST_MEM_USED";
    /// IB HCA send bandwidth, normalized 0–1 of line rate.
    pub const IB_SEND: &str = "IB_SEND_NORM";
    /// IB HCA receive bandwidth, normalized 0–1 of line rate.
    pub const IB_RECV: &str = "IB_RECV_NORM";
    /// Whole-server power, W.
    pub const SERVER_POWER_W: &str = "IPMI_SERVER_POWER";
}

/// Identifies the entity a sample belongs to (GPU index, node index, …).
pub type EntityId = u32;

/// A registry of time series keyed by metric name and entity.
///
/// Stored as metric → (entity → series) rather than a flat
/// `(String, EntityId)` key: recording into an existing metric (the
/// steady-state of every monitoring loop, six samples per GPU per window)
/// is then a borrowed-key lookup with **no string allocation**, and
/// per-metric queries walk one inner map instead of filtering the whole
/// registry.
#[derive(Debug, Default)]
pub struct MetricStore {
    metrics: BTreeMap<String, BTreeMap<EntityId, TimeSeries>>,
}

impl MetricStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample for `(metric, entity)` at time `t`.
    pub fn record(&mut self, metric: &str, entity: EntityId, t: SimTime, value: f64) {
        // Fast path: the metric already exists — look it up by borrowed
        // name. Only a metric's first-ever sample allocates the key.
        let by_entity = match self.metrics.get_mut(metric) {
            Some(m) => m,
            None => self.metrics.entry(metric.to_owned()).or_default(),
        };
        by_entity.entry(entity).or_default().push(t, value);
    }

    /// The series for one `(metric, entity)`, if any samples exist.
    pub fn series(&self, metric: &str, entity: EntityId) -> Option<&TimeSeries> {
        self.metrics.get(metric)?.get(&entity)
    }

    /// All entity ids that have samples for `metric`, in ascending order.
    pub fn entities(&self, metric: &str) -> Vec<EntityId> {
        self.metrics
            .get(metric)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Every sample value recorded under `metric` across all entities,
    /// gathered into a single pre-sized allocation.
    pub fn all_values(&self, metric: &str) -> Vec<f64> {
        let Some(by_entity) = self.metrics.get(metric) else {
            return Vec::new();
        };
        let total: usize = by_entity.values().map(TimeSeries::len).sum();
        let mut out = Vec::with_capacity(total);
        for series in by_entity.values() {
            out.extend(series.values());
        }
        out
    }

    /// Empirical CDF of all values under `metric`; `None` if no samples.
    pub fn cdf(&self, metric: &str) -> Option<Cdf> {
        Cdf::from_samples(self.all_values(metric))
    }

    /// Number of `(metric, entity)` series held.
    pub fn len(&self) -> usize {
        self.metrics.values().map(BTreeMap::len).sum()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut m = MetricStore::new();
        m.record(metric::SM_ACTIVE, 0, SimTime::ZERO, 0.4);
        m.record(metric::SM_ACTIVE, 0, SimTime::from_secs(15), 0.6);
        m.record(metric::SM_ACTIVE, 1, SimTime::ZERO, 1.0);
        assert_eq!(m.series(metric::SM_ACTIVE, 0).unwrap().len(), 2);
        assert_eq!(m.entities(metric::SM_ACTIVE), vec![0, 1]);
        assert!(m.series(metric::SM_ACTIVE, 9).is_none());
        assert!(m.series(metric::GPU_POWER_W, 0).is_none());
    }

    #[test]
    fn all_values_span_entities() {
        let mut m = MetricStore::new();
        m.record("x", 0, SimTime::ZERO, 1.0);
        m.record("x", 1, SimTime::ZERO, 2.0);
        m.record("y", 0, SimTime::ZERO, 99.0);
        let mut xs = m.all_values("x");
        xs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(xs, vec![1.0, 2.0]);
    }

    #[test]
    fn cdf_over_metric() {
        let mut m = MetricStore::new();
        for i in 0..10 {
            m.record("p", i % 3, SimTime::from_secs(i as u64), i as f64);
        }
        let c = m.cdf("p").unwrap();
        assert_eq!(c.len(), 10);
        assert_eq!(c.min(), 0.0);
        assert_eq!(c.max(), 9.0);
        assert!(m.cdf("missing").is_none());
    }

    #[test]
    fn len_and_empty() {
        let mut m = MetricStore::new();
        assert!(m.is_empty());
        m.record("a", 0, SimTime::ZERO, 0.0);
        m.record("a", 1, SimTime::ZERO, 0.0);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }
}
