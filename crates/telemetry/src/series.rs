//! Timestamped metric series.
//!
//! The paper samples infrastructure metrics every 15 seconds (§2.3); a
//! [`TimeSeries`] holds one entity's samples of one metric.

use acme_sim_core::{SimDuration, SimTime};

/// The paper's infrastructure-monitoring cadence.
pub const MONITOR_CADENCE: SimDuration = SimDuration::from_secs(15);

/// A time-ordered sequence of `(time, value)` samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Append a sample.
    ///
    /// # Panics
    /// Panics if `t` precedes the last recorded sample — series must be
    /// appended in time order.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be appended in order");
        }
        self.points.push((t, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples exist.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Raw samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Mean of all values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.points.is_empty() {
            None
        } else {
            Some(self.values().sum::<f64>() / self.points.len() as f64)
        }
    }

    /// Maximum value; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.values()
            .fold(None, |acc, v| Some(acc.map_or(v, |m: f64| m.max(v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(points: &[(u64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new();
        for &(sec, v) in points {
            s.push(SimTime::from_secs(sec), v);
        }
        s
    }

    #[test]
    fn push_and_stats() {
        let s = ts(&[(0, 1.0), (10, 3.0), (20, 5.0)]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut s = TimeSeries::new();
        s.push(SimTime::from_secs(10), 1.0);
        s.push(SimTime::from_secs(5), 2.0);
    }
}
