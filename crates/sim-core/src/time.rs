//! Simulated time.
//!
//! Time is an absolute count of microseconds since the start of the
//! simulation ([`SimTime`]); durations are microsecond spans
//! ([`SimDuration`]). Integer microseconds give six-month traces headroom
//! (2^64 µs ≈ 585k years) while keeping arithmetic exact, so simulations
//! are reproducible down to the last event.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in microseconds from t = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from floating-point seconds (rounded to the nearest µs).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimTime cannot be negative");
        SimTime((s * 1e6).round() as u64)
    }

    /// Order-preserving encoding of non-negative floating-point seconds.
    ///
    /// Rounding to microseconds can merge two distinct `f64` instants and
    /// silently flip a tie-break. For non-negative finite floats the
    /// IEEE-754 bit pattern is strictly monotone, so storing the raw bits
    /// as the payload yields a `SimTime` whose ordering matches the float
    /// ordering *exactly*. The absolute microsecond value is meaningless
    /// under this encoding — only comparisons are; decode with
    /// [`SimTime::as_ordered_secs_f64`].
    pub fn from_ordered_secs_f64(s: f64) -> Self {
        debug_assert!(
            s >= 0.0 && s.is_finite(),
            "ordered encoding requires non-negative finite seconds"
        );
        SimTime(s.to_bits())
    }

    /// Decode a [`SimTime::from_ordered_secs_f64`] instant back to seconds.
    pub fn as_ordered_secs_f64(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// Raw microseconds since t = 0.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since t = 0 (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since t = 0 as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed span since `earlier`; saturates to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Add a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }

    /// Construct from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 86_400_000_000)
    }

    /// Construct from floating-point seconds (rounded to the nearest µs).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimDuration cannot be negative");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Construct from floating-point minutes.
    pub fn from_mins_f64(m: f64) -> Self {
        Self::from_secs_f64(m * 60.0)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Minutes as a float.
    pub fn as_mins_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Hours as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtract, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiply by a non-negative float, rounding to the nearest µs.
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "cannot scale a duration by a negative factor");
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    /// Panics with "SimDuration overflow" when the product does not fit,
    /// in release builds too.
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(k).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, other: SimDuration) -> f64 {
        self.0 as f64 / other.0 as f64
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s < 1.0 {
            write!(f, "{:.1}ms", s * 1e3)
        } else if s < 120.0 {
            write!(f, "{s:.1}s")
        } else if s < 7200.0 {
            write!(f, "{:.1}min", s / 60.0)
        } else if s < 172_800.0 {
            write!(f, "{:.1}h", s / 3600.0)
        } else {
            write!(f, "{:.1}d", s / 86_400.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_secs(5).as_micros(), 5_000_000);
        assert_eq!(SimDuration::from_mins(2).as_secs(), 120);
        assert_eq!(SimDuration::from_hours(1).as_mins_f64(), 60.0);
        assert_eq!(SimDuration::from_days(2).as_hours_f64(), 48.0);
        assert_eq!(SimTime::from_millis(1500).as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(3);
        assert_eq!(t + d, SimTime::from_secs(13));
        assert_eq!(t - d, SimTime::from_secs(7));
        assert_eq!(t - SimTime::from_secs(4), SimDuration::from_secs(6));
        assert_eq!(d * 4, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(9) / 3, SimDuration::from_secs(3));
        assert!((SimDuration::from_secs(1) / SimDuration::from_secs(4) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "SimDuration overflow")]
    fn mul_overflow_panics() {
        let _ = SimDuration::from_days(14) * 15_250_285;
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(5);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(4));
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_rounds() {
        assert_eq!(
            SimDuration::from_micros(10).mul_f64(0.25),
            SimDuration::from_micros(3)
        );
        assert_eq!(
            SimDuration::from_secs(2).mul_f64(1.5),
            SimDuration::from_secs(3)
        );
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(500).to_string(), "0.5ms");
        assert_eq!(SimDuration::from_secs(45).to_string(), "45.0s");
        assert_eq!(SimDuration::from_mins(30).to_string(), "30.0min");
        assert_eq!(SimDuration::from_hours(20).to_string(), "20.0h");
        assert_eq!(SimDuration::from_days(3).to_string(), "3.0d");
    }

    #[test]
    fn ordered_encoding_round_trips_and_preserves_order() {
        let samples = [0.0, 1e-300, 0.1, 1.0, 1.0 + f64::EPSILON, 7.25, 1e12];
        for w in samples.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (ta, tb) = (
                SimTime::from_ordered_secs_f64(a),
                SimTime::from_ordered_secs_f64(b),
            );
            assert!(ta < tb, "{a} vs {b}");
            assert_eq!(ta.as_ordered_secs_f64(), a);
            assert_eq!(tb.as_ordered_secs_f64(), b);
        }
        // Equal floats encode equal — ties stay ties.
        assert_eq!(
            SimTime::from_ordered_secs_f64(2.5),
            SimTime::from_ordered_secs_f64(2.5)
        );
    }

    #[test]
    fn from_secs_f64_is_microsecond_exact() {
        let t = SimTime::from_secs_f64(1.234_567);
        assert_eq!(t.as_micros(), 1_234_567);
    }
}
