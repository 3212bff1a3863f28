//! Simulated time: picosecond-resolution instants and durations.
//!
//! `Time` is an absolute instant since simulation start; `Duration` is a
//! span. Both wrap a `u64` count of picoseconds. Arithmetic is checked in
//! debug builds (overflow panics) and wrapping is never meaningful, so the
//! operators use plain `+`/`-` which panic on overflow in debug and are
//! well past any realistic horizon in release.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An absolute simulated instant, in picoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Time {
    /// The instant at simulation start.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * PS_PER_MS)
    }
    /// Construct from seconds.
    #[inline]
    pub const fn from_s(s: u64) -> Self {
        Time(s * PS_PER_S)
    }

    /// Picoseconds since simulation start.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in (fractional) seconds.
    #[inline]
    pub fn as_s_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Span from an earlier instant to `self`.
    ///
    /// Returns `Duration::ZERO` if `earlier` is actually later; simulations
    /// use this when an event may be processed at the same timestamp it was
    /// stamped with.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Duration(ps)
    }
    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Duration(ns * PS_PER_NS)
    }
    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Duration(us * PS_PER_US)
    }
    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Duration(ms * PS_PER_MS)
    }
    /// Construct from seconds.
    #[inline]
    pub const fn from_s(s: u64) -> Self {
        Duration(s * PS_PER_S)
    }
    /// Construct from fractional seconds, rounding to the nearest picosecond.
    ///
    /// Panics if `s` is negative, non-finite, or out of range.
    pub fn from_s_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0 && s <= u64::MAX as f64 / PS_PER_S as f64,
            "duration out of range: {s}"
        );
        Duration((s * PS_PER_S as f64).round() as u64)
    }

    /// The time it takes to move `bits` bits at `bits_per_second`,
    /// rounded to the nearest picosecond.
    ///
    /// This is the single conversion used everywhere rates meet time, so
    /// serialization delays are consistent across the workspace.
    pub fn for_bits(bits: u64, bits_per_second: f64) -> Self {
        assert!(bits_per_second > 0.0, "rate must be positive");
        Duration(((bits as f64) * PS_PER_S as f64 / bits_per_second).round() as u64)
    }

    /// Picoseconds in this span.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }
    /// Value in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }
    /// Value in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }
    /// Value in fractional seconds.
    #[inline]
    pub fn as_s_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Multiply by an integer count.
    #[inline]
    pub const fn times(self, n: u64) -> Duration {
        Duration(self.0 * n)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}
impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}
impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0 - rhs.0)
    }
}
impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}
impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}
impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}
impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}
impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}
impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}
impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, Add::add)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}
impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}
impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}
impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_ps(self.0))
    }
}

/// Render a picosecond count with an adaptive unit (ps/ns/µs/ms/s).
fn format_ps(ps: u64) -> String {
    if ps < PS_PER_NS {
        format!("{ps}ps")
    } else if ps < PS_PER_US {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else if ps < PS_PER_MS {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps < PS_PER_S {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else {
        format!("{:.6}s", ps as f64 / PS_PER_S as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(Time::from_ns(1).as_ps(), 1_000);
        assert_eq!(Time::from_us(1).as_ps(), 1_000_000);
        assert_eq!(Time::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(Time::from_s(1).as_ps(), 1_000_000_000_000);
        assert_eq!(Duration::from_ns(5).as_ns_f64(), 5.0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_ns(100) + Duration::from_ns(50);
        assert_eq!(t, Time::from_ns(150));
        assert_eq!(t - Time::from_ns(100), Duration::from_ns(50));
        assert_eq!(Duration::from_ns(10) * 3, Duration::from_ns(30));
        assert_eq!(Duration::from_ns(30) / 3, Duration::from_ns(10));
    }

    #[test]
    fn cell_time_at_oc12_is_681_6_ns() {
        // 53 bytes at 622.08 Mb/s: the number the whole paper's analysis
        // hangs on. 424 bits / 622.08e6 = 681.584.. ns.
        let d = Duration::for_bits(53 * 8, 622.08e6);
        assert_eq!(d.as_ps(), 681_584); // 681.584 ns to the ps
    }

    #[test]
    fn cell_time_at_oc3_is_2_726_us() {
        let d = Duration::for_bits(53 * 8, 155.52e6);
        assert_eq!(d.as_ps(), 2_726_337); // 2.726337 µs
    }

    #[test]
    fn saturating_since() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(20);
        assert_eq!(b.saturating_since(a), Duration::from_ns(10));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Duration::from_ps(500)), "500ps");
        assert_eq!(format!("{}", Duration::from_ns(1)), "1.000ns");
        assert_eq!(format!("{}", Duration::from_us(2)), "2.000us");
        assert_eq!(format!("{}", Duration::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", Duration::from_s(4)), "4.000000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&n| Duration::from_ns(n)).sum();
        assert_eq!(total, Duration::from_ns(6));
    }

    #[test]
    fn from_s_f64_rounds() {
        assert_eq!(Duration::from_s_f64(1e-12), Duration::from_ps(1));
        assert_eq!(Duration::from_s_f64(0.5e-12), Duration::from_ps(1)); // round half up
    }

    #[test]
    #[should_panic]
    fn from_s_f64_rejects_negative() {
        let _ = Duration::from_s_f64(-1.0);
    }
}
