//! Virtual time: instants and durations on a nanosecond-resolution clock.
//!
//! The simulation clock is a monotonically non-decreasing `u64` nanosecond
//! counter starting at zero. [`Time`] is an instant on that clock and
//! [`std::time::Duration`] (re-used from `std`) is a span.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the virtual simulation clock (nanoseconds since sim start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// The simulation epoch (t = 0).
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds since sim start.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds since sim start.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from milliseconds since sim start.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Construct from whole seconds since sim start.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// Raw nanoseconds since sim start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Instant expressed as fractional seconds since sim start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// in the future.
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add of a duration (clamps at [`Time::MAX`]).
    #[inline]
    pub fn saturating_add(self, d: Duration) -> Time {
        Time(
            self.0
                .saturating_add(d.as_nanos().min(u64::MAX as u128) as u64),
        )
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_time(*self))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_time(*self))
    }
}

/// Render an instant with an adaptive unit (ns/µs/ms/s).
pub fn format_time(t: Time) -> String {
    let ns = t.as_nanos();
    if ns == u64::MAX {
        "∞".to_owned()
    } else if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// Convenience constructors for [`Duration`] used pervasively in device and
/// network models.
pub mod dur {
    use std::time::Duration;

    /// Nanoseconds.
    #[inline]
    pub const fn ns(v: u64) -> Duration {
        Duration::from_nanos(v)
    }
    /// Microseconds.
    #[inline]
    pub const fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }
    /// Milliseconds.
    #[inline]
    pub const fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }
    /// Seconds.
    #[inline]
    pub const fn secs(v: u64) -> Duration {
        Duration::from_secs(v)
    }
    /// Fractional seconds.
    #[inline]
    pub fn secs_f64(v: f64) -> Duration {
        Duration::from_secs_f64(v)
    }

    /// Time to move `bytes` at `bytes_per_sec`, rounded up to 1 ns minimum
    /// for any non-empty transfer so causality is preserved.
    #[inline]
    pub fn transfer(bytes: u64, bytes_per_sec: f64) -> Duration {
        if bytes == 0 || bytes_per_sec <= 0.0 {
            return Duration::ZERO;
        }
        let secs = bytes as f64 / bytes_per_sec;
        let d = Duration::from_secs_f64(secs);
        if d.is_zero() {
            Duration::from_nanos(1)
        } else {
            d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrip() {
        assert_eq!(Time::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Time::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(Time::from_micros(7).as_nanos(), 7_000);
        assert_eq!(Time::from_nanos(11).as_nanos(), 11);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_secs(1);
        let t2 = t + Duration::from_millis(500);
        assert_eq!(t2.as_nanos(), 1_500_000_000);
        assert_eq!(t2 - t, Duration::from_millis(500));
        // saturating subtraction: earlier.since(later) == 0
        assert_eq!(t.since(t2), Duration::ZERO);
    }

    #[test]
    fn saturating_add_clamps() {
        let t = Time::MAX;
        assert_eq!(t + Duration::from_secs(1), Time::MAX);
    }

    #[test]
    fn transfer_duration() {
        // 1 GiB at 1 GiB/s == 1 s
        let d = dur::transfer(1 << 30, (1u64 << 30) as f64);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
        assert_eq!(dur::transfer(0, 1e9), Duration::ZERO);
        // tiny transfers still advance time
        assert!(dur::transfer(1, 1e18) >= Duration::from_nanos(1));
    }

    #[test]
    fn display_units() {
        assert_eq!(format_time(Time::from_nanos(5)), "5ns");
        assert_eq!(format_time(Time::from_micros(50)), "50.00µs");
        assert_eq!(format_time(Time::from_millis(50)), "50.00ms");
        assert_eq!(format_time(Time::from_secs(50)), "50.000s");
    }

    #[test]
    fn ordering() {
        assert!(Time::from_secs(1) < Time::from_secs(2));
        assert_eq!(Time::ZERO, Time::from_nanos(0));
    }
}
