//! Simulated time.
//!
//! All simulator clocks are integer nanoseconds since the start of the
//! simulation (smoltcp-style explicit time, no wall clock anywhere). Using a
//! fixed-point representation keeps every run bit-for-bit reproducible and
//! makes event ordering total.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant {
    nanos: u64,
}

impl Instant {
    /// The simulation epoch (t = 0).
    pub const ZERO: Instant = Instant { nanos: 0 };
    /// The greatest representable instant; used as "never".
    pub const MAX: Instant = Instant { nanos: u64::MAX };

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Instant { nanos }
    }

    /// Construct from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Instant {
            nanos: micros * 1_000,
        }
    }

    /// Construct from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Instant {
            nanos: millis * 1_000_000,
        }
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Instant {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Raw nanoseconds since simulation start.
    pub const fn nanos(&self) -> u64 {
        self.nanos
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub(crate) fn secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }

    /// Checked addition of a duration.
    pub fn checked_add(&self, d: Duration) -> Option<Instant> {
        self.nanos.checked_add(d.nanos).map(Instant::from_nanos)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.secs_f64())
    }
}

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration {
    nanos: u64,
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration { nanos: 0 };
    /// The greatest representable duration.
    pub const MAX: Duration = Duration { nanos: u64::MAX };

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration { nanos }
    }

    /// Construct from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration {
            nanos: micros * 1_000,
        }
    }

    /// Construct from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration {
            nanos: millis * 1_000_000,
        }
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs clamp to zero: durations are lengths.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Duration::ZERO;
        }
        let nanos = (secs * 1e9).round();
        if nanos >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration {
                nanos: nanos as u64,
            }
        }
    }

    /// Raw nanoseconds.
    pub const fn nanos(&self) -> u64 {
        self.nanos
    }

    /// Whole milliseconds (truncating).
    pub const fn millis(&self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Length in seconds as a float (for reporting only).
    pub fn secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Length in milliseconds as a float (for reporting only).
    pub(crate) fn millis_f64(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Saturating addition.
    pub fn saturating_add(&self, other: Duration) -> Duration {
        Duration::from_nanos(self.nanos.saturating_add(other.nanos))
    }

    /// Multiply by an integer factor, saturating on overflow.
    pub fn saturating_mul(&self, factor: u64) -> Duration {
        Duration::from_nanos(self.nanos.saturating_mul(factor))
    }

    /// Scale by a float factor (clamped non-negative), rounding to nanoseconds.
    pub(crate) fn mul_f64(&self, factor: f64) -> Duration {
        Duration::from_secs_f64(self.secs_f64() * factor)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.millis_f64())
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant::from_nanos(
            self.nanos
                .checked_add(rhs.nanos)
                .expect("simulated time overflow"),
        )
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, rhs: Duration) -> Instant {
        Instant::from_nanos(
            self.nanos
                .checked_sub(rhs.nanos)
                .expect("simulated time underflow"),
        )
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        Duration::from_nanos(
            self.nanos
                .checked_sub(rhs.nanos)
                .expect("instant subtraction underflow"),
        )
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration::from_nanos(
            self.nanos
                .checked_add(rhs.nanos)
                .expect("duration overflow"),
        )
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration::from_nanos(
            self.nanos
                .checked_sub(rhs.nanos)
                .expect("duration underflow"),
        )
    }
}

impl SubAssign<Duration> for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl core::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a.saturating_add(b))
    }
}

/// Duration it takes to serialize `bytes` bytes onto a link of `bits_per_sec`.
///
/// Returns [`Duration::ZERO`] for an infinitely fast (zero-rate-configured)
/// link.
pub fn serialization_time(bytes: u64, bits_per_sec: u64) -> Duration {
    if bits_per_sec == 0 {
        return Duration::ZERO;
    }
    // bits * 1e9 / rate, in u128 to avoid overflow for large byte counts.
    let bits = (bytes as u128) * 8;
    let nanos = bits * 1_000_000_000u128 / bits_per_sec as u128;
    Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Instant::from_secs(1), Instant::from_millis(1_000));
        assert_eq!(Instant::from_millis(1), Instant::from_micros(1_000));
        assert_eq!(Instant::from_micros(1), Instant::from_nanos(1_000));
        assert_eq!(Duration::from_secs(2).millis(), 2_000);
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = Instant::from_millis(50);
        let d = Duration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = Instant::from_millis(10);
        let late = Instant::from_millis(20);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
        assert_eq!(late.saturating_since(early), Duration::from_millis(10));
    }

    #[test]
    fn from_secs_f64_handles_junk() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::INFINITY), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(1.5), Duration::from_millis(1_500));
    }

    #[test]
    fn serialization_time_basics() {
        // 1500 bytes at 12 Mbps = 1 ms.
        assert_eq!(
            serialization_time(1_500, 12_000_000),
            Duration::from_millis(1)
        );
        // Zero rate means "infinitely fast" by convention.
        assert_eq!(serialization_time(1_500, 0), Duration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Duration::from_nanos(5).to_string(), "5ns");
        assert_eq!(Duration::from_micros(5).to_string(), "5.000us");
        assert_eq!(Duration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Duration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [1u64, 2, 3].iter().map(|&s| Duration::from_secs(s)).sum();
        assert_eq!(total, Duration::from_secs(6));
    }
}
