//! Epoch-second time points and durations.
//!
//! The paper stores customer-activity timestamps as epoch seconds in a
//! `BIGINT` column (§5: "machine-readable integer format"), and every
//! configuration knob of Table 1 is a whole number of minutes, hours, or
//! days.  We mirror that: [`Timestamp`] is a signed 64-bit count of seconds
//! since the Unix epoch and [`Seconds`] is a signed 64-bit duration.
//!
//! Signed arithmetic keeps window computations such as
//! `winStart - prevDay*24*60*60` (Algorithm 4, line 16) total even near the
//! start of a synthetic trace.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

/// Seconds in one minute.
pub const SECS_PER_MINUTE: i64 = 60;
/// Seconds in one hour.
pub const SECS_PER_HOUR: i64 = 60 * 60;
/// Seconds in one day.
pub const SECS_PER_DAY: i64 = 24 * SECS_PER_HOUR;
/// Seconds in one week.
pub const SECS_PER_WEEK: i64 = 7 * SECS_PER_DAY;

/// A signed duration in whole seconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seconds(pub i64);

impl Seconds {
    /// The zero duration.
    pub const ZERO: Seconds = Seconds(0);

    /// A duration of `n` minutes.
    #[inline]
    pub const fn minutes(n: i64) -> Self {
        Seconds(n * SECS_PER_MINUTE)
    }

    /// A duration of `n` hours.
    #[inline]
    pub const fn hours(n: i64) -> Self {
        Seconds(n * SECS_PER_HOUR)
    }

    /// A duration of `n` days.
    #[inline]
    pub const fn days(n: i64) -> Self {
        Seconds(n * SECS_PER_DAY)
    }

    /// A duration of `n` weeks.
    #[inline]
    pub const fn weeks(n: i64) -> Self {
        Seconds(n * SECS_PER_WEEK)
    }

    /// Raw number of seconds.
    #[inline]
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Duration expressed in whole days (truncating).
    #[inline]
    pub const fn as_days(self) -> i64 {
        self.0 / SECS_PER_DAY
    }

    /// `true` when the duration is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Clamp a possibly-negative duration to zero.
    #[inline]
    pub const fn max_zero(self) -> Seconds {
        if self.0 < 0 {
            Seconds(0)
        } else {
            self
        }
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }
}

impl fmt::Debug for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

impl fmt::Display for Seconds {
    /// Humanised `1d 02:03:04`-style rendering used by the example binaries.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let neg = self.0 < 0;
        let mut s = self.0.abs();
        let days = s / SECS_PER_DAY;
        s %= SECS_PER_DAY;
        let hours = s / SECS_PER_HOUR;
        s %= SECS_PER_HOUR;
        let minutes = s / SECS_PER_MINUTE;
        s %= SECS_PER_MINUTE;
        if neg {
            write!(f, "-")?;
        }
        if days > 0 {
            write!(f, "{days}d {hours:02}:{minutes:02}:{s:02}")
        } else {
            write!(f, "{hours:02}:{minutes:02}:{s:02}")
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    #[inline]
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

impl Neg for Seconds {
    type Output = Seconds;
    #[inline]
    fn neg(self) -> Seconds {
        Seconds(-self.0)
    }
}

impl Mul<i64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: i64) -> Seconds {
        Seconds(self.0 * rhs)
    }
}

impl Div<i64> for Seconds {
    type Output = Seconds;
    #[inline]
    fn div(self, rhs: i64) -> Seconds {
        Seconds(self.0 / rhs)
    }
}

impl Rem<Seconds> for Seconds {
    type Output = Seconds;
    #[inline]
    fn rem(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 % rhs.0)
    }
}

/// A point in time: whole seconds since the Unix epoch.
///
/// Matches the paper's `time_snapshot BIGINT` column exactly (§5, footnote 1:
/// "Epoch time corresponds to the number of seconds passed since January 1,
/// 1970").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The epoch itself — the natural origin for synthetic traces.
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Raw epoch-second value.
    #[inline]
    pub const fn as_secs(self) -> i64 {
        self.0
    }

    /// Seconds elapsed since `earlier` (negative when `self` is earlier).
    #[inline]
    pub const fn since(self, earlier: Timestamp) -> Seconds {
        Seconds(self.0 - earlier.0)
    }

    /// Offset into the current day, in `[0, 86400)` for non-negative stamps.
    #[inline]
    pub const fn second_of_day(self) -> i64 {
        self.0.rem_euclid(SECS_PER_DAY)
    }

    /// The hour-of-day in `[0, 24)`.
    #[inline]
    pub const fn hour_of_day(self) -> i64 {
        self.second_of_day() / SECS_PER_HOUR
    }

    /// Day index since the epoch (floor division, correct for negatives).
    #[inline]
    pub const fn day_index(self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// Day-of-week index in `[0, 7)`.  Day 0 is the epoch's weekday; within a
    /// synthetic trace only the 7-day period matters, not calendar alignment.
    #[inline]
    pub const fn day_of_week(self) -> i64 {
        self.day_index().rem_euclid(7)
    }

    /// Midnight at the start of this timestamp's day.
    #[inline]
    pub const fn start_of_day(self) -> Timestamp {
        Timestamp(self.day_index() * SECS_PER_DAY)
    }

    /// Round down to a multiple of `step` seconds since the epoch.
    #[inline]
    pub fn align_down(self, step: Seconds) -> Timestamp {
        debug_assert!(step.0 > 0, "alignment step must be positive");
        Timestamp(self.0.div_euclid(step.0) * step.0)
    }

    /// The earlier of two timestamps.
    #[inline]
    pub fn min(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.min(other.0))
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: Timestamp) -> Timestamp {
        Timestamp(self.0.max(other.0))
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Timestamp {
    /// `day N HH:MM:SS` rendering relative to the epoch; synthetic traces
    /// start at the epoch so this reads as simulation time.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day_index();
        let sod = self.second_of_day();
        let h = sod / SECS_PER_HOUR;
        let m = (sod % SECS_PER_HOUR) / SECS_PER_MINUTE;
        let s = sod % SECS_PER_MINUTE;
        write!(f, "day {day} {h:02}:{m:02}:{s:02}")
    }
}

impl Add<Seconds> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Seconds) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Seconds> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub<Seconds> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: Seconds) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl SubAssign<Seconds> for Timestamp {
    #[inline]
    fn sub_assign(&mut self, rhs: Seconds) {
        self.0 -= rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Seconds;
    #[inline]
    fn sub(self, rhs: Timestamp) -> Seconds {
        Seconds(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_scale_correctly() {
        assert_eq!(Seconds::minutes(5).as_secs(), 300);
        assert_eq!(Seconds::hours(7).as_secs(), 25_200);
        assert_eq!(Seconds::days(28).as_secs(), 2_419_200);
        assert_eq!(Seconds::weeks(1), Seconds::days(7));
    }

    #[test]
    fn timestamp_arithmetic_roundtrips() {
        let t = Timestamp(1_000_000);
        let d = Seconds::hours(3);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), -d);
    }

    #[test]
    fn day_decomposition() {
        let t = Timestamp(SECS_PER_DAY * 10 + SECS_PER_HOUR * 9 + 125);
        assert_eq!(t.day_index(), 10);
        assert_eq!(t.hour_of_day(), 9);
        assert_eq!(t.second_of_day(), SECS_PER_HOUR * 9 + 125);
        assert_eq!(t.start_of_day(), Timestamp(SECS_PER_DAY * 10));
        assert_eq!(t.day_of_week(), 3);
    }

    #[test]
    fn negative_timestamps_use_floor_division() {
        let t = Timestamp(-1);
        assert_eq!(t.day_index(), -1);
        assert_eq!(t.second_of_day(), SECS_PER_DAY - 1);
        assert_eq!(t.hour_of_day(), 23);
    }

    #[test]
    fn align_down_snaps_to_grid() {
        let t = Timestamp(1_234_567);
        let step = Seconds::minutes(5);
        let aligned = t.align_down(step);
        assert!(aligned <= t);
        assert_eq!(aligned.as_secs() % step.as_secs(), 0);
        assert!((t - aligned) < step);
    }

    #[test]
    fn display_formats_are_humanised() {
        assert_eq!(Seconds::hours(26).to_string(), "1d 02:00:00");
        assert_eq!(Seconds::minutes(-90).to_string(), "-01:30:00");
        let t = Timestamp(SECS_PER_DAY + SECS_PER_HOUR);
        assert_eq!(t.to_string(), "day 1 01:00:00");
    }

    #[test]
    fn max_zero_clamps() {
        assert_eq!(Seconds(-5).max_zero(), Seconds::ZERO);
        assert_eq!(Seconds(5).max_zero(), Seconds(5));
    }
}
