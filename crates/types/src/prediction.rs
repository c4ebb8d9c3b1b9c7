//! The output of the next-activity predictor (§6).

use crate::time::{Seconds, Timestamp};
use std::fmt;

/// A predicted interval of customer activity with the confidence of the
/// window that produced it.
///
/// Algorithm 4 encodes "no activity predicted" as `start = 0`; in Rust the
/// caller holds an `Option<Prediction>` instead, so a present value always
/// carries a meaningful interval.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Prediction {
    /// Predicted start of the next customer activity (first login within
    /// the winning window, projected one period ahead).
    pub start: Timestamp,
    /// Predicted end of the next customer activity (last login within the
    /// winning window, projected one period ahead).
    pub end: Timestamp,
    /// Fraction of historical periods whose matching window contained
    /// activity (Algorithm 4 line 36); in `(0, 1]` for a returned
    /// prediction.
    pub confidence: f64,
}

impl Prediction {
    /// Length of the predicted activity interval.
    #[inline]
    pub fn duration(&self) -> Seconds {
        self.end - self.start
    }

    /// Whether the predicted activity has already finished at `now` —
    /// the `nextActivity.end < now` guard of Algorithm 1 line 7.
    #[inline]
    pub fn is_over(&self, now: Timestamp) -> bool {
        self.end < now
    }

    /// Whether no activity is expected for at least `window` seconds — the
    /// physical-pause condition `now + l <= nextActivity.start`
    /// (Algorithm 1 line 10).
    #[inline]
    pub fn starts_after(&self, now: Timestamp, window: Seconds) -> bool {
        now + window <= self.start
    }
}

impl fmt::Display for Prediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "predicted [{} .. {}] (confidence {:.2})",
            self.start, self.end, self.confidence
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Prediction {
        /// Whether the predicted activity starts within the next `window`
        /// seconds — the `now < nextActivity.start < now + l` guard that keeps
        /// resources logically paused (Algorithm 1 line 19).
        #[inline]
        pub(crate) fn starts_within(&self, now: Timestamp, window: Seconds) -> bool {
            now < self.start && self.start < now + window
        }
    }

    fn pred(start: i64, end: i64) -> Prediction {
        Prediction {
            start: Timestamp(start),
            end: Timestamp(end),
            confidence: 0.5,
        }
    }

    #[test]
    fn is_over_matches_algorithm_1_guard() {
        let p = pred(100, 200);
        assert!(!p.is_over(Timestamp(150)));
        assert!(!p.is_over(Timestamp(200)));
        assert!(p.is_over(Timestamp(201)));
    }

    #[test]
    fn starts_within_is_strict_on_both_ends() {
        let p = pred(100, 200);
        let l = Seconds(50);
        // now = start: activity already started, not "starts within".
        assert!(!p.starts_within(Timestamp(100), l));
        assert!(p.starts_within(Timestamp(60), l));
        // Boundary now + l == start is excluded (it belongs to starts_after).
        assert!(!p.starts_within(Timestamp(50), l));
    }

    #[test]
    fn starts_after_is_the_physical_pause_condition() {
        let p = pred(100, 200);
        let l = Seconds(50);
        assert!(p.starts_after(Timestamp(50), l));
        assert!(!p.starts_after(Timestamp(51), l));
    }

    #[test]
    fn within_and_after_partition_the_future() {
        // For any now strictly before start, exactly one of the two guards
        // holds.
        let p = pred(1_000, 2_000);
        let l = Seconds(300);
        for now in (0..1_000).step_by(7) {
            let now = Timestamp(now);
            assert_ne!(
                p.starts_within(now, l),
                p.starts_after(now, l),
                "at {now:?}"
            );
        }
    }
}
