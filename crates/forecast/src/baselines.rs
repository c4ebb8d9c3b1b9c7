//! Baseline predictors.
//!
//! §1 and §10 of the paper justify the deployed probabilistic detector by
//! comparing against simpler and fancier alternatives; these baselines
//! reproduce the "simpler" end of that spectrum, and [`FailEvery`]
//! provides the fault injection the §3.2 "default to reactive" design
//! principle is tested with.

use crate::{Predictor, SharedKnobs};
use prorp_storage::HistoryRead;
use prorp_types::{Prediction, ProrpError, Seconds, Timestamp};

/// Predicts nothing, ever.  The proactive policy running on top of this
/// baseline degenerates to (approximately) the reactive policy: every
/// idle database waits out the logical pause and is then physically
/// paused, and no proactive resume is scheduled.
#[derive(Clone, Copy, Debug, Default)]
pub struct NeverPredictor;

impl Predictor for NeverPredictor {
    fn predict(
        &mut self,
        _history: &dyn HistoryRead,
        _now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError> {
        Ok(None)
    }

    fn name(&self) -> &'static str {
        "never"
    }
}

/// Predicts the next login at `now + median(recent inter-login gaps)`.
///
/// A classic "renewal process" heuristic: ignores time-of-day structure
/// entirely, so it does well on metronomic workloads and poorly on
/// anything diurnal — exactly the contrast §6 motivates.
#[derive(Clone, Copy, Debug)]
pub struct LastGapPredictor {
    /// How many most-recent logins to consider (at least 2).
    pub max_logins: usize,
    /// Assumed duration of the predicted session.
    pub assumed_duration: Seconds,
}

impl Default for LastGapPredictor {
    fn default() -> Self {
        LastGapPredictor {
            max_logins: 16,
            assumed_duration: Seconds::hours(1),
        }
    }
}

impl Predictor for LastGapPredictor {
    fn predict(
        &mut self,
        history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError> {
        // Collect login timestamps (event_type = 1), most recent last.
        let logins: Vec<Timestamp> = history
            .events()
            .into_iter()
            .filter(|e| e.kind == prorp_types::EventKind::Start)
            .map(|e| e.ts)
            .collect();
        if logins.len() < 2 {
            return Ok(None);
        }
        let tail = &logins[logins.len().saturating_sub(self.max_logins)..];
        let mut gaps: Vec<i64> = tail.windows(2).map(|w| (w[1] - w[0]).as_secs()).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        if median <= 0 {
            return Ok(None);
        }
        let last_login = *logins.last().expect("len checked");
        // Project forward from the last login; skip past `now`.
        let mut start = last_login + Seconds(median);
        while start < now {
            start += Seconds(median);
        }
        Ok(Some(Prediction {
            start,
            end: start + self.assumed_duration,
            confidence: 0.5,
        }))
    }

    fn name(&self) -> &'static str {
        "last-gap"
    }
}

/// Hour-of-day histogram predictor: estimates the login probability per
/// clock hour over the retained history and predicts the next hour whose
/// probability clears `confidence`.
///
/// A coarse cousin of Algorithm 4 (window = 1 h, slide = 1 h, offsets
/// snapped to the hour); useful as an ablation of the fine-grained window
/// machinery.
#[derive(Clone, Copy, Debug)]
pub struct HourlyHistogramPredictor {
    /// Minimum per-hour login probability.
    pub confidence: f64,
    /// Days of history contributing to the histogram denominator.
    pub history_days: i64,
}

impl Default for HourlyHistogramPredictor {
    fn default() -> Self {
        HourlyHistogramPredictor {
            confidence: 0.5,
            history_days: 28,
        }
    }
}

impl Predictor for HourlyHistogramPredictor {
    fn predict(
        &mut self,
        history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError> {
        if self.history_days <= 0 {
            return Err(ProrpError::Forecast(format!(
                "history_days must be positive, got {}",
                self.history_days
            )));
        }
        // Count days (not logins) with a login in each clock hour.
        let mut days_with_login = [0i64; 24];
        let mut seen_day_hour = std::collections::HashSet::new();
        for ev in history.events() {
            if ev.kind != prorp_types::EventKind::Start {
                continue;
            }
            if ev.ts < now - Seconds::days(self.history_days) || ev.ts > now {
                continue;
            }
            let key = (ev.ts.day_index(), ev.ts.hour_of_day());
            if seen_day_hour.insert(key) {
                days_with_login[ev.ts.hour_of_day() as usize] += 1;
            }
        }
        // Scan the next 24 hours in order, starting from the next hour.
        let first_hour = now.align_down(Seconds::hours(1)) + Seconds::hours(1);
        for i in 0..24 {
            let slot = first_hour + Seconds::hours(i);
            let hour = slot.hour_of_day() as usize;
            let prob = days_with_login[hour] as f64 / self.history_days as f64;
            if prob >= self.confidence {
                return Ok(Some(Prediction {
                    start: slot,
                    end: slot + Seconds::hours(1),
                    confidence: prob.min(1.0),
                }));
            }
        }
        Ok(None)
    }

    fn name(&self) -> &'static str {
        "hourly-histogram"
    }
}

/// Fault-injecting wrapper: every `period`-th call fails with
/// [`ProrpError::FaultInjected`].  Exercises the §3.2 requirement that
/// "if any component of ProRP goes down, the system must default to the
/// reactive policy until the failed component comes up".
#[derive(Debug)]
pub struct FailEvery<P> {
    inner: P,
    period: u64,
    calls: u64,
}

impl<P> FailEvery<P> {
    /// Fail every `period`-th call (period 1 = always fail).
    ///
    /// # Panics
    ///
    /// Panics when `period` is 0.
    pub fn new(inner: P, period: u64) -> Self {
        assert!(period > 0, "period must be positive");
        FailEvery {
            inner,
            period,
            calls: 0,
        }
    }

    /// Calls observed so far.
    pub fn calls(&self) -> u64 {
        self.calls
    }
}

impl<P: Predictor> Predictor for FailEvery<P> {
    fn predict(
        &mut self,
        history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError> {
        self.calls += 1;
        if self.calls % self.period == 0 {
            return Err(ProrpError::FaultInjected(format!(
                "predictor down (call {})",
                self.calls
            )));
        }
        self.inner.predict(history, now)
    }

    fn name(&self) -> &'static str {
        "fail-every"
    }

    fn wants_clock_index(&self) -> bool {
        self.inner.wants_clock_index()
    }

    fn knobs(&self) -> Option<&SharedKnobs> {
        self.inner.knobs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::{HistoryStore, HistoryTable};
    use prorp_types::EventKind;

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn daily_history(days: i64, hour: i64) -> HistoryTable {
        let mut h = HistoryTable::default();
        for d in 0..days {
            h.insert_history(t(d * DAY + hour * HOUR), EventKind::Start);
            h.insert_history(t(d * DAY + hour * HOUR + 1800), EventKind::End);
        }
        h
    }

    #[test]
    fn never_predicts_nothing() {
        let mut p = NeverPredictor;
        let h = daily_history(10, 9);
        assert_eq!(p.predict(&h, t(10 * DAY)).unwrap(), None);
        assert_eq!(p.name(), "never");
    }

    #[test]
    fn last_gap_projects_the_median_gap() {
        let mut p = LastGapPredictor::default();
        // Logins exactly every 6 hours.
        let mut h = HistoryTable::default();
        for i in 0..8 {
            h.insert_history(t(i * 6 * HOUR), EventKind::Start);
            h.insert_history(t(i * 6 * HOUR + 600), EventKind::End);
        }
        let now = t(7 * 6 * HOUR + 1_000);
        let pred = p.predict(&h, now).unwrap().unwrap();
        assert_eq!(pred.start, t(8 * 6 * HOUR));
        assert!(pred.end > pred.start);
    }

    #[test]
    fn last_gap_needs_two_logins() {
        let mut p = LastGapPredictor::default();
        let mut h = HistoryTable::default();
        assert_eq!(p.predict(&h, t(0)).unwrap(), None);
        h.insert_history(t(100), EventKind::Start);
        assert_eq!(p.predict(&h, t(200)).unwrap(), None);
    }

    #[test]
    fn last_gap_skips_past_now() {
        let mut p = LastGapPredictor::default();
        let mut h = HistoryTable::default();
        h.insert_history(t(0), EventKind::Start);
        h.insert_history(t(HOUR), EventKind::Start);
        // Median gap = 1h; last login at 1h; now = 10h → prediction must
        // land at or after now.
        let pred = p.predict(&h, t(10 * HOUR)).unwrap().unwrap();
        assert!(pred.start >= t(10 * HOUR));
    }

    #[test]
    fn hourly_histogram_finds_the_daily_hour() {
        let mut p = HourlyHistogramPredictor {
            confidence: 0.3,
            history_days: 10,
        };
        let h = daily_history(10, 9);
        let now = t(10 * DAY); // midnight
        let pred = p.predict(&h, now).unwrap().unwrap();
        assert_eq!(pred.start.hour_of_day(), 9);
        assert!((pred.confidence - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hourly_histogram_respects_threshold() {
        let mut p = HourlyHistogramPredictor {
            confidence: 0.9,
            history_days: 10,
        };
        // Only 3 of 10 days have logins.
        let h = daily_history(3, 9);
        assert_eq!(p.predict(&h, t(10 * DAY)).unwrap(), None);
    }

    #[test]
    fn hourly_histogram_counts_days_not_logins() {
        let mut p = HourlyHistogramPredictor {
            confidence: 0.5,
            history_days: 10,
        };
        // 5 logins in hour 9, all on the same day: probability is 1/10.
        let mut h = HistoryTable::default();
        for i in 0..5 {
            h.insert_history(t(9 * HOUR + i * 60), EventKind::Start);
        }
        assert_eq!(p.predict(&h, t(10 * DAY)).unwrap(), None);
    }

    #[test]
    fn hourly_histogram_rejects_bad_config() {
        let mut p = HourlyHistogramPredictor {
            confidence: 0.5,
            history_days: 0,
        };
        assert!(p.predict(&HistoryTable::default(), t(0)).is_err());
    }

    #[test]
    fn fail_every_injects_faults_on_schedule() {
        let mut p = FailEvery::new(NeverPredictor, 3);
        let h = HistoryTable::default();
        assert!(p.predict(&h, t(0)).is_ok());
        assert!(p.predict(&h, t(0)).is_ok());
        let err = p.predict(&h, t(0)).unwrap_err();
        assert_eq!(err.category(), "fault_injected");
        assert!(p.predict(&h, t(0)).is_ok());
        assert_eq!(p.calls(), 4);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn fail_every_zero_period_panics() {
        let _ = FailEvery::new(NeverPredictor, 0);
    }
}
