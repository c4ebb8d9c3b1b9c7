//! Algorithm 4 — the probabilistic sliding-window predictor, native form.
//!
//! Semantics are identical to the SQL-driven executable specification in
//! `prorp-sqlmini::procedures` (differential-tested at the workspace
//! root), with two productionised extensions the paper describes:
//!
//! * **weekly seasonality** (§8, §9.2): compare each candidate window with
//!   the same clock window one, two, … weeks back instead of one, two, …
//!   days back; the probability denominator becomes the number of whole
//!   weeks in the retained history;
//! * knobs come from [`PolicyConfig`] so the training pipeline (§8) can
//!   retune them without code changes.
//!
//! See the `prorp-sqlmini` module docs for the justification of the
//! `ELSE BREAK` interpretation: the scan returns the earliest window run
//! whose confidence climbs to a local maximum above the threshold.

use crate::Predictor;
use prorp_storage::HistoryRead;
use prorp_types::{PolicyConfig, Prediction, ProrpError, Timestamp};

/// What the window probability counts — §6's explicit design choice:
/// "we count the number of windows with activity on h previous days,
/// rather than the number of first logins during windows on h previous
/// days.  In this way, we ensure that the customer activity pattern
/// consistently repeats."
///
/// [`ConfidenceBasis::Logins`] exists as the ablation of that choice: a
/// single chatty day (many logins in one window) can then push an
/// otherwise-unreliable window over the threshold.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ConfidenceBasis {
    /// Count windows with any activity (the paper's choice).
    #[default]
    Windows,
    /// Count individual logins (the ablated alternative), capped at 1.0.
    Logins,
}

/// The deployed probabilistic predictor.
///
/// # Examples
///
/// ```
/// use prorp_forecast::ProbabilisticPredictor;
/// use prorp_storage::{HistoryStore, HistoryTable};
/// use prorp_types::{EventKind, PolicyConfig, Seconds, Timestamp};
///
/// // A 09:00 login every day for a week …
/// let mut history = HistoryTable::default();
/// for day in 0..7 {
///     history.insert_history(Timestamp(day * 86_400 + 9 * 3_600), EventKind::Start);
///     history.insert_history(Timestamp(day * 86_400 + 10 * 3_600), EventKind::End);
/// }
///
/// // … is predicted to recur tomorrow with full confidence.
/// let config = PolicyConfig::builder()
///     .history_len(Seconds::days(7))
///     .build()
///     .unwrap();
/// let predictor = ProbabilisticPredictor::new(config).unwrap();
/// let prediction = predictor
///     .predict_at(&history, Timestamp(7 * 86_400))
///     .expect("daily pattern detected");
/// assert_eq!(prediction.confidence, 1.0);
/// assert_eq!(prediction.start.hour_of_day(), 9);
/// ```
#[derive(Clone, Debug)]
pub struct ProbabilisticPredictor {
    config: PolicyConfig,
    basis: ConfidenceBasis,
}

impl ProbabilisticPredictor {
    /// Build a predictor from validated knobs.
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] failures.
    pub fn new(config: PolicyConfig) -> Result<Self, ProrpError> {
        Self::with_basis(config, ConfidenceBasis::Windows)
    }

    /// Build with an explicit confidence basis (ablation support).
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] failures.
    pub fn with_basis(config: PolicyConfig, basis: ConfidenceBasis) -> Result<Self, ProrpError> {
        config.validate()?;
        Ok(ProbabilisticPredictor { config, basis })
    }

    /// The active configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Core of Algorithm 4, shared by the trait impl.
    pub fn predict_at(&self, history: &dyn HistoryRead, now: Timestamp) -> Option<Prediction> {
        let w = self.config.window;
        let s = self.config.slide;
        let period = self.config.seasonality.period();
        let periods = self.config.periods_in_history();
        debug_assert!(periods >= 1, "validated config covers >= 1 period");
        // Degenerate horizon (`w > p`, including the `p = 0` disable
        // sentinel): no window position fits, so skip the loop setup.
        if w > self.config.horizon {
            return None;
        }

        let pred_end = now + self.config.horizon;
        let mut win_start = now;
        let mut best: Option<Prediction> = None;

        // Outer loop (Algorithm 4 lines 9–47): slide across the horizon.
        while win_start + w <= pred_end {
            let mut windows_with_activity: i64 = 0;
            let mut login_count: i64 = 0;
            let mut earliest_offset = w; // line 11: init to @w
            let mut last_offset = prorp_types::Seconds::ZERO; // line 12

            // Inner loop (lines 15–35): same clock window on each of the
            // previous `periods` seasonal periods.  One combined scan
            // returns MIN, MAX and COUNT at once, so the Logins basis no
            // longer pays a second range scan per window.
            for prev in 1..=periods {
                let lo = win_start - period * prev;
                let hi = lo + w;
                if let Some((first, last, count)) = history.login_window_stats(lo, hi) {
                    earliest_offset = earliest_offset.min(first - lo);
                    last_offset = last_offset.max(last - lo);
                    windows_with_activity += 1;
                    if self.basis == ConfidenceBasis::Logins {
                        login_count += count;
                    }
                }
            }

            let prob = match self.basis {
                // line 36 as published.
                ConfidenceBasis::Windows => windows_with_activity as f64 / periods as f64,
                // The ablated alternative §6 argues against.
                ConfidenceBasis::Logins => (login_count as f64 / periods as f64).min(1.0),
            };
            let improves = match &best {
                None => windows_with_activity > 0 && prob >= self.config.confidence,
                Some(b) => prob > b.confidence,
            };
            if improves {
                best = Some(Prediction {
                    start: win_start + earliest_offset,
                    end: win_start + last_offset,
                    confidence: prob,
                });
            } else if best.is_some() {
                break; // first non-improving window after a hit
            }
            win_start += s;
        }
        best
    }
}

impl Predictor for ProbabilisticPredictor {
    fn predict(
        &mut self,
        history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError> {
        Ok(self.predict_at(history, now))
    }

    fn name(&self) -> &'static str {
        "probabilistic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::{HistoryStore, HistoryTable};
    use prorp_types::{EventKind, Seasonality, Seconds};

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn config(c: f64, w_hours: i64) -> PolicyConfig {
        PolicyConfig::builder()
            .confidence(c)
            .window(Seconds::hours(w_hours))
            .history_len(Seconds::days(5))
            .build()
            .unwrap()
    }

    /// History with a session at `hour`..`hour+1` on each listed day.
    fn history_on_days(days: &[i64], hour: i64) -> HistoryTable {
        let mut h = HistoryTable::default();
        for &d in days {
            h.insert_history(t(d * DAY + hour * HOUR), EventKind::Start);
            h.insert_history(t(d * DAY + (hour + 1) * HOUR), EventKind::End);
        }
        h
    }

    #[test]
    fn perfect_daily_pattern_is_predicted_with_full_confidence() {
        let history = history_on_days(&[0, 1, 2, 3, 4], 9);
        let p = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        let now = t(5 * DAY);
        let pred = p.predict_at(&history, now).expect("pattern expected");
        assert_eq!(pred.confidence, 1.0);
        let real_start = now + Seconds::hours(9);
        assert!(
            pred.start <= real_start && real_start <= pred.end + Seconds::hours(2),
            "predicted {pred} should cover 09:00"
        );
    }

    #[test]
    fn sporadic_activity_is_below_threshold() {
        let history = history_on_days(&[2], 9);
        let p = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        assert!(p.predict_at(&history, t(5 * DAY)).is_none());
        // With a permissive threshold the single hit qualifies at 1/5.
        let p = ProbabilisticPredictor::new(config(0.15, 2)).unwrap();
        let pred = p.predict_at(&history, t(5 * DAY)).unwrap();
        assert!((pred.confidence - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_history_predicts_nothing() {
        let p = ProbabilisticPredictor::new(config(0.1, 2)).unwrap();
        assert!(p.predict_at(&HistoryTable::default(), t(0)).is_none());
    }

    #[test]
    fn earliest_local_maximum_wins() {
        // Morning (daily) and evening (daily) activity: morning wins.
        let mut history = HistoryTable::default();
        for d in 0..5 {
            history.insert_history(t(d * DAY + 8 * HOUR), EventKind::Start);
            history.insert_history(t(d * DAY + 8 * HOUR + 1800), EventKind::End);
            history.insert_history(t(d * DAY + 20 * HOUR), EventKind::Start);
            history.insert_history(t(d * DAY + 20 * HOUR + 1800), EventKind::End);
        }
        let p = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        let now = t(5 * DAY);
        let pred = p.predict_at(&history, now).unwrap();
        let hour = (pred.start - now).as_secs() / HOUR;
        assert!((6..=9).contains(&hour), "expected morning, got hour {hour}");
    }

    #[test]
    fn weekly_seasonality_detects_monday_only_activity() {
        // Activity at 09:00 on days 0, 7, 14, 21 (same weekday) across a
        // 28-day history.
        let history = history_on_days(&[0, 7, 14, 21], 9);
        let weekly = PolicyConfig::builder()
            .seasonality(Seasonality::Weekly)
            .confidence(0.8)
            .window(Seconds::hours(2))
            .history_len(Seconds::days(28))
            .build()
            .unwrap();
        let p = ProbabilisticPredictor::new(weekly).unwrap();
        // Predicting from day 28 (the same weekday): full confidence.
        let now = t(28 * DAY);
        let pred = p.predict_at(&history, now).expect("weekly pattern");
        assert_eq!(pred.confidence, 1.0);
        // Daily seasonality sees only 4/28 qualifying days → below 0.8.
        let daily = PolicyConfig::builder()
            .confidence(0.8)
            .window(Seconds::hours(2))
            .history_len(Seconds::days(28))
            .build()
            .unwrap();
        let p = ProbabilisticPredictor::new(daily).unwrap();
        assert!(p.predict_at(&history, now).is_none());
    }

    #[test]
    fn prediction_respects_the_horizon() {
        // Activity only at 09:00; predicting from 10:00 the next morning's
        // window lies within the 24 h horizon, so a prediction exists and
        // starts in the future.
        let history = history_on_days(&[0, 1, 2, 3, 4], 9);
        let p = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        let now = t(5 * DAY + 10 * HOUR);
        if let Some(pred) = p.predict_at(&history, now) {
            assert!(pred.start >= now);
            assert!(pred.start <= now + Seconds::days(1));
        }
    }

    #[test]
    fn wide_windows_count_windows_not_logins() {
        // Two logins per day inside one wide window must count the day
        // once (§6: "we count the number of windows with activity ...
        // rather than the number of first logins").
        let mut history = HistoryTable::default();
        for d in 0..5 {
            history.insert_history(t(d * DAY + 9 * HOUR), EventKind::Start);
            history.insert_history(t(d * DAY + 9 * HOUR + 600), EventKind::End);
            history.insert_history(t(d * DAY + 10 * HOUR), EventKind::Start);
            history.insert_history(t(d * DAY + 10 * HOUR + 600), EventKind::End);
        }
        let p = ProbabilisticPredictor::new(config(0.9, 4)).unwrap();
        let pred = p.predict_at(&history, t(5 * DAY)).unwrap();
        // Confidence is a probability (bounded by 1), not a login count / h.
        assert!(pred.confidence <= 1.0);
        assert_eq!(pred.confidence, 1.0);
    }

    #[test]
    fn login_count_basis_is_fooled_by_one_chatty_day() {
        // Five logins within one window on a single day out of five: the
        // windows basis sees confidence 1/5 = 0.2 (below c = 0.5); the
        // logins basis sees 5/5 = 1.0 and wrongly predicts — exactly the
        // failure mode §6's "count windows, not logins" rule prevents.
        let mut history = HistoryTable::default();
        for i in 0..5 {
            history.insert_history(t(2 * DAY + 9 * HOUR + i * 600), EventKind::Start);
            history.insert_history(t(2 * DAY + 9 * HOUR + i * 600 + 300), EventKind::End);
        }
        let windows = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        assert!(windows.predict_at(&history, t(5 * DAY)).is_none());
        let logins =
            ProbabilisticPredictor::with_basis(config(0.5, 2), ConfidenceBasis::Logins).unwrap();
        let pred = logins.predict_at(&history, t(5 * DAY));
        assert!(pred.is_some(), "the ablated basis over-commits");
        // The earliest qualifying plateau wins (the hill-climb breaks on
        // the first non-improving window), so the reported confidence is
        // the first login-count ratio above the threshold, not the peak.
        assert!(pred.unwrap().confidence >= 0.5);
    }

    #[test]
    fn bases_agree_on_single_login_days() {
        // One login per day: logins == windows, so both bases coincide.
        let history = history_on_days(&[0, 1, 2, 3, 4], 9);
        let a = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        let b =
            ProbabilisticPredictor::with_basis(config(0.5, 2), ConfidenceBasis::Logins).unwrap();
        assert_eq!(
            a.predict_at(&history, t(5 * DAY)),
            b.predict_at(&history, t(5 * DAY))
        );
    }

    #[test]
    fn zero_horizon_is_equivalent_to_no_prediction() {
        // `p = 0` disables prediction (PolicyConfig::prediction_disabled);
        // predict_at must pin that to `None` without entering the sweep,
        // even over a history with a perfect pattern.
        let history = history_on_days(&[0, 1, 2, 3, 4], 9);
        let cfg = PolicyConfig {
            horizon: Seconds::ZERO,
            ..config(0.5, 2)
        };
        let p = ProbabilisticPredictor {
            config: cfg,
            basis: ConfidenceBasis::Windows,
        };
        assert_eq!(p.predict_at(&history, t(5 * DAY)), None);
        // Any horizon shorter than the window is equally degenerate.
        let cfg = PolicyConfig {
            horizon: Seconds::hours(1),
            ..config(0.5, 2)
        };
        let p = ProbabilisticPredictor {
            config: cfg,
            basis: ConfidenceBasis::Windows,
        };
        assert_eq!(p.predict_at(&history, t(5 * DAY)), None);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = PolicyConfig {
            confidence: 2.0,
            ..PolicyConfig::default()
        };
        assert!(ProbabilisticPredictor::new(bad).is_err());
    }

    #[test]
    fn trait_impl_reports_name_and_never_errors() {
        let mut p = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        assert_eq!(p.name(), "probabilistic");
        let history = history_on_days(&[0, 1, 2, 3, 4], 9);
        let r = crate::Predictor::predict(&mut p, &history, t(5 * DAY));
        assert!(r.unwrap().is_some());
    }
}
