//! Seasonality detection — choosing between the daily and weekly
//! variants of Algorithm 4.
//!
//! §8 lists seasonality among the knobs the training pipeline tunes and
//! §9.2 reports weekly seasonality "achieves similar results" to daily.
//! Rather than sweeping both through the simulator, this module scores
//! each candidate period directly with Algorithm 4's own notion of
//! confidence: bucket login *phases* (time-of-period), find the dominant
//! bucket, and measure in what fraction of the spanned periods that
//! bucket actually contains a login.  A daily 09:00 pattern scores 1.0
//! at the daily period; a Monday-only pattern scores ~1/7 at the daily
//! period but 1.0 at the weekly one.

use prorp_storage::HistoryRead;
use prorp_types::{EventKind, Seasonality, Seconds};
use std::collections::HashSet;

/// Phase-bucket width.  A *constant time width* (rather than a constant
/// bucket count per period) keeps the two candidate periods comparable:
/// with per-period bucket counts, the weekly buckets would be 7× wider
/// than the daily ones and absorb 7× the jitter, biasing every pattern
/// toward "weekly".
const BUCKET_WIDTH_SECS: i64 = 3_600;

/// Recurrence score of the dominant phase bucket for one candidate
/// period: `periods hitting the bucket / periods spanned`, in `[0, 1]`.
/// Histories spanning fewer than two periods score 0 (one sample proves
/// nothing about recurrence).
pub fn recurrence_score(history: &dyn HistoryRead, period: Seconds) -> f64 {
    let logins: Vec<i64> = history
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Start)
        .map(|e| e.ts.as_secs())
        .collect();
    let (Some(first), Some(last)) = (logins.first(), logins.last()) else {
        return 0.0;
    };
    let p = period.as_secs();
    let buckets = (p / BUCKET_WIDTH_SECS).max(1);
    let periods_spanned = (last.div_euclid(p) - first.div_euclid(p) + 1).max(1);
    if periods_spanned < 2 {
        return 0.0;
    }
    // Distinct (period, bucket) hits.
    let mut hits: HashSet<(i64, i64)> = HashSet::new();
    for t in &logins {
        let period_idx = t.div_euclid(p);
        let bucket = (t.rem_euclid(p) / BUCKET_WIDTH_SECS).min(buckets - 1);
        hits.insert((period_idx, bucket));
    }
    // Periods hitting each bucket.
    let mut per_bucket = vec![0i64; buckets as usize];
    for (_, bucket) in &hits {
        per_bucket[*bucket as usize] += 1;
    }
    let best = per_bucket.iter().copied().max().unwrap_or(0);
    best as f64 / periods_spanned as f64
}

/// Scores for both candidate seasonalities.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeasonalityScores {
    /// Recurrence under a 24-hour period.
    pub daily: f64,
    /// Recurrence under a 7-day period.
    pub weekly: f64,
}

/// Score both periods on a history.
pub fn score_seasonalities(history: &dyn HistoryRead) -> SeasonalityScores {
    SeasonalityScores {
        daily: recurrence_score(history, Seconds::days(1)),
        weekly: recurrence_score(history, Seconds::weeks(1)),
    }
}

/// Margin by which the weekly score must beat the daily score before
/// weekly seasonality is selected — weekly needs 7× the history for the
/// same sample count, so daily is preferred on near-ties (and is the
/// production default).
pub const WEEKLY_MARGIN: f64 = 0.15;

/// Pick the seasonality for a history: weekly only when its recurrence
/// beats daily by [`WEEKLY_MARGIN`], otherwise the daily default.
pub fn detect_seasonality(history: &dyn HistoryRead) -> Seasonality {
    let scores = score_seasonalities(history);
    if scores.weekly > scores.daily + WEEKLY_MARGIN {
        Seasonality::Weekly
    } else {
        Seasonality::Daily
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::{HistoryStore, HistoryTable};
    use prorp_types::Timestamp;

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    fn history_from_logins(logins: &[i64]) -> HistoryTable {
        let mut h = HistoryTable::new();
        for &t in logins {
            h.insert_history(Timestamp(t), EventKind::Start);
            h.insert_history(Timestamp(t + 600), EventKind::End);
        }
        h
    }

    #[test]
    fn daily_pattern_scores_daily() {
        let logins: Vec<i64> = (0..28).map(|d| d * DAY + 9 * HOUR).collect();
        let h = history_from_logins(&logins);
        let scores = score_seasonalities(&h);
        assert!(scores.daily > 0.95, "{scores:?}");
        assert_eq!(detect_seasonality(&h), Seasonality::Daily);
    }

    #[test]
    fn weekly_only_pattern_detects_weekly() {
        // 09:00 on one day of the week only, for 8 weeks.
        let logins: Vec<i64> = (0..8).map(|w| w * 7 * DAY + 9 * HOUR).collect();
        let h = history_from_logins(&logins);
        let scores = score_seasonalities(&h);
        assert!(scores.weekly > 0.95, "{scores:?}");
        assert!(scores.daily < 0.3, "{scores:?}");
        assert_eq!(detect_seasonality(&h), Seasonality::Weekly);
    }

    #[test]
    fn uniform_logins_default_to_daily() {
        let logins: Vec<i64> = (0..200).map(|i| i * 7_919 * 60).collect();
        let h = history_from_logins(&logins);
        let scores = score_seasonalities(&h);
        assert!(scores.daily < 0.6 && scores.weekly < 0.9, "{scores:?}");
        assert_eq!(detect_seasonality(&h), Seasonality::Daily);
    }

    #[test]
    fn empty_and_single_period_histories_default_to_daily() {
        let h = HistoryTable::new();
        assert_eq!(detect_seasonality(&h), Seasonality::Daily);
        assert_eq!(score_seasonalities(&h).daily, 0.0);
        // All logins inside one day: nothing recurs yet.
        let h = history_from_logins(&[9 * HOUR, 10 * HOUR, 11 * HOUR]);
        let scores = score_seasonalities(&h);
        assert_eq!(scores.daily, 0.0);
        assert_eq!(scores.weekly, 0.0);
        assert_eq!(detect_seasonality(&h), Seasonality::Daily);
    }

    #[test]
    fn weekday_business_pattern_prefers_weekly_given_enough_weeks() {
        // Mon–Fri 09:00 for 8 weeks: daily recurrence is 5/7 ≈ 0.71,
        // weekly recurrence of the Monday bucket is 1.0 — weekly wins by
        // more than the margin, avoiding the weekend wrong-pre-warms.
        let logins: Vec<i64> = (0..56)
            .filter(|d| d % 7 < 5)
            .map(|d| d * DAY + 9 * HOUR)
            .collect();
        let h = history_from_logins(&logins);
        let scores = score_seasonalities(&h);
        assert!((scores.daily - 5.0 / 7.0).abs() < 0.1, "{scores:?}");
        assert!(scores.weekly > 0.95, "{scores:?}");
        assert_eq!(detect_seasonality(&h), Seasonality::Weekly);
    }
}
