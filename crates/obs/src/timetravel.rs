//! Trace-driven time travel: re-run Algorithm 4 "as of T".
//!
//! A span trace records every customer login of every database
//! ([`SpanKind::Login`] events carry the simulated login instant), which
//! is exactly the input Algorithm 2 feeds into the history store: one
//! tuple per login second.  Replaying the prefix of a database's login
//! events up to an instant `T` into a plain history table therefore
//! rebuilds the history as the predictor saw it at `T`, for any recorded
//! prediction instant.
//!
//! Algorithm 4 reads only login tuples inside windows that never reach
//! behind the retention horizon (`lo >= now - h`), so a replay of the
//! Login events alone — no logout tuples, no Algorithm 3 trims —
//! produces bit-identical predictions to the live engine's: trims only
//! remove tuples the sweep never probes, and logout tuples are never
//! counted by `login_window_stats`.
//!
//! This is the post-mortem loop the storage redesign exists for: pick a
//! QoS miss from the trace, replay the database's history, and ask "what
//! would Algorithm 4 have said as of the prediction instant before the
//! miss?" — with the answer attributable to the exact tuples the
//! predictor saw, not a reconstruction-by-eye.

use crate::span::{PredictOutcome, SpanKind, TraceRecord};
use prorp_forecast::ProbabilisticPredictor;
use prorp_storage::{HistoryRead, HistoryStore, HistoryTable};
use prorp_types::{DatabaseId, EventKind, PolicyConfig, Prediction, ProrpError, Timestamp};

/// Outcome of one time-travel replay.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimeTravelReport {
    /// The database that was replayed.
    pub db: DatabaseId,
    /// The instant the history was rebuilt as of.
    pub as_of: Timestamp,
    /// Login events the trace holds for the database (all of them, not
    /// just the ones at or before `as_of` that reach the history).
    pub logins_replayed: usize,
    /// Tuples in the history as of `as_of`.
    pub snapshot_len: usize,
    /// The history's version as of `as_of`: one per login second
    /// inserted.
    pub snapshot_seqno: u64,
    /// What Algorithm 4 predicts over that history at `as_of`.
    pub prediction: Option<Prediction>,
    /// The last recorded predictor run at or before `as_of`, if the
    /// trace holds one: `(instant, outcome)`.
    pub recorded: Option<(Timestamp, PredictOutcome)>,
}

impl TimeTravelReport {
    /// Whether the replay ran at the exact instant of a recorded
    /// successful predictor run — in that case
    /// [`prediction`](TimeTravelReport::prediction) *is* the forecast
    /// the engine acted on.
    pub fn reproduces_recorded_run(&self) -> bool {
        matches!(
            self.recorded,
            Some((at, PredictOutcome::Predicted)) if at == self.as_of
        )
    }
}

/// Replay `db`'s login events at or before `at` from `records` into a
/// fresh history table and re-run the Algorithm 4 sweep over it at `at`
/// with `config`'s knobs.
///
/// `records` may hold the whole fleet's trace; only `db`'s Login events
/// are replayed.  Pass the same `config` the engine ran with to reproduce
/// its predictions bit-for-bit.
///
/// # Errors
///
/// Propagates [`PolicyConfig`] validation failures.
pub fn replay_as_of(
    records: &[TraceRecord],
    db: DatabaseId,
    at: Timestamp,
    config: PolicyConfig,
) -> Result<TimeTravelReport, ProrpError> {
    let predictor = ProbabilisticPredictor::new(config)?;
    let mut history = HistoryTable::default();
    let mut timeline: Vec<&TraceRecord> = records.iter().filter(|r| r.db == db).collect();
    timeline.sort_by_key(|r| r.sort_key());
    let mut logins_replayed = 0;
    let mut recorded = None;
    for r in &timeline {
        match r.kind {
            SpanKind::Login { .. } => {
                // Algorithm 2: insert-if-not-exists, one tuple per login
                // second.
                if r.start <= at {
                    history.insert_history(r.start, EventKind::Start);
                }
                logins_replayed += 1;
            }
            SpanKind::Predict { outcome } if r.start <= at => {
                recorded = Some((r.start, outcome));
            }
            _ => {}
        }
    }
    let prediction = predictor.predict_at(&history, at);
    Ok(TimeTravelReport {
        db,
        as_of: at,
        logins_replayed,
        snapshot_len: history.len(),
        snapshot_seqno: history.version(),
        prediction,
        recorded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{TraceBuffer, TraceSink};
    use prorp_types::Seconds;

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    fn config() -> PolicyConfig {
        PolicyConfig::builder()
            .history_len(Seconds::days(5))
            .confidence(0.5)
            .window(Seconds::hours(2))
            .build()
            .unwrap()
    }

    /// Six days of 09:00 logins for db 1, noise on db 2, plus a recorded
    /// predictor run after the last logout.
    fn trace() -> Vec<TraceRecord> {
        let mut buf = TraceBuffer::new();
        for d in 0..6 {
            buf.event(
                Timestamp(d * DAY + 9 * HOUR),
                DatabaseId(1),
                SpanKind::Login { available: true },
            );
            buf.event(
                Timestamp(d * DAY + 13 * HOUR),
                DatabaseId(2),
                SpanKind::Login { available: false },
            );
        }
        buf.event(
            Timestamp(5 * DAY + 10 * HOUR),
            DatabaseId(1),
            SpanKind::Predict {
                outcome: PredictOutcome::Predicted,
            },
        );
        buf.into_records()
    }

    #[test]
    fn replay_matches_a_directly_built_history() {
        let at = Timestamp(5 * DAY + 10 * HOUR);
        let report = replay_as_of(&trace(), DatabaseId(1), at, config()).unwrap();
        assert_eq!(report.logins_replayed, 6);
        assert_eq!(report.snapshot_len, 6, "all logins precede the cut-off");
        // Reference: the same logins inserted and predicted directly.
        let mut table = HistoryTable::default();
        for d in 0..6 {
            table.insert_history(Timestamp(d * DAY + 9 * HOUR), EventKind::Start);
        }
        let expected = ProbabilisticPredictor::new(config())
            .unwrap()
            .predict_at(&table, at);
        assert_eq!(report.prediction, expected);
        assert!(expected.is_some(), "six daily logins form a pattern");
        assert!(report.reproduces_recorded_run());
    }

    #[test]
    fn snapshot_cut_off_hides_later_logins() {
        // As of day 2 the pattern is too thin for confidence 0.5 over a
        // 5-day history; the replay must not see the later logins.
        let at = Timestamp(2 * DAY);
        let report = replay_as_of(&trace(), DatabaseId(1), at, config()).unwrap();
        assert_eq!(report.logins_replayed, 6, "every login is counted");
        assert_eq!(report.snapshot_len, 2, "the history ends at the cut-off");
        assert!(report.snapshot_seqno < 6);
        assert!(report.recorded.is_none(), "no predict span before day 2");
    }

    #[test]
    fn other_databases_do_not_leak_into_the_replay() {
        let at = Timestamp(5 * DAY + 10 * HOUR);
        let report = replay_as_of(&trace(), DatabaseId(2), at, config()).unwrap();
        assert_eq!(report.logins_replayed, 6);
        assert!(
            report.recorded.is_none(),
            "the predict span belongs to db 1"
        );
        assert!(!report.reproduces_recorded_run());
    }
}
