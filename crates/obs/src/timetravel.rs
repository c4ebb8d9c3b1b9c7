//! Trace-driven time travel: re-run Algorithm 4 "as of T".
//!
//! A span trace records every customer login of every database
//! ([`SpanKind::Login`] events carry the simulated login instant), which
//! is exactly the input Algorithm 2 feeds into the history store: one
//! tuple per login second.  Replaying a database's login events into a
//! history table that keeps its mutation log
//! ([`StorageBackend::Lsm`]) therefore reconstructs the *full versioned
//! history* the predictor consumed over the run — and because that log
//! maps applied-at timestamps to sequence numbers,
//! [`MutationLog::snapshot_as_of(T)`](prorp_storage::MutationLog::snapshot_as_of)
//! yields the history exactly as the predictor saw it at any recorded
//! prediction instant `T`.
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
use prorp_storage::{HistoryRead, HistoryStore, HistoryTable, StorageBackend};
use prorp_types::{DatabaseId, EventKind, PolicyConfig, Prediction, ProrpError, Timestamp};

/// Outcome of one time-travel replay.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimeTravelReport {
    /// The database that was replayed.
    pub db: DatabaseId,
    /// The instant the snapshot was frozen at.
    pub as_of: Timestamp,
    /// Login events replayed into the history (the whole trace, not
    /// just those before `as_of` — the snapshot does the cut-off).
    pub logins_replayed: usize,
    /// Tuples visible in the frozen snapshot.
    pub snapshot_len: usize,
    /// The sequence number the snapshot reads at.
    pub snapshot_seqno: u64,
    /// What Algorithm 4 predicts over the snapshot at `as_of`.
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

/// Replay `db`'s login events from `records` into a fresh history table
/// that keeps its mutation log, freeze a snapshot as of `at`, and re-run the Algorithm 4 sweep over
/// it with `config`'s knobs.
///
/// `records` may hold the whole fleet's trace; only `db`'s Login events
/// are replayed (in canonical trace order, which is chronological per
/// database).  Pass the same `config` the engine ran with to reproduce
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
    let mut history = HistoryTable::new(StorageBackend::Lsm);
    let mut timeline: Vec<&TraceRecord> = records.iter().filter(|r| r.db == db).collect();
    timeline.sort_by_key(|r| r.sort_key());
    let mut logins_replayed = 0;
    let mut recorded = None;
    for r in &timeline {
        match r.kind {
            SpanKind::Login { .. } => {
                // Algorithm 2: insert-if-not-exists, one tuple per login
                // second.  The insert is logged at its event timestamp,
                // so the seqno timeline mirrors the simulated clock.
                history.insert_history(r.start, EventKind::Start);
                logins_replayed += 1;
            }
            SpanKind::Predict { outcome } if r.start <= at => {
                recorded = Some((r.start, outcome));
            }
            _ => {}
        }
    }
    let Some(log) = history.log() else {
        unreachable!("the history was built with its log");
    };
    let snapshot = log.snapshot_as_of(at);
    let prediction = predictor.predict_at(&snapshot, at);
    Ok(TimeTravelReport {
        db,
        as_of: at,
        logins_replayed,
        snapshot_len: snapshot.len(),
        snapshot_seqno: snapshot.version(),
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
        // Reference: the same logins in a log-off table, predicted directly.
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
        assert_eq!(report.logins_replayed, 6, "replay loads the whole trace");
        assert_eq!(report.snapshot_len, 2, "snapshot ends at the cut-off");
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
