//! Operator queries over a loaded trace.
//!
//! These are the questions an on-call engineer asks of a fleet trace: what
//! happened to *this* database, which workflow stages were slowest, when
//! did circuit breakers open and close, and — for every QoS miss — what
//! was the predictor doing beforehand?  All results are deterministic
//! functions of the canonical trace order, so query output over a golden
//! trace is itself golden-testable.

use crate::span::{
    BreakerTransition, DecisionExplain, PredictOutcome, SpanKind, StageResult, TraceRecord,
};
use prorp_types::{DatabaseId, Seconds, Timestamp, WorkflowStage};
use std::collections::BTreeMap;

/// Headline facts about one trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceSummary {
    /// Total records.
    pub records: usize,
    /// Distinct databases appearing in the trace.
    pub databases: usize,
    /// Record counts per span-kind label, sorted by label.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Earliest span start (`None` on an empty trace).
    pub start: Option<Timestamp>,
    /// Latest span end.
    pub end: Option<Timestamp>,
}

/// Summarise a trace: record counts by kind and the covered time range.
pub fn summary(records: &[TraceRecord]) -> TraceSummary {
    let mut by_kind = BTreeMap::new();
    let mut dbs: Vec<DatabaseId> = Vec::new();
    let mut start: Option<Timestamp> = None;
    let mut end: Option<Timestamp> = None;
    for r in records {
        *by_kind.entry(r.kind.label()).or_insert(0u64) += 1;
        dbs.push(r.db);
        start = Some(start.map_or(r.start, |s| s.min(r.start)));
        end = Some(end.map_or(r.end, |e| e.max(r.end)));
    }
    dbs.sort_unstable();
    dbs.dedup();
    TraceSummary {
        records: records.len(),
        databases: dbs.len(),
        by_kind,
        start,
        end,
    }
}

/// Every record of one database, in canonical (chronological) order.
pub fn timeline(records: &[TraceRecord], db: DatabaseId) -> Vec<&TraceRecord> {
    records.iter().filter(|r| r.db == db).collect()
}

/// One completed workflow-stage attempt, ranked by duration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StageLatency {
    /// The stage.
    pub stage: WorkflowStage,
    /// The database whose workflow ran the stage.
    pub db: DatabaseId,
    /// Simulated start of the attempt.
    pub start: Timestamp,
    /// How long the attempt took.
    pub duration: Seconds,
}

/// The `n` slowest *successful* workflow-stage attempts, longest first.
///
/// Ties break on `(start, db, stage order)` so the ranking is a pure
/// function of the trace.
pub fn slowest_stages(records: &[TraceRecord], n: usize) -> Vec<StageLatency> {
    let mut stages: Vec<StageLatency> = records
        .iter()
        .filter_map(|r| match r.kind {
            SpanKind::WorkflowStage {
                stage,
                result: StageResult::Ok,
                ..
            } => Some(StageLatency {
                stage,
                db: r.db,
                start: r.start,
                duration: r.duration(),
            }),
            _ => None,
        })
        .collect();
    stages.sort_by_key(|s| {
        (
            -s.duration.as_secs(),
            s.start.as_secs(),
            s.db.raw(),
            s.stage.index(),
        )
    });
    stages.truncate(n);
    stages
}

/// One open(→close) episode of a database's predictor circuit breaker.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BreakerEpisode {
    /// The database whose breaker tripped.
    pub db: DatabaseId,
    /// When the breaker opened.
    pub opened: Timestamp,
    /// When it closed again (`None` if still open at end of trace).
    pub closed: Option<Timestamp>,
    /// Reactive fallbacks served while the episode was open.
    pub fallbacks: u64,
}

/// All breaker episodes, ordered by `(opened, db)`.
pub fn breaker_episodes(records: &[TraceRecord]) -> Vec<BreakerEpisode> {
    let mut open: BTreeMap<DatabaseId, BreakerEpisode> = BTreeMap::new();
    let mut episodes = Vec::new();
    for r in records {
        match r.kind {
            SpanKind::Breaker {
                transition: BreakerTransition::Opened,
            } => {
                open.insert(
                    r.db,
                    BreakerEpisode {
                        db: r.db,
                        opened: r.start,
                        closed: None,
                        fallbacks: 0,
                    },
                );
            }
            SpanKind::Predict {
                outcome: PredictOutcome::BreakerFallback,
            } => {
                if let Some(ep) = open.get_mut(&r.db) {
                    ep.fallbacks += 1;
                }
            }
            SpanKind::Breaker {
                transition: BreakerTransition::Closed,
            } => {
                if let Some(mut ep) = open.remove(&r.db) {
                    ep.closed = Some(r.start);
                    episodes.push(ep);
                }
            }
            _ => {}
        }
    }
    episodes.extend(open.into_values());
    episodes.sort_by_key(|e| (e.opened.as_secs(), e.db.raw()));
    episodes
}

/// Why a login found its database unavailable (Definition 2.2's QoS cost),
/// attributed from the predictor activity preceding the miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QosMissCause {
    /// No predictor invocation precedes the miss: the database was paused
    /// reactively with no forecast to proact on.
    NeverPredicted,
    /// The most recent invocation failed outright.
    ForecastFailure,
    /// The breaker was open and the engine was running reactively.
    BreakerOpen,
    /// A prediction existed but its resume window missed this login.
    MissedWindow,
}

impl QosMissCause {
    /// Stable lowercase label for reports.
    pub const fn label(self) -> &'static str {
        match self {
            QosMissCause::NeverPredicted => "never-predicted",
            QosMissCause::ForecastFailure => "forecast-failure",
            QosMissCause::BreakerOpen => "breaker-open",
            QosMissCause::MissedWindow => "missed-window",
        }
    }
}

/// One unavailable login with its attributed cause.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QosMiss {
    /// The database that missed.
    pub db: DatabaseId,
    /// When the login arrived.
    pub at: Timestamp,
    /// The attributed cause.
    pub cause: QosMissCause,
    /// When the predictor last ran before the miss, if ever.
    pub last_predict: Option<Timestamp>,
}

/// Every QoS miss in the trace with hit/miss attribution, in trace order.
///
/// For each `login{available:false}` record the most recent `predict`
/// record of the same database at or before the login decides the cause —
/// the exact question an operator asks when a customer reports a slow
/// login.
pub fn qos_misses(records: &[TraceRecord]) -> Vec<QosMiss> {
    // The trace is in canonical chronological order, so one forward walk
    // carrying "last predict outcome per database" suffices.
    let mut last: BTreeMap<DatabaseId, (Timestamp, PredictOutcome)> = BTreeMap::new();
    let mut misses = Vec::new();
    for r in records {
        match r.kind {
            SpanKind::Predict { outcome } => {
                last.insert(r.db, (r.start, outcome));
            }
            SpanKind::Login { available: false } => {
                let (cause, last_predict) = match last.get(&r.db) {
                    None => (QosMissCause::NeverPredicted, None),
                    Some((at, PredictOutcome::Failed)) => {
                        (QosMissCause::ForecastFailure, Some(*at))
                    }
                    Some((at, PredictOutcome::BreakerFallback)) => {
                        (QosMissCause::BreakerOpen, Some(*at))
                    }
                    Some((at, PredictOutcome::Predicted)) => {
                        (QosMissCause::MissedWindow, Some(*at))
                    }
                };
                misses.push(QosMiss {
                    db: r.db,
                    at: r.start,
                    cause,
                    last_predict,
                });
            }
            _ => {}
        }
    }
    misses
}

/// One decision-provenance record of a database: when the engine decided,
/// and the full [`DecisionExplain`] it recorded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decision {
    /// When the engine took the decision.
    pub at: Timestamp,
    /// The recorded provenance.
    pub explain: DecisionExplain,
}

/// All decision-provenance records of one database, in chronological
/// order (requires a run with `ObsConfig::with_explain()`).
pub fn decisions(records: &[TraceRecord], db: DatabaseId) -> Vec<Decision> {
    records
        .iter()
        .filter(|r| r.db == db)
        .filter_map(|r| match r.kind {
            SpanKind::Decision { explain } => Some(Decision {
                at: r.start,
                explain,
            }),
            _ => None,
        })
        .collect()
}

/// The most recent decision the engine took for `db` at or before `at` —
/// the `prorp-trace why` question: *why is this database (not) running
/// right now?*
pub fn why(records: &[TraceRecord], db: DatabaseId, at: Timestamp) -> Option<Decision> {
    decisions(records, db)
        .into_iter()
        .take_while(|d| d.at <= at)
        .last()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{DecisionAction, TraceBuffer, TraceSink};

    fn trace() -> Vec<TraceRecord> {
        let mut buf = TraceBuffer::new();
        let db1 = DatabaseId(1);
        let db2 = DatabaseId(2);
        // db-1: a failed forecast, a breaker episode with one fallback,
        // then a close and a predicted-but-missed login.
        buf.event(
            Timestamp(10),
            db1,
            SpanKind::Predict {
                outcome: PredictOutcome::Failed,
            },
        );
        buf.event(Timestamp(11), db1, SpanKind::Login { available: false });
        buf.event(
            Timestamp(12),
            db1,
            SpanKind::Breaker {
                transition: BreakerTransition::Opened,
            },
        );
        buf.event(
            Timestamp(13),
            db1,
            SpanKind::Predict {
                outcome: PredictOutcome::BreakerFallback,
            },
        );
        buf.event(Timestamp(14), db1, SpanKind::Login { available: false });
        buf.event(
            Timestamp(20),
            db1,
            SpanKind::Breaker {
                transition: BreakerTransition::Closed,
            },
        );
        buf.event(
            Timestamp(25),
            db1,
            SpanKind::Predict {
                outcome: PredictOutcome::Predicted,
            },
        );
        buf.event(Timestamp(30), db1, SpanKind::Login { available: false });
        // db-2: never predicted; two stage spans of different lengths and
        // one failed attempt that must not appear in the ranking.
        buf.event(Timestamp(5), db2, SpanKind::Login { available: false });
        buf.span(
            Timestamp(40),
            Timestamp(100),
            db2,
            SpanKind::WorkflowStage {
                stage: WorkflowStage::WarmCache,
                attempt: 1,
                result: StageResult::Ok,
            },
        );
        buf.span(
            Timestamp(40),
            Timestamp(55),
            db1,
            SpanKind::WorkflowStage {
                stage: WorkflowStage::AllocateNode,
                attempt: 1,
                result: StageResult::Ok,
            },
        );
        buf.span(
            Timestamp(40),
            Timestamp(90),
            db2,
            SpanKind::WorkflowStage {
                stage: WorkflowStage::AttachStorage,
                attempt: 1,
                result: StageResult::Retry,
            },
        );
        TraceBuffer::merge(vec![buf.into_records()])
    }

    #[test]
    fn summary_counts_kinds_and_range() {
        let t = trace();
        let s = summary(&t);
        assert_eq!(s.records, t.len());
        assert_eq!(s.databases, 2);
        assert_eq!(s.by_kind["login"], 4);
        assert_eq!(s.by_kind["predict"], 3);
        assert_eq!(s.start, Some(Timestamp(5)));
        assert_eq!(s.end, Some(Timestamp(100)));
        assert_eq!(summary(&[]).start, None);
    }

    #[test]
    fn timeline_filters_one_database() {
        let t = trace();
        let tl = timeline(&t, DatabaseId(2));
        assert_eq!(tl.len(), 3);
        assert!(tl.iter().all(|r| r.db == DatabaseId(2)));
        assert!(tl.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn slowest_stages_ranks_successful_attempts_only() {
        let t = trace();
        let top = slowest_stages(&t, 10);
        assert_eq!(top.len(), 2, "the retry attempt is excluded");
        assert_eq!(top[0].stage, WorkflowStage::WarmCache);
        assert_eq!(top[0].duration, Seconds(60));
        assert_eq!(top[1].duration, Seconds(15));
        assert_eq!(slowest_stages(&t, 1).len(), 1);
    }

    #[test]
    fn breaker_episodes_pair_opens_and_closes() {
        let t = trace();
        let eps = breaker_episodes(&t);
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].db, DatabaseId(1));
        assert_eq!(eps[0].opened, Timestamp(12));
        assert_eq!(eps[0].closed, Some(Timestamp(20)));
        assert_eq!(eps[0].fallbacks, 1);
    }

    #[test]
    fn why_returns_the_latest_decision_at_or_before_t() {
        let mut buf = TraceBuffer::new();
        let db = DatabaseId(9);
        let pause = DecisionExplain {
            action: DecisionAction::PhysicalPause,
            predicted: Some(Timestamp(500)),
            history_len: 6,
            confidence_hits: 4,
            confidence_total: 5,
            breaker_open: false,
        };
        let resume = DecisionExplain {
            action: DecisionAction::ProactiveResume,
            predicted: Some(Timestamp(500)),
            history_len: 6,
            confidence_hits: 4,
            confidence_total: 5,
            breaker_open: false,
        };
        buf.event(Timestamp(100), db, SpanKind::Decision { explain: pause });
        buf.event(Timestamp(400), db, SpanKind::Decision { explain: resume });
        buf.event(Timestamp(400), DatabaseId(8), SpanKind::ProactiveResume);
        let t = TraceBuffer::merge(vec![buf.into_records()]);
        assert_eq!(decisions(&t, db).len(), 2);
        assert!(why(&t, db, Timestamp(99)).is_none());
        assert_eq!(why(&t, db, Timestamp(100)).unwrap().explain, pause);
        assert_eq!(why(&t, db, Timestamp(999)).unwrap().explain, resume);
        assert!(why(&t, DatabaseId(7), Timestamp(999)).is_none());
    }

    #[test]
    fn qos_misses_attribute_causes() {
        let t = trace();
        let misses = qos_misses(&t);
        let causes: Vec<(u64, QosMissCause)> =
            misses.iter().map(|m| (m.db.raw(), m.cause)).collect();
        assert_eq!(
            causes,
            vec![
                (2, QosMissCause::NeverPredicted),
                (1, QosMissCause::ForecastFailure),
                (1, QosMissCause::BreakerOpen),
                (1, QosMissCause::MissedWindow),
            ]
        );
        assert_eq!(misses[0].last_predict, None);
        assert_eq!(misses[3].last_predict, Some(Timestamp(25)));
    }
}
