//! Differential tests: the SQL-driven stored procedures of
//! `prorp-sqlmini` (the executable specification transliterated from the
//! paper's listings) must agree exactly with the native fast paths in
//! `prorp-storage` / `prorp-forecast` that the policy engines run.
//!
//! The sqlmini table stores its rows in the clustered B+Tree of §5; the
//! native table is a sorted view.  `insert_history_agrees` and
//! `delete_old_history_agrees` hold the two equal row for row after
//! every insert and every trim, which makes this file the oracle for
//! the §5 B-tree.

use proptest::prelude::*;
use prorp_forecast::ProbabilisticPredictor;
use prorp_sqlmini::{HistoryDb, Params, PredictArgs};
use prorp_storage::{HistoryRead, HistoryStore, HistoryTable};
use prorp_types::{EventKind, PolicyConfig, Seconds, Timestamp};

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

/// The sqlmini table's `(time_snapshot, event_type)` rows in key order.
fn sql_rows(sql: &mut HistoryDb) -> Vec<(i64, i64)> {
    sql.database_mut()
        .run(
            "SELECT time_snapshot, event_type FROM sys.pause_resume_history
             ORDER BY time_snapshot ASC",
            &Params::new(),
        )
        .expect("sql select")
        .result
        .expect("SELECT returns rows")
        .rows
        .iter()
        .map(|row| {
            (
                row[0].expect("NOT NULL key"),
                row[1].expect("NOT NULL type"),
            )
        })
        .collect()
}

/// The native table's events as `(time_snapshot, event_type)` rows.
fn native_rows(native: &HistoryTable) -> Vec<(i64, i64)> {
    native
        .events()
        .iter()
        .map(|e| (e.ts.as_secs(), i64::from(e.kind.as_i32())))
        .collect()
}

/// Build both representations from the same event list, holding them
/// equal row for row after every insert.
fn build_both(events: &[(i64, i64)]) -> (HistoryDb, HistoryTable) {
    let mut sql = HistoryDb::new();
    let mut native = HistoryTable::default();
    for &(ts, kind) in events {
        let sql_inserted = sql.insert_history(ts, kind).expect("sql insert");
        let native_inserted =
            native.insert_history(Timestamp(ts), EventKind::from_i32(kind as i32).unwrap());
        assert_eq!(sql_inserted, native_inserted, "insert guard at ts={ts}");
        assert_eq!(
            sql_rows(&mut sql),
            native_rows(&native),
            "rows after inserting ts={ts}"
        );
    }
    (sql, native)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 2: the IF NOT EXISTS guard and the rows agree after
    /// every insert.
    #[test]
    fn insert_history_agrees(
        events in prop::collection::vec((0i64..40 * DAY, 0i64..2), 1..120)
    ) {
        let (mut sql, native) = build_both(&events);
        prop_assert_eq!(sql.count().unwrap() as usize, native.len());
    }

    /// Algorithm 3: old flag, deleted count, and the surviving rows agree
    /// after every trim of a sequence.
    #[test]
    fn delete_old_history_agrees(
        events in prop::collection::vec((0i64..60 * DAY, 0i64..2), 1..120),
        trims in prop::collection::vec((1i64..40, 0i64..70 * DAY), 1..4),
    ) {
        let (mut sql, mut native) = build_both(&events);
        for (h_days, now) in trims {
            let (sql_old, sql_deleted) = sql.delete_old_history(h_days, now).unwrap();
            let outcome = native.delete_old_history(Seconds::days(h_days), Timestamp(now));
            prop_assert_eq!(sql_old, outcome.old);
            prop_assert_eq!(sql_deleted, outcome.deleted);
            prop_assert_eq!(sql_rows(&mut sql), native_rows(&native));
        }
    }

    /// Algorithm 4: prediction start, end, and confidence agree for the
    /// daily seasonality the SQL listing implements.
    #[test]
    fn predict_next_activity_agrees(
        // Sessions clustered around a daily hour with noise, so both
        // predictable and unpredictable histories are generated.
        base_hour in 0i64..24,
        jitter in prop::collection::vec(-2 * HOUR..2 * HOUR, 10),
        skip_mask in 0u16..1024,
        c in 0.05f64..0.9,
        w_hours in 1i64..8,
    ) {
        let mut events = Vec::new();
        for (d, j) in jitter.iter().enumerate() {
            if skip_mask & (1 << d) != 0 {
                continue;
            }
            let login = d as i64 * DAY + base_hour * HOUR + j;
            events.push((login, 1));
            events.push((login + 30 * 60, 0));
        }
        let (mut sql, native) = build_both(&events);
        let now = 10 * DAY;
        let sql_pred = sql
            .predict_next_activity(PredictArgs {
                h_days: 10,
                p_hours: 24,
                c,
                w_secs: w_hours * HOUR,
                s_secs: 5 * 60,
                now,
            })
            .unwrap();
        let config = PolicyConfig {
            history_len: Seconds::days(10),
            horizon: Seconds::days(1),
            confidence: c,
            window: Seconds::hours(w_hours),
            slide: Seconds::minutes(5),
            ..PolicyConfig::default()
        };
        let native_pred = ProbabilisticPredictor::new(config)
            .unwrap()
            .predict_at(&native, Timestamp(now));
        match (sql_pred, native_pred) {
            (None, None) => {}
            (Some((s, e, conf)), Some(p)) => {
                prop_assert_eq!(Timestamp(s), p.start);
                prop_assert_eq!(Timestamp(e), p.end);
                prop_assert!((conf - p.confidence).abs() < 1e-12);
            }
            (sql_pred, native_pred) => {
                prop_assert!(
                    false,
                    "disagreement: sql={sql_pred:?}, native={native_pred:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Algorithm 5: the SQL `sys.databases` selection agrees with the
    /// native `MetadataStore`'s indexed scan under random fleet states.
    #[test]
    fn metadata_selection_agrees(
        rows in prop::collection::vec(
            (0u64..40, 0u8..3, prop::option::of(1i64..100_000)),
            1..60,
        ),
        now in 0i64..50_000,
        prewarm in 1i64..1_000,
        width in 1i64..1_000,
    ) {
        use prorp_sqlmini::MetadataDb;
        use prorp_storage::{DbMeta, MetadataStore};
        use prorp_types::{DatabaseId, DbState};

        let mut sql = MetadataDb::new();
        let mut native = MetadataStore::new();
        for (id, state, pred) in &rows {
            let state = match state {
                0 => DbState::Resumed,
                1 => DbState::LogicallyPaused,
                _ => DbState::PhysicallyPaused,
            };
            sql.upsert(*id, state, *pred).unwrap();
            native.upsert(
                DatabaseId(*id),
                DbMeta {
                    state,
                    pred_start: pred.map(Timestamp),
                },
            );
        }
        let sql_picked = sql.databases_to_resume(now, prewarm, width).unwrap();
        let native_picked: Vec<u64> = native
            .databases_to_resume_iter(Timestamp(now), Seconds(prewarm), Seconds(width))
            .map(|d| d.raw())
            .collect();
        // The native index orders by (pred_start, id); SQL orders by
        // pred_start with clustered-key ties — compare as sets plus size.
        let mut a = sql_picked.clone();
        let mut b = native_picked.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}

/// A deterministic spot check that both layers predict the same strict
/// daily pattern (guards against proptest shrinkage hiding regressions).
#[test]
fn strict_daily_pattern_spot_check() {
    let events: Vec<(i64, i64)> = (0..7)
        .flat_map(|d| [(d * DAY + 9 * HOUR, 1), (d * DAY + 10 * HOUR, 0)])
        .collect();
    let (mut sql, native) = build_both(&events);
    let now = 7 * DAY;
    let sql_pred = sql
        .predict_next_activity(PredictArgs {
            h_days: 7,
            p_hours: 24,
            c: 0.5,
            w_secs: 2 * HOUR,
            s_secs: 300,
            now,
        })
        .unwrap()
        .expect("pattern must be detected");
    let config = PolicyConfig {
        history_len: Seconds::days(7),
        confidence: 0.5,
        window: Seconds::hours(2),
        ..PolicyConfig::default()
    };
    let native_pred = ProbabilisticPredictor::new(config)
        .unwrap()
        .predict_at(&native, Timestamp(now))
        .expect("pattern must be detected");
    assert_eq!(Timestamp(sql_pred.0), native_pred.start);
    assert_eq!(Timestamp(sql_pred.1), native_pred.end);
    assert_eq!(sql_pred.2, 1.0);
    assert_eq!(native_pred.confidence, 1.0);
}
