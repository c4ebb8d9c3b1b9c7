//! SQL layer micro-benchmarks: statement parsing, planned range queries,
//! and the SQL-driven Algorithm 4 (the executable specification) against
//! the native predictor — quantifying what the paper gains by compiling
//! the procedures into the engine rather than interpreting SQL.

use criterion::{criterion_group, criterion_main, Criterion};
use prorp_forecast::ProbabilisticPredictor;
use prorp_sqlmini::{parse_statement, HistoryDb, Params, PredictArgs};
use prorp_storage::{HistoryStore, HistoryTable};
use prorp_types::{EventKind, PolicyConfig, Seconds, Timestamp};
use std::hint::black_box;

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

fn loaded_db(days: i64) -> HistoryDb {
    let mut db = HistoryDb::new();
    for d in 0..days {
        db.insert_history(d * DAY + 9 * HOUR, 1).unwrap();
        db.insert_history(d * DAY + 10 * HOUR, 0).unwrap();
    }
    db
}

fn bench_parse(c: &mut Criterion) {
    let sql = "SELECT MIN(time_snapshot), MAX(time_snapshot)
               FROM sys.pause_resume_history
               WHERE event_type = 1 AND
                     time_snapshot >= @lo AND time_snapshot <= @hi";
    c.bench_function("sqlmini/parse", |b| {
        b.iter(|| parse_statement(black_box(sql)).unwrap());
    });
}

fn bench_range_query(c: &mut Criterion) {
    let mut db = loaded_db(28);
    let mut params = Params::new();
    params.bind("lo", 10 * DAY).bind("hi", 20 * DAY);
    c.bench_function("sqlmini/range_aggregate", |b| {
        b.iter(|| {
            db.database_mut()
                .run(
                    "SELECT MIN(time_snapshot), MAX(time_snapshot), COUNT(*)
                     FROM sys.pause_resume_history
                     WHERE event_type = 1 AND
                           time_snapshot >= @lo AND time_snapshot <= @hi",
                    black_box(&params),
                )
                .unwrap()
        });
    });
}

fn bench_sql_vs_native_prediction(c: &mut Criterion) {
    let mut group = c.benchmark_group("sqlmini/predict_next_activity");
    let mut sql_db = loaded_db(28);
    let mut native = HistoryTable::new();
    for d in 0..28 {
        native.insert_history(Timestamp(d * DAY + 9 * HOUR), EventKind::Start);
        native.insert_history(Timestamp(d * DAY + 10 * HOUR), EventKind::End);
    }
    let now = 28 * DAY;

    group.bench_function("sql_interpreted", |b| {
        b.iter(|| {
            sql_db
                .predict_next_activity(black_box(PredictArgs {
                    h_days: 28,
                    p_hours: 24,
                    c: 0.1,
                    w_secs: 7 * HOUR,
                    s_secs: 300,
                    now,
                }))
                .unwrap()
        });
    });

    let config = PolicyConfig {
        history_len: Seconds::days(28),
        ..PolicyConfig::default()
    };
    let predictor = ProbabilisticPredictor::new(config).unwrap();
    group.bench_function("native", |b| {
        b.iter(|| predictor.predict_at(black_box(&native), Timestamp(now)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_range_query,
    bench_sql_vs_native_prediction
);
criterion_main!(benches);
