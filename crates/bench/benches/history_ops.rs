//! Micro-benchmarks of the history-table maintenance path: Algorithm 2
//! inserts, Algorithm 3 range deletes, and the Algorithm 4 inner-loop
//! range aggregation, across history sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prorp_storage::{HistoryRead, HistoryStore, HistoryTable};
use prorp_types::{EventKind, Seconds, Timestamp};
use std::hint::black_box;

fn table_with(n: i64) -> HistoryTable {
    let mut t = HistoryTable::new();
    for i in 0..n {
        let kind = if i % 2 == 0 {
            EventKind::Start
        } else {
            EventKind::End
        };
        t.insert_history(Timestamp(i * 300), kind);
    }
    t
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("history/insert");
    for &n in &[100i64, 1_000, 4_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || table_with(n),
                |mut t| {
                    t.insert_history(black_box(Timestamp(n * 300 + 1)), EventKind::Start);
                    t
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_delete_old(c: &mut Criterion) {
    let mut group = c.benchmark_group("history/delete_old");
    for &n in &[1_000i64, 4_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter_batched(
                || table_with(n),
                |mut t| {
                    // Trim half the table.
                    let now = Timestamp(n * 300);
                    t.delete_old_history(Seconds(n * 150), now);
                    t
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_range_aggregate(c: &mut Criterion) {
    let mut group = c.benchmark_group("history/login_window_stats");
    for &n in &[100i64, 1_000, 4_000] {
        let t = table_with(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                // A 7-hour window in the middle of the history.
                let lo = Timestamp(n * 150);
                t.login_window_stats(black_box(lo), black_box(lo + Seconds::hours(7)))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_insert,
    bench_delete_old,
    bench_range_aggregate
);
criterion_main!(benches);
