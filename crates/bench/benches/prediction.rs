//! Prediction-latency benches (the Figure 10(c) quantity) and two
//! ablations DESIGN.md calls out: daily vs weekly seasonality, and the
//! window-slide granularity (the `p/s × h` term of the §6 complexity
//! analysis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prorp_forecast::{IncrementalPredictor, ProbabilisticPredictor};
use prorp_storage::{HistoryRead, HistoryStore, HistoryTable};
use prorp_types::{EventKind, PolicyConfig, Seasonality, Seconds, Timestamp};
use std::hint::black_box;

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

/// A 28-day history with `per_day` sessions per day.
fn history(per_day: i64) -> HistoryTable {
    let mut h = HistoryTable::new();
    for d in 0..28 {
        for s in 0..per_day {
            let start = d * DAY + 8 * HOUR + s * (10 * HOUR / per_day.max(1));
            h.insert_history(Timestamp(start), EventKind::Start);
            h.insert_history(Timestamp(start + 1_200), EventKind::End);
        }
    }
    h
}

fn bench_latency_vs_history_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("prediction/latency_vs_size");
    for &per_day in &[1i64, 8, 40] {
        let h = history(per_day);
        let p = ProbabilisticPredictor::new(PolicyConfig::default()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(h.len()), &h, |b, h| {
            b.iter(|| p.predict_at(black_box(h), Timestamp(28 * DAY)));
        });
    }
    group.finish();
}

fn bench_seasonality(c: &mut Criterion) {
    let mut group = c.benchmark_group("prediction/seasonality");
    let h = history(8);
    for seasonality in [Seasonality::Daily, Seasonality::Weekly] {
        let config = PolicyConfig {
            seasonality,
            ..PolicyConfig::default()
        };
        let p = ProbabilisticPredictor::new(config).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{seasonality}")),
            &h,
            |b, h| {
                b.iter(|| p.predict_at(black_box(h), Timestamp(28 * DAY)));
            },
        );
    }
    group.finish();
}

fn bench_slide_granularity(c: &mut Criterion) {
    // The outer loop runs p/s times: a 1-minute slide costs 5x the
    // 5-minute production default.
    let mut group = c.benchmark_group("prediction/slide");
    let h = history(8);
    for &slide_min in &[1i64, 5, 15] {
        let config = PolicyConfig {
            slide: Seconds::minutes(slide_min),
            ..PolicyConfig::default()
        };
        let p = ProbabilisticPredictor::new(config).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{slide_min}min")),
            &h,
            |b, h| {
                b.iter(|| p.predict_at(black_box(h), Timestamp(28 * DAY)));
            },
        );
    }
    group.finish();
}

fn bench_naive_vs_incremental(c: &mut Criterion) {
    // The from-scratch Algorithm 4 scan against the sliding-window sweep
    // over the clock-ordered login index on the same table, at the
    // Table 1 defaults.  Both arms must return identical predictions
    // (enforced by the testkit differential oracle); only the cost may
    // differ.
    let mut group = c.benchmark_group("prediction/index_ab");
    for &per_day in &[1i64, 8, 40] {
        let config = PolicyConfig::default();
        let mut h = history(per_day);
        h.configure_slot_index(config.seasonality.period(), config.slide);
        let naive = ProbabilisticPredictor::new(config).unwrap();
        let fast = IncrementalPredictor::new(config).unwrap();
        assert_eq!(
            naive.predict_at(&h, Timestamp(28 * DAY)),
            fast.predict_at(&h, Timestamp(28 * DAY)),
            "A/B arms must agree before being timed"
        );
        group.bench_with_input(BenchmarkId::new("naive", h.len()), &h, |b, h| {
            b.iter(|| naive.predict_at(black_box(h), Timestamp(28 * DAY)));
        });
        group.bench_with_input(BenchmarkId::new("incremental", h.len()), &h, |b, h| {
            b.iter(|| fast.predict_at(black_box(h), Timestamp(28 * DAY)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_latency_vs_history_size,
    bench_seasonality,
    bench_slide_granularity,
    bench_naive_vs_incremental
);
criterion_main!(benches);
