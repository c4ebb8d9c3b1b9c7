//! Ablation of the seasonality knob (§8, §9.2).
//!
//! The paper: "Weekly seasonality achieves similar results to daily
//! seasonality" on their (daily-dominated) fleet, and the training
//! pipeline tunes the knob.  This binary evaluates three choices on a
//! fleet with a deliberately strong weekly component: always-daily,
//! always-weekly, and per-database auto-detection
//! (`prorp_forecast::detect_seasonality`).

use prorp_bench::{env_i64, env_usize};
use prorp_forecast::{
    detect_seasonality, score_prediction, AccuracyReport, ProbabilisticPredictor,
};
use prorp_storage::{HistoryStore, HistoryTable};
use prorp_types::{DatabaseId, PolicyConfig, Seasonality, Seconds, Timestamp};
use prorp_workload::{Archetype, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let fleet = env_usize("PRORP_FLEET", 120);
    let days = env_i64("PRORP_DAYS", 63); // 9 weeks: enough weekly samples
    let warmup = env_i64("PRORP_WARMUP", 56);
    let start = Timestamp(0);
    let end = start + Seconds::days(days);

    // Half daily-pattern, half weekly-pattern (active two weekdays only).
    let traces: Vec<Trace> = (0..fleet)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(4_000 + i as u64);
            let archetype = if i % 2 == 0 {
                Archetype::Daily {
                    start_hour: 9.0,
                    duration_hours: 4.0,
                    jitter_minutes: 30.0,
                    skip_probability: 0.1,
                }
            } else {
                Archetype::Weekly {
                    active_days: vec![(i as i64) % 7, (i as i64 + 3) % 7],
                    start_hour: 9.0,
                    duration_hours: 4.0,
                    jitter_minutes: 30.0,
                }
            };
            let sessions = archetype.generate(start, end, &mut rng);
            Trace::new(DatabaseId(i as u64), archetype.label(), sessions).unwrap()
        })
        .collect();

    let base = PolicyConfig::default();
    let configs: Vec<(&str, Option<Seasonality>)> = vec![
        ("daily (default)", Some(Seasonality::Daily)),
        ("weekly", Some(Seasonality::Weekly)),
        ("auto-detected", None),
    ];

    println!(
        "Ablation: seasonality choice on a half-daily / half-weekly fleet ({fleet} databases)"
    );
    println!();
    println!(
        "{:<18} {:>8} {:>10} {:>8} {:>8} {:>9}",
        "seasonality", "recall", "precision", "hits", "misses", "spurious"
    );
    for (label, fixed) in configs {
        let mut report = AccuracyReport::default();
        for trace in &traces {
            let mut history = HistoryTable::new();
            let events = trace.events();
            let mut next_event = 0;
            let mut now = start + Seconds::days(warmup);
            while now < end {
                while next_event < events.len() && events[next_event].ts <= now {
                    history.insert_event(events[next_event]);
                    next_event += 1;
                }
                let seasonality = fixed.unwrap_or_else(|| detect_seasonality(&history));
                let config = PolicyConfig {
                    seasonality,
                    history_len: Seconds::days(56),
                    ..base
                };
                let predictor = ProbabilisticPredictor::new(config).expect("valid knobs");
                let pred = predictor.predict_at(&history, now);
                let actual = trace.next_login_after(now);
                report.record(score_prediction(
                    pred.as_ref(),
                    actual,
                    now,
                    base.horizon,
                    base.prewarm,
                ));
                now += Seconds::hours(8);
            }
        }
        println!(
            "{:<18} {:>7.1}% {:>9.1}% {:>8} {:>8} {:>9}",
            label,
            100.0 * report.recall(),
            100.0 * report.precision(),
            report.hits,
            report.misses,
            report.spurious
        );
    }
    println!();
    println!("Finding: daily seasonality with the low production threshold (c = 0.1)");
    println!("subsumes weekly patterns — a two-weekday pattern still clears 2/7 > 0.1");
    println!("every day — while the weekly variant suffers from coarse confidence");
    println!("granularity (8 weekly samples -> steps of 1/8), which makes Algorithm 4's");
    println!("strictly-improving hill-climb break on plateaus and anchor predictions");
    println!("at single-sample windows.  This is consistent with the paper's choice");
    println!("of daily as the production default and its report that weekly merely");
    println!("'achieves similar results' (section 9.2).");
}
