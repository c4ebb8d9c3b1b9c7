//! Predictor comparison — the §1/§3.2/§10 argument.
//!
//! "Numerous previous studies to predict the load of Azure SQL databases
//! reveal that the accuracy of simple statistical and probabilistic load
//! prediction techniques is sufficient in practice.  We experimentally
//! confirmed that this conclusion holds in our case."
//!
//! This harness replays every fleet database's history through each
//! predictor at a sequence of evaluation instants and scores the
//! predictions against the actual next login (hit inside the pre-warmed
//! window / miss / spurious / missed activity), printing recall and
//! precision per predictor.  The deployed probabilistic detector should
//! dominate the simpler heuristics, and the oracle shows the headroom
//! left on the table.

use prorp_bench::ExperimentScale;
use prorp_forecast::{
    score_prediction, AccuracyReport, HourlyHistogramPredictor, LastGapPredictor, NeverPredictor,
    OraclePredictor, Predictor, ProbabilisticPredictor,
};
use prorp_storage::{HistoryStore, HistoryTable};
use prorp_types::{PolicyConfig, Seconds, Timestamp};
use prorp_workload::RegionName;

fn main() {
    let scale = ExperimentScale::from_env();
    let traces = scale.fleet_for(RegionName::Eu1);
    let config = PolicyConfig::default();

    let mut predictors: Vec<(String, Box<dyn Predictor>)> = vec![
        (
            "probabilistic (deployed)".into(),
            Box::new(ProbabilisticPredictor::new(config).expect("valid knobs")),
        ),
        ("last-gap".into(), Box::new(LastGapPredictor::default())),
        (
            "hourly-histogram".into(),
            Box::new(HourlyHistogramPredictor {
                confidence: 0.1,
                history_days: 28,
            }),
        ),
        ("never (reactive)".into(), Box::new(NeverPredictor)),
    ];

    println!(
        "Predictor comparison on {} EU1 databases, evaluated every 6 h over the last {} days",
        scale.fleet,
        scale.days - scale.warmup_days
    );
    println!();
    println!(
        "{:<26} {:>8} {:>10} {:>7} {:>7} {:>9} {:>8}",
        "predictor", "recall", "precision", "hits", "misses", "spurious", "silent+"
    );

    let eval_instants: Vec<Timestamp> = {
        let mut v = Vec::new();
        let mut t = scale.measure_from();
        while t < scale.end() {
            v.push(t);
            t += Seconds::hours(6);
        }
        v
    };

    let mut rows = Vec::new();
    for (name, predictor) in predictors.iter_mut() {
        let mut report = AccuracyReport::default();
        for trace in &traces {
            // Build the history visible at each instant incrementally.
            let mut history = HistoryTable::default();
            let events = trace.events();
            let mut next_event = 0;
            for &now in &eval_instants {
                while next_event < events.len() && events[next_event].ts <= now {
                    history.insert_event(events[next_event]);
                    next_event += 1;
                }
                let pred = predictor.predict(&history, now).ok().flatten();
                let actual = trace.next_login_after(now);
                report.record(score_prediction(
                    pred.as_ref(),
                    actual,
                    now,
                    config.horizon,
                    config.prewarm,
                ));
            }
        }
        rows.push((name.clone(), report));
    }
    // Oracle: the upper bound.
    {
        let mut report = AccuracyReport::default();
        for trace in &traces {
            let mut oracle =
                OraclePredictor::new(trace.sessions.clone()).expect("traces are ordered");
            let empty = HistoryTable::default();
            for &now in &eval_instants {
                let pred = oracle.predict(&empty, now).ok().flatten();
                let actual = trace.next_login_after(now);
                report.record(score_prediction(
                    pred.as_ref(),
                    actual,
                    now,
                    config.horizon,
                    config.prewarm,
                ));
            }
        }
        rows.push(("oracle (upper bound)".into(), report));
    }

    for (name, r) in &rows {
        println!(
            "{:<26} {:>7.1}% {:>9.1}% {:>7} {:>7} {:>9} {:>8}",
            name,
            100.0 * r.recall(),
            100.0 * r.precision(),
            r.hits,
            r.misses,
            r.spurious,
            r.correct_silence + r.missed_activity
        );
    }
    println!();
    println!("recall    = fraction of actual logins that were pre-warmed");
    println!("precision = fraction of emitted predictions whose login arrived in window");
}
