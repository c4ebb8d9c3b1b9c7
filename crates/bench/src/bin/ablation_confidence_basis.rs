//! Ablation of §6's "count windows, not logins" rule.
//!
//! The paper: "If the window w is wide, then there can be several first
//! logins after idle intervals during the window w on the same day …
//! Therefore, we count the number of windows with activity on h previous
//! days, rather than the number of first logins."  This binary runs the
//! same fleet under both confidence bases and reports how many extra
//! (wrong) pre-warms the login-count basis emits.

use prorp_bench::ExperimentScale;
use prorp_forecast::{score_prediction, AccuracyReport, ConfidenceBasis, ProbabilisticPredictor};
use prorp_storage::{HistoryStore, HistoryTable};
use prorp_types::{PolicyConfig, Seconds, Timestamp};
use prorp_workload::RegionName;

fn main() {
    let scale = ExperimentScale::from_env();
    let traces = scale.fleet_for(RegionName::Eu1);
    let config = PolicyConfig::default();

    println!(
        "Ablation: window-count vs login-count confidence ({} databases, EU1, w = 7 h, c = 0.1)",
        scale.fleet
    );
    println!();
    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>9}",
        "basis", "recall", "precision", "predictions", "spurious"
    );
    for (label, basis) in [
        ("windows (paper)", ConfidenceBasis::Windows),
        ("logins (ablated)", ConfidenceBasis::Logins),
    ] {
        let predictor = ProbabilisticPredictor::with_basis(config, basis).expect("valid knobs");
        let mut report = AccuracyReport::default();
        for trace in &traces {
            let mut history = HistoryTable::new();
            let events = trace.events();
            let mut next_event = 0;
            let mut now = scale.measure_from();
            while now < scale.end() {
                while next_event < events.len() && events[next_event].ts <= now {
                    history.insert_event(events[next_event]);
                    next_event += 1;
                }
                let pred = predictor.predict_at(&history, now);
                let actual = trace.next_login_after(now);
                report.record(score_prediction(
                    pred.as_ref(),
                    actual,
                    now,
                    config.horizon,
                    config.prewarm,
                ));
                now += Seconds::hours(6);
            }
        }
        let emitted = report.hits + report.misses + report.spurious;
        println!(
            "{:<16} {:>7.1}% {:>9.1}% {:>12} {:>9}",
            label,
            100.0 * report.recall(),
            100.0 * report.precision(),
            emitted,
            report.spurious
        );
    }
    println!();
    println!("The login-count basis emits more spurious predictions from chatty");
    println!("single days — the over-commitment the paper's rule prevents.");
    let _ = Timestamp(0);
}
