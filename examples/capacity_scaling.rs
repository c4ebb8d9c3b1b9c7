//! The §11 future-work extensions in action: incremental capacity
//! auto-scaling (`prorp-scale`) and prediction-aware maintenance
//! scheduling (`prorp-core::maintenance`).
//!
//! ```text
//! cargo run --release -p prorp-bench --example capacity_scaling
//! ```

use prorp_core::MaintenanceScheduler;
use prorp_forecast::ProbabilisticPredictor;
use prorp_scale::{compare_binary_vs_incremental, CapacityPlanner, DiurnalDemandModel};
use prorp_storage::{HistoryStore, HistoryTable};
use prorp_types::{EventKind, PolicyConfig, Seconds, Timestamp};

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

fn main() {
    // ── Part 1: binary resume/pause vs incremental vCore planning ──
    let model = DiurnalDemandModel::default();
    let history = model.generate(21, Seconds(900), 11);
    let test = model.generate(7, Seconds(900), 77);
    let planner = CapacityPlanner::default();
    let (binary, incremental) =
        compare_binary_vs_incremental(&planner, &history, &test).expect("planning succeeds");

    println!("Incremental capacity auto-scaling (future work 1)");
    println!(
        "  demand: 21 days training, 7 days test, 15-minute slots, {}-vCore SKU",
        planner.max_vcores
    );
    println!();
    println!(
        "  {:<22} {:>14} {:>12} {:>12}",
        "policy", "service rate", "waste rate", "vCore-slots"
    );
    println!(
        "  {:<22} {:>13.1}% {:>11.1}% {:>12.0}",
        "binary (ProRP today)",
        100.0 * binary.service_rate(),
        100.0 * binary.waste_rate(),
        binary.allocated
    );
    println!(
        "  {:<22} {:>13.1}% {:>11.1}% {:>12.0}",
        "incremental (planned)",
        100.0 * incremental.service_rate(),
        100.0 * incremental.waste_rate(),
        incremental.allocated
    );
    println!(
        "  => {:.0}% less capacity allocated for {:.1} points of service rate",
        100.0 * (1.0 - incremental.allocated / binary.allocated.max(1e-9)),
        100.0 * (binary.service_rate() - incremental.service_rate())
    );
    println!();

    // ── Part 2: maintenance piggybacking on predicted activity ──
    let mut history = HistoryTable::new();
    for d in 0..28 {
        history.insert_history(Timestamp(d * DAY + 9 * HOUR), EventKind::Start);
        history.insert_history(Timestamp(d * DAY + 12 * HOUR), EventKind::End);
    }
    let predictor = ProbabilisticPredictor::new(PolicyConfig::default()).expect("valid knobs");
    let mut naive = MaintenanceScheduler::new();
    let mut aware = MaintenanceScheduler::new();
    // A nightly backup due by 06:00, scheduled each midnight for a week.
    for d in 28..35 {
        let now = Timestamp(d * DAY);
        let deadline = now + Seconds::hours(30); // may slip into the next day
        let prediction = predictor.predict_at(&history, now);
        // Naive: ignores predictions.
        naive
            .place(now, None, Seconds::minutes(20), deadline)
            .expect("valid job");
        // Prediction-aware: rides the predicted 09:00 activity.
        aware
            .place(now, prediction.as_ref(), Seconds::minutes(20), deadline)
            .expect("valid job");
    }
    println!("Maintenance scheduling (future work 4): 7 nightly backups");
    println!(
        "  naive            : {} forced maintenance-only resumes",
        naive.stats().forced_resumes
    );
    println!(
        "  prediction-aware : {} forced resumes, {} piggybacked on predicted activity ({:.0}%)",
        aware.stats().forced_resumes,
        aware.stats().piggybacked,
        100.0 * aware.stats().piggyback_rate()
    );
}
