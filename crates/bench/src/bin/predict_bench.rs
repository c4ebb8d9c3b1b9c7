//! Prediction-index A/B harness.
//!
//! Times the naive from-scratch Algorithm 4 scan against the
//! incremental predictor (one sliding window over the history's
//! clock-ordered login index) on identical tables, then runs the same
//! fleet simulation twice — once per predictor via the
//! `naive_predictor` knob — to show the end-to-end win.  Both arms are
//! bit-identical in behaviour (the testkit differential oracles enforce
//! it); this harness asserts prediction and KPI equality again as a
//! cheap belt-and-braces check and reports only the cost difference.
//!
//! Flags:
//!
//! * `--smoke` — small fleet and few timing repetitions, for CI
//!   (`scripts/check.sh`); fails unless the incremental arm is at least
//!   2× faster than the naive one on every micro case (the committed
//!   record reads 15× and up, so host noise cannot trip it), and
//!   unless `young_sparse` and `fine_slide` each cost the incremental
//!   arm at most 2× what `default` does — a prediction costs its logins,
//!   not its window positions, and a per-position step coming back
//!   reads 3–7× there;
//! * `--json <path>` — write the machine-readable summary
//!   (`results/BENCH_predict.json` by convention).
//!
//! Micro numbers are best-of-R means (minimum over repetitions of the
//! per-call mean), which suppresses scheduler noise without hiding the
//! steady-state cost.

use prorp_bench::{json_path_from_args, run_meta, write_json, ExperimentScale, Json};
use prorp_forecast::{ConfidenceBasis, IncrementalPredictor, ProbabilisticPredictor};
use prorp_sim::{SimConfig, SimPolicy, SimReport, Simulation};
use prorp_storage::{HistoryRead, HistoryStore, HistoryTable};
use prorp_types::{EventKind, PolicyConfig, Seasonality, Seconds, Timestamp};
use std::hint::black_box;
use std::time::Instant;

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

/// One 20-minute session starting at each of `starts`.
fn sessions(starts: impl IntoIterator<Item = i64>) -> HistoryTable {
    let mut h = HistoryTable::default();
    for start in starts {
        h.insert_history(Timestamp(start), EventKind::Start);
        h.insert_history(Timestamp(start + 1_200), EventKind::End);
    }
    h
}

/// A 28-day history with `per_day` sessions per day, the same hours
/// every day: the hill-climb hits within the first positions.
fn history(per_day: i64) -> HistoryTable {
    sessions((0..28).flat_map(|d| {
        (0..per_day).map(move |s| d * DAY + 8 * HOUR + s * (10 * HOUR / per_day.max(1)))
    }))
}

/// What a fleet is mostly made of: a database eight days old with one
/// session a day at no settled hour.  Some login lies in almost every
/// clock window, yet three of them share a 7-hour window only from
/// 15:00 on, so the scan runs 180 positions deep before it hits.
fn young_sparse() -> HistoryTable {
    let minute_of_day = [60, 120, 570, 630, 1_080, 1_140, 1_320, 1_380];
    sessions((0..8).map(|d| d * DAY + minute_of_day[d as usize] * 60))
}

/// 28 days, one login a day, five hours later each day: under
/// `confidence = 0.9` all 205 positions are scanned and none qualifies.
fn drifting() -> HistoryTable {
    sessions((0..28).map(|d| d * DAY + (d * 5 % 24) * HOUR))
}

/// Best-of-`reps` mean nanoseconds per call of `f`.
fn time_ns<F: FnMut()>(reps: usize, iters: usize, mut f: F) -> f64 {
    // One untimed warm-up pass populates caches and branch predictors.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per_call = t0.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per_call);
    }
    best
}

struct MicroCase {
    name: &'static str,
    history: HistoryTable,
    /// Days of history: predictions are made at the end of the last one.
    days: i64,
    config: PolicyConfig,
    basis: ConfidenceBasis,
}

fn micro_cases() -> Vec<MicroCase> {
    let default = PolicyConfig::default();
    let case = |name, history, days, config, basis| MicroCase {
        name,
        history,
        days,
        config,
        basis,
    };
    let windows = ConfidenceBasis::Windows;
    vec![
        case("default", history(8), 28, default, windows),
        case("sparse_history", history(1), 28, default, windows),
        case("dense_history", history(40), 28, default, windows),
        case(
            "weekly",
            history(8),
            28,
            PolicyConfig {
                seasonality: Seasonality::Weekly,
                ..default
            },
            windows,
        ),
        case(
            "logins_basis",
            history(8),
            28,
            default,
            ConfidenceBasis::Logins,
        ),
        case(
            "fine_slide",
            history(8),
            28,
            PolicyConfig {
                slide: Seconds::minutes(1),
                ..default
            },
            windows,
        ),
        case("young_sparse", young_sparse(), 8, default, windows),
        case(
            "no_hit",
            drifting(),
            28,
            PolicyConfig {
                confidence: 0.9,
                ..default
            },
            windows,
        ),
    ]
}

/// Run the fleet once with the chosen predictor arm, returning the
/// report and the wall-clock seconds of the `run()` call.
fn fleet_run(scale: &ExperimentScale, naive: bool) -> (SimReport, f64) {
    let cfg: SimConfig = SimConfig::builder(
        SimPolicy::Proactive(PolicyConfig::default()),
        scale.start(),
        scale.end(),
        scale.measure_from(),
    )
    .node_capacity((scale.fleet / 4).max(8))
    .nodes(5)
    .naive_predictor(naive)
    .build()
    .expect("experiment defaults are valid");
    let traces = scale.fleet_for(prorp_workload::RegionName::Eu1);
    let sim = Simulation::new(cfg, traces).expect("experiment config is valid");
    let t0 = Instant::now();
    let report = sim.run().expect("simulation completes");
    (report, t0.elapsed().as_secs_f64())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_path_from_args();
    let (reps, iters) = if smoke { (3, 30) } else { (7, 200) };

    println!(
        "Prediction-index A/B ({} mode): naive Algorithm 4 scan vs incremental index",
        if smoke { "smoke" } else { "full" }
    );
    println!();
    println!(
        "{:<16} {:>6} {:>14} {:>14} {:>9}",
        "case", "rows", "naive ns/op", "incr ns/op", "speedup"
    );

    let mut micro_rows = Vec::new();
    let mut default_speedup = 0.0;
    // `default` is timed first; until then nothing passes the shape gate.
    let mut default_ns = f64::NAN;
    for case in micro_cases() {
        let unindexed = case.history;
        let mut h = unindexed.clone();
        h.configure_slot_index(case.config.seasonality.period(), case.config.slide);
        let naive = ProbabilisticPredictor::with_basis(case.config, case.basis).unwrap();
        let fast = IncrementalPredictor::with_basis(case.config, case.basis).unwrap();
        let now = Timestamp(case.days * DAY);
        for table in [&h, &unindexed] {
            assert_eq!(
                naive.predict_at(table, now),
                fast.predict_at(table, now),
                "{}: A/B arms disagree — differential bug",
                case.name
            );
        }
        let naive_ns = time_ns(reps, iters, || {
            black_box(naive.predict_at(black_box(&h), now));
        });
        let fast_ns = time_ns(reps, iters, || {
            black_box(fast.predict_at(black_box(&h), now));
        });
        let speedup = naive_ns / fast_ns;
        assert!(
            !smoke || speedup >= 2.0,
            "{}: incremental {fast_ns:.0} ns/op is not 2x faster than naive {naive_ns:.0} ns/op",
            case.name
        );
        if case.name == "default" {
            default_speedup = speedup;
            default_ns = fast_ns;
        }
        // Shape gate: many positions over few logins (`young_sparse`
        // scans 180 deep over 8, `fine_slide` has 1 021) must cost what
        // `default` costs, not what the positions would.
        assert!(
            !smoke
                || !matches!(case.name, "young_sparse" | "fine_slide")
                || fast_ns <= 2.0 * default_ns,
            "{}: incremental {fast_ns:.0} ns/op is more than 2x default's {default_ns:.0} ns/op \
             — the sweep is paying per window position again",
            case.name
        );
        println!(
            "{:<16} {:>6} {:>14.0} {:>14.0} {:>8.1}x",
            case.name,
            h.len(),
            naive_ns,
            fast_ns,
            speedup
        );
        micro_rows.push(Json::object(vec![
            ("case", Json::Str(case.name.into())),
            ("rows", Json::from(h.len() as u64)),
            ("naive_ns_per_op", Json::Float(naive_ns)),
            ("incremental_ns_per_op", Json::Float(fast_ns)),
            ("speedup", Json::Float(speedup)),
        ]));
    }

    // End-to-end: the same fleet through both predictor arms.  Reports
    // must agree on every KPI; only wall clock may differ.
    let scale = if smoke {
        ExperimentScale {
            fleet: 30,
            days: 32,
            warmup_days: 28,
            seed: 42,
        }
    } else {
        ExperimentScale::from_env()
    };
    let (fast_report, fast_s) = fleet_run(&scale, false);
    let (naive_report, naive_s) = fleet_run(&scale, true);
    assert_eq!(
        fast_report.kpi, naive_report.kpi,
        "fleet KPIs diverged between predictor arms — differential bug"
    );
    let fleet_speedup = naive_s / fast_s;
    let predictor_ns =
        |r: &SimReport| -> u64 { r.counters.iter().map(|c| c.prediction_ns_sum).sum() };
    let (naive_pred_ns, fast_pred_ns) = (predictor_ns(&naive_report), predictor_ns(&fast_report));
    println!();
    println!(
        "fleet ({} dbs, {} days): naive {:.2}s, incremental {:.2}s — {:.1}x; KPIs identical",
        scale.fleet, scale.days, naive_s, fast_s, fleet_speedup
    );
    println!(
        "  predictor time in fleet run: naive {:.0}µs, incremental {:.0}µs (sum over engines)",
        naive_pred_ns as f64 / 1e3,
        fast_pred_ns as f64 / 1e3,
    );

    if let Some(path) = json_path {
        let mode = if smoke { "smoke" } else { "full" };
        let value = Json::object(vec![
            ("mode", Json::Str(mode.into())),
            ("meta", run_meta(mode)),
            ("micro", Json::Array(micro_rows)),
            ("default_speedup", Json::Float(default_speedup)),
            (
                "fleet",
                Json::object(vec![
                    ("databases", Json::from(scale.fleet as u64)),
                    ("days", Json::Int(scale.days)),
                    ("naive_s", Json::Float(naive_s)),
                    ("incremental_s", Json::Float(fast_s)),
                    ("speedup", Json::Float(fleet_speedup)),
                    ("naive_prediction_ns_sum", Json::from(naive_pred_ns)),
                    ("incremental_prediction_ns_sum", Json::from(fast_pred_ns)),
                ]),
            ),
        ]);
        write_json(&path, &value);
    }
}
