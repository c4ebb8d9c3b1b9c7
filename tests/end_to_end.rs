//! End-to-end fleet invariants across the whole stack: workload
//! generation → policy engines → simulator → telemetry.

use prorp_sim::{SimConfig, SimPolicy, SimReport, Simulation};
use prorp_telemetry::TelemetryKind;
use prorp_types::{DatabaseId, PolicyConfig, Seconds, Session, Timestamp};
use prorp_workload::{RegionName, RegionProfile, Trace};

const DAY: i64 = 86_400;

fn fleet(n: usize, days: i64, seed: u64) -> Vec<Trace> {
    RegionProfile::for_region(RegionName::Eu1).generate_fleet(
        n,
        Timestamp(0),
        Timestamp(days * DAY),
        seed,
    )
}

fn run(policy: SimPolicy, traces: &[Trace], days: i64) -> SimReport {
    let config = SimConfig::builder(
        policy,
        Timestamp(0),
        Timestamp(days * DAY),
        Timestamp((days - 4) * DAY),
    )
    .build()
    .expect("valid config");
    Simulation::new(config, traces.to_vec())
        .expect("valid config")
        .run()
        .expect("simulation completes")
}

#[test]
fn qos_ordering_holds_across_policies() {
    let traces = fleet(50, 32, 7);
    let reactive = run(SimPolicy::Reactive, &traces, 32);
    let proactive = run(SimPolicy::Proactive(PolicyConfig::default()), &traces, 32);
    let optimal = run(SimPolicy::Optimal, &traces, 32);
    assert!(
        proactive.kpi.qos_pct() > reactive.kpi.qos_pct(),
        "proactive {:.1}% must beat reactive {:.1}%",
        proactive.kpi.qos_pct(),
        reactive.kpi.qos_pct()
    );
    assert_eq!(optimal.kpi.qos_pct(), 100.0, "the oracle never misses");
    assert!(optimal.kpi.idle_pct() < 0.5, "the oracle wastes nothing");
    assert!(optimal.kpi.idle_pct() <= proactive.kpi.idle_pct());
}

#[test]
fn time_accounting_is_exhaustive() {
    // Every second of fleet time lands in exactly one segment kind, so
    // the fractions must sum to 1.
    let traces = fleet(30, 32, 3);
    for policy in [
        SimPolicy::Reactive,
        SimPolicy::Proactive(PolicyConfig::default()),
        SimPolicy::Optimal,
    ] {
        let report = run(policy, &traces, 32);
        let total = report.kpi.active_frac
            + report.kpi.saved_frac
            + report.kpi.unavailable_frac
            + report.kpi.idle_logical_frac
            + report.kpi.idle_proactive_correct_frac
            + report.kpi.idle_proactive_wrong_frac;
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: fractions sum to {total}",
            report.policy_label
        );
    }
}

#[test]
fn telemetry_agrees_with_kpi_counters() {
    let traces = fleet(30, 32, 11);
    let report = run(SimPolicy::Proactive(PolicyConfig::default()), &traces, 32);
    let window = report.telemetry.range(report.measure_from, report.end);
    let logins_avail = window
        .iter()
        .filter(|e| e.kind == TelemetryKind::Login { available: true })
        .count() as u64;
    let logins_unavail = window
        .iter()
        .filter(|e| e.kind == TelemetryKind::Login { available: false })
        .count() as u64;
    assert_eq!(report.kpi.logins_available, logins_avail);
    assert_eq!(report.kpi.logins_unavailable, logins_unavail);
    let pauses = window
        .iter()
        .filter(|e| e.kind == TelemetryKind::PhysicalPause)
        .count() as u64;
    assert_eq!(report.kpi.physical_pauses, pauses);
}

#[test]
fn proactive_workflow_rate_exceeds_reactive() {
    // §9.3: "the number of proactive resumes and physical pauses per
    // time interval is doubled by the proactive policy" — at minimum the
    // proactive policy must pause at least as often (it skips logical
    // pauses and goes straight to physical pause).
    let traces = fleet(60, 32, 13);
    let reactive = run(SimPolicy::Reactive, &traces, 32);
    let proactive = run(SimPolicy::Proactive(PolicyConfig::default()), &traces, 32);
    assert!(
        proactive.kpi.physical_pauses as f64 >= 1.2 * reactive.kpi.physical_pauses as f64,
        "proactive {} pauses vs reactive {}",
        proactive.kpi.physical_pauses,
        reactive.kpi.physical_pauses
    );
    assert!(proactive.kpi.proactive_resumes > 0);
    assert_eq!(reactive.kpi.proactive_resumes, 0);
}

#[test]
fn runs_are_reproducible() {
    let traces = fleet(25, 30, 21);
    let a = run(SimPolicy::Proactive(PolicyConfig::default()), &traces, 30);
    let b = run(SimPolicy::Proactive(PolicyConfig::default()), &traces, 30);
    assert_eq!(a.kpi, b.kpi);
    assert_eq!(a.telemetry.len(), b.telemetry.len());
    assert_eq!(a.resume_batches, b.resume_batches);
    assert_eq!(a.counters.len(), b.counters.len());
    for (x, y) in a.counters.iter().zip(&b.counters) {
        assert_eq!(x.logins_available, y.logins_available);
        assert_eq!(x.physical_pauses, y.physical_pauses);
    }
}

#[test]
fn history_sizes_stay_in_the_figure_10_regime() {
    let traces = fleet(80, 32, 5);
    let report = run(SimPolicy::Proactive(PolicyConfig::default()), &traces, 32);
    let max_tuples = report
        .history_stats
        .iter()
        .map(|s| s.tuples)
        .max()
        .unwrap_or(0);
    let mean_bytes: f64 = report
        .history_stats
        .iter()
        .map(|s| s.logical_bytes as f64)
        .sum::<f64>()
        / report.history_stats.len() as f64;
    // Paper: average within 7 KB, worst case within 74 KB (≈ 4 700
    // tuples).  Our synthetic month must stay inside the same regime.
    assert!(max_tuples < 4_700, "max {max_tuples} tuples");
    assert!(mean_bytes < 7.0 * 1024.0, "mean {mean_bytes} bytes");
}

#[test]
fn one_day_measurement_windows_work() {
    // Figure 7 measures single days; the KPI plumbing must support it.
    let traces = fleet(20, 30, 9);
    let config = SimConfig::builder(
        SimPolicy::Proactive(PolicyConfig::default()),
        Timestamp(0),
        Timestamp(29 * DAY),
        Timestamp(28 * DAY),
    )
    .node_capacity(30)
    .build()
    .expect("valid config");
    let report = Simulation::new(config, traces)
        .expect("valid config")
        .run()
        .expect("runs");
    let total = report.kpi.active_frac
        + report.kpi.saved_frac
        + report.kpi.unavailable_frac
        + report.kpi.idle_logical_frac
        + report.kpi.idle_proactive_correct_frac
        + report.kpi.idle_proactive_wrong_frac;
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn the_policys_k_reaches_the_resume_scan() {
    // Four databases used 8 h every day, from 08:00, 09:00, 10:00 and
    // 11:00: a daily pattern the predictor learns, so the Algorithm 5
    // scan pre-warms each one `k` ahead of its predicted login.
    const HOUR: i64 = 3_600;
    let traces: Vec<Trace> = (0..4)
        .map(|db| {
            let sessions = (0..35)
                .map(|d| {
                    let login = d * DAY + (8 + db) * HOUR;
                    Session::new(Timestamp(login), Timestamp(login + 8 * HOUR))
                        .expect("well-formed session")
                })
                .collect();
            Trace::new(DatabaseId(db as u64), "daily", sessions).expect("ordered sessions")
        })
        .collect();
    let run_with_k = |k: Seconds| {
        let pc = PolicyConfig::builder().prewarm(k).build().expect("valid k");
        let config = SimConfig::builder(
            SimPolicy::Proactive(pc),
            Timestamp(0),
            Timestamp(35 * DAY),
            Timestamp(28 * DAY),
        )
        .build()
        .expect("valid config");
        assert_eq!(config.prewarm, k, "the scan's k is the policy's k");
        Simulation::new(config, traces.clone())
            .expect("valid config")
            .run()
            .expect("simulation completes")
    };
    let short = run_with_k(Seconds::minutes(1));
    let long = run_with_k(Seconds::minutes(10));
    assert!(short.kpi.proactive_resumes > 0, "the fleet is pre-warmed");
    assert_ne!(
        short.kpi.idle_proactive_correct_frac, long.kpi.idle_proactive_correct_frac,
        "a 10-min k must hold pre-warmed resources longer than a 1-min k"
    );
}
