//! Observability conformance: the online metrics/trace surface must
//! agree with the offline report, survive arbitrary fault plans, and
//! stay pinned to golden exports.
//!
//! Three layers:
//!
//! * a reconciliation property — for generated fleets and fault plans,
//!   every counter and histogram in the final metrics snapshot must
//!   equal the corresponding `SimReport` aggregate, bucket for bucket
//!   (agreement means the snapshot neither drops nor double-counts an
//!   event the report folded);
//! * a shard-invariance property — the JSONL trace of a generated
//!   scenario is byte-identical at 1 and 3 shards;
//! * golden exports — a fixed faulty scenario's trace (`.jsonl`), its
//!   whole snapshot series (`snapshots_small.jsonl`) and the final
//!   snapshot's deterministic Prometheus text (`.prom`) are pinned under
//!   `tests/goldens/`, re-recordable with `scripts/bless.sh`.  The CI
//!   gate also runs the `prorp-trace` CLI against the golden trace.
//!
//! The SLO rollup layer adds three more:
//!
//! * merge-law properties — quantile-sketch merging is associative,
//!   commutative, and equal to pooled observation; the full SLO rollup
//!   (rows + burn-rate alerts) renders byte-identically at 1, 2, and 8
//!   shards;
//! * golden SLO exports — the fixed scenario's per-region rollup rows
//!   (`slo_small.jsonl`) and alert log (`alerts_small.jsonl`);
//! * a provenance acceptance check — recorded `Decision` spans replay
//!   through `timetravel::replay_as_of` to the *same* predicted resume
//!   instant the engine acted on.

use proptest::prelude::*;
use prorp_core::EngineCounters;
use prorp_obs::{
    alerts_jsonl, evaluate_alerts, prometheus_text, replay_as_of, slo_jsonl, snapshots_jsonl,
    trace_jsonl, DecisionAction, MetricValue, ObsConfig, QuantileSketch, SloConfig, SpanKind,
};
use prorp_sim::{SimPolicy, SimReport};
use prorp_telemetry::LatencyHistogram;
use prorp_types::{PolicyConfig, Seconds};
use testkit::golden::check_golden_file;
use testkit::oracles::{builder, run};
use testkit::strategies::{fault_plan, fleet_spec, FaultPlan, FleetSpec};

fn run_observed(spec: &FleetSpec, plan: &FaultPlan, shards: usize) -> SimReport {
    let cfg = plan
        .apply(builder(SimPolicy::Proactive(PolicyConfig::default())))
        .shards(shards)
        .observe(ObsConfig::with_snapshots(Seconds::days(7)))
        .build()
        .expect("observed configs validate");
    run(cfg, spec.traces())
}

/// Like [`run_observed`] with the SLO rollup and decision-provenance
/// capture switched on.
fn run_observed_slo(spec: &FleetSpec, plan: &FaultPlan, shards: usize) -> SimReport {
    let cfg = plan
        .apply(builder(SimPolicy::Proactive(PolicyConfig::default())))
        .shards(shards)
        .observe(
            ObsConfig::with_snapshots(Seconds::days(7))
                .with_slo(SloConfig::default())
                .with_explain(),
        )
        .build()
        .expect("observed configs validate");
    run(cfg, spec.traces())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The final metrics snapshot and the offline `SimReport` must agree
    /// exactly on every quantity they share.
    #[test]
    fn snapshot_totals_reconcile_with_the_report(
        spec in fleet_spec(),
        plan in fault_plan(),
    ) {
        let report = run_observed(&spec, &plan, 2);
        let obs = report.obs.as_ref().expect("observability was enabled");
        let snap = obs.final_snapshot().expect("a final snapshot is always taken");
        let counter = |name: &str| {
            snap.get(name)
                .and_then(|v| v.as_counter())
                .unwrap_or_else(|| panic!("counter {name} missing from snapshot"))
        };
        // Engine counters: the metrics accumulate per-event deltas, the
        // report sums final per-database counters.
        let engine_sum =
            |f: fn(&EngineCounters) -> u64| report.counters.iter().map(f).sum::<u64>();
        prop_assert_eq!(
            counter("prorp_logins_available_total"),
            engine_sum(|c| c.logins_available)
        );
        prop_assert_eq!(
            counter("prorp_logins_unavailable_total"),
            engine_sum(|c| c.logins_unavailable)
        );
        prop_assert_eq!(
            counter("prorp_logical_pauses_total"),
            engine_sum(|c| c.logical_pauses)
        );
        prop_assert_eq!(
            counter("prorp_physical_pauses_total"),
            engine_sum(|c| c.physical_pauses)
        );
        prop_assert_eq!(
            counter("prorp_proactive_resumes_total"),
            engine_sum(|c| c.proactive_resumes)
        );
        prop_assert_eq!(
            counter("prorp_predictions_total"),
            engine_sum(|c| c.predictions)
        );
        prop_assert_eq!(
            counter("prorp_forecast_failures_total"),
            engine_sum(|c| c.forecast_failures)
        );
        prop_assert_eq!(
            counter("prorp_breaker_opens_total"),
            engine_sum(|c| c.breaker_opens)
        );
        prop_assert_eq!(
            counter("prorp_breaker_fallbacks_total"),
            engine_sum(|c| c.breaker_fallbacks)
        );
        // Workflow and diagnostics layers.
        prop_assert_eq!(counter("prorp_workflow_retries_total"), report.workflow.retries);
        prop_assert_eq!(counter("prorp_workflow_giveups_total"), report.giveups);
        prop_assert_eq!(counter("prorp_mitigations_total"), report.mitigations);
        prop_assert_eq!(counter("prorp_incidents_total"), report.incidents);
        // Both histograms, bucket for bucket: the stage histogram is the
        // four per-stage latency histograms summed, the workflow one is
        // the end-to-end latency histogram.
        let mut stages = LatencyHistogram::new();
        for h in &report.workflow.stage_latency {
            stages.absorb(h);
        }
        prop_assert_eq!(
            stages.count(),
            report.workflow.stage_completions.iter().sum::<u64>(),
            "every completed stage is one histogram observation"
        );
        for (name, want) in [
            ("prorp_workflow_stage_seconds", &stages),
            ("prorp_workflow_seconds", &report.workflow.workflow_latency),
        ] {
            let want = MetricValue::Histogram {
                buckets: *want.buckets(),
                count: want.count(),
                sum: want.total().as_secs(),
            };
            prop_assert_eq!(snap.get(name), Some(&want), "{}", name);
        }
        // Trace-level identity: one Login span per served/refused login.
        let login_spans = obs
            .trace
            .iter()
            .filter(|r| matches!(r.kind, SpanKind::Login { .. }))
            .count() as u64;
        prop_assert_eq!(
            login_spans,
            counter("prorp_logins_available_total")
                + counter("prorp_logins_unavailable_total")
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any generated fleet and fault plan, the rendered trace bytes
    /// do not depend on the shard layout.
    #[test]
    fn trace_bytes_are_shard_layout_invariant(
        spec in fleet_spec(),
        plan in fault_plan(),
    ) {
        let single = run_observed(&spec, &plan, 1);
        let sharded = run_observed(&spec, &plan, 3);
        let t1 = trace_jsonl(&single.obs.expect("obs on").trace);
        let t3 = trace_jsonl(&sharded.obs.expect("obs on").trace);
        prop_assert_eq!(t1, t3, "trace bytes must not depend on sharding");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sketch merging obeys the monoid laws and equals pooled
    /// observation — the algebra the shard-merge discipline rests on.
    #[test]
    fn sketch_merge_is_associative_commutative_and_pooling(
        a in prop::collection::vec(-10i64..2_000_000, 0..40),
        b in prop::collection::vec(-10i64..2_000_000, 0..40),
        c in prop::collection::vec(-10i64..2_000_000, 0..40),
    ) {
        let sketch_of = |values: &[i64]| {
            let mut s = QuantileSketch::new();
            for &v in values {
                s.observe(v);
            }
            s
        };
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));

        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let mut ab_c = sa.clone();
        ab_c.merge_from(&sb);
        ab_c.merge_from(&sc);
        let mut bc = sb.clone();
        bc.merge_from(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge_from(&bc);
        prop_assert_eq!(&ab_c, &a_bc, "associative");

        // a ⊔ b == b ⊔ a
        let mut ab = sa.clone();
        ab.merge_from(&sb);
        let mut ba = sb.clone();
        ba.merge_from(&sa);
        prop_assert_eq!(&ab, &ba, "commutative");

        // Merging shard sketches equals observing the pooled stream, so
        // every derived quantile is shard-layout invariant.
        let pooled: Vec<i64> = a.iter().chain(&b).chain(&c).copied().collect();
        let pooled = sketch_of(&pooled);
        prop_assert_eq!(&ab_c, &pooled, "merge == pooled observation");
        for (num, den) in [(50u64, 100u64), (95, 100), (99, 100)] {
            prop_assert_eq!(ab_c.quantile(num, den), pooled.quantile(num, den));
        }

        // The identity element: merging an empty sketch changes nothing.
        let mut with_empty = ab_c.clone();
        with_empty.merge_from(&QuantileSketch::new());
        prop_assert_eq!(&with_empty, &ab_c, "empty sketch is the identity");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The rendered SLO rollup — per-region rows *and* the burn-rate
    /// alert log derived from them — is byte-identical at 1, 2, and 8
    /// shards for any generated fleet and fault plan.
    #[test]
    fn slo_rollups_are_shard_layout_invariant(
        spec in fleet_spec(),
        plan in fault_plan(),
    ) {
        let rendered: Vec<(String, String)> = [1usize, 2, 8]
            .iter()
            .map(|&shards| {
                let report = run_observed_slo(&spec, &plan, shards);
                let obs = report.obs.as_ref().expect("obs on");
                let series = obs.slo.as_ref().expect("slo rollups on");
                (slo_jsonl(series), alerts_jsonl(&evaluate_alerts(series)))
            })
            .collect();
        prop_assert_eq!(&rendered[0], &rendered[1], "1 vs 2 shards");
        prop_assert_eq!(&rendered[0], &rendered[2], "1 vs 8 shards");
    }
}

/// The fixed scenario behind the golden exports: a small Eu1 fleet with
/// flaky stages and forecast faults, so the trace exercises retries,
/// give-ups, breaker episodes, and mitigations.
fn golden_plan() -> FaultPlan {
    FaultPlan {
        stage_failure: 0.25,
        warm_cache_extra: 0.1,
        forecast_fail_every: Some(3),
        stuck_probability: 0.05,
        seed: 29,
        ..FaultPlan::quiescent()
    }
}

fn golden_spec() -> FleetSpec {
    FleetSpec {
        region: prorp_workload::RegionName::Eu1,
        size: 8,
        seed: 7,
    }
}

fn golden_scenario() -> SimReport {
    run_observed(&golden_spec(), &golden_plan(), 2)
}

/// The same fixed scenario with SLO rollups and decision-provenance
/// capture on — the input behind the SLO goldens and the replay
/// acceptance check.
fn golden_slo_scenario() -> SimReport {
    run_observed_slo(&golden_spec(), &golden_plan(), 2)
}

#[test]
fn golden_trace_and_prometheus_exports() {
    let report = golden_scenario();
    let obs = report.obs.expect("observability was enabled");
    let mut drifts = Vec::new();
    if let Err(msg) = check_golden_file("trace_small.jsonl", &trace_jsonl(&obs.trace)) {
        drifts.push(msg);
    }
    let snap = obs
        .final_snapshot()
        .expect("a final snapshot is always taken")
        .deterministic();
    if let Err(msg) = check_golden_file("metrics_small.prom", &prometheus_text(&snap)) {
        drifts.push(msg);
    }
    // Every snapshot of the series, not just the last: the four weekly
    // ones and the end-of-run one, deterministic metrics only.
    if let Err(msg) = check_golden_file("snapshots_small.jsonl", &snapshots_jsonl(&obs.snapshots)) {
        drifts.push(msg);
    }
    assert!(
        drifts.is_empty(),
        "{} golden export(s) drifted:\n\n{}",
        drifts.len(),
        drifts.join("\n\n")
    );
}

#[test]
fn golden_slo_rollup_and_alert_exports() {
    let report = golden_slo_scenario();
    let obs = report.obs.expect("observability was enabled");
    let series = obs.slo.as_ref().expect("slo rollups were enabled");
    let mut drifts = Vec::new();
    if let Err(msg) = check_golden_file("slo_small.jsonl", &slo_jsonl(series)) {
        drifts.push(msg);
    }
    if let Err(msg) = check_golden_file("alerts_small.jsonl", &alerts_jsonl(&obs.alerts())) {
        drifts.push(msg);
    }
    // The explain-bearing trace, pinned so `scripts/check.sh` can gate
    // the `prorp-trace why` CLI against a trace with Decision spans.
    if let Err(msg) = check_golden_file("trace_decisions_small.jsonl", &trace_jsonl(&obs.trace)) {
        drifts.push(msg);
    }
    assert!(
        drifts.is_empty(),
        "{} golden SLO export(s) drifted:\n\n{}",
        drifts.len(),
        drifts.join("\n\n")
    );
}

/// Decision provenance closes the loop with storage time travel: for a
/// pause decision the engine explained with a predicted next resume,
/// replaying the database's login history "as of" the decision instant
/// re-derives the *same* prediction the engine acted on.
#[test]
fn recorded_decisions_replay_through_time_travel() {
    let report = golden_slo_scenario();
    let obs = report.obs.expect("observability was enabled");
    let mut checked = 0usize;
    for r in &obs.trace {
        let SpanKind::Decision { explain } = &r.kind else {
            continue;
        };
        // Pause-time decisions whose forecast ran at the decision
        // instant; a breaker-suppressed forecast was computed at a
        // different time, so the instant-replay contract does not apply
        // to it.
        if explain.breaker_open {
            continue;
        }
        if !matches!(
            explain.action,
            DecisionAction::PhysicalPause | DecisionAction::DeferPause
        ) {
            continue;
        }
        let Some(predicted) = explain.predicted else {
            continue;
        };
        let replay = replay_as_of(&obs.trace, r.db, r.start, PolicyConfig::default())
            .expect("replay succeeds");
        let again = replay
            .prediction
            .unwrap_or_else(|| panic!("replay at {:?} for {:?} lost the forecast", r.start, r.db));
        assert_eq!(
            again.start, predicted,
            "replayed prediction for {:?} as of {:?} disagrees with the recorded decision",
            r.db, r.start
        );
        checked += 1;
        if checked >= 8 {
            break;
        }
    }
    assert!(
        checked > 0,
        "the golden scenario recorded no fresh-forecast pause decisions to replay"
    );
}
