//! Sharded-simulation determinism: the merged report of an N-shard run
//! must be bit-identical (KPIs, batch series, counts, workflow stats,
//! incident log) to the single-threaded run on the same seed, and the
//! id-hash partitioning must cover every database exactly once.

use prorp_core::EngineCounters;
use prorp_obs::{snapshots_jsonl, trace_jsonl};
use prorp_sim::{
    ObsConfig, SimConfig, SimPolicy, SimReport, Simulation, TelemetryMode, TelemetrySummary,
};
use prorp_telemetry::TelemetryKind;
use prorp_types::{BreakerConfig, PolicyConfig, RetryPolicy, Seconds, Timestamp};
use prorp_workload::{LazyFleet, RegionName, RegionProfile, Trace};

const DAY: i64 = 86_400;

fn fleet(size: usize) -> Vec<Trace> {
    RegionProfile::for_region(RegionName::Eu1).generate_fleet(
        size,
        Timestamp(0),
        Timestamp(35 * DAY),
        21,
    )
}

/// Engine counters with the wall-clock prediction-overhead fields zeroed:
/// those measure real elapsed nanoseconds and differ between any two runs
/// (sharded or not); every logical counter must still match exactly.
fn logical(counters: &[EngineCounters]) -> Vec<EngineCounters> {
    counters
        .iter()
        .map(|c| EngineCounters {
            prediction_ns_sum: 0,
            prediction_ns_max: 0,
            ..*c
        })
        .collect()
}

fn run_with_shards(policy: SimPolicy, traces: Vec<Trace>, shards: usize) -> SimReport {
    let cfg = SimConfig::builder(
        policy,
        Timestamp(0),
        Timestamp(35 * DAY),
        Timestamp(30 * DAY),
    )
    .shards(shards)
    .build()
    .unwrap();
    Simulation::new(cfg, traces).unwrap().run().unwrap()
}

#[test]
fn same_seed_yields_identical_kpis_for_1_2_and_8_shards() {
    let traces = fleet(48);
    let baseline = run_with_shards(
        SimPolicy::Proactive(PolicyConfig::default()),
        traces.clone(),
        1,
    );
    assert_eq!(baseline.shard_counters.len(), 1);
    for shards in [2usize, 8] {
        let sharded = run_with_shards(
            SimPolicy::Proactive(PolicyConfig::default()),
            traces.clone(),
            shards,
        );
        // KpiReport is Copy + PartialEq over raw counts and f64
        // fractions: equality here means bit-identical KPIs.
        assert_eq!(sharded.kpi, baseline.kpi, "{shards} shards");
        assert_eq!(sharded.resume_batches, baseline.resume_batches);
        assert!(baseline.telemetry_summary.total() > 0);
        assert_eq!(sharded.telemetry_summary, baseline.telemetry_summary);
        assert_eq!(sharded.telemetry_window, baseline.telemetry_window);
        assert_eq!(
            logical(&sharded.counters),
            logical(&baseline.counters),
            "input-trace order"
        );
        assert_eq!(sharded.history_stats, baseline.history_stats);
        assert_eq!(sharded.workflow, baseline.workflow);
        assert_eq!(
            sharded.incident_log.entries(),
            baseline.incident_log.entries()
        );
        assert_eq!(sharded.spill_moves, baseline.spill_moves);
        assert_eq!(sharded.oversubscriptions, baseline.oversubscriptions);
        assert_eq!(sharded.maintenance, baseline.maintenance);
        assert_eq!(sharded.shard_counters.len(), shards);
        let worked: usize = sharded.shard_counters.iter().map(|c| c.databases).sum();
        assert_eq!(worked, traces.len());
    }
}

#[test]
fn sharding_is_deterministic_under_fault_injection() {
    // The stateless per-(seed, db, timestamp) fault draw must make stuck
    // workflows independent of the shard layout.
    let traces = fleet(32);
    let mut reports = Vec::new();
    for shards in [1usize, 4] {
        let cfg = SimConfig::builder(
            SimPolicy::Reactive,
            Timestamp(0),
            Timestamp(35 * DAY),
            Timestamp(30 * DAY),
        )
        .shards(shards)
        .stuck_probability(0.5)
        .seed(7)
        .diagnostics_period(Seconds::minutes(10))
        .build()
        .unwrap();
        reports.push(Simulation::new(cfg, traces.clone()).unwrap().run().unwrap());
    }
    assert_eq!(reports[0].kpi, reports[1].kpi);
    assert_eq!(reports[0].mitigations, reports[1].mitigations);
    assert_eq!(reports[0].incidents, reports[1].incidents);
    assert!(reports[0].mitigations > 0, "fault injection must bite");
}

#[test]
fn stage_faults_and_incident_logs_are_shard_invariant() {
    // Nonzero stage-failure probability: retries, backoff jitter, retry
    // exhaustion, and incident escalation must all come out of stateless
    // per-key draws, so KPIs, workflow stats (per-stage histograms,
    // retry/giveup counters), and the canonical incident log are
    // bit-identical at 1, 2, and 8 shards.
    let traces = fleet(48);
    let build = |shards: usize| {
        SimConfig::builder(
            SimPolicy::Reactive,
            Timestamp(0),
            Timestamp(35 * DAY),
            Timestamp(30 * DAY),
        )
        .shards(shards)
        .seed(13)
        .stage_failure_probabilities(0.35)
        .retry(RetryPolicy {
            max_attempts: 2,
            base_backoff: Seconds(20),
            max_backoff: Seconds::minutes(2),
        })
        .diagnostics_period(Seconds::minutes(10))
        .build()
        .unwrap()
    };
    let baseline = Simulation::new(build(1), traces.clone())
        .unwrap()
        .run()
        .unwrap();
    assert!(baseline.workflow.retries > 0, "faults must force retries");
    assert!(baseline.giveups > 0, "some budgets must exhaust");
    assert_eq!(
        baseline.incidents as usize,
        baseline.incident_log.len(),
        "every escalation is logged"
    );
    for shards in [2usize, 8] {
        let sharded = Simulation::new(build(shards), traces.clone())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(sharded.kpi, baseline.kpi, "{shards} shards");
        assert_eq!(sharded.workflow, baseline.workflow, "{shards} shards");
        assert_eq!(sharded.giveups, baseline.giveups);
        assert_eq!(sharded.mitigations, baseline.mitigations);
        assert_eq!(sharded.incidents, baseline.incidents);
        assert_eq!(
            sharded.incident_log.entries(),
            baseline.incident_log.entries(),
            "{shards} shards: canonical incident order"
        );
    }
}

#[test]
fn observability_streams_are_byte_identical_across_shard_layouts() {
    // The observability layer promises the same determinism contract as
    // the KPI surface: the JSONL trace and the deterministic snapshot
    // series must come out byte-for-byte identical at 1, 2, and 8
    // shards.  The fault plan mirrors what the testkit generates —
    // flaky stages with a retry budget, forecast faults tripping the
    // circuit breaker, and stuck workflows swept by diagnostics — so
    // every span kind shows up in the compared trace.
    let traces = fleet(32);
    let run = |shards: usize| {
        let cfg = SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig::default()),
            Timestamp(0),
            Timestamp(35 * DAY),
            Timestamp(30 * DAY),
        )
        .shards(shards)
        .seed(23)
        .stage_failure_probabilities(0.3)
        .retry(RetryPolicy {
            max_attempts: 2,
            base_backoff: Seconds(20),
            max_backoff: Seconds::minutes(2),
        })
        .breaker(BreakerConfig {
            failure_threshold: 2,
            cooldown: Seconds::minutes(45),
        })
        .forecast_fail_every(3)
        .stuck_probability(0.05)
        .diagnostics_period(Seconds::minutes(10))
        .observe(ObsConfig::with_snapshots(Seconds::days(7)))
        .build()
        .unwrap();
        let report = Simulation::new(cfg, traces.clone()).unwrap().run().unwrap();
        let obs = report.obs.expect("observability was enabled");
        (trace_jsonl(&obs.trace), snapshots_jsonl(&obs.snapshots))
    };
    let (trace_1, snaps_1) = run(1);
    assert!(
        trace_1.lines().count() > 1_000,
        "the fault plan must produce a rich trace, got {} records",
        trace_1.lines().count()
    );
    assert_eq!(
        snaps_1.lines().count(),
        5,
        "7-day period over 35 days: four mid-run snapshots plus the final one"
    );
    for shards in [2usize, 8] {
        let (trace_n, snaps_n) = run(shards);
        assert_eq!(trace_n, trace_1, "{shards}-shard trace bytes");
        assert_eq!(snaps_n, snaps_1, "{shards}-shard snapshot bytes");
    }
}

/// How many of `traces` `shard_of` sends to each of `shards` shards,
/// checking that it sends each id to exactly one shard in range, and the
/// same one every time.
fn shard_sizes(traces: &[Trace], shards: usize) -> Vec<usize> {
    let mut sizes = vec![0usize; shards];
    for t in traces {
        let s = t.db.shard_of(shards);
        assert!(s < shards, "{} sent to shard {s} of {shards}", t.db);
        assert_eq!(t.db.shard_of(shards), s, "stable assignment");
        sizes[s] += 1;
    }
    sizes
}

#[test]
fn partitioning_covers_every_database_exactly_once() {
    let traces = fleet(200);
    for shards in [1usize, 2, 3, 8, 16] {
        let sizes = shard_sizes(&traces, shards);
        assert_eq!(sizes.iter().sum::<usize>(), traces.len());
        // A run registers on each shard exactly the databases `shard_of`
        // sends there.
        let report = run_with_shards(SimPolicy::Reactive, traces.clone(), shards);
        let registered: Vec<usize> = report.shard_counters.iter().map(|c| c.databases).collect();
        assert_eq!(registered, sizes, "{shards} shards");
        assert_eq!(report.counters.len(), traces.len());
    }
}

#[test]
fn partitioning_edge_cases_are_well_formed() {
    // Empty fleet: every shard exists and owns nothing.
    assert_eq!(shard_sizes(&[], 4), vec![0; 4]);
    let empty = run_with_shards(SimPolicy::Reactive, Vec::new(), 4);
    let registered: Vec<usize> = empty.shard_counters.iter().map(|c| c.databases).collect();
    assert_eq!(registered, vec![0; 4]);

    // Single database: exactly one shard owns it, at any shard count.
    let one = fleet(1);
    for shards in [1usize, 2, 16] {
        let mut expected = vec![0; shards];
        expected[one[0].db.shard_of(shards)] = 1;
        assert_eq!(shard_sizes(&one, shards), expected, "{shards} shards");
    }

    // More shards than databases: every database covered once, the rest
    // of the shards empty.
    let sizes = shard_sizes(&fleet(5), 16);
    assert_eq!(sizes.iter().sum::<usize>(), 5);
    assert!(sizes.iter().filter(|&&n| n == 0).count() >= 11);
}

#[test]
fn streamed_run_matches_materialised_run_bit_for_bit() {
    // A LazyFleet re-derives each database's RNG sub-stream on demand,
    // and run_streamed has each shard generate only its own partition —
    // the merged report must still equal the Vec<Trace> path exactly.
    let profile = RegionProfile::for_region(RegionName::Eu1);
    let lazy = LazyFleet::new(profile, 48, Timestamp(0), Timestamp(35 * DAY), 21);
    let traces = fleet(48);
    for shards in [1usize, 4] {
        let build = || {
            SimConfig::builder(
                SimPolicy::Proactive(PolicyConfig::default()),
                Timestamp(0),
                Timestamp(35 * DAY),
                Timestamp(30 * DAY),
            )
            .shards(shards)
            .telemetry_mode(TelemetryMode::Full)
            .build()
            .unwrap()
        };
        let materialised = Simulation::new(build(), traces.clone())
            .unwrap()
            .run()
            .unwrap();
        let streamed = Simulation::run_streamed(build(), &lazy).unwrap();
        assert!(!materialised.telemetry.is_empty());
        assert_eq!(streamed.kpi, materialised.kpi, "{shards} shards");
        assert_eq!(streamed.resume_batches, materialised.resume_batches);
        assert_eq!(
            streamed.telemetry.events(),
            materialised.telemetry.events(),
            "{shards} shards: merged telemetry logs"
        );
        assert_eq!(
            logical(&streamed.counters),
            logical(&materialised.counters),
            "{shards} shards: input-trace order"
        );
        assert_eq!(streamed.history_stats, materialised.history_stats);
        assert_eq!(streamed.workflow, materialised.workflow);
    }
}

/// Workflow counts per `minutes`-wide bin of `[measure_from, end)`, cut
/// from a Full run's log: the bins the per-minute series must reproduce.
fn bins_from_log(report: &SimReport, kind: TelemetryKind, minutes: i64) -> Vec<usize> {
    let width = minutes * 60;
    let span = (report.end - report.measure_from).as_secs();
    let mut bins = vec![0usize; (span as usize).div_ceil(width as usize).max(1)];
    for e in report.telemetry.range(report.measure_from, report.end) {
        if e.kind == kind {
            bins[((e.ts - report.measure_from).as_secs() / width) as usize] += 1;
        }
    }
    bins
}

#[test]
fn summary_telemetry_mode_preserves_kpis_and_label_counts() {
    // Summary-mode shards log no event; KPIs, the per-label summary and
    // the Figure 11/12 bins must be what Full mode's materialised log
    // says they are.
    let traces = fleet(48);
    let (measure_from, end) = (Timestamp(30 * DAY), Timestamp(35 * DAY));
    for shards in [1usize, 2, 8] {
        let build = |mode: TelemetryMode| {
            SimConfig::builder(
                SimPolicy::Proactive(PolicyConfig::default()),
                Timestamp(0),
                end,
                measure_from,
            )
            .shards(shards)
            .maintenance_period(Seconds::days(3))
            .telemetry_mode(mode)
            .build()
            .unwrap()
        };
        let full = Simulation::new(build(TelemetryMode::Full), traces.clone())
            .unwrap()
            .run()
            .unwrap();
        let summary = Simulation::new(build(TelemetryMode::Summary), traces.clone())
            .unwrap()
            .run()
            .unwrap();
        assert!(summary.telemetry.is_empty(), "Summary keeps no event log");
        assert!(!full.telemetry.is_empty());

        // Expectations derived from the log, not from the counts.
        let labels = TelemetrySummary::from_log(&full.telemetry);
        let in_window = |kind: TelemetryKind| {
            full.telemetry
                .range(measure_from, end)
                .iter()
                .filter(|e| e.kind == kind)
                .count() as u64
        };
        let expected = (
            in_window(TelemetryKind::Login { available: true }),
            in_window(TelemetryKind::Login { available: false }),
            in_window(TelemetryKind::ProactiveResume),
            in_window(TelemetryKind::PhysicalPause),
        );
        assert!(expected.0 > 0 && expected.2 > 0 && expected.3 > 0);
        for report in [&full, &summary] {
            assert_eq!(report.telemetry_summary, labels, "{shards} shards");
            let k = &report.kpi;
            assert_eq!(
                (
                    k.logins_available,
                    k.logins_unavailable,
                    k.proactive_resumes,
                    k.physical_pauses
                ),
                expected,
                "{shards} shards"
            );
        }
        assert_eq!(summary.kpi, full.kpi);
        assert_eq!(summary.resume_batches, full.resume_batches);
        assert_eq!(labels.total(), full.telemetry.len() as u64);

        // Every kind at every Figure 11/12 width, trailing empty bins
        // included: the minute series is the log, cut.
        for kind in TelemetryKind::ALL {
            for minutes in [1i64, 5, 10, 15] {
                let expected = bins_from_log(&full, kind, minutes);
                assert_eq!(expected.len(), 7_200 / minutes as usize);
                for report in [&full, &summary] {
                    assert_eq!(
                        report.workflow_bins(kind, Seconds::minutes(minutes)),
                        expected,
                        "{shards} shards, {kind:?} per {minutes} min"
                    );
                }
            }
        }
        for kind in [
            TelemetryKind::Login { available: false },
            TelemetryKind::PhysicalPause,
        ] {
            let bins = summary.workflow_bins(kind, Seconds::minutes(1));
            assert!(bins.iter().any(|&b| b > 0), "{shards} shards, {kind:?}");
        }
    }
}

#[test]
fn empty_shards_do_not_skew_merged_kpis() {
    // More shards than databases: several shards own zero databases.
    // Their (empty) outcomes must contribute nothing — the merged KPI
    // fractions come from summed segment totals, not per-shard ratios.
    let traces = fleet(5);
    let baseline = run_with_shards(
        SimPolicy::Proactive(PolicyConfig::default()),
        traces.clone(),
        1,
    );
    let sharded = run_with_shards(SimPolicy::Proactive(PolicyConfig::default()), traces, 16);
    assert_eq!(sharded.shard_counters.len(), 16);
    assert!(
        sharded.shard_counters.iter().any(|c| c.databases == 0),
        "test needs at least one empty shard"
    );
    assert_eq!(sharded.kpi, baseline.kpi);
    assert_eq!(sharded.kpi.qos_pct(), baseline.kpi.qos_pct());
    assert_eq!(sharded.resume_batches, baseline.resume_batches);
}
