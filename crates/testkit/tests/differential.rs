//! Differential oracles across the three policy engines.
//!
//! Every property here runs complete fleet simulations, and a debug build
//! runs the simulator's lifecycle checks in each, so each case is doubly
//! audited: the explicit oracle assertions below, and the transition /
//! time-order / accounting checks inside the sim runner.

use proptest::prelude::*;
use prorp_sim::SimPolicy;
use prorp_types::{BreakerConfig, DatabaseId, DbState, Seconds, Timestamp};
use testkit::oracles::{assert_reports_equal, builder, run, run_policy};
use testkit::strategies::{fault_plan, fleet_spec, policy_config};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Dominance of the offline-optimal oracle for *arbitrary* knob
    /// settings: it serves at least as many logins and reclaims at least
    /// as many resource-hours as either online policy, and every
    /// report's KPI fractions satisfy the accounting identities (saved
    /// time is a subset of the non-active, non-waiting remainder).
    ///
    /// Note what is deliberately *not* asserted here: proactive QoS is
    /// not unconditionally above reactive QoS — with a short horizon and
    /// a strict confidence threshold, Transition ❸ (old database, no
    /// predicted activity ⇒ immediate physical pause) trades QoS for
    /// savings and can genuinely lose logins the lazy baseline would
    /// have served.  That bracketing is the paper's claim *at the
    /// Table 1 operating point* and is pinned as such by
    /// [`table1_bracketing_holds_across_fleets`].
    #[test]
    fn optimal_dominates_for_arbitrary_knobs(
        spec in fleet_spec(),
        pc in policy_config(),
    ) {
        let traces = spec.traces();
        let reactive = run_policy(SimPolicy::Reactive, &traces);
        let proactive = run_policy(SimPolicy::Proactive(pc), &traces);
        let optimal = run_policy(SimPolicy::Optimal, &traces);

        let eps = 1e-9;
        prop_assert!(
            optimal.kpi.qos_pct() + eps >= proactive.kpi.qos_pct(),
            "oracle QoS {} below proactive {} for {spec:?}",
            optimal.kpi.qos_pct(),
            proactive.kpi.qos_pct()
        );
        prop_assert!(
            optimal.kpi.qos_pct() + eps >= reactive.kpi.qos_pct(),
            "oracle QoS {} below reactive {} for {spec:?}",
            optimal.kpi.qos_pct(),
            reactive.kpi.qos_pct()
        );
        // The oracle reclaims at least as much as the reactive baseline:
        // it skips both the logical-pause linger and the resume latency.
        prop_assert!(
            optimal.kpi.saved_frac + eps >= reactive.kpi.saved_frac,
            "oracle saves {} below reactive {} for {spec:?}",
            optimal.kpi.saved_frac,
            reactive.kpi.saved_frac
        );
        for report in [&reactive, &proactive, &optimal] {
            let idle_total = 1.0 - report.kpi.active_frac - report.kpi.unavailable_frac;
            prop_assert!(
                report.kpi.saved_frac <= idle_total + eps,
                "{}: saved fraction {} exceeds total idle {}",
                report.policy_label,
                report.kpi.saved_frac,
                idle_total
            );
        }
    }
}

/// The paper's Figure 2 ordering at the Table 1 operating point:
/// reactive QoS ≤ proactive QoS ≤ optimal QoS on every evaluation
/// region, across several workload seeds.  This is the headline claim
/// the simulator reproduces, so it is pinned as a fixed grid rather
/// than left to generated knobs (which can legitimately violate it —
/// see [`optimal_dominates_for_arbitrary_knobs`]).
#[test]
fn table1_bracketing_holds_across_fleets() {
    use prorp_types::PolicyConfig;
    use prorp_workload::RegionName;
    use testkit::strategies::FleetSpec;

    for region in RegionName::all() {
        for seed in [1u64, 2, 3] {
            let spec = FleetSpec {
                region,
                size: 10,
                seed,
            };
            let traces = spec.traces();
            let reactive = run_policy(SimPolicy::Reactive, &traces);
            let proactive = run_policy(SimPolicy::Proactive(PolicyConfig::default()), &traces);
            let optimal = run_policy(SimPolicy::Optimal, &traces);
            assert!(
                reactive.kpi.qos_pct() <= proactive.kpi.qos_pct() + 1e-9
                    && proactive.kpi.qos_pct() <= optimal.kpi.qos_pct() + 1e-9,
                "{spec:?}: bracketing violated — reactive {} / proactive {} / optimal {}",
                reactive.kpi.qos_pct(),
                proactive.kpi.qos_pct(),
                optimal.kpi.qos_pct()
            );
            assert_eq!(
                optimal.kpi.logins_unavailable, 0,
                "{spec:?}: the oracle must never miss a login"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Shard invariance under arbitrary fault schedules: partitioning
    /// the fleet over worker threads must not change a single
    /// deterministic field of the report, whatever the fault layer does.
    #[test]
    fn any_fault_schedule_is_shard_invariant(
        spec in fleet_spec(),
        pc in policy_config(),
        plan in fault_plan(),
        shards in 2usize..6,
        reactive_pick in any::<bool>(),
    ) {
        let policy = if reactive_pick {
            SimPolicy::Reactive
        } else {
            SimPolicy::Proactive(pc)
        };
        let traces = spec.traces();
        let one = run(
            plan.apply(builder(policy.clone())).shards(1).build().unwrap(),
            traces.clone(),
        );
        let many = run(
            plan.apply(builder(policy)).shards(shards).build().unwrap(),
            traces,
        );
        assert_reports_equal(&one, &many, &format!("1 vs {shards} shards, {plan:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// A breaker pinned open from the first prediction degrades every
    /// proactive engine to the §3.2 reactive fallback: the fleet must be
    /// bit-identical to the reactive baseline except for the recorded
    /// probe failures, whatever the remaining knobs say.
    #[test]
    fn breaker_pinned_proactive_is_bit_identical_to_reactive(
        spec in fleet_spec(),
        pc in policy_config(),
    ) {
        // The reactive baseline hard-codes the production 7 h logical
        // pause; pin the generated config to it so the two fleets run
        // the same pause schedule.  Every other knob may vary freely —
        // with the breaker open none of them can matter.
        let pc = prorp_types::PolicyConfig {
            logical_pause: Seconds::hours(7),
            ..pc
        };
        let traces = spec.traces();
        let pinned = run(
            builder(SimPolicy::Proactive(pc))
                .forecast_fail_every(1)
                .breaker(BreakerConfig {
                    failure_threshold: 1,
                    cooldown: Seconds::days(365),
                })
                .build()
                .unwrap(),
            traces.clone(),
        );
        let reactive = run_policy(SimPolicy::Reactive, &traces);

        prop_assert!(pinned.kpi.forecast_failures > 0, "probes must fail");
        prop_assert_eq!(pinned.kpi.proactive_resumes, 0);
        let mut kpi = pinned.kpi;
        kpi.forecast_failures = reactive.kpi.forecast_failures;
        prop_assert_eq!(kpi, reactive.kpi);
        prop_assert_eq!(
            pinned.workflow.stage_completions,
            reactive.workflow.stage_completions
        );
        prop_assert_eq!(
            &pinned.workflow.workflow_latency,
            &reactive.workflow.workflow_latency
        );
        let opens: u64 = pinned.counters.iter().map(|c| c.breaker_opens).sum();
        prop_assert!(opens > 0, "breakers must trip");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The `sqlmini` metadata path agrees with the native
    /// [`prorp_storage::MetadataStore`] under interleaved upserts
    /// (including overwrites) and repeated Algorithm 5 scans at varying
    /// instants — not just a single final query.
    #[test]
    fn sqlmini_metadata_scan_agrees_with_native_store(
        ops in prop::collection::vec(
            (0u64..32, 0u8..3, prop::option::of(0i64..80_000)),
            1..80,
        ),
        scans in prop::collection::vec(
            (0i64..90_000, 1i64..900, 1i64..2_000),
            1..6,
        ),
    ) {
        use prorp_sqlmini::MetadataDb;
        use prorp_storage::{DbMeta, MetadataStore};

        let mut sql = MetadataDb::new();
        let mut native = MetadataStore::new();
        // Interleave: after every few upserts, both layers answer a scan
        // and must agree — catching divergence that a final-state-only
        // comparison would mask (e.g. stale index entries surviving an
        // overwrite).
        for (i, (id, state, pred)) in ops.iter().enumerate() {
            let state = match state {
                0 => DbState::Resumed,
                1 => DbState::LogicallyPaused,
                _ => DbState::PhysicallyPaused,
            };
            sql.upsert(*id, state, *pred).unwrap();
            native.upsert(
                DatabaseId(*id),
                DbMeta {
                    state,
                    pred_start: pred.map(Timestamp),
                },
            );
            if i % 7 == 6 {
                let (now, prewarm, width) = scans[i % scans.len()];
                let mut a = sql.databases_to_resume(now, prewarm, width).unwrap();
                let mut b: Vec<u64> = native
                    .databases_to_resume_iter(Timestamp(now), Seconds(prewarm), Seconds(width))
                    .map(|d| d.raw())
                    .collect();
                a.sort_unstable();
                b.sort_unstable();
                prop_assert_eq!(a, b, "scan after op {} diverged", i);
            }
        }
        for &(now, prewarm, width) in &scans {
            let mut a = sql.databases_to_resume(now, prewarm, width).unwrap();
            let mut b: Vec<u64> = native
                .databases_to_resume_iter(Timestamp(now), Seconds(prewarm), Seconds(width))
                .map(|d| d.raw())
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
