//! Differential oracles for the incremental prediction index.
//!
//! The incremental predictor (`prorp_forecast::IncrementalPredictor`) is
//! an *optimisation*, not a behaviour change: for every history, knob
//! setting, and query instant it must return the exact same
//! `Option<Prediction>` — confidence bit for bit — as the naive
//! from-scratch Algorithm 4 scan it replaces.  Four oracles enforce
//! that claim:
//!
//! 1. a proptest interleaving `insert_history` / `delete_old_history` /
//!    `predict_at` on a single table, comparing the incrementally
//!    maintained index against a table rebuilt from scratch at every
//!    query (and against the naive predictor on both);
//! 2. a fleet-level differential: whole simulations run with the
//!    default (incremental) predictor versus the `naive_predictor`
//!    knob must produce bit-identical reports under arbitrary fleets,
//!    knobs, and fault plans;
//! 3. a pinned shard-invariance check at 1/2/8 shards with the index
//!    enabled, complementing the generated shard oracle in
//!    `differential.rs`;
//! 4. a proptest over the knobs `policy_config()` never generates — a
//!    slide of seconds, a window anywhere up to the horizon, a horizon
//!    of up to three periods — on a handful of logins, where the sweep
//!    jumps over thousands of positions at a time and an off-by-one in
//!    where it lands would show.

use proptest::prelude::*;
use prorp_forecast::{ConfidenceBasis, IncrementalPredictor, ProbabilisticPredictor};
use prorp_sim::SimPolicy;
use prorp_storage::{HistoryStore, HistoryTable};
use prorp_types::{EventKind, PolicyConfig, Seasonality, Seconds, Timestamp};
use testkit::oracles::{assert_reports_equal, builder, run, DAY};
use testkit::strategies::{fault_plan, fleet_spec, policy_config, FleetSpec};

/// One step of an interleaved history workload.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `insert_history(t, kind)` — out-of-order and duplicate
    /// timestamps included on purpose.
    Insert(i64, bool),
    /// `delete_old_history(history_len, now)` (Algorithm 3).
    Trim(i64),
    /// Query both predictors at `now` and cross-check.
    Predict(i64),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            5 => (0i64..40 * DAY, any::<bool>()).prop_map(|(t, s)| Op::Insert(t, s)),
            1 => (0i64..45 * DAY).prop_map(Op::Trim),
            2 => (0i64..45 * DAY).prop_map(Op::Predict),
        ],
        1..100,
    )
}

/// Replay every mutation applied so far into a brand-new table and
/// configure its slot index over the final contents — the from-scratch
/// rebuild the incremental maintenance must be indistinguishable from.
fn rebuild(applied: &[Op], pc: &PolicyConfig) -> HistoryTable {
    let mut t = HistoryTable::default();
    for op in applied {
        match *op {
            Op::Insert(ts, start) => {
                let kind = if start {
                    EventKind::Start
                } else {
                    EventKind::End
                };
                t.insert_history(Timestamp(ts), kind);
            }
            Op::Trim(now) => {
                t.delete_old_history(pc.history_len, Timestamp(now));
            }
            Op::Predict(_) => unreachable!("queries are not mutations"),
        }
    }
    t.configure_slot_index(pc.seasonality.period(), pc.slide);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary interleavings of inserts (in and out of order),
    /// Algorithm 3 trims, and queries, the incrementally maintained
    /// login cache + slot index never diverge from a from-scratch
    /// rebuild, and the incremental predictor never diverges from the
    /// naive scan — on either table, either confidence basis, and any
    /// validated knob setting.
    #[test]
    fn incremental_never_diverges_from_rebuild(
        ops in ops(),
        pc in policy_config(),
        logins_basis in any::<bool>(),
    ) {
        let basis = if logins_basis {
            ConfidenceBasis::Logins
        } else {
            ConfidenceBasis::Windows
        };
        let naive = ProbabilisticPredictor::with_basis(pc, basis).unwrap();
        let fast = IncrementalPredictor::with_basis(pc, basis).unwrap();

        let mut live = HistoryTable::default();
        live.configure_slot_index(pc.seasonality.period(), pc.slide);
        let mut applied: Vec<Op> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(ts, start) => {
                    let kind = if start { EventKind::Start } else { EventKind::End };
                    live.insert_history(Timestamp(ts), kind);
                    applied.push(op);
                }
                Op::Trim(now) => {
                    live.delete_old_history(pc.history_len, Timestamp(now));
                    applied.push(op);
                }
                Op::Predict(now) => {
                    // Internal consistency of the live table's caches.
                    live.check_invariants();
                    let rebuilt = rebuild(&applied, &pc);
                    let now = Timestamp(now);
                    let want = naive.predict_at(&live, now);
                    prop_assert_eq!(
                        fast.predict_at(&live, now), want,
                        "incremental diverged on the live table at {:?}", now
                    );
                    prop_assert_eq!(
                        fast.predict_at(&rebuilt, now), want,
                        "incremental diverged on the rebuilt table at {:?}", now
                    );
                    prop_assert_eq!(
                        naive.predict_at(&rebuilt, now), want,
                        "rebuild changed the naive answer at {:?}", now
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Whole-fleet differential: the `naive_predictor` knob swaps the
    /// reference Algorithm 4 scan back in, and every deterministic field
    /// of the report — KPIs, per-database counters, workflow stats,
    /// incident logs — must be bit-identical
    /// to the default incremental arm, whatever the fleet, knobs, and
    /// fault plan.
    #[test]
    fn naive_and_incremental_fleets_are_bit_identical(
        spec in fleet_spec(),
        pc in policy_config(),
        plan in fault_plan(),
    ) {
        let traces = spec.traces();
        let fast = run(
            plan.apply(builder(SimPolicy::Proactive(pc))).build().unwrap(),
            traces.clone(),
        );
        let naive = run(
            plan.apply(builder(SimPolicy::Proactive(pc)))
                .naive_predictor(true)
                .build()
                .unwrap(),
            traces,
        );
        assert_reports_equal(&fast, &naive, &format!("incremental vs naive, {spec:?}, {plan:?}"));
    }
}

/// Pinned shard invariance with the prediction index enabled: the
/// per-shard scratch buffers and per-engine caches must not leak any
/// layout dependence into the report at 1, 2, or 8 shards.
#[test]
fn index_enabled_fleet_is_shard_invariant_at_1_2_8() {
    use prorp_workload::RegionName;

    let spec = FleetSpec {
        region: RegionName::all()[0],
        size: 12,
        seed: 7,
    };
    let traces = spec.traces();
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let one = run(
        builder(policy.clone()).shards(1).build().unwrap(),
        traces.clone(),
    );
    for shards in [2usize, 8] {
        let many = run(
            builder(policy.clone()).shards(shards).build().unwrap(),
            traces.clone(),
        );
        assert_reports_equal(&one, &many, &format!("1 vs {shards} shards with index"));
    }
}

/// Knobs and logins of the sparse fine-slide regime.  `horizon` and
/// `window` are drawn as permille so that `w ≤ p` holds by construction.
/// A login lies `prev` periods before `now` (−1: after it; beyond
/// `periods`: the kept-oldest tuple) and either anywhere in the stretch
/// the windows cross or within a second of an edge of one window
/// position the case picks — logins of different rows that enter and
/// leave at the same position, or one apart, are what tell a jump that
/// lands right from one that lands next door.
#[derive(Clone, Debug)]
struct SparseCase {
    config: PolicyConfig,
    logins: Vec<i64>,
    now: i64,
}

fn sparse_case() -> impl Strategy<Value = SparseCase> {
    (
        (any::<bool>(), 1i64..5, 1u32..101),
        // Mostly anywhere up to 5 min; one in four within 1–5 s.
        prop_oneof![3 => 1i64..301, 1 => 1i64..6],
        (1i64..1001, 0i64..1001, 0i64..1001),
        // (prev, placement, permille if free, seconds off the edge)
        prop::collection::vec((-1i64..7, 0u32..3, 0i64..1100, -1i64..2), 0..7),
        -40 * DAY..40 * DAY,
    )
        .prop_map(
            |((weekly, periods, c), s, (p_pm, w_pm, at_pm), logins, now)| {
                let seasonality = if weekly {
                    Seasonality::Weekly
                } else {
                    Seasonality::Daily
                };
                let period = seasonality.period().as_secs();
                // Up to three periods, but no more than 100 000 positions:
                // the naive oracle visits every one of them, per row.
                let horizon = (3 * period * p_pm / 1000).clamp(60, 100_000 * s);
                let window = 60 + (horizon - 60) * w_pm / 1000;
                let config = PolicyConfig {
                    history_len: Seconds(period * periods),
                    horizon: Seconds(horizon),
                    confidence: f64::from(c) / 100.0,
                    window: Seconds(window),
                    slide: Seconds(s),
                    seasonality,
                    ..PolicyConfig::default()
                };
                let position = (horizon - window) / s * at_pm / 1000 * s;
                let logins = logins
                    .into_iter()
                    .map(|(prev, placement, pm, off_edge)| {
                        let d = match placement {
                            0 => (horizon + 60) * pm / 1000,
                            1 => position + off_edge,
                            _ => position + window + off_edge,
                        };
                        now - prev * period + d
                    })
                    .collect();
                SparseCase {
                    config,
                    logins,
                    now,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A few logins under a slide of seconds: almost every position is
    /// one the sweep jumps over, so this is where `incremental ≡ naive`
    /// tests the jump's landing rather than the per-position step.
    #[test]
    fn sparse_histories_under_fine_slides_match_naive(
        case in sparse_case(),
        logins_basis in any::<bool>(),
    ) {
        let basis = if logins_basis {
            ConfidenceBasis::Logins
        } else {
            ConfidenceBasis::Windows
        };
        let pc = case.config;
        let naive = ProbabilisticPredictor::with_basis(pc, basis).unwrap();
        let fast = IncrementalPredictor::with_basis(pc, basis).unwrap();
        let mut plain = HistoryTable::default();
        for &at in &case.logins {
            plain.insert_history(Timestamp(at), EventKind::Start);
        }
        let mut indexed = plain.clone();
        indexed.configure_slot_index(pc.seasonality.period(), pc.slide);
        let now = Timestamp(case.now);
        let want = naive.predict_at(&plain, now);
        prop_assert_eq!(fast.predict_at(&plain, now), want, "sort-per-call path");
        prop_assert_eq!(fast.predict_at(&indexed, now), want, "clock-index path");
    }
}
