//! Differential oracles: run generated scenarios through the policy
//! engines and compare whole [`SimReport`]s.
//!
//! All oracles use the paper's standard experiment window — 35 simulated
//! days with KPIs measured over the last five, so every database accrues
//! the four weeks of history the Table 1 defaults assume before
//! measurement starts.
//!
//! [`assert_reports_equal`] is the workhorse: it compares every
//! deterministic field of two reports and masks only the wall-clock
//! prediction-latency counters ([`EngineCounters::prediction_ns_sum`] /
//! [`EngineCounters::prediction_ns_max`]) and the per-shard timing block,
//! which are documented to vary run to run.

use prorp_core::EngineCounters;
use prorp_sim::{SimConfig, SimConfigBuilder, SimPolicy, SimReport, Simulation};
use prorp_types::Timestamp;
use prorp_workload::Trace;

/// One simulated day, in seconds.
pub const DAY: i64 = 86_400;
/// Length of the simulated window, in days.
pub const SPAN_DAYS: i64 = 35;
/// Day on which KPI measurement starts (the first 30 days are warm-up).
pub const MEASURE_DAY: i64 = 30;

/// A builder over the standard window with production-like defaults.
pub fn builder(policy: SimPolicy) -> SimConfigBuilder {
    SimConfig::builder(
        policy,
        Timestamp(0),
        Timestamp(SPAN_DAYS * DAY),
        Timestamp(MEASURE_DAY * DAY),
    )
}

/// Run a validated config over the given traces.
///
/// # Panics
///
/// Panics if the simulation rejects the config or an invariant check
/// fails mid-run (a debug build checks every event's transition).
pub fn run(cfg: SimConfig, traces: Vec<Trace>) -> SimReport {
    Simulation::new(cfg, traces)
        .expect("testkit configs must validate")
        .run()
        .expect("simulation must complete without invariant violations")
}

/// Run a policy with default knobs over the standard window.
pub fn run_policy(policy: SimPolicy, traces: &[Trace]) -> SimReport {
    run(
        builder(policy).build().expect("default builder validates"),
        traces.to_vec(),
    )
}

/// An engine-counter block with the wall-clock prediction-latency fields
/// zeroed, leaving only the logical (deterministic) counters.
pub fn logical(c: &EngineCounters) -> EngineCounters {
    EngineCounters {
        prediction_ns_sum: 0,
        prediction_ns_max: 0,
        ..*c
    }
}

/// Assert that two reports are identical on every deterministic field.
///
/// The policy label is *not* compared — several oracles assert that two
/// differently-labelled configurations (a pinned proactive fleet and the
/// reactive baseline, say) behave identically.  Shard timing counters
/// and wall-clock prediction latencies are masked as documented
/// nondeterminism; everything else must match bit for bit.
///
/// # Panics
///
/// Panics with the name of the first differing field.
pub fn assert_reports_equal(a: &SimReport, b: &SimReport, context: &str) {
    assert_eq!(
        a.history_stats, b.history_stats,
        "{context}: history storage statistics differ"
    );
    assert_behaviour_equal(a, b, context);
}

/// Like [`assert_reports_equal`] but without the history storage
/// statistics.
///
/// Used by the oracles that compare *different engines* (`p = 0`
/// proactive vs. the reactive baseline): the two trim history per
/// Algorithm 3 at different instants — reactive only on activity end,
/// proactive on every re-prediction — so they retain different tuples
/// even though every observable behaviour matches.
///
/// # Panics
///
/// Panics with the name of the first differing field.
pub fn assert_behaviour_equal(a: &SimReport, b: &SimReport, context: &str) {
    assert_eq!(a.kpi, b.kpi, "{context}: fleet KPIs differ");
    let la: Vec<EngineCounters> = a.counters.iter().map(logical).collect();
    let lb: Vec<EngineCounters> = b.counters.iter().map(logical).collect();
    assert_eq!(la, lb, "{context}: per-database engine counters differ");
    assert_eq!(
        a.resume_batches, b.resume_batches,
        "{context}: proactive-resume batch sizes differ"
    );
    assert_eq!(
        a.spill_moves, b.spill_moves,
        "{context}: spill moves differ"
    );
    assert_eq!(
        a.balance_moves, b.balance_moves,
        "{context}: balance moves differ"
    );
    assert_eq!(
        a.oversubscriptions, b.oversubscriptions,
        "{context}: oversubscriptions differ"
    );
    assert_eq!(
        a.mitigations, b.mitigations,
        "{context}: mitigations differ"
    );
    assert_eq!(
        a.incidents, b.incidents,
        "{context}: incident counts differ"
    );
    assert_eq!(a.giveups, b.giveups, "{context}: giveup counts differ");
    assert_eq!(a.workflow, b.workflow, "{context}: workflow stats differ");
    assert_eq!(
        a.incident_log.entries(),
        b.incident_log.entries(),
        "{context}: incident logs differ"
    );
    assert_eq!(
        a.maintenance, b.maintenance,
        "{context}: maintenance differs"
    );
    assert_eq!(
        a.telemetry_summary, b.telemetry_summary,
        "{context}: telemetry counts differ"
    );
    assert_eq!(
        a.telemetry_window, b.telemetry_window,
        "{context}: per-minute telemetry counts differ"
    );
}
