//! End-to-end behaviour of the fault-injected control plane: staged
//! resume workflows with retry/backoff and incident escalation, and the
//! predictor circuit breaker degrading the proactive fleet to reactive.

use prorp_sim::{SimConfig, SimPolicy, SimReport, Simulation};
use prorp_telemetry::IncidentKind;
use prorp_types::{BreakerConfig, PolicyConfig, RetryPolicy, Seconds, Timestamp, WorkflowStage};
use prorp_workload::{RegionName, RegionProfile, Trace};

const DAY: i64 = 86_400;

fn fleet(size: usize, seed: u64) -> Vec<Trace> {
    RegionProfile::for_region(RegionName::Eu1).generate_fleet(
        size,
        Timestamp(0),
        Timestamp(35 * DAY),
        seed,
    )
}

fn builder(policy: SimPolicy) -> prorp_sim::SimConfigBuilder {
    SimConfig::builder(
        policy,
        Timestamp(0),
        Timestamp(35 * DAY),
        Timestamp(30 * DAY),
    )
}

fn run(cfg: SimConfig, traces: Vec<Trace>) -> SimReport {
    Simulation::new(cfg, traces).unwrap().run().unwrap()
}

#[test]
fn tripped_breaker_fleet_bit_matches_the_reactive_fleet() {
    // Every prediction fails and the first failure opens a breaker that
    // never cools down inside the horizon: every proactive engine is
    // pinned to reactive behaviour, so the whole fleet's KPIs must be
    // bit-identical to a reactive run on the same traces — except the
    // forecast-failure count, which records the probes themselves.
    let traces = fleet(40, 11);
    let degraded = run(
        builder(SimPolicy::Proactive(PolicyConfig::default()))
            .forecast_fail_every(1)
            .breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown: Seconds::days(365),
            })
            .build()
            .unwrap(),
        traces.clone(),
    );
    let reactive = run(builder(SimPolicy::Reactive).build().unwrap(), traces);

    let mut kpi = degraded.kpi;
    assert!(kpi.forecast_failures > 0, "fault injection must bite");
    kpi.forecast_failures = reactive.kpi.forecast_failures;
    assert_eq!(kpi, reactive.kpi, "open breaker ⇒ reactive fleet");
    assert_eq!(degraded.kpi.proactive_resumes, 0);
    assert_eq!(
        degraded.workflow.stage_completions,
        reactive.workflow.stage_completions
    );
    assert_eq!(
        degraded.workflow.workflow_latency,
        reactive.workflow.workflow_latency
    );
    let opens = |r: &SimReport| r.counters.iter().map(|c| c.breaker_opens).sum::<u64>();
    let fallbacks: u64 = degraded.counters.iter().map(|c| c.breaker_fallbacks).sum();
    assert!(opens(&degraded) > 0, "breakers tripped");
    assert!(fallbacks > 0, "probes suppressed");
    assert_eq!(opens(&reactive), 0);
}

#[test]
fn retry_exhaustion_escalates_incidents_end_to_end() {
    // Certain stage failure with a 2-attempt budget: every reactive
    // resume retries once, gives up, and escalates an incident that the
    // mitigation path force-completes.
    let traces = fleet(24, 5);
    let report = run(
        builder(SimPolicy::Reactive)
            .seed(3)
            .stage_failure_probabilities(1.0)
            .retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Seconds(15),
                max_backoff: Seconds::minutes(1),
            })
            .diagnostics_period(Seconds::minutes(5))
            .build()
            .unwrap(),
        traces,
    );
    assert!(report.giveups > 0, "certain failure must exhaust budgets");
    assert!(report.workflow.retries >= report.giveups, "one retry each");
    // Every give-up is one logged incident, and every logged incident is
    // a retry exhaustion on the first stage (the workflow never gets past
    // it).
    assert_eq!(report.incident_log.len() as u64, report.workflow.giveups);
    assert!(report.incident_log.entries().iter().all(|e| e.kind
        == IncidentKind::RetryExhausted {
            stage: WorkflowStage::AllocateNode
        }));
    // No workflow ever completed all four stages.
    assert_eq!(report.workflow.stage_completions, [0, 0, 0, 0]);
    assert_eq!(report.workflow.workflow_latency.count(), 0);
}

#[test]
fn partial_stage_faults_degrade_qos_but_complete_workflows() {
    // A flaky warm-cache stage with a generous retry budget: workflows
    // complete (slower), QoS degrades relative to the fault-free run,
    // and the per-stage histograms show the stretched stage.
    let traces = fleet(32, 9);
    let clean = run(
        builder(SimPolicy::Reactive).build().unwrap(),
        traces.clone(),
    );
    let flaky = run(
        builder(SimPolicy::Reactive)
            .seed(21)
            .stage_failure_probability(WorkflowStage::WarmCache, 0.6)
            .retry(RetryPolicy {
                max_attempts: 6,
                base_backoff: Seconds(30),
                max_backoff: Seconds::minutes(5),
            })
            .build()
            .unwrap(),
        traces,
    );
    assert!(flaky.workflow.retries > 0);
    assert!(
        flaky.workflow.workflow_latency.count() > 0,
        "workflows still complete"
    );
    assert!(
        flaky.workflow.workflow_latency.mean_secs() > clean.workflow.workflow_latency.mean_secs(),
        "retries stretch the end-to-end resume latency"
    );
    let warm = WorkflowStage::WarmCache.index();
    let alloc = WorkflowStage::AllocateNode.index();
    assert!(
        flaky.workflow.stage_latency[warm].mean_secs()
            > flaky.workflow.stage_latency[alloc].mean_secs(),
        "the flaky stage dominates the per-stage histograms"
    );
    assert!(
        flaky.kpi.unavailable_frac >= clean.kpi.unavailable_frac,
        "customers wait out the retries"
    );
}
