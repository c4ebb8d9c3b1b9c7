//! Fault matrix — stage-failure probability × retry budget.
//!
//! Sweeps the fault-injection layer over a grid of per-stage failure
//! probabilities and retry budgets and reports the QoS impact: how much
//! availability the customers lose, how many retries the control plane
//! absorbs, how many workflows exhaust their budget and escalate to
//! diagnostics incidents, and how far the end-to-end resume latency
//! stretches.  The grid runs the proactive policy so the predictor and
//! the circuit breaker stay in the loop.
//!
//! Knobs: the usual `PRORP_FLEET` / `PRORP_DAYS` / `PRORP_WARMUP` /
//! `PRORP_SEED`, plus `PRORP_SHARDS` for the worker count.  Pass
//! `--json <path>` to additionally write the grid as a machine-readable
//! JSON document.

use prorp_bench::{env_usize, json_path_from_args, write_json, ExperimentScale, Json};
use prorp_sim::{SimConfig, SimPolicy, SimReport, Simulation};
use prorp_types::{PolicyConfig, RetryPolicy, Seconds};
use prorp_workload::RegionName;

const PROBABILITIES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];
const BUDGETS: [u32; 4] = [1, 2, 4, 6];

fn cell_config(scale: &ExperimentScale, shards: usize, p: f64, budget: u32) -> SimConfig {
    SimConfig::builder(
        SimPolicy::Proactive(PolicyConfig::default()),
        scale.start(),
        scale.end(),
        scale.measure_from(),
    )
    .node_capacity((scale.fleet / 4).max(8))
    .nodes(5)
    .shards(shards)
    .seed(scale.seed)
    .stage_failure_probabilities(p)
    .retry(RetryPolicy {
        max_attempts: budget,
        base_backoff: Seconds(30),
        max_backoff: Seconds::minutes(8),
    })
    .diagnostics_period(Seconds::minutes(10))
    .build()
    .expect("fault-matrix cell config is valid")
}

fn resume_secs(report: &SimReport) -> f64 {
    report.workflow.workflow_latency.mean_secs()
}

fn main() {
    let scale = ExperimentScale::from_env();
    let json_path = json_path_from_args();
    let shards = env_usize("PRORP_SHARDS", 4);
    let traces = scale.fleet_for(RegionName::Eu1);

    println!(
        "Fault matrix: stage-failure probability × retry budget \
         ({} databases, EU1, {} shards, seed {})",
        scale.fleet, shards, scale.seed
    );
    println!();
    println!(
        "{:<7} {:>7} {:>8} {:>9} {:>9} {:>10} {:>10} {:>12}",
        "p(fail)", "budget", "QoS %", "retries", "giveups", "incidents", "mitigated", "resume (s)"
    );

    let mut baseline_qos = None;
    let mut rows: Vec<Json> = Vec::new();
    for &p in &PROBABILITIES {
        for &budget in &BUDGETS {
            let cfg = cell_config(&scale, shards, p, budget);
            let report = Simulation::new(cfg, traces.clone())
                .expect("fault-matrix traces are valid")
                .run()
                .expect("fault-matrix cell completes");
            let qos = report.kpi.qos_pct();
            if p == 0.0 {
                baseline_qos.get_or_insert(qos);
            }
            println!(
                "{:<7.2} {:>7} {:>8.2} {:>9} {:>9} {:>10} {:>10} {:>12.1}",
                p,
                budget,
                qos,
                report.workflow.retries,
                report.giveups,
                report.incidents,
                report.mitigations,
                resume_secs(&report),
            );
            rows.push(Json::object(vec![
                ("failure_probability", Json::Float(p)),
                ("retry_budget", Json::from(u64::from(budget))),
                ("qos_pct", Json::Float(qos)),
                ("retries", Json::from(report.workflow.retries)),
                ("giveups", Json::from(report.giveups)),
                ("incidents", Json::from(report.incidents)),
                ("mitigations", Json::from(report.mitigations)),
                ("resume_mean_secs", Json::Float(resume_secs(&report))),
            ]));
        }
        println!();
    }
    if let Some(path) = json_path {
        let doc = Json::object(vec![
            ("fleet", Json::from(scale.fleet as u64)),
            ("days", Json::Int(scale.days)),
            ("seed", Json::from(scale.seed)),
            ("shards", Json::from(shards as u64)),
            ("region", Json::Str("eu1".into())),
            ("rows", Json::Array(rows)),
        ]);
        write_json(&path, &doc);
    }

    if let Some(base) = baseline_qos {
        println!(
            "baseline (p = 0) QoS {:.2}% — each row's delta to it is the QoS \
             cost of that fault rate at that retry budget.",
            base
        );
    }
    println!(
        "reading: larger budgets convert giveups (incidents) into retries \
         (latency); the backoff caps keep the resume tail bounded."
    );
}
