//! Figure 7 — validation across different training and test intervals.
//!
//! Paper: the reactive-vs-proactive comparison holds across four
//! consecutive evaluation days (September 1–4, 2023): reactive QoS
//! 60–68 %, proactive 80–90 %; reactive idle 5–12 %, proactive 7–14 %.
//! This binary trains on the same 28-day warm-up and evaluates each of
//! the four following days separately.

use prorp_bench::ExperimentScale;
use prorp_sim::{SimPolicy, Simulation};
use prorp_types::{PolicyConfig, Seconds};
use prorp_workload::RegionName;

fn main() {
    let scale = ExperimentScale::from_env();
    let traces = scale.fleet_for(RegionName::Eu1);
    println!(
        "Figure 7: validation across evaluation days ({} databases, EU1, 28-day history)",
        scale.fleet
    );
    println!();
    println!(
        "{:<7} {:>13} {:>14} {:>13} {:>14}",
        "day", "reactive QoS", "reactive idle", "proactive QoS", "proactive idle"
    );
    for day in 0..4 {
        let mut results = Vec::new();
        for policy in [
            SimPolicy::Reactive,
            SimPolicy::Proactive(PolicyConfig::default()),
        ] {
            let mut cfg = scale.sim_config(policy);
            cfg.measure_from = scale.measure_from() + Seconds::days(day);
            cfg.end = (cfg.measure_from + Seconds::days(1)).min(scale.end());
            let report = Simulation::new(cfg, traces.clone())
                .expect("valid config")
                .run()
                .expect("simulation completes");
            results.push(report.kpi);
        }
        println!(
            "{:<7} {:>12.1}% {:>13.2}% {:>12.1}% {:>13.2}%",
            format!("day {}", day + 1),
            results[0].qos_pct(),
            results[0].idle_pct(),
            results[1].qos_pct(),
            results[1].idle_pct()
        );
    }
    println!();
    println!("paper bands: reactive QoS 60-68%, proactive QoS 80-90%;");
    println!("             reactive idle 5-12%, proactive idle 7-14%.");
}
