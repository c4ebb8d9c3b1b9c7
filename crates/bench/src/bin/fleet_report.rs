//! Print the synthetic fleet's composition for each region — the "what
//! did we actually run on" companion to every experiment (§9.1 describes
//! the paper's equivalent: "hundreds of thousands of Azure SQL databases
//! are currently deployed in these four regions").
//!
//! Pass `--json <path>` to additionally write the composition as a
//! machine-readable JSON document (used by `scripts/check.sh` to emit
//! `results/BENCH_fleet.json`).

use prorp_bench::{json_path_from_args, write_json, ExperimentScale, Json};
use prorp_types::Seconds;
use prorp_workload::{FleetSummary, RegionName};

fn region_json(summary: &FleetSummary) -> Json {
    let archetypes: Vec<(String, Json)> = summary
        .archetypes
        .iter()
        .map(|(label, a)| {
            (
                label.clone(),
                Json::object(vec![
                    ("databases", Json::from(a.databases as u64)),
                    ("sessions", Json::from(a.sessions as u64)),
                    ("sessions_per_db_day", Json::Float(a.sessions_per_db_day)),
                    ("active_fraction", Json::Float(a.active_fraction)),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("databases", Json::from(summary.databases as u64)),
        ("logins_per_db_day", Json::Float(summary.logins_per_db_day)),
        (
            "short_idle_fraction",
            Json::Float(summary.short_idle_fraction),
        ),
        (
            "short_idle_duration_share",
            Json::Float(summary.short_idle_duration_share),
        ),
        ("archetypes", Json::Object(archetypes)),
    ])
}

fn main() {
    let scale = ExperimentScale::from_env();
    let json_path = json_path_from_args();
    let span = Seconds::days(scale.days);
    println!(
        "Synthetic fleet composition ({} databases per region, {} days, seed {})",
        scale.fleet, scale.days, scale.seed
    );
    let mut regions: Vec<(String, Json)> = Vec::new();
    for region in RegionName::all() {
        let traces = scale.fleet_for(region);
        let summary = FleetSummary::from_traces(&traces, span);
        println!();
        println!("═══ {region} ═══");
        print!("{summary}");
        regions.push((region.to_string(), region_json(&summary)));
    }
    if let Some(path) = json_path {
        let doc = Json::object(vec![
            ("fleet", Json::from(scale.fleet as u64)),
            ("days", Json::Int(scale.days)),
            ("seed", Json::from(scale.seed)),
            ("regions", Json::Object(regions)),
        ]);
        write_json(&path, &doc);
    }
}
