//! `ledger --compare a.json b.json`: hold every end-to-end metric of
//! every workload to its own bound, and shout when the simulated world
//! changed between the two runs.

use crate::parent::{metric_value, number};
use crate::spec::{self, Better, Gate};
use prorp_server::json::{self, Json};
use std::path::Path;
use std::process::ExitCode;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(run: &Json) -> &[Json] {
    run.get("workloads").and_then(Json::as_array).unwrap_or(&[])
}

/// How much worse `b` is than `a`, as a share of `a` (negative when it
/// is better).  A zero baseline compares absolutely.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        delta
    } else {
        delta / a.abs()
    }
}

/// Compare two runs; returns the findings that make the comparison fail.
pub fn compare(a: &Json, b: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    println!(
        "{:<18} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<18} only in the first file");
            continue;
        };
        // Fingerprints of different inputs differ by design.
        let same_inputs = ["seed", "dbs", "days"]
            .iter()
            .all(|k| wa.get(k).and_then(number) == wb.get(k).and_then(number));
        if same_inputs && wa.get("kpi_fingerprint") != wb.get("kpi_fingerprint") {
            failures.push(format!(
                "{name}: SIMULATED STATISTICS CHANGED (kpi_fingerprint {} -> {}): \
                 the two runs did not simulate the same world, so their speeds do not compare",
                wa.get("kpi_fingerprint")
                    .map(Json::render)
                    .unwrap_or_default(),
                wb.get("kpi_fingerprint")
                    .map(Json::render)
                    .unwrap_or_default(),
            ));
        }
        for m in spec::METRICS {
            let (Gate::EndToEnd(bound) | Gate::Compare(bound)) = m.gate else {
                continue;
            };
            let (Some(va), Some(vb)) = (metric_value(wa, m.name), metric_value(wb, m.name)) else {
                continue;
            };
            let worse = worsening(va, vb, m.better);
            let regressed = worse > bound;
            println!(
                "{name:<18} {:<26} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}%{}",
                m.name,
                worse * 100.0,
                bound * 100.0,
                if regressed { "  REGRESSED" } else { "" }
            );
            if regressed {
                failures.push(format!(
                    "{name}: {} worse by {:.2}% (bound {:.0}%)",
                    m.name,
                    worse * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    failures
}

/// The `--compare` command.
pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    for (label, run) in [("a", &a), ("b", &b)] {
        println!(
            "{label}: {}",
            run.get("meta").map(Json::render).unwrap_or_default()
        );
    }
    let failures = compare(&a, &b);
    for f in &failures {
        println!("FAIL {f}");
    }
    if failures.is_empty() {
        println!("every end-to-end metric is within its bound");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_json(fp: &str, rate: f64, setup: f64, failed_frac: f64) -> Json {
        json::parse(&format!(
            r#"{{"meta":{{}},"workloads":[{{"name":"des_reactive","seed":1,"dbs":2,"days":3,
                "kpi_fingerprint":"{fp}","metrics":{{
                  "activity_events_per_ref_s":{{"value":{rate}}},
                  "activity_events_per_s":{{"value":1}},
                  "setup_s":{{"value":{setup}}},
                  "failed_frac":{{"value":{failed_frac}}},
                  "sim.loop_events":{{"value":5}}}}}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(100.0, 89.0, Better::Higher) - 0.11).abs() < 1e-12);
        assert!((worsening(100.0, 111.0, Better::Higher) + 0.11).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(0.0, 0.01, Better::Lower), 0.01);
    }

    #[test]
    fn within_bound_passes_and_beyond_bound_fails() {
        let base = run_json("aa", 1000.0, 1.0, 0.0);
        assert!(compare(&base, &run_json("aa", 755.0, 1.24, 0.0)).is_empty());
        // Better never fails, however large the change.
        assert!(compare(&base, &run_json("aa", 5000.0, 0.1, 0.0)).is_empty());
        let slow = compare(&base, &run_json("aa", 740.0, 1.0, 0.0));
        assert_eq!(slow.len(), 1);
        assert!(slow[0].contains("activity_events_per_ref_s"), "{slow:?}");
        let setup = compare(&base, &run_json("aa", 1000.0, 1.26, 0.0));
        assert!(setup[0].contains("setup_s"), "{setup:?}");
    }

    #[test]
    fn any_new_failure_and_any_fingerprint_change_fail() {
        let base = run_json("aa", 1000.0, 1.0, 0.0);
        let failing = compare(&base, &run_json("aa", 1000.0, 1.0, 0.001));
        assert!(failing[0].contains("failed_frac"), "{failing:?}");
        let other_world = compare(&base, &run_json("bb", 1000.0, 1.0, 0.0));
        assert!(other_world[0].contains("SIMULATED STATISTICS CHANGED"));
    }
}
