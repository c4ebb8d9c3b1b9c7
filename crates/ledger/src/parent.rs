//! The whole ledger: one child process per workload and tracing mode,
//! their results merged into one `run.json` with the metadata that says
//! which host, commit and mode produced the numbers.

use crate::spec::{self, Gate, Workload};
use prorp_server::json::{self, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

/// Numeric value of a JSON number.
pub fn number(v: &Json) -> Option<f64> {
    match v {
        Json::Int(i) => Some(*i as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

/// `metrics.<name>.value` of a workload entry.
pub fn metric_value(entry: &Json, name: &str) -> Option<f64> {
    entry
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(number)
}

/// First line of a command's standard output, or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `YYYY-MM-DDThh:mm:ssZ` for seconds since the epoch (proleptic
/// Gregorian calendar, days-to-civil after Hinnant).
fn utc_iso(epoch_s: u64) -> String {
    let days = (epoch_s / 86_400) as i64;
    let secs = epoch_s % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        secs / 3_600,
        secs % 3_600 / 60,
        secs % 60
    )
}

/// "No number without the host, commit and mode that produced it."
fn metadata(seed: u64, seconds: u64, check: bool) -> Json {
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::object(vec![
        ("commit", Json::Str(probe("git", &["rev-parse", "HEAD"]))),
        ("nproc", Json::Int(nproc as i64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(probe("rustc", &["--version"]))),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        (
            "mode",
            Json::Str(if check { "check" } else { "full" }.into()),
        ),
        ("seed", Json::Int(seed as i64)),
        ("seconds_per_child", Json::Int(seconds as i64)),
        ("min_repeats", Json::Int(spec::MIN_REPEATS as i64)),
        (
            "setups_per_child",
            Json::Int(if check { 1 } else { spec::SETUPS as i64 }),
        ),
        ("utc", Json::Str(utc_iso(now))),
    ])
}

/// Run one child and read back its detail record.
fn run_child(
    exe: &Path,
    dir: &Path,
    w: &Workload,
    traced: bool,
    seed: u64,
    seconds: u64,
    check: bool,
) -> Result<Json, String> {
    let detail = dir.join(format!("detail_{}_{}.json", w.name, u8::from(traced)));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(&detail);
    if traced {
        cmd.arg("--trace-out")
            .arg(dir.join(format!("trace_{}.jsonl", w.name)));
    }
    if check {
        cmd.arg("--check");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let text = std::fs::read_to_string(&detail)
        .map_err(|e| format!("cannot read {}: {e}", detail.display()))?;
    let _ = std::fs::remove_file(&detail);
    json::parse(&text)
}

fn field(entry: &Json, key: &str) -> Json {
    entry.get(key).cloned().unwrap_or(Json::Null)
}

/// One workload's entry in `run.json`: the untraced child's figures
/// over the traced child's (each metric says which child it came from).
fn merge(w: &Workload, untraced: &Json, traced: &Json) -> Json {
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for (source, detail) in [("untraced", untraced), ("traced", traced)] {
        let Some(Json::Object(pairs)) = detail.get("metrics") else {
            continue;
        };
        for (name, value) in pairs {
            if metrics.iter().any(|(n, _)| n == name) {
                continue;
            }
            let Json::Object(mut fields) = value.clone() else {
                continue;
            };
            fields.push(("source".into(), Json::Str(source.into())));
            metrics.push((name.clone(), Json::Object(fields)));
        }
    }
    // Table order, so every file reads the same way.
    metrics.sort_by_key(|(n, _)| spec::METRICS.iter().position(|m| m.name == n));

    let mut notes: Vec<Json> = Vec::new();
    for detail in [untraced, traced] {
        for note in detail.get("notes").and_then(Json::as_array).unwrap_or(&[]) {
            if !notes.contains(note) {
                notes.push(note.clone());
            }
        }
    }
    let same_world = untraced.get("kpi_fingerprint") == traced.get("kpi_fingerprint");
    if !same_world {
        notes.push(Json::Str(
            "FAILED: traced and untraced children simulated different worlds".into(),
        ));
    }
    let correct = same_world
        && [untraced, traced]
            .iter()
            .all(|d| d.get("correct") == Some(&Json::Bool(true)));
    Json::object(vec![
        ("name", Json::Str(w.name.into())),
        ("why", Json::Str(w.why.into())),
        ("seed", field(untraced, "seed")),
        ("dbs", field(untraced, "dbs")),
        ("days", field(untraced, "days")),
        ("activity_events", field(untraced, "activity_events")),
        ("kpi_fingerprint", field(untraced, "kpi_fingerprint")),
        ("correct", Json::Bool(correct)),
        ("attempted", field(untraced, "attempted")),
        ("failed", field(untraced, "failed")),
        ("metrics", Json::Object(metrics)),
        ("notes", Json::Array(notes)),
    ])
}

fn print_entry(entry: &Json) {
    let text = |k: &str| entry.get(k).map(Json::render).unwrap_or_default();
    println!(
        "\n== {} — {} dbs x {} d, {} activity events, seed {}, fingerprint {} ==",
        entry.get("name").and_then(Json::as_str).unwrap_or("?"),
        text("dbs"),
        text("days"),
        text("activity_events"),
        text("seed"),
        entry
            .get("kpi_fingerprint")
            .and_then(Json::as_str)
            .unwrap_or("?"),
    );
    println!(
        "   correct {}, attempted {}, failed {}",
        text("correct"),
        text("attempted"),
        text("failed")
    );
    let Some(Json::Object(metrics)) = entry.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let num = |k: &str| m.get(k).and_then(number).unwrap_or(0.0);
        let gate = match spec::metric(name).map(|m| m.gate) {
            Some(Gate::EndToEnd(b)) => format!("  end-to-end, bound {:.0}%", b * 100.0),
            Some(Gate::Compare(b)) => format!("  held by --compare, bound {:.0}%", b * 100.0),
            _ => String::new(),
        };
        let spread = if num("n") > 1.0 {
            format!("  [q1 {:.6} q3 {:.6} n={}]", num("q1"), num("q3"), num("n"))
        } else {
            String::new()
        };
        println!(
            "   {name:<34} {:>16.6} {:<9}{spread}{gate}",
            num("value"),
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
        );
    }
    if let Some(notes) = entry.get("notes").and_then(Json::as_array) {
        for note in notes {
            println!("   note: {}", note.as_str().unwrap_or(""));
        }
    }
}

/// The predictions about how layers and workloads interact that one
/// commit can check.  They are printed, and recorded in `run.json`; a
/// prediction that does not hold is a finding, not a failed run.
fn interactions(entries: &[Json]) -> Vec<String> {
    let find = |name: &str| {
        entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
    };
    let verdict = |holds: bool| if holds { "HOLDS" } else { "DOES NOT HOLD" };
    let mut lines = Vec::new();
    if let Some(reactive) = find("des_reactive") {
        let absent = [
            "storage.window_scan_ns_per_op",
            "forecast.predict_ns_per_call",
        ]
        .iter()
        .all(|m| metric_value(reactive, m).is_none());
        let predictions = metric_value(reactive, "core.predictions").unwrap_or(0.0);
        lines.push(format!(
            "{}: the predictor and the Algorithm 4 window scan are absent on des_reactive \
             ({predictions} predictions in the run; the activity tracker still writes history, \
             so storage.insert/trim are live there)",
            verdict(absent && predictions == 0.0)
        ));
    }
    if let (Some(proactive), Some(full)) = (find("des_proactive"), find("des_sharded_full")) {
        lines.push(format!(
            "{}: des_sharded_full simulates the same world as des_proactive \
             (shard, backend and obs invariance)",
            verdict(proactive.get("kpi_fingerprint") == full.get("kpi_fingerprint"))
        ));
    }
    if let (Some(single), Some(bulk)) = (find("serve_single"), find("serve_bulk")) {
        if let (Some(a), Some(b)) = (
            metric_value(single, "server.http_share"),
            metric_value(bulk, "server.http_share"),
        ) {
            lines.push(format!(
                "{}: server.http_share is higher on serve_single ({a:.3}) than on serve_bulk ({b:.3})",
                verdict(a > b)
            ));
        }
        if let (Some(put), Some(dbs), Some(commit)) = (
            metric_value(bulk, "server.publish_ns_per_db"),
            bulk.get("dbs").and_then(number),
            metric_value(bulk, "commit_p50_us"),
        ) {
            let publish_us = put * dbs / 1e3;
            lines.push(format!(
                "{}: server.publish_ns_per_db x dbs ({publish_us:.0} us) is the larger part of \
                 commit_p50_us on serve_bulk ({commit:.0} us): share {:.2}",
                verdict(publish_us > commit / 2.0),
                publish_us / commit
            ));
        }
    }
    lines
}

/// Run every (selected) workload and write `out`.
pub fn run(seed: u64, seconds: u64, check: bool, only: Option<&str>, out: PathBuf) -> ExitCode {
    let dir = out.parent().map(Path::to_path_buf).unwrap_or_default();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("ledger: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ledger: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let meta = metadata(seed, seconds, check);
    println!("ledger: {}", meta.render());

    let mut entries = Vec::new();
    let mut ok = true;
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| only.map_or(true, |o| o == w.name))
    {
        let children: Result<Vec<Json>, String> = [false, true]
            .iter()
            .map(|&traced| run_child(&exe, &dir, w, traced, seed, seconds, check))
            .collect();
        match children {
            Ok(details) => {
                let entry = merge(w, &details[0], &details[1]);
                ok &= entry.get("correct") == Some(&Json::Bool(true));
                print_entry(&entry);
                entries.push(entry);
            }
            Err(e) => {
                eprintln!("ledger: {}: {e}", w.name);
                ok = false;
            }
        }
    }

    let findings = interactions(&entries);
    println!("\n== interactions ==");
    for line in &findings {
        println!("   {line}");
    }
    let run = Json::object(vec![
        ("meta", meta),
        ("workloads", Json::Array(entries)),
        (
            "interactions",
            Json::Array(findings.into_iter().map(Json::Str).collect()),
        ),
    ]);
    if let Err(e) = std::fs::write(&out, run.render()) {
        eprintln!("ledger: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "\nledger: wrote {} ({})",
        out.display(),
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_formatting_knows_leap_years_and_the_epoch() {
        assert_eq!(utc_iso(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_iso(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(utc_iso(1_790_553_599), "2026-09-27T23:59:59Z");
    }

    #[test]
    fn merge_prefers_untraced_figures_and_checks_the_fingerprint() {
        let w = spec::workload("des_reactive").unwrap();
        let detail = |fp: &str, v: i64, extra: &str| {
            json::parse(&format!(
                r#"{{"seed":1,"dbs":2,"days":3,"activity_events":4,"correct":true,
                    "attempted":5,"failed":0,"kpi_fingerprint":"{fp}","notes":[],
                    "metrics":{{"failed_frac":{{"value":{v},"unit":"frac"}},
                               "{extra}":{{"value":9,"unit":"s"}}}}}}"#
            ))
            .unwrap()
        };
        let entry = merge(
            w,
            &detail("aa", 1, "setup_s"),
            &detail("aa", 2, "sim.cold_run_s"),
        );
        assert_eq!(entry.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(metric_value(&entry, "failed_frac"), Some(1.0));
        assert_eq!(metric_value(&entry, "sim.cold_run_s"), Some(9.0));
        let Some(Json::Object(metrics)) = entry.get("metrics") else {
            panic!()
        };
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["setup_s", "failed_frac", "sim.cold_run_s"]);

        let split = merge(w, &detail("aa", 1, "setup_s"), &detail("bb", 1, "setup_s"));
        assert_eq!(split.get("correct"), Some(&Json::Bool(false)));
    }
}
