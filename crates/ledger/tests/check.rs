//! Drives the real `ledger` binary in `--check` mode — all five
//! workloads at tiny sizes — and holds what it emits against
//! `BENCHMARK.json`, the contract the benchmark driver reads.

use prorp_server::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const LEDGER: &str = env!("CARGO_BIN_EXE_ledger");

fn ledger(args: &[&str]) -> Output {
    Command::new(LEDGER)
        .args(args)
        .output()
        .expect("the ledger binary runs")
}

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).expect("valid JSON")
}

fn names(bench: &Json, key: &str) -> Vec<String> {
    bench
        .get(key)
        .and_then(Json::as_array)
        .expect(key)
        .iter()
        .map(|row| {
            row.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

fn keys(object: &Json) -> Vec<String> {
    match object {
        Json::Object(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn out_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

#[test]
fn check_mode_runs_every_workload_and_matches_the_contract() {
    let bench = benchmark();
    let declared_workloads = names(&bench, "workloads");
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");
    assert_eq!(declared_workloads.len(), 5);
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    assert!(end_to_end.iter().chain(&per_layer).all(|n| well_formed(n)));

    let dir = out_dir("check");
    let out = dir.join("run.json");
    let run = ledger(&["--check", "--seed", "7", "--out", out.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "ledger --check failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let report = parse(&std::fs::read_to_string(&out).unwrap()).expect("run.json parses");

    // No number without the host, commit and mode that produced it.
    let meta = report.get("meta").expect("meta");
    for key in [
        "commit",
        "nproc",
        "cpu_model",
        "kernel",
        "rustc",
        "profile",
        "mode",
        "seed",
        "utc",
    ] {
        assert!(meta.get(key).is_some(), "meta.{key} missing");
    }
    assert_eq!(meta.get("mode").and_then(Json::as_str), Some("check"));
    assert_eq!(meta.get("seed").and_then(Json::as_int), Some(7));

    let workloads = report.get("workloads").and_then(Json::as_array).unwrap();
    let ran: Vec<String> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    assert_eq!(ran, declared_workloads);
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).unwrap();
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(w.get("failed").and_then(Json::as_int), Some(0), "{name}");
        let fingerprint = w.get("kpi_fingerprint").and_then(Json::as_str).unwrap();
        assert_eq!(fingerprint.len(), 16, "{name}");
        for key in ["dbs", "days", "activity_events", "seed"] {
            assert!(w.get(key).and_then(Json::as_int).is_some(), "{name}.{key}");
        }
        // Everything reported is declared, with the declared unit ...
        let metrics = w.get("metrics").expect("metrics");
        for reported in keys(metrics) {
            assert!(
                end_to_end.contains(&reported) || per_layer.contains(&reported),
                "{name} reports undeclared metric {reported}"
            );
            assert!(stdout.contains(&reported), "{reported} is not printed");
        }
        // ... and every end-to-end metric is reported by every workload
        // and never reads zero.
        for metric in &end_to_end {
            let value = metrics.get(metric).and_then(|m| m.get("value"));
            match value {
                Some(Json::Float(v)) => assert!(*v > 0.0, "{name}.{metric} = {v}"),
                Some(Json::Int(v)) => assert!(*v > 0, "{name}.{metric} = {v}"),
                other => panic!("{name}.{metric}: {other:?}"),
            }
        }
        // The traced child left its spans behind.
        let trace = std::fs::read_to_string(dir.join(format!("trace_{name}.jsonl"))).unwrap();
        assert!(trace.lines().count() > 10, "{name}: trace too short");
        for line in trace.lines().take(50) {
            let span = parse(line).expect("span line parses");
            assert_eq!(
                keys(&span),
                ["name", "start_ns", "end_ns", "self_ns", "parent", "workload"]
            );
            assert_eq!(span.get("workload").and_then(Json::as_str), Some(name));
        }
    }
    // The invariance gate: same fleet, same simulated world.
    let fingerprint_of = |name: &str| {
        workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|w| w.get("kpi_fingerprint"))
            .cloned()
    };
    assert_eq!(
        fingerprint_of("des_proactive"),
        fingerprint_of("des_sharded_full")
    );
    assert_ne!(
        fingerprint_of("des_proactive"),
        fingerprint_of("des_reactive")
    );

    // A run compares clean against itself ...
    let same = ledger(&["--compare", out.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    // ... and a changed fingerprint is shouted about.
    let doctored = dir.join("other_world.json");
    let text = std::fs::read_to_string(&out).unwrap();
    let fp = fingerprint_of("des_reactive").unwrap().render();
    std::fs::write(&doctored, text.replace(&fp, "\"0000000000000000\"")).unwrap();
    let differs = ledger(&[
        "--compare",
        out.to_str().unwrap(),
        doctored.to_str().unwrap(),
    ]);
    assert!(!differs.status.success());
    assert!(String::from_utf8_lossy(&differs.stdout).contains("SIMULATED STATISTICS CHANGED"));
}

#[test]
fn a_child_prints_the_contract_line_last() {
    let bench = benchmark();
    let units = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|r| {
                let field = |k: &str| r.get(k).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    for workload in ["des_reactive", "serve_bulk"] {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = ledger(&[
                "--workload",
                workload,
                "--seed",
                "11",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--check",
            ]);
            assert!(run.status.success(), "{workload} --trace {trace}");
            let stdout = String::from_utf8_lossy(&run.stdout);
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last).expect("the last line is JSON");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert!(result.get("attempted").and_then(Json::as_int).unwrap() >= 1);
            assert_eq!(result.get("failed").and_then(Json::as_int), Some(0));
            let metrics = result.get("metrics").unwrap();
            let reported: Vec<(String, String)> = keys(metrics)
                .into_iter()
                .map(|name| {
                    let m = metrics.get(&name).unwrap();
                    assert_eq!(keys(m), ["value", "unit"], "{name}");
                    let unit = m.get("unit").and_then(Json::as_str).unwrap().to_owned();
                    (name, unit)
                })
                .collect();
            assert_eq!(reported, units(key), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--trace", "2"],
        &["--frobnicate"],
        &["--seed"],
    ] {
        let run = ledger(args);
        assert_eq!(run.status.code(), Some(2), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
