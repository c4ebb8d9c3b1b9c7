//! `prorp-trace` — query a JSONL trace from the command line.
//!
//! ```text
//! prorp-trace <trace.jsonl> summary [--json]
//! prorp-trace <trace.jsonl> timeline <db-id> [limit]
//! prorp-trace <trace.jsonl> slowest-stages [n]
//! prorp-trace <trace.jsonl> breaker [--json]
//! prorp-trace <trace.jsonl> qos-misses [limit]
//! prorp-trace <trace.jsonl> why <db-id> <t>
//! prorp-trace <trace.jsonl> time-travel <db-id> <t> [knob=value ...]
//! ```
//!
//! The input is the stream written by `prorp_obs::trace_jsonl` (the
//! `ObsReport::trace` of a run).  All output is a deterministic function
//! of the trace bytes, so CI runs the CLI against a golden trace.

use prorp_obs::span::{DecisionAction, SpanKind, TraceRecord};
use prorp_obs::{query, timetravel, Json};
use prorp_types::{DatabaseId, PolicyConfig, Seasonality, Seconds, Timestamp};
use std::process::ExitCode;

const USAGE: &str = "usage: prorp-trace <trace.jsonl> <command> [args]\n\
commands:\n\
  summary [--json]     record counts by kind and the covered time range\n\
  timeline <db> [n]    chronological records of one database (default all)\n\
  slowest-stages [n]   slowest successful workflow stages (default 10)\n\
  breaker [--json]     circuit-breaker open/close episodes\n\
  qos-misses [n]       unavailable logins with predictor attribution\n\
  why <db> <t>         the decision the engine took for the database at\n\
                       or before second t, with its recorded inputs\n\
                       (needs a trace recorded with explain enabled)\n\
  time-travel <db> <t> [knob=value ...]\n\
                       replay the database's history into an LSM store,\n\
                       snapshot it as of second t, and re-run Algorithm 4.\n\
                       knobs (over the Table 1 defaults): confidence=<0..1>,\n\
                       window=<s>, slide=<s>, history=<s>, horizon=<s>,\n\
                       logical-pause=<s>, seasonality=daily|weekly";

fn describe(kind: &SpanKind) -> String {
    match kind {
        SpanKind::Lifecycle { from, to } => format!("lifecycle {from} -> {to}"),
        SpanKind::Login { available: true } => "login served".into(),
        SpanKind::Login { available: false } => "login UNAVAILABLE".into(),
        SpanKind::Predict { outcome } => format!("predict {}", outcome.label()),
        SpanKind::Breaker { transition } => format!("breaker {}", transition.label()),
        SpanKind::WorkflowStage {
            stage,
            attempt,
            result,
        } => format!("stage {stage} attempt {attempt} {}", result.label()),
        SpanKind::Workflow { outcome } => format!("workflow {}", outcome.label()),
        SpanKind::ProactiveResume => "proactive resume scheduled".into(),
        SpanKind::Mitigation { escalated: false } => "mitigated stuck workflow".into(),
        SpanKind::Mitigation { escalated: true } => "mitigated stuck workflow (escalated)".into(),
        SpanKind::Checkpoint { bytes } => format!("checkpoint {bytes}B"),
        SpanKind::Recover { bytes } => format!("recover {bytes}B"),
        SpanKind::Decision { explain } => format!("decision {}", explain.action.label()),
    }
}

fn print_summary(records: &[TraceRecord], json: bool) {
    let s = query::summary(records);
    if json {
        let by_kind = s
            .by_kind
            .iter()
            .map(|(k, v)| (k.to_string(), Json::from(*v)))
            .collect();
        let opt_ts = |t: Option<Timestamp>| match t {
            Some(t) => Json::Int(t.as_secs()),
            None => Json::Null,
        };
        let v = Json::object(vec![
            ("records", Json::from(s.records as u64)),
            ("databases", Json::from(s.databases as u64)),
            ("start", opt_ts(s.start)),
            ("end", opt_ts(s.end)),
            ("by_kind", Json::Object(by_kind)),
        ]);
        println!("{}", v.render());
        return;
    }
    println!("records:   {}", s.records);
    println!("databases: {}", s.databases);
    match (s.start, s.end) {
        (Some(start), Some(end)) => println!("range:     {start} .. {end}"),
        _ => println!("range:     (empty trace)"),
    }
    for (kind, count) in &s.by_kind {
        println!("  {kind:<16} {count}");
    }
}

fn print_timeline(records: &[TraceRecord], db: DatabaseId, limit: usize) {
    let timeline = query::timeline(records, db);
    if timeline.is_empty() {
        println!("no records for {db}");
        return;
    }
    for r in timeline.iter().take(limit) {
        if r.start == r.end {
            println!("{}  {}", r.start, describe(&r.kind));
        } else {
            println!(
                "{}  {} ({}s)",
                r.start,
                describe(&r.kind),
                r.duration().as_secs()
            );
        }
    }
    if timeline.len() > limit {
        println!("... {} more records", timeline.len() - limit);
    }
}

fn print_slowest(records: &[TraceRecord], n: usize) {
    let stages = query::slowest_stages(records, n);
    if stages.is_empty() {
        println!("no completed workflow stages in trace");
        return;
    }
    for s in stages {
        println!(
            "{:>6}s  {:<14} {}  at {}",
            s.duration.as_secs(),
            s.stage.label(),
            s.db,
            s.start
        );
    }
}

fn print_breaker(records: &[TraceRecord], json: bool) {
    let episodes = query::breaker_episodes(records);
    if json {
        let rows = episodes
            .iter()
            .map(|e| {
                Json::object(vec![
                    ("db", Json::from(e.db.raw())),
                    ("opened", Json::Int(e.opened.as_secs())),
                    (
                        "closed",
                        match e.closed {
                            Some(t) => Json::Int(t.as_secs()),
                            None => Json::Null,
                        },
                    ),
                    ("fallbacks", Json::from(e.fallbacks)),
                ])
            })
            .collect();
        println!("{}", Json::Array(rows).render());
        return;
    }
    if episodes.is_empty() {
        println!("no breaker episodes in trace");
        return;
    }
    for e in episodes {
        match e.closed {
            Some(closed) => println!(
                "{}  opened {} closed {} ({} fallbacks)",
                e.db, e.opened, closed, e.fallbacks
            ),
            None => println!(
                "{}  opened {} STILL OPEN ({} fallbacks)",
                e.db, e.opened, e.fallbacks
            ),
        }
    }
}

fn print_qos_misses(records: &[TraceRecord], limit: usize) {
    let misses = query::qos_misses(records);
    if misses.is_empty() {
        println!("no QoS misses in trace");
        return;
    }
    for m in misses.iter().take(limit) {
        match m.last_predict {
            Some(at) => println!(
                "{}  {} cause={} (last predict {})",
                m.at,
                m.db,
                m.cause.label(),
                at
            ),
            None => println!("{}  {} cause={}", m.at, m.db, m.cause.label()),
        }
    }
    if misses.len() > limit {
        println!("... {} more misses", misses.len() - limit);
    }
}

fn parse_policy(overrides: &[String]) -> Result<PolicyConfig, String> {
    let mut b = PolicyConfig::builder();
    for kv in overrides {
        let Some((key, value)) = kv.split_once('=') else {
            return Err(format!("bad override {kv:?}, expected knob=value"));
        };
        let secs = |v: &str| -> Result<Seconds, String> {
            v.parse::<i64>()
                .map(Seconds)
                .map_err(|_| format!("bad value for {key}: {v:?} (want seconds)"))
        };
        b = match key {
            "confidence" => b.confidence(
                value
                    .parse()
                    .map_err(|_| format!("bad confidence {value:?}"))?,
            ),
            "window" => b.window(secs(value)?),
            "slide" => b.slide(secs(value)?),
            "history" => b.history_len(secs(value)?),
            "horizon" => b.horizon(secs(value)?),
            "logical-pause" => b.logical_pause(secs(value)?),
            "seasonality" => b.seasonality(match value {
                "daily" => Seasonality::Daily,
                "weekly" => Seasonality::Weekly,
                other => return Err(format!("bad seasonality {other:?} (daily|weekly)")),
            }),
            other => return Err(format!("unknown knob {other:?}")),
        };
    }
    b.build().map_err(|e| e.to_string())
}

fn print_time_travel(report: &timetravel::TimeTravelReport) {
    println!("database:        {}", report.db);
    println!("as of:           {}", report.as_of);
    println!("logins replayed: {}", report.logins_replayed);
    println!(
        "snapshot:        {} tuples at seqno {}",
        report.snapshot_len, report.snapshot_seqno
    );
    match &report.prediction {
        Some(p) => println!("prediction:      {p}"),
        None => println!("prediction:      none (no pattern clears the confidence bar)"),
    }
    match report.recorded {
        Some((at, outcome)) => {
            println!("recorded run:    {} ({})", at, outcome.label());
            if report.reproduces_recorded_run() {
                println!("replay instant matches the recorded run: this is the forecast the engine acted on");
            }
        }
        None => println!("recorded run:    none at or before the replay instant"),
    }
}

fn print_why(
    records: &[TraceRecord],
    db: DatabaseId,
    at: Timestamp,
    config: PolicyConfig,
) -> Result<(), String> {
    let Some(decision) = query::why(records, db, at) else {
        return Err(format!(
            "no decision recorded for {db} at or before {at} \
             (was the trace recorded with explain enabled?)"
        ));
    };
    let e = decision.explain;
    println!("database:   {db}");
    println!("decided at: {}", decision.at);
    println!("action:     {}", e.action.label());
    match e.predicted {
        Some(p) => println!("predicted:  next login at {p}"),
        None => println!("predicted:  nothing (no pattern cleared the confidence bar)"),
    }
    println!(
        "inputs:     history={} logins, confidence {}/{} windows, breaker {}",
        e.history_len,
        e.confidence_hits,
        e.confidence_total,
        if e.breaker_open { "OPEN" } else { "closed" },
    );
    match e.action {
        DecisionAction::PhysicalPause => {
            println!(
                "meaning:    idle ran out with no imminent predicted login; resources released"
            )
        }
        DecisionAction::DeferPause => {
            println!(
                "meaning:    a predicted login is imminent; pause deferred to avoid a QoS miss"
            )
        }
        DecisionAction::ProactiveResume => {
            println!("meaning:    resources pre-warmed ahead of the predicted login")
        }
    }
    // Re-derive the forecast from the trace itself: freeze the history at
    // the decision instant and re-run Algorithm 4 on it.
    let replay =
        timetravel::replay_as_of(records, db, decision.at, config).map_err(|e| e.to_string())?;
    let replayed = replay.prediction.as_ref().map(|p| p.start);
    match (e.predicted, replayed) {
        (Some(recorded), Some(rep)) if recorded == rep => {
            println!(
                "replay:     time-travel replay at {} reproduces the recorded forecast ({rep})",
                decision.at
            );
        }
        (None, None) => {
            println!(
                "replay:     time-travel replay at {} agrees: no prediction",
                decision.at
            );
        }
        (recorded, _) => {
            println!(
                "replay:     time-travel replay differs (recorded {}, replayed {}) — \
                 check the policy knobs match the run",
                match recorded {
                    Some(t) => t.to_string(),
                    None => "none".into(),
                },
                match replayed {
                    Some(t) => t.to_string(),
                    None => "none".into(),
                }
            );
        }
    }
    Ok(())
}

fn parse_count(arg: Option<&String>, default: usize) -> Result<usize, String> {
    match arg {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad count {s:?}")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let [path, command, rest @ ..] = args else {
        return Err(USAGE.into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let records = prorp_obs::parse_trace_jsonl(&text).map_err(|e| e.to_string())?;
    let json = rest.iter().any(|a| a == "--json");
    match command.as_str() {
        "summary" => print_summary(&records, json),
        "timeline" => {
            let Some(db) = rest.first() else {
                return Err("timeline needs a numeric database id".into());
            };
            let db: u64 = db
                .trim_start_matches("db-")
                .parse()
                .map_err(|_| format!("bad database id {db:?}"))?;
            let limit = parse_count(rest.get(1), usize::MAX)?;
            print_timeline(&records, DatabaseId(db), limit);
        }
        "slowest-stages" => print_slowest(&records, parse_count(rest.first(), 10)?),
        "breaker" => print_breaker(&records, json),
        "qos-misses" => print_qos_misses(&records, parse_count(rest.first(), usize::MAX)?),
        "why" => {
            let [db, t, overrides @ ..] = rest else {
                return Err("why needs a database id and a timestamp".into());
            };
            let db: u64 = db
                .trim_start_matches("db-")
                .parse()
                .map_err(|_| format!("bad database id {db:?}"))?;
            let at: i64 = t.parse().map_err(|_| format!("bad timestamp {t:?}"))?;
            let config = parse_policy(overrides)?;
            print_why(&records, DatabaseId(db), Timestamp(at), config)?;
        }
        "time-travel" => {
            let [db, t, overrides @ ..] = rest else {
                return Err("time-travel needs a database id and a timestamp".into());
            };
            let db: u64 = db
                .trim_start_matches("db-")
                .parse()
                .map_err(|_| format!("bad database id {db:?}"))?;
            let at: i64 = t.parse().map_err(|_| format!("bad timestamp {t:?}"))?;
            let config = parse_policy(overrides)?;
            let report = timetravel::replay_as_of(&records, DatabaseId(db), Timestamp(at), config)
                .map_err(|e| e.to_string())?;
            print_time_travel(&report);
        }
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
