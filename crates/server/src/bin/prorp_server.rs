//! `prorp-server` — the control plane as a process.
//!
//! ```text
//! prorp-server serve  --dbs N --end SECS [--addr A] [--policy P] [--shards K] [--virtual]
//! prorp-server replay --trace FILE --end SECS [--policy P] [--shards K] [--step SECS]
//! prorp-server golden --trace FILE --end SECS [--policy P] [--shards K] [--step SECS]
//! ```
//!
//! * `serve` boots the HTTP API (wall clock by default, `--virtual` for
//!   advance-on-request) over databases `0..N` and runs until killed.
//! * `replay` boots a virtual-clock server on a loopback port, replays a
//!   recorded JSONL event stream through the real HTTP API in `--step`
//!   windows, finishes the run, and prints the canonical decision
//!   rendering of the live report.
//! * `golden` does everything `replay` does **and** runs the discrete-
//!   event simulator over the same stream, asserts the two reports
//!   render identically, and prints the rendering — the `scripts/
//!   check.sh` gate diffs that output against the checked-in golden.
//!
//! Event-stream lines are `{"db":N,"at":T,"kind":"login"|"logout"}`.

use prorp_server::json::{Json, Reader};
use prorp_server::{http, ApiServer, InMemoryBackend, LiveEvent, LiveEventKind, ServerConfig};
use prorp_sim::{SimConfig, SimPolicy, SimReport, Simulation};
use prorp_types::{ActivityEvent, DatabaseId, PolicyConfig, Timestamp};
use prorp_workload::Trace;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("prorp-server: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    addr: String,
    dbs: u64,
    end: i64,
    policy: SimPolicy,
    shards: usize,
    step: i64,
    virtual_clock: bool,
    trace: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        addr: "127.0.0.1:0".into(),
        dbs: 0,
        end: 0,
        policy: SimPolicy::Reactive,
        shards: 1,
        step: 3600,
        virtual_clock: false,
        trace: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag {
            "--addr" => o.addr = value("--addr")?,
            "--dbs" => o.dbs = value("--dbs")?.parse().map_err(|_| "bad --dbs")?,
            "--end" => o.end = value("--end")?.parse().map_err(|_| "bad --end")?,
            "--shards" => o.shards = value("--shards")?.parse().map_err(|_| "bad --shards")?,
            "--step" => o.step = value("--step")?.parse().map_err(|_| "bad --step")?,
            "--trace" => o.trace = Some(value("--trace")?),
            "--virtual" => o.virtual_clock = true,
            "--policy" => {
                o.policy = match value("--policy")?.as_str() {
                    "reactive" => SimPolicy::Reactive,
                    "proactive" => SimPolicy::Proactive(PolicyConfig::default()),
                    other => return Err(format!("unknown policy {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if o.end <= 0 {
        return Err("--end must be a positive number of seconds".into());
    }
    if o.step <= 0 {
        return Err("--step must be positive".into());
    }
    Ok(o)
}

/// The config every command runs.  Telemetry keeps the default counts,
/// not a log: `/v1/finish` and the golden rendering read the summary,
/// and a long-running `serve` would grow a log for the life of the
/// process.
fn config(o: &Options) -> Result<SimConfig, String> {
    SimConfig::builder(
        o.policy.clone(),
        Timestamp(0),
        Timestamp(o.end),
        Timestamp(0),
    )
    .shards(o.shards)
    .build()
    .map_err(|e| e.to_string())
}

fn run(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("usage: prorp-server <serve|replay|golden> [flags]".into());
    };
    let o = parse_options(rest)?;
    match cmd.as_str() {
        "serve" => serve(&o),
        "replay" => {
            let (live, _stream) = replay_over_http(&o)?;
            print!("{}", render(&live));
            Ok(())
        }
        "golden" => golden(&o),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// `serve`: run until killed (ctrl-C); wall clock unless `--virtual`.
fn serve(o: &Options) -> Result<(), String> {
    if o.dbs == 0 {
        return Err("serve needs --dbs N (registers databases 0..N)".into());
    }
    let cfg = config(o)?;
    let ids: Vec<DatabaseId> = (0..o.dbs).map(DatabaseId).collect();
    let mode = if o.virtual_clock {
        ServerConfig::VirtualClock
    } else {
        ServerConfig::WallClock
    };
    let server = ApiServer::start(&o.addr, &cfg, &ids, Arc::new(InMemoryBackend::new()), mode)
        .map_err(|e| e.to_string())?;
    println!("listening on {}", server.addr());
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}

/// Load a JSONL event stream, each line read by [`LiveEvent::read`];
/// malformed lines are hard errors.
fn load_stream(path: &str) -> Result<Vec<LiveEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at_line = |e: &str| format!("{path}:{}: {e}", lineno + 1);
        let mut r = Reader::new(line);
        let event = LiveEvent::read(&mut r).map_err(|e| at_line(&e))?;
        r.end().map_err(|e| at_line(&e))?;
        events.push(event.map_err(at_line)?);
    }
    if events.is_empty() {
        return Err(format!("{path}: empty event stream"));
    }
    Ok(events)
}

/// Rebuild DES traces from the stream (events pair back into sessions;
/// registration order is first-appearance order, which is also the
/// live driver's registration order).
fn stream_to_traces(stream: &[LiveEvent]) -> Result<Vec<Trace>, String> {
    let mut order: Vec<DatabaseId> = Vec::new();
    let mut per_db: BTreeMap<u64, Vec<ActivityEvent>> = BTreeMap::new();
    for ev in stream {
        if !per_db.contains_key(&ev.db.raw()) {
            order.push(ev.db);
        }
        let activity = match ev.kind {
            LiveEventKind::Login => ActivityEvent::start(ev.at),
            LiveEventKind::Logout => ActivityEvent::end(ev.at),
        };
        per_db.entry(ev.db.raw()).or_default().push(activity);
    }
    let mut traces = Vec::with_capacity(order.len());
    for id in order {
        let mut events = per_db.remove(&id.raw()).expect("populated above");
        events.sort_by_key(|e| (e.ts, matches!(e.kind, prorp_types::EventKind::End)));
        let (sessions, open) =
            prorp_types::event::pair_events(&events).map_err(|e| format!("db {id}: {e}"))?;
        if let Some(at) = open {
            return Err(format!("db {id}: login at {at} never logged out"));
        }
        traces.push(Trace::new(id, "recorded", sessions).map_err(|e| e.to_string())?);
    }
    Ok(traces)
}

/// One blocking HTTP request against the in-process server: `(status,
/// body)`.
fn http_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let (status, _, body) = http::request(addr, method, path, body).map_err(|e| e.to_string())?;
    Ok((status, body))
}

/// Boot a virtual-clock server and replay the stream through the real
/// HTTP API in `--step` windows.  Returns the live report.
fn replay_over_http(o: &Options) -> Result<(SimReport, Vec<LiveEvent>), String> {
    let trace_path = o
        .trace
        .as_deref()
        .ok_or("replay/golden need --trace FILE")?;
    let stream = load_stream(trace_path)?;
    let mut ids: Vec<DatabaseId> = Vec::new();
    for ev in &stream {
        if !ids.contains(&ev.db) {
            ids.push(ev.db);
        }
    }
    let cfg = config(o)?;
    let server = ApiServer::start(
        "127.0.0.1:0",
        &cfg,
        &ids,
        Arc::new(InMemoryBackend::new()),
        ServerConfig::VirtualClock,
    )
    .map_err(|e| e.to_string())?;
    let addr = server.addr();

    let mut window_start = 0i64;
    while window_start < o.end {
        let window_end = (window_start + o.step).min(o.end);
        let in_window: Vec<Json> = stream
            .iter()
            .filter(|ev| ev.at.as_secs() >= window_start && ev.at.as_secs() < window_end)
            .map(LiveEvent::to_json)
            .collect();
        if !in_window.is_empty() {
            let body = Json::object(vec![("events", Json::Array(in_window))]).render();
            let (status, reply) = http_request(addr, "POST", "/v1/events", &body)?;
            if status != 200 {
                return Err(format!("POST /v1/events -> {status}: {reply}"));
            }
        }
        let advance = Json::object(vec![("to", Json::Int(window_end))]).render();
        let (status, reply) = http_request(addr, "POST", "/v1/clock/advance", &advance)?;
        if status != 200 {
            return Err(format!("POST /v1/clock/advance -> {status}: {reply}"));
        }
        window_start = window_end;
    }
    let (status, reply) = http_request(addr, "POST", "/v1/finish", "")?;
    if status != 200 {
        return Err(format!("POST /v1/finish -> {status}: {reply}"));
    }
    let report = server
        .shutdown()
        .ok_or("server finished but produced no report")?;
    Ok((report, stream))
}

/// `golden`: live-over-HTTP vs. the DES over the same stream; print
/// the (identical) rendering, fail loudly if they diverge.
fn golden(o: &Options) -> Result<(), String> {
    let (live, stream) = replay_over_http(o)?;
    let traces = stream_to_traces(&stream)?;
    let cfg = config(o)?;
    let des = Simulation::new(cfg, traces)
        .map_err(|e| e.to_string())?
        .run()
        .map_err(|e| e.to_string())?;
    let live_rendered = render(&live);
    let des_rendered = render(&des);
    if live_rendered != des_rendered {
        eprintln!("--- DES ---\n{des_rendered}--- live ---\n{live_rendered}");
        return Err("live report diverges from the DES report".into());
    }
    print!("{des_rendered}");
    Ok(())
}

/// Canonical decision rendering: every deterministic, decision-relevant
/// surface of a report, in a stable text form suitable for goldens.
fn render(r: &SimReport) -> String {
    let mut out = String::new();
    let k = &r.kpi;
    out.push_str(&format!("policy: {}\n", r.policy_label));
    out.push_str(&format!(
        "kpi: qos_pct={} active={} idle_logical={} proactive_correct={} proactive_wrong={} saved={} unavailable={}\n",
        k.qos_pct(),
        k.active_frac,
        k.idle_logical_frac,
        k.idle_proactive_correct_frac,
        k.idle_proactive_wrong_frac,
        k.saved_frac,
        k.unavailable_frac
    ));
    out.push_str(&format!(
        "cluster: spills={} balance_moves={} oversubscriptions={}\n",
        r.spill_moves, r.balance_moves, r.oversubscriptions
    ));
    out.push_str(&format!(
        "faults: mitigations={} incidents={} giveups={}\n",
        r.mitigations, r.incidents, r.giveups
    ));
    let batches: usize = r.resume_batches.iter().sum();
    out.push_str(&format!(
        "resume_batches: ticks={} total={}\n",
        r.resume_batches.len(),
        batches
    ));
    let mut telemetry: Vec<(&'static str, u64)> = r.telemetry_summary.iter().collect();
    telemetry.sort_unstable();
    for (label, count) in telemetry {
        out.push_str(&format!("telemetry: {label}={count}\n"));
    }
    for (i, c) in r.counters.iter().enumerate() {
        out.push_str(&format!(
            "db[{i}]: avail={} unavail={} lp={} pp={} pr={} pred={}\n",
            c.logins_available,
            c.logins_unavailable,
            c.logical_pauses,
            c.physical_pauses,
            c.proactive_resumes,
            c.predictions
        ));
    }
    for e in r.incident_log.entries() {
        out.push_str(&format!(
            "incident: at={} db={} kind={}\n",
            e.at.as_secs(),
            e.db.raw(),
            e.kind.label()
        ));
    }
    out
}
