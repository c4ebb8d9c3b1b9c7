//! The serve workloads: an in-process `ApiServer` on a loopback port,
//! driven by one client thread with one request in flight.
//!
//! Closed loop on purpose: the caller is a gateway that forwards a login
//! and waits for the reply, and on a two-core host an open-loop
//! generator would share the server's cores.  Every request is timed
//! individually; a refused connection or a non-200 reply is a *failed*
//! request — it counts against `failed_frac` and contributes no latency
//! sample, it is never silently skipped.

use crate::des::report_metrics;
use crate::measure::{self, Cell};
use crate::outcome::{fingerprint, peak_rss_bytes, Outcome, Samples};
use crate::span::Tracer;
use crate::spec::{self, Sizes, Workload};
use crate::stats::{self, Permille, Stat};
use crate::Budget;
use prorp_server::json::{self, Json};
use prorp_server::{
    ApiServer, DbRecord, InMemoryBackend, LiveDriver, LiveEvent, LiveEventKind, ServerConfig,
    StateBackend,
};
use prorp_sim::{SimConfig, SimReport, Simulation};
use prorp_types::{DatabaseId, DbState, ProrpError, Timestamp};
use prorp_workload::Trace;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// What a request does; also the latency series it belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ReqKind {
    /// `GET /v1/databases/:id`.
    Read,
    /// `POST /v1/events`.
    Ingest,
    /// `POST /v1/clock/advance`: buffered events become committed,
    /// published decisions.
    Commit,
    /// `POST /v1/finish`.
    Finish,
}

impl ReqKind {
    fn span_name(self) -> &'static str {
        match self {
            ReqKind::Read => "http.read",
            ReqKind::Ingest => "http.ingest",
            ReqKind::Commit => "http.commit",
            ReqKind::Finish => "http.finish",
        }
    }
}

/// One pre-rendered request of the replay plan.
struct Request {
    kind: ReqKind,
    method: &'static str,
    path: String,
    body: String,
}

/// Everything a seed stands for, built once per set-up.
pub struct Inputs {
    traces: Vec<Trace>,
    ids: Vec<DatabaseId>,
    /// The activity stream in time order.
    stream: Vec<LiveEvent>,
    /// Watermark windows: where each ends and which stream slice it holds.
    windows: Vec<(Timestamp, Range<usize>)>,
    plan: Vec<Request>,
}

fn events_body(events: &[LiveEvent]) -> String {
    let items = events
        .iter()
        .map(|ev| {
            Json::object(vec![
                ("db", Json::Int(ev.db.raw() as i64)),
                ("at", Json::Int(ev.at.as_secs())),
                ("kind", Json::Str(ev.kind.label().into())),
            ])
        })
        .collect();
    Json::object(vec![("events", Json::Array(items))]).render()
}

/// Generate the fleet, flatten it to a time-ordered stream, cut the
/// stream into windows and render every request.
pub fn build_inputs(w: &Workload, sizes: Sizes, seed: u64, cfg: &SimConfig) -> Inputs {
    let traces: Vec<Trace> = w.fleet(sizes, seed).iter().collect();
    let ids: Vec<DatabaseId> = traces.iter().map(|t| t.db).collect();
    let mut stream: Vec<LiveEvent> = Vec::new();
    for t in &traces {
        for s in &t.sessions {
            for (at, kind) in [
                (s.start, LiveEventKind::Login),
                (s.end, LiveEventKind::Logout),
            ] {
                if at >= cfg.start && at < cfg.end {
                    stream.push(LiveEvent { db: t.db, at, kind });
                }
            }
        }
    }
    // Stable: one database's login and logout at the same second keep
    // their order.
    stream.sort_by_key(|ev| ev.at);

    let bulk = w.kind == spec::Kind::ServeBulk;
    let mut windows = Vec::new();
    let mut plan = Vec::new();
    let mut next = 0;
    let mut window_end = cfg.start;
    while window_end < cfg.end {
        window_end = (window_end + spec::WINDOW).min(cfg.end);
        let upto = next + stream[next..].partition_point(|ev| ev.at < window_end);
        let slice = &stream[next..upto];
        if bulk {
            if !slice.is_empty() {
                plan.push(Request {
                    kind: ReqKind::Ingest,
                    method: "POST",
                    path: "/v1/events".into(),
                    body: events_body(slice),
                });
            }
        } else {
            for ev in slice {
                plan.push(Request {
                    kind: ReqKind::Read,
                    method: "GET",
                    path: format!("/v1/databases/{}", ev.db.raw()),
                    body: String::new(),
                });
                plan.push(Request {
                    kind: ReqKind::Ingest,
                    method: "POST",
                    path: "/v1/events".into(),
                    body: events_body(std::slice::from_ref(ev)),
                });
            }
        }
        plan.push(Request {
            kind: ReqKind::Commit,
            method: "POST",
            path: "/v1/clock/advance".into(),
            body: Json::object(vec![("to", Json::Int(window_end.as_secs()))]).render(),
        });
        windows.push((window_end, next..upto));
        next = upto;
    }
    plan.push(Request {
        kind: ReqKind::Finish,
        method: "POST",
        path: "/v1/finish".into(),
        body: String::new(),
    });
    Inputs {
        traces,
        ids,
        stream,
        windows,
        plan,
    }
}

/// Length of a whole reply (head plus `content-length` body), once its
/// head has arrived in full.
fn reply_length(seen: &[u8]) -> Option<usize> {
    let head_len = seen.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&seen[..head_len]).ok()?;
    let body_len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))?
        .trim()
        .parse()
        .ok()?;
    Some(head_len + body_len)
}

/// One blocking HTTP/1.1 exchange; returns the status code.
///
/// The reply is consumed up to, but not including, its last byte, and
/// the socket is closed with that byte unread.  Linux answers a close
/// with unread data by a reset instead of a FIN, and the reset removes
/// the server's half-closed socket at once.  Read to the end, every
/// exchange leaves a socket in TIME_WAIT for a minute, and with some
/// 10 000 of them (two replays) connection set-up on this loopback was
/// measured 3-5x slower with a 10x heavier tail — a run's speed then
/// depends on how many runs came before it.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<u16> {
    let malformed = || std::io::Error::other("malformed reply");
    let mut s = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: ledger\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())?;
    s.write_all(body.as_bytes())?;
    // Look without consuming until the head says how long the reply is.
    let mut seen = [0u8; 1024];
    let total = loop {
        match s.peek(&mut seen)? {
            0 => return Err(malformed()),
            n => match reply_length(&seen[..n]) {
                Some(total) => break total,
                None if n == seen.len() => return Err(malformed()),
                // The head is one write and arrives whole; a split one
                // is completed by the time the scheduler comes back.
                None => std::thread::yield_now(),
            },
        }
    };
    let mut reply = vec![0u8; total.saturating_sub(1)];
    s.read_exact(&mut reply)?;
    std::str::from_utf8(reply.get(9..12).unwrap_or_default())
        .ok()
        .and_then(|code| code.parse().ok())
        .ok_or_else(malformed)
}

/// One timed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Which series it belongs to.
    pub kind: ReqKind,
    /// When the client started connecting.
    pub start: Instant,
    /// When the reply had been read to the end.
    pub end: Instant,
    /// Whether the reply was a 200.
    pub ok: bool,
}

/// Send one request and record it, success or not.
fn send(
    addr: SocketAddr,
    kind: ReqKind,
    method: &str,
    path: &str,
    body: &str,
    samples: &mut Vec<Sample>,
) {
    let start = Instant::now();
    let status = http(addr, method, path, body);
    samples.push(Sample {
        kind,
        start,
        end: Instant::now(),
        ok: matches!(status, Ok(200)),
    });
}

/// How many requests of a run failed.
pub fn failed_requests(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

/// Latencies in microseconds of the successful requests of one kind,
/// ascending.
fn latencies_us(samples: &[Sample], kind: ReqKind) -> Vec<f64> {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind == kind && s.ok)
        .map(|s| s.end.duration_since(s.start).as_nanos() as f64 / 1e3)
        .collect();
    stats::sorted(&v)
}

/// One full replay over HTTP.
struct HttpRun {
    samples: Vec<Sample>,
    /// First request sent to `/v1/finish` replied.
    wall_s: f64,
    report: Option<SimReport>,
}

fn boot(cfg: &SimConfig, ids: &[DatabaseId]) -> Result<ApiServer, ProrpError> {
    ApiServer::start(
        "127.0.0.1:0",
        cfg,
        ids,
        Arc::new(InMemoryBackend::new()),
        ServerConfig::VirtualClock,
    )
}

fn http_run(cfg: &SimConfig, inputs: &Inputs) -> Result<HttpRun, ProrpError> {
    let server = boot(cfg, &inputs.ids)?;
    let addr = server.addr();
    let mut samples = Vec::with_capacity(inputs.plan.len());
    let t0 = Instant::now();
    for req in &inputs.plan {
        send(
            addr,
            req.kind,
            req.method,
            &req.path,
            &req.body,
            &mut samples,
        );
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(HttpRun {
        samples,
        wall_s,
        report: server.shutdown(),
    })
}

/// The DES over the same traces: what every live report must equal.
fn oracle(cfg: &SimConfig, inputs: &Inputs) -> Result<String, ProrpError> {
    let report = Simulation::new(cfg.clone(), inputs.traces.clone())?.run()?;
    Ok(fingerprint(&report))
}

/// The request counts of one HTTP run.
fn count(series: &mut Samples, run: &HttpRun) {
    series.push("server.requests", run.samples.len() as f64);
    series.push(
        "server.failed_requests",
        failed_requests(&run.samples) as f64,
    );
}

/// Add what one HTTP run tells beside its wall time: the request counts
/// and rate, and the latency series.
fn observe(series: &mut Samples, run: &HttpRun, notes: &mut Vec<String>) {
    count(series, run);
    series.push("server.req_per_s", run.samples.len() as f64 / run.wall_s);
    for (kind, p50, p99) in [
        (ReqKind::Ingest, "ingest_p50_us", "ingest_p99_us"),
        (ReqKind::Commit, "commit_p50_us", "commit_p99_us"),
        (ReqKind::Read, "read_p50_us", "read_p99_us"),
    ] {
        let v = latencies_us(&run.samples, kind);
        if v.is_empty() {
            continue;
        }
        for (name, p) in [(p50, Permille::P50), (p99, Permille::P99)] {
            match stats::percentile(&v, p) {
                Some(x) => series.push(name, x),
                None => {
                    let note = format!(
                        "{name} refused: {} samples support {}",
                        v.len(),
                        stats::highest_supported(v.len())
                            .map_or("no percentile".into(), |p| p.label() + " at most")
                    );
                    if !notes.contains(&note) {
                        notes.push(note);
                    }
                }
            }
        }
    }
    if let Some(finish) = latencies_us(&run.samples, ReqKind::Finish).first() {
        series.push("server.finish_ms", finish / 1e3);
    }
}

/// Fold one run's requests into the outcome's tallies and check its
/// final report against the oracle's fingerprint (`out.fingerprint`).
fn account(out: &mut Outcome, what: &str, run: &HttpRun) {
    out.attempted += run.samples.len() as u64;
    out.failed += failed_requests(&run.samples);
    match &run.report {
        Some(report) if fingerprint(report) == out.fingerprint => {}
        Some(_) => out.fail(format!(
            "{what}: live report differs from the DES over the same stream"
        )),
        None => out.fail(format!("{what}: the server produced no final report")),
    }
}

/// A serve workload under the untraced protocol: every set-up builds
/// the inputs and replays them once against a fresh server; every
/// repeat boots a server, replays the plan and checks the final report
/// against the DES.  Only counts are kept of the requests: the probe
/// shares the CPU here, so a request now and then waits ~0.15 ms for it,
/// and the latency percentiles and wall-clock rates are the traced
/// child's to report.
struct ServeCell<'a> {
    w: &'a Workload,
    sizes: Sizes,
    seed: u64,
    cfg: SimConfig,
    inputs: Inputs,
    warmups: Vec<HttpRun>,
    series: Samples,
}

impl Cell for ServeCell<'_> {
    fn set_up(&mut self, out: &mut Outcome) {
        self.inputs = build_inputs(self.w, self.sizes, self.seed, &self.cfg);
        out.activity_events = self.inputs.stream.len() as u64;
        match http_run(&self.cfg, &self.inputs) {
            Ok(run) => self.warmups.push(run),
            Err(e) => out.fail(format!("warm-up: {e}")),
        }
    }

    fn prepare(&mut self, out: &mut Outcome) {
        match oracle(&self.cfg, &self.inputs) {
            Ok(fp) => out.fingerprint = fp,
            Err(e) => out.fail(format!("oracle run: {e}")),
        }
        for run in std::mem::take(&mut self.warmups) {
            account(out, "warm-up", &run);
        }
    }

    fn repeat(&mut self, out: &mut Outcome) -> bool {
        match http_run(&self.cfg, &self.inputs) {
            Ok(run) => {
                account(out, "repeat", &run);
                count(&mut self.series, &run);
                true
            }
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("repeat: {e}"));
                false
            }
        }
    }
}

/// The untraced child.
pub fn run_untraced(
    w: &Workload,
    sizes: Sizes,
    seed: u64,
    budget: Budget,
    born: Instant,
    cpus: &[usize],
) -> Outcome {
    let cfg = w.config(sizes);
    let mut cell = ServeCell {
        w,
        sizes,
        seed,
        inputs: build_inputs(w, sizes, seed, &cfg),
        cfg,
        warmups: Vec::new(),
        series: Samples::default(),
    };
    let mut out = measure::run_untraced(&mut cell, sizes.dbs, budget, born, cpus);
    cell.series.report(&mut out);
    out
}

/// What `ServerState::publish` does after every advance, rebuilt from
/// the driver's public accessors: every registered database's record is
/// read out of the driver and re-put into the backend.
fn publish(driver: &LiveDriver, backend: &InMemoryBackend) {
    black_box(driver.incidents());
    let as_of = driver.watermark();
    for id in driver.databases() {
        backend.put(DbRecord {
            id,
            state: driver.db_state(id).unwrap_or(DbState::Resumed),
            prediction: driver.db_prediction(id),
            counters: driver.db_counters(id).unwrap_or_default(),
            open_incident: None,
            as_of,
        });
    }
}

/// The same stream through `LiveDriver` directly, no HTTP: what the
/// driver costs per event and per window, and what the per-advance
/// re-publish costs per database.
fn direct_replay(
    cfg: &SimConfig,
    inputs: &Inputs,
    tr: &mut Tracer,
) -> Result<SimReport, ProrpError> {
    let whole = tr.enter("driver.direct");
    let mut driver = tr.scope("driver.new", || LiveDriver::new(cfg, &inputs.ids))?;
    let backend = InMemoryBackend::new();
    for (window_end, range) in &inputs.windows {
        tr.scope("driver.ingest", || {
            for ev in &inputs.stream[range.clone()] {
                black_box(driver.ingest(*ev));
            }
        });
        tr.scope("driver.advance", || driver.advance_to(*window_end))?;
        tr.scope("driver.publish", || publish(&driver, &backend));
    }
    let report = tr.scope("driver.finish", || driver.finish())?;
    tr.exit(whole);
    Ok(report)
}

/// `server.http_roundtrip_us_p50`: an unrouted path answers 404 after
/// connect, framing and the actor hop, and nothing else.
fn roundtrip_floor(out: &mut Outcome, cfg: &SimConfig, inputs: &Inputs, n: usize) {
    let server = match boot(cfg, &inputs.ids) {
        Ok(s) => s,
        Err(e) => return out.fail(format!("roundtrip server: {e}")),
    };
    let addr = server.addr();
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t0 = Instant::now();
        if matches!(http(addr, "GET", "/ledger/unrouted", ""), Ok(404)) {
            us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    server.shutdown();
    if us.len() < n {
        out.fail(format!(
            "{} of {n} floor requests did not answer 404",
            n - us.len()
        ));
    }
    if !us.is_empty() {
        out.put_one("server.http_roundtrip_us_p50", stats::median(&us));
    }
}

/// `server.json_parse_ns_per_event`: the codec on the workload's own
/// ingest bodies.
fn json_parse_cost(out: &mut Outcome, inputs: &Inputs) {
    let bodies: Vec<&str> = inputs
        .plan
        .iter()
        .filter(|r| r.kind == ReqKind::Ingest)
        .map(|r| r.body.as_str())
        .collect();
    let t0 = Instant::now();
    for body in &bodies {
        black_box(json::parse(body).is_ok());
    }
    let ns = t0.elapsed().as_nanos() as f64;
    if !inputs.stream.is_empty() {
        out.put_one(
            "server.json_parse_ns_per_event",
            ns / inputs.stream.len() as f64,
        );
    }
}

/// The traced child: replays whose requests become spans, then the
/// direct-driver replay and the per-layer floors.
pub fn run_traced(
    w: &Workload,
    sizes: Sizes,
    seed: u64,
    budget: Budget,
    trace_out: Option<&Path>,
) -> Outcome {
    let mut out = Outcome::default();
    let cfg = w.config(sizes);
    let inputs = build_inputs(w, sizes, seed, &cfg);
    out.activity_events = inputs.stream.len() as u64;
    out.fingerprint = match oracle(&cfg, &inputs) {
        Ok(fp) => fp,
        Err(e) => {
            out.fail(format!("oracle run: {e}"));
            return out;
        }
    };
    out.put_one("workload.activity_events", out.activity_events as f64);
    match http_run(&cfg, &inputs) {
        Ok(run) => account(&mut out, "warm-up", &run),
        Err(e) => out.fail(format!("warm-up: {e}")),
    }

    // The client times every request whether or not spans are wanted, so
    // a traced replay is a plain one whose samples are also turned into
    // spans afterwards; that conversion is the whole tracing overhead.
    let mut series = Samples::default();
    let mut walls = Vec::new();
    let mut last: Option<HttpRun> = None;
    let started = Instant::now();
    while walls.len() < budget.pairs || started.elapsed().as_secs_f64() < budget.seconds * 0.6 {
        match http_run(&cfg, &inputs) {
            Ok(run) => {
                account(&mut out, "replay", &run);
                walls.push(run.wall_s);
                observe(&mut series, &run, &mut out.notes);
                last = Some(run);
            }
            Err(e) => {
                out.fail(format!("replay: {e}"));
                break;
            }
        }
    }
    series.report(&mut out);
    let Some(run) = last else { return out };
    let wall = Stat::of(&walls);
    out.put_one("ledger.run_spread_frac", wall.spread());
    let rates: Vec<f64> = walls
        .iter()
        .map(|w| out.activity_events as f64 / w)
        .collect();
    out.put("activity_events_per_s", Stat::of(&rates));
    out.put_one(
        "peak_rss_bytes_per_db",
        peak_rss_bytes() as f64 / sizes.dbs as f64,
    );
    out.put_one("ledger.repeats", walls.len() as f64);
    out.put_one(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    if let Some(report) = &run.report {
        report_metrics(&mut out, report, sizes.dbs, run.wall_s);
    }

    // The span tree: one span per request under the replay, and the
    // direct-driver replay beside it.
    let convert = Instant::now();
    let first = run.samples.first().map_or(convert, |s| s.start);
    let mut tr = Tracer::new(first);
    let last_end = run.samples.last().map_or(convert, |s| s.end);
    let root = tr.push("serve.run", first, last_end, None);
    for s in &run.samples {
        tr.push(s.kind.span_name(), s.start, s.end, Some(root));
    }
    out.put_one(
        "ledger.trace_overhead_frac",
        convert.elapsed().as_secs_f64() / run.wall_s,
    );
    match direct_replay(&cfg, &inputs, &mut tr) {
        Ok(report) => {
            if fingerprint(&report) != out.fingerprint {
                out.fail("direct-driver replay differs from the DES".into());
            }
            let events = inputs.stream.len().max(1) as f64;
            out.put_one(
                "server.ingest_ns_per_event",
                tr.total_ns("driver.ingest") as f64 / events,
            );
            out.put_one(
                "server.advance_us_per_window",
                tr.total_ns("driver.advance") as f64 / 1e3 / inputs.windows.len() as f64,
            );
            out.put_one(
                "server.publish_ns_per_db",
                tr.total_ns("driver.publish") as f64
                    / (inputs.windows.len() * inputs.ids.len()) as f64,
            );
            let direct_s = [
                "driver.ingest",
                "driver.advance",
                "driver.publish",
                "driver.finish",
            ]
            .iter()
            .map(|name| tr.total_ns(name))
            .sum::<u64>() as f64
                / 1e9;
            out.put_one("server.http_share", 1.0 - direct_s / wall.value);
        }
        Err(e) => out.fail(format!("direct-driver replay: {e}")),
    }
    roundtrip_floor(
        &mut out,
        &cfg,
        &inputs,
        if budget.check { 50 } else { 2_000 },
    );
    json_parse_cost(&mut out, &inputs);

    if let Some(path) = trace_out {
        if let Err(e) = tr.write_jsonl(path, w.name) {
            out.fail(format!("cannot write {}: {e}", path.display()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn a_refused_connection_is_a_failed_request_not_a_skipped_sample() {
        // Bind to learn a free port, then close it again: connecting to
        // it is refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let mut samples = Vec::new();
        send(
            addr,
            ReqKind::Ingest,
            "POST",
            "/v1/events",
            "{}",
            &mut samples,
        );
        assert_eq!(samples.len(), 1, "the attempt is on the books");
        assert!(!samples[0].ok);
        assert_eq!(failed_requests(&samples), 1);
        assert!(
            latencies_us(&samples, ReqKind::Ingest).is_empty(),
            "a failure contributes no latency"
        );

        let run = HttpRun {
            samples,
            wall_s: 1.0,
            report: None,
        };
        let mut out = Outcome::default();
        account(&mut out, "test", &run);
        // One refused request, and the missing report is a failed check.
        assert_eq!((out.attempted, out.failed), (1, 2));
        assert!(!out.correct());
    }

    #[test]
    fn plans_cover_the_stream_once_and_end_with_finish() {
        for name in ["serve_single", "serve_bulk"] {
            let w = spec::workload(name).unwrap();
            let sizes = w.sizes(true);
            let cfg = w.config(sizes);
            let inputs = build_inputs(w, sizes, 5, &cfg);
            let commits = inputs
                .plan
                .iter()
                .filter(|r| r.kind == ReqKind::Commit)
                .count();
            assert_eq!(commits, inputs.windows.len());
            assert_eq!(commits as i64, sizes.days * 86_400 / spec::WINDOW.as_secs());
            assert_eq!(inputs.plan.last().unwrap().kind, ReqKind::Finish);
            let covered: usize = inputs.windows.iter().map(|(_, r)| r.len()).sum();
            assert_eq!(covered, inputs.stream.len());
            assert!(inputs.stream.windows(2).all(|p| p[0].at <= p[1].at));
            let reads = inputs
                .plan
                .iter()
                .filter(|r| r.kind == ReqKind::Read)
                .count();
            let ingests = inputs
                .plan
                .iter()
                .filter(|r| r.kind == ReqKind::Ingest)
                .count();
            if name == "serve_single" {
                assert_eq!((reads, ingests), (inputs.stream.len(), inputs.stream.len()));
            } else {
                assert_eq!(reads, 0);
                assert!(ingests <= commits && ingests > 0);
            }
        }
    }

    #[test]
    fn a_tiny_replay_over_http_matches_the_des() {
        let w = spec::workload("serve_bulk").unwrap();
        let sizes = w.sizes(true);
        let cfg = w.config(sizes);
        let inputs = build_inputs(w, sizes, 11, &cfg);
        let run = http_run(&cfg, &inputs).unwrap();
        assert_eq!(failed_requests(&run.samples), 0);
        let fp = oracle(&cfg, &inputs).unwrap();
        assert_eq!(fingerprint(run.report.as_ref().unwrap()), fp);
        let mut tr = Tracer::new(Instant::now());
        let direct = direct_replay(&cfg, &inputs, &mut tr).unwrap();
        assert_eq!(fingerprint(&direct), fp);
        assert_eq!(
            tr.durations_ns("driver.advance").len(),
            inputs.windows.len()
        );
    }
}
