//! The control-plane endpoint surface.
//!
//! | Verb + path                       | Effect                                          |
//! |-----------------------------------|-------------------------------------------------|
//! | `POST /v1/events`                 | Ingest login/logout events (idempotent)         |
//! | `GET /v1/slo`                     | Per-region SLO rollup rows + burn-rate alerts   |
//! | `GET /v1/databases/:id`           | Lifecycle state + counters (503 on an open incident) |
//! | `GET /v1/databases/:id/why`       | Latest decision-provenance record for the db    |
//! | `POST /v1/databases/:id/resume`   | Operator-forced resume; clears an open incident |
//! | `POST /v1/databases/:id/pause`    | Operator-forced physical pause                  |
//! | `GET /metrics`                    | Prometheus exposition of the live snapshot      |
//! | `POST /v1/clock/advance`          | Move a virtual clock (`409` on a wall clock)    |
//! | `POST /v1/finish`                 | Drain to end-of-window, return the final report |
//!
//! # Threading
//!
//! The HTTP transport ([`crate::http`]) is a fixed set of worker threads
//! started once, and a worker serves the request it read itself: it
//! locks the server's one state — the [`LiveDriver`] with the server's
//! books around it — routes the request, and unlocks.  Requests are
//! therefore served one at a time, in the order their workers took the
//! lock, the control-plane analogue of the one-event-loop-per-shard rule
//! the simulator enforces: a shard still steps on one thread at a time,
//! only no longer on the same one.  The lock is held for the route
//! alone, never across socket I/O, so a slow peer holds a worker but not
//! the driver.  No thread is started per connection or per request, and
//! none beside the workers.
//!
//! A route that panics poisons the lock.  The driver may then be half
//! way through an advance, so nothing reads it again: every later
//! request answers `503 {"error":"the driver failed"}`.
//!
//! # Reads
//!
//! `GET /v1/databases/:id` holds the lock like every other request, so
//! it reads the [`LiveDriver`] itself: state, prediction and counters
//! from the engine, `as_of` from the watermark, and the *open incident*
//! marker — the thing a read turns into an HTTP 503 until an operator
//! resume clears it — from a map every advance folds freshly raised
//! incidents into.  `POST /v1/finish` consumes the driver, so it first
//! puts every database's record, as of the last advance, into the
//! [`StateBackend`]; the reads after it answer from there.

use crate::backend::{DbRecord, StateBackend};
use crate::clock::LiveClock;
use crate::driver::{IngestOutcome, LiveDriver, LiveEvent};
use crate::http::{self, HttpStats, Request, Response, ServerHandle};
use crate::json::{self, Json, Reader};
use prorp_obs::export::alert_json;
use prorp_sim::{SimConfig, SimReport};
use prorp_telemetry::IncidentEntry;
use prorp_types::{DatabaseId, ProrpError, Timestamp};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

/// How the server's clock advances.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServerConfig {
    /// Wall-clock service mode: every request first advances the
    /// watermark to "now".
    WallClock,
    /// Virtual-clock mode: the watermark moves only on
    /// `POST /v1/clock/advance` — deterministic, for tests and replays.
    VirtualClock,
}

/// `id`'s record as the driver holds it at its watermark; `None` when
/// `id` is not registered.
fn read_record(
    driver: &LiveDriver,
    open_incidents: &HashMap<DatabaseId, IncidentEntry>,
    id: DatabaseId,
) -> Option<DbRecord> {
    Some(DbRecord {
        id,
        state: driver.db_state(id)?,
        prediction: driver.db_prediction(id),
        counters: driver.db_counters(id)?,
        open_incident: open_incidents.get(&id).copied(),
        as_of: driver.watermark(),
    })
}

/// Everything a request may read or change, behind the server's lock.
struct ServerState {
    driver: Option<LiveDriver>,
    /// Where watermarks come from in wall-clock mode; `None` in virtual
    /// mode, where the driver's watermark is the clock.
    wall_clock: Option<LiveClock>,
    /// The records `finish` leaves behind for the reads after it.
    backend: Arc<dyn StateBackend>,
    open_incidents: HashMap<DatabaseId, IncidentEntry>,
    /// Watermark advances so far, appended to `GET /metrics`.
    advances: u64,
    /// Events `POST /v1/events` answered with each outcome, indexed by
    /// `IngestOutcome as usize`.
    ingested: [u64; IngestOutcome::ALL.len()],
    /// The transport's counters, appended after them.
    http: Arc<HttpStats>,
    report: Option<SimReport>,
}

impl ServerState {
    /// A [`LiveDriver`] over `cfg`/`dbs` under the given clock mode,
    /// counting the transport's requests in `http`.
    fn new(
        cfg: &SimConfig,
        dbs: &[DatabaseId],
        backend: Arc<dyn StateBackend>,
        mode: ServerConfig,
        http: Arc<HttpStats>,
    ) -> Result<ServerState, ProrpError> {
        let driver = LiveDriver::new(cfg, dbs)?;
        let wall_clock = match mode {
            ServerConfig::WallClock => Some(LiveClock::wall(driver.watermark())),
            ServerConfig::VirtualClock => None,
        };
        Ok(ServerState {
            driver: Some(driver),
            wall_clock,
            backend,
            open_incidents: HashMap::new(),
            advances: 0,
            ingested: [0; IngestOutcome::ALL.len()],
            http,
            report: None,
        })
    }

    /// `id`'s record: read from the driver, or, once `finish` has
    /// consumed it, from the backend.
    fn record(&self, id: DatabaseId) -> Option<DbRecord> {
        match &self.driver {
            Some(driver) => read_record(driver, &self.open_incidents, id),
            None => self.backend.get(id),
        }
    }

    /// Move the watermark to `to` and open an incident marker for each
    /// incident the advance raised.
    fn advance_to(&mut self, to: Timestamp) -> Result<(), ProrpError> {
        if let Some(driver) = &mut self.driver {
            driver.advance_to(to)?;
            self.advances += 1;
            for entry in driver.take_fresh_incidents() {
                self.open_incidents.insert(entry.db, entry);
            }
        }
        Ok(())
    }

    /// In wall-clock mode, pull the watermark up to "now" before
    /// serving a request.  Virtual mode only moves on explicit advance.
    fn sync_wall_clock(&mut self) -> Result<(), ProrpError> {
        let Some(clock) = &self.wall_clock else {
            return Ok(());
        };
        let now = clock.now();
        if self.driver.as_ref().is_some_and(|d| now > d.watermark()) {
            self.advance_to(now)?;
        }
        Ok(())
    }
}

/// The HTTP control plane around one [`LiveDriver`].
pub struct ApiServer {
    handle: ServerHandle,
    state: Arc<Mutex<ServerState>>,
}

impl ApiServer {
    /// Build a [`LiveDriver`] over `cfg`/`dbs`, bind `addr` (e.g.
    /// `127.0.0.1:0`), and serve the driver under the given clock mode;
    /// `POST /v1/finish` leaves every database's last record in
    /// `backend`.
    ///
    /// # Errors
    ///
    /// Propagates driver construction errors (invalid config, duplicate
    /// ids, the optimal policy) and the TCP bind failure.
    pub fn start(
        addr: &str,
        cfg: &SimConfig,
        dbs: &[DatabaseId],
        backend: Arc<dyn StateBackend>,
        mode: ServerConfig,
    ) -> Result<ApiServer, ProrpError> {
        let http = Arc::new(HttpStats::default());
        let state = ServerState::new(cfg, dbs, backend, mode, Arc::clone(&http))?;
        let state = Arc::new(Mutex::new(state));
        let shared = Arc::clone(&state);
        let handle = http::serve(addr, http, Arc::new(move |req| serve_locked(&shared, req)))
            .map_err(|e| ProrpError::Simulation(format!("cannot bind {addr}: {e}")))?;
        Ok(ApiServer { handle, state })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// Stop serving.  The final report, if `POST /v1/finish` produced
    /// one, is returned so a caller can persist it.
    pub fn shutdown(self) -> Option<SimReport> {
        self.handle.shutdown();
        // A report is stored whole as `finish`'s last step, so one is
        // sound to hand out even from a state a later request poisoned.
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.report.take()
    }
}

/// Serve one request on the calling worker: lock the state and route.
/// A poisoned lock means a route panicked with the driver in hand, so
/// the request is refused with a 503 instead of reading it.
fn serve_locked(state: &Mutex<ServerState>, req: Request) -> Response {
    match state.lock() {
        Ok(mut state) => route(&mut state, req),
        Err(_) => Response::json(503, error_body("the driver failed")),
    }
}

fn error_body(message: &str) -> String {
    Json::object(vec![("error", Json::Str(message.into()))]).render()
}

fn route(state: &mut ServerState, req: Request) -> Response {
    if let Err(e) = state.sync_wall_clock() {
        return Response::json(500, error_body(&e.to_string()));
    }
    let path: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), path.as_slice()) {
        ("POST", ["v1", "events"]) => post_events(state, &req.body),
        ("GET", ["v1", "slo"]) => get_slo(state),
        ("GET", ["v1", "databases", id]) => get_database(state, id),
        ("GET", ["v1", "databases", id, "why"]) => get_why(state, id),
        ("POST", ["v1", "databases", id, "resume"]) => post_forced(state, id, true),
        ("POST", ["v1", "databases", id, "pause"]) => post_forced(state, id, false),
        ("GET", ["metrics"]) => get_metrics(state),
        ("POST", ["v1", "clock", "advance"]) => post_advance(state, &req.body),
        ("POST", ["v1", "finish"]) => post_finish(state),
        ("GET", _) | ("POST", _) => Response::json(404, error_body("no such route")),
        _ => Response::json(405, error_body("method not allowed")),
    }
}

/// `POST /v1/events` — body `{"events":[{"db":N,"at":T,"kind":"login"}]}`;
/// replies `{"results":[…],"watermark":N}`, one outcome label per
/// event, in order.  The body is decoded whole before any of it is
/// ingested, so a batch with a malformed event is a 400 that ingests
/// none of it.
///
/// Decoding reads the body once, straight into [`LiveEvent`]s, with no
/// [`Json`] tree: [`decode_events`] over the codec's pull
/// [`Reader`](crate::json::Reader), in time linear in the body.  It
/// accepts and rejects exactly what parsing the body and reading the
/// tree would, with the same error text.
fn post_events(state: &mut ServerState, body: &str) -> Response {
    let Some(driver) = &mut state.driver else {
        return Response::json(409, error_body("run already finished"));
    };
    let events = match decode_events(body) {
        Ok(events) => events,
        Err(e) => return Response::json(400, error_body(&e)),
    };
    let mut outcomes = Vec::with_capacity(events.len());
    for ev in events {
        let outcome = driver.ingest(ev);
        state.ingested[outcome as usize] += 1;
        outcomes.push(outcome);
    }
    Response::json(200, ingest_reply(&outcomes, driver.watermark()))
}

/// Why a body is not a batch: no `"events"` member holding an array.
const MISSING_EVENTS: &str = "missing \"events\" array";

/// Decode a `POST /v1/events` body: the first `"events"` member (as
/// [`Json::get`] finds it) read item by item with [`LiveEvent::read`],
/// every other member skipped but validated.  No [`Json`] tree is
/// built, and the body is read once.
///
/// # Errors
///
/// A syntax error anywhere in the body comes first, then a body without
/// an `"events"` array, then the first event that is not one — each
/// with the text parsing the body and reading the tree would give.
pub fn decode_events(body: &str) -> Result<Vec<LiveEvent>, String> {
    let mut r = Reader::new(body);
    // `None` until the first `"events"` member is read.
    let mut events: Option<Result<Vec<LiveEvent>, &'static str>> = None;
    if r.peek() == Some(b'{') {
        r.object(|r, key| {
            if key != "events" || events.is_some() {
                return r.skip_value();
            }
            if r.peek() != Some(b'[') {
                events = Some(Err(MISSING_EVENTS));
                return r.skip_value();
            }
            let mut items = Vec::new();
            let mut wrong = None;
            r.array(|r| {
                match LiveEvent::read(r)? {
                    Ok(ev) => items.push(ev),
                    Err(e) => {
                        wrong.get_or_insert(e);
                    }
                }
                Ok(())
            })?;
            events = Some(wrong.map_or(Ok(items), Err));
            Ok(())
        })?;
    } else {
        r.skip_value()?;
    }
    r.end()?;
    Ok(events.unwrap_or(Err(MISSING_EVENTS))?)
}

/// The `POST /v1/events` reply, written directly: byte for byte the
/// render of `{"results":[<label>…],"watermark":N}` as a [`Json`]
/// tree (the labels are plain ASCII words, so none needs escaping).
fn ingest_reply(outcomes: &[IngestOutcome], watermark: Timestamp) -> String {
    let mut out = String::with_capacity(32 + 12 * outcomes.len());
    out.push_str(r#"{"results":["#);
    for (i, outcome) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(outcome.label());
        out.push('"');
    }
    let _ = write!(out, r#"],"watermark":{}}}"#, watermark.as_secs());
    out
}

fn parse_id(id: &str) -> Option<DatabaseId> {
    id.parse::<u64>().ok().map(DatabaseId)
}

fn record_json(r: &DbRecord) -> Json {
    let prediction = match &r.prediction {
        Some(p) => Json::object(vec![
            ("start", Json::Int(p.start.as_secs())),
            ("end", Json::Int(p.end.as_secs())),
            ("confidence", Json::Float(p.confidence)),
        ]),
        None => Json::Null,
    };
    let incident = match &r.open_incident {
        Some(i) => Json::object(vec![
            ("at", Json::Int(i.at.as_secs())),
            ("kind", Json::Str(i.kind.label().into())),
        ]),
        None => Json::Null,
    };
    Json::object(vec![
        ("db", Json::from(r.id.raw())),
        ("state", Json::Str(r.state.to_string())),
        ("prediction", prediction),
        ("open_incident", incident),
        (
            "counters",
            Json::object(vec![
                ("logins_available", Json::from(r.counters.logins_available)),
                (
                    "logins_unavailable",
                    Json::from(r.counters.logins_unavailable),
                ),
                ("logical_pauses", Json::from(r.counters.logical_pauses)),
                ("physical_pauses", Json::from(r.counters.physical_pauses)),
                (
                    "proactive_resumes",
                    Json::from(r.counters.proactive_resumes),
                ),
            ]),
        ),
        ("as_of", Json::Int(r.as_of.as_secs())),
    ])
}

/// `GET /v1/databases/:id` — the database's record as of the
/// watermark; **503** while the database carries an unresolved incident
/// (the record rides along so the operator sees what happened).
fn get_database(state: &ServerState, id: &str) -> Response {
    let Some(id) = parse_id(id) else {
        return Response::json(400, error_body("database id must be an unsigned integer"));
    };
    let Some(record) = state.record(id) else {
        return Response::json(404, error_body("unknown database"));
    };
    let status = if record.open_incident.is_some() {
        503
    } else {
        200
    };
    Response::json(status, record_json(&record).render())
}

/// `POST /v1/databases/:id/resume|pause` — schedule the forced action
/// at the watermark; a resume also closes any open incident.
fn post_forced(state: &mut ServerState, id: &str, resume: bool) -> Response {
    let Some(id) = parse_id(id) else {
        return Response::json(400, error_body("database id must be an unsigned integer"));
    };
    let Some(driver) = &mut state.driver else {
        return Response::json(409, error_body("run already finished"));
    };
    if !driver.contains(id) {
        return Response::json(404, error_body("unknown database"));
    }
    let scheduled = if resume {
        driver.force_resume(id)
    } else {
        driver.force_pause(id)
    };
    if !scheduled {
        return Response::json(409, error_body("outside the serving window"));
    }
    if resume {
        // The operator intervened: the incident is considered resolved.
        state.open_incidents.remove(&id);
    }
    Response::json(
        200,
        Json::object(vec![(
            "scheduled",
            Json::Str(if resume { "resume" } else { "pause" }.into()),
        )])
        .render(),
    )
}

/// `GET /metrics` — Prometheus exposition of the fleet's live metrics
/// snapshot (the shards' merged, read at the watermark), with
/// the `text/plain; version=0.0.4` content type scrapers negotiate on,
/// followed by the server's self-metrics.  Those describe this process
/// (how many advances it made, how each ingested event was classified,
/// what the HTTP transport met), not the simulated world, so they live
/// outside the deterministic snapshot.
fn get_metrics(state: &ServerState) -> Response {
    let Some(driver) = &state.driver else {
        return Response::text(409, "run already finished\n".into());
    };
    let Some(mut text) = driver.prometheus_text() else {
        return Response::text(404, "observability disabled in this config\n".into());
    };
    let mut row = |name: &str, kind: &str, value: u64| {
        text.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
    };
    row("prorp_server_advances_total", "counter", state.advances);
    for (outcome, value) in IngestOutcome::ALL.into_iter().zip(state.ingested) {
        let name = format!("prorp_server_ingest_{}_total", outcome.label());
        row(&name, "counter", value);
    }
    for (name, kind, value) in state.http.rows() {
        row(name, kind, value);
    }
    Response::prometheus(200, text)
}

fn opt_u64(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::from)
}

/// `GET /v1/slo` — the merged per-region rollup rows and the derived
/// burn-rate alert log at the current watermark.
fn get_slo(state: &ServerState) -> Response {
    let Some(driver) = &state.driver else {
        return Response::json(409, error_body("run already finished"));
    };
    let Some(series) = driver.slo_series() else {
        return Response::json(404, error_body("slo rollups disabled in this config"));
    };
    let rows: Vec<Json> = series
        .rows()
        .iter()
        .map(|r| {
            Json::object(vec![
                ("window", Json::Int(r.window)),
                ("region", Json::Int(i64::from(r.region))),
                ("start", Json::Int(r.window_start.as_secs())),
                ("logins", Json::from(r.logins)),
                ("misses", Json::from(r.misses)),
                ("availability_ppm", Json::from(r.availability_ppm)),
                ("miss_ppm", Json::from(r.miss_ppm)),
                ("resume_p50", opt_u64(r.resume_p50)),
                ("resume_p95", opt_u64(r.resume_p95)),
                ("resume_p99", opt_u64(r.resume_p99)),
                ("resumes", Json::from(r.resumes)),
                ("proactive_resumes", Json::from(r.proactive_resumes)),
                ("breaker_opens", Json::from(r.breaker_opens)),
            ])
        })
        .collect();
    let alerts: Vec<Json> = driver.alerts().iter().map(alert_json).collect();
    Response::json(
        200,
        Json::object(vec![
            ("watermark", Json::Int(driver.watermark().as_secs())),
            ("rows", Json::Array(rows)),
            ("alerts", Json::Array(alerts)),
        ])
        .render(),
    )
}

/// `GET /v1/databases/:id/why` — the latest decision-provenance record:
/// which action the engine took and the exact inputs (prediction,
/// confidence basis, breaker) it took it on.
fn get_why(state: &ServerState, id: &str) -> Response {
    let Some(id) = parse_id(id) else {
        return Response::json(400, error_body("database id must be an unsigned integer"));
    };
    let Some(driver) = &state.driver else {
        return Response::json(409, error_body("run already finished"));
    };
    if !driver.contains(id) {
        return Response::json(404, error_body("unknown database"));
    }
    let Some((at, explain)) = driver.db_last_decision(id) else {
        return Response::json(
            404,
            error_body("no decision recorded (enable obs explain, then wait for one)"),
        );
    };
    let predicted = match explain.predicted {
        Some(p) => Json::Int(p.as_secs()),
        None => Json::Null,
    };
    Response::json(
        200,
        Json::object(vec![
            ("db", Json::from(id.raw())),
            ("at", Json::Int(at.as_secs())),
            ("action", Json::Str(explain.action.label().into())),
            ("predicted", predicted),
            ("history_len", Json::Int(i64::from(explain.history_len))),
            (
                "confidence",
                Json::object(vec![
                    ("hits", Json::Int(i64::from(explain.confidence_hits))),
                    ("total", Json::Int(i64::from(explain.confidence_total))),
                ]),
            ),
            ("breaker_open", Json::Bool(explain.breaker_open)),
        ])
        .render(),
    )
}

/// `POST /v1/clock/advance` — body `{"to":T}`; virtual clocks only.
/// The driver's watermark is the virtual clock, so a refused advance —
/// a finished run, a backwards move — moves nothing.
fn post_advance(state: &mut ServerState, body: &str) -> Response {
    if state.wall_clock.is_some() {
        return Response::json(409, error_body("wall-clock mode advances by itself"));
    }
    if state.driver.is_none() {
        return Response::json(409, error_body("run already finished"));
    }
    let to = match json::parse(body).map(|v| v.get("to").and_then(Json::as_int)) {
        Ok(Some(to)) => Timestamp(to),
        Ok(None) => return Response::json(400, error_body("missing integer \"to\"")),
        Err(e) => return Response::json(400, error_body(&e)),
    };
    if let Err(e) = state.advance_to(to) {
        return Response::json(400, error_body(&e.to_string()));
    }
    Response::json(
        200,
        Json::object(vec![("watermark", Json::Int(to.as_secs()))]).render(),
    )
}

/// `POST /v1/finish` — drain to the end of the configured window and
/// return the decision-relevant summary; the run is sealed afterwards,
/// and reads answer from the backend, as of the last advance.
fn post_finish(state: &mut ServerState) -> Response {
    let Some(driver) = state.driver.take() else {
        return Response::json(409, error_body("run already finished"));
    };
    for id in driver.databases() {
        if let Some(record) = read_record(&driver, &state.open_incidents, id) {
            state.backend.put(record);
        }
    }
    match driver.finish() {
        Ok(report) => {
            let body = Json::object(vec![
                ("policy", Json::Str(report.policy_label.into())),
                ("qos_pct", Json::Float(report.kpi.qos_pct())),
                ("saved_frac", Json::Float(report.kpi.saved_frac)),
                ("incidents", Json::from(report.incidents)),
                ("giveups", Json::from(report.giveups)),
                (
                    "telemetry_events",
                    Json::from(report.telemetry_summary.total()),
                ),
            ])
            .render();
            state.report = Some(report);
            Response::json(200, body)
        }
        Err(e) => Response::json(500, error_body(&e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InMemoryBackend;
    use proptest::prelude::*;
    use prorp_sim::SimPolicy;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            body: String::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            body: body.into(),
        }
    }

    /// A one-day reactive run.
    fn one_day() -> SimConfig {
        SimConfig::builder(
            SimPolicy::Reactive,
            Timestamp(0),
            Timestamp(86_400),
            Timestamp(0),
        )
        .build()
        .expect("config validates")
    }

    /// A virtual-clock server over a one-day reactive run.
    fn one_day_server(dbs: &[DatabaseId]) -> ApiServer {
        ApiServer::start(
            "127.0.0.1:0",
            &one_day(),
            dbs,
            Arc::new(InMemoryBackend::new()),
            ServerConfig::VirtualClock,
        )
        .expect("server boots")
    }

    /// The tree path the decoder replaced: parse the body, look up
    /// `"events"`, read each item with [`LiveEvent::from_json`].
    fn reference(body: &str) -> Result<Vec<LiveEvent>, String> {
        let v = json::parse(body)?;
        let items = v
            .get("events")
            .and_then(Json::as_array)
            .ok_or(MISSING_EVENTS)?;
        items
            .iter()
            .map(LiveEvent::from_json)
            .collect::<Result<_, _>>()
            .map_err(String::from)
    }

    fn lit(text: &'static str) -> BoxedStrategy<String> {
        Just(text.to_string()).boxed()
    }

    fn ws() -> BoxedStrategy<String> {
        prop_oneof![6 => lit(""), 1 => lit(" "), 1 => lit("\n\t "), 1 => lit("\r\n")].boxed()
    }

    /// `name` as a JSON key: mostly plain, else with one char written
    /// as a `\u` escape (`"d\u0062"` is the key `db`).
    fn key(name: &'static str) -> BoxedStrategy<String> {
        (0..2 * name.len() + 1)
            .prop_map(move |i| {
                let mut out = String::from('"');
                for (j, c) in name.chars().enumerate() {
                    if j == i {
                        out.push_str(&format!("\\u{:04x}", u32::from(c)));
                    } else {
                        out.push(c);
                    }
                }
                out + "\""
            })
            .boxed()
    }

    /// `levels` arrays around one `0`: inside an event (depth 3) 29
    /// levels are at the depth limit and 30 past it, at the top (depth
    /// 1) 31 and 32.
    fn nested(levels: usize) -> String {
        "[".repeat(levels) + "0" + &"]".repeat(levels)
    }

    fn valid_db() -> BoxedStrategy<String> {
        prop_oneof![
            8 => (0u64..6).prop_map(|n| n.to_string()),
            1 => Just(u64::MAX.to_string()),
            1 => Just((1u64 << 63).to_string()),
            1 => lit("-0"),
        ]
        .boxed()
    }

    fn valid_at() -> BoxedStrategy<String> {
        prop_oneof![
            6 => (0i64..90_000).prop_map(|n| n.to_string()),
            1 => any::<i64>().prop_map(|n| n.to_string()),
        ]
        .boxed()
    }

    fn valid_kind() -> BoxedStrategy<String> {
        prop_oneof![
            4 => lit(r#""login""#),
            4 => lit(r#""logout""#),
            1 => lit(r#""log\u0069n""#),
            1 => lit(r#""logou\u0074""#),
        ]
        .boxed()
    }

    /// A value of any type, nested ones and ones at or past the depth
    /// limit included.
    fn any_value() -> BoxedStrategy<String> {
        prop_oneof![
            4 => (-5i64..5).prop_map(|n| n.to_string()),
            2 => lit("1.5"),
            2 => lit("-2e3"),
            2 => lit("18446744073709551615"),
            1 => lit("18446744073709551616"),
            1 => lit("-9223372036854775809"),
            2 => lit(r#""s\"\\é""#),
            2 => lit(r#""login""#),
            2 => lit("null"),
            2 => lit("true"),
            2 => lit("[]"),
            2 => lit(r#"{"db":1,"x":[1,{"y":"z"}]}"#),
            2 => lit(r#"[{"events":[]},{"kind":"login"}]"#),
            2 => (27usize..34).prop_map(nested),
        ]
        .boxed()
    }

    /// One `key:value` member with whitespace around its parts.
    fn member(key: BoxedStrategy<String>, value: BoxedStrategy<String>) -> BoxedStrategy<String> {
        (ws(), key, ws(), ws(), value, ws())
            .prop_map(|(a, k, b, c, v, d)| format!("{a}{k}{b}:{c}{v}{d}"))
            .boxed()
    }

    fn unknown_member() -> BoxedStrategy<String> {
        let name = prop_oneof![
            lit(r#""x""#),
            lit(r#""dbx""#),
            lit(r#""Db""#),
            lit(r#""""#),
            lit(r#""é""#),
            lit(r#""events""#),
        ];
        member(name.boxed(), any_value())
    }

    /// Any member an event may carry: a known one with a value of any
    /// type, or an unknown one.
    fn any_event_member() -> BoxedStrategy<String> {
        prop_oneof![
            member(key("db"), prop_oneof![valid_db(), any_value()].boxed()),
            member(key("at"), prop_oneof![valid_at(), any_value()].boxed()),
            member(key("kind"), prop_oneof![valid_kind(), any_value()].boxed()),
            unknown_member(),
        ]
        .boxed()
    }

    fn object(members: Vec<String>) -> String {
        format!("{{{}}}", members.join(","))
    }

    /// An event that is valid unless a duplicate or unknown member
    /// breaks the syntax: unknown members first, the three fields in
    /// any order, then duplicates (which lose to the first occurrence)
    /// and more unknown members.
    fn valid_event() -> BoxedStrategy<String> {
        (
            prop::collection::vec(unknown_member(), 0..2),
            member(key("db"), valid_db()),
            member(key("at"), valid_at()),
            member(key("kind"), valid_kind()),
            0usize..6,
            prop::collection::vec(any_event_member(), 0..3),
        )
            .prop_map(|(mut members, db, at, kind, order, tail)| {
                let mut fields = [db, at, kind];
                fields.rotate_left(order % 3);
                if order >= 3 {
                    fields.swap(0, 1);
                }
                members.extend(fields);
                members.extend(tail);
                object(members)
            })
            .boxed()
    }

    fn item() -> BoxedStrategy<String> {
        prop_oneof![
            12 => valid_event(),
            1 => prop::collection::vec(any_event_member(), 0..5).prop_map(object),
            1 => any_value(),
        ]
        .boxed()
    }

    fn batch() -> BoxedStrategy<String> {
        (ws(), prop::collection::vec(item(), 0..6), ws())
            .prop_map(|(a, items, b)| format!("[{a}{}{b}]", items.join(",")))
            .boxed()
    }

    /// A body: mostly a batch among unknown top-level members (a second
    /// `"events"` included), else an `"events"` that is not an array, no
    /// `"events"` at all, or a top level that is not an object.
    fn body() -> BoxedStrategy<String> {
        let tail = prop_oneof![
            3 => unknown_member(),
            1 => member(key("events"), prop_oneof![batch(), any_value()].boxed()),
        ];
        prop_oneof![
            8 => (
                prop::collection::vec(unknown_member(), 0..2),
                member(key("events"), batch()),
                prop::collection::vec(tail, 0..2),
            )
                .prop_map(|(mut members, events, tail)| {
                    members.push(events);
                    members.extend(tail);
                    object(members)
                }),
            1 => member(key("events"), any_value()).prop_map(|m| object(vec![m])),
            1 => prop::collection::vec(unknown_member(), 0..3).prop_map(object),
            1 => prop_oneof![batch(), any_value()],
        ]
        .boxed()
    }

    /// `text` cut after `cut` chars, or with the char at `at` replaced
    /// (both modulo the char count): a truncated or corrupted body that
    /// is still a `&str`.
    fn damage(text: &str, cut: Option<usize>, at: usize, with: char) -> String {
        let mut chars: Vec<char> = text.chars().collect();
        if chars.is_empty() {
            return String::new();
        }
        match cut {
            Some(cut) => chars.truncate(cut % chars.len()),
            None => {
                let at = at % chars.len();
                chars[at] = with;
            }
        }
        chars.into_iter().collect()
    }

    /// The decoder is the tree path it replaced: on every body — valid,
    /// invalid, truncated or with one char changed — it returns the
    /// same events or the same error text, and the route answers 200
    /// with one result per event, or the 400 the tree path answered.
    #[test]
    fn the_decoder_is_the_tree_reading_of_every_body() {
        let server = one_day_server(&(0..4).map(DatabaseId).collect::<Vec<_>>());
        let bodies = (
            body(),
            prop_oneof![
                3 => Just(None),
                1 => (prop::option::of(0usize..4096), 0usize..4096).prop_map(Some),
            ],
            prop_oneof![
                Just('{'),
                Just('}'),
                Just('['),
                Just(']'),
                Just(','),
                Just(':'),
                Just('"'),
                Just('\\'),
                Just(' '),
                Just('-'),
                Just('.'),
                Just('1'),
                Just('u'),
                Just('x'),
            ],
        );
        let (mut valid, mut invalid) = (0, 0);
        proptest::test_runner::run_cases(
            ProptestConfig::with_cases(2048),
            "the_decoder_is_the_tree_reading_of_every_body",
            |rng| {
                let (text, damaged, with) = bodies.generate(rng);
                let text = match damaged {
                    Some((cut, at)) => damage(&text, cut, at, with),
                    None => text,
                };
                let want = reference(&text);
                prop_assert_eq!(decode_events(&text), want.clone(), "body: {}", text);
                let reply = serve_locked(&server.state, post("/v1/events", &text));
                match want {
                    Ok(events) => {
                        valid += 1;
                        prop_assert_eq!(reply.status, 200, "body: {}", text);
                        let results = json::parse(&reply.body).map_err(TestCaseError::fail)?;
                        let results = results.get("results").and_then(Json::as_array);
                        prop_assert_eq!(results.map(<[Json]>::len), Some(events.len()));
                    }
                    Err(e) => {
                        invalid += 1;
                        prop_assert_eq!(reply.status, 400, "body: {}", text);
                        prop_assert_eq!(reply.body, error_body(&e));
                    }
                }
                Ok(())
            },
        );
        // Both sides of the oracle are exercised.
        assert!(
            valid > 250 && invalid > 250,
            "{valid} valid, {invalid} invalid"
        );
        server.shutdown();
    }

    /// A `to` of every class the advance route sorts: inside the run,
    /// past its end, negative, the `i64` extremes, and values that are
    /// not an integer.
    fn to_value() -> BoxedStrategy<String> {
        prop_oneof![
            6 => (0i64..86_400).prop_map(|n| n.to_string()),
            2 => (86_400i64..10_000_000).prop_map(|n| n.to_string()),
            2 => (-100_000i64..0).prop_map(|n| n.to_string()),
            1 => Just(i64::MIN.to_string()),
            1 => Just(i64::MAX.to_string()),
            1 => lit(r#""600""#),
            4 => any_value(),
        ]
        .boxed()
    }

    /// An advance body: mostly a `"to"` among unknown members (a second
    /// `"to"` included), else no `"to"` at all or a top level that is
    /// not an object.
    fn advance_body() -> BoxedStrategy<String> {
        let tail = prop_oneof![unknown_member(), member(key("to"), to_value())];
        prop_oneof![
            8 => (
                prop::collection::vec(unknown_member(), 0..2),
                member(key("to"), to_value()),
                prop::collection::vec(tail, 0..2),
            )
                .prop_map(|(mut members, to, tail)| {
                    members.push(to);
                    members.extend(tail);
                    object(members)
                }),
            1 => prop::collection::vec(unknown_member(), 0..3).prop_map(object),
            1 => any_value(),
        ]
        .boxed()
    }

    /// Every `POST /v1/clock/advance` body — valid, missing or
    /// mistyped `to`, behind the watermark, past the end, the `i64`
    /// extremes, truncated or with one char changed — answers 200 or
    /// 400 without a panic; a 400 leaves the watermark where it was, and
    /// a 200 moves it to `to`.  Each case sends a few bodies to a fresh
    /// server, so later ones meet the watermark the earlier ones left.
    #[test]
    fn every_advance_body_answers_200_or_400_and_only_a_200_moves_the_clock() {
        let bodies = prop::collection::vec(
            (
                advance_body(),
                prop_oneof![
                    3 => Just(None),
                    1 => (prop::option::of(0usize..256), 0usize..256).prop_map(Some),
                ],
                prop_oneof![
                    Just('{'),
                    Just('}'),
                    Just(':'),
                    Just('"'),
                    Just('-'),
                    Just('.'),
                    Just('9'),
                    Just('x'),
                ],
            ),
            1..5,
        );
        let watermark = |state: &Mutex<ServerState>| {
            let state = state.lock().unwrap();
            state.driver.as_ref().map(LiveDriver::watermark)
        };
        let session =
            r#"{"events":[{"db":0,"at":600,"kind":"login"},{"db":0,"at":4000,"kind":"logout"}]}"#;
        let (mut moved, mut refused) = (0, 0);
        proptest::test_runner::run_cases(
            ProptestConfig::with_cases(512),
            "every_advance_body_answers_200_or_400_and_only_a_200_moves_the_clock",
            |rng| {
                let http = Arc::new(HttpStats::default());
                let backend = Arc::new(InMemoryBackend::new());
                let dbs = [DatabaseId(0), DatabaseId(1)];
                let state =
                    ServerState::new(&one_day(), &dbs, backend, ServerConfig::VirtualClock, http)
                        .expect("driver builds");
                let state = Mutex::new(state);
                prop_assert_eq!(
                    serve_locked(&state, post("/v1/events", session)).status,
                    200
                );
                for (text, damaged, with) in bodies.generate(rng) {
                    let text = match damaged {
                        Some((cut, at)) => damage(&text, cut, at, with),
                        None => text,
                    };
                    let before = watermark(&state).expect("the run is open");
                    let reply = serve_locked(&state, post("/v1/clock/advance", &text));
                    let after = watermark(&state).expect("the run is open");
                    match reply.status {
                        200 => {
                            moved += 1;
                            let to = json::parse(&text)
                                .ok()
                                .and_then(|v| v.get("to").and_then(Json::as_int));
                            prop_assert_eq!(Some(after.as_secs()), to, "body: {}", text);
                            prop_assert_eq!(
                                reply.body,
                                format!(r#"{{"watermark":{}}}"#, after.as_secs())
                            );
                        }
                        400 => {
                            refused += 1;
                            prop_assert_eq!(after, before, "body: {}", text);
                        }
                        status => prop_assert!(false, "{} for body {}", status, text),
                    }
                }
                // The server serves on: the run still finishes.
                prop_assert_eq!(serve_locked(&state, post("/v1/finish", "")).status, 200);
                Ok(())
            },
        );
        // Both answers are exercised.
        assert!(
            moved > 150 && refused > 150,
            "{moved} moved, {refused} refused"
        );
    }

    /// An `:id` path segment, a few pieces run together: registered and
    /// unregistered ids, `u64::MAX` and one past it, signs, leading
    /// zeros, spaces, non-ASCII digits and letters, or nothing at all.
    fn id_segment() -> BoxedStrategy<String> {
        let piece = prop_oneof![
            6 => prop_oneof![lit("0"), lit("1"), lit("7")],
            3 => (0u64..20).prop_map(|n| n.to_string()),
            1 => lit("18446744073709551615"),
            1 => lit("18446744073709551616"),
            1 => lit("99999999999999999999999"),
            1 => lit("-"),
            1 => lit("+"),
            1 => lit("00"),
            1 => lit(" "),
            1 => lit("é"),
            1 => lit("\u{661}"),
            1 => lit("\u{ff11}"),
            1 => lit("x"),
        ];
        prop::collection::vec(piece, 0..3)
            .prop_map(|pieces| pieces.concat())
            .boxed()
    }

    /// The routes whose only outside input is the `:id` segment — a
    /// database's record and its `why`, the forced resume and pause —
    /// under arbitrary ids and bodies answer 200, 400, 404, 409 or 503,
    /// never a 500 or a panic.  Only a forced action's 200 schedules
    /// anything: a twin server sent just those requests reads the same
    /// as the probed one, database by database, after the next advance.
    #[test]
    fn every_id_route_answers_and_only_a_scheduled_action_changes_the_run() {
        let requests = prop::collection::vec(
            (
                0usize..4,
                id_segment(),
                prop_oneof![3 => lit(""), 1 => any_value()],
            ),
            1..8,
        );
        let dbs = [DatabaseId(0), DatabaseId(1), DatabaseId(7)];
        // At the 5 000 s watermark database 0 is logically paused, 1 has
        // never served and 7 is serving, so a forced pause or resume
        // changes what the next advance reads.
        let session = r#"{"events":[{"db":0,"at":600,"kind":"login"},{"db":0,"at":4000,"kind":"logout"},{"db":7,"at":900,"kind":"login"}]}"#;
        let server = || {
            let http = Arc::new(HttpStats::default());
            let backend = Arc::new(InMemoryBackend::new());
            let state =
                ServerState::new(&one_day(), &dbs, backend, ServerConfig::VirtualClock, http)
                    .expect("driver builds");
            let state = Mutex::new(state);
            assert_eq!(
                serve_locked(&state, post("/v1/events", session)).status,
                200
            );
            let reply = serve_locked(&state, post("/v1/clock/advance", r#"{"to":5000}"#));
            assert_eq!(reply.status, 200);
            state
        };
        let reads = |state: &Mutex<ServerState>| -> Vec<(u16, String)> {
            dbs.iter()
                .flat_map(|id| {
                    let raw = id.raw();
                    [
                        format!("/v1/databases/{raw}"),
                        format!("/v1/databases/{raw}/why"),
                    ]
                })
                .map(|path| {
                    let reply = serve_locked(state, get(&path));
                    (reply.status, reply.body)
                })
                .collect()
        };
        let mut answered = std::collections::BTreeMap::new();
        proptest::test_runner::run_cases(
            ProptestConfig::with_cases(256),
            "every_id_route_answers_and_only_a_scheduled_action_changes_the_run",
            |rng| {
                let (probed, twin) = (server(), server());
                for (route, id, body) in requests.generate(rng) {
                    let (method, path) = match route {
                        0 => ("GET", format!("/v1/databases/{id}")),
                        1 => ("GET", format!("/v1/databases/{id}/why")),
                        2 => ("POST", format!("/v1/databases/{id}/resume")),
                        _ => ("POST", format!("/v1/databases/{id}/pause")),
                    };
                    let req = Request {
                        method: method.into(),
                        path: path.clone(),
                        body,
                    };
                    let status = serve_locked(&probed, req.clone()).status;
                    *answered.entry(status).or_insert(0usize) += 1;
                    match status {
                        200 if method == "POST" => {
                            prop_assert_eq!(serve_locked(&twin, req).status, 200, "{}", path);
                        }
                        200 | 400 | 404 | 409 | 503 => {}
                        other => prop_assert!(false, "{} for {} {}", other, method, path),
                    }
                }
                for state in [&probed, &twin] {
                    let reply = serve_locked(state, post("/v1/clock/advance", r#"{"to":50000}"#));
                    prop_assert_eq!(reply.status, 200);
                }
                prop_assert_eq!(reads(&probed), reads(&twin));
                Ok(())
            },
        );
        // Scheduled actions, malformed ids and unknown ids are all met.
        for status in [200, 400, 404] {
            assert!(
                answered.get(&status).copied().unwrap_or(0) > 100,
                "{answered:?}"
            );
        }
    }

    /// The three semantic errors keep their texts, and a syntax error
    /// anywhere in the body outranks them.
    #[test]
    fn decode_errors_keep_their_texts_and_syntax_comes_first() {
        for (body, error) in [
            (r#"{"event":[]}"#, r#"missing "events" array"#),
            (r#"{"events":{}}"#, r#"missing "events" array"#),
            (r#"[{"events":[]}]"#, r#"missing "events" array"#),
            (
                r#"{"events":[{"db":0,"at":1.5,"kind":"login"}]}"#,
                "event needs db, at, kind(login|logout)",
            ),
            (
                r#"{"events":[7]}"#,
                "event needs db, at, kind(login|logout)",
            ),
            (
                r#"{"events":[{"db":-1,"at":1,"kind":"login"}]}"#,
                "database id must be an unsigned integer",
            ),
            (
                r#"{"events":[{"db":-1,"at":1,"kind":"login"}],"x":[}"#,
                "unexpected byte '}' at 49",
            ),
        ] {
            assert_eq!(decode_events(body), Err(error.to_string()), "{body}");
            assert_eq!(reference(body), Err(error.to_string()), "{body}");
        }
    }

    /// The direct reply is byte for byte the tree render, for every
    /// outcome, alone and all together, at any watermark.
    #[test]
    fn the_direct_reply_is_the_tree_render() {
        let render = |outcomes: &[IngestOutcome], watermark: i64| {
            let results = outcomes
                .iter()
                .map(|o| Json::Str(o.label().into()))
                .collect();
            Json::object(vec![
                ("results", Json::Array(results)),
                ("watermark", Json::Int(watermark)),
            ])
            .render()
        };
        let mut cases: Vec<Vec<IngestOutcome>> =
            IngestOutcome::ALL.iter().map(|&o| vec![o]).collect();
        cases.push(Vec::new());
        cases.push(IngestOutcome::ALL.to_vec());
        for outcomes in &cases {
            for watermark in [0, 86_400, -1, i64::MIN, i64::MAX] {
                assert_eq!(
                    ingest_reply(outcomes, Timestamp(watermark)),
                    render(outcomes, watermark)
                );
            }
        }
    }

    /// A route that panics with the lock held leaves the driver in an
    /// unknown state: that request and every one after it answer 503.
    #[test]
    fn a_poisoned_driver_answers_503_to_every_request() {
        let server = one_day_server(&[DatabaseId(0)]);
        assert_eq!(
            serve_locked(&server.state, get("/v1/databases/0")).status,
            200
        );
        let state = Arc::clone(&server.state);
        let panicked = std::thread::spawn(move || {
            let _held = state.lock().unwrap();
            panic!("a route failed mid-advance");
        })
        .join();
        assert!(panicked.is_err());
        for _ in 0..2 {
            let reply = serve_locked(&server.state, get("/v1/databases/0"));
            assert_eq!(reply.status, 503);
            assert_eq!(reply.body, r#"{"error":"the driver failed"}"#);
        }
        assert!(server.shutdown().is_none());
    }
}
