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
//! The engine stack is deliberately single-threaded (its predictor
//! scratch is shard-local `Rc` state, exactly like a DES shard worker),
//! so the [`LiveDriver`] lives on one dedicated driver thread.  The HTTP
//! transport ([`crate::http`]) is a fixed set of worker threads started
//! once; a worker parses a request, forwards it over a channel through
//! the one shared `Sender` and blocks on the reply — the control-plane
//! analogue of the one-event-loop-per-shard rule the simulator already
//! enforces.  A worker sends one message and then waits, so the channel
//! into the driver holds at most as many requests as there are workers:
//! the queue is bounded by construction, and anything beyond it waits in
//! the listen backlog.  No thread is started per connection or per
//! request.
//!
//! # Reads
//!
//! `GET /v1/databases/:id` runs on the driver thread like every other
//! request, so it reads the [`LiveDriver`] itself: state, prediction and
//! counters from the engine, `as_of` from the watermark, and the *open
//! incident* marker — the thing a read turns into an HTTP 503 until an
//! operator resume clears it — from a map every advance folds freshly
//! raised incidents into.  `POST /v1/finish` consumes the driver, so it
//! first puts every database's record, as of the last advance, into the
//! [`StateBackend`]; the reads after it answer from there.

use crate::backend::{DbRecord, StateBackend};
use crate::clock::LiveClock;
use crate::driver::{IngestOutcome, LiveDriver, LiveEvent};
use crate::http::{self, HttpStats, Request, Response, ServerHandle};
use crate::json::{self, Json};
use prorp_obs::export::alert_json;
use prorp_sim::{SimConfig, SimReport};
use prorp_telemetry::IncidentEntry;
use prorp_types::{DatabaseId, ProrpError, Timestamp};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// Everything the driver thread owns.
struct ServerState {
    driver: Option<LiveDriver>,
    clock: LiveClock,
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
        if self.clock.is_virtual() {
            return Ok(());
        }
        let now = self.clock.now();
        if self.driver.as_ref().is_some_and(|d| now > d.watermark()) {
            self.advance_to(now)?;
        }
        Ok(())
    }
}

/// A request forwarded to the driver thread, with its reply channel.
enum Msg {
    Request(Request, mpsc::Sender<Response>),
    Stop,
}

/// The HTTP control plane around one [`LiveDriver`].
pub struct ApiServer {
    handle: ServerHandle,
    commands: mpsc::Sender<Msg>,
    driver_thread: Option<JoinHandle<Option<SimReport>>>,
}

impl ApiServer {
    /// Bind `addr` (e.g. `127.0.0.1:0`), build a [`LiveDriver`] over
    /// `cfg`/`dbs` on a dedicated driver thread, and serve it under the
    /// given clock mode; `POST /v1/finish` leaves every database's last
    /// record in `backend`.
    ///
    /// # Errors
    ///
    /// Propagates the TCP bind failure and driver construction errors
    /// (invalid config, duplicate ids, the optimal policy).
    pub fn start(
        addr: &str,
        cfg: &SimConfig,
        dbs: &[DatabaseId],
        backend: Arc<dyn StateBackend>,
        mode: ServerConfig,
    ) -> Result<ApiServer, ProrpError> {
        // Unbounded in type, bounded in use: a message is sent by an HTTP
        // worker that then blocks on its reply, so the channel never holds
        // more requests than the transport has workers (plus one `Stop`).
        let (command_tx, command_rx) = mpsc::channel::<Msg>();
        // The transport comes up first so the driver thread can be handed
        // its counters; a request that arrives before the driver is built
        // waits in the channel for it.
        let forward = command_tx.clone();
        let handle = http::serve(
            addr,
            Arc::new(move |req| {
                let (reply_tx, reply_rx) = mpsc::channel();
                if forward.send(Msg::Request(req, reply_tx)).is_err() {
                    return Response::json(500, error_body("driver thread is gone"));
                }
                reply_rx
                    .recv()
                    .unwrap_or_else(|_| Response::json(500, error_body("driver thread is gone")))
            }),
        )
        .map_err(|e| ProrpError::Simulation(format!("cannot bind {addr}: {e}")))?;
        let http = handle.stats();
        let (ready_tx, ready_rx) = mpsc::channel::<Result<(), ProrpError>>();
        let cfg = cfg.clone();
        let dbs = dbs.to_vec();
        let driver_thread = std::thread::spawn(move || {
            // The driver is shard-local Rc state: build it here, on the
            // only thread that will ever touch it.
            let driver = match LiveDriver::new(&cfg, &dbs) {
                Ok(d) => d,
                Err(e) => {
                    let _ = ready_tx.send(Err(e));
                    return None;
                }
            };
            let origin = driver.watermark();
            let clock = match mode {
                ServerConfig::WallClock => LiveClock::wall(origin),
                ServerConfig::VirtualClock => LiveClock::virtual_at(origin),
            };
            let mut state = ServerState {
                driver: Some(driver),
                clock,
                backend,
                open_incidents: HashMap::new(),
                advances: 0,
                ingested: [0; IngestOutcome::ALL.len()],
                http,
                report: None,
            };
            let _ = ready_tx.send(Ok(()));
            while let Ok(msg) = command_rx.recv() {
                match msg {
                    Msg::Request(req, reply) => {
                        let _ = reply.send(route(&mut state, req));
                    }
                    Msg::Stop => break,
                }
            }
            state.report.take()
        });
        // On either failure `handle` drops here, which stops the transport.
        match ready_rx.recv() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                let _ = driver_thread.join();
                return Err(e);
            }
            Err(_) => {
                let _ = driver_thread.join();
                return Err(ProrpError::Simulation("driver thread died on start".into()));
            }
        }
        Ok(ApiServer {
            handle,
            commands: command_tx,
            driver_thread: Some(driver_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// Stop serving.  The final report, if `POST /v1/finish` produced
    /// one, is returned so a caller can persist it.
    pub fn shutdown(mut self) -> Option<SimReport> {
        let _ = self.commands.send(Msg::Stop);
        let report = self
            .driver_thread
            .take()
            .and_then(|t| t.join().unwrap_or(None));
        self.handle.shutdown();
        report
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
/// replies with one outcome label per event, in order.  A batch with a
/// malformed event is a 400 that ingests none of it.
fn post_events(state: &mut ServerState, body: &str) -> Response {
    let Some(driver) = &mut state.driver else {
        return Response::json(409, error_body("run already finished"));
    };
    let parsed = match json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::json(400, error_body(&e)),
    };
    let Some(events) = parsed.get("events").and_then(Json::as_array) else {
        return Response::json(400, error_body("missing \"events\" array"));
    };
    let events = match events
        .iter()
        .map(LiveEvent::from_json)
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(events) => events,
        Err(e) => return Response::json(400, error_body(e)),
    };
    let mut results = Vec::with_capacity(events.len());
    for ev in events {
        let outcome = driver.ingest(ev);
        state.ingested[outcome as usize] += 1;
        results.push(Json::Str(outcome.label().into()));
    }
    Response::json(
        200,
        Json::object(vec![
            ("results", Json::Array(results)),
            ("watermark", Json::Int(driver.watermark().as_secs())),
        ])
        .render(),
    )
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

/// `GET /metrics` — Prometheus exposition of each shard's live metrics
/// snapshot (read at the watermark), with
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
fn post_advance(state: &mut ServerState, body: &str) -> Response {
    if !state.clock.is_virtual() {
        return Response::json(409, error_body("wall-clock mode advances by itself"));
    }
    let to = match json::parse(body).map(|v| v.get("to").and_then(Json::as_int)) {
        Ok(Some(to)) => Timestamp(to),
        Ok(None) => return Response::json(400, error_body("missing integer \"to\"")),
        Err(e) => return Response::json(400, error_body(&e)),
    };
    if !state.clock.advance(to) {
        return Response::json(400, error_body("clock may not move backwards"));
    }
    if state.driver.is_none() {
        return Response::json(409, error_body("run already finished"));
    }
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
