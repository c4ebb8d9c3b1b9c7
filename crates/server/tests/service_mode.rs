//! Integration tests for the control-plane service mode: the HTTP
//! surface end to end over real TCP, plus the breaker + staged-resume
//! workflow stack driven by the live driver's virtual clock.

use prorp_obs::SloConfig;
use prorp_server::http::request;
use prorp_server::IngestOutcome;
use prorp_server::{
    ApiServer, DbRecord, InMemoryBackend, LiveDriver, LiveEvent, LiveEventKind, ServerConfig,
    StateBackend,
};
use prorp_sim::{ObsConfig, SimConfig, SimPolicy};
use prorp_types::{
    BreakerConfig, DatabaseId, DbState, PolicyConfig, RetryPolicy, Seconds, Timestamp,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `(status, body)` of one exchange.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let (status, _, body) = request(addr, method, path, body).expect("HTTP exchange");
    (status, body)
}

fn day(n: i64) -> Timestamp {
    Timestamp(n * 86_400)
}

fn start_server(cfg: &SimConfig, dbs: &[DatabaseId]) -> ApiServer {
    ApiServer::start(
        "127.0.0.1:0",
        cfg,
        dbs,
        Arc::new(InMemoryBackend::default()),
        ServerConfig::VirtualClock,
    )
    .expect("server boots")
}

#[test]
fn http_surface_basics() {
    let cfg = SimConfig::builder(
        SimPolicy::Proactive(PolicyConfig::default()),
        Timestamp(0),
        day(2),
        Timestamp(0),
    )
    .observe(ObsConfig::on())
    .build()
    .expect("config validates");
    let wide = DatabaseId(u64::MAX - 3);
    let server = start_server(&cfg, &[DatabaseId(0), DatabaseId(1), wide]);
    let addr = server.addr();

    // Lifecycle reads.
    let (status, body) = http(addr, "GET", "/v1/databases/0", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"state\":\"resumed\""), "{body}");
    assert_eq!(http(addr, "GET", "/v1/databases/99", "").0, 404);
    assert_eq!(http(addr, "GET", "/v1/databases/zero", "").0, 400);
    assert_eq!(http(addr, "GET", "/v1/nope", "").0, 404);
    assert_eq!(http(addr, "PUT", "/v1/databases/0", "").0, 405);

    // Ingest classifies per event, in order; duplicates are idempotent.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[
            {"db":0,"at":600,"kind":"login"},
            {"db":0,"at":600,"kind":"login"},
            {"db":7,"at":700,"kind":"login"}
        ]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains(r#"["accepted","duplicate","unknown"]"#),
        "{body}"
    );
    // Ids use all 64 bits on every surface: one above `i64::MAX` reads
    // back unsigned and ingests like any other; negative and fractional
    // ids stay malformed.
    let (status, body) = http(addr, "GET", "/v1/databases/18446744073709551612", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with(r#"{"db":18446744073709551612,"#), "{body}");
    let (status, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[{"db":18446744073709551612,"at":650,"kind":"login"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#"["accepted"]"#), "{body}");
    for bad in ["-4", "1.5", "18446744073709551616"] {
        let event = format!(r#"{{"events":[{{"db":{bad},"at":650,"kind":"login"}}]}}"#);
        assert_eq!(http(addr, "POST", "/v1/events", &event).0, 400, "{bad}");
    }
    assert_eq!(http(addr, "POST", "/v1/events", "{not json").0, 400);
    assert_eq!(
        http(addr, "POST", "/v1/events", r#"{"events":[{}]}"#).0,
        400
    );

    // Virtual clock: forward moves commit the buffer, backward moves 400.
    let (status, body) = http(addr, "POST", "/v1/clock/advance", r#"{"to":3600}"#);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"watermark\":3600"), "{body}");
    assert_eq!(
        http(addr, "POST", "/v1/clock/advance", r#"{"to":60}"#).0,
        400
    );
    // …and an event below the watermark is now late.
    let (_, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[{"db":0,"at":100,"kind":"login"}]}"#,
    );
    assert!(body.contains("late"), "{body}");

    // Prometheus exposition of the live snapshot.
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(body.contains("prorp_"), "{body}");

    // Observability is on but SLO rollups are not configured.
    let (status, body) = http(addr, "GET", "/v1/slo", "");
    assert_eq!(status, 404, "{body}");
    assert!(body.contains("slo rollups disabled"), "{body}");

    // Finish seals the run.
    let (status, body) = http(addr, "POST", "/v1/finish", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"policy\""), "{body}");
    assert_eq!(http(addr, "POST", "/v1/finish", "").0, 409);
    assert_eq!(http(addr, "POST", "/v1/events", "{}").0, 409);

    let report = server.shutdown().expect("finish stored the report");
    assert_eq!(report.policy_label, "proactive");
}

/// The fleet SLO rollup and decision-provenance surfaces over live
/// HTTP, plus the Prometheus text-exposition content-type contract.
#[test]
fn slo_and_why_endpoints_serve_live_rollups() {
    let cfg = SimConfig::builder(
        SimPolicy::Proactive(PolicyConfig::default()),
        Timestamp(0),
        day(2),
        Timestamp(0),
    )
    .observe(
        ObsConfig::on()
            .with_slo(SloConfig::default())
            .with_explain(),
    )
    .build()
    .expect("config validates");
    let server = start_server(&cfg, &[DatabaseId(0), DatabaseId(1)]);
    let addr = server.addr();

    // The scrape endpoint advertises the text-format version scrapers
    // content-negotiate on.
    let (status, head, _) = request(addr, "GET", "/metrics", "").expect("HTTP exchange");
    assert_eq!(status, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "{head}"
    );

    // Before any traffic the rollup exists but holds no windows, and no
    // decision has been recorded for any database.
    let (status, body) = http(addr, "GET", "/v1/slo", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"rows\":[]"), "{body}");
    assert_eq!(http(addr, "GET", "/v1/databases/0/why", "").0, 404);
    assert_eq!(http(addr, "GET", "/v1/databases/99/why", "").0, 404);
    assert_eq!(http(addr, "GET", "/v1/databases/zero/why", "").0, 400);

    // One session: the available login lands in a rollup window, and the
    // logout forces a pause decision the engine must explain.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[
            {"db":0,"at":600,"kind":"login"},
            {"db":0,"at":1200,"kind":"logout"}
        ]}"#,
    );
    assert_eq!(status, 200, "{body}");
    http(addr, "POST", "/v1/clock/advance", r#"{"to":7200}"#);

    let (status, body) = http(addr, "GET", "/v1/slo", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"watermark\":7200"), "{body}");
    assert!(body.contains("\"logins\":1"), "{body}");
    assert!(body.contains("\"availability_ppm\":1000000"), "{body}");
    assert!(body.contains("\"alerts\":[]"), "{body}");

    let (status, body) = http(addr, "GET", "/v1/databases/0/why", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"db\":0"), "{body}");
    assert!(body.contains("\"action\":"), "{body}");
    assert!(body.contains("\"confidence\":{\"hits\":"), "{body}");
    assert!(body.contains("\"breaker_open\":false"), "{body}");

    // Finishing seals these surfaces like the rest of the API.
    assert_eq!(http(addr, "POST", "/v1/finish", "").0, 200);
    assert_eq!(http(addr, "GET", "/v1/slo", "").0, 409);
    assert_eq!(http(addr, "GET", "/v1/databases/0/why", "").0, 409);
    server.shutdown();
}

/// The driver's watermark is the virtual clock, so an advance the run
/// refuses moves nothing: after finish every advance is a 409, forward
/// or back, and the reads stay as of the last advance before it.
#[test]
fn an_advance_after_finish_answers_409_and_moves_nothing() {
    let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), day(7), Timestamp(0))
        .build()
        .expect("config validates");
    let server = start_server(&cfg, &[DatabaseId(0)]);
    let addr = server.addr();
    let advance = |to: i64| {
        http(
            addr,
            "POST",
            "/v1/clock/advance",
            &format!(r#"{{"to":{to}}}"#),
        )
    };
    assert_eq!(advance(3_600).0, 200);
    assert_eq!(http(addr, "POST", "/v1/finish", "").0, 200);
    for to in [500_000, 400_000, 60] {
        let (status, body) = advance(to);
        assert_eq!(status, 409, "to {to}: {body}");
        assert!(body.contains("run already finished"), "{body}");
    }
    let (status, body) = http(addr, "GET", "/v1/databases/0", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.ends_with(r#""as_of":3600}"#), "{body}");
    server.shutdown();
}

/// An [`InMemoryBackend`] that counts the records put into it.
#[derive(Default)]
struct CountingBackend {
    inner: InMemoryBackend,
    puts: AtomicU64,
}

impl StateBackend for CountingBackend {
    fn put(&self, record: DbRecord) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.inner.put(record);
    }
    fn get(&self, id: DatabaseId) -> Option<DbRecord> {
        self.inner.get(id)
    }
    fn all(&self) -> Vec<DbRecord> {
        self.inner.all()
    }
}

/// The value of one un-labelled sample in a Prometheus text body.
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics"))
}

/// While the run is open a read is the driver's: it shows an advance
/// the moment it is made, for a database no event reached as well, and
/// the backend is not written.  `POST /v1/finish` puts every database's
/// record into the backend once, as of the last advance, and the reads
/// after it answer from there.
#[test]
fn reads_follow_the_driver_and_after_finish_the_backend() {
    const FLEET: u64 = 100;
    let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), day(2), Timestamp(0))
        .observe(ObsConfig::on())
        .build()
        .expect("config validates");
    let dbs: Vec<DatabaseId> = (0..FLEET).map(DatabaseId).collect();
    let backend = Arc::new(CountingBackend::default());
    let server = ApiServer::start(
        "127.0.0.1:0",
        &cfg,
        &dbs,
        backend.clone(),
        ServerConfig::VirtualClock,
    )
    .expect("server boots");
    let addr = server.addr();
    let puts = || backend.puts.load(Ordering::Relaxed);
    let read = |id: u64| {
        let (status, body) = http(addr, "GET", &format!("/v1/databases/{id}"), "");
        assert_eq!(status, 200, "{body}");
        body
    };

    let (status, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[
            {"db":3,"at":600,"kind":"login"},
            {"db":3,"at":1200,"kind":"logout"}
        ]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(read(3).contains(r#""state":"resumed""#));
    http(addr, "POST", "/v1/clock/advance", r#"{"to":1300}"#);
    let body = read(3);
    assert!(body.contains(r#""state":"logically-paused""#), "{body}");
    assert!(body.contains(r#""logins_available":1,"#), "{body}");
    assert!(body.ends_with(r#""as_of":1300}"#), "{body}");
    assert!(read(4).ends_with(r#""as_of":1300}"#));

    // The logical-pause timer fires in a window with no ingest at all.
    http(addr, "POST", "/v1/clock/advance", r#"{"to":40000}"#);
    let before = read(3);
    assert!(before.contains("physically-paused"), "{before}");
    assert!(before.ends_with(r#""as_of":40000}"#), "{before}");
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "prorp_server_advances_total"), 2);
    assert_eq!(puts(), 0, "an open run's reads write nothing");

    // Finish drains to the end of the window, yet the reads stay as of
    // the last advance, from one put per database.
    assert_eq!(http(addr, "POST", "/v1/finish", "").0, 200);
    assert_eq!(puts(), FLEET);
    assert_eq!(read(3), before);
    assert!(backend.all().iter().all(|r| r.as_of == Timestamp(40_000)));
    assert_eq!(http(addr, "GET", "/v1/databases/100", "").0, 404);
    // What the backend holds is what a read answers.
    let mut record = backend.get(DatabaseId(3)).expect("finish put it");
    record.state = DbState::Resumed;
    backend.put(record);
    assert!(read(3).contains(r#""state":"resumed""#));
    server.shutdown();
}

/// A batch with one malformed event is a 400 that ingests none of it:
/// re-posting its valid event is accepted, not a duplicate, and only
/// that one is counted.
#[test]
fn a_rejected_batch_ingests_nothing() {
    let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), day(2), Timestamp(0))
        .observe(ObsConfig::on())
        .build()
        .expect("config validates");
    let server = start_server(&cfg, &[DatabaseId(0)]);
    let addr = server.addr();
    let (status, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[{"db":0,"at":600,"kind":"login"},{}]}"#,
    );
    assert_eq!(status, 400, "{body}");
    let (status, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[{"db":0,"at":600,"kind":"login"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains(r#"["accepted"]"#), "{body}");
    let (_, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(metric(&body, "prorp_server_ingest_accepted_total"), 1);
    assert_eq!(metric(&body, "prorp_server_ingest_duplicate_total"), 0);
    server.shutdown();
}

/// A batch just under the transport's 1 MiB body cap — about 27 000
/// events — is decoded in one linear pass, so it holds the driver's lock
/// for milliseconds: a read sent right behind it is answered within 2 s.
/// A decoder that re-scans the rest of the body for every character of
/// a string holds the lock for seconds, and the read waits as long.
#[test]
fn a_full_size_batch_does_not_hold_the_driver() {
    const MAX_BODY: usize = 1024 * 1024;
    let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), day(2), Timestamp(0))
        .build()
        .expect("config validates");
    let server = start_server(&cfg, &[DatabaseId(0), DatabaseId(1)]);
    let addr = server.addr();
    let mut body = String::from(r#"{"events":["#);
    let mut events = 0;
    loop {
        let kind = if events % 2 == 0 { "login" } else { "logout" };
        let event = format!(
            r#"{{"db":{},"at":{},"kind":"{kind}"}}"#,
            events % 2,
            600 + events
        );
        if body.len() + 1 + event.len() + 2 > MAX_BODY {
            break;
        }
        if events > 0 {
            body.push(',');
        }
        body.push_str(&event);
        events += 1;
    }
    body.push_str("]}");
    assert!(events > 26_000, "{events} events");
    let batch = std::thread::spawn(move || http(addr, "POST", "/v1/events", &body));
    std::thread::sleep(std::time::Duration::from_millis(20));
    let sent = std::time::Instant::now();
    let (status, read) = http(addr, "GET", "/v1/databases/0", "");
    let waited = sent.elapsed();
    assert_eq!(status, 200, "{read}");
    let (status, reply) = batch.join().expect("poster thread");
    assert_eq!(status, 200, "{reply}");
    assert_eq!(reply.matches("\"accepted\"").count(), events);
    assert!(
        waited < std::time::Duration::from_secs(2),
        "a read behind a full-size batch waited {waited:?}"
    );
    server.shutdown();
}

/// A request whose head stops before its blank line — the peer went
/// away mid-send — is refused by the transport and never routed: a cut
/// `POST /v1/finish` must not seal the run.  The transport counts what
/// it refused on `/metrics`, after the server's own self-metrics.
#[test]
fn a_finish_with_its_head_cut_off_leaves_the_run_open() {
    let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), day(2), Timestamp(0))
        .observe(ObsConfig::on())
        .build()
        .expect("config validates");
    let server = start_server(&cfg, &[DatabaseId(0)]);
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"POST /v1/finish HTTP/1.1\r\nhost: x")
        .expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.1 400 Bad Request"), "{reply}");

    let (status, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[{"db":0,"at":600,"kind":"login"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("accepted"), "{body}");

    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    assert_eq!(metric(&body, "prorp_server_http_rejected_total"), 1);
    assert_eq!(metric(&body, "prorp_server_http_connections_total"), 3);
    assert_eq!(metric(&body, "prorp_server_http_busy_workers"), 1);
    assert!(metric(&body, "prorp_server_http_busy_workers_peak") >= 1);
    assert_eq!(metric(&body, "prorp_server_http_timeouts_total"), 0);
    assert_eq!(metric(&body, "prorp_server_http_handler_panics_total"), 0);
    let server_rows = body
        .find("prorp_server_advances_total")
        .expect("server metrics");
    let transport = body
        .find("prorp_server_http_connections_total")
        .expect("transport metrics");
    assert!(server_rows < transport, "{body}");
    server.shutdown();
}

/// `/metrics` counts every event `POST /v1/events` classified, one
/// counter per ingest outcome.
#[test]
fn ingest_outcomes_are_counted_on_metrics() {
    let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), day(2), Timestamp(0))
        .observe(ObsConfig::on())
        .build()
        .expect("config validates");
    let server = start_server(&cfg, &[DatabaseId(0)]);
    let addr = server.addr();
    let post = |events: &str| {
        let (status, body) = http(addr, "POST", "/v1/events", events);
        assert_eq!(status, 200, "{body}");
        body
    };
    let body = post(
        r#"{"events":[
            {"db":0,"at":600,"kind":"login"},
            {"db":0,"at":600,"kind":"login"},
            {"db":7,"at":600,"kind":"login"}
        ]}"#,
    );
    assert!(
        body.contains(r#"["accepted","duplicate","unknown"]"#),
        "{body}"
    );
    assert_eq!(
        http(addr, "POST", "/v1/clock/advance", r#"{"to":3600}"#).0,
        200
    );
    let body = post(r#"{"events":[{"db":0,"at":100,"kind":"logout"}]}"#);
    assert!(body.contains(r#"["late"]"#), "{body}");
    let body = post(r#"{"events":[{"db":0,"at":172800,"kind":"logout"}]}"#);
    assert!(body.contains(r#"["after_end"]"#), "{body}");

    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    for outcome in IngestOutcome::ALL {
        let name = format!("prorp_server_ingest_{}_total", outcome.label());
        assert_eq!(metric(&body, &name), 1, "{body}");
    }
    server.shutdown();
}

/// `/metrics` is one Prometheus exposition at any shard count: every
/// `# TYPE` line appears once, and the `prorp_*` series a 2-shard server
/// scrapes are the 1-shard server's, line for line (only the volatile
/// `sim_self_*` readings may differ).  Shard texts pasted one after the
/// other typed every series once per shard.
#[test]
fn metrics_is_one_exposition_at_any_shard_count() {
    let scrape = |shards: usize| {
        let cfg = SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig::default()),
            Timestamp(0),
            day(2),
            Timestamp(0),
        )
        .observe(ObsConfig::on())
        .shards(shards)
        .build()
        .expect("config validates");
        let dbs: Vec<DatabaseId> = (0..12).map(DatabaseId).collect();
        let server = start_server(&cfg, &dbs);
        let addr = server.addr();
        let events: Vec<String> = (0..12u64)
            .flat_map(|db| {
                let at = 600 + 1_800 * db as i64;
                [
                    format!(r#"{{"db":{db},"at":{at},"kind":"login"}}"#),
                    format!(r#"{{"db":{db},"at":{},"kind":"logout"}}"#, at + 3_600),
                ]
            })
            .collect();
        let batch = format!(r#"{{"events":[{}]}}"#, events.join(","));
        assert_eq!(http(addr, "POST", "/v1/events", &batch).0, 200);
        let (status, body) = http(addr, "POST", "/v1/clock/advance", r#"{"to":86400}"#);
        assert_eq!(status, 200, "{body}");
        let (status, text) = http(addr, "GET", "/metrics", "");
        assert_eq!(status, 200, "{text}");
        server.shutdown();
        text
    };
    let (one, two) = (scrape(1), scrape(2));
    for text in [&one, &two] {
        let mut typed = std::collections::HashSet::new();
        for name in text.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
            let name = name.split(' ').next().unwrap_or_default();
            assert!(typed.insert(name), "{name} typed twice:\n{text}");
        }
        assert!(typed.contains("prorp_logins_available_total"), "{text}");
    }
    let prorp = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.trim_start_matches("# TYPE ").starts_with("prorp_"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(prorp(&one), prorp(&two));
    assert!(metric(&one, "prorp_logins_available_total") > 0, "{one}");
}

/// An event at or past the run's end can never commit, so ingest says
/// so instead of accepting it: the run counts only the login inside
/// the window.
#[test]
fn an_event_past_the_end_is_not_accepted() {
    let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), day(1), Timestamp(0))
        .build()
        .expect("config validates");
    let mut driver = LiveDriver::new(&cfg, &[DatabaseId(0)]).expect("driver boots");
    let login = |at: i64| LiveEvent {
        db: DatabaseId(0),
        at: Timestamp(at),
        kind: LiveEventKind::Login,
    };
    assert_eq!(driver.ingest(login(87_000)), IngestOutcome::AfterEnd);
    assert_eq!(driver.ingest(login(86_400)), IngestOutcome::AfterEnd);
    assert_eq!(driver.ingest(login(600)), IngestOutcome::Accepted);
    let report = driver.finish().expect("run finishes");
    let logins = report.kpi.logins_available + report.kpi.logins_unavailable;
    assert_eq!(logins, 1);
}

#[test]
fn wall_clock_mode_rejects_manual_advance() {
    let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), day(1), Timestamp(0))
        .build()
        .expect("config validates");
    let server = ApiServer::start(
        "127.0.0.1:0",
        &cfg,
        &[DatabaseId(0)],
        Arc::new(InMemoryBackend::default()),
        ServerConfig::WallClock,
    )
    .expect("server boots");
    let (status, body) = http(server.addr(), "POST", "/v1/clock/advance", r#"{"to":60}"#);
    assert_eq!(status, 409, "{body}");
    server.shutdown();
}

/// Satellite: retry-exhaustion escalation surfaces as HTTP 503 with an
/// incident record, and an operator resume clears it.
#[test]
fn retry_exhaustion_escalates_to_503_with_incident() {
    // Every resume-stage attempt fails and the retry budget is tiny, so
    // the first login against a physically paused database burns the
    // budget and raises a `retry-exhausted` incident.
    let cfg = SimConfig::builder(
        SimPolicy::Proactive(PolicyConfig::default()),
        Timestamp(0),
        day(1),
        Timestamp(0),
    )
    .stage_failure_probabilities(1.0)
    .retry(RetryPolicy {
        max_attempts: 2,
        base_backoff: Seconds(30),
        max_backoff: Seconds::minutes(5),
    })
    .build()
    .expect("config validates");
    let server = start_server(&cfg, &[DatabaseId(0)]);
    let addr = server.addr();

    // Operator pause, then let it take effect.
    let (status, body) = http(addr, "POST", "/v1/databases/0/pause", "");
    assert_eq!(status, 200, "{body}");
    http(addr, "POST", "/v1/clock/advance", r#"{"to":3600}"#);
    let (status, body) = http(addr, "GET", "/v1/databases/0", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("physically-paused"), "{body}");

    // A login starts the staged resume; every stage attempt fails.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/events",
        r#"{"events":[{"db":0,"at":7200,"kind":"login"}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("accepted"), "{body}");
    http(addr, "POST", "/v1/clock/advance", r#"{"to":14400}"#);

    // The exhaustion escalated: 503, and the record carries the incident.
    let (status, body) = http(addr, "GET", "/v1/databases/0", "");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("retry-exhausted"), "{body}");

    // The operator intervenes; the incident is considered resolved.
    let (status, body) = http(addr, "POST", "/v1/databases/0/resume", "");
    assert_eq!(status, 200, "{body}");
    let (status, body) = http(addr, "GET", "/v1/databases/0", "");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"open_incident\":null"), "{body}");

    // The giveup is visible in the final report.
    let (status, body) = http(addr, "POST", "/v1/finish", "");
    assert_eq!(status, 200, "{body}");
    let report = server.shutdown().expect("finish stored the report");
    assert!(report.giveups >= 1, "expected at least one giveup");
    assert!(report.incidents >= 1, "expected at least one incident");
}

/// Satellite: breaker half-open re-probe timing against the virtual
/// clock.  Failure threshold 2, cool-down 6 h: two failed forecasts open
/// the breaker, forecasts inside the cool-down fall back without
/// invoking the predictor, and the first forecast after the cool-down is
/// the half-open probe (which fails and re-opens the breaker).
#[test]
fn breaker_half_open_reprobe_follows_virtual_clock() {
    let policy = PolicyConfig::builder()
        .logical_pause(Seconds::minutes(30))
        .build()
        .expect("policy validates");
    let cfg = SimConfig::builder(
        SimPolicy::Proactive(policy),
        Timestamp(0),
        day(2),
        Timestamp(0),
    )
    .forecast_fail_every(1)
    .breaker(BreakerConfig {
        failure_threshold: 2,
        cooldown: Seconds::hours(6),
    })
    .build()
    .expect("config validates");
    let db = DatabaseId(0);
    let mut driver = LiveDriver::new(&cfg, &[db]).expect("driver builds");
    let mut cycle = |login: i64, logout: i64, until: i64| {
        for (at, kind) in [
            (login, LiveEventKind::Login),
            (logout, LiveEventKind::Logout),
        ] {
            let outcome = driver.ingest(LiveEvent {
                db,
                at: Timestamp(at),
                kind,
            });
            assert_eq!(outcome, IngestOutcome::Accepted);
        }
        driver.advance_to(Timestamp(until)).expect("advance");
        driver.db_counters(db).expect("registered")
    };

    // Cycle 1 — the logout forecast fails (#1); the logical-pause wake
    // timer 30 min later forecasts again (#2) and opens the breaker at
    // t = 1h40m, so the cool-down runs until t = 7h40m.
    let c1 = cycle(3_600, 4_200, 2 * 3_600);
    assert_eq!(c1.breaker_opens, 1, "{c1:?}");
    assert_eq!(c1.forecast_failures, 2, "{c1:?}");
    let probes_before = c1.predictions;

    // Cycle 2 — entirely inside the cool-down: the predictor is never
    // invoked; every forecast request short-circuits to the reactive
    // fallback.
    let c2 = cycle(3 * 3_600, 3 * 3_600 + 600, 4 * 3_600);
    assert_eq!(c2.predictions, probes_before, "no probe inside cool-down");
    assert!(c2.breaker_fallbacks > c1.breaker_fallbacks, "{c2:?}");
    assert_eq!(c2.breaker_opens, 1, "still the first open: {c2:?}");

    // Cycle 3 — past the cool-down: the logout forecast is the half-open
    // probe.  It runs the predictor again, fails, and re-opens the
    // breaker for a fresh cool-down.
    let c3 = cycle(8 * 3_600, 8 * 3_600 + 600, 9 * 3_600);
    assert!(
        c3.predictions > probes_before,
        "half-open probe must invoke the predictor: {c3:?}"
    );
    assert_eq!(c3.breaker_opens, 2, "failed probe re-opens: {c3:?}");

    // And the re-opened breaker suppresses the very next forecast again.
    let c4 = cycle(10 * 3_600, 10 * 3_600 + 600, 11 * 3_600);
    assert_eq!(c4.predictions, c3.predictions, "{c4:?}");
    assert!(c4.breaker_fallbacks > c3.breaker_fallbacks, "{c4:?}");
}
