//! The sim ≡ live differential suite.
//!
//! The control-plane server (`prorp-server`) drives the *same*
//! [`prorp_sim::ShardDriver`] stack the DES runs, through a watermark
//! protocol instead of a pre-loaded queue.  This suite is the
//! correctness centerpiece of service mode:
//!
//! * replay a recorded fleet through both drivers and assert the
//!   reports are **bit-identical** — resume/pause decisions (telemetry
//!   events), KPI counters, per-database engine counters, incident
//!   logs, Algorithm 5 batch sizes, and the observability span trace —
//!   at 1 shard and at 8 shards, clean and under fault injection;
//! * a proptest oracle proving ingest is **idempotent and
//!   reorder-tolerant within a watermark window**: arbitrary intra-
//!   window arrival order plus injected duplicate deliveries cannot
//!   change a single decision;
//! * a second proptest oracle over the *read* surface: after every
//!   advance, operator action and the final `POST /v1/finish`, every
//!   `GET /v1/databases/:id` must answer with exactly the record a
//!   mirrored driver fed the same stream holds, as of the watermark.

use proptest::prelude::*;
use prorp_obs::SloConfig;
use prorp_server::json::{self, Json};
use prorp_server::{
    ApiServer, InMemoryBackend, IngestOutcome, LiveDriver, LiveEvent, LiveEventKind, ServerConfig,
};
use prorp_sim::{
    ObsConfig, SimConfig, SimConfigBuilder, SimPolicy, SimReport, Simulation, StorageBackend,
    TelemetryMode,
};
use prorp_telemetry::{IncidentEntry, IncidentKind};
use prorp_types::{DatabaseId, DbState, PolicyConfig, RetryPolicy, Seconds, Timestamp};
use prorp_workload::{RegionName, RegionProfile, Trace};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use testkit::oracles::{assert_reports_equal, DAY, MEASURE_DAY, SPAN_DAYS};

fn fleet(seed: u64, dbs: usize) -> Vec<Trace> {
    RegionProfile::for_region(RegionName::Eu1).generate_fleet(
        dbs,
        Timestamp(0),
        Timestamp(SPAN_DAYS * DAY),
        seed,
    )
}

fn base_config(policy: SimPolicy, shards: usize) -> SimConfigBuilder {
    SimConfig::builder(
        policy,
        Timestamp(0),
        Timestamp(SPAN_DAYS * DAY),
        Timestamp(MEASURE_DAY * DAY),
    )
    .shards(shards)
    .observe(
        ObsConfig::with_snapshots(Seconds::days(7))
            .with_slo(SloConfig::default())
            .with_explain(),
    )
    .telemetry_mode(TelemetryMode::Full)
}

/// Flatten traces into the wire-form event stream, in trace order (the
/// order a recorded production stream would interleave arrivals).
fn stream_of(traces: &[Trace]) -> Vec<LiveEvent> {
    let mut events = Vec::new();
    for t in traces {
        for s in &t.sessions {
            events.push(LiveEvent {
                db: t.db,
                at: s.start,
                kind: LiveEventKind::Login,
            });
            events.push(LiveEvent {
                db: t.db,
                at: s.end,
                kind: LiveEventKind::Logout,
            });
        }
    }
    events.sort_by_key(|e| e.at);
    events
}

/// Replay `events` through a [`LiveDriver`], ingesting everything that
/// falls inside each `[watermark, watermark + chunk)` window right
/// before advancing past it.
fn run_live(cfg: &SimConfig, traces: &[Trace], events: &[LiveEvent], chunk: Seconds) -> SimReport {
    let ids: Vec<DatabaseId> = traces.iter().map(|t| t.db).collect();
    let mut driver = LiveDriver::new(cfg, &ids).expect("live driver builds");
    let mut window_start = cfg.start;
    while window_start < cfg.end {
        let window_end = (window_start + chunk).min(cfg.end);
        for ev in events {
            if ev.at >= window_start && ev.at < window_end {
                assert_eq!(driver.ingest(*ev), IngestOutcome::Accepted, "{ev:?}");
            }
        }
        driver.advance_to(window_end).expect("advance");
        window_start = window_end;
    }
    driver.finish().expect("live run finishes")
}

/// Everything [`assert_reports_equal`] covers, plus the full telemetry
/// event log and the deterministic observability surface (span trace +
/// volatile-masked metrics snapshots) — "identical decisions, KPI
/// counters, and span traces" from the issue, literally.
fn assert_live_identical(des: &SimReport, live: &SimReport, context: &str) {
    assert_reports_equal(des, live, context);
    assert!(!des.telemetry.is_empty(), "{context}: a Full run logs");
    assert_eq!(
        des.telemetry.events(),
        live.telemetry.events(),
        "{context}: decision (telemetry) logs differ"
    );
    assert_eq!(
        des.telemetry_summary, live.telemetry_summary,
        "{context}: telemetry summaries differ"
    );
    match (&des.obs, &live.obs) {
        (Some(a), Some(b)) => {
            assert_eq!(a.trace, b.trace, "{context}: span traces differ");
            let da: Vec<_> = a.snapshots.iter().map(|s| s.deterministic()).collect();
            let db: Vec<_> = b.snapshots.iter().map(|s| s.deterministic()).collect();
            assert_eq!(da, db, "{context}: metrics snapshot series differ");
            // SLO rollups, their derived rows, and the burn-rate alert
            // log must agree bit for bit — the fleet-scale surface an
            // operator actually pages on.
            assert_eq!(a.slo, b.slo, "{context}: SLO series differ");
            assert_eq!(a.alerts(), b.alerts(), "{context}: alert logs differ");
            // Decision provenance rides inside the trace; compare the
            // explain records on their own too so a regression names
            // the surface that broke.
            let explains = |r: &prorp_obs::ObsReport| -> Vec<_> {
                r.trace
                    .iter()
                    .filter(|t| matches!(t.kind, prorp_obs::SpanKind::Decision { .. }))
                    .cloned()
                    .collect()
            };
            let (ea, eb) = (explains(a), explains(b));
            assert_eq!(ea, eb, "{context}: decision explains differ");
        }
        (a, b) => assert_eq!(
            a.is_some(),
            b.is_some(),
            "{context}: observability presence differs"
        ),
    }
}

fn run_des(cfg: &SimConfig, traces: &[Trace]) -> SimReport {
    Simulation::new(cfg.clone(), traces.to_vec())
        .expect("config validates")
        .run()
        .expect("DES completes")
}

#[test]
fn live_matches_des_at_one_and_eight_shards() {
    let traces = fleet(4242, 16);
    let events = stream_of(&traces);
    for policy in [
        SimPolicy::Reactive,
        SimPolicy::Proactive(PolicyConfig::default()),
    ] {
        for shards in [1usize, 8] {
            let cfg = base_config(policy.clone(), shards)
                .build()
                .expect("config validates");
            let des = run_des(&cfg, &traces);
            let live = run_live(&cfg, &traces, &events, Seconds::hours(6));
            assert_live_identical(
                &des,
                &live,
                &format!("{} @ {shards} shard(s)", cfg.policy.label()),
            );
        }
    }
}

/// The storage seam reaches service mode too: a live driver running
/// the LSM backend must make decisions bit-identical to the DES running
/// the same backend.
#[test]
fn live_lsm_matches_des() {
    let traces = fleet(909, 12);
    let events = stream_of(&traces);
    for shards in [1usize, 4] {
        let cfg = base_config(SimPolicy::Proactive(PolicyConfig::default()), shards)
            .storage_backend(StorageBackend::Lsm)
            .build()
            .expect("config validates");
        let des = run_des(&cfg, &traces);
        let live = run_live(&cfg, &traces, &events, Seconds::hours(6));
        assert_live_identical(&des, &live, &format!("lsm @ {shards} shard(s)"));
    }
}

#[test]
fn live_matches_des_under_fault_injection() {
    let traces = fleet(77, 12);
    let events = stream_of(&traces);
    for shards in [1usize, 8] {
        let cfg = base_config(SimPolicy::Proactive(PolicyConfig::default()), shards)
            .stage_failure_probabilities(0.3)
            .retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Seconds(20),
                max_backoff: Seconds::minutes(2),
            })
            .stuck_probability(0.05)
            .diagnostics_period(Seconds::minutes(5))
            .forecast_fail_every(5)
            .build()
            .expect("config validates");
        let des = run_des(&cfg, &traces);
        let live = run_live(&cfg, &traces, &events, Seconds::hours(3));
        assert_live_identical(&des, &live, &format!("faulty @ {shards} shard(s)"));
        // The fault layer actually fired — the differential is not
        // vacuous.
        assert!(
            des.workflow.retries > 0 || des.giveups > 0,
            "fault knobs produced no faults; tighten the config"
        );
    }
}

/// SplitMix64's output function: a stateless 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic in-place Fisher–Yates, keyed by a proptest-chosen seed
/// (`Date`-free and `rand`-free: the testkit only vendors proptest).
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(seed)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One `Connection: close` HTTP exchange: `(status, body)`.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read reply");
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status, body.to_string())
}

/// An `ApiServer` and, beside it, a `LiveDriver` fed the identical
/// stream: the mirror is the driver state the server's reads must show,
/// and `open` is the open-incident fold over the whole canonical log
/// ([`LiveDriver::incidents`]), less what an operator resume cleared.
struct Mirrored {
    server: ApiServer,
    mirror: LiveDriver,
    ids: Vec<DatabaseId>,
    incidents_seen: usize,
    open: HashMap<DatabaseId, IncidentEntry>,
}

impl Mirrored {
    fn boot(cfg: &SimConfig, ids: &[DatabaseId]) -> Mirrored {
        let server = ApiServer::start(
            "127.0.0.1:0",
            cfg,
            ids,
            Arc::new(InMemoryBackend::new()),
            ServerConfig::VirtualClock,
        )
        .expect("server boots");
        Mirrored {
            server,
            mirror: LiveDriver::new(cfg, ids).expect("mirror builds"),
            ids: ids.to_vec(),
            incidents_seen: 0,
            open: HashMap::new(),
        }
    }

    /// Deliver `events` to both; the server must classify each one the
    /// way the mirror does.
    fn ingest(&mut self, events: &[LiveEvent]) {
        let body = Json::object(vec![(
            "events",
            Json::Array(events.iter().map(LiveEvent::to_json).collect()),
        )])
        .render();
        let (status, reply) = http(self.server.addr(), "POST", "/v1/events", &body);
        assert_eq!(status, 200, "{reply}");
        let expected: Vec<Json> = events
            .iter()
            .map(|ev| Json::Str(self.mirror.ingest(*ev).label().into()))
            .collect();
        let reply = json::parse(&reply).expect("ingest reply parses");
        assert_eq!(reply.get("results"), Some(&Json::Array(expected)));
    }

    fn advance_to(&mut self, to: Timestamp) {
        let body = format!(r#"{{"to":{}}}"#, to.as_secs());
        let (status, reply) = http(self.server.addr(), "POST", "/v1/clock/advance", &body);
        assert_eq!(status, 200, "{reply}");
        self.mirror.advance_to(to).expect("mirror advances");
        let incidents = self.mirror.incidents();
        for entry in &incidents[self.incidents_seen..] {
            self.open.insert(entry.db, *entry);
        }
        self.incidents_seen = incidents.len();
    }

    fn force(&mut self, id: DatabaseId, resume: bool) {
        let verb = if resume { "resume" } else { "pause" };
        let path = format!("/v1/databases/{}/{verb}", id.raw());
        let (status, reply) = http(self.server.addr(), "POST", &path, "");
        let scheduled = if resume {
            self.mirror.force_resume(id)
        } else {
            self.mirror.force_pause(id)
        };
        assert_eq!(status == 200, scheduled, "{reply}");
        if resume && scheduled {
            self.open.remove(&id);
        }
    }

    /// The body `GET /v1/databases/:id` must answer with: the mirror's
    /// engine state, prediction and counters, the open-incident fold,
    /// and the watermark as `as_of`.
    fn expected_read(&self, id: DatabaseId) -> Json {
        let m = &self.mirror;
        let state = match m.db_state(id).expect("registered") {
            DbState::Resumed => "resumed",
            DbState::LogicallyPaused => "logically-paused",
            DbState::PhysicallyPaused => "physically-paused",
        };
        let prediction = m.db_prediction(id).map_or(Json::Null, |p| {
            Json::object(vec![
                ("start", Json::Int(p.start.as_secs())),
                ("end", Json::Int(p.end.as_secs())),
                ("confidence", Json::Float(p.confidence)),
            ])
        });
        let incident = self.open.get(&id).map_or(Json::Null, |i| {
            Json::object(vec![
                ("at", Json::Int(i.at.as_secs())),
                ("kind", Json::Str(i.kind.label().into())),
            ])
        });
        let c = m.db_counters(id).expect("registered");
        Json::object(vec![
            ("db", Json::from(id.raw())),
            ("state", Json::Str(state.into())),
            ("prediction", prediction),
            ("open_incident", incident),
            (
                "counters",
                Json::object(vec![
                    ("logins_available", Json::from(c.logins_available)),
                    ("logins_unavailable", Json::from(c.logins_unavailable)),
                    ("logical_pauses", Json::from(c.logical_pauses)),
                    ("physical_pauses", Json::from(c.physical_pauses)),
                    ("proactive_resumes", Json::from(c.proactive_resumes)),
                ]),
            ),
            ("as_of", Json::Int(m.watermark().as_secs())),
        ])
    }

    /// For **every** registered database: the read answers with the
    /// mirror's record, and with 503 exactly while an incident is open.
    fn assert_reads(&self, context: &str) {
        for &id in &self.ids {
            let context = format!("{context}, {id} at {}", self.mirror.watermark());
            let (status, body) = http(
                self.server.addr(),
                "GET",
                &format!("/v1/databases/{}", id.raw()),
                "",
            );
            let expected = if self.open.contains_key(&id) {
                503
            } else {
                200
            };
            assert_eq!(status, expected, "{context}: {body}");
            let want = json::parse(&self.expected_read(id).render()).expect("record renders");
            assert_eq!(
                json::parse(&body).expect("record parses"),
                want,
                "{context}: stale read"
            );
        }
    }
}

/// Replay `traces` through a mirrored server — arrivals shuffled and
/// partly duplicated inside each window, a late and an unknown event
/// per window, operator resumes and pauses in between, windows of
/// uneven length — reading every database back after every step.
/// Returns the incident kinds that were open at some point.
fn check_reads(cfg: &SimConfig, traces: &[Trace], seed: u64) -> Vec<IncidentKind> {
    let events = stream_of(traces);
    let ids: Vec<DatabaseId> = traces.iter().map(|t| t.db).collect();
    let mut m = Mirrored::boot(cfg, &ids);
    m.assert_reads("boot");
    let mut kinds = Vec::new();
    let mut window_start = cfg.start;
    let mut window_index = 0u64;
    while window_start < cfg.end {
        // Window lengths of 1–48 h, operator picks and shuffles all
        // derive from the one seed.
        let pick = |salt: u64, n: u64| mix(seed ^ window_index ^ (salt << 32)) % n;
        let window_end = (window_start + Seconds::hours(1 + pick(1, 48) as i64)).min(cfg.end);
        let mut arrivals: Vec<LiveEvent> = events
            .iter()
            .copied()
            .filter(|e| e.at >= window_start && e.at < window_end)
            .collect();
        shuffle(&mut arrivals, seed ^ window_index);
        let duplicates: Vec<LiveEvent> = arrivals.iter().copied().step_by(3).collect();
        arrivals.extend(duplicates);
        arrivals.push(LiveEvent {
            db: DatabaseId(u64::MAX),
            at: window_start,
            kind: LiveEventKind::Login,
        });
        if window_start > cfg.start {
            arrivals.push(LiveEvent {
                db: ids[0],
                at: Timestamp(window_start.as_secs() - 1),
                kind: LiveEventKind::Login,
            });
        }
        m.ingest(&arrivals);
        if pick(2, 3) == 0 {
            let id = ids[pick(3, ids.len() as u64) as usize];
            m.force(id, pick(4, 2) == 0);
            m.assert_reads(&format!("operator action in window {window_index}"));
        }
        m.advance_to(window_end);
        m.assert_reads(&format!("advance {window_index}"));
        for entry in m.open.values() {
            if !kinds.contains(&entry.kind) {
                kinds.push(entry.kind);
            }
        }
        // An open incident is the operator's to close, and the next read
        // shows it closed.
        if let Some(&id) = m.open.keys().min() {
            if pick(5, 2) == 0 {
                m.force(id, true);
                m.assert_reads(&format!("incident cleared after advance {window_index}"));
            }
        }
        window_start = window_end;
        window_index += 1;
    }
    // Sealing the run moves no watermark: reads keep answering as of the
    // last advance.
    let (status, body) = http(m.server.addr(), "POST", "/v1/finish", "");
    assert_eq!(status, 200, "{body}");
    m.assert_reads("after finish");
    m.server.shutdown();
    kinds
}

/// A fault layer that raises both incident kinds: exhausted retry
/// budgets, and hung workflows the diagnostics sweep mitigates twice.
fn incident_prone(policy: SimPolicy, shards: usize) -> SimConfig {
    base_config(policy, shards)
        .stage_failure_probabilities(0.3)
        .retry(RetryPolicy {
            max_attempts: 2,
            base_backoff: Seconds(20),
            max_backoff: Seconds::minutes(2),
        })
        .stuck_probability(0.2)
        .diagnostics_period(Seconds::minutes(5))
        .build()
        .expect("config validates")
}

#[test]
fn reads_carry_both_incident_kinds() {
    let traces = fleet(77, 8);
    for (policy, shards) in [
        (SimPolicy::Reactive, 1),
        (SimPolicy::Proactive(PolicyConfig::default()), 2),
    ] {
        let kinds = check_reads(&incident_prone(policy, shards), &traces, 5);
        assert!(
            kinds.contains(&IncidentKind::StuckWorkflow)
                && kinds
                    .iter()
                    .any(|k| matches!(k, IncidentKind::RetryExhausted { .. })),
            "the differential is vacuous, tighten the fault knobs: {kinds:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ingest idempotency + intra-window reorder tolerance: shuffle the
    /// arrivals inside every watermark window, redeliver a sample of
    /// them as duplicates (same window *and* after their window closed),
    /// and the final report still matches the clean DES run bit for bit.
    #[test]
    fn ingest_is_idempotent_and_reorder_tolerant(
        fleet_seed in 0u64..1_000,
        shuffle_seed in any::<u64>(),
        chunk_hours in 1i64..48,
        shards in 1u64..4,
    ) {
        let traces = fleet(fleet_seed, 6);
        let events = stream_of(&traces);
        let cfg = base_config(SimPolicy::Proactive(PolicyConfig::default()), shards as usize)
            .build()
            .expect("config validates");
        let des = run_des(&cfg, &traces);

        let ids: Vec<DatabaseId> = traces.iter().map(|t| t.db).collect();
        let mut driver = LiveDriver::new(&cfg, &ids).expect("live driver builds");
        let chunk = Seconds::hours(chunk_hours);
        let mut window_start = cfg.start;
        let mut window_index = 0u64;
        let mut previous: Option<LiveEvent> = None;
        while window_start < cfg.end {
            let window_end = (window_start + chunk).min(cfg.end);
            let mut arrivals: Vec<LiveEvent> = events
                .iter()
                .copied()
                .filter(|e| e.at >= window_start && e.at < window_end)
                .collect();
            // Arbitrary arrival order within the window…
            shuffle(&mut arrivals, shuffle_seed ^ window_index);
            // …with every third delivery duplicated immediately.
            for (i, ev) in arrivals.iter().enumerate() {
                prop_assert_eq!(driver.ingest(*ev), IngestOutcome::Accepted);
                if i % 3 == 0 {
                    prop_assert_eq!(driver.ingest(*ev), IngestOutcome::Duplicate);
                }
            }
            // Redelivery from an already-committed window is rejected
            // as late — it cannot rewrite history.
            if let Some(old) = previous {
                prop_assert_eq!(driver.ingest(old), IngestOutcome::Late);
            }
            previous = arrivals.first().copied().or(previous);
            driver.advance_to(window_end).expect("advance");
            window_start = window_end;
            window_index += 1;
        }
        let live = driver.finish().expect("live run finishes");
        assert_live_identical(&des, &live, "shuffled+duplicated replay");
    }
}

proptest! {
    // Every case boots a server and reads the whole fleet back over
    // HTTP after every step; a dozen cases keep the suite quick.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every read ≡ the mirrored driver: whatever the stream, the
    /// window boundaries and the operator do, every database reads back
    /// as the mirror holds it, as of the watermark — also after finish.
    #[test]
    fn every_read_matches_the_mirrored_driver(
        fleet_seed in 0u64..1_000,
        seed in any::<u64>(),
        shards in 1usize..3,
        proactive in any::<bool>(),
    ) {
        let policy = if proactive {
            SimPolicy::Proactive(PolicyConfig::default())
        } else {
            SimPolicy::Reactive
        };
        check_reads(&incident_prone(policy, shards), &fleet(fleet_seed, 6), seed);
    }
}
