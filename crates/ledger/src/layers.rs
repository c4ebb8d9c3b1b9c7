//! Per-layer replays: the first databases of a workload walked through
//! one layer at a time, by calling that layer's public functions
//! directly.  The traced run says how long `step_until` takes as a
//! whole; these say what each crate underneath it costs per operation,
//! on the workload's own inputs and with the workload's own knobs.

use crate::outcome::Outcome;
use crate::spec::{self, Sizes};
use prorp_core::{
    DatabasePolicy, EngineAction, EngineEvent, ProactiveEngine, ProactiveResumeOp, ReactiveEngine,
    TimerToken,
};
use prorp_forecast::{ConfidenceBasis, IncrementalPredictor, Predictor, SweepScratch};
use prorp_obs::{QuantileSketch, SloSeries};
use prorp_sim::{CompactionMode, SimConfig, SimPolicy, SimReport, StorageBackend, TelemetryMode};
use prorp_storage::{
    CompactionScheduler, DbMeta, HistoryBackend, HistoryRead, HistoryStore, MetadataStore,
};
use prorp_telemetry::{TelemetryKind, TelemetryLog, TelemetryMergeIter};
use prorp_types::{
    ActivityEvent, DatabaseId, DbState, EventKind, PolicyConfig, Seconds, Timestamp,
};
use prorp_workload::{LazyFleet, Trace, TraceSource};
use std::hint::black_box;
use std::time::Instant;

/// The reactive engine's fixed knobs, as `prorp-sim` builds it.
const REACTIVE_LOGICAL_PAUSE: Seconds = Seconds::hours(7);
const REACTIVE_HISTORY: Seconds = Seconds::days(28);

/// A trace's boundary events inside the simulated window.
fn clipped_events(trace: &Trace, cfg: &SimConfig) -> Vec<ActivityEvent> {
    trace
        .events()
        .into_iter()
        .filter(|e| e.ts >= cfg.start && e.ts < cfg.end)
        .collect()
}

/// One database's engine under replay, with the timers it has asked for.
struct EngineDrive<'a, E> {
    engine: &'a mut E,
    timers: Vec<(Timestamp, TimerToken)>,
    explain: bool,
    delivered: u64,
}

impl<E: DatabasePolicy> EngineDrive<'_, E> {
    fn deliver(&mut self, now: Timestamp, event: EngineEvent) {
        for action in self.engine.on_event(now, event) {
            if let EngineAction::ScheduleTimer(at, token) = action {
                self.timers.push((at, token));
            }
        }
        if self.explain {
            black_box(self.engine.drain_explains());
        }
        self.delivered += 1;
    }

    /// Fire every timer due at or before `limit`, earliest first (a
    /// fired timer may schedule another one inside the limit).
    fn fire_due(&mut self, limit: Timestamp) {
        while let Some(next) = (0..self.timers.len()).min_by_key(|&i| self.timers[i]) {
            if self.timers[next].0 > limit {
                break;
            }
            let (at, token) = self.timers.swap_remove(next);
            self.deliver(at, EngineEvent::Timer(token));
        }
    }
}

/// Replay one database through its engine: logins and logouts from the
/// trace, plus every timer the engine schedules (due timers first, as
/// the event queue orders control-plane work before logins).  Returns
/// the number of events delivered.
fn drive_engine<E: DatabasePolicy>(
    engine: &mut E,
    events: &[ActivityEvent],
    cfg: &SimConfig,
) -> u64 {
    let explain = cfg.observe().explain;
    engine.set_explain_enabled(explain);
    let mut drive = EngineDrive {
        engine,
        timers: Vec::new(),
        explain,
        delivered: 0,
    };
    for ev in events {
        drive.fire_due(ev.ts);
        let event = match ev.kind {
            EventKind::Start => EngineEvent::ActivityStart,
            EventKind::End => EngineEvent::ActivityEnd,
        };
        drive.deliver(ev.ts, event);
    }
    drive.fire_due(cfg.end);
    drive.delivered
}

/// Where an engine replay left one database: what `sys.databases` holds.
type EndState = (DbState, Option<Timestamp>);

/// Time one engine over one database's events; returns where it ended.
fn replay_one<E: DatabasePolicy>(
    mut engine: E,
    events: &[ActivityEvent],
    cfg: &SimConfig,
    total: &mut (u64, u64),
) -> EndState {
    let t0 = Instant::now();
    total.1 += drive_engine(&mut engine, events, cfg);
    total.0 += t0.elapsed().as_nanos() as u64;
    (engine.state(), engine.current_prediction().map(|p| p.start))
}

/// `core.engine_ns_per_event`: each database's trace through its policy
/// engine (history store and predictor included — the engine owns
/// both), no simulator around it.
fn engine_replay(
    out: &mut Outcome,
    cfg: &SimConfig,
    events: &[Vec<ActivityEvent>],
) -> Vec<EndState> {
    let scratch = SweepScratch::shared();
    // (nanoseconds, events delivered)
    let mut total = (0u64, 0u64);
    let end_states = events
        .iter()
        .map(|db_events| match &cfg.policy {
            SimPolicy::Proactive(pc) => {
                let predictor = IncrementalPredictor::with_scratch(
                    *pc,
                    ConfidenceBasis::Windows,
                    scratch.clone(),
                )
                .expect("validated by the config");
                let engine = ProactiveEngine::with_backend(
                    *pc,
                    predictor,
                    cfg.fault().breaker,
                    cfg.storage_backend,
                )
                .expect("validated by the config");
                replay_one(engine, db_events, cfg, &mut total)
            }
            _ => {
                let engine = ReactiveEngine::with_backend(
                    REACTIVE_LOGICAL_PAUSE,
                    REACTIVE_HISTORY,
                    cfg.storage_backend,
                )
                .expect("fixed knobs are valid");
                replay_one(engine, db_events, cfg, &mut total)
            }
        })
        .collect();
    if total.1 > 0 {
        out.put_one("core.engine_ns_per_event", total.0 as f64 / total.1 as f64);
    }
    end_states
}

/// `core.resume_scan_ns_per_tick`: Algorithm 5 over a `sys.databases`
/// of the workload's size, filled with the state mix the engine replay
/// ended in, one tick per scan period across a simulated day.
fn resume_scan_replay(out: &mut Outcome, cfg: &SimConfig, dbs: usize, end_states: &[EndState]) {
    if end_states.is_empty() {
        return;
    }
    let mut store = MetadataStore::new();
    for i in 0..dbs {
        let (state, pred_start) = end_states[i % end_states.len()];
        store.upsert(DatabaseId(i as u64), DbMeta { state, pred_start });
    }
    let first = cfg.end - Seconds::hours(12);
    let mut op = ProactiveResumeOp::new(cfg.prewarm, cfg.resume_op_period, first)
        .expect("validated by the config");
    let ticks = Seconds::days(1).as_secs() / cfg.resume_op_period.as_secs().max(1);
    let t0 = Instant::now();
    for _ in 0..ticks {
        let now = op.next_run();
        black_box(op.run(now, std::slice::from_ref(&store)));
    }
    out.put_one(
        "core.resume_scan_ns_per_tick",
        t0.elapsed().as_nanos() as f64 / ticks as f64,
    );
}

/// A fresh history store set up the way the workload's engines set
/// theirs up.
fn new_history(
    cfg: &SimConfig,
    policy: Option<&PolicyConfig>,
    compactor: Option<&CompactionScheduler>,
) -> HistoryBackend {
    let mut h = HistoryBackend::new(cfg.storage_backend);
    if let Some(pc) = policy {
        h.configure_slot_index(pc.seasonality.period(), pc.slide);
    }
    if let Some(sched) = compactor {
        h.attach_compaction(sched);
    }
    h
}

/// `storage.*` and `forecast.predict_ns_per_call`: the same sessions
/// into a bare `HistoryBackend` — `insert_history` per event,
/// `delete_old_history` once per simulated day, then Algorithm 4's
/// window positions as `login_window_stats` calls — and, on a second
/// pass so the two timings do not share a loop, the workload's
/// predictor on the growing history at every logout.
fn storage_and_forecast_replay(out: &mut Outcome, cfg: &SimConfig, events: &[Vec<ActivityEvent>]) {
    let policy = match &cfg.policy {
        SimPolicy::Proactive(pc) => Some(pc),
        _ => None,
    };
    let history_len = policy.map_or(REACTIVE_HISTORY, |pc| pc.history_len);
    let compactor = (cfg.compaction_mode == CompactionMode::Background
        && cfg.storage_backend == StorageBackend::Lsm)
        .then(CompactionScheduler::new);
    let days = cfg.end.since(cfg.start).as_days();

    let (mut insert_ns, mut inserts) = (0u64, 0u64);
    let (mut trim_ns, mut trims) = (0u64, 0u64);
    let (mut scan_ns, mut scans) = (0u64, 0u64);
    for (i, db_events) in events.iter().enumerate() {
        let mut h = new_history(cfg, policy, compactor.as_ref());
        let mut next = 0;
        for day in 1..=days {
            let day_end = cfg.start + Seconds::days(day);
            let upto = next + db_events[next..].partition_point(|e| e.ts < day_end);
            let t0 = Instant::now();
            for e in &db_events[next..upto] {
                black_box(h.insert_history(e.ts, e.kind));
            }
            insert_ns += t0.elapsed().as_nanos() as u64;
            inserts += (upto - next) as u64;
            next = upto;
            let t0 = Instant::now();
            black_box(h.delete_old_history(history_len, day_end));
            trim_ns += t0.elapsed().as_nanos() as u64;
            trims += 1;
        }
        // Algorithm 4's read pattern, on every fourth database (each one
        // is ~5.7k window probes at Table-1 defaults).
        if let Some(pc) = policy.filter(|_| i % 4 == 0) {
            let t0 = Instant::now();
            let mut win_start = cfg.end;
            while win_start + pc.window <= cfg.end + pc.horizon {
                for prev in 1..=pc.periods_in_history() {
                    let lo = win_start - pc.seasonality.period() * prev;
                    black_box(h.login_window_stats(lo, lo + pc.window));
                    scans += 1;
                }
                win_start += pc.slide;
            }
            scan_ns += t0.elapsed().as_nanos() as u64;
        }
        h.detach_compaction();
    }
    if inserts > 0 {
        out.put_one(
            "storage.insert_ns_per_op",
            insert_ns as f64 / inserts as f64,
        );
    }
    if trims > 0 {
        out.put_one("storage.trim_ns_per_pass", trim_ns as f64 / trims as f64);
    }
    if scans > 0 {
        out.put_one(
            "storage.window_scan_ns_per_op",
            scan_ns as f64 / scans as f64,
        );
    }

    let Some(pc) = policy else { return };
    let mut predictor = IncrementalPredictor::new(*pc).expect("validated by the config");
    let (mut predict_ns, mut calls) = (0u64, 0u64);
    for db_events in events {
        let mut h = new_history(cfg, policy, compactor.as_ref());
        for e in db_events {
            h.insert_history(e.ts, e.kind);
            if e.kind == EventKind::End {
                let history: &dyn HistoryRead = &h;
                let t0 = Instant::now();
                black_box(predictor.predict(history, e.ts).ok());
                predict_ns += t0.elapsed().as_nanos() as u64;
                calls += 1;
            }
        }
        h.detach_compaction();
    }
    if calls > 0 {
        let replayed = predict_ns as f64 / calls as f64;
        out.put_one("forecast.predict_ns_per_call", replayed);
        if let Some(in_run) = out.value("forecast.in_run_predict_ns_mean") {
            let ratio = replayed / in_run;
            let verdict = if (0.5..=2.0).contains(&ratio) {
                "agree within 2x"
            } else {
                "DISAGREE by more than 2x: the replay is unrepresentative"
            };
            out.notes.push(format!(
                "forecast replay {replayed:.0} ns/call vs in-run mean {in_run:.0} ns/call: {verdict}"
            ));
        }
    }
}

/// `telemetry.merge_ns_per_event`: the run's Full log re-split by shard
/// and put back together by the k-way merge.
fn telemetry_replay(out: &mut Outcome, cfg: &SimConfig, report: &SimReport) {
    if cfg.telemetry_mode != TelemetryMode::Full || report.telemetry.is_empty() {
        return;
    }
    let mut parts: Vec<Vec<_>> = vec![Vec::new(); cfg.shards];
    for e in report.telemetry.events() {
        parts[e.db.shard_of(cfg.shards)].push(*e);
    }
    let logs: Vec<TelemetryLog> = parts
        .into_iter()
        .map(TelemetryLog::from_sorted_events)
        .collect();
    let t0 = Instant::now();
    let merged = TelemetryMergeIter::new(logs).count();
    let ns = t0.elapsed().as_nanos() as f64;
    out.put_one("telemetry.merge_ns_per_event", ns / merged.max(1) as f64);
}

/// `obs.sketch_observe_ns` and `obs.slo_ingest_ns_per_event`: direct
/// calls, as `obs_bench` makes them, fed from the run's own telemetry.
fn obs_replay(out: &mut Outcome, cfg: &SimConfig, report: &SimReport) {
    if !cfg.observe().enabled {
        return;
    }
    // A splitmix64 stream of latency-shaped values, seconds to a day.
    let mut state = 7u64;
    let values: Vec<i64> = (0..200_000)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let magnitude = 1i64 << (z % 17);
            magnitude + ((z >> 20) % magnitude as u64) as i64
        })
        .collect();
    let mut sketch = QuantileSketch::new();
    let t0 = Instant::now();
    for &v in &values {
        sketch.observe(v);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(sketch.count());
    out.put_one("obs.sketch_observe_ns", ns / values.len() as f64);

    let Some(slo) = cfg.observe().slo else { return };
    let mut series = SloSeries::new(slo);
    let mut fed = 0u64;
    let t0 = Instant::now();
    for e in report.telemetry.events() {
        match e.kind {
            TelemetryKind::Login { available } => series.on_login(e.ts, e.db, available),
            TelemetryKind::ProactiveResume => series.on_proactive_resume(e.ts, e.db),
            _ => continue,
        }
        fed += 1;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(series.rows().len());
    if fed > 0 {
        out.put_one("obs.slo_ingest_ns_per_event", ns / fed as f64);
    }
}

/// Every DES replay, over the first [`spec::REPLAY_DBS`] databases.
pub fn des_replays(
    out: &mut Outcome,
    cfg: &SimConfig,
    fleet: &LazyFleet,
    report: &SimReport,
    sizes: Sizes,
) {
    let k = sizes.dbs.min(spec::REPLAY_DBS);
    let events: Vec<Vec<ActivityEvent>> = (0..k)
        .map(|i| clipped_events(&fleet.trace(i), cfg))
        .collect();
    let end_states = engine_replay(out, cfg, &events);
    resume_scan_replay(out, cfg, sizes.dbs, &end_states);
    storage_and_forecast_replay(out, cfg, &events);
    telemetry_replay(out, cfg, report);
    obs_replay(out, cfg, report);
}
