//! The per-shard event loop of the sharded fleet simulation.
//!
//! A region-scale run (§9 evaluates fleets of hundreds of thousands of
//! databases) is embarrassingly parallel *almost* everywhere: policy
//! engines, segment accounting, and the Algorithm 5 scan are all
//! per-database or per-partition work.  This module exploits that by
//! partitioning the fleet by id-hash ([`DatabaseId::shard_of`]) into
//! `SimConfig::shards` shards and running one complete event loop per
//! shard, each with its own:
//!
//! * [`EventQueue`] over the shard's traces only;
//! * cluster slice ([`Cluster::with_node_range`]) with globally unique
//!   node ids, full `nodes × node_capacity` per shard;
//! * shard-local `sys.databases` ([`MetadataStore`]) scanned by a
//!   shard-local Algorithm 5 [`ProactiveResumeOp`] on the *same* tick
//!   schedule as every other shard — its id column and id→row lookup
//!   are also the shard's one record of which database sits at which
//!   slot;
//! * book of in-flight reactive resumes (`diagnostics::Resumes`), the
//!   only record of one: each handler that starts, supersedes, completes,
//!   gives up on or mitigates a resume makes one call on it, and a hung
//!   resume outlives its customer's logout (still swept, still
//!   escalated) where a staged one does not;
//! * maintenance scheduler.
//!
//! # Determinism guarantee
//!
//! The merged report is a pure function of `(seed, traces)` regardless of
//! the shard count: every cross-shard quantity is either an integer sum
//! (segment totals, login/workflow counts, telemetry counts, retry/giveup
//! counters, stage latency histograms, batch sizes per tick) or a
//! deterministic k-way merge (the incident log, and the telemetry log of
//! a [`TelemetryMode::Full`] run).  No stateful RNG exists
//! anywhere in the loop: whether a workflow hangs (`workflow_hangs`),
//! whether a workflow *stage* fails, and how much jitter its backoff
//! draws ([`ResumeWorkflow`]) are all stateless per-key SplitMix64
//! draws, so fault behaviour does not depend on which shard processes a
//! database or in what order.  Fleet KPIs are computed
//! once, from the summed integer segment totals, never by averaging
//! per-shard ratios — which is also why an empty shard (zero databases
//! hash into it) contributes exactly nothing instead of skewing the
//! QoS/COGS fractions.
//!
//! The guarantee covers uncontended capacity (the default
//! `nodes × node_capacity` is sized so resumes never spill).  Under
//! deliberate capacity pressure the partitioning itself changes placement
//! dynamics — two databases that competed for one node may land in
//! different shards — exactly as moving a database to a different ring
//! would in production.

use crate::cluster::{AllocationOutcome, Cluster};
use crate::config::{SimConfig, SimPolicy};
use crate::diagnostics::{Resumes, Staged};
use crate::events::{EventQueue, SimEvent};
use crate::fleet::FleetState;
use crate::obs::ShardObs;
use crate::prefetch::prefetch;
use prorp_core::invariants::{check_history, transition_allowed};
use prorp_core::{
    Actions, EngineAction, EngineCounters, EngineEvent, MaintenanceScheduler, MaintenanceStats,
    ProactiveResumeOp, ResumeWorkflow, StageOutcome,
};
use prorp_forecast::{ConfidenceBasis, Knobs, SharedKnobs, SweepScratch};
use prorp_obs::{MetricEntry, MetricValue, MetricsSnapshot, ObsPart};
use prorp_storage::{backup_history, restore_backend, HistoryRead, MetadataStore, StorageStats};
use prorp_telemetry::{
    IncidentKind, IncidentLog, LatencyHistogram, SegmentKind, SegmentTotals, ShardCounters,
    TelemetryKind, TelemetryLog, TelemetryMode, TelemetrySummary, WorkflowStats,
};
use prorp_types::{DatabaseId, DbState, ProrpError, Seconds, Timestamp};
use prorp_workload::Trace;
use std::time::Instant;

/// Extra latency a reactive resume pays on its first workflow stage when
/// the allocation crossed nodes (§1).
const MOVE_PENALTY: Seconds = Seconds::minutes(2);
/// Duration of one maintenance job.
const MAINTENANCE_DURATION: Seconds = Seconds::minutes(20);
/// How long a due maintenance job may wait for a predicted-online
/// window before it is forced.
const MAINTENANCE_DEADLINE: Seconds = Seconds::hours(24);
/// How many recorded events ahead the loop prefetches a database's
/// engine, `sys.databases` row and open segment.
const FAR_AHEAD: usize = 8;
/// How many recorded events ahead it prefetches the database's history
/// lines, which it finds through the engine's lines fetched at
/// [`FAR_AHEAD`].
const NEAR_AHEAD: usize = 4;
/// The most clock-index entries prefetched: four lines of 16-byte
/// entries, all of a typical history's.
const CLOCK_ENTRIES: usize = 16;

/// The shard's telemetry, counted where it is recorded: every event
/// bumps the whole-run summary and, inside `[measure_from, end)`, its
/// minute's summary in the window series, and is appended to the log
/// only in [`TelemetryMode::Full`].
struct ShardTelemetry {
    log: Option<TelemetryLog>,
    run: TelemetrySummary,
    /// Minute `m` from `measure_from` at `window[m]`, grown as records
    /// arrive: it ends at the last minute that saw one.
    window: Vec<TelemetrySummary>,
    measured: std::ops::Range<Timestamp>,
}

impl ShardTelemetry {
    fn new(cfg: &SimConfig) -> Self {
        ShardTelemetry {
            log: (cfg.telemetry_mode == TelemetryMode::Full).then(TelemetryLog::new),
            run: TelemetrySummary::new(),
            window: Vec::new(),
            measured: cfg.measure_from..cfg.end,
        }
    }

    /// Forced inline: every login and pause records, and left to the
    /// optimiser some of the loop's record sites become calls.
    #[inline(always)]
    fn record(&mut self, now: Timestamp, id: DatabaseId, kind: TelemetryKind) {
        self.run.record(kind);
        if self.measured.contains(&now) {
            let minute = ((now - self.measured.start).as_secs() / 60) as usize;
            if minute >= self.window.len() {
                self.window.resize_with(minute + 1, TelemetrySummary::new);
            }
            self.window[minute].record(kind);
        }
        if let Some(log) = &mut self.log {
            log.record(now, id, kind);
        }
    }
}

/// Everything one shard worker produced; the runner merges these into the
/// fleet-level [`SimReport`](crate::SimReport).
pub struct ShardOutcome {
    /// Per-database results in shard-trace order: `(id, engine
    /// counters, history storage stats)`.
    pub dbs: Vec<(DatabaseId, EngineCounters, StorageStats)>,
    /// The shard's segment time per kind over `[measure_from, end)`.
    pub segments: SegmentTotals,
    /// The shard's time-ordered telemetry log — empty, and never
    /// allocated, in [`TelemetryMode::Summary`] runs.
    pub telemetry: TelemetryLog,
    /// Per-kind counts of every event the shard recorded, in every mode.
    pub telemetry_summary: TelemetrySummary,
    /// The same counts over the measured window `[measure_from, end)`,
    /// one summary per minute from `measure_from`, ending at the last
    /// minute with an event — the KPI login, pre-warm and pause counts
    /// and the Figure 11/12 bins.
    pub telemetry_window: Vec<TelemetrySummary>,
    /// Algorithm 5 batch sizes, one entry per scan tick.
    pub resume_batches: Vec<usize>,
    /// Spill moves on this shard's cluster slice.
    pub spill_moves: u64,
    /// Load-balancing moves on this shard's cluster slice.
    pub balance_moves: u64,
    /// Over-subscription incidents on this shard's cluster slice.
    pub oversubscriptions: u64,
    /// Hung workflows the shard's diagnostics runner force-completed.
    pub mitigations: u64,
    /// Staged-workflow telemetry: per-stage latency histograms plus
    /// retry/giveup/breaker counters — the one count of give-ups.
    pub workflow: WorkflowStats,
    /// The shard's incident log (canonically ordered by the merge) — the
    /// one count of incidents: repeat stuck databases plus retry-budget
    /// exhaustions.
    pub incident_log: IncidentLog,
    /// Maintenance placement counters.
    pub maintenance: MaintenanceStats,
    /// Timing/throughput counters for this worker.
    pub counters: ShardCounters,
    /// The shard's observability output, its trace still in the
    /// buffer's two lanes (`None` when observability is disabled in the
    /// config).
    pub obs: Option<ObsPart>,
}

/// Stateless fault-injection draw: does the resume workflow that database
/// `db` starts at `now` hang?
///
/// A pure function of `(seed, db, now)` via chained SplitMix64, so the
/// outcome is independent of shard layout and event interleaving — the
/// property that makes sharded runs reproduce the single-threaded run
/// bit-for-bit.
fn workflow_hangs(seed: u64, db: DatabaseId, now: Timestamp, probability: f64) -> bool {
    if probability <= 0.0 {
        return false;
    }
    let mut h = rand::splitmix64(seed ^ 0x5175_636B_5072_6F62); // stream tag
    h = rand::splitmix64(h ^ db.raw());
    h = rand::splitmix64(h ^ now.as_secs() as u64);
    // 53 mantissa bits → uniform in [0, 1).
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < probability
}

/// One shard's complete event-loop state, owned by a driver.  A run's
/// shards are held together by one [`Shards`](crate::Shards), which
/// both drivers use:
///
/// * the DES itself ([`Simulation::run`]): register every trace (which
///   appends its session events to the queue's recorded run — sorted
///   once, when the loop first asks for an event), then
///   [`run_to_end`](Self::run_to_end);
/// * the control-plane server's live driver: register databases with
///   empty traces, feed logins/logouts as they arrive over HTTP via
///   [`inject_login`](Self::inject_login) /
///   [`inject_logout`](Self::inject_logout), and advance the loop to the
///   wall (or virtual) clock's watermark with
///   [`step_until`](Self::step_until).
///
/// Both paths run the *identical* handler code over the *identical*
/// `(timestamp, priority, FIFO)`-ordered [`EventQueue`] — recorded and
/// injected activity sit in different lanes of it, which the pop order
/// cannot tell apart — and that is what makes the sim≡live differential
/// suite's bit-identity assertion possible rather than merely
/// statistical.
///
/// [`Simulation::run`]: crate::Simulation::run
pub struct ShardDriver {
    cfg: SimConfig,
    started: Instant,
    counters: ShardCounters,
    queue: EventQueue,
    cluster: Cluster,
    metadata: MetadataStore,
    telemetry: ShardTelemetry,
    resumes: Resumes,
    workflow_stats: WorkflowStats,
    incident_log: IncidentLog,
    resume_op: ProactiveResumeOp,
    maintenance: MaintenanceScheduler,
    obs: Option<ShardObs>,
    knobs: SharedKnobs,
    fleet: FleetState,
    /// When [`start`](Self::start) ran — the boundary between the
    /// registration and event-loop phases in the volatile wall-time
    /// breakdown.
    register_done: Option<Instant>,
    /// The instant of the event popped last; kept, and checked against
    /// every pop, in debug builds only.
    last_pop: Timestamp,
    /// How far the loop has run: every event before this instant has
    /// been processed ([`step_until`](Self::step_until)'s last stop), so
    /// an event injected before it would be processed out of order.
    horizon: Timestamp,
}

impl ShardDriver {
    /// Build the shard's empty event-loop state.  `expected_dbs`
    /// pre-sizes the per-database arrays; an inexact hint costs a
    /// reallocation, nothing else.
    ///
    /// The config must already be validated ([`SimConfig::check`]);
    /// builder-produced configs always are.
    pub fn new(cfg: &SimConfig, shard: usize, expected_dbs: usize) -> Result<Self, ProrpError> {
        // Each shard owns a full-size slice of the region: `nodes` nodes
        // of `node_capacity`, with globally unique node ids.
        let first_node = u32::try_from(shard * cfg.nodes).map_err(|_| {
            ProrpError::Simulation(format!("node range for shard {shard} overflows u32"))
        })?;
        Ok(ShardDriver {
            started: Instant::now(),
            counters: ShardCounters::new(shard, expected_dbs),
            queue: EventQueue::new(),
            cluster: Cluster::with_node_range(first_node, cfg.nodes, cfg.node_capacity)?,
            metadata: MetadataStore::with_capacity(expected_dbs),
            telemetry: ShardTelemetry::new(cfg),
            resumes: Resumes::new(cfg.stuck_timeout, expected_dbs),
            workflow_stats: WorkflowStats::default(),
            incident_log: IncidentLog::new(),
            // Every shard ticks on the same schedule (first run at
            // `cfg.start`, same period), so batch sizes merge
            // element-wise across shards.
            resume_op: ProactiveResumeOp::new(cfg.prewarm, cfg.resume_op_period, cfg.start)?,
            maintenance: MaintenanceScheduler::new(),
            // Disabled observability stays `None`: no allocations, and
            // every instrumentation site below is one branch on the
            // Option.
            obs: cfg.observe().enabled.then(|| ShardObs::new(cfg.observe())),
            // The run's knobs, once per shard: every engine and predictor
            // the shard registers points at this copy, and its sweep
            // scratch serves them all (the shard steps on one thread at a
            // time, so the lock is never contended).  Per shard, not per
            // process, so no two threads share its reference count.
            knobs: Knobs::shared(
                cfg.policy.config(),
                cfg.fault().breaker,
                ConfidenceBasis::Windows,
                SweepScratch::shared(),
            )?,
            fleet: FleetState::with_capacity(cfg, expected_dbs),
            register_done: None,
            last_pop: cfg.start,
            horizon: cfg.start,
            cfg: cfg.clone(),
        })
    }

    /// Register one database: build its engine, open its first segment,
    /// place it on the cluster, seed `sys.databases`, append the trace's
    /// session events clipped to `[start, end)` to the queue's recorded
    /// run, and stagger its first maintenance due time.
    ///
    /// # The numbering invariant
    ///
    /// `FleetState`, `Cluster` and `MetadataStore` each number databases
    /// in arrival order, and this is the only place a database arrives
    /// at any of them — so the fleet's column index, the cluster's slot
    /// and the `sys.databases` row of a database are one number (asserted
    /// here, per registration).  The store alone maps ids to that number:
    /// a handler resolves an event's id once (`slot_of`) and addresses
    /// all three, the resume book's column and the latest-decision column
    /// with it; nothing on the event path looks an id up a second time.
    ///
    /// A live driver registers databases with *empty* traces (no
    /// pre-recorded sessions) and injects activity as it arrives, into
    /// the queue's run-time lane; the registration side effects and the
    /// sequence numbers drawn are identical either way, which keeps the
    /// two drivers' event queues in the same total order.
    pub fn register(&mut self, trace: &Trace) -> Result<(), ProrpError> {
        if self.metadata.row_of(trace.db).is_some() {
            return Err(ProrpError::Simulation(format!(
                "database {:?} registered twice on one shard",
                trace.db
            )));
        }
        let cfg = &self.cfg;
        let idx = self.fleet.push(cfg, trace, &self.knobs)?;
        // `row_for` writes the new database's row: resumed, no prediction.
        let (slot, row) = (self.cluster.place(), self.metadata.row_for(trace.db));
        assert!(
            slot == row,
            "{}: cluster slot {slot}, sys.databases row {row}",
            trace.db
        );
        debug_assert_eq!(idx, row, "fleet column out of step");
        self.resumes.push_slot();
        if cfg.observe().explain {
            // Decision provenance is captured inside the engine (it owns
            // the inputs — forecast, breaker, history) and rides the reply
            // of the event that decided.
            self.fleet.engines.get_mut(idx).set_explain_enabled(true);
        }
        for s in &trace.sessions {
            if s.start >= cfg.start && s.start < cfg.end {
                self.queue.record_start(s.start, trace.db);
            }
            if s.end >= cfg.start && s.end < cfg.end {
                self.queue.record_end(s.end, trace.db);
            }
        }
        if let Some(p) = cfg.maintenance_period {
            // Stagger first due times across the fleet so jobs do not
            // all land in the same second.
            let stagger = Seconds((trace.db.raw() as i64 % p.as_secs().max(1)).max(1));
            self.queue
                .push(cfg.start + stagger, SimEvent::MaintenanceDue(trace.db));
        }
        Ok(())
    }

    /// Seed the control-plane's periodic events (Algorithm 5 scan,
    /// diagnostics, rebalance, observability snapshots) and mark the end
    /// of registration.  Idempotent; call once after registration.
    pub fn start(&mut self) {
        if self.register_done.is_some() {
            return;
        }
        self.register_done = Some(Instant::now());
        let cfg = &self.cfg;
        if !matches!(cfg.policy, SimPolicy::Optimal) {
            self.queue
                .push(self.resume_op.next_run(), SimEvent::ResumeOpTick);
        }
        if let Some(p) = cfg.diagnostics_period {
            self.queue.push(cfg.start + p, SimEvent::DiagnosticsTick);
        }
        if let Some(p) = cfg.rebalance_period {
            self.queue.push(cfg.start + p, SimEvent::RebalanceTick);
        }
        if let Some(p) = cfg.observe().snapshot_every {
            if cfg.start + p < cfg.end {
                self.queue.push(cfg.start + p, SimEvent::ObsSnapshot);
            }
        }
    }

    /// Whether `id` hashes to this shard ([`DatabaseId::shard_of`]):
    /// whether it is this shard's to register.
    pub fn owns(&self, id: DatabaseId) -> bool {
        id.shard_of(self.cfg.shards) == self.counters.shard
    }

    /// Events the loop has handled so far.
    pub fn events_processed(&self) -> u64 {
        self.counters.events_processed
    }

    /// Current lifecycle state of `id`, if registered here.
    pub fn db_state(&self, id: DatabaseId) -> Option<DbState> {
        let idx = self.metadata.row_of(id)?;
        Some(self.fleet.engines.get(idx).state())
    }

    /// `id`'s currently published prediction, if any.
    pub fn db_prediction(&self, id: DatabaseId) -> Option<prorp_types::Prediction> {
        let idx = self.metadata.row_of(id)?;
        self.fleet.engines.get(idx).current_prediction()
    }

    /// `id`'s engine counters, if registered here.
    pub fn db_counters(&self, id: DatabaseId) -> Option<EngineCounters> {
        let idx = self.metadata.row_of(id)?;
        Some(self.fleet.engines.get(idx).counters())
    }

    /// The shard's incident log so far (retry exhaustions, stuck
    /// workflows) — what the server surfaces as HTTP 503s.
    pub fn incident_log(&self) -> &IncidentLog {
        &self.incident_log
    }

    /// The shard's metrics at simulated instant `at`, sorted by name;
    /// `None` when observability is disabled.
    ///
    /// A snapshot is a read of the books the shard already keeps, and
    /// every metric name is listed here, once.  Recording a snapshot
    /// pushes this value into the series; the live `/metrics` endpoint
    /// calls it without recording, so a scrape never perturbs the run's
    /// observable output and reads every gauge as it stands.  Summing
    /// the engine counters costs one pass over the shard's engines.
    pub fn metrics_snapshot(&self, at: Timestamp) -> Option<MetricsSnapshot> {
        use MetricValue::{Counter, Gauge, Sketch};
        let o = self.obs.as_ref()?;
        let mut e = EngineCounters::default();
        for idx in 0..self.fleet.len() {
            let c = self.fleet.engines.get(idx).counters();
            e.logins_available += c.logins_available;
            e.logins_unavailable += c.logins_unavailable;
            e.logical_pauses += c.logical_pauses;
            e.physical_pauses += c.physical_pauses;
            e.proactive_resumes += c.proactive_resumes;
            e.predictions += c.predictions;
            e.forecast_failures += c.forecast_failures;
            e.breaker_opens += c.breaker_opens;
            e.breaker_fallbacks += c.breaker_fallbacks;
        }
        let wf = &self.workflow_stats;
        let mut stages = LatencyHistogram::new();
        for h in &wf.stage_latency {
            stages.absorb(h);
        }
        let histogram = |h: &LatencyHistogram| MetricValue::Histogram {
            buckets: *h.buckets(),
            count: h.count(),
            sum: h.total().as_secs(),
        };
        let gauge = |v: u64| Gauge(i64::try_from(v).unwrap_or(i64::MAX));
        let c = self.counters_now();
        let selected: usize = self.resume_op.batch_sizes().iter().sum();
        let moves = self.cluster.balance_moves;
        let mut entries: Vec<MetricEntry> = [
            ("prorp_breaker_closes_total", Counter(o.breaker_closes)),
            (
                "prorp_breaker_fallbacks_total",
                Counter(e.breaker_fallbacks),
            ),
            ("prorp_breaker_opens_total", Counter(e.breaker_opens)),
            ("prorp_checkpoint_bytes_total", Counter(o.checkpoint_bytes)),
            ("prorp_checkpoints_total", Counter(moves)),
            (
                "prorp_forecast_failures_total",
                Counter(e.forecast_failures),
            ),
            (
                "prorp_incidents_total",
                Counter(self.incident_log.len() as u64),
            ),
            (
                "prorp_lifecycle_transitions_total",
                Counter(o.lifecycle_transitions),
            ),
            ("prorp_logical_pauses_total", Counter(e.logical_pauses)),
            ("prorp_logins_available_total", Counter(e.logins_available)),
            (
                "prorp_logins_unavailable_total",
                Counter(e.logins_unavailable),
            ),
            ("prorp_mitigations_total", Counter(self.resumes.mitigations)),
            ("prorp_physical_pauses_total", Counter(e.physical_pauses)),
            ("prorp_predictions_total", Counter(e.predictions)),
            (
                "prorp_proactive_resumes_total",
                Counter(e.proactive_resumes),
            ),
            (
                "prorp_qos_miss_delay_seconds",
                Sketch(o.qos_miss_delay_sketch.clone()),
            ),
            ("prorp_recovers_total", Counter(moves)),
            ("prorp_resume_op_selected_total", Counter(selected as u64)),
            (
                "prorp_resume_stage_latency_seconds",
                Sketch(o.stage_latency_sketch.clone()),
            ),
            (
                "prorp_retry_backoff_seconds",
                Sketch(o.retry_backoff_sketch.clone()),
            ),
            ("prorp_workflow_giveups_total", Counter(wf.giveups)),
            ("prorp_workflow_retries_total", Counter(wf.retries)),
            ("prorp_workflow_seconds", histogram(&wf.workflow_latency)),
            ("prorp_workflow_stage_seconds", histogram(&stages)),
            (
                "prorp_workflows_in_flight",
                gauge(self.resumes.len() as u64),
            ),
            ("sim_self_databases", gauge(c.databases as u64)),
            ("sim_self_events_processed", gauge(c.events_processed)),
            (
                "sim_self_queue_depth",
                gauge(self.queue.scheduled_len() as u64),
            ),
            ("sim_self_queue_peak", gauge(c.queue_peak as u64)),
            (
                "sim_self_queue_recorded",
                gauge(self.queue.recorded_len() as u64),
            ),
            ("sim_self_register_micros", gauge(c.register_micros)),
            // Scan ticks fire once per shard per period, so the fleet
            // total varies with the shard count: volatile by definition.
            ("sim_self_resume_op_scans_total", Counter(c.resume_scans)),
            ("sim_self_run_micros", gauge(c.run_micros)),
            ("sim_self_telemetry_events", gauge(c.telemetry_events)),
            ("sim_self_trace_records", gauge(o.trace.len() as u64)),
            ("sim_self_wall_clock_micros", gauge(c.wall_clock_micros)),
        ]
        .into_iter()
        .map(|(name, value)| MetricEntry { name, value })
        .collect();
        entries.sort_unstable_by_key(|e| e.name);
        Some(MetricsSnapshot { at, entries })
    }

    /// Schedule a login for `id` at `at`.  Returns `false` (and
    /// schedules nothing) outside `[start, end)` — the same clipping
    /// registration applies to recorded sessions — and behind the
    /// horizon of the last [`step_until`](Self::step_until), which the
    /// loop has already run past.
    pub fn inject_login(&mut self, at: Timestamp, id: DatabaseId) -> bool {
        self.inject(at, SimEvent::ActivityStart(id))
    }

    /// Schedule a logout for `id` at `at` (clipped like
    /// [`inject_login`](Self::inject_login)).
    pub fn inject_logout(&mut self, at: Timestamp, id: DatabaseId) -> bool {
        self.inject(at, SimEvent::ActivityEnd(id))
    }

    /// Schedule an operator-forced resume for `id` at `at`: delivered
    /// through the same pre-warm path as an Algorithm 5 selection, so a
    /// database that is serving or already warm ignores it.
    pub fn inject_forced_resume(&mut self, at: Timestamp, id: DatabaseId) -> bool {
        self.inject(at, SimEvent::ProactiveResume(id))
    }

    /// Schedule an operator-forced physical pause for `id` at `at`.
    /// The engine refuses it while the database is serving.
    pub fn inject_forced_pause(&mut self, at: Timestamp, id: DatabaseId) -> bool {
        self.inject(at, SimEvent::ForcedPause(id))
    }

    fn inject(&mut self, at: Timestamp, event: SimEvent) -> bool {
        if at < self.horizon || at >= self.cfg.end {
            return false;
        }
        self.queue.push(at, event);
        true
    }

    /// The slot of `id`: its `sys.databases` row, fleet column and
    /// cluster slot.
    ///
    /// # Panics
    ///
    /// Panics when `id` belongs to another shard — an event for a
    /// foreign database is a partitioning bug, not a recoverable state.
    #[inline]
    fn slot_of(&self, id: DatabaseId) -> usize {
        self.metadata
            .row_of(id)
            .expect("event for a database of another shard")
    }

    /// Execute the side effects an engine requested for database `id` at
    /// column `idx` — which is also its cluster slot and its
    /// `sys.databases` row.
    fn apply_actions(&mut self, actions: &Actions, idx: usize, id: DatabaseId, now: Timestamp) {
        let is_optimal = matches!(self.cfg.policy, SimPolicy::Optimal);
        let end = self.cfg.end;
        for &action in actions.iter() {
            match action {
                EngineAction::Allocate => {
                    // Allocation is performed by the event handlers (they
                    // know the latency context); nothing extra here.
                }
                EngineAction::Reclaim => {
                    self.cluster.release(idx);
                }
                EngineAction::SetPredictedStart(pred) => {
                    self.metadata.set_prediction_at(idx, pred);
                    if is_optimal {
                        // The oracle policy bypasses the periodic scan and
                        // resumes exactly on time (zero-latency idealisation).
                        if let Some(at) = pred {
                            if at >= now && at < end {
                                self.queue.push(at, SimEvent::ProactiveResume(id));
                            }
                        }
                    }
                }
                EngineAction::ScheduleTimer(at, token) => {
                    if at < end {
                        self.queue.push(at, SimEvent::EngineTimer(id, token));
                    }
                }
            }
        }
    }

    /// Hand the decision an engine reply carried, made at `now`, to the
    /// observability layer.  Only an engine with capture on decides in
    /// its reply, and capture is on only when `ObsConfig::explain` is.
    fn record_decision(&mut self, now: Timestamp, idx: usize, id: DatabaseId, reply: &Actions) {
        if let (Some(o), Some(explain)) = (self.obs.as_mut(), reply.decision()) {
            o.on_decision(now, idx, id, explain);
        }
    }

    /// The latest recorded decision for `id` (live `why` route), read
    /// back from its trace record; `None` unless decision provenance is
    /// enabled and a decision was made.
    pub fn db_last_decision(
        &self,
        id: DatabaseId,
    ) -> Option<(Timestamp, prorp_obs::DecisionExplain)> {
        let idx = self.metadata.row_of(id)?;
        self.obs.as_ref().and_then(|o| o.last_decision(idx))
    }

    /// The shard's SLO rollup so far (live `/v1/slo` route); `None`
    /// unless rollups are enabled.
    pub fn slo_series(&self) -> Option<&prorp_obs::SloSeries> {
        self.obs.as_ref().and_then(|o| o.slo_series())
    }

    /// Process every queued event strictly before `min(horizon, end)`.
    ///
    /// The DES's `run_to_end` is `step_until(end)`; a live driver calls
    /// this with its clock's watermark after committing the events that
    /// arrived before it.  Events at or past the horizon stay queued.
    pub fn step_until(&mut self, horizon: Timestamp) -> Result<(), ProrpError> {
        let stop = horizon.min(self.cfg.end);
        self.horizon = self.horizon.max(stop);
        while let Some((now, event)) = self.queue.pop_before(stop) {
            if cfg!(debug_assertions) {
                self.check_time_order(now)?;
            }
            // Only a recorded pop moves the look-ahead on; after any other
            // event it would name the same databases again.
            if matches!(event, SimEvent::ActivityStart(_) | SimEvent::ActivityEnd(_)) {
                self.look_ahead();
            }
            self.counters.events_processed += 1;
            self.handle_event(now, event)?;
        }
        Ok(())
    }

    /// Prefetch what the recorded events [`FAR_AHEAD`] and
    /// [`NEAR_AHEAD`] places on will touch (see [`crate::prefetch`]):
    /// first a database's engine, row and segment, then, once the
    /// engine's lines are in, the history lines its login or logout
    /// reads — the newest row an in-order insert lands beside, and the
    /// clock index the predictor sweeps.  A hint only: nothing
    /// here writes, so what the loop computes is the same with it or
    /// without it.
    #[inline]
    fn look_ahead(&self) {
        let slot = |k| {
            let id = self.queue.recorded_ahead(k)?;
            self.metadata.row_of(id)
        };
        if let Some(idx) = slot(FAR_AHEAD) {
            prefetch(self.fleet.engines.get(idx));
            prefetch(self.metadata.meta_at(idx));
            prefetch(self.fleet.segments.open_segment(idx));
        }
        if let Some(idx) = slot(NEAR_AHEAD) {
            let view = self.fleet.engines.get(idx).history().view();
            let rows = view.rows();
            prefetch(&rows[rows.len().saturating_sub(1)..]);
            if let Some(clock) = view.clock_index() {
                let entries = clock.entries();
                prefetch(&entries[..entries.len().min(CLOCK_ENTRIES)]);
            }
        }
    }

    /// The debug builds' time-order check, once per shard: no event pops
    /// before the run's start or before the event popped last.
    fn check_time_order(&mut self, now: Timestamp) -> Result<(), ProrpError> {
        if now < self.last_pop {
            return Err(ProrpError::InvariantViolation(format!(
                "shard {}: an event at {now} popped after one at {}",
                self.counters.shard, self.last_pop
            )));
        }
        self.last_pop = now;
        Ok(())
    }

    /// Drain the event loop to the end of the simulated horizon.
    pub fn run_to_end(&mut self) -> Result<(), ProrpError> {
        self.step_until(self.cfg.end)
    }

    /// Deliver `event` to the engine at column `idx` — the one path every
    /// engine event takes.  Reads the engine's state (and, with
    /// observability on, its counters), has the engine
    /// [`react`](DatabasePolicy::react) into `reply`, checks in debug
    /// builds that the event may move the engine between the two states
    /// it read ([`transition_allowed`]), and hands the before and after
    /// readings to observability.  Returns the state before and the state
    /// after; the engine's actions and decision are in `reply`, which
    /// each caller builds once per delivery and reads in place.
    fn deliver(
        &mut self,
        now: Timestamp,
        idx: usize,
        id: DatabaseId,
        event: EngineEvent,
        reply: &mut Actions,
    ) -> Result<(DbState, DbState), ProrpError> {
        let engine = self.fleet.engines.get_mut(idx);
        let before = engine.state();
        let counters_before = self.obs.as_ref().map(|_| engine.counters());
        engine.react(now, event, reply);
        let after = engine.state();
        if cfg!(debug_assertions) && !transition_allowed(event, before, after) {
            return Err(ProrpError::InvariantViolation(format!(
                "db {id:?}: event {event:?} at {now} moved {before:?} -> {after:?}"
            )));
        }
        if let (Some(o), Some(counters_before)) = (self.obs.as_mut(), &counters_before) {
            let counters_after = self.fleet.engines.get(idx).counters();
            o.on_engine_event(now, id, (before, counters_before), (after, &counters_after));
        }
        Ok((before, after))
    }

    /// Account for the engine at column `idx` moving from `before` to
    /// `after`: entering a logical pause is a `logical-pause` record and
    /// logical-pause idle time, entering a physical pause a
    /// `physical-pause` record and saved time.  A state that did not
    /// change records nothing, so a pause is counted once however many
    /// events reach the paused database.
    fn account_pause(
        &mut self,
        now: Timestamp,
        idx: usize,
        id: DatabaseId,
        before: DbState,
        after: DbState,
    ) {
        if after == before {
            return;
        }
        let (kind, segment) = match after {
            DbState::LogicallyPaused => {
                (TelemetryKind::LogicalPause, SegmentKind::LogicalPauseIdle)
            }
            DbState::PhysicallyPaused => (TelemetryKind::PhysicalPause, SegmentKind::Saved),
            DbState::Resumed => return,
        };
        self.telemetry.record(now, id, kind);
        self.fleet.segments.transition(idx, now, segment);
    }

    /// Handle one popped event.  An early `return Ok(())` drops an event
    /// that no longer applies.
    fn handle_event(&mut self, now: Timestamp, event: SimEvent) -> Result<(), ProrpError> {
        let cfg = &self.cfg;
        match event {
            SimEvent::ObsSnapshot => {
                self.record_snapshot(now);
                if let Some(p) = self.cfg.observe().snapshot_every {
                    if now + p < self.cfg.end {
                        self.queue.push(now + p, SimEvent::ObsSnapshot);
                    }
                }
            }
            SimEvent::ActivityStart(id) => {
                let idx = self.slot_of(id);
                let prewarmed = matches!(
                    self.fleet.segments.open_kind(idx),
                    SegmentKind::ProactiveIdleWrong | SegmentKind::ProactiveIdleCorrect
                );
                let mut reply = Actions::new();
                let (before, _) =
                    self.deliver(now, idx, id, EngineEvent::ActivityStart, &mut reply)?;
                let cfg = &self.cfg;
                let available =
                    before != DbState::PhysicallyPaused || matches!(cfg.policy, SimPolicy::Optimal);
                self.telemetry
                    .record(now, id, TelemetryKind::Login { available });
                if let Some(o) = self.obs.as_mut() {
                    o.on_login(now, id, available);
                }
                self.metadata.set_state_at(idx, DbState::Resumed);
                // Hold compute while serving (idempotent).
                let outcome = self.cluster.allocate(idx);
                if available {
                    if prewarmed {
                        self.fleet
                            .segments
                            .reclassify_open(idx, SegmentKind::ProactiveIdleCorrect);
                    }
                    self.fleet
                        .segments
                        .transition(idx, now, SegmentKind::Active);
                } else {
                    // Reactive resume: the customer waits out the staged
                    // allocation workflow (§2.2's delay; §7's stages).
                    self.fleet
                        .segments
                        .transition(idx, now, SegmentKind::Unavailable);
                    let mut move_penalty = Seconds::ZERO;
                    if matches!(outcome, AllocationOutcome::Moved { .. }) {
                        move_penalty = MOVE_PENALTY;
                    }
                    // A hung workflow schedules nothing; the diagnostics
                    // sweep is its only way out.
                    let staged =
                        (!workflow_hangs(cfg.seed, id, now, cfg.stuck_probability)).then(|| {
                            let wf = ResumeWorkflow::new(id, now, move_penalty);
                            let expected_at = wf.first_ready_at();
                            self.queue
                                .push(expected_at, SimEvent::WorkflowStageDone(id));
                            Staged { wf, expected_at }
                        });
                    self.resumes.start(idx, id, now, staged);
                }
                // A login decides nothing, so its reply carries no decision.
                self.apply_actions(&reply, idx, id, now);
            }
            SimEvent::ActivityEnd(id) => {
                let idx = self.slot_of(id);
                if !self.fleet.engines.get(idx).serving() {
                    return Ok(());
                }
                // A still-running staged workflow is superseded (stale
                // stage events are rejected by `expected_at`); a hung one
                // stays for the sweep.
                self.resumes.supersede(idx);
                let mut reply = Actions::new();
                let (before, after) =
                    self.deliver(now, idx, id, EngineEvent::ActivityEnd, &mut reply)?;
                self.apply_actions(&reply, idx, id, now);
                self.metadata.set_state_at(idx, after);
                self.record_decision(now, idx, id, &reply);
                self.account_pause(now, idx, id, before, after);
            }
            SimEvent::EngineTimer(id, token) => {
                let idx = self.slot_of(id);
                let mut reply = Actions::new();
                let (before, after) =
                    self.deliver(now, idx, id, EngineEvent::Timer(token), &mut reply)?;
                self.apply_actions(&reply, idx, id, now);
                self.account_pause(now, idx, id, before, after);
                self.metadata.set_state_at(idx, after);
                self.record_decision(now, idx, id, &reply);
            }
            SimEvent::ResumeOpTick => {
                let selected = self
                    .resume_op
                    .run(now, std::slice::from_ref(&self.metadata));
                for id in selected {
                    self.queue.push(now, SimEvent::ProactiveResume(id));
                }
                if self.resume_op.next_run() < cfg.end {
                    self.queue
                        .push(self.resume_op.next_run(), SimEvent::ResumeOpTick);
                }
            }
            SimEvent::ProactiveResume(id) => {
                let idx = self.slot_of(id);
                if self.fleet.engines.get(idx).state() != DbState::PhysicallyPaused
                    || self.fleet.engines.get(idx).serving()
                {
                    return Ok(()); // raced with a login
                }
                let mut reply = Actions::new();
                let (_, after) =
                    self.deliver(now, idx, id, EngineEvent::ProactiveResume, &mut reply)?;
                if reply.is_empty() {
                    return Ok(()); // the engine declined (e.g. reactive)
                }
                self.telemetry
                    .record(now, id, TelemetryKind::ProactiveResume);
                if let Some(o) = self.obs.as_mut() {
                    o.on_proactive_resume(now, id);
                }
                self.cluster.allocate(idx);
                // Optimistically "wrong" until the login proves it
                // correct.
                self.fleet
                    .segments
                    .transition(idx, now, SegmentKind::ProactiveIdleWrong);
                self.metadata.set_state_at(idx, after);
                self.apply_actions(&reply, idx, id, now);
                self.record_decision(now, idx, id, &reply);
            }
            SimEvent::WorkflowStageDone(id) => {
                // One stage of a staged resume finished executing: draw
                // its deterministic verdict and advance/retry/give up.
                let idx = self.slot_of(id);
                let Some(active) = self.resumes.staged_mut(idx) else {
                    return Ok(()); // workflow superseded or force-completed
                };
                if active.expected_at != now {
                    return Ok(()); // stale event of a cancelled workflow
                }
                let wf_started = active.wf.started();
                let executed_attempt = active.wf.attempt();
                match active.wf.on_stage_executed(now, cfg.seed, cfg.fault()) {
                    StageOutcome::Completed {
                        stage,
                        spent,
                        next_ready_at,
                    } => {
                        self.workflow_stats.record_stage(stage, spent);
                        if let Some(o) = self.obs.as_mut() {
                            o.on_stage_completed(now, id, stage, executed_attempt, spent);
                        }
                        match next_ready_at {
                            Some(at) => {
                                active.expected_at = at;
                                self.queue.push(at, SimEvent::WorkflowStageDone(id));
                            }
                            None => {
                                let total = now.since(wf_started);
                                self.workflow_stats.record_workflow(total);
                                if let Some(o) = self.obs.as_mut() {
                                    o.on_workflow_completed(now, id, wf_started);
                                }
                                self.resumes.finish(idx);
                                self.queue.push(now, SimEvent::WorkflowComplete(id));
                            }
                        }
                    }
                    StageOutcome::Retry {
                        stage,
                        attempt: next_attempt,
                        ready_at,
                    } => {
                        self.workflow_stats.retries += 1;
                        if let Some(o) = self.obs.as_mut() {
                            o.on_stage_retry(now, id, stage, next_attempt, ready_at.since(now));
                        }
                        active.expected_at = ready_at;
                        self.queue.push(ready_at, SimEvent::WorkflowStageDone(id));
                    }
                    StageOutcome::Exhausted { stage, attempts } => {
                        // Retry budget burned: escalate an incident and
                        // let the mitigation path force-complete the
                        // resume (the on-call engineer's fix).
                        self.workflow_stats.giveups += 1;
                        if let Some(o) = self.obs.as_mut() {
                            o.on_stage_exhausted(now, id, stage, attempts, wf_started);
                        }
                        self.resumes.give_up(idx);
                        self.incident_log
                            .push(now, id, IncidentKind::RetryExhausted { stage });
                        self.queue.push(now, SimEvent::WorkflowComplete(id));
                    }
                }
            }
            SimEvent::WorkflowComplete(id) => {
                let idx = self.slot_of(id);
                if !self.resumes.complete(idx) {
                    return Ok(()); // superseded (activity ended meanwhile)
                }
                let engine = self.fleet.engines.get(idx);
                match engine.state() {
                    DbState::Resumed if engine.serving() => {
                        self.fleet
                            .segments
                            .transition(idx, now, SegmentKind::Active);
                    }
                    DbState::LogicallyPaused => {
                        self.fleet
                            .segments
                            .transition(idx, now, SegmentKind::LogicalPauseIdle);
                    }
                    _ => {}
                }
            }
            SimEvent::DiagnosticsTick => {
                for m in self.resumes.sweep(now) {
                    if let Some(o) = self.obs.as_mut() {
                        o.on_mitigation(now, m.db, m.escalated);
                    }
                    if m.escalated {
                        self.incident_log
                            .push(now, m.db, IncidentKind::StuckWorkflow);
                    }
                    // Mitigation force-completes the workflow now; its
                    // staged state is gone, so stale stage events are
                    // ignored.
                    self.queue.push(now, SimEvent::WorkflowComplete(m.db));
                }
                if let Some(p) = cfg.diagnostics_period {
                    self.queue.push(now + p, SimEvent::DiagnosticsTick);
                }
            }
            SimEvent::MaintenanceDue(id) => {
                let idx = self.slot_of(id);
                let prediction = self.fleet.engines.get(idx).current_prediction();
                let slot = self.maintenance.place(
                    now,
                    prediction.as_ref(),
                    MAINTENANCE_DURATION,
                    now + MAINTENANCE_DEADLINE,
                )?;
                if slot.start() < cfg.end {
                    self.queue.push(slot.start(), SimEvent::MaintenanceRun(id));
                }
                self.telemetry.record(
                    now,
                    id,
                    TelemetryKind::Maintenance {
                        forced: !slot.is_free(),
                    },
                );
                if let Some(p) = cfg.maintenance_period {
                    self.queue.push(now + p, SimEvent::MaintenanceDue(id));
                }
            }
            SimEvent::MaintenanceRun(id) => {
                // §3.3: maintenance resumes are NOT recorded as customer
                // activity and do not move the policy state machine.  A
                // job on a physically paused database briefly allocates
                // and releases compute (the backend load the scheduler
                // minimises); a job on a resumed or logically paused
                // database rides the existing allocation.
                let idx = self.slot_of(id);
                if self.fleet.engines.get(idx).state() == DbState::PhysicallyPaused {
                    self.cluster.allocate(idx);
                    self.cluster.release(idx);
                }
            }
            SimEvent::RebalanceTick => {
                if let Some((idx, _, _)) = self
                    .cluster
                    .rebalance_step(cfg.rebalance_threshold, self.metadata.ids())
                {
                    // Ship the history with the database (§3.3): the
                    // move serialises pages and restores them on the
                    // destination node.
                    let moved = self.metadata.ids()[idx];
                    let bytes = backup_history(self.fleet.engines.get(idx).history())?;
                    let restored = restore_backend(&bytes, cfg.storage_backend)?;
                    self.fleet.engines.get_mut(idx).restore_history(restored);
                    self.telemetry.record(now, moved, TelemetryKind::Move);
                    if let Some(o) = self.obs.as_mut() {
                        o.on_move_with_history(now, moved, bytes.len() as u64);
                    }
                }
                if let Some(p) = cfg.rebalance_period {
                    self.queue.push(now + p, SimEvent::RebalanceTick);
                }
            }
            SimEvent::ForcedPause(id) => {
                let idx = self.slot_of(id);
                if self.fleet.engines.get(idx).serving() {
                    return Ok(()); // serving: the engine would refuse anyway
                }
                let mut reply = Actions::new();
                let (before, after) =
                    self.deliver(now, idx, id, EngineEvent::ForcedPause, &mut reply)?;
                if reply.is_empty() {
                    return Ok(()); // refused (already physically paused)
                }
                // The operator's decision wins over a resume in flight.
                self.resumes.supersede(idx);
                self.account_pause(now, idx, id, before, after);
                self.metadata.set_state_at(idx, after);
                self.apply_actions(&reply, idx, id, now);
            }
        }
        Ok(())
    }

    /// The shard's counters with the fields other owners keep brought up
    /// to date: the wall-clock phase breakdown so far, the scan count,
    /// the telemetry count, the run-time queue's peak and the database
    /// count.
    fn counters_now(&self) -> ShardCounters {
        let register_end = self.register_done.unwrap_or(self.started);
        let mut c = self.counters;
        c.register_micros = register_end.duration_since(self.started).as_micros() as u64;
        c.run_micros = register_end.elapsed().as_micros() as u64;
        c.set_wall_clock(self.started.elapsed());
        c.resume_scans = self.resume_op.batch_sizes().len() as u64;
        c.telemetry_events = self.telemetry.run.total();
        c.queue_peak = self.queue.scheduled_peak();
        c.databases = self.fleet.len();
        c
    }

    /// Record the metrics snapshot at `at` into the shard's series (a
    /// no-op when observability is disabled).
    fn record_snapshot(&mut self, at: Timestamp) {
        let snapshot = self.metrics_snapshot(at);
        if let (Some(o), Some(snapshot)) = (self.obs.as_mut(), snapshot) {
            o.snapshots.push(snapshot);
        }
    }

    /// Close the books: final segment accounting, invariant audits, the
    /// aligned end-of-run observability snapshot, and the mergeable
    /// [`ShardOutcome`].
    pub fn finish(mut self) -> Result<ShardOutcome, ProrpError> {
        let finish_started = Instant::now();
        self.counters = self.counters_now();

        let mut db_results: Vec<(DatabaseId, EngineCounters, StorageStats)> =
            Vec::with_capacity(self.fleet.len());
        for (idx, &id) in self.metadata.ids().iter().enumerate() {
            let engine = self.fleet.engines.get(idx);
            // History tuples must come back in strictly ascending
            // timestamp order from a store that passes its own audit (a
            // page-image round trip per database: debug builds only).
            if cfg!(debug_assertions) {
                check_history(id, engine.history())?;
            }
            db_results.push((id, engine.counters(), engine.history().stats()));
        }

        // The end-of-run snapshot is always taken at `cfg.end`, on every
        // shard, so the merged series stays aligned.
        self.record_snapshot(self.cfg.end);
        let obs_part = self.obs.map(ShardObs::finish);

        // Close the books: every database accounts for exactly the
        // measured window.
        let segments = self.fleet.segments.finish(self.cfg.end);
        let window = self.cfg.end.since(self.cfg.measure_from).as_secs();
        let (measured, n) = (segments.grand_total().as_secs(), db_results.len() as i64);
        if measured != window * n {
            return Err(ProrpError::InvariantViolation(format!(
                "segment totals cover {measured} s, not {n} databases × {window} s"
            )));
        }

        self.counters.finish_micros = finish_started.elapsed().as_micros() as u64;
        Ok(ShardOutcome {
            dbs: db_results,
            segments,
            telemetry: self.telemetry.log.unwrap_or_default(),
            telemetry_summary: self.telemetry.run,
            telemetry_window: self.telemetry.window,
            resume_batches: self.resume_op.batch_sizes().to_vec(),
            spill_moves: self.cluster.spill_moves,
            balance_moves: self.cluster.balance_moves,
            oversubscriptions: self.cluster.oversubscriptions,
            mitigations: self.resumes.mitigations,
            workflow: self.workflow_stats,
            incident_log: self.incident_log,
            maintenance: self.maintenance.stats(),
            counters: self.counters,
            obs: obs_part,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One knobs allocation per shard: every engine a shard registers,
    /// and that engine's predictor, point at the shard's copy and at no
    /// other, and another shard holds its own — one copy per process
    /// bounced its reference count between the shards' threads.  Every
    /// proactive arena: incremental and naive, with and without fault
    /// injection.
    #[test]
    fn every_engine_points_at_its_shards_one_knobs_allocation() {
        use crate::fleet::EngineArena;
        use prorp_types::PolicyConfig;
        use prorp_workload::{RegionName, RegionProfile};
        use std::sync::Arc;
        const DAY: i64 = 86_400;
        let (start, end) = (Timestamp(0), Timestamp(10 * DAY));
        let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(40, start, end, 5);
        for (naive, faulty) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut builder = SimConfig::builder(
                SimPolicy::Proactive(PolicyConfig::default()),
                start,
                end,
                Timestamp(5 * DAY),
            )
            .naive_predictor(naive);
            if faulty {
                builder = builder.forecast_fail_every(3);
            }
            let cfg = builder.build().unwrap();
            let mut shards = [0, 1].map(|i| ShardDriver::new(&cfg, i, traces.len()).unwrap());
            for t in &traces {
                shards[t.db.shard_of(2)].register(t).unwrap();
            }
            for shard in &shards {
                let held: Vec<&SharedKnobs> = match &shard.fleet.engines {
                    EngineArena::Incremental(v) => v.iter().map(|e| e.knobs()).collect(),
                    EngineArena::IncrementalFaulty(v) => v.iter().map(|e| e.knobs()).collect(),
                    EngineArena::Naive(v) => v.iter().map(|e| e.knobs()).collect(),
                    EngineArena::NaiveFaulty(v) => v.iter().map(|e| e.knobs()).collect(),
                    EngineArena::Reactive(_) | EngineArena::Optimal(_) => unreachable!(),
                };
                assert!(
                    held.len() > 5,
                    "naive {naive}, faulty {faulty}: a real shard"
                );
                for knobs in &held {
                    assert!(Arc::ptr_eq(knobs, &shard.knobs));
                }
                // The shard, each engine and each predictor: one handle
                // apiece, and nothing else holds the knobs.
                let handles = Arc::strong_count(&shard.knobs);
                assert_eq!(
                    handles,
                    1 + 2 * held.len(),
                    "naive {naive}, faulty {faulty}"
                );
            }
            assert!(!Arc::ptr_eq(&shards[0].knobs, &shards[1].knobs));
        }
    }

    #[test]
    fn fault_injection_is_stateless_and_respects_extremes() {
        let (db, at) = (DatabaseId(7), Timestamp(12_345));
        assert!(!workflow_hangs(1, db, at, 0.0));
        assert!(workflow_hangs(1, db, at, 1.0));
        // Pure function: same inputs, same outcome.
        assert_eq!(
            workflow_hangs(42, db, at, 0.5),
            workflow_hangs(42, db, at, 0.5)
        );
        // Roughly calibrated: p=0.3 over many draws lands near 30%.
        let hits = (0..10_000)
            .filter(|i| workflow_hangs(9, DatabaseId(*i), Timestamp(500), 0.3))
            .count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }

    /// Recorded lane ≡ run-time lane at driver level (the core of
    /// sim ≡ live): a fleet registered with its traces, and the same
    /// fleet registered empty with every session injected in the same
    /// database and session order, close identical books.
    #[test]
    fn recorded_and_injected_sessions_run_the_same_shard() {
        use prorp_types::PolicyConfig;
        use prorp_workload::{RegionName, RegionProfile};
        const DAY: i64 = 86_400;
        let (start, end) = (Timestamp(0), Timestamp(35 * DAY));
        let cfg = SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig::default()),
            start,
            end,
            Timestamp(30 * DAY),
        )
        .maintenance_period(Seconds::days(7))
        .diagnostics_period(Seconds::hours(1))
        .observe(prorp_obs::ObsConfig::on())
        .telemetry_mode(TelemetryMode::Full)
        .build()
        .unwrap();
        let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(60, start, end, 11);

        let mut recorded = ShardDriver::new(&cfg, 0, traces.len()).unwrap();
        for t in &traces {
            recorded.register(t).unwrap();
        }
        let mut injected = ShardDriver::new(&cfg, 0, traces.len()).unwrap();
        for t in &traces {
            let empty = Trace::new(t.db, "live", Vec::new()).unwrap();
            injected.register(&empty).unwrap();
        }
        for t in &traces {
            for s in &t.sessions {
                injected.inject_login(s.start, t.db);
                injected.inject_logout(s.end, t.db);
            }
        }
        assert_eq!(injected.queue.recorded_len(), 0);
        assert_eq!(recorded.queue.len(), injected.queue.len());
        assert!(recorded.queue.recorded_len() > 1_000, "a real workload");

        let close = |mut driver: ShardDriver| {
            driver.start();
            driver.run_to_end().unwrap();
            driver.finish().unwrap()
        };
        let (a, b) = (close(recorded), close(injected));
        assert!(a.counters.queue_peak < b.counters.queue_peak);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.telemetry.events(), b.telemetry.events());
        assert_eq!(a.dbs.len(), b.dbs.len());
        assert_eq!(a.segments, b.segments);
        // Prediction latencies are wall-clock readings.
        let logical = |c: &EngineCounters| EngineCounters {
            prediction_ns_sum: 0,
            prediction_ns_max: 0,
            ..*c
        };
        for (x, y) in a.dbs.iter().zip(&b.dbs) {
            assert_eq!((x.0, x.2), (y.0, y.2), "{:?}", x.0);
            assert_eq!(logical(&x.1), logical(&y.1), "{:?}", x.0);
        }
        assert_eq!(a.resume_batches, b.resume_batches);
        assert_eq!(a.workflow, b.workflow);
        assert_eq!(a.incident_log, b.incident_log);
        assert_eq!(a.maintenance, b.maintenance);
        assert_eq!(
            (a.mitigations, a.spill_moves),
            (b.mitigations, b.spill_moves)
        );
        let snapshot = |o: &ShardOutcome| {
            let obs = o.obs.as_ref().unwrap();
            (
                obs.trace.clone(),
                obs.snapshots.last().unwrap().deterministic(),
            )
        };
        assert_eq!(snapshot(&a), snapshot(&b));
    }

    /// A live scrape reads the shard as it stands: stepped to each
    /// instant of a twin's 10-s recorded series, the driver's
    /// `metrics_snapshot` is the recorded entry, gauges included (a
    /// scrape that only re-reads what the last recorded snapshot set
    /// reads `prorp_workflows_in_flight` as 0 throughout).
    #[test]
    fn a_live_scrape_is_the_recorded_snapshot() {
        use prorp_workload::{RegionName, RegionProfile};
        const DAY: i64 = 86_400;
        let (start, end) = (Timestamp(DAY), Timestamp(3 * DAY));
        let config = |obs| {
            SimConfig::builder(SimPolicy::Reactive, start, end, start)
                .seed(42)
                .observe(obs)
                .build()
                .unwrap()
        };
        let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(300, start, end, 42);
        let driver = |cfg: &SimConfig| {
            let mut d = ShardDriver::new(cfg, 0, traces.len()).unwrap();
            for t in &traces {
                d.register(t).unwrap();
            }
            d.start();
            d
        };
        let mut twin = driver(&config(prorp_obs::ObsConfig::with_snapshots(Seconds(10))));
        twin.run_to_end().unwrap();
        let recorded = twin.finish().unwrap().obs.unwrap().snapshots;
        assert_eq!(recorded.len(), 17_280);

        let mut live = driver(&config(prorp_obs::ObsConfig::on()));
        let mut busy = 0;
        for want in &recorded {
            live.step_until(want.at).unwrap();
            let got = live.metrics_snapshot(want.at).unwrap();
            assert_eq!(
                got.deterministic(),
                want.deterministic(),
                "at {:?}",
                want.at
            );
            let processed = got.get("sim_self_events_processed").unwrap();
            assert_eq!(processed.as_gauge(), Some(live.events_processed() as i64));
            let in_flight = got.get("prorp_workflows_in_flight").unwrap();
            busy += usize::from(in_flight.as_gauge() != Some(0));
        }
        assert!(busy > 0, "workflows were in flight at some instant");
    }

    /// A Summary-mode shard allocates no event buffer, yet counts what a
    /// Full-mode twin logs: its whole-run summary and per-minute window
    /// series are those of the twin's log.
    #[test]
    fn summary_shard_keeps_no_log_and_counts_what_full_logs() {
        use prorp_types::PolicyConfig;
        use prorp_workload::{RegionName, RegionProfile};
        const DAY: i64 = 86_400;
        let (start, end, measure_from) = (Timestamp(0), Timestamp(35 * DAY), Timestamp(30 * DAY));
        let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(60, start, end, 5);
        let run = |mode: TelemetryMode| {
            let cfg = SimConfig::builder(
                SimPolicy::Proactive(PolicyConfig::default()),
                start,
                end,
                measure_from,
            )
            .maintenance_period(Seconds::days(3))
            .telemetry_mode(mode)
            .build()
            .unwrap();
            let mut driver = ShardDriver::new(&cfg, 0, traces.len()).unwrap();
            for trace in &traces {
                driver.register(trace).unwrap();
            }
            driver.start();
            driver.run_to_end().unwrap();
            driver.finish().unwrap()
        };
        let (full, summary) = (run(TelemetryMode::Full), run(TelemetryMode::Summary));

        let log = &full.telemetry;
        let mut window: Vec<TelemetrySummary> = Vec::new();
        for e in log.range(measure_from, end) {
            let minute = ((e.ts - measure_from).as_secs() / 60) as usize;
            if minute >= window.len() {
                window.resize_with(minute + 1, TelemetrySummary::new);
            }
            window[minute].record(e.kind);
        }
        let in_window: u64 = window.iter().map(TelemetrySummary::total).sum();
        assert!(log.len() > 1_000 && in_window < log.len() as u64);
        for outcome in [&full, &summary] {
            assert_eq!(outcome.telemetry_summary, TelemetrySummary::from_log(log));
            assert_eq!(outcome.telemetry_window, window);
            assert_eq!(outcome.counters.telemetry_events, log.len() as u64);
        }
        assert_eq!(summary.telemetry.into_events().capacity(), 0);
    }

    /// A forced pause of a logically paused database is one
    /// `physical-pause` record, saved time, a paused `sys.databases` row
    /// with no prediction, released compute and one lifecycle span; the
    /// stale logical-pause timer that fires later adds nothing.  A forced
    /// pause of a serving or an already physically paused database
    /// records nothing at all.
    #[test]
    fn a_forced_pause_is_accounted_once() {
        use prorp_obs::{ObsReport, SpanKind};
        use prorp_types::PolicyConfig;
        let hour = |h: i64| Timestamp(h * 3_600);
        let cfg = SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig::default()),
            Timestamp(0),
            hour(48),
            Timestamp(0),
        )
        .observe(prorp_obs::ObsConfig::on())
        .telemetry_mode(TelemetryMode::Full)
        .build()
        .unwrap();
        let (paused, serving, cold) = (DatabaseId(0), DatabaseId(1), DatabaseId(2));
        let mut driver = ShardDriver::new(&cfg, 0, 3).unwrap();
        for id in [paused, serving, cold] {
            driver
                .register(&Trace::new(id, "live", Vec::new()).unwrap())
                .unwrap();
            assert!(driver.inject_login(hour(1), id));
        }
        // With no history yet both logouts land in a logical pause, and
        // `cold`'s timer takes it on to a physical pause.
        assert!(driver.inject_logout(hour(2), paused));
        assert!(driver.inject_logout(hour(2), cold));
        driver.start();
        driver.step_until(hour(3)).unwrap();
        assert_eq!(driver.db_state(paused), Some(DbState::LogicallyPaused));
        assert!(driver.inject_forced_pause(hour(3), paused));
        assert!(driver.inject_forced_pause(hour(3), serving));
        driver.step_until(hour(20)).unwrap(); // past logout + 7 h
        assert_eq!(driver.db_state(cold), Some(DbState::PhysicallyPaused));
        assert!(driver.inject_forced_pause(hour(20), cold));
        driver.step_until(hour(21)).unwrap();

        let expected = [
            (DbState::PhysicallyPaused, SegmentKind::Saved, false),
            (DbState::Resumed, SegmentKind::Active, true),
            (DbState::PhysicallyPaused, SegmentKind::Saved, false),
        ];
        for (idx, (state, segment, allocated)) in expected.into_iter().enumerate() {
            let id = DatabaseId(idx as u64);
            assert_eq!(driver.db_state(id), Some(state), "{id}");
            assert_eq!(driver.fleet.segments.open_kind(idx), segment, "{id}");
            assert_eq!(driver.cluster.has_allocation(idx), allocated, "{id}");
            let row = driver.metadata.get(id).unwrap();
            assert_eq!((row.state, row.pred_start), (state, None), "{id}");
        }

        let outcome = driver.finish().unwrap();
        let physical_pauses = |id: DatabaseId| -> Vec<Timestamp> {
            let events = outcome.telemetry.events().iter();
            events
                .filter(|e| e.db == id && e.kind == TelemetryKind::PhysicalPause)
                .map(|e| e.ts)
                .collect()
        };
        assert_eq!(physical_pauses(paused), vec![hour(3)]);
        assert!(physical_pauses(serving).is_empty());
        let timed_out = physical_pauses(cold);
        assert!(
            timed_out.len() == 1 && timed_out[0] < hour(20),
            "{timed_out:?}"
        );
        let engine_pauses: Vec<u64> = outcome.dbs.iter().map(|r| r.1.physical_pauses).collect();
        assert_eq!(engine_pauses, vec![1, 0, 1]);

        let trace = ObsReport::merge(vec![outcome.obs.unwrap()]).unwrap().trace;
        let lifecycle = |id: DatabaseId| -> Vec<(Timestamp, DbState, DbState)> {
            trace
                .iter()
                .filter(|r| r.db == id)
                .filter_map(|r| match r.kind {
                    SpanKind::Lifecycle { from, to } => Some((r.start, from, to)),
                    _ => None,
                })
                .collect()
        };
        let (resumed, logical, physical) = (
            DbState::Resumed,
            DbState::LogicallyPaused,
            DbState::PhysicallyPaused,
        );
        assert_eq!(
            lifecycle(paused),
            vec![(hour(2), resumed, logical), (hour(3), logical, physical)]
        );
        assert!(lifecycle(serving).is_empty());
        assert_eq!(
            lifecycle(cold),
            vec![
                (hour(2), resumed, logical),
                (timed_out[0], logical, physical)
            ]
        );
    }

    /// What a logout does to a reactive resume still in flight: a hung
    /// resume outlives it — the sweep still mitigates it, and a second
    /// one on the same database escalates — while a staged resume is
    /// superseded and never swept.  At every recorded snapshot
    /// `prorp_workflows_in_flight` is the number of resumes not yet
    /// completed, superseded or mitigated.
    #[test]
    fn a_hung_resume_outlives_its_logout_and_a_superseded_one_is_not_swept() {
        use prorp_obs::{ObsReport, SpanKind};
        let hour = |h: i64| Timestamp(h * 3_600);
        let after = |h: i64, secs: i64| hour(h) + Seconds(secs);
        let (leaves, stays) = (DatabaseId(0), DatabaseId(1));
        // Both databases log in and out, are forced into a physical
        // pause and log in again at hour 3: a reactive resume each.
        // `leaves` logs out `leave_after` seconds into its resume; the
        // hourly sweep times out resumes older than ten minutes.
        let drive = |stuck_probability: f64, leave_after: i64| {
            let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), hour(10), Timestamp(0))
                .diagnostics_period(Seconds::hours(1))
                .stuck_probability(stuck_probability)
                .observe(prorp_obs::ObsConfig::with_snapshots(Seconds(10)))
                .build()
                .unwrap();
            let mut driver = ShardDriver::new(&cfg, 0, 2).unwrap();
            for id in [leaves, stays] {
                driver
                    .register(&Trace::new(id, "live", Vec::new()).unwrap())
                    .unwrap();
                assert!(driver.inject_login(hour(1), id));
                assert!(driver.inject_logout(after(1, 600), id));
                assert!(driver.inject_forced_pause(hour(2), id));
                assert!(driver.inject_login(hour(3), id));
            }
            assert!(driver.inject_logout(after(3, leave_after), leaves));
            driver.start();
            driver.step_until(hour(3) + Seconds(1)).unwrap();
            let open = |d: &ShardDriver| d.fleet.segments.open_kind(1);
            assert_eq!(open(&driver), SegmentKind::Unavailable);
            driver.step_until(hour(5)).unwrap();
            assert_eq!(open(&driver), SegmentKind::Active, "resumed");
            driver
        };
        // The unresolved resumes at a snapshot taken at `at`: a snapshot
        // runs before every other event at its instant.
        let in_flight = |spans: &[(Timestamp, Timestamp)], at: Timestamp| {
            spans.iter().filter(|(s, e)| *s < at && at <= *e).count() as i64
        };
        let check_gauge = |outcome: &ShardOutcome, spans: &[(Timestamp, Timestamp)]| {
            let snapshots = &outcome.obs.as_ref().unwrap().snapshots;
            assert_eq!(snapshots.len(), 3_600);
            let mut busy = 0;
            for s in snapshots {
                let gauge = s.get("prorp_workflows_in_flight").unwrap().as_gauge();
                assert_eq!(gauge, Some(in_flight(spans, s.at)), "at {:?}", s.at);
                busy += usize::from(gauge != Some(0));
            }
            assert!(busy > 0);
        };

        // Every resume hangs.  `leaves` logs out five minutes in, yet the
        // hour-4 sweep mitigates both; forced back into a physical pause,
        // `leaves` hangs again at hour 6, leaves again, and the hour-7
        // sweep escalates it.
        let mut hung = drive(1.0, 300);
        assert_eq!(hung.db_state(leaves), Some(DbState::LogicallyPaused));
        assert!(hung.inject_forced_pause(hour(5), leaves));
        assert!(hung.inject_login(hour(6), leaves));
        assert!(hung.inject_logout(after(6, 300), leaves));
        hung.run_to_end().unwrap();
        let outcome = hung.finish().unwrap();
        assert_eq!(outcome.mitigations, 3);
        assert_eq!(outcome.workflow.workflow_latency.count(), 0);
        let incidents: Vec<(Timestamp, DatabaseId, IncidentKind)> = outcome
            .incident_log
            .entries()
            .iter()
            .map(|e| (e.at, e.db, e.kind))
            .collect();
        assert_eq!(
            incidents,
            vec![(hour(7), leaves, IncidentKind::StuckWorkflow)]
        );
        check_gauge(
            &outcome,
            &[(hour(3), hour(4)), (hour(3), hour(4)), (hour(6), hour(7))],
        );
        let trace = ObsReport::merge(vec![outcome.obs.unwrap()]).unwrap().trace;
        let mitigations: Vec<(Timestamp, DatabaseId, bool)> = trace
            .iter()
            .filter_map(|r| match r.kind {
                SpanKind::Mitigation { escalated } => Some((r.start, r.db, escalated)),
                _ => None,
            })
            .collect();
        assert_eq!(
            mitigations,
            vec![
                (hour(4), leaves, false),
                (hour(4), stays, false),
                (hour(7), leaves, true)
            ]
        );

        // No resume hangs.  `leaves` logs out 20 s into its 60-s staged
        // resume, which the logout supersedes: the hour-4 sweep finds
        // nothing, and only `stays`'s workflow completes.
        let mut staged = drive(0.0, 20);
        staged.run_to_end().unwrap();
        let outcome = staged.finish().unwrap();
        assert_eq!(outcome.mitigations, 0);
        assert!(outcome.incident_log.is_empty());
        assert_eq!(outcome.workflow.workflow_latency.count(), 1);
        check_gauge(
            &outcome,
            &[(hour(3), after(3, 20)), (hour(3), after(3, 60))],
        );
    }

    #[test]
    fn workflow_slab_stays_dense_and_repoints_the_moved_entry() {
        let staged = |at: i64| {
            Some(Staged {
                wf: ResumeWorkflow::new(DatabaseId(0), Timestamp(at), Seconds::ZERO),
                expected_at: Timestamp(at),
            })
        };
        let mut w = Resumes::new(Seconds::minutes(10), 4);
        for _ in 0..4 {
            w.push_slot();
        }
        assert!(!w.complete(2), "nothing in flight yet");
        for slot in [3, 0, 2] {
            let at = slot as i64;
            w.start(slot, DatabaseId(slot as u64), Timestamp(at), staged(at));
        }
        // Removing the first slab entry swaps the last one into its place.
        w.supersede(3);
        assert_eq!(w.len(), 2);
        assert!(w.staged_mut(3).is_none() && w.staged_mut(1).is_none());
        for slot in [0, 2] {
            let expected_at = w.staged_mut(slot).unwrap().expected_at;
            assert_eq!(expected_at, Timestamp(slot as i64));
        }
        // A restarted workflow supersedes the old one in place.
        w.start(0, DatabaseId(0), Timestamp(40), staged(40));
        assert_eq!(w.staged_mut(0).unwrap().expected_at, Timestamp(40));
        assert_eq!(w.len(), 2);
        assert!(w.complete(0) && w.complete(2) && w.len() == 0);
    }

    /// Sparse ids (the store's id→row lookup spills to its hash form),
    /// two tight nodes and an hourly rebalance that ships histories: at
    /// the end every database's id and row round-trip through the store,
    /// its fleet column, cluster slot and `sys.databases` row are still
    /// one number, and each of the three holds *that* database's state.
    #[test]
    fn sparse_ids_and_rebalance_moves_keep_the_three_numberings_aligned() {
        use prorp_workload::{RegionName, RegionProfile};
        const DAY: i64 = 86_400;
        let (start, end) = (Timestamp(0), Timestamp(10 * DAY));
        let cfg = SimConfig::builder(SimPolicy::Reactive, start, end, start)
            .nodes(2)
            .node_capacity(30)
            .rebalance_period(Seconds::hours(1))
            .rebalance_threshold(1)
            .build()
            .unwrap();
        let traces: Vec<Trace> = RegionProfile::for_region(RegionName::Eu1)
            .generate_fleet(48, start, end, 23)
            .into_iter()
            .enumerate()
            .map(|(k, t)| {
                Trace::new(DatabaseId(u64::MAX - k as u64), "sparse", t.sessions).unwrap()
            })
            .collect();
        let mut driver = ShardDriver::new(&cfg, 0, traces.len()).unwrap();
        for t in &traces {
            driver.register(t).unwrap();
        }
        driver.start();
        driver.run_to_end().unwrap();

        assert!(driver.metadata.is_sparse());
        assert!(driver.cluster.balance_moves > 0, "a history was restored");
        assert_eq!(driver.cluster.oversubscriptions, 0);
        assert_eq!(driver.metadata.len(), traces.len());
        let homed: usize = driver.cluster.nodes().iter().map(|n| n.homed_count()).sum();
        assert_eq!(homed, traces.len());
        for (idx, t) in traces.iter().enumerate() {
            assert_eq!(driver.metadata.ids()[idx], t.db);
            assert_eq!(driver.metadata.row_of(t.db), Some(idx));
            let state = driver.fleet.engines.get(idx).state();
            assert_eq!(driver.metadata.get(t.db).unwrap().state, state, "{}", t.db);
            if state == DbState::PhysicallyPaused {
                assert!(!driver.cluster.has_allocation(idx), "{}", t.db);
            }
            if driver.fleet.engines.get(idx).serving() {
                assert!(driver.cluster.has_allocation(idx), "{}", t.db);
            }
        }
        let outcome = driver.finish().unwrap();
        let ids: Vec<DatabaseId> = outcome.dbs.iter().map(|r| r.0).collect();
        assert_eq!(ids, traces.iter().map(|t| t.db).collect::<Vec<_>>());
    }

    /// Time order is checked once per shard, where the loop pops: an
    /// event popped behind the one popped last stops a debug build's run
    /// with an invariant violation (release builds compile the check out).
    /// The inject path refuses such an event, so the test queues it
    /// directly.
    #[test]
    fn a_pop_behind_the_last_pop_fails_in_a_debug_build() {
        if !cfg!(debug_assertions) {
            return;
        }
        let hour = |h: i64| Timestamp(h * 3_600);
        let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), hour(24), Timestamp(0))
            .build()
            .unwrap();
        let id = DatabaseId(0);
        let mut driver = ShardDriver::new(&cfg, 0, 1).unwrap();
        driver
            .register(&Trace::new(id, "live", Vec::new()).unwrap())
            .unwrap();
        assert!(driver.inject_login(hour(1), id));
        driver.start();
        driver.step_until(hour(3)).unwrap();
        driver.queue.push(hour(2), SimEvent::ActivityEnd(id));
        let err = driver.step_until(hour(4)).unwrap_err();
        assert_eq!(err.category(), "invariant");
        assert!(
            err.to_string()
                .contains("an event at day 0 02:00:00 popped after one at"),
            "{err}"
        );
    }

    /// Every inject path refuses an instant behind the last
    /// `step_until` horizon, in every build: the loop has run past it, so
    /// queuing it would process it out of order.  At the horizon and
    /// after it, an event is accepted and runs.
    #[test]
    fn an_event_behind_the_stepped_horizon_is_refused() {
        let hour = |h: i64| Timestamp(h * 3_600);
        let cfg = SimConfig::builder(SimPolicy::Reactive, Timestamp(0), hour(24), Timestamp(0))
            .build()
            .unwrap();
        let id = DatabaseId(0);
        let mut driver = ShardDriver::new(&cfg, 0, 1).unwrap();
        driver
            .register(&Trace::new(id, "live", Vec::new()).unwrap())
            .unwrap();
        assert!(driver.inject_login(hour(1), id));
        driver.start();
        driver.step_until(hour(3)).unwrap();
        // A horizon behind the last one moves nothing back.
        driver.step_until(hour(2)).unwrap();
        let queued = driver.queue.len();
        let behind = hour(3) - Seconds(1);
        assert!(!driver.inject_logout(behind, id));
        assert!(!driver.inject_login(behind, id));
        assert!(!driver.inject_forced_resume(behind, id));
        assert!(!driver.inject_forced_pause(behind, id));
        assert_eq!(driver.queue.len(), queued, "a refusal queues nothing");
        assert!(driver.inject_logout(hour(3), id));
        driver.step_until(hour(4)).unwrap();
        assert_eq!(driver.db_state(id), Some(DbState::LogicallyPaused));
    }
}
