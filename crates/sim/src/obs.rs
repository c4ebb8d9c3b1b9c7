//! Shard-local observability wiring for the event loop.
//!
//! `ShardObs` is the single object the shard runner threads through its
//! instrumentation sites when `SimConfig::observe()` is enabled.  It owns
//! the shard's [`TraceBuffer`], its [`MetricsRegistry`], and every typed
//! metric-handle bundle, so the event loop itself stays free of metric
//! names.  When observability is disabled the runner holds
//! `Option::<ShardObs>::None` and every site reduces to one branch.
//!
//! # How engine activity is observed
//!
//! The policy engines are never instrumented directly.  Instead the
//! shard's one delivery path (`ShardDriver::deliver`) captures the
//! engine's [`DbState`] and `Copy` [`EngineCounters`] immediately before
//! and after each `on_event` call and hands both readings to
//! `ShardObs::on_engine_event`, which turns the *deltas* into spans and
//! metric increments:
//!
//! * a state change emits a `lifecycle` span (Algorithm 1, Figure 4);
//! * prediction/forecast-failure/fallback deltas emit `predict` spans
//!   with the matching [`PredictOutcome`];
//! * a breaker-open delta emits a `breaker opened` span and marks the
//!   database open; the next successful prediction on a marked database
//!   emits the matching `breaker closed` span (the engine closes its
//!   breaker exactly on that success — see `CircuitBreaker::
//!   record_success` — so the derivation is exact, not heuristic).
//!
//! All spans carry simulated timestamps only, so the merged trace is
//! bit-identical at any shard count (see `prorp_obs::span`).

use prorp_core::{
    BreakerMetrics, CircuitBreaker, EngineCounters, EngineMetrics, ProactiveResumeOp,
    ResumeOpMetrics,
};
use prorp_obs::span::DecisionExplain;
use prorp_obs::{
    BreakerTransition, Counter, Histogram, MetricsRegistry, MetricsSnapshot, ObsConfig, ObsPart,
    PredictOutcome, Sketch, SloSeries, SpanKind, StageResult, TraceBuffer, TraceSink,
    WorkflowOutcome,
};
use prorp_telemetry::ShardCounters;
use prorp_types::{DatabaseId, DbSet, DbState, Seconds, Timestamp, WorkflowStage};

/// Handles for the §7 diagnostics-and-mitigation runner's outcomes:
/// mitigations, incidents and workflow give-ups.
#[derive(Clone, Debug)]
pub(crate) struct DiagnosticsMetrics {
    mitigations: Counter,
    incidents: Counter,
    giveups: Counter,
}

impl DiagnosticsMetrics {
    pub(crate) fn register(reg: &MetricsRegistry) -> Self {
        DiagnosticsMetrics {
            mitigations: reg.counter("prorp_mitigations_total"),
            incidents: reg.counter("prorp_incidents_total"),
            giveups: reg.counter("prorp_workflow_giveups_total"),
        }
    }
}

/// All observability state of one shard: trace buffer, metrics registry,
/// typed handle bundles, and the snapshot series.
pub(crate) struct ShardObs {
    trace: TraceBuffer,
    /// Record span traces at all (`ObsConfig::trace_spans`); rollup-only
    /// runs keep metrics, sketches, and SLO series without the per-event
    /// trace memory.
    trace_spans: bool,
    /// Capture `SpanKind::Decision` provenance (`ObsConfig::explain`).
    explain: bool,
    registry: MetricsRegistry,
    engine: EngineMetrics,
    breaker: BreakerMetrics,
    resume_op: ResumeOpMetrics,
    diagnostics: DiagnosticsMetrics,
    lifecycle_transitions: Counter,
    stage_seconds: Histogram,
    workflow_seconds: Histogram,
    workflow_retries: Counter,
    checkpoints: Counter,
    checkpoint_bytes: Counter,
    recovers: Counter,
    /// Resume-stage durations as a mergeable quantile sketch (the
    /// histogram above keeps the coarse Prometheus buckets; the sketch
    /// yields exact deterministic percentiles at any shard count).
    stage_latency_sketch: Sketch,
    /// Customer-visible QoS-miss delay: the staged-workflow duration an
    /// unavailable login waited out.
    qos_miss_delay_sketch: Sketch,
    /// Backoff waits drawn by workflow stage retries.
    retry_backoff_sketch: Sketch,
    /// Per-region SLO rollup (`ObsConfig::slo`).
    slo: Option<SloSeries>,
    /// Latest decision-provenance record per database, for the live
    /// `why` endpoint (the full history lives in the trace): a column
    /// indexed by the shard's database slot, grown by the first decision
    /// that reaches a slot — so it is never allocated unless
    /// `ObsConfig::explain` is on.
    last_decision: Vec<Option<(Timestamp, DecisionExplain)>>,
    /// Databases whose predictor breaker is currently open; lets the next
    /// successful prediction be attributed as the breaker-closing probe.
    breaker_open: DbSet,
    snapshots: Vec<MetricsSnapshot>,
}

impl ShardObs {
    /// Build the shard's observability state, registering every metric
    /// up front so all shards snapshot identical name sets.
    pub(crate) fn new(cfg: &ObsConfig) -> Self {
        let registry = MetricsRegistry::new();
        let engine = EngineMetrics::register(&registry);
        let breaker = CircuitBreaker::register_metrics(&registry);
        let resume_op = ProactiveResumeOp::register_metrics(&registry);
        let diagnostics = DiagnosticsMetrics::register(&registry);
        let lifecycle_transitions = registry.counter("prorp_lifecycle_transitions_total");
        let stage_seconds = registry.histogram("prorp_workflow_stage_seconds");
        let workflow_seconds = registry.histogram("prorp_workflow_seconds");
        let workflow_retries = registry.counter("prorp_workflow_retries_total");
        let checkpoints = registry.counter("prorp_checkpoints_total");
        let checkpoint_bytes = registry.counter("prorp_checkpoint_bytes_total");
        let recovers = registry.counter("prorp_recovers_total");
        let stage_latency_sketch = registry.sketch("prorp_resume_stage_latency_seconds");
        let qos_miss_delay_sketch = registry.sketch("prorp_qos_miss_delay_seconds");
        let retry_backoff_sketch = registry.sketch("prorp_retry_backoff_seconds");
        // Volatile self-observations: registered eagerly (so merges see
        // consistent name sets) but only written at snapshot time.
        registry.gauge("prorp_workflows_in_flight");
        registry.gauge("sim_self_events_processed");
        registry.gauge("sim_self_telemetry_events");
        registry.gauge("sim_self_trace_records");
        registry.gauge("sim_self_databases");
        registry.gauge("sim_self_wall_clock_micros");
        registry.gauge("sim_self_register_micros");
        registry.gauge("sim_self_run_micros");
        registry.gauge("sim_self_compaction_stall_micros");
        registry.gauge("sim_self_queue_depth");
        registry.gauge("sim_self_queue_peak");
        registry.gauge("sim_self_queue_recorded");
        ShardObs {
            trace: TraceBuffer::new(),
            trace_spans: cfg.trace_spans,
            explain: cfg.explain,
            registry,
            engine,
            breaker,
            resume_op,
            diagnostics,
            lifecycle_transitions,
            stage_seconds,
            workflow_seconds,
            workflow_retries,
            checkpoints,
            checkpoint_bytes,
            recovers,
            stage_latency_sketch,
            qos_miss_delay_sketch,
            retry_backoff_sketch,
            slo: cfg.slo.map(SloSeries::new),
            last_decision: Vec::new(),
            breaker_open: DbSet::default(),
            snapshots: Vec::new(),
        }
    }

    /// Whether decision-provenance capture is on (the driver only drains
    /// engine explains when it is).
    pub(crate) fn explain_enabled(&self) -> bool {
        self.explain
    }

    /// Fold one drained engine decision of database `db`, at column
    /// `slot`, into the trace and the latest-decision column.
    pub(crate) fn on_decision(
        &mut self,
        at: Timestamp,
        slot: usize,
        db: DatabaseId,
        explain: DecisionExplain,
    ) {
        if self.trace_spans {
            self.trace.event(at, db, SpanKind::Decision { explain });
        }
        if slot >= self.last_decision.len() {
            self.last_decision.resize(slot + 1, None);
        }
        self.last_decision[slot] = Some((at, explain));
    }

    /// The latest decision recorded for the database at `slot`, if any
    /// (live `why` route).
    pub(crate) fn last_decision(&self, slot: usize) -> Option<(Timestamp, DecisionExplain)> {
        *self.last_decision.get(slot)?
    }

    /// The shard-local SLO rollup so far (live `/v1/slo` route).
    pub(crate) fn slo_series(&self) -> Option<&SloSeries> {
        self.slo.as_ref()
    }

    /// Fold one engine event into spans and metrics from its
    /// `(state, counters)` readings before and after the event.
    pub(crate) fn on_engine_event(
        &mut self,
        now: Timestamp,
        db: DatabaseId,
        (before_state, before): (DbState, &EngineCounters),
        (after_state, after): (DbState, &EngineCounters),
    ) {
        self.engine.observe_delta(before, after);
        if before_state != after_state {
            self.lifecycle_transitions.inc();
            if self.trace_spans {
                self.trace.event(
                    now,
                    db,
                    SpanKind::Lifecycle {
                        from: before_state,
                        to: after_state,
                    },
                );
            }
        }
        let fallbacks = after.breaker_fallbacks - before.breaker_fallbacks;
        for _ in 0..fallbacks {
            self.breaker.fallback();
            if self.trace_spans {
                self.trace.event(
                    now,
                    db,
                    SpanKind::Predict {
                        outcome: PredictOutcome::BreakerFallback,
                    },
                );
            }
        }
        let predictions = after.predictions - before.predictions;
        let failures = after.forecast_failures - before.forecast_failures;
        if self.trace_spans {
            for _ in 0..failures {
                self.trace.event(
                    now,
                    db,
                    SpanKind::Predict {
                        outcome: PredictOutcome::Failed,
                    },
                );
            }
            for _ in 0..predictions.saturating_sub(failures) {
                self.trace.event(
                    now,
                    db,
                    SpanKind::Predict {
                        outcome: PredictOutcome::Predicted,
                    },
                );
            }
        }
        if after.breaker_opens > before.breaker_opens {
            self.breaker.opened();
            self.breaker_open.insert(db);
            if let Some(slo) = self.slo.as_mut() {
                for _ in 0..(after.breaker_opens - before.breaker_opens) {
                    slo.on_breaker_open(now, db);
                }
            }
            if self.trace_spans {
                self.trace.event(
                    now,
                    db,
                    SpanKind::Breaker {
                        transition: BreakerTransition::Opened,
                    },
                );
            }
        } else if predictions > failures && self.breaker_open.remove(&db) {
            // A successful prediction on a breaker-open database is the
            // half-open re-probe that closed the breaker.
            self.breaker.closed();
            if self.trace_spans {
                self.trace.event(
                    now,
                    db,
                    SpanKind::Breaker {
                        transition: BreakerTransition::Closed,
                    },
                );
            }
        }
    }

    /// A customer login landed; `available` is the QoS outcome.
    pub(crate) fn on_login(&mut self, now: Timestamp, db: DatabaseId, available: bool) {
        if let Some(slo) = self.slo.as_mut() {
            slo.on_login(now, db, available);
        }
        if self.trace_spans {
            self.trace.event(now, db, SpanKind::Login { available });
        }
    }

    /// The Algorithm 5 scan delivered a pre-warm to this database.
    pub(crate) fn on_proactive_resume(&mut self, now: Timestamp, db: DatabaseId) {
        if let Some(slo) = self.slo.as_mut() {
            slo.on_proactive_resume(now, db);
        }
        if self.trace_spans {
            self.trace.event(now, db, SpanKind::ProactiveResume);
        }
    }

    /// One scan tick selected `batch` databases.
    pub(crate) fn on_scan(&mut self, batch: usize) {
        self.resume_op.observe_scan(batch);
    }

    /// A workflow stage attempt succeeded after `spent` (entry to
    /// success); the span covers that window.
    pub(crate) fn on_stage_completed(
        &mut self,
        now: Timestamp,
        db: DatabaseId,
        stage: WorkflowStage,
        attempt: u32,
        spent: prorp_types::Seconds,
    ) {
        self.stage_seconds.observe(spent.as_secs());
        self.stage_latency_sketch.observe(spent.as_secs());
        if self.trace_spans {
            self.trace.span(
                now - spent,
                now,
                db,
                SpanKind::WorkflowStage {
                    stage,
                    attempt,
                    result: StageResult::Ok,
                },
            );
        }
    }

    /// A stage attempt failed transiently; `attempt` is the retry about
    /// to run after waiting out `backoff`.
    pub(crate) fn on_stage_retry(
        &mut self,
        now: Timestamp,
        db: DatabaseId,
        stage: WorkflowStage,
        attempt: u32,
        backoff: Seconds,
    ) {
        self.workflow_retries.inc();
        self.retry_backoff_sketch.observe(backoff.as_secs());
        if self.trace_spans {
            self.trace.event(
                now,
                db,
                SpanKind::WorkflowStage {
                    stage,
                    attempt,
                    result: StageResult::Retry,
                },
            );
        }
    }

    /// A stage burned its whole retry budget after `attempts` tries; the
    /// workflow (running since `started`) gives up and escalates.
    pub(crate) fn on_stage_exhausted(
        &mut self,
        now: Timestamp,
        db: DatabaseId,
        stage: WorkflowStage,
        attempts: u32,
        started: Timestamp,
    ) {
        self.diagnostics.giveups.inc();
        self.diagnostics.incidents.inc();
        if self.trace_spans {
            self.trace.event(
                now,
                db,
                SpanKind::WorkflowStage {
                    stage,
                    attempt: attempts,
                    result: StageResult::Exhausted,
                },
            );
            self.trace.span(
                started,
                now,
                db,
                SpanKind::Workflow {
                    outcome: WorkflowOutcome::GaveUp,
                },
            );
        }
    }

    /// A staged workflow (running since `started`) completed its final
    /// stage.
    pub(crate) fn on_workflow_completed(
        &mut self,
        now: Timestamp,
        db: DatabaseId,
        started: Timestamp,
    ) {
        let waited = now.since(started);
        self.workflow_seconds.observe(waited.as_secs());
        // Every staged workflow serves an unavailable login, so its total
        // duration *is* the customer's QoS-miss delay.
        self.qos_miss_delay_sketch.observe(waited.as_secs());
        if let Some(slo) = self.slo.as_mut() {
            slo.on_resume_completed(now, db, waited);
        }
        if self.trace_spans {
            self.trace.span(
                started,
                now,
                db,
                SpanKind::Workflow {
                    outcome: WorkflowOutcome::Completed,
                },
            );
        }
    }

    /// The diagnostics sweep force-completed a stuck workflow.
    pub(crate) fn on_mitigation(&mut self, now: Timestamp, db: DatabaseId, escalated: bool) {
        self.diagnostics.mitigations.inc();
        if escalated {
            self.diagnostics.incidents.inc();
        }
        if self.trace_spans {
            self.trace
                .event(now, db, SpanKind::Mitigation { escalated });
        }
    }

    /// A rebalance move checkpointed this database's history into a
    /// `bytes`-byte page image and recovered it on the destination.
    pub(crate) fn on_move_with_history(&mut self, now: Timestamp, db: DatabaseId, bytes: u64) {
        self.checkpoints.inc();
        self.checkpoint_bytes.add(bytes);
        self.recovers.inc();
        if self.trace_spans {
            self.trace.event(now, db, SpanKind::Checkpoint { bytes });
            self.trace.event(now, db, SpanKind::Recover { bytes });
        }
    }

    /// A snapshot of the current registry state *without* recording it
    /// into the deterministic snapshot series — the live `/metrics`
    /// endpoint scrapes this so a scrape never perturbs the run's
    /// observable output.
    pub(crate) fn live_snapshot(&self, at: Timestamp) -> MetricsSnapshot {
        self.registry.snapshot(at)
    }

    /// Take one metrics snapshot at simulated instant `at`, first setting
    /// the volatile self-observation gauges from the shard's `counters`
    /// and the three live readings they do not hold: resume workflows in
    /// flight, the run-time queue lane's depth, and the recorded session
    /// events not yet consumed.  These describe the simulator process,
    /// vary with the shard layout, and are excluded from every
    /// determinism assertion.
    pub(crate) fn take_snapshot(
        &mut self,
        at: Timestamp,
        counters: &ShardCounters,
        workflows_in_flight: usize,
        queue_depth: usize,
        queue_recorded: usize,
    ) {
        let gauges = [
            ("prorp_workflows_in_flight", workflows_in_flight as u64),
            ("sim_self_events_processed", counters.events_processed),
            ("sim_self_telemetry_events", counters.telemetry_events),
            ("sim_self_trace_records", self.trace.len() as u64),
            ("sim_self_databases", counters.databases as u64),
            ("sim_self_wall_clock_micros", counters.wall_clock_micros),
            ("sim_self_register_micros", counters.register_micros),
            ("sim_self_run_micros", counters.run_micros),
            (
                "sim_self_compaction_stall_micros",
                counters.compaction_stall_micros,
            ),
            ("sim_self_queue_depth", queue_depth as u64),
            ("sim_self_queue_peak", counters.queue_peak as u64),
            ("sim_self_queue_recorded", queue_recorded as u64),
        ];
        for (name, value) in gauges {
            self.registry
                .gauge(name)
                .set(value.min(i64::MAX as u64) as i64);
        }
        self.snapshots.push(self.registry.snapshot(at));
    }

    /// Consume the shard's observability state into its mergeable part.
    ///
    /// The trace leaves as the buffer's two lanes, put in canonical
    /// `(start, db, seq)` order here, on the worker thread — which the
    /// way they were written makes a fix-up of ties and a sort of the
    /// few backdated spans (`TraceBuffer::into_lanes`).  Merging the
    /// lanes is left to the fleet-wide `TraceBuffer::merge`, which has
    /// to pass over every record anyway.
    pub(crate) fn finish(self) -> ObsPart {
        ObsPart {
            trace: self.trace.into_lanes(),
            snapshots: self.snapshots,
            slo: self.slo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_obs::ObsReport;

    /// One shard's finished state as the fleet report it merges into.
    fn report_of(obs: ShardObs) -> ObsReport {
        ObsReport::merge(vec![obs.finish()]).unwrap()
    }

    #[test]
    fn engine_event_deltas_become_spans_and_metrics() {
        let mut obs = ShardObs::new(&ObsConfig::on());
        let before = EngineCounters::default();
        let mut after = before;
        after.predictions = 1;
        after.logical_pauses = 1;
        obs.on_engine_event(
            Timestamp(60),
            DatabaseId(3),
            (DbState::Resumed, &before),
            (DbState::LogicallyPaused, &after),
        );
        let report = {
            let mut o = obs;
            o.take_snapshot(Timestamp(100), &ShardCounters::default(), 0, 0, 0);
            report_of(o)
        };
        assert_eq!(report.trace.len(), 2, "lifecycle + predict");
        let snap = report.final_snapshot().unwrap();
        assert_eq!(
            snap.get("prorp_lifecycle_transitions_total")
                .unwrap()
                .as_counter(),
            Some(1)
        );
        assert_eq!(
            snap.get("prorp_predictions_total").unwrap().as_counter(),
            Some(1)
        );
    }

    #[test]
    fn breaker_open_then_success_derives_a_close() {
        let mut obs = ShardObs::new(&ObsConfig::on());
        let db = DatabaseId(9);
        let before = EngineCounters::default();

        // Event 1: forecast failure trips the breaker open.
        let mut opened = before;
        opened.predictions = 1;
        opened.forecast_failures = 1;
        opened.breaker_opens = 1;
        obs.on_engine_event(
            Timestamp(10),
            db,
            (DbState::Resumed, &before),
            (DbState::Resumed, &opened),
        );

        // Event 2: the half-open re-probe succeeds → breaker closed.
        let mut closed = opened;
        closed.predictions = 2;
        obs.on_engine_event(
            Timestamp(20),
            db,
            (DbState::Resumed, &opened),
            (DbState::Resumed, &closed),
        );

        let mut o = obs;
        o.take_snapshot(Timestamp(30), &ShardCounters::default(), 0, 0, 0);
        let report = report_of(o);
        let snap = report.final_snapshot().unwrap();
        assert_eq!(
            snap.get("prorp_breaker_opens_total").unwrap().as_counter(),
            Some(1)
        );
        assert_eq!(
            snap.get("prorp_breaker_closes_total").unwrap().as_counter(),
            Some(1)
        );
        let breaker_spans: Vec<_> = report
            .trace
            .iter()
            .filter(|r| matches!(r.kind, SpanKind::Breaker { .. }))
            .collect();
        assert_eq!(breaker_spans.len(), 2);
        assert_eq!(
            breaker_spans[0].kind,
            SpanKind::Breaker {
                transition: BreakerTransition::Opened
            }
        );
        assert_eq!(
            breaker_spans[1].kind,
            SpanKind::Breaker {
                transition: BreakerTransition::Closed
            }
        );
    }

    #[test]
    fn workflow_sites_fill_histograms_and_spans() {
        let mut obs = ShardObs::new(&ObsConfig::on());
        let db = DatabaseId(1);
        obs.on_stage_completed(
            Timestamp(130),
            db,
            WorkflowStage::AllocateNode,
            1,
            Seconds(30),
        );
        obs.on_stage_retry(
            Timestamp(150),
            db,
            WorkflowStage::AttachStorage,
            2,
            Seconds(20),
        );
        obs.on_workflow_completed(Timestamp(180), db, Timestamp(100));
        obs.on_mitigation(Timestamp(200), db, true);
        obs.on_move_with_history(Timestamp(210), db, 4_096);
        obs.take_snapshot(Timestamp(300), &ShardCounters::default(), 0, 0, 0);
        let report = report_of(obs);
        let snap = report.final_snapshot().unwrap();
        assert_eq!(
            snap.get("prorp_workflow_stage_seconds")
                .unwrap()
                .as_histogram(),
            Some((1, 30))
        );
        assert_eq!(
            snap.get("prorp_workflow_seconds").unwrap().as_histogram(),
            Some((1, 80))
        );
        assert_eq!(
            snap.get("prorp_workflow_retries_total")
                .unwrap()
                .as_counter(),
            Some(1)
        );
        assert_eq!(
            snap.get("prorp_mitigations_total").unwrap().as_counter(),
            Some(1)
        );
        assert_eq!(
            snap.get("prorp_incidents_total").unwrap().as_counter(),
            Some(1)
        );
        assert_eq!(
            snap.get("prorp_checkpoint_bytes_total")
                .unwrap()
                .as_counter(),
            Some(4_096)
        );
        // The stage span covers [entry, success].
        let stage = report
            .trace
            .iter()
            .find(|r| matches!(r.kind, SpanKind::WorkflowStage { .. }))
            .unwrap();
        assert_eq!(stage.start, Timestamp(100));
        assert_eq!(stage.end, Timestamp(130));
    }

    #[test]
    fn snapshots_carry_self_observations_as_volatile_gauges() {
        let mut obs = ShardObs::new(&ObsConfig::on());
        let counters = ShardCounters {
            events_processed: 42,
            telemetry_events: 7,
            databases: 3,
            wall_clock_micros: 12_345,
            register_micros: 1_000,
            run_micros: 11_000,
            compaction_stall_micros: 9,
            queue_peak: 8,
            ..ShardCounters::default()
        };
        obs.take_snapshot(Timestamp(500), &counters, 2, 5, 13);
        let report = report_of(obs);
        let snap = report.final_snapshot().unwrap();
        assert_eq!(snap.at, Timestamp(500));
        assert_eq!(
            snap.get("sim_self_wall_clock_micros").unwrap().as_gauge(),
            Some(12_345)
        );
        assert_eq!(
            snap.get("prorp_workflows_in_flight").unwrap().as_gauge(),
            Some(2)
        );
        assert_eq!(
            snap.get("sim_self_compaction_stall_micros")
                .unwrap()
                .as_gauge(),
            Some(9)
        );
        for (name, want) in [
            ("sim_self_queue_depth", 5),
            ("sim_self_queue_peak", 8),
            ("sim_self_queue_recorded", 13),
        ] {
            assert_eq!(snap.get(name).unwrap().as_gauge(), Some(want), "{name}");
        }
        // The volatile gauges vanish from the deterministic surface.
        let det = snap.deterministic();
        assert!(det.get("sim_self_queue_peak").is_none());
        assert!(det.get("sim_self_wall_clock_micros").is_none());
        assert!(det.get("sim_self_compaction_stall_micros").is_none());
        assert!(det.get("prorp_workflows_in_flight").is_some());
    }
}
