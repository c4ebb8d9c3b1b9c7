//! Shard-local observability wiring for the event loop.
//!
//! `ShardObs` is the single object the shard runner threads through its
//! instrumentation sites when `SimConfig::observe()` is enabled.  It owns
//! the shard's [`TraceBuffer`], its SLO rollup, its snapshot series, and
//! the few quantities no other book of the shard keeps (lifecycle
//! transitions, breaker closes, checkpoint bytes and three quantile
//! sketches).  When observability is disabled the runner holds
//! `Option::<ShardObs>::None` and every site reduces to one branch.
//!
//! # How engine activity is observed
//!
//! The policy engines are never instrumented directly.  Instead the
//! shard's one delivery path (`ShardDriver::deliver`) captures the
//! engine's [`DbState`] and `Copy` [`EngineCounters`] immediately before
//! and after each `react` call and hands both readings to
//! `ShardObs::on_engine_event`, which turns the *deltas* into spans:
//!
//! * a state change emits a `lifecycle` span (Algorithm 1, Figure 4);
//! * prediction/forecast-failure/fallback deltas emit `predict` spans
//!   with the matching [`PredictOutcome`];
//! * a breaker-open delta emits a `breaker opened` span, feeds the SLO
//!   rollup and marks the database open; the next successful prediction
//!   on a marked database emits the matching `breaker closed` span and
//!   counts a close (the engine closes its breaker exactly on that
//!   success — see `CircuitBreaker::record_success` — so the derivation
//!   is exact, not heuristic).
//!
//! The engine counters themselves are not repeated here: a metrics
//! snapshot (`ShardDriver::metrics_snapshot`) sums them over the shard's
//! engines when it is taken, and reads every other shard book the same
//! way.
//!
//! # How decisions are kept
//!
//! With `ObsConfig::explain` on, an engine puts the decision an event
//! made into its reply ([`prorp_core::Actions::decision`]); the shard
//! hands it to `ShardObs::on_decision` where it applies that reply.  The
//! decision is kept once, as its `Decision` span: `TraceBuffer::push`
//! reports the lane and index it stored the record at, and a `u32` per
//! database slot (`decision_at`, 0 for none) remembers that position,
//! from which `last_decision` — the live `why` route — reads the record
//! back.  Positions hold until `finish` consumes the buffer.
//!
//! All spans carry simulated timestamps only, so the merged trace is
//! bit-identical at any shard count (see `prorp_obs::span`).

use prorp_core::EngineCounters;
use prorp_obs::span::DecisionExplain;
use prorp_obs::{
    BreakerTransition, MetricsSnapshot, ObsConfig, ObsPart, PredictOutcome, QuantileSketch,
    SloSeries, SpanKind, StageResult, TraceBuffer, TracePos, TraceSink, WorkflowOutcome,
};
use prorp_types::{DatabaseId, DbSet, DbState, Seconds, Timestamp, WorkflowStage};

/// All observability state of one shard: trace buffer, SLO rollup,
/// snapshot series, and what only observability counts.
pub(crate) struct ShardObs {
    pub(crate) trace: TraceBuffer,
    /// Record span traces at all (`ObsConfig::trace_spans`); rollup-only
    /// runs keep metrics, sketches, and SLO series without the per-event
    /// trace memory.  Decision capture (`ObsConfig::explain`) requires
    /// it, so a decision always has a trace record to live in.
    trace_spans: bool,
    /// Engine state changes.
    pub(crate) lifecycle_transitions: u64,
    /// Breakers closed by a successful half-open re-probe.
    pub(crate) breaker_closes: u64,
    /// Page-image bytes shipped by rebalance moves.
    pub(crate) checkpoint_bytes: u64,
    /// Resume-stage durations as a mergeable quantile sketch (the
    /// workflow histograms keep the coarse Prometheus buckets; the sketch
    /// yields exact deterministic percentiles at any shard count).
    pub(crate) stage_latency_sketch: QuantileSketch,
    /// Customer-visible QoS-miss delay: the staged-workflow duration an
    /// unavailable login waited out.
    pub(crate) qos_miss_delay_sketch: QuantileSketch,
    /// Backoff waits drawn by workflow stage retries.
    pub(crate) retry_backoff_sketch: QuantileSketch,
    /// Per-region SLO rollup (`ObsConfig::slo`).
    slo: Option<SloSeries>,
    /// Where each database's newest `Decision` record sits in the trace,
    /// for the live `why` endpoint: a column indexed by the shard's
    /// database slot, 0 for none, else [`TraceBuffer::push`]'s position
    /// packed by [`pack`].  The decision itself is kept once, in its
    /// trace record.  Grown by the first decision that reaches a slot —
    /// so it is never allocated unless `ObsConfig::explain` is on.
    decision_at: Vec<u32>,
    /// Databases whose predictor breaker is currently open; lets the next
    /// successful prediction be attributed as the breaker-closing probe.
    breaker_open: DbSet,
    /// The recorded snapshot series.
    pub(crate) snapshots: Vec<MetricsSnapshot>,
}

impl ShardObs {
    /// Build the shard's observability state.
    pub(crate) fn new(cfg: &ObsConfig) -> Self {
        ShardObs {
            trace: TraceBuffer::new(),
            trace_spans: cfg.trace_spans,
            lifecycle_transitions: 0,
            breaker_closes: 0,
            checkpoint_bytes: 0,
            stage_latency_sketch: QuantileSketch::new(),
            qos_miss_delay_sketch: QuantileSketch::new(),
            retry_backoff_sketch: QuantileSketch::new(),
            slo: cfg.slo.map(SloSeries::new),
            decision_at: Vec::new(),
            breaker_open: DbSet::default(),
            snapshots: Vec::new(),
        }
    }

    /// Record the decision an engine reply of database `db`, at column
    /// `slot`, carried: a `Decision` span in the trace, and where it sits
    /// in the latest-decision column.
    pub(crate) fn on_decision(
        &mut self,
        at: Timestamp,
        slot: usize,
        db: DatabaseId,
        explain: DecisionExplain,
    ) {
        debug_assert!(self.trace_spans, "decision capture requires span tracing");
        let pos = self.trace.push(at, at, db, SpanKind::Decision { explain });
        if slot >= self.decision_at.len() {
            self.decision_at.resize(slot + 1, 0);
        }
        self.decision_at[slot] = pack(pos);
    }

    /// The latest decision recorded for the database at `slot`, if any
    /// (live `why` route): read back from its trace record.
    pub(crate) fn last_decision(&self, slot: usize) -> Option<(Timestamp, DecisionExplain)> {
        let pos = unpack(*self.decision_at.get(slot)?)?;
        let record = self.trace.get(pos)?;
        let SpanKind::Decision { explain } = record.kind else {
            unreachable!("a decision position names a {} record", record.kind.label());
        };
        Some((record.start, explain))
    }

    /// The shard-local SLO rollup so far (live `/v1/slo` route).
    pub(crate) fn slo_series(&self) -> Option<&SloSeries> {
        self.slo.as_ref()
    }

    /// Fold one engine event into spans from its `(state, counters)`
    /// readings before and after the event.
    pub(crate) fn on_engine_event(
        &mut self,
        now: Timestamp,
        db: DatabaseId,
        (before_state, before): (DbState, &EngineCounters),
        (after_state, after): (DbState, &EngineCounters),
    ) {
        if before_state != after_state {
            self.lifecycle_transitions += 1;
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
        let predictions = after.predictions - before.predictions;
        let failures = after.forecast_failures - before.forecast_failures;
        if self.trace_spans {
            let fallbacks = after.breaker_fallbacks - before.breaker_fallbacks;
            for (n, outcome) in [
                (fallbacks, PredictOutcome::BreakerFallback),
                (failures, PredictOutcome::Failed),
                (
                    predictions.saturating_sub(failures),
                    PredictOutcome::Predicted,
                ),
            ] {
                for _ in 0..n {
                    self.trace.event(now, db, SpanKind::Predict { outcome });
                }
            }
        }
        if after.breaker_opens > before.breaker_opens {
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
            self.breaker_closes += 1;
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
        if self.trace_spans {
            self.trace
                .event(now, db, SpanKind::Mitigation { escalated });
        }
    }

    /// A rebalance move checkpointed this database's history into a
    /// `bytes`-byte page image and recovered it on the destination.
    pub(crate) fn on_move_with_history(&mut self, now: Timestamp, db: DatabaseId, bytes: u64) {
        self.checkpoint_bytes += bytes;
        if self.trace_spans {
            self.trace.event(now, db, SpanKind::Checkpoint { bytes });
            self.trace.event(now, db, SpanKind::Recover { bytes });
        }
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

/// A trace position as one `u32`: `1 + (index << 1 | backdated)`, so 0
/// is free to mean "no decision yet".
fn pack(pos: TracePos) -> u32 {
    (pos.index << 1 | usize::from(pos.backdated))
        .checked_add(1)
        .and_then(|packed| u32::try_from(packed).ok())
        // 2³¹ records of one shard's trace would be over 100 GiB.
        .expect("a shard trace outgrew 2^31 records")
}

/// The position [`pack`] packed; `None` for 0.
fn unpack(packed: u32) -> Option<TracePos> {
    let bits = packed.checked_sub(1)? as usize;
    Some(TracePos {
        backdated: bits & 1 == 1,
        index: bits >> 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_obs::ObsReport;

    #[test]
    fn a_packed_position_unpacks_to_itself() {
        assert_eq!(unpack(0), None);
        for backdated in [false, true] {
            for index in [0, 1, 2, 1 << 20, (u32::MAX as usize - 2) >> 1] {
                let pos = TracePos { backdated, index };
                assert_eq!(unpack(pack(pos)), Some(pos));
            }
        }
    }

    /// The latest-decision column holds positions, and reads each
    /// database's newest `Decision` record back out of the trace,
    /// backdated lane included.
    #[test]
    fn the_last_decision_is_read_back_from_the_trace() {
        use prorp_obs::DecisionAction;
        let mut obs = ShardObs::new(&ObsConfig::on().with_explain());
        let decision = |action, history_len| DecisionExplain {
            action,
            predicted: Some(Timestamp(900)),
            history_len,
            confidence_hits: 2,
            confidence_total: 4,
            breaker_open: false,
        };
        let (a, b) = (DatabaseId(7), DatabaseId(3));
        assert_eq!(obs.last_decision(0), None);
        obs.on_decision(
            Timestamp(100),
            0,
            a,
            decision(DecisionAction::DeferPause, 1),
        );
        obs.on_login(Timestamp(200), b, true);
        obs.on_decision(
            Timestamp(200),
            5,
            b,
            decision(DecisionAction::PhysicalPause, 2),
        );
        obs.on_decision(
            Timestamp(300),
            0,
            a,
            decision(DecisionAction::PhysicalPause, 3),
        );
        // Behind the in-order lane's last start: the backdated lane.
        obs.on_decision(
            Timestamp(150),
            5,
            b,
            decision(DecisionAction::ProactiveResume, 4),
        );
        assert_eq!(
            obs.last_decision(0),
            Some((Timestamp(300), decision(DecisionAction::PhysicalPause, 3)))
        );
        assert_eq!(
            obs.last_decision(5),
            Some((Timestamp(150), decision(DecisionAction::ProactiveResume, 4)))
        );
        for undecided in [1, 4, 6, 1_000] {
            assert_eq!(obs.last_decision(undecided), None);
        }
        assert_eq!(obs.decision_at.len(), 6);
    }

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
        assert_eq!(obs.lifecycle_transitions, 1);
        let report = report_of(obs);
        assert_eq!(report.trace.len(), 2, "lifecycle + predict");
        assert_eq!(
            report.trace[1].kind,
            SpanKind::Predict {
                outcome: PredictOutcome::Predicted
            }
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
        assert_eq!(obs.breaker_closes, 0);

        // Event 2: the half-open re-probe succeeds → breaker closed.
        let mut closed = opened;
        closed.predictions = 2;
        obs.on_engine_event(
            Timestamp(20),
            db,
            (DbState::Resumed, &opened),
            (DbState::Resumed, &closed),
        );
        assert_eq!(obs.breaker_closes, 1);

        let report = report_of(obs);
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
        let sketched = |s: &QuantileSketch| (s.count(), s.sum());
        assert_eq!(sketched(&obs.stage_latency_sketch), (1, 30));
        assert_eq!(sketched(&obs.retry_backoff_sketch), (1, 20));
        assert_eq!(sketched(&obs.qos_miss_delay_sketch), (1, 80));
        assert_eq!(obs.checkpoint_bytes, 4_096);
        let report = report_of(obs);
        // The stage span covers [entry, success].
        let stage = report
            .trace
            .iter()
            .find(|r| matches!(r.kind, SpanKind::WorkflowStage { .. }))
            .unwrap();
        assert_eq!(stage.start, Timestamp(100));
        assert_eq!(stage.end, Timestamp(130));
    }

    /// The `sim_self_*` gauges read the shard as it stands at each scrape,
    /// and drop out of the deterministic surface.
    #[test]
    fn snapshots_carry_self_observations_as_volatile_gauges() {
        use crate::{ShardDriver, SimConfig, SimPolicy};
        use prorp_workload::{RegionName, RegionProfile};
        let (start, mid, end) = (Timestamp(0), Timestamp(86_400), Timestamp(3 * 86_400));
        let cfg = SimConfig::builder(SimPolicy::Reactive, start, end, start)
            .observe(ObsConfig::on())
            .build()
            .unwrap();
        let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(20, start, end, 5);
        let mut driver = ShardDriver::new(&cfg, 0, traces.len()).unwrap();
        for t in &traces {
            driver.register(t).unwrap();
        }
        driver.start();
        let within = |t: Timestamp| i64::from(t >= start && t < end);
        let edges: i64 = traces
            .iter()
            .flat_map(|t| &t.sessions)
            .map(|s| within(s.start) + within(s.end))
            .sum();
        let gauge = |snap: &MetricsSnapshot, name| snap.get(name).unwrap().as_gauge().unwrap();

        let first = driver.metrics_snapshot(start).unwrap();
        assert_eq!(gauge(&first, "sim_self_queue_recorded"), edges);
        assert_eq!(gauge(&first, "sim_self_events_processed"), 0);

        driver.step_until(mid).unwrap();
        let snap = driver.metrics_snapshot(mid).unwrap();
        assert_eq!(snap.at, mid);
        assert!(driver.events_processed() > 0);
        assert_eq!(
            gauge(&snap, "sim_self_events_processed"),
            driver.events_processed() as i64
        );
        assert_eq!(gauge(&snap, "sim_self_databases"), 20);
        assert!(gauge(&snap, "sim_self_queue_recorded") < edges);
        assert!(gauge(&snap, "sim_self_trace_records") > 0);
        assert!(gauge(&snap, "sim_self_queue_peak") >= gauge(&snap, "sim_self_queue_depth"));
        assert!(gauge(&snap, "sim_self_wall_clock_micros") >= gauge(&snap, "sim_self_run_micros"));
        // The volatile gauges vanish from the deterministic surface.
        let det = snap.deterministic();
        assert!(det.get("sim_self_queue_peak").is_none());
        assert!(det.get("sim_self_wall_clock_micros").is_none());
        assert!(det.get("prorp_workflows_in_flight").is_some());
    }
}
