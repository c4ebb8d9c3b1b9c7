//! The simulation driver.
//!
//! Replays a fleet of traces through per-database policy engines,
//! executes the engines' actions against the cluster (allocation
//! workflows with latency and spill-over moves, reclamation, timers,
//! metadata publication), runs the Algorithm 5 scan, and accounts every
//! second of fleet time into the §8 segment kinds.
//!
//! The event loop itself lives in [`crate::shard`]: the fleet is
//! partitioned by database-id hash into [`SimConfig::shards`] shards,
//! held together by one [`Shards`], each shard runs a complete loop (on
//! its own worker thread when more than one shard is configured), and
//! [`merge_outcomes`] merges the per-shard outcomes into one
//! [`SimReport`].  The merge works on integer totals and counts only, so
//! one run is fully deterministic given the config seed and the traces —
//! and, under uncontended capacity, bit-identical across shard counts.
//! The control-plane server's live driver holds its fleet in the same
//! [`Shards`], stepped to each watermark instead of to the end.

use crate::config::SimConfig;
use crate::shard::{ShardDriver, ShardOutcome};
use prorp_core::{EngineCounters, MaintenanceStats, ProactiveResumeOp};
use prorp_obs::{MetricsSnapshot, ObsReport, SloSeries};
use prorp_storage::StorageStats;
use prorp_telemetry::{
    IncidentLog, KpiReport, SegmentTotals, ShardCounters, TelemetryKind, TelemetryLog,
    TelemetryMode, TelemetrySummary, WorkflowStats,
};
use prorp_types::{DatabaseId, ProrpError, Seconds, Timestamp};
use prorp_workload::{Trace, TraceSource};
use std::collections::HashMap;
use std::panic::resume_unwind;

/// Results of one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Which policy ran.
    pub policy_label: &'static str,
    /// Fleet-level KPIs over the measurement window.
    pub kpi: KpiReport,
    /// The merged telemetry log (whole run, timestamped) of a
    /// [`TelemetryMode::Full`] run; empty in the default
    /// [`TelemetryMode::Summary`].  No report query reads it.
    pub telemetry: TelemetryLog,
    /// Per-label event counts over the whole run: the sum of the counts
    /// each shard kept as it recorded.  Populated in every mode.
    pub telemetry_summary: TelemetrySummary,
    /// The same counts over the measured window, one summary per minute
    /// from `measure_from` up to the last minute with an event, summed
    /// minute by minute over the shards.  Populated in every mode.
    pub telemetry_window: Vec<TelemetrySummary>,
    /// Per-database engine counters (whole run), in input-trace order.
    pub counters: Vec<EngineCounters>,
    /// Batch sizes of each proactive-resume scan iteration (Figure 11).
    pub resume_batches: Vec<usize>,
    /// Per-database history storage statistics at end of run (Figure 10),
    /// in input-trace order.
    pub history_stats: Vec<StorageStats>,
    /// Databases moved because a resume found the home node full.
    pub spill_moves: u64,
    /// Load-balancing moves executed.
    pub balance_moves: u64,
    /// Forced allocations beyond nominal node capacity.
    pub oversubscriptions: u64,
    /// Hung workflows force-completed by the diagnostics runner.
    pub mitigations: u64,
    /// Escalations to the on-call engineer: repeat stuck databases plus
    /// retry-budget exhaustions (`incident_log.len()`).
    pub incidents: u64,
    /// Staged workflows that exhausted their retry budget
    /// (`workflow.giveups`).
    pub giveups: u64,
    /// Staged-workflow telemetry: per-stage latency histograms plus
    /// retry/giveup and circuit-breaker counters, fleet-wide.
    pub workflow: WorkflowStats,
    /// Fleet-wide incident log in canonical `(time, database, kind)`
    /// order — identical at any shard count.
    pub incident_log: IncidentLog,
    /// Maintenance placement quality (§11 future work 4); all zeros when
    /// maintenance is disabled.
    pub maintenance: MaintenanceStats,
    /// Per-shard timing/throughput counters, one entry per shard in
    /// shard order (a single entry for an unsharded run).
    pub shard_counters: Vec<ShardCounters>,
    /// Merged observability output — the canonical trace plus the
    /// metrics-snapshot series — when `SimConfig::observe()` enabled the
    /// observability layer; `None` otherwise.
    pub obs: Option<ObsReport>,
    /// Measurement window start.
    pub measure_from: Timestamp,
    /// Simulation end.
    pub end: Timestamp,
}

impl SimReport {
    /// Workflow counts per `bin` over the measurement window — the
    /// Figure 11 ([`TelemetryKind::ProactiveResume`]) and Figure 12
    /// ([`TelemetryKind::PhysicalPause`]) inputs — summed from the
    /// [`telemetry_window`](Self::telemetry_window) minutes, trailing
    /// empty bins included.  Panics unless `bin` is a positive whole
    /// number of minutes.
    pub fn workflow_bins(&self, kind: TelemetryKind, bin: Seconds) -> Vec<usize> {
        let secs = bin.as_secs();
        assert!(
            secs > 0 && secs % 60 == 0,
            "bin width must be a positive whole number of minutes, got {bin:?}"
        );
        let span = (self.end - self.measure_from).as_secs();
        let mut bins = vec![0usize; (span as usize).div_ceil(secs as usize)];
        let minutes_per_bin = (secs / 60) as usize;
        for (minute, counts) in self.telemetry_window.iter().enumerate() {
            bins[minute / minutes_per_bin] += counts.count(kind.label()) as usize;
        }
        bins
    }
}

/// KPI accounting identities the merge must preserve (checked once per
/// run, in every build): every fraction lies in `[0, 1]` and the six
/// segment fractions partition the measured window exactly.
fn check_kpi_identities(kpi: &KpiReport) -> Result<(), ProrpError> {
    const EPS: f64 = 1e-9;
    let fracs = [
        ("active", kpi.active_frac),
        ("logical-idle", kpi.idle_logical_frac),
        ("proactive-correct", kpi.idle_proactive_correct_frac),
        ("proactive-wrong", kpi.idle_proactive_wrong_frac),
        ("saved", kpi.saved_frac),
        ("unavailable", kpi.unavailable_frac),
    ];
    for (name, f) in fracs {
        if !(-EPS..=1.0 + EPS).contains(&f) {
            return Err(ProrpError::InvariantViolation(format!(
                "KPI fraction {name} = {f} outside [0, 1]"
            )));
        }
    }
    let sum: f64 = fracs.iter().map(|(_, f)| f).sum();
    // An empty fleet legitimately reports all-zero fractions.
    if sum != 0.0 && (sum - 1.0).abs() > 1e-6 {
        return Err(ProrpError::InvariantViolation(format!(
            "segment fractions sum to {sum}, expected 1"
        )));
    }
    Ok(())
}

/// A configured simulation, ready to run.
pub struct Simulation {
    config: SimConfig,
    traces: Vec<Trace>,
}

impl Simulation {
    /// Build a simulation over `traces`.
    ///
    /// # Errors
    ///
    /// Propagates config validation failures.
    pub fn new(config: SimConfig, traces: Vec<Trace>) -> Result<Self, ProrpError> {
        config.check()?;
        Ok(Simulation { config, traces })
    }

    /// Run to completion and report: [`run_streamed`](Self::run_streamed)
    /// over the simulation's own traces (a `Vec<Trace>` is a
    /// [`TraceSource`]; each shard registers a copy of one trace at a
    /// time).
    ///
    /// # Errors
    ///
    /// As [`run_streamed`](Self::run_streamed).
    pub fn run(self) -> Result<SimReport, ProrpError> {
        Self::run_streamed(self.config, &self.traces)
    }

    /// Run over a [`TraceSource`] without materialising the fleet.
    ///
    /// In one [`Shards::each`] every shard registers its own id-hash
    /// partition of the source, one trace at a time, and runs to the
    /// end, so peak memory never holds a million session vectors at
    /// once.  The merged report is the same at any shard count (see
    /// [`crate::shard`]), and for any source whose `trace(i)` agrees with
    /// a materialised `Vec<Trace>` (e.g. [`prorp_workload::LazyFleet`])
    /// it is [`Simulation::run`] over that vector.
    ///
    /// # Errors
    ///
    /// As [`Shards::new`], and [`ProrpError::Simulation`] on internal
    /// invariant violations.
    pub fn run_streamed<S: TraceSource + ?Sized>(
        config: SimConfig,
        source: &S,
    ) -> Result<SimReport, ProrpError> {
        let n = source.len();
        let mut shards = Shards::new(&config, (0..n).map(|i| source.db_id(i)).collect())?;
        shards.each(|shard| {
            for i in 0..n {
                if shard.owns(source.db_id(i)) {
                    shard.register(&source.trace(i))?;
                }
            }
            shard.start();
            shard.run_to_end()
        })?;
        shards.finish()
    }
}

/// A run's fleet: one [`ShardDriver`] per shard and the registration
/// order.  The DES and the control-plane server's live driver both hold
/// one, so sizing, routing, the fork-join and the merges are written once.
pub struct Shards {
    cfg: SimConfig,
    drivers: Vec<ShardDriver>,
    /// Registration order: id → position.  The merged report's row
    /// order, and the live driver's commit tie-break.
    order: HashMap<DatabaseId, usize>,
    /// The registered ids, in that order (`order` inverted).
    ids: Vec<DatabaseId>,
}

impl Shards {
    /// Validate `cfg`, fix `ids`' registration order, and build one empty
    /// [`ShardDriver`] per shard, sized to the ids it owns; the caller
    /// registers them, usually in one [`each`](Self::each).
    ///
    /// # Errors
    ///
    /// Propagates config validation failures; rejects a repeated id.
    pub fn new(cfg: &SimConfig, ids: Vec<DatabaseId>) -> Result<Self, ProrpError> {
        cfg.check()?;
        let mut sizes = vec![0usize; cfg.shards];
        let mut order = HashMap::with_capacity(ids.len());
        for (i, &id) in ids.iter().enumerate() {
            if order.insert(id, i).is_some() {
                return Err(ProrpError::Simulation(format!(
                    "database {id} registered twice"
                )));
            }
            sizes[id.shard_of(cfg.shards)] += 1;
        }
        let drivers = sizes
            .iter()
            .enumerate()
            .map(|(s, &size)| ShardDriver::new(cfg, s, size))
            .collect::<Result<_, _>>()?;
        Ok(Shards {
            cfg: cfg.clone(),
            drivers,
            order,
            ids,
        })
    }

    /// The run's config.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The ids, in registration order.
    pub fn ids(&self) -> &[DatabaseId] {
        &self.ids
    }

    /// `id`'s registration position, if it is one of the ids.
    pub fn position(&self, id: DatabaseId) -> Option<usize> {
        self.order.get(&id).copied()
    }

    /// The shard `id` hashes to — where it lives if it is registered;
    /// the shard itself answers `None` for an id it does not hold.
    pub fn shard(&self, id: DatabaseId) -> &ShardDriver {
        &self.drivers[id.shard_of(self.cfg.shards)]
    }

    /// The shard `id` hashes to, mutably.
    pub fn shard_mut(&mut self, id: DatabaseId) -> &mut ShardDriver {
        &mut self.drivers[id.shard_of(self.cfg.shards)]
    }

    /// The fork-join: run `f` on every shard, inline for a single shard,
    /// one scoped worker thread per shard otherwise.  A worker's panic
    /// is the caller's, as it is inline.
    ///
    /// # Errors
    ///
    /// The first error `f` returned, in shard order.
    pub fn each<F>(&mut self, f: F) -> Result<(), ProrpError>
    where
        F: Fn(&mut ShardDriver) -> Result<(), ProrpError> + Sync,
    {
        if let [only] = &mut self.drivers[..] {
            return f(only);
        }
        let f = &f;
        let results = crossbeam::scope(|scope| {
            let workers: Vec<_> = self
                .drivers
                .iter_mut()
                .map(|shard| scope.spawn(move |_| f(shard)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect::<Vec<_>>()
        })
        .unwrap_or_else(|p| resume_unwind(p));
        results.into_iter().collect()
    }

    /// The fleet's metrics at `at`: every shard's snapshot, merged by
    /// [`MetricsSnapshot::merge`]'s integer sums; `None` when
    /// observability is disabled.
    pub fn metrics_snapshot(&self, at: Timestamp) -> Option<MetricsSnapshot> {
        let parts = self
            .drivers
            .iter()
            .map(|s| s.metrics_snapshot(at).map(|snap| vec![snap]))
            .collect::<Option<Vec<_>>>()?;
        // Every shard lists the same names at one instant, so the merge
        // cannot fail.
        MetricsSnapshot::merge(parts).ok()?.pop()
    }

    /// The fleet SLO rollup so far, merged by elementwise integer sums;
    /// `None` when rollups are disabled in the config.
    pub fn slo_series(&self) -> Option<SloSeries> {
        let parts: Vec<SloSeries> = self
            .drivers
            .iter()
            .filter_map(|s| s.slo_series().cloned())
            .collect();
        // Every shard shares one config, so the merge cannot fail.
        SloSeries::merge(parts).ok().flatten()
    }

    /// Every incident raised so far, in canonical order.
    pub fn incidents(&self) -> IncidentLog {
        IncidentLog::merge(
            self.drivers
                .iter()
                .map(|s| s.incident_log().clone())
                .collect(),
        )
    }

    /// Close every shard's books and merge the outcomes into the fleet
    /// report ([`merge_outcomes`]), rows in registration order.
    ///
    /// # Errors
    ///
    /// Propagates invariant violations and merge failures.
    pub fn finish(self) -> Result<SimReport, ProrpError> {
        let outcomes = self
            .drivers
            .into_iter()
            .map(ShardDriver::finish)
            .collect::<Result<_, _>>()?;
        merge_outcomes(&self.cfg, &self.order, self.ids.len(), outcomes)
    }
}

/// Merge per-shard outcomes into the fleet report.
///
/// Every merged quantity is shard-order-independent: segment totals
/// and workflow counts are integer sums, per-database rows are written
/// once, in place, at their input-trace position (`order` maps id →
/// input position, `n` is the fleet size), batch sizes sum element-wise
/// per tick, and the telemetry counts add up kind by kind.
/// Fleet KPI fractions are computed once from the summed totals —
/// never by averaging per-shard ratios — so a shard with zero
/// databases contributes nothing instead of dragging the QoS/COGS
/// percentages toward its (undefined) local ratio.
///
/// The per-label summary and the per-minute window series are the
/// shards' own, summed (the series, of any lengths, minute by minute),
/// and the KPI event counts are the series' total; no event is visited.
/// Only a [`TelemetryMode::Full`] run has shard logs, which are k-way
/// merged by timestamp into the report's log.
pub fn merge_outcomes(
    cfg: &SimConfig,
    order: &HashMap<DatabaseId, usize>,
    n: usize,
    outcomes: Vec<ShardOutcome>,
) -> Result<SimReport, ProrpError> {
    {
        let mut segments = SegmentTotals::default();
        let mut counters = vec![EngineCounters::default(); n];
        let mut history_stats = vec![StorageStats::default(); n];
        let mut rows = 0;
        let mut forecast_failures = 0u64;
        let mut spill_moves = 0u64;
        let mut balance_moves = 0u64;
        let mut oversubscriptions = 0u64;
        let mut mitigations = 0u64;
        let mut maintenance = MaintenanceStats::default();
        let mut summary = TelemetrySummary::new();
        let mut window: Vec<TelemetrySummary> = Vec::new();
        let mut shard_counters = Vec::with_capacity(outcomes.len());
        let mut shard_batches = Vec::with_capacity(outcomes.len());
        let mut shard_logs = Vec::with_capacity(outcomes.len());
        let mut shard_workflows = Vec::with_capacity(outcomes.len());
        let mut shard_incident_logs = Vec::with_capacity(outcomes.len());
        let mut shard_obs = Vec::with_capacity(outcomes.len());

        for outcome in outcomes {
            segments.merge(&outcome.segments);
            for &(id, ctr, stats) in &outcome.dbs {
                forecast_failures += ctr.forecast_failures;
                let at = *order
                    .get(&id)
                    .ok_or_else(|| ProrpError::Simulation(format!("unknown database {id}")))?;
                counters[at] = ctr;
                history_stats[at] = stats;
                rows += 1;
            }
            spill_moves += outcome.spill_moves;
            balance_moves += outcome.balance_moves;
            oversubscriptions += outcome.oversubscriptions;
            mitigations += outcome.mitigations;
            maintenance.piggybacked += outcome.maintenance.piggybacked;
            maintenance.forced_resumes += outcome.maintenance.forced_resumes;
            shard_batches.push(outcome.resume_batches);
            shard_counters.push(outcome.counters);
            summary.add(&outcome.telemetry_summary);
            // The longest series is the base, so one shard's is moved.
            let mut series = outcome.telemetry_window;
            if series.len() > window.len() {
                std::mem::swap(&mut window, &mut series);
            }
            for (sum, minute) in window.iter_mut().zip(&series) {
                sum.add(minute);
            }
            shard_logs.push(outcome.telemetry);
            shard_workflows.push(outcome.workflow);
            shard_incident_logs.push(outcome.incident_log);
            if let Some(o) = outcome.obs {
                shard_obs.push(o);
            }
        }
        let obs = if cfg.observe().enabled {
            Some(ObsReport::merge(shard_obs)?)
        } else {
            None
        };

        // The KPI event counts are the measured-window series' total;
        // only a Full run has shard logs to merge.
        let mut kpi = KpiReport::from_segments(&segments);
        let mut window_total = TelemetrySummary::new();
        for minute in &window {
            window_total.add(minute);
        }
        let in_window = |kind: TelemetryKind| window_total.count(kind.label());
        kpi.logins_available = in_window(TelemetryKind::Login { available: true });
        kpi.logins_unavailable = in_window(TelemetryKind::Login { available: false });
        kpi.proactive_resumes = in_window(TelemetryKind::ProactiveResume);
        kpi.physical_pauses = in_window(TelemetryKind::PhysicalPause);
        kpi.forecast_failures = forecast_failures;
        let telemetry = match cfg.telemetry_mode {
            TelemetryMode::Full => TelemetryLog::merge(shard_logs),
            TelemetryMode::Summary => TelemetryLog::new(),
        };
        // The merges are commutative sums / a canonical sort, so the
        // fleet-wide values are identical at any shard count.
        let workflow = WorkflowStats::merge(&shard_workflows);
        let incident_log = IncidentLog::merge(shard_incident_logs);
        check_kpi_identities(&kpi)?;
        // The shard stores reject a repeated id, so `n` rows of known
        // ids are one per trace.
        if rows != n {
            return Err(ProrpError::Simulation(format!(
                "{rows} per-database rows merged for {n} traces"
            )));
        }

        Ok(SimReport {
            policy_label: cfg.policy.label(),
            kpi,
            telemetry,
            telemetry_summary: summary,
            telemetry_window: window,
            counters,
            resume_batches: ProactiveResumeOp::sum_shard_batches(&shard_batches),
            history_stats,
            spill_moves,
            balance_moves,
            oversubscriptions,
            mitigations,
            incidents: incident_log.len() as u64,
            giveups: workflow.giveups,
            workflow,
            incident_log,
            maintenance,
            shard_counters,
            obs,
            measure_from: cfg.measure_from,
            end: cfg.end,
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimPolicy;
    use prorp_types::{PolicyConfig, Session};
    use prorp_workload::{RegionName, RegionProfile};

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    /// One database with a strict 09:00–17:00 daily pattern for 35 days.
    fn daily_trace() -> Trace {
        let sessions: Vec<Session> = (0..35)
            .map(|d| Session::new(t(d * DAY + 9 * HOUR), t(d * DAY + 17 * HOUR)).unwrap())
            .collect();
        Trace::new(DatabaseId(0), "daily", sessions).unwrap()
    }

    fn config_for(policy: SimPolicy) -> SimConfig {
        SimConfig::builder(policy, t(0), t(35 * DAY), t(30 * DAY))
            .build()
            .unwrap()
    }

    fn run(policy: SimPolicy, traces: Vec<Trace>) -> SimReport {
        Simulation::new(config_for(policy), traces)
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn proactive_beats_reactive_on_a_daily_pattern() {
        let reactive = run(SimPolicy::Reactive, vec![daily_trace()]);
        let proactive = run(
            SimPolicy::Proactive(PolicyConfig::default()),
            vec![daily_trace()],
        );
        // With l = 7 h and a 16 h idle night, the reactive policy
        // physically pauses every night and every morning login is a
        // reactive resume → QoS 0 in the measurement window.
        assert_eq!(reactive.kpi.qos_pct(), 0.0, "{}", reactive.kpi);
        // The proactive policy pre-warms ahead of the 09:00 login.
        assert_eq!(proactive.kpi.qos_pct(), 100.0, "{}", proactive.kpi);
        assert!(proactive.kpi.proactive_resumes >= 5);
        // And it saves the night: idle stays a small fraction.
        assert!(
            proactive.kpi.idle_pct() < 20.0,
            "idle {:.2}%",
            proactive.kpi.idle_pct()
        );
    }

    #[test]
    fn optimal_policy_is_a_perfect_bounding_box() {
        let optimal = run(SimPolicy::Optimal, vec![daily_trace()]);
        assert_eq!(optimal.kpi.qos_pct(), 100.0);
        assert!(optimal.kpi.idle_pct() < 0.1, "{}", optimal.kpi);
        assert_eq!(optimal.kpi.unavailable_frac, 0.0);
        // Active exactly 8/24 of the time.
        assert!((optimal.kpi.active_frac - 1.0 / 3.0).abs() < 0.01);
    }

    #[test]
    fn reactive_policy_absorbs_short_gaps_in_logical_pause() {
        // Sessions with 30-minute gaps: the reactive policy never
        // physically pauses, so every login lands on available resources.
        let mut sessions = Vec::new();
        let mut cursor = 0i64;
        while cursor + 5_400 < 35 * DAY {
            sessions.push(Session::new(t(cursor), t(cursor + 5_400)).unwrap());
            cursor += 5_400 + 1_800;
        }
        let trace = Trace::new(DatabaseId(0), "fragmented", sessions).unwrap();
        let report = run(SimPolicy::Reactive, vec![trace]);
        assert_eq!(report.kpi.qos_pct(), 100.0, "{}", report.kpi);
        assert_eq!(report.kpi.physical_pauses, 0);
        assert!(report.kpi.idle_logical_frac > 0.1);
    }

    #[test]
    fn fleet_simulation_is_deterministic() {
        let profile = RegionProfile::for_region(RegionName::Eu1);
        let traces = profile.generate_fleet(40, t(0), t(35 * DAY), 17);
        let a = run(
            SimPolicy::Proactive(PolicyConfig::default()),
            traces.clone(),
        );
        let b = run(SimPolicy::Proactive(PolicyConfig::default()), traces);
        assert_eq!(a.kpi, b.kpi);
        assert_eq!(a.resume_batches, b.resume_batches);
        assert!(a.telemetry_summary.total() > 0);
        assert_eq!(a.telemetry_summary, b.telemetry_summary);
        assert!(!a.telemetry_window.is_empty());
        assert_eq!(a.telemetry_window, b.telemetry_window);
    }

    #[test]
    fn workflow_bins_cut_the_window_in_whole_minutes() {
        let report = run(SimPolicy::Reactive, vec![daily_trace()]);
        // Five measured nights, one physical pause each; 7 200 minutes.
        assert_eq!(report.kpi.physical_pauses, 5);
        let bins = report.workflow_bins(TelemetryKind::PhysicalPause, Seconds::minutes(7));
        assert_eq!(bins.len(), 7_200usize.div_ceil(7));
        assert_eq!(bins.iter().sum::<usize>(), 5);
        for secs in [0, -60, 90] {
            let cut = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                report.workflow_bins(TelemetryKind::PhysicalPause, Seconds(secs))
            }));
            assert!(cut.is_err(), "a {secs} s bin must be refused");
        }
    }

    #[test]
    fn fleet_qos_improves_under_the_proactive_policy() {
        let profile = RegionProfile::for_region(RegionName::Eu1);
        let traces = profile.generate_fleet(60, t(0), t(35 * DAY), 3);
        let reactive = run(SimPolicy::Reactive, traces.clone());
        let proactive = run(
            SimPolicy::Proactive(PolicyConfig::default()),
            traces.clone(),
        );
        let optimal = run(SimPolicy::Optimal, traces);
        assert!(
            proactive.kpi.qos_pct() > reactive.kpi.qos_pct(),
            "proactive {:.1}% vs reactive {:.1}%",
            proactive.kpi.qos_pct(),
            reactive.kpi.qos_pct()
        );
        assert_eq!(optimal.kpi.qos_pct(), 100.0);
        assert!(optimal.kpi.idle_pct() <= proactive.kpi.idle_pct());
    }

    #[test]
    fn stuck_workflows_are_mitigated() {
        let mut cfg = config_for(SimPolicy::Reactive);
        cfg.stuck_probability = 1.0; // every reactive resume hangs
        cfg.diagnostics_period = Some(Seconds::minutes(2));
        cfg.stuck_timeout = Seconds::minutes(5);
        let report = Simulation::new(cfg, vec![daily_trace()])
            .unwrap()
            .run()
            .unwrap();
        assert!(report.mitigations > 0, "diagnostics must mitigate hangs");
        // A database stuck repeatedly escalates.
        assert!(report.incidents > 0);
    }

    #[test]
    fn rebalancing_moves_carry_history_intact() {
        let profile = RegionProfile::for_region(RegionName::Eu1);
        let traces = profile.generate_fleet(30, t(0), t(35 * DAY), 5);
        let mut cfg = config_for(SimPolicy::Proactive(PolicyConfig::default()));
        cfg.nodes = 2;
        cfg.node_capacity = 30;
        cfg.rebalance_period = Some(Seconds::hours(6));
        cfg.rebalance_threshold = 2;
        let report = Simulation::new(cfg, traces).unwrap().run().unwrap();
        // Moves happened and nothing broke; history stats survive.
        assert!(report.balance_moves > 0, "expected load-balancing moves");
        assert!(report.history_stats.iter().any(|s| s.tuples > 0));
    }

    #[test]
    fn resume_batches_are_bounded_by_fleet_size() {
        let profile = RegionProfile::for_region(RegionName::Eu1);
        let traces = profile.generate_fleet(50, t(0), t(32 * DAY), 9);
        let report = run(SimPolicy::Proactive(PolicyConfig::default()), traces);
        assert!(!report.resume_batches.is_empty());
        assert!(report.resume_batches.iter().all(|&b| b <= 50));
    }

    #[test]
    fn maintenance_piggybacks_under_the_proactive_policy() {
        // Daily-pattern database with daily maintenance: under the
        // proactive policy the scheduler should ride the predicted 09:00
        // activity for most jobs; under the reactive policy (no
        // predictions) every job is forced.
        let traces = vec![daily_trace()];
        let mut proactive_cfg = config_for(SimPolicy::Proactive(PolicyConfig::default()));
        proactive_cfg.maintenance_period = Some(Seconds::days(1));
        let proactive = Simulation::new(proactive_cfg, traces.clone())
            .unwrap()
            .run()
            .unwrap();
        let mut reactive_cfg = config_for(SimPolicy::Reactive);
        reactive_cfg.maintenance_period = Some(Seconds::days(1));
        let reactive = Simulation::new(reactive_cfg, traces)
            .unwrap()
            .run()
            .unwrap();

        assert_eq!(
            reactive.maintenance.piggybacked, 0,
            "no predictions, no piggybacking: {:?}",
            reactive.maintenance
        );
        assert!(reactive.maintenance.forced_resumes > 20);
        assert!(
            proactive.maintenance.piggyback_rate() > 0.5,
            "proactive jobs should mostly ride predicted activity: {:?}",
            proactive.maintenance
        );
        // Telemetry labels the outcomes.
        assert!(proactive.telemetry_summary.count("maintenance-piggybacked") > 0);
    }

    #[test]
    fn tight_capacity_forces_spill_moves() {
        // Many synchronized daily databases on a tiny cluster: the morning
        // herd cannot fit on home nodes, forcing the §1 "moved to another
        // node" path (with its extra latency) or over-subscription.
        let traces: Vec<Trace> = (0..20)
            .map(|i| {
                let sessions: Vec<Session> = (0..32)
                    .map(|d| {
                        Session::new(
                            t(d * DAY + 9 * HOUR + i * 10),
                            t(d * DAY + 11 * HOUR + i * 10),
                        )
                        .unwrap()
                    })
                    .collect();
                Trace::new(DatabaseId(i as u64), "daily", sessions).unwrap()
            })
            .collect();
        let cfg = SimConfig::builder(SimPolicy::Reactive, t(0), t(32 * DAY), t(28 * DAY))
            .nodes(4)
            .node_capacity(3) // 12 slots for 20 concurrently active DBs
            .build()
            .unwrap();
        let report = Simulation::new(cfg, traces).unwrap().run().unwrap();
        assert!(
            report.spill_moves + report.oversubscriptions > 0,
            "capacity pressure must trigger spills or oversubscription"
        );
    }

    #[test]
    fn optimal_policy_piggybacks_all_maintenance() {
        // The oracle publishes exact next-session predictions, so every
        // maintenance job lands inside real activity.
        let mut cfg = config_for(SimPolicy::Optimal);
        cfg.maintenance_period = Some(Seconds::days(1));
        let report = Simulation::new(cfg, vec![daily_trace()])
            .unwrap()
            .run()
            .unwrap();
        assert!(report.maintenance.piggybacked > 20);
        assert!(
            report.maintenance.piggyback_rate() > 0.9,
            "{:?}",
            report.maintenance
        );
    }

    #[test]
    fn staged_workflows_populate_histograms_without_faults() {
        // Default config: stage faults off, so every reactive resume
        // walks all four stages cleanly in exactly resume_latency.
        let report = run(SimPolicy::Reactive, vec![daily_trace()]);
        let w = &report.workflow;
        assert!(w.total_stage_completions() > 0);
        assert_eq!(w.stage_completions[0], w.stage_completions[3]);
        assert!(w.workflow_latency.count() > 0);
        assert_eq!(w.workflow_latency.max(), Seconds(60));
        assert_eq!(w.retries, 0);
        assert_eq!(w.giveups, 0);
        assert_eq!(report.giveups, 0);
        assert!(report.incident_log.is_empty());
    }

    #[test]
    fn observability_is_off_by_default() {
        let report = run(SimPolicy::Reactive, vec![daily_trace()]);
        assert!(report.obs.is_none());
    }

    #[test]
    fn enabled_observability_reports_trace_and_snapshots() {
        let cfg = SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig::default()),
            t(0),
            t(35 * DAY),
            t(30 * DAY),
        )
        .observe(crate::ObsConfig::with_snapshots(Seconds::days(7)))
        .build()
        .unwrap();
        let report = Simulation::new(cfg, vec![daily_trace()])
            .unwrap()
            .run()
            .unwrap();
        let obs = report.obs.as_ref().expect("observability enabled");
        assert!(!obs.trace.is_empty());
        // Snapshots at days 7/14/21/28 (day 35 coincides with the end)
        // plus the end-of-run snapshot.
        assert_eq!(obs.snapshots.len(), 5);
        assert_eq!(obs.final_snapshot().unwrap().at, t(35 * DAY));
        // The trace's login spans reconcile with the metric counters.
        let login_spans = obs
            .trace
            .iter()
            .filter(|r| matches!(r.kind, prorp_obs::SpanKind::Login { .. }))
            .count() as u64;
        let snap = obs.final_snapshot().unwrap();
        let avail = snap
            .get("prorp_logins_available_total")
            .unwrap()
            .as_counter()
            .unwrap();
        let unavail = snap
            .get("prorp_logins_unavailable_total")
            .unwrap()
            .as_counter()
            .unwrap();
        assert_eq!(login_spans, avail + unavail);
        // Mid-run snapshots are monotone in the counters.
        let first = obs.snapshots[0]
            .get("prorp_logins_available_total")
            .unwrap()
            .as_counter()
            .unwrap();
        assert!(first <= avail);
        // KPIs are untouched by enabling observability.
        let baseline = run(
            SimPolicy::Proactive(PolicyConfig::default()),
            vec![daily_trace()],
        );
        assert_eq!(report.kpi, baseline.kpi);
    }

    #[test]
    fn observability_output_is_shard_count_invariant() {
        let profile = RegionProfile::for_region(RegionName::Eu1);
        let traces = profile.generate_fleet(30, t(0), t(35 * DAY), 11);
        let run_with = |shards: usize| {
            let cfg = SimConfig::builder(
                SimPolicy::Proactive(PolicyConfig::default()),
                t(0),
                t(35 * DAY),
                t(30 * DAY),
            )
            .shards(shards)
            .observe(crate::ObsConfig::with_snapshots(Seconds::days(10)))
            .build()
            .unwrap();
            Simulation::new(cfg, traces.clone())
                .unwrap()
                .run()
                .unwrap()
                .obs
                .unwrap()
        };
        let one = run_with(1);
        let four = run_with(4);
        assert_eq!(one.trace, four.trace, "traces must be bit-identical");
        let det = |r: &ObsReport| {
            r.snapshots
                .iter()
                .map(|s| s.deterministic())
                .collect::<Vec<_>>()
        };
        assert_eq!(det(&one), det(&four), "deterministic metrics must match");
    }

    /// One shard's outcome over two daily databases (ids 0 and 1), and
    /// the id → input-position map a runner would merge it with.
    fn two_database_outcome(cfg: &SimConfig) -> (ShardOutcome, HashMap<DatabaseId, usize>) {
        let sessions = daily_trace().sessions;
        let second = Trace::new(DatabaseId(1), "daily", sessions).unwrap();
        let mut driver = ShardDriver::new(cfg, 0, 2).unwrap();
        driver.register(&daily_trace()).unwrap();
        driver.register(&second).unwrap();
        driver.start();
        driver.run_to_end().unwrap();
        let order = HashMap::from([(DatabaseId(0), 0), (DatabaseId(1), 1)]);
        (driver.finish().unwrap(), order)
    }

    #[test]
    fn a_missing_or_foreign_row_fails_the_merge() {
        let cfg = config_for(SimPolicy::Proactive(PolicyConfig::default()));
        let (whole, order) = two_database_outcome(&cfg);
        let rows = whole.dbs.clone();
        let report = merge_outcomes(&cfg, &order, 2, vec![whole]).unwrap();
        assert_eq!(report.counters, [rows[0].1, rows[1].1]);
        assert_eq!(report.history_stats, [rows[0].2, rows[1].2]);

        let (mut missing, order) = two_database_outcome(&cfg);
        missing.dbs.pop();
        let err = merge_outcomes(&cfg, &order, 2, vec![missing]).unwrap_err();
        assert!(matches!(err, ProrpError::Simulation(_)), "{err}");

        let (mut foreign, order) = two_database_outcome(&cfg);
        foreign.dbs[1].0 = DatabaseId(7);
        let err = merge_outcomes(&cfg, &order, 2, vec![foreign]).unwrap_err();
        assert!(matches!(err, ProrpError::Simulation(_)), "{err}");
    }

    #[test]
    fn forecast_failures_zero_without_fault_injection() {
        let report = run(
            SimPolicy::Proactive(PolicyConfig::default()),
            vec![daily_trace()],
        );
        assert_eq!(report.kpi.forecast_failures, 0);
    }
}
