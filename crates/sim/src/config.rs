//! Simulation configuration.
//!
//! [`SimConfig`] is built through [`SimConfig::builder`], which validates
//! every knob at [`SimConfigBuilder::build`].  The control-plane fault
//! layer (stage failure probabilities, retry budget, predictor circuit
//! breaker, forecast fault injection) is configured
//! *only* through the builder: the [`FaultConfig`] lives in a private
//! field, so a hand-mutated config cannot bypass its validation.

use prorp_obs::ObsConfig;
use prorp_storage::{CompactionMode, StorageBackend};
use prorp_telemetry::TelemetryMode;
use prorp_types::{
    BreakerConfig, FaultConfig, PolicyConfig, ProrpError, RetryPolicy, Seconds, Timestamp,
    WorkflowStage,
};

/// Which resource-allocation policy the fleet runs.
#[derive(Clone, Debug, PartialEq)]
pub enum SimPolicy {
    /// The pre-ProRP reactive baseline (§2.2).
    Reactive,
    /// The ProRP proactive policy (Algorithm 1) with the given knobs.
    Proactive(PolicyConfig),
    /// The Figure 2(c) oracle optimum.
    Optimal,
}

impl SimPolicy {
    /// The policy knobs its engines run with: the proactive policy's
    /// own, and Table 1's for the baselines (the reactive engine pauses
    /// and trims on its `l` and `h`).
    pub(crate) fn config(&self) -> PolicyConfig {
        match self {
            SimPolicy::Proactive(pc) => *pc,
            SimPolicy::Reactive | SimPolicy::Optimal => PolicyConfig::default(),
        }
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            SimPolicy::Reactive => "reactive",
            SimPolicy::Proactive(_) => "proactive",
            SimPolicy::Optimal => "optimal",
        }
    }
}

/// All simulator knobs.
///
/// Construct with [`SimConfig::builder`].
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The policy under test.
    pub policy: SimPolicy,
    /// Simulation start (traces should begin here).
    pub start: Timestamp,
    /// Simulation end (exclusive).
    pub end: Timestamp,
    /// KPIs are measured from here (time before is warm-up during which
    /// databases accrue the history the predictor needs).
    pub measure_from: Timestamp,
    /// Number of compute nodes.
    pub nodes: usize,
    /// Allocation units per node.
    pub node_capacity: usize,
    /// Period of the Algorithm 5 proactive-resume scan (production: 1 min).
    pub resume_op_period: Seconds,
    /// Pre-warm lead time `k` of the Algorithm 5 scan.  Not a knob of
    /// its own: [`SimConfigBuilder::build`] copies the proactive
    /// policy's [`PolicyConfig::prewarm`] here, and Table 1's default
    /// under the reactive and optimal policies.
    pub prewarm: Seconds,
    /// Period of the diagnostics-and-mitigation runner, if enabled.
    pub diagnostics_period: Option<Seconds>,
    /// A resume workflow silently hangs with this probability
    /// (diagnostics fault injection, §7).
    pub stuck_probability: f64,
    /// Age after which the diagnostics runner mitigates a hung workflow.
    pub stuck_timeout: Seconds,
    /// Period of the load-balancing step, if enabled.
    pub rebalance_period: Option<Seconds>,
    /// Load spread (units) that triggers a balancing move.
    pub rebalance_threshold: usize,
    /// Period of per-database maintenance jobs (backups, stats refresh),
    /// if enabled — placed by the prediction-aware scheduler (§11 future
    /// work 4).
    pub maintenance_period: Option<Seconds>,
    /// RNG seed for fault injection.
    pub seed: u64,
    /// Run the proactive policy on the naive reference predictor (B-tree
    /// range scans per window) instead of the default incremental
    /// prediction index.  The two are bit-identical in behaviour — this
    /// knob exists for A/B benchmarking and differential testing.
    pub naive_predictor: bool,
    /// Which storage engine backs every database's activity history
    /// (the §5 table by default, or the LSM/MVCC engine).  Policy behaviour is
    /// backend-independent — same trace and seed yield bit-identical
    /// KPIs — so this knob exists for A/B benchmarking and differential
    /// testing of the storage seam.
    pub storage_backend: StorageBackend,
    /// Read by nothing: no history backend compacts, whichever
    /// [`CompactionMode`] is set.  Kept, and
    /// `Background` still accepted, only because the benchmark
    /// (`crates/ledger`) sets it; ROADMAP item 2 deletes it.
    pub compaction_mode: CompactionMode,
    /// Number of simulation shards (worker threads).  Databases are
    /// partitioned by id-hash ([`prorp_types::DatabaseId::shard_of`]) and
    /// each shard runs its own event loop on its own cluster slice;
    /// per-shard results are merged deterministically, so the same seed
    /// yields identical KPIs for 1 and N shards (see
    /// [`crate::shard`] for the exact guarantee).
    pub shards: usize,
    /// Whether the shards only count their telemetry events, per label
    /// over the run and per label and minute over the measured window
    /// ([`TelemetryMode::Summary`], the default), or also log every
    /// event and the report carries the merged log
    /// ([`TelemetryMode::Full`]).  KPIs, label counts and the Figure
    /// 11/12 bins are identical either way; only a caller that reads
    /// individual events needs Full.
    pub telemetry_mode: TelemetryMode,
    /// The control-plane fault layer (stage failure probabilities, retry
    /// policy, predictor circuit breaker, forecast fault injection).
    /// Private on purpose: these knobs are set only through
    /// [`SimConfig::builder`], which validates them at `build()`.
    fault: FaultConfig,
    /// Runtime observability (span traces + metrics snapshots).  Private
    /// for the same reason as `fault`: set through
    /// [`SimConfigBuilder::observe`], validated at `build()`.  Defaults
    /// to disabled, which is the zero-overhead fast path.
    observe: ObsConfig,
}

impl SimConfig {
    fn with_defaults(
        policy: SimPolicy,
        start: Timestamp,
        end: Timestamp,
        measure_from: Timestamp,
    ) -> Self {
        SimConfig {
            policy,
            start,
            end,
            measure_from,
            nodes: 4,
            node_capacity: 200,
            resume_op_period: Seconds::minutes(1),
            prewarm: PolicyConfig::default().prewarm,
            diagnostics_period: None,
            stuck_probability: 0.0,
            stuck_timeout: Seconds::minutes(10),
            rebalance_period: None,
            rebalance_threshold: 8,
            maintenance_period: None,
            seed: 0,
            naive_predictor: false,
            storage_backend: StorageBackend::default(),
            compaction_mode: CompactionMode::default(),
            shards: 1,
            telemetry_mode: TelemetryMode::default(),
            fault: FaultConfig::default(),
            observe: ObsConfig::default(),
        }
    }

    /// Start building a config with production-like defaults over
    /// `[start, end)`, measuring from `measure_from`.  Every knob is
    /// validated when [`SimConfigBuilder::build`] runs.
    pub fn builder(
        policy: SimPolicy,
        start: Timestamp,
        end: Timestamp,
        measure_from: Timestamp,
    ) -> SimConfigBuilder {
        SimConfigBuilder {
            cfg: SimConfig::with_defaults(policy, start, end, measure_from),
        }
    }

    /// The control-plane fault layer this config runs with.
    pub fn fault(&self) -> &FaultConfig {
        &self.fault
    }

    /// The observability knobs this config runs with.
    pub fn observe(&self) -> &ObsConfig {
        &self.observe
    }

    /// Validate knob consistency.  `build()` and the simulation entry
    /// points call this; external drivers (the control-plane server)
    /// validate operator-supplied configs through it too.
    pub fn check(&self) -> Result<(), ProrpError> {
        if self.end <= self.start {
            return Err(ProrpError::InvalidConfig(format!(
                "simulation end {:?} must follow start {:?}",
                self.end, self.start
            )));
        }
        if self.measure_from < self.start || self.measure_from >= self.end {
            return Err(ProrpError::InvalidConfig(format!(
                "measure_from {:?} must lie in [{:?}, {:?})",
                self.measure_from, self.start, self.end
            )));
        }
        if self.nodes == 0 || self.node_capacity == 0 {
            return Err(ProrpError::InvalidConfig(
                "cluster needs nodes and capacity".into(),
            ));
        }
        if self.resume_op_period.as_secs() <= 0 || self.prewarm.as_secs() <= 0 {
            return Err(ProrpError::InvalidConfig(
                "resume-op period and prewarm must be positive".into(),
            ));
        }
        if self.shards == 0 {
            return Err(ProrpError::InvalidConfig(
                "shard count must be at least 1".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.stuck_probability) {
            return Err(ProrpError::InvalidConfig(format!(
                "stuck_probability must be a probability, got {}",
                self.stuck_probability
            )));
        }
        self.fault.validate()?;
        self.observe.check()?;
        if let SimPolicy::Proactive(pc) = &self.policy {
            pc.validate()?;
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`]; obtained from [`SimConfig::builder`].
///
/// Setters are chainable and unchecked; [`build`](Self::build) validates
/// the whole configuration at once.
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Number of compute nodes.
    pub fn nodes(mut self, v: usize) -> Self {
        self.cfg.nodes = v;
        self
    }

    /// Allocation units per node.
    pub fn node_capacity(mut self, v: usize) -> Self {
        self.cfg.node_capacity = v;
        self
    }

    /// Period of the Algorithm 5 proactive-resume scan.
    pub fn resume_op_period(mut self, v: Seconds) -> Self {
        self.cfg.resume_op_period = v;
        self
    }

    /// Enable the diagnostics-and-mitigation runner with this period.
    pub fn diagnostics_period(mut self, v: Seconds) -> Self {
        self.cfg.diagnostics_period = Some(v);
        self
    }

    /// Probability that a resume workflow silently hangs.
    pub fn stuck_probability(mut self, v: f64) -> Self {
        self.cfg.stuck_probability = v;
        self
    }

    /// Age after which the diagnostics runner mitigates a hung workflow.
    pub fn stuck_timeout(mut self, v: Seconds) -> Self {
        self.cfg.stuck_timeout = v;
        self
    }

    /// Enable the load-balancing step with this period.
    pub fn rebalance_period(mut self, v: Seconds) -> Self {
        self.cfg.rebalance_period = Some(v);
        self
    }

    /// Load spread (units) that triggers a balancing move.
    pub fn rebalance_threshold(mut self, v: usize) -> Self {
        self.cfg.rebalance_threshold = v;
        self
    }

    /// Enable per-database maintenance jobs with this period.
    pub fn maintenance_period(mut self, v: Seconds) -> Self {
        self.cfg.maintenance_period = Some(v);
        self
    }

    /// RNG seed for fault injection.
    pub fn seed(mut self, v: u64) -> Self {
        self.cfg.seed = v;
        self
    }

    /// Use the naive reference predictor instead of the incremental
    /// prediction index (bit-identical behaviour; A/B benchmarking).
    pub fn naive_predictor(mut self, v: bool) -> Self {
        self.cfg.naive_predictor = v;
        self
    }

    /// Storage engine backing every database's activity history
    /// (bit-identical behaviour across backends; A/B benchmarking and
    /// differential testing).
    pub fn storage_backend(mut self, v: StorageBackend) -> Self {
        self.cfg.storage_backend = v;
        self
    }

    /// Set [`SimConfig::compaction_mode`], which nothing reads (kept for
    /// the benchmark until ROADMAP item 2 deletes it).
    pub fn compaction_mode(mut self, v: CompactionMode) -> Self {
        self.cfg.compaction_mode = v;
        self
    }

    /// Number of simulation shards (worker threads).
    pub fn shards(mut self, v: usize) -> Self {
        self.cfg.shards = v;
        self
    }

    /// Failure probability of one workflow stage.
    pub fn stage_failure_probability(mut self, stage: WorkflowStage, p: f64) -> Self {
        self.cfg.fault.stages[stage.index()].failure_probability = p;
        self
    }

    /// Uniform failure probability across all workflow stages.
    pub fn stage_failure_probabilities(mut self, p: f64) -> Self {
        for s in &mut self.cfg.fault.stages {
            s.failure_probability = p;
        }
        self
    }

    /// Retry policy for failed workflow stages.
    pub fn retry(mut self, v: RetryPolicy) -> Self {
        self.cfg.fault.retry = v;
        self
    }

    /// Predictor circuit-breaker knobs (§3.2 reactive fallback).
    pub fn breaker(mut self, v: BreakerConfig) -> Self {
        self.cfg.fault.breaker = v;
        self
    }

    /// Forecast fault injection: every n-th prediction fails.
    pub fn forecast_fail_every(mut self, n: u32) -> Self {
        self.cfg.fault.forecast_fail_every = Some(n);
        self
    }

    /// Runtime observability: span traces and metrics snapshots
    /// (see [`prorp_obs::ObsConfig`]).
    pub fn observe(mut self, v: ObsConfig) -> Self {
        self.cfg.observe = v;
        self
    }

    /// Telemetry materialisation mode (see [`SimConfig::telemetry_mode`]).
    pub fn telemetry_mode(mut self, v: TelemetryMode) -> Self {
        self.cfg.telemetry_mode = v;
        self
    }

    /// Validate every knob and produce the config.
    ///
    /// # Errors
    ///
    /// Returns [`ProrpError::InvalidConfig`] describing the first
    /// offending knob.
    pub fn build(mut self) -> Result<SimConfig, ProrpError> {
        if let SimPolicy::Proactive(pc) = &self.cfg.policy {
            self.cfg.prewarm = pc.prewarm;
        }
        self.cfg.check()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfigBuilder {
        SimConfig::builder(
            SimPolicy::Reactive,
            Timestamp(0),
            Timestamp(1_000_000),
            Timestamp(500_000),
        )
    }

    #[test]
    fn defaults_validate() {
        base().build().unwrap();
        SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig::default()),
            Timestamp(0),
            Timestamp(10),
            Timestamp(0),
        )
        .build()
        .unwrap();
    }

    #[test]
    fn bad_windows_are_rejected() {
        assert!(SimConfig::builder(
            SimPolicy::Reactive,
            Timestamp(0),
            Timestamp(0),
            Timestamp(0)
        )
        .build()
        .is_err());
        assert!(SimConfig::builder(
            SimPolicy::Reactive,
            Timestamp(0),
            Timestamp(10),
            Timestamp(-5)
        )
        .build()
        .is_err());
        assert!(SimConfig::builder(
            SimPolicy::Reactive,
            Timestamp(0),
            Timestamp(10),
            Timestamp(10)
        )
        .build()
        .is_err());
    }

    #[test]
    fn bad_knobs_are_rejected() {
        assert!(base().nodes(0).build().is_err());
        assert!(base().stuck_probability(1.5).build().is_err());
        assert!(base().shards(0).build().is_err());
        base().shards(8).build().unwrap();
        assert!(SimConfig::builder(
            SimPolicy::Proactive(PolicyConfig {
                confidence: 0.0,
                ..PolicyConfig::default()
            }),
            Timestamp(0),
            Timestamp(10),
            Timestamp(0),
        )
        .build()
        .is_err());
    }

    #[test]
    fn fault_knobs_land_only_on_the_builder_and_are_validated() {
        let cfg = base()
            .stage_failure_probabilities(0.2)
            .stage_failure_probability(WorkflowStage::WarmCache, 0.5)
            .retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Seconds(5),
                max_backoff: Seconds(20),
            })
            .breaker(BreakerConfig {
                failure_threshold: 1,
                cooldown: Seconds::hours(1),
            })
            .forecast_fail_every(4)
            .build()
            .unwrap();
        let f = cfg.fault();
        assert_eq!(
            f.stage(WorkflowStage::AllocateNode).failure_probability,
            0.2
        );
        assert_eq!(f.stage(WorkflowStage::WarmCache).failure_probability, 0.5);
        assert_eq!(f.retry.max_attempts, 2);
        assert_eq!(f.breaker.failure_threshold, 1);
        assert_eq!(f.forecast_fail_every, Some(4));

        assert!(base().stage_failure_probabilities(1.5).build().is_err());
        assert!(base()
            .retry(RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            })
            .build()
            .is_err());
        assert!(base().forecast_fail_every(0).build().is_err());
    }

    #[test]
    fn default_fault_layer_is_inert() {
        let cfg = base().build().unwrap();
        let resume = WorkflowStage::ALL
            .iter()
            .fold(Seconds::ZERO, |acc, s| acc + s.latency());
        assert_eq!(resume, Seconds(60));
        assert!(!cfg.fault().injects_stage_faults());
    }

    #[test]
    fn observe_knob_defaults_off_and_is_validated() {
        let cfg = base().build().unwrap();
        assert!(!cfg.observe().enabled);
        let cfg = base()
            .observe(ObsConfig::with_snapshots(Seconds::hours(6)))
            .build()
            .unwrap();
        assert_eq!(cfg.observe().snapshot_every, Some(Seconds::hours(6)));
        assert!(base()
            .observe(ObsConfig::with_snapshots(Seconds::ZERO))
            .build()
            .is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(SimPolicy::Reactive.label(), "reactive");
        assert_eq!(
            SimPolicy::Proactive(PolicyConfig::default()).label(),
            "proactive"
        );
        assert_eq!(SimPolicy::Optimal.label(), "optimal");
    }
}
