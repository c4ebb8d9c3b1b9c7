//! Control-plane workflow and fault-injection vocabulary (§7).
//!
//! The paper's control plane treats a resume as a multi-step workflow
//! ("the resource allocation workflows … are monitored by the diagnostics
//! and mitigation runner"), not an atomic action.  This module defines the
//! shared vocabulary for that view:
//!
//! * [`WorkflowStage`] — the four stages a resume workflow traverses;
//! * [`RetryPolicy`] — capped, jittered exponential backoff for transient
//!   stage failures;
//! * [`StageFault`] — the per-stage failure-probability knob (each
//!   stage's latency is a constant, [`WorkflowStage::latency`]);
//! * [`BreakerConfig`] — the predictor circuit breaker that degrades a
//!   database to the §3.2 reactive default when forecasts fail repeatedly;
//! * [`FaultConfig`] — the whole fault layer, carried by the simulator
//!   configuration and only constructible through its builder.
//!
//! Everything here is plain data; the deterministic failure/latency draws
//! that consume these knobs live in `prorp-core` and `prorp-sim`.

use crate::error::ProrpError;
use crate::time::Seconds;
use std::fmt;

/// One stage of the staged resume workflow, in execution order.
///
/// A resume is modelled as `AllocateNode → AttachStorage → WarmCache →
/// MarkResumed`; the workflow completes when the final stage succeeds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum WorkflowStage {
    /// Reserve compute on a node (may involve a cross-node move).
    AllocateNode,
    /// Attach the database files to the allocated compute.
    AttachStorage,
    /// Warm the buffer pool / plan cache so the login is served quickly.
    WarmCache,
    /// Flip the metadata state to `Resumed` and admit logins.
    MarkResumed,
}

impl WorkflowStage {
    /// Number of stages in a resume workflow.
    pub const COUNT: usize = 4;

    /// All stages in execution order.
    pub const ALL: [WorkflowStage; WorkflowStage::COUNT] = [
        WorkflowStage::AllocateNode,
        WorkflowStage::AttachStorage,
        WorkflowStage::WarmCache,
        WorkflowStage::MarkResumed,
    ];

    /// Position of this stage in the execution order.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            WorkflowStage::AllocateNode => 0,
            WorkflowStage::AttachStorage => 1,
            WorkflowStage::WarmCache => 2,
            WorkflowStage::MarkResumed => 3,
        }
    }

    /// The stage that follows this one, or `None` after the final stage.
    #[inline]
    pub const fn next(self) -> Option<WorkflowStage> {
        match self {
            WorkflowStage::AllocateNode => Some(WorkflowStage::AttachStorage),
            WorkflowStage::AttachStorage => Some(WorkflowStage::WarmCache),
            WorkflowStage::WarmCache => Some(WorkflowStage::MarkResumed),
            WorkflowStage::MarkResumed => None,
        }
    }

    /// Nominal execution latency of one attempt of this stage: the
    /// 60-s failure-free resume split 30 / 15 / 9 / 6 s over the four
    /// stages.
    #[inline]
    pub const fn latency(self) -> Seconds {
        match self {
            WorkflowStage::AllocateNode => Seconds(30),
            WorkflowStage::AttachStorage => Seconds(15),
            WorkflowStage::WarmCache => Seconds(9),
            WorkflowStage::MarkResumed => Seconds(6),
        }
    }

    /// Stable lowercase label for telemetry keys and reports.
    pub const fn label(self) -> &'static str {
        match self {
            WorkflowStage::AllocateNode => "allocate-node",
            WorkflowStage::AttachStorage => "attach-storage",
            WorkflowStage::WarmCache => "warm-cache",
            WorkflowStage::MarkResumed => "mark-resumed",
        }
    }
}

impl fmt::Display for WorkflowStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Retry policy for transient workflow-stage failures: capped, jittered
/// exponential backoff, then escalation to the diagnostics runner.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Total attempts per stage (first try included); at least 1.  Once
    /// the budget is exhausted the workflow is escalated as an incident.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Seconds,
    /// Upper bound on any single backoff delay.
    pub max_backoff: Seconds,
}

impl Default for RetryPolicy {
    /// Three attempts, 30 s base backoff, capped at 8 minutes.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Seconds(30),
            max_backoff: Seconds::minutes(8),
        }
    }
}

impl RetryPolicy {
    /// Validate knob consistency.
    ///
    /// # Errors
    ///
    /// Rejects a zero attempt budget, negative backoffs, and a cap below
    /// the base.
    pub fn validate(&self) -> Result<(), ProrpError> {
        if self.max_attempts == 0 {
            return Err(ProrpError::InvalidConfig(
                "retry budget must allow at least one attempt".into(),
            ));
        }
        if self.base_backoff.is_negative() || self.max_backoff.is_negative() {
            return Err(ProrpError::InvalidConfig(format!(
                "backoffs must be non-negative, got base={:?}, max={:?}",
                self.base_backoff, self.max_backoff
            )));
        }
        if self.max_backoff < self.base_backoff {
            return Err(ProrpError::InvalidConfig(format!(
                "max backoff {:?} must not undercut base backoff {:?}",
                self.max_backoff, self.base_backoff
            )));
        }
        Ok(())
    }

    /// Backoff before retry number `attempt` (1-based count of failures so
    /// far), with "equal jitter": half the capped exponential delay is
    /// fixed, the other half scaled by `jitter01 ∈ [0, 1)`.  `jitter01`
    /// comes from a deterministic per-`(seed, db, stage, attempt)` draw so
    /// the schedule is reproducible.
    pub fn backoff(&self, attempt: u32, jitter01: f64) -> Seconds {
        let exp = attempt.saturating_sub(1).min(32);
        let full = self
            .base_backoff
            .as_secs()
            .saturating_mul(1i64 << exp)
            .min(self.max_backoff.as_secs())
            .max(0);
        let half = full / 2;
        let jittered = half + ((half as f64) * jitter01.clamp(0.0, 1.0)) as i64;
        Seconds(jittered.max(full.min(1)))
    }
}

/// Fault-injection knob for one workflow stage.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct StageFault {
    /// Probability that one attempt of this stage fails (transiently);
    /// drawn deterministically per `(seed, db, workflow, stage, attempt)`.
    pub failure_probability: f64,
}

/// Predictor circuit-breaker knobs (§3.2 "default to reactive").
///
/// After `failure_threshold` consecutive forecast failures the breaker
/// opens: the engine stops invoking the predictor and behaves exactly like
/// the reactive baseline for `cooldown`, then lets one probe prediction
/// through; a successful probe closes the breaker, a failed one re-opens
/// it for another cooldown.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker; `0` disables it (every
    /// prediction is attempted, the pre-breaker behaviour).
    pub failure_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub cooldown: Seconds,
}

impl Default for BreakerConfig {
    /// Open after 3 consecutive failures, re-probe after 30 minutes.
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Seconds::minutes(30),
        }
    }
}

impl BreakerConfig {
    /// A disabled breaker (predictions are always attempted).
    pub const fn disabled() -> Self {
        BreakerConfig {
            failure_threshold: 0,
            cooldown: Seconds::ZERO,
        }
    }

    /// Validate knob consistency.
    ///
    /// # Errors
    ///
    /// Rejects an enabled breaker with a non-positive cooldown.
    pub fn validate(&self) -> Result<(), ProrpError> {
        if self.failure_threshold > 0 && self.cooldown.as_secs() <= 0 {
            return Err(ProrpError::InvalidConfig(format!(
                "breaker cooldown must be positive when enabled, got {:?}",
                self.cooldown
            )));
        }
        Ok(())
    }
}

/// The whole control-plane fault layer: per-stage failure
/// probabilities, the retry policy, the predictor circuit breaker, and
/// forecast fault injection.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultConfig {
    /// Per-stage knobs, indexed by [`WorkflowStage::index`].
    pub stages: [StageFault; WorkflowStage::COUNT],
    /// Retry policy applied to every stage.
    pub retry: RetryPolicy,
    /// Predictor circuit breaker.
    pub breaker: BreakerConfig,
    /// Forecast fault injection: every n-th prediction fails (`None` =
    /// healthy predictor).  Exercises the breaker inside full simulations.
    pub forecast_fail_every: Option<u32>,
}

impl Default for FaultConfig {
    /// Zero failure probability everywhere: byte-identical behaviour to
    /// the pre-fault simulator.
    fn default() -> Self {
        FaultConfig {
            stages: [StageFault::default(); WorkflowStage::COUNT],
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            forecast_fail_every: None,
        }
    }
}

impl FaultConfig {
    /// Knobs for one stage.
    #[inline]
    pub fn stage(&self, stage: WorkflowStage) -> &StageFault {
        &self.stages[stage.index()]
    }

    /// Whether any stage can fail (the staged fault layer is active).
    pub fn injects_stage_faults(&self) -> bool {
        self.stages.iter().any(|s| s.failure_probability > 0.0)
    }

    /// Validate every knob.
    ///
    /// # Errors
    ///
    /// Rejects probabilities outside `[0, 1]` and invalid retry/breaker
    /// sub-configs.
    pub fn validate(&self) -> Result<(), ProrpError> {
        for (stage, knobs) in WorkflowStage::ALL.iter().zip(&self.stages) {
            if !(0.0..=1.0).contains(&knobs.failure_probability) {
                return Err(ProrpError::InvalidConfig(format!(
                    "stage {stage} failure probability must be in [0, 1], got {}",
                    knobs.failure_probability
                )));
            }
        }
        self.retry.validate()?;
        self.breaker.validate()?;
        if self.forecast_fail_every == Some(0) {
            return Err(ProrpError::InvalidConfig(
                "forecast_fail_every must be at least 1 (or None)".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_are_ordered_and_labelled() {
        assert_eq!(WorkflowStage::ALL.len(), WorkflowStage::COUNT);
        for (i, s) in WorkflowStage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(
            WorkflowStage::AllocateNode.next(),
            Some(WorkflowStage::AttachStorage)
        );
        assert_eq!(WorkflowStage::MarkResumed.next(), None);
        assert_eq!(WorkflowStage::WarmCache.to_string(), "warm-cache");
    }

    #[test]
    fn backoff_is_capped_exponential_with_jitter() {
        let r = RetryPolicy {
            max_attempts: 5,
            base_backoff: Seconds(30),
            max_backoff: Seconds(120),
        };
        // No jitter: half the full delay.
        assert_eq!(r.backoff(1, 0.0), Seconds(15));
        // Full jitter: the whole delay.
        assert!(r.backoff(1, 0.999) >= Seconds(29));
        // Doubles, then caps at max (120 → half = 60).
        assert_eq!(r.backoff(2, 0.0), Seconds(30));
        assert_eq!(r.backoff(3, 0.0), Seconds(60));
        assert_eq!(r.backoff(9, 0.0), Seconds(60));
        // Never drops to zero while a backoff is configured.
        assert!(r.backoff(1, 0.0) >= Seconds(1));
    }

    #[test]
    fn retry_policy_validation() {
        assert!(RetryPolicy::default().validate().is_ok());
        let bad = [
            RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                max_backoff: Seconds(1),
                ..RetryPolicy::default()
            },
            RetryPolicy {
                base_backoff: Seconds(-1),
                ..RetryPolicy::default()
            },
        ];
        for r in bad {
            assert!(r.validate().is_err(), "{r:?}");
        }
    }

    #[test]
    fn default_fault_config_is_inert_and_sums_to_the_default_latency() {
        let f = FaultConfig::default();
        assert!(f.validate().is_ok());
        assert!(!f.injects_stage_faults());
        let total = WorkflowStage::ALL
            .iter()
            .fold(Seconds::ZERO, |acc, s| acc + s.latency());
        assert_eq!(total, Seconds(60));
        assert_eq!(WorkflowStage::AllocateNode.latency(), Seconds(30));
    }

    #[test]
    fn fault_config_validation_rejects_bad_knobs() {
        let mut f = FaultConfig::default();
        f.stages[1].failure_probability = 1.5;
        assert!(f.validate().is_err());
        let f = FaultConfig {
            forecast_fail_every: Some(0),
            ..FaultConfig::default()
        };
        assert!(f.validate().is_err());
        let mut f = FaultConfig::default();
        f.breaker.cooldown = Seconds::ZERO;
        assert!(f.validate().is_err());
        assert!(BreakerConfig::disabled().validate().is_ok());
    }
}
