//! The staged resume workflow (§7 control plane).
//!
//! A reactive resume is not an atomic action: the control plane runs a
//! multi-stage workflow (allocate node → attach storage → warm cache →
//! mark resumed) and the diagnostics-and-mitigation runner watches it.
//! [`ResumeWorkflow`] is that state machine.  Each stage attempt draws a
//! deterministic failure verdict keyed by `(seed, db, workflow-start,
//! stage, attempt)`; a failed attempt retries after a capped, jittered
//! exponential backoff ([`prorp_types::RetryPolicy`]), and once the budget
//! is exhausted
//! the workflow escalates to a diagnostics incident and is force-completed
//! by the mitigation path.
//!
//! Determinism is the load-bearing property: the draws are pure functions
//! of the key, never of shard layout or event interleaving, so a fleet
//! simulation produces bit-identical fault behaviour at any shard count.

use prorp_types::{DatabaseId, FaultConfig, Seconds, Timestamp, WorkflowStage};

/// Domain-separation constant for stage-failure draws.
const STAGE_FAIL_TAG: u64 = 0x5374_6167_6546_6C70; // "StageFlp"
/// Domain-separation constant for backoff-jitter draws.
const JITTER_TAG: u64 = 0x4A69_7474_6572_4472; // "JitterDr"

/// Chain SplitMix64 over the draw key; the result is uniform in `u64`.
fn draw(
    seed: u64,
    db: DatabaseId,
    started: Timestamp,
    stage: WorkflowStage,
    attempt: u32,
    tag: u64,
) -> u64 {
    let mut h = rand::splitmix64(seed ^ tag);
    h = rand::splitmix64(h ^ db.raw());
    h = rand::splitmix64(h ^ started.as_secs() as u64);
    h = rand::splitmix64(h ^ (stage.index() as u64).wrapping_add(u64::from(attempt) << 8));
    h
}

/// Map a draw to `[0, 1)` using the top 53 bits.
fn unit(h: u64) -> f64 {
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// Outcome of executing one stage attempt.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum StageOutcome {
    /// The stage succeeded.  `spent` is the time from stage entry to
    /// success (retries and backoffs included); `next_ready_at` is when
    /// the *next* stage finishes executing, or `None` when the workflow
    /// just completed its final stage.
    Completed {
        /// The stage that completed.
        stage: WorkflowStage,
        /// Stage-entry-to-success latency.
        spent: Seconds,
        /// When the next stage's first attempt finishes, if any.
        next_ready_at: Option<Timestamp>,
    },
    /// The attempt failed transiently; the retry executes at `ready_at`.
    Retry {
        /// The stage that failed.
        stage: WorkflowStage,
        /// The attempt number about to run (2 = first retry).
        attempt: u32,
        /// When the retry's execution finishes (backoff + stage latency).
        ready_at: Timestamp,
    },
    /// The retry budget is exhausted; the caller escalates to the
    /// diagnostics runner and force-completes the workflow.
    Exhausted {
        /// The stage that gave up.
        stage: WorkflowStage,
        /// Attempts made before giving up.
        attempts: u32,
    },
}

/// One in-flight staged resume workflow for a single database.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ResumeWorkflow {
    db: DatabaseId,
    started: Timestamp,
    /// Extra latency folded into the first stage when the allocation
    /// crossed nodes (the §3.3 move penalty).
    move_penalty: Seconds,
    stage: WorkflowStage,
    stage_entered: Timestamp,
    /// 1-based attempt counter for the current stage.
    attempt: u32,
    total_retries: u32,
}

impl ResumeWorkflow {
    /// Start a workflow for `db` at `started`; `move_penalty` is added to
    /// the first stage's latency when the resume required a cross-node
    /// move (use [`Seconds::ZERO`] otherwise).
    pub fn new(db: DatabaseId, started: Timestamp, move_penalty: Seconds) -> Self {
        ResumeWorkflow {
            db,
            started,
            move_penalty,
            stage: WorkflowStage::AllocateNode,
            stage_entered: started,
            attempt: 1,
            total_retries: 0,
        }
    }

    /// The database being resumed.
    pub fn db(&self) -> DatabaseId {
        self.db
    }

    /// When the workflow started.
    pub fn started(&self) -> Timestamp {
        self.started
    }

    /// The stage currently executing.
    pub fn stage(&self) -> WorkflowStage {
        self.stage
    }

    /// The 1-based attempt number of the current stage.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Retries across all stages so far.
    pub fn total_retries(&self) -> u32 {
        self.total_retries
    }

    /// Nominal execution latency of the current stage (move penalty folded
    /// into the first stage).
    fn stage_latency(&self) -> Seconds {
        let base = self.stage.latency();
        if self.stage == WorkflowStage::AllocateNode {
            base + self.move_penalty
        } else {
            base
        }
    }

    /// When the first stage's first attempt finishes executing — the time
    /// the caller schedules the first stage event for.
    pub fn first_ready_at(&self) -> Timestamp {
        self.started + self.stage_latency()
    }

    /// The current stage's attempt just finished executing at `now`: draw
    /// its deterministic verdict and advance the state machine.
    pub fn on_stage_executed(
        &mut self,
        now: Timestamp,
        seed: u64,
        faults: &FaultConfig,
    ) -> StageOutcome {
        let stage = self.stage;
        let p = faults.stage(stage).failure_probability;
        let failed = p > 0.0
            && unit(draw(
                seed,
                self.db,
                self.started,
                stage,
                self.attempt,
                STAGE_FAIL_TAG,
            )) < p;
        if !failed {
            let spent = now.since(self.stage_entered);
            return match stage.next() {
                Some(next) => {
                    self.stage = next;
                    self.stage_entered = now;
                    self.attempt = 1;
                    StageOutcome::Completed {
                        stage,
                        spent,
                        next_ready_at: Some(now + self.stage_latency()),
                    }
                }
                None => StageOutcome::Completed {
                    stage,
                    spent,
                    next_ready_at: None,
                },
            };
        }
        if self.attempt >= faults.retry.max_attempts {
            return StageOutcome::Exhausted {
                stage,
                attempts: self.attempt,
            };
        }
        let jitter = unit(draw(
            seed,
            self.db,
            self.started,
            stage,
            self.attempt,
            JITTER_TAG,
        ));
        let backoff = faults.retry.backoff(self.attempt, jitter);
        self.attempt += 1;
        self.total_retries += 1;
        StageOutcome::Retry {
            stage,
            attempt: self.attempt,
            ready_at: now + backoff + self.stage_latency(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_types::{ProrpError, RetryPolicy};

    impl ResumeWorkflow {
        /// The structured error describing one failed stage attempt.
        pub(crate) fn stage_error(stage: WorkflowStage, attempt: u32) -> ProrpError {
            ProrpError::WorkflowStageFailed {
                stage,
                attempt,
                cause: Box::new(ProrpError::FaultInjected(format!("injected {stage} fault"))),
            }
        }

        /// The structured error describing an exhausted retry budget.
        pub(crate) fn exhausted_error(stage: WorkflowStage, attempts: u32) -> ProrpError {
            ProrpError::RetryExhausted { stage, attempts }
        }
    }

    fn faults_with(p: f64) -> FaultConfig {
        let mut f = FaultConfig::default();
        for s in &mut f.stages {
            s.failure_probability = p;
        }
        f
    }

    #[test]
    fn failure_free_workflow_walks_all_stages_and_preserves_total_latency() {
        let faults = FaultConfig::default();
        let mut wf = ResumeWorkflow::new(DatabaseId(7), Timestamp(1_000), Seconds::ZERO);
        let mut now = wf.first_ready_at();
        let mut completed = Vec::new();
        loop {
            match wf.on_stage_executed(now, 42, &faults) {
                StageOutcome::Completed {
                    stage,
                    next_ready_at,
                    ..
                } => {
                    completed.push(stage);
                    match next_ready_at {
                        Some(at) => now = at,
                        None => break,
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(completed, WorkflowStage::ALL);
        assert_eq!(now, Timestamp(1_000) + Seconds(60));
        assert_eq!(wf.total_retries(), 0);
    }

    #[test]
    fn move_penalty_lands_on_the_first_stage_only() {
        let wf = ResumeWorkflow::new(DatabaseId(1), Timestamp(0), Seconds(120));
        assert_eq!(
            wf.first_ready_at(),
            Timestamp(0) + WorkflowStage::AllocateNode.latency() + Seconds(120)
        );
    }

    #[test]
    fn certain_failure_exhausts_the_budget_deterministically() {
        let mut faults = faults_with(1.0);
        faults.retry = RetryPolicy {
            max_attempts: 3,
            base_backoff: Seconds(10),
            max_backoff: Seconds(40),
        };
        let mut wf = ResumeWorkflow::new(DatabaseId(9), Timestamp(500), Seconds::ZERO);
        let mut now = wf.first_ready_at();
        // Two retries, then exhaustion.
        for expected_attempt in [2u32, 3] {
            match wf.on_stage_executed(now, 7, &faults) {
                StageOutcome::Retry {
                    stage,
                    attempt,
                    ready_at,
                } => {
                    assert_eq!(stage, WorkflowStage::AllocateNode);
                    assert_eq!(attempt, expected_attempt);
                    assert!(ready_at > now, "backoff must move time forward");
                    now = ready_at;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        match wf.on_stage_executed(now, 7, &faults) {
            StageOutcome::Exhausted { stage, attempts } => {
                assert_eq!(stage, WorkflowStage::AllocateNode);
                assert_eq!(attempts, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(wf.total_retries(), 2);
    }

    #[test]
    fn draws_are_deterministic_and_key_sensitive() {
        let faults = faults_with(0.5);
        let run = |seed: u64, db: u64| {
            let mut wf = ResumeWorkflow::new(DatabaseId(db), Timestamp(100), Seconds::ZERO);
            let mut now = wf.first_ready_at();
            let mut trace = Vec::new();
            for _ in 0..16 {
                let out = wf.on_stage_executed(now, seed, &faults);
                trace.push(out);
                match out {
                    StageOutcome::Completed { next_ready_at, .. } => match next_ready_at {
                        Some(at) => now = at,
                        None => break,
                    },
                    StageOutcome::Retry { ready_at, .. } => now = ready_at,
                    StageOutcome::Exhausted { .. } => break,
                }
            }
            trace
        };
        assert_eq!(run(1, 5), run(1, 5), "same key, same trace");
        // Different seeds or databases must decorrelate (traces may match
        // by chance for a single db, so check over a small population).
        let mut any_diff = false;
        for db in 0..32 {
            if run(1, db) != run(2, db) {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "seed must change the fault pattern");
    }

    #[test]
    fn structured_errors_carry_stage_and_attempt() {
        let e = ResumeWorkflow::stage_error(WorkflowStage::WarmCache, 2);
        assert_eq!(e.category(), "workflow_stage");
        assert!(std::error::Error::source(&e).is_some());
        let g = ResumeWorkflow::exhausted_error(WorkflowStage::WarmCache, 3);
        assert_eq!(g.category(), "retry_exhausted");
    }

    #[test]
    fn zero_probability_never_fails_even_with_adversarial_seed() {
        let faults = FaultConfig::default();
        for seed in 0..64 {
            let mut wf = ResumeWorkflow::new(DatabaseId(3), Timestamp(0), Seconds::ZERO);
            let out = wf.on_stage_executed(wf.first_ready_at(), seed, &faults);
            assert!(matches!(out, StageOutcome::Completed { .. }));
        }
    }
}
