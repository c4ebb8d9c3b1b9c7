//! Property-based fuzzing of the Algorithm 1 engine: arbitrary (but
//! time-ordered) event sequences — including stale timers, duplicate
//! logins, and mistimed pre-warms — must never panic, must keep the
//! lifecycle coherent, and must emit only well-formed actions.
//!
//! The second half fuzzes the §7 control-plane machinery in isolation:
//! the predictor circuit breaker against an independent spec-level model
//! of its open → half-open → close protocol, and the staged resume
//! workflow's retry path against the [`prorp_types::RetryPolicy`]
//! backoff contract under generated fault schedules.

use proptest::prelude::*;
use prorp_core::{
    CircuitBreaker, DatabasePolicy, EngineAction, EngineEvent, ProactiveEngine, ReactiveEngine,
    ResumeWorkflow, StageOutcome, TimerToken,
};
use prorp_forecast::{FailEvery, ProbabilisticPredictor};
use prorp_types::{
    BreakerConfig, DatabaseId, DbState, FaultConfig, PolicyConfig, RetryPolicy, Seconds, Timestamp,
    WorkflowStage,
};

#[derive(Clone, Debug)]
enum FuzzStep {
    /// Advance time and toggle activity (start if idle, end if active).
    ToggleActivity { advance_secs: i64 },
    /// Deliver the most recently scheduled timer (may be stale by now).
    DeliverPendingTimer { advance_secs: i64 },
    /// Deliver a forged timer token (never scheduled).
    DeliverBogusTimer { advance_secs: i64, token: u64 },
    /// Deliver a proactive resume regardless of state.
    ProactiveResume { advance_secs: i64 },
    /// Deliver an operator forced pause regardless of state.
    ForcedPause { advance_secs: i64 },
    /// Deliver a duplicate of the last activity edge.
    RepeatLastEdge { advance_secs: i64 },
}

fn step_strategy() -> impl Strategy<Value = FuzzStep> {
    let advance = 0i64..200_000;
    prop_oneof![
        4 => advance.clone().prop_map(|advance_secs| FuzzStep::ToggleActivity { advance_secs }),
        2 => advance.clone().prop_map(|advance_secs| FuzzStep::DeliverPendingTimer { advance_secs }),
        1 => (advance.clone(), 0u64..100)
            .prop_map(|(advance_secs, token)| FuzzStep::DeliverBogusTimer { advance_secs, token }),
        2 => advance.clone().prop_map(|advance_secs| FuzzStep::ProactiveResume { advance_secs }),
        1 => advance.clone().prop_map(|advance_secs| FuzzStep::ForcedPause { advance_secs }),
        1 => advance.prop_map(|advance_secs| FuzzStep::RepeatLastEdge { advance_secs }),
    ]
}

/// Drive an engine through the fuzz script, checking invariants after
/// every event.
fn drive(engine: &mut dyn DatabasePolicy, steps: &[FuzzStep]) -> Result<(), TestCaseError> {
    let mut now = Timestamp(0);
    let mut active = false;
    let mut pending_timer: Option<(Timestamp, TimerToken)> = None;
    let mut last_edge_was_start = false;
    let mut max_token_seen = 0u64;

    let check_actions = |now: Timestamp,
                         actions: &[EngineAction],
                         max_token_seen: &mut u64|
     -> Result<Option<(Timestamp, TimerToken)>, TestCaseError> {
        let mut scheduled = None;
        for a in actions {
            match a {
                EngineAction::ScheduleTimer(at, token) => {
                    prop_assert!(*at >= now, "timer {at:?} scheduled in the past of {now:?}");
                    prop_assert!(
                        token.0 > *max_token_seen,
                        "timer tokens must be fresh and increasing"
                    );
                    *max_token_seen = token.0;
                    prop_assert!(scheduled.is_none(), "at most one timer per event");
                    scheduled = Some((*at, *token));
                }
                EngineAction::Allocate
                | EngineAction::Reclaim
                | EngineAction::SetPredictedStart(_) => {}
            }
        }
        Ok(scheduled)
    };

    for step in steps {
        let (advance, event) = match *step {
            FuzzStep::ToggleActivity { advance_secs } => {
                let ev = if active {
                    EngineEvent::ActivityEnd
                } else {
                    EngineEvent::ActivityStart
                };
                (advance_secs, ev)
            }
            FuzzStep::DeliverPendingTimer { advance_secs } => match pending_timer {
                Some((_, token)) => (advance_secs, EngineEvent::Timer(token)),
                None => continue,
            },
            FuzzStep::DeliverBogusTimer {
                advance_secs,
                token,
            } => (advance_secs, EngineEvent::Timer(TimerToken(token))),
            FuzzStep::ProactiveResume { advance_secs } => {
                (advance_secs, EngineEvent::ProactiveResume)
            }
            FuzzStep::ForcedPause { advance_secs } => (advance_secs, EngineEvent::ForcedPause),
            FuzzStep::RepeatLastEdge { advance_secs } => {
                let ev = if last_edge_was_start {
                    EngineEvent::ActivityStart
                } else {
                    EngineEvent::ActivityEnd
                };
                (advance_secs, ev)
            }
        };
        now += Seconds(advance);
        let before = engine.counters();
        let actions = engine.on_event(now, event);
        if let Some(t) = check_actions(now, &actions, &mut max_token_seen)? {
            pending_timer = Some(t);
        }

        // Track ground truth.
        match event {
            EngineEvent::ActivityStart => {
                if !active {
                    active = true;
                    last_edge_was_start = true;
                    prop_assert_eq!(engine.state(), DbState::Resumed);
                }
            }
            EngineEvent::ActivityEnd => {
                if active {
                    active = false;
                    last_edge_was_start = false;
                    prop_assert_ne!(
                        engine.state(),
                        DbState::Resumed,
                        "idle database must not stay resumed"
                    );
                }
            }
            EngineEvent::Timer(_) | EngineEvent::ProactiveResume => {}
            EngineEvent::ForcedPause => {
                if !active {
                    prop_assert_eq!(
                        engine.state(),
                        DbState::PhysicallyPaused,
                        "forced pause on an idle database must reclaim it"
                    );
                } else {
                    prop_assert_eq!(
                        engine.state(),
                        DbState::Resumed,
                        "forced pause must be refused while serving"
                    );
                }
            }
        }

        // Counters are monotone.
        let after = engine.counters();
        prop_assert!(after.logins_available >= before.logins_available);
        prop_assert!(after.logins_unavailable >= before.logins_unavailable);
        prop_assert!(after.physical_pauses >= before.physical_pauses);
        prop_assert!(after.predictions >= before.predictions);

        // While active, the engine must report Resumed.
        if active {
            prop_assert_eq!(engine.state(), DbState::Resumed);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn proactive_engine_survives_arbitrary_event_orderings(
        steps in prop::collection::vec(step_strategy(), 1..200)
    ) {
        let config = PolicyConfig {
            history_len: Seconds::days(5),
            ..PolicyConfig::default()
        };
        let mut engine = ProactiveEngine::new(
            config,
            ProbabilisticPredictor::new(config).unwrap(),
        )
        .unwrap();
        drive(&mut engine, &steps)?;
    }

    #[test]
    fn proactive_engine_with_flaky_forecast_survives(
        steps in prop::collection::vec(step_strategy(), 1..200),
        fail_period in 1u64..5,
    ) {
        let config = PolicyConfig {
            history_len: Seconds::days(5),
            ..PolicyConfig::default()
        };
        let predictor = FailEvery::new(ProbabilisticPredictor::new(config).unwrap(), fail_period);
        let mut engine = ProactiveEngine::new(config, predictor).unwrap();
        drive(&mut engine, &steps)?;
    }

    #[test]
    fn reactive_engine_survives_arbitrary_event_orderings(
        steps in prop::collection::vec(step_strategy(), 1..200)
    ) {
        let mut engine =
            ReactiveEngine::new(Seconds::hours(7), Seconds::days(28)).unwrap();
        drive(&mut engine, &steps)?;
    }
}

/// Spec-level mirror of the breaker protocol, written from the §3.2
/// description rather than the implementation: closed while the failure
/// run is short, open for one cool-down once it reaches the threshold,
/// half-open exactly at the cool-down boundary, closed again on a
/// successful probe, re-opened for a fresh cool-down on a failed one.
#[derive(Clone, Copy, Debug)]
enum BreakerMode {
    Closed { run: u32 },
    Open { until: i64 },
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Drive a breaker through its own protocol (predictions attempted
    /// only when `allows` says so) with generated outcome schedules and
    /// check `allows` / `is_open` / `opens` against the model at every
    /// step — covering open → half-open → close and open → half-open →
    /// re-open transitions whenever the schedule produces them.
    #[test]
    fn breaker_follows_the_open_halfopen_close_protocol(
        threshold in 0u32..4,
        cooldown in 10i64..2_000,
        schedule in prop::collection::vec((0i64..5_000, any::<bool>()), 1..150),
    ) {
        let knobs = BreakerConfig {
            failure_threshold: threshold,
            cooldown: Seconds(cooldown),
        };
        let mut breaker = CircuitBreaker::default();
        let mut mode = BreakerMode::Closed { run: 0 };
        let mut model_opens = 0u64;
        let mut now = 0i64;
        for (advance, fail) in schedule {
            now += advance;
            let expect_allows = match mode {
                BreakerMode::Closed { .. } => true,
                BreakerMode::Open { until } => now >= until,
            };
            prop_assert_eq!(breaker.allows(Timestamp(now)), expect_allows);
            prop_assert_eq!(breaker.is_open(Timestamp(now)), !expect_allows);
            if !expect_allows {
                // The engine never invokes the predictor while open, so
                // neither does the fuzz driver.
                continue;
            }
            if fail {
                let opened = breaker.record_failure(&knobs, Timestamp(now));
                match mode {
                    BreakerMode::Open { .. } => {
                        // A failed half-open probe re-opens immediately.
                        mode = BreakerMode::Open { until: now + cooldown };
                        model_opens += 1;
                        prop_assert!(opened, "failed probe must re-open");
                    }
                    BreakerMode::Closed { run } if threshold > 0 && run + 1 >= threshold => {
                        mode = BreakerMode::Open { until: now + cooldown };
                        model_opens += 1;
                        prop_assert!(opened, "threshold reached must open");
                    }
                    BreakerMode::Closed { run } => {
                        mode = BreakerMode::Closed {
                            run: if threshold == 0 { 0 } else { run + 1 },
                        };
                        prop_assert!(!opened);
                    }
                }
            } else {
                breaker.record_success();
                mode = BreakerMode::Closed { run: 0 };
            }
            prop_assert_eq!(breaker.opens(), model_opens);
        }
    }

    /// Drive a staged resume workflow to termination under a generated
    /// fault schedule and check the retry contract at every transition:
    /// stages advance strictly in order with attempts reset, attempt
    /// counts never exceed the budget, every retry lands after the
    /// stage's execution latency and within the capped backoff window,
    /// exhaustion reports exactly the budget — and the entire outcome
    /// sequence replays bit-identically from the same seed.
    #[test]
    fn workflow_retry_path_honours_the_fault_schedule(
        seed in any::<u64>(),
        db in 0u64..1_000,
        started in 0i64..100_000,
        move_penalty in 0i64..300,
        fail_pct in prop::collection::vec(0u32..101, 4),
        max_attempts in 1u32..6,
        base_backoff in 1i64..60,
        backoff_mult in 1i64..8,
    ) {
        let latencies = WorkflowStage::ALL.map(|s| s.latency().as_secs());
        let mut faults = FaultConfig::default();
        for (i, slot) in faults.stages.iter_mut().enumerate() {
            slot.failure_probability = f64::from(fail_pct[i]) / 100.0;
        }
        faults.retry = RetryPolicy {
            max_attempts,
            base_backoff: Seconds(base_backoff),
            max_backoff: Seconds(base_backoff * backoff_mult),
        };

        let run = |faults: &FaultConfig| -> Result<Vec<StageOutcome>, TestCaseError> {
            let mut wf = ResumeWorkflow::new(DatabaseId(db), Timestamp(started), Seconds(move_penalty));
            let mut now = wf.first_ready_at();
            prop_assert_eq!(
                now,
                Timestamp(started) + Seconds(latencies[0]) + Seconds(move_penalty),
                "first stage carries the move penalty"
            );
            let mut outcomes = Vec::new();
            let mut executions = 0u32;
            loop {
                executions += 1;
                prop_assert!(
                    executions <= 4 * max_attempts,
                    "workflow must terminate within the attempt budget"
                );
                let stage = wf.stage();
                let attempt = wf.attempt();
                let outcome = wf.on_stage_executed(now, seed, faults);
                outcomes.push(outcome);
                match outcome {
                    StageOutcome::Completed { stage: done, next_ready_at, .. } => {
                        prop_assert_eq!(done, stage);
                        match next_ready_at {
                            Some(t) => {
                                prop_assert_eq!(wf.stage().index(), done.index() + 1);
                                prop_assert_eq!(wf.attempt(), 1, "attempts reset per stage");
                                prop_assert_eq!(
                                    t,
                                    now + Seconds(latencies[wf.stage().index()]),
                                    "next stage executes after its latency"
                                );
                                now = t;
                            }
                            None => {
                                prop_assert_eq!(done, WorkflowStage::MarkResumed);
                                return Ok(outcomes);
                            }
                        }
                    }
                    StageOutcome::Retry { stage: failed, attempt: next, ready_at } => {
                        prop_assert_eq!(failed, stage);
                        prop_assert_eq!(next, attempt + 1);
                        prop_assert!(next <= max_attempts, "retry beyond the budget");
                        // ready_at = now + equal-jitter backoff + stage
                        // latency (move penalty folded into the first
                        // stage), where the backoff never exceeds the cap.
                        let penalty = if stage == WorkflowStage::AllocateNode {
                            move_penalty
                        } else {
                            0
                        };
                        let latency = Seconds(latencies[stage.index()] + penalty);
                        prop_assert!(
                            ready_at >= now + latency,
                            "retry cannot finish before the stage executes"
                        );
                        prop_assert!(
                            ready_at <= now + latency + Seconds(base_backoff * backoff_mult).max(Seconds(1)),
                            "backoff exceeded its cap"
                        );
                        now = ready_at;
                    }
                    StageOutcome::Exhausted { stage: dead, attempts } => {
                        prop_assert_eq!(dead, stage);
                        prop_assert_eq!(
                            attempts, max_attempts,
                            "exhaustion must spend the whole budget"
                        );
                        return Ok(outcomes);
                    }
                }
            }
        };

        let first = run(&faults)?;
        let second = run(&faults)?;
        prop_assert_eq!(first, second, "fault draws must be deterministic");
    }

    /// Metamorphic identity: with every failure probability at zero the
    /// workflow completes in exactly four executions, never retries, and
    /// finishes at `started + move_penalty + Σ stage latencies`.
    #[test]
    fn fault_free_workflow_completes_on_schedule(
        seed in any::<u64>(),
        db in 0u64..1_000,
        started in 0i64..100_000,
        move_penalty in 0i64..300,
    ) {
        let faults = FaultConfig::default();
        let mut wf = ResumeWorkflow::new(DatabaseId(db), Timestamp(started), Seconds(move_penalty));
        let mut now = wf.first_ready_at();
        let mut completions = 0;
        loop {
            match wf.on_stage_executed(now, seed, &faults) {
                StageOutcome::Completed { next_ready_at: Some(t), .. } => {
                    completions += 1;
                    now = t;
                }
                StageOutcome::Completed { next_ready_at: None, .. } => {
                    completions += 1;
                    break;
                }
                other => prop_assert!(false, "fault-free run produced {other:?}"),
            }
        }
        prop_assert_eq!(completions, 4);
        prop_assert_eq!(wf.total_retries(), 0);
        let total: i64 = WorkflowStage::ALL.iter().map(|s| s.latency().as_secs()).sum();
        prop_assert_eq!(now, Timestamp(started) + Seconds(move_penalty) + Seconds(total));
    }
}

/// Deterministic spot check pinning one full breaker cycle — open on the
/// second failure, half-open probe that fails and re-opens, then a
/// successful probe that closes — so a strategy change can never silently
/// stop covering the three-state walk.
#[test]
fn breaker_full_cycle_spot_check() {
    let knobs = BreakerConfig {
        failure_threshold: 2,
        cooldown: Seconds(100),
    };
    let mut b = CircuitBreaker::default();
    assert!(!b.record_failure(&knobs, Timestamp(0)));
    assert!(
        b.record_failure(&knobs, Timestamp(10)),
        "second failure opens"
    );
    assert!(b.is_open(Timestamp(109)));
    assert!(b.allows(Timestamp(110)), "half-open at the cool-down");
    assert!(
        b.record_failure(&knobs, Timestamp(110)),
        "failed probe re-opens"
    );
    assert!(b.is_open(Timestamp(209)));
    assert!(b.allows(Timestamp(210)));
    b.record_success();
    assert!(!b.is_open(Timestamp(211)));
    assert_eq!(b.opens(), 2);
}
