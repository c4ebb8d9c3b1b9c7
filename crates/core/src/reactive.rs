//! The reactive baseline policy (§2.2).
//!
//! The pre-ProRP behaviour of Azure SQL Database Serverless: when the
//! workload stops, resources are **logically paused** (still allocated,
//! billing stopped) to absorb short idle intervals; after `l` time units
//! of continued idleness they are **physically paused**; a login while
//! physically paused triggers a **reactive resume** whose workflow latency
//! the customer observes.  No prediction, no pre-warming.
//!
//! The activity tracker still runs — §5's customer-activity tracking is a
//! policy-independent component, and keeping it on makes the overhead
//! experiments (Figure 10) comparable across policies.

use crate::engine::{
    Actions, DatabasePolicy, EngineAction, EngineCounters, EngineEvent, TimerToken,
};
use crate::tracker::ActivityTracker;
use prorp_storage::{HistoryStore, HistoryTable, StorageBackend};
use prorp_types::{DbState, ProrpError, Seconds, Timestamp};

/// The reactive per-database engine.
#[derive(Debug)]
pub struct ReactiveEngine {
    logical_pause: Seconds,
    history_len: Seconds,
    tracker: ActivityTracker,
    state: DbState,
    next_token: u64,
    live_token: Option<TimerToken>,
    counters: EngineCounters,
}

impl ReactiveEngine {
    /// Build a reactive engine.
    ///
    /// `logical_pause` is the idle timeout `l`; `history_len` bounds the
    /// retained history (the tracker still trims per Algorithm 3).
    ///
    /// # Errors
    ///
    /// Rejects non-positive durations.
    pub fn new(logical_pause: Seconds, history_len: Seconds) -> Result<Self, ProrpError> {
        Self::with_backend(logical_pause, history_len, StorageBackend::default())
    }

    /// Build a reactive engine whose history lives in the given storage
    /// backend (the §5 table or the LSM); behaviour is identical either way.
    ///
    /// # Errors
    ///
    /// Rejects non-positive durations.
    pub fn with_backend(
        logical_pause: Seconds,
        history_len: Seconds,
        backend: StorageBackend,
    ) -> Result<Self, ProrpError> {
        if logical_pause.as_secs() <= 0 || history_len.as_secs() <= 0 {
            return Err(ProrpError::InvalidConfig(format!(
                "reactive engine requires positive durations, got l={logical_pause:?}, h={history_len:?}"
            )));
        }
        Ok(ReactiveEngine {
            logical_pause,
            history_len,
            tracker: ActivityTracker::with_backend(backend),
            state: DbState::Resumed,
            next_token: 0,
            live_token: None,
            counters: EngineCounters::default(),
        })
    }

    fn fresh_token(&mut self) -> TimerToken {
        self.next_token += 1;
        TimerToken(self.next_token)
    }
}

impl DatabasePolicy for ReactiveEngine {
    fn on_event(&mut self, now: Timestamp, event: EngineEvent) -> Actions {
        let mut actions = Actions::new();
        match event {
            EngineEvent::ActivityStart => {
                if !self.tracker.login(now) {
                    return actions;
                }
                self.live_token = None;
                match self.state {
                    DbState::PhysicallyPaused => {
                        self.counters.logins_unavailable += 1;
                        actions.push(EngineAction::Allocate);
                    }
                    _ => self.counters.logins_available += 1,
                }
                self.state = DbState::Resumed;
            }
            EngineEvent::ActivityEnd => {
                if !self.tracker.logout(now) {
                    return actions;
                }
                self.tracker
                    .history_mut()
                    .delete_old_history(self.history_len, now);
                self.state = DbState::LogicallyPaused;
                self.counters.logical_pauses += 1;
                let token = self.fresh_token();
                self.live_token = Some(token);
                actions.push(EngineAction::ScheduleTimer(now + self.logical_pause, token));
            }
            EngineEvent::Timer(token) => {
                if self.live_token != Some(token) {
                    return actions;
                }
                self.live_token = None;
                if self.tracker.serving() || self.state != DbState::LogicallyPaused {
                    return actions;
                }
                self.state = DbState::PhysicallyPaused;
                self.counters.physical_pauses += 1;
                actions.push(EngineAction::SetPredictedStart(None));
                actions.push(EngineAction::Reclaim);
            }
            EngineEvent::ProactiveResume => {
                // The reactive policy has no proactive capability; the
                // control plane never selects these databases (no
                // prediction is ever published), but tolerate the event.
            }
            EngineEvent::ForcedPause => {
                if self.tracker.serving() || self.state == DbState::PhysicallyPaused {
                    return actions;
                }
                self.live_token = None;
                self.state = DbState::PhysicallyPaused;
                self.counters.physical_pauses += 1;
                actions.push(EngineAction::SetPredictedStart(None));
                actions.push(EngineAction::Reclaim);
            }
        }
        actions
    }

    fn state(&self) -> DbState {
        self.state
    }

    fn counters(&self) -> EngineCounters {
        self.counters
    }

    fn tracker(&self) -> &ActivityTracker {
        &self.tracker
    }

    fn restore_history(&mut self, history: HistoryTable) {
        self.tracker.replace_history(history);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::HistoryRead;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn engine() -> ReactiveEngine {
        ReactiveEngine::new(Seconds::hours(7), Seconds::days(28)).unwrap()
    }

    #[test]
    fn short_idle_is_absorbed_by_logical_pause() {
        let mut eng = engine();
        eng.on_event(t(0), EngineEvent::ActivityStart);
        let actions = eng.on_event(t(100), EngineEvent::ActivityEnd);
        assert_eq!(eng.state(), DbState::LogicallyPaused);
        let (at, tok) = match actions.as_slice() {
            [EngineAction::ScheduleTimer(at, tok)] => (*at, *tok),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(at, t(100) + Seconds::hours(7));
        // Customer returns within the hour: resources were available.
        eng.on_event(t(3_000), EngineEvent::ActivityStart);
        assert_eq!(eng.counters().logins_available, 2);
        assert_eq!(eng.counters().logins_unavailable, 0);
        // The stale timer does nothing.
        assert!(eng.on_event(at, EngineEvent::Timer(tok)).is_empty());
        assert_eq!(eng.state(), DbState::Resumed);
    }

    #[test]
    fn long_idle_physically_pauses_then_resumes_reactively() {
        let mut eng = engine();
        eng.on_event(t(0), EngineEvent::ActivityStart);
        let actions = eng.on_event(t(100), EngineEvent::ActivityEnd);
        let (at, tok) = match actions.as_slice() {
            [EngineAction::ScheduleTimer(at, tok)] => (*at, *tok),
            other => panic!("unexpected {other:?}"),
        };
        let actions = eng.on_event(at, EngineEvent::Timer(tok));
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        assert_eq!(
            actions.as_slice(),
            [EngineAction::SetPredictedStart(None), EngineAction::Reclaim]
        );
        // Next login is a reactive resume.
        let actions = eng.on_event(at + Seconds::hours(1), EngineEvent::ActivityStart);
        assert!(actions.contains(&EngineAction::Allocate));
        assert_eq!(eng.counters().logins_unavailable, 1);
    }

    #[test]
    fn never_publishes_predictions() {
        let mut eng = engine();
        eng.on_event(t(0), EngineEvent::ActivityStart);
        let actions = eng.on_event(t(100), EngineEvent::ActivityEnd);
        let (at, tok) = match actions.as_slice() {
            [EngineAction::ScheduleTimer(at, tok)] => (*at, *tok),
            other => panic!("unexpected {other:?}"),
        };
        let actions = eng.on_event(at, EngineEvent::Timer(tok));
        assert!(actions.contains(&EngineAction::SetPredictedStart(None)));
        // ProactiveResume is tolerated but ignored.
        assert!(eng
            .on_event(at + Seconds(1), EngineEvent::ProactiveResume)
            .is_empty());
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
    }

    #[test]
    fn history_is_tracked_under_the_reactive_policy_too() {
        let mut eng = engine();
        eng.on_event(t(0), EngineEvent::ActivityStart);
        eng.on_event(t(100), EngineEvent::ActivityEnd);
        eng.on_event(t(200), EngineEvent::ActivityStart);
        eng.on_event(t(300), EngineEvent::ActivityEnd);
        assert_eq!(eng.history().len(), 4);
    }

    #[test]
    fn every_arm_from_every_state_replies_within_capacity() {
        let longest = crate::engine::walk_every_arm(t(0), engine);
        assert!((1..=Actions::CAPACITY).contains(&longest), "{longest}");
    }

    #[test]
    fn rejects_bad_durations() {
        assert!(ReactiveEngine::new(Seconds::ZERO, Seconds::days(1)).is_err());
        assert!(ReactiveEngine::new(Seconds::hours(1), Seconds(-5)).is_err());
    }

    /// The reactive engine's own size guard, beside the proactive
    /// engine's `an_engine_is_336_bytes`: a field added to or dropped
    /// from the baseline fails here by name, not as an RSS drift.  Its
    /// two durations are still per engine.
    #[test]
    fn a_reactive_engine_is_256_bytes() {
        assert_eq!(std::mem::size_of::<ReactiveEngine>(), 256);
    }
}
