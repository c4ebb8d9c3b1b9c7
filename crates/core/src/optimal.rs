//! The optimal oracle policy (Figure 2(c), §2.3).
//!
//! "The optimal balance … is achieved when resources are allocated if and
//! only if they are needed": allocation is the minimal bounding box of
//! demand.  This policy reads the future from the [`OraclePredictor`] and
//! reclaims resources the moment activity ends, publishing the *exact*
//! next session start so the control plane resumes precisely on time.
//! The simulator grants it zero workflow latency — the optimum is defined
//! without mechanism delays and exists purely as the yard-stick every
//! real policy is measured against.

use crate::engine::{Actions, DatabasePolicy, EngineAction, EngineCounters, EngineEvent};
use crate::tracker::ActivityTracker;
use prorp_forecast::OraclePredictor;
use prorp_storage::{HistoryTable, StorageBackend};
use prorp_types::{DbState, Prediction, ProrpError, Session, Timestamp};

/// The clairvoyant per-database engine.
#[derive(Debug)]
pub struct OptimalEngine {
    oracle: OraclePredictor,
    tracker: ActivityTracker,
    state: DbState,
    counters: EngineCounters,
    published: Option<Prediction>,
}

impl OptimalEngine {
    /// Build from the ground-truth future session list.
    ///
    /// # Errors
    ///
    /// Propagates [`OraclePredictor::new`] validation failures.
    pub fn new(future_sessions: Vec<Session>) -> Result<Self, ProrpError> {
        Self::with_backend(future_sessions, StorageBackend::default())
    }

    /// Build from the ground-truth future session list with the history
    /// held in the given storage backend.
    ///
    /// # Errors
    ///
    /// Propagates [`OraclePredictor::new`] validation failures.
    pub fn with_backend(
        future_sessions: Vec<Session>,
        backend: StorageBackend,
    ) -> Result<Self, ProrpError> {
        Ok(OptimalEngine {
            oracle: OraclePredictor::new(future_sessions)?,
            tracker: ActivityTracker::with_backend(backend),
            // The optimum holds no resources before the first session.
            state: DbState::PhysicallyPaused,
            counters: EngineCounters::default(),
            published: None,
        })
    }
}

impl DatabasePolicy for OptimalEngine {
    fn react(&mut self, now: Timestamp, event: EngineEvent, actions: &mut Actions) {
        match event {
            EngineEvent::ActivityStart => {
                if !self.tracker.login(now) {
                    return;
                }
                // The simulator applies zero latency for the optimal
                // policy, so even a login that allocates is counted as
                // served-with-availability.
                self.counters.logins_available += 1;
                if self.state == DbState::PhysicallyPaused {
                    actions.push(EngineAction::Allocate);
                }
                self.state = DbState::Resumed;
            }
            EngineEvent::ActivityEnd => {
                if !self.tracker.logout(now) {
                    return;
                }
                // Allocation == demand: reclaim immediately, publish the
                // exact next start.
                self.state = DbState::PhysicallyPaused;
                self.counters.physical_pauses += 1;
                let next = self.oracle.next_session_after(now);
                self.published = next.map(|s| Prediction {
                    start: s.start,
                    end: s.end,
                    confidence: 1.0,
                });
                actions.push(EngineAction::SetPredictedStart(next.map(|s| s.start)));
                actions.push(EngineAction::Reclaim);
            }
            EngineEvent::Timer(_) => {
                // The optimal policy schedules no timers.
            }
            EngineEvent::ProactiveResume => {
                if self.state != DbState::PhysicallyPaused || self.tracker.serving() {
                    return;
                }
                self.counters.proactive_resumes += 1;
                actions.push(EngineAction::Allocate);
                self.state = DbState::LogicallyPaused;
            }
            EngineEvent::ForcedPause => {
                if self.tracker.serving() || self.state == DbState::PhysicallyPaused {
                    return;
                }
                self.state = DbState::PhysicallyPaused;
                self.counters.physical_pauses += 1;
                self.published = None;
                actions.push(EngineAction::SetPredictedStart(None));
                actions.push(EngineAction::Reclaim);
            }
        }
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

    fn current_prediction(&self) -> Option<Prediction> {
        self.published
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(a: i64, b: i64) -> Session {
        Session::new(Timestamp(a), Timestamp(b)).unwrap()
    }

    #[test]
    fn allocation_tracks_demand_exactly() {
        let mut eng = OptimalEngine::new(vec![s(10, 20), s(100, 120)]).unwrap();
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        let acts = eng.on_event(Timestamp(10), EngineEvent::ActivityStart);
        assert!(acts.contains(&EngineAction::Allocate));
        assert_eq!(eng.state(), DbState::Resumed);
        let acts = eng.on_event(Timestamp(20), EngineEvent::ActivityEnd);
        assert!(acts.contains(&EngineAction::Reclaim));
        assert!(acts.contains(&EngineAction::SetPredictedStart(Some(Timestamp(100)))));
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        // Last session: nothing more predicted.
        eng.on_event(Timestamp(100), EngineEvent::ActivityStart);
        let acts = eng.on_event(Timestamp(120), EngineEvent::ActivityEnd);
        assert!(acts.contains(&EngineAction::SetPredictedStart(None)));
    }

    #[test]
    fn every_arm_from_every_state_replies_within_capacity() {
        let longest = crate::engine::walk_every_arm(Timestamp(0), || {
            OptimalEngine::new(vec![s(1_000, 2_000), s(50_000, 60_000)]).unwrap()
        });
        assert!((1..=Actions::CAPACITY).contains(&longest), "{longest}");
    }

    #[test]
    fn every_login_counts_as_available() {
        let mut eng = OptimalEngine::new(vec![s(10, 20), s(100, 120)]).unwrap();
        eng.on_event(Timestamp(10), EngineEvent::ActivityStart);
        eng.on_event(Timestamp(20), EngineEvent::ActivityEnd);
        eng.on_event(Timestamp(100), EngineEvent::ActivityStart);
        let c = eng.counters();
        assert_eq!(c.logins_available, 2);
        assert_eq!(c.logins_unavailable, 0);
        assert_eq!(c.qos(), 1.0);
    }

    #[test]
    fn proactive_resume_is_accepted() {
        let mut eng = OptimalEngine::new(vec![s(100, 120)]).unwrap();
        let acts = eng.on_event(Timestamp(100), EngineEvent::ProactiveResume);
        assert!(acts.contains(&EngineAction::Allocate));
        assert_eq!(eng.state(), DbState::LogicallyPaused);
        eng.on_event(Timestamp(100), EngineEvent::ActivityStart);
        assert_eq!(eng.counters().logins_available, 1);
    }

    #[test]
    fn timers_are_ignored() {
        let mut eng = OptimalEngine::new(vec![]).unwrap();
        assert!(eng
            .on_event(Timestamp(5), EngineEvent::Timer(crate::TimerToken(1)))
            .is_empty());
    }
}
