//! The lifecycle-invariant checker behind the sim's `strict-invariants`
//! feature.
//!
//! Algorithm 1's lifecycle (Figure 4) admits only a handful of state
//! changes *per triggering event*: a login always lands in `Resumed`, a
//! logout never stays there, a timer may only ripen a logical pause into a
//! physical one, and a proactive resume may only lift a physically paused
//! database back to logically paused.  The checker shadows every engine —
//! any policy, since the rules are policy-independent — and reports the
//! first violation as a [`ProrpError::InvariantViolation`] instead of
//! silently corrupting KPIs.
//!
//! The checks are observational: they never mutate the engine, so enabling
//! them cannot change a simulation's outcome, only abort it.  That is what
//! makes the golden KPI snapshots valid with the feature on or off.

use crate::engine::EngineEvent;
use prorp_storage::HistoryStore;
use prorp_types::{DatabaseId, DbState, ProrpError, Timestamp};

/// Shadow state machine validating one database's lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct LifecycleInvariants {
    db: DatabaseId,
    state: DbState,
    last_at: Timestamp,
}

impl LifecycleInvariants {
    /// Start shadowing a database that is in `initial` state at `start`
    /// (policy engines start `Resumed`; the optimal oracle starts
    /// `PhysicallyPaused`).
    pub fn new(db: DatabaseId, start: Timestamp, initial: DbState) -> Self {
        LifecycleInvariants {
            db,
            state: initial,
            last_at: start,
        }
    }

    /// The state the checker last observed.
    pub fn state(&self) -> DbState {
        self.state
    }

    /// Whether `event` may move a database from `before` to `after`.
    ///
    /// Staying put is always legal (engines ignore duplicate edges, stale
    /// timers, and raced proactive resumes).
    pub fn transition_allowed(event: EngineEvent, before: DbState, after: DbState) -> bool {
        if before == after {
            // A logout that leaves the database serving would mean billing
            // an idle customer; every other no-op is benign.
            return !matches!(event, EngineEvent::ActivityEnd) || after != DbState::Resumed;
        }
        match event {
            // A login always ends up serving.
            EngineEvent::ActivityStart => after == DbState::Resumed,
            // A logout pauses — logically, or physically via Transition ❸.
            EngineEvent::ActivityEnd => {
                before == DbState::Resumed
                    && matches!(after, DbState::LogicallyPaused | DbState::PhysicallyPaused)
            }
            // A live timer only ripens a logical pause into a physical one.
            EngineEvent::Timer(_) => {
                before == DbState::LogicallyPaused && after == DbState::PhysicallyPaused
            }
            // Algorithm 5 line 8: pre-warm lands in logical pause.
            EngineEvent::ProactiveResume => {
                before == DbState::PhysicallyPaused && after == DbState::LogicallyPaused
            }
            // An operator pause reclaims an idle database immediately
            // (from logical pause, or from the freshly registered
            // never-active resumed state); anything else is a refusal
            // (no-op, covered by the `before == after` rule above).
            EngineEvent::ForcedPause => {
                matches!(before, DbState::Resumed | DbState::LogicallyPaused)
                    && after == DbState::PhysicallyPaused
            }
        }
    }

    /// Record that `event` was delivered at `now` and the engine is in
    /// `after` afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ProrpError::InvariantViolation`] when time runs backwards
    /// or the transition is illegal for the event.
    pub fn observe(
        &mut self,
        now: Timestamp,
        event: EngineEvent,
        after: DbState,
    ) -> Result<(), ProrpError> {
        if now < self.last_at {
            return Err(ProrpError::InvariantViolation(format!(
                "db {:?}: event {event:?} at {now} before previous event at {}",
                self.db, self.last_at
            )));
        }
        if !Self::transition_allowed(event, self.state, after) {
            return Err(ProrpError::InvariantViolation(format!(
                "db {:?}: event {event:?} at {now} moved {:?} -> {after:?}",
                self.db, self.state
            )));
        }
        self.state = after;
        self.last_at = now;
        Ok(())
    }

    /// Validate the history store a run leaves behind: the backend's
    /// audit (behind the [`HistoryStore`] seam: the §5 table's view
    /// against its page image, the LSM's view against its merged runs)
    /// must pass, and its events must come back in strictly ascending
    /// timestamp order (every tuple is keyed by its timestamp).
    ///
    /// # Errors
    ///
    /// Returns [`ProrpError::InvariantViolation`] naming the offending
    /// pair of events.
    pub fn check_history(db: DatabaseId, history: &dyn HistoryStore) -> Result<(), ProrpError> {
        history.check_invariants();
        let events = history.events();
        for w in events.windows(2) {
            if w[1].ts <= w[0].ts {
                return Err(ProrpError::InvariantViolation(format!(
                    "db {db:?}: history out of order ({} then {})",
                    w[0].ts, w[1].ts
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TimerToken;
    use prorp_storage::{HistoryBackend, HistoryTable, StorageBackend};
    use prorp_types::EventKind;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn checker() -> LifecycleInvariants {
        LifecycleInvariants::new(DatabaseId(1), t(0), DbState::Resumed)
    }

    #[test]
    fn legal_lifecycle_passes() {
        let mut c = checker();
        c.observe(t(10), EngineEvent::ActivityStart, DbState::Resumed)
            .unwrap();
        c.observe(t(20), EngineEvent::ActivityEnd, DbState::LogicallyPaused)
            .unwrap();
        c.observe(
            t(30),
            EngineEvent::Timer(TimerToken(1)),
            DbState::PhysicallyPaused,
        )
        .unwrap();
        c.observe(
            t(40),
            EngineEvent::ProactiveResume,
            DbState::LogicallyPaused,
        )
        .unwrap();
        c.observe(t(50), EngineEvent::ActivityStart, DbState::Resumed)
            .unwrap();
        // Transition ❸: logout straight to physically paused.
        c.observe(t(60), EngineEvent::ActivityEnd, DbState::PhysicallyPaused)
            .unwrap();
        assert_eq!(c.state(), DbState::PhysicallyPaused);
    }

    #[test]
    fn stale_edges_may_stay_put() {
        let mut c = checker();
        // Stale timer while serving, raced proactive resume: no-ops.
        c.observe(t(5), EngineEvent::Timer(TimerToken(9)), DbState::Resumed)
            .unwrap();
        c.observe(t(6), EngineEvent::ProactiveResume, DbState::Resumed)
            .unwrap();
    }

    #[test]
    fn illegal_transitions_are_caught() {
        // A timer may not resume a database.
        let mut c = LifecycleInvariants::new(DatabaseId(2), t(0), DbState::PhysicallyPaused);
        let err = c
            .observe(t(10), EngineEvent::Timer(TimerToken(1)), DbState::Resumed)
            .unwrap_err();
        assert_eq!(err.category(), "invariant");
        // A logout may not leave the database serving.
        let mut c = checker();
        assert!(c
            .observe(t(10), EngineEvent::ActivityEnd, DbState::Resumed)
            .is_err());
        // A proactive resume may not fully resume.
        let mut c = LifecycleInvariants::new(DatabaseId(3), t(0), DbState::PhysicallyPaused);
        assert!(c
            .observe(t(10), EngineEvent::ProactiveResume, DbState::Resumed)
            .is_err());
    }

    #[test]
    fn time_must_not_run_backwards() {
        let mut c = checker();
        c.observe(t(100), EngineEvent::ActivityStart, DbState::Resumed)
            .unwrap();
        let err = c
            .observe(t(99), EngineEvent::ActivityEnd, DbState::LogicallyPaused)
            .unwrap_err();
        assert!(err.to_string().contains("before previous event"));
    }

    #[test]
    fn history_ordering_is_validated() {
        let mut h = HistoryTable::new();
        h.insert_history(t(10), EventKind::Start);
        h.insert_history(t(20), EventKind::End);
        LifecycleInvariants::check_history(DatabaseId(1), &h).unwrap();
        // The checker accepts any backend through the seam.
        let mut b = HistoryBackend::new(StorageBackend::Lsm);
        b.insert_history(t(10), EventKind::Start);
        b.insert_history(t(20), EventKind::End);
        LifecycleInvariants::check_history(DatabaseId(1), &b).unwrap();
    }
}
