//! The lifecycle checks the simulator runs in debug builds.
//!
//! Algorithm 1's lifecycle (Figure 4) admits only a handful of state
//! changes *per triggering event*: a login always lands in `Resumed`, a
//! logout never stays there, a timer may only ripen a logical pause into a
//! physical one, and a proactive resume may only lift a physically paused
//! database back to logically paused.  [`transition_allowed`] is that rule
//! (policy-independent, so it holds for every engine), and
//! [`check_history`] audits the history table a run leaves behind.  The
//! shard event loop applies both under `cfg!(debug_assertions)` and
//! reports the first violation as a [`ProrpError::InvariantViolation`]
//! instead of silently corrupting KPIs.
//!
//! The checks are observational: they read the engine and never mutate
//! it, so running them cannot change a simulation's outcome, only abort
//! it.  That is what keeps the golden KPI snapshots the same in debug and
//! release builds.

use crate::engine::EngineEvent;
use prorp_storage::HistoryStore;
use prorp_types::{DatabaseId, DbState, ProrpError};

/// Whether `event` may move a database from `before` to `after`.
///
/// Staying put is always legal (engines ignore duplicate edges, stale
/// timers, and raced proactive resumes), except for a logout that leaves
/// the database serving.
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

/// Validate the history store a run leaves behind: the store's own audit
/// ([`HistoryStore::check_invariants`]: the sorted view against its page
/// image and, when the table keeps its log, against the replayed log)
/// must pass,
/// and its rows must be in strictly ascending timestamp order (every
/// tuple is keyed by its timestamp).
///
/// # Errors
///
/// Returns [`ProrpError::InvariantViolation`] naming the offending pair
/// of timestamps.
pub fn check_history(db: DatabaseId, history: &dyn HistoryStore) -> Result<(), ProrpError> {
    history.check_invariants();
    let view = history.view();
    match view.rows().windows(2).find(|w| w[1].0 <= w[0].0) {
        Some(w) => Err(ProrpError::InvariantViolation(format!(
            "db {db:?}: history out of order ({} then {})",
            w[0].0, w[1].0
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TimerToken;
    use prorp_storage::{HistoryTable, StorageBackend};
    use prorp_types::{EventKind, Timestamp};

    /// Walk `steps` from `start`, each `(event, state after)`; the first
    /// step whose transition is not allowed, if any.
    fn first_illegal(start: DbState, steps: &[(EngineEvent, DbState)]) -> Option<usize> {
        let mut state = start;
        steps.iter().position(|&(event, after)| {
            let illegal = !transition_allowed(event, state, after);
            state = after;
            illegal
        })
    }

    #[test]
    fn legal_lifecycle_passes() {
        let lifecycle = [
            (EngineEvent::ActivityStart, DbState::Resumed),
            (EngineEvent::ActivityEnd, DbState::LogicallyPaused),
            (EngineEvent::Timer(TimerToken(1)), DbState::PhysicallyPaused),
            (EngineEvent::ProactiveResume, DbState::LogicallyPaused),
            (EngineEvent::ActivityStart, DbState::Resumed),
            // Transition ❸: logout straight to physically paused.
            (EngineEvent::ActivityEnd, DbState::PhysicallyPaused),
        ];
        assert_eq!(first_illegal(DbState::Resumed, &lifecycle), None);
    }

    #[test]
    fn stale_edges_may_stay_put() {
        // Stale timer while serving, raced proactive resume: no-ops.
        let stale = [
            (EngineEvent::Timer(TimerToken(9)), DbState::Resumed),
            (EngineEvent::ProactiveResume, DbState::Resumed),
        ];
        assert_eq!(first_illegal(DbState::Resumed, &stale), None);
    }

    #[test]
    fn illegal_transitions_are_caught() {
        use DbState::{LogicallyPaused, PhysicallyPaused, Resumed};
        // A timer may not resume a database.
        let timer = EngineEvent::Timer(TimerToken(1));
        assert!(!transition_allowed(timer, PhysicallyPaused, Resumed));
        // A logout may not leave the database serving.
        assert!(!transition_allowed(
            EngineEvent::ActivityEnd,
            Resumed,
            Resumed
        ));
        // A proactive resume may not fully resume.
        let resume = EngineEvent::ProactiveResume;
        assert!(!transition_allowed(resume, PhysicallyPaused, Resumed));
        // Nor may anything but a login lift a logical pause to serving.
        assert_eq!(
            first_illegal(
                PhysicallyPaused,
                &[(resume, LogicallyPaused), (timer, Resumed)]
            ),
            Some(1)
        );
    }

    #[test]
    fn history_ordering_is_validated() {
        let t = Timestamp;
        let mut h = HistoryTable::default();
        h.insert_history(t(10), EventKind::Start);
        h.insert_history(t(20), EventKind::End);
        check_history(DatabaseId(1), &h).unwrap();
        // The check accepts a table that keeps its mutation log too.
        let mut b = HistoryTable::new(StorageBackend::Lsm);
        b.insert_history(t(10), EventKind::Start);
        b.insert_history(t(20), EventKind::End);
        check_history(DatabaseId(1), &b).unwrap();
    }
}
