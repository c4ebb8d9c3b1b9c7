//! Customer-activity tracking (§5).
//!
//! The paper is specific about *what* is recorded and *when*: the start
//! and end of **customer** activity (system-maintenance resumes are
//! ignored), with timestamps captured **on the critical login path** for
//! precision while the tuple insertion itself runs **off the critical
//! path**.  [`ActivityTracker`] reproduces that split: `login` captures
//! the precise timestamp and inserts nothing, and `logout` inserts the
//! login row and then the logout row into the history store (Algorithm 2
//! semantics).  The engines read the history only after a logout, so the
//! prediction path never observes a stale store.
//!
//! The held login is also the one record of whether the database is
//! serving a session: [`ActivityTracker::serving`] is what every engine
//! and the simulator's shard read.
//!
//! The tracker owns its [`HistoryTable`];
//! [`ActivityTracker::with_backend`] says at construction whether that
//! table keeps its mutation log.

use prorp_storage::{HistoryStore, HistoryTable, StorageBackend};
use prorp_types::{EventKind, Timestamp};

/// Writer of a database's login/logout pairs into its [`HistoryTable`].
#[derive(Clone, Debug)]
pub struct ActivityTracker {
    history: HistoryTable,
    /// The open session's login time, held until its logout: `Some`
    /// exactly while a session is open.
    pending_login: Option<Timestamp>,
}

impl ActivityTracker {
    /// A tracker over an empty history of the given backend kind.
    pub fn with_backend(kind: StorageBackend) -> Self {
        ActivityTracker {
            history: HistoryTable::new(kind),
            pending_login: None,
        }
    }

    /// Open a session at `ts` (critical path: O(1), no index access).
    /// Returns `false`, recording nothing, when one is already open.
    pub fn login(&mut self, ts: Timestamp) -> bool {
        if self.pending_login.is_some() {
            return false;
        }
        self.pending_login = Some(ts);
        true
    }

    /// Close the open session at `ts`: insert its login row, then the
    /// logout row (Algorithm 2 suppresses a row whose timestamp is
    /// already stored).  Returns `false`, recording nothing, when no
    /// session is open.
    pub fn logout(&mut self, ts: Timestamp) -> bool {
        let Some(login) = self.pending_login.take() else {
            return false;
        };
        self.history.insert_history(login, EventKind::Start);
        self.history.insert_history(ts, EventKind::End);
        true
    }

    /// Whether a session is open: a login recorded and its logout not
    /// yet.
    pub fn serving(&self) -> bool {
        self.pending_login.is_some()
    }

    /// Read access to the history (the open session's login is not in
    /// it yet).
    pub fn history(&self) -> &HistoryTable {
        &self.history
    }

    /// Mutable access to the history for maintenance (Algorithm 3).
    pub fn history_mut(&mut self) -> &mut HistoryTable {
        &mut self.history
    }

    /// Replace the history wholesale (restore after a move, §3.3).  An
    /// open session stays open and its rows go into the restored store.
    pub fn replace_history(&mut self, history: HistoryTable) {
        self.history = history;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::HistoryRead;
    use prorp_types::ActivityEvent;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn tracker() -> ActivityTracker {
        ActivityTracker::with_backend(StorageBackend::default())
    }

    #[test]
    fn a_login_is_held_until_its_logout() {
        let mut tr = tracker();
        assert!(!tr.serving());
        assert!(tr.login(t(10)));
        assert!(tr.serving());
        assert!(tr.history().is_empty());
        assert!(tr.logout(t(20)));
        assert!(!tr.serving());
        assert_eq!(
            tr.history().events(),
            vec![ActivityEvent::start(t(10)), ActivityEvent::end(t(20))]
        );
    }

    #[test]
    fn a_second_login_or_an_unmatched_logout_records_nothing() {
        let mut tr = tracker();
        assert!(!tr.logout(t(5)));
        assert!(tr.login(t(10)));
        assert!(!tr.login(t(15)), "the session is already open");
        assert!(tr.logout(t(20)));
        assert!(!tr.logout(t(25)));
        assert_eq!(
            tr.history().events(),
            vec![ActivityEvent::start(t(10)), ActivityEvent::end(t(20))]
        );
    }

    #[test]
    fn duplicate_timestamps_are_suppressed() {
        let mut tr = tracker();
        tr.login(t(10));
        tr.logout(t(10)); // same second: unique key wins
        assert_eq!(tr.history().events(), vec![ActivityEvent::start(t(10))]);
        // Across sessions too.
        tr.login(t(10));
        tr.logout(t(10));
        assert_eq!(tr.history().len(), 1);
    }

    #[test]
    fn replace_history_keeps_pending_events() {
        let mut tr = tracker();
        tr.login(t(30)); // open across the move
        let mut restored = HistoryTable::default();
        restored.insert_history(t(5), EventKind::Start);
        restored.insert_history(t(10), EventKind::End);
        tr.replace_history(restored);
        assert!(tr.serving());
        tr.logout(t(40));
        assert_eq!(tr.history().len(), 4);
    }

    #[test]
    fn lsm_backed_tracker_behaves_identically() {
        let mut a = ActivityTracker::with_backend(StorageBackend::BTree);
        let mut b = ActivityTracker::with_backend(StorageBackend::Lsm);
        for tr in [&mut a, &mut b] {
            tr.login(t(10));
            tr.logout(t(10));
            tr.login(t(20));
            tr.logout(t(30));
        }
        assert_eq!(a.history().events(), b.history().events());
        assert_eq!(a.history().version(), b.history().version());
    }
}
