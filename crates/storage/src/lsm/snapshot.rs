//! Frozen read views and the timestamp → seqno time-travel mapping.
//!
//! `snapshot(seqno)` materialises the tuple set visible at a mutation
//! sequence number into an owned, immutable [`LsmSnapshot`]; the
//! [`TimeTravel`] trait maps *simulated timestamps* onto seqnos so a
//! post-mortem can ask "what history did the predictor see as of T?"
//! and re-run Algorithm 4 against exactly that state — the oxibase
//! `AS OF` idiom over fjall-style sequence numbers.

use crate::store::HistoryRead;
use crate::view::LiveView;
use prorp_types::Timestamp;

/// An owned, immutable view of the history as of one seqno.
///
/// Implements only the read half of the storage seam
/// ([`HistoryRead`]): predictors run against a snapshot exactly as
/// they run against the live store, but nothing can mutate it.  The
/// view is materialised (not a reference into the store), so later
/// mutations of the live store cannot change what it reads.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LsmSnapshot {
    /// The visible tuple set, frozen; its version is the freeze seqno.
    view: LiveView,
}

impl LsmSnapshot {
    /// Freeze a visible tuple set; its version is the freeze seqno.
    pub(crate) fn new(view: LiveView) -> LsmSnapshot {
        LsmSnapshot { view }
    }

    /// The seqno this view is frozen at.
    pub fn seqno(&self) -> u64 {
        self.view.version()
    }
}

impl HistoryRead for LsmSnapshot {
    fn view(&self) -> &LiveView {
        &self.view
    }
}

/// Timestamp-indexed access to frozen views of an MVCC store.
///
/// `seqno_as_of(T)` resolves a *simulated* timestamp to the newest
/// seqno whose mutation was applied at or before `T`; `snapshot` then
/// freezes the visible tuple set at that seqno.  Together they let
/// `prorp-trace` re-run Algorithm 4 against the history exactly as the
/// predictor saw it at any past instant.
pub trait TimeTravel {
    /// The newest seqno in the store (its current [`HistoryRead::version`]).
    fn latest_seqno(&self) -> u64;

    /// Newest seqno applied at or before `at` (0 when nothing was).
    fn seqno_as_of(&self, at: Timestamp) -> u64;

    /// Freeze the tuple set visible at `seqno`.  Seqnos newer than
    /// [`latest_seqno`](TimeTravel::latest_seqno) clamp to the present.
    fn snapshot(&self, seqno: u64) -> LsmSnapshot;

    /// Freeze the tuple set as the store stood at simulated time `at`.
    fn snapshot_as_of(&self, at: Timestamp) -> LsmSnapshot {
        self.snapshot(self.seqno_as_of(at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_snapshot_reads_its_materialised_view() {
        let s = LsmSnapshot::new(LiveView::from_sorted(
            vec![10, 20, 30, 40],
            vec![1, 0, 1, 0],
            7,
        ));
        assert_eq!(s.seqno(), 7);
        assert_eq!(s.len(), 4);
        assert_eq!(s.view().get(10), Some(1));
        assert_eq!(s.view().get(20), Some(0));
        assert_eq!(s.view().get(15), None);
        assert_eq!(s.logins(), &[10, 30]);
    }
}
