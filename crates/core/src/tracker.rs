//! Customer-activity tracking (§5).
//!
//! The paper is specific about *what* is recorded and *when*: the start
//! and end of **customer** activity (system-maintenance resumes are
//! ignored), with timestamps captured **on the critical login path** for
//! precision while the tuple insertion itself runs **off the critical
//! path on a timer**.  [`ActivityTracker`] reproduces that split: `record`
//! captures the precise timestamp into a small buffer, and `flush` moves
//! buffered events into the history store (Algorithm 2 semantics).  The
//! engines flush before every read of the history — the prediction path
//! must never observe a stale store.  Because they do, the buffer never
//! holds more than a login and its logout, and those two live inline in
//! the tracker: recording touches no heap block.
//!
//! The tracker owns its [`HistoryTable`];
//! [`ActivityTracker::with_backend`] says at construction whether that
//! table keeps its mutation log.

use prorp_storage::{HistoryStore, HistoryTable, StorageBackend};
use prorp_types::{ActivityEvent, EventKind, Timestamp};

/// Pending events held in the tracker itself: a login and its logout.
const INLINE: usize = 2;

/// Buffered writer of activity events into a [`HistoryTable`].
#[derive(Clone, Debug)]
pub struct ActivityTracker {
    history: HistoryTable,
    /// The first [`INLINE`] events recorded since the last flush…
    inline: [ActivityEvent; INLINE],
    /// … how many of those slots are filled …
    inline_len: u8,
    /// … and any recorded after them, in order.
    spilled: Vec<ActivityEvent>,
    /// Events suppressed by the Algorithm 2 uniqueness guard.
    duplicates_suppressed: u64,
}

impl ActivityTracker {
    /// A tracker over an empty §5 history table (the default backend).
    pub fn new() -> Self {
        ActivityTracker::with_backend(StorageBackend::default())
    }

    /// A tracker over an empty history of the given backend kind.
    pub fn with_backend(kind: StorageBackend) -> Self {
        ActivityTracker {
            history: HistoryTable::new(kind),
            inline: [ActivityEvent::start(Timestamp(0)); INLINE],
            inline_len: 0,
            spilled: Vec::new(),
            duplicates_suppressed: 0,
        }
    }

    /// Capture a precise event timestamp (critical path: O(1), no index
    /// access).
    pub fn record(&mut self, ts: Timestamp, kind: EventKind) {
        let ev = ActivityEvent { ts, kind };
        match self.inline.get_mut(usize::from(self.inline_len)) {
            Some(slot) => {
                *slot = ev;
                self.inline_len += 1;
            }
            None => self.spilled.push(ev),
        }
    }

    /// Move buffered events into the history store (off the critical
    /// path).  Returns how many tuples were inserted; duplicates by
    /// timestamp are suppressed per Algorithm 2.
    pub fn flush(&mut self) -> usize {
        let mut inserted = 0;
        let inline = self.inline.into_iter().take(usize::from(self.inline_len));
        self.inline_len = 0;
        for ev in inline.chain(self.spilled.drain(..)) {
            if self.history.insert_event(ev) {
                inserted += 1;
            } else {
                self.duplicates_suppressed += 1;
            }
        }
        inserted
    }

    /// Events suppressed by the uniqueness guard so far.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    /// Read access to the (flushed) history.
    pub fn history(&self) -> &HistoryTable {
        &self.history
    }

    /// Mutable access to the history for maintenance (Algorithm 3 runs
    /// against the flushed store).
    pub fn history_mut(&mut self) -> &mut HistoryTable {
        &mut self.history
    }

    /// Replace the history wholesale (restore after a move, §3.3).
    /// Pending events recorded on this node are preserved and will flush
    /// into the restored store.
    pub fn replace_history(&mut self, history: HistoryTable) {
        self.history = history;
    }
}

impl Default for ActivityTracker {
    fn default() -> Self {
        ActivityTracker::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::HistoryRead;

    impl ActivityTracker {
        /// Number of events waiting to be flushed.
        pub(crate) fn pending_len(&self) -> usize {
            usize::from(self.inline_len) + self.spilled.len()
        }
    }

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn record_is_buffered_until_flush() {
        let mut tr = ActivityTracker::new();
        tr.record(t(10), EventKind::Start);
        tr.record(t(20), EventKind::End);
        assert_eq!(tr.pending_len(), 2);
        assert!(tr.history().is_empty());
        assert_eq!(tr.flush(), 2);
        assert_eq!(tr.pending_len(), 0);
        assert_eq!(tr.history().len(), 2);
    }

    #[test]
    fn events_beyond_the_inline_pair_spill_in_order() {
        let mut tr = ActivityTracker::new();
        // The third and fourth repeat the second's timestamp: only an
        // in-order flush keeps the End and suppresses the two Starts.
        tr.record(t(10), EventKind::Start);
        tr.record(t(20), EventKind::End);
        tr.record(t(20), EventKind::Start);
        tr.record(t(20), EventKind::Start);
        tr.record(t(30), EventKind::Start);
        assert_eq!(tr.pending_len(), 5);
        assert_eq!(tr.flush(), 3);
        assert_eq!(tr.duplicates_suppressed(), 2);
        assert_eq!(tr.pending_len(), 0);
        assert_eq!(
            tr.history().events(),
            vec![
                ActivityEvent::start(t(10)),
                ActivityEvent::end(t(20)),
                ActivityEvent::start(t(30)),
            ]
        );
        // The inline slots are free again after a flush.
        tr.record(t(40), EventKind::End);
        assert_eq!(tr.pending_len(), 1);
        assert_eq!(tr.flush(), 1);
        assert_eq!(tr.history().len(), 4);
    }

    #[test]
    fn duplicate_timestamps_are_suppressed() {
        let mut tr = ActivityTracker::new();
        tr.record(t(10), EventKind::Start);
        tr.record(t(10), EventKind::End); // same second: unique key wins
        assert_eq!(tr.flush(), 1);
        assert_eq!(tr.duplicates_suppressed(), 1);
        // Across flushes too.
        tr.record(t(10), EventKind::Start);
        assert_eq!(tr.flush(), 0);
        assert_eq!(tr.duplicates_suppressed(), 2);
    }

    #[test]
    fn replace_history_keeps_pending_events() {
        let mut tr = ActivityTracker::new();
        tr.record(t(5), EventKind::Start);
        tr.flush();
        tr.record(t(30), EventKind::End); // pending across the move
        let mut restored = HistoryTable::default();
        restored.insert_history(t(5), EventKind::Start);
        restored.insert_history(t(10), EventKind::End);
        tr.replace_history(restored);
        assert_eq!(tr.pending_len(), 1);
        tr.flush();
        assert_eq!(tr.history().len(), 3);
    }

    #[test]
    fn lsm_backed_tracker_behaves_identically() {
        let mut a = ActivityTracker::with_backend(StorageBackend::BTree);
        let mut b = ActivityTracker::with_backend(StorageBackend::Lsm);
        for tr in [&mut a, &mut b] {
            tr.record(t(10), EventKind::Start);
            tr.record(t(10), EventKind::End);
            tr.record(t(20), EventKind::End);
            tr.flush();
        }
        assert_eq!(a.history().events(), b.history().events());
        assert_eq!(a.history().version(), b.history().version());
        assert_eq!(a.duplicates_suppressed(), b.duplicates_suppressed());
    }
}
