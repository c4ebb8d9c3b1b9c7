//! The history store's trait seam and its one knob.
//!
//! The table's surface is split into two traits, each implemented by
//! [`HistoryTable`] alone:
//!
//! * [`HistoryRead`] — the object-safe read surface Algorithm 4 and the
//!   incremental prediction index consume (window aggregates, the
//!   optional clock-ordered login index, the mutation version).  An
//!   implementor only says where its [`LiveView`] is; every read is a
//!   provided delegate to that one layer, and a read the trait does not
//!   delegate — the login rows as an iterator, [`LiveView::logins`] —
//!   is asked of the view itself.
//! * [`HistoryStore`] — the mutation surface of Algorithms 2 and 3 plus
//!   the clock-index and invariant hooks the engines call.
//!
//! Predictors take `&dyn HistoryRead`, so one compiled predictor body
//! reads a live table and a time-travel snapshot alike.
//! [`StorageBackend`] says whether a fleet's tables keep their mutation
//! log ([`StorageBackend::Lsm`]) beside the view; a table behaves the
//! same either way — same insert/trim outcomes, same window aggregates,
//! same mutation version after every call — which the testkit's
//! `storage_conformance` differential oracles enforce.
//!
//! The rest of this module is what the benchmark (`crates/ledger`) still
//! names and ROADMAP item 2's façade PR deletes: the [`HistoryBackend`]
//! alias and the inert [`CompactionMode`] / [`CompactionScheduler`]
//! with the table's no-op attach and detach.

use crate::history::{ClockIndex, DeleteOutcome, HistoryTable, StorageStats};
use crate::view::LiveView;
use prorp_types::{ActivityEvent, EventKind, Seconds, Timestamp};

/// Read surface of a history store — everything Algorithm 4, the
/// incremental prediction index, and the backup path consume.
///
/// The trait is object-safe on purpose: predictors take
/// `&dyn HistoryRead`, so one compiled predictor body serves the live
/// table and a frozen snapshot alike.
pub trait HistoryRead {
    /// The store's visible tuple set — the single read layer every
    /// method below delegates to.
    fn view(&self) -> &LiveView;

    /// Storage-overhead statistics (Figure 10a–b) of the visible set.
    fn stats(&self) -> StorageStats {
        self.view().stats()
    }

    /// `MIN`, `MAX` *and* `COUNT` of login (`event_type = 1`) timestamps
    /// inside the closed window `[lo, hi]` (Algorithm 4 lines 19–24);
    /// `None` when no login falls inside.
    fn login_window_stats(
        &self,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Option<(Timestamp, Timestamp, i64)> {
        self.view().login_window_stats(lo, hi)
    }

    /// Whether any event (login *or* logout) falls inside `[lo, hi]`.
    fn any_event_in(&self, lo: Timestamp, hi: Timestamp) -> bool {
        self.view().any_event_in(lo, hi)
    }

    /// Oldest stored timestamp — the database's observable lifespan start.
    fn min_timestamp(&self) -> Option<Timestamp> {
        self.view().min_timestamp()
    }

    /// Newest stored timestamp.
    fn max_timestamp(&self) -> Option<Timestamp> {
        self.view().max_timestamp()
    }

    /// Number of tuples currently visible.
    fn len(&self) -> usize {
        self.view().len()
    }

    /// Whether the store holds no visible tuples.
    fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// Monotonically increasing mutation version: bumped on every insert
    /// that stored a tuple and every trim that deleted at least one.
    fn version(&self) -> u64 {
        self.view().version()
    }

    /// The clock-ordered login index, when one has been configured.
    fn clock_index(&self) -> Option<&ClockIndex> {
        self.view().clock_index()
    }

    /// All visible events in timestamp order.
    fn events(&self) -> Vec<ActivityEvent> {
        self.view().events()
    }
}

/// Mutation surface of a history store — Algorithms 2 and 3 plus the
/// engine hooks (clock-index configuration, invariant audit).
pub trait HistoryStore: HistoryRead {
    /// Algorithm 2 — insert-if-not-exists.  Returns `true` when a tuple
    /// was stored.
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool;

    /// Convenience wrapper over
    /// [`insert_history`](HistoryStore::insert_history).
    fn insert_event(&mut self, ev: ActivityEvent) -> bool {
        self.insert_history(ev.ts, ev.kind)
    }

    /// Algorithm 3 — trim to the last `h` time units, keeping the oldest
    /// tuple, and report whether the database is "old".
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome;

    /// (Re)build the [`ClockIndex`] over seasonal `period`; a
    /// non-positive period disables it.  The name and the unused second
    /// argument date from the slot-occupancy bitmap this index replaced
    /// and are kept because the benchmark (`crates/ledger`) calls it.
    fn configure_slot_index(&mut self, period: Seconds, slot_len: Seconds);

    /// Audit the store's structural invariants, panicking with a
    /// description on violation (the simulator's end-of-run audit in
    /// debug builds, and property tests).
    fn check_invariants(&self);
}

/// Whether a fleet's history tables keep their mutation log — the
/// `SimConfig::builder().storage_backend(..)` knob.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum StorageBackend {
    /// The §5 table as its sorted view alone, backed up as its page
    /// image (the default).  The name (and the `"btree"` label)
    /// predates the table dropping its B+Tree copy; the benchmark
    /// (`crates/ledger`) names the variant.
    #[default]
    BTree,
    /// The same table keeping the append-only log of every mutation
    /// beside its view ([`crate::MutationLog`]): exact snapshots at any
    /// past seqno and a write-ahead-log image since any checkpoint.
    Lsm,
}

impl StorageBackend {
    /// Stable lowercase label for experiment tables and JSON output.
    pub const fn label(self) -> &'static str {
        match self {
            StorageBackend::BTree => "btree",
            StorageBackend::Lsm => "lsm",
        }
    }
}

/// The history store's former enum name, kept as an alias because the
/// benchmark (`crates/ledger`) builds one with `HistoryBackend::new`;
/// ROADMAP item 2's façade PR deletes it.  In-tree code names
/// [`HistoryTable`].
pub type HistoryBackend = HistoryTable;

/// The `SimConfig::compaction_mode` selector, kept only because the
/// benchmark (`crates/ledger`) names it; ROADMAP item 2's façade PR
/// deletes it.  Nothing compacts and nothing reads the value, so the
/// two are indistinguishable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CompactionMode {
    /// The default.
    #[default]
    Deterministic,
    /// The selector the benchmark's sharded cell names.
    Background,
}

/// A compaction scheduler that holds no thread, kept only because the
/// benchmark (`crates/ledger`) builds one and attaches stores to it
/// (ROADMAP item 2 deletes it).  Attaching a store changes nothing.
#[derive(Debug, Default)]
pub struct CompactionScheduler;

impl CompactionScheduler {
    /// A scheduler; there is nothing to start.
    pub fn new() -> Self {
        CompactionScheduler
    }
}

impl HistoryTable {
    /// A no-op kept for the benchmark (`crates/ledger`) until ROADMAP
    /// item 2 deletes it: a table never compacts.
    pub fn attach_compaction(&mut self, _sched: &CompactionScheduler) {}

    /// A no-op kept for the benchmark (`crates/ledger`) until ROADMAP
    /// item 2 deletes it: there is no worker to wait for.
    pub fn detach_compaction(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{WalRecord, WriteAheadLog};

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn default_backend_is_the_btree() {
        assert!(HistoryTable::default().log().is_none());
        assert_eq!(StorageBackend::default(), StorageBackend::BTree);
        assert_eq!(StorageBackend::BTree.label(), "btree");
        assert_eq!(StorageBackend::Lsm.label(), "lsm");
    }

    #[test]
    fn per_database_footprint_stays_small() {
        // One of these sits in the arena per database, log or no log:
        // the view inline (its row column, the optional clock index and
        // the version) and the log behind one pointer.  It was 96 B
        // while the view kept a login column beside its rows; a second
        // per-row structure beside the view fails it.
        assert_eq!(std::mem::size_of::<HistoryTable>(), 72);
    }

    #[test]
    fn trait_objects_dispatch_through_the_enum() {
        let mut b = HistoryTable::new(StorageBackend::Lsm);
        {
            let store: &mut dyn HistoryStore = &mut b;
            store.insert_event(ActivityEvent::start(t(10)));
            store.insert_event(ActivityEvent::end(t(20)));
        }
        let read: &dyn HistoryRead = &b;
        assert_eq!(read.len(), 2);
        assert!(!read.is_empty());
        assert!(read.view().logins().eq([10]));
    }

    #[test]
    fn an_attached_lsm_store_equals_a_never_attached_twin() {
        // `inserts` logins a minute apart; with `trim_every`, a retention
        // pass after every that-many inserts, so the log holds range
        // deletes.  A short history and a long one, with and without
        // trims; the detached store and a clone taken while attached.
        let mutate = |h: &mut HistoryTable, inserts: i64, trim_every: Option<i64>| {
            for i in 0..inserts {
                h.insert_history(t(i * 60), EventKind::Start);
                if trim_every.is_some_and(|n| (i + 1) % n == 0) {
                    h.delete_old_history(Seconds(150), t(i * 60));
                }
            }
        };
        for inserts in [7, 160] {
            for trim_every in [None, Some(3), Some(5)] {
                let case = format!("{inserts} inserts, trims {trim_every:?}");
                let sched = CompactionScheduler::new();
                let mut attached = HistoryTable::new(StorageBackend::Lsm);
                attached.attach_compaction(&sched);
                mutate(&mut attached, inserts, trim_every);
                let clone = attached.clone();
                attached.detach_compaction();
                let mut twin = HistoryTable::new(StorageBackend::Lsm);
                mutate(&mut twin, inserts, trim_every);

                let want = twin.log().expect("the twin keeps its log");
                for (who, h) in [("detached", &attached), ("clone", &clone)] {
                    let got = h.log().expect("attaching keeps the log");
                    assert_eq!(h.events(), twin.events(), "{case}: {who}");
                    assert_eq!(h.stats(), twin.stats(), "{case}: {who}");
                    assert_eq!(h.version(), twin.version(), "{case}: {who}");
                    assert_eq!(got.wal_image(0), want.wal_image(0), "{case}: {who}");
                    for seqno in 0..=h.version() {
                        let (a, b) = (got.snapshot(seqno), want.snapshot(seqno));
                        assert_eq!(a.events(), b.events(), "{case}: {who} at {seqno}");
                        assert_eq!(a.version(), seqno, "{case}: {who} at {seqno}");
                    }
                    h.check_invariants();
                }
                let logged = WriteAheadLog::decode(&want.wal_image(0)).unwrap();
                let ranges = logged
                    .iter()
                    .filter(|r| matches!(r, WalRecord::DeleteRange { .. }))
                    .count();
                assert_eq!(
                    ranges > 0,
                    trim_every.is_some(),
                    "{case}: the trims deleted"
                );
            }
        }
    }
}
