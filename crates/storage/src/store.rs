//! The storage-engine trait seam and backend dispatch.
//!
//! Until this module existed, `HistoryTable` was a concrete struct wired
//! directly into the policy engines, the predictors, and the simulator
//! arena — no alternative history backend could exist.  The seam splits
//! the table's surface into two traits:
//!
//! * [`HistoryRead`] — the object-safe read surface Algorithm 4 and the
//!   incremental prediction index consume (window aggregates, the sorted
//!   login cache, the optional clock-ordered login index, the mutation
//!   version).  An implementor only says where its [`LiveView`] is; every
//!   read is a provided delegate to that one layer.  Frozen views such
//!   as [`crate::lsm::LsmSnapshot`] implement only this half.
//! * [`HistoryStore`] — the mutation surface of Algorithms 2 and 3 plus
//!   the clock-index and invariant hooks the engines call.
//!
//! [`HistoryBackend`] is the enum-dispatch wrapper the engines actually
//! store: one variant per backend, so per-database state stays `Clone`
//! and allocation-free to switch on, and the simulator can flip the
//! whole fleet between the §5 table and the LSM engine with one
//! [`StorageBackend`] knob.  Both backends promise *bit-identical
//! observable behaviour* — same insert/trim outcomes, same window
//! aggregates, same mutation version after every call — which the
//! testkit's `storage_conformance` differential oracles enforce.

use crate::history::{ClockIndex, DeleteOutcome, HistoryTable, StorageStats};
use crate::lsm::{CompactionScheduler, LsmHistory};
use crate::view::LiveView;
use prorp_types::{ActivityEvent, EventKind, Seconds, Timestamp};

/// Read surface of a history store — everything Algorithm 4, the
/// incremental prediction index, and the backup path consume.
///
/// The trait is object-safe on purpose: predictors take
/// `&dyn HistoryRead`, so one compiled predictor body serves the live
/// §5 table, the live LSM store, and a frozen LSM snapshot alike.
pub trait HistoryRead {
    /// The store's visible tuple set — the single read layer every
    /// method below delegates to.
    fn view(&self) -> &LiveView;

    /// Storage-overhead statistics (Figure 10a–b) of the visible set,
    /// identical across backends.
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

    /// The sorted login (`event_type = 1`) timestamps — what the
    /// incremental predictor sorts into clock order itself when no
    /// matching [`clock_index`](HistoryRead::clock_index) is configured.
    fn logins(&self) -> &[i64] {
        self.view().logins()
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
    /// description on violation (strict-invariants builds and property
    /// tests).
    fn check_invariants(&self);
}

/// Which history storage engine a fleet runs on — the
/// `SimConfig::builder().storage_backend(..)` knob.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum StorageBackend {
    /// The §5 table ([`HistoryTable`], the default) held as its sorted
    /// view and backed up as its page image.  The name (and the
    /// `"btree"` label) predates the table dropping its B+Tree copy;
    /// the benchmark (`crates/ledger`) names the variant.
    #[default]
    BTree,
    /// The LSM/MVCC engine with snapshot time-travel
    /// ([`crate::lsm::LsmHistory`]).
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

/// Enum-dispatch wrapper over the concrete history backends.
///
/// The policy engines store one of these per database: static dispatch
/// (no boxed trait objects in the million-database arena) and `Clone`
/// for the rebalance/backup paths.  The whole surface lives on the
/// [`HistoryRead`] + [`HistoryStore`] trait impls — import the traits
/// to call it.  Every database pays the larger variant's footprint
/// whichever backend the fleet runs, so both variants keep only the
/// hot [`LiveView`] inline (reads never chase a pointer to reach it)
/// and the LSM boxes its cold mutation log.
#[derive(Clone, Debug)]
pub enum HistoryBackend {
    /// The §5 [`HistoryTable`] (the default): its view and nothing else.
    BTree(HistoryTable),
    /// LSM/MVCC [`LsmHistory`] with snapshot time-travel.
    Lsm(LsmHistory),
}

impl Default for HistoryBackend {
    fn default() -> Self {
        HistoryBackend::BTree(HistoryTable::new())
    }
}

macro_rules! dispatch {
    ($self:ident, $table:ident => $body:expr) => {
        match $self {
            HistoryBackend::BTree($table) => $body,
            HistoryBackend::Lsm($table) => $body,
        }
    };
}

impl HistoryBackend {
    /// An empty store of the given backend kind.
    pub fn new(kind: StorageBackend) -> Self {
        match kind {
            StorageBackend::BTree => HistoryBackend::BTree(HistoryTable::new()),
            StorageBackend::Lsm => HistoryBackend::Lsm(LsmHistory::new()),
        }
    }

    /// Which backend this store runs on.
    pub fn kind(&self) -> StorageBackend {
        match self {
            HistoryBackend::BTree(_) => StorageBackend::BTree,
            HistoryBackend::Lsm(_) => StorageBackend::Lsm,
        }
    }

    /// A no-op kept for the benchmark (`crates/ledger`) until ROADMAP
    /// item 2 deletes it: neither backend compacts.
    pub fn attach_compaction(&mut self, _sched: &CompactionScheduler) {}

    /// A no-op kept for the benchmark (`crates/ledger`) until ROADMAP
    /// item 2 deletes it: there is no worker to wait for.
    pub fn detach_compaction(&mut self) {}
}

impl HistoryRead for HistoryBackend {
    fn view(&self) -> &LiveView {
        dispatch!(self, t => t.view())
    }
}

impl HistoryStore for HistoryBackend {
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        dispatch!(self, t => t.insert_history(ts, kind))
    }
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        dispatch!(self, t => t.delete_old_history(h, now))
    }
    fn configure_slot_index(&mut self, period: Seconds, slot_len: Seconds) {
        dispatch!(self, t => t.configure_slot_index(period, slot_len))
    }
    fn check_invariants(&self) {
        dispatch!(self, t => t.check_invariants())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn default_backend_is_the_btree() {
        assert_eq!(HistoryBackend::default().kind(), StorageBackend::BTree);
        assert_eq!(StorageBackend::default(), StorageBackend::BTree);
        assert_eq!(StorageBackend::BTree.label(), "btree");
        assert_eq!(StorageBackend::Lsm.label(), "lsm");
    }

    #[test]
    fn per_database_footprint_stays_small() {
        // One of these sits in the arena per database on either backend:
        // 120 B, the view inline.  A second per-row structure beside the
        // view crosses the bound.
        assert!(std::mem::size_of::<HistoryBackend>() <= 128);
    }

    #[test]
    fn trait_objects_dispatch_through_the_enum() {
        let mut b = HistoryBackend::new(StorageBackend::Lsm);
        {
            let store: &mut dyn HistoryStore = &mut b;
            store.insert_event(ActivityEvent::start(t(10)));
            store.insert_event(ActivityEvent::end(t(20)));
        }
        let read: &dyn HistoryRead = &b;
        assert_eq!(read.len(), 2);
        assert!(!read.is_empty());
        assert_eq!(read.logins(), &[10]);
    }

    #[test]
    fn an_attached_lsm_store_equals_a_never_attached_twin() {
        use crate::lsm::TimeTravel;
        // Logins a minute apart, with a retention pass every fifth insert
        // so the log holds range deletes.
        let mutate = |h: &mut HistoryBackend| {
            for i in 0..160 {
                h.insert_history(t(i * 60), EventKind::Start);
                if (i + 1) % 5 == 0 {
                    h.delete_old_history(Seconds(150), t(i * 60));
                }
            }
        };
        let sched = CompactionScheduler::new();
        let mut attached = HistoryBackend::new(StorageBackend::Lsm);
        attached.attach_compaction(&sched);
        mutate(&mut attached);
        attached.detach_compaction();
        let mut twin = HistoryBackend::new(StorageBackend::Lsm);
        mutate(&mut twin);

        let (HistoryBackend::Lsm(a), HistoryBackend::Lsm(b)) = (&attached, &twin) else {
            unreachable!("both stores were built on the LSM backend");
        };
        assert_eq!(a.events(), b.events());
        assert_eq!(a.version(), b.version());
        assert_eq!(a.metrics(), b.metrics());
        assert!(a.metrics().range_tombstones > 0, "the trims deleted");
        for seqno in 0..=a.version() {
            assert_eq!(a.snapshot(seqno), b.snapshot(seqno), "seqno {seqno}");
        }
        attached.check_invariants();
    }
}
