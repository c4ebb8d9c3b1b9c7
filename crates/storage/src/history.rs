//! The per-database activity history table — `sys.pause_resume_history`.
//!
//! Schema (§5): `time_snapshot BIGINT` (unique, clustered B-tree index) and
//! `event_type INT` (1 = start of activity, 0 = end).  The two maintenance
//! procedures are transliterated here:
//!
//! * [`HistoryStore::insert_history`] — Algorithm 2: insert-if-not-exists;
//! * [`HistoryStore::delete_old_history`] — Algorithm 3: trim to the last
//!   `h` time units while *keeping the oldest tuple* so the database's
//!   lifespan remains computable, and report whether the database is "old"
//!   (existed for at least `h`).
//!
//! The table is its [`LiveView`]: the sorted tuple columns every
//! procedure's decision and every read (Algorithm 4 lines 19–24:
//! `MIN`/`MAX` of login timestamps within a window,
//! [`HistoryRead::login_window_stats`]) is made from, kept in clustered
//! key order, and written once per mutation.  Its physical form is the
//! 8-KiB page image a backup serialises it to; the clustered B-tree of §5
//! stays executable in `prorp-sqlmini`, which `tests/sql_vs_native.rs`
//! holds equal to this table row for row.
//!
//! # Prediction-index support
//!
//! The view's optional [`ClockIndex`] is defined here: the visible
//! logins as `(t mod period, t div period)` pairs in ascending order —
//! the order Algorithm 4's window meets them in — enabled with
//! [`HistoryStore::configure_slot_index`] and kept current by one binary
//! search per login insert and one pass per deleting trim.

use crate::backup::{backup_history, restore_history};
use crate::page::Record;
use crate::store::{HistoryRead, HistoryStore};
use crate::view::LiveView;
use prorp_types::{EventKind, Seconds, Timestamp};

/// The visible logins in *seasonal-clock order*: one
/// `(t mod period, t div period)` entry per login timestamp `t`, sorted
/// ascending, so 16 B per login.
///
/// Algorithm 4 compares the same clock window against every previous
/// period, and whether the row `prev` periods back sees login `t` at a
/// window position depends only on `d = t − now + period·prev`, whose
/// residue `d mod period` is `(t mod period) − (now mod period)`.
/// Walking the entries in this order, circularly from `now`'s clock
/// offset, therefore yields every (login, row) pair in ascending `d` —
/// the one sequence `IncrementalPredictor` slides its window over.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClockIndex {
    /// Seasonal period in seconds (positive).
    period: i64,
    /// `(t mod period, t div period)` per visible login, ascending.
    entries: Vec<(i64, i64)>,
}

impl ClockIndex {
    /// The index over a login cache; `None` when `period` is degenerate.
    pub(crate) fn rebuilt(period: Seconds, logins: &[i64]) -> Option<ClockIndex> {
        let period = period.as_secs();
        if period <= 0 {
            return None;
        }
        let mut entries: Vec<_> = logins.iter().map(|&t| Self::entry(period, t)).collect();
        entries.sort_unstable();
        Some(ClockIndex { period, entries })
    }

    /// Where login `t` sits on a clock of `period` seconds: its offset
    /// into the period and the period's ordinal (both euclidean, so
    /// `t = ordinal · period + offset` with `0 <= offset < period` for
    /// negative timestamps too).
    pub fn entry(period: i64, t: i64) -> (i64, i64) {
        (t.rem_euclid(period), t.div_euclid(period))
    }

    /// The seasonal period this index is ordered over.
    pub fn period(&self) -> Seconds {
        Seconds(self.period)
    }

    /// The entries, ascending; one per visible login.
    pub fn entries(&self) -> &[(i64, i64)] {
        &self.entries
    }

    pub(crate) fn add(&mut self, t: i64) {
        let entry = Self::entry(self.period, t);
        let at = self.entries.partition_point(|&e| e < entry);
        self.entries.insert(at, entry);
    }

    /// Drop every login strictly between `lo` and `hi` (Algorithm 3's
    /// doomed range).
    pub(crate) fn remove_between(&mut self, lo: i64, hi: i64) {
        let period = self.period;
        self.entries.retain(|&(offset, ordinal)| {
            let t = ordinal * period + offset;
            t <= lo || hi <= t
        });
    }
}

/// Result of one [`HistoryStore::delete_old_history`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DeleteOutcome {
    /// Whether the database existed before the start of recent history —
    /// the `@old` output parameter of Algorithm 3 that gates reliable
    /// prediction in Algorithm 1 (lines 10, 19, 26).
    pub old: bool,
    /// Number of tuples permanently deleted.
    pub deleted: usize,
}

/// Storage-overhead figures for one history table (Figure 10a–b).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StorageStats {
    /// Number of tuples currently stored.
    pub tuples: usize,
    /// Logical size: tuples × 16 bytes (two 64-bit integers, §9.3).
    pub logical_bytes: usize,
    /// Physical size when serialised to 8-KiB slotted pages.
    pub page_bytes: usize,
    /// Number of pages the table serialises to.
    pub pages: usize,
}

/// The `sys.pause_resume_history` table of one database: the
/// [`LiveView`] every read is served from and every mutation is written
/// to, once.  Its physical form is the page image
/// [`backup_history`] encodes, which
/// [`check_invariants`](HistoryStore::check_invariants) audits the view
/// against.
#[derive(Clone, Debug, Default)]
pub struct HistoryTable {
    view: LiveView,
}

impl HistoryTable {
    /// An empty history.
    pub fn new() -> Self {
        HistoryTable::default()
    }

    /// Rebuild from page records (backup restore path).
    pub(crate) fn from_records(records: &[Record]) -> Result<Self, prorp_types::ProrpError> {
        Ok(HistoryTable {
            view: LiveView::from_records(records)?,
        })
    }
}

impl HistoryRead for HistoryTable {
    fn view(&self) -> &LiveView {
        &self.view
    }
}

impl HistoryStore for HistoryTable {
    /// Algorithm 2 — `sys.InsertHistory(@time, @type)`.
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        self.view.insert(ts, kind)
    }

    /// Algorithm 3 — `sys.DeleteOldHistory(@h, @now, @old OUTPUT)`.
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        self.view.trim(h, now).0
    }

    fn configure_slot_index(&mut self, period: Seconds, _slot_len: Seconds) {
        self.view.configure_clock_index(period);
    }

    /// Round-trip the view through its checksummed 8-KiB page image
    /// (encode, decode, strictly-ascending restore) and audit the view
    /// against what comes back: columns, login cache and clock index.
    fn check_invariants(&self) {
        let stream = backup_history(self).expect("a sorted view always encodes");
        let image = restore_history(&stream).expect("a fresh page image always restores");
        self.view.audit(
            image
                .events()
                .into_iter()
                .map(|e| (e.ts.as_secs(), i64::from(e.kind.as_i32()))),
            "the page image",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page;
    use prorp_types::ActivityEvent;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn insert_is_idempotent_per_timestamp() {
        let mut h = HistoryTable::new();
        assert!(h.insert_history(t(100), EventKind::Start));
        assert!(!h.insert_history(t(100), EventKind::End));
        assert_eq!(h.len(), 1);
        // The original event type wins (IF NOT EXISTS semantics).
        assert_eq!(h.events()[0].kind, EventKind::Start);
    }

    #[test]
    fn delete_old_history_keeps_oldest_tuple() {
        let mut h = HistoryTable::new();
        // Events at days 0, 1, 2, ..., 40 (start events).
        for d in 0..=40 {
            h.insert_history(t(d * 86_400), EventKind::Start);
        }
        let now = t(40 * 86_400);
        let outcome = h.delete_old_history(Seconds::days(28), now);
        assert!(outcome.old);
        // historyStart = day 12. Tuples strictly between day 0 and day 12
        // are deleted: days 1..=11 → 11 tuples.
        assert_eq!(outcome.deleted, 11);
        assert_eq!(h.min_timestamp(), Some(t(0)), "oldest tuple preserved");
        assert!(h.any_event_in(t(12 * 86_400), now));
        assert!(!h.any_event_in(t(1), t(12 * 86_400 - 1)));
    }

    #[test]
    fn young_database_is_not_old() {
        let mut h = HistoryTable::new();
        h.insert_history(t(1_000), EventKind::Start);
        let outcome = h.delete_old_history(Seconds::days(28), t(2_000));
        assert!(!outcome.old);
        assert_eq!(outcome.deleted, 0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn delete_on_empty_history_is_noop() {
        let mut h = HistoryTable::new();
        let outcome = h.delete_old_history(Seconds::days(28), t(1_000_000));
        assert_eq!(
            outcome,
            DeleteOutcome {
                old: false,
                deleted: 0
            }
        );
    }

    #[test]
    fn boundary_tuple_at_history_start_survives() {
        let mut h = HistoryTable::new();
        let now = t(100_000);
        let hist = Seconds(10_000);
        let start = (now - hist).as_secs(); // 90_000
        h.insert_history(t(50_000), EventKind::Start); // oldest, kept
        h.insert_history(t(start), EventKind::Start); // exactly at boundary
        h.insert_history(t(95_000), EventKind::End);
        let outcome = h.delete_old_history(hist, now);
        assert!(outcome.old);
        assert_eq!(outcome.deleted, 0, "boundary tuple is not strictly inside");
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn events_view_is_ordered_and_typed() {
        let mut h = HistoryTable::new();
        h.insert_history(t(30), EventKind::End);
        h.insert_history(t(10), EventKind::Start);
        let evs = h.events();
        assert_eq!(
            evs,
            vec![ActivityEvent::start(t(10)), ActivityEvent::end(t(30))]
        );
    }

    #[test]
    fn version_bumps_only_on_content_change() {
        let mut h = HistoryTable::new();
        assert_eq!(h.version(), 0);
        h.insert_history(t(100), EventKind::Start);
        assert_eq!(h.version(), 1);
        h.insert_history(t(100), EventKind::End); // duplicate: no change
        assert_eq!(h.version(), 1);
        h.insert_history(t(200_000), EventKind::End);
        assert_eq!(h.version(), 2);
        // Trim that deletes nothing (boundary tuple kept) must not bump.
        h.delete_old_history(Seconds(150_000), t(250_000));
        assert_eq!(h.version(), 2);
        h.insert_history(t(150), EventKind::Start);
        assert_eq!(h.version(), 3);
        let outcome = h.delete_old_history(Seconds(10_000), t(200_000));
        assert_eq!(outcome.deleted, 1);
        assert_eq!(h.version(), 4);
    }

    #[test]
    fn login_cache_tracks_out_of_order_inserts_and_trims() {
        let mut h = HistoryTable::new();
        h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        for &ts in &[500, 100, 300, 200, 400] {
            h.insert_history(t(ts), EventKind::Start);
            h.insert_history(t(ts + 50), EventKind::End);
        }
        assert_eq!(h.logins(), &[100, 200, 300, 400, 500]);
        h.check_invariants();
        // Trim to the last 150 s: keeps the oldest tuple (100) and
        // everything >= 350.
        let outcome = h.delete_old_history(Seconds(150), t(500));
        assert!(outcome.old);
        assert_eq!(h.logins(), &[100, 400, 500]);
        h.check_invariants();
        assert_eq!(h.clock_index().unwrap().entries().len(), 3);
    }

    #[test]
    fn clock_index_orders_logins_by_offset_then_period() {
        let mut h = HistoryTable::new();
        h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        // 09:00 on three days, one 23:59 login, one before the epoch
        // (euclidean: −60 s is 23:59 of period −1), and a logout the
        // index must not see.
        for d in [2, 0, 1] {
            h.insert_history(t(d * 86_400 + 9 * 3_600), EventKind::Start);
        }
        h.insert_history(t(86_400 - 60), EventKind::Start);
        h.insert_history(t(-60), EventKind::Start);
        h.insert_history(t(10 * 3_600), EventKind::End);
        let ix = h.clock_index().unwrap();
        assert_eq!(ix.period(), Seconds::days(1));
        assert_eq!(
            ix.entries(),
            &[
                (9 * 3_600, 0),
                (9 * 3_600, 1),
                (9 * 3_600, 2),
                (86_340, -1),
                (86_340, 0)
            ]
        );
        h.check_invariants();
        // A trim keeps the oldest tuple and drops only what lies
        // strictly inside the doomed range.
        h.delete_old_history(Seconds::days(1), t(2 * 86_400 + 9 * 3_600));
        let ix = h.clock_index().unwrap();
        assert_eq!(
            ix.entries(),
            &[(9 * 3_600, 1), (9 * 3_600, 2), (86_340, -1)]
        );
        h.check_invariants();
        // A degenerate period disables the index.
        h.configure_slot_index(Seconds::ZERO, Seconds::minutes(5));
        assert!(h.clock_index().is_none());
    }

    #[test]
    fn restored_table_rebuilds_login_cache_without_slot_index() {
        let mut h = HistoryTable::new();
        h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        for d in 0..4 {
            h.insert_history(t(d * 86_400 + 100), EventKind::Start);
            h.insert_history(t(d * 86_400 + 200), EventKind::End);
        }
        let records: Vec<Record> = h
            .events()
            .iter()
            .map(|e| Record {
                key: e.ts.as_secs(),
                value: i64::from(e.kind.as_i32()),
            })
            .collect();
        let restored = HistoryTable::from_records(&records).unwrap();
        assert_eq!(restored.logins(), h.logins());
        assert_eq!(restored.version(), 0);
        assert!(restored.clock_index().is_none());
        restored.check_invariants();
        let mut reconfigured = restored;
        reconfigured.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        assert_eq!(reconfigured.clock_index(), h.clock_index());
        reconfigured.check_invariants();
    }

    #[test]
    fn stats_match_paper_arithmetic() {
        let mut h = HistoryTable::new();
        for i in 0..500 {
            h.insert_history(t(i * 60), EventKind::Start);
        }
        let s = h.stats();
        assert_eq!(s.tuples, 500);
        // 500 tuples × 16 B = 8 000 B ≈ the "within 7 KB on average" of
        // Figure 10b for ~450-tuple histories.
        assert_eq!(s.logical_bytes, 8_000);
        assert_eq!(s.pages, 2);
        assert_eq!(s.page_bytes, 2 * page::PAGE_SIZE);
    }
}
