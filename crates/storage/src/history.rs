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
//! A table built with [`StorageBackend::Lsm`] also keeps its
//! [`MutationLog`]: after the view takes a mutation, the log takes one
//! record for it.  That log is the table's time travel
//! ([`HistoryTable::log`]) and its write-ahead log since any checkpoint
//! ([`HistoryTable::recover`]); without it the table behaves the same
//! and has no time-travel API at all.
//!
//! # Prediction-index support
//!
//! The view's optional [`ClockIndex`] is defined here: the visible
//! logins as `(t mod period, t div period)` pairs in ascending order —
//! the order Algorithm 4's window meets them in — enabled with
//! [`HistoryStore::configure_slot_index`] and kept current by one binary
//! search per login insert and one pass per deleting trim.

use crate::backup::{backup_history, restore_backend, restore_history};
use crate::page::Record;
use crate::store::{HistoryRead, HistoryStore, StorageBackend};
use crate::view::LiveView;
use crate::wal::{MutationLog, WalRecord, WriteAheadLog};
use prorp_types::{EventKind, ProrpError, Seconds, Timestamp};
use std::collections::BTreeMap;

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
/// to first, and — when built with [`StorageBackend::Lsm`] — the
/// [`MutationLog`] that then takes one record per mutation.  Its
/// physical form is the page image [`backup_history`] encodes, which
/// [`check_invariants`](HistoryStore::check_invariants) audits the view
/// against; a table with a log is also audited against the log replayed.
#[derive(Clone, Debug, Default)]
pub struct HistoryTable {
    view: LiveView,
    /// Boxed and cold: the read path never touches it, and a log-off
    /// table pays one pointer for it.
    log: Option<Box<MutationLog>>,
}

impl HistoryTable {
    /// An empty history; [`StorageBackend::Lsm`] keeps its mutation log.
    /// [`HistoryTable::default`] is the log-off table.
    pub fn new(kind: StorageBackend) -> Self {
        HistoryTable {
            view: LiveView::default(),
            log: (kind == StorageBackend::Lsm).then(Box::default),
        }
    }

    /// The mutation log — time travel and the write-ahead-log image —
    /// when this table keeps one.
    pub fn log(&self) -> Option<&MutationLog> {
        self.log.as_deref()
    }

    /// Rebuild from page records (backup restore path): version 0, no
    /// clock index, and, with a log, the records as its base at seqno 0.
    pub(crate) fn from_records(
        records: &[Record],
        kind: StorageBackend,
    ) -> Result<Self, ProrpError> {
        Ok(HistoryTable {
            view: LiveView::from_records(records)?,
            log: (kind == StorageBackend::Lsm)
                .then(|| Box::new(MutationLog::restored(records.to_vec()))),
        })
    }

    /// A log-off table over a replayed `key → event_type` set at `version`.
    pub(crate) fn replayed(visible: BTreeMap<i64, i64>, version: u64) -> Self {
        let (keys, vals) = visible.into_iter().unzip();
        HistoryTable {
            view: LiveView::from_sorted(keys, vals, version),
            log: None,
        }
    }

    /// Crash recovery: restore `backup` and replay `wal_image` — the
    /// [`MutationLog::wal_image`] since the seqno the backup was taken
    /// at — over it, through the replay snapshots use.  The backup is
    /// seqno 0 of the result, so a recovery at `s + n` whole records is
    /// the table's snapshot at `s + n` with version `n`; a torn final
    /// record is dropped, a corrupt one mid-image is an error.  The image
    /// carries no apply instant, so on the recovered log's time-travel
    /// timeline an insert sits at its key and a trim at its history
    /// start.
    ///
    /// # Errors
    ///
    /// Returns [`ProrpError::Storage`] for a malformed backup or WAL
    /// image, and an event-type error for an insert record whose type is
    /// neither 0 nor 1.
    pub fn recover(
        backup: &[u8],
        wal_image: &[u8],
        kind: StorageBackend,
    ) -> Result<Self, ProrpError> {
        let Some(mut log) = restore_backend(backup, StorageBackend::Lsm)?.log else {
            unreachable!("a restore with a log keeps one");
        };
        for mutation in WriteAheadLog::decode(wal_image)? {
            let applied_at = match mutation {
                WalRecord::Insert { ts, event_type } => {
                    EventKind::from_i32(event_type as i32)?;
                    ts
                }
                WalRecord::DeleteRange { history_start, .. } => history_start,
            };
            log.push(applied_at, mutation);
        }
        let table = log.snapshot(u64::MAX);
        Ok(HistoryTable {
            log: (kind == StorageBackend::Lsm).then_some(log),
            ..table
        })
    }
}

impl HistoryRead for HistoryTable {
    fn view(&self) -> &LiveView {
        &self.view
    }
}

impl HistoryStore for HistoryTable {
    /// Algorithm 2 — `sys.InsertHistory(@time, @type)`: once the view's
    /// `IF NOT EXISTS` probe passes, one log record at the new seqno.
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        if !self.view.insert(ts, kind) {
            return false;
        }
        if let Some(log) = self.log.as_mut() {
            let key = ts.as_secs();
            let event_type = i64::from(kind.as_i32());
            log.push(
                key,
                WalRecord::Insert {
                    ts: key,
                    event_type,
                },
            );
        }
        true
    }

    /// Algorithm 3 — `sys.DeleteOldHistory(@h, @now, @old OUTPUT)`: with
    /// a log, one range-delete record over the doomed range the view
    /// computed, however many tuples it covers.
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        let (outcome, doomed) = self.view.trim(h, now);
        if let (Some(log), Some((min, history_start))) = (self.log.as_mut(), doomed) {
            log.push(now.as_secs(), WalRecord::DeleteRange { min, history_start });
        }
        outcome
    }

    fn configure_slot_index(&mut self, period: Seconds, _slot_len: Seconds) {
        self.view.configure_clock_index(period);
    }

    /// Round-trip the view through its checksummed 8-KiB page image
    /// (encode, decode, strictly-ascending restore) and audit the view
    /// against what comes back: columns, login cache and clock index.
    /// With a log, also check it is time-ascending and ends at the
    /// view's version, and audit the view against the whole log
    /// replayed into a plain `BTreeMap` — a reference that shares none
    /// of the view's mutation code.
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
        if let Some(log) = &self.log {
            let version = self.view.version();
            log.check_invariants(version);
            self.view
                .audit(log.replay(version).into_iter(), "the replayed log");
        }
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

    const DAY: i64 = 86_400;

    /// Both forms of the table: the view alone, and the view keeping
    /// its mutation log — every test below that takes a `kind` must
    /// read the same on each.
    const KINDS: [StorageBackend; 2] = [StorageBackend::BTree, StorageBackend::Lsm];

    #[test]
    fn insert_is_idempotent_per_timestamp() {
        for kind in KINDS {
            let mut h = HistoryTable::new(kind);
            assert!(h.insert_history(t(100), EventKind::Start));
            assert!(!h.insert_history(t(100), EventKind::End));
            assert_eq!(h.len(), 1);
            // The original event type wins (IF NOT EXISTS semantics).
            assert_eq!(h.events()[0].kind, EventKind::Start);
            h.check_invariants();
        }
    }

    #[test]
    fn delete_old_history_keeps_oldest_tuple() {
        for kind in KINDS {
            let mut h = HistoryTable::new(kind);
            // Events at days 0, 1, 2, ..., 40 (start events).
            for d in 0..=40 {
                h.insert_history(t(d * DAY), EventKind::Start);
            }
            let now = t(40 * DAY);
            let outcome = h.delete_old_history(Seconds::days(28), now);
            assert!(outcome.old);
            // historyStart = day 12. Tuples strictly between day 0 and
            // day 12 are deleted: days 1..=11 → 11 tuples.
            assert_eq!(outcome.deleted, 11);
            assert_eq!(h.min_timestamp(), Some(t(0)), "oldest tuple preserved");
            assert!(h.any_event_in(t(12 * DAY), now));
            assert!(!h.any_event_in(t(1), t(12 * DAY - 1)));
            assert_eq!(h.len(), 30);
            assert_eq!(h.version(), 42);
            h.check_invariants();
        }
    }

    #[test]
    fn young_database_is_not_old() {
        let mut h = HistoryTable::default();
        h.insert_history(t(1_000), EventKind::Start);
        let outcome = h.delete_old_history(Seconds::days(28), t(2_000));
        assert!(!outcome.old);
        assert_eq!(outcome.deleted, 0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn delete_on_empty_history_is_noop() {
        let mut h = HistoryTable::default();
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
        let mut h = HistoryTable::default();
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
        let mut h = HistoryTable::default();
        h.insert_history(t(30), EventKind::End);
        h.insert_history(t(10), EventKind::Start);
        let evs = h.events();
        assert_eq!(
            evs,
            vec![ActivityEvent::start(t(10)), ActivityEvent::end(t(30))]
        );
    }

    #[test]
    fn a_long_history_reads_back() {
        let mut h = HistoryTable::new(StorageBackend::Lsm);
        for d in 0..=40 {
            h.insert_history(t(d * DAY), EventKind::Start);
        }
        assert_eq!(h.len(), 41);
        assert_eq!(h.min_timestamp(), Some(t(0)));
        assert_eq!(h.max_timestamp(), Some(t(40 * DAY)));
        assert_eq!(
            h.login_window_stats(t(0), t(40 * DAY)),
            Some((t(0), t(40 * DAY), 41))
        );
        h.check_invariants();
    }

    #[test]
    fn tombstoned_key_can_be_reinserted() {
        let mut h = HistoryTable::new(StorageBackend::Lsm);
        for ts in [0, 100, 200, 300] {
            h.insert_history(t(ts), EventKind::Start);
        }
        // Trim to the last 50 s at now=300: keys 100, 200 die.
        let out = h.delete_old_history(Seconds(50), t(300));
        assert_eq!(out.deleted, 2);
        assert_eq!(h.len(), 2);
        // The dead key no longer "exists": a re-insert must succeed.
        assert!(h.insert_history(t(100), EventKind::End));
        assert_eq!(h.len(), 3);
        assert_eq!(h.logins(), &[0, 300]);
        assert_eq!(
            h.events(),
            vec![
                ActivityEvent::start(t(0)),
                ActivityEvent::end(t(100)),
                ActivityEvent::start(t(300)),
            ]
        );
        h.check_invariants();
    }

    #[test]
    fn version_bumps_only_on_content_change() {
        let mut h = HistoryTable::default();
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
        for kind in KINDS {
            let mut h = HistoryTable::new(kind);
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
    }

    #[test]
    fn clock_index_orders_logins_by_offset_then_period() {
        let mut h = HistoryTable::default();
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

    /// The visible tuples of `h` as backup page records.
    fn records_of(h: &HistoryTable) -> Vec<Record> {
        h.events()
            .iter()
            .map(|e| Record {
                key: e.ts.as_secs(),
                value: i64::from(e.kind.as_i32()),
            })
            .collect()
    }

    #[test]
    fn restored_table_rebuilds_login_cache_without_slot_index() {
        let mut h = HistoryTable::default();
        h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        for d in 0..4 {
            h.insert_history(t(d * DAY + 100), EventKind::Start);
            h.insert_history(t(d * DAY + 200), EventKind::End);
        }
        let restored = HistoryTable::from_records(&records_of(&h), StorageBackend::BTree).unwrap();
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
    fn restore_resets_version_like_the_btree() {
        let mut h = HistoryTable::default();
        for ts in [100, 200, 300] {
            h.insert_history(t(ts), EventKind::Start);
        }
        let mut restored =
            HistoryTable::from_records(&records_of(&h), StorageBackend::Lsm).unwrap();
        assert_eq!(restored.version(), 0);
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.logins(), h.logins());
        assert!(restored.clock_index().is_none());
        restored.check_invariants();
        // The restored tuples are the base every later snapshot replays.
        restored.insert_history(t(400), EventKind::End);
        restored.delete_old_history(Seconds(150), t(400));
        let log = restored.log().expect("restored with a log");
        assert_eq!(log.snapshot(0).events(), h.events());
        assert_eq!(log.snapshot(1).len(), 4);
        restored.check_invariants();
    }

    #[test]
    fn stats_match_paper_arithmetic() {
        let mut tables = KINDS.map(HistoryTable::new);
        for h in &mut tables {
            for i in 0..500 {
                h.insert_history(t(i * 60), EventKind::Start);
            }
            let s = h.stats();
            assert_eq!(s.tuples, 500);
            // 500 tuples × 16 B = 8 000 B ≈ the "within 7 KB on average"
            // of Figure 10b for ~450-tuple histories.
            assert_eq!(s.logical_bytes, 8_000);
            assert_eq!(s.pages, 2);
            assert_eq!(s.page_bytes, 2 * page::PAGE_SIZE);
            // After a trim the figures stay logical: the visible tuples,
            // not what the log holds.
            h.delete_old_history(Seconds(10_000), t(499 * 60));
        }
        let [view_only, logged] = &tables;
        assert_eq!(view_only.stats(), logged.stats());
        // The oldest tuple and the 167 at or after the history start.
        assert_eq!(logged.stats().tuples, 168);
    }
}
