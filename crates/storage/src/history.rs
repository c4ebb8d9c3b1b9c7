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
//! Both procedures' decisions, and the prediction procedure's range
//! aggregation (Algorithm 4 lines 19–24: `MIN`/`MAX` of login timestamps
//! within a window, [`HistoryRead::login_window_stats`]), are made by the
//! [`LiveView`] the table holds; the table applies each mutation to the
//! clustered B+Tree in lockstep.
//!
//! # Prediction-index support
//!
//! The view's optional [`SlotIndex`] is defined here: a
//! per-seasonal-period occupancy bitmap (plus per-slot login counts)
//! over `slide`-granularity clock slots, enabled with
//! [`HistoryStore::configure_slot_index`] and updated `O(1)` per login
//! insert/delete.

use crate::btree::BTree;
use crate::page::Record;
use crate::store::{HistoryRead, HistoryStore};
use crate::view::LiveView;
use prorp_types::{EventKind, Seconds, Timestamp};

/// Occupancy index over login *clock offsets* within one seasonal period.
///
/// Each login timestamp `t` lands in slot `(t mod period) / slot_len`;
/// the index keeps a bitmap of occupied slots plus a per-slot login
/// count.  Because Algorithm 4 compares the *same* clock window against
/// every previous period (`winStart − period·prev ≡ winStart (mod
/// period)`), one bitmap probe answers "could any period-row of this
/// window position contain a login?" for all rows at once — a false
/// positive merely costs the exact sweep, while a false negative is
/// impossible since the probed slot range covers the window's whole
/// clock interval.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SlotIndex {
    /// Seasonal period in seconds (positive).
    period: i64,
    /// Slot granularity in seconds (positive, at most `period`).
    slot_len: i64,
    /// Number of slots: `ceil(period / slot_len)`.
    slots: usize,
    /// Occupancy bitmap, one bit per slot.
    words: Vec<u64>,
    /// Logins currently indexed per slot.
    counts: Vec<u32>,
    /// Total logins indexed.
    total: u64,
}

impl SlotIndex {
    /// An empty index; `None` when the parameters are degenerate.
    fn new(period: Seconds, slot_len: Seconds) -> Option<SlotIndex> {
        let p = period.as_secs();
        let g = slot_len.as_secs();
        if p <= 0 || g <= 0 {
            return None;
        }
        let g = g.min(p);
        let slots = ((p + g - 1) / g) as usize;
        Some(SlotIndex {
            period: p,
            slot_len: g,
            slots,
            words: vec![0; slots.div_ceil(64)],
            counts: vec![0; slots],
            total: 0,
        })
    }

    /// Rebuild from a sorted login cache.
    pub(crate) fn rebuilt(period: Seconds, slot_len: Seconds, logins: &[i64]) -> Option<SlotIndex> {
        let mut ix = SlotIndex::new(period, slot_len)?;
        for &t in logins {
            ix.add(t);
        }
        Some(ix)
    }

    /// The seasonal period this index is bucketed over.
    pub fn period(&self) -> Seconds {
        Seconds(self.period)
    }

    /// The slot granularity.
    pub fn slot_len(&self) -> Seconds {
        Seconds(self.slot_len)
    }

    /// Total logins currently indexed.
    pub fn total_logins(&self) -> u64 {
        self.total
    }

    fn slot_of(&self, ts: i64) -> usize {
        (ts.rem_euclid(self.period) / self.slot_len) as usize
    }

    pub(crate) fn add(&mut self, ts: i64) {
        let s = self.slot_of(ts);
        self.counts[s] += 1;
        self.words[s / 64] |= 1 << (s % 64);
        self.total += 1;
    }

    pub(crate) fn remove(&mut self, ts: i64) {
        let s = self.slot_of(ts);
        self.counts[s] = self.counts[s]
            .checked_sub(1)
            .expect("slot index decrement without a matching insert");
        if self.counts[s] == 0 {
            self.words[s / 64] &= !(1 << (s % 64));
        }
        self.total -= 1;
    }

    /// Any occupied slot in the inclusive slot range `[a, b]`?
    fn any_in_slots(&self, a: usize, b: usize) -> bool {
        let (wa, wb) = (a / 64, b / 64);
        let lo_mask = !0u64 << (a % 64);
        let hi_mask = !0u64 >> (63 - (b % 64));
        if wa == wb {
            return self.words[wa] & lo_mask & hi_mask != 0;
        }
        if self.words[wa] & lo_mask != 0 {
            return true;
        }
        if self.words[wa + 1..wb].iter().any(|&w| w != 0) {
            return true;
        }
        self.words[wb] & hi_mask != 0
    }

    /// Conservative occupancy probe for the clock window
    /// `[win_start mod period, win_start mod period + w]`: `false`
    /// guarantees no login of *any* seasonal period falls inside a
    /// window of length `w` starting at `win_start − period·prev` for
    /// any `prev`; `true` says some covered slot holds a login (which
    /// may still fall outside the exact window bounds).
    pub fn any_login_in_clock_window(&self, win_start: Timestamp, w: Seconds) -> bool {
        if self.total == 0 {
            return false;
        }
        if w.as_secs() >= self.period {
            return true; // the window covers the whole period
        }
        let clock_lo = win_start.as_secs().rem_euclid(self.period);
        let clock_hi = clock_lo + w.as_secs();
        let a = (clock_lo / self.slot_len) as usize;
        if clock_hi >= self.period {
            // The clock interval wraps past the period boundary.
            self.any_in_slots(a, self.slots - 1)
                || self.any_in_slots(0, ((clock_hi - self.period) / self.slot_len) as usize)
        } else {
            self.any_in_slots(a, (clock_hi / self.slot_len) as usize)
        }
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
    /// Depth of the clustered index.
    pub index_depth: usize,
}

/// The `sys.pause_resume_history` table of one database: the shared
/// [`LiveView`] every read is served from, over the §5 clustered B+Tree
/// — the physical index (Figure 10 depth source) and the independent
/// reference [`check_invariants`](HistoryStore::check_invariants)
/// audits the view against.
#[derive(Clone, Debug, Default)]
pub struct HistoryTable {
    view: LiveView,
    index: BTree<i64>,
}

impl HistoryTable {
    /// An empty history.
    pub fn new() -> Self {
        HistoryTable::default()
    }

    /// Rebuild from page records (backup restore path).  Backup streams
    /// are written in key order, so the clustered index is bulk-loaded in
    /// one `O(n)` bottom-up pass.
    pub(crate) fn from_records(records: &[Record]) -> Result<Self, prorp_types::ProrpError> {
        Ok(HistoryTable {
            view: LiveView::from_records(records)?,
            index: BTree::bulk_load(records.iter().map(|r| (r.key, r.value)).collect())?,
        })
    }
}

impl HistoryRead for HistoryTable {
    fn view(&self) -> &LiveView {
        &self.view
    }

    /// Storage-overhead statistics (Figure 10a–b); `index_depth` is the
    /// clustered index's.
    fn stats(&self) -> StorageStats {
        self.view.stats(self.index.depth())
    }
}

impl HistoryStore for HistoryTable {
    /// Algorithm 2 — `sys.InsertHistory(@time, @type)`: `O(log n)` into
    /// the clustered index once the view's `IF NOT EXISTS` probe passes.
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        if !self.view.insert(ts, kind) {
            return false;
        }
        self.index
            .insert(ts.as_secs(), i64::from(kind.as_i32()))
            .expect("the view holds every indexed key; insert cannot collide");
        true
    }

    /// Algorithm 3 — `sys.DeleteOldHistory(@h, @now, @old OUTPUT)`: the
    /// view computes the doomed range, the index walks it.
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        let (outcome, doomed) = self.view.trim(h, now);
        if let Some((min_ts, history_start)) = doomed {
            let removed = self.index.delete_exclusive_range(min_ts, history_start);
            debug_assert_eq!(removed, outcome.deleted, "index and view trims diverged");
        }
        outcome
    }

    fn configure_slot_index(&mut self, period: Seconds, slot_len: Seconds) {
        self.view.configure_slot_index(period, slot_len);
    }

    /// Verify the clustered index's B-tree properties (key ordering, node
    /// occupancy, depth balance) and that the view is exactly what the
    /// index materialises to.
    fn check_invariants(&self) {
        self.index.check_invariants();
        self.view.audit(
            self.index.iter().map(|(k, v)| (k, *v)),
            "the clustered index",
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
        assert_eq!(h.slot_index().unwrap().total_logins(), 3);
    }

    #[test]
    fn slot_index_probe_is_conservative_and_never_misses() {
        let mut h = HistoryTable::new();
        let day = Seconds::days(1);
        h.configure_slot_index(day, Seconds::minutes(5));
        // Logins at 09:00 across three days, plus one at 23:59 (exercises
        // windows that wrap the period boundary).
        for d in 0..3 {
            h.insert_history(t(d * 86_400 + 9 * 3_600), EventKind::Start);
        }
        h.insert_history(t(86_400 - 60), EventKind::Start);
        let ix = h.slot_index().unwrap();
        let w = Seconds::hours(1);
        // Every real login must be covered at every window that contains
        // it: probe windows starting at each login minus a sub-window lag.
        for &login in h.logins() {
            for lag in [0, 1, 1_800, 3_599] {
                assert!(
                    ix.any_login_in_clock_window(t(login - lag), w),
                    "probe missed login {login} at lag {lag}"
                );
            }
        }
        // A clock window with no logins anywhere near it reports empty.
        assert!(!ix.any_login_in_clock_window(t(3 * 3_600), w));
        // Wrapping window: starts 23:30, covers the 23:59 login.
        assert!(ix.any_login_in_clock_window(t(23 * 3_600 + 1_800), w));
        // A window at least one period long always reports occupancy.
        assert!(ix.any_login_in_clock_window(t(3 * 3_600), day));
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
            .index
            .iter()
            .map(|(k, v)| Record { key: k, value: *v })
            .collect();
        let restored = HistoryTable::from_records(&records).unwrap();
        assert_eq!(restored.logins(), h.logins());
        assert_eq!(restored.version(), 0);
        assert!(restored.slot_index().is_none());
        restored.check_invariants();
        let mut reconfigured = restored;
        reconfigured.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        assert_eq!(reconfigured.slot_index(), h.slot_index());
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
        assert!(s.index_depth >= 1);
    }
}
