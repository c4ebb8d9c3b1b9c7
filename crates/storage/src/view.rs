//! The one live-read layer under every history engine.
//!
//! Algorithms 2–4 only ever ask `sys.pause_resume_history` one question —
//! "what is the visible tuple set?" — so that set is materialised exactly
//! once, here: one key-sorted `(time_snapshot, event_type)` row column,
//! the optional [`ClockIndex`] holding its logins (`event_type = 1`) in
//! the seasonal-clock order the incremental predictor sweeps, and the
//! mutation `version` a mutation log numbers its seqnos by.  Logins are
//! not kept apart: like Algorithm 4's `WHERE event_type = 1`, every
//! login read is a filter over the rows.
//!
//! [`LiveView`] owns every decision that depends only on the visible
//! set: Algorithm 2's `IF NOT EXISTS` probe, Algorithm 3's range
//! computation (`min_ts`, `history_start`, doomed range, `old`/`deleted`),
//! clock-index maintenance, every read, the
//! [`StorageStats`] and the restore-from-records build.
//! [`crate::HistoryTable`] holds one and writes every mutation to it
//! first; its `check_invariants` audits the view against its own page
//! image and, when the table keeps a [`crate::MutationLog`], against the
//! visible set replayed from that log.  A time-travel snapshot is a
//! table whose view was built from such a replay.

use crate::history::{ClockIndex, DeleteOutcome, StorageStats};
use crate::page::{self, Record};
use prorp_types::{ActivityEvent, EventKind, ProrpError, Seconds, Timestamp};
use std::ops::Range;

/// The visible tuple set of one database's history plus its read index.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LiveView {
    /// Visible `(time_snapshot, event_type)` rows, keys strictly
    /// ascending (event type 1 = start, 0 = end).
    rows: Vec<(i64, i64)>,
    /// Optional clock-ordered index over the login rows.
    clock: Option<ClockIndex>,
    /// Mutation version: bumped whenever the visible set changes.
    version: u64,
}

/// Rows the first insert reserves: a typical ledger-fleet history (≈14
/// rows per database) in one allocation instead of three regrowths.
const ROW_BLOCK: usize = 16;

/// Whether a row is a login (`event_type = 1`).
fn is_login(&(_, event_type): &(i64, i64)) -> bool {
    event_type == 1
}

/// Where `key` sits (`Ok`) or belongs (`Err`) in the sorted duplicate-free
/// rows — `O(1)` for the in-order appends the activity tracker produces.
fn locate(rows: &[(i64, i64)], key: i64) -> Result<usize, usize> {
    match rows.last() {
        Some(&(newest, _)) if newest >= key => rows.binary_search_by_key(&key, |&(k, _)| k),
        _ => Err(rows.len()),
    }
}

/// Index range of `rows` covered by the closed window `[lo, hi]`.
fn closed_window(rows: &[(i64, i64)], lo: Timestamp, hi: Timestamp) -> Range<usize> {
    rows.partition_point(|&(k, _)| k < lo.as_secs())
        ..rows.partition_point(|&(k, _)| k <= hi.as_secs())
}

/// Index range of `rows` strictly between `min_ts` and `history_start`
/// — what Algorithm 3 deletes.
fn doomed(rows: &[(i64, i64)], min_ts: i64, history_start: i64) -> Range<usize> {
    rows.partition_point(|&(k, _)| k <= min_ts)..rows.partition_point(|&(k, _)| k < history_start)
}

impl LiveView {
    /// An empty view at version 0.
    pub fn new() -> Self {
        LiveView::default()
    }

    /// A view over key-ascending `(key, event_type)` rows at `version`,
    /// with no clock index.
    pub(crate) fn from_sorted(rows: Vec<(i64, i64)>, version: u64) -> LiveView {
        LiveView {
            rows,
            clock: None,
            version,
        }
    }

    /// Rebuild from backup page records — the shared restore contract:
    /// version reset to 0, clock index unconfigured (the restoring
    /// engine re-enables it with its own period; that does not travel in
    /// the stream).
    ///
    /// # Errors
    ///
    /// Returns [`ProrpError::Storage`] unless the keys are strictly
    /// ascending: a checksum-valid stream can still carry any key order,
    /// and every read here assumes sortedness.
    pub fn from_records(records: &[Record]) -> Result<LiveView, ProrpError> {
        if let Some(w) = records.windows(2).find(|w| w[0].key >= w[1].key) {
            return Err(ProrpError::Storage(format!(
                "backup records must be strictly ascending by key: {} then {}",
                w[0].key, w[1].key
            )));
        }
        Ok(LiveView::from_sorted(
            records.iter().map(|r| (r.key, r.value)).collect(),
            0,
        ))
    }

    /// Algorithm 2 — insert unless a tuple with the same `time_snapshot`
    /// is visible (the `IF NOT EXISTS` guard; the original event type
    /// wins).  Returns `true` when the tuple was stored, in which case
    /// the version has been bumped and the engine must store it too.
    pub fn insert(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        let key = ts.as_secs();
        let Err(pos) = locate(&self.rows, key) else {
            return false;
        };
        if self.rows.is_empty() {
            self.rows.reserve(ROW_BLOCK);
        }
        self.rows.insert(pos, (key, i64::from(kind.as_i32())));
        if let Some(ix) = self.clock.as_mut().filter(|_| kind == EventKind::Start) {
            ix.add(key);
        }
        self.version += 1;
        true
    }

    /// Algorithm 3 — compute `historyStart = now − h`; if the oldest
    /// tuple predates it the database is old and every tuple strictly
    /// between the oldest tuple and `historyStart` dies (the oldest is
    /// kept so the lifespan stays computable).  When tuples died the
    /// version is bumped and the second value is the exclusive key range
    /// `(min_ts, history_start)` the engine must delete physically.
    pub fn trim(&mut self, h: Seconds, now: Timestamp) -> (DeleteOutcome, Option<(i64, i64)>) {
        let history_start = (now - h).as_secs();
        let young = DeleteOutcome {
            old: false,
            deleted: 0,
        };
        let Some(&(min_ts, _)) = self.rows.first().filter(|r| r.0 < history_start) else {
            return (young, None);
        };
        let dead = doomed(&self.rows, min_ts, history_start);
        let outcome = DeleteOutcome {
            old: true,
            deleted: dead.len(),
        };
        if dead.is_empty() {
            return (outcome, None);
        }
        if let Some(ix) = self.clock.as_mut() {
            if self.rows[dead.clone()].iter().any(is_login) {
                ix.remove_between(min_ts, history_start);
            }
        }
        self.rows.drain(dead);
        self.version += 1;
        (outcome, Some((min_ts, history_start)))
    }

    /// (Re)build the clock-ordered login index over one seasonal
    /// `period`; a non-positive period disables it.  Later mutations keep
    /// it current: a binary search per login insert, one pass per trim
    /// that deletes a login.
    pub fn configure_clock_index(&mut self, period: Seconds) {
        self.clock = ClockIndex::rebuilt(period, self.logins());
    }

    /// `SELECT MIN(time_snapshot), MAX(time_snapshot), COUNT(*) WHERE
    /// event_type = 1 AND lo <= time_snapshot AND time_snapshot <= hi`
    /// (Algorithm 4 lines 19–24); `None` when no login falls inside.
    pub fn login_window_stats(
        &self,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Option<(Timestamp, Timestamp, i64)> {
        let mut hit = self.rows[closed_window(&self.rows, lo, hi)]
            .iter()
            .filter(|r| is_login(r));
        let first = hit.next()?.0;
        let (last, count) = hit.fold((first, 1), |(_, n), &(k, _)| (k, n + 1));
        Some((Timestamp(first), Timestamp(last), count))
    }

    /// Whether any event (login *or* logout) falls inside `[lo, hi]`.
    pub fn any_event_in(&self, lo: Timestamp, hi: Timestamp) -> bool {
        !closed_window(&self.rows, lo, hi).is_empty()
    }

    /// Oldest visible timestamp — the observable lifespan start.
    pub fn min_timestamp(&self) -> Option<Timestamp> {
        self.rows.first().map(|&(k, _)| Timestamp(k))
    }

    /// Newest visible timestamp.
    pub fn max_timestamp(&self) -> Option<Timestamp> {
        self.rows.last().map(|&(k, _)| Timestamp(k))
    }

    /// Number of visible tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no tuple is visible.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The mutation version: bumped on every insert that stored a tuple
    /// and every trim that deleted at least one.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The visible `(time_snapshot, event_type)` rows, keys ascending.
    pub fn rows(&self) -> &[(i64, i64)] {
        &self.rows
    }

    /// The visible login timestamps, ascending: the rows with event
    /// type 1.
    pub fn logins(&self) -> impl Iterator<Item = i64> + '_ {
        self.rows.iter().filter(|r| is_login(r)).map(|&(k, _)| k)
    }

    /// The clock-ordered login index, when one has been configured.
    pub fn clock_index(&self) -> Option<&ClockIndex> {
        self.clock.as_ref()
    }

    /// The `event_type` visible for `key`, if any.
    pub fn get(&self, key: i64) -> Option<i64> {
        locate(&self.rows, key).ok().map(|pos| self.rows[pos].1)
    }

    /// All visible events in timestamp order.
    pub fn events(&self) -> Vec<ActivityEvent> {
        self.rows
            .iter()
            .map(|&(k, v)| ActivityEvent {
                ts: Timestamp(k),
                kind: if v == 1 {
                    EventKind::Start
                } else {
                    EventKind::End
                },
            })
            .collect()
    }

    /// Storage-overhead figures (Figure 10a–b) for the visible set —
    /// tuples × 16 B and the 8-KiB pages they occupy.
    pub fn stats(&self) -> StorageStats {
        let tuples = self.rows.len();
        let pages = page::pages_for(tuples);
        StorageStats {
            tuples,
            logical_bytes: tuples * page::RECORD_SIZE,
            page_bytes: pages * page::PAGE_SIZE,
            pages,
        }
    }

    /// Assert that this view is exactly what `visible` — the key-ascending
    /// `(key, event_type)` pairs an engine re-derived from its physical
    /// state — materialises to, and that the clock index matches a rebuild
    /// from the login rows (sorted, one entry per visible login).
    ///
    /// # Panics
    ///
    /// Panics naming `source`, or the clock index, when either diverged.
    pub(crate) fn audit(&self, visible: impl Iterator<Item = (i64, i64)>, source: &str) {
        let expected: Vec<_> = visible.collect();
        assert_eq!(self.rows, expected, "visible rows diverged from {source}");
        if let Some(ix) = &self.clock {
            let rebuilt = ClockIndex::rebuilt(ix.period(), self.logins());
            assert_eq!(
                Some(ix),
                rebuilt.as_ref(),
                "clock index diverged from a rebuild"
            );
        }
    }
}
