//! The one live-read layer under every history engine.
//!
//! Algorithms 2–4 only ever ask `sys.pause_resume_history` one question —
//! "what is the visible tuple set?" — so that set is materialised exactly
//! once, here: sorted `keys`/`vals`, the sorted login (`event_type = 1`)
//! subset, the optional [`ClockIndex`] holding those logins in the
//! seasonal-clock order the incremental predictor sweeps, and the
//! mutation `version` the LSM stamps its seqnos from.
//!
//! [`LiveView`] owns every decision that depends only on the visible
//! set: Algorithm 2's `IF NOT EXISTS` probe, Algorithm 3's range
//! computation (`min_ts`, `history_start`, doomed range, `old`/`deleted`),
//! login-cache and clock-index maintenance, every read, the
//! [`StorageStats`] and the restore-from-records build.  The engines
//! ([`crate::HistoryTable`], [`crate::LsmHistory`],
//! [`crate::LsmSnapshot`]) each hold one.  [`crate::HistoryTable`] is
//! nothing else, and its `check_invariants` audits the view against its
//! own page image; the LSM keeps its log, runs and tombstones beside it
//! and audits the view against the visible set it re-derives from them.

use crate::history::{ClockIndex, DeleteOutcome, StorageStats};
use crate::page::{self, Record};
use prorp_types::{ActivityEvent, EventKind, ProrpError, Seconds, Timestamp};
use std::ops::Range;

/// The visible tuple set of one database's history plus its read indexes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LiveView {
    /// Visible tuple keys (`time_snapshot`), strictly ascending.
    keys: Vec<i64>,
    /// Parallel `event_type` values (1 = start, 0 = end).
    vals: Vec<i64>,
    /// Visible login keys, ascending (the `vals[i] == 1` subset).
    logins: Vec<i64>,
    /// Optional clock-ordered index over `logins`.
    clock: Option<ClockIndex>,
    /// Mutation version: bumped whenever the visible set changes.
    version: u64,
}

/// Where `key` sits (`Ok`) or belongs (`Err`) in a sorted duplicate-free
/// slice — `O(1)` for the in-order appends the activity tracker produces.
fn locate(sorted: &[i64], key: i64) -> Result<usize, usize> {
    match sorted.last() {
        Some(&newest) if newest >= key => sorted.binary_search(&key),
        _ => Err(sorted.len()),
    }
}

/// Index range of `sorted` covered by the closed window `[lo, hi]`.
fn closed_window(sorted: &[i64], lo: Timestamp, hi: Timestamp) -> Range<usize> {
    sorted.partition_point(|&k| k < lo.as_secs())..sorted.partition_point(|&k| k <= hi.as_secs())
}

impl LiveView {
    /// An empty view at version 0.
    pub fn new() -> Self {
        LiveView::default()
    }

    /// A view over key-ascending `(keys, vals)` columns at `version`,
    /// with the login cache derived and no clock index.
    pub(crate) fn from_sorted(keys: Vec<i64>, vals: Vec<i64>, version: u64) -> LiveView {
        let logins = keys
            .iter()
            .zip(&vals)
            .filter(|&(_, &v)| v == 1)
            .map(|(&k, _)| k)
            .collect();
        LiveView {
            keys,
            vals,
            logins,
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
            records.iter().map(|r| r.key).collect(),
            records.iter().map(|r| r.value).collect(),
            0,
        ))
    }

    /// A frozen copy: same tuples and version, no clock index.
    pub(crate) fn frozen(&self) -> LiveView {
        LiveView::from_sorted(self.keys.clone(), self.vals.clone(), self.version)
    }

    /// Algorithm 2 — insert unless a tuple with the same `time_snapshot`
    /// is visible (the `IF NOT EXISTS` guard; the original event type
    /// wins).  Returns `true` when the tuple was stored, in which case
    /// the version has been bumped and the engine must store it too.
    pub fn insert(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        let key = ts.as_secs();
        let Err(pos) = locate(&self.keys, key) else {
            return false;
        };
        self.keys.insert(pos, key);
        self.vals.insert(pos, i64::from(kind.as_i32()));
        if kind == EventKind::Start {
            let (Ok(lp) | Err(lp)) = locate(&self.logins, key);
            self.logins.insert(lp, key);
            if let Some(ix) = self.clock.as_mut() {
                ix.add(key);
            }
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
        let Some(&min_ts) = self.keys.first().filter(|&&k| k < history_start) else {
            return (young, None);
        };
        let doomed = |sorted: &[i64]| {
            sorted.partition_point(|&k| k <= min_ts)..sorted.partition_point(|&k| k < history_start)
        };
        let dead = doomed(&self.keys);
        let outcome = DeleteOutcome {
            old: true,
            deleted: dead.len(),
        };
        if dead.is_empty() {
            return (outcome, None);
        }
        let dead_logins = doomed(&self.logins);
        if !dead_logins.is_empty() {
            if let Some(ix) = self.clock.as_mut() {
                ix.remove_between(min_ts, history_start);
            }
            self.logins.drain(dead_logins);
        }
        self.keys.drain(dead.clone());
        self.vals.drain(dead);
        self.version += 1;
        (outcome, Some((min_ts, history_start)))
    }

    /// (Re)build the clock-ordered login index over one seasonal
    /// `period`; a non-positive period disables it.  Later mutations keep
    /// it current: a binary search per login insert, one pass per trim
    /// that deletes a login.
    pub fn configure_clock_index(&mut self, period: Seconds) {
        self.clock = ClockIndex::rebuilt(period, &self.logins);
    }

    /// `SELECT MIN(time_snapshot), MAX(time_snapshot), COUNT(*) WHERE
    /// event_type = 1 AND lo <= time_snapshot AND time_snapshot <= hi`
    /// (Algorithm 4 lines 19–24); `None` when no login falls inside.
    pub fn login_window_stats(
        &self,
        lo: Timestamp,
        hi: Timestamp,
    ) -> Option<(Timestamp, Timestamp, i64)> {
        let hit = &self.logins[closed_window(&self.logins, lo, hi)];
        Some((
            Timestamp(*hit.first()?),
            Timestamp(*hit.last()?),
            hit.len() as i64,
        ))
    }

    /// Whether any event (login *or* logout) falls inside `[lo, hi]`.
    pub fn any_event_in(&self, lo: Timestamp, hi: Timestamp) -> bool {
        !closed_window(&self.keys, lo, hi).is_empty()
    }

    /// Oldest visible timestamp — the observable lifespan start.
    pub fn min_timestamp(&self) -> Option<Timestamp> {
        self.keys.first().map(|&k| Timestamp(k))
    }

    /// Newest visible timestamp.
    pub fn max_timestamp(&self) -> Option<Timestamp> {
        self.keys.last().map(|&k| Timestamp(k))
    }

    /// Number of visible tuples.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no tuple is visible.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The mutation version: bumped on every insert that stored a tuple
    /// and every trim that deleted at least one.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The sorted visible login timestamps.
    pub fn logins(&self) -> &[i64] {
        &self.logins
    }

    /// The clock-ordered login index, when one has been configured.
    pub fn clock_index(&self) -> Option<&ClockIndex> {
        self.clock.as_ref()
    }

    /// The `event_type` visible for `key`, if any.
    pub fn get(&self, key: i64) -> Option<i64> {
        locate(&self.keys, key).ok().map(|pos| self.vals[pos])
    }

    /// All visible events in timestamp order.
    pub fn events(&self) -> Vec<ActivityEvent> {
        self.keys
            .iter()
            .zip(&self.vals)
            .map(|(&k, &v)| ActivityEvent {
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
        let tuples = self.keys.len();
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
    /// (sorted, one entry per visible login).
    ///
    /// # Panics
    ///
    /// Panics naming `source` and the diverged column.
    pub(crate) fn audit(&self, visible: impl Iterator<Item = (i64, i64)>, source: &str) {
        let (keys, vals) = visible.unzip();
        let expected = LiveView::from_sorted(keys, vals, self.version);
        assert_eq!(
            self.keys, expected.keys,
            "visible keys diverged from {source}"
        );
        assert_eq!(
            self.vals, expected.vals,
            "visible values diverged from {source}"
        );
        assert_eq!(
            self.logins, expected.logins,
            "login cache diverged from {source}"
        );
        if let Some(ix) = &self.clock {
            let rebuilt = ClockIndex::rebuilt(ix.period(), &self.logins);
            assert_eq!(
                Some(ix),
                rebuilt.as_ref(),
                "clock index diverged from a rebuild"
            );
        }
    }
}
