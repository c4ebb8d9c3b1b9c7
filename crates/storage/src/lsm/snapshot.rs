//! Frozen read views and the timestamp → seqno time-travel mapping.
//!
//! `snapshot(seqno)` materialises the tuple set visible at a mutation
//! sequence number into an owned, immutable [`LsmSnapshot`]; the
//! [`TimeTravel`] trait maps *simulated timestamps* onto seqnos so a
//! post-mortem can ask "what history did the predictor see as of T?"
//! and re-run Algorithm 4 against exactly that state — the oxibase
//! `AS OF` idiom over fjall-style sequence numbers.
//!
//! A snapshot also *pins* the run hierarchy it was cut from: every run
//! readable at freeze time is held by `Arc`, so a later garbage-
//! collecting compaction can drop those runs from the live store
//! without invalidating the snapshot's version-level reads
//! ([`LsmSnapshot::resolve`]).  The materialised tuple set answers the
//! aggregate surface; the pins answer point-in-time version probes even
//! below the store's GC floor.

use super::run::{self, Entry, Run};
use super::tombstone::{self, RangeTombstone};
use crate::history::StorageStats;
use crate::store::HistoryRead;
use crate::view::LiveView;
use prorp_types::Timestamp;
use std::sync::Arc;

/// An owned, immutable view of the history as of one seqno.
///
/// Implements only the read half of the storage seam
/// ([`HistoryRead`]): predictors run against a snapshot exactly as
/// they run against the live store, but nothing can mutate it.  The
/// view is materialised (not a reference into the tree) *and* pins the
/// runs it was cut from, so it stays valid — and stays exact — however
/// the live store compacts or garbage-collects afterwards.
///
/// Equality compares the observable frozen state (seqno + visible tuple
/// set) only; two snapshots of the same logical state are equal even if
/// they pin physically different run hierarchies.
#[derive(Clone, Debug)]
pub struct LsmSnapshot {
    /// The visible tuple set, frozen; its version is the freeze seqno.
    view: LiveView,
    /// Runs readable at freeze time, newest first, held alive by `Arc`
    /// refcounts so compaction can retire them from the live store.
    pins: Vec<Arc<Run>>,
    /// Log-tail versions at or below the freeze seqno, `(key, seqno)`-sorted
    /// — the write-buffer leg the pinned runs don't cover.
    overlay: Vec<Entry>,
    /// Range tombstones with `seqno <=` the freeze point, ascending.
    trims: Vec<RangeTombstone>,
}

impl PartialEq for LsmSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.view == other.view
    }
}

impl Eq for LsmSnapshot {}

impl LsmSnapshot {
    /// Freeze a visible tuple set *and* pin the run hierarchy it was
    /// cut from.  `pins` must be newest-first; `overlay` holds the
    /// unflushed versions at or below the view's version,
    /// `(key, seqno)`-sorted.
    pub(crate) fn with_pins(
        view: LiveView,
        pins: Vec<Arc<Run>>,
        overlay: Vec<Entry>,
        trims: Vec<RangeTombstone>,
    ) -> LsmSnapshot {
        debug_assert!(run::strictly_sorted(&overlay));
        LsmSnapshot {
            view,
            pins,
            overlay,
            trims,
        }
    }

    /// The seqno this view is frozen at.
    pub fn seqno(&self) -> u64 {
        self.view.version()
    }

    /// The runs this snapshot holds alive (newest first; empty for
    /// views constructed without pins).
    pub fn pinned_runs(&self) -> &[Arc<Run>] {
        &self.pins
    }

    /// Version-level point probe: the value visible for `key` at the
    /// freeze seqno, resolved through the pinned sources exactly as the
    /// live store would have at freeze time — overlay (log-tail leg),
    /// then runs newest-first, then the frozen tombstone set.  Falls
    /// back to the materialised tuple set when the view carries no
    /// pins.  `None` means the key was not visible.
    pub fn resolve(&self, key: i64) -> Option<i64> {
        if self.pins.is_empty() && self.overlay.is_empty() {
            return self.view.get(key);
        }
        let at = self.seqno();
        let mut verdict: Option<(u64, Option<i64>)> = None;
        let lo = self.overlay.partition_point(|e| e.key < key);
        let hi = lo + self.overlay[lo..].partition_point(|e| e.key == key && e.seqno <= at);
        if hi > lo {
            let e = &self.overlay[hi - 1];
            verdict = Some((e.seqno, (!e.tombstone).then_some(e.value)));
        }
        if verdict.is_none() {
            for run in &self.pins {
                if let Some(hit) = run.visible_seq(key, at) {
                    verdict = Some(hit);
                    break;
                }
            }
        }
        let (win_seq, value) = verdict?;
        let trimmed = tombstone::newest_covering(&self.trims, key, at).is_some_and(|t| t > win_seq);
        if trimmed {
            None
        } else {
            value
        }
    }
}

impl HistoryRead for LsmSnapshot {
    fn view(&self) -> &LiveView {
        &self.view
    }

    fn stats(&self) -> StorageStats {
        self.view.stats(0)
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

    fn snap() -> LsmSnapshot {
        LsmSnapshot::with_pins(
            LiveView::from_sorted(vec![10, 20, 30, 40], vec![1, 0, 1, 0], 7),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        )
    }

    #[test]
    fn unpinned_resolve_falls_back_to_the_materialised_set() {
        let s = snap();
        assert!(s.pinned_runs().is_empty());
        assert_eq!(s.resolve(10), Some(1));
        assert_eq!(s.resolve(20), Some(0));
        assert_eq!(s.resolve(15), None);
    }

    #[test]
    fn pinned_resolve_reads_through_runs_and_tombstones() {
        let entries = vec![
            Entry {
                key: 10,
                seqno: 1,
                value: 1,
                tombstone: false,
            },
            Entry {
                key: 20,
                seqno: 2,
                value: 0,
                tombstone: false,
            },
            Entry {
                key: 30,
                seqno: 3,
                value: 1,
                tombstone: false,
            },
        ];
        let run = Arc::new(Run::build(entries).unwrap().0);
        // Trim at seqno 4 covers [11, 30): key 20 is deleted, 10 and 30
        // survive.  A newer unflushed version of 20 (seqno 5) wins back.
        let trims = vec![RangeTombstone {
            lo: 11,
            hi: 30,
            seqno: 4,
        }];
        let overlay = vec![Entry {
            key: 20,
            seqno: 5,
            value: 1,
            tombstone: false,
        }];
        let s = LsmSnapshot::with_pins(
            LiveView::from_sorted(vec![10, 20, 30], vec![1, 1, 1], 5),
            vec![run],
            overlay,
            trims,
        );
        assert_eq!(s.pinned_runs().len(), 1);
        assert_eq!(s.resolve(10), Some(1));
        assert_eq!(
            s.resolve(20),
            Some(1),
            "overlay re-insert outranks the trim"
        );
        assert_eq!(s.resolve(30), Some(1));
        assert_eq!(s.resolve(25), None);
        // At an earlier freeze point the trim wins over the run version.
        let s4 = LsmSnapshot::with_pins(
            LiveView::from_sorted(vec![10, 30], vec![1, 1], 4),
            s.pinned_runs().to_vec(),
            Vec::new(),
            vec![RangeTombstone {
                lo: 11,
                hi: 30,
                seqno: 4,
            }],
        );
        assert_eq!(s4.resolve(20), None, "trim deletes the run version");
        assert_eq!(s4.resolve(10), Some(1));
    }

    #[test]
    fn equality_ignores_the_pinned_hierarchy() {
        let a = snap();
        let b = LsmSnapshot::with_pins(
            a.view.clone(),
            vec![Arc::new(Run::default())],
            Vec::new(),
            Vec::new(),
        );
        assert_eq!(a, b);
    }
}
