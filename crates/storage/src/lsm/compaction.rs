//! Size-tiered → leveled compaction over the run hierarchy.
//!
//! Level 0 is size-tiered: memtable flushes stack up as whole runs,
//! newest first, and once [`L0_RUN_LIMIT`] runs accumulate they are
//! merged into level 1.  Levels 1 and beyond are leveled — one run per
//! level, each allowed [`LEVEL_FANOUT`]× the entries of the previous —
//! and an over-full level cascades its run into the next.
//!
//! Runs are held behind [`Arc`] so a cloned store shares them instead
//! of copying them.  Compaction runs inline, at the flush that fills
//! L0 or over-fills a level.
//!
//! Merges garbage-collect against the store's [`RangeTombstone`] list:
//! a version covered by a newer tombstone is dropped instead of
//! re-written, and a run whose whole key range is covered by one
//! tombstone newer than all its entries is dropped without being read.
//! GC is the one deliberate loss of MVCC history: after a merge drops
//! versions below tombstone seqno `s`, reconstructing a *new* snapshot
//! at a seqno below `s` is best-effort (the [`Levels::gc_floor`] records
//! the boundary) — a snapshot taken *before* the merge is its own
//! materialised view and stays exact.
//!
//! The seqno-range discipline falls out of the merge order: every flush
//! carries strictly newer seqnos than all on-level entries, and merges
//! only ever combine *adjacent* sources, so at all times
//! `memtable > L0[0] > L0[1] > … > L1 > L2 > …` holds over seqno
//! ranges, and a point lookup can stop at the first source holding any
//! version at or below the read point.

use super::run::{Entry, Run};
use super::tombstone::RangeTombstone;
use prorp_types::ProrpError;
use std::sync::Arc;

/// Size-tiered trigger: merge L0 into L1 once this many runs stack up.
pub const L0_RUN_LIMIT: usize = 4;

/// Leveled growth factor: level `i ≥ 1` holds up to
/// `base × LEVEL_FANOUT^i` entries before cascading.
pub const LEVEL_FANOUT: usize = 4;

/// Bytes written by one compaction round (the write-amp ledger's input).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompactionEffort {
    /// Physical bytes written re-encoding merged runs.
    pub bytes_written: usize,
    /// Number of merge operations performed.
    pub merges: usize,
    /// Versions dropped by tombstone garbage collection.
    pub gc_dropped: usize,
    /// Whole runs dropped because one tombstone covered them entirely.
    pub runs_dropped: usize,
}

impl CompactionEffort {
    /// Fold another round's effort into this cumulative total.
    pub fn absorb(&mut self, other: CompactionEffort) {
        self.bytes_written += other.bytes_written;
        self.merges += other.merges;
        self.gc_dropped += other.gc_dropped;
        self.runs_dropped += other.runs_dropped;
    }
}

/// The immutable-run hierarchy: a size-tiered L0 stack over leveled
/// single-run levels.  Cloning is cheap (the runs are shared `Arc`s).
#[derive(Clone, Debug, Default)]
pub struct Levels {
    /// Level-0 runs, newest first.
    l0: Vec<Arc<Run>>,
    /// Levels 1…, one run each (index 0 is L1).
    leveled: Vec<Arc<Run>>,
    /// Leveled capacity base: L`i` holds `base × LEVEL_FANOUT^(i-1)`.
    base: usize,
    /// Largest tombstone seqno whose covered versions were dropped by a
    /// merge (0 before any GC).  Snapshots *reconstructed* below this
    /// seqno are best-effort; snapshots taken earlier are unaffected.
    gc_floor: u64,
}

impl Levels {
    /// An empty hierarchy.  `base` is the L1 entry capacity (typically
    /// the memtable capacity × [`L0_RUN_LIMIT`]).
    pub fn new(base: usize) -> Self {
        Levels {
            l0: Vec::new(),
            leveled: Vec::new(),
            base: base.max(1),
            gc_floor: 0,
        }
    }

    /// Accept a freshly flushed run at the front of L0, then restore the
    /// shape invariants (L0 size-tiered trigger, leveled cascades),
    /// garbage-collecting against `trims` wherever a merge re-writes
    /// entries anyway.
    pub fn push_flush(
        &mut self,
        run: Arc<Run>,
        trims: &[RangeTombstone],
    ) -> Result<CompactionEffort, ProrpError> {
        debug_assert!(
            self.newest_seqno_bound() < run.min_seqno() || run.is_empty(),
            "flushed run must carry strictly newer seqnos than every level"
        );
        self.l0.insert(0, run);
        self.maintain(trims)
    }

    /// Install a base run (restore path): becomes level 1, cascading
    /// deeper as later flushes arrive.
    pub fn install_base(&mut self, run: Run) {
        debug_assert!(self.l0.is_empty() && self.leveled.is_empty());
        if !run.is_empty() {
            self.leveled.push(Arc::new(run));
        }
    }

    /// Non-empty runs in newest→oldest seqno order — the point-lookup
    /// probe order (vacated levels are skipped).
    pub fn iter_newest_first(&self) -> impl Iterator<Item = &Arc<Run>> {
        self.l0
            .iter()
            .chain(self.leveled.iter())
            .filter(|r| !r.is_empty())
    }

    /// Number of non-empty runs across all levels.
    pub fn run_count(&self) -> usize {
        self.iter_newest_first().count()
    }

    /// Number of occupied levels (L0 counts once when non-empty).
    pub fn depth(&self) -> usize {
        usize::from(!self.l0.is_empty()) + self.leveled.iter().filter(|r| !r.is_empty()).count()
    }

    /// Total entries across all runs (all versions, dead included).
    pub fn entry_count(&self) -> usize {
        self.iter_newest_first().map(|r| r.len()).sum()
    }

    /// Total physical bytes across all runs.
    pub fn page_bytes(&self) -> usize {
        self.iter_newest_first().map(|r| r.page_bytes()).sum()
    }

    /// Largest tombstone seqno whose effects have been garbage-collected
    /// (0 before any GC).
    pub fn gc_floor(&self) -> u64 {
        self.gc_floor
    }

    /// Largest seqno stored in any run (0 when empty).
    fn newest_seqno_bound(&self) -> u64 {
        self.iter_newest_first()
            .map(|r| r.max_seqno())
            .max()
            .unwrap_or(0)
    }

    /// Restore the shape invariants after a flush.
    fn maintain(&mut self, trims: &[RangeTombstone]) -> Result<CompactionEffort, ProrpError> {
        let mut effort = CompactionEffort::default();
        // Size-tiered: collapse L0 into level 1 once the stack is full.
        if self.l0.len() >= L0_RUN_LIMIT {
            let mut sources: Vec<Arc<Run>> = self.l0.drain(..).collect();
            if let Some(l1) = self.leveled.first_mut() {
                sources.push(std::mem::take(l1));
            }
            let merged = self.merge(&sources, trims, &mut effort)?;
            match self.leveled.first_mut() {
                Some(l1) => *l1 = merged,
                None => self.leveled.push(merged),
            }
        }
        // Leveled: cascade any over-full level down into the next,
        // vacating it.  A demotion into an empty or missing level is a
        // free move (no rewrite); a demotion into an occupied level is
        // a merge charged to the write-amp ledger.
        let mut i = 0;
        while i < self.leveled.len() {
            let cap = self
                .base
                .saturating_mul(LEVEL_FANOUT.saturating_pow(i as u32));
            if self.leveled[i].len() > cap {
                let upper = std::mem::take(&mut self.leveled[i]);
                if i + 1 >= self.leveled.len() {
                    self.leveled.push(upper);
                } else if self.leveled[i + 1].is_empty() {
                    self.leveled[i + 1] = upper;
                } else {
                    let lower = std::mem::take(&mut self.leveled[i + 1]);
                    let merged = self.merge(&[upper, lower], trims, &mut effort)?;
                    self.leveled[i + 1] = merged;
                }
            }
            i += 1;
        }
        Ok(effort)
    }

    /// Merge `sources` into one freshly built run, garbage-collecting
    /// tombstone-covered versions and charging the effort ledger.
    fn merge(
        &mut self,
        sources: &[Arc<Run>],
        trims: &[RangeTombstone],
        effort: &mut CompactionEffort,
    ) -> Result<Arc<Run>, ProrpError> {
        let before: usize = sources.iter().map(|r| r.len()).sum();
        let (merged, runs_dropped) = merge_runs_gc(sources, trims);
        let dropped = before - merged.len();
        if dropped > 0 {
            // Some version below the newest applicable tombstone is gone:
            // raise the floor under which snapshot reconstruction is
            // best-effort.
            let floor = trims
                .iter()
                .map(|t| t.seqno)
                .max()
                .expect("GC dropped entries, so a tombstone exists");
            self.gc_floor = self.gc_floor.max(floor);
        }
        let (run, bytes) = Run::build(merged)?;
        effort.bytes_written += bytes;
        effort.merges += 1;
        effort.gc_dropped += dropped;
        effort.runs_dropped += runs_dropped;
        Ok(Arc::new(run))
    }

    /// Audit the hierarchy's structural invariants (strict-invariants
    /// builds and property tests).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn check_invariants(&self) {
        assert!(self.l0.len() < L0_RUN_LIMIT, "L0 stack over the trigger");
        let mut prev_min = u64::MAX;
        for (i, run) in self.iter_newest_first().enumerate() {
            assert!(
                run.entries()
                    .windows(2)
                    .all(|w| (w[0].key, w[0].seqno) < (w[1].key, w[1].seqno)),
                "run {i} not (key, seqno)-sorted"
            );
            if run.is_empty() {
                continue;
            }
            assert!(
                run.max_seqno() < prev_min,
                "seqno ranges must be strictly ordered newest→oldest \
                 (run {i}: max {} !< previous min {prev_min})",
                run.max_seqno()
            );
            prev_min = run.min_seqno();
        }
    }
}

/// Merge runs into one `(key, seqno)`-sorted entry vector, dropping
/// versions a tombstone newer than them covers.  A run whose entire key
/// range sits under one tombstone newer than all its entries is skipped
/// wholesale (the second return value counts those).  Versions *not*
/// under any newer tombstone are all kept (MVCC retention above the GC
/// floor).
fn merge_runs_gc(runs: &[Arc<Run>], trims: &[RangeTombstone]) -> (Vec<Entry>, usize) {
    let total = runs.iter().map(|r| r.len()).sum();
    let mut out: Vec<Entry> = Vec::with_capacity(total);
    let mut runs_dropped = 0usize;
    for run in runs {
        if run.is_empty() {
            continue;
        }
        if trims
            .iter()
            .any(|t| t.seqno > run.max_seqno() && t.lo <= run.min_key() && run.max_key() < t.hi)
        {
            runs_dropped += 1;
            continue;
        }
        out.extend(
            run.entries()
                .iter()
                .filter(|e| !trims.iter().any(|t| t.deletes(e.key, e.seqno)))
                .copied(),
        );
    }
    // Each source is sorted; the concatenation is not.  A stable
    // comparison sort on (key, seqno) restores the global order
    // deterministically.
    out.sort_unstable_by_key(|e| (e.key, e.seqno));
    (out, runs_dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_TRIMS: &[RangeTombstone] = &[];

    fn run_of(range: std::ops::Range<i64>, seqno_base: u64) -> Arc<Run> {
        let entries: Vec<Entry> = range
            .clone()
            .map(|k| Entry {
                key: k,
                seqno: seqno_base + (k - range.start) as u64,
                value: 1,
                tombstone: false,
            })
            .collect();
        Arc::new(Run::build(entries).unwrap().0)
    }

    #[test]
    fn l0_collapses_at_the_trigger() {
        let mut levels = Levels::new(64);
        let mut seqno = 1;
        for i in 0..L0_RUN_LIMIT {
            let run = run_of((i as i64) * 10..(i as i64) * 10 + 5, seqno);
            seqno += 5;
            levels.push_flush(run, NO_TRIMS).unwrap();
        }
        // The 4th flush triggered the size-tiered merge: L0 empty, one
        // leveled run holding all 20 entries.
        assert_eq!(levels.run_count(), 1);
        assert_eq!(levels.entry_count(), 20);
        levels.check_invariants();
    }

    #[test]
    fn cascade_keeps_seqno_ranges_ordered() {
        let mut levels = Levels::new(8);
        let mut seqno = 1;
        for i in 0..20 {
            let run = run_of(i * 4..i * 4 + 4, seqno);
            seqno += 4;
            levels.push_flush(run, NO_TRIMS).unwrap();
            levels.check_invariants();
        }
        assert_eq!(levels.entry_count(), 80);
        assert!(levels.depth() >= 2, "80 entries over base 8 must cascade");
    }

    #[test]
    fn merge_keeps_all_versions_above_the_floor() {
        let a = Arc::new(
            Run::build(vec![Entry {
                key: 5,
                seqno: 10,
                value: 1,
                tombstone: true,
            }])
            .unwrap()
            .0,
        );
        let b = Arc::new(
            Run::build(vec![Entry {
                key: 5,
                seqno: 2,
                value: 1,
                tombstone: false,
            }])
            .unwrap()
            .0,
        );
        let (merged, dropped) = merge_runs_gc(&[a, b], NO_TRIMS);
        assert_eq!(
            merged.len(),
            2,
            "compaction must not drop shadowed versions without a tombstone"
        );
        assert_eq!(dropped, 0);
        assert_eq!((merged[0].seqno, merged[1].seqno), (2, 10));
    }

    #[test]
    fn gc_drops_covered_versions_and_whole_runs() {
        let covered = run_of(0..4, 1); // seqnos 1..=4, keys 0..=3
        let partial = run_of(2..8, 5); // seqnos 5..=10, keys 2..=7
        let trims = [RangeTombstone {
            lo: 0,
            hi: 5,
            seqno: 20,
        }];
        let (merged, dropped_runs) = merge_runs_gc(&[partial, covered], &trims);
        assert_eq!(dropped_runs, 1, "the fully covered run is skipped");
        let keys: Vec<i64> = merged.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![5, 6, 7], "covered keys 2..=4 are dropped");
    }

    #[test]
    fn gc_keeps_versions_newer_than_the_tombstone() {
        let reinserted = run_of(1..3, 30); // seqnos 30, 31 > trim seqno
        let trims = [RangeTombstone {
            lo: 0,
            hi: 10,
            seqno: 20,
        }];
        let (merged, dropped_runs) = merge_runs_gc(&[reinserted], &trims);
        assert_eq!(dropped_runs, 0);
        assert_eq!(merged.len(), 2, "re-inserts after the trim survive GC");
    }

    #[test]
    fn gc_floor_rises_when_a_merge_drops_versions() {
        let mut levels = Levels::new(4);
        let mut seqno = 1;
        // Fill L0 to the trigger with keys under one big tombstone.
        let trims = [RangeTombstone {
            lo: 0,
            hi: 1_000,
            seqno: 500,
        }];
        for i in 0..L0_RUN_LIMIT {
            let run = run_of((i as i64) * 10..(i as i64) * 10 + 4, seqno);
            seqno += 4;
            let effort = levels.push_flush(run, &trims).unwrap();
            if i + 1 == L0_RUN_LIMIT {
                assert!(effort.gc_dropped > 0 || effort.runs_dropped > 0);
            }
        }
        assert_eq!(levels.gc_floor(), 500);
        assert_eq!(levels.entry_count(), 0, "everything was covered");
        levels.check_invariants();
    }
}
