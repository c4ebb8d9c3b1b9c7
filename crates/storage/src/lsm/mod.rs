//! The LSM/MVCC history engine — `sys.pause_resume_history` on a
//! log-structured merge tree with snapshot time-travel.
//!
//! [`LsmHistory`] is a drop-in alternative to the §5
//! [`crate::HistoryTable`]: the Algorithm 2/3 decisions, the window
//! aggregates and the mutation version all come from the one
//! [`LiveView`] both hold, and the testkit's `btree ≡ lsm` differential
//! oracles hold the LSM's physical engine beneath to bit-identical
//! observable behaviour.  What the LSM shape buys on top:
//!
//! * **MVCC versions + monotonic seqnos** — every mutation (insert or
//!   trim) is stamped with the store's sequence number, which *is* the
//!   view's mutation version.
//!   Nothing is overwritten in place, so [`LsmHistory::snapshot`] can
//!   freeze the tuple set visible at any past seqno, and the
//!   [`TimeTravel`] mapping resolves simulated timestamps to seqnos for
//!   "as of T" post-mortems (fjall-style `snapshot(seqno)`,
//!   oxibase-style `AS OF`).
//! * **Write path**: a mutation is written once — one record pushed
//!   onto the store's mutation log (`log.rs`).  The records past the
//!   flush mark are the write buffer, what the write-ahead log covers
//!   ([`LsmHistory::wal`] renders its bytes on demand) and, with every
//!   record before them, the [`TimeTravel`] timeline.  At
//!   [`LsmConfig::memtable_cap`] buffered versions the tail is sorted
//!   into an immutable [`run`] — sized as the 8-KiB slotted pages it
//!   would fill — and the flush mark moves past it, which is the WAL's
//!   truncation.  Runs compact size-tiered at level 0 and leveled
//!   below ([`compaction`]), inline at the flush that triggers the
//!   merge; its wall time is charged to
//!   [`LsmHistory::compaction_stall_ns`].  Every physical byte written
//!   is charged to a write-amplification ledger ([`LsmMetrics`]).
//! * **Trim path**: an Algorithm 3 retention pass records one
//!   [`RangeTombstone`] — `O(1)` logical work per pass instead of one
//!   point tombstone per doomed tuple ([`tombstone`]).  Compaction
//!   garbage-collects covered versions lazily, dropping whole runs
//!   when one tombstone covers a run's entire key range.
//! * **Read path**: every live read is served by the shared
//!   [`LiveView`] the store holds — the same layer, the same code, as
//!   the §5 table — so live predictions never pay a multi-run
//!   merge.  Only snapshot reconstruction and the invariant audit
//!   k-way-merge the runs — the sorted log tail being the newest of
//!   them — resolving per-key visibility (point versions *and* range
//!   tombstones) at the read seqno.

pub mod compaction;
mod log;
#[cfg(test)]
mod memtable;
pub mod run;
pub mod scheduler;
pub mod snapshot;
pub mod tombstone;

pub use scheduler::{CompactionMode, CompactionScheduler};
pub use snapshot::{LsmSnapshot, TimeTravel};
pub use tombstone::RangeTombstone;

use crate::history::DeleteOutcome;
use crate::page::{self, Record};
use crate::store::{HistoryRead, HistoryStore};
use crate::view::LiveView;
use crate::wal::{self, WalRecord, WriteAheadLog};
use compaction::{CompactionEffort, Levels};
use log::MutationLog;
use prorp_types::{EventKind, ProrpError, Seconds, Timestamp};
use run::{Entry, Run};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for one [`LsmHistory`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LsmConfig {
    /// Flush trigger: the number of point versions (inserts) the log
    /// tail buffers before it is sorted into a run.  Small by default
    /// (32): about one store in nine of a simulated fleet ever fills it,
    /// and a busy one goes through flushes and several compaction rounds.
    pub memtable_cap: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig { memtable_cap: 32 }
    }
}

/// Cumulative write/compaction accounting for one store.
///
/// Deterministic: the wall-clock figure lives outside this struct
/// ([`LsmHistory::compaction_stall_ns`]) precisely so this one can stay
/// `Eq`-comparable.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LsmMetrics {
    /// Logical bytes written: 16 B per insert and 16 B per trimmed
    /// tuple — the workload the caller requested, independent of how
    /// the store encodes it (a trim pass *physically* writes only one
    /// range-tombstone record, however many tuples it covers).
    pub logical_write_bytes: usize,
    /// Physical bytes written by flushes of the log tail.
    pub flushed_bytes: usize,
    /// Physical bytes re-written by compaction merges.
    pub compacted_bytes: usize,
    /// Bytes appended to the write-ahead log (before truncations).
    pub wal_appended_bytes: usize,
    /// Number of flushes.
    pub flushes: usize,
    /// Number of compaction merges.
    pub compactions: usize,
    /// Range tombstones recorded by Algorithm 3 passes.
    pub range_tombstones: usize,
    /// Versions dropped by tombstone garbage collection at merges.
    pub gc_dropped: usize,
    /// Whole runs dropped because one tombstone covered them entirely.
    pub runs_dropped: usize,
}

impl LsmMetrics {
    /// Write amplification: physical bytes written (flush + compaction)
    /// per logical byte.  `0.0` before any write.
    pub fn write_amplification(&self) -> f64 {
        if self.logical_write_bytes == 0 {
            0.0
        } else {
            (self.flushed_bytes + self.compacted_bytes) as f64 / self.logical_write_bytes as f64
        }
    }

    fn absorb_effort(&mut self, effort: CompactionEffort) {
        self.compacted_bytes += effort.bytes_written;
        self.compactions += effort.merges;
        self.gc_dropped += effort.gc_dropped;
        self.runs_dropped += effort.runs_dropped;
    }
}

/// The LSM/MVCC implementation of the history store: the shared
/// [`LiveView`] inline (every live read is served from it; its version
/// *is* the latest seqno, so a mutation count and a snapshot seqno are
/// the same number) over the boxed physical engine — cold on the
/// read path, and boxed so every per-database arena entry stays small.
#[derive(Clone, Debug)]
pub struct LsmHistory {
    view: LiveView,
    cold: Box<Physical>,
}

/// What only the LSM has: mutation log, runs, tombstones and ledgers.
/// [`LsmHistory::scan_visible`] re-derives the visible set from this
/// alone — the independent reference the view is audited against.
#[derive(Clone, Debug)]
struct Physical {
    config: LsmConfig,
    /// Every mutation, written once: its unflushed tail is the write
    /// buffer (newest versions) and the WAL's coverage, the whole of it
    /// the [`TimeTravel::seqno_as_of`] timeline.
    log: MutationLog,
    /// The immutable-run hierarchy (older versions).
    runs: Levels,
    /// Range tombstones recorded by Algorithm 3 passes, seqno-ascending.
    trims: Vec<RangeTombstone>,
    /// Write/compaction accounting (deterministic, `Eq`-comparable).
    metrics: LsmMetrics,
    /// Wall-clock nanoseconds the mutation path spent compacting
    /// (volatile).
    stall_ns: u64,
}

impl Default for LsmHistory {
    fn default() -> Self {
        LsmHistory::new()
    }
}

impl LsmHistory {
    /// An empty store with default tuning.
    pub fn new() -> Self {
        LsmHistory::with_config(LsmConfig::default())
    }

    /// An empty store with explicit tuning knobs.
    pub fn with_config(config: LsmConfig) -> Self {
        let cap = config.memtable_cap.max(1);
        LsmHistory {
            view: LiveView::new(),
            cold: Box::new(Physical {
                config: LsmConfig { memtable_cap: cap },
                log: MutationLog::default(),
                runs: Levels::new(cap * compaction::L0_RUN_LIMIT),
                trims: Vec::new(),
                metrics: LsmMetrics::default(),
                stall_ns: 0,
            }),
        }
    }

    /// The store's tuning knobs.
    pub fn config(&self) -> LsmConfig {
        self.cold.config
    }

    /// Cumulative write/compaction accounting.
    pub fn metrics(&self) -> LsmMetrics {
        self.cold.metrics
    }

    /// Wall-clock nanoseconds the mutation path spent compacting: every
    /// merge runs inline at the flush that triggers it — the
    /// `storage_bench` stall metric.
    pub fn compaction_stall_ns(&self) -> u64 {
        self.cold.stall_ns
    }

    /// The write-ahead log covering the unflushed mutations, rendered
    /// from the mutation log.
    pub fn wal(&self) -> WriteAheadLog {
        self.cold.log.wal()
    }

    /// Number of non-empty immutable runs.
    pub fn run_count(&self) -> usize {
        self.cold.runs.run_count()
    }

    /// The range tombstones recorded so far, seqno-ascending.
    pub fn trims(&self) -> &[RangeTombstone] {
        &self.cold.trims
    }

    /// Largest tombstone seqno whose covered versions were dropped by a
    /// garbage-collecting merge (0 before any GC).  Snapshots
    /// *reconstructed* at seqnos below this are best-effort; a snapshot
    /// taken before the merge is its own materialised view and stays
    /// exact.
    pub fn gc_floor(&self) -> u64 {
        self.cold.runs.gc_floor()
    }

    /// Walk visible `(key, value)` pairs with `lo <= key <= hi` at
    /// seqno `at`, ascending; stop early when `f` returns `false`.
    /// Visibility is the newest of (point version, covering range
    /// tombstone) at or below `at` — the cold path behind snapshot
    /// reconstruction and the invariant audit.
    fn scan_visible<F: FnMut(i64, i64) -> bool>(&self, lo: i64, hi: i64, at: u64, mut f: F) {
        if lo > hi {
            return; // e.g. an empty range between adjacent keys
        }
        // Sources newest→oldest: the unflushed log tail is one more run.
        let tail = self.cold.log.sorted_tail();
        let runs = self.cold.runs.iter_newest_first().map(|run| run.entries());
        let sources: Vec<&[Entry]> = std::iter::once(tail.as_slice()).chain(runs).collect();
        let mut cursors: Vec<usize> = sources
            .iter()
            .map(|entries| entries.partition_point(|e| e.key < lo))
            .collect();
        loop {
            // Smallest head key across all sources, bounded by `hi`.
            let heads = sources.iter().zip(&cursors);
            let heads = heads.filter_map(|(entries, &cur)| entries.get(cur));
            let Some(key) = heads.map(|e| e.key).filter(|&k| k <= hi).min() else {
                break;
            };
            // Resolve point visibility: first source (newest-first)
            // holding a version of `key` at or below `at` wins.
            let mut verdict: Option<(u64, Option<i64>)> = None;
            for (entries, cur) in sources.iter().zip(&mut cursors) {
                let mut hit: Option<(u64, Option<i64>)> = None;
                while let Some(e) = entries.get(*cur) {
                    if e.key != key {
                        break;
                    }
                    if e.seqno <= at {
                        hit = Some((e.seqno, (!e.tombstone).then_some(e.value)));
                    }
                    *cur += 1;
                }
                if verdict.is_none() {
                    verdict = hit;
                }
            }
            // A range tombstone newer than the winning point version
            // deletes the key; a point version newer than every
            // covering tombstone (a re-insert) survives.
            if let Some((win_seq, Some(value))) = verdict {
                let trimmed = tombstone::newest_covering(&self.cold.trims, key, at)
                    .is_some_and(|t| t > win_seq);
                if !trimmed && !f(key, value) {
                    return;
                }
            }
        }
    }

    /// Flush the log tail into a fresh L0 run and move the flush mark
    /// past it (the WAL's truncation), compacting the hierarchy inline
    /// and charging the time to the stall ledger.
    fn flush(&mut self) -> Result<(), ProrpError> {
        if self.cold.log.is_empty() {
            return Ok(());
        }
        let (run, bytes) = Run::build(self.cold.log.sorted_tail())?;
        self.cold.metrics.flushed_bytes += bytes;
        self.cold.metrics.flushes += 1;
        let t0 = Instant::now();
        let effort = self.cold.runs.push_flush(Arc::new(run), &self.cold.trims)?;
        self.cold.stall_ns += t0.elapsed().as_nanos() as u64;
        self.cold.metrics.absorb_effort(effort);
        // The flushed versions are durable in runs now; the WAL has
        // nothing left to cover.
        self.cold.log.mark_flushed();
        Ok(())
    }

    fn maybe_flush(&mut self) {
        if self.cold.log.len() >= self.cold.config.memtable_cap {
            self.flush()
                .expect("page encoding of a sorted run cannot fail");
        }
    }

    /// The one write a mutation makes: push it onto the log at the seqno
    /// the view just moved to, and charge the WAL ledger the bytes its
    /// record renders to.
    fn append(&mut self, applied_at: i64, mutation: WalRecord) {
        self.cold
            .log
            .push(applied_at, self.view.version(), mutation);
        self.cold.metrics.wal_appended_bytes += wal::RECORD_LEN;
    }

    /// Rebuild from backup page records: the tuples become one base run
    /// at seqno 0, matching the B+Tree restore contract (version resets
    /// to 0, clock index unconfigured, no time-travel past the restore).
    pub(crate) fn from_records(records: &[Record]) -> Result<Self, ProrpError> {
        let mut store = LsmHistory::new();
        store.view = LiveView::from_records(records)?;
        let entries: Vec<Entry> = records
            .iter()
            .map(|r| Entry {
                key: r.key,
                seqno: 0,
                value: r.value,
                tombstone: false,
            })
            .collect();
        let (run, _) = Run::build(entries)?;
        store.cold.runs.install_base(run);
        Ok(store)
    }
}

impl HistoryRead for LsmHistory {
    fn view(&self) -> &LiveView {
        &self.view
    }
}

impl HistoryStore for LsmHistory {
    /// Algorithm 2 — `sys.InsertHistory(@time, @type)`: once the view's
    /// `IF NOT EXISTS` probe passes (no run probes),
    /// one log record at the new seqno.
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        if !self.view.insert(ts, kind) {
            return false;
        }
        let key = ts.as_secs();
        let event_type = i64::from(kind.as_i32());
        self.append(
            key,
            WalRecord::Insert {
                ts: key,
                event_type,
            },
        );
        self.cold.metrics.logical_write_bytes += page::RECORD_SIZE;
        self.maybe_flush();
        true
    }

    /// Algorithm 3 — `sys.DeleteOldHistory(@h, @now, @old OUTPUT)` as a
    /// single [`RangeTombstone`] over the doomed range the view computed:
    /// `O(1)` physical work per pass, however many tuples it covers.
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        let (outcome, doomed) = self.view.trim(h, now);
        if let Some((min_ts, history_start)) = doomed {
            let record = WalRecord::DeleteRange {
                min: min_ts,
                history_start,
            };
            self.append(now.as_secs(), record);
            let tomb = RangeTombstone {
                lo: min_ts + 1,
                hi: history_start,
                seqno: self.view.version(),
            };
            self.cold.trims.push(tomb);
            // Logical accounting stays per tuple — the pass logically
            // deletes `deleted` records, so write amplification remains
            // comparable across backends.  Physically only the single
            // tombstone record hits the log and the flush path.
            self.cold.metrics.logical_write_bytes += outcome.deleted * page::RECORD_SIZE;
            self.cold.metrics.range_tombstones += 1;
        }
        outcome
    }

    fn configure_slot_index(&mut self, period: Seconds, _slot_len: Seconds) {
        self.view.configure_clock_index(period);
    }

    /// Audit the store's structural invariants: run shape and seqno
    /// discipline, the view against a from-scratch merged rebuild, and
    /// the log's monotonicity.
    fn check_invariants(&self) {
        self.cold.runs.check_invariants();
        if !self.cold.log.is_empty() {
            let newest_on_runs = self
                .cold
                .runs
                .iter_newest_first()
                .map(|r| r.max_seqno())
                .max()
                .unwrap_or(0);
            assert!(
                self.cold.log.min_seqno() > newest_on_runs,
                "buffered seqnos must be strictly newer than every run"
            );
            assert!(self.cold.log.max_seqno() <= self.view.version());
        }
        assert!(
            self.cold.trims.windows(2).all(|w| w[0].seqno < w[1].seqno),
            "range tombstones must be seqno-ascending"
        );
        let mut visible = Vec::new();
        self.scan_visible(i64::MIN, i64::MAX, self.view.version(), |k, v| {
            visible.push((k, v));
            true
        });
        self.view.audit(visible.into_iter(), "the merged scan");
        self.cold.log.check_invariants(self.view.version());
    }
}

impl TimeTravel for LsmHistory {
    fn latest_seqno(&self) -> u64 {
        self.view.version()
    }

    fn seqno_as_of(&self, at: Timestamp) -> u64 {
        self.cold.log.seqno_as_of(at.as_secs())
    }

    fn snapshot(&self, seqno: u64) -> LsmSnapshot {
        let at = seqno.min(self.view.version());
        if at == self.view.version() {
            // The visible set at the latest seqno *is* the maintained
            // view — no merged scan.
            return LsmSnapshot::new(self.view.frozen());
        }
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        self.scan_visible(i64::MIN, i64::MAX, at, |k, v| {
            keys.push(k);
            vals.push(v);
            true
        });
        LsmSnapshot::new(LiveView::from_sorted(keys, vals, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_types::ActivityEvent;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn tiny() -> LsmHistory {
        // Cap 4 so a handful of inserts exercises flush + compaction.
        LsmHistory::with_config(LsmConfig { memtable_cap: 4 })
    }

    #[test]
    fn insert_is_idempotent_per_timestamp() {
        let mut h = tiny();
        assert!(h.insert_history(t(100), EventKind::Start));
        assert!(!h.insert_history(t(100), EventKind::End));
        assert_eq!(h.len(), 1);
        assert_eq!(h.events()[0].kind, EventKind::Start);
        h.check_invariants();
    }

    #[test]
    fn flush_and_compaction_preserve_reads() {
        let mut h = tiny();
        for d in 0..=40 {
            h.insert_history(t(d * 86_400), EventKind::Start);
        }
        assert!(h.metrics().flushes >= 8, "cap 4 must have flushed");
        assert!(h.run_count() >= 1);
        assert_eq!(h.len(), 41);
        assert_eq!(h.min_timestamp(), Some(t(0)));
        assert_eq!(h.max_timestamp(), Some(t(40 * 86_400)));
        assert_eq!(
            h.login_window_stats(t(0), t(40 * 86_400)),
            Some((t(0), t(40 * 86_400), 41))
        );
        h.check_invariants();
    }

    #[test]
    fn delete_old_history_matches_btree_semantics() {
        let mut h = tiny();
        let mut b = crate::HistoryTable::new();
        for d in 0..=40 {
            h.insert_history(t(d * 86_400), EventKind::Start);
            b.insert_history(t(d * 86_400), EventKind::Start);
        }
        let now = t(40 * 86_400);
        let ours = h.delete_old_history(Seconds::days(28), now);
        let theirs = b.delete_old_history(Seconds::days(28), now);
        assert_eq!(ours, theirs);
        assert_eq!(h.len(), b.len());
        assert_eq!(h.logins(), b.logins());
        assert_eq!(h.version(), b.version());
        assert_eq!(h.min_timestamp(), b.min_timestamp());
        assert_eq!(h.events(), b.events());
        h.check_invariants();
    }

    #[test]
    fn a_trim_pass_is_one_range_tombstone() {
        let mut h = tiny();
        for d in 0..=40 {
            h.insert_history(t(d * 86_400), EventKind::Start);
        }
        let logical_before = h.metrics().logical_write_bytes;
        let wal_before = h.metrics().wal_appended_bytes;
        let out = h.delete_old_history(Seconds::days(28), t(40 * 86_400));
        assert_eq!(out.deleted, 11, "days 1..=11 die; day 0 is the lifespan");
        assert_eq!(h.trims().len(), 1, "one tombstone, not 11");
        assert_eq!(h.metrics().range_tombstones, 1);
        assert_eq!(
            h.metrics().logical_write_bytes - logical_before,
            11 * crate::page::RECORD_SIZE,
            "logical accounting stays per trimmed tuple"
        );
        // Physically, the pass appended one WAL record — not eleven.
        let wal_delta = h.metrics().wal_appended_bytes - wal_before;
        assert!(
            wal_delta < 100,
            "a trim pass writes one physical record regardless of coverage \
             (appended {wal_delta} bytes)"
        );
        h.check_invariants();
    }

    #[test]
    fn tombstoned_key_can_be_reinserted() {
        let mut h = tiny();
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
    fn snapshots_freeze_past_states() {
        let mut h = tiny();
        h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        let mut seen: Vec<(u64, usize)> = Vec::new();
        for ts in [10, 20, 30, 40, 50, 60, 70] {
            h.insert_history(t(ts), EventKind::Start);
            seen.push((h.version(), h.len()));
        }
        h.delete_old_history(Seconds(15), t(70));
        seen.push((h.version(), h.len()));
        for &(seqno, live) in &seen {
            let snap = h.snapshot(seqno);
            assert_eq!(snap.seqno(), seqno);
            assert_eq!(snap.len(), live, "snapshot at seqno {seqno}");
            assert!(snap.clock_index().is_none(), "snapshots carry no index");
        }
        // Seqno 0 is the empty store; clamping applies past the end.
        assert_eq!(h.snapshot(0).len(), 0);
        assert_eq!(h.snapshot(u64::MAX).len(), h.len());
    }

    #[test]
    fn time_travel_resolves_applied_timestamps() {
        let mut h = tiny();
        h.insert_history(t(100), EventKind::Start);
        h.insert_history(t(200), EventKind::End);
        // Straggler applied out of order: clamped onto the timeline at
        // its application point (after t=200).
        h.insert_history(t(150), EventKind::Start);
        assert_eq!(h.seqno_as_of(t(99)), 0);
        assert_eq!(h.seqno_as_of(t(100)), 1);
        assert_eq!(h.seqno_as_of(t(199)), 1);
        assert_eq!(h.seqno_as_of(t(200)), 3, "straggler clamps to t=200");
        let as_of_150 = h.snapshot_as_of(t(150));
        assert_eq!(as_of_150.len(), 1, "only the t=100 insert had applied");
        let now = h.snapshot_as_of(t(10_000));
        assert_eq!(now.len(), 3);
    }

    #[test]
    fn restore_resets_version_like_the_btree() {
        let mut h = tiny();
        for ts in [100, 200, 300] {
            h.insert_history(t(ts), EventKind::Start);
        }
        let records: Vec<Record> = h
            .events()
            .iter()
            .map(|e| Record {
                key: e.ts.as_secs(),
                value: i64::from(e.kind.as_i32()),
            })
            .collect();
        let restored = LsmHistory::from_records(&records).unwrap();
        assert_eq!(restored.version(), 0);
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.logins(), h.logins());
        assert!(restored.clock_index().is_none());
        restored.check_invariants();
    }

    #[test]
    fn write_amplification_is_accounted() {
        let mut h = tiny();
        for ts in 0..200 {
            h.insert_history(t(ts * 60), EventKind::Start);
        }
        let m = h.metrics();
        assert_eq!(m.logical_write_bytes, 200 * 16);
        assert!(m.flushed_bytes > 0);
        assert!(m.compactions > 0, "200 inserts at cap 4 must compact");
        assert!(m.write_amplification() > 1.0);
        assert!(m.wal_appended_bytes > 0);
        // The WAL only covers the unflushed log tail.
        assert!(h.wal().byte_len() < m.wal_appended_bytes);
        // Compaction time is charged to the stall ledger.
        assert!(h.compaction_stall_ns() > 0);
    }

    #[test]
    fn slot_index_and_login_cache_survive_trims() {
        let mut h = tiny();
        h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        for &ts in &[500, 100, 300, 200, 400] {
            h.insert_history(t(ts), EventKind::Start);
            h.insert_history(t(ts + 50), EventKind::End);
        }
        assert_eq!(h.logins(), &[100, 200, 300, 400, 500]);
        h.check_invariants();
        let outcome = h.delete_old_history(Seconds(150), t(500));
        assert!(outcome.old);
        assert_eq!(h.logins(), &[100, 400, 500]);
        assert_eq!(h.clock_index().unwrap().entries().len(), 3);
        h.check_invariants();
    }

    #[test]
    fn compaction_gcs_trimmed_versions() {
        let mut h = tiny();
        for ts in 0..40 {
            h.insert_history(t(ts * 100), EventKind::Start);
        }
        let before = {
            let m = h.metrics();
            (m.gc_dropped, m.runs_dropped)
        };
        assert_eq!(before, (0, 0), "no GC without a tombstone");
        let out = h.delete_old_history(Seconds(500), t(3_900));
        assert!(out.deleted > 30);
        // Later inserts trigger flushes and merges that GC the covered
        // versions out of the runs.
        for ts in 40..80 {
            h.insert_history(t(ts * 100), EventKind::Start);
        }
        let m = h.metrics();
        assert!(
            m.gc_dropped > 0 || m.runs_dropped > 0,
            "merges after a trim must garbage-collect: {m:?}"
        );
        assert!(h.gc_floor() > 0);
        h.check_invariants();
    }

    #[test]
    fn background_mode_matches_inline_mode_bit_for_bit() {
        // What the `Background` selector does to a store: attach it to a
        // scheduler, and detach it when the shard finishes.
        let sched = CompactionScheduler::new();
        let mut bg = crate::HistoryBackend::Lsm(tiny());
        bg.attach_compaction(&sched);
        let mut inline = tiny();
        for day in 0..35 {
            for slot in 0..10 {
                let ts = t(day * 86_400 + slot * 600);
                let kind = if slot % 2 == 0 {
                    EventKind::Start
                } else {
                    EventKind::End
                };
                assert_eq!(bg.insert_history(ts, kind), inline.insert_history(ts, kind));
            }
            let now = t(day * 86_400 + 86_399);
            assert_eq!(
                bg.delete_old_history(Seconds::days(7), now),
                inline.delete_old_history(Seconds::days(7), now)
            );
        }
        bg.detach_compaction();
        let crate::HistoryBackend::Lsm(bg) = bg else {
            unreachable!("built on the LSM backend");
        };
        // Both compacted on the mutation path.
        assert!(bg.compaction_stall_ns() > 0);
        assert!(inline.compaction_stall_ns() > 0);
        // Observable state and the physical ledgers agree exactly.
        assert_eq!(bg.events(), inline.events());
        assert_eq!(bg.logins(), inline.logins());
        assert_eq!(bg.version(), inline.version());
        assert_eq!(bg.stats(), inline.stats());
        assert_eq!(bg.metrics(), inline.metrics());
        assert_eq!(bg.run_count(), inline.run_count());
        assert_eq!(bg.gc_floor(), inline.gc_floor());
        bg.check_invariants();
        inline.check_invariants();
    }

    #[test]
    fn stats_are_logical_after_trims() {
        let mut h = tiny();
        let mut b = crate::HistoryTable::new();
        for ts in 0..60 {
            h.insert_history(t(ts * 100), EventKind::Start);
            b.insert_history(t(ts * 100), EventKind::Start);
        }
        h.delete_old_history(Seconds(1_000), t(5_900));
        b.delete_old_history(Seconds(1_000), t(5_900));
        let (hs, bs) = (h.stats(), b.stats());
        assert_eq!(hs.tuples, bs.tuples, "logical tuple counts agree");
        assert_eq!(hs.logical_bytes, bs.logical_bytes);
        assert_eq!(hs.pages, bs.pages, "page figures are logical");
        assert_eq!(hs.page_bytes, bs.page_bytes);
    }
}
