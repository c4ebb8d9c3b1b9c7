//! The LSM/MVCC history engine — `sys.pause_resume_history` as a live
//! view over its own mutation log, with snapshot time-travel.
//!
//! [`LsmHistory`] is a drop-in alternative to the §5
//! [`crate::HistoryTable`]: the Algorithm 2/3 decisions, the window
//! aggregates and the mutation version all come from the one
//! [`LiveView`] both hold, and the testkit's `btree ≡ lsm` differential
//! oracles hold the two to bit-identical observable behaviour.  What the
//! LSM keeps on top is its log (`log.rs`), and what that buys is:
//!
//! * **MVCC versions + monotonic seqnos** — every mutation (insert or
//!   trim) is stamped with the store's sequence number, which *is* the
//!   view's mutation version and the mutation's position in the log.
//!   Nothing is overwritten or collected, so [`LsmHistory::snapshot`]
//!   replays the log to the exact tuple set visible at any past seqno,
//!   and the [`TimeTravel`] mapping resolves simulated timestamps to
//!   seqnos for "as of T" post-mortems (fjall-style `snapshot(seqno)`,
//!   oxibase-style `AS OF`).
//! * **Write path**: a mutation is written once — one 32-byte record
//!   pushed onto the log.  An Algorithm 3 retention pass is one range
//!   delete (`WalRecord::DeleteRange`), however many tuples it covers.
//! * **Read path**: every live read is served by the shared
//!   [`LiveView`] the store holds — the same layer, the same code, as
//!   the §5 table.  Only snapshots and the invariant audit replay the
//!   log.
//!
//! The price is memory: a store keeps one record for every mutation it
//! ever applied, which at the fleet's grain (a few dozen tuples a
//! database, one trim per logout) is a few hundred bytes.

mod log;
pub mod scheduler;
pub mod snapshot;

pub use scheduler::{CompactionMode, CompactionScheduler};
pub use snapshot::{LsmSnapshot, TimeTravel};

use crate::history::DeleteOutcome;
use crate::page::{self, Record};
use crate::store::{HistoryRead, HistoryStore};
use crate::view::LiveView;
use crate::wal::WalRecord;
use log::MutationLog;
use prorp_types::{EventKind, ProrpError, Seconds, Timestamp};

/// Cumulative write accounting for one store.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LsmMetrics {
    /// Logical bytes written: 16 B per insert and 16 B per trimmed
    /// tuple — the workload the caller requested, independent of how
    /// the store encodes it (a trim pass *physically* writes only one
    /// range-delete record, however many tuples it covers).
    pub logical_write_bytes: usize,
    /// Bytes the log's records take as write-ahead-log records: every
    /// byte the store writes.
    pub log_appended_bytes: usize,
    /// Range-delete records logged by Algorithm 3 passes.
    pub range_tombstones: usize,
}

impl LsmMetrics {
    /// Write amplification: log bytes per logical byte.  `0.0` before
    /// any write.
    pub fn write_amplification(&self) -> f64 {
        if self.logical_write_bytes == 0 {
            0.0
        } else {
            self.log_appended_bytes as f64 / self.logical_write_bytes as f64
        }
    }
}

/// The LSM/MVCC implementation of the history store: the shared
/// [`LiveView`] inline (every live read is served from it; its version
/// *is* the latest seqno, so a mutation count and a snapshot seqno are
/// the same number) over the boxed mutation log — cold on the read
/// path, and boxed so every per-database arena entry stays small.
#[derive(Clone, Debug, Default)]
pub struct LsmHistory {
    view: LiveView,
    log: Box<MutationLog>,
}

impl LsmHistory {
    /// An empty store.
    pub fn new() -> Self {
        LsmHistory::default()
    }

    /// Cumulative write accounting.
    pub fn metrics(&self) -> LsmMetrics {
        self.log.metrics()
    }

    /// Rebuild from backup page records: the tuples become the log's
    /// base at seqno 0, matching the B+Tree restore contract (version
    /// resets to 0, clock index unconfigured, no time-travel past the
    /// restore).
    pub(crate) fn from_records(records: &[Record]) -> Result<Self, ProrpError> {
        Ok(LsmHistory {
            view: LiveView::from_records(records)?,
            log: Box::new(MutationLog::restored(records.to_vec())),
        })
    }
}

impl HistoryRead for LsmHistory {
    fn view(&self) -> &LiveView {
        &self.view
    }
}

impl HistoryStore for LsmHistory {
    /// Algorithm 2 — `sys.InsertHistory(@time, @type)`: once the view's
    /// `IF NOT EXISTS` probe passes, one log record at the new seqno.
    fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        if !self.view.insert(ts, kind) {
            return false;
        }
        let key = ts.as_secs();
        let event_type = i64::from(kind.as_i32());
        let record = WalRecord::Insert {
            ts: key,
            event_type,
        };
        self.log.push(key, record, page::RECORD_SIZE);
        true
    }

    /// Algorithm 3 — `sys.DeleteOldHistory(@h, @now, @old OUTPUT)` as a
    /// single range-delete record over the doomed range the view
    /// computed: `O(1)` log work per pass, however many tuples it covers.
    fn delete_old_history(&mut self, h: Seconds, now: Timestamp) -> DeleteOutcome {
        let (outcome, doomed) = self.view.trim(h, now);
        if let Some((min, history_start)) = doomed {
            let record = WalRecord::DeleteRange { min, history_start };
            // Logical accounting stays per tuple — the pass logically
            // deletes `deleted` records, so write amplification remains
            // comparable across backends.
            let logical = outcome.deleted * page::RECORD_SIZE;
            self.log.push(now.as_secs(), record, logical);
        }
        outcome
    }

    fn configure_slot_index(&mut self, period: Seconds, _slot_len: Seconds) {
        self.view.configure_clock_index(period);
    }

    /// Audit the store: the log is time-ascending and ends at the view's
    /// version, and the view is what replaying the whole log into a
    /// plain `BTreeMap` gives — a reference that shares none of the
    /// view's mutation code.
    fn check_invariants(&self) {
        let version = self.view.version();
        self.log.check_invariants(version);
        let replayed = self.log.replay(version);
        self.view.audit(replayed.into_iter(), "the replayed log");
    }
}

impl TimeTravel for LsmHistory {
    fn latest_seqno(&self) -> u64 {
        self.view.version()
    }

    fn seqno_as_of(&self, at: Timestamp) -> u64 {
        self.log.seqno_as_of(at.as_secs())
    }

    fn snapshot(&self, seqno: u64) -> LsmSnapshot {
        let at = seqno.min(self.view.version());
        if at == self.view.version() {
            // The visible set at the latest seqno *is* the maintained
            // view — no replay.
            return LsmSnapshot::new(self.view.frozen());
        }
        let (keys, vals) = self.log.replay(at).into_iter().unzip();
        LsmSnapshot::new(LiveView::from_sorted(keys, vals, at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal;
    use prorp_types::ActivityEvent;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    const DAY: i64 = 86_400;

    #[test]
    fn insert_is_idempotent_per_timestamp() {
        let mut h = LsmHistory::new();
        assert!(h.insert_history(t(100), EventKind::Start));
        assert!(!h.insert_history(t(100), EventKind::End));
        assert_eq!(h.len(), 1);
        assert_eq!(h.events()[0].kind, EventKind::Start);
        h.check_invariants();
    }

    #[test]
    fn a_long_history_reads_back() {
        let mut h = LsmHistory::new();
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
    fn delete_old_history_matches_btree_semantics() {
        let mut h = LsmHistory::new();
        let mut b = crate::HistoryTable::new();
        for d in 0..=40 {
            h.insert_history(t(d * DAY), EventKind::Start);
            b.insert_history(t(d * DAY), EventKind::Start);
        }
        let now = t(40 * DAY);
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
        let mut h = LsmHistory::new();
        for d in 0..=40 {
            h.insert_history(t(d * DAY), EventKind::Start);
        }
        let before = h.metrics();
        let out = h.delete_old_history(Seconds::days(28), t(40 * DAY));
        assert_eq!(out.deleted, 11, "days 1..=11 die; day 0 is the lifespan");
        let after = h.metrics();
        assert_eq!(after.range_tombstones, 1, "one range delete, not 11");
        assert_eq!(
            after.logical_write_bytes - before.logical_write_bytes,
            11 * crate::page::RECORD_SIZE,
            "logical accounting stays per trimmed tuple"
        );
        assert_eq!(
            after.log_appended_bytes - before.log_appended_bytes,
            wal::RECORD_LEN,
            "a trim pass writes one record regardless of coverage"
        );
        h.check_invariants();
    }

    #[test]
    fn tombstoned_key_can_be_reinserted() {
        let mut h = LsmHistory::new();
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
        let mut h = LsmHistory::new();
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
    fn a_snapshot_below_a_collected_trim_is_exact() {
        // Twelve logins a day, two hours apart, with the engines' 28-day
        // trim at every midnight, for 60 days: by the end the trims have
        // deleted most of what the store held on day 30.
        let mut h = LsmHistory::new();
        let mut day_30 = None;
        for day in 0..60 {
            let midnight = day * DAY;
            if day == 30 {
                day_30 = Some((h.version(), h.events()));
            }
            h.delete_old_history(Seconds::days(28), t(midnight));
            for slot in 0..12 {
                h.insert_history(t(midnight + slot * 7_200), EventKind::Start);
            }
        }
        let (seqno, held) = day_30.expect("the loop passes day 30");
        assert_eq!(held.len(), 349);
        assert_eq!(h.snapshot(seqno).events(), held);
        assert_eq!(h.snapshot_as_of(t(30 * DAY - 1)).events(), held);
        h.check_invariants();
    }

    #[test]
    fn time_travel_resolves_applied_timestamps() {
        let mut h = LsmHistory::new();
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
        let mut h = LsmHistory::new();
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
        let mut restored = LsmHistory::from_records(&records).unwrap();
        assert_eq!(restored.version(), 0);
        assert_eq!(restored.len(), 3);
        assert_eq!(restored.logins(), h.logins());
        assert!(restored.clock_index().is_none());
        restored.check_invariants();
        // The restored tuples are the base every later snapshot replays.
        restored.insert_history(t(400), EventKind::End);
        restored.delete_old_history(Seconds(150), t(400));
        assert_eq!(restored.snapshot(0).events(), h.events());
        assert_eq!(restored.snapshot(1).len(), 4);
        restored.check_invariants();
    }

    #[test]
    fn write_amplification_is_accounted() {
        let mut h = LsmHistory::new();
        for ts in 0..200 {
            h.insert_history(t(ts * 60), EventKind::Start);
        }
        let m = h.metrics();
        assert_eq!(m.logical_write_bytes, 200 * 16);
        assert_eq!(m.log_appended_bytes, 200 * wal::RECORD_LEN);
        assert_eq!(m.range_tombstones, 0);
        // One 26-byte record per 16-byte tuple.
        assert!((m.write_amplification() - 26.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn slot_index_and_login_cache_survive_trims() {
        let mut h = LsmHistory::new();
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
    fn background_mode_matches_inline_mode_bit_for_bit() {
        // What the `Background` selector does to a store: attach it to a
        // scheduler, and detach it when the shard finishes.
        let sched = CompactionScheduler::new();
        let mut bg = crate::HistoryBackend::Lsm(LsmHistory::new());
        bg.attach_compaction(&sched);
        let mut inline = LsmHistory::new();
        for day in 0..35 {
            for slot in 0..10 {
                let ts = t(day * DAY + slot * 600);
                let kind = if slot % 2 == 0 {
                    EventKind::Start
                } else {
                    EventKind::End
                };
                assert_eq!(bg.insert_history(ts, kind), inline.insert_history(ts, kind));
            }
            let now = t(day * DAY + 86_399);
            assert_eq!(
                bg.delete_old_history(Seconds::days(7), now),
                inline.delete_old_history(Seconds::days(7), now)
            );
        }
        bg.detach_compaction();
        let crate::HistoryBackend::Lsm(bg) = bg else {
            unreachable!("built on the LSM backend");
        };
        assert_eq!(bg.events(), inline.events());
        assert_eq!(bg.logins(), inline.logins());
        assert_eq!(bg.version(), inline.version());
        assert_eq!(bg.stats(), inline.stats());
        assert_eq!(bg.metrics(), inline.metrics());
        for seqno in 0..=bg.version() {
            assert_eq!(bg.snapshot(seqno), inline.snapshot(seqno), "seqno {seqno}");
        }
        bg.check_invariants();
        inline.check_invariants();
    }

    #[test]
    fn stats_are_logical_after_trims() {
        let mut h = LsmHistory::new();
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
