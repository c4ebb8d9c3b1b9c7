//! The store's one mutation log — with the base a restore installs, the
//! whole of what an [`super::LsmHistory`] keeps beside its view.
//!
//! Every mutation — an Algorithm 2 insert or an Algorithm 3 trim — is
//! pushed here once, as one [`LogRecord`]: the [`WalRecord`] a
//! write-ahead log carries for it and the instant it applied.  A
//! record's seqno is its position + 1, and nothing is ever dropped, so:
//!
//! * **time travel is a replay** — the tuple set visible at seqno `s` is
//!   the base with the first `s` records applied
//!   ([`MutationLog::replay`]), exact at every seqno;
//! * **the timeline is the log** — `applied_at` is clamped monotone, so
//!   [`MutationLog::seqno_as_of`] is a binary search over the records;
//! * **the write ledger is the log** — [`MutationLog::metrics`] counts
//!   its records.

use super::LsmMetrics;
use crate::page::Record;
use crate::wal::{self, WalRecord};
use std::collections::BTreeMap;

/// One logged mutation: what the WAL carries for it, and when it applied.
#[derive(Clone, Copy, Debug)]
struct LogRecord {
    /// Simulated time the mutation applied — an insert's key or a trim's
    /// `now`, clamped so the log stays time-ascending (a straggler
    /// insert applies *now*, however old its key is).
    applied_at: i64,
    /// The insert's `(key, value)` or the trim's `(min, history_start)`.
    mutation: WalRecord,
}

/// The append-only mutation log of one [`super::LsmHistory`].
#[derive(Clone, Debug, Default)]
pub(super) struct MutationLog {
    /// The tuples a restore installed at seqno 0, key-ascending (empty
    /// for a store that was never restored).
    base: Vec<Record>,
    /// Every mutation since; `records[i]` took the store to seqno `i + 1`.
    records: Vec<LogRecord>,
    /// Logical bytes the mutations wrote: the one figure the records
    /// cannot give back, as a range delete does not say how many tuples
    /// it covered.
    logical_bytes: usize,
}

impl MutationLog {
    /// An empty log over the key-ascending tuples a restore installed.
    pub fn restored(base: Vec<Record>) -> Self {
        MutationLog {
            base,
            ..MutationLog::default()
        }
    }

    /// Append the next mutation — its seqno is its position + 1 — and
    /// charge the write ledger the `logical_bytes` it wrote.
    pub fn push(&mut self, applied_at: i64, mutation: WalRecord, logical_bytes: usize) {
        let newest = self.records.last().map(|r| r.applied_at);
        self.records.push(LogRecord {
            applied_at: newest.map_or(applied_at, |t| t.max(applied_at)),
            mutation,
        });
        self.logical_bytes += logical_bytes;
    }

    /// The store's write accounting, read off the log.
    pub fn metrics(&self) -> LsmMetrics {
        let deletes = self.records.iter();
        let deletes = deletes.filter(|r| matches!(r.mutation, WalRecord::DeleteRange { .. }));
        LsmMetrics {
            logical_write_bytes: self.logical_bytes,
            log_appended_bytes: self.records.len() * wal::RECORD_LEN,
            range_tombstones: deletes.count(),
        }
    }

    /// Newest seqno applied at or before `at` (0 when nothing was): the
    /// number of records at or before it, as seqnos are positions.
    pub fn seqno_as_of(&self, at: i64) -> u64 {
        self.records.partition_point(|r| r.applied_at <= at) as u64
    }

    /// The tuple set visible at `seqno` (clamped to the log's end) as
    /// `key → event_type`: the base, then each of the first `seqno`
    /// records in order — an insert adds its tuple, a trim removes every
    /// key strictly between its bounds.
    pub fn replay(&self, seqno: u64) -> BTreeMap<i64, i64> {
        let mut visible: BTreeMap<i64, i64> = self.base.iter().map(|r| (r.key, r.value)).collect();
        let upto = self.records.len().min(seqno as usize);
        for r in &self.records[..upto] {
            match r.mutation {
                WalRecord::Insert { ts, event_type } => {
                    visible.insert(ts, event_type);
                }
                WalRecord::DeleteRange { min, history_start } => {
                    visible.retain(|&key, _| key <= min || key >= history_start);
                }
            }
        }
        visible
    }

    /// Assert the log is time-ascending and ends at `version`.
    pub fn check_invariants(&self, version: u64) {
        assert!(
            self.records
                .windows(2)
                .all(|w| w[0].applied_at <= w[1].applied_at),
            "the log must be monotone in time"
        );
        assert_eq!(
            self.records.len() as u64,
            version,
            "the log must end at the latest seqno"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::{LsmHistory, TimeTravel};
    use super::*;
    use crate::store::{HistoryRead, HistoryStore};
    use crate::HistoryTable;
    use proptest::prelude::*;
    use prorp_types::{ActivityEvent, EventKind, Seconds, Timestamp};

    #[test]
    fn a_record_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<LogRecord>() <= 32);
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// An in-order insert `dt` seconds after the newest key.
        Next(i64, bool),
        /// An out-of-order insert `back` seconds before the newest key:
        /// a fresh key, a visible one (suppressed) or a trimmed one.
        Straggler(i64, bool),
        /// A second insert of the newest key (suppressed by the view).
        Duplicate,
        /// An Algorithm 3 pass keeping `h` seconds; deletes or does not.
        Trim(i64),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            6 => (1i64..9, any::<bool>()).prop_map(|(dt, login)| Op::Next(dt, login)),
            2 => (1i64..41, any::<bool>()).prop_map(|(back, login)| Op::Straggler(back, login)),
            1 => Just(Op::Duplicate),
            2 => (0i64..61).prop_map(Op::Trim),
        ]
    }

    fn kind(login: bool) -> EventKind {
        if login {
            EventKind::Start
        } else {
            EventKind::End
        }
    }

    /// Replay `ops` against an LSM store and a B+Tree table, comparing
    /// after every op: each seqno's snapshot against the table's state at
    /// that seqno, the timeline against `(applied_at, seqno)` pairs kept
    /// beside it, and the write ledger against the mutations made.
    fn replay(ops: &[Op]) -> Result<(), TestCaseError> {
        let mut store = LsmHistory::new();
        // `visible[s]`: the tuple set after the first `s` mutations, from
        // the table run in step; `timeline`: when each seqno applied.
        let mut model = HistoryTable::new();
        let mut visible: Vec<Vec<ActivityEvent>> = vec![Vec::new()];
        let mut timeline: Vec<(i64, u64)> = Vec::new();
        let mut trims = 0;
        let mut clock = 0i64;
        for op in ops {
            let before = store.version();
            let applied_at = match *op {
                Op::Next(dt, login) => {
                    clock += dt;
                    let stored = store.insert_history(Timestamp(clock), kind(login));
                    prop_assert_eq!(stored, model.insert_history(Timestamp(clock), kind(login)));
                    clock
                }
                Op::Straggler(back, login) => {
                    let ts = Timestamp(clock - back);
                    let stored = store.insert_history(ts, kind(login));
                    prop_assert_eq!(stored, model.insert_history(ts, kind(login)));
                    clock - back
                }
                Op::Duplicate => {
                    let stored = store.insert_history(Timestamp(clock), EventKind::Start);
                    prop_assert_eq!(
                        stored,
                        model.insert_history(Timestamp(clock), EventKind::Start)
                    );
                    clock
                }
                Op::Trim(h) => {
                    let outcome = store.delete_old_history(Seconds(h), Timestamp(clock));
                    prop_assert_eq!(
                        outcome,
                        model.delete_old_history(Seconds(h), Timestamp(clock))
                    );
                    trims += usize::from(outcome.deleted > 0);
                    clock
                }
            };
            if store.version() > before {
                prop_assert_eq!(store.version(), before + 1);
                visible.push(model.events());
                let clamped = timeline
                    .last()
                    .map_or(applied_at, |&(t, _)| t.max(applied_at));
                timeline.push((clamped, store.version()));
            }
            store.check_invariants();

            let metrics = store.metrics();
            prop_assert_eq!(
                metrics.log_appended_bytes,
                store.version() as usize * wal::RECORD_LEN
            );
            prop_assert_eq!(metrics.range_tombstones, trims);
            for at in -42..=clock + 1 {
                let cut = timeline.partition_point(|&(t, _)| t <= at);
                let want = cut.checked_sub(1).map_or(0, |i| timeline[i].1);
                prop_assert_eq!(store.seqno_as_of(Timestamp(at)), want, "seqno as of {}", at);
            }
            for seqno in 0..=store.version() {
                let snapshot = store.snapshot(seqno);
                prop_assert_eq!(snapshot.seqno(), seqno);
                prop_assert_eq!(
                    &snapshot.events(),
                    &visible[seqno as usize],
                    "snapshot at seqno {}",
                    seqno
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Replaying the log to any seqno gives the table's state at that
        /// seqno, and the log is the time-travel timeline.
        #[test]
        fn the_log_replays_every_state_the_table_held(
            ops in prop::collection::vec(op_strategy(), 1..100),
        ) {
            replay(&ops)?;
        }
    }
}
