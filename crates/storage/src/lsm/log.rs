//! The store's one mutation log.
//!
//! Every mutation — an Algorithm 2 insert or an Algorithm 3 trim — is
//! pushed here once, as one [`LogRecord`], and everything that used to
//! keep its own copy reads this one:
//!
//! * **the write buffer** — the inserts past the flush mark are the
//!   buffered point versions: [`MutationLog::len`] counts them for the
//!   flush trigger and [`MutationLog::sorted_tail`] hands them, as
//!   `(key, seqno)`-sorted [`Entry`]s, to [`super::run::Run::build`] at a
//!   flush and to the merged scan as its newest source;
//! * **the write-ahead log** — the records past the flush mark are what
//!   the WAL covers; [`MutationLog::wal`] renders its byte image when
//!   somebody asks for it;
//! * **the time-travel timeline** — `applied_at` is clamped monotone
//!   and a record's seqno is its position + 1, so
//!   [`MutationLog::seqno_as_of`] is a binary search over the log
//!   itself.  That is also why a flush can shrink the records it covers
//!   to their `applied_at` column: nothing else of them is read again.

use super::run::Entry;
use crate::wal::{WalRecord, WriteAheadLog};

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
    /// `applied_at` of every flushed mutation; index `i` was seqno `i + 1`.
    flushed_at: Vec<i64>,
    /// The mutations since the last flush; `tail[i]` is seqno
    /// `flushed_at.len() + i + 1`.
    tail: Vec<LogRecord>,
    /// Inserts in `tail` — the buffered point versions.  (A trim buffers
    /// none: its range tombstone lives in the store's `trims`.)
    points: usize,
}

impl MutationLog {
    /// Append the mutation that took the store to `seqno`.
    ///
    /// # Panics
    ///
    /// Panics unless `seqno` is the next log position: every reader
    /// derives a record's seqno from where it sits.
    pub fn push(&mut self, applied_at: i64, seqno: u64, mutation: WalRecord) {
        assert_eq!(seqno, self.last_seqno() + 1, "a seqno is a log position");
        let newest = self.tail.last().map(|r| r.applied_at);
        let newest = newest.or(self.flushed_at.last().copied());
        self.tail.push(LogRecord {
            applied_at: newest.map_or(applied_at, |t| t.max(applied_at)),
            mutation,
        });
        self.points += usize::from(matches!(mutation, WalRecord::Insert { .. }));
    }

    /// Number of buffered point versions — the flush trigger.
    pub fn len(&self) -> usize {
        self.points
    }

    /// Whether no point version is buffered.
    pub fn is_empty(&self) -> bool {
        self.points == 0
    }

    /// Seqno of the newest logged mutation (0 for an empty log).
    pub fn last_seqno(&self) -> u64 {
        (self.flushed_at.len() + self.tail.len()) as u64
    }

    /// The buffered point versions in log (seqno) order.
    fn points(&self) -> impl DoubleEndedIterator<Item = Entry> + '_ {
        let base = self.flushed_at.len();
        self.tail.iter().enumerate().filter_map(move |(i, r)| {
            let WalRecord::Insert { ts, event_type } = r.mutation else {
                return None;
            };
            Some(Entry {
                key: ts,
                seqno: (base + i + 1) as u64,
                value: event_type,
                tombstone: false,
            })
        })
    }

    /// Smallest buffered seqno (`u64::MAX` when none is).
    pub fn min_seqno(&self) -> u64 {
        self.points().next().map_or(u64::MAX, |e| e.seqno)
    }

    /// Largest buffered seqno (0 when none is).
    pub fn max_seqno(&self) -> u64 {
        self.points().next_back().map_or(0, |e| e.seqno)
    }

    /// The buffered point versions, `(key, seqno)`-sorted: a run's worth
    /// of entries, newer than every run.  In-order inserts arrive sorted
    /// and the sort returns after one pass; only a straggler makes it
    /// move anything.
    pub fn sorted_tail(&self) -> Vec<Entry> {
        let mut entries = Vec::with_capacity(self.points);
        entries.extend(self.points());
        entries.sort_unstable_by_key(|e| (e.key, e.seqno));
        entries
    }

    /// Move the flush mark to the end: the tail's versions are in a run
    /// now, so only their place on the timeline is kept.
    pub fn mark_flushed(&mut self) {
        self.flushed_at
            .extend(self.tail.iter().map(|r| r.applied_at));
        self.tail.clear();
        self.points = 0;
    }

    /// The write-ahead log image covering the unflushed tail, rendered
    /// from the records.
    pub fn wal(&self) -> WriteAheadLog {
        let mut wal = WriteAheadLog::new();
        for r in &self.tail {
            wal.append(r.mutation);
        }
        wal
    }

    /// Newest seqno applied at or before `at` (0 when nothing was): the
    /// number of records at or before it, as seqnos are positions.
    pub fn seqno_as_of(&self, at: i64) -> u64 {
        let mut cut = self.flushed_at.partition_point(|&t| t <= at);
        if cut == self.flushed_at.len() {
            cut += self.tail.partition_point(|r| r.applied_at <= at);
        }
        cut as u64
    }

    /// Assert the log is time-ascending and ends at `version`, and that
    /// its point count is the number of inserts in the tail.
    pub fn check_invariants(&self, version: u64) {
        let times = self.flushed_at.iter().copied();
        let times: Vec<i64> = times
            .chain(self.tail.iter().map(|r| r.applied_at))
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "the log must be monotone in time"
        );
        assert_eq!(
            self.last_seqno(),
            version,
            "the log must end at the latest seqno"
        );
        assert_eq!(self.points().count(), self.points);
    }
}

#[cfg(test)]
mod tests {
    use super::super::memtable::MemTable;
    use super::super::{LsmConfig, LsmHistory, TimeTravel};
    use super::*;
    use crate::store::{HistoryRead, HistoryStore};
    use crate::HistoryTable;
    use proptest::prelude::*;
    use prorp_types::{ActivityEvent, EventKind, Seconds, Timestamp};

    #[test]
    fn a_record_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<LogRecord>() <= 32);
    }

    /// What the store kept per mutation before the log — a memtable of
    /// version chains, an eagerly encoded WAL and a timeline of
    /// `(applied_at, seqno)` pairs — driven the way the store drove them.
    struct Oracle {
        cap: usize,
        memtable: MemTable,
        wal: WriteAheadLog,
        timeline: Vec<(i64, u64)>,
    }

    impl Oracle {
        fn log_mutation(&mut self, record: WalRecord, applied_at: i64, seqno: u64) {
            self.wal.append(record);
            let clamped = self
                .timeline
                .last()
                .map_or(applied_at, |&(t, _)| t.max(applied_at));
            self.timeline.push((clamped, seqno));
        }

        fn insert(&mut self, ts: i64, event_type: i64, seqno: u64) {
            self.log_mutation(WalRecord::Insert { ts, event_type }, ts, seqno);
            self.memtable.add(ts, seqno, event_type, false);
            if self.memtable.len() >= self.cap {
                self.memtable.drain_sorted();
                self.wal.checkpoint();
            }
        }

        fn seqno_as_of(&self, at: i64) -> u64 {
            let cut = self.timeline.partition_point(|&(t, _)| t <= at);
            cut.checked_sub(1).map_or(0, |i| self.timeline[i].1)
        }
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

    /// Replay `ops` against an LSM store at `cap`, the oracle structures
    /// and a B+Tree table, comparing after every op.
    fn replay(cap: usize, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut store = LsmHistory::with_config(LsmConfig { memtable_cap: cap });
        let mut oracle = Oracle {
            cap,
            memtable: MemTable::new(),
            wal: WriteAheadLog::new(),
            timeline: Vec::new(),
        };
        // `visible[s]`: the tuple set after the first `s` mutations, from
        // the B+Tree backend run in step.
        let mut model = HistoryTable::new();
        let mut visible: Vec<Vec<ActivityEvent>> = vec![Vec::new()];
        let mut clock = 0i64;
        for op in ops {
            let insert = match *op {
                Op::Next(dt, login) => {
                    clock += dt;
                    Some((clock, login))
                }
                Op::Straggler(back, login) => Some((clock - back, login)),
                Op::Duplicate => Some((clock, true)),
                Op::Trim(_) => None,
            };
            let before = store.version();
            if let Some((ts, login)) = insert {
                let stored = store.insert_history(Timestamp(ts), kind(login));
                prop_assert_eq!(stored, model.insert_history(Timestamp(ts), kind(login)));
                if stored {
                    oracle.insert(ts, i64::from(kind(login).as_i32()), store.version());
                }
            } else if let Op::Trim(h) = *op {
                let min = store.min_timestamp();
                let outcome = store.delete_old_history(Seconds(h), Timestamp(clock));
                prop_assert_eq!(
                    outcome,
                    model.delete_old_history(Seconds(h), Timestamp(clock))
                );
                if outcome.deleted > 0 {
                    let record = WalRecord::DeleteRange {
                        min: min.expect("a trim that deleted had a minimum").as_secs(),
                        history_start: clock - h,
                    };
                    oracle.log_mutation(record, clock, store.version());
                }
            }
            if store.version() > before {
                prop_assert_eq!(store.version(), before + 1);
                visible.push(model.events());
            }
            store.check_invariants();

            let log = &store.cold.log;
            prop_assert_eq!(log.len(), oracle.memtable.len());
            prop_assert_eq!(log.is_empty(), oracle.memtable.is_empty());
            prop_assert_eq!(log.min_seqno(), oracle.memtable.min_seqno());
            prop_assert_eq!(log.max_seqno(), oracle.memtable.max_seqno());
            let tail = log.sorted_tail();
            prop_assert_eq!(&tail, &oracle.memtable.clone().drain_sorted());

            let wal = store.wal();
            prop_assert_eq!(wal.as_bytes(), oracle.wal.as_bytes());
            prop_assert_eq!(wal.len(), oracle.wal.len());
            let decoded = WriteAheadLog::decode(wal.as_bytes()).unwrap();
            let first = store.version() - decoded.len() as u64 + 1;
            let mut replayed: Vec<Entry> = (first..)
                .zip(&decoded)
                .filter_map(|(seqno, record)| match *record {
                    WalRecord::Insert { ts, event_type } => Some(Entry {
                        key: ts,
                        seqno,
                        value: event_type,
                        tombstone: false,
                    }),
                    WalRecord::DeleteRange { .. } => None,
                })
                .collect();
            replayed.sort_by_key(|e| (e.key, e.seqno));
            prop_assert_eq!(&replayed, &tail);

            for at in -42..=clock + 1 {
                prop_assert_eq!(
                    store.seqno_as_of(Timestamp(at)),
                    oracle.seqno_as_of(at),
                    "seqno as of {}",
                    at
                );
            }
            // Below the GC floor a reconstructed snapshot is best-effort.
            for seqno in store.gc_floor()..=store.version() {
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

        /// The log is the memtable, the WAL and the timeline the store
        /// used to keep, at flush boundaries that fall everywhere.
        #[test]
        fn log_matches_the_three_structures_it_replaced(
            ops in prop::collection::vec(op_strategy(), 1..100),
        ) {
            for cap in [1, 4, 32] {
                replay(cap, &ops)?;
            }
        }
    }
}
