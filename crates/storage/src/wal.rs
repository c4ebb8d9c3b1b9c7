//! The history table's mutation log and its write-ahead-log form.
//!
//! §3.3 requires the history store to be durable; §5 leans on "the
//! established backup and restore mechanisms of Azure SQL Database to
//! tackle data loss".  Real engines bridge the gap between backups with
//! a write-ahead log: every mutation is appended (and in a real
//! deployment fsynced) as it is applied, and recovery replays the tail
//! of the log over the last backup image.
//!
//! The log records exactly the two mutations Algorithms 2–3 perform:
//!
//! * [`WalRecord::Insert`] — one `(time_snapshot, event_type)` tuple;
//! * [`WalRecord::DeleteRange`] — the exclusive `(min, history_start)`
//!   range of a `DeleteOldHistory` run.
//!
//! A record has one in-memory form and one on-disk form.  In memory, a
//! table built with [`StorageBackend::Lsm`](crate::StorageBackend::Lsm)
//! keeps every mutation that changed it in its [`MutationLog`]: record
//! `i` takes the table to seqno `i + 1`, which is also its mutation
//! version, and nothing is ever dropped.  On disk ([`WriteAheadLog`]), a record is 26 bytes —
//! magic, body, checksum — and a torn tail (a partial or
//! checksum-failing final record, the normal crash artefact) is
//! truncated rather than treated as corruption.
//!
//! One replay serves every reader of the past: a snapshot at seqno `s`
//! is the log's base with its first `s` records applied
//! ([`MutationLog::snapshot`]), the table's `check_invariants` audits its
//! view against the whole log replayed, and crash recovery
//! ([`HistoryTable::recover`]) rebuilds a table by decoding a
//! [`MutationLog::wal_image`] onto a backup's records and taking the
//! same snapshot at the end.

use crate::history::HistoryTable;
use crate::page::Record;
use bytes::Buf;
use prorp_types::{ProrpError, Timestamp};
use std::collections::BTreeMap;

/// Log-record magic prefix.
const RECORD_MAGIC: u8 = 0x57; // 'W'

/// Encoded size of one record: `magic (1) | body (17) | checksum (8)`.
pub const RECORD_LEN: usize = 1 + 17 + 8;

/// One logged mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// `InsertHistory(time, type)` (Algorithm 2).
    Insert {
        /// Epoch-second timestamp.
        ts: i64,
        /// 1 = start, 0 = end.
        event_type: i64,
    },
    /// `DeleteOldHistory`'s exclusive range delete (Algorithm 3).
    DeleteRange {
        /// Exclusive lower bound (the preserved oldest tuple).
        min: i64,
        /// Exclusive upper bound (the history start).
        history_start: i64,
    },
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl WalRecord {
    fn encode_body(&self) -> [u8; 17] {
        let mut out = [0u8; 17];
        match self {
            WalRecord::Insert { ts, event_type } => {
                out[0] = 0;
                out[1..9].copy_from_slice(&ts.to_le_bytes());
                out[9..17].copy_from_slice(&event_type.to_le_bytes());
            }
            WalRecord::DeleteRange { min, history_start } => {
                out[0] = 1;
                out[1..9].copy_from_slice(&min.to_le_bytes());
                out[9..17].copy_from_slice(&history_start.to_le_bytes());
            }
        }
        out
    }

    fn decode_body(body: &[u8]) -> Result<Self, ProrpError> {
        if body.len() != 17 {
            return Err(ProrpError::Storage(format!(
                "WAL record body must be 17 bytes, got {}",
                body.len()
            )));
        }
        let mut a = &body[1..9];
        let mut b = &body[9..17];
        let x = a.get_i64_le();
        let y = b.get_i64_le();
        match body[0] {
            0 => Ok(WalRecord::Insert {
                ts: x,
                event_type: y,
            }),
            1 => Ok(WalRecord::DeleteRange {
                min: x,
                history_start: y,
            }),
            tag => Err(ProrpError::Storage(format!("unknown WAL record tag {tag}"))),
        }
    }

    /// Apply this mutation to a `key → event_type` tuple set, as written:
    /// an insert adds its tuple, a range delete removes every key
    /// strictly between its bounds.
    fn apply(self, visible: &mut BTreeMap<i64, i64>) {
        match self {
            WalRecord::Insert { ts, event_type } => {
                visible.insert(ts, event_type);
            }
            WalRecord::DeleteRange { min, history_start } => {
                visible.retain(|&key, _| key <= min || key >= history_start);
            }
        }
    }
}

/// The on-disk write-ahead-log codec: an image is a run of
/// [`RECORD_LEN`]-byte records, `magic (1) | body (17) | checksum (8)`.
#[derive(Clone, Copy, Debug)]
pub struct WriteAheadLog;

impl WriteAheadLog {
    /// Encode `records`, in order, into a log image.
    pub fn encode<'a>(records: impl IntoIterator<Item = &'a WalRecord>) -> Vec<u8> {
        let mut image = Vec::new();
        for record in records {
            let body = record.encode_body();
            image.push(RECORD_MAGIC);
            image.extend_from_slice(&body);
            image.extend_from_slice(&fnv1a(&body).to_le_bytes());
        }
        image
    }

    /// Decode a log image, tolerating a torn tail: a partial final
    /// record is dropped; a *corrupt* record (bad magic or checksum in
    /// the middle) is an error.
    pub fn decode(mut image: &[u8]) -> Result<Vec<WalRecord>, ProrpError> {
        let mut out = Vec::with_capacity(image.len() / RECORD_LEN);
        while !image.is_empty() {
            if image.len() < RECORD_LEN {
                // Torn tail: a crash mid-append. Recovery stops here.
                break;
            }
            if image[0] != RECORD_MAGIC {
                return Err(ProrpError::Storage(format!(
                    "bad WAL record magic {:#x} at record {}",
                    image[0],
                    out.len()
                )));
            }
            let body = &image[1..18];
            let mut stored = &image[18..26];
            let stored = stored.get_u64_le();
            if stored != fnv1a(body) {
                // A checksum mismatch on the *last* full record is also a
                // torn write; mid-log it is corruption.
                if image.len() == RECORD_LEN {
                    break;
                }
                return Err(ProrpError::Storage(format!(
                    "WAL checksum mismatch at record {}",
                    out.len()
                )));
            }
            out.push(WalRecord::decode_body(body)?);
            image = &image[RECORD_LEN..];
        }
        Ok(out)
    }
}

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

/// The append-only log of every mutation a log-keeping [`HistoryTable`]
/// applied, over the tuples a restore installed at seqno 0.
///
/// * **time travel is a replay** — the tuple set visible at seqno `s` is
///   the base with the first `s` records applied
///   ([`snapshot`](MutationLog::snapshot)), exact at every seqno;
/// * **the timeline is the log** — `applied_at` is clamped monotone, so
///   [`seqno_as_of`](MutationLog::seqno_as_of) is a binary search;
/// * **durability is the log** — [`wal_image`](MutationLog::wal_image)
///   is the write-ahead log since any checkpoint.
#[derive(Clone, Debug, Default)]
pub struct MutationLog {
    /// The tuples a restore installed at seqno 0, key-ascending (empty
    /// for a table that was never restored).
    base: Vec<Record>,
    /// Every mutation since; `records[i]` took the table to seqno `i + 1`.
    records: Vec<LogRecord>,
}

impl MutationLog {
    /// An empty log over the key-ascending tuples a restore installed.
    pub(crate) fn restored(base: Vec<Record>) -> Self {
        MutationLog {
            base,
            records: Vec::new(),
        }
    }

    /// Append the next mutation; its seqno is its position + 1.
    pub(crate) fn push(&mut self, applied_at: i64, mutation: WalRecord) {
        let newest = self.records.last().map(|r| r.applied_at);
        self.records.push(LogRecord {
            applied_at: newest.map_or(applied_at, |t| t.max(applied_at)),
            mutation,
        });
    }

    /// The newest seqno: the number of records.
    fn latest(&self) -> u64 {
        self.records.len() as u64
    }

    /// Newest seqno applied at or before `at` (0 when nothing was): the
    /// number of records at or before it, as seqnos are positions.
    pub fn seqno_as_of(&self, at: Timestamp) -> u64 {
        self.records
            .partition_point(|r| r.applied_at <= at.as_secs()) as u64
    }

    /// The tuple set visible at `seqno` (clamped to the log's end) as
    /// `key → event_type`: the base, then each of the first `seqno`
    /// records in order.
    pub(crate) fn replay(&self, seqno: u64) -> BTreeMap<i64, i64> {
        let mut visible: BTreeMap<i64, i64> = self.base.iter().map(|r| (r.key, r.value)).collect();
        let upto = self.records.len().min(seqno as usize);
        for r in &self.records[..upto] {
            r.mutation.apply(&mut visible);
        }
        visible
    }

    /// The table as it stood at `seqno`: a log-off [`HistoryTable`]
    /// whose version is the seqno, with no clock index.  Seqnos past the
    /// log's end clamp to the present.
    pub fn snapshot(&self, seqno: u64) -> HistoryTable {
        let at = seqno.min(self.latest());
        HistoryTable::replayed(self.replay(at), at)
    }

    /// The table as it stood at simulated time `at`.
    pub fn snapshot_as_of(&self, at: Timestamp) -> HistoryTable {
        self.snapshot(self.seqno_as_of(at))
    }

    /// The write-ahead log since seqno `since`: the records after it,
    /// encoded by [`WriteAheadLog::encode`].  A checkpoint is a backup
    /// image and the table's version when it was taken; that image and
    /// this one are what [`HistoryTable::recover`] needs.
    pub fn wal_image(&self, since: u64) -> Vec<u8> {
        let from = self.records.len().min(since as usize);
        WriteAheadLog::encode(self.records[from..].iter().map(|r| &r.mutation))
    }

    /// Assert the log is time-ascending and ends at `version`.
    pub(crate) fn check_invariants(&self, version: u64) {
        assert!(
            self.records
                .windows(2)
                .all(|w| w[0].applied_at <= w[1].applied_at),
            "the log must be monotone in time"
        );
        assert_eq!(
            self.latest(),
            version,
            "the log must end at the latest seqno"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backup::backup_history;
    use crate::store::{HistoryRead, HistoryStore, StorageBackend};
    use proptest::prelude::*;
    use prorp_types::{ActivityEvent, EventKind, Seconds};

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    const DAY: i64 = 86_400;

    fn logged() -> HistoryTable {
        HistoryTable::new(StorageBackend::Lsm)
    }

    fn log(h: &HistoryTable) -> &MutationLog {
        h.log().expect("built with a log")
    }

    #[test]
    fn record_roundtrip() {
        for rec in [
            WalRecord::Insert {
                ts: 12345,
                event_type: 1,
            },
            WalRecord::DeleteRange {
                min: -5,
                history_start: 99,
            },
        ] {
            let body = rec.encode_body();
            assert_eq!(WalRecord::decode_body(&body).unwrap(), rec);
        }
    }

    fn two_inserts() -> Vec<u8> {
        WriteAheadLog::encode(&[
            WalRecord::Insert {
                ts: 1,
                event_type: 1,
            },
            WalRecord::Insert {
                ts: 2,
                event_type: 0,
            },
        ])
    }

    #[test]
    fn log_append_decode_roundtrip() {
        let records = [
            WalRecord::Insert {
                ts: 10,
                event_type: 1,
            },
            WalRecord::Insert {
                ts: 20,
                event_type: 0,
            },
            WalRecord::DeleteRange {
                min: 0,
                history_start: 15,
            },
        ];
        let image = WriteAheadLog::encode(&records);
        assert_eq!(image.len(), 3 * RECORD_LEN);
        assert_eq!(WriteAheadLog::decode(&image).unwrap(), records);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let image = two_inserts();
        // Crash mid-append: only part of the second record hit disk.
        let torn = &image[..image.len() - 5];
        let decoded = WriteAheadLog::decode(torn).unwrap();
        assert_eq!(decoded.len(), 1, "partial record dropped");
    }

    #[test]
    fn mid_log_corruption_is_fatal() {
        let mut image = two_inserts();
        image[3] ^= 0xff; // corrupt the first record's body
        let err = WriteAheadLog::decode(&image).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn a_record_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<LogRecord>() <= 32);
    }

    #[test]
    fn recovery_replays_the_tail_over_the_backup() {
        let mut live = logged();
        // Pre-checkpoint history.
        live.insert_history(t(100), EventKind::Start);
        live.insert_history(t(200), EventKind::End);
        let (backup, at) = (backup_history(&live).unwrap(), live.version());
        // Post-checkpoint mutations live only in the WAL.
        live.insert_history(t(300), EventKind::Start);
        live.insert_history(t(400), EventKind::End);
        let wal_image = log(&live).wal_image(at);
        assert_eq!(wal_image.len(), 2 * RECORD_LEN);

        // Crash. Recover from backup + WAL.
        let recovered = HistoryTable::recover(&backup, &wal_image, StorageBackend::BTree).unwrap();
        assert_eq!(recovered.events(), live.events());
        assert!(recovered.log().is_none(), "a log-off recovery keeps none");
        let relogged = HistoryTable::recover(&backup, &wal_image, StorageBackend::Lsm).unwrap();
        assert_eq!(relogged.version(), 2, "the backup is seqno 0");
        assert_eq!(log(&relogged).wal_image(0), wal_image);
        relogged.check_invariants();
    }

    #[test]
    fn recovery_replays_deletes_too() {
        let mut live = logged();
        for i in 0..10 {
            live.insert_history(t(i * 100), EventKind::Start);
        }
        let (backup, at) = (backup_history(&live).unwrap(), live.version());
        live.delete_old_history(Seconds(0), t(500));
        let wal_image = log(&live).wal_image(at);
        let recovered = HistoryTable::recover(&backup, &wal_image, StorageBackend::Lsm).unwrap();
        assert_eq!(recovered.events(), live.events());
        // The oldest tuple survives the replayed trim (Algorithm 3 rule).
        assert_eq!(recovered.min_timestamp(), Some(t(0)));
        recovered.check_invariants();
    }

    #[test]
    fn losing_the_wal_falls_back_to_the_backup() {
        let mut live = logged();
        live.insert_history(t(1), EventKind::Start);
        let backup = backup_history(&live).unwrap();
        live.insert_history(t(2), EventKind::End);
        // WAL lost entirely: recovery yields the backup state.
        let recovered = HistoryTable::recover(&backup, &[], StorageBackend::Lsm).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered.version(), 0);
        assert_eq!(backup_history(&recovered).unwrap(), backup);
    }

    #[test]
    fn a_trim_pass_is_one_range_tombstone() {
        let mut h = logged();
        for d in 0..=40 {
            h.insert_history(t(d * DAY), EventKind::Start);
        }
        let before = h.version();
        let out = h.delete_old_history(Seconds::days(28), t(40 * DAY));
        assert_eq!(out.deleted, 11, "days 1..=11 die; day 0 is the lifespan");
        assert_eq!(
            WriteAheadLog::decode(&log(&h).wal_image(before)).unwrap(),
            [WalRecord::DeleteRange {
                min: 0,
                history_start: 12 * DAY
            }],
            "a trim pass writes one record regardless of coverage"
        );
        h.check_invariants();
    }

    #[test]
    fn write_amplification_is_accounted() {
        let mut h = logged();
        for ts in 0..200 {
            h.insert_history(t(ts * 60), EventKind::Start);
        }
        // One 26-byte record per 16-byte tuple, and nothing else.
        assert_eq!(log(&h).wal_image(0).len(), 200 * RECORD_LEN);
        assert_eq!(log(&h).wal_image(150).len(), 50 * RECORD_LEN);
        assert_eq!(log(&h).wal_image(u64::MAX).len(), 0);
    }

    #[test]
    fn snapshots_freeze_past_states() {
        let mut h = logged();
        h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        let mut seen: Vec<(u64, usize)> = Vec::new();
        for ts in [10, 20, 30, 40, 50, 60, 70] {
            h.insert_history(t(ts), EventKind::Start);
            seen.push((h.version(), h.len()));
        }
        h.delete_old_history(Seconds(15), t(70));
        seen.push((h.version(), h.len()));
        for &(seqno, live) in &seen {
            let snap = log(&h).snapshot(seqno);
            assert_eq!(snap.version(), seqno);
            assert_eq!(snap.len(), live, "snapshot at seqno {seqno}");
            assert!(snap.clock_index().is_none(), "snapshots carry no index");
            assert!(snap.log().is_none(), "a snapshot keeps no log");
        }
        // Seqno 0 is the empty store; clamping applies past the end.
        assert_eq!(log(&h).snapshot(0).len(), 0);
        assert_eq!(log(&h).snapshot(u64::MAX).len(), h.len());
    }

    #[test]
    fn a_snapshot_below_a_collected_trim_is_exact() {
        // Twelve logins a day, two hours apart, with the engines' 28-day
        // trim at every midnight, for 60 days: by the end the trims have
        // deleted most of what the store held on day 30.
        let mut h = logged();
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
        assert_eq!(log(&h).snapshot(seqno).events(), held);
        assert_eq!(log(&h).snapshot_as_of(t(30 * DAY - 1)).events(), held);
        h.check_invariants();
    }

    #[test]
    fn time_travel_resolves_applied_timestamps() {
        let mut h = logged();
        h.insert_history(t(100), EventKind::Start);
        h.insert_history(t(200), EventKind::End);
        // Straggler applied out of order: clamped onto the timeline at
        // its application point (after t=200).
        h.insert_history(t(150), EventKind::Start);
        let log = log(&h);
        assert_eq!(log.seqno_as_of(t(99)), 0);
        assert_eq!(log.seqno_as_of(t(100)), 1);
        assert_eq!(log.seqno_as_of(t(199)), 1);
        assert_eq!(log.seqno_as_of(t(200)), 3, "straggler clamps to t=200");
        let as_of_150 = log.snapshot_as_of(t(150));
        assert_eq!(as_of_150.len(), 1, "only the t=100 insert had applied");
        let now = log.snapshot_as_of(t(10_000));
        assert_eq!(now.len(), 3);
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

    /// Replay `ops` against a log-keeping table and a log-off one,
    /// comparing after every op: each seqno's snapshot against the
    /// log-off table's state at that seqno, the timeline against
    /// `(applied_at, seqno)` pairs kept beside it, and the WAL image
    /// against the mutations made.
    fn replay(ops: &[Op]) -> Result<(), TestCaseError> {
        let mut store = logged();
        // `visible[s]`: the tuple set after the first `s` mutations, from
        // the log-off table run in step; `timeline`: when each seqno
        // applied.
        let mut model = HistoryTable::default();
        let mut visible: Vec<Vec<ActivityEvent>> = vec![Vec::new()];
        let mut timeline: Vec<(i64, u64)> = Vec::new();
        let mut trims = 0;
        let mut clock = 0i64;
        for op in ops {
            let before = store.version();
            // The insert an op makes, if any, and when it applies.
            let (applied_at, insert) = match *op {
                Op::Next(dt, login) => {
                    clock += dt;
                    (clock, Some(kind(login)))
                }
                Op::Straggler(back, login) => (clock - back, Some(kind(login))),
                Op::Duplicate => (clock, Some(EventKind::Start)),
                Op::Trim(h) => {
                    let outcome = store.delete_old_history(Seconds(h), Timestamp(clock));
                    prop_assert_eq!(
                        outcome,
                        model.delete_old_history(Seconds(h), Timestamp(clock))
                    );
                    trims += usize::from(outcome.deleted > 0);
                    (clock, None)
                }
            };
            if let Some(kind) = insert {
                let ts = Timestamp(applied_at);
                prop_assert_eq!(
                    store.insert_history(ts, kind),
                    model.insert_history(ts, kind)
                );
            }
            if store.version() > before {
                prop_assert_eq!(store.version(), before + 1);
                visible.push(model.events());
                let clamped = timeline
                    .last()
                    .map_or(applied_at, |&(t, _)| t.max(applied_at));
                timeline.push((clamped, store.version()));
            }
            store.check_invariants();

            let log = log(&store);
            let written = WriteAheadLog::decode(&log.wal_image(0)).unwrap();
            prop_assert_eq!(written.len() as u64, store.version());
            let ranges = written.iter();
            let ranges = ranges.filter(|r| matches!(r, WalRecord::DeleteRange { .. }));
            prop_assert_eq!(ranges.count(), trims);
            for at in -42..=clock + 1 {
                let cut = timeline.partition_point(|&(t, _)| t <= at);
                let want = cut.checked_sub(1).map_or(0, |i| timeline[i].1);
                prop_assert_eq!(log.seqno_as_of(Timestamp(at)), want, "seqno as of {}", at);
            }
            for seqno in 0..=store.version() {
                let snapshot = log.snapshot(seqno);
                prop_assert_eq!(snapshot.version(), seqno);
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

        /// Replaying the log to any seqno gives the log-off table's state
        /// at that seqno, and the log is the time-travel timeline.
        #[test]
        fn the_log_replays_every_state_the_table_held(
            ops in prop::collection::vec(op_strategy(), 1..100),
        ) {
            replay(&ops)?;
        }
    }
}
