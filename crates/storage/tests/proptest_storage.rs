//! Property-based tests for the storage substrate: the B+Tree and the
//! one live-read layer ([`LiveView`]) are each checked against
//! `std::collections::BTreeMap` as a model, the page codec and the
//! backup stream against identity round-trips, Algorithm 3 against its
//! specification, and crash recovery — a backup plus a (possibly torn)
//! write-ahead-log image — against the table's own snapshots.

use proptest::prelude::*;
use prorp_storage::page::{decode_page, encode_page, records_per_page, Record};
use prorp_storage::wal::{WriteAheadLog, RECORD_LEN};
use prorp_storage::{
    backup_history, restore_history, BTree, DeleteOutcome, HistoryRead, HistoryStore, HistoryTable,
    LiveView, MutationLog, StorageBackend,
};
use prorp_types::{ActivityEvent, EventKind, Seconds, Timestamp};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Operations the model test replays against both implementations.
#[derive(Clone, Debug)]
enum Op {
    Insert(i64),
    Remove(i64),
    DeleteRange(i64, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (-200i64..200).prop_map(Op::Insert),
        2 => (-200i64..200).prop_map(Op::Remove),
        1 => (-200i64..200, 0i64..100).prop_map(|(lo, w)| Op::DeleteRange(lo, lo + w)),
    ]
}

proptest! {
    #[test]
    fn btree_matches_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..400)) {
        let mut tree = BTree::with_order(4);
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k) => {
                    let tree_res = tree.insert(k, k);
                    let existed = model.contains_key(&k);
                    prop_assert_eq!(tree_res.is_err(), existed);
                    model.entry(k).or_insert(k);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(k), model.remove(&k));
                }
                Op::DeleteRange(lo, hi) => {
                    // std's BTreeMap::range panics on equal excluded bounds;
                    // our tree treats the empty exclusive range as a no-op.
                    let expected: Vec<i64> = if lo < hi {
                        model
                            .range((Bound::Excluded(lo), Bound::Excluded(hi)))
                            .map(|(k, _)| *k)
                            .collect()
                    } else {
                        Vec::new()
                    };
                    // sqlmini's range `DELETE`: scan the keys, then
                    // remove each one.
                    let doomed: Vec<i64> = tree
                        .range(Bound::Excluded(lo), Bound::Excluded(hi))
                        .map(|(k, _)| k)
                        .collect();
                    prop_assert_eq!(&doomed, &expected);
                    for k in doomed {
                        prop_assert_eq!(tree.remove(k), model.remove(&k));
                    }
                }
            }
            tree.check_invariants();
        }
        prop_assert_eq!(tree.len(), model.len());
        let tree_keys: Vec<i64> = tree.iter().map(|(k, _)| k).collect();
        let model_keys: Vec<i64> = model.keys().copied().collect();
        prop_assert_eq!(tree_keys, model_keys);
        prop_assert_eq!(tree.min_entry().map(|(k, _)| k), model.keys().next().copied());
        prop_assert_eq!(tree.max_entry().map(|(k, _)| k), model.keys().last().copied());
    }

    #[test]
    fn btree_range_matches_model(
        keys in prop::collection::btree_set(-500i64..500, 0..300),
        lo in -600i64..600,
        width in 0i64..400,
    ) {
        let mut tree = BTree::new();
        for &k in &keys {
            tree.insert(k, ()).unwrap();
        }
        let hi = lo + width;
        let got: Vec<i64> = tree
            .range(Bound::Included(lo), Bound::Included(hi))
            .map(|(k, _)| k)
            .collect();
        let expected: Vec<i64> = keys.range(lo..=hi).copied().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn page_roundtrip_is_identity(
        entries in prop::collection::btree_map(
            proptest::num::i64::ANY,
            0i64..2,
            0..records_per_page(),
        )
    ) {
        let records: Vec<Record> = entries
            .iter()
            .map(|(k, v)| Record { key: *k, value: *v })
            .collect();
        let page = encode_page(&records).unwrap();
        prop_assert_eq!(decode_page(&page).unwrap(), records);
    }

    #[test]
    fn backup_roundtrip_preserves_history(
        stamps in prop::collection::btree_set(0i64..1_000_000, 0..1_200)
    ) {
        let mut table = HistoryTable::default();
        for (i, ts) in stamps.iter().enumerate() {
            let kind = if i % 2 == 0 { EventKind::Start } else { EventKind::End };
            assert!(table.insert_history(Timestamp(*ts), kind));
        }
        let stream = backup_history(&table).unwrap();
        let restored = restore_history(&stream).unwrap();
        prop_assert_eq!(restored.events(), table.events());
    }

    #[test]
    fn delete_old_history_spec(
        stamps in prop::collection::btree_set(0i64..2_000_000, 1..300),
        h in 1i64..1_000_000,
        now in 0i64..3_000_000,
    ) {
        let mut table = HistoryTable::default();
        for ts in &stamps {
            table.insert_history(Timestamp(*ts), EventKind::Start);
        }
        let min = *stamps.iter().next().unwrap();
        let history_start = now - h;
        let outcome = table.delete_old_history(Seconds(h), Timestamp(now));

        // Spec: old iff the minimum predates history start.
        prop_assert_eq!(outcome.old, min < history_start);
        // The oldest tuple always survives.
        prop_assert_eq!(table.min_timestamp(), Some(Timestamp(min)));
        // Exactly the tuples strictly inside (min, history_start) die.
        let expected_dead = stamps
            .iter()
            .filter(|&&ts| min < ts && ts < history_start)
            .count();
        prop_assert_eq!(outcome.deleted, expected_dead);
        prop_assert_eq!(table.len(), stamps.len() - expected_dead);
    }

    #[test]
    fn first_last_login_matches_filtered_scan(
        events in prop::collection::btree_map(0i64..10_000, 0i64..2, 0..200),
        lo in 0i64..10_000,
        width in 0i64..5_000,
    ) {
        let mut table = HistoryTable::default();
        for (ts, kind) in &events {
            let kind = EventKind::from_i32(*kind as i32).unwrap();
            table.insert_history(Timestamp(*ts), kind);
        }
        let hi = lo + width;
        let logins: Vec<i64> = events
            .iter()
            .filter(|(ts, v)| **v == 1 && lo <= **ts && **ts <= hi)
            .map(|(ts, _)| *ts)
            .collect();
        let expected = match (logins.first(), logins.last()) {
            (Some(f), Some(l)) => Some((Timestamp(*f), Timestamp(*l), logins.len() as i64)),
            _ => None,
        };
        prop_assert_eq!(table.login_window_stats(Timestamp(lo), Timestamp(hi)), expected);
    }
}

/// Mutations the [`LiveView`] model test replays.
#[derive(Clone, Debug)]
enum ViewOp {
    Insert(i64, bool),
    Trim {
        h: i64,
        now: i64,
    },
    /// Rebuild the view from its own backup records and re-enable the
    /// clock index, as a database move does.
    Restore,
}

/// A key space small enough that duplicates, out-of-order arrivals and
/// re-inserts of trimmed keys are all common; negative keys exercise the
/// clock index's euclidean offsets.
fn view_op_strategy() -> impl Strategy<Value = ViewOp> {
    prop_oneof![
        12 => (-300i64..1_500, any::<bool>()).prop_map(|(ts, s)| ViewOp::Insert(ts, s)),
        2 => (1i64..1_200, -300i64..2_200).prop_map(|(h, now)| ViewOp::Trim { h, now }),
        1 => Just(ViewOp::Restore),
    ]
}

proptest! {
    /// The one read layer every engine serves from, against a naive
    /// full-scan model: Algorithm 2/3 outcomes, the version discipline,
    /// and every read after every mutation.
    #[test]
    fn live_view_matches_full_scan_model(
        ops in prop::collection::vec(view_op_strategy(), 1..120),
        windows in prop::collection::vec((-400i64..1_600, 0i64..700), 1..6),
    ) {
        // A 400-s period over 1 800 s of keys wraps several times.
        let period = 400;
        let mut view = LiveView::new();
        view.configure_clock_index(Seconds(period));
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        let mut version = 0u64;
        for op in ops {
            match op {
                ViewOp::Insert(ts, start) => {
                    let kind = if start { EventKind::Start } else { EventKind::End };
                    let stored = view.insert(Timestamp(ts), kind);
                    prop_assert_eq!(stored, !model.contains_key(&ts), "IF NOT EXISTS");
                    if stored {
                        model.insert(ts, i64::from(start));
                        version += 1;
                    }
                }
                ViewOp::Trim { h, now } => {
                    let history_start = now - h;
                    let min = model.keys().next().copied();
                    let old = min.is_some_and(|m| m < history_start);
                    let dead: Vec<i64> = model
                        .keys()
                        .copied()
                        .filter(|&k| old && min.unwrap() < k && k < history_start)
                        .collect();
                    let (outcome, doomed) = view.trim(Seconds(h), Timestamp(now));
                    prop_assert_eq!(outcome, DeleteOutcome { old, deleted: dead.len() });
                    prop_assert_eq!(
                        doomed,
                        (!dead.is_empty()).then(|| (min.unwrap(), history_start))
                    );
                    version += u64::from(!dead.is_empty());
                    for k in dead {
                        model.remove(&k);
                    }
                }
                ViewOp::Restore => {
                    let records: Vec<Record> =
                        model.iter().map(|(&key, &value)| Record { key, value }).collect();
                    view = LiveView::from_records(&records).unwrap();
                    prop_assert!(view.clock_index().is_none(), "the index does not travel");
                    view.configure_clock_index(Seconds(period));
                    version = 0;
                }
            }
            prop_assert_eq!(view.version(), version);
            prop_assert_eq!(view.len(), model.len());
            prop_assert_eq!(view.is_empty(), model.is_empty());
            prop_assert_eq!(view.stats().tuples, model.len());
            prop_assert_eq!(view.min_timestamp(), model.keys().next().map(|&k| Timestamp(k)));
            prop_assert_eq!(view.max_timestamp(), model.keys().last().map(|&k| Timestamp(k)));
            let events: Vec<ActivityEvent> = model
                .iter()
                .map(|(&k, &v)| {
                    if v == 1 { ActivityEvent::start(Timestamp(k)) } else { ActivityEvent::end(Timestamp(k)) }
                })
                .collect();
            prop_assert_eq!(view.events(), events);
            let logins: Vec<i64> = model.iter().filter(|(_, &v)| v == 1).map(|(&k, _)| k).collect();
            prop_assert_eq!(view.logins(), &logins[..]);
            for &(lo, width) in &windows {
                let hi = lo + width;
                let inside: Vec<i64> = logins.iter().copied().filter(|&t| lo <= t && t <= hi).collect();
                let expected = inside
                    .first()
                    .map(|&f| (Timestamp(f), Timestamp(inside[inside.len() - 1]), inside.len() as i64));
                prop_assert_eq!(view.login_window_stats(Timestamp(lo), Timestamp(hi)), expected);
                prop_assert_eq!(
                    view.any_event_in(Timestamp(lo), Timestamp(hi)),
                    model.keys().any(|&k| lo <= k && k <= hi)
                );
                prop_assert_eq!(view.get(lo), model.get(&lo).copied());
            }
            // The clock index holds exactly the visible logins — one
            // `(t mod period, t div period)` entry each — in ascending
            // order, hence duplicate-free.
            let ix = view.clock_index().expect("configured above");
            let mut clock: Vec<(i64, i64)> = logins
                .iter()
                .map(|&t| (t.rem_euclid(period), t.div_euclid(period)))
                .collect();
            clock.sort_unstable();
            prop_assert_eq!(ix.entries(), &clock[..]);
            prop_assert!(clock.windows(2).all(|w| w[0] < w[1]));
        }
    }
}

/// WAL mutations the crash-recovery property replays.
#[derive(Clone, Debug)]
enum WalOp {
    Insert(i64, bool),
    Trim { h: i64, now: i64 },
}

fn wal_op_strategy() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        5 => (0i64..1_000_000, any::<bool>()).prop_map(|(ts, s)| WalOp::Insert(ts, s)),
        1 => (1i64..500_000, 0i64..1_500_000).prop_map(|(h, now)| WalOp::Trim { h, now }),
    ]
}

/// A table keeping its mutation log, after `ops`.
fn logged(ops: &[WalOp]) -> HistoryTable {
    let mut table = HistoryTable::new(StorageBackend::Lsm);
    apply(&mut table, ops);
    table
}

fn apply(table: &mut HistoryTable, ops: &[WalOp]) {
    for op in ops {
        match op {
            WalOp::Insert(ts, start) => {
                let kind = if *start {
                    EventKind::Start
                } else {
                    EventKind::End
                };
                table.insert_history(Timestamp(*ts), kind);
            }
            WalOp::Trim { h, now } => {
                table.delete_old_history(Seconds(*h), Timestamp(*now));
            }
        }
    }
}

/// A checkpoint: the table's backup image and the seqno it was taken at.
fn checkpoint(table: &HistoryTable) -> (Vec<u8>, u64) {
    (backup_history(table).unwrap(), table.version())
}

fn log(table: &HistoryTable) -> &MutationLog {
    table.log().expect("built with its log")
}

fn recover(backup: &[u8], wal_image: &[u8]) -> Result<HistoryTable, prorp_types::ProrpError> {
    HistoryTable::recover(backup, wal_image, StorageBackend::Lsm)
}

proptest! {
    /// Crash anywhere after a checkpoint: backup + WAL replay must
    /// reproduce the live table exactly.
    #[test]
    fn wal_recovery_reproduces_the_live_table(
        pre in prop::collection::vec(wal_op_strategy(), 0..40),
        post in prop::collection::vec(wal_op_strategy(), 0..40),
    ) {
        let mut live = logged(&pre);
        let (backup, at) = checkpoint(&live);
        apply(&mut live, &post);
        let recovered = recover(&backup, &log(&live).wal_image(at)).unwrap();
        prop_assert_eq!(recovered.events(), live.events());
        prop_assert_eq!(recovered.version(), live.version() - at);
        recovered.check_invariants();
    }

    /// A truncated WAL image recovers exactly the table as it stood
    /// after the last whole record that survived the cut.
    #[test]
    fn torn_wal_recovers_a_prefix(
        ops in prop::collection::vec(wal_op_strategy(), 1..30),
        cut in 0usize..800,
    ) {
        let empty = HistoryTable::new(StorageBackend::Lsm);
        let backup = backup_history(&empty).unwrap();
        let live = logged(&ops);
        let image = log(&live).wal_image(0);
        let cut = cut.min(image.len());
        let survivors = cut / RECORD_LEN;
        let torn = &image[..cut];
        prop_assert_eq!(WriteAheadLog::decode(torn).unwrap().len(), survivors);
        // Recovery over the torn log never fails, and is exact.
        let recovered = recover(&backup, torn).unwrap();
        let expected = log(&live).snapshot(survivors as u64);
        prop_assert_eq!(recovered.events(), expected.events());
    }
}

proptest! {
    /// The exclusive-range scan — the one sqlmini's Algorithm 3 `DELETE
    /// … WHERE time_snapshot > @min AND time_snapshot < @historyStart`
    /// plans to — agrees with the model for arbitrary bounds, including
    /// empty, inverted, and all-covering ranges.
    #[test]
    fn keys_in_exclusive_range_matches_model(
        keys in prop::collection::btree_set(-500i64..500, 0..300),
        lo in -700i64..700,
        width in -100i64..500,
    ) {
        let mut tree = BTree::new();
        for &k in &keys {
            tree.insert(k, ()).unwrap();
        }
        let hi = lo + width;
        let expected: Vec<i64> = if lo < hi {
            keys.range((Bound::Excluded(lo), Bound::Excluded(hi)))
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        let got: Vec<i64> = tree
            .range(Bound::Excluded(lo), Bound::Excluded(hi))
            .map(|(k, _)| k)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Checkpointing is stable and truncating: the WAL since it is
    /// empty, recovering from the backup alone reproduces the table, and
    /// a second checkpoint over the unchanged table is byte-identical.
    #[test]
    fn checkpoint_truncates_and_is_stable(
        ops in prop::collection::vec(wal_op_strategy(), 0..60),
    ) {
        let live = logged(&ops);
        let (backup, at) = checkpoint(&live);
        prop_assert!(log(&live).wal_image(at).is_empty(), "nothing follows the checkpoint");
        let recovered = recover(&backup, &[]).unwrap();
        prop_assert_eq!(recovered.events(), live.events());
        let (again, _) = checkpoint(&live);
        prop_assert_eq!(backup, again, "checkpoint over an unchanged table must be stable");
    }

    /// Recovery is idempotent: recovering, checkpointing the recovered
    /// replica, and recovering again converges after one step — and the
    /// recovered table's own log is the WAL image it was recovered from.
    #[test]
    fn recover_of_recover_is_identity(
        pre in prop::collection::vec(wal_op_strategy(), 0..30),
        post in prop::collection::vec(wal_op_strategy(), 0..30),
    ) {
        let mut live = logged(&pre);
        let (backup, at) = checkpoint(&live);
        apply(&mut live, &post);
        let wal_image = log(&live).wal_image(at);
        let first = recover(&backup, &wal_image).unwrap();
        prop_assert_eq!(log(&first).wal_image(0), wal_image);
        let (second_backup, _) = checkpoint(&first);
        let second = recover(&second_backup, &[]).unwrap();
        prop_assert_eq!(second.events(), live.events());
    }

    /// Recovery is exact to the record: with a checkpoint at seqno `s`,
    /// the WAL image cut at *every* byte recovers the table's snapshot at
    /// `s + cut / 26`.  A checksum flipped on a record mid-image is an
    /// error; flipped on the final record it is a torn tail.
    #[test]
    fn a_torn_wal_recovers_the_snapshot_at_its_last_whole_record(
        pre in prop::collection::vec(wal_op_strategy(), 0..30),
        post in prop::collection::vec(wal_op_strategy(), 1..30),
    ) {
        let mut live = logged(&pre);
        let (backup, at) = checkpoint(&live);
        apply(&mut live, &post);
        let image = log(&live).wal_image(at);
        let whole = (image.len() / RECORD_LEN) as u64;
        for cut in 0..=image.len() {
            let records = (cut / RECORD_LEN) as u64;
            let recovered = recover(&backup, &image[..cut]).unwrap();
            let expected = log(&live).snapshot(at + records);
            prop_assert_eq!(recovered.events(), expected.events(), "cut at byte {}", cut);
            prop_assert_eq!(recovered.version(), records, "cut at byte {}", cut);
        }
        // The checksum is a record's last 8 bytes.
        let flip_checksum = |record: u64| {
            let mut bad = image.clone();
            bad[(record as usize + 1) * RECORD_LEN - 1] ^= 0x01;
            bad
        };
        if whole >= 2 {
            let err = recover(&backup, &flip_checksum(0)).unwrap_err();
            prop_assert!(err.to_string().contains("checksum"), "{}", err);
        }
        if whole >= 1 {
            let torn = recover(&backup, &flip_checksum(whole - 1)).unwrap();
            let expected = log(&live).snapshot(at + whole - 1);
            prop_assert_eq!(torn.events(), expected.events());
        }
    }
}
