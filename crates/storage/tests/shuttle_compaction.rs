//! Multi-thread stress for the snapshot-pin / background-compaction
//! race (the `shuttle-compaction` opt-in suite, run by `check.sh`).
//!
//! The hazard under test: a frozen [`LsmSnapshot`] pins the runs it was
//! cut from by `Arc` refcount, while the [`CompactionScheduler`] worker
//! concurrently merges those runs away and garbage-collects tombstoned
//! versions out of the live store.  A reader thread hammers captured
//! snapshots *while* the worker churns; every snapshot must keep
//! answering with exactly the state it froze — and after the barrier
//! the background store must be bit-identical to a deterministic twin
//! fed the same mutations.  No external model checker: the pressure is
//! plain threads racing real compaction work.

#![cfg(feature = "shuttle-compaction")]

use prorp_storage::{
    CompactionScheduler, HistoryRead, HistoryStore, LsmConfig, LsmHistory, LsmSnapshot, TimeTravel,
};
use prorp_types::{ActivityEvent, EventKind, Seconds, Timestamp};
use std::sync::mpsc::channel;
use std::thread;

fn tiny() -> LsmHistory {
    LsmHistory::with_config(LsmConfig { memtable_cap: 4 })
}

#[test]
fn pinned_snapshots_stay_exact_while_the_worker_compacts() {
    // Several rounds shift the key phase so scheduler/worker
    // interleavings vary between iterations.
    for round in 0..8i64 {
        let sched = CompactionScheduler::new();
        let mut bg = tiny();
        bg.attach_scheduler(&sched);
        let mut twin = tiny();

        // The reader receives (snapshot, expected state at capture) and
        // re-reads the snapshot many times while compaction runs.
        let (tx, rx) = channel::<(LsmSnapshot, Vec<ActivityEvent>)>();
        let reader = thread::spawn(move || {
            let mut verified = 0usize;
            for (snap, expected) in rx {
                for _ in 0..64 {
                    assert_eq!(snap.len(), expected.len(), "snapshot length drifted");
                    assert_eq!(snap.events(), expected, "snapshot tuple set drifted");
                    for ev in &expected {
                        assert_eq!(
                            snap.resolve(ev.ts.as_secs()),
                            Some(i64::from(ev.kind.as_i32())),
                            "pinned resolve lost a version at ts {}",
                            ev.ts.as_secs()
                        );
                    }
                }
                verified += 1;
            }
            verified
        });

        for step in 0..400i64 {
            let ts = Timestamp(step * 60 + round);
            let kind = if step % 3 == 0 {
                EventKind::Start
            } else {
                EventKind::End
            };
            assert_eq!(bg.insert_history(ts, kind), twin.insert_history(ts, kind));
            if step % 50 == 49 {
                // Retention pass: one range tombstone, GC fodder for the
                // worker's next merges.
                assert_eq!(
                    bg.delete_old_history(Seconds(3_000), ts),
                    twin.delete_old_history(Seconds(3_000), ts)
                );
                let snap = bg.snapshot(bg.latest_seqno());
                assert!(
                    snap.pinned_runs().len() > 0,
                    "a flushed store must pin runs"
                );
                let _ = tx.send((snap, bg.events()));
            }
        }
        drop(tx);
        let verified = reader.join().expect("reader thread must not panic");
        assert_eq!(verified, 8, "one snapshot per retention pass");

        // The event-loop path never compacted, the worker did.
        assert_eq!(bg.compaction_stall_ns(), 0);
        bg.detach_compaction();
        let (m, t) = (bg.metrics(), twin.metrics());
        assert!(
            m.gc_dropped + m.runs_dropped > 0,
            "the churn must have garbage-collected under the pins: {m:?}"
        );
        assert_eq!(m, t, "round {round}: effort ledgers diverged");
        assert_eq!(bg.events(), twin.events());
        assert_eq!(bg.logins(), twin.logins());
        assert_eq!(bg.version(), twin.version());
        assert_eq!(bg.stats(), twin.stats());
        assert_eq!(bg.run_count(), twin.run_count());
        assert_eq!(bg.gc_floor(), twin.gc_floor());
        bg.check_invariants();
        twin.check_invariants();
    }
}

#[test]
fn many_stores_share_one_scheduler_without_cross_talk() {
    let sched = CompactionScheduler::new();
    let mut stores: Vec<(LsmHistory, LsmHistory)> = (0..16)
        .map(|_| {
            let mut bg = tiny();
            bg.attach_scheduler(&sched);
            (bg, tiny())
        })
        .collect();
    // Interleave mutations across all registrations so the worker's
    // FIFO carries an arbitrary store order.
    for step in 0..200i64 {
        for (i, (bg, twin)) in stores.iter_mut().enumerate() {
            let ts = Timestamp(step * 90 + i as i64);
            bg.insert_history(ts, EventKind::Start);
            twin.insert_history(ts, EventKind::Start);
            if step % 40 == 39 {
                bg.delete_old_history(Seconds(4_000), ts);
                twin.delete_old_history(Seconds(4_000), ts);
            }
        }
    }
    for (bg, twin) in &mut stores {
        bg.detach_compaction();
        assert_eq!(bg.events(), twin.events());
        assert_eq!(bg.metrics(), twin.metrics());
        assert_eq!(bg.stats(), twin.stats());
        bg.check_invariants();
    }
}
