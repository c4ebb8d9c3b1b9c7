//! The compaction selector and scheduler, both inert.
//!
//! LSM compaction has one path: every flush runs its merges inline, at
//! the mutation that triggered it, and charges their wall time to
//! [`LsmHistory::compaction_stall_ns`](super::LsmHistory::compaction_stall_ns).
//! [`CompactionMode`] and [`CompactionScheduler`] are kept only because
//! the benchmark (`crates/ledger`) names them; ROADMAP item 2's façade
//! PR deletes them.  Neither holds a thread or changes a byte of state.

/// The `SimConfig::compaction_mode` selector, kept only because the
/// benchmark (`crates/ledger`) names it; ROADMAP item 2's façade PR
/// deletes it.  Every LSM flush compacts inline whichever value is
/// chosen, so the two are indistinguishable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CompactionMode {
    /// Compaction runs inline at each flush.
    #[default]
    Deterministic,
    /// Also inline: the selector the benchmark's sharded cell names.
    Background,
}

/// A compaction scheduler that holds no thread, kept only because the
/// benchmark (`crates/ledger`) builds one and attaches stores to it
/// (ROADMAP item 2 deletes it).  Attaching a store changes nothing:
/// LSM compaction always runs inline at the flush that triggers it.
#[derive(Debug, Default)]
pub struct CompactionScheduler;

impl CompactionScheduler {
    /// A scheduler; there is nothing to start.
    pub fn new() -> Self {
        CompactionScheduler
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsm::{LsmConfig, LsmHistory};
    use crate::store::{HistoryBackend, HistoryRead, HistoryStore};
    use prorp_types::{EventKind, Seconds, Timestamp};

    const CAP: usize = 8;

    fn store() -> HistoryBackend {
        HistoryBackend::Lsm(LsmHistory::with_config(LsmConfig { memtable_cap: CAP }))
    }

    fn lsm(h: &HistoryBackend) -> &LsmHistory {
        match h {
            HistoryBackend::Lsm(store) => store,
            HistoryBackend::BTree(_) => unreachable!("built on the LSM backend"),
        }
    }

    /// `inserts` logins a minute apart; with `trim_every`, a retention
    /// pass after every that-many inserts (so tombstones exist before
    /// the first flush when it is below the memtable cap).
    fn mutate(h: &mut HistoryBackend, inserts: i64, trim_every: Option<i64>) {
        for i in 0..inserts {
            h.insert_history(Timestamp(i * 60), EventKind::Start);
            if trim_every.is_some_and(|n| (i + 1) % n == 0) {
                h.delete_old_history(Seconds(150), Timestamp(i * 60));
            }
        }
    }

    #[test]
    fn attach_mutate_detach_equals_inline() {
        // Below the cap (never flushes), at it, and far past it; with and
        // without range tombstones recorded before the first flush; the
        // detached store and a clone taken while it was attached.
        for inserts in [CAP as i64 - 1, CAP as i64, 20 * CAP as i64] {
            for trim_every in [None, Some(3)] {
                let case = format!("{inserts} inserts, trims {trim_every:?}");
                let sched = CompactionScheduler::new();
                let mut attached = store();
                attached.attach_compaction(&sched);
                mutate(&mut attached, inserts, trim_every);
                let clone = attached.clone();
                attached.detach_compaction();

                let mut inline = store();
                mutate(&mut inline, inserts, trim_every);
                let want = lsm(&inline);
                for (who, h) in [("detached", &attached), ("clone", &clone)] {
                    let got = lsm(h);
                    assert_eq!(got.metrics(), want.metrics(), "{case}: {who}");
                    assert_eq!(got.run_count(), want.run_count(), "{case}: {who}");
                    assert_eq!(got.stats(), want.stats(), "{case}: {who}");
                    assert_eq!(got.gc_floor(), want.gc_floor(), "{case}: {who}");
                    assert_eq!(got.events(), want.events(), "{case}: {who}");
                    h.check_invariants();
                }
            }
        }
    }
}
