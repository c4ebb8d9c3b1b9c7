//! The compaction selector and scheduler, both inert.
//!
//! An LSM store is its view and its mutation log: there are no runs to
//! flush or merge, so there is no compaction to schedule.
//! [`CompactionMode`] and [`CompactionScheduler`] are kept only because
//! the benchmark (`crates/ledger`) names them; ROADMAP item 2's façade
//! PR deletes them.  Neither holds a thread or changes a byte of state.

/// The `SimConfig::compaction_mode` selector, kept only because the
/// benchmark (`crates/ledger`) names it; ROADMAP item 2's façade PR
/// deletes it.  Nothing reads the value, so the two are
/// indistinguishable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CompactionMode {
    /// The default.
    #[default]
    Deterministic,
    /// The selector the benchmark's sharded cell names.
    Background,
}

/// A compaction scheduler that holds no thread, kept only because the
/// benchmark (`crates/ledger`) builds one and attaches stores to it
/// (ROADMAP item 2 deletes it).  Attaching a store changes nothing.
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
    use crate::lsm::{LsmHistory, TimeTravel};
    use crate::store::{HistoryBackend, HistoryRead, HistoryStore};
    use prorp_types::{EventKind, Seconds, Timestamp};

    fn lsm(h: &HistoryBackend) -> &LsmHistory {
        match h {
            HistoryBackend::Lsm(store) => store,
            HistoryBackend::BTree(_) => unreachable!("built on the LSM backend"),
        }
    }

    /// `inserts` logins a minute apart; with `trim_every`, a retention
    /// pass after every that-many inserts.
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
        // A short history and a long one, with and without range
        // deletes; the detached store and a clone taken while it was
        // attached.
        for inserts in [7, 160] {
            for trim_every in [None, Some(3)] {
                let case = format!("{inserts} inserts, trims {trim_every:?}");
                let sched = CompactionScheduler::new();
                let mut attached = HistoryBackend::Lsm(LsmHistory::new());
                attached.attach_compaction(&sched);
                mutate(&mut attached, inserts, trim_every);
                let clone = attached.clone();
                attached.detach_compaction();

                let mut inline = HistoryBackend::Lsm(LsmHistory::new());
                mutate(&mut inline, inserts, trim_every);
                let want = lsm(&inline);
                for (who, h) in [("detached", &attached), ("clone", &clone)] {
                    let got = lsm(h);
                    assert_eq!(got.metrics(), want.metrics(), "{case}: {who}");
                    assert_eq!(got.stats(), want.stats(), "{case}: {who}");
                    assert_eq!(got.events(), want.events(), "{case}: {who}");
                    assert_eq!(got.version(), want.version(), "{case}: {who}");
                    for seqno in 0..=got.version() {
                        assert_eq!(
                            got.snapshot(seqno),
                            want.snapshot(seqno),
                            "{case}: {who} at seqno {seqno}"
                        );
                    }
                    h.check_invariants();
                }
            }
        }
    }
}
