//! The write buffer the store used to keep — an in-memory table of MVCC
//! version chains — compiled for tests only, as the oracle the
//! [`super::log`] is property-tested against.
//!
//! Every buffered version lands here stamped with its sequence number
//! and is drained `(key, seqno)`-sorted at a flush.  Version chains are
//! kept per key, newest last, so a `seqno`-bounded read picks the newest
//! version at or below the read point.

use super::run::Entry;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One stored version: `(seqno, event value, tombstone?)`.
type Version = (u64, i64, bool);

/// Visibility verdict for a key at a read point: `None` when the table
/// holds no version at or below the read seqno, `Some(None)` when the
/// newest visible version is a tombstone, `Some(Some(v))` when it is a
/// live value.
type Visible = Option<Option<i64>>;

/// The in-memory write buffer.
#[derive(Clone, Debug)]
pub struct MemTable {
    /// Version chains per key; each chain is append-ordered, and seqnos
    /// are assigned monotonically, so chains are sorted by seqno.
    chains: BTreeMap<i64, Vec<Version>>,
    /// Total stored versions (the flush-trigger size).
    entries: usize,
    /// Smallest seqno buffered, `u64::MAX` when empty.
    min_seqno: u64,
    /// Largest seqno buffered, 0 when empty.
    max_seqno: u64,
}

/// Pick the newest version at or below `at` from a seqno-sorted chain.
fn visible_in_chain(chain: &[Version], at: u64) -> Visible {
    let cut = chain.partition_point(|&(s, _, _)| s <= at);
    chain[..cut]
        .last()
        .map(|&(_, v, dead)| (!dead).then_some(v))
}

impl Default for MemTable {
    fn default() -> Self {
        MemTable {
            chains: BTreeMap::new(),
            entries: 0,
            min_seqno: u64::MAX,
            max_seqno: 0,
        }
    }
}

impl MemTable {
    /// An empty buffer.
    pub fn new() -> Self {
        MemTable::default()
    }

    /// Buffer one version.  Seqnos must be appended in non-decreasing
    /// order (the store assigns them monotonically).
    pub fn add(&mut self, key: i64, seqno: u64, value: i64, tombstone: bool) {
        let chain = self.chains.entry(key).or_default();
        debug_assert!(
            chain.last().map_or(true, |&(s, _, _)| s <= seqno),
            "memtable chains must stay seqno-sorted"
        );
        chain.push((seqno, value, tombstone));
        self.entries += 1;
        self.min_seqno = self.min_seqno.min(seqno);
        self.max_seqno = self.max_seqno.max(seqno);
    }

    /// Newest version of `key` at or below `at`, when buffered.
    pub fn visible(&self, key: i64, at: u64) -> Visible {
        self.chains
            .get(&key)
            .and_then(|chain| visible_in_chain(chain, at))
    }

    /// Number of buffered versions.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Smallest buffered seqno (`u64::MAX` when empty) — the flush path
    /// asserts buffered seqnos stay above every on-run seqno.
    pub fn min_seqno(&self) -> u64 {
        self.min_seqno
    }

    /// Largest buffered seqno (0 when empty).
    pub fn max_seqno(&self) -> u64 {
        self.max_seqno
    }

    /// Drain every buffered version into `(key, seqno)`-sorted entries,
    /// leaving the buffer empty — the flush path.
    pub fn drain_sorted(&mut self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.entries);
        for (key, chain) in std::mem::take(&mut self.chains) {
            for (seqno, value, tombstone) in chain {
                out.push(Entry {
                    key,
                    seqno,
                    value,
                    tombstone,
                });
            }
        }
        self.entries = 0;
        self.min_seqno = u64::MAX;
        self.max_seqno = 0;
        out
    }

    /// Iterate the version chains whose keys fall in `[lo, hi]`, in key
    /// order.
    pub fn range(&self, lo: i64, hi: i64) -> impl Iterator<Item = (i64, &[Version])> {
        self.chains
            .range((Bound::Included(lo), Bound::Included(hi)))
            .map(|(&k, chain)| (k, chain.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_respects_the_read_point() {
        let mut m = MemTable::new();
        m.add(100, 1, 1, false);
        m.add(100, 3, 0, true); // tombstoned at seqno 3
        m.add(100, 5, 1, false); // re-inserted at seqno 5
        assert_eq!(m.visible(100, 0), None);
        assert_eq!(m.visible(100, 1), Some(Some(1)));
        assert_eq!(m.visible(100, 2), Some(Some(1)));
        assert_eq!(m.visible(100, 3), Some(None));
        assert_eq!(m.visible(100, 4), Some(None));
        assert_eq!(m.visible(100, 5), Some(Some(1)));
        assert_eq!(m.visible(999, 5), None);
    }

    #[test]
    fn drain_yields_key_then_seqno_order() {
        let mut m = MemTable::new();
        m.add(200, 2, 0, false);
        m.add(100, 1, 1, false);
        m.add(100, 3, 0, true);
        assert_eq!(m.len(), 3);
        assert_eq!(m.min_seqno(), 1);
        assert_eq!(m.max_seqno(), 3);
        let drained = m.drain_sorted();
        assert!(m.is_empty());
        let keys: Vec<(i64, u64)> = drained.iter().map(|e| (e.key, e.seqno)).collect();
        assert_eq!(keys, vec![(100, 1), (100, 3), (200, 2)]);
    }

    #[test]
    fn range_covers_closed_bounds() {
        let mut m = MemTable::new();
        for k in [10, 20, 30] {
            m.add(k, k as u64, 1, false);
        }
        let keys: Vec<i64> = m.range(10, 20).map(|(k, _)| k).collect();
        assert_eq!(keys, vec![10, 20]);
    }
}
