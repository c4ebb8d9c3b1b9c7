//! Immutable sorted runs — the on-"disk" leg of the LSM tree.
//!
//! A run is a `(key, seqno)`-sorted vector of MVCC entries produced by
//! a flush of the log tail or a compaction merge.  Its physical size is
//! that of the 8-KiB slotted pages ([`crate::page`]) — the ones the
//! B+Tree backend and the backup stream use — its entries would fill,
//! and that size is charged to the write-amplification ledger; debug
//! builds serialise the entries through the page codec and back to hold
//! the figure, and the packing, to the format.  The entries stay
//! resident (the run's "page cache"); nothing probes a run by key — the
//! live view answers point reads, and merges and the merged scan walk
//! whole runs.

use crate::page::{self, Record};
use prorp_types::ProrpError;

/// How many low bits of the packed page value carry flags: bit 0 is the
/// event type, bit 1 the tombstone marker; the seqno lives above them.
const FLAG_BITS: u32 = 2;

/// One MVCC version of one history tuple.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Entry {
    /// `time_snapshot` — the tuple key.
    pub key: i64,
    /// Mutation sequence number that wrote this version.
    pub seqno: u64,
    /// `event_type` (1 = start, 0 = end); meaningless for tombstones.
    pub value: i64,
    /// Whether this version deletes the key.
    pub tombstone: bool,
}

impl Entry {
    /// Pack this entry into a slotted-page record:
    /// `value = seqno << 2 | tombstone << 1 | event_type`.
    fn to_record(self) -> Record {
        debug_assert!(self.seqno < 1 << (63 - FLAG_BITS), "seqno overflow");
        let packed = ((self.seqno as i64) << FLAG_BITS)
            | (i64::from(self.tombstone) << 1)
            | (self.value & 1);
        Record {
            key: self.key,
            value: packed,
        }
    }

    /// Unpack a slotted-page record written by
    /// [`to_record`](Entry::to_record).
    fn from_record(r: Record) -> Entry {
        Entry {
            key: r.key,
            seqno: (r.value >> FLAG_BITS) as u64,
            value: r.value & 1,
            tombstone: r.value & 0b10 != 0,
        }
    }
}

/// Whether `entries` are strictly `(key, seqno)`-ascending — the order
/// every run is kept in.
pub(crate) fn strictly_sorted(entries: &[Entry]) -> bool {
    entries
        .windows(2)
        .all(|w| (w[0].key, w[0].seqno) < (w[1].key, w[1].seqno))
}

/// An immutable sorted run.
#[derive(Clone, Debug)]
pub struct Run {
    /// `(key, seqno)`-sorted entries (the resident page cache).
    entries: Vec<Entry>,
    /// Smallest seqno in the run.
    min_seqno: u64,
    /// Largest seqno in the run.
    max_seqno: u64,
    /// Physical size when serialised to 8-KiB slotted pages.
    page_bytes: usize,
}

impl Default for Run {
    /// An empty run — the placeholder for a vacated level.
    fn default() -> Run {
        Run {
            entries: Vec::new(),
            min_seqno: u64::MAX,
            max_seqno: 0,
            page_bytes: 0,
        }
    }
}

impl Run {
    /// Smallest key in the run (`i64::MAX` when empty) — the whole-run
    /// drop check during garbage-collecting compaction.
    pub fn min_key(&self) -> i64 {
        self.entries.first().map_or(i64::MAX, |e| e.key)
    }

    /// Largest key in the run (`i64::MIN` when empty).
    pub fn max_key(&self) -> i64 {
        self.entries.last().map_or(i64::MIN, |e| e.key)
    }
}

impl Run {
    /// Build a run from `(key, seqno)`-sorted entries.  Returns the run
    /// and the number of physical bytes writing it as slotted pages
    /// takes (for the write-amplification ledger).
    pub fn build(entries: Vec<Entry>) -> Result<(Run, usize), ProrpError> {
        debug_assert!(
            strictly_sorted(&entries),
            "run entries must be strictly (key, seqno)-sorted"
        );
        let page_bytes = page::pages_for(entries.len()) * page::PAGE_SIZE;
        // Round-trip through the codec in debug builds: the page format,
        // not the arithmetic or the resident vector, is the source of
        // truth.
        if cfg!(debug_assertions) {
            let records: Vec<Record> = entries.iter().map(|e| e.to_record()).collect();
            let pages = page::encode_pages(&records)?;
            assert_eq!(
                pages.iter().map(|p| p.len()).sum::<usize>(),
                page_bytes,
                "page arithmetic disagrees with the encoder"
            );
            let decoded = page::decode_pages(pages.iter().map(|p| p.as_ref()))
                .expect("pages we just encoded must decode");
            let decoded: Vec<Entry> = decoded.into_iter().map(Entry::from_record).collect();
            assert_eq!(decoded, entries, "page round-trip changed the run");
        }
        let (min_seqno, max_seqno) = entries.iter().fold((u64::MAX, 0), |(lo, hi), e| {
            (lo.min(e.seqno), hi.max(e.seqno))
        });
        Ok((
            Run {
                entries,
                min_seqno,
                max_seqno,
                page_bytes,
            },
            page_bytes,
        ))
    }

    /// The `(key, seqno)`-sorted entries.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of entries (all versions, dead included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the run holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest seqno in the run (`u64::MAX` when empty).
    pub fn min_seqno(&self) -> u64 {
        self.min_seqno
    }

    /// Largest seqno in the run (0 when empty).
    pub fn max_seqno(&self) -> u64 {
        self.max_seqno
    }

    /// Physical serialised size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: i64, seqno: u64, value: i64, tombstone: bool) -> Entry {
        Entry {
            key,
            seqno,
            value,
            tombstone,
        }
    }

    #[test]
    fn record_packing_round_trips() {
        for e in [
            entry(0, 0, 0, false),
            entry(-5_000, 7, 1, false),
            entry(86_400, 123_456, 0, true),
            entry(i64::MAX / 4, 1 << 40, 1, true),
        ] {
            assert_eq!(Entry::from_record(e.to_record()), e);
        }
    }

    #[test]
    fn build_records_the_seqno_range_and_page_size() {
        let entries = vec![
            entry(100, 1, 1, false),
            entry(100, 4, 0, true),
            entry(200, 2, 0, false),
        ];
        let (run, bytes) = Run::build(entries.clone()).unwrap();
        assert_eq!(bytes, page::PAGE_SIZE);
        assert_eq!(run.page_bytes(), bytes);
        assert_eq!(run.entries(), entries.as_slice());
        assert_eq!((run.min_key(), run.max_key()), (100, 200));
        assert_eq!(run.min_seqno(), 1);
        assert_eq!(run.max_seqno(), 4);
    }

    #[test]
    fn empty_run_is_legal() {
        let (run, bytes) = Run::build(Vec::new()).unwrap();
        assert!(run.is_empty());
        assert_eq!(bytes, 0);
        assert_eq!((run.min_seqno(), run.max_seqno()), (u64::MAX, 0));
    }
}
