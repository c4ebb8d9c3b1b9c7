//! Backup and restore of a history table as a page-image stream.
//!
//! §3.3 requires the history store to be **durable**: "if a database moves
//! from one compute node to another to balance the load, its history must
//! move with it to enable proactive resource allocation after the move."
//! The simulator's load-balancing move ships exactly the bytes produced
//! here; §5 additionally leans on "the established backup and restore
//! mechanisms" for data loss, which this codec stands in for.
//!
//! Format: a 16-byte header (magic, version, page count) followed by
//! `page_count` raw 8-KiB page images.

use crate::history::HistoryTable;
use crate::page::{self, Record, PAGE_SIZE};
use crate::store::{HistoryRead, StorageBackend};
use bytes::{Buf, BufMut, BytesMut};
use prorp_types::ProrpError;

/// Backup stream magic ("PRPB").
pub const BACKUP_MAGIC: u32 = 0x5052_5042;
/// Current backup format version.
pub const BACKUP_VERSION: u32 = 1;
/// Header bytes preceding the page images.
pub const BACKUP_HEADER_SIZE: usize = 16;

/// Serialise a history store into a self-describing backup stream.
///
/// The stream holds the visible events in key order and nothing else,
/// so a table with a mutation log and one without, holding the same
/// history, produce byte-identical backups, and either restores from
/// the other's stream.
pub fn backup_history<H: HistoryRead + ?Sized>(table: &H) -> Result<Vec<u8>, ProrpError> {
    let records: Vec<Record> = table
        .events()
        .into_iter()
        .map(|e| Record {
            key: e.ts.as_secs(),
            value: i64::from(e.kind.as_i32()),
        })
        .collect();
    let pages = page::encode_pages(&records)?;
    let mut out = BytesMut::with_capacity(BACKUP_HEADER_SIZE + pages.len() * PAGE_SIZE);
    out.put_u32_le(BACKUP_MAGIC);
    out.put_u32_le(BACKUP_VERSION);
    out.put_u64_le(pages.len() as u64);
    for p in &pages {
        out.extend_from_slice(p);
    }
    Ok(out.to_vec())
}

/// Rebuild a log-off history table from a backup stream produced by
/// [`backup_history`].
///
/// # Errors
///
/// Returns [`ProrpError::Storage`] on truncated input, bad magic, an
/// unsupported version, or page-level corruption.
pub fn restore_history(stream: &[u8]) -> Result<HistoryTable, ProrpError> {
    restore_backend(stream, StorageBackend::BTree)
}

/// Rebuild a history table from a backup stream, keeping a mutation log
/// when `kind` asks for one (its base is the restored tuples, at seqno
/// 0).  Either way the restore contract is the same: mutation version
/// reset to 0, clock index unconfigured.
///
/// # Errors
///
/// Returns [`ProrpError::Storage`] on truncated input, bad magic, an
/// unsupported version, or page-level corruption.
pub fn restore_backend(stream: &[u8], kind: StorageBackend) -> Result<HistoryTable, ProrpError> {
    HistoryTable::from_records(&decode_records(stream)?, kind)
}

/// Validate a backup stream's framing and decode its page records.
fn decode_records(stream: &[u8]) -> Result<Vec<Record>, ProrpError> {
    if stream.len() < BACKUP_HEADER_SIZE {
        return Err(ProrpError::Storage(format!(
            "backup stream truncated: {} bytes < header {BACKUP_HEADER_SIZE}",
            stream.len()
        )));
    }
    let mut header = &stream[..BACKUP_HEADER_SIZE];
    let magic = header.get_u32_le();
    if magic != BACKUP_MAGIC {
        return Err(ProrpError::Storage(format!(
            "bad backup magic {magic:#x}, expected {BACKUP_MAGIC:#x}"
        )));
    }
    let version = header.get_u32_le();
    if version != BACKUP_VERSION {
        return Err(ProrpError::Storage(format!(
            "unsupported backup version {version}, expected {BACKUP_VERSION}"
        )));
    }
    let page_count = header.get_u64_le() as usize;
    let expected = BACKUP_HEADER_SIZE + page_count * PAGE_SIZE;
    if stream.len() != expected {
        return Err(ProrpError::Storage(format!(
            "backup stream length {} does not match {page_count} pages ({expected} bytes)",
            stream.len()
        )));
    }
    let body = &stream[BACKUP_HEADER_SIZE..];
    page::decode_pages(body.chunks(PAGE_SIZE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::HistoryStore;
    use prorp_types::{EventKind, Timestamp};

    fn table_with(n: i64) -> HistoryTable {
        let mut t = HistoryTable::default();
        for i in 0..n {
            let kind = if i % 2 == 0 {
                EventKind::Start
            } else {
                EventKind::End
            };
            t.insert_history(Timestamp(i * 97), kind);
        }
        t
    }

    #[test]
    fn empty_table_roundtrips() {
        let stream = backup_history(&HistoryTable::default()).unwrap();
        assert_eq!(stream.len(), BACKUP_HEADER_SIZE);
        let restored = restore_history(&stream).unwrap();
        assert!(restored.is_empty());
    }

    #[test]
    fn multi_page_table_roundtrips() {
        let table = table_with(1_000); // > 2 pages at 454 records/page
        let stream = backup_history(&table).unwrap();
        let restored = restore_history(&stream).unwrap();
        assert_eq!(restored.events(), table.events());
        assert_eq!(restored.stats(), table.stats());
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let table = table_with(10);
        let stream = backup_history(&table).unwrap();
        assert!(restore_history(&stream[..stream.len() - 1]).is_err());
        assert!(restore_history(&stream[..4]).is_err());
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let table = table_with(3);
        let mut stream = backup_history(&table).unwrap();
        stream[0] ^= 0xff;
        assert!(restore_history(&stream)
            .unwrap_err()
            .to_string()
            .contains("magic"));
        let mut stream = backup_history(&table).unwrap();
        stream[4] = 99;
        assert!(restore_history(&stream)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn backup_bytes_are_backend_independent() {
        let mut lsm = HistoryTable::new(StorageBackend::Lsm);
        let mut btree = HistoryTable::default();
        for i in 0..300 {
            let kind = if i % 3 == 0 {
                EventKind::Start
            } else {
                EventKind::End
            };
            lsm.insert_history(Timestamp(i * 61), kind);
            btree.insert_history(Timestamp(i * 61), kind);
        }
        lsm.delete_old_history(prorp_types::Seconds(5_000), Timestamp(300 * 61));
        btree.delete_old_history(prorp_types::Seconds(5_000), Timestamp(300 * 61));
        let a = backup_history(&lsm).unwrap();
        let b = backup_history(&btree).unwrap();
        assert_eq!(a, b, "same history must serialise to the same bytes");
        // Cross-restore: either backend restores either stream.
        let as_lsm = restore_backend(&b, StorageBackend::Lsm).unwrap();
        let as_btree = restore_backend(&a, StorageBackend::BTree).unwrap();
        assert_eq!(as_lsm.events(), as_btree.events());
        assert_eq!(as_lsm.logins(), as_btree.logins());
        assert_eq!(as_lsm.version(), 0);
        assert_eq!(as_btree.version(), 0);
        assert!(as_lsm.log().is_some());
        assert!(as_btree.log().is_none());
    }

    #[test]
    fn page_corruption_surfaces_from_restore() {
        let table = table_with(100);
        let mut stream = backup_history(&table).unwrap();
        stream[BACKUP_HEADER_SIZE + 64] ^= 0x01;
        assert!(restore_history(&stream)
            .unwrap_err()
            .to_string()
            .contains("checksum"));
    }
}
