//! Slotted-page encoding of history tuples.
//!
//! The paper sizes the history store in kilobytes ("the size of database
//! history stays within 7 KB on average", Figure 10b) with 16-byte tuples
//! ("each tuple consists of two integer values of size 64 bits", §9.3).
//! This module serialises tuple runs into fixed 8-KiB slotted pages — the
//! on-disk unit the backup/restore path (§3.3) ships when a database moves
//! between nodes — and accounts sizes for the overhead experiments.
//!
//! Layout of a page:
//!
//! ```text
//! +--------+-------+----------+---------------------+---------+-----------+
//! | magic  | count | reserved | slot dir (2B/slot)  | free    | records   |
//! | 4B     | 2B    | 2B       | grows →             | space   | ← grow    |
//! +--------+-------+----------+---------------------+---------+-----------+
//! | trailing 8B FNV-1a checksum of bytes [0, PAGE_SIZE-8)                 |
//! +-----------------------------------------------------------------------+
//! ```
//!
//! Records are written backwards from the checksum; each slot stores the
//! record's byte offset.  With fixed 16-byte records the directory is
//! strictly redundant, but it keeps the format honest for variable-length
//! extensions and exercises the classic layout.

use bytes::{Buf, Bytes, BytesMut};
use prorp_types::ProrpError;

/// Fixed page size in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Bytes of header before the slot directory.
pub const HEADER_SIZE: usize = 8;
/// Trailing checksum size.
pub const CHECKSUM_SIZE: usize = 8;
/// Encoded size of one tuple: `(time_snapshot BIGINT, event_type BIGINT)`.
pub const RECORD_SIZE: usize = 16;
/// Bytes per slot-directory entry.
pub const SLOT_SIZE: usize = 2;
/// Magic number identifying a history page ("PRP1").
pub const PAGE_MAGIC: u32 = 0x5052_5031;

/// Maximum number of records one page holds.
pub const fn records_per_page() -> usize {
    (PAGE_SIZE - HEADER_SIZE - CHECKSUM_SIZE) / (RECORD_SIZE + SLOT_SIZE)
}

/// One history tuple: key (`time_snapshot`) and value (`event_type`,
/// widened to 64 bits per §9.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Record {
    /// Epoch-second timestamp (clustered-index key).
    pub key: i64,
    /// Event type: 1 = start of activity, 0 = end.
    pub value: i64,
}

/// FNV-1a over a byte slice; a cheap, dependency-free page checksum.
fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encode up to [`records_per_page()`] records into one page image.
///
/// # Errors
///
/// Returns [`ProrpError::Storage`] if `records` exceeds page capacity.
pub fn encode_page(records: &[Record]) -> Result<Bytes, ProrpError> {
    if records.len() > records_per_page() {
        return Err(ProrpError::Storage(format!(
            "{} records exceed page capacity {}",
            records.len(),
            records_per_page()
        )));
    }
    let mut page = BytesMut::zeroed(PAGE_SIZE);
    {
        let buf = &mut page[..];
        buf[0..4].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
        buf[4..6].copy_from_slice(&(records.len() as u16).to_le_bytes());
        // buf[6..8] reserved, stays zero.
        let mut record_off = PAGE_SIZE - CHECKSUM_SIZE;
        for (i, rec) in records.iter().enumerate() {
            record_off -= RECORD_SIZE;
            let slot_off = HEADER_SIZE + i * SLOT_SIZE;
            buf[slot_off..slot_off + 2].copy_from_slice(&(record_off as u16).to_le_bytes());
            buf[record_off..record_off + 8].copy_from_slice(&rec.key.to_le_bytes());
            buf[record_off + 8..record_off + 16].copy_from_slice(&rec.value.to_le_bytes());
        }
        let checksum = fnv1a(&buf[..PAGE_SIZE - CHECKSUM_SIZE]);
        buf[PAGE_SIZE - CHECKSUM_SIZE..].copy_from_slice(&checksum.to_le_bytes());
    }
    Ok(page.freeze())
}

/// Decode a page image produced by [`encode_page`], verifying magic and
/// checksum.
///
/// # Errors
///
/// Returns [`ProrpError::Storage`] on wrong length, bad magic, corrupt
/// checksum, or an out-of-bounds slot.
pub fn decode_page(page: &[u8]) -> Result<Vec<Record>, ProrpError> {
    if page.len() != PAGE_SIZE {
        return Err(ProrpError::Storage(format!(
            "page must be {PAGE_SIZE} bytes, got {}",
            page.len()
        )));
    }
    let stored_checksum = {
        let mut tail = &page[PAGE_SIZE - CHECKSUM_SIZE..];
        tail.get_u64_le()
    };
    let actual = fnv1a(&page[..PAGE_SIZE - CHECKSUM_SIZE]);
    if stored_checksum != actual {
        return Err(ProrpError::Storage(format!(
            "page checksum mismatch: stored {stored_checksum:#x}, computed {actual:#x}"
        )));
    }
    let mut header = &page[..HEADER_SIZE];
    let magic = header.get_u32_le();
    if magic != PAGE_MAGIC {
        return Err(ProrpError::Storage(format!(
            "bad page magic {magic:#x}, expected {PAGE_MAGIC:#x}"
        )));
    }
    let count = header.get_u16_le() as usize;
    if count > records_per_page() {
        return Err(ProrpError::Storage(format!(
            "page claims {count} records, capacity is {}",
            records_per_page()
        )));
    }
    let mut records = Vec::with_capacity(count);
    for i in 0..count {
        let slot_off = HEADER_SIZE + i * SLOT_SIZE;
        let mut slot = &page[slot_off..slot_off + SLOT_SIZE];
        let record_off = slot.get_u16_le() as usize;
        if record_off + RECORD_SIZE > PAGE_SIZE - CHECKSUM_SIZE || record_off < HEADER_SIZE {
            return Err(ProrpError::Storage(format!(
                "slot {i} points outside the record area ({record_off})"
            )));
        }
        let mut rec = &page[record_off..record_off + RECORD_SIZE];
        records.push(Record {
            key: rec.get_i64_le(),
            value: rec.get_i64_le(),
        });
    }
    Ok(records)
}

/// Number of pages needed to hold `n` records.
pub const fn pages_for(n: usize) -> usize {
    n.div_ceil(records_per_page())
}

/// Serialise an arbitrary-length record run into page images.
pub fn encode_pages(records: &[Record]) -> Result<Vec<Bytes>, ProrpError> {
    records
        .chunks(records_per_page())
        .map(encode_page)
        .collect()
}

/// Decode a sequence of page images back into one record run.
pub fn decode_pages<'a>(
    pages: impl IntoIterator<Item = &'a [u8]>,
) -> Result<Vec<Record>, ProrpError> {
    let mut out = Vec::new();
    for page in pages {
        out.extend(decode_page(page)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<Record> {
        (0..n as i64)
            .map(|i| Record {
                key: i * 60,
                value: i % 2,
            })
            .collect()
    }

    #[test]
    fn capacity_is_sane() {
        // (8192 - 8 - 8) / 18 = 454 records per page.
        assert_eq!(records_per_page(), 454);
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(454), 1);
        assert_eq!(pages_for(455), 2);
    }

    #[test]
    fn roundtrip_empty_full_and_partial() {
        for n in [0, 1, 7, records_per_page()] {
            let records = sample(n);
            let page = encode_page(&records).unwrap();
            assert_eq!(page.len(), PAGE_SIZE);
            assert_eq!(decode_page(&page).unwrap(), records, "n = {n}");
        }
    }

    #[test]
    fn overfull_page_is_rejected() {
        let records = sample(records_per_page() + 1);
        assert!(encode_page(&records).is_err());
    }

    #[test]
    fn negative_keys_roundtrip() {
        let records = vec![
            Record {
                key: i64::MIN,
                value: 1,
            },
            Record { key: -1, value: 0 },
            Record {
                key: i64::MAX,
                value: 1,
            },
        ];
        let page = encode_page(&records).unwrap();
        assert_eq!(decode_page(&page).unwrap(), records);
    }

    #[test]
    fn corruption_is_detected() {
        let page = encode_page(&sample(5)).unwrap();
        let mut corrupt = page.to_vec();
        corrupt[100] ^= 0xff;
        let err = decode_page(&corrupt).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn bad_magic_is_detected() {
        let page = encode_page(&sample(1)).unwrap();
        let mut bad = page.to_vec();
        bad[0] ^= 0xff;
        // Fix up the checksum so only the magic is wrong.
        let checksum = super::fnv1a(&bad[..PAGE_SIZE - CHECKSUM_SIZE]);
        bad[PAGE_SIZE - CHECKSUM_SIZE..].copy_from_slice(&checksum.to_le_bytes());
        let err = decode_page(&bad).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn wrong_length_is_rejected() {
        assert!(decode_page(&[0u8; 16]).is_err());
    }

    /// `Run::build` sizes a run as `pages_for(n) * PAGE_SIZE` without
    /// encoding it: the encoder stays the definition of that figure.
    #[test]
    fn page_arithmetic_is_the_encoders_length() {
        for n in 0..=2 * records_per_page() + 1 {
            let records = sample(n);
            let pages = encode_pages(&records).unwrap();
            let encoded: usize = pages.iter().map(|p| p.len()).sum();
            assert_eq!(pages_for(n) * PAGE_SIZE, encoded, "n = {n}");
            let decoded = decode_pages(pages.iter().map(|p| p.as_ref())).unwrap();
            assert_eq!(decoded, records, "n = {n}");
        }
    }

    #[test]
    fn multi_page_roundtrip() {
        let records = sample(records_per_page() * 2 + 13);
        let pages = encode_pages(&records).unwrap();
        assert_eq!(pages.len(), 3);
        let decoded = decode_pages(pages.iter().map(|p| p.as_ref())).unwrap();
        assert_eq!(decoded, records);
    }
}
