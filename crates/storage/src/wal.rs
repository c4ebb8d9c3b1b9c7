//! A write-ahead log for the history table.
//!
//! §3.3 requires the history store to be durable; §5 leans on "the
//! established backup and restore mechanisms of Azure SQL Database to
//! tackle data loss".  Real engines bridge the gap between backups with
//! a write-ahead log: every mutation is appended (and in a real
//! deployment fsynced) before it is applied, and recovery replays the
//! tail of the log over the last backup image.
//!
//! The log records exactly the two mutations Algorithms 2–3 perform:
//!
//! * [`WalRecord::Insert`] — one `(time_snapshot, event_type)` tuple;
//! * [`WalRecord::DeleteRange`] — the exclusive `(min, history_start)`
//!   range of a `DeleteOldHistory` run.
//!
//! Each record is length-prefixed and checksummed; a torn tail (partial
//! final record, the normal crash artefact) is detected and truncated
//! rather than treated as corruption.

use crate::history::HistoryTable;
use crate::store::{HistoryRead, HistoryStore};
use bytes::{Buf, BufMut, BytesMut};
use prorp_types::{EventKind, ProrpError, Seconds, Timestamp};

/// Log-record magic prefix.
const RECORD_MAGIC: u8 = 0x57; // 'W'

/// Encoded size of one record: `magic (1) | body (17) | checksum (8)`.
pub(crate) const RECORD_LEN: usize = 1 + 17 + 8;

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
}

/// An append-only in-memory log image (the bytes that would sit on disk).
#[derive(Clone, Debug, Default)]
pub struct WriteAheadLog {
    buf: BytesMut,
    records: usize,
}

impl WriteAheadLog {
    /// An empty log.
    pub fn new() -> Self {
        WriteAheadLog::default()
    }

    /// Number of records appended.
    pub fn len(&self) -> usize {
        self.records
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Byte size of the log image.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// Append one record: `magic (1) | body (17) | checksum (8)`.
    pub fn append(&mut self, record: WalRecord) {
        let body = record.encode_body();
        self.buf.put_u8(RECORD_MAGIC);
        self.buf.extend_from_slice(&body);
        self.buf.put_u64_le(fnv1a(&body));
        self.records += 1;
    }

    /// The on-disk image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Truncate after a checkpoint (backup taken): the log restarts
    /// empty.
    pub fn checkpoint(&mut self) {
        self.buf.clear();
        self.records = 0;
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

    /// Replay decoded records over a (backup-restored) table.
    pub fn replay(records: &[WalRecord], table: &mut HistoryTable) -> Result<(), ProrpError> {
        for rec in records {
            match rec {
                WalRecord::Insert { ts, event_type } => {
                    let kind = EventKind::from_i32(*event_type as i32)?;
                    // Idempotent, like Algorithm 2 itself.
                    table.insert_history(Timestamp(*ts), kind);
                }
                WalRecord::DeleteRange { min, history_start } => {
                    // Replay via the same maintenance path: reconstruct
                    // the (h, now) pair that produces this range.  Any
                    // (h, now) with now - h == history_start works when
                    // the preserved minimum matches.
                    let now = Timestamp(*history_start);
                    let _ = min;
                    table.delete_old_history(Seconds(0), now);
                }
            }
        }
        Ok(())
    }
}

/// A history table with write-ahead logging on every mutation — the
/// durable wrapper a node would actually run.
#[derive(Clone, Debug, Default)]
pub struct DurableHistory {
    table: HistoryTable,
    wal: WriteAheadLog,
}

impl DurableHistory {
    /// An empty durable history.
    pub fn new() -> Self {
        DurableHistory::default()
    }

    /// Read access to the live table.
    pub fn table(&self) -> &HistoryTable {
        &self.table
    }

    /// The log accumulated since the last checkpoint.
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Logged insert (Algorithm 2).
    pub fn insert_history(&mut self, ts: Timestamp, kind: EventKind) -> bool {
        // Log first, then apply — the WAL discipline.
        self.wal.append(WalRecord::Insert {
            ts: ts.as_secs(),
            event_type: i64::from(kind.as_i32()),
        });
        self.table.insert_history(ts, kind)
    }

    /// Logged trim (Algorithm 3).
    pub fn delete_old_history(
        &mut self,
        h: Seconds,
        now: Timestamp,
    ) -> crate::history::DeleteOutcome {
        let history_start = (now - h).as_secs();
        let min = self.table.min_timestamp().map(|t| t.as_secs()).unwrap_or(0);
        self.wal
            .append(WalRecord::DeleteRange { min, history_start });
        self.table.delete_old_history(h, now)
    }

    /// Take a backup and truncate the log (a checkpoint).
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, ProrpError> {
        let image = crate::backup::backup_history(&self.table)?;
        self.wal.checkpoint();
        Ok(image)
    }

    /// Crash recovery: restore the last backup and replay the WAL image.
    pub fn recover(backup: &[u8], wal_image: &[u8]) -> Result<Self, ProrpError> {
        let mut table = crate::backup::restore_history(backup)?;
        let records = WriteAheadLog::decode(wal_image)?;
        WriteAheadLog::replay(&records, &mut table)?;
        // The recovered node starts a fresh log (the old one is applied).
        Ok(DurableHistory {
            table,
            wal: WriteAheadLog::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backup::backup_history;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
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

    #[test]
    fn log_append_decode_roundtrip() {
        let mut wal = WriteAheadLog::new();
        wal.append(WalRecord::Insert {
            ts: 10,
            event_type: 1,
        });
        wal.append(WalRecord::Insert {
            ts: 20,
            event_type: 0,
        });
        wal.append(WalRecord::DeleteRange {
            min: 0,
            history_start: 15,
        });
        assert_eq!(wal.len(), 3);
        let decoded = WriteAheadLog::decode(wal.as_bytes()).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(
            decoded[0],
            WalRecord::Insert {
                ts: 10,
                event_type: 1
            }
        );
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut wal = WriteAheadLog::new();
        wal.append(WalRecord::Insert {
            ts: 1,
            event_type: 1,
        });
        wal.append(WalRecord::Insert {
            ts: 2,
            event_type: 0,
        });
        let image = wal.as_bytes();
        // Crash mid-append: only part of the second record hit disk.
        let torn = &image[..image.len() - 5];
        let decoded = WriteAheadLog::decode(torn).unwrap();
        assert_eq!(decoded.len(), 1, "partial record dropped");
    }

    #[test]
    fn mid_log_corruption_is_fatal() {
        let mut wal = WriteAheadLog::new();
        wal.append(WalRecord::Insert {
            ts: 1,
            event_type: 1,
        });
        wal.append(WalRecord::Insert {
            ts: 2,
            event_type: 0,
        });
        let mut image = wal.as_bytes().to_vec();
        image[3] ^= 0xff; // corrupt the first record's body
        let err = WriteAheadLog::decode(&image).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn recovery_replays_the_tail_over_the_backup() {
        let mut durable = DurableHistory::new();
        // Pre-checkpoint history.
        durable.insert_history(t(100), EventKind::Start);
        durable.insert_history(t(200), EventKind::End);
        let backup = durable.checkpoint().unwrap();
        assert!(durable.wal().is_empty());
        // Post-checkpoint mutations live only in the WAL.
        durable.insert_history(t(300), EventKind::Start);
        durable.insert_history(t(400), EventKind::End);
        let wal_image = durable.wal().as_bytes().to_vec();

        // Crash. Recover from backup + WAL.
        let recovered = DurableHistory::recover(&backup, &wal_image).unwrap();
        assert_eq!(recovered.table().events(), durable.table().events());
        assert!(recovered.wal().is_empty(), "recovered node starts fresh");
    }

    #[test]
    fn recovery_replays_deletes_too() {
        let mut durable = DurableHistory::new();
        for i in 0..10 {
            durable.insert_history(t(i * 100), EventKind::Start);
        }
        let backup = durable.checkpoint().unwrap();
        durable.delete_old_history(Seconds(0), t(500));
        let wal_image = durable.wal().as_bytes().to_vec();
        let recovered = DurableHistory::recover(&backup, &wal_image).unwrap();
        assert_eq!(recovered.table().events(), durable.table().events());
        // The oldest tuple survives the replayed trim (Algorithm 3 rule).
        assert_eq!(recovered.table().min_timestamp(), Some(t(0)));
    }

    #[test]
    fn losing_the_wal_falls_back_to_the_backup() {
        let mut durable = DurableHistory::new();
        durable.insert_history(t(1), EventKind::Start);
        let backup = durable.checkpoint().unwrap();
        durable.insert_history(t(2), EventKind::End);
        // WAL lost entirely: recovery yields the backup state.
        let recovered = DurableHistory::recover(&backup, &[]).unwrap();
        assert_eq!(recovered.table().len(), 1);
        assert_eq!(backup_history(recovered.table()).unwrap(), backup);
    }
}
