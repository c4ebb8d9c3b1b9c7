//! The state-store seam a finished run's reads are served from.
//!
//! While the run is open, `GET /v1/databases/:id` reads the driver
//! itself: every request holds the lock on it, so a second copy of the
//! state would add no concurrency, only a way to go stale.
//! `POST /v1/finish` consumes the driver, so it first puts each
//! database's [`DbRecord`], as of the last advance, into a
//! [`StateBackend`], and the reads after it answer from there.  The
//! trait is shaped like a key-value store with no engine types in its
//! signatures: an in-memory map today, a redis/postgres projection
//! tomorrow, without touching the API layer.

use prorp_core::EngineCounters;
use prorp_telemetry::IncidentEntry;
use prorp_types::{DatabaseId, DbState, Prediction, Timestamp};
use std::collections::HashMap;
use std::sync::RwLock;

/// One database as the control-plane API serves it.
#[derive(Clone, PartialEq, Debug)]
pub struct DbRecord {
    /// The database.
    pub id: DatabaseId,
    /// Lifecycle state at the watermark.
    pub state: DbState,
    /// The engine's currently published predicted next activity, if any.
    pub prediction: Option<Prediction>,
    /// Engine counters at the watermark.
    pub counters: EngineCounters,
    /// An unresolved incident (retry exhaustion, stuck workflow).  While
    /// set, the database read returns HTTP 503; an operator-forced
    /// resume clears it.
    pub open_incident: Option<IncidentEntry>,
    /// The watermark the record was read at.
    pub as_of: Timestamp,
}

/// Put/read seam for the records a finished run leaves behind.
///
/// Implementations must be internally synchronised ([`Send`] +
/// [`Sync`]): the HTTP workers write and read them, and whoever handed
/// the backend to the server may read them too.
pub trait StateBackend: Send + Sync {
    /// Insert or replace one record.
    fn put(&self, record: DbRecord);
    /// Read one record.
    fn get(&self, id: DatabaseId) -> Option<DbRecord>;
    /// All records, in ascending id order.
    fn all(&self) -> Vec<DbRecord>;
}

/// The in-memory [`StateBackend`]: a `RwLock`-ed map.
#[derive(Default)]
pub struct InMemoryBackend {
    records: RwLock<HashMap<DatabaseId, DbRecord>>,
}

impl InMemoryBackend {
    /// An empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateBackend for InMemoryBackend {
    fn put(&self, record: DbRecord) {
        self.records
            .write()
            .expect("backend lock poisoned")
            .insert(record.id, record);
    }

    fn get(&self, id: DatabaseId) -> Option<DbRecord> {
        self.records
            .read()
            .expect("backend lock poisoned")
            .get(&id)
            .cloned()
    }

    fn all(&self) -> Vec<DbRecord> {
        let mut out: Vec<DbRecord> = self
            .records
            .read()
            .expect("backend lock poisoned")
            .values()
            .cloned()
            .collect();
        out.sort_by_key(|r| r.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, state: DbState) -> DbRecord {
        DbRecord {
            id: DatabaseId(id),
            state,
            prediction: None,
            counters: EngineCounters::default(),
            open_incident: None,
            as_of: Timestamp(0),
        }
    }

    #[test]
    fn put_get_replace() {
        let b = InMemoryBackend::new();
        assert!(b.get(DatabaseId(1)).is_none());
        b.put(record(1, DbState::Resumed));
        assert_eq!(b.get(DatabaseId(1)).unwrap().state, DbState::Resumed);
        b.put(record(1, DbState::PhysicallyPaused));
        assert_eq!(
            b.get(DatabaseId(1)).unwrap().state,
            DbState::PhysicallyPaused
        );
    }

    #[test]
    fn all_is_id_ordered() {
        let b = InMemoryBackend::new();
        b.put(record(3, DbState::Resumed));
        b.put(record(1, DbState::Resumed));
        b.put(record(2, DbState::Resumed));
        let ids: Vec<u64> = b.all().iter().map(|r| r.id.raw()).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
