//! The state-store seam the API serves reads from.
//!
//! The driver owns the authoritative engine state; after every
//! watermark advance the server *publishes* a [`DbRecord`] through a
//! [`StateBackend`] for each database the advance touched — the ones
//! an event reached or an incident was raised for — and for nobody
//! else, so the backend sees writes in proportion to what changed, not
//! to the fleet.  Reads (`GET /v1/databases/:id`) never touch the
//! driver — they hit the backend, which is why the trait is shaped like
//! a key-value store with no engine types in its signatures: an
//! in-memory map today, a redis/postgres projection tomorrow, without
//! touching the API layer.

use prorp_core::EngineCounters;
use prorp_telemetry::IncidentEntry;
use prorp_types::{DatabaseId, DbState, Prediction, Timestamp};
use std::collections::HashMap;
use std::sync::RwLock;

/// The published view of one database — what the control-plane API
/// serves, rewritten after every watermark advance that touched the
/// database.
#[derive(Clone, PartialEq, Debug)]
pub struct DbRecord {
    /// The database.
    pub id: DatabaseId,
    /// Lifecycle state at the publish watermark.
    pub state: DbState,
    /// The engine's currently published predicted next activity, if any.
    pub prediction: Option<Prediction>,
    /// Engine counters at the publish watermark.
    pub counters: EngineCounters,
    /// An unresolved incident (retry exhaustion, stuck workflow).  While
    /// set, the database read returns HTTP 503; an operator-forced
    /// resume clears it.
    pub open_incident: Option<IncidentEntry>,
    /// The watermark this record was last published at.  An advance
    /// that did not touch the database leaves the record — still
    /// current, since nothing about it changed — and this stamp alone;
    /// the API reports the server's watermark as a read's `as_of`.
    pub as_of: Timestamp,
}

/// Publish/read seam between the driver thread and the API handlers.
///
/// Implementations must be internally synchronised ([`Send`] +
/// [`Sync`]): publishes come from whoever holds the driver, reads from
/// whichever thread serves the request.
pub trait StateBackend: Send + Sync {
    /// Publish (insert or replace) one record.
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
