//! The control-plane metadata store — `sys.databases`.
//!
//! Before a database is physically paused, Algorithm 1 (line 31) records
//! the start of its next predicted activity in the metadata store; the
//! proactive resume operation (Algorithm 5) then selects all physically
//! paused databases whose predicted activity starts inside the upcoming
//! pre-warm slot:
//!
//! ```sql
//! SELECT database_id FROM sys.databases
//! WHERE state = 'physical_pause'
//!   AND @now + @k <= start_of_pred_activity
//!   AND start_of_pred_activity <= @now + @k + 1
//! ```
//!
//! A secondary ordered index on `start_of_pred_activity` makes that scan a
//! range lookup (`O(log n + m)`) instead of a full table scan — essential
//! when one region holds hundreds of thousands of databases and the scan
//! runs every minute (§9.3, Figure 11).

use prorp_types::{DatabaseId, DbState, Seconds, Timestamp};
use std::collections::{BTreeSet, HashMap};

/// One row of `sys.databases`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DbMeta {
    /// Current lifecycle state.
    pub state: DbState,
    /// `start_of_pred_activity`: when the next customer activity is
    /// predicted to begin, if a prediction exists.
    pub pred_start: Option<Timestamp>,
}

impl Default for DbMeta {
    fn default() -> Self {
        DbMeta {
            state: DbState::Resumed,
            pred_start: None,
        }
    }
}

/// Region-wide metadata for all serverless databases.
#[derive(Clone, Debug, Default)]
pub struct MetadataStore {
    rows: HashMap<DatabaseId, DbMeta>,
    /// `(start_of_pred_activity, database_id)` for rows that are
    /// physically paused *and* carry a prediction — exactly the rows
    /// Algorithm 5 may select.
    by_pred_start: BTreeSet<(Timestamp, DatabaseId)>,
}

impl MetadataStore {
    /// An empty store.
    pub fn new() -> Self {
        MetadataStore::default()
    }

    /// Number of registered databases.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Current row for `db`, if registered.
    pub fn get(&self, db: DatabaseId) -> Option<DbMeta> {
        self.rows.get(&db).copied()
    }

    /// Register or update a database row, keeping the secondary index
    /// consistent.
    pub fn upsert(&mut self, db: DatabaseId, meta: DbMeta) {
        let old = self.rows.insert(db, meta);
        let was = old.as_ref().and_then(Self::indexable);
        self.reindex(db, was, Self::indexable(&meta));
    }

    /// Edit `db`'s row in place (registering it if new) with one probe
    /// of the row map, keeping the secondary index consistent.
    fn update(&mut self, db: DatabaseId, edit: impl FnOnce(&mut DbMeta)) {
        let meta = self.rows.entry(db).or_default();
        let was = Self::indexable(meta);
        edit(meta);
        let is = Self::indexable(meta);
        self.reindex(db, was, is);
    }

    /// Move `db`'s secondary-index entry from `was` to `is`.
    fn reindex(&mut self, db: DatabaseId, was: Option<Timestamp>, is: Option<Timestamp>) {
        if was == is {
            return;
        }
        if let Some(ps) = was {
            self.by_pred_start.remove(&(ps, db));
        }
        if let Some(ps) = is {
            self.by_pred_start.insert((ps, db));
        }
    }

    /// Update the lifecycle state of `db` (registering it if new).
    ///
    /// Resuming consumes the stored prediction: a database that went
    /// through `Resumed` must publish a fresh `start_of_pred_activity`
    /// (Algorithm 1 line 31) before the next physical pause can enter the
    /// proactive-resume queue.
    pub fn set_state(&mut self, db: DatabaseId, state: DbState) {
        self.update(db, |meta| {
            meta.state = state;
            if state == DbState::Resumed {
                meta.pred_start = None;
            }
        });
    }

    /// Record `start_of_pred_activity` for `db` — the `InsertMetadata`
    /// call of Algorithm 1 line 31 (registering the database if new).
    pub fn set_prediction(&mut self, db: DatabaseId, pred_start: Option<Timestamp>) {
        self.update(db, |meta| meta.pred_start = pred_start);
    }

    /// Drop a database (deletion / move away from this region).
    pub fn remove(&mut self, db: DatabaseId) -> Option<DbMeta> {
        let old = self.rows.remove(&db);
        if let Some(meta) = old {
            if let Some(ps) = Self::indexable(&meta) {
                self.by_pred_start.remove(&(ps, db));
            }
        }
        old
    }

    /// The Algorithm 5 selection: physically paused databases whose
    /// predicted activity starts within `[now + k, now + k + width]`
    /// (closed interval, as in the paper's `<=` bounds; `width` is the
    /// scan period — 1 minute in production).
    ///
    /// The scan streams straight off the secondary index in
    /// `start_of_pred_activity` order without materialising a `Vec` —
    /// the per-minute fleet scan visits `m` matches in `O(log n + m)`
    /// with zero allocation.
    pub fn databases_to_resume_iter(
        &self,
        now: Timestamp,
        prewarm: Seconds,
        width: Seconds,
    ) -> impl Iterator<Item = DatabaseId> + '_ {
        let lo = now + prewarm;
        let hi = lo + width;
        self.by_pred_start
            .range((lo, DatabaseId(u64::MIN))..=(hi, DatabaseId(u64::MAX)))
            .map(|(_, db)| *db)
    }

    /// Databases whose predicted start has already been missed (it is in
    /// the past but they are still physically paused).  The diagnostics
    /// runner (§7) monitors this queue for stuck databases.
    ///
    /// Streams off the secondary index in `start_of_pred_activity`
    /// order, like [`databases_to_resume_iter`](Self::databases_to_resume_iter).
    pub fn overdue_resumes_iter(&self, now: Timestamp) -> impl Iterator<Item = DatabaseId> + '_ {
        self.by_pred_start
            .range(..(now, DatabaseId(u64::MIN)))
            .map(|(_, db)| *db)
    }

    /// Split the store into `shard_count` shard-local stores by id-hash
    /// ([`DatabaseId::shard_of`]), each with its own secondary
    /// `start_of_pred_activity` index.
    ///
    /// Every row lands in exactly one partition, so the union of the
    /// partitions' [`databases_to_resume_iter`](Self::databases_to_resume_iter)
    /// results equals the global scan — this is what lets the Algorithm 5
    /// scan run shard-parallel (one worker per partition) without any
    /// cross-shard coordination.
    ///
    /// # Panics
    ///
    /// Panics when `shard_count` is zero.
    pub fn partition(&self, shard_count: usize) -> Vec<MetadataStore> {
        assert!(shard_count > 0, "shard_count must be positive");
        let mut out = vec![MetadataStore::new(); shard_count];
        for (db, meta) in &self.rows {
            out[db.shard_of(shard_count)].upsert(*db, *meta);
        }
        out
    }

    /// Count of rows in each lifecycle state (diagnostics, Figure 11/12).
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for meta in self.rows.values() {
            match meta.state {
                DbState::Resumed => counts.0 += 1,
                DbState::LogicallyPaused => counts.1 += 1,
                DbState::PhysicallyPaused => counts.2 += 1,
            }
        }
        counts
    }

    fn indexable(meta: &DbMeta) -> Option<Timestamp> {
        if meta.state == DbState::PhysicallyPaused {
            meta.pred_start
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(id: u64) -> DatabaseId {
        DatabaseId(id)
    }

    fn paused_at(store: &mut MetadataStore, id: u64, pred: i64) {
        store.upsert(
            db(id),
            DbMeta {
                state: DbState::PhysicallyPaused,
                pred_start: Some(Timestamp(pred)),
            },
        );
    }

    #[test]
    fn upsert_and_get_roundtrip() {
        let mut store = MetadataStore::new();
        assert!(store.get(db(1)).is_none());
        store.set_state(db(1), DbState::LogicallyPaused);
        assert_eq!(store.get(db(1)).unwrap().state, DbState::LogicallyPaused);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn algorithm_5_selects_the_prewarm_slot() {
        let mut store = MetadataStore::new();
        let now = Timestamp(1_000);
        let k = Seconds(300);
        let width = Seconds(60);
        paused_at(&mut store, 1, 1_299); // just before the slot
        paused_at(&mut store, 2, 1_300); // slot start (now + k)
        paused_at(&mut store, 3, 1_330); // inside
        paused_at(&mut store, 4, 1_360); // slot end (now + k + width)
        paused_at(&mut store, 5, 1_361); // just after
        let selected: Vec<_> = store.databases_to_resume_iter(now, k, width).collect();
        assert_eq!(selected, vec![db(2), db(3), db(4)]);
    }

    #[test]
    fn only_physically_paused_databases_are_selected() {
        let mut store = MetadataStore::new();
        let now = Timestamp(0);
        store.upsert(
            db(1),
            DbMeta {
                state: DbState::LogicallyPaused,
                pred_start: Some(Timestamp(300)),
            },
        );
        paused_at(&mut store, 2, 300);
        let selected: Vec<_> = store
            .databases_to_resume_iter(now, Seconds(300), Seconds(60))
            .collect();
        assert_eq!(selected, vec![db(2)]);
    }

    #[test]
    fn state_change_updates_secondary_index() {
        let mut store = MetadataStore::new();
        paused_at(&mut store, 1, 300);
        // Database resumes: must leave the resume queue.
        store.set_state(db(1), DbState::Resumed);
        assert!(store
            .databases_to_resume_iter(Timestamp(0), Seconds(300), Seconds(60))
            .next()
            .is_none());
        // And pausing again re-registers it only with a fresh prediction.
        store.set_state(db(1), DbState::PhysicallyPaused);
        assert!(store
            .databases_to_resume_iter(Timestamp(0), Seconds(300), Seconds(60))
            .next()
            .is_none());
        store.set_prediction(db(1), Some(Timestamp(320)));
        assert!(store
            .databases_to_resume_iter(Timestamp(0), Seconds(300), Seconds(60))
            .eq([db(1)]));
    }

    #[test]
    fn remove_clears_both_structures() {
        let mut store = MetadataStore::new();
        paused_at(&mut store, 7, 500);
        assert!(store.remove(db(7)).is_some());
        assert!(store.is_empty());
        assert!(store
            .databases_to_resume_iter(Timestamp(0), Seconds(400), Seconds(200))
            .next()
            .is_none());
        assert!(store.remove(db(7)).is_none());
    }

    #[test]
    fn overdue_resumes_reports_missed_predictions() {
        let mut store = MetadataStore::new();
        paused_at(&mut store, 1, 100);
        paused_at(&mut store, 2, 900);
        assert!(store.overdue_resumes_iter(Timestamp(500)).eq([db(1)]));
        assert!(store.overdue_resumes_iter(Timestamp(50)).next().is_none());
    }

    #[test]
    fn partition_covers_every_row_exactly_once() {
        let mut store = MetadataStore::new();
        for id in 0..200 {
            paused_at(&mut store, id, 1_000 + id as i64);
        }
        let parts = store.partition(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(MetadataStore::len).sum::<usize>(), 200);
        for id in 0..200 {
            let owners = parts.iter().filter(|p| p.get(db(id)).is_some()).count();
            assert_eq!(owners, 1, "db {id} must live in exactly one partition");
        }
        // Shard-local scans union to the global scan.
        let (now, k, width) = (Timestamp(0), Seconds(1_000), Seconds(60));
        let mut local: Vec<DatabaseId> = parts
            .iter()
            .flat_map(|p| p.databases_to_resume_iter(now, k, width))
            .collect();
        local.sort_unstable();
        let mut global: Vec<DatabaseId> = store.databases_to_resume_iter(now, k, width).collect();
        global.sort_unstable();
        assert_eq!(local, global);
    }

    #[test]
    fn state_counts_tally_by_lifecycle() {
        let mut store = MetadataStore::new();
        store.set_state(db(1), DbState::Resumed);
        store.set_state(db(2), DbState::LogicallyPaused);
        store.set_state(db(3), DbState::PhysicallyPaused);
        store.set_state(db(4), DbState::PhysicallyPaused);
        assert_eq!(store.state_counts(), (1, 1, 2));
    }
}
