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
//!
//! # Rows are numbered
//!
//! The table is a vector: the first database ever written gets row 0,
//! the next row 1, and so on, with the ids in a column beside the rows.
//! [`row_for`](MetadataStore::row_for) hands that number out, and the
//! row-addressed setters ([`set_state_at`](MetadataStore::set_state_at),
//! [`set_prediction_at`](MetadataStore::set_prediction_at)) take it back
//! without hashing anything — the shard event loop registers its
//! databases here in the same order as everywhere else, so the row *is*
//! the database's slot in every other per-shard column.  The id-keyed
//! methods reach the same rows through one id→row lookup and then run
//! the same code: one layout, one routine that maintains the secondary
//! index.
//!
//! This is a shard's only record of which database sits at which slot:
//! its id column ([`ids`](MetadataStore::ids)) and its one id→row
//! lookup ([`row_of`](MetadataStore::row_of)).  Generated fleets number
//! their databases densely, so the lookup is a flat vector indexed by
//! raw id that spills to a hash map when ids turn out sparse.  A row is
//! never removed: its number stays valid for the life of the store.

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

/// Absent-entry sentinel in the dense index vector.
const SENTINEL: u32 = u32::MAX;

/// A `DatabaseId → row` map specialised for mostly-dense ids.
///
/// Generated fleets number their databases `0..n`, so a shard's ids —
/// an id-hash partition of that range — fit a flat `Vec<u32>` keyed by
/// raw id with a small constant factor of waste.  Ids that stray far
/// beyond the dense range (hand-built fleets, external id spaces) make
/// the map migrate every entry into a `HashMap` once and stay there.
/// Lookups are a bounds check plus one array read on the dense path.
#[derive(Clone, Debug, Default)]
struct DbIndexMap {
    dense: Vec<u32>,
    sparse: HashMap<DatabaseId, u32>,
    len: usize,
}

impl DbIndexMap {
    /// Raw-id ceiling below which an id keeps the map dense: a shard of
    /// an id-hashed `0..n` fleet holds roughly `n / shards` entries with
    /// raw ids up to `n`, so the dense vector is allowed to be a wide
    /// multiple of the entry count before spilling.
    fn dense_limit(&self) -> u64 {
        32 * (self.len as u64 + 1) + 1024
    }

    /// Map `id` to `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is the reserved sentinel or `id` is already
    /// mapped.
    fn insert(&mut self, id: DatabaseId, row: u32) {
        assert!(row != SENTINEL, "row u32::MAX is reserved");
        if self.sparse.is_empty() {
            let raw = id.raw();
            if raw < self.dense_limit() {
                let at = raw as usize;
                if at >= self.dense.len() {
                    self.dense.resize(at + 1, SENTINEL);
                }
                assert!(self.dense[at] == SENTINEL, "database {id} mapped twice");
                self.dense[at] = row;
                self.len += 1;
                return;
            }
            // Sparse ids: migrate the dense prefix into the hash map and
            // stay sparse from here on.
            self.sparse.reserve(self.len + 1);
            for (raw, &v) in self.dense.iter().enumerate() {
                if v != SENTINEL {
                    self.sparse.insert(DatabaseId(raw as u64), v);
                }
            }
            self.dense = Vec::new();
        }
        let prev = self.sparse.insert(id, row);
        assert!(prev.is_none(), "database {id} mapped twice");
        self.len += 1;
    }

    /// The row of `id`, if mapped.
    #[inline]
    fn get(&self, id: DatabaseId) -> Option<usize> {
        if self.sparse.is_empty() {
            let raw = id.raw();
            if (raw as usize) < self.dense.len() && self.dense[raw as usize] != SENTINEL {
                return Some(self.dense[raw as usize] as usize);
            }
            return None;
        }
        self.sparse.get(&id).map(|&v| v as usize)
    }
}

/// Region-wide metadata for all serverless databases.
#[derive(Clone, Debug, Default)]
pub struct MetadataStore {
    /// The table, in row order.
    rows: Vec<DbMeta>,
    /// The id of each row.
    ids: Vec<DatabaseId>,
    /// `id → row` — the one lookup behind every id-keyed method.
    row_of: DbIndexMap,
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

    /// An empty store expecting about `capacity` databases.
    pub fn with_capacity(capacity: usize) -> Self {
        MetadataStore {
            rows: Vec::with_capacity(capacity),
            ids: Vec::with_capacity(capacity),
            row_of: DbIndexMap {
                dense: Vec::with_capacity(capacity),
                ..DbIndexMap::default()
            },
            by_pred_start: BTreeSet::new(),
        }
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
        Some(self.rows[self.row_of(db)?])
    }

    /// The row number of `db`, if registered.
    #[inline]
    pub fn row_of(&self, db: DatabaseId) -> Option<usize> {
        self.row_of.get(db)
    }

    /// The database ids in row order: `ids()[row]` is the database at
    /// `row`.
    pub fn ids(&self) -> &[DatabaseId] {
        &self.ids
    }

    /// Whether the id→row lookup spilled from its dense vector to a hash
    /// map (an id far beyond the row count was registered).
    pub fn is_sparse(&self) -> bool {
        !self.row_of.sparse.is_empty()
    }

    /// The row number of `db`, registering it with the default row
    /// (resumed, no prediction) if it is new.  A new database always
    /// takes the next row number — the count of rows.
    ///
    /// # Panics
    ///
    /// Panics when the store would exceed `u32::MAX` rows.
    pub fn row_for(&mut self, db: DatabaseId) -> usize {
        if let Some(row) = self.row_of(db) {
            return row;
        }
        let row = u32::try_from(self.rows.len()).expect("sys.databases exceeds u32 rows");
        self.row_of.insert(db, row);
        self.rows.push(DbMeta::default());
        self.ids.push(db);
        row as usize
    }

    /// Register or update a database row, keeping the secondary index
    /// consistent.
    pub fn upsert(&mut self, db: DatabaseId, meta: DbMeta) {
        let row = self.row_for(db);
        self.update(row, |m| *m = meta);
    }

    /// Edit the row at `row` in place, keeping the secondary index
    /// consistent — the one routine every write goes through.
    fn update(&mut self, row: usize, edit: impl FnOnce(&mut DbMeta)) {
        let meta = &mut self.rows[row];
        let was = Self::indexable(meta);
        edit(meta);
        let is = Self::indexable(meta);
        if was == is {
            return;
        }
        let db = self.ids[row];
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
        let row = self.row_for(db);
        self.set_state_at(row, state);
    }

    /// [`set_state`](Self::set_state) for the database at `row`, with no
    /// lookup.
    ///
    /// # Panics
    ///
    /// Panics when `row` was never handed out.
    pub fn set_state_at(&mut self, row: usize, state: DbState) {
        self.update(row, |meta| {
            meta.state = state;
            if state == DbState::Resumed {
                meta.pred_start = None;
            }
        });
    }

    /// Record `start_of_pred_activity` for `db` — the `InsertMetadata`
    /// call of Algorithm 1 line 31 (registering the database if new).
    pub fn set_prediction(&mut self, db: DatabaseId, pred_start: Option<Timestamp>) {
        let row = self.row_for(db);
        self.set_prediction_at(row, pred_start);
    }

    /// [`set_prediction`](Self::set_prediction) for the database at
    /// `row`, with no lookup.
    ///
    /// # Panics
    ///
    /// Panics when `row` was never handed out.
    pub fn set_prediction_at(&mut self, row: usize, pred_start: Option<Timestamp>) {
        self.update(row, |meta| meta.pred_start = pred_start);
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
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl MetadataStore {
        /// Databases whose predicted start has already been missed (it is in
        /// the past but they are still physically paused).  The diagnostics
        /// runner (§7) monitors this queue for stuck databases.
        ///
        /// Streams off the secondary index in `start_of_pred_activity`
        /// order, like [`databases_to_resume_iter`](Self::databases_to_resume_iter).
        pub(crate) fn overdue_resumes_iter(
            &self,
            now: Timestamp,
        ) -> impl Iterator<Item = DatabaseId> + '_ {
            self.by_pred_start
                .range(..(now, DatabaseId(u64::MIN)))
                .map(|(_, db)| *db)
        }

        /// Count of rows in each lifecycle state.
        fn state_counts(&self) -> (usize, usize, usize) {
            let mut counts = (0, 0, 0);
            for meta in &self.rows {
                match meta.state {
                    DbState::Resumed => counts.0 += 1,
                    DbState::LogicallyPaused => counts.1 += 1,
                    DbState::PhysicallyPaused => counts.2 += 1,
                }
            }
            counts
        }
    }

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
        let mut parts = vec![MetadataStore::new(); 4];
        for (&id, meta) in store.ids.iter().zip(&store.rows) {
            parts[id.shard_of(4)].upsert(id, *meta);
        }
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

    impl MetadataStore {
        /// The secondary index rebuilt from the rows alone.
        fn rebuilt_index(&self) -> BTreeSet<(Timestamp, DatabaseId)> {
            self.ids
                .iter()
                .zip(&self.rows)
                .filter_map(|(&db, meta)| Some((Self::indexable(meta)?, db)))
                .collect()
        }
    }

    #[test]
    fn dense_ids_stay_in_the_flat_vector() {
        let mut map = DbIndexMap::default();
        for (row, raw) in [0u64, 7, 3, 1_000].into_iter().enumerate() {
            map.insert(DatabaseId(raw), row as u32);
        }
        assert_eq!(map.len, 4);
        assert!(map.sparse.is_empty());
        assert_eq!(map.get(DatabaseId(3)), Some(2));
        assert_eq!(map.get(DatabaseId(1_000)), Some(3));
        assert_eq!(map.get(DatabaseId(2)), None);
        assert_eq!(map.get(DatabaseId(u64::MAX)), None, "huge probe is safe");
    }

    #[test]
    fn sparse_ids_spill_to_the_hash_map_and_keep_old_entries() {
        let mut map = DbIndexMap::default();
        map.insert(DatabaseId(5), 0);
        map.insert(DatabaseId(0xDEAD_BEEF_DEAD_BEEF), 1);
        assert!(!map.sparse.is_empty() && map.dense.is_empty());
        assert_eq!(map.get(DatabaseId(5)), Some(0), "dense prefix migrated");
        assert_eq!(map.get(DatabaseId(0xDEAD_BEEF_DEAD_BEEF)), Some(1));
        assert_eq!(map.get(DatabaseId(6)), None);
        map.insert(DatabaseId(6), 2);
        assert_eq!(map.get(DatabaseId(6)), Some(2));
        assert_eq!(map.len, 3);
    }

    #[test]
    #[should_panic(expected = "mapped twice")]
    fn duplicate_ids_are_rejected() {
        let mut map = DbIndexMap::default();
        map.insert(DatabaseId(1), 0);
        map.insert(DatabaseId(1), 1);
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Upsert(u64, DbState, Option<i64>),
        State(u64, DbState),
        Prediction(u64, Option<i64>),
    }

    /// Ten dense ids and two far beyond them.
    const IDS: [u64; 12] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1 << 40, u64::MAX];

    fn op() -> impl Strategy<Value = Op> {
        let id = || (0..IDS.len()).prop_map(|i| IDS[i]);
        let state = || {
            (0u8..3).prop_map(|s| match s {
                0 => DbState::Resumed,
                1 => DbState::LogicallyPaused,
                _ => DbState::PhysicallyPaused,
            })
        };
        let pred = || prop::option::of(0i64..50);
        prop_oneof![
            2 => (id(), state(), pred()).prop_map(|(d, s, p)| Op::Upsert(d, s, p)),
            4 => (id(), state()).prop_map(|(d, s)| Op::State(d, s)),
            4 => (id(), pred()).prop_map(|(d, p)| Op::Prediction(d, p)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One store written by id, one written by row number, and the
        /// table as it was before rows were numbered — a `HashMap` from
        /// id to row — as the model: after every operation of a random
        /// interleaving (ids dense and sparse, so the lookup spills) the
        /// three hold the same rows, each id's row holds that id, and
        /// each store's secondary index equals a rebuild from its rows.
        #[test]
        fn row_addressed_writes_are_id_keyed_writes(ops in prop::collection::vec(op(), 0..160)) {
            let mut keyed = MetadataStore::new();
            let mut addressed = MetadataStore::new();
            let mut model: HashMap<DatabaseId, DbMeta> = HashMap::new();
            for op in ops {
                match op {
                    Op::Upsert(id, state, pred) => {
                        let meta = DbMeta { state, pred_start: pred.map(Timestamp) };
                        keyed.upsert(db(id), meta);
                        addressed.upsert(db(id), meta);
                        model.insert(db(id), meta);
                    }
                    Op::State(id, state) => {
                        keyed.set_state(db(id), state);
                        let row = addressed.row_for(db(id));
                        addressed.set_state_at(row, state);
                        let meta = model.entry(db(id)).or_default();
                        meta.state = state;
                        if state == DbState::Resumed {
                            meta.pred_start = None;
                        }
                    }
                    Op::Prediction(id, pred) => {
                        keyed.set_prediction(db(id), pred.map(Timestamp));
                        let row = addressed.row_for(db(id));
                        addressed.set_prediction_at(row, pred.map(Timestamp));
                        model.entry(db(id)).or_default().pred_start = pred.map(Timestamp);
                    }
                }
                for store in [&keyed, &addressed] {
                    prop_assert_eq!(store.len(), model.len());
                    for id in IDS {
                        prop_assert_eq!(store.get(db(id)), model.get(&db(id)).copied());
                    }
                    for (row, &id) in store.ids().iter().enumerate() {
                        prop_assert_eq!(store.row_of(id), Some(row));
                    }
                    prop_assert_eq!(&store.by_pred_start, &store.rebuilt_index());
                }
                prop_assert_eq!(&keyed.by_pred_start, &addressed.by_pred_start);
                prop_assert_eq!(&keyed.ids, &addressed.ids, "same numbering");
            }
        }
    }
}
