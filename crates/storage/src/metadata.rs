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
//! databases here in the same order as everywhere else, so the column
//! index it already holds *is* the row.  The id-keyed methods reach the
//! same rows through one id→row lookup and then run the same code: one
//! layout, one routine that maintains the secondary index.
//!
//! A row number stays valid for the life of the store.
//! [`remove`](MetadataStore::remove) does not compact: it leaves a
//! *vacant* row behind, which `len`, `state_counts`, `partition` and
//! both scans skip and which is never handed out again — writing the
//! same id later appends a fresh row.  Addressing a vacant row is a bug
//! in the caller and panics.

use prorp_types::{DatabaseId, DbMap, DbState, Seconds, Timestamp};
use std::collections::BTreeSet;

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
    /// The table, in row order; `None` is the vacant row a removed
    /// database left behind.
    rows: Vec<Option<DbMeta>>,
    /// The id each row was created for (kept for vacant rows too).
    ids: Vec<DatabaseId>,
    /// `id → row` for the live rows — the one lookup behind every
    /// id-keyed method.
    row_of: DbMap<u32>,
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

    /// Number of registered databases (vacant rows do not count).
    pub fn len(&self) -> usize {
        self.row_of.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.row_of.is_empty()
    }

    /// Current row for `db`, if registered.
    pub fn get(&self, db: DatabaseId) -> Option<DbMeta> {
        self.rows[self.row_of(db)?]
    }

    /// The row number of `db`, if registered.
    pub fn row_of(&self, db: DatabaseId) -> Option<usize> {
        self.row_of.get(&db).map(|&row| row as usize)
    }

    /// The row number of `db`, registering it with the default row
    /// (resumed, no prediction) if it is new.  A new database always
    /// takes the next row number — the count of rows ever created.
    ///
    /// # Panics
    ///
    /// Panics when the store would exceed `u32::MAX` rows.
    pub fn row_for(&mut self, db: DatabaseId) -> usize {
        if let Some(row) = self.row_of(db) {
            return row;
        }
        let row = u32::try_from(self.rows.len()).expect("sys.databases exceeds u32 rows");
        self.rows.push(Some(DbMeta::default()));
        self.ids.push(db);
        self.row_of.insert(db, row);
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
        let meta = self.rows[row]
            .as_mut()
            .expect("sys.databases row is vacant (its database was removed)");
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
    /// Panics when `row` was never handed out or is vacant.
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
    /// Panics when `row` was never handed out or is vacant.
    pub fn set_prediction_at(&mut self, row: usize, pred_start: Option<Timestamp>) {
        self.update(row, |meta| meta.pred_start = pred_start);
    }

    /// Drop a database (deletion / move away from this region).  Its row
    /// becomes vacant; every other row keeps its number (see the module
    /// docs).
    pub fn remove(&mut self, db: DatabaseId) -> Option<DbMeta> {
        let row = self.row_of.remove(&db)? as usize;
        let meta = self.rows[row].take();
        if let Some(ps) = meta.as_ref().and_then(Self::indexable) {
            self.by_pred_start.remove(&(ps, db));
        }
        meta
    }

    /// The live rows with their ids, in row order.
    fn live_rows(&self) -> impl Iterator<Item = (DatabaseId, &DbMeta)> {
        self.ids
            .iter()
            .zip(&self.rows)
            .filter_map(|(db, meta)| Some((*db, meta.as_ref()?)))
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
        for (db, meta) in self.live_rows() {
            out[db.shard_of(shard_count)].upsert(db, *meta);
        }
        out
    }

    /// Count of rows in each lifecycle state (diagnostics, Figure 11/12).
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for (_, meta) in self.live_rows() {
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

    impl MetadataStore {
        /// The secondary index rebuilt from the rows alone.
        fn rebuilt_index(&self) -> BTreeSet<(Timestamp, DatabaseId)> {
            self.live_rows()
                .filter_map(|(db, meta)| Some((Self::indexable(meta)?, db)))
                .collect()
        }
    }

    #[test]
    fn a_vacant_row_costs_no_more_than_a_live_one() {
        assert_eq!(
            std::mem::size_of::<Option<DbMeta>>(),
            std::mem::size_of::<DbMeta>()
        );
    }

    /// Row numbers survive a removal: the vacant row is skipped by every
    /// read, the re-registered database takes a fresh row, and the
    /// row-addressed setters still reach the databases they were handed
    /// out for.
    #[test]
    fn remove_leaves_a_vacant_row_and_every_other_row_keeps_its_number() {
        let mut store = MetadataStore::new();
        for id in [10, 11, 12] {
            paused_at(&mut store, id, 500 + id as i64);
        }
        let rows: Vec<usize> = [10, 11, 12]
            .iter()
            .map(|id| store.row_of(db(*id)).unwrap())
            .collect();
        assert_eq!(rows, vec![0, 1, 2]);

        assert!(store.remove(db(11)).is_some());
        assert_eq!(store.len(), 2);
        assert_eq!(store.row_of(db(11)), None);
        assert_eq!(store.state_counts(), (0, 0, 2));
        assert_eq!(
            store.partition(1)[0].len(),
            2,
            "partition skips the vacant row"
        );
        assert!(store
            .overdue_resumes_iter(Timestamp(10_000))
            .eq([db(10), db(12)]));

        // Re-registering takes the next row, never the vacant one.
        store.upsert(db(11), DbMeta::default());
        assert_eq!(store.row_of(db(11)), Some(3));
        assert_eq!(store.row_for(db(13)), 4);
        assert_eq!(store.len(), 4);

        // The old numbers still address the databases they were made for.
        store.set_state_at(0, DbState::LogicallyPaused);
        store.set_prediction_at(2, Some(Timestamp(900)));
        store.set_state_at(3, DbState::PhysicallyPaused);
        store.set_prediction_at(3, Some(Timestamp(100)));
        assert_eq!(store.get(db(10)).unwrap().state, DbState::LogicallyPaused);
        assert_eq!(store.get(db(12)).unwrap().pred_start, Some(Timestamp(900)));
        assert_eq!(
            store.get(db(11)).unwrap(),
            DbMeta {
                state: DbState::PhysicallyPaused,
                pred_start: Some(Timestamp(100)),
            }
        );
        assert_eq!(store.by_pred_start, store.rebuilt_index());
        assert!(store
            .overdue_resumes_iter(Timestamp(10_000))
            .eq([db(11), db(12)]));
    }

    #[test]
    #[should_panic(expected = "row is vacant")]
    fn addressing_a_vacant_row_panics() {
        let mut store = MetadataStore::new();
        store.set_state(db(1), DbState::Resumed);
        store.remove(db(1));
        store.set_state_at(0, DbState::PhysicallyPaused);
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Upsert(u64, DbState, Option<i64>),
        State(u64, DbState),
        Prediction(u64, Option<i64>),
        Remove(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        let id = || 0u64..12;
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
            1 => id().prop_map(Op::Remove),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One store written by id, one written by row number, and the
        /// table as it was before rows were numbered — a `HashMap` from
        /// id to row — as the model: after every operation of a random
        /// interleaving (removals and re-registrations included) the
        /// three hold the same rows, and each store's secondary index
        /// equals a rebuild from its rows.
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
                    Op::Remove(id) => {
                        let expected = model.remove(&db(id));
                        prop_assert_eq!(keyed.remove(db(id)), expected);
                        prop_assert_eq!(addressed.remove(db(id)), expected);
                    }
                }
                for store in [&keyed, &addressed] {
                    prop_assert_eq!(store.len(), model.len());
                    for id in 0..12 {
                        prop_assert_eq!(store.get(db(id)), model.get(&db(id)).copied());
                    }
                    prop_assert_eq!(&store.by_pred_start, &store.rebuilt_index());
                }
                prop_assert_eq!(&keyed.by_pred_start, &addressed.by_pred_start);
                prop_assert_eq!(&keyed.ids, &addressed.ids, "same numbering");
            }
        }
    }
}
