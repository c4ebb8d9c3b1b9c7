//! The control-plane metadata table in SQL form — `sys.databases` — and
//! Algorithm 5's selection query, verbatim.
//!
//! The fast path lives in `prorp_storage::MetadataStore` (numbered rows +
//! ordered secondary index); this module is its executable SQL
//! specification, differential-tested at the workspace root.  It also
//! follows the listing's conventions exactly: `start_of_pred_activity = 0`
//! is the "no prediction" sentinel (§4, Algorithm 4's `start = 0`), and
//! the lifecycle state is a small integer column.

use crate::exec::{Database, Params};
use prorp_types::{DbState, ProrpError};

/// Integer encoding of [`DbState`] used in the `state` column.
pub fn encode_state(state: DbState) -> i64 {
    match state {
        DbState::Resumed => 0,
        DbState::LogicallyPaused => 1,
        DbState::PhysicallyPaused => 2,
    }
}

/// A SQL session owning `sys.databases`.
#[derive(Clone, Debug)]
pub struct MetadataDb {
    db: Database,
}

impl Default for MetadataDb {
    fn default() -> Self {
        Self::new()
    }
}

impl MetadataDb {
    /// Create the session and its metadata table.
    pub fn new() -> Self {
        let mut db = Database::new();
        db.run(
            "CREATE TABLE sys.databases (
                database_id BIGINT PRIMARY KEY,
                state INT NOT NULL,
                start_of_pred_activity BIGINT NOT NULL
            )",
            &Params::new(),
        )
        .expect("static schema is valid");
        MetadataDb { db }
    }

    /// Register or update a database row.  `pred_start = None` stores the
    /// listing's `0` sentinel.
    pub fn upsert(
        &mut self,
        database_id: u64,
        state: DbState,
        pred_start: Option<i64>,
    ) -> Result<(), ProrpError> {
        let mut params = Params::new();
        params
            .bind("id", database_id as i64)
            .bind("state", encode_state(state))
            .bind("pred", pred_start.unwrap_or(0));
        // UPDATE first; INSERT when the row does not exist yet.
        let updated = self.db.run(
            "UPDATE sys.databases
             SET state = @state, start_of_pred_activity = @pred
             WHERE database_id = @id",
            &params,
        )?;
        if updated.rows_affected == 0 {
            self.db.run(
                "INSERT INTO sys.databases (database_id, state, start_of_pred_activity)
                 VALUES (@id, @state, @pred)",
                &params,
            )?;
        }
        Ok(())
    }

    /// Algorithm 5 lines 2–6:
    ///
    /// ```sql
    /// SELECT database_id FROM sys.databases
    /// WHERE state = 'physical_pause' AND
    ///       @now + @k <= start_of_pred_activity AND
    ///       start_of_pred_activity <= @now + @k + 1
    /// ```
    ///
    /// with the listing's "+1" generalised to the scan `width` and the
    /// `start = 0` sentinel excluded.
    pub fn databases_to_resume(
        &mut self,
        now: i64,
        prewarm: i64,
        width: i64,
    ) -> Result<Vec<u64>, ProrpError> {
        let mut params = Params::new();
        params
            .bind("lo", now + prewarm)
            .bind("hi", now + prewarm + width)
            .bind("paused", encode_state(DbState::PhysicallyPaused));
        let rs = self
            .db
            .run(
                "SELECT database_id FROM sys.databases
                 WHERE state = @paused AND
                       start_of_pred_activity >= @lo AND
                       start_of_pred_activity <= @hi AND
                       start_of_pred_activity <> 0
                 ORDER BY start_of_pred_activity ASC",
                &params,
            )?
            .result
            .expect("SELECT returns rows");
        Ok(rs
            .rows
            .iter()
            .map(|row| row[0].expect("database_id is non-nullable") as u64)
            .collect())
    }

    /// Row count.
    pub fn len(&mut self) -> Result<usize, ProrpError> {
        Ok(self
            .db
            .run("SELECT COUNT(*) FROM sys.databases", &Params::new())?
            .result
            .expect("rows")
            .scalar()?
            .unwrap_or(0) as usize)
    }

    /// Whether the table is empty.
    pub fn is_empty(&mut self) -> Result<bool, ProrpError> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_inserts_then_updates() {
        let mut m = MetadataDb::new();
        m.upsert(7, DbState::Resumed, None).unwrap();
        assert_eq!(m.len().unwrap(), 1);
        m.upsert(7, DbState::PhysicallyPaused, Some(500)).unwrap();
        assert_eq!(m.len().unwrap(), 1, "upsert must not duplicate");
        assert_eq!(m.databases_to_resume(0, 400, 200).unwrap(), vec![7]);
    }

    #[test]
    fn algorithm_5_query_matches_the_listing_semantics() {
        let mut m = MetadataDb::new();
        // In-slot, out-of-slot, wrong state, and sentinel rows.
        m.upsert(1, DbState::PhysicallyPaused, Some(1_300)).unwrap();
        m.upsert(2, DbState::PhysicallyPaused, Some(1_360)).unwrap();
        m.upsert(3, DbState::PhysicallyPaused, Some(1_361)).unwrap();
        m.upsert(4, DbState::LogicallyPaused, Some(1_330)).unwrap();
        m.upsert(5, DbState::PhysicallyPaused, None).unwrap();
        // now=1000, k=300, width=60 → slot [1300, 1360].
        let picked = m.databases_to_resume(1_000, 300, 60).unwrap();
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn sentinel_zero_is_never_selected_even_in_range() {
        let mut m = MetadataDb::new();
        m.upsert(1, DbState::PhysicallyPaused, None).unwrap();
        // A slot that includes 0.
        let picked = m.databases_to_resume(-400, 300, 200).unwrap();
        assert!(picked.is_empty());
    }

    #[test]
    fn selection_is_ordered_by_predicted_start() {
        let mut m = MetadataDb::new();
        m.upsert(9, DbState::PhysicallyPaused, Some(350)).unwrap();
        m.upsert(2, DbState::PhysicallyPaused, Some(310)).unwrap();
        let picked = m.databases_to_resume(0, 300, 100).unwrap();
        assert_eq!(picked, vec![2, 9]);
    }
}
