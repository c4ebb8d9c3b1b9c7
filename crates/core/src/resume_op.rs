//! Algorithm 5 — the proactive resume operation.
//!
//! A periodic activity in the Management Service of the control plane:
//! every `period`, scan the metadata store for physically paused databases
//! whose predicted activity starts inside the upcoming pre-warm slot and
//! logically pause (pre-warm) each of them.  §9.3 tunes the period so one
//! iteration resumes at most about a hundred databases (Figure 11), which
//! ProRP achieves with a one-minute period.

use prorp_storage::MetadataStore;
use prorp_types::{DatabaseId, ProrpError, Seconds, Timestamp};

/// Configuration and bookkeeping of the periodic resume scan.
#[derive(Clone, Debug)]
pub struct ProactiveResumeOp {
    /// `k` — pre-warm lead time.
    prewarm: Seconds,
    /// Scan period (the paper's production value is 1 minute).
    period: Seconds,
    /// Next scheduled run.
    next_run: Timestamp,
    /// Databases selected per iteration, for the Figure 11 box plots.
    batch_sizes: Vec<usize>,
}

impl ProactiveResumeOp {
    /// Create the operation; the first scan runs at `first_run`.
    ///
    /// # Errors
    ///
    /// Rejects non-positive durations.
    pub fn new(
        prewarm: Seconds,
        period: Seconds,
        first_run: Timestamp,
    ) -> Result<Self, ProrpError> {
        if prewarm.as_secs() <= 0 || period.as_secs() <= 0 {
            return Err(ProrpError::InvalidConfig(format!(
                "proactive resume op requires positive k and period, got k={prewarm:?}, period={period:?}"
            )));
        }
        Ok(ProactiveResumeOp {
            prewarm,
            period,
            next_run: first_run,
            batch_sizes: Vec::new(),
        })
    }

    /// When the next scan is due.
    pub fn next_run(&self) -> Timestamp {
        self.next_run
    }

    /// The scan period.
    pub fn period(&self) -> Seconds {
        self.period
    }

    /// Run one iteration at `now` (lines 2–6 of Algorithm 5): select all
    /// physically paused databases whose `start_of_pred_activity` lies in
    /// `[now + k, now + k + period]`, record the batch size, and schedule
    /// the next run.  The caller delivers
    /// [`EngineEvent::ProactiveResume`](crate::EngineEvent::ProactiveResume)
    /// to each returned database.
    ///
    /// The scan runs over the `sys.databases` partitions of a sharded
    /// region — one [`MetadataStore`] per shard, holding the databases
    /// whose [`DatabaseId::shard_of`] is that shard; an unsharded store
    /// is the 1-partition slice (`std::slice::from_ref(&store)`).
    /// Because partitioning assigns every row to exactly one shard, the
    /// union of the per-partition range lookups equals a global scan; the
    /// combined batch is re-sorted by `(start_of_pred_activity, id)` so
    /// the result is byte-identical no matter how many partitions the
    /// rows were split into.  One combined batch size is recorded per
    /// iteration, keeping the Figure 11 statistics comparable across
    /// shard counts.
    pub fn run(&mut self, now: Timestamp, partitions: &[MetadataStore]) -> Vec<DatabaseId> {
        let mut selected: Vec<(Timestamp, DatabaseId)> = partitions
            .iter()
            .flat_map(|p| {
                p.databases_to_resume_iter(now, self.prewarm, self.period)
                    .map(|db| {
                        let pred = p
                            .get(db)
                            .and_then(|m| m.pred_start)
                            .expect("selected rows carry a prediction");
                        (pred, db)
                    })
            })
            .collect();
        selected.sort_unstable();
        self.batch_sizes.push(selected.len());
        self.next_run = now + self.period;
        selected.into_iter().map(|(_, db)| db).collect()
    }

    /// Batch sizes of all iterations so far (Figure 11 input).
    pub fn batch_sizes(&self) -> &[usize] {
        &self.batch_sizes
    }

    /// Merge per-shard batch-size series into the fleet-wide series.
    ///
    /// When each simulation shard runs its own `ProactiveResumeOp` on the
    /// same tick schedule (same first run and period), iteration `i` of
    /// every shard covers the same pre-warm slot, so the fleet-wide batch
    /// size of iteration `i` is the element-wise sum.  Shards that ran
    /// fewer iterations (e.g. an empty shard whose queue drained early)
    /// contribute zero to the missing tail.
    pub fn sum_shard_batches(per_shard: &[Vec<usize>]) -> Vec<usize> {
        let len = per_shard.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = vec![0usize; len];
        for series in per_shard {
            for (slot, b) in out.iter_mut().zip(series) {
                *slot += b;
            }
        }
        out
    }

    /// Largest batch observed.
    pub fn max_batch(&self) -> usize {
        self.batch_sizes.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::DbMeta;
    use prorp_types::DbState;

    fn paused(pred: i64) -> DbMeta {
        DbMeta {
            state: DbState::PhysicallyPaused,
            pred_start: Some(Timestamp(pred)),
        }
    }

    fn store_with_paused(preds: &[(u64, i64)]) -> MetadataStore {
        let mut store = MetadataStore::new();
        for &(id, pred) in preds {
            store.upsert(DatabaseId(id), paused(pred));
        }
        store
    }

    #[test]
    fn selects_the_upcoming_prewarm_slot() {
        let store = store_with_paused(&[(1, 360), (2, 420), (3, 420 + 60), (4, 1_000)]);
        let mut op =
            ProactiveResumeOp::new(Seconds::minutes(5), Seconds::minutes(1), Timestamp(60))
                .unwrap();
        // At now = 60: slot is [60+300, 60+300+60] = [360, 420].
        let picked = op.run(Timestamp(60), std::slice::from_ref(&store));
        assert_eq!(picked, vec![DatabaseId(1), DatabaseId(2)]);
        assert_eq!(op.next_run(), Timestamp(120));
        assert_eq!(op.batch_sizes(), &[2]);
        assert_eq!(op.max_batch(), 2);
    }

    #[test]
    fn consecutive_iterations_cover_consecutive_slots() {
        let store = store_with_paused(&[(1, 360), (2, 430), (3, 490)]);
        let mut op =
            ProactiveResumeOp::new(Seconds::minutes(5), Seconds::minutes(1), Timestamp(0)).unwrap();
        let mut picked_all = Vec::new();
        let mut now = Timestamp(0);
        for _ in 0..4 {
            picked_all.extend(op.run(now, std::slice::from_ref(&store)));
            now = op.next_run();
        }
        // Slots: [300,360], [360,420], [420,480], [480,540] — every
        // database is picked at least once (boundary stamps may be picked
        // by two adjacent closed slots, as in the paper's `<=` bounds;
        // the engine ignores duplicate ProactiveResume events).
        for id in [1, 2, 3] {
            assert!(
                picked_all.contains(&DatabaseId(id)),
                "db {id} missing from {picked_all:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_configuration() {
        assert!(ProactiveResumeOp::new(Seconds::ZERO, Seconds(60), Timestamp(0)).is_err());
        assert!(ProactiveResumeOp::new(Seconds(60), Seconds(-1), Timestamp(0)).is_err());
    }

    #[test]
    fn sharded_scan_matches_the_global_scan() {
        // Many paused databases with predictions straddling the slot; the
        // scan over any partition count must return the same batch, in
        // the same (pred_start, id) order, as the 1-partition scan.
        let preds: Vec<(u64, i64)> = (0..120).map(|i| (i, 300 + (i as i64 * 7) % 130)).collect();
        let store = store_with_paused(&preds);
        for shards in [1usize, 2, 3, 8] {
            let mut global =
                ProactiveResumeOp::new(Seconds(300), Seconds(60), Timestamp(0)).unwrap();
            let mut sharded =
                ProactiveResumeOp::new(Seconds(300), Seconds(60), Timestamp(0)).unwrap();
            let expected = global.run(Timestamp(0), std::slice::from_ref(&store));
            let mut parts = vec![MetadataStore::new(); shards];
            for &(id, pred) in &preds {
                let part = &mut parts[DatabaseId(id).shard_of(shards)];
                part.upsert(DatabaseId(id), paused(pred));
            }
            let got = sharded.run(Timestamp(0), &parts);
            assert_eq!(got, expected, "{shards} shards");
            assert_eq!(sharded.batch_sizes(), global.batch_sizes());
            assert_eq!(sharded.next_run(), global.next_run());
        }
    }

    #[test]
    fn shard_batches_sum_elementwise() {
        let merged = ProactiveResumeOp::sum_shard_batches(&[
            vec![1, 2, 3],
            vec![4, 0, 1, 9], // longer series dominates the tail
            vec![],           // empty shard contributes nothing
        ]);
        assert_eq!(merged, vec![5, 2, 4, 9]);
        assert!(ProactiveResumeOp::sum_shard_batches(&[]).is_empty());
    }
}
