//! The append-only telemetry event log.
//!
//! §8: "Customer activity and resource allocation decisions are persisted
//! long-term for offline evaluation of KPI metrics" — in production via
//! the Cosmos big-data platform, here an in-memory append-only log that
//! the offline training pipeline reads.

use prorp_types::{DatabaseId, Seconds, Timestamp};
use std::collections::HashMap;

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TelemetryKind {
    /// First login after an idle interval; `available` records whether
    /// resources were already allocated.
    Login {
        /// Resources were available at login time.
        available: bool,
    },
    /// The database entered a logical pause.
    LogicalPause,
    /// The database was physically paused (reclamation workflow).
    PhysicalPause,
    /// The control plane pre-warmed the database (Algorithm 5).
    ProactiveResume,
    /// The database was moved to another node for load balancing.
    Move,
    /// A system maintenance job ran; `forced` records whether it needed a
    /// maintenance-only resume (§11 future work 4 exists to avoid these).
    Maintenance {
        /// The database had to be resumed just for the job.
        forced: bool,
    },
}

impl TelemetryKind {
    /// Every kind, in ascending [`label`](Self::label) order — position
    /// `i` holds the kind whose [`index`](Self::index) is `i`.
    pub const ALL: [TelemetryKind; 8] = [
        TelemetryKind::LogicalPause,
        TelemetryKind::Login { available: true },
        TelemetryKind::Login { available: false },
        TelemetryKind::Maintenance { forced: true },
        TelemetryKind::Maintenance { forced: false },
        TelemetryKind::Move,
        TelemetryKind::PhysicalPause,
        TelemetryKind::ProactiveResume,
    ];

    /// Dense index in `0..ALL.len()`, ordered like the labels.
    pub fn index(self) -> usize {
        match self {
            TelemetryKind::LogicalPause => 0,
            TelemetryKind::Login { available: true } => 1,
            TelemetryKind::Login { available: false } => 2,
            TelemetryKind::Maintenance { forced: true } => 3,
            TelemetryKind::Maintenance { forced: false } => 4,
            TelemetryKind::Move => 5,
            TelemetryKind::PhysicalPause => 6,
            TelemetryKind::ProactiveResume => 7,
        }
    }

    /// Stable label for aggregation keys.
    pub fn label(self) -> &'static str {
        match self {
            TelemetryKind::Login { available: true } => "login-available",
            TelemetryKind::Login { available: false } => "login-unavailable",
            TelemetryKind::LogicalPause => "logical-pause",
            TelemetryKind::PhysicalPause => "physical-pause",
            TelemetryKind::ProactiveResume => "proactive-resume",
            TelemetryKind::Move => "move",
            TelemetryKind::Maintenance { forced: true } => "maintenance-forced",
            TelemetryKind::Maintenance { forced: false } => "maintenance-piggybacked",
        }
    }
}

/// One telemetry record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TelemetryEvent {
    /// When it happened.
    pub ts: Timestamp,
    /// Which database.
    pub db: DatabaseId,
    /// What happened.
    pub kind: TelemetryKind,
}

/// An append-only, time-ordered event log.
#[derive(Clone, Debug, Default)]
pub struct TelemetryLog {
    events: Vec<TelemetryEvent>,
}

impl TelemetryLog {
    /// An empty log.
    pub fn new() -> Self {
        TelemetryLog::default()
    }

    /// Append one event.  Events must arrive in non-decreasing timestamp
    /// order (the simulator guarantees this).
    pub fn record(&mut self, ts: Timestamp, db: DatabaseId, kind: TelemetryKind) {
        debug_assert!(
            self.events.last().map_or(true, |e| e.ts <= ts),
            "telemetry must be appended in time order"
        );
        self.events.push(TelemetryEvent { ts, db, kind });
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events (time-ordered).
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Consume the log, yielding its event buffer (time-ordered).  The
    /// streaming merge uses this to drain shard logs without copying.
    pub fn into_events(self) -> Vec<TelemetryEvent> {
        self.events
    }

    /// Re-wrap an already time-ordered event buffer (e.g. the output of a
    /// fully drained [`TelemetryMergeIter`](crate::merge::TelemetryMergeIter))
    /// into a log without copying.
    pub fn from_sorted_events(events: Vec<TelemetryEvent>) -> TelemetryLog {
        debug_assert!(
            events.windows(2).all(|w| w[0].ts <= w[1].ts),
            "from_sorted_events requires time-ordered input"
        );
        TelemetryLog { events }
    }

    /// Events within `[from, to)`.
    pub fn range(&self, from: Timestamp, to: Timestamp) -> &[TelemetryEvent] {
        let lo = self.events.partition_point(|e| e.ts < from);
        let hi = self.events.partition_point(|e| e.ts < to);
        &self.events[lo..hi]
    }

    /// Count events per kind label.
    pub fn counts(&self) -> HashMap<&'static str, usize> {
        let mut out = HashMap::new();
        for e in &self.events {
            *out.entry(e.kind.label()).or_insert(0) += 1;
        }
        out
    }

    /// Count events of one kind per fixed-width time bin — the input to
    /// the Figure 11/12 box plots (workflows per scan interval).
    pub fn counts_per_bin(
        &self,
        kind: TelemetryKind,
        from: Timestamp,
        to: Timestamp,
        bin: Seconds,
    ) -> Vec<usize> {
        assert!(bin.as_secs() > 0, "bin width must be positive");
        let span = (to - from).as_secs().max(0);
        let bins = (span as usize).div_ceil(bin.as_secs() as usize).max(1);
        let mut out = vec![0usize; bins];
        for e in self.range(from, to) {
            if e.kind == kind {
                let idx = ((e.ts - from).as_secs() / bin.as_secs()) as usize;
                out[idx.min(bins - 1)] += 1;
            }
        }
        out
    }

    /// Merge per-shard logs into one time-ordered log.
    ///
    /// Each input log is individually time-ordered (the per-shard event
    /// loops append in time order); a k-way merge by timestamp restores
    /// the global order the single-threaded simulator would have
    /// produced.  Ties at one timestamp resolve by input (shard) index,
    /// so the merge is deterministic for a fixed shard layout.
    ///
    /// This is the materialising form of
    /// [`TelemetryMergeIter`](crate::merge::TelemetryMergeIter).  Counts
    /// need neither: the simulator keeps a
    /// [`TelemetrySummary`](crate::merge::TelemetrySummary) per shard and
    /// adds those up.
    pub fn merge(shards: Vec<TelemetryLog>) -> TelemetryLog {
        let mut iter = crate::merge::TelemetryMergeIter::new(shards);
        let mut merged = Vec::with_capacity(iter.remaining());
        merged.extend(&mut iter);
        TelemetryLog { events: merged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(id: u64) -> DatabaseId {
        DatabaseId(id)
    }

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    #[test]
    fn record_and_count() {
        let mut log = TelemetryLog::new();
        log.record(t(1), db(1), TelemetryKind::Login { available: true });
        log.record(t(2), db(1), TelemetryKind::LogicalPause);
        log.record(t(3), db(2), TelemetryKind::Login { available: false });
        log.record(t(4), db(2), TelemetryKind::PhysicalPause);
        assert_eq!(log.len(), 4);
        let counts = log.counts();
        assert_eq!(counts["login-available"], 1);
        assert_eq!(counts["login-unavailable"], 1);
        assert_eq!(counts["physical-pause"], 1);
    }

    #[test]
    fn range_is_half_open() {
        let mut log = TelemetryLog::new();
        for i in 0..10 {
            log.record(t(i * 10), db(0), TelemetryKind::LogicalPause);
        }
        let r = log.range(t(20), t(50));
        assert_eq!(r.len(), 3); // 20, 30, 40
        assert_eq!(r[0].ts, t(20));
        assert_eq!(r.last().unwrap().ts, t(40));
    }

    #[test]
    fn counts_per_bin_shapes_figure_11() {
        let mut log = TelemetryLog::new();
        // 3 proactive resumes in bin 0, 1 in bin 2.
        for ts in [5, 20, 59] {
            log.record(t(ts), db(0), TelemetryKind::ProactiveResume);
        }
        log.record(t(60), db(0), TelemetryKind::PhysicalPause); // other kind
        log.record(t(130), db(0), TelemetryKind::ProactiveResume);
        let bins = log.counts_per_bin(TelemetryKind::ProactiveResume, t(0), t(180), Seconds(60));
        assert_eq!(bins, vec![3, 0, 1]);
    }

    #[test]
    fn merge_restores_global_time_order() {
        let mut a = TelemetryLog::new();
        let mut b = TelemetryLog::new();
        let mut c = TelemetryLog::new();
        for i in [0i64, 3, 6, 9] {
            a.record(t(i), db(1), TelemetryKind::LogicalPause);
        }
        for i in [1i64, 4, 7] {
            b.record(t(i), db(2), TelemetryKind::PhysicalPause);
        }
        for i in [2i64, 5, 8] {
            c.record(t(i), db(3), TelemetryKind::Move);
        }
        let merged = TelemetryLog::merge(vec![a, b, c]);
        assert_eq!(merged.len(), 10);
        let stamps: Vec<i64> = merged.events().iter().map(|e| e.ts.as_secs()).collect();
        assert_eq!(stamps, (0..10).collect::<Vec<i64>>());
    }

    #[test]
    fn merge_breaks_timestamp_ties_by_shard_index() {
        let mut a = TelemetryLog::new();
        let mut b = TelemetryLog::new();
        a.record(t(5), db(1), TelemetryKind::Move);
        b.record(t(5), db(2), TelemetryKind::Move);
        b.record(t(5), db(3), TelemetryKind::Move);
        let merged = TelemetryLog::merge(vec![a, b]);
        let order: Vec<u64> = merged.events().iter().map(|e| e.db.raw()).collect();
        assert_eq!(order, vec![1, 2, 3]);
        // Empty inputs are fine.
        assert!(TelemetryLog::merge(vec![]).is_empty());
        assert!(TelemetryLog::merge(vec![TelemetryLog::new()]).is_empty());
    }

    #[test]
    fn kind_index_follows_label_order() {
        for (i, kind) in TelemetryKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
        assert!(TelemetryKind::ALL
            .windows(2)
            .all(|w| w[0].label() < w[1].label()));
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_panics() {
        let log = TelemetryLog::new();
        let _ = log.counts_per_bin(TelemetryKind::Move, t(0), t(10), Seconds(0));
    }
}
