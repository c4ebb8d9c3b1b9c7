//! Fault-layer telemetry: per-stage latency histograms, retry/giveup/
//! fallback counters, and the deterministic incident log.
//!
//! The §7 control plane monitors its resume workflows; this module holds
//! the aggregates the simulator reports about them.  Everything merges
//! *deterministically*: counters and histograms by commutative summation,
//! the incident log by a canonical `(timestamp, database, kind)` sort —
//! so a fleet sharded N ways reports byte-identical fault telemetry for
//! every N, preserving the PR-1 determinism guarantee.

use prorp_types::{DatabaseId, Seconds, Timestamp, WorkflowStage};
use std::fmt;

/// Number of buckets in a [`LatencyHistogram`]; bucket `i ≥ 1` holds
/// latencies in `[2^(i-1), 2^i)` seconds, bucket 0 holds sub-second (and
/// zero) latencies, and the last bucket absorbs everything above.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-bucket power-of-two latency histogram (seconds resolution).
///
/// `Copy + Eq` on purpose: shard merges are integer sums, so equality of
/// merged histograms is exact, never float-fuzzy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total_secs: i64,
    max_secs: i64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total_secs: 0,
            max_secs: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for a latency (negative latencies clamp to zero).
    fn bucket_of(secs: i64) -> usize {
        let secs = secs.max(0) as u64;
        if secs == 0 {
            return 0;
        }
        let idx = 64 - secs.leading_zeros() as usize; // floor(log2) + 1
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Record one latency observation.
    pub fn record(&mut self, latency: Seconds) {
        let secs = latency.as_secs().max(0);
        self.buckets[Self::bucket_of(secs)] += 1;
        self.count += 1;
        self.total_secs += secs;
        self.max_secs = self.max_secs.max(secs);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed latencies.
    pub fn total(&self) -> Seconds {
        Seconds(self.total_secs)
    }

    /// Largest observed latency.
    pub fn max(&self) -> Seconds {
        Seconds(self.max_secs)
    }

    /// Mean observed latency in (fractional) seconds; 0 when empty.
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_secs as f64 / self.count as f64
    }

    /// Raw bucket counts (see [`HISTOGRAM_BUCKETS`] for the boundaries).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Fold another histogram into this one (commutative, associative).
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        for (slot, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += b;
        }
        self.count += other.count;
        self.total_secs += other.total_secs;
        self.max_secs = self.max_secs.max(other.max_secs);
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1}s max={}s",
            self.count,
            self.mean_secs(),
            self.max_secs
        )
    }
}

/// Aggregated workflow telemetry: per-stage completions and latency
/// histograms plus the retry and giveup counters of the fault layer.
/// (Predictor circuit-breaker activity lives in the per-database
/// `EngineCounters`.)
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WorkflowStats {
    /// Per-stage success counts, indexed by [`WorkflowStage::index`].
    pub stage_completions: [u64; WorkflowStage::COUNT],
    /// Per-stage entry-to-success latency (retries and backoffs
    /// included), indexed by [`WorkflowStage::index`].
    pub stage_latency: [LatencyHistogram; WorkflowStage::COUNT],
    /// End-to-end latency of workflows that completed all stages.
    pub workflow_latency: LatencyHistogram,
    /// Stage attempts that failed and were retried.
    pub retries: u64,
    /// Workflows that exhausted a stage's retry budget and were
    /// force-completed by the mitigation path.
    pub giveups: u64,
}

impl WorkflowStats {
    /// Record a stage success with its entry-to-success latency.
    pub fn record_stage(&mut self, stage: WorkflowStage, spent: Seconds) {
        self.stage_completions[stage.index()] += 1;
        self.stage_latency[stage.index()].record(spent);
    }

    /// Record a fully completed workflow with its end-to-end latency.
    pub fn record_workflow(&mut self, total: Seconds) {
        self.workflow_latency.record(total);
    }

    /// Total stage successes across all stages.
    pub fn total_stage_completions(&self) -> u64 {
        self.stage_completions.iter().sum()
    }

    /// Merge per-shard stats into fleet-wide stats.  Every field is a
    /// commutative sum (or max), so the result is independent of shard
    /// count and merge order.
    pub fn merge(per_shard: &[WorkflowStats]) -> WorkflowStats {
        let mut out = WorkflowStats::default();
        for s in per_shard {
            for (i, c) in s.stage_completions.iter().enumerate() {
                out.stage_completions[i] += c;
            }
            for (i, h) in s.stage_latency.iter().enumerate() {
                out.stage_latency[i].absorb(h);
            }
            out.workflow_latency.absorb(&s.workflow_latency);
            out.retries += s.retries;
            out.giveups += s.giveups;
        }
        out
    }
}

/// Why an incident was raised.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum IncidentKind {
    /// A stuck (hung) workflow was mitigated more than once for the same
    /// database — the repeat-offender escalation of the diagnostics
    /// runner (§7).
    StuckWorkflow,
    /// A workflow stage exhausted its retry budget.
    RetryExhausted {
        /// The stage that gave up.
        stage: WorkflowStage,
    },
}

impl IncidentKind {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            IncidentKind::StuckWorkflow => "stuck-workflow",
            IncidentKind::RetryExhausted { .. } => "retry-exhausted",
        }
    }
}

/// One diagnostics incident.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct IncidentEntry {
    /// When the incident was raised (simulated time).
    pub at: Timestamp,
    /// The affected database.
    pub db: DatabaseId,
    /// What happened.
    pub kind: IncidentKind,
}

/// The diagnostics incident log.
///
/// Entries are kept in the *canonical* order `(at, db, kind)` — not
/// emission order — so the merged log is identical no matter how the
/// fleet was sharded.  [`IncidentLog::merge`] normalises even a single
/// shard's log, making a 1-shard run byte-comparable to an N-shard run.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct IncidentLog {
    entries: Vec<IncidentEntry>,
}

impl IncidentLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an incident (emission order; canonicalised by `merge`).
    pub fn push(&mut self, at: Timestamp, db: DatabaseId, kind: IncidentKind) {
        self.entries.push(IncidentEntry { at, db, kind });
    }

    /// The entries, in the order currently held.
    pub fn entries(&self) -> &[IncidentEntry] {
        &self.entries
    }

    /// Number of incidents.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge per-shard logs into the canonical fleet-wide log: concatenate
    /// and sort by `(at, db, kind)`.  Entries are totally ordered by that
    /// key (a database raises at most one incident per timestamp), so the
    /// result is independent of shard layout and merge order.
    pub fn merge(per_shard: Vec<IncidentLog>) -> IncidentLog {
        let mut entries: Vec<IncidentEntry> =
            per_shard.into_iter().flat_map(|log| log.entries).collect();
        entries.sort_unstable();
        IncidentLog { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_powers_of_two() {
        let mut h = LatencyHistogram::new();
        h.record(Seconds(0));
        h.record(Seconds(1));
        h.record(Seconds(2));
        h.record(Seconds(3));
        h.record(Seconds(1 << 20)); // clamps into the last bucket
        h.record(Seconds(-5)); // clamps to zero
        assert_eq!(h.count(), 6);
        assert_eq!(h.buckets()[0], 2, "0 and -5 land in bucket 0");
        assert_eq!(h.buckets()[1], 1, "[1,2) holds the 1s observation");
        assert_eq!(h.buckets()[2], 2, "[2,4) holds 2s and 3s");
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.max(), Seconds(1 << 20));
        assert_eq!(h.total(), Seconds(6 + (1 << 20)));
    }

    #[test]
    fn histogram_absorb_is_a_sum() {
        let mut a = LatencyHistogram::new();
        a.record(Seconds(10));
        let mut b = LatencyHistogram::new();
        b.record(Seconds(100));
        b.record(Seconds(20));
        let mut ab = a;
        ab.absorb(&b);
        let mut ba = b;
        ba.absorb(&a);
        assert_eq!(ab, ba, "absorb is commutative");
        assert_eq!(ab.count(), 3);
        assert_eq!(ab.max(), Seconds(100));
        assert!(ab.to_string().contains("n=3"));
    }

    #[test]
    fn workflow_stats_merge_is_shard_order_independent() {
        let mut a = WorkflowStats::default();
        a.record_stage(WorkflowStage::AllocateNode, Seconds(30));
        a.record_workflow(Seconds(90));
        a.retries = 2;
        let mut b = WorkflowStats::default();
        b.record_stage(WorkflowStage::AllocateNode, Seconds(45));
        b.record_stage(WorkflowStage::MarkResumed, Seconds(6));
        b.giveups = 1;
        let ab = WorkflowStats::merge(&[a, b]);
        let ba = WorkflowStats::merge(&[b, a]);
        assert_eq!(ab, ba);
        assert_eq!(ab.stage_completions[0], 2);
        assert_eq!(ab.total_stage_completions(), 3);
        assert_eq!(ab.retries, 2);
        assert_eq!(ab.giveups, 1);
        assert_eq!(ab.stage_latency[0].count(), 2);
        // Merging a merge with nothing is the identity.
        assert_eq!(WorkflowStats::merge(&[ab]), ab);
    }

    #[test]
    fn incident_log_merge_canonicalises_order() {
        let mut shard_a = IncidentLog::new();
        shard_a.push(Timestamp(200), DatabaseId(5), IncidentKind::StuckWorkflow);
        shard_a.push(
            Timestamp(100),
            DatabaseId(9),
            IncidentKind::RetryExhausted {
                stage: WorkflowStage::AttachStorage,
            },
        );
        let mut shard_b = IncidentLog::new();
        shard_b.push(Timestamp(100), DatabaseId(2), IncidentKind::StuckWorkflow);

        let merged_ab = IncidentLog::merge(vec![shard_a.clone(), shard_b.clone()]);
        let merged_ba = IncidentLog::merge(vec![shard_b, shard_a.clone()]);
        assert_eq!(merged_ab, merged_ba, "merge order must not matter");
        // Same entries in one shard merge to the same canonical log.
        let merged_one = IncidentLog::merge(vec![{
            let mut all = shard_a;
            all.push(Timestamp(100), DatabaseId(2), IncidentKind::StuckWorkflow);
            all
        }]);
        assert_eq!(merged_ab, merged_one, "1-shard and 2-shard logs agree");
        let ts: Vec<i64> = merged_ab.entries().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(ts, vec![100, 100, 200]);
        assert_eq!(merged_ab.entries()[0].db, DatabaseId(2));
        assert_eq!(merged_ab.len(), 3);
        assert!(!merged_ab.is_empty());
        assert_eq!(merged_ab.entries()[2].kind.label(), "stuck-workflow");
    }
}
