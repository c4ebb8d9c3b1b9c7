//! Streaming k-way merge of per-shard telemetry logs.
//!
//! A sharded simulation run produces one time-ordered [`TelemetryLog`]
//! per shard.  At fleet scale those logs are the largest post-run
//! artifact (tens of millions of events for a million-database region),
//! so the merge must not require the fleet-wide log *and* every shard
//! buffer to coexist: [`TelemetryMergeIter`] yields the merged stream
//! one event at a time, consuming the shard buffers as it goes, and the
//! consumer decides whether to materialise.
//!
//! The merge order is canonical: events sort by `(timestamp, shard
//! index)`, which reproduces exactly the order the previous materialised
//! merge emitted — the shard-invariance oracles in the testkit hold
//! bit-for-bit over this stream.
//!
//! [`TelemetryMode`] and [`TelemetrySummary`] are the simulator's
//! contract for what a run keeps: every shard counts each event into
//! summaries where it records it, and in
//! [`Summary`](TelemetryMode::Summary) mode, the default, it keeps
//! nothing else — no shard log, no merge, only the counts the report
//! adds up.  That is the memory that matters at million-database scale.

use crate::log::{TelemetryEvent, TelemetryKind, TelemetryLog};
use prorp_types::Timestamp;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the simulator retains the telemetry of a run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TelemetryMode {
    /// Keep only the [`TelemetrySummary`] counts (the default): a shard
    /// counts each event where it records it, per kind over the whole
    /// run and per kind and minute over the measured window, and
    /// appends nothing.  Memory stays proportional to the kind set and
    /// the minutes reached, not the event count; the per-minute counts
    /// are what Figures 11 and 12 bin.
    #[default]
    Summary,
    /// Also keep every shard's event log and materialise the merged log
    /// on the report, for callers that read individual events (the
    /// benchmark's telemetry-merge layer and the tests that compare
    /// logs event by event).
    Full,
}

/// Per-kind event counts.
///
/// Deterministic by construction: one integer per [`TelemetryKind`]
/// and an element-wise sum, so two runs that emit the same events
/// produce equal summaries regardless of shard count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    per_kind: [u64; TelemetryKind::ALL.len()],
}

impl TelemetrySummary {
    /// An empty summary.
    pub fn new() -> Self {
        TelemetrySummary::default()
    }

    /// Count one event of `kind`.
    pub fn record(&mut self, kind: TelemetryKind) {
        self.per_kind[kind.index()] += 1;
    }

    /// Add `other`'s counts to these, kind by kind.
    pub fn add(&mut self, other: &TelemetrySummary) {
        for (mine, theirs) in self.per_kind.iter_mut().zip(other.per_kind) {
            *mine += theirs;
        }
    }

    /// Total events counted.
    pub fn total(&self) -> u64 {
        self.per_kind.iter().sum()
    }

    /// Events counted for one kind label (see
    /// [`TelemetryKind::label`]); 0 for a label no kind has.
    pub fn count(&self, label: &str) -> u64 {
        TelemetryKind::ALL
            .iter()
            .position(|k| k.label() == label)
            .map_or(0, |i| self.per_kind[i])
    }

    /// Every `(label, count)` pair with a non-zero count, in ascending
    /// label order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        TelemetryKind::ALL
            .iter()
            .zip(self.per_kind)
            .filter(|(_, c)| *c > 0)
            .map(|(k, c)| (k.label(), c))
    }

    /// Build a summary from one log (the equivalence anchor for the
    /// counts the shards keep).
    pub fn from_log(log: &TelemetryLog) -> Self {
        let mut s = TelemetrySummary::new();
        for e in log.events() {
            s.record(e.kind);
        }
        s
    }
}

/// Streaming k-way merge over per-shard telemetry logs.
///
/// Yields events in canonical `(timestamp, shard index)` order.  Each
/// shard's buffer is consumed incrementally; nothing beyond the k head
/// events is buffered by the iterator itself.
pub struct TelemetryMergeIter {
    sources: Vec<std::vec::IntoIter<TelemetryEvent>>,
    heads: Vec<Option<TelemetryEvent>>,
    /// Min-heap of `(next timestamp, source index)`.
    heap: BinaryHeap<Reverse<(Timestamp, usize)>>,
    remaining: usize,
}

impl TelemetryMergeIter {
    /// Start a streaming merge over `shards` (each individually
    /// time-ordered, as the per-shard event loops guarantee).
    pub fn new(shards: Vec<TelemetryLog>) -> Self {
        let remaining = shards.iter().map(TelemetryLog::len).sum();
        let mut sources: Vec<std::vec::IntoIter<TelemetryEvent>> = shards
            .into_iter()
            .map(|l| l.into_events().into_iter())
            .collect();
        let heads: Vec<Option<TelemetryEvent>> = sources.iter_mut().map(Iterator::next).collect();
        let heap: BinaryHeap<Reverse<(Timestamp, usize)>> = heads
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.map(|e| Reverse((e.ts, i))))
            .collect();
        TelemetryMergeIter {
            sources,
            heads,
            heap,
            remaining,
        }
    }

    /// Exact number of events left in the merged stream.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl Iterator for TelemetryMergeIter {
    type Item = TelemetryEvent;

    fn next(&mut self) -> Option<TelemetryEvent> {
        let Reverse((_, i)) = self.heap.pop()?;
        let event = self.heads[i].take().expect("heap entries have a live head");
        self.remaining -= 1;
        if let Some(next) = self.sources[i].next() {
            debug_assert!(event.ts <= next.ts, "shard logs must be time-ordered");
            self.heads[i] = Some(next);
            self.heap.push(Reverse((next.ts, i)));
        }
        Some(event)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::TelemetryKind;
    use prorp_types::DatabaseId;

    fn log_of(stamps: &[i64], db: u64) -> TelemetryLog {
        let mut log = TelemetryLog::new();
        for &ts in stamps {
            log.record(Timestamp(ts), DatabaseId(db), TelemetryKind::Move);
        }
        log
    }

    #[test]
    fn streaming_merge_equals_materialised_merge() {
        let shards = vec![
            log_of(&[0, 3, 6, 9], 1),
            log_of(&[1, 4, 7], 2),
            log_of(&[2, 5, 8], 3),
            TelemetryLog::new(),
        ];
        let materialised = TelemetryLog::merge(shards.clone());
        let streamed: Vec<TelemetryEvent> = TelemetryMergeIter::new(shards).collect();
        assert_eq!(streamed, materialised.events());
    }

    #[test]
    fn ties_resolve_by_shard_index_and_size_hint_is_exact() {
        let shards = vec![log_of(&[5], 10), log_of(&[5, 5], 20)];
        let mut iter = TelemetryMergeIter::new(shards);
        assert_eq!(iter.size_hint(), (3, Some(3)));
        assert_eq!(iter.remaining(), 3);
        let order: Vec<u64> = (&mut iter).map(|e| e.db.raw()).collect();
        assert_eq!(order, vec![10, 20, 20]);
        assert_eq!(iter.remaining(), 0);
        assert!(iter.next().is_none());
    }

    #[test]
    fn summary_counts_labels() {
        let mut log = TelemetryLog::new();
        log.record(
            Timestamp(1),
            DatabaseId(1),
            TelemetryKind::Login { available: true },
        );
        log.record(Timestamp(2), DatabaseId(1), TelemetryKind::ProactiveResume);
        log.record(Timestamp(3), DatabaseId(2), TelemetryKind::ProactiveResume);
        let summary = TelemetrySummary::from_log(&log);
        assert_eq!(summary.total(), 3);
        assert_eq!(summary.count("proactive-resume"), 2);
        assert_eq!(summary.count("login-available"), 1);
        assert_eq!(summary.count("physical-pause"), 0);
        let pairs: Vec<_> = summary.iter().collect();
        assert_eq!(pairs, vec![("login-available", 1), ("proactive-resume", 2)]);
    }

    /// Counting per shard and adding up ≡ merging the logs and counting
    /// the merged stream, for random events over 1–5 shards.
    #[test]
    fn summed_shard_summaries_equal_the_merged_log_summary() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        for round in 0..40 {
            let k = 1 + round % 5;
            let mut logs = vec![TelemetryLog::new(); k];
            let mut clocks = vec![0i64; k];
            for _ in 0..draw(200) {
                let s = draw(k as u64) as usize;
                clocks[s] += draw(3) as i64;
                // Leave some kinds out, so zero counts occur.
                let kind = TelemetryKind::ALL[draw(7) as usize];
                logs[s].record(Timestamp(clocks[s]), DatabaseId(s as u64), kind);
            }
            let mut summed = TelemetrySummary::new();
            for log in &logs {
                summed.add(&TelemetrySummary::from_log(log));
            }
            let merged = TelemetryLog::merge(logs);
            assert_eq!(summed, TelemetrySummary::from_log(&merged), "round {round}");
            assert_eq!(summed.total(), merged.len() as u64);
            let pairs: Vec<_> = summed.iter().collect();
            assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0), "{pairs:?}");
            assert!(pairs.iter().all(|&(_, c)| c > 0), "{pairs:?}");
            for kind in TelemetryKind::ALL {
                let logged = merged.events().iter().filter(|e| e.kind == kind).count();
                assert_eq!(summed.count(kind.label()), logged as u64, "{kind:?}");
            }
        }
    }

    #[test]
    fn telemetry_mode_defaults_to_summary() {
        assert_eq!(TelemetryMode::default(), TelemetryMode::Summary);
    }
}
