//! Metrics snapshots: counter, gauge, histogram and sketch readings.
//!
//! A [`MetricsSnapshot`] is the value of every metric of one simulation
//! shard at one *simulated* instant, sorted by name.  Nothing here
//! counts: a shard builds its snapshot by reading the books it already
//! keeps (`ShardDriver::metrics_snapshot` in `prorp-sim`), so a recorded
//! snapshot and a live scrape are the same read.  Snapshots taken at the
//! same simulated instant on every shard merge into one fleet-wide
//! snapshot by elementwise integer sums, the same discipline
//! `TelemetryLog::merge` uses.
//!
//! Two metric families exist, distinguished by name prefix:
//!
//! * `prorp_*` — **deterministic**: pure functions of the simulated event
//!   stream, bit-identical at any shard count;
//! * `sim_self_*` — **volatile**: self-observations of the simulator
//!   process (wall-clock micros, per-shard scan counts).  Included in the
//!   Prometheus export for operators but excluded from the JSONL export
//!   and from every determinism assertion — see [`is_volatile`].

use crate::sketch::QuantileSketch;
use prorp_types::{ProrpError, Timestamp};

/// Number of histogram buckets; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`, bucket 0 holds zero (and negative) values, and the
/// last bucket absorbs everything above — the same layout as the
/// telemetry crate's `LatencyHistogram`.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// The value of one metric at snapshot time.
///
/// Not `Copy`: sketch readings carry their sparse bucket list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram reading.
    Histogram {
        /// Per-bucket counts (see [`HISTOGRAM_BUCKETS`]).
        buckets: [u64; HISTOGRAM_BUCKETS],
        /// Total number of observations.
        count: u64,
        /// Sum of all observations.
        sum: i64,
    },
    /// A quantile-sketch reading.
    Sketch(QuantileSketch),
}

impl MetricValue {
    /// The Prometheus type name of this value.
    pub const fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram { .. } => "histogram",
            // Sketches render as Prometheus summaries (quantile series).
            MetricValue::Sketch(_) => "summary",
        }
    }

    /// Counter reading, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Gauge reading, if this is a gauge.
    pub fn as_gauge(&self) -> Option<i64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    fn merge_from(&mut self, other: &MetricValue, name: &str) -> Result<(), ProrpError> {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                *a += b;
                Ok(())
            }
            // Our gauges are per-shard sub-totals of fleet quantities
            // (e.g. workflows in flight), so the fleet reading is the sum.
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => {
                *a += b;
                Ok(())
            }
            (
                MetricValue::Histogram {
                    buckets: ab,
                    count: ac,
                    sum: asum,
                },
                MetricValue::Histogram {
                    buckets: bb,
                    count: bc,
                    sum: bsum,
                },
            ) => {
                for (slot, b) in ab.iter_mut().zip(bb) {
                    *slot += b;
                }
                *ac += bc;
                *asum += bsum;
                Ok(())
            }
            (MetricValue::Sketch(a), MetricValue::Sketch(b)) => {
                a.merge_from(b);
                Ok(())
            }
            _ => Err(ProrpError::Observability(format!(
                "metric {name} changed kind between shards"
            ))),
        }
    }
}

/// One named metric reading inside a snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricEntry {
    /// The metric name (`prorp_*` deterministic, `sim_self_*` volatile).
    pub name: &'static str,
    /// The reading.
    pub value: MetricValue,
}

/// `true` for self-observations of the simulator process (`sim_self_*`),
/// which vary with shard count and wall clocks and are therefore excluded
/// from determinism assertions and the JSONL export.
#[inline]
pub fn is_volatile(name: &str) -> bool {
    name.starts_with("sim_self_")
}

/// All metric readings of one shard (or, merged, of the fleet) at one
/// simulated instant, sorted by metric name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// The simulated instant the snapshot was taken.
    pub at: Timestamp,
    /// The readings, sorted by name.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Look up one reading by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// A copy with the volatile (`sim_self_*`) readings removed — the
    /// deterministic surface that must be bit-identical across shard
    /// layouts.
    pub fn deterministic(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            at: self.at,
            entries: self
                .entries
                .iter()
                .filter(|e| !is_volatile(e.name))
                .cloned()
                .collect(),
        }
    }

    /// Merge per-shard snapshot *series* into one fleet-wide series.
    ///
    /// Every shard snapshots at the same simulated instants (the schedule
    /// comes from the shared configuration), so the series are zipped
    /// elementwise and each position merged by integer sums.
    ///
    /// # Errors
    ///
    /// Fails if the series disagree on length, instants, metric names, or
    /// metric kinds — any of which means the shards were configured
    /// inconsistently.
    pub fn merge(parts: Vec<Vec<MetricsSnapshot>>) -> Result<Vec<MetricsSnapshot>, ProrpError> {
        let mut parts = parts.into_iter();
        let Some(mut merged) = parts.next() else {
            return Ok(Vec::new());
        };
        for series in parts {
            if series.len() != merged.len() {
                return Err(ProrpError::Observability(format!(
                    "snapshot series length mismatch across shards: {} vs {}",
                    merged.len(),
                    series.len()
                )));
            }
            for (acc, snap) in merged.iter_mut().zip(series) {
                acc.merge_from(&snap)?;
            }
        }
        Ok(merged)
    }

    fn merge_from(&mut self, other: &MetricsSnapshot) -> Result<(), ProrpError> {
        if self.at != other.at {
            return Err(ProrpError::Observability(format!(
                "snapshot instants differ across shards: {:?} vs {:?}",
                self.at, other.at
            )));
        }
        if self.entries.len() != other.entries.len() {
            return Err(ProrpError::Observability(format!(
                "snapshot at {:?} has {} metrics on one shard, {} on another",
                self.at,
                self.entries.len(),
                other.entries.len()
            )));
        }
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            if a.name != b.name {
                return Err(ProrpError::Observability(format!(
                    "snapshot metric name mismatch: {} vs {}",
                    a.name, b.name
                )));
            }
            a.value.merge_from(&b.value, a.name)?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl MetricValue {
        /// `(count, sum)` of a histogram reading, if this is a histogram.
        pub(crate) fn as_histogram(&self) -> Option<(u64, i64)> {
            match self {
                MetricValue::Histogram { count, sum, .. } => Some((*count, *sum)),
                _ => None,
            }
        }

        /// The sketch reading, if this is a quantile sketch.
        pub(crate) fn as_sketch(&self) -> Option<&QuantileSketch> {
            match self {
                MetricValue::Sketch(s) => Some(s),
                _ => None,
            }
        }
    }

    /// A snapshot at `at` holding `entries`, sorted by name.
    pub(crate) fn snapshot(at: i64, entries: Vec<(&'static str, MetricValue)>) -> MetricsSnapshot {
        let mut entries: Vec<MetricEntry> = entries
            .into_iter()
            .map(|(name, value)| MetricEntry { name, value })
            .collect();
        entries.sort_by_key(|e| e.name);
        MetricsSnapshot {
            at: Timestamp(at),
            entries,
        }
    }

    /// A histogram reading of the (non-negative) `values`.
    pub(crate) fn histogram(values: &[i64]) -> MetricValue {
        let mut buckets = [0; HISTOGRAM_BUCKETS];
        for &v in values {
            let idx = 64 - (v as u64).leading_zeros() as usize;
            buckets[idx.min(HISTOGRAM_BUCKETS - 1)] += 1;
        }
        MetricValue::Histogram {
            buckets,
            count: values.len() as u64,
            sum: values.iter().sum(),
        }
    }

    /// A sketch reading of `values`.
    pub(crate) fn sketch(values: &[i64]) -> MetricValue {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.observe(v);
        }
        MetricValue::Sketch(s)
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let snap = snapshot(
            60,
            vec![
                ("prorp_z", MetricValue::Gauge(-4)),
                ("prorp_a", MetricValue::Counter(7)),
                ("prorp_m_seconds", histogram(&[3, 300])),
            ],
        );
        let names: Vec<_> = snap.entries.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["prorp_a", "prorp_m_seconds", "prorp_z"]);
        assert_eq!(snap.get("prorp_a"), Some(&MetricValue::Counter(7)));
        assert_eq!(snap.get("prorp_z").unwrap().as_gauge(), Some(-4));
        assert_eq!(
            snap.get("prorp_m_seconds").unwrap().as_histogram(),
            Some((2, 303))
        );
        assert!(snap.get("missing").is_none());
    }

    #[test]
    fn merge_sums_elementwise() {
        let mk = |n: u64| {
            let at = |t| {
                snapshot(
                    t,
                    vec![
                        ("prorp_c", MetricValue::Counter(n)),
                        ("prorp_h_seconds", histogram(&[n as i64])),
                        ("sim_self_databases", MetricValue::Gauge(n as i64)),
                    ],
                )
            };
            vec![at(10), at(20)]
        };
        let merged = MetricsSnapshot::merge(vec![mk(1), mk(2), mk(4)]).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].get("prorp_c").unwrap().as_counter(), Some(7));
        assert_eq!(
            merged[0].get("sim_self_databases").unwrap().as_gauge(),
            Some(7)
        );
        assert_eq!(
            merged[1].get("prorp_h_seconds").unwrap().as_histogram(),
            Some((3, 7))
        );
        assert_eq!(
            merged[1].get("prorp_h_seconds"),
            Some(&histogram(&[1, 2, 4]))
        );
    }

    #[test]
    fn merge_rejects_mismatched_series() {
        let counter = |name, at| vec![snapshot(at, vec![(name, MetricValue::Counter(0))])];
        let one = counter("prorp_c", 10);
        let err = MetricsSnapshot::merge(vec![one.clone(), Vec::new()]).unwrap_err();
        assert_eq!(err.category(), "observability");

        let err = MetricsSnapshot::merge(vec![one.clone(), counter("prorp_d", 10)]).unwrap_err();
        assert!(err.to_string().contains("name mismatch"));

        let err = MetricsSnapshot::merge(vec![one, counter("prorp_c", 11)]).unwrap_err();
        assert!(err.to_string().contains("instants differ"));
    }

    #[test]
    fn deterministic_filter_drops_volatile_metrics() {
        let snap = snapshot(
            0,
            vec![
                ("prorp_c", MetricValue::Counter(1)),
                ("sim_self_events_processed_total", MetricValue::Counter(1)),
            ],
        );
        assert_eq!(snap.entries.len(), 2);
        let det = snap.deterministic();
        assert_eq!(det.entries.len(), 1);
        assert_eq!(det.entries[0].name, "prorp_c");
        assert!(is_volatile("sim_self_wall_clock_micros"));
        assert!(!is_volatile("prorp_logins_available_total"));
    }

    #[test]
    fn sketches_register_snapshot_and_merge() {
        let mk = |values: &[i64]| {
            let reading = sketch(values);
            assert_eq!(reading.as_sketch().unwrap().count(), values.len() as u64);
            vec![snapshot(9, vec![("prorp_resume_latency_seconds", reading)])]
        };
        let merged = MetricsSnapshot::merge(vec![mk(&[1, 60, 3600]), mk(&[7]), mk(&[])]).unwrap();
        let sketch = merged[0]
            .get("prorp_resume_latency_seconds")
            .unwrap()
            .as_sketch()
            .expect("sketch survives the merge");
        assert_eq!(sketch.count(), 4);
        assert_eq!(sketch.sum(), 1 + 60 + 3600 + 7);
        // And a whole-fleet sketch observed in one place agrees bit for bit.
        let whole = mk(&[1, 60, 3600, 7]);
        assert_eq!(
            whole[0].get("prorp_resume_latency_seconds"),
            merged[0].get("prorp_resume_latency_seconds")
        );
    }
}
