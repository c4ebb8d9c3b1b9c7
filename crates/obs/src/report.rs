//! The merged observability output of one simulation run.

use crate::metrics::MetricsSnapshot;
use crate::slo::{evaluate_alerts, Alert, SloSeries};
use crate::span::{TraceBuffer, TraceRecord};
use prorp_types::{ProrpError, Result};

/// Everything the observability layer collected during one run: the
/// canonical trace, the metrics-snapshot series (periodic snapshots,
/// if configured, plus the end-of-run snapshot last), and — when SLO
/// rollups are enabled — the merged per-region [`SloSeries`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObsReport {
    /// The merged trace, in canonical `(start, db, seq)` order.
    pub trace: Vec<TraceRecord>,
    /// Fleet-wide metrics snapshots in chronological order; the last one
    /// is always the end-of-run snapshot.
    pub snapshots: Vec<MetricsSnapshot>,
    /// Merged per-region SLO rollup series (`None` unless the run was
    /// configured with [`SloConfig`](crate::slo::SloConfig)).
    pub slo: Option<SloSeries>,
}

/// One shard's share of an [`ObsReport`]: the same fields, except that
/// the trace is still the two lanes its [`TraceBuffer`] was written in
/// ([`TraceBuffer::into_lanes`]) — merging them is the fleet merge's
/// work, done once for all shards.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObsPart {
    /// The shard's trace lanes, each in canonical order.
    pub trace: [Vec<TraceRecord>; 2],
    /// The shard's metrics snapshots, end-of-run snapshot last.
    pub snapshots: Vec<MetricsSnapshot>,
    /// The shard's SLO rollup series, when rollups are enabled.
    pub slo: Option<SloSeries>,
}

impl ObsReport {
    /// Merge per-shard parts into the fleet-wide report.
    ///
    /// # Errors
    ///
    /// Fails when the per-shard snapshot series are inconsistent (see
    /// [`MetricsSnapshot::merge`]) or the SLO configs differ across
    /// shards.
    pub fn merge(parts: Vec<ObsPart>) -> Result<ObsReport, ProrpError> {
        let mut traces = Vec::with_capacity(2 * parts.len());
        let mut snapshots = Vec::with_capacity(parts.len());
        let mut slo_parts = Vec::new();
        for part in parts {
            traces.extend(part.trace);
            snapshots.push(part.snapshots);
            if let Some(slo) = part.slo {
                slo_parts.push(slo);
            }
        }
        Ok(ObsReport {
            trace: TraceBuffer::merge(traces),
            snapshots: MetricsSnapshot::merge(snapshots)?,
            slo: SloSeries::merge(slo_parts)?,
        })
    }

    /// The end-of-run snapshot, if any snapshot was taken.
    pub fn final_snapshot(&self) -> Option<&MetricsSnapshot> {
        self.snapshots.last()
    }

    /// The deterministic alert log derived from the merged SLO series
    /// (empty when rollups are off).
    pub fn alerts(&self) -> Vec<Alert> {
        self.slo.as_ref().map(evaluate_alerts).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::snapshot;
    use crate::metrics::MetricValue;
    use crate::slo::SloConfig;
    use crate::span::{SpanKind, TraceSink};
    use prorp_types::{DatabaseId, Timestamp};

    fn part(db: u64, count: u64) -> ObsPart {
        let mut buf = TraceBuffer::new();
        buf.event(
            Timestamp(db as i64),
            DatabaseId(db),
            SpanKind::ProactiveResume,
        );
        let mut slo = SloSeries::new(SloConfig::default());
        slo.on_login(Timestamp(10), DatabaseId(db), false);
        ObsPart {
            trace: buf.into_lanes(),
            snapshots: vec![snapshot(
                100,
                vec![("prorp_c", MetricValue::Counter(count))],
            )],
            slo: Some(slo),
        }
    }

    #[test]
    fn merge_combines_traces_snapshots_and_slo() {
        let merged = ObsReport::merge(vec![part(2, 3), part(1, 4)]).unwrap();
        assert_eq!(merged.trace.len(), 2);
        assert!(merged.trace[0].db < merged.trace[1].db, "canonical order");
        let last = merged.final_snapshot().unwrap();
        assert_eq!(last.get("prorp_c").unwrap().as_counter(), Some(7));
        let slo = merged.slo.as_ref().unwrap();
        let total: u64 = slo.windows.values().map(|w| w.logins).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn empty_merge_is_empty() {
        let merged = ObsReport::merge(Vec::new()).unwrap();
        assert!(merged.trace.is_empty());
        assert!(merged.final_snapshot().is_none());
        assert!(merged.slo.is_none());
        assert!(merged.alerts().is_empty());
    }
}
