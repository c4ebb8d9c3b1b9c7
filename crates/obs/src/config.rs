//! Observability configuration carried by the simulator config.

use crate::slo::SloConfig;
use prorp_types::{ProrpError, Result, Seconds};

/// Observability knobs, set through `SimConfig::builder().observe(..)`.
///
/// The default is **off**: no trace buffer, sketch or snapshot series is
/// built, and the instrumentation sites in the shard runner reduce to one
/// branch on an `Option` — the zero-overhead-when-disabled fast path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObsConfig {
    /// Master switch: when `false` the simulator allocates no
    /// observability state at all.
    pub enabled: bool,
    /// Take a metrics snapshot every this much simulated time (`None` =
    /// only the final end-of-run snapshot).  Snapshots land *before* any
    /// simulation event at the same instant, so a snapshot at `T` covers
    /// exactly the events strictly before `T` on every shard.
    pub snapshot_every: Option<Seconds>,
    /// Record per-database span traces (on by default when observability
    /// is enabled).  Turn off for million-database rollup-only runs,
    /// where the per-event trace is the memory that matters: metrics,
    /// sketches, and SLO rollups keep working without it.
    pub trace_spans: bool,
    /// Record a [`SpanKind::Decision`](crate::span::SpanKind::Decision)
    /// provenance record for every proactive resume/pause/skip decision
    /// (requires `trace_spans`).  Queryable with `prorp-trace why`.
    pub explain: bool,
    /// Per-region SLO rollups and burn-rate alerting (`None` = off).
    pub slo: Option<SloConfig>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: false,
            snapshot_every: None,
            trace_spans: true,
            explain: false,
            slo: None,
        }
    }
}

impl ObsConfig {
    /// Observability disabled (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Tracing and metrics enabled, with only the end-of-run snapshot.
    pub fn on() -> Self {
        ObsConfig {
            enabled: true,
            ..Self::default()
        }
    }

    /// Tracing and metrics enabled with periodic mid-run snapshots.
    pub fn with_snapshots(every: Seconds) -> Self {
        ObsConfig {
            enabled: true,
            snapshot_every: Some(every),
            ..Self::default()
        }
    }

    /// This config with per-region SLO rollups and alerting enabled.
    #[must_use]
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// This config with decision-provenance records enabled.
    #[must_use]
    pub fn with_explain(mut self) -> Self {
        self.explain = true;
        self
    }

    /// This config with span tracing disabled (rollup-only mode for
    /// million-database fleets).
    #[must_use]
    pub fn without_trace(mut self) -> Self {
        self.trace_spans = false;
        self
    }

    /// Validate the knobs.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive snapshot period, any feature requested
    /// while observability is disabled, explain records without span
    /// tracing, and invalid SLO knobs.
    pub fn check(&self) -> Result<()> {
        if let Some(every) = self.snapshot_every {
            if every <= Seconds::ZERO {
                return Err(ProrpError::InvalidConfig(format!(
                    "obs snapshot period must be positive, got {}s",
                    every.as_secs()
                )));
            }
            if !self.enabled {
                return Err(ProrpError::InvalidConfig(
                    "obs snapshots require observability to be enabled".into(),
                ));
            }
        }
        if !self.enabled && (self.explain || self.slo.is_some()) {
            return Err(ProrpError::InvalidConfig(
                "obs explain/slo require observability to be enabled".into(),
            ));
        }
        if self.explain && !self.trace_spans {
            return Err(ProrpError::InvalidConfig(
                "obs explain records require span tracing".into(),
            ));
        }
        if let Some(slo) = &self.slo {
            slo.check()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off_and_valid() {
        let cfg = ObsConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.trace_spans, "tracing defaults on once enabled");
        assert!(!cfg.explain);
        assert!(cfg.slo.is_none());
        assert!(cfg.check().is_ok());
        assert_eq!(cfg, ObsConfig::off());
    }

    #[test]
    fn constructors_enable_the_right_knobs() {
        assert!(ObsConfig::on().enabled);
        assert_eq!(ObsConfig::on().snapshot_every, None);
        let periodic = ObsConfig::with_snapshots(Seconds::hours(6));
        assert!(periodic.enabled);
        assert_eq!(periodic.snapshot_every, Some(Seconds::hours(6)));
        assert!(periodic.check().is_ok());
        let full = ObsConfig::on()
            .with_slo(SloConfig::default())
            .with_explain();
        assert!(full.explain);
        assert!(full.slo.is_some());
        assert!(full.check().is_ok());
        let rollup_only = ObsConfig::on()
            .without_trace()
            .with_slo(SloConfig::default());
        assert!(!rollup_only.trace_spans);
        assert!(rollup_only.check().is_ok());
    }

    #[test]
    fn check_rejects_bad_knobs() {
        let zero = ObsConfig::with_snapshots(Seconds::ZERO);
        assert_eq!(zero.check().unwrap_err().category(), "invalid_config");
        let disabled_with_period = ObsConfig {
            enabled: false,
            snapshot_every: Some(Seconds::hours(1)),
            ..ObsConfig::default()
        };
        assert!(disabled_with_period.check().is_err());
        let disabled_with_slo = ObsConfig::off().with_slo(SloConfig::default());
        assert!(disabled_with_slo.check().is_err());
        let explain_without_trace = ObsConfig::on().without_trace().with_explain();
        assert!(explain_without_trace.check().is_err());
        let bad_slo = ObsConfig::on().with_slo(SloConfig {
            regions: 0,
            ..SloConfig::default()
        });
        assert!(bad_slo.check().is_err());
    }
}
