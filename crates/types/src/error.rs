//! The workspace-wide error type.
//!
//! Kept deliberately small: §3.2 of the paper requires that a failure in
//! any proactive component degrades the system to the reactive policy
//! rather than failing the database, so errors are values that flow to the
//! policy layer, not panics.
//!
//! The enum is `#[non_exhaustive]`: downstream matches must carry a
//! wildcard arm so new failure classes (like the workflow variants added
//! with the control-plane fault layer) do not break them.

use crate::workflow::WorkflowStage;
use std::error::Error;
use std::fmt;

/// Errors shared across the ProRP crates.
#[non_exhaustive]
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProrpError {
    /// A malformed activity event or event stream.
    InvalidEvent(String),
    /// A configuration knob outside its legal range.
    InvalidConfig(String),
    /// A storage-layer failure (duplicate key, corrupt page, …).
    Storage(String),
    /// A SQL-layer failure (parse error, unknown table, type mismatch, …).
    Sql(String),
    /// A forecasting failure; the policy falls back to reactive decisions.
    Forecast(String),
    /// A simulator invariant violation (e.g. capacity accounting bug).
    Simulation(String),
    /// A lifecycle/accounting invariant violated: an illegal state
    /// transition, time going backwards or a history out of order (checked
    /// in debug builds), or a broken KPI identity (checked in every build).
    InvariantViolation(String),
    /// An injected fault (used by tests exercising the reactive fallback).
    FaultInjected(String),
    /// An observability-layer failure (malformed trace stream, metric
    /// snapshots that cannot be merged, exporter input errors).
    Observability(String),
    /// One attempt of a resume-workflow stage failed (§7 control plane).
    WorkflowStageFailed {
        /// The stage that failed.
        stage: WorkflowStage,
        /// Which attempt failed (1-based; 1 is the first try).
        attempt: u32,
        /// The underlying failure.
        cause: Box<ProrpError>,
    },
    /// A workflow stage exhausted its retry budget and was escalated to
    /// the diagnostics runner as an incident.
    RetryExhausted {
        /// The stage that gave up.
        stage: WorkflowStage,
        /// How many attempts were made before giving up.
        attempts: u32,
    },
}

impl ProrpError {
    /// Short machine-readable category name, used by telemetry counters.
    pub fn category(&self) -> &'static str {
        match self {
            ProrpError::InvalidEvent(_) => "invalid_event",
            ProrpError::InvalidConfig(_) => "invalid_config",
            ProrpError::Storage(_) => "storage",
            ProrpError::Sql(_) => "sql",
            ProrpError::Forecast(_) => "forecast",
            ProrpError::Simulation(_) => "simulation",
            ProrpError::InvariantViolation(_) => "invariant",
            ProrpError::FaultInjected(_) => "fault_injected",
            ProrpError::Observability(_) => "observability",
            ProrpError::WorkflowStageFailed { .. } => "workflow_stage",
            ProrpError::RetryExhausted { .. } => "retry_exhausted",
        }
    }
}

impl fmt::Display for ProrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProrpError::InvalidEvent(m) => write!(f, "invalid activity event: {m}"),
            ProrpError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            ProrpError::Storage(m) => write!(f, "storage error: {m}"),
            ProrpError::Sql(m) => write!(f, "sql error: {m}"),
            ProrpError::Forecast(m) => write!(f, "forecast error: {m}"),
            ProrpError::Simulation(m) => write!(f, "simulation error: {m}"),
            ProrpError::InvariantViolation(m) => write!(f, "invariant violated: {m}"),
            ProrpError::FaultInjected(m) => write!(f, "injected fault: {m}"),
            ProrpError::Observability(m) => write!(f, "observability error: {m}"),
            ProrpError::WorkflowStageFailed {
                stage,
                attempt,
                cause,
            } => write!(
                f,
                "resume workflow stage {stage} failed on attempt {attempt}: {cause}"
            ),
            ProrpError::RetryExhausted { stage, attempts } => write!(
                f,
                "resume workflow stage {stage} exhausted its retry budget \
                 after {attempts} attempts; escalating to diagnostics"
            ),
        }
    }
}

impl Error for ProrpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ProrpError::WorkflowStageFailed { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = ProrpError::Storage("page overflow".into());
        assert_eq!(e.to_string(), "storage error: page overflow");
        assert_eq!(e.category(), "storage");
    }

    #[test]
    fn error_trait_object_compatible() {
        let e: Box<dyn Error> = Box::new(ProrpError::Forecast("no history".into()));
        assert!(e.to_string().contains("no history"));
    }

    #[test]
    fn workflow_variants_are_structured_and_chain_sources() {
        let e = ProrpError::WorkflowStageFailed {
            stage: WorkflowStage::AttachStorage,
            attempt: 2,
            cause: Box::new(ProrpError::FaultInjected("injected stage fault".into())),
        };
        assert_eq!(e.category(), "workflow_stage");
        assert!(e.to_string().contains("attach-storage"));
        assert!(e.to_string().contains("attempt 2"));
        let source = e.source().expect("stage failures carry a cause");
        assert!(source.to_string().contains("injected stage fault"));

        let g = ProrpError::RetryExhausted {
            stage: WorkflowStage::WarmCache,
            attempts: 3,
        };
        assert_eq!(g.category(), "retry_exhausted");
        assert!(g.source().is_none());
        assert!(g.to_string().contains("3 attempts"));
    }
}
