//! Shared vocabulary for the ProRP reproduction.
//!
//! This crate defines the types every other crate in the workspace speaks:
//!
//! * [`time`] — epoch-second [`Timestamp`]s and [`Seconds`] durations, the
//!   unit the paper's `time_snapshot BIGINT` column uses (§5);
//! * [`ids`] — strongly-typed identifiers for databases, nodes, and clusters;
//! * [`event`] — customer-activity events (start/end of activity, §5) and
//!   the [`Session`] intervals they delimit;
//! * [`state`] — the serverless lifecycle states of Figure 4 and the
//!   resource-allocation correctness classes of Definition 2.2;
//! * [`config`] — the configuration knobs of Table 1 with their published
//!   default values;
//! * [`prediction`] — the output of the next-activity predictor (§6);
//! * [`workflow`] — the staged resume-workflow vocabulary and the
//!   control-plane fault-layer knobs (§7);
//! * [`error`] — the shared error type.
//!
//! Everything here is plain data: no I/O, no randomness, no clocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod event;
pub mod ids;
pub mod prediction;
pub mod state;
pub mod time;
pub mod workflow;

pub use config::{PolicyConfig, PolicyConfigBuilder, Seasonality};
pub use error::ProrpError;
pub use event::{ActivityEvent, EventKind, Session};
pub use ids::{ClusterId, DatabaseId, DbMap, DbSet, IdHasher, NodeId};
pub use prediction::Prediction;
pub use state::{AllocationClass, DbState};
pub use time::{Seconds, Timestamp};
pub use workflow::{BreakerConfig, FaultConfig, RetryPolicy, StageFault, WorkflowStage};

/// Convenient result alias used across the workspace.
pub type Result<T, E = ProrpError> = std::result::Result<T, E>;
