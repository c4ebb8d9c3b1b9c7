//! Telemetry and KPI evaluation (§8 of the paper).
//!
//! "Customer activity and resource allocation decisions are persisted
//! long-term for offline evaluation of KPI metrics.  These metrics
//! include quality of service, operational cost efficiency, and
//! computational overhead."
//!
//! * [`segments`] — per-database time accounting: every second of
//!   simulated time lands in exactly one [`SegmentKind`], from which the
//!   §8 COGS decomposition (logical-pause idle, correct-proactive idle,
//!   wrong-proactive idle) falls out;
//! * [`kpi`] — the fleet-level report printed by the Figure 6/7/8/9
//!   benches;
//! * [`cdf`] — empirical CDFs and percentiles (Figure 10);
//! * [`boxplot`] — five-number summaries (Figures 11 and 12);
//! * [`log`] — the append-only telemetry event log the offline training
//!   pipeline consumes;
//! * [`merge`] — the streaming k-way merge over per-shard logs plus the
//!   [`TelemetryMode`]/[`TelemetrySummary`] contract that lets
//!   million-database runs count telemetry instead of logging it;
//! * [`fault`] — control-plane fault-layer telemetry (§7): per-stage
//!   workflow latency histograms, retry/giveup/fallback counters, and
//!   the deterministic incident log;
//! * [`shard`] — per-shard timing/throughput counters for the sharded
//!   parallel simulator (operational telemetry about the simulator
//!   itself, not the simulated fleet).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod boxplot;
pub mod cdf;
pub mod fault;
pub mod kpi;
pub mod log;
pub mod merge;
pub mod segments;
pub mod shard;

pub use boxplot::BoxPlot;
pub use cdf::Cdf;
pub use fault::{IncidentEntry, IncidentKind, IncidentLog, LatencyHistogram, WorkflowStats};
pub use kpi::KpiReport;
pub use log::{TelemetryEvent, TelemetryKind, TelemetryLog};
pub use merge::{TelemetryMergeIter, TelemetryMode, TelemetrySummary};
pub use segments::{SegmentBook, SegmentKind, SegmentTotals};
pub use shard::ShardCounters;
