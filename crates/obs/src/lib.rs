//! Deterministic runtime observability for the ProRP reproduction.
//!
//! The simulator's original instrumentation was purely *offline*: KPIs
//! aggregated into a `SimReport` after the run.  This crate adds the
//! *online* substrate a production control plane needs — per-database
//! span traces and a live metrics registry — while keeping the
//! reproduction's core promise: **bit-identical output for identical
//! `(seed, config)` at any shard count**.
//!
//! Three rules make that work:
//!
//! 1. **Simulated clocks only.**  Spans and snapshots are stamped with
//!    simulated timestamps; wall-clock readings are allowed only in
//!    metrics prefixed `sim_self_*`, which every determinism surface
//!    filters out (see [`is_volatile`]).
//! 2. **Canonical merge order.**  Trace records carry a per-database
//!    sequence number; the merged trace is sorted by
//!    `(start, database, seq)`.  Each database lives on exactly one
//!    shard, so the result is independent of the shard layout — the same
//!    discipline `TelemetryLog::merge` uses for telemetry.
//! 3. **Snapshots before events.**  Mid-run metrics snapshots are taken
//!    *before* any simulation event at the same instant, so a snapshot at
//!    `T` covers exactly the events strictly before `T` on every shard.
//!
//! The pieces:
//!
//! * [`span`] — the [`TraceSink`] trait, the [`SpanKind`] taxonomy
//!   (lifecycle transitions per Algorithm 1, staged resume workflows per
//!   Algorithm 5, predictor invocations per Algorithm 4, history
//!   checkpoint/recover), and the deterministic [`TraceBuffer`];
//! * [`metrics`] — [`Counter`]/[`Gauge`]/[`Histogram`] handles, the
//!   [`MetricsRegistry`], and mergeable [`MetricsSnapshot`]s;
//! * [`sketch`] — the deterministic mergeable [`QuantileSketch`]
//!   (log-linear integer buckets; shard merges are exact bucket-count
//!   sums, so fleet percentiles are bit-identical at any shard count);
//! * [`slo`] — per-region [`SloSeries`] rollups, derived [`SloRow`]s,
//!   and multi-window burn-rate [`evaluate_alerts`];
//! * [`config`] — the [`ObsConfig`] knob carried by `SimConfig`;
//! * [`report`] — the merged [`ObsReport`] attached to a `SimReport`,
//!   and the per-shard [`ObsPart`]s it is merged from;
//! * [`export`] — JSONL and Prometheus text exporters plus the trace
//!   reader the CLI uses;
//! * [`json`] — the workspace's one JSON codec: the [`Json`] value, its
//!   renderer and its parser (`prorp-server`, `prorp-trace`, the trace
//!   reader and the experiment binaries all use it);
//! * [`query`] — operator queries (timelines, slowest stages, breaker
//!   episodes, QoS-miss attribution, decision provenance) backing the
//!   `prorp-trace` binary;
//! * [`timetravel`] — trace-driven time travel: replay a database's
//!   Login spans into a history table that keeps its mutation log, freeze
//!   a [`snapshot_as_of(T)`](prorp_storage::MutationLog::snapshot_as_of),
//!   and re-run Algorithm 4 exactly as the engine saw it
//!   (the `prorp-trace time-travel` subcommand).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod export;
pub mod json;
pub mod metrics;
pub mod query;
pub mod report;
pub mod sketch;
pub mod slo;
pub mod span;
pub mod timetravel;

pub use config::ObsConfig;
pub use export::{
    alerts_jsonl, parse_trace_jsonl, prometheus_text, record_json, slo_jsonl, snapshots_jsonl,
    trace_jsonl,
};
pub use json::Json;
pub use metrics::{
    is_volatile, Counter, Gauge, Histogram, MetricEntry, MetricValue, MetricsRegistry,
    MetricsSnapshot, Sketch, HISTOGRAM_BUCKETS,
};
pub use query::{
    breaker_episodes, decisions, qos_misses, slowest_stages, summary, timeline, why,
    BreakerEpisode, Decision, QosMiss, QosMissCause, StageLatency, TraceSummary,
};
pub use report::{ObsPart, ObsReport};
pub use sketch::QuantileSketch;
pub use slo::{
    evaluate_alerts, Alert, AlertKind, SloConfig, SloRow, SloSeries, SloWindowStats, PPM,
};
pub use span::{
    BreakerTransition, DecisionAction, DecisionExplain, NullSink, PredictOutcome, SpanKind,
    StageResult, TraceBuffer, TraceRecord, TraceSink, WorkflowOutcome,
};
pub use timetravel::{replay_as_of, TimeTravelReport};
