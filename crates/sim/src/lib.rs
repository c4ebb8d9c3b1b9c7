//! Discrete-event simulator of a serverless Azure-SQL-style region.
//!
//! The paper evaluates ProRP against production telemetry; we evaluate it
//! against a simulated region replaying synthetic traces.  The simulator
//! reproduces the moving parts the evaluation depends on:
//!
//! * [`node`] / [`cluster`] — compute nodes with finite capacity,
//!   least-loaded placement, and load-balancing **moves** that carry the
//!   database history along via backup/restore (§3.3);
//! * [`events`] — the time-ordered event queue; ties at one timestamp
//!   resolve control-plane work (workflow completions, proactive resumes)
//!   before customer logins, so a pre-warm scheduled for second `t`
//!   benefits a login at second `t`;
//! * [`config`] — simulation knobs: policy choice, workflow latencies,
//!   fleet layout, scan periods, fault injection.  Built through
//!   [`SimConfig::builder`], which owns the fault-layer knobs (stage
//!   failure probabilities, retry policy, predictor circuit breaker) and
//!   validates everything at `build()`;
//! * [`runner`] — the driver: [`Shards`], the fleet of shard drivers
//!   both the DES and the live server hold (sizing, id routing, the
//!   fork-join over worker threads, merged reads, the final merge), and
//!   [`Simulation::run_streamed`], which has each shard read its own
//!   id-hash partition of a [`prorp_workload::TraceSource`] one trace at
//!   a time and merges the per-shard outcomes into one [`SimReport`];
//!   [`Simulation::run`] is that run over a `Vec<Trace>`;
//! * [`fleet`] — struct-of-arrays per-shard database state: one arena of
//!   homogeneous policy engines (`EngineArena`, internal) and the §8
//!   segment book (one open segment per database, one total per shard),
//!   both addressed by the slot the shard's `sys.databases` row number
//!   gives each database.  This is what lets one shard hold hundreds of
//!   thousands of databases without a boxed allocation per database;
//! * [`shard`] — the per-shard event loop: replays traces through
//!   per-database policy engines, executes their actions (allocation
//!   workflows with latency, reclamation, timers, metadata publication),
//!   runs the Algorithm 5 proactive-resume scan over the shard-local
//!   `sys.databases` partition, accounts every second of fleet time into
//!   [`prorp_telemetry::SegmentKind`]s, and counts its telemetry; N
//!   shards run with zero cross-thread coordination while the merged
//!   KPIs stay bit-identical to a single-threaded run;
//! * [`diagnostics`] — the §7 diagnostics-and-mitigation runner and the
//!   shard's one book of in-flight reactive resumes: detects stuck
//!   workflows (fault injection), mitigates them — a hung resume even
//!   after its customer logged out — and escalates repeat offenders and
//!   retry-budget exhaustions as incidents;
//! * [`obs`] — shard-local wiring of the deterministic observability
//!   layer (`prorp-obs`): builds the trace buffer, sketches and SLO
//!   rollup when `SimConfig::builder().observe(..)` enables them, turns
//!   engine counter deltas into spans, and keeps the series of metrics
//!   snapshots the shard records on the
//!   [`SimEvent::ObsSnapshot`](events::SimEvent::ObsSnapshot) schedule.
//!   The merged [`ObsReport`](prorp_obs::ObsReport) rides on
//!   [`SimReport::obs`].

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod cluster;
pub mod config;
pub mod diagnostics;
pub mod events;
pub mod fleet;
pub mod node;
pub mod obs;
mod prefetch;
pub mod runner;
pub mod shard;

pub use config::{SimConfig, SimConfigBuilder, SimPolicy};
pub use diagnostics::Mitigation;
pub use prorp_obs::ObsConfig;
pub use prorp_storage::{CompactionMode, StorageBackend};
pub use prorp_telemetry::{TelemetryMode, TelemetrySummary};
pub use runner::{merge_outcomes, Shards, SimReport, Simulation};
pub use shard::{ShardDriver, ShardOutcome};

/// Whether this build runs the `strict-invariants` lifecycle checker on
/// every event.  Cargo unifies features across what one command builds,
/// so a workspace `cargo test --release` (the testkit turns the checker
/// on) leaves release binaries behind that check every event and run
/// the DES several times slower; benches stamp this beside their build
/// profile so such a timing cannot pass for a release figure.
pub const STRICT_INVARIANTS: bool = cfg!(feature = "strict-invariants");
