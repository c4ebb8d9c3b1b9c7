//! The ProRP core: proactive resume and pause of per-database resources.
//!
//! This crate is the paper's primary contribution, recast from the
//! thread-style pseudocode of Algorithm 1 into an event-driven state
//! machine suitable for discrete-event simulation and embedding:
//!
//! * [`engine`] — shared vocabulary: the [`EngineEvent`]s a database
//!   receives (customer activity edges, timers, proactive resumes), the
//!   [`EngineAction`]s it emits (allocate, reclaim, publish prediction,
//!   schedule timer), the [`DatabasePolicy`] trait, and per-engine
//!   counters;
//! * [`tracker`] — customer-activity tracking (§5): the login timestamp
//!   captured on the critical path and inserted with its logout, and the
//!   one record of whether a session is open;
//! * [`proactive`] — Algorithm 1: the Resumed → LogicallyPaused →
//!   PhysicallyPaused lifecycle of Figure 4 driven by the Algorithm 4
//!   predictor, with the §3.2 *default-to-reactive* fallback when the
//!   forecast component fails;
//! * [`reactive`] — the pre-ProRP baseline (§2.2): logically pause on
//!   idle, physically pause after `l`, resume on demand;
//! * [`optimal`] — the Figure 2(c) oracle policy whose allocation equals
//!   demand exactly;
//! * [`resume_op`] — Algorithm 5: the periodic control-plane scan that
//!   pre-warms physically paused databases `k` ahead of predicted
//!   activity;
//! * [`workflow`] — the §7 staged resume workflow (allocate node →
//!   attach storage → warm cache → mark resumed) with deterministic
//!   per-stage fault draws, retry/backoff, and incident escalation;
//! * [`breaker`] — the predictor circuit breaker that pins a database to
//!   reactive behaviour after repeated forecast failures (§3.2) and
//!   re-probes after a cool-down;
//! * [`invariants`] — the observational lifecycle checks (legal state
//!   transitions, an ascending history) the simulator runs in debug
//!   builds;
//! * [`maintenance`] — the §11 future-work extension: schedule system
//!   maintenance inside predicted-online windows so backups and updates
//!   stop forcing maintenance-only resumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod engine;
pub mod invariants;
pub mod maintenance;
pub mod optimal;
pub mod proactive;
pub mod reactive;
pub mod resume_op;
pub mod tracker;
pub mod workflow;

pub use breaker::CircuitBreaker;
pub use engine::{
    Actions, DatabasePolicy, EngineAction, EngineCounters, EngineEvent, ExplainDrain, TimerToken,
};
pub use maintenance::{MaintenanceScheduler, MaintenanceSlot, MaintenanceStats};
pub use optimal::OptimalEngine;
pub use proactive::ProactiveEngine;
pub use reactive::ReactiveEngine;
pub use resume_op::ProactiveResumeOp;
pub use tracker::ActivityTracker;
pub use workflow::{ResumeWorkflow, StageOutcome};
