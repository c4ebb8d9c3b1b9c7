//! Deterministic conformance testkit for the ProRP workspace.
//!
//! The simulator's headline guarantee is *determinism*: the same traces,
//! knobs, and seed produce bit-identical KPIs at any shard count, with or
//! without the invariant checker, on any machine.  That guarantee is what
//! makes differential testing possible — two configurations that are
//! *semantically* equivalent (a tripped circuit breaker vs. the reactive
//! baseline, a zero-probability fault layer vs. no fault layer, `p = 0`
//! vs. prediction disabled) must produce *identical* reports, not merely
//! similar ones.  This crate packages that idea into three reusable
//! layers:
//!
//! * [`strategies`] — proptest generators over the space the paper
//!   explores: fleet specifications (region archetype mix, size, seed),
//!   the Table 1 policy knobs (`l`, `h`, `p`, `c`, `w`, `s`, `k`) inside
//!   their validated ranges, and control-plane fault plans (stage failure
//!   probabilities, retry budgets, breaker knobs, forecast fault
//!   injection, stuck workflows);
//! * [`oracles`] — helpers to run a generated scenario through the
//!   reactive, proactive, and offline-optimal engines over the standard
//!   35-day window and compare the resulting [`prorp_sim::SimReport`]s
//!   field by field, masking only the wall-clock counters that are
//!   *documented* to be nondeterministic;
//! * [`golden`] — a canonical JSON rendering of the deterministic KPI
//!   surface of a report, plus a golden-file store under
//!   `tests/goldens/` with a `BLESS=1` re-recording mode (see
//!   `scripts/bless.sh`).
//!
//! The simulator runs its observational lifecycle checks in every debug
//! build, so **every simulation a `cargo test` of this crate executes is
//! also audited by them**: illegal state transitions, backwards
//! timestamps and out-of-order history tables (debug builds), and broken
//! KPI accounting identities (every build) turn into hard errors inside
//! the property runs themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod golden;
pub mod oracles;
pub mod strategies;

pub use golden::{check_golden, check_golden_file, goldens_dir, render_report};
pub use oracles::{
    assert_behaviour_equal, assert_reports_equal, builder, logical, run, run_policy,
};
pub use strategies::{fault_plan, fleet_spec, policy_config, FaultPlan, FleetSpec};
