//! Next-activity prediction (§6 of the paper).
//!
//! The deployed predictor is the probabilistic sliding-window detector of
//! Algorithm 4, here in a native implementation over the B-tree-indexed
//! history table ([`probabilistic`]), supporting both the daily default and
//! the weekly seasonality variant §9.2 mentions.  [`incremental`] is the
//! same algorithm as the engines run it: one window sliding over the
//! logins in seasonal-clock order, bit-identical to the scan at
//! `O(points passed)` per prediction — it visits the window positions
//! where a login enters or leaves, not every one the horizon holds.
//!
//! The paper argues (§1, §3.2, §10) that simple statistical/probabilistic
//! techniques are accurate enough in practice and evaluates against that
//! backdrop; [`baselines`] supplies the comparison points used in our
//! reproduction of that argument (a no-op predictor, a recent-gap
//! predictor, and an hour-of-day histogram predictor), plus a
//! fault-injecting wrapper exercising the §3.2 "default to reactive"
//! requirement.  [`oracle`] knows the future trace and powers the optimal
//! policy of Figure 2(c).  [`accuracy`] scores predictions against actual
//! sessions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod baselines;
pub mod incremental;
pub mod oracle;
pub mod probabilistic;
pub mod seasonality;

pub use accuracy::{score_prediction, AccuracyReport, PredictionOutcome};
pub use baselines::{FailEvery, HourlyHistogramPredictor, LastGapPredictor, NeverPredictor};
pub use incremental::{IncrementalPredictor, SharedScratch, SweepScratch};
pub use oracle::OraclePredictor;
pub use probabilistic::{ConfidenceBasis, ProbabilisticPredictor};
pub use seasonality::{
    detect_seasonality, recurrence_score, score_seasonalities, SeasonalityScores,
};

use prorp_storage::HistoryRead;
use prorp_types::{Prediction, ProrpError, Timestamp};

/// A next-activity predictor.
///
/// `predict` consumes the database's activity history (already trimmed by
/// Algorithm 3) and the current time, and returns the next predicted
/// activity interval within the configured horizon, or `None` when no
/// activity is expected (Algorithm 4's `start = 0` sentinel).
///
/// The history arrives through the storage seam's read trait
/// ([`HistoryRead`]), so one compiled predictor serves the live table
/// and frozen time-travel snapshots alike.
///
/// Errors signal component failure; per §3.2 the caller must degrade to
/// the reactive policy, never crash the database.
pub trait Predictor {
    /// Predict the next activity after `now`.
    fn predict(
        &mut self,
        history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError>;

    /// Short name for telemetry and experiment tables.
    fn name(&self) -> &'static str;

    /// Whether this predictor reads the history store's clock-ordered
    /// login index
    /// ([`HistoryStore::configure_slot_index`](prorp_storage::HistoryStore::configure_slot_index)).
    /// Engines configure the index on their history only when the
    /// predictor asks for it, so reference/naive runs stay free of
    /// index-maintenance overhead.  Wrappers must forward this.
    fn wants_clock_index(&self) -> bool {
        false
    }
}
