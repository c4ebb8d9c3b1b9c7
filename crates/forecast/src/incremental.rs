//! Algorithm 4 over the incrementally maintained prediction index —
//! bit-identical to [`ProbabilisticPredictor`], without the B-tree scans.
//!
//! [`ProbabilisticPredictor`]: crate::ProbabilisticPredictor
//!
//! The naive reference performs `window_positions × periods_in_history`
//! B-tree range scans per prediction (~5,700 at the Table 1 defaults).
//! This implementation reads the two structures every history backend
//! keeps current on every mutation instead:
//!
//! * the **sorted login cache** ([`HistoryRead::logins`]): for each
//!   seasonal period row the sweep keeps two monotone cursors — the
//!   first login `>= lo` and the first login `> hi` — which only move
//!   forward as the window slides, so the whole outer×inner loop costs
//!   `O(window_positions × periods + logins)` pointer bumps instead of
//!   `O(window_positions × periods × log n)` tree descents, while the
//!   aggregates (`MIN`, `MAX`, `COUNT` per window) come out *exactly* as
//!   the reference computes them;
//! * the **slot-occupancy bitmap** ([`HistoryRead::slot_index`], when
//!   configured with the matching period): since
//!   `winStart − period·prev ≡ winStart (mod period)`, one conservative
//!   bitmap probe per window position skips the entire inner loop when
//!   no period row can contain a login.  A false positive costs only the
//!   exact cursor sweep; a false negative is impossible, so skipping an
//!   empty position reproduces the reference's behaviour bit for bit
//!   (an empty position never improves `best`, and breaks the hill-climb
//!   iff a best already exists — exactly the reference's control flow).
//!
//! The equivalence is enforced by the `prediction_index` differential
//! suite in `crates/testkit` (proptest fleets, both seasonalities, both
//! confidence bases) and by unit tests below.
//!
//! Cursor scratch lives behind a cheap shared handle
//! ([`SweepScratch::shared`]) so a shard runner hosting thousands of
//! engines reuses one pair of buffers instead of reallocating per
//! database.

use crate::probabilistic::ConfidenceBasis;
use crate::Predictor;
use prorp_storage::HistoryRead;
use prorp_types::{PolicyConfig, Prediction, ProrpError, Seconds, Timestamp};
use std::cell::RefCell;
use std::rc::Rc;

/// Reusable cursor buffers for the incremental sweep; one instance can
/// serve any number of predictors on the same thread (see
/// [`SweepScratch::shared`]).
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Per period-row: index of the first login `>=` the row's window
    /// start ([`UNINIT`](Self) until first touched).
    first: Vec<usize>,
    /// Per period-row: index of the first login `>` the row's window end.
    end: Vec<usize>,
}

/// Lazily initialised cursor sentinel.
const UNINIT: usize = usize::MAX;

impl SweepScratch {
    /// A fresh scratch behind the shared handle the sim's shard runner
    /// hands to every engine it builds.
    pub fn shared() -> SharedScratch {
        Rc::new(RefCell::new(SweepScratch::default()))
    }

    /// Reset both cursor arrays to `n` uninitialised rows.
    fn reset(&mut self, n: usize) {
        self.first.clear();
        self.first.resize(n, UNINIT);
        self.end.clear();
        self.end.resize(n, UNINIT);
    }
}

/// Shared handle to a [`SweepScratch`]; `Rc` because engines of one
/// shard live and run on that shard's worker thread.
pub type SharedScratch = Rc<RefCell<SweepScratch>>;

/// Algorithm 4 on the incremental prediction index.
///
/// Produces exactly the same `Option<Prediction>` (start, end *and*
/// confidence) as [`ProbabilisticPredictor`] for every history and every
/// `now` — the naive implementation stays in the tree as the reference
/// the differential oracles compare against.
///
/// The predictor works on any [`HistoryRead`] backend; configuring the
/// store's slot index with the predictor's period (see
/// [`configure_slot_index`](prorp_storage::HistoryStore::configure_slot_index))
/// additionally enables the
/// whole-window bitmap skip.  [`ProactiveEngine`] does this
/// automatically for predictors whose [`Predictor::wants_slot_index`] is
/// `true`.
///
/// [`ProbabilisticPredictor`]: crate::ProbabilisticPredictor
/// [`ProactiveEngine`]: ../prorp_core/struct.ProactiveEngine.html
#[derive(Clone, Debug)]
pub struct IncrementalPredictor {
    config: PolicyConfig,
    basis: ConfidenceBasis,
    scratch: SharedScratch,
}

impl IncrementalPredictor {
    /// Build a predictor from validated knobs with a private scratch.
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] failures.
    pub fn new(config: PolicyConfig) -> Result<Self, ProrpError> {
        Self::with_basis(config, ConfidenceBasis::Windows)
    }

    /// Build with an explicit confidence basis (ablation support).
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] failures.
    pub fn with_basis(config: PolicyConfig, basis: ConfidenceBasis) -> Result<Self, ProrpError> {
        Self::with_scratch(config, basis, SweepScratch::shared())
    }

    /// Build sharing cursor scratch with other predictors of the same
    /// thread (the sim's per-shard reuse path).
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] failures.
    pub fn with_scratch(
        config: PolicyConfig,
        basis: ConfidenceBasis,
        scratch: SharedScratch,
    ) -> Result<Self, ProrpError> {
        config.validate()?;
        Ok(IncrementalPredictor {
            config,
            basis,
            scratch,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// Core of Algorithm 4 over the index; same contract as
    /// [`ProbabilisticPredictor::predict_at`](crate::ProbabilisticPredictor::predict_at).
    pub fn predict_at(&self, history: &dyn HistoryRead, now: Timestamp) -> Option<Prediction> {
        let w = self.config.window;
        let s = self.config.slide;
        let period = self.config.seasonality.period();
        let periods = self.config.periods_in_history();
        debug_assert!(periods >= 1, "validated config covers >= 1 period");
        // Degenerate horizon (`w > p`, including the `p = 0` disable
        // sentinel): the outer loop below would run zero times.
        if w > self.config.horizon {
            return None;
        }

        let logins = history.logins();
        // The bitmap skip is sound only when the table's index buckets
        // over this predictor's period; otherwise fall back to the
        // cursor sweep alone (still exact, still scan-free).
        let slots = history
            .slot_index()
            .filter(|ix| ix.period() == period && ix.total_logins() as usize == logins.len());

        let mut scratch = self.scratch.borrow_mut();
        scratch.reset(periods as usize);

        let pred_end = now + self.config.horizon;
        let mut win_start = now;
        let mut best: Option<Prediction> = None;

        // Outer loop (Algorithm 4 lines 9–47): slide across the horizon.
        while win_start + w <= pred_end {
            if let Some(ix) = slots {
                if !ix.any_login_in_clock_window(win_start, w) {
                    // No period row of this position can hold a login:
                    // the reference would compute prob = 0, which never
                    // improves (the threshold is positive) and ends the
                    // hill-climb iff a best exists.
                    if best.is_some() {
                        break;
                    }
                    win_start += s;
                    continue;
                }
            }
            let mut windows_with_activity: i64 = 0;
            let mut login_count: i64 = 0;
            let mut earliest_offset = w; // line 11: init to @w
            let mut last_offset = Seconds::ZERO; // line 12

            // Inner loop (lines 15–35): same clock window on each of the
            // previous `periods` seasonal periods, answered from the
            // sorted login cache by two monotone cursors per row.
            for prev in 1..=periods {
                let lo = (win_start - period * prev).as_secs();
                let hi = lo + w.as_secs();
                let row = (prev - 1) as usize;
                let f = &mut scratch.first[row];
                if *f == UNINIT {
                    *f = logins.partition_point(|&t| t < lo);
                } else {
                    while *f < logins.len() && logins[*f] < lo {
                        *f += 1;
                    }
                }
                let f = *f;
                let e = &mut scratch.end[row];
                if *e == UNINIT {
                    *e = logins.partition_point(|&t| t <= hi);
                } else {
                    while *e < logins.len() && logins[*e] <= hi {
                        *e += 1;
                    }
                }
                let e = *e;
                if f < e {
                    // `logins[f]` / `logins[e - 1]` are exactly the MIN /
                    // MAX the reference's range scan returns, and `e - f`
                    // its login count.
                    earliest_offset = earliest_offset.min(Seconds(logins[f] - lo));
                    last_offset = last_offset.max(Seconds(logins[e - 1] - lo));
                    windows_with_activity += 1;
                    if self.basis == ConfidenceBasis::Logins {
                        login_count += (e - f) as i64;
                    }
                }
            }

            let prob = match self.basis {
                ConfidenceBasis::Windows => windows_with_activity as f64 / periods as f64,
                ConfidenceBasis::Logins => (login_count as f64 / periods as f64).min(1.0),
            };
            let improves = match &best {
                None => windows_with_activity > 0 && prob >= self.config.confidence,
                Some(b) => prob > b.confidence,
            };
            if improves {
                best = Some(Prediction {
                    start: win_start + earliest_offset,
                    end: win_start + last_offset,
                    confidence: prob,
                });
            } else if best.is_some() {
                break; // first non-improving window after a hit
            }
            win_start += s;
        }
        best
    }
}

impl Predictor for IncrementalPredictor {
    fn predict(
        &mut self,
        history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError> {
        Ok(self.predict_at(history, now))
    }

    fn name(&self) -> &'static str {
        "probabilistic-incremental"
    }

    fn wants_slot_index(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProbabilisticPredictor;
    use prorp_storage::{HistoryStore, HistoryTable};
    use prorp_types::{EventKind, Seasonality};

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn config(c: f64, w_hours: i64) -> PolicyConfig {
        PolicyConfig::builder()
            .confidence(c)
            .window(Seconds::hours(w_hours))
            .history_len(Seconds::days(5))
            .build()
            .unwrap()
    }

    /// A deterministic pseudo-random history: `n` events hashed into
    /// `[0, days)` days at second granularity.
    fn scrambled_history(n: u64, days: i64, seed: u64) -> HistoryTable {
        let mut h = HistoryTable::new();
        let mut x = seed | 1;
        for _ in 0..n {
            // SplitMix64 step.
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let ts = (z % (days as u64 * DAY as u64)) as i64;
            let kind = if z & (1 << 40) == 0 {
                EventKind::Start
            } else {
                EventKind::End
            };
            h.insert_history(t(ts), kind);
        }
        h
    }

    fn assert_identical(cfg: PolicyConfig, basis: ConfidenceBasis, h: &HistoryTable, now: i64) {
        let naive = ProbabilisticPredictor::with_basis(cfg, basis).unwrap();
        let incr = IncrementalPredictor::with_basis(cfg, basis).unwrap();
        assert_eq!(
            naive.predict_at(h, t(now)),
            incr.predict_at(h, t(now)),
            "divergence at now={now} basis={basis:?}"
        );
    }

    #[test]
    fn matches_naive_on_scrambled_histories() {
        for seed in 0..8u64 {
            let mut h = scrambled_history(400, 6, seed);
            for with_index in [false, true] {
                if with_index {
                    h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
                }
                for now in [0, 3 * DAY + 7, 5 * DAY, 5 * DAY + 12_345, 6 * DAY] {
                    for basis in [ConfidenceBasis::Windows, ConfidenceBasis::Logins] {
                        assert_identical(config(0.3, 2), basis, &h, now);
                        assert_identical(config(0.05, 1), basis, &h, now);
                    }
                }
            }
        }
    }

    #[test]
    fn matches_naive_under_weekly_seasonality() {
        let weekly = PolicyConfig::builder()
            .seasonality(Seasonality::Weekly)
            .confidence(0.4)
            .window(Seconds::hours(3))
            .history_len(Seconds::days(28))
            .build()
            .unwrap();
        for seed in 0..4u64 {
            let mut h = scrambled_history(300, 28, seed);
            h.configure_slot_index(Seconds::weeks(1), Seconds::minutes(5));
            for now in [28 * DAY, 28 * DAY + 9 * HOUR + 17] {
                for basis in [ConfidenceBasis::Windows, ConfidenceBasis::Logins] {
                    assert_identical(weekly, basis, &h, now);
                }
            }
        }
    }

    #[test]
    fn mismatched_slot_index_is_ignored_not_trusted() {
        // A daily-period index under a weekly-period predictor must not
        // be used for skipping (the clock congruence would not hold).
        let weekly = PolicyConfig::builder()
            .seasonality(Seasonality::Weekly)
            .confidence(0.5)
            .window(Seconds::hours(2))
            .history_len(Seconds::days(28))
            .build()
            .unwrap();
        let mut h = HistoryTable::new();
        for wk in 0..4 {
            h.insert_history(t(wk * 7 * DAY + 9 * HOUR), EventKind::Start);
            h.insert_history(t(wk * 7 * DAY + 10 * HOUR), EventKind::End);
        }
        h.configure_slot_index(Seconds::days(1), Seconds::minutes(5));
        let naive = ProbabilisticPredictor::new(weekly).unwrap();
        let incr = IncrementalPredictor::new(weekly).unwrap();
        let now = t(28 * DAY);
        assert_eq!(naive.predict_at(&h, now), incr.predict_at(&h, now));
        assert!(incr.predict_at(&h, now).is_some());
    }

    #[test]
    fn zero_horizon_predicts_nothing() {
        let cfg = PolicyConfig {
            horizon: Seconds::ZERO,
            ..config(0.3, 2)
        };
        let mut h = HistoryTable::new();
        for d in 0..5 {
            h.insert_history(t(d * DAY + 9 * HOUR), EventKind::Start);
        }
        let p = IncrementalPredictor {
            config: cfg,
            basis: ConfidenceBasis::Windows,
            scratch: SweepScratch::shared(),
        };
        assert_eq!(p.predict_at(&h, t(5 * DAY)), None);
    }

    #[test]
    fn shared_scratch_serves_many_predictors() {
        let scratch = SweepScratch::shared();
        let a = IncrementalPredictor::with_scratch(
            config(0.5, 2),
            ConfidenceBasis::Windows,
            scratch.clone(),
        )
        .unwrap();
        let b =
            IncrementalPredictor::with_scratch(config(0.15, 1), ConfidenceBasis::Logins, scratch)
                .unwrap();
        let h = scrambled_history(200, 6, 3);
        let naive_a = ProbabilisticPredictor::new(config(0.5, 2)).unwrap();
        let naive_b =
            ProbabilisticPredictor::with_basis(config(0.15, 1), ConfidenceBasis::Logins).unwrap();
        for now in [5 * DAY, 5 * DAY + 600, 5 * DAY + 1_200] {
            assert_eq!(a.predict_at(&h, t(now)), naive_a.predict_at(&h, t(now)));
            assert_eq!(b.predict_at(&h, t(now)), naive_b.predict_at(&h, t(now)));
        }
    }

    #[test]
    fn trait_impl_reports_name_and_index_appetite() {
        let mut p = IncrementalPredictor::new(config(0.5, 2)).unwrap();
        assert_eq!(p.name(), "probabilistic-incremental");
        assert!(crate::Predictor::wants_slot_index(&p));
        let h = scrambled_history(100, 6, 1);
        assert!(crate::Predictor::predict(&mut p, &h, t(5 * DAY)).is_ok());
    }
}
