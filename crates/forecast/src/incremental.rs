//! Algorithm 4 as one sliding window over the logins in seasonal-clock
//! order — bit-identical to [`ProbabilisticPredictor`], at
//! `O(points passed)` per prediction: what a prediction costs follows
//! from the logins it meets, not from how many window positions the
//! knobs lay across the horizon.
//!
//! [`ProbabilisticPredictor`]: crate::ProbabilisticPredictor
//!
//! The naive reference asks, for each of the `(p − w)/s + 1` window
//! positions and each of the `periods` previous seasonal periods, "which
//! logins fall in `[lo, lo + w]` with `lo = now + j·s − period·prev`?" —
//! ~5,700 range lookups at the Table 1 defaults.  Rearranged, row `prev`
//! sees login `t` at position `j` iff
//!
//! ```text
//! j·s  <=  d  <=  j·s + w        where  d = t − now + period·prev
//! ```
//!
//! so a (login, row) pair is one point `d` on a line, every position is
//! the interval `[j·s, j·s + w]` on that line, and the whole outer×inner
//! loop is a window sliding right over the points.  `d mod period` is
//! `(t mod period) − (now mod period)`: walking the logins in
//! `(t mod period, t div period)` order ([`ClockIndex`]), circularly from
//! `now`'s clock offset, meets the points in ascending `d` — each trip
//! round the circle adds `period` to `d` and one to `prev`, which is also
//! what covers a horizon longer than one period.  Two cursors walk that
//! sequence: *enter* admits points with `d <= j·s + w`, *leave* retires
//! points with `d < j·s`; a per-row in-window count ([`SweepScratch`])
//! turns their movements into exactly the aggregates the reference
//! computes — rows with activity, logins in window, and (from the first
//! and last valid point between the cursors) `MIN`/`MAX` offsets.  Points
//! whose `prev` falls outside `1..=periods` (Algorithm 3's kept-oldest
//! tuple, logins after `now`) are passed over, exactly as the reference's
//! row loop never reaches them.
//!
//! The clock order comes from the history's [`ClockIndex`] when one is
//! configured over this predictor's period; otherwise the same sweep runs
//! over the login cache sorted into the scratch buffer.  A mismatched
//! index is ignored, never trusted.
//!
//! The equivalence is enforced by the `prediction_index` differential
//! suite in `crates/testkit` (proptest fleets, both seasonalities, both
//! confidence bases) and by the edge table below.
//!
//! Scratch lives behind a cheap shared handle ([`SweepScratch::shared`])
//! so a shard runner hosting thousands of engines reuses one pair of
//! buffers instead of reallocating per database.

use crate::probabilistic::ConfidenceBasis;
use crate::Predictor;
use prorp_storage::{ClockIndex, HistoryRead};
use prorp_types::{PolicyConfig, Prediction, ProrpError, Seconds, Timestamp};
use std::cell::RefCell;
use std::rc::Rc;

/// Reusable buffers for the sweep; one instance can serve any number of
/// predictors on the same thread (see [`SweepScratch::shared`]).
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Per period-row (`prev − 1`): its points currently in the window.
    in_window: Vec<u32>,
    /// Clock order of a history that has no matching [`ClockIndex`].
    sorted: Vec<(i64, i64)>,
}

impl SweepScratch {
    /// A fresh scratch behind the shared handle the sim's shard runner
    /// hands to every engine it builds.
    pub fn shared() -> SharedScratch {
        Rc::new(RefCell::new(SweepScratch::default()))
    }
}

/// Shared handle to a [`SweepScratch`]; `Rc` because engines of one
/// shard live and run on that shard's worker thread.
pub type SharedScratch = Rc<RefCell<SweepScratch>>;

/// What one sweep cost.  A position is visited only when a cursor will
/// move there or did at the one before, so `positions <= 2 · points + 2`
/// whatever `s` is.
#[derive(Debug, Default)]
struct SweepWork {
    /// Window positions evaluated or jumped to.
    positions: usize,
    /// Points either cursor passed.
    points: usize,
}

/// A position in the endless walk over clock-ordered logins that starts
/// at `now`'s clock offset.
#[derive(Clone, Copy)]
struct Cursor {
    /// Index into the clock order.
    at: usize,
    /// `period · laps − (now mod period)`: added to an entry's clock
    /// offset it gives the point's `d`.
    base: i64,
    /// `laps + (now div period) − 1`: minus an entry's period ordinal it
    /// gives the point's row, `prev − 1`.
    row_base: i64,
}

impl Cursor {
    /// The first point at or after `now`'s clock offset.  `order` must
    /// not be empty.
    fn start(order: &[(i64, i64)], period: i64, now: Timestamp) -> Cursor {
        let (offset, ordinal) = ClockIndex::entry(period, now.as_secs());
        let mut cursor = Cursor {
            at: order.partition_point(|e| e.0 < offset),
            base: -offset,
            row_base: ordinal - 1,
        };
        cursor.wrap(order, period);
        cursor
    }

    /// The point's `d = t − now + period·prev`.
    fn d(&self, order: &[(i64, i64)]) -> i64 {
        order[self.at].0 + self.base
    }

    /// The point's row `prev − 1`, unless `prev < 1`.
    fn row(&self, order: &[(i64, i64)]) -> Option<usize> {
        usize::try_from(self.row_base - order[self.at].1).ok()
    }

    fn advance(&mut self, order: &[(i64, i64)], period: i64) {
        self.at += 1;
        self.wrap(order, period);
    }

    /// Past the last entry the walk starts its next lap: the same logins,
    /// one period further along `d`, one row further back.
    fn wrap(&mut self, order: &[(i64, i64)], period: i64) {
        if self.at == order.len() {
            self.at = 0;
            self.base += period;
            self.row_base += 1;
        }
    }
}

/// Algorithm 4 as one sliding window over the clock-ordered logins.
///
/// Produces exactly the same `Option<Prediction>` (start, end *and*
/// confidence) as [`ProbabilisticPredictor`] for every history and every
/// `now` — the naive implementation stays in the tree as the reference
/// the differential oracles compare against.
///
/// The predictor works on any [`HistoryRead`] backend; configuring the
/// store's clock index with the predictor's period (see
/// [`configure_slot_index`](prorp_storage::HistoryStore::configure_slot_index))
/// spares it sorting the logins per call.  [`ProactiveEngine`] does this
/// automatically for predictors whose [`Predictor::wants_clock_index`] is
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

    /// Build sharing scratch with other predictors of the same thread
    /// (the sim's per-shard reuse path).
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

    /// Core of Algorithm 4 as the sliding-window sweep; same contract as
    /// [`ProbabilisticPredictor::predict_at`](crate::ProbabilisticPredictor::predict_at).
    pub fn predict_at(&self, history: &dyn HistoryRead, now: Timestamp) -> Option<Prediction> {
        self.sweep(history, now).0
    }

    /// The sweep, and what it cost (the work-bound tests read the latter).
    fn sweep(&self, history: &dyn HistoryRead, now: Timestamp) -> (Option<Prediction>, SweepWork) {
        let mut work = SweepWork::default();
        let w = self.config.window.as_secs();
        let s = self.config.slide.as_secs();
        let horizon = self.config.horizon.as_secs();
        let period = self.config.seasonality.period().as_secs();
        let periods = self.config.periods_in_history();
        debug_assert!(periods >= 1, "validated config covers >= 1 period");
        // Degenerate horizon (`w > p`, including the `p = 0` disable
        // sentinel): no window position fits.
        if w > horizon {
            return (None, work);
        }

        let mut scratch = self.scratch.borrow_mut();
        let SweepScratch { in_window, sorted } = &mut *scratch;
        let order = match history
            .clock_index()
            .filter(|ix| ix.period().as_secs() == period)
        {
            Some(ix) => ix.entries(),
            None => {
                sorted.clear();
                let logins = history.logins().iter();
                sorted.extend(logins.map(|&t| ClockIndex::entry(period, t)));
                sorted.sort_unstable();
                sorted
            }
        };
        // No logins, no points: every position has prob = 0.  (It also
        // keeps the cursors' endless walk from spinning on nothing.)
        if order.is_empty() {
            return (None, work);
        }
        in_window.clear();
        in_window.resize(periods as usize, 0);

        let mut enter = Cursor::start(order, period, now);
        let mut leave = enter;
        let mut windows_with_activity: i64 = 0;
        let mut login_count: i64 = 0;
        // `d` of the newest admitted point: while any point is in the
        // window it is one of them, and no in-window point lies further.
        let mut last_d = 0;
        let mut best: Option<Prediction> = None;

        // Outer loop (Algorithm 4 lines 9–47): slide across the horizon;
        // `off = j·s` is `winStart − now`.
        let mut off = 0;
        while off + w <= horizon {
            work.positions += 1;
            let mut moved = false;
            while enter.d(order) <= off + w {
                if let Some(n) = enter.row(order).and_then(|r| in_window.get_mut(r)) {
                    *n += 1;
                    windows_with_activity += i64::from(*n == 1);
                    login_count += 1;
                    last_d = enter.d(order);
                    moved = true;
                }
                enter.advance(order, period);
                work.points += 1;
            }
            while leave.d(order) < off {
                if let Some(n) = leave.row(order).and_then(|r| in_window.get_mut(r)) {
                    *n -= 1;
                    windows_with_activity -= i64::from(*n == 0);
                    login_count -= 1;
                    moved = true;
                }
                leave.advance(order, period);
                work.points += 1;
            }
            // The same points as at the previous position give the same
            // prob: it cannot improve on itself if something has hit, and
            // still fails the threshold if nothing has — here and at
            // every position before the first that moves a cursor, which
            // is the first `j·s` at or past where the next point enters
            // (`d − w`) or the oldest leaves (`d + 1`).  Both lie beyond
            // `off >= 0`, so `/` rounds as the ceiling needs.
            if !moved {
                if best.is_some() {
                    break;
                }
                let change = (enter.d(order) - w).min(leave.d(order) + 1);
                debug_assert!(change > off, "the jump moves forward");
                off = (change + s - 1) / s * s;
                continue;
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
                // MIN / MAX over the rows (lines 19–24): the first and
                // the last valid point between the cursors.
                let mut first = leave;
                while first.row(order).and_then(|r| in_window.get(r)).is_none() {
                    first.advance(order, period);
                }
                best = Some(Prediction {
                    start: now + Seconds(first.d(order)),
                    end: now + Seconds(last_d),
                    confidence: prob,
                });
            } else if best.is_some() {
                break; // first non-improving window after a hit
            }
            off += s;
        }
        (best, work)
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

    fn wants_clock_index(&self) -> bool {
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
        let mut h = HistoryTable::default();
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
        let (got, work) = incr.sweep(h, t(now));
        assert_eq!(
            naive.predict_at(h, t(now)),
            got,
            "divergence at now={now} basis={basis:?}"
        );
        assert_work_bound(&work, &format!("now={now} basis={basis:?}"));
    }

    /// A position is visited only next to a cursor movement.
    fn assert_work_bound(work: &SweepWork, what: &str) {
        assert!(
            work.positions <= 2 * work.points + 2,
            "{what}: {work:?} — the sweep stepped through positions where nothing moves"
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

    /// Small knobs for the edge table: `w` = 2 h, `s` = 1 h, `p` = 6 h
    /// (five positions), three periods of history.
    fn edge_config(seasonality: Seasonality, confidence: f64) -> PolicyConfig {
        PolicyConfig::builder()
            .seasonality(seasonality)
            .confidence(confidence)
            .window(Seconds::hours(2))
            .slide(Seconds::hours(1))
            .horizon(Seconds::hours(6))
            .history_len(seasonality.period() * 3)
            .build()
            .unwrap()
    }

    #[test]
    fn edge_table_matches_naive() {
        struct Edge {
            name: &'static str,
            config: PolicyConfig,
            now: i64,
            /// Login timestamps relative to `now`.
            logins: Vec<i64>,
            /// Whether a prediction is expected at all (keeps the table
            /// from passing on `None == None` throughout).
            hit: bool,
        }
        let daily = edge_config(Seasonality::Daily, 0.3);
        let weekly = edge_config(Seasonality::Weekly, 0.3);
        let one_position = PolicyConfig {
            window: Seconds::hours(6),
            ..daily
        };
        let two_laps = PolicyConfig {
            horizon: Seconds::days(2),
            confidence: 0.6,
            ..daily
        };
        // Two of three rows must line up, far from the first position:
        // the rows below put a login of yesterday's at the window's left
        // edge and one of the day before's at its right edge, so only the
        // position the jump must land on — not the one before, not the
        // one after — holds both.  `J` = j·s for both slides.
        let every_second = PolicyConfig {
            slide: Seconds(1),
            confidence: 0.6,
            ..daily
        };
        let odd_slide = PolicyConfig {
            slide: Seconds(7),
            ..every_second
        };
        const J: i64 = 1_234 * 7;
        const W: i64 = 2 * HOUR;
        // 23:00, so most logins below sit *behind* `now` on the clock and
        // the walk starts by wrapping into its second lap.
        let now = 10 * DAY + 23 * HOUR;
        let week = 7 * DAY;
        let edge = |name, config, logins: &[i64], hit| Edge {
            name,
            config,
            now,
            logins: logins.to_vec(),
            hit,
        };
        let table = vec![
            edge("empty history", daily, &[], false),
            // Row prev = 1 at the first position covers [−1 d, −1 d + 2 h].
            edge("t = lo at the first position", daily, &[-DAY], true),
            edge(
                "t = lo − 1 at the first position",
                daily,
                &[-DAY - 1],
                false,
            ),
            edge(
                "t = hi at the first position",
                daily,
                &[-DAY + 2 * HOUR],
                true,
            ),
            edge(
                "t = hi + 1 at the first position",
                daily,
                &[-DAY + 2 * HOUR + 1],
                true,
            ),
            // … and at the last position [−1 d + 4 h, −1 d + 6 h].
            edge(
                "t = lo at the last position",
                daily,
                &[-DAY + 4 * HOUR],
                true,
            ),
            edge(
                "t = hi at the last position",
                daily,
                &[-DAY + 6 * HOUR],
                true,
            ),
            edge(
                "t = hi + 1 at the last position",
                daily,
                &[-DAY + 6 * HOUR + 1],
                false,
            ),
            edge(
                "window == horizon, inside",
                one_position,
                &[-2 * DAY + 6 * HOUR],
                true,
            ),
            edge(
                "window == horizon, outside",
                one_position,
                &[-2 * DAY + 6 * HOUR + 1],
                false,
            ),
            // Below the 0.6 threshold until the second lap, where the
            // login after `now` (row 1) and yesterday's (row 2) line up.
            edge(
                "second lap sees a login after now",
                two_laps,
                &[3 * HOUR, -DAY + 3 * HOUR + 60],
                true,
            ),
            edge("a login after now, alone", daily, &[HOUR], false),
            edge(
                "a login after now is not counted",
                daily,
                &[HOUR, -DAY + HOUR + 60],
                true,
            ),
            edge("kept-oldest tuple, alone", daily, &[-5 * DAY + HOUR], false),
            edge(
                "kept-oldest tuple is not counted",
                daily,
                &[-5 * DAY + HOUR, -DAY + HOUR + 30],
                true,
            ),
            edge(
                "several logins per row and window",
                daily,
                &[-DAY + 10, -DAY + 20, -2 * DAY + 30, -3 * DAY + 2 * HOUR + 5],
                true,
            ),
            edge(
                "s = 1 s: j·s and j·s + w meet at position j",
                every_second,
                &[-DAY + J, -2 * DAY + J + W],
                true,
            ),
            edge(
                "s = 1 s: j·s and j·s + w + 1 never meet",
                every_second,
                &[-DAY + J, -2 * DAY + J + W + 1],
                false,
            ),
            edge(
                "s = 1 s: j·s − 1 leaves as j·s + w enters",
                every_second,
                &[-DAY + J - 1, -2 * DAY + J + W],
                false,
            ),
            edge(
                "s = 1 s: j·s − 1 and j·s + w − 1 meet at position j − 1",
                every_second,
                &[-DAY + J - 1, -2 * DAY + J + W - 1],
                true,
            ),
            edge(
                "s = 7 s: j·s and j·s + w meet at position j",
                odd_slide,
                &[-DAY + J, -2 * DAY + J + W],
                true,
            ),
            edge(
                "s = 7 s: the last second before j·s + s, the first after j·s − s + w",
                odd_slide,
                &[-DAY + J + 6, -2 * DAY + J + W - 6],
                true,
            ),
            edge(
                "s = 7 s: j·s + w + 1 enters at j + 1, after j·s + 6 left",
                odd_slide,
                &[-DAY + J + 6, -2 * DAY + J + W + 1],
                false,
            ),
            edge(
                "s = 7 s: j·s − 1 leaves as j·s + w enters",
                odd_slide,
                &[-DAY + J - 1, -2 * DAY + J + W],
                false,
            ),
            edge("weekly, t = lo", weekly, &[-week], true),
            edge(
                "weekly, t = hi at the last position",
                weekly,
                &[-week + 6 * HOUR],
                true,
            ),
            edge("weekly, one day off", weekly, &[-week + DAY], false),
            edge(
                "weekly, beyond the history",
                weekly,
                &[-4 * week + HOUR],
                false,
            ),
            Edge {
                name: "before the epoch",
                config: daily,
                now: -3 * DAY + 5 * HOUR,
                logins: vec![-DAY + HOUR, -2 * DAY + HOUR + 7],
                hit: true,
            },
        ];
        for Edge {
            name,
            config,
            now,
            logins,
            hit,
        } in table
        {
            let mut plain = HistoryTable::default();
            for at in logins {
                plain.insert_history(t(now + at), EventKind::Start);
            }
            let mut indexed = plain.clone();
            indexed.configure_slot_index(config.seasonality.period(), config.slide);
            let mut mismatched = plain.clone();
            mismatched.configure_slot_index(Seconds::hours(5), config.slide);
            for basis in [ConfidenceBasis::Windows, ConfidenceBasis::Logins] {
                let naive = ProbabilisticPredictor::with_basis(config, basis).unwrap();
                let incr = IncrementalPredictor::with_basis(config, basis).unwrap();
                let want = naive.predict_at(&plain, t(now));
                assert_eq!(want.is_some(), hit, "{name} ({basis:?}): expectation");
                for (source, h) in [
                    ("no index", &plain),
                    ("index", &indexed),
                    ("mismatched index", &mismatched),
                ] {
                    let (got, work) = incr.sweep(h, t(now));
                    assert_eq!(got, want, "{name} ({basis:?}, {source})");
                    assert_work_bound(&work, name);
                }
            }
        }
    }

    /// The sweep's work over logins at `logins` (absolute), which must
    /// agree with the naive scan, with and without a clock index.
    fn work_of(cfg: PolicyConfig, logins: &[i64], now: i64) -> (Option<Prediction>, SweepWork) {
        let mut h = HistoryTable::default();
        for &at in logins {
            h.insert_history(t(at), EventKind::Start);
        }
        let naive = ProbabilisticPredictor::new(cfg).unwrap();
        let incr = IncrementalPredictor::new(cfg).unwrap();
        let want = naive.predict_at(&h, t(now));
        assert_eq!(incr.predict_at(&h, t(now)), want, "no index");
        h.configure_slot_index(cfg.seasonality.period(), cfg.slide);
        let (got, work) = incr.sweep(&h, t(now));
        assert_eq!(got, want, "index");
        assert_work_bound(&work, "work_of");
        (got, work)
    }

    #[test]
    fn a_prediction_costs_its_logins_not_its_positions() {
        // One login, `s` = 1 s, Table 1's 7 h window over a day: 61 201
        // positions, of which the login is in reach of 25 201.
        let every_second = PolicyConfig {
            slide: Seconds(1),
            ..PolicyConfig::default()
        };
        assert_eq!(every_second.window_positions(), 61_201);
        let now = 30 * DAY;
        let login = [now - 3 * DAY + 15 * HOUR];
        // Below the threshold everywhere: the sweep crosses the whole
        // horizon, and the login enters and leaves once.
        let never = PolicyConfig {
            confidence: 0.9,
            ..every_second
        };
        let (got, work) = work_of(never, &login, now);
        assert_eq!(got, None);
        assert!(work.points >= 2 && work.positions <= 6, "{work:?}");
        // One row of 28 is enough: the sweep jumps the 8 h to the first
        // window that reaches the login and stops at the next.
        let one_row = PolicyConfig {
            confidence: 0.03,
            ..every_second
        };
        let (got, work) = work_of(one_row, &login, now);
        assert_eq!(
            got.map(|p| p.start),
            Some(t(now + 15 * HOUR)),
            "the login's clock time tomorrow"
        );
        assert!(work.positions <= 3, "{work:?}");

        // `predict_bench`'s `young_sparse`: eight days, one login a day
        // at no settled hour.  Three share a window only from 15:00 on —
        // position 180 of 205 — and until then a position differs from
        // its neighbour only where one of eight logins enters or leaves.
        let minute_of_day = [60, 120, 570, 630, 1_080, 1_140, 1_320, 1_380];
        let logins: Vec<i64> = (0..8)
            .map(|d| d * DAY + minute_of_day[d as usize] * 60)
            .collect();
        let (got, work) = work_of(PolicyConfig::default(), &logins, 8 * DAY);
        assert!(got.is_some_and(|p| p.start >= t(8 * DAY + 15 * HOUR)));
        // (Each login is passed at most twice a lap, entering and leaving.)
        assert!(work.positions <= 4 * logins.len() + 2, "{work:?}");

        // A horizon of two periods: the walk laps the clock, each login
        // is a point once per lap, and the bound holds across the seam.
        let two_laps = PolicyConfig {
            horizon: Seconds::days(2),
            confidence: 0.9,
            ..every_second
        };
        let (got, work) = work_of(two_laps, &logins, 8 * DAY);
        assert_eq!(got, None);
        assert!(work.points >= 3 * logins.len(), "{work:?}");
        assert!(work.positions <= 8 * logins.len() + 2, "{work:?}");
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
        let mut h = HistoryTable::default();
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
        let mut h = HistoryTable::default();
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
        assert!(crate::Predictor::wants_clock_index(&p));
        let h = scrambled_history(100, 6, 1);
        assert!(crate::Predictor::predict(&mut p, &h, t(5 * DAY)).is_ok());
    }
}
