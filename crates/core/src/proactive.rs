//! Algorithm 1 — the proactive resource-allocation policy.
//!
//! The paper's listing is written as three blocking functions (`Resume`,
//! `LogicalPause`, `PhysicalPause`) with `Sleep()` loops; here the same
//! lifecycle (Figure 4) runs as an event-driven state machine.  The
//! correspondence, line by line:
//!
//! | Listing | Here |
//! |---|---|
//! | lines 2–3 (`AllocateResources`, `InsertHistory(now,1)`) | [`EngineEvent::ActivityStart`] handling |
//! | line 6 (`InsertHistory(now,0)`) | [`EngineEvent::ActivityEnd`] handling |
//! | lines 7–9 (skip re-prediction while the previous predicted activity is not over) | `needs_reprediction` |
//! | lines 10–12 (idle decision) | `initial_physical_pause_condition` |
//! | lines 18–20 (the `Sleep()` wait) | `schedule_wake` + [`EngineEvent::Timer`] |
//! | lines 24–29 (re-check after the wait) | the `Timer` arm |
//! | lines 31–32 (`InsertMetadata`, `ReclaimResources`) | `physical_pause` |
//! | Algorithm 5 line 8 (`d.LogicalPause()`) | the [`EngineEvent::ProactiveResume`] arm |
//!
//! Two deliberate deviations, both documented at their site:
//!
//! 1. timers fire at integer seconds, so the listing's strict
//!    `pauseStart + l < now` becomes `pauseStart + l <= now` (otherwise
//!    the engine would need a second wake-up one second later);
//! 2. a predictor **error** is distinguished from a predictor returning
//!    "no activity expected": per §3.2 the former degrades the database to
//!    reactive behaviour (logical pause for `l`, then physical pause),
//!    whereas the latter is an informed decision that lets an old database
//!    skip straight to the physical pause (Transition ❸).

use crate::breaker::CircuitBreaker;
use crate::engine::{
    Actions, DatabasePolicy, EngineAction, EngineCounters, EngineEvent, ExplainDrain, ExplainLog,
    TimerToken,
};
use crate::tracker::ActivityTracker;
use prorp_forecast::{ConfidenceBasis, Knobs, Predictor, SharedKnobs, SweepScratch};
use prorp_obs::span::{DecisionAction, DecisionExplain};
use prorp_storage::{HistoryRead, HistoryStore, HistoryTable, StorageBackend};
use prorp_types::{BreakerConfig, DbState, PolicyConfig, Prediction, ProrpError, Timestamp};
use std::sync::Arc;
use std::time::Instant;

/// The forecast the engine is currently acting on.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ForecastState {
    /// The predictor ran; `None` means "no activity expected within the
    /// horizon" (Algorithm 4's `start = 0`).
    Predicted(Option<Prediction>),
    /// The predictor failed; §3.2 mandates reactive behaviour until it
    /// recovers.
    Unavailable,
}

/// The proactive per-database engine (Algorithm 1).
///
/// It holds one database's state.  The policy and breaker knobs are the
/// run's, behind one [`SharedKnobs`] handle: the predictor's, when the
/// predictor reads the same knobs through one.
#[derive(Debug)]
pub struct ProactiveEngine<P> {
    knobs: SharedKnobs,
    predictor: P,
    tracker: ActivityTracker,
    state: DbState,
    /// `@old` — whether the database has a full history window
    /// (Algorithm 3 output).
    old: bool,
    forecast: ForecastState,
    breaker: CircuitBreaker,
    pause_start: Timestamp,
    next_token: u64,
    live_token: Option<TimerToken>,
    counters: EngineCounters,
    /// Decision-provenance capture (`ObsConfig::explain`): `None`, one
    /// pointer and one branch per decision, until capture is turned on.
    explains: Option<Box<ExplainLog>>,
    /// Whether `explains` holds undrained records: the shard drains
    /// after every event, and most events decide nothing, so the drain
    /// reads this flag instead of the boxed log's cache line.
    explains_pending: bool,
}

impl<P: Predictor> ProactiveEngine<P> {
    /// Build an engine for a freshly created (resumed, empty-history)
    /// database.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(config: PolicyConfig, predictor: P) -> Result<Self, ProrpError> {
        Self::with_breaker(config, predictor, BreakerConfig::default())
    }

    /// Build an engine with explicit predictor circuit-breaker knobs
    /// (§3.2): after `breaker.failure_threshold` consecutive forecast
    /// failures the engine stops invoking the predictor — behaving
    /// exactly like the reactive baseline — and re-probes after
    /// `breaker.cooldown`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn with_breaker(
        config: PolicyConfig,
        predictor: P,
        breaker: BreakerConfig,
    ) -> Result<Self, ProrpError> {
        Self::with_backend(config, predictor, breaker, StorageBackend::default())
    }

    /// Build an engine whose history lives in the given storage backend
    /// (the §5 table or the LSM).  Policy behaviour is backend-independent: the
    /// same event sequence yields the same actions, predictions, and
    /// counters on either engine.
    ///
    /// When the predictor's [`knobs`](Predictor::knobs) hold this
    /// `config` and `breaker`, the engine shares them; otherwise it
    /// holds knobs of its own.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn with_backend(
        config: PolicyConfig,
        predictor: P,
        breaker: BreakerConfig,
        backend: StorageBackend,
    ) -> Result<Self, ProrpError> {
        let knobs = match predictor.knobs() {
            Some(k) if *k.config() == config && *k.breaker() == breaker => Arc::clone(k),
            _ => Knobs::shared(
                config,
                breaker,
                ConfidenceBasis::default(),
                SweepScratch::shared(),
            )?,
        };
        let mut tracker = ActivityTracker::with_backend(backend);
        if predictor.wants_clock_index() {
            tracker
                .history_mut()
                .configure_slot_index(config.seasonality.period(), config.slide);
        }
        Ok(ProactiveEngine {
            knobs,
            predictor,
            tracker,
            state: DbState::Resumed,
            old: false,
            forecast: ForecastState::Predicted(None),
            breaker: CircuitBreaker::default(),
            pause_start: Timestamp::EPOCH,
            next_token: 0,
            live_token: None,
            counters: EngineCounters::default(),
            explains: None,
            explains_pending: false,
        })
    }

    /// The run's policy knobs.
    fn config(&self) -> &PolicyConfig {
        self.knobs.config()
    }

    /// The run's knobs this engine reads.
    pub fn knobs(&self) -> &SharedKnobs {
        &self.knobs
    }

    /// The prediction currently acted on, if any (testing / diagnostics).
    pub fn current_prediction(&self) -> Option<Prediction> {
        match self.forecast {
            ForecastState::Predicted(p) => p,
            ForecastState::Unavailable => None,
        }
    }

    /// Whether the last forecast attempt failed (reactive-fallback mode).
    pub fn forecast_unavailable(&self) -> bool {
        self.forecast == ForecastState::Unavailable
    }

    /// Whether the predictor circuit breaker is suppressing predictions
    /// at `now` (the engine is pinned to reactive behaviour until the
    /// cool-down elapses).
    pub fn breaker_open(&self, now: Timestamp) -> bool {
        self.breaker.is_open(now)
    }

    fn fresh_token(&mut self) -> TimerToken {
        self.next_token += 1;
        TimerToken(self.next_token)
    }

    /// Lines 7–9: re-predict only once the previous predicted activity is
    /// over; a still-pending prediction keeps steering the policy.
    fn needs_reprediction(&self, now: Timestamp) -> bool {
        match self.forecast {
            ForecastState::Predicted(Some(p)) => p.is_over(now),
            ForecastState::Predicted(None) | ForecastState::Unavailable => true,
        }
    }

    /// Lines 8–9 / 24–25: trim history (Algorithm 3), then run the
    /// predictor, degrading to [`ForecastState::Unavailable`] on error.
    ///
    /// While the circuit breaker is open the predictor is not invoked at
    /// all: the engine short-circuits to the reactive fallback until the
    /// cool-down admits a half-open probe.
    fn repredict(&mut self, now: Timestamp) {
        let outcome = self
            .tracker
            .history_mut()
            .delete_old_history(self.knobs.config().history_len, now);
        self.old = outcome.old;
        if self.config().prediction_disabled() {
            // `p = 0`: prediction is switched off, not failing.  Take the
            // §3.2 reactive-fallback path (logical pause for `l`, then
            // physical pause) without invoking the predictor, counting a
            // failure, or touching the breaker — the engine then behaves
            // exactly like the reactive baseline.
            self.forecast = ForecastState::Unavailable;
            return;
        }
        if !self.breaker.allows(now) {
            self.counters.breaker_fallbacks += 1;
            self.forecast = ForecastState::Unavailable;
            return;
        }
        let started = Instant::now();
        let result = self.predictor.predict(self.tracker.history(), now);
        let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.counters.predictions += 1;
        self.counters.prediction_ns_sum += elapsed;
        self.counters.prediction_ns_max = self.counters.prediction_ns_max.max(elapsed);
        match result {
            Ok(p) => {
                self.breaker.record_success();
                self.forecast = ForecastState::Predicted(p);
            }
            Err(_) => {
                self.counters.forecast_failures += 1;
                if self.breaker.record_failure(self.knobs.breaker(), now) {
                    self.counters.breaker_opens += 1;
                }
                self.forecast = ForecastState::Unavailable;
            }
        }
    }

    /// Line 10: `idle & (now + l <= nextActivity.start ||
    /// (old & nextActivity.start = 0))`.
    fn initial_physical_pause_condition(&self, now: Timestamp) -> bool {
        match self.forecast {
            ForecastState::Unavailable => false, // reactive: logical pause first
            ForecastState::Predicted(Some(p)) => p.starts_after(now, self.config().logical_pause),
            ForecastState::Predicted(None) => self.old,
        }
    }

    /// Line 26: `(!old & pauseStart + l <= now) || now + l <=
    /// nextActivity.start || (old & nextActivity.start = 0)`.
    fn recheck_physical_pause_condition(&self, now: Timestamp) -> bool {
        let timeout = self.pause_start + self.config().logical_pause <= now;
        match self.forecast {
            ForecastState::Unavailable => timeout, // reactive fallback
            ForecastState::Predicted(Some(p)) => {
                (!self.old && timeout) || p.starts_after(now, self.config().logical_pause)
            }
            ForecastState::Predicted(None) => self.old || timeout,
        }
    }

    /// Lines 13–20 entry: become logically paused and schedule the wake-up
    /// that replaces the `Sleep()` loop.
    fn enter_logical_pause(
        &mut self,
        now: Timestamp,
        count_as_logical_pause: bool,
        actions: &mut Actions,
    ) {
        self.state = DbState::LogicallyPaused;
        self.pause_start = now;
        if count_as_logical_pause {
            self.counters.logical_pauses += 1;
        }
        self.schedule_wake(now, actions);
    }

    /// The wake time is when the line-19 wait disjunction goes false:
    /// `(!old & now < pauseStart+l) || now < next.end ||
    ///  now < next.start < now+l` — the third disjunct expires no later
    /// than the second (`start <= end`), so the wake is the max of the
    /// applicable first two expiries.
    fn schedule_wake(&mut self, now: Timestamp, actions: &mut Actions) {
        let mut wake: Option<Timestamp> = None;
        let mut consider = |t: Timestamp| {
            wake = Some(wake.map_or(t, |w: Timestamp| w.max(t)));
        };
        let timeout_at = self.pause_start + self.config().logical_pause;
        match self.forecast {
            ForecastState::Unavailable => consider(timeout_at),
            ForecastState::Predicted(Some(p)) => {
                if !self.old {
                    consider(timeout_at);
                }
                if now < p.end {
                    consider(p.end);
                }
                // An old database whose predicted activity is over but
                // starts soon would not have entered logical pause; the
                // defensive fallback below covers residual cases.
            }
            ForecastState::Predicted(None) => {
                if !self.old {
                    consider(timeout_at);
                }
            }
        }
        // No applicable expiry (an old database whose fresh prediction
        // starts immediately): re-check at the window-slide granularity —
        // the listing's `while pauseEnd = 0` loop re-evaluates as soon as
        // the wait disjunction is false, and the prediction can only
        // change once the window slides past the historical logins.
        let at = wake.unwrap_or(now + self.config().slide).max(now);
        let token = self.fresh_token();
        self.live_token = Some(token);
        actions.push(EngineAction::ScheduleTimer(at, token));
    }

    /// Lines 30–32: publish the predicted start and reclaim resources.
    fn physical_pause(&mut self, now: Timestamp, actions: &mut Actions) {
        self.state = DbState::PhysicallyPaused;
        self.live_token = None;
        self.counters.physical_pauses += 1;
        let pred_start = match self.forecast {
            ForecastState::Predicted(Some(p)) => Some(p.start),
            _ => None,
        };
        self.record_decision(now, DecisionAction::PhysicalPause);
        actions.push(EngineAction::SetPredictedStart(pred_start));
        actions.push(EngineAction::Reclaim);
    }

    /// Capture one decision-provenance record (no-op unless enabled).
    ///
    /// The confidence basis is stored as the exact integer rational the
    /// Algorithm 4 sweep computed: the denominator is the config's
    /// periods-in-history and the numerator recovers the windows-with-
    /// activity count from the float confidence (`prob = hits / periods`
    /// holds exactly, so the round-trip is lossless).
    fn record_decision(&mut self, now: Timestamp, action: DecisionAction) {
        let Some(explains) = &mut self.explains else {
            return;
        };
        let (predicted, hits, total) = match self.forecast {
            ForecastState::Predicted(Some(p)) => {
                let periods = self.knobs.config().periods_in_history().max(0) as u32;
                let hits = (p.confidence * f64::from(periods)).round() as u32;
                (Some(p.start), hits, periods)
            }
            ForecastState::Predicted(None) | ForecastState::Unavailable => (None, 0, 0),
        };
        explains.push((
            now,
            DecisionExplain {
                action,
                predicted,
                history_len: self.tracker.history().logins().len() as u32,
                confidence_hits: hits,
                confidence_total: total,
                breaker_open: self.breaker.is_open(now),
            },
        ));
        self.explains_pending = true;
    }
}

impl<P: Predictor> DatabasePolicy for ProactiveEngine<P> {
    fn on_event(&mut self, now: Timestamp, event: EngineEvent) -> Actions {
        let mut actions = Actions::new();
        match event {
            EngineEvent::ActivityStart => {
                if !self.tracker.login(now) {
                    return actions; // duplicate start: already serving
                }
                self.live_token = None;
                match self.state {
                    DbState::PhysicallyPaused => {
                        self.counters.logins_unavailable += 1;
                        actions.push(EngineAction::Allocate);
                    }
                    DbState::Resumed | DbState::LogicallyPaused => {
                        self.counters.logins_available += 1;
                    }
                }
                self.state = DbState::Resumed;
            }
            EngineEvent::ActivityEnd => {
                if !self.tracker.logout(now) {
                    return actions;
                }
                if self.needs_reprediction(now) {
                    self.repredict(now);
                }
                if self.initial_physical_pause_condition(now) {
                    self.physical_pause(now, &mut actions);
                } else {
                    self.record_decision(now, DecisionAction::DeferPause);
                    self.enter_logical_pause(now, true, &mut actions);
                }
            }
            EngineEvent::Timer(token) => {
                if self.live_token != Some(token) {
                    return actions; // superseded timer
                }
                self.live_token = None;
                if self.tracker.serving() || self.state != DbState::LogicallyPaused {
                    return actions;
                }
                // Lines 24–29: re-trim, re-predict, re-decide.
                self.repredict(now);
                if self.recheck_physical_pause_condition(now) {
                    self.physical_pause(now, &mut actions);
                } else {
                    // Stay logically paused; pause_start is preserved.
                    self.record_decision(now, DecisionAction::DeferPause);
                    self.schedule_wake(now, &mut actions);
                }
            }
            EngineEvent::ProactiveResume => {
                if self.state != DbState::PhysicallyPaused || self.tracker.serving() {
                    return actions; // raced with a customer login
                }
                self.counters.proactive_resumes += 1;
                self.record_decision(now, DecisionAction::ProactiveResume);
                actions.push(EngineAction::Allocate);
                // Algorithm 5 line 8: d.LogicalPause().
                self.enter_logical_pause(now, false, &mut actions);
            }
            EngineEvent::ForcedPause => {
                if self.tracker.serving() || self.state == DbState::PhysicallyPaused {
                    return actions;
                }
                self.live_token = None;
                self.state = DbState::PhysicallyPaused;
                self.counters.physical_pauses += 1;
                // Clear the published prediction: the operator decided,
                // Algorithm 5 must not schedule an undo.
                actions.push(EngineAction::SetPredictedStart(None));
                actions.push(EngineAction::Reclaim);
            }
        }
        actions
    }

    fn state(&self) -> DbState {
        self.state
    }

    fn counters(&self) -> EngineCounters {
        self.counters
    }

    fn tracker(&self) -> &ActivityTracker {
        &self.tracker
    }

    fn restore_history(&mut self, history: HistoryTable) {
        self.tracker.replace_history(history);
        if self.predictor.wants_clock_index() {
            let config = self.knobs.config();
            self.tracker
                .history_mut()
                .configure_slot_index(config.seasonality.period(), config.slide);
        }
    }

    fn current_prediction(&self) -> Option<Prediction> {
        ProactiveEngine::current_prediction(self)
    }

    fn set_explain_enabled(&mut self, enabled: bool) {
        match (enabled, &self.explains) {
            (true, None) => self.explains = Some(Box::default()),
            (false, Some(_)) => {
                self.explains = None;
                self.explains_pending = false;
            }
            _ => {}
        }
    }

    fn drain_explains(&mut self) -> ExplainDrain<'_> {
        match &mut self.explains {
            Some(explains) if std::mem::take(&mut self.explains_pending) => explains.drain(),
            _ => ExplainDrain::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_forecast::{FailEvery, NeverPredictor, ProbabilisticPredictor};
    use prorp_types::Seconds;

    impl<P: Predictor> ProactiveEngine<P> {
        /// Whether the engine currently considers the database old.
        pub(crate) fn is_old(&self) -> bool {
            self.old
        }
    }

    const DAY: i64 = 86_400;
    const HOUR: i64 = 3_600;

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    fn config() -> PolicyConfig {
        PolicyConfig::builder()
            .history_len(Seconds::days(5))
            .confidence(0.5)
            .window(Seconds::hours(2))
            .logical_pause(Seconds::hours(7))
            .build()
            .unwrap()
    }

    fn engine() -> ProactiveEngine<ProbabilisticPredictor> {
        let predictor = ProbabilisticPredictor::new(config()).unwrap();
        ProactiveEngine::new(config(), predictor).unwrap()
    }

    /// The wake-up an engine reply schedules, if any.
    fn timer_of(actions: &Actions) -> Option<(Timestamp, TimerToken)> {
        actions.iter().find_map(|a| match a {
            EngineAction::ScheduleTimer(at, tok) => Some((*at, *tok)),
            _ => None,
        })
    }

    /// Drive one day of 09:00–10:00 activity plus the engine's timers.
    /// Returns the timer requests emitted on the final pause decision.
    fn run_daily_sessions<P: Predictor>(eng: &mut ProactiveEngine<P>, days: i64) -> Actions {
        run_daily_sessions_from(eng, 0, days)
    }

    /// Like [`run_daily_sessions`] but starting at `first_day`, so a test
    /// can pause mid-run (e.g. to flip a knob) and continue forward in
    /// time.
    fn run_daily_sessions_from<P: Predictor>(
        eng: &mut ProactiveEngine<P>,
        first_day: i64,
        days: i64,
    ) -> Actions {
        let mut last = Actions::new();
        let mut pending_timer: Option<(Timestamp, TimerToken)> = None;
        let mut next_session = first_day;
        let mut now;
        while next_session < days {
            let start = t(next_session * DAY + 9 * HOUR);
            let end = t(next_session * DAY + 10 * HOUR);
            // Deliver any timer due before the session start.
            while let Some((at, tok)) = pending_timer {
                if at <= start {
                    now = at;
                    let acts = eng.on_event(now, EngineEvent::Timer(tok));
                    pending_timer = timer_of(&acts);
                } else {
                    break;
                }
            }
            eng.on_event(start, EngineEvent::ActivityStart);
            last = eng.on_event(end, EngineEvent::ActivityEnd);
            pending_timer = timer_of(&last);
            next_session += 1;
        }
        last
    }

    /// A new database (no history: the reactive-like arms) and an old
    /// one with a daily pattern (predictions published, wake timers,
    /// immediate physical pauses).
    #[test]
    fn every_arm_from_every_state_replies_within_capacity() {
        let fresh = crate::engine::walk_every_arm(t(0), engine);
        let old = crate::engine::walk_every_arm(t(6 * DAY + 10 * HOUR), || {
            let mut eng = engine();
            run_daily_sessions(&mut eng, 6);
            eng
        });
        for longest in [fresh, old] {
            assert!((1..=Actions::CAPACITY).contains(&longest), "{longest}");
        }
    }

    #[test]
    fn first_idle_enters_logical_pause_with_a_timer() {
        let mut eng = engine();
        eng.on_event(t(100), EngineEvent::ActivityStart);
        assert_eq!(eng.state(), DbState::Resumed);
        let actions = eng.on_event(t(200), EngineEvent::ActivityEnd);
        assert_eq!(eng.state(), DbState::LogicallyPaused);
        // New database, no qualifying history → timer at pauseStart + l.
        match actions.as_slice() {
            [EngineAction::ScheduleTimer(at, _)] => {
                assert_eq!(*at, t(200) + Seconds::hours(7));
            }
            other => panic!("expected a single timer, got {other:?}"),
        }
    }

    #[test]
    fn new_database_physically_pauses_after_l() {
        let mut eng = engine();
        eng.on_event(t(100), EngineEvent::ActivityStart);
        let actions = eng.on_event(t(200), EngineEvent::ActivityEnd);
        let (at, tok) = match actions.as_slice() {
            [EngineAction::ScheduleTimer(at, tok)] => (*at, *tok),
            other => panic!("unexpected {other:?}"),
        };
        let actions = eng.on_event(at, EngineEvent::Timer(tok));
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        assert!(actions.contains(&EngineAction::Reclaim));
        // New database has no reliable prediction to publish.
        assert!(matches!(
            actions[0],
            EngineAction::SetPredictedStart(None) | EngineAction::SetPredictedStart(Some(_))
        ));
        assert_eq!(eng.counters().physical_pauses, 1);
        assert_eq!(eng.counters().logical_pauses, 1);
    }

    #[test]
    fn stale_timer_tokens_are_ignored() {
        let mut eng = engine();
        eng.on_event(t(100), EngineEvent::ActivityStart);
        let actions = eng.on_event(t(200), EngineEvent::ActivityEnd);
        let (at, tok) = match actions.as_slice() {
            [EngineAction::ScheduleTimer(at, tok)] => (*at, *tok),
            other => panic!("unexpected {other:?}"),
        };
        // Customer returns before the timer: timer must become stale.
        eng.on_event(t(300), EngineEvent::ActivityStart);
        let actions = eng.on_event(at, EngineEvent::Timer(tok));
        assert!(actions.is_empty());
        assert_eq!(eng.state(), DbState::Resumed);
    }

    #[test]
    fn old_database_with_pattern_physically_pauses_immediately() {
        let mut eng = engine();
        // 6 daily sessions make the database old (history ≥ 5 days) with a
        // strong daily pattern.
        let actions = run_daily_sessions(&mut eng, 6);
        // After the last 10:00 logout, next predicted activity is tomorrow
        // 09:00, which is ≥ 7 h away → immediate physical pause
        // (Transition ❸, skipping the logical pause).
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        assert!(actions.contains(&EngineAction::Reclaim));
        let published = actions.iter().find_map(|a| match a {
            EngineAction::SetPredictedStart(p) => Some(*p),
            _ => None,
        });
        let pred_start = published.flatten().expect("prediction published");
        // Predicted start must be within the pre-warm window of the real
        // next 09:00 login.
        let real_next = t(6 * DAY + 9 * HOUR);
        assert!(
            pred_start <= real_next,
            "pre-warm must not be later than the login"
        );
        assert!(real_next - pred_start <= Seconds::hours(3));
    }

    #[test]
    fn zero_horizon_degenerates_to_reactive_behaviour() {
        // `p = 0` disables prediction: even an old database with a strong
        // daily pattern must take the reactive path — logical pause after
        // every logout, physical pause only after `l` — instead of the
        // Transition ❸ immediate physical pause.
        let cfg = PolicyConfig::builder()
            .history_len(Seconds::days(5))
            .confidence(0.5)
            .window(Seconds::hours(2))
            .logical_pause(Seconds::hours(7))
            .horizon(Seconds::ZERO)
            .build()
            .unwrap();
        let predictor = ProbabilisticPredictor::new(cfg).unwrap();
        let mut eng = ProactiveEngine::new(cfg, predictor).unwrap();
        let actions = run_daily_sessions(&mut eng, 6);
        assert!(eng.is_old(), "six days of history make the database old");
        assert_eq!(eng.state(), DbState::LogicallyPaused);
        assert!(eng.current_prediction().is_none());
        let (at, tok) = match actions.as_slice() {
            [EngineAction::ScheduleTimer(at, tok)] => (*at, *tok),
            other => panic!("unexpected {other:?}"),
        };
        // The wake is the reactive idle timeout, not a predicted end.
        assert_eq!(at, t(5 * DAY + 10 * HOUR) + Seconds::hours(7));
        let actions = eng.on_event(at, EngineEvent::Timer(tok));
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        assert!(actions.contains(&EngineAction::SetPredictedStart(None)));
        // Disabled ≠ failing: nothing was predicted, nothing failed.
        let c = eng.counters();
        assert_eq!(c.predictions, 0);
        assert_eq!(c.forecast_failures, 0);
        assert_eq!(c.breaker_fallbacks, 0);
    }

    #[test]
    fn proactive_resume_prewarns_and_login_finds_resources() {
        let mut eng = engine();
        // During warm-up there is no control plane in this unit test, so
        // every morning login after a physical pause is reactive; we only
        // assert on the deltas after the pre-warm below.
        run_daily_sessions(&mut eng, 6);
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        let before = eng.counters();
        // Control plane pre-warms 5 minutes ahead of predicted start.
        let pred = eng.current_prediction().unwrap();
        let prewarm_at = pred.start - Seconds::minutes(5);
        let actions = eng.on_event(prewarm_at, EngineEvent::ProactiveResume);
        assert!(actions.contains(&EngineAction::Allocate));
        assert_eq!(eng.state(), DbState::LogicallyPaused);
        // The real login at 09:00 lands on available resources.
        eng.on_event(t(6 * DAY + 9 * HOUR), EngineEvent::ActivityStart);
        let after = eng.counters();
        assert_eq!(after.logins_available, before.logins_available + 1);
        assert_eq!(after.logins_unavailable, before.logins_unavailable);
        assert_eq!(after.proactive_resumes, before.proactive_resumes + 1);
    }

    #[test]
    fn wrong_proactive_resume_eventually_repauses() {
        let mut eng = engine();
        run_daily_sessions(&mut eng, 6);
        let pred = eng.current_prediction().unwrap();
        let prewarm_at = pred.start - Seconds::minutes(5);
        let actions = eng.on_event(prewarm_at, EngineEvent::ProactiveResume);
        let (at, tok) = timer_of(&actions).expect("logical pause schedules a wake");
        // The customer never shows up; the first wake is at predicted end.
        assert_eq!(at, pred.end.max(prewarm_at));
        // The engine may linger logically paused (the fresh re-prediction
        // can still expect imminent activity) but must physically pause
        // within the logical-pause budget `l` of the pre-warm.
        let mut now = at;
        let mut tok = tok;
        let deadline = prewarm_at + Seconds::hours(7) + Seconds(1);
        while eng.state() == DbState::LogicallyPaused {
            assert!(now <= deadline, "engine failed to re-pause by {deadline}");
            let actions = eng.on_event(now, EngineEvent::Timer(tok));
            if let Some((next_at, next_tok)) = timer_of(&actions) {
                assert!(next_at > now, "wake times must advance");
                now = next_at;
                tok = next_tok;
            }
        }
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
    }

    #[test]
    fn login_while_physically_paused_is_a_reactive_resume() {
        let mut eng = engine();
        run_daily_sessions(&mut eng, 6);
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        let before = eng.counters().logins_unavailable;
        let actions = eng.on_event(t(6 * DAY + 3 * HOUR), EngineEvent::ActivityStart);
        assert!(actions.contains(&EngineAction::Allocate));
        assert_eq!(eng.counters().logins_unavailable, before + 1);
        assert_eq!(eng.state(), DbState::Resumed);
    }

    #[test]
    fn forecast_failure_degrades_to_reactive() {
        // Predictor that always fails.
        let failing = FailEvery::new(NeverPredictor, 1);
        let mut eng = ProactiveEngine::new(config(), failing).unwrap();
        eng.on_event(t(100), EngineEvent::ActivityStart);
        let actions = eng.on_event(t(200), EngineEvent::ActivityEnd);
        // §3.2: despite the failure, the database is logically paused (not
        // crashed, not immediately reclaimed).
        assert!(eng.forecast_unavailable());
        assert_eq!(eng.state(), DbState::LogicallyPaused);
        let (at, tok) = match actions.as_slice() {
            [EngineAction::ScheduleTimer(at, tok)] => (*at, *tok),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(at, t(200) + Seconds::hours(7));
        // After l the database physically pauses with no prediction.
        let actions = eng.on_event(at, EngineEvent::Timer(tok));
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        assert!(actions.contains(&EngineAction::SetPredictedStart(None)));
        assert!(eng.counters().forecast_failures >= 1);
    }

    #[test]
    fn prediction_pending_suppresses_reprediction() {
        // A 09:00 login on alternate days plus a 09:40 login every day:
        // the earliest qualifying window sees only the alternate-day 09:00
        // logins (confidence 0.6), and the hill-climb keeps widening until
        // the window also covers the daily 09:40 logins (confidence 1.0),
        // yielding a ~40-minute predicted interval instead of a point.
        let mut eng = engine();
        let mut pending: Option<(Timestamp, TimerToken)> = None;
        for d in 0..6 {
            if let Some((at, tok)) = pending {
                if at <= t(d * DAY + 9 * HOUR) {
                    eng.on_event(at, EngineEvent::Timer(tok));
                }
            }
            if d % 2 == 0 {
                eng.on_event(t(d * DAY + 9 * HOUR), EngineEvent::ActivityStart);
                eng.on_event(t(d * DAY + 9 * HOUR + 600), EngineEvent::ActivityEnd);
            }
            eng.on_event(t(d * DAY + 9 * HOUR + 2_400), EngineEvent::ActivityStart);
            let acts = eng.on_event(t(d * DAY + 10 * HOUR), EngineEvent::ActivityEnd);
            pending = timer_of(&acts);
        }
        let pred = eng.current_prediction().expect("pattern detected");
        assert!(
            pred.duration() >= Seconds::minutes(30),
            "two logins per window must widen the prediction, got {pred}"
        );
        let before = eng.counters().predictions;
        // Customer logs in *during* the predicted interval and leaves
        // before its end: lines 7–9 skip re-prediction because the
        // predicted activity is not over.
        eng.on_event(pred.start, EngineEvent::ActivityStart);
        eng.on_event(pred.start + Seconds::minutes(10), EngineEvent::ActivityEnd);
        assert_eq!(eng.counters().predictions, before);
        // And the engine stays logically paused awaiting more activity in
        // the predicted interval (line 19's `now < next.end`).
        assert_eq!(eng.state(), DbState::LogicallyPaused);
    }

    #[test]
    fn incremental_predictor_engine_matches_naive_engine() {
        use prorp_forecast::IncrementalPredictor;
        let mut naive = engine();
        let mut incr =
            ProactiveEngine::new(config(), IncrementalPredictor::new(config()).unwrap()).unwrap();
        assert!(
            incr.history().clock_index().is_some(),
            "engine configures the clock index for predictors that want it"
        );
        assert!(
            naive.history().clock_index().is_none(),
            "naive reference engines stay free of index maintenance"
        );
        let a = run_daily_sessions(&mut naive, 6);
        let b = run_daily_sessions(&mut incr, 6);
        assert_eq!(a, b, "action streams diverged");
        assert_eq!(naive.state(), incr.state());
        assert_eq!(naive.current_prediction(), incr.current_prediction());
        let (mut ca, mut cb) = (naive.counters(), incr.counters());
        ca.prediction_ns_sum = 0;
        ca.prediction_ns_max = 0;
        cb.prediction_ns_sum = 0;
        cb.prediction_ns_max = 0;
        assert_eq!(ca, cb, "logical counters diverged");
    }

    #[test]
    fn same_instant_reprediction_is_pure() {
        // A timer delivered in the very second of the logout that
        // scheduled it, with no history mutation between, re-runs the
        // predictor over identical inputs.  Three 09:00 days, then a
        // 03:00–04:00 session: the 09:00 forecast is under `l` away, so
        // the logout defers the pause behind a timer.
        let (login, logout) = (t(3 * DAY + 3 * HOUR), t(3 * DAY + 4 * HOUR));
        let first_idle = || {
            let mut eng = engine();
            let mut pending = timer_of(&run_daily_sessions(&mut eng, 3));
            while let Some((at, tok)) = pending.filter(|(at, _)| *at <= login) {
                pending = timer_of(&eng.on_event(at, EngineEvent::Timer(tok)));
            }
            eng.on_event(login, EngineEvent::ActivityStart);
            let actions = eng.on_event(logout, EngineEvent::ActivityEnd);
            (eng, actions)
        };
        // The reference engine takes only the logout, so it shows what
        // those inputs yield.
        let (reference, _) = first_idle();
        let (mut eng, actions) = first_idle();
        assert_eq!(eng.state(), DbState::LogicallyPaused);
        assert!(
            eng.current_prediction().is_some(),
            "a pattern to re-predict"
        );
        let before = eng.counters().predictions;
        let (wake, tok) = timer_of(&actions).expect("a deferred pause schedules a wake");
        let again = eng.on_event(logout, EngineEvent::Timer(tok));
        assert_eq!(eng.current_prediction(), reference.current_prediction());
        let c = eng.counters();
        assert_eq!(c.predictions, before + 1, "the predictor ran again");
        assert_eq!(c.prediction_cache_hits, 0);
        // Same forecast, same decision: still logically paused, waking
        // when the first wake would have.
        assert_eq!(eng.state(), DbState::LogicallyPaused);
        assert_eq!(again.len(), actions.len());
        assert_eq!(timer_of(&again).map(|(at, _)| at), Some(wake));
    }

    #[test]
    fn restore_reindexes_the_carried_history() {
        use prorp_forecast::IncrementalPredictor;
        let mk = || ProactiveEngine::new(config(), IncrementalPredictor::new(config()).unwrap());
        let mut eng = mk().unwrap();
        run_daily_sessions(&mut eng, 6);
        let snapshot = eng.history().clone();
        let mut moved = mk().unwrap();
        moved.on_event(t(100), EngineEvent::ActivityStart);
        moved.on_event(t(200), EngineEvent::ActivityEnd);
        moved.restore_history(snapshot);
        let ix = moved.history().clock_index().expect("index reconfigured");
        assert_eq!(ix.entries().len(), moved.history().logins().len());
        moved.history().check_invariants();
        // The next cycle predicts from the restored table.
        moved.on_event(t(6 * DAY + 9 * HOUR), EngineEvent::ActivityStart);
        moved.on_event(t(6 * DAY + 10 * HOUR), EngineEvent::ActivityEnd);
        assert!(moved.current_prediction().is_some());
    }

    /// 680 bytes when the engine carried a prediction cache, 576 while
    /// its history view kept parallel key and value columns, 552 while
    /// the engine and its predictor each held a copy of the run's policy
    /// knobs and the breaker its own, and the explain buffer was an
    /// unboxed `Vec`, and 392 while the engine kept its own session flag
    /// beside an activity tracker that buffered any number of events.
    /// Now the engine and predictor hold one pointer each to the shard's
    /// [`Knobs`], and the tracker's held login is the one record of an
    /// open session: a per-engine field coming back, or one leaving,
    /// fails here by name, not as an RSS drift.
    #[test]
    fn an_engine_is_336_bytes() {
        use prorp_forecast::IncrementalPredictor;
        assert_eq!(
            std::mem::size_of::<ProactiveEngine<IncrementalPredictor>>(),
            336
        );
    }

    /// An engine shares its predictor's knobs when they are its own, and
    /// keeps a copy of its own when they are not: a predictor built with
    /// the default breaker must not lend an engine that breaker.
    #[test]
    fn an_engine_shares_its_predictors_knobs_only_when_they_agree() {
        use prorp_forecast::IncrementalPredictor;
        let predictor = IncrementalPredictor::new(config()).unwrap();
        let shared = predictor.knobs().unwrap().clone();
        let eng = ProactiveEngine::new(config(), predictor.clone()).unwrap();
        assert!(Arc::ptr_eq(eng.knobs(), &shared));
        let strict = BreakerConfig {
            failure_threshold: 1,
            ..BreakerConfig::default()
        };
        let own = ProactiveEngine::with_breaker(config(), predictor.clone(), strict).unwrap();
        assert!(!Arc::ptr_eq(own.knobs(), &shared));
        assert_eq!(*own.knobs().breaker(), strict);
        let other = PolicyConfig {
            confidence: 0.9,
            ..config()
        };
        let own = ProactiveEngine::new(other, predictor).unwrap();
        assert_eq!(own.knobs().config().confidence, 0.9);
        // A predictor with no knobs of its own: the engine's are private.
        let never = ProactiveEngine::new(config(), NeverPredictor).unwrap();
        assert_eq!(Arc::strong_count(never.knobs()), 1);
    }

    #[test]
    fn counters_track_prediction_latency() {
        let mut eng = engine();
        run_daily_sessions(&mut eng, 3);
        let c = eng.counters();
        assert!(c.predictions > 0);
        assert!(c.prediction_ns_max >= 1);
        assert!(c.prediction_ns_mean() > 0.0);
    }

    #[test]
    fn explain_capture_records_decision_inputs() {
        let mut eng = engine();
        // Off by default: decisions leave no provenance behind.
        run_daily_sessions(&mut eng, 2);
        assert_eq!(eng.drain_explains().count(), 0);

        eng.set_explain_enabled(true);
        run_daily_sessions_from(&mut eng, 2, 6);
        let pred = eng.current_prediction().expect("old db predicts");
        assert_eq!(eng.state(), DbState::PhysicallyPaused);
        let explains: Vec<_> = eng.drain_explains().collect();
        assert!(!explains.is_empty());
        // Chronological, and every record carries the history length the
        // engine saw at that instant.
        for pair in explains.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
        }
        let (at, last) = *explains.last().unwrap();
        assert_eq!(last.action, DecisionAction::PhysicalPause);
        assert_eq!(at, t(5 * DAY + 10 * HOUR), "decided at the last logout");
        assert_eq!(last.predicted, Some(pred.start));
        assert!(last.history_len > 0);
        assert!(!last.breaker_open);
        // Confidence basis reconstructs the predictor's integer numerator:
        // hits/total ≈ the published probability.
        assert!(last.confidence_total > 0);
        assert!(last.confidence_hits <= last.confidence_total);
        let ratio = f64::from(last.confidence_hits) / f64::from(last.confidence_total);
        assert!((ratio - pred.confidence).abs() < 1e-9);
        // A proactive resume is a decision too.
        eng.on_event(pred.start, EngineEvent::ProactiveResume);
        let resumed: Vec<_> = eng.drain_explains().collect();
        assert_eq!(resumed.len(), 1);
        // Draining happens in place: the spill buffer keeps what it grew
        // to.
        let log = |e: &ProactiveEngine<_>| e.explains.as_deref().map(ExplainLog::shape);
        let (len, capacity) = log(&eng).expect("capture is on");
        assert!(len == 0 && capacity + 1 >= explains.len());
        // Dropping the iterator unread drains too.
        eng.on_event(pred.start, EngineEvent::ActivityStart);
        eng.on_event(pred.start + Seconds::hours(1), EngineEvent::ActivityEnd);
        assert!(log(&eng).is_some_and(|(len, _)| len > 0));
        drop(eng.drain_explains());
        assert!(log(&eng).is_some_and(|(len, _)| len == 0));
        assert_eq!(resumed[0].1.action, DecisionAction::ProactiveResume);
        // Disabling drops any pending records, and the buffer with them.
        eng.on_event(t(6 * DAY + 9 * HOUR), EngineEvent::ActivityStart);
        eng.on_event(t(6 * DAY + 10 * HOUR), EngineEvent::ActivityEnd);
        eng.set_explain_enabled(false);
        assert!(eng.explains.is_none());
        assert_eq!(eng.drain_explains().count(), 0);
    }

    #[test]
    fn history_restore_supports_moves() {
        let mut eng = engine();
        run_daily_sessions(&mut eng, 6);
        let snapshot = eng.history().clone();
        let pred_before = eng.current_prediction();
        let mut moved = engine();
        moved.restore_history(snapshot);
        // The moved engine predicts from the carried history: simulate an
        // activity cycle and compare the published prediction.
        moved.on_event(t(6 * DAY + 9 * HOUR), EngineEvent::ActivityStart);
        let actions = moved.on_event(t(6 * DAY + 10 * HOUR), EngineEvent::ActivityEnd);
        assert!(
            !actions.is_empty(),
            "moved database keeps making proactive decisions"
        );
        assert!(pred_before.is_some());
        assert!(moved.is_old(), "restored history preserves lifespan");
    }
}
