//! The predictor circuit breaker (§3.2 "default to reactive").
//!
//! The paper makes the reactive policy the safe fallback whenever the
//! forecast component is unavailable.  The original engine applied that
//! per *call*: every re-prediction still invoked the predictor and only
//! degraded on its error.  The breaker generalises the fallback to a
//! per-*database* mode: after a run of consecutive failures the engine
//! stops calling the predictor entirely — behaving exactly like the
//! reactive baseline — and re-probes with a single prediction once a
//! cool-down elapses.  A successful probe closes the breaker; a failed
//! one re-opens it for another cool-down.
//!
//! The breaker is driven purely by event timestamps (no wall clocks), so
//! simulations stay deterministic.
//!
//! It holds one database's state only: its knobs are the run's
//! ([`Knobs::breaker`](prorp_forecast::Knobs::breaker)), passed to each
//! call that reads them.

use prorp_types::{BreakerConfig, Timestamp};

/// Per-database circuit breaker over the prediction path; it starts
/// closed.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CircuitBreaker {
    consecutive_failures: u32,
    /// `Some(t)` while open: predictions are suppressed before `t`, and
    /// the first attempt at or after `t` is the half-open probe.
    open_until: Option<Timestamp>,
    opens: u64,
}

impl CircuitBreaker {
    /// Whether a prediction may be attempted at `now`.  While open this
    /// is `false` until the cool-down elapses; at or after the cool-down
    /// it lets the half-open probe through.
    pub fn allows(&self, now: Timestamp) -> bool {
        match self.open_until {
            None => true,
            Some(until) => now >= until,
        }
    }

    /// Whether the breaker is open (suppressing predictions) at `now`.
    pub fn is_open(&self, now: Timestamp) -> bool {
        !self.allows(now)
    }

    /// How many times the breaker opened (re-opens after a failed probe
    /// included).
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Record a successful prediction: closes the breaker and resets the
    /// failure run.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.open_until = None;
    }

    /// Record a failed prediction at `now` under the run's `config`
    /// (`failure_threshold == 0` disables the breaker).  Returns `true`
    /// when this failure (re-)opened the breaker.
    pub fn record_failure(&mut self, config: &BreakerConfig, now: Timestamp) -> bool {
        if config.failure_threshold == 0 {
            return false; // disabled: never open
        }
        if self.open_until.is_some() {
            // The half-open probe failed: re-open for a fresh cool-down.
            self.open_until = Some(now + config.cooldown);
            self.opens += 1;
            return true;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= config.failure_threshold {
            self.open_until = Some(now + config.cooldown);
            self.opens += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_types::Seconds;

    fn knobs(threshold: u32, cooldown: i64) -> BreakerConfig {
        BreakerConfig {
            failure_threshold: threshold,
            cooldown: Seconds(cooldown),
        }
    }

    #[test]
    fn opens_after_consecutive_failures_only() {
        let (c, mut b) = (knobs(3, 100), CircuitBreaker::default());
        let t = Timestamp(0);
        assert!(!b.record_failure(&c, t));
        assert!(!b.record_failure(&c, t));
        b.record_success(); // breaks the run
        assert!(!b.record_failure(&c, t));
        assert!(!b.record_failure(&c, t));
        assert!(b.record_failure(&c, t), "third consecutive failure opens");
        assert!(b.is_open(Timestamp(50)));
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn cooldown_lets_a_probe_through_and_success_closes() {
        let (c, mut b) = (knobs(1, 100), CircuitBreaker::default());
        assert!(b.record_failure(&c, Timestamp(10)));
        assert!(!b.allows(Timestamp(109)));
        assert!(b.allows(Timestamp(110)), "probe allowed after cool-down");
        b.record_success();
        assert!(b.allows(Timestamp(111)));
        assert!(!b.is_open(Timestamp(111)));
    }

    #[test]
    fn failed_probe_reopens_for_a_fresh_cooldown() {
        let (c, mut b) = (knobs(1, 100), CircuitBreaker::default());
        b.record_failure(&c, Timestamp(0));
        assert!(b.allows(Timestamp(100)));
        assert!(
            b.record_failure(&c, Timestamp(100)),
            "failed probe re-opens"
        );
        assert!(!b.allows(Timestamp(199)));
        assert!(b.allows(Timestamp(200)));
        assert_eq!(b.opens(), 2);
    }

    #[test]
    fn disabled_breaker_never_opens() {
        let mut b = CircuitBreaker::default();
        for i in 0..100 {
            assert!(!b.record_failure(&BreakerConfig::disabled(), Timestamp(i)));
        }
        assert!(b.allows(Timestamp(0)));
        assert_eq!(b.opens(), 0);
    }
}
