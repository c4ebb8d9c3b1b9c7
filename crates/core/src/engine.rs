//! Shared engine vocabulary: events in, actions out.
//!
//! The paper presents Algorithm 1 as blocking functions with `Sleep()`
//! loops; a production control plane (and our discrete-event simulator)
//! instead delivers *events* to each database and interprets the
//! *actions* it returns.  The translation is mechanical: each `while …
//! Sleep()` becomes a scheduled [`EngineAction::ScheduleTimer`] +
//! [`EngineEvent::Timer`] pair, and each `AllocateResources()` /
//! `ReclaimResources()` call becomes an emitted action the resource
//! manager executes (with real-world latency).
//!
//! A reply is a value, not an allocation: [`DatabasePolicy::on_event`]
//! returns [`Actions`], a `Copy` array of at most
//! [`Actions::CAPACITY`] entries that reads like a slice and iterates by
//! value.  The event loop delivers hundreds of thousands of events a
//! second and most replies hold zero to two actions, so a `Vec` per
//! event was a `malloc`/`free` pair that bought nothing.

use crate::tracker::ActivityTracker;
use prorp_obs::span::DecisionExplain;
use prorp_storage::HistoryTable;
use prorp_types::{DbState, Timestamp};

/// One decision-provenance record: when, and what the engine saw.
type Explain = (Timestamp, DecisionExplain);

/// An engine's decision-provenance records not yet drained, in decision
/// order.  A shard drains after every event and an event makes at most
/// one decision, so the oldest record has a slot of its own beside the
/// log's header, in the same allocation; only records that wait longer
/// (an engine no shard drains) go to `rest`, which keeps its capacity
/// from one drain to the next.
#[derive(Debug, Default)]
pub(crate) struct ExplainLog {
    first: Option<Explain>,
    rest: Vec<Explain>,
}

impl ExplainLog {
    /// Append one record.
    pub(crate) fn push(&mut self, record: Explain) {
        if self.first.is_none() {
            self.first = Some(record);
        } else {
            self.rest.push(record);
        }
    }

    /// Drain every record, oldest first.
    pub(crate) fn drain(&mut self) -> ExplainDrain<'_> {
        ExplainDrain {
            first: self.first.take(),
            rest: Some(self.rest.drain(..)),
        }
    }
}

#[cfg(test)]
impl ExplainLog {
    /// Records waiting, and the spill buffer's capacity.
    pub(crate) fn shape(&self) -> (usize, usize) {
        let waiting = usize::from(self.first.is_some()) + self.rest.len();
        (waiting, self.rest.capacity())
    }
}

/// What [`DatabasePolicy::drain_explains`] yields: the pending records,
/// removed from the engine's log in place — as the iterator is consumed
/// or when it is dropped, read or not.  The iterator of a policy
/// without provenance is empty and owns nothing.
#[derive(Debug, Default)]
pub struct ExplainDrain<'a> {
    first: Option<Explain>,
    rest: Option<std::vec::Drain<'a, Explain>>,
}

impl Iterator for ExplainDrain<'_> {
    type Item = Explain;

    fn next(&mut self) -> Option<Self::Item> {
        self.first.take().or_else(|| self.rest.as_mut()?.next())
    }
}

/// Token matching a scheduled timer to its delivery; a stale token (from a
/// timer scheduled before a state change) must be ignored by the engine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerToken(pub u64);

/// Events delivered to a per-database engine, in timestamp order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineEvent {
    /// The customer logged in / the workload started.
    ActivityStart,
    /// The workload completed; the database is now idle.
    ActivityEnd,
    /// A previously scheduled timer fired.
    Timer(TimerToken),
    /// The control plane's proactive resume operation (Algorithm 5)
    /// selected this database for pre-warming.
    ProactiveResume,
    /// An operator forced an immediate physical pause through the
    /// control-plane API (`POST /v1/databases/:id/pause`).
    ///
    /// Engines refuse the request while the database is actively
    /// serving a session (pausing under live load would drop the
    /// customer); otherwise an idle or logically paused database is
    /// reclaimed immediately and its published prediction cleared so
    /// Algorithm 5 does not undo the operator's decision.
    ForcedPause,
}

/// Actions an engine asks the surrounding system to perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineAction {
    /// Run the resource-allocation workflow (resume compute).
    Allocate,
    /// Run the resource-reclamation workflow (physical pause).
    Reclaim,
    /// Publish `start_of_pred_activity` to the metadata store
    /// (Algorithm 1 line 31); `None` clears it.
    SetPredictedStart(Option<Timestamp>),
    /// Deliver [`EngineEvent::Timer`] with this token at the given time.
    ScheduleTimer(Timestamp, TimerToken),
}

/// An engine's reply to one event: up to [`Actions::CAPACITY`] actions in
/// the order the engine asked for them, held inline.
///
/// The capacity is the longest reply any arm of any engine can build (2
/// today: publish a prediction, then reclaim) with room to spare; a
/// reply that outgrows it is a bug in the engine and
/// [`push`](Actions::push) panics by name.  Derefs to
/// `[EngineAction]`, so `len`, `is_empty`, `iter`, `contains` and
/// indexing read as they did on the `Vec` this replaced.
#[derive(Clone, Copy, Debug)]
pub struct Actions {
    len: u8,
    items: [EngineAction; Actions::CAPACITY],
}

impl Actions {
    /// The most actions one reply can hold.
    pub const CAPACITY: usize = 4;

    /// An empty reply.
    pub const fn new() -> Self {
        Actions {
            len: 0,
            // Slots past `len` are never read; any value fills them.
            items: [EngineAction::Allocate; Actions::CAPACITY],
        }
    }

    /// Append `action`.
    ///
    /// # Panics
    ///
    /// Panics when the reply already holds [`Actions::CAPACITY`]
    /// actions — no engine arm builds one that long.
    pub fn push(&mut self, action: EngineAction) {
        let at = self.len as usize;
        assert!(
            at < Actions::CAPACITY,
            "Actions overflow: an engine reply outgrew Actions::CAPACITY ({})",
            Actions::CAPACITY
        );
        self.items[at] = action;
        self.len += 1;
    }

    /// The actions as a slice, in emission order.
    pub fn as_slice(&self) -> &[EngineAction] {
        &self.items[..self.len as usize]
    }
}

impl Default for Actions {
    fn default() -> Self {
        Actions::new()
    }
}

impl std::ops::Deref for Actions {
    type Target = [EngineAction];

    fn deref(&self) -> &[EngineAction] {
        self.as_slice()
    }
}

impl PartialEq for Actions {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Actions {}

impl IntoIterator for Actions {
    type Item = EngineAction;
    type IntoIter = std::iter::Take<std::array::IntoIter<EngineAction, { Actions::CAPACITY }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len as usize)
    }
}

/// Monotonic counters every engine maintains; the telemetry crate folds
/// them into the §8 KPI metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct EngineCounters {
    /// Logins that arrived while resources were available (resumed or
    /// logically paused) — the QoS numerator.
    pub logins_available: u64,
    /// Logins that arrived while physically paused and had to wait for a
    /// reactive resume — the QoS complement.
    pub logins_unavailable: u64,
    /// Logical pauses entered from the resumed state.
    pub logical_pauses: u64,
    /// Physical pauses (reclamation workflows started).
    pub physical_pauses: u64,
    /// Proactive resumes received from the control plane.
    pub proactive_resumes: u64,
    /// Predictor invocations.
    pub predictions: u64,
    /// Predictor failures absorbed by the reactive fallback (§3.2).
    pub forecast_failures: u64,
    /// Times the predictor circuit breaker opened (re-opens after a
    /// failed half-open probe included).
    pub breaker_opens: u64,
    /// Re-predictions short-circuited to the reactive fallback because
    /// the breaker was open (the predictor was not invoked).
    pub breaker_fallbacks: u64,
    /// Always 0: the engines keep no prediction cache.  The field stays
    /// because the performance ledger reads it by name.
    pub prediction_cache_hits: u64,
    /// Total wall-clock nanoseconds spent inside the predictor.
    pub prediction_ns_sum: u64,
    /// Worst single prediction latency in nanoseconds.
    pub prediction_ns_max: u64,
}

impl EngineCounters {
    /// Total first logins after an idle interval.
    pub fn total_logins(&self) -> u64 {
        self.logins_available + self.logins_unavailable
    }

    /// Fraction of logins served with resources already available — the
    /// paper's headline QoS metric (§8).
    pub fn qos(&self) -> f64 {
        let total = self.total_logins();
        if total == 0 {
            return 1.0;
        }
        self.logins_available as f64 / total as f64
    }
}

/// A per-database resource-allocation policy.
///
/// Implementations are deterministic state machines: given the same event
/// sequence they emit the same actions, which keeps simulator runs
/// reproducible and the policies directly comparable on identical traces.
pub trait DatabasePolicy {
    /// Handle one event at time `now`, returning the actions to execute.
    fn on_event(&mut self, now: Timestamp, event: EngineEvent) -> Actions;

    /// Current lifecycle state (Figure 4).
    fn state(&self) -> DbState;

    /// Counter snapshot.
    fn counters(&self) -> EngineCounters;

    /// The database's §5 activity tracker.  The optimal oracle policy
    /// keeps one too — activity tracking runs regardless of policy.
    fn tracker(&self) -> &ActivityTracker;

    /// Whether a customer session is open: a login was delivered and
    /// its logout not yet.  The tracker's held login is the one record
    /// of it.
    fn serving(&self) -> bool {
        self.tracker().serving()
    }

    /// The database's activity history (for overhead accounting and the
    /// backup/move path).  A fleet's
    /// [`StorageBackend`](prorp_storage::StorageBackend) says whether the
    /// table keeps its mutation log.
    fn history(&self) -> &HistoryTable {
        self.tracker().history()
    }

    /// Replace the history store (restore after a load-balancing move,
    /// §3.3).
    fn restore_history(&mut self, history: HistoryTable);

    /// The next-activity prediction this policy currently holds, if any —
    /// consumed by prediction-aware maintenance scheduling (§11 future
    /// work 4).  Policies without predictions return `None`.
    fn current_prediction(&self) -> Option<prorp_types::Prediction> {
        None
    }

    /// Enable or disable decision-provenance capture
    /// (`ObsConfig::explain`).  The default is off, and policies without
    /// provenance support (reactive, optimal) ignore the request — their
    /// decisions are input-free, so there is nothing to explain.
    fn set_explain_enabled(&mut self, _enabled: bool) {}

    /// Drain the [`DecisionExplain`] records captured since the last
    /// drain, in chronological order.  Empty unless capture was enabled
    /// through [`set_explain_enabled`](DatabasePolicy::set_explain_enabled).
    fn drain_explains(&mut self) -> ExplainDrain<'_> {
        ExplainDrain::default()
    }
}

/// Deliver every sequence of up to four events — each [`EngineEvent`]
/// arm, the timer arm with both the engine's live token and a stale one
/// — to a fresh engine from `make`, starting at `start`, and return the
/// longest reply seen.  [`Actions::push`] panics on a reply that does
/// not fit, so coming back at all is the capacity check; what this adds
/// is the proof that every arm was entered from every [`DbState`].
#[cfg(test)]
pub(crate) fn walk_every_arm<E: DatabasePolicy>(start: Timestamp, make: impl Fn() -> E) -> usize {
    use prorp_types::Seconds;
    const ARMS: usize = 6;
    const DEPTH: u32 = 4;
    let mut entered = [[false; ARMS]; 3];
    let mut longest = 0;
    for mut code in 0..ARMS.pow(DEPTH) {
        let mut engine = make();
        let mut now = start;
        let mut live: Option<(Timestamp, TimerToken)> = None;
        for _ in 0..DEPTH {
            let arm = code % ARMS;
            code /= ARMS;
            now += Seconds(600);
            let event = match arm {
                0 => EngineEvent::ActivityStart,
                1 => EngineEvent::ActivityEnd,
                2 => match live {
                    Some((due, token)) => {
                        now = now.max(due);
                        EngineEvent::Timer(token)
                    }
                    None => continue,
                },
                3 => EngineEvent::Timer(TimerToken(u64::MAX)),
                4 => EngineEvent::ProactiveResume,
                _ => EngineEvent::ForcedPause,
            };
            entered[engine.state() as usize][arm] = true;
            let reply = engine.on_event(now, event);
            longest = longest.max(reply.len());
            for action in reply {
                if let EngineAction::ScheduleTimer(due, token) = action {
                    live = Some((due, token));
                }
            }
        }
    }
    for state in [
        DbState::Resumed,
        DbState::LogicallyPaused,
        DbState::PhysicallyPaused,
    ] {
        for (arm, seen) in entered[state as usize].iter().enumerate() {
            // An engine that never schedules a timer has no live token.
            assert!(*seen || arm == 2, "arm {arm} never entered from {state:?}");
        }
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EngineCounters {
        /// Mean prediction latency in nanoseconds.
        pub(crate) fn prediction_ns_mean(&self) -> f64 {
            if self.predictions == 0 {
                return 0.0;
            }
            self.prediction_ns_sum as f64 / self.predictions as f64
        }
    }

    #[test]
    fn qos_is_the_available_login_fraction() {
        let c = EngineCounters {
            logins_available: 8,
            logins_unavailable: 2,
            ..Default::default()
        };
        assert_eq!(c.total_logins(), 10);
        assert!((c.qos() - 0.8).abs() < 1e-12);
        assert_eq!(EngineCounters::default().qos(), 1.0);
    }

    #[test]
    fn prediction_mean_handles_zero() {
        let mut c = EngineCounters::default();
        assert_eq!(c.prediction_ns_mean(), 0.0);
        c.predictions = 4;
        c.prediction_ns_sum = 400;
        assert_eq!(c.prediction_ns_mean(), 100.0);
    }

    #[test]
    fn actions_read_like_a_slice_and_iterate_by_value() {
        let mut reply = Actions::new();
        assert!(reply.is_empty());
        reply.push(EngineAction::SetPredictedStart(None));
        reply.push(EngineAction::Reclaim);
        assert_eq!(reply.len(), 2);
        assert_eq!(reply[1], EngineAction::Reclaim);
        assert!(reply.contains(&EngineAction::Reclaim));
        assert!(matches!(
            reply.as_slice(),
            [EngineAction::SetPredictedStart(None), EngineAction::Reclaim]
        ));
        let by_value: Vec<EngineAction> = reply.into_iter().collect();
        assert_eq!(by_value, reply.to_vec());
        // Equality reads the live prefix only.
        let mut other = Actions::new();
        other.push(EngineAction::SetPredictedStart(None));
        assert_ne!(reply, other);
        other.push(EngineAction::Reclaim);
        assert_eq!(reply, other);
        assert_eq!(Actions::default(), Actions::new());
    }

    #[test]
    #[should_panic(expected = "Actions overflow")]
    fn an_overlong_reply_panics_by_name() {
        let mut reply = Actions::new();
        for _ in 0..=Actions::CAPACITY {
            reply.push(EngineAction::Allocate);
        }
    }
}
