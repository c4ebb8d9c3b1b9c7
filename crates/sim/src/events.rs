//! The simulator's event queue.
//!
//! Events are totally ordered by `(timestamp, priority, sequence)`.
//! Priority settles same-second ties the way the real control plane
//! would: finished workflows and pre-warms take effect before the login
//! that benefits from them, and logins precede logouts.
//!
//! # Two lanes, one order
//!
//! A trace-driven replay knows every recorded login and logout before
//! the first event runs; only the loop's own reactions (timers, staged
//! workflows, the Algorithm 5 tick, snapshots, maintenance) and what an
//! external driver injects are discovered on the way.  The queue keeps
//! the two apart:
//!
//! * the **recorded run** — [`record_start`](EventQueue::record_start) /
//!   [`record_end`](EventQueue::record_end) append a 24-byte entry to a
//!   flat vector, which is sorted once by the full key and then consumed
//!   front to back by a cursor;
//! * the **run-time lane** — [`push`](EventQueue::push) goes to a
//!   `BinaryHeap`, which therefore holds only what the loop scheduled
//!   for itself: O(databases) entries, not O(sessions).
//!
//! Both lanes draw `sequence` from the same counter at the moment of the
//! call, and [`pop`](EventQueue::pop) returns the smaller of the two
//! heads under the same `(timestamp, priority, sequence)` key, so the
//! pop order is exactly what one heap over all the events would give:
//! which lane an event sits in is invisible to the loop.
//! [`pop_before`](EventQueue::pop_before) is `pop` with a horizon — the
//! event loop's single call per event: the heads are compared once and
//! the winner leaves only if it is due before the horizon.
//!
//! The run is sorted lazily, by the first `pop`/`pop_before`/`peek_ts`
//! after an append — once per replay, since the DES registers every
//! trace before it starts.  Recording more after events were consumed
//! re-sorts the unconsumed tail only.

use prorp_core::TimerToken;
use prorp_types::{DatabaseId, Timestamp};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimEvent {
    /// A periodic observability metrics snapshot is due.  Runs before
    /// every other event at its instant, so a snapshot at `T` covers
    /// exactly the events strictly before `T` — a shard-layout-invariant
    /// cut of the run.
    ObsSnapshot,
    /// The measurement window opens (KPI accumulators re-base).
    MeasureStart,
    /// One stage of a staged resume workflow finished executing for this
    /// database (evaluate its deterministic fault draw: advance, retry,
    /// or give up).
    WorkflowStageDone(DatabaseId),
    /// A resume (allocation) workflow finished for this database.
    WorkflowComplete(DatabaseId),
    /// The control plane pre-warms this database (Algorithm 5 delivery).
    ProactiveResume(DatabaseId),
    /// The periodic proactive-resume scan fires.
    ResumeOpTick,
    /// The periodic diagnostics-and-mitigation runner fires (§7).
    DiagnosticsTick,
    /// The periodic load-balancing step fires.
    RebalanceTick,
    /// A maintenance job becomes due for this database (schedule it).
    MaintenanceDue(DatabaseId),
    /// A scheduled maintenance job starts for this database.
    MaintenanceRun(DatabaseId),
    /// A policy-engine timer fires.
    EngineTimer(DatabaseId, TimerToken),
    /// Customer activity starts (login).
    ActivityStart(DatabaseId),
    /// Customer activity ends.
    ActivityEnd(DatabaseId),
    /// An operator forced an immediate physical pause through the
    /// control-plane API.  Appended after the original variants so the
    /// established relative priorities are untouched; the DES itself
    /// never schedules it, only external drivers do.
    ForcedPause(DatabaseId),
}

impl SimEvent {
    /// Tie-break priority at equal timestamps (lower runs first).
    fn priority(&self) -> u8 {
        match self {
            SimEvent::ObsSnapshot => 0,
            SimEvent::MeasureStart => 1,
            SimEvent::WorkflowStageDone(_) => 2,
            SimEvent::WorkflowComplete(_) => 3,
            SimEvent::ProactiveResume(_) => 4,
            SimEvent::ResumeOpTick => 5,
            SimEvent::DiagnosticsTick => 6,
            SimEvent::RebalanceTick => 7,
            SimEvent::MaintenanceDue(_) => 8,
            SimEvent::MaintenanceRun(_) => 9,
            SimEvent::EngineTimer(..) => 10,
            SimEvent::ActivityStart(_) => 11,
            SimEvent::ActivityEnd(_) => 12,
            SimEvent::ForcedPause(_) => 13,
        }
    }

    /// Tie-break priority at equal timestamps (lower runs first) — the
    /// public form external drivers use to reproduce the queue's total
    /// order when committing buffered events.
    pub fn tie_priority(&self) -> u8 {
        self.priority()
    }
}

/// The total order: `(timestamp, priority, sequence)`, earliest first.
type Key = (Timestamp, u8, u64);

/// A run-time-lane entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Scheduled {
    ts: Timestamp,
    priority: u8,
    seq: u64,
    event: SimEvent,
}

impl Scheduled {
    fn key(&self) -> Key {
        (self.ts, self.priority, self.seq)
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for earliest-first.
        other.key().cmp(&self.key())
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A recorded-run entry: one login or logout of a recorded session, in
/// half the bytes of a [`Scheduled`].
///
/// `order` is the sequence number with [`Recorded::END`] set for a
/// logout.  Only logins and logouts meet within the run, and a login's
/// priority is below a logout's, so there `(ts, order)` sorts exactly
/// like `(ts, priority, seq)`.
#[derive(Clone, Copy, Debug)]
struct Recorded {
    ts: Timestamp,
    order: u64,
    db: DatabaseId,
}

impl Recorded {
    /// The logout flag: the top bit of `order`, which a sequence number
    /// (one per event ever queued) never reaches.
    const END: u64 = 1 << 63;

    fn is_end(&self) -> bool {
        self.order & Self::END != 0
    }

    fn event(&self) -> SimEvent {
        if self.is_end() {
            SimEvent::ActivityEnd(self.db)
        } else {
            SimEvent::ActivityStart(self.db)
        }
    }

    fn key(&self) -> Key {
        (self.ts, self.event().priority(), self.order & !Self::END)
    }
}

/// Earliest-first event queue with stable FIFO tie-breaking (see the
/// module docs for the two lanes behind it).
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    /// Run-time lane.
    heap: BinaryHeap<Scheduled>,
    /// Recorded run; `run[cursor..]` is still queued.
    run: Vec<Recorded>,
    cursor: usize,
    /// `run[cursor..]` gained entries since it was last sorted.
    unsorted: bool,
    seq: u64,
    heap_peak: usize,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `event` at `ts` in the run-time lane.
    pub fn push(&mut self, ts: Timestamp, event: SimEvent) {
        self.seq += 1;
        self.heap.push(Scheduled {
            ts,
            priority: event.priority(),
            seq: self.seq,
            event,
        });
        self.heap_peak = self.heap_peak.max(self.heap.len());
    }

    /// Append a recorded session's login of `db` at `ts` to the recorded
    /// run.  Pops exactly where `push(ts, ActivityStart(db))` would.
    pub fn record_start(&mut self, ts: Timestamp, db: DatabaseId) {
        self.record(ts, db, 0);
    }

    /// Append a recorded session's logout of `db` at `ts` to the
    /// recorded run.  Pops exactly where `push(ts, ActivityEnd(db))`
    /// would.
    pub fn record_end(&mut self, ts: Timestamp, db: DatabaseId) {
        self.record(ts, db, Recorded::END);
    }

    fn record(&mut self, ts: Timestamp, db: DatabaseId, end: u64) {
        self.seq += 1;
        debug_assert!(self.seq < Recorded::END);
        self.run.push(Recorded {
            ts,
            order: self.seq | end,
            db,
        });
        self.unsorted = true;
    }

    /// Sort what the recorded run gained since the last call.
    fn seal(&mut self) {
        if self.unsorted {
            self.run[self.cursor..].sort_unstable_by_key(|r| (r.ts, r.order));
            self.unsorted = false;
        }
    }

    /// Seal the run, then say whether the earliest queued event sits in
    /// the recorded run (`true`) or the run-time lane, and when it is
    /// due — the one place the two lanes' heads are compared.
    fn head(&mut self) -> Option<(bool, Timestamp)> {
        self.seal();
        match (self.run.get(self.cursor), self.heap.peek()) {
            (Some(r), Some(s)) if r.key() < s.key() => Some((true, r.ts)),
            (_, Some(s)) => Some((false, s.ts)),
            (Some(r), None) => Some((true, r.ts)),
            (None, None) => None,
        }
    }

    /// Remove and return the head of the lane `head` chose.  Once per
    /// loop event, so forced inline into `pop_before`'s caller: left to
    /// the optimiser, the call stays out of line in the shard loop.
    #[inline(always)]
    fn take(&mut self, recorded: bool) -> Option<(Timestamp, SimEvent)> {
        if recorded {
            let r = self.run[self.cursor];
            self.cursor += 1;
            Some((r.ts, r.event()))
        } else {
            self.heap.pop().map(|s| (s.ts, s.event))
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Timestamp, SimEvent)> {
        let (recorded, _) = self.head()?;
        self.take(recorded)
    }

    /// Pop the earliest event if it is due strictly before `stop`; an
    /// event at or past `stop` stays queued.  What `peek_ts` followed by
    /// `pop` does, with the lanes' heads compared once — the event
    /// loop's one queue call per event.
    pub fn pop_before(&mut self, stop: Timestamp) -> Option<(Timestamp, SimEvent)> {
        let (recorded, ts) = self.head()?;
        if ts >= stop {
            return None;
        }
        self.take(recorded)
    }

    /// Timestamp of the earliest queued event without removing it —
    /// what lets a driver stop *before* a horizon instead of after
    /// popping past it.
    pub fn peek_ts(&mut self) -> Option<Timestamp> {
        self.head().map(|(_, ts)| ts)
    }

    /// Events still queued, both lanes.
    pub fn len(&self) -> usize {
        self.heap.len() + self.recorded_len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in the run-time lane now.
    pub fn scheduled_len(&self) -> usize {
        self.heap.len()
    }

    /// The most entries the run-time lane ever held.
    pub fn scheduled_peak(&self) -> usize {
        self.heap_peak
    }

    /// Recorded events not yet consumed.
    pub fn recorded_len(&self) -> usize {
        self.run.len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn db(id: u64) -> DatabaseId {
        DatabaseId(id)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp(30), SimEvent::ActivityStart(db(1)));
        q.push(Timestamp(10), SimEvent::ActivityStart(db(2)));
        q.push(Timestamp(20), SimEvent::ActivityEnd(db(3)));
        let order: Vec<i64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn same_second_ties_resolve_by_priority() {
        let mut q = EventQueue::new();
        let t = Timestamp(100);
        q.push(t, SimEvent::ActivityEnd(db(1)));
        q.push(t, SimEvent::ActivityStart(db(1)));
        q.push(t, SimEvent::ProactiveResume(db(1)));
        q.push(t, SimEvent::WorkflowComplete(db(1)));
        q.push(t, SimEvent::WorkflowStageDone(db(1)));
        q.push(t, SimEvent::ResumeOpTick);
        q.push(t, SimEvent::ObsSnapshot);
        let order: Vec<SimEvent> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                SimEvent::ObsSnapshot,
                SimEvent::WorkflowStageDone(db(1)),
                SimEvent::WorkflowComplete(db(1)),
                SimEvent::ProactiveResume(db(1)),
                SimEvent::ResumeOpTick,
                SimEvent::ActivityStart(db(1)),
                SimEvent::ActivityEnd(db(1)),
            ]
        );
    }

    #[test]
    fn equal_everything_is_fifo() {
        let mut q = EventQueue::new();
        let t = Timestamp(5);
        q.push(t, SimEvent::ActivityStart(db(1)));
        q.push(t, SimEvent::ActivityStart(db(2)));
        q.push(t, SimEvent::ActivityStart(db(3)));
        let order: Vec<SimEvent> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                SimEvent::ActivityStart(db(1)),
                SimEvent::ActivityStart(db(2)),
                SimEvent::ActivityStart(db(3)),
            ]
        );
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Timestamp(1), SimEvent::ResumeOpTick);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn a_recorded_entry_is_half_a_scheduled_one() {
        assert!(std::mem::size_of::<Recorded>() <= 24);
        assert!(2 * std::mem::size_of::<Recorded>() <= std::mem::size_of::<Scheduled>());
    }

    #[test]
    fn equal_key_recorded_events_pop_in_registration_order() {
        let mut q = EventQueue::new();
        let t = Timestamp(5);
        // Logouts recorded first: priority still puts the logins ahead,
        // and within each kind the recording order holds.
        q.record_end(t, db(9));
        q.record_end(t, db(8));
        q.record_start(t, db(3));
        q.record_start(t, db(1));
        q.record_start(t, db(2));
        let order: Vec<SimEvent> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                SimEvent::ActivityStart(db(3)),
                SimEvent::ActivityStart(db(1)),
                SimEvent::ActivityStart(db(2)),
                SimEvent::ActivityEnd(db(9)),
                SimEvent::ActivityEnd(db(8)),
            ]
        );
    }

    #[test]
    fn an_injected_event_pops_after_the_recorded_one_it_ties_with() {
        let mut q = EventQueue::new();
        let t = Timestamp(5);
        q.record_start(t, db(1));
        q.push(t, SimEvent::ActivityStart(db(2)));
        // Recorded after the injection: FIFO puts it last.
        q.record_start(t, db(3));
        assert_eq!(q.len(), 3);
        assert_eq!((q.scheduled_len(), q.recorded_len()), (1, 2));
        let order: Vec<SimEvent> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                SimEvent::ActivityStart(db(1)),
                SimEvent::ActivityStart(db(2)),
                SimEvent::ActivityStart(db(3)),
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.scheduled_peak(), 1);
    }

    #[test]
    fn recording_after_pops_began_resorts_the_tail() {
        let mut q = EventQueue::new();
        q.record_start(Timestamp(10), db(1));
        q.record_end(Timestamp(30), db(1));
        assert_eq!(
            q.pop(),
            Some((Timestamp(10), SimEvent::ActivityStart(db(1))))
        );
        // Earlier than everything still queued, and than what was popped.
        q.record_end(Timestamp(20), db(2));
        q.record_start(Timestamp(5), db(2));
        assert_eq!(q.peek_ts(), Some(Timestamp(5)));
        let order: Vec<i64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(order, vec![5, 20, 30]);
    }

    #[test]
    fn pop_before_stops_at_a_horizon_between_the_lanes_heads() {
        let mut q = EventQueue::new();
        q.record_start(Timestamp(10), db(1));
        q.push(Timestamp(20), SimEvent::ResumeOpTick);
        q.record_end(Timestamp(30), db(1));
        assert_eq!(q.pop_before(Timestamp(10)), None, "strictly before");
        assert_eq!(
            q.pop_before(Timestamp(15)),
            Some((Timestamp(10), SimEvent::ActivityStart(db(1))))
        );
        // Heads are now 30 (recorded) and 20 (run-time): a horizon
        // between them lets the run-time one out and nothing more.
        assert_eq!(
            q.pop_before(Timestamp(25)),
            Some((Timestamp(20), SimEvent::ResumeOpTick))
        );
        assert_eq!(q.pop_before(Timestamp(25)), None);
        assert_eq!(q.len(), 1, "the event past the horizon stays queued");
        // Recording after pops began re-sorts the tail first.
        q.record_start(Timestamp(22), db(2));
        assert_eq!(
            q.pop_before(Timestamp(25)),
            Some((Timestamp(22), SimEvent::ActivityStart(db(2))))
        );
        assert_eq!(q.peek_ts(), Some(Timestamp(30)));
    }

    /// The queue as it was before the lanes: one heap over every event.
    /// Kept here as the oracle the two-lane queue must be
    /// indistinguishable from.
    #[derive(Default)]
    struct OneHeap {
        heap: BinaryHeap<Scheduled>,
        seq: u64,
    }

    impl OneHeap {
        fn push(&mut self, ts: Timestamp, event: SimEvent) {
            self.seq += 1;
            self.heap.push(Scheduled {
                ts,
                priority: event.priority(),
                seq: self.seq,
                event,
            });
        }

        fn pop(&mut self) -> Option<(Timestamp, SimEvent)> {
            self.heap.pop().map(|s| (s.ts, s.event))
        }

        fn peek_ts(&self) -> Option<Timestamp> {
            self.heap.peek().map(|s| s.ts)
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// A recorded login (`false`) or logout (`true`).
        Record(Timestamp, DatabaseId, bool),
        Push(Timestamp, SimEvent),
        Pop,
        /// `pop_before` with this horizon.
        PopBefore(Timestamp),
        Peek,
    }

    /// Few timestamps and few databases, so `(ts, priority)` ties — and
    /// ties between the lanes on the very same event — are the rule.
    fn op() -> impl Strategy<Value = Op> {
        let ts = || (0i64..6).prop_map(Timestamp);
        let id = || (0u64..3).prop_map(DatabaseId);
        let pushed = (0u8..6, id()).prop_map(|(kind, db)| match kind {
            0 => SimEvent::ActivityStart(db),
            1 => SimEvent::ActivityEnd(db),
            2 => SimEvent::EngineTimer(db, TimerToken(db.raw())),
            3 => SimEvent::WorkflowStageDone(db),
            4 => SimEvent::ForcedPause(db),
            _ => SimEvent::ResumeOpTick,
        });
        prop_oneof![
            4 => (ts(), id(), any::<bool>()).prop_map(|(t, db, end)| Op::Record(t, db, end)),
            4 => (ts(), pushed).prop_map(|(t, e)| Op::Push(t, e)),
            3 => Just(Op::Pop),
            // Horizons over the same few timestamps (and one past them
            // all): at, between and beyond the two lanes' heads.
            4 => (0i64..8).prop_map(|t| Op::PopBefore(Timestamp(t))),
            1 => Just(Op::Peek),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any interleaving of recorded appends, run-time pushes, pops,
        /// horizon-bounded pops and peeks — recording after pops began,
        /// either lane running dry first, a horizon between the two
        /// lanes' heads — reads the same through both queues;
        /// `pop_before` is the oracle's `peek_ts` then `pop`.
        #[test]
        fn two_lanes_are_one_heap(ops in prop::collection::vec(op(), 0..120)) {
            let mut lanes = EventQueue::new();
            let mut heap = OneHeap::default();
            for op in ops {
                match op {
                    Op::Record(ts, db, false) => {
                        lanes.record_start(ts, db);
                        heap.push(ts, SimEvent::ActivityStart(db));
                    }
                    Op::Record(ts, db, true) => {
                        lanes.record_end(ts, db);
                        heap.push(ts, SimEvent::ActivityEnd(db));
                    }
                    Op::Push(ts, event) => {
                        lanes.push(ts, event);
                        heap.push(ts, event);
                    }
                    Op::Pop => prop_assert_eq!(lanes.pop(), heap.pop()),
                    Op::PopBefore(stop) => {
                        let expected = match heap.peek_ts() {
                            Some(ts) if ts < stop => heap.pop(),
                            _ => None,
                        };
                        prop_assert_eq!(lanes.pop_before(stop), expected);
                    }
                    Op::Peek => prop_assert_eq!(lanes.peek_ts(), heap.peek_ts()),
                }
                prop_assert_eq!(lanes.len(), heap.heap.len());
                prop_assert_eq!(lanes.is_empty(), heap.heap.is_empty());
            }
            while let Some(expected) = heap.pop() {
                prop_assert_eq!(lanes.peek_ts(), Some(expected.0));
                prop_assert_eq!(lanes.pop(), Some(expected));
                prop_assert_eq!(lanes.len(), heap.heap.len());
            }
            prop_assert_eq!(lanes.pop(), None);
            prop_assert_eq!(lanes.peek_ts(), None);
        }
    }
}
