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
//!   flat vector, which is sealed once by a stable radix sort on
//!   `(timestamp, is_end)` and then consumed front to back by a cursor;
//! * the **run-time lane** — [`push`](EventQueue::push) goes to a
//!   calendar queue, which therefore holds only what the loop scheduled
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
//! # The run-time lane: a calendar
//!
//! The lane is a ring of 1 024 buckets of 64 s — an 18 h horizon — with
//! an occupancy bitmap.  A push lands unsorted in its bucket in O(1).
//! When the clock reaches a bucket, the bucket is sorted once by the full
//! key and drained from its end.  Whatever is pushed into or before the
//! current bucket (a reaction at `now`, a late injection), or past the
//! horizon (a day-long timer), goes to one small `BinaryHeap` instead,
//! and the lane's head is the smaller of the two.  Nothing here changes
//! the order, only what an event costs: a bit set and an append instead
//! of a heap walk.
//!
//! # Sealing the recorded run
//!
//! The run is sealed lazily, by the first `pop`/`pop_before`/`peek_ts`
//! after an append — once per replay, since the DES registers every
//! trace before it starts.  Within a run, entries of equal `(timestamp,
//! is_end)` sit in sequence order (appends only raise it), so a *stable*
//! sort on that narrow key yields the full key's order: an LSD radix
//! sort on `timestamp − min`, two 11-bit passes for an 8-day replay,
//! with a scratch copy freed when it ends.  Recording more after events
//! were consumed re-seals the unconsumed tail only: the sealed part is
//! still in sequence order within each key, and every new entry's
//! sequence is above it.

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

/// Width of a calendar bucket, as a shift: 64 s.
const BUCKET_SHIFT: u32 = 6;

/// Buckets in the calendar ring: 1 024 × 64 s ≈ 18.2 h.
const RING: usize = 1024;

/// Calendar bucket number of an instant (floor division, so negative
/// instants bucket correctly too).
fn bucket_of(ts: Timestamp) -> i64 {
    ts.as_secs() >> BUCKET_SHIFT
}

/// Ring slot of a bucket number.
fn slot_of(bucket: i64) -> usize {
    (bucket & (RING as i64 - 1)) as usize
}

/// End of a bucket's list, or of the free list.
const NIL: usize = usize::MAX;

/// A ring entry in the calendar's slab, linked to the next entry of its
/// bucket (or, once drained, of the free list).
#[derive(Clone, Copy, Debug)]
struct Node {
    entry: Scheduled,
    next: usize,
}

/// The run-time lane: a calendar ring over the next 18 h plus one small
/// heap for the rest (see the module docs).
///
/// A bucket is an unsorted list threaded through one slab of nodes, and
/// a drained node goes on a free list, so the lane holds memory for the
/// most entries it ever held, not for every bucket's busiest hour, and a
/// warm loop allocates nothing.
#[derive(Clone, Debug)]
struct Calendar {
    /// The current bucket, sorted latest-first so the earliest entry
    /// leaves from the end.
    current: Vec<Scheduled>,
    /// The current bucket's number; the ring holds buckets `cur + 1 ..
    /// cur + RING`.  Starts below every instant, so what is pushed before
    /// the first pop goes to `other`.
    cur: i64,
    /// Entries pushed into or before the current bucket, or past the
    /// ring's horizon.
    other: BinaryHeap<Scheduled>,
    /// Every ring entry; slot `b % RING` holds bucket `b`, a list from
    /// `heads[slot]`.
    nodes: Vec<Node>,
    heads: Box<[usize]>,
    /// First node of the free list.
    free: usize,
    /// One bit per ring slot: set when the slot holds entries.
    occupied: [u64; RING / 64],
    len: usize,
    peak: usize,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            current: Vec::new(),
            cur: i64::MIN,
            other: BinaryHeap::new(),
            nodes: Vec::new(),
            heads: vec![NIL; RING].into_boxed_slice(),
            free: NIL,
            occupied: [0; RING / 64],
            len: 0,
            peak: 0,
        }
    }
}

impl Calendar {
    fn push(&mut self, entry: Scheduled) {
        let bucket = bucket_of(entry.ts);
        if bucket > self.cur && bucket < self.cur + RING as i64 {
            let slot = slot_of(bucket);
            let node = Node {
                entry,
                next: self.heads[slot],
            };
            self.heads[slot] = match self.free {
                NIL => {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                }
                at => {
                    self.free = std::mem::replace(&mut self.nodes[at], node).next;
                    at
                }
            };
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.other.push(entry);
        }
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// The nearest occupied ring bucket after the current one.
    fn next_occupied(&self) -> Option<i64> {
        let from = slot_of(self.cur.wrapping_add(1));
        let words = self.occupied.len();
        // The first word from `from` on, the other words in ring order,
        // then the first word's bits before `from`.
        (0..=words).find_map(|i| {
            let word = (from / 64 + i) % words;
            let bits = match i {
                0 => self.occupied[word] & (!0 << (from % 64)),
                _ => self.occupied[word],
            };
            let slot = word * 64 + bits.trailing_zeros() as usize;
            (bits != 0).then(|| self.cur + 1 + ((slot + RING - from) % RING) as i64)
        })
    }

    /// Make the lane's head one of `current`'s end and `other`'s top:
    /// when neither is due in the current bucket, move the clock to the
    /// nearest bucket either holds and sort that bucket out of the ring.
    fn settle(&mut self) {
        if !self.current.is_empty() {
            return;
        }
        let other = self.other.peek().map(|s| bucket_of(s.ts));
        if other.is_some_and(|b| b <= self.cur) {
            return;
        }
        let ring = self.next_occupied();
        let Some(next) = ring.into_iter().chain(other).min() else {
            return;
        };
        self.cur = next;
        if ring == Some(next) {
            let slot = slot_of(next);
            let mut at = std::mem::replace(&mut self.heads[slot], NIL);
            while at != NIL {
                let node = &mut self.nodes[at];
                self.current.push(node.entry);
                let next = std::mem::replace(&mut node.next, self.free);
                self.free = at;
                at = next;
            }
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            self.current
                .sort_unstable_by_key(|s| std::cmp::Reverse(s.key()));
        }
    }

    /// The lane's earliest entry, and whether it ends `current` (`true`)
    /// or tops `other`.
    fn head(&mut self) -> Option<(bool, &Scheduled)> {
        self.settle();
        match (self.current.last(), self.other.peek()) {
            (Some(c), Some(o)) if o.key() < c.key() => Some((false, o)),
            (Some(c), _) => Some((true, c)),
            (None, o) => o.map(|o| (false, o)),
        }
    }

    /// Remove the head `head` just named.
    fn take(&mut self, current: bool) -> Option<Scheduled> {
        let taken = if current {
            self.current.pop()
        } else {
            self.other.pop()
        };
        self.len -= usize::from(taken.is_some());
        taken
    }
}

/// Where the earliest queued event sits.
#[derive(Clone, Copy, Debug)]
enum Lane {
    Recorded,
    /// The run-time lane; `true` when it ends the current bucket.
    RunTime(bool),
}

/// Radix digit width for [`seal_run`]: 2 048 counters.
const DIGIT_BITS: u32 = 11;
const DIGIT_MASK: u128 = (1 << DIGIT_BITS) - 1;

/// Stable LSD radix sort of `run` by `(ts − min ts, is_end)` — the full
/// `(ts, order)` order whenever equal keys already sit in sequence
/// order (see the module docs).  Passes whose digit is the same for
/// every entry are skipped; the scratch copy is freed on return.
fn seal_run(run: &mut [Recorded]) {
    let Some(min) = run.iter().map(|r| r.ts.as_secs()).min() else {
        return;
    };
    let key =
        |r: &Recorded| (u128::from(r.ts.as_secs().abs_diff(min)) << 1) | u128::from(r.is_end());
    let top = run.iter().map(key).max().unwrap_or(0);
    let passes = (u128::BITS - top.leading_zeros()).div_ceil(DIGIT_BITS);
    let mut scratch = run.to_vec();
    let mut counts = vec![0usize; 1 << DIGIT_BITS];
    let (mut src, mut dst): (&mut [Recorded], &mut [Recorded]) = (run, &mut scratch);
    let mut in_scratch = false;
    for pass in 0..passes {
        let digit = |r: &Recorded| ((key(r) >> (pass * DIGIT_BITS)) & DIGIT_MASK) as usize;
        counts.fill(0);
        for r in src.iter() {
            counts[digit(r)] += 1;
        }
        if counts.contains(&src.len()) {
            continue;
        }
        let mut offset = 0;
        for c in counts.iter_mut() {
            (*c, offset) = (offset, offset + *c);
        }
        for r in src.iter() {
            let d = digit(r);
            dst[counts[d]] = *r;
            counts[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_scratch = !in_scratch;
    }
    if in_scratch {
        dst.copy_from_slice(src);
    }
}

/// Earliest-first event queue with stable FIFO tie-breaking (see the
/// module docs for the two lanes behind it).
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    /// Run-time lane.
    calendar: Calendar,
    /// Recorded run; `run[cursor..]` is still queued.
    run: Vec<Recorded>,
    cursor: usize,
    /// `run[cursor..]` gained entries since it was last sealed.
    unsorted: bool,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `event` at `ts` in the run-time lane.
    pub fn push(&mut self, ts: Timestamp, event: SimEvent) {
        self.seq += 1;
        self.calendar.push(Scheduled {
            ts,
            priority: event.priority(),
            seq: self.seq,
            event,
        });
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
            seal_run(&mut self.run[self.cursor..]);
            self.unsorted = false;
        }
    }

    /// Seal the run, then say which lane holds the earliest queued event
    /// and when it is due — the one place the two lanes' heads are
    /// compared.
    fn head(&mut self) -> Option<(Lane, Timestamp)> {
        self.seal();
        match (self.run.get(self.cursor), self.calendar.head()) {
            (Some(r), Some((_, s))) if r.key() < s.key() => Some((Lane::Recorded, r.ts)),
            (_, Some((current, s))) => Some((Lane::RunTime(current), s.ts)),
            (Some(r), None) => Some((Lane::Recorded, r.ts)),
            (None, None) => None,
        }
    }

    /// Remove and return the head of the lane `head` chose.  Once per
    /// loop event, so forced inline into `pop_before`'s caller: left to
    /// the optimiser, the call stays out of line in the shard loop.
    #[inline(always)]
    fn take(&mut self, lane: Lane) -> Option<(Timestamp, SimEvent)> {
        match lane {
            Lane::Recorded => {
                let r = self.run[self.cursor];
                self.cursor += 1;
                Some((r.ts, r.event()))
            }
            Lane::RunTime(current) => self.calendar.take(current).map(|s| (s.ts, s.event)),
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Timestamp, SimEvent)> {
        let (lane, _) = self.head()?;
        self.take(lane)
    }

    /// Pop the earliest event if it is due strictly before `stop`; an
    /// event at or past `stop` stays queued.  What `peek_ts` followed by
    /// `pop` does, with the lanes' heads compared once — the event
    /// loop's one queue call per event.
    pub fn pop_before(&mut self, stop: Timestamp) -> Option<(Timestamp, SimEvent)> {
        let (lane, ts) = self.head()?;
        if ts >= stop {
            return None;
        }
        self.take(lane)
    }

    /// Timestamp of the earliest queued event without removing it —
    /// what lets a driver stop *before* a horizon instead of after
    /// popping past it.
    pub fn peek_ts(&mut self) -> Option<Timestamp> {
        self.head().map(|(_, ts)| ts)
    }

    /// Events still queued, both lanes.
    pub fn len(&self) -> usize {
        self.scheduled_len() + self.recorded_len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries in the run-time lane now.
    pub fn scheduled_len(&self) -> usize {
        self.calendar.len
    }

    /// The most entries the run-time lane ever held.
    pub fn scheduled_peak(&self) -> usize {
        self.calendar.peak
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

    /// Few databases, so `(ts, priority)` ties — and ties between the
    /// lanes on the very same event — are common.  Instants and horizons
    /// are [`spread`] when `wide`, else a few instants in one bucket and
    /// horizons at, between and one past them.
    fn op(wide: bool) -> impl Strategy<Value = Op> {
        let ts = move || if wide { spread() } else { (0i64..6).boxed() };
        let stop = if wide { spread() } else { (0i64..8).boxed() };
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
            4 => (ts(), id(), any::<bool>())
                .prop_map(|(t, db, end)| Op::Record(Timestamp(t), db, end)),
            4 => (ts(), pushed).prop_map(|(t, e)| Op::Push(Timestamp(t), e)),
            3 => Just(Op::Pop),
            4 => stop.prop_map(|t| Op::PopBefore(Timestamp(t))),
            1 => Just(Op::Peek),
        ]
    }

    /// Instants across the calendar: clusters of ties on either side of
    /// a bucket edge over several ring widths (a ring is 4 × 16 384 s),
    /// negative instants, pushes past the 18 h horizon from wherever the
    /// clock stands, and the extremes of the timestamp range.
    fn spread() -> BoxedStrategy<i64> {
        prop_oneof![
            4 => (-4i64..9, -1i64..2).prop_map(|(k, d)| k * 16_384 + d),
            3 => -200_000i64..400_000,
            1 => (0usize..4).prop_map(|i| [i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX][i]),
        ]
        .boxed()
    }

    /// Whole cases inside one bucket, or spread across the calendar.
    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop_oneof![
            prop::collection::vec(op(false), 0..120),
            prop::collection::vec(op(true), 0..160),
        ]
    }

    /// Recorded-run entries in sequence order, from `instants`.
    fn recorded(instants: &[(i64, bool)], first_seq: u64) -> Vec<Recorded> {
        (first_seq..)
            .zip(instants)
            .map(|(seq, &(ts, end))| Recorded {
                ts: Timestamp(ts),
                order: seq | if end { Recorded::END } else { 0 },
                db: DatabaseId(seq),
            })
            .collect()
    }

    fn keys(run: &[Recorded]) -> Vec<(Timestamp, u64, DatabaseId)> {
        run.iter().map(|r| (r.ts, r.order, r.db)).collect()
    }

    #[test]
    fn a_push_behind_or_beyond_the_calendar_pops_in_order() {
        let mut q = EventQueue::new();
        q.push(Timestamp(10_000), SimEvent::ResumeOpTick);
        q.push(Timestamp(200_000), SimEvent::RebalanceTick);
        assert_eq!(q.pop().map(|(t, _)| t), Some(Timestamp(10_000)));
        // The clock stands in 10 000's bucket: one before it, one in it,
        // one a bucket on and one past the horizon.
        q.push(Timestamp(5), SimEvent::DiagnosticsTick);
        q.push(Timestamp(10_001), SimEvent::ActivityStart(db(1)));
        q.push(Timestamp(10_100), SimEvent::ActivityEnd(db(1)));
        q.push(Timestamp(100_000), SimEvent::MeasureStart);
        let order: Vec<i64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_secs())
            .collect();
        assert_eq!(order, vec![5, 10_001, 10_100, 100_000, 200_000]);
        assert_eq!(q.scheduled_peak(), 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Any interleaving of recorded appends, run-time pushes, pops,
        /// horizon-bounded pops and peeks — recording after pops began,
        /// either lane running dry first, a horizon between the two
        /// lanes' heads or between two buckets, a push behind the
        /// calendar's clock or past its horizon — reads the same through
        /// both queues; `pop_before` is the oracle's `peek_ts` then `pop`.
        #[test]
        fn two_lanes_are_one_heap(ops in ops()) {
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

        /// The radix seal orders a run exactly as a comparison sort on
        /// the full `(ts, order)` key does — ties at one instant, runs
        /// spanning the whole timestamp range — and so does a re-seal of
        /// the unconsumed tail after more was recorded once pops began.
        #[test]
        fn the_radix_seal_is_the_full_key_sort(
            first in prop::collection::vec((spread(), any::<bool>()), 0..300),
            popped in 0usize..300,
            more in prop::collection::vec((spread(), any::<bool>()), 0..300),
        ) {
            let by_key = |run: &mut [Recorded]| run.sort_by_key(|r| (r.ts, r.order));
            let mut run = recorded(&first, 1);
            let mut expected = run.clone();
            by_key(&mut expected);
            seal_run(&mut run);
            prop_assert_eq!(keys(&run), keys(&expected));

            let cursor = popped.min(run.len());
            run.extend(recorded(&more, first.len() as u64 + 1));
            let mut expected = run.clone();
            by_key(&mut expected[cursor..]);
            seal_run(&mut run[cursor..]);
            prop_assert_eq!(keys(&run), keys(&expected));
        }
    }
}
