//! Per-database time accounting.
//!
//! Definition 2.2 classifies every `(demand, allocation)` instant; §8
//! refines the *idle* class (allocated but unused) by cause, because the
//! three causes have different remedies:
//!
//! * **logical-pause idle** — resources held after activity stopped
//!   (Figure 6(b)'s "logical pause" bar);
//! * **correct-proactive idle** — resources pre-warmed ahead of a login
//!   that did arrive ("even correct proactive resume contributes to idle
//!   time since the resources are not used immediately");
//! * **wrong-proactive idle** — resources pre-warmed for a login that
//!   never came.
//!
//! The simulator opens and closes segments as the policy transitions; a
//! [`SegmentBook`] keeps each database's open segment and sums closed
//! durations per kind once for all its databases, so accounting is O(1)
//! per transition and 16 bytes per database.

use prorp_types::{Seconds, Timestamp};
use std::fmt;
use std::ops::Range;

/// What a database's resources were doing during a segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SegmentKind {
    /// Demand = allocation = 1: serving the customer.
    Active,
    /// Allocated, idle, following customer activity (reactive logical
    /// pause).
    LogicalPauseIdle,
    /// Allocated, idle, pre-warmed — and the customer then logged in.
    ProactiveIdleCorrect,
    /// Allocated, idle, pre-warmed — and the customer never came.
    ProactiveIdleWrong,
    /// Reclaimed with no demand: correctly saved.
    Saved,
    /// Demand present but resources reclaimed: the customer is waiting on
    /// a reactive resume workflow (the QoS penalty band of Figure 2(a)).
    Unavailable,
}

impl SegmentKind {
    /// All kinds, for iteration in reports, in declaration order: a
    /// kind's position is `kind as usize`.
    pub const ALL: [SegmentKind; 6] = [
        SegmentKind::Active,
        SegmentKind::LogicalPauseIdle,
        SegmentKind::ProactiveIdleCorrect,
        SegmentKind::ProactiveIdleWrong,
        SegmentKind::Saved,
        SegmentKind::Unavailable,
    ];

    /// Whether this kind counts toward the §8 idle-time COGS metric.
    pub fn is_idle(self) -> bool {
        matches!(
            self,
            SegmentKind::LogicalPauseIdle
                | SegmentKind::ProactiveIdleCorrect
                | SegmentKind::ProactiveIdleWrong
        )
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::Active => "active",
            SegmentKind::LogicalPauseIdle => "logical-pause-idle",
            SegmentKind::ProactiveIdleCorrect => "proactive-idle-correct",
            SegmentKind::ProactiveIdleWrong => "proactive-idle-wrong",
            SegmentKind::Saved => "saved",
            SegmentKind::Unavailable => "unavailable",
        }
    }
}

impl fmt::Display for SegmentKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Closed segment time per kind — one shard's, or a whole fleet's
/// (totals merge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentTotals {
    totals: [i64; 6],
}

impl SegmentTotals {
    /// Total time of one kind.
    pub fn total(&self, kind: SegmentKind) -> Seconds {
        Seconds(self.totals[kind as usize])
    }

    /// Sum across all kinds.
    pub fn grand_total(&self) -> Seconds {
        Seconds(self.totals.iter().sum())
    }

    /// Fraction of total time in `kind`; 0 when nothing is recorded.
    pub fn fraction(&self, kind: SegmentKind) -> f64 {
        let total = self.grand_total().as_secs();
        if total == 0 {
            return 0.0;
        }
        self.total(kind).as_secs() as f64 / total as f64
    }

    /// Add another set of totals into this one.
    pub fn merge(&mut self, other: &SegmentTotals) {
        for (sum, t) in self.totals.iter_mut().zip(other.totals) {
            *sum += t;
        }
    }
}

/// One database's open segment: since when, and of what kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenSegment {
    since: Timestamp,
    kind: SegmentKind,
}

/// The segment book of a set of databases (one shard's): each
/// database's open segment, addressed by its slot — how many databases
/// [`open`](Self::open)ed before it — and one per-kind total of closed
/// time.
///
/// Only time inside the measured window counts: closing a segment adds
/// the part of it that falls in `[window.start, window.end)`, so a
/// warm-up before the window needs no reset pass.
#[derive(Clone, Debug)]
pub struct SegmentBook {
    open: Vec<OpenSegment>,
    window: Range<Timestamp>,
    totals: SegmentTotals,
}

impl SegmentBook {
    /// An empty book counting time inside `window`, with room for
    /// `capacity` databases.
    pub fn with_capacity(window: Range<Timestamp>, capacity: usize) -> Self {
        SegmentBook {
            open: Vec::with_capacity(capacity),
            window,
            totals: SegmentTotals::default(),
        }
    }

    /// Add a database whose first segment, of `kind`, opens at `at`.
    pub fn open(&mut self, at: Timestamp, kind: SegmentKind) {
        self.open.push(OpenSegment { since: at, kind });
    }

    /// Close `slot`'s open segment at `now` (which must not precede its
    /// start; debug builds check) and open one of `kind`.
    pub fn transition(&mut self, slot: usize, now: Timestamp, kind: SegmentKind) {
        let seg = std::mem::replace(&mut self.open[slot], OpenSegment { since: now, kind });
        self.count(seg, now);
    }

    /// Reclassify `slot`'s *open* segment (e.g. a pre-warm segment whose
    /// outcome — correct vs wrong — is only known at close time).
    pub fn reclassify_open(&mut self, slot: usize, kind: SegmentKind) {
        self.open[slot].kind = kind;
    }

    /// Kind of `slot`'s open segment.
    pub fn open_kind(&self, slot: usize) -> SegmentKind {
        self.open[slot].kind
    }

    /// `slot`'s open segment, by reference.
    pub fn open_segment(&self, slot: usize) -> &OpenSegment {
        &self.open[slot]
    }

    /// Close every open segment at `at` and return the totals.
    pub fn finish(mut self, at: Timestamp) -> SegmentTotals {
        for seg in std::mem::take(&mut self.open) {
            self.count(seg, at);
        }
        self.totals
    }

    /// Add the part of `seg`, closing at `now`, inside the window.
    fn count(&mut self, seg: OpenSegment, now: Timestamp) {
        debug_assert!(now >= seg.since, "segment closed before it opened");
        let from = seg.since.max(self.window.start);
        let to = now.min(self.window.end);
        if to > from {
            self.totals.totals[seg.kind as usize] += (to - from).as_secs();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SegmentTotals {
        /// The §8 idle-time fraction (all three idle causes).
        pub(crate) fn idle_fraction(&self) -> f64 {
            SegmentKind::ALL
                .iter()
                .filter(|k| k.is_idle())
                .map(|k| self.fraction(*k))
                .sum()
        }
    }

    fn t(v: i64) -> Timestamp {
        Timestamp(v)
    }

    /// A book whose window holds every instant these tests use.
    fn book() -> SegmentBook {
        SegmentBook::with_capacity(t(0)..t(1_000_000), 1)
    }

    #[test]
    fn transitions_accumulate_durations() {
        let mut book = book();
        book.open(t(0), SegmentKind::Active);
        let db = 0;
        book.transition(db, t(100), SegmentKind::LogicalPauseIdle);
        book.transition(db, t(150), SegmentKind::Saved);
        let acc = book.finish(t(400));
        assert_eq!(acc.total(SegmentKind::Active), Seconds(100));
        assert_eq!(acc.total(SegmentKind::LogicalPauseIdle), Seconds(50));
        assert_eq!(acc.total(SegmentKind::Saved), Seconds(250));
        assert_eq!(acc.grand_total(), Seconds(400));
        assert!((acc.fraction(SegmentKind::Active) - 0.25).abs() < 1e-12);
        assert!((acc.idle_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn reclassify_resolves_prewarm_outcome_at_close() {
        let mut book = book();
        // Pre-warm opens optimistically as "wrong" …
        book.open(t(0), SegmentKind::ProactiveIdleWrong);
        let db = 0;
        assert_eq!(book.open_kind(db), SegmentKind::ProactiveIdleWrong);
        // … and is upgraded when the login arrives.
        book.reclassify_open(db, SegmentKind::ProactiveIdleCorrect);
        book.transition(db, t(60), SegmentKind::Active);
        let acc = book.finish(t(100));
        assert_eq!(acc.total(SegmentKind::ProactiveIdleCorrect), Seconds(60));
        assert_eq!(acc.total(SegmentKind::ProactiveIdleWrong), Seconds::ZERO);
        assert_eq!(acc.total(SegmentKind::Active), Seconds(40));
    }

    #[test]
    fn merge_combines_fleets() {
        let mut a = book();
        a.open(t(0), SegmentKind::Active);
        let mut a = a.finish(t(10));
        let mut b = book();
        b.open(t(0), SegmentKind::Saved);
        a.merge(&b.finish(t(30)));
        assert_eq!(a.total(SegmentKind::Active), Seconds(10));
        assert_eq!(a.total(SegmentKind::Saved), Seconds(30));
        assert_eq!(a.grand_total(), Seconds(40));
    }

    #[test]
    fn empty_accumulator_has_zero_fractions() {
        let acc = SegmentTotals::default();
        assert_eq!(acc.fraction(SegmentKind::Active), 0.0);
        assert_eq!(acc.idle_fraction(), 0.0);
        assert_eq!(acc.grand_total(), Seconds::ZERO);
    }

    #[test]
    fn zero_length_segments_are_harmless() {
        let mut book = book();
        book.open(t(5), SegmentKind::Active);
        let db = 0;
        book.transition(db, t(5), SegmentKind::Saved);
        assert_eq!(book.finish(t(5)).grand_total(), Seconds::ZERO);
    }

    #[test]
    fn the_measurement_window_clamps_each_segment() {
        // Warm-up ends at t=150, mid-segment; the window ends at t=280.
        let mut book = SegmentBook::with_capacity(t(150)..t(280), 2);
        book.open(t(0), SegmentKind::Active);
        let db = 0;
        book.open(t(0), SegmentKind::Saved); // a database that never moves
        book.transition(db, t(100), SegmentKind::LogicalPauseIdle);
        book.transition(db, t(200), SegmentKind::Saved);
        let acc = book.finish(t(300));
        assert_eq!(acc.total(SegmentKind::Active), Seconds::ZERO);
        assert_eq!(acc.total(SegmentKind::LogicalPauseIdle), Seconds(50));
        assert_eq!(acc.total(SegmentKind::Saved), Seconds(80 + 130));
        // Every database covers exactly the window.
        assert_eq!(acc.grand_total(), Seconds(2 * 130));
    }

    /// A database's slot in the book is its open segment alone: totals
    /// moving back into each database fail here by name.
    #[test]
    fn an_open_segment_is_16_bytes() {
        assert_eq!(std::mem::size_of::<OpenSegment>(), 16);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            SegmentKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), SegmentKind::ALL.len());
        for (at, kind) in SegmentKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, at, "{kind}");
        }
    }
}
