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
//! The simulator opens and closes segments as the policy transitions; the
//! accumulator only sums durations, so accounting is O(1) per transition.

use prorp_types::{Seconds, Timestamp};
use std::fmt;

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
    /// All kinds, for iteration in reports.
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

/// Accumulates segment durations for one database (or a whole fleet —
/// accumulators merge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentAccumulator {
    totals: [i64; 6],
    open: Option<(Timestamp, SegmentKind)>,
}

impl SegmentAccumulator {
    /// A fresh accumulator with no open segment.
    pub fn new() -> Self {
        SegmentAccumulator::default()
    }

    fn idx(kind: SegmentKind) -> usize {
        SegmentKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("ALL covers every kind")
    }

    /// Close any open segment at `now` and open a new one of `kind`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if time moves backwards.
    pub fn transition(&mut self, now: Timestamp, kind: SegmentKind) {
        self.close(now);
        self.open = Some((now, kind));
    }

    /// Close the open segment at `now` without opening a new one.
    pub fn close(&mut self, now: Timestamp) {
        if let Some((since, kind)) = self.open.take() {
            let dur = (now - since).as_secs();
            debug_assert!(dur >= 0, "segment closed before it opened");
            self.totals[Self::idx(kind)] += dur.max(0);
        }
    }

    /// Reclassify the *currently open* segment (e.g. a pre-warm segment
    /// whose outcome — correct vs wrong — is only known at close time).
    pub fn reclassify_open(&mut self, kind: SegmentKind) {
        if let Some((_, k)) = self.open.as_mut() {
            *k = kind;
        }
    }

    /// Kind of the currently open segment.
    pub fn open_kind(&self) -> Option<SegmentKind> {
        self.open.map(|(_, k)| k)
    }

    /// Total accumulated time of one kind (open segment excluded).
    pub fn total(&self, kind: SegmentKind) -> Seconds {
        Seconds(self.totals[Self::idx(kind)])
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

    /// Zero the closed totals at `now`, keeping the currently open
    /// segment open (re-based to `now`).  Used to start the measurement
    /// window after a warm-up phase: only time after `now` counts.
    pub fn reset_keeping_open(&mut self, now: Timestamp) {
        let open_kind = self.open.map(|(_, k)| k);
        self.totals = [0; 6];
        self.open = open_kind.map(|k| (now, k));
    }

    /// Merge another accumulator's closed totals into this one.
    pub fn merge(&mut self, other: &SegmentAccumulator) {
        debug_assert!(
            other.open.is_none(),
            "merge requires the other accumulator to be closed"
        );
        for i in 0..self.totals.len() {
            self.totals[i] += other.totals[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SegmentAccumulator {
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

    #[test]
    fn transitions_accumulate_durations() {
        let mut acc = SegmentAccumulator::new();
        acc.transition(t(0), SegmentKind::Active);
        acc.transition(t(100), SegmentKind::LogicalPauseIdle);
        acc.transition(t(150), SegmentKind::Saved);
        acc.close(t(400));
        assert_eq!(acc.total(SegmentKind::Active), Seconds(100));
        assert_eq!(acc.total(SegmentKind::LogicalPauseIdle), Seconds(50));
        assert_eq!(acc.total(SegmentKind::Saved), Seconds(250));
        assert_eq!(acc.grand_total(), Seconds(400));
        assert!((acc.fraction(SegmentKind::Active) - 0.25).abs() < 1e-12);
        assert!((acc.idle_fraction() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn reclassify_resolves_prewarm_outcome_at_close() {
        let mut acc = SegmentAccumulator::new();
        // Pre-warm opens optimistically as "wrong" …
        acc.transition(t(0), SegmentKind::ProactiveIdleWrong);
        assert_eq!(acc.open_kind(), Some(SegmentKind::ProactiveIdleWrong));
        // … and is upgraded when the login arrives.
        acc.reclassify_open(SegmentKind::ProactiveIdleCorrect);
        acc.transition(t(60), SegmentKind::Active);
        acc.close(t(100));
        assert_eq!(acc.total(SegmentKind::ProactiveIdleCorrect), Seconds(60));
        assert_eq!(acc.total(SegmentKind::ProactiveIdleWrong), Seconds::ZERO);
        assert_eq!(acc.total(SegmentKind::Active), Seconds(40));
    }

    #[test]
    fn merge_combines_fleets() {
        let mut a = SegmentAccumulator::new();
        a.transition(t(0), SegmentKind::Active);
        a.close(t(10));
        let mut b = SegmentAccumulator::new();
        b.transition(t(0), SegmentKind::Saved);
        b.close(t(30));
        a.merge(&b);
        assert_eq!(a.total(SegmentKind::Active), Seconds(10));
        assert_eq!(a.total(SegmentKind::Saved), Seconds(30));
        assert_eq!(a.grand_total(), Seconds(40));
    }

    #[test]
    fn empty_accumulator_has_zero_fractions() {
        let acc = SegmentAccumulator::new();
        assert_eq!(acc.fraction(SegmentKind::Active), 0.0);
        assert_eq!(acc.idle_fraction(), 0.0);
        assert_eq!(acc.grand_total(), Seconds::ZERO);
    }

    #[test]
    fn zero_length_segments_are_harmless() {
        let mut acc = SegmentAccumulator::new();
        acc.transition(t(5), SegmentKind::Active);
        acc.transition(t(5), SegmentKind::Saved);
        acc.close(t(5));
        assert_eq!(acc.grand_total(), Seconds::ZERO);
    }

    #[test]
    fn reset_keeping_open_starts_the_measurement_window() {
        let mut acc = SegmentAccumulator::new();
        acc.transition(t(0), SegmentKind::Active);
        acc.transition(t(100), SegmentKind::LogicalPauseIdle);
        // Warm-up ends at t=150, mid-segment.
        acc.reset_keeping_open(t(150));
        assert_eq!(acc.open_kind(), Some(SegmentKind::LogicalPauseIdle));
        acc.transition(t(200), SegmentKind::Saved);
        acc.close(t(300));
        assert_eq!(acc.total(SegmentKind::Active), Seconds::ZERO);
        assert_eq!(acc.total(SegmentKind::LogicalPauseIdle), Seconds(50));
        assert_eq!(acc.total(SegmentKind::Saved), Seconds(100));
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            SegmentKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), SegmentKind::ALL.len());
    }
}
