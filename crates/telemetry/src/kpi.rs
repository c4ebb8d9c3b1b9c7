//! The fleet-level KPI report (§8).
//!
//! Quality of service is "the percentage of first logins after idle
//! intervals that occurred while the resources were available"; COGS is
//! "the percentage of time during which resources are idle due to
//! logical pause and proactive resume of resources", decomposed by cause.

use crate::segments::{SegmentKind, SegmentTotals};
use std::fmt;

/// Aggregated key performance indicators for one policy run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KpiReport {
    /// Logins served with resources available.
    pub logins_available: u64,
    /// Logins that triggered a reactive resume.
    pub logins_unavailable: u64,
    /// Fraction of time idle in a logical pause.
    pub idle_logical_frac: f64,
    /// Fraction of time idle after a correct proactive resume.
    pub idle_proactive_correct_frac: f64,
    /// Fraction of time idle after a wrong proactive resume.
    pub idle_proactive_wrong_frac: f64,
    /// Fraction of time resources were saved (reclaimed, no demand).
    pub saved_frac: f64,
    /// Fraction of time customers waited on unavailable resources.
    pub unavailable_frac: f64,
    /// Fraction of time actively serving the workload.
    pub active_frac: f64,
    /// Proactive resume workflows executed.
    pub proactive_resumes: u64,
    /// Physical pause (reclamation) workflows executed.
    pub physical_pauses: u64,
    /// Forecast failures absorbed by the reactive fallback.
    pub forecast_failures: u64,
}

impl KpiReport {
    /// Build the time fractions from merged fleet segment totals.
    pub fn from_segments(acc: &SegmentTotals) -> Self {
        KpiReport {
            idle_logical_frac: acc.fraction(SegmentKind::LogicalPauseIdle),
            idle_proactive_correct_frac: acc.fraction(SegmentKind::ProactiveIdleCorrect),
            idle_proactive_wrong_frac: acc.fraction(SegmentKind::ProactiveIdleWrong),
            saved_frac: acc.fraction(SegmentKind::Saved),
            unavailable_frac: acc.fraction(SegmentKind::Unavailable),
            active_frac: acc.fraction(SegmentKind::Active),
            ..Default::default()
        }
    }

    /// The headline QoS percentage (Figures 6(a), 7(a), 8(a), 9(a)).
    pub fn qos_pct(&self) -> f64 {
        let total = self.logins_available + self.logins_unavailable;
        if total == 0 {
            return 100.0;
        }
        100.0 * self.logins_available as f64 / total as f64
    }

    /// The headline idle-time percentage (Figures 6(b), 7(b), 8(b), 9(b)).
    pub fn idle_pct(&self) -> f64 {
        100.0
            * (self.idle_logical_frac
                + self.idle_proactive_correct_frac
                + self.idle_proactive_wrong_frac)
    }

    /// A scalar utility for the training pipeline: QoS minus an idle-time
    /// penalty.  §9.2 "prioritizes quality of service over operational
    /// costs", so the default weight keeps a percentage point of QoS
    /// worth two points of idle time.
    pub fn utility(&self, idle_weight: f64) -> f64 {
        self.qos_pct() - idle_weight * self.idle_pct()
    }

    /// Fraction of time the *customer is billed*: §2.2 bills per second
    /// "only while they use these resources", i.e. during active time —
    /// logical pauses and pre-warms are free to the customer.
    pub fn billed_fraction(&self) -> f64 {
        self.active_frac
    }

    /// Fraction of time the *provider holds compute* for the database:
    /// active time plus every idle cause.
    pub fn allocated_fraction(&self) -> f64 {
        self.active_frac
            + self.idle_logical_frac
            + self.idle_proactive_correct_frac
            + self.idle_proactive_wrong_frac
    }

    /// Billed share of allocated time — the provider's revenue per unit
    /// of held compute.  1.0 means every allocated second was billable;
    /// idle time (unbilled but allocated) drags it down, which is the
    /// economic reading of the §8 COGS metric.
    pub fn provider_efficiency(&self) -> f64 {
        let allocated = self.allocated_fraction();
        if allocated <= 0.0 {
            return 1.0;
        }
        self.billed_fraction() / allocated
    }
}

impl fmt::Display for KpiReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "QoS: {:.1}% of first logins found resources available ({} / {})",
            self.qos_pct(),
            self.logins_available,
            self.logins_available + self.logins_unavailable
        )?;
        writeln!(
            f,
            "Idle: {:.2}% of time (logical {:.2}%, proactive-correct {:.2}%, proactive-wrong {:.2}%)",
            self.idle_pct(),
            100.0 * self.idle_logical_frac,
            100.0 * self.idle_proactive_correct_frac,
            100.0 * self.idle_proactive_wrong_frac
        )?;
        writeln!(
            f,
            "Time split: active {:.2}%, saved {:.2}%, unavailable {:.3}%",
            100.0 * self.active_frac,
            100.0 * self.saved_frac,
            100.0 * self.unavailable_frac
        )?;
        writeln!(
            f,
            "Billing: customers billed {:.2}% of time; provider holds compute {:.2}% of time (efficiency {:.0}%)",
            100.0 * self.billed_fraction(),
            100.0 * self.allocated_fraction(),
            100.0 * self.provider_efficiency()
        )?;
        write!(
            f,
            "Workflows: {} proactive resumes, {} physical pauses, {} forecast failures",
            self.proactive_resumes, self.physical_pauses, self.forecast_failures
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::SegmentBook;
    use prorp_types::Timestamp;

    #[test]
    fn qos_and_idle_percentages() {
        let r = KpiReport {
            logins_available: 85,
            logins_unavailable: 15,
            idle_logical_frac: 0.04,
            idle_proactive_correct_frac: 0.02,
            idle_proactive_wrong_frac: 0.01,
            ..Default::default()
        };
        assert!((r.qos_pct() - 85.0).abs() < 1e-9);
        assert!((r.idle_pct() - 7.0).abs() < 1e-9);
        assert!((r.utility(2.0) - (85.0 - 14.0)).abs() < 1e-9);
    }

    #[test]
    fn no_logins_means_perfect_qos() {
        assert_eq!(KpiReport::default().qos_pct(), 100.0);
    }

    #[test]
    fn from_segments_copies_fractions() {
        let mut book = SegmentBook::with_capacity(Timestamp(0)..Timestamp(100), 1);
        book.open(Timestamp(0), SegmentKind::Active);
        book.transition(0, Timestamp(50), SegmentKind::LogicalPauseIdle);
        book.transition(0, Timestamp(75), SegmentKind::Saved);
        let r = KpiReport::from_segments(&book.finish(Timestamp(100)));
        assert!((r.active_frac - 0.5).abs() < 1e-12);
        assert!((r.idle_logical_frac - 0.25).abs() < 1e-12);
        assert!((r.saved_frac - 0.25).abs() < 1e-12);
        assert!((r.idle_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn billing_accounting_follows_section_2_2() {
        let r = KpiReport {
            active_frac: 0.30,
            idle_logical_frac: 0.05,
            idle_proactive_correct_frac: 0.02,
            idle_proactive_wrong_frac: 0.03,
            saved_frac: 0.60,
            ..Default::default()
        };
        assert!((r.billed_fraction() - 0.30).abs() < 1e-12);
        assert!((r.allocated_fraction() - 0.40).abs() < 1e-12);
        assert!((r.provider_efficiency() - 0.75).abs() < 1e-12);
        // Nothing allocated → vacuous efficiency.
        assert_eq!(KpiReport::default().provider_efficiency(), 1.0);
    }

    #[test]
    fn display_mentions_every_headline() {
        let r = KpiReport {
            logins_available: 9,
            logins_unavailable: 1,
            proactive_resumes: 3,
            physical_pauses: 4,
            ..Default::default()
        };
        let s = r.to_string();
        for needle in [
            "QoS: 90.0%",
            "Idle:",
            "Workflows: 3 proactive",
            "4 physical",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }
}
