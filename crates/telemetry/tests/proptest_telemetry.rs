//! Property tests for the telemetry aggregations: CDF percentiles against
//! a sorted reference, box-plot bounds, and segment accounting conservation.

use proptest::prelude::*;
use prorp_telemetry::{BoxPlot, Cdf, SegmentAccumulator, SegmentKind};
use prorp_types::{Seconds, Timestamp};

proptest! {
    #[test]
    fn cdf_percentiles_bracket_the_samples(
        samples in prop::collection::vec(-1e6f64..1e6, 1..300)
    ) {
        let cdf = Cdf::from_samples(samples.clone());
        let mut sorted = samples;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(cdf.min(), sorted.first().copied());
        prop_assert_eq!(cdf.max(), sorted.last().copied());
        // Percentiles are monotone and within [min, max].
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let q = cdf.percentile(p).unwrap();
            prop_assert!(q >= prev);
            prop_assert!(q >= sorted[0] && q <= sorted[sorted.len() - 1]);
            prev = q;
        }
        // cdf_at is a valid CDF: monotone from 0 toward 1.
        prop_assert_eq!(cdf.cdf_at(sorted[sorted.len() - 1]), 1.0);
        prop_assert!(cdf.cdf_at(sorted[0] - 1.0) == 0.0);
    }

    #[test]
    fn box_plot_is_ordered(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let b = BoxPlot::from_samples(&samples).unwrap();
        prop_assert!(b.min <= b.q1);
        prop_assert!(b.q1 <= b.median);
        prop_assert!(b.median <= b.q3);
        prop_assert!(b.q3 <= b.max);
        prop_assert_eq!(b.n, samples.len());
    }

    #[test]
    fn segment_accounting_conserves_time(
        transitions in prop::collection::vec((1i64..10_000, 0usize..6), 1..100)
    ) {
        let mut acc = SegmentAccumulator::new();
        let mut now = Timestamp(0);
        acc.transition(now, SegmentKind::Saved);
        for (advance, kind_idx) in &transitions {
            now += Seconds(*advance);
            acc.transition(now, SegmentKind::ALL[*kind_idx]);
        }
        now += Seconds(1);
        acc.close(now);
        // Total accumulated time equals elapsed wall time.
        prop_assert_eq!(acc.grand_total(), now - Timestamp(0));
        // Fractions form a probability distribution.
        let total: f64 = SegmentKind::ALL.iter().map(|k| acc.fraction(*k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
