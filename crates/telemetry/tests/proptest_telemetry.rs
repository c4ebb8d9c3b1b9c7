//! Property tests for the telemetry aggregations: CDF percentiles against
//! a sorted reference, box-plot bounds, segment accounting conservation,
//! and the segment book's clamp to the measured window.

use proptest::prelude::*;
use prorp_telemetry::{BoxPlot, Cdf, SegmentBook, SegmentKind};
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
        let mut book = SegmentBook::with_capacity(Timestamp(0)..Timestamp(i64::MAX), 1);
        let mut now = Timestamp(0);
        book.open(now, SegmentKind::Saved);
        for (advance, kind_idx) in &transitions {
            now += Seconds(*advance);
            book.transition(0, now, SegmentKind::ALL[*kind_idx]);
        }
        now += Seconds(1);
        let acc = book.finish(now);
        // Total accumulated time equals elapsed wall time.
        prop_assert_eq!(acc.grand_total(), now - Timestamp(0));
        // Fractions form a probability distribution.
        let total: f64 = SegmentKind::ALL.iter().map(|k| acc.fraction(*k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    /// Random transitions on a few databases, some before the measured
    /// window opens, some inside it, some past its end, with pre-warm
    /// reclassifications: each kind's total is the overlap of every
    /// segment of that kind with `[from, end)`, computed here from the
    /// list of segments.
    #[test]
    fn the_clamped_book_counts_each_segments_overlap_with_the_window(
        from in 0i64..2_000,
        span in 1i64..2_000,
        ops in prop::collection::vec((0usize..3, 0i64..300, 0usize..6, any::<bool>()), 0..60),
        tail in 0i64..500,
    ) {
        const DBS: usize = 3;
        let window = Timestamp(from)..Timestamp(from + span);
        let mut book = SegmentBook::with_capacity(window.clone(), DBS);
        let mut open = [(Timestamp(0), SegmentKind::Saved); DBS];
        for _ in 0..DBS {
            book.open(Timestamp(0), SegmentKind::Saved);
        }
        let mut closed: Vec<(Timestamp, Timestamp, SegmentKind)> = Vec::new();
        let mut now = Timestamp(0);
        for (db, advance, kind_idx, reclassify) in ops {
            now += Seconds(advance);
            let kind = SegmentKind::ALL[kind_idx];
            if reclassify {
                book.reclassify_open(db, kind);
                open[db].1 = kind;
            } else {
                book.transition(db, now, kind);
                closed.push((open[db].0, now, open[db].1));
                open[db] = (now, kind);
            }
            prop_assert_eq!(book.open_kind(db), open[db].1);
        }
        let close_at = now + Seconds(tail);
        let totals = book.finish(close_at);
        closed.extend(open.iter().map(|&(since, kind)| (since, close_at, kind)));
        for kind in SegmentKind::ALL {
            let expected: i64 = closed
                .iter()
                .filter(|seg| seg.2 == kind)
                .map(|&(since, until, _)| {
                    let lo = since.as_secs().max(window.start.as_secs());
                    let hi = until.as_secs().min(window.end.as_secs());
                    (hi - lo).max(0)
                })
                .sum();
            prop_assert_eq!(totals.total(kind), Seconds(expected), "{}", kind);
        }
    }
}
