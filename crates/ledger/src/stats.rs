//! Medians, quartiles and tail percentiles for the ledger's samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the exclusive method), because that is what the benchmark driver
//! computes over the ledger's outputs: a spread printed here and a
//! spread the driver computes mean the same thing.

/// A tail percentile in permille (`990` = p99), so "how many samples lie
/// beyond it" is integer arithmetic.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Permille(pub u32);

impl Permille {
    /// The median.
    pub const P50: Permille = Permille(500);
    /// The 99th percentile.
    pub const P99: Permille = Permille(990);

    /// The percentiles the ledger ever reports, ascending.
    pub const LADDER: [Permille; 5] = [
        Permille(500),
        Permille(900),
        Permille(950),
        Permille(990),
        Permille(999),
    ];

    /// `p50`, `p99`, `p99.9`.
    pub fn label(self) -> String {
        if self.0 % 10 == 0 {
            format!("p{}", self.0 / 10)
        } else {
            format!("p{}.{}", self.0 / 10, self.0 % 10)
        }
    }

    /// Whether a sample of `n` leaves at least ten observations beyond
    /// this percentile — the ledger refuses to report a tail the sample
    /// cannot support.
    pub fn supported_by(self, n: usize) -> bool {
        n as u64 * u64::from(1000 - self.0) >= 10_000
    }
}

/// The highest percentile on the ladder that `n` samples support.
pub fn highest_supported(n: usize) -> Option<Permille> {
    Permille::LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| p.supported_by(n))
}

/// Nearest-rank percentile of an ascending-sorted sample; `None` when
/// the sample is too small to leave ten observations beyond it.
pub fn percentile(sorted: &[f64], p: Permille) -> Option<f64> {
    if !p.supported_by(sorted.len()) {
        return None;
    }
    let rank = (sorted.len() as u64 * u64::from(p.0)).div_ceil(1000).max(1);
    Some(sorted[rank as usize - 1])
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, `statistics.quantiles(values, n=4)` style.
/// A single observation is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// A reported figure: the median of its samples with their quartiles.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Stat {
    /// The median (or the single measurement).
    pub value: f64,
    /// First quartile of the samples.
    pub q1: f64,
    /// Third quartile of the samples.
    pub q3: f64,
    /// How many samples the figure summarises.
    pub n: usize,
}

impl Stat {
    /// A figure measured once.
    pub fn one(value: f64) -> Stat {
        Stat {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Median and quartiles over repeats.
    pub fn of(samples: &[f64]) -> Stat {
        let (q1, q3) = quartiles(samples);
        Stat {
            value: median(samples),
            q1,
            q3,
            n: samples.len(),
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        // Two points extrapolate the way Python does: [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        let s = Stat::of(&ten);
        assert_eq!((s.value, s.n), (5.5, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_picker_needs_ten_samples_beyond() {
        // p99 leaves n/100 beyond: 1000 samples is the threshold.
        assert!(!Permille::P99.supported_by(999));
        assert!(Permille::P99.supported_by(1000));
        assert!(Permille::P50.supported_by(20));
        assert!(!Permille::P50.supported_by(19));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(192), Some(Permille(900)));
        assert_eq!(highest_supported(2304), Some(Permille::P99));
        assert_eq!(highest_supported(10_000), Some(Permille(999)));
        assert_eq!(Permille(999).label(), "p99.9");
        assert_eq!(Permille::P99.label(), "p99");
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_small_samples() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&v, Permille::P50), Some(1000.0));
        assert_eq!(percentile(&v, Permille::P99), Some(1980.0));
        assert_eq!(percentile(&v[..500], Permille::P99), None);
        assert_eq!(percentile(&v[..500], Permille(900)), Some(450.0));
    }
}
