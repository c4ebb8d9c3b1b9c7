//! Knob grids for the training sweep.

use prorp_types::{PolicyConfig, ProrpError, Seasonality, Seconds};

/// A cartesian grid over the tunable knobs of Table 1.
///
/// §8 names "the window size, the confidence threshold, the history
/// length, and the seasonality" as the tuned parameters; the remaining
/// knobs (`l`, `p`, `s`, `k`) stay at their production defaults unless
/// overridden on the base config.
#[derive(Clone, Debug)]
pub struct ParameterGrid {
    /// Base configuration supplying the non-swept knobs.
    pub base: PolicyConfig,
    /// Window sizes `w` to try.
    pub windows: Vec<Seconds>,
    /// Confidence thresholds `c` to try.
    pub confidences: Vec<f64>,
    /// History lengths `h` to try.
    pub history_lens: Vec<Seconds>,
    /// Seasonalities to try.
    pub seasonalities: Vec<Seasonality>,
}

impl ParameterGrid {
    /// A small grid for quick runs and tests.
    pub fn coarse() -> Self {
        ParameterGrid {
            base: PolicyConfig::default(),
            windows: vec![Seconds::hours(2), Seconds::hours(7)],
            confidences: vec![0.1, 0.5],
            history_lens: vec![Seconds::days(28)],
            seasonalities: vec![Seasonality::Daily],
        }
    }

    /// Number of candidate configurations.
    pub fn len(&self) -> usize {
        self.windows.len()
            * self.confidences.len()
            * self.history_lens.len()
            * self.seasonalities.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialise every valid configuration in the grid.
    ///
    /// # Errors
    ///
    /// Returns an error if the grid produces *no* valid configuration
    /// (every combination failed validation).
    pub fn configs(&self) -> Result<Vec<PolicyConfig>, ProrpError> {
        let mut out = Vec::with_capacity(self.len());
        for &w in &self.windows {
            for &c in &self.confidences {
                for &h in &self.history_lens {
                    for &s in &self.seasonalities {
                        let candidate = PolicyConfig {
                            window: w,
                            confidence: c,
                            history_len: h,
                            seasonality: s,
                            ..self.base
                        };
                        if candidate.validate().is_ok() {
                            out.push(candidate);
                        }
                    }
                }
            }
        }
        if out.is_empty() {
            return Err(ProrpError::InvalidConfig(
                "parameter grid contains no valid configuration".into(),
            ));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_combinations_are_filtered() {
        let mut grid = ParameterGrid::coarse();
        // A window wider than the horizon is invalid and must be skipped.
        grid.windows.push(Seconds::days(2));
        let configs = grid.configs().unwrap();
        assert_eq!(configs.len(), grid.len() - 2); // 2 confidences × bad window
    }

    #[test]
    fn empty_grid_errors() {
        let mut grid = ParameterGrid::coarse();
        grid.windows.clear();
        assert!(grid.is_empty());
        assert!(grid.configs().is_err());
    }
}
