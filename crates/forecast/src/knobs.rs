//! The run-level knobs: what every database of a run is configured with.
//!
//! Table 1's policy knobs, the §3.2 breaker's knobs and Algorithm 4's
//! confidence basis are one value per run, not per database, and the
//! sweep's scratch buffers serve one prediction at a time.  A shard
//! builds one [`Knobs`] and every engine and predictor it registers
//! holds an 8-byte [`SharedKnobs`] handle to it, so a database's engine
//! carries only that database's state.
//!
//! The handle is per shard, not per process: a shard steps on one thread
//! at a time, so its reference count and its scratch lock stay on that
//! thread's core.

use crate::incremental::SharedScratch;
use crate::probabilistic::ConfidenceBasis;
use prorp_types::{BreakerConfig, PolicyConfig, ProrpError};
use std::sync::Arc;

/// One run's knobs; see the [module docs](self).  Built validated by
/// [`Knobs::shared`] and read-only thereafter.
#[derive(Debug)]
pub struct Knobs {
    config: PolicyConfig,
    breaker: BreakerConfig,
    basis: ConfidenceBasis,
    scratch: SharedScratch,
}

/// Shared handle to a run's [`Knobs`].
pub type SharedKnobs = Arc<Knobs>;

impl Knobs {
    /// Validate and share a run's knobs.
    ///
    /// # Errors
    ///
    /// Propagates [`PolicyConfig::validate`] and
    /// [`BreakerConfig::validate`] failures, in that order.
    pub fn shared(
        config: PolicyConfig,
        breaker: BreakerConfig,
        basis: ConfidenceBasis,
        scratch: SharedScratch,
    ) -> Result<SharedKnobs, ProrpError> {
        config.validate()?;
        breaker.validate()?;
        Ok(Arc::new(Knobs {
            config,
            breaker,
            basis,
            scratch,
        }))
    }

    /// The same knobs, unvalidated (tests of degenerate configs).
    #[cfg(test)]
    pub(crate) fn unchecked(config: PolicyConfig, basis: ConfidenceBasis) -> SharedKnobs {
        Arc::new(Knobs {
            config,
            breaker: BreakerConfig::default(),
            basis,
            scratch: crate::SweepScratch::shared(),
        })
    }

    /// Table 1's policy knobs.
    pub fn config(&self) -> &PolicyConfig {
        &self.config
    }

    /// The predictor circuit breaker's knobs (§3.2).
    pub fn breaker(&self) -> &BreakerConfig {
        &self.breaker
    }

    /// What Algorithm 4's window probability counts.
    pub fn basis(&self) -> ConfidenceBasis {
        self.basis
    }

    /// The sweep's buffers, shared by the run's incremental predictors.
    pub(crate) fn scratch(&self) -> &SharedScratch {
        &self.scratch
    }
}
