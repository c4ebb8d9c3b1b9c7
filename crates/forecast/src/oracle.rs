//! The oracle predictor: perfect knowledge of the future trace.
//!
//! §2.3 defines the optimum as allocating resources iff they are needed,
//! which "requires a perfect resource demand prediction".  The oracle
//! supplies that prediction from the ground-truth session list, powering
//! the optimal policy of Figure 2(c) that every real policy is measured
//! against.

use crate::Predictor;
use prorp_storage::HistoryRead;
use prorp_types::{Prediction, ProrpError, Session, Timestamp};

/// A predictor that reads the future from the ground-truth trace.
#[derive(Clone, Debug)]
pub struct OraclePredictor {
    /// Time-ordered, non-overlapping future sessions.
    sessions: Vec<Session>,
}

impl OraclePredictor {
    /// Build from a time-ordered session list.
    ///
    /// # Errors
    ///
    /// Returns [`ProrpError::InvalidEvent`] if sessions are unordered or
    /// overlap.
    pub fn new(sessions: Vec<Session>) -> Result<Self, ProrpError> {
        for w in sessions.windows(2) {
            if w[1].start <= w[0].end {
                return Err(ProrpError::InvalidEvent(format!(
                    "oracle sessions must be ordered and disjoint: {} then {}",
                    w[0], w[1]
                )));
            }
        }
        Ok(OraclePredictor { sessions })
    }

    /// The next session starting strictly after `now` (a session already
    /// in progress is not a *next* activity — the policy sees it as
    /// current demand).
    pub fn next_session_after(&self, now: Timestamp) -> Option<Session> {
        let idx = self.sessions.partition_point(|s| s.start <= now);
        self.sessions.get(idx).copied()
    }
}

impl Predictor for OraclePredictor {
    fn predict(
        &mut self,
        _history: &dyn HistoryRead,
        now: Timestamp,
    ) -> Result<Option<Prediction>, ProrpError> {
        Ok(self.next_session_after(now).map(|s| Prediction {
            start: s.start,
            end: s.end,
            confidence: 1.0,
        }))
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_storage::HistoryTable;

    fn s(a: i64, b: i64) -> Session {
        Session::new(Timestamp(a), Timestamp(b)).unwrap()
    }

    #[test]
    fn returns_the_next_future_session() {
        let oracle = OraclePredictor::new(vec![s(10, 20), s(50, 60), s(100, 110)]).unwrap();
        assert_eq!(oracle.next_session_after(Timestamp(0)), Some(s(10, 20)));
        assert_eq!(oracle.next_session_after(Timestamp(10)), Some(s(50, 60)));
        assert_eq!(oracle.next_session_after(Timestamp(25)), Some(s(50, 60)));
        assert_eq!(oracle.next_session_after(Timestamp(100)), None);
        assert_eq!(oracle.next_session_after(Timestamp(200)), None);
    }

    #[test]
    fn rejects_unordered_or_overlapping_sessions() {
        assert!(OraclePredictor::new(vec![s(50, 60), s(10, 20)]).is_err());
        assert!(OraclePredictor::new(vec![s(10, 20), s(20, 30)]).is_err());
        assert!(OraclePredictor::new(vec![s(10, 20), s(15, 30)]).is_err());
        assert!(OraclePredictor::new(vec![]).is_ok());
    }

    #[test]
    fn trait_impl_maps_sessions_to_predictions() {
        let mut oracle = OraclePredictor::new(vec![s(10, 20)]).unwrap();
        let pred = oracle
            .predict(&HistoryTable::default(), Timestamp(0))
            .unwrap()
            .unwrap();
        assert_eq!(pred.start, Timestamp(10));
        assert_eq!(pred.end, Timestamp(20));
        assert_eq!(pred.confidence, 1.0);
        assert_eq!(oracle.name(), "oracle");
    }
}
