//! Wall-clock time for service mode.
//!
//! The driver itself is clock-free — it only ever sees watermarks.  In
//! wall-clock mode the server takes them from a [`LiveClock`], which
//! maps real elapsed seconds onto the simulated timeline.  In virtual
//! mode there is no clock beside the driver: its watermark moves only on
//! `POST /v1/clock/advance`, which is what makes the differential suite
//! and the `scripts/check.sh` replay gate deterministic.

use prorp_types::Timestamp;
use std::time::Instant;

/// Simulated time that is `origin + wall-clock seconds since anchor`.
pub struct LiveClock {
    /// When the server started (real time).
    anchor: Instant,
    /// The simulated instant the server started at.
    origin: Timestamp,
}

impl LiveClock {
    /// A wall clock mapping "now" to the simulated `origin`.
    pub fn wall(origin: Timestamp) -> Self {
        LiveClock {
            anchor: Instant::now(),
            origin,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.origin.as_secs() + self.anchor.elapsed().as_secs() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_tracks_origin() {
        let c = LiveClock::wall(Timestamp(1_000));
        let now = c.now();
        assert!(now >= Timestamp(1_000));
        assert!(now <= Timestamp(1_010), "wall clock jumped: {now}");
    }
}
