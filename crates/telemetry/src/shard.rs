//! Per-shard execution counters for the sharded fleet simulation.
//!
//! When the simulator partitions the fleet across worker threads (one
//! event loop per shard), each worker reports how much work it did and
//! how long it took.  These counters are *operational* telemetry about
//! the simulator itself — wall-clock time, events processed, scan
//! iterations — not simulated-world telemetry (that lives in
//! [`TelemetryLog`](crate::TelemetryLog)); they feed `scale_bench` and
//! the ledger and let a run's progress be attributed to individual
//! shards.

use std::fmt;
use std::time::Duration;

/// What one shard worker did during a simulation run.
///
/// Equality deliberately ignores the wall-clock fields
/// ([`wall_clock_micros`](Self::wall_clock_micros) and the phase
/// breakdown below it): two runs that did identical simulated work
/// compare equal even though their timings differ, so determinism
/// assertions can compare whole reports without special casing the
/// volatile fields.  The wall clocks still surface for operators as the
/// `sim_self_*` gauges in observability snapshots and in the
/// `scale_bench` per-shard breakdown.
#[derive(Clone, Copy, Eq, Debug, Default)]
pub struct ShardCounters {
    /// Shard index in `[0, shard_count)`.
    pub shard: usize,
    /// Databases assigned to this shard by id-hash.
    pub databases: usize,
    /// Simulation events the shard's event loop processed.
    pub events_processed: u64,
    /// Algorithm 5 scan iterations the shard ran.
    pub resume_scans: u64,
    /// Telemetry records the shard emitted.
    pub telemetry_events: u64,
    /// Wall-clock time of the shard's event loop, in microseconds.
    ///
    /// Stored as an integer so the struct stays `Copy + Eq`; use
    /// [`wall_clock`](Self::wall_clock) for a [`Duration`] view.
    /// Volatile: excluded from equality, like the whole phase breakdown
    /// below.
    pub wall_clock_micros: u64,
    /// Wall-clock micros of the registration phase (engine
    /// construction, trace-event seeding).  Volatile.
    pub register_micros: u64,
    /// Wall-clock micros of the event-loop phase (registration end to
    /// `finish()` start).  Volatile.
    pub run_micros: u64,
    /// Wall-clock micros spent closing the books in `finish()`
    /// (invariant audits, stats collection, report assembly).  Volatile.
    pub finish_micros: u64,
    /// Micros the shard's mutation paths spent compacting LSM histories
    /// (0 on the B+Tree backend).  Volatile.
    pub compaction_stall_micros: u64,
    /// Always 0: compaction runs inline, so none is offloaded.  Kept
    /// only because the benchmark (`crates/ledger`) reads it; ROADMAP
    /// item 2 deletes it.
    pub offloaded_compaction_micros: u64,
    /// The most events the loop's run-time queue lane ever held (timers,
    /// workflow stages, ticks, injected activity — not recorded
    /// sessions).  Describes how a driver fed the loop, not the
    /// simulated world: a live driver injects what the DES records, so
    /// the two differ on identical runs.  Excluded from equality.
    pub queue_peak: usize,
}

impl PartialEq for ShardCounters {
    fn eq(&self, other: &Self) -> bool {
        // The wall-clock fields (total + phase breakdown + compaction
        // timings) and `queue_peak` are volatile (they measure the
        // simulator process, not the simulated world) and are excluded
        // on purpose.
        self.shard == other.shard
            && self.databases == other.databases
            && self.events_processed == other.events_processed
            && self.resume_scans == other.resume_scans
            && self.telemetry_events == other.telemetry_events
    }
}

impl ShardCounters {
    /// Fresh counters for shard `shard` owning `databases` databases.
    pub fn new(shard: usize, databases: usize) -> Self {
        ShardCounters {
            shard,
            databases,
            ..ShardCounters::default()
        }
    }

    /// Wall-clock time of the shard's event loop.
    pub fn wall_clock(&self) -> Duration {
        Duration::from_micros(self.wall_clock_micros)
    }

    /// Record the measured event-loop duration.
    pub fn set_wall_clock(&mut self, elapsed: Duration) {
        self.wall_clock_micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
    }

    /// Event-loop throughput in events per wall-clock second (0 when no
    /// time was recorded).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_clock_micros == 0 {
            return 0.0;
        }
        self.events_processed as f64 * 1e6 / self.wall_clock_micros as f64
    }
}

impl fmt::Display for ShardCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {}: {} dbs, {} events, {} scans in {:.3}s ({:.0} events/s)",
            self.shard,
            self.databases,
            self.events_processed,
            self.resume_scans,
            self.wall_clock_micros as f64 / 1e6,
            self.events_per_sec()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_events_over_wall_clock() {
        let mut c = ShardCounters::new(3, 10);
        assert_eq!(c.shard, 3);
        assert_eq!(c.databases, 10);
        assert_eq!(c.events_per_sec(), 0.0, "no division by zero");
        c.events_processed = 2_000;
        c.set_wall_clock(Duration::from_millis(500));
        assert_eq!(c.wall_clock(), Duration::from_millis(500));
        assert!((c.events_per_sec() - 4_000.0).abs() < 1e-6);
    }

    #[test]
    fn equality_ignores_the_wall_clock() {
        let mut a = ShardCounters::new(0, 4);
        a.events_processed = 100;
        a.set_wall_clock(Duration::from_millis(250));
        let mut b = a;
        b.set_wall_clock(Duration::from_millis(900));
        b.register_micros = 11;
        b.run_micros = 22;
        b.finish_micros = 33;
        b.compaction_stall_micros = 44;
        b.offloaded_compaction_micros = 55;
        b.queue_peak = 66;
        assert_eq!(
            a, b,
            "wall clock and phase breakdown must not break determinism equality"
        );
        b.events_processed = 101;
        assert_ne!(a, b, "simulated work still distinguishes");
    }

    #[test]
    fn display_mentions_shard_and_throughput() {
        let mut c = ShardCounters::new(1, 5);
        c.events_processed = 100;
        c.set_wall_clock(Duration::from_secs(1));
        let s = c.to_string();
        assert!(s.contains("shard 1"), "{s}");
        assert!(s.contains("100 events/s"), "{s}");
    }
}
