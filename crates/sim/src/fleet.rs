//! Struct-of-arrays fleet state for million-database shards.
//!
//! The original per-shard layout held one `DbSim` struct per database
//! with a `Box<dyn DatabasePolicy>` inside — a million heap allocations
//! per shard, each a pointer chase away, plus a `HashMap<DatabaseId,
//! usize>` lookup on every event.  At paper scale (§9 runs hundreds of
//! thousands of databases per region) allocator traffic and cache
//! misses dominate the event loop, so this module stores the same state
//! as parallel arrays:
//!
//! * `EngineArena` (crate-internal) — one homogeneous `Vec` of concrete engines.  The
//!   policy is uniform across a run (`SimConfig::policy` plus the
//!   predictor/fault knobs), so the dynamic dispatch the boxes paid for
//!   on *every event* collapses into one enum discriminant chosen at
//!   startup; engines sit contiguously in memory in shard-trace order.
//! * [`SegmentBook`] — each database's open §8 segment (16 bytes) and
//!   the shard's one per-kind total of measured time.
//!
//! The column index is the database's *slot*.  `ShardDriver::register`
//! pushes a database here, places it on the
//! [`Cluster`](crate::cluster::Cluster) (home-node column, allocated
//! bit) and writes its `sys.databases` row (`MetadataStore`) in the
//! same breath, and all three number in arrival order.  The store is
//! the shard's one record of which database sits at which slot — its id
//! column and its id→row lookup — so the row an event's id resolves to
//! once addresses every column here, the cluster's, the driver's
//! in-flight resume book and the observability layer's latest-decision
//! column, with no second lookup.  Nothing in this module is keyed by
//! `DatabaseId`.
//!
//! Whether a database is serving a session is not a column here: the
//! engine's activity tracker holds the open session's login, and
//! [`DatabasePolicy::serving`] reads it.
//!
//! Determinism is untouched by the layout change: the arena preserves
//! shard-trace order, and no operation here consults anything but its
//! arguments.
//! The testkit shard-invariance oracle (bit-identical KPIs at any shard
//! count) is the regression net proving it.

use crate::config::{SimConfig, SimPolicy};
use prorp_core::{DatabasePolicy, OptimalEngine, ProactiveEngine, ReactiveEngine};
use prorp_forecast::{
    FailEvery, IncrementalPredictor, Predictor, ProbabilisticPredictor, SharedKnobs,
};
use prorp_storage::StorageBackend;
use prorp_telemetry::{SegmentBook, SegmentKind};
use prorp_types::ProrpError;
use prorp_workload::Trace;

/// A fixed-purpose bit vector: one boolean per database at one bit each.
#[derive(Clone, Debug, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty bit set.
    pub(crate) fn new() -> Self {
        BitSet::default()
    }

    /// Append one bit.
    pub(crate) fn push(&mut self, value: bool) {
        if self.len % 64 == 0 {
            self.words.push(0);
        }
        let i = self.len;
        self.len += 1;
        self.set(i, value);
    }

    /// Read bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Write bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }
}

/// One homogeneous arena of policy engines.
///
/// The run's policy/predictor/fault combination picks the variant once;
/// every database's engine then lives inline in one contiguous `Vec`,
/// in shard-trace order.  [`get_mut`](EngineArena::get_mut) still hands
/// the event loop a `&mut dyn DatabasePolicy`, so the loop body is
/// unchanged — the dispatch just happens on one enum discriminant
/// instead of a million boxed vtables.
pub(crate) enum EngineArena {
    /// Reactive baseline engines.
    Reactive(Vec<ReactiveEngine>),
    /// Oracle engines (Figure 2(c) bounding box).
    Optimal(Vec<OptimalEngine>),
    /// Proactive engines on the incremental prediction index.
    Incremental(Vec<ProactiveEngine<IncrementalPredictor>>),
    /// Incremental predictor wrapped in forecast fault injection.
    IncrementalFaulty(Vec<ProactiveEngine<FailEvery<IncrementalPredictor>>>),
    /// Proactive engines on the naive reference predictor.
    Naive(Vec<ProactiveEngine<ProbabilisticPredictor>>),
    /// Naive predictor wrapped in forecast fault injection.
    NaiveFaulty(Vec<ProactiveEngine<FailEvery<ProbabilisticPredictor>>>),
}

impl EngineArena {
    /// An empty arena of the variant `cfg` calls for, pre-sized for
    /// `capacity` engines.
    pub(crate) fn for_config(cfg: &SimConfig, capacity: usize) -> EngineArena {
        let faulty = cfg.fault().forecast_fail_every.is_some();
        match &cfg.policy {
            SimPolicy::Reactive => EngineArena::Reactive(Vec::with_capacity(capacity)),
            SimPolicy::Optimal => EngineArena::Optimal(Vec::with_capacity(capacity)),
            SimPolicy::Proactive(_) => match (cfg.naive_predictor, faulty) {
                (false, false) => EngineArena::Incremental(Vec::with_capacity(capacity)),
                (false, true) => EngineArena::IncrementalFaulty(Vec::with_capacity(capacity)),
                (true, false) => EngineArena::Naive(Vec::with_capacity(capacity)),
                (true, true) => EngineArena::NaiveFaulty(Vec::with_capacity(capacity)),
            },
        }
    }

    /// Number of engines in the arena.
    pub(crate) fn len(&self) -> usize {
        match self {
            EngineArena::Reactive(v) => v.len(),
            EngineArena::Optimal(v) => v.len(),
            EngineArena::Incremental(v) => v.len(),
            EngineArena::IncrementalFaulty(v) => v.len(),
            EngineArena::Naive(v) => v.len(),
            EngineArena::NaiveFaulty(v) => v.len(),
        }
    }

    /// Build and append the engine for `trace`, exactly as the old boxed
    /// `build_engine` did (same constructors, same fault wrapping).  A
    /// proactive engine and its predictor both point at `knobs`, the
    /// shard's one copy of the run's knobs.
    pub(crate) fn push(
        &mut self,
        cfg: &SimConfig,
        trace: &Trace,
        knobs: &SharedKnobs,
    ) -> Result<(), ProrpError> {
        let fail_every = || {
            let n = cfg.fault().forecast_fail_every;
            u64::from(n.expect("faulty variant requires forecast_fail_every"))
        };
        let backend = cfg.storage_backend;
        match self {
            EngineArena::Reactive(v) => {
                // The baseline pauses and trims on Table 1's `l` and `h`.
                let table1 = knobs.config();
                v.push(ReactiveEngine::with_backend(
                    table1.logical_pause,
                    table1.history_len,
                    backend,
                )?);
            }
            EngineArena::Optimal(v) => {
                v.push(OptimalEngine::with_backend(
                    trace.sessions.clone(),
                    backend,
                )?);
            }
            EngineArena::Incremental(v) => {
                let predictor = IncrementalPredictor::from(knobs.clone());
                v.push(proactive(knobs, predictor, backend)?);
            }
            EngineArena::IncrementalFaulty(v) => {
                let predictor = IncrementalPredictor::from(knobs.clone());
                v.push(proactive(
                    knobs,
                    FailEvery::new(predictor, fail_every()),
                    backend,
                )?);
            }
            EngineArena::Naive(v) => {
                let predictor = ProbabilisticPredictor::from(knobs.clone());
                v.push(proactive(knobs, predictor, backend)?);
            }
            EngineArena::NaiveFaulty(v) => {
                let predictor = ProbabilisticPredictor::from(knobs.clone());
                v.push(proactive(
                    knobs,
                    FailEvery::new(predictor, fail_every()),
                    backend,
                )?);
            }
        }
        Ok(())
    }

    /// Engine `i` as a policy trait object (single enum dispatch).
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut dyn DatabasePolicy {
        match self {
            EngineArena::Reactive(v) => &mut v[i],
            EngineArena::Optimal(v) => &mut v[i],
            EngineArena::Incremental(v) => &mut v[i],
            EngineArena::IncrementalFaulty(v) => &mut v[i],
            EngineArena::Naive(v) => &mut v[i],
            EngineArena::NaiveFaulty(v) => &mut v[i],
        }
    }

    /// Engine `i`, read-only.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &dyn DatabasePolicy {
        match self {
            EngineArena::Reactive(v) => &v[i],
            EngineArena::Optimal(v) => &v[i],
            EngineArena::Incremental(v) => &v[i],
            EngineArena::IncrementalFaulty(v) => &v[i],
            EngineArena::Naive(v) => &v[i],
            EngineArena::NaiveFaulty(v) => &v[i],
        }
    }
}

/// A proactive engine over `predictor` that shares the predictor's
/// `knobs`.
fn proactive<P: Predictor>(
    knobs: &SharedKnobs,
    predictor: P,
    backend: StorageBackend,
) -> Result<ProactiveEngine<P>, ProrpError> {
    ProactiveEngine::with_backend(*knobs.config(), predictor, *knobs.breaker(), backend)
}

/// All per-database state of one shard, struct-of-arrays.
///
/// Fields are `pub(crate)` so the event loop can borrow different
/// columns (`engines` and `segments` mutably) without fighting a
/// struct-level borrow.
pub(crate) struct FleetState {
    /// Policy engines in shard-trace order.
    pub(crate) engines: EngineArena,
    /// §8 segment book: each database's open segment, same order, and
    /// the shard's totals over `[measure_from, end)`.
    pub(crate) segments: SegmentBook,
}

impl FleetState {
    /// An empty fleet for `cfg`, pre-sized for about `capacity`
    /// databases.
    pub(crate) fn with_capacity(cfg: &SimConfig, capacity: usize) -> FleetState {
        FleetState {
            engines: EngineArena::for_config(cfg, capacity),
            segments: SegmentBook::with_capacity(cfg.measure_from..cfg.end, capacity),
        }
    }

    /// Number of databases.
    pub(crate) fn len(&self) -> usize {
        self.engines.len()
    }

    /// Append one database: build its engine, open its first segment in
    /// [`SegmentKind::Saved`] at `cfg.start` (§2.1: a new serverless
    /// database starts paused from the fleet's perspective).  Returns the
    /// database's column index.
    pub(crate) fn push(
        &mut self,
        cfg: &SimConfig,
        trace: &Trace,
        knobs: &SharedKnobs,
    ) -> Result<usize, ProrpError> {
        let idx = self.engines.len();
        self.engines.push(cfg, trace, knobs)?;
        self.segments.open(cfg.start, SegmentKind::Saved);
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BitSet {
        fn len(&self) -> usize {
            self.len
        }

        fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    #[test]
    fn bitset_round_trips_bits_across_word_boundaries() {
        let mut bits = BitSet::new();
        for i in 0..130 {
            bits.push(i % 3 == 0);
        }
        assert_eq!(bits.len(), 130);
        for i in 0..130 {
            assert_eq!(bits.get(i), i % 3 == 0, "bit {i}");
        }
        bits.set(64, true);
        bits.set(63, false);
        assert!(bits.get(64));
        assert!(!bits.get(63));
        assert!(BitSet::new().is_empty());
        assert!(!bits.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bitset_bounds_are_checked() {
        let bits = BitSet::new();
        let _ = bits.get(0);
    }

    /// The reply contract, on every arm an arena builds: what an
    /// engine's `on_event` returns is what its `react` appends to a fresh
    /// reply, actions and decision alike, and `react` into a reply that
    /// already holds an entry keeps it in front.  Three twins of each
    /// engine, decision capture on, take the same seeded event sequences:
    /// logins, logouts, the live timer and a stale one, pre-warms and
    /// forced pauses, hours to a day apart.
    #[test]
    fn react_appends_what_on_event_returns_on_every_arm() {
        use prorp_core::{Actions, EngineAction, EngineEvent, TimerToken};
        use prorp_forecast::{ConfidenceBasis, Knobs, SweepScratch};
        use prorp_types::{PolicyConfig, Seconds, Timestamp};
        use prorp_workload::{RegionName, RegionProfile};
        const DAY: i64 = 86_400;
        const GAPS: [i64; 6] = [0, 60, 900, 3_600, 7 * 3_600, DAY];
        // The caller's reply is written in place, not copied out; its
        // size is unchanged.
        assert_eq!(std::mem::size_of::<Actions>(), 136);
        let (start, end) = (Timestamp(0), Timestamp(60 * DAY));
        let proactive = || SimPolicy::Proactive(PolicyConfig::default());
        let arms = [
            ("reactive", SimPolicy::Reactive, false, false),
            ("incremental", proactive(), false, false),
            ("incremental-faulty", proactive(), false, true),
            ("naive", proactive(), true, false),
            ("naive-faulty", proactive(), true, true),
            ("optimal", SimPolicy::Optimal, false, false),
        ];
        let held = EngineAction::ScheduleTimer(Timestamp(-1), TimerToken(0));
        for (name, policy, naive, faulty) in arms {
            let mut builder = SimConfig::builder(policy, start, end, start).naive_predictor(naive);
            if faulty {
                builder = builder.forecast_fail_every(3);
            }
            let cfg = builder.build().unwrap();
            let knobs = Knobs::shared(
                cfg.policy.config(),
                cfg.fault().breaker,
                ConfidenceBasis::Windows,
                SweepScratch::shared(),
            )
            .unwrap();
            let (mut actions, mut decisions) = (0, 0);
            for seed in 0..24u64 {
                let trace = RegionProfile::for_region(RegionName::Eu1)
                    .generate_fleet(1, start, end, seed)
                    .remove(0);
                let mut arena = EngineArena::for_config(&cfg, 3);
                let built = match &arena {
                    EngineArena::Reactive(_) => "reactive",
                    EngineArena::Incremental(_) => "incremental",
                    EngineArena::IncrementalFaulty(_) => "incremental-faulty",
                    EngineArena::Naive(_) => "naive",
                    EngineArena::NaiveFaulty(_) => "naive-faulty",
                    EngineArena::Optimal(_) => "optimal",
                };
                assert_eq!(built, name);
                for twin in 0..3 {
                    arena.push(&cfg, &trace, &knobs).unwrap();
                    arena.get_mut(twin).set_explain_enabled(true);
                }
                let mut rng = seed;
                let mut draw = |n: u64| {
                    rng = rand::splitmix64(rng);
                    rng % n
                };
                let (mut now, mut live) = (start, None);
                for _ in 0..160 {
                    now += Seconds(GAPS[draw(6) as usize]);
                    let event = match draw(10) {
                        0..=2 => EngineEvent::ActivityStart,
                        3..=5 => EngineEvent::ActivityEnd,
                        6 => match live.take() {
                            Some((at, token)) => {
                                now = now.max(at);
                                EngineEvent::Timer(token)
                            }
                            None => continue,
                        },
                        7 => EngineEvent::Timer(TimerToken(u64::MAX)),
                        8 => EngineEvent::ProactiveResume,
                        _ => EngineEvent::ForcedPause,
                    };
                    let at = format!("{name}, seed {seed}: {event:?} at {now}");
                    let returned = arena.get_mut(0).on_event(now, event);
                    let mut fresh = Actions::new();
                    arena.get_mut(1).react(now, event, &mut fresh);
                    assert_eq!(fresh, returned, "{at}");
                    let mut reply = Actions::new();
                    reply.push(held);
                    arena.get_mut(2).react(now, event, &mut reply);
                    assert_eq!(reply.first(), Some(&held), "{at}: the held entry stays");
                    assert_eq!(&reply[1..], returned.as_slice(), "{at}");
                    assert_eq!(reply.decision(), returned.decision(), "{at}");
                    for action in returned {
                        if let EngineAction::ScheduleTimer(due, token) = action {
                            live = Some((due, token));
                        }
                    }
                    actions += returned.len();
                    decisions += usize::from(returned.decision().is_some());
                }
            }
            assert!(actions > 0, "{name}: the sequences drew actions");
            if matches!(cfg.policy, SimPolicy::Proactive(_)) {
                assert!(decisions > 0, "{name}: the sequences drew decisions");
            }
        }
    }
}
