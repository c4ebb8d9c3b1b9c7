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
//! * [`DbIndexMap`] — the `DbId → index` map.  Generated fleets use
//!   dense ids, so the map is a flat `Vec<u32>` indexed by raw id
//!   (sentinel [`u32::MAX`] = absent) with an automatic spill to a
//!   `HashMap` when ids turn out sparse.
//! * [`BitSet`] — one bit per database for the `demand` flag instead
//!   of one byte inside a padded struct.
//!
//! The column index is the database's *slot*, and this module is only
//! the first of its three owners.  `ShardDriver::register` pushes a
//! database here, places it on the [`Cluster`](crate::cluster::Cluster)
//! (home-node column, allocated bit) and writes its `sys.databases` row
//! (`MetadataStore`: row and id columns) in the same breath, and all
//! three number in arrival order — so the index `index_of` resolves once
//! per event addresses every one of them, plus the column of the
//! driver's in-flight resume book and the observability layer's
//! latest-decision column, with no second lookup.
//!
//! Determinism is untouched by the layout change: the arena preserves
//! shard-trace order, the index map is a pure function of the inserted
//! ids, and no operation here consults anything but its arguments.
//! The testkit shard-invariance oracle (bit-identical KPIs at any shard
//! count) is the regression net proving it.

use crate::config::{SimConfig, SimPolicy};
#[cfg(feature = "strict-invariants")]
use prorp_core::LifecycleInvariants;
use prorp_core::{DatabasePolicy, OptimalEngine, ProactiveEngine, ReactiveEngine};
use prorp_forecast::{
    FailEvery, IncrementalPredictor, Predictor, ProbabilisticPredictor, SharedKnobs,
};
use prorp_storage::StorageBackend;
use prorp_telemetry::{SegmentAccumulator, SegmentKind};
use prorp_types::{DatabaseId, ProrpError};
use prorp_workload::Trace;
use std::collections::HashMap;

/// Absent-entry sentinel in the dense index vector.
const SENTINEL: u32 = u32::MAX;

/// A `DatabaseId → dense index` map specialised for mostly-dense ids.
///
/// Generated fleets number their databases `0..n`, so a shard's ids —
/// an id-hash partition of that range — fit a flat `Vec<u32>` keyed by
/// raw id with a small constant factor of waste.  Ids that stray far
/// beyond the dense range (hand-built fleets, external id spaces) make
/// the map migrate every entry into a `HashMap` once and stay there.
/// Lookups are a bounds check plus one array read on the dense path.
#[derive(Clone, Debug, Default)]
pub struct DbIndexMap {
    dense: Vec<u32>,
    sparse: HashMap<DatabaseId, u32>,
    len: usize,
}

impl DbIndexMap {
    /// An empty map (dense until proven sparse).
    pub fn new() -> Self {
        DbIndexMap::default()
    }

    /// An empty map expecting about `capacity` databases.
    pub fn with_capacity(capacity: usize) -> Self {
        DbIndexMap {
            dense: Vec::with_capacity(capacity),
            sparse: HashMap::new(),
            len: 0,
        }
    }

    /// Number of mapped databases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no database is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw-id ceiling below which an id keeps the map dense: a shard of
    /// an id-hashed `0..n` fleet holds roughly `n / shards` entries with
    /// raw ids up to `n`, so the dense vector is allowed to be a wide
    /// multiple of the entry count before spilling.
    fn dense_limit(&self) -> u64 {
        32 * (self.len as u64 + 1) + 1024
    }

    /// Map `id` to `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` does not fit the `u32` storage (the per-shard
    /// fleet would have to exceed ~4.29 billion databases) or when `id`
    /// is already mapped.
    pub fn insert(&mut self, id: DatabaseId, index: usize) {
        let slot = u32::try_from(index).expect("shard fleet exceeds u32 index space");
        assert!(slot != SENTINEL, "index u32::MAX is reserved");
        if self.sparse.is_empty() {
            let raw = id.raw();
            if raw < self.dense_limit() {
                let at = raw as usize;
                if at >= self.dense.len() {
                    self.dense.resize(at + 1, SENTINEL);
                }
                assert!(self.dense[at] == SENTINEL, "database {id} mapped twice");
                self.dense[at] = slot;
                self.len += 1;
                return;
            }
            // Sparse ids: migrate the dense prefix into the hash map and
            // stay sparse from here on.
            self.sparse.reserve(self.len + 1);
            for (raw, &v) in self.dense.iter().enumerate() {
                if v != SENTINEL {
                    self.sparse.insert(DatabaseId(raw as u64), v);
                }
            }
            self.dense = Vec::new();
        }
        let prev = self.sparse.insert(id, slot);
        assert!(prev.is_none(), "database {id} mapped twice");
        self.len += 1;
    }

    /// The dense index of `id`, if mapped.
    #[inline]
    pub fn get(&self, id: DatabaseId) -> Option<usize> {
        if self.sparse.is_empty() {
            let raw = id.raw();
            if (raw as usize) < self.dense.len() && self.dense[raw as usize] != SENTINEL {
                return Some(self.dense[raw as usize] as usize);
            }
            return None;
        }
        self.sparse.get(&id).map(|&v| v as usize)
    }

    /// Whether the map spilled to the sparse (hash) representation.
    pub fn is_sparse(&self) -> bool {
        !self.sparse.is_empty()
    }
}

/// A fixed-purpose bit vector: one boolean per database at one bit each.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty bit set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// An empty bit set with room for `capacity` bits.
    pub fn with_capacity(capacity: usize) -> Self {
        BitSet {
            words: Vec::with_capacity(capacity.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, value: bool) {
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
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds (len {})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Write bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
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
/// columns (`engines` mutably, `accs` mutably, `demand` read) without
/// fighting a struct-level borrow.
pub(crate) struct FleetState {
    /// Database ids in shard-trace order.
    pub(crate) ids: Vec<DatabaseId>,
    /// Policy engines, same order.
    pub(crate) engines: EngineArena,
    /// §8 segment accumulators, same order.
    pub(crate) accs: Vec<SegmentAccumulator>,
    /// Whether a customer session is currently active.
    pub(crate) demand: BitSet,
    /// Observational lifecycle checkers (strict-invariants builds only).
    #[cfg(feature = "strict-invariants")]
    pub(crate) shadows: Vec<LifecycleInvariants>,
    /// `DatabaseId → column index` lookup.
    pub(crate) index: DbIndexMap,
}

impl FleetState {
    /// An empty fleet for `cfg`, pre-sized for about `capacity`
    /// databases.
    pub(crate) fn with_capacity(cfg: &SimConfig, capacity: usize) -> FleetState {
        FleetState {
            ids: Vec::with_capacity(capacity),
            engines: EngineArena::for_config(cfg, capacity),
            accs: Vec::with_capacity(capacity),
            demand: BitSet::with_capacity(capacity),
            #[cfg(feature = "strict-invariants")]
            shadows: Vec::with_capacity(capacity),
            index: DbIndexMap::with_capacity(capacity),
        }
    }

    /// Number of databases.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// Append one database: build its engine, open its segment book in
    /// [`SegmentKind::Saved`] at `cfg.start` (§2.1: a new serverless
    /// database starts paused from the fleet's perspective), and map its
    /// id.  Returns the database's column index.
    pub(crate) fn push(
        &mut self,
        cfg: &SimConfig,
        trace: &Trace,
        knobs: &SharedKnobs,
    ) -> Result<usize, ProrpError> {
        let idx = self.ids.len();
        self.engines.push(cfg, trace, knobs)?;
        debug_assert_eq!(self.engines.len(), idx + 1, "columns out of step");
        let mut acc = SegmentAccumulator::new();
        acc.transition(cfg.start, SegmentKind::Saved);
        self.accs.push(acc);
        self.demand.push(false);
        self.index.insert(trace.db, idx);
        self.ids.push(trace.db);
        #[cfg(feature = "strict-invariants")]
        self.shadows.push(LifecycleInvariants::new(
            trace.db,
            cfg.start,
            self.engines.get(idx).state(),
        ));
        Ok(idx)
    }

    /// Column index of `id`, or `None` when the database is not mapped
    /// on this shard — the non-panicking probe external drivers use to
    /// vet operator requests before scheduling events.
    #[inline]
    pub(crate) fn try_index_of(&self, id: DatabaseId) -> Option<usize> {
        self.index.get(id)
    }

    /// Column index of `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` belongs to another shard — an event for a
    /// foreign database is a partitioning bug, not a recoverable state.
    #[inline]
    pub(crate) fn index_of(&self, id: DatabaseId) -> usize {
        self.index
            .get(id)
            .expect("event for a database of another shard")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_stay_in_the_flat_vector() {
        let mut map = DbIndexMap::new();
        for (idx, raw) in [0u64, 7, 3, 1_000].into_iter().enumerate() {
            map.insert(DatabaseId(raw), idx);
        }
        assert_eq!(map.len(), 4);
        assert!(!map.is_sparse());
        assert_eq!(map.get(DatabaseId(3)), Some(2));
        assert_eq!(map.get(DatabaseId(1_000)), Some(3));
        assert_eq!(map.get(DatabaseId(2)), None);
        assert_eq!(map.get(DatabaseId(u64::MAX)), None, "huge probe is safe");
    }

    #[test]
    fn sparse_ids_spill_to_the_hash_map_and_keep_old_entries() {
        let mut map = DbIndexMap::new();
        map.insert(DatabaseId(5), 0);
        map.insert(DatabaseId(0xDEAD_BEEF_DEAD_BEEF), 1);
        assert!(map.is_sparse());
        assert_eq!(map.get(DatabaseId(5)), Some(0), "dense prefix migrated");
        assert_eq!(map.get(DatabaseId(0xDEAD_BEEF_DEAD_BEEF)), Some(1));
        assert_eq!(map.get(DatabaseId(6)), None);
        map.insert(DatabaseId(6), 2);
        assert_eq!(map.get(DatabaseId(6)), Some(2));
        assert_eq!(map.len(), 3);
    }

    #[test]
    #[should_panic(expected = "mapped twice")]
    fn duplicate_ids_are_rejected() {
        let mut map = DbIndexMap::new();
        map.insert(DatabaseId(1), 0);
        map.insert(DatabaseId(1), 1);
    }

    #[test]
    fn bitset_round_trips_bits_across_word_boundaries() {
        let mut bits = BitSet::with_capacity(130);
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
}
