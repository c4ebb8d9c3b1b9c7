//! An allocation guard on the shard event loop.
//!
//! Once a fleet is warm — histories at their trimmed size, the queue's
//! run-time lane at its working depth, telemetry's buffers grown — a
//! loop event should mostly touch memory it already owns.  What still
//! allocates is the history store (a view column growing now and then)
//! and the amortised growth of the telemetry's per-minute window series
//! — the cells run the default `TelemetryMode::Summary`, which keeps no
//! event log (the same counts, to the allocation, as when they ran
//! `TelemetryMode::Full` and its log grew instead: 2 036 in 50 014
//! events reactive, 5 859 in 45 795 proactive); what must not
//! come back is an allocation *per event*: a `Vec` built for every
//! engine reply, a hash map node per lookup.  Before replies were values
//! and databases were slots the second half of these runs made 25 192
//! allocations in 50 014 events (reactive, 0.50 per event) and 30 388 in
//! 45 795 (proactive, 0.66).  The counts are deterministic, so a bound
//! of one in three is tight enough to catch either coming back.
//!
//! The default (`StorageBackend::BTree`) table is its sorted view and
//! nothing else, one row column, and makes 0.020 (reactive: 1 019
//! allocations in 50 014 events) and 0.106 (proactive: 4 842 in 45 795)
//! allocations per event.  It made 0.041 and 0.128 while the view kept
//! a login column beside its rows (1 017 more in each run: that column's
//! first reserves), 0.108 and 0.201 while the view kept parallel key and
//! value columns that regrew 4 → 8 → 16 one insert at a time (a view's
//! first insert now reserves a 16-row block), and 0.16 and 0.26 while
//! every row was also written into a per-database B+Tree (leaf splits,
//! a trim's temporary key list).  The two tighter cells below (< 0.04,
//! < 0.125) sit about 0.02 above the current counts, so they fail by
//! name when a second per-row structure, a column regrowing row by row
//! or a per-event queue allocation comes back.
//!
//! The table keeping its mutation log (`StorageBackend::Lsm`) gets its
//! own two cells.  When a mutation was written
//! three times — a `BTreeMap` entry with a `Vec` per key, an encoded WAL
//! record, a timeline pair — those halves made 0.77 (reactive) and 0.92
//! (proactive) allocations per event; with one log record per mutation
//! but runs flushed and merged beneath it, 0.17 and 0.27.  As the view
//! plus its append-only log they make 0.058 and 0.147: the view's figure
//! plus the log's amortised growth (0.079 and 0.169 while the view kept
//! its login column, 0.146 and 0.243 before the view's row column).
//! The bars (< 0.08, < 0.165) sit about 0.02 above that, so a run
//! hierarchy, a per-key `Vec`, a node-allocating map or a second
//! per-mutation buffer coming back crosses them.
//!
//! The byte cells count bytes, not allocations.  The first is the heap
//! a one-shard driver holds once 3 000 databases with empty traces are
//! registered.  It reads 1 105 400 B (368.5 per database; 392.5 while
//! the history view's login column put 24 B more in every engine, 400.5
//! while the engine carried a pointer to a decision log and a flag
//! beside it).  While the fleet kept its own id column and dense
//! id→slot map beside `sys.databases`' id column and hashed id→row map,
//! it read 1 330 120 B (443.4).  The bar sits 3 B per database above the
//! count, below the 4 B a second dense id map costs and the 8 B of a
//! second id column.
//!
//! The second is the heap the same driver holds after a whole proactive
//! run: 1 000 EU1 databases (seed 42) for 36 days, observability off,
//! so every history has passed its 28-day fill.  It reads 7 822 664 B
//! (7 823 per database), and read 8 161 864 B (8 162) while the view
//! kept each login twice, once in its rows and once in a login column
//! beside them.  Its bar is also 3 B per database above the count, so a
//! second per-tuple column, or a history block reserved larger, fails
//! it by name.
//!
//! The last two cells run with decision capture on
//! (`ObsConfig::on().with_explain()`).  A decision rides the engine's
//! reply into its trace record, so capture costs a registered database
//! nothing: the same 1 105 400 B as with it off.  While each engine
//! boxed a log for its decisions (64 B) and was 8 B larger for the
//! pointer, the same registration read 1 393 400 B (464.5 per
//! database).  The warm loop with capture on makes 4 845 allocations in
//! 45 795 events (0.106 per event), three more than with observability
//! off — the span trace's amortised growth; it made 5 862 (0.128) while
//! the view kept its login column.  The log's inline first slot meant
//! no decision ever spilled to the heap, and the latest-decision column
//! only grows when a slot first decides.  Its bar (< 0.125) fails when a
//! decision, or the shard's bookkeeping of one, allocates per event.

use prorp_sim::{ObsConfig, ShardDriver, SimConfig, SimPolicy, StorageBackend};
use prorp_types::{DatabaseId, PolicyConfig, Timestamp};
use prorp_workload::{RegionName, RegionProfile, Trace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by this thread (each test runs on its own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed (wrapping: a
    /// block freed on another thread than the one that allocated it
    /// skews both threads' tallies, so only a difference taken on one
    /// thread means anything).
    static LIVE_BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(allocated: usize, freed: usize) {
    LIVE_BYTES.with(|b| b.set(b.get().wrapping_add(allocated).wrapping_sub(freed)));
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which neither allocate nor
// run a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DAY: i64 = 86_400;

/// Heap allocations per loop event over days 4–8 of a 3 000-database,
/// 8-day, one-shard run (observability off).
fn second_half_allocations_per_event(policy: SimPolicy, backend: StorageBackend) -> f64 {
    second_half_allocations_per_event_observed(policy, backend, ObsConfig::off())
}

/// [`second_half_allocations_per_event`] under the observability
/// configuration `obs`.
fn second_half_allocations_per_event_observed(
    policy: SimPolicy,
    backend: StorageBackend,
    obs: ObsConfig,
) -> f64 {
    let (start, mid, end) = (Timestamp(0), Timestamp(4 * DAY), Timestamp(8 * DAY));
    let cfg = SimConfig::builder(policy, start, end, start)
        .storage_backend(backend)
        .observe(obs)
        .build()
        .unwrap();
    let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(3_000, start, end, 7);
    let mut driver = ShardDriver::new(&cfg, 0, traces.len()).unwrap();
    for trace in &traces {
        driver.register(trace).unwrap();
    }
    driver.start();
    driver.step_until(mid).unwrap();
    let (events, allocations) = (driver.events_processed(), ALLOCATIONS.with(Cell::get));
    driver.run_to_end().unwrap();
    let events = driver.events_processed() - events;
    let allocations = ALLOCATIONS.with(Cell::get) - allocations;
    assert!(events > 30_000, "a real second half: {events} events");
    allocations as f64 / events as f64
}

#[test]
fn a_warm_reactive_loop_allocates_less_than_once_per_three_events() {
    let per_event = second_half_allocations_per_event(SimPolicy::Reactive, StorageBackend::BTree);
    assert!(
        per_event < 1.0 / 3.0,
        "{per_event:.3} allocations per event"
    );
}

#[test]
fn a_warm_proactive_loop_allocates_less_than_once_per_three_events() {
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let per_event = second_half_allocations_per_event(policy, StorageBackend::BTree);
    assert!(
        per_event < 1.0 / 3.0,
        "{per_event:.3} allocations per event"
    );
}

#[test]
fn a_warm_reactive_loop_writes_each_history_row_once() {
    let per_event = second_half_allocations_per_event(SimPolicy::Reactive, StorageBackend::BTree);
    assert!(per_event < 0.04, "{per_event:.3} allocations per event");
}

#[test]
fn a_warm_proactive_loop_writes_each_history_row_once() {
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let per_event = second_half_allocations_per_event(policy, StorageBackend::BTree);
    assert!(per_event < 0.125, "{per_event:.3} allocations per event");
}

#[test]
fn a_warm_reactive_lsm_loop_allocates_less_than_once_per_two_events() {
    let per_event = second_half_allocations_per_event(SimPolicy::Reactive, StorageBackend::Lsm);
    assert!(per_event < 0.08, "{per_event:.3} allocations per event");
}

#[test]
fn a_warm_proactive_lsm_loop_allocates_less_than_once_per_two_events() {
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let per_event = second_half_allocations_per_event(policy, StorageBackend::Lsm);
    assert!(per_event < 0.165, "{per_event:.3} allocations per event");
}

/// Databases the byte cell registers.
const DBS: usize = 3_000;

/// Live heap bytes held by a one-shard driver, built and then handed
/// `DBS` databases with empty traces (as the live server registers
/// them), proactive policy, under the observability configuration `obs`.
fn registered_bytes(obs: ObsConfig) -> usize {
    let (start, end) = (Timestamp(0), Timestamp(8 * DAY));
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let cfg = SimConfig::builder(policy, start, end, start)
        .observe(obs)
        .build()
        .unwrap();
    let traces: Vec<Trace> = (0..DBS as u64)
        .map(|id| Trace::new(DatabaseId(id), "empty", Vec::new()).unwrap())
        .collect();
    let before = LIVE_BYTES.with(Cell::get);
    let mut driver = ShardDriver::new(&cfg, 0, traces.len()).unwrap();
    for trace in &traces {
        driver.register(trace).unwrap();
    }
    let live = LIVE_BYTES.with(Cell::get).wrapping_sub(before);
    drop(driver);
    live
}

#[test]
fn registering_a_database_keeps_one_id_column_and_one_id_map() {
    // 368.5 B per database, in debug and release builds alike.
    let pinned = 1_105_400;
    let bytes = registered_bytes(ObsConfig::off());
    assert!(
        bytes <= pinned + 3 * DBS,
        "{bytes} live bytes for {DBS} databases, pinned at {pinned}"
    );
}

/// Decision capture on, with the span trace it requires.
fn explain() -> ObsConfig {
    ObsConfig::on().with_explain()
}

#[test]
fn a_warm_explaining_loop_allocates_nothing_per_decision() {
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let per_event =
        second_half_allocations_per_event_observed(policy, StorageBackend::BTree, explain());
    assert!(per_event < 0.125, "{per_event:.3} allocations per event");
}

#[test]
fn capturing_decisions_allocates_nothing_per_database() {
    let bytes = registered_bytes(explain());
    assert_eq!(
        bytes,
        registered_bytes(ObsConfig::off()),
        "live bytes for {DBS} databases with capture on and off"
    );
    let pinned = 1_105_400;
    assert!(
        bytes <= pinned + 3 * DBS,
        "{bytes} live bytes for {DBS} databases, pinned at {pinned}"
    );
}

/// Databases and days of the whole-run byte cell.
const RUN_DBS: usize = 1_000;
const RUN_DAYS: i64 = 36;

/// Live heap bytes a one-shard proactive driver holds after running
/// `RUN_DBS` EU1 databases (seed 42) for `RUN_DAYS` days to the end,
/// observability off: what a database costs once its 28-day history
/// has filled.
fn whole_run_bytes() -> usize {
    let (start, end) = (Timestamp(0), Timestamp(RUN_DAYS * DAY));
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let cfg = SimConfig::builder(policy, start, end, start)
        .build()
        .unwrap();
    let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(RUN_DBS, start, end, 42);
    let before = LIVE_BYTES.with(Cell::get);
    let mut driver = ShardDriver::new(&cfg, 0, traces.len()).unwrap();
    for trace in &traces {
        driver.register(trace).unwrap();
    }
    driver.start();
    driver.run_to_end().unwrap();
    let live = LIVE_BYTES.with(Cell::get).wrapping_sub(before);
    drop(driver);
    live
}

#[test]
fn a_whole_run_keeps_each_history_tuple_once() {
    // 7 823 B per database, in debug and release builds alike.
    let pinned = 7_822_664;
    let bytes = whole_run_bytes();
    assert!(
        bytes <= pinned + 3 * RUN_DBS,
        "{bytes} live bytes for {RUN_DBS} databases after {RUN_DAYS} days, pinned at {pinned}"
    );
}
