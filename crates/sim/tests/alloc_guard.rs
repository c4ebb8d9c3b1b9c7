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
//! nothing else, and makes 0.041 (reactive) and 0.128 (proactive)
//! allocations per event.  It made 0.108 and 0.201 while the view kept
//! parallel key and value columns that regrew 4 → 8 → 16 one insert at a
//! time (a view's first insert now reserves a 16-row block), and 0.16
//! and 0.26 while every row was also written into a per-database B+Tree
//! (leaf splits, a trim's temporary key list).  The two tighter cells
//! below (< 0.065, < 0.155) sit about 0.02 above the current counts, so
//! they fail by name when a second per-row structure, a column regrowing
//! row by row or a per-event queue allocation comes back.
//!
//! The table keeping its mutation log (`StorageBackend::Lsm`) gets its
//! own two cells.  When a mutation was written
//! three times — a `BTreeMap` entry with a `Vec` per key, an encoded WAL
//! record, a timeline pair — those halves made 0.77 (reactive) and 0.92
//! (proactive) allocations per event; with one log record per mutation
//! but runs flushed and merged beneath it, 0.17 and 0.27.  As the view
//! plus its append-only log they make 0.079 and 0.169: the view's figure
//! plus the log's amortised growth (0.146 and 0.243 before the view's
//! row column).  The bars (< 0.10, < 0.195) sit about 0.02 above that,
//! so a run hierarchy, a per-key `Vec`, a node-allocating map or a
//! second per-mutation buffer coming back crosses them.

use prorp_sim::{ShardDriver, SimConfig, SimPolicy, StorageBackend};
use prorp_types::{PolicyConfig, Timestamp};
use prorp_workload::{RegionName, RegionProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap allocations made by this thread (each test runs on its own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DAY: i64 = 86_400;

/// Heap allocations per loop event over days 4–8 of a 3 000-database,
/// 8-day, one-shard run (observability off).
fn second_half_allocations_per_event(policy: SimPolicy, backend: StorageBackend) -> f64 {
    let (start, mid, end) = (Timestamp(0), Timestamp(4 * DAY), Timestamp(8 * DAY));
    let cfg = SimConfig::builder(policy, start, end, start)
        .storage_backend(backend)
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
    assert!(per_event < 0.065, "{per_event:.3} allocations per event");
}

#[test]
fn a_warm_proactive_loop_writes_each_history_row_once() {
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let per_event = second_half_allocations_per_event(policy, StorageBackend::BTree);
    assert!(per_event < 0.155, "{per_event:.3} allocations per event");
}

#[test]
fn a_warm_reactive_lsm_loop_allocates_less_than_once_per_two_events() {
    let per_event = second_half_allocations_per_event(SimPolicy::Reactive, StorageBackend::Lsm);
    assert!(per_event < 0.10, "{per_event:.3} allocations per event");
}

#[test]
fn a_warm_proactive_lsm_loop_allocates_less_than_once_per_two_events() {
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    let per_event = second_half_allocations_per_event(policy, StorageBackend::Lsm);
    assert!(per_event < 0.195, "{per_event:.3} allocations per event");
}
