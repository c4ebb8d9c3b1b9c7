//! Storage-backend A/B — the PR 7 tentpole measurement.
//!
//! Compares the §5 [`HistoryTable`] as its sorted view alone (the
//! `btree` backend, backed up as its page image) with the same table
//! keeping its [`MutationLog`](prorp_storage::MutationLog) (the `lsm`
//! backend) on the axes that choice trades between, writing the results
//! to `results/BENCH_storage.json`:
//!
//! * **write amplification** — bytes written per logical byte under the
//!   simulator's steady-state workload (periodic logins plus daily
//!   Algorithm 3 trims).  The `lsm` number is the whole log's
//!   write-ahead-log image per logical byte; the `btree` number is what
//!   a log-off table made durable would write: a checkpoint — the whole
//!   table's backup image, the same bytes the `Checkpoint` spans carry —
//!   every [`CHECKPOINT_EVERY`] mutations, with the log-on table's WAL
//!   image since the last checkpoint reported beside it;
//! * **window-scan latency** — `login_window_stats` over an Algorithm 4
//!   style sliding sweep (7 h window, 5 min slide), per window position.
//!   Every table serves reads from its one
//!   [`LiveView`](prorp_storage::LiveView), so this is *one* live-read
//!   figure, not a backend A/B; what the log adds is the cost of cutting
//!   a snapshot at the latest seqno (a replay of the whole log),
//!   reported beside it.
//!
//! Before timing anything, the harness re-proves the conformance oracle
//! on a real fleet: the same traces and seed must produce bit-identical
//! KPIs and telemetry with or without the log at every shard count —
//! the backend is a storage decision, not a behaviour decision.  The
//! same property holds tuple-for-tuple in the scan sweep (the log-off
//! table's, the log-on table's and the snapshot's window stats are
//! checksummed and compared).
//!
//! A third axis landed with the storage hot-path overhaul:
//!
//! * **trim cost** — one timed Algorithm 3 pass per backend as the
//!   number of expired tuples grows under a fixed retained tail.  Both
//!   drain the view, whose cost tracks the constant-size retained tail;
//!   the log-on table also logs a single range-delete record, so its
//!   per-pass wall time must stay flat as the trimmed count grows.
//!
//! And a fourth, at the grain a fleet actually runs at:
//!
//! * **cold-interleaved replay** — the seed-7 fleet's activity events
//!   (10 000 stores, 8 days, ≈14 tuples a store) delivered hour by hour
//!   across the fleet, each logout followed by the Algorithm 3 pass the
//!   engines make, so every store is touched cold; then every store is
//!   dropped.  Nanoseconds per event and per store dropped, `btree`
//!   beside `lsm` — what the single hot store of the other axes cannot
//!   show.
//!
//! Flags:
//!
//! * `--json <path>` — machine-readable output
//!   (`results/BENCH_storage.json` by convention);
//! * `--smoke` — small sizes for CI (`scripts/check.sh`); assertions
//!   are identical, only the scale changes.

use prorp_bench::{json_path_from_args, run_meta, write_json, ExperimentScale, Json};
use prorp_sim::{SimConfig, SimPolicy, SimReport, Simulation, StorageBackend};
use prorp_storage::{backup_history, HistoryRead, HistoryStore, HistoryTable};
use prorp_types::{ActivityEvent, EventKind, PolicyConfig, Seconds, Timestamp};
use prorp_workload::{RegionName, RegionProfile, Trace};
use std::hint::black_box;
use std::time::Instant;

/// Login cadence of the synthetic single-store workload.
const CADENCE: i64 = 600;
/// Algorithm 3 retention for the write-amplification runs.
const RETENTION: Seconds = Seconds(28 * 86_400);
/// Algorithm 4 window / slide for the scan sweep (Table 1).
const WINDOW: i64 = 7 * 3_600;
const SLIDE: i64 = 300;
/// Mutations between two checkpoints of the `btree` durability run.
const CHECKPOINT_EVERY: usize = 32;

/// Bytes written by one log-keeping table under the steady-state
/// workload — one login every [`CADENCE`] seconds plus daily Algorithm 3
/// trims, the shape Algorithms 2 and 3 impose on every store in the
/// fleet — read both ways: the whole log (the `lsm` row), and a
/// checkpoint every [`CHECKPOINT_EVERY`] logical mutations with the WAL
/// image between checkpoints (the `btree` row).
#[derive(Default)]
struct WriteAmp {
    /// 16 B per insert and per trimmed tuple.
    logical_bytes: usize,
    /// The whole log's write-ahead-log image.
    log_bytes: usize,
    /// Trims that deleted, each one range-delete record.
    range_deletes: usize,
    trimmed: usize,
    checkpoint_bytes: usize,
    checkpoints: usize,
    /// The WAL images between checkpoints, summed.
    wal_bytes: usize,
}

fn write_amp(n: usize) -> WriteAmp {
    let mut store = HistoryTable::new(StorageBackend::Lsm);
    let mut w = WriteAmp::default();
    let (mut mutations, mut since_checkpoint, mut checkpoint_at) = (0usize, 0usize, 0u64);
    for i in 0..n {
        let ts = Timestamp(i as i64 * CADENCE);
        store.insert_history(ts, EventKind::Start);
        mutations += 1;
        since_checkpoint += 1;
        if ts.as_secs() > 0 && ts.as_secs() % 86_400 == 0 {
            let deleted = store.delete_old_history(RETENTION, ts).deleted;
            w.trimmed += deleted;
            w.range_deletes += usize::from(deleted > 0);
            mutations += deleted;
            since_checkpoint += deleted;
        }
        if since_checkpoint >= CHECKPOINT_EVERY {
            w.wal_bytes += wal(&store).wal_image(checkpoint_at).len();
            w.checkpoint_bytes += backup_history(&store).expect("checkpoint succeeds").len();
            checkpoint_at = store.version();
            w.checkpoints += 1;
            since_checkpoint = 0;
        }
    }
    w.wal_bytes += wal(&store).wal_image(checkpoint_at).len();
    w.log_bytes = wal(&store).wal_image(0).len();
    w.logical_bytes = mutations * 16;
    w
}

/// The mutation log of a table built to keep one.
fn wal(store: &HistoryTable) -> &prorp_storage::MutationLog {
    store.log().expect("built with its log")
}

/// One timed Algorithm 3 pass per backend: build `expired + retained`
/// logins at the synthetic cadence, then time a single
/// `delete_old_history` call whose cutoff expires exactly the first
/// `expired` tuples.  Returns `(btree_ns, lsm_ns, deleted)` — the
/// best-of-`rounds` wall time per pass and the per-pass deleted count
/// (identical across backends by the conformance oracle).
fn trim_cost(expired: usize, retained: usize, rounds: usize) -> (f64, f64, usize) {
    assert!(retained >= 2, "need a tail for the retention window");
    let n = expired + retained;
    let now = Timestamp((n - 1) as i64 * CADENCE);
    // Cutoff at exactly `expired * CADENCE`: everything before it goes.
    let h = Seconds(now.as_secs() - expired as i64 * CADENCE);
    let mut best_btree = f64::INFINITY;
    let mut best_lsm = f64::INFINITY;
    let mut deleted = (0usize, 0usize);
    for _ in 0..rounds {
        let (mut btree, mut lsm) = build_stores(n);
        let t0 = Instant::now();
        let b = btree.delete_old_history(h, now);
        best_btree = best_btree.min(t0.elapsed().as_nanos() as f64);
        let t1 = Instant::now();
        let l = lsm.delete_old_history(h, now);
        best_lsm = best_lsm.min(t1.elapsed().as_nanos() as f64);
        deleted = (b.deleted, l.deleted);
        assert_eq!(
            b.deleted, l.deleted,
            "backends disagreed on the trimmed count at {expired} expired"
        );
    }
    (best_btree, best_lsm, deleted.1)
}

/// The seed-7 fleet's activity events in the order a fleet delivers
/// them — hour by hour, store by store within the hour — as
/// `(store, event)` pairs.
fn interleaved_events(stores: usize, days: i64) -> Vec<(usize, ActivityEvent)> {
    let (start, end) = (Timestamp(0), Timestamp(0) + Seconds::days(days));
    let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(stores, start, end, 7);
    let mut events: Vec<(usize, ActivityEvent)> = traces
        .iter()
        .enumerate()
        .flat_map(|(store, trace)| trace.events().into_iter().map(move |e| (store, e)))
        .collect();
    events.sort_by_key(|&(store, e)| (e.ts.as_secs().div_euclid(3_600), store, e.ts));
    events
}

/// Replay `events` over `stores` fresh tables of `kind` — an insert per
/// event, the engines' Algorithm 3 pass after each logout — then drop
/// them all.  Returns `(ns per event, ns per store dropped, tuples
/// left)`, the best of `rounds`.
fn cold_replay(
    events: &[(usize, ActivityEvent)],
    stores: usize,
    rounds: usize,
    kind: StorageBackend,
) -> (f64, f64, usize) {
    let mut best = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..rounds {
        let mut fleet: Vec<HistoryTable> = (0..stores).map(|_| HistoryTable::new(kind)).collect();
        let t0 = Instant::now();
        for &(store, event) in events {
            let history = &mut fleet[store];
            history.insert_history(event.ts, event.kind);
            if event.kind == EventKind::End {
                black_box(history.delete_old_history(RETENTION, event.ts));
            }
        }
        let replay_ns = t0.elapsed().as_nanos() as f64 / events.len().max(1) as f64;
        let tuples = fleet.iter().map(|history| history.len()).sum();
        let t1 = Instant::now();
        drop(fleet);
        let drop_ns = t1.elapsed().as_nanos() as f64 / stores.max(1) as f64;
        best = (best.0.min(replay_ns), best.1.min(drop_ns), tuples);
    }
    best
}

/// Sweep `login_window_stats` Algorithm 4 style; returns
/// `(windows, ns_per_window, checksum)` — the checksum folds every
/// window's `(first, last, count)` so stores can be compared.
fn scan_sweep(store: &dyn HistoryRead) -> (usize, f64, u64) {
    let (Some(min), Some(max)) = (store.min_timestamp(), store.max_timestamp()) else {
        return (0, 0.0, 0);
    };
    let mut checksum = 0u64;
    let mut windows = 0usize;
    let t0 = Instant::now();
    let mut lo = min.as_secs();
    while lo <= max.as_secs() {
        let stats = store.login_window_stats(Timestamp(lo), Timestamp(lo + WINDOW));
        if let Some((first, last, count)) = black_box(stats) {
            checksum = checksum
                .wrapping_mul(31)
                .wrapping_add(first.as_secs() as u64)
                .wrapping_mul(31)
                .wrapping_add(last.as_secs() as u64)
                .wrapping_mul(31)
                .wrapping_add(count as u64);
        }
        windows += 1;
        lo += SLIDE;
    }
    let ns = t0.elapsed().as_nanos() as f64 / windows.max(1) as f64;
    (windows, ns, checksum)
}

/// A table of `n` logins at the synthetic cadence, per backend.
fn build_stores(n: usize) -> (HistoryTable, HistoryTable) {
    let mut btree = HistoryTable::default();
    let mut lsm = HistoryTable::new(StorageBackend::Lsm);
    for i in 0..n {
        let ts = Timestamp(i as i64 * CADENCE);
        btree.insert_history(ts, EventKind::Start);
        lsm.insert_history(ts, EventKind::Start);
    }
    (btree, lsm)
}

/// The proactive fleet config for the equality gate.
fn gate_config(dbs: usize, days: i64, shards: usize, backend: StorageBackend) -> SimConfig {
    let scale = ExperimentScale {
        fleet: dbs,
        days,
        warmup_days: (days - 2).max(1),
        seed: 42,
    };
    scale
        .config_builder(SimPolicy::Proactive(PolicyConfig::default()))
        .shards(shards)
        .storage_backend(backend)
        .build()
        .expect("gate config is valid")
}

fn run_gate(
    traces: &[Trace],
    dbs: usize,
    days: i64,
    shards: usize,
    b: StorageBackend,
) -> SimReport {
    Simulation::new(gate_config(dbs, days, shards, b), traces.to_vec())
        .expect("gate config is valid")
        .run()
        .expect("gate run completes")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = json_path_from_args();

    let (gate_dbs, gate_days, shard_counts): (usize, i64, &[usize]) = if smoke {
        (40, 6, &[1, 2])
    } else {
        (150, 12, &[1, 2, 8])
    };
    let sizes: &[usize] = if smoke {
        &[2_000, 6_000]
    } else {
        &[20_000, 100_000]
    };

    // ── Oracle: backend choice must not change behaviour ─────────────
    println!(
        "Equality gate: {gate_dbs} databases, {gate_days} days, shards {shard_counts:?}, \
         btree vs lsm"
    );
    let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(
        gate_dbs,
        Timestamp(0),
        Timestamp(0) + Seconds::days(gate_days),
        42,
    );
    let mut baseline = None;
    for &shards in shard_counts {
        for backend in [StorageBackend::BTree, StorageBackend::Lsm] {
            let report = run_gate(&traces, gate_dbs, gate_days, shards, backend);
            match &baseline {
                None => baseline = Some((report.kpi, report.telemetry_summary.clone())),
                Some((kpi, telemetry)) => {
                    assert_eq!(
                        *kpi,
                        report.kpi,
                        "KPIs diverged ({} at {shards} shards)",
                        backend.label()
                    );
                    assert_eq!(
                        *telemetry,
                        report.telemetry_summary,
                        "telemetry diverged ({} at {shards} shards)",
                        backend.label()
                    );
                }
            }
        }
    }
    println!("  KPIs and telemetry bit-identical across backends and shard counts\n");

    // ── Write amplification ──────────────────────────────────────────
    println!(
        "Write amplification ({CADENCE}s login cadence, daily trims at 28d retention, \
         btree checkpoint every {CHECKPOINT_EVERY} mutations)"
    );
    println!(
        "{:>9} {:>14} {:>15}",
        "logins", "lsm (log)", "btree (durable)"
    );
    let mut amp_entries = Vec::new();
    for &n in sizes {
        let w = write_amp(n);
        let lsm_amp = w.log_bytes as f64 / w.logical_bytes as f64;
        let btree_amp = w.checkpoint_bytes as f64 / w.logical_bytes as f64;
        println!("{n:>9} {lsm_amp:>14.2} {btree_amp:>15.2}");
        amp_entries.push(Json::object(vec![
            ("logins", Json::from(n as u64)),
            ("cadence_s", Json::Int(CADENCE)),
            ("retention_s", Json::Int(RETENTION.as_secs())),
            (
                "lsm",
                Json::object(vec![
                    ("write_amp", Json::Float(lsm_amp)),
                    ("logical_bytes", Json::from(w.logical_bytes as u64)),
                    ("log_appended_bytes", Json::from(w.log_bytes as u64)),
                    ("trimmed_tuples", Json::from(w.trimmed as u64)),
                    ("range_tombstones", Json::from(w.range_deletes as u64)),
                ]),
            ),
            (
                "btree",
                Json::object(vec![
                    ("write_amp", Json::Float(btree_amp)),
                    ("logical_bytes", Json::from(w.logical_bytes as u64)),
                    ("checkpoint_bytes", Json::from(w.checkpoint_bytes as u64)),
                    ("checkpoints", Json::from(w.checkpoints as u64)),
                    ("wal_bytes", Json::from(w.wal_bytes as u64)),
                ]),
            ),
        ]));
    }
    println!();

    // ── Trim cost: one Algorithm 3 pass vs trimmed-tuple count ───────
    let (trim_sizes, retained, rounds): (&[usize], usize, usize) = if smoke {
        (&[2_000, 6_000], 500, 3)
    } else {
        (&[20_000, 40_000, 60_000, 80_000, 100_000], 4_000, 5)
    };
    println!("Trim cost (one Algorithm 3 pass, {retained} retained tuples, best of {rounds})");
    println!(
        "{:>9} {:>9} {:>14} {:>12}",
        "expired", "deleted", "btree ns/pass", "lsm ns/pass"
    );
    let mut trim_entries = Vec::new();
    let mut lsm_pass: Vec<f64> = Vec::new();
    for &expired in trim_sizes {
        let (btree_ns, lsm_ns, deleted) = trim_cost(expired, retained, rounds);
        println!("{expired:>9} {deleted:>9} {btree_ns:>14.0} {lsm_ns:>12.0}");
        lsm_pass.push(lsm_ns);
        trim_entries.push(Json::object(vec![
            ("expired", Json::from(expired as u64)),
            ("retained", Json::from(retained as u64)),
            ("deleted", Json::from(deleted as u64)),
            ("btree_ns_per_pass", Json::Float(btree_ns)),
            ("lsm_ns_per_pass", Json::Float(lsm_ns)),
        ]));
    }
    // The range-delete trim must not scale with the trimmed count:
    // its cost tracks the constant retained tail, so the pass time at
    // the largest size stays within noise of the smallest (generous 3x
    // + 200us absolute floor — a per-tuple path would grow ~linearly).
    let (first, worst) = (
        lsm_pass.first().copied().unwrap_or(0.0),
        lsm_pass.iter().copied().fold(0.0f64, f64::max),
    );
    assert!(
        worst <= first * 3.0 + 200_000.0,
        "LSM trim pass grew with the trimmed count: first {first:.0}ns, worst {worst:.0}ns"
    );
    println!("  lsm pass time flat across {trim_sizes:?} expired tuples\n");

    // ── Window-scan latency ──────────────────────────────────────────
    println!(
        "Window-scan latency ({}h window, {}min slide)",
        WINDOW / 3_600,
        SLIDE / 60
    );
    println!(
        "{:>9} {:>9} {:>12} {:>16}",
        "logins", "windows", "live ns/w", "snapshot cut ns"
    );
    let mut scan_entries = Vec::new();
    for &n in sizes {
        let (btree, lsm) = build_stores(n);
        let t0 = Instant::now();
        let snapshot = wal(&lsm).snapshot(lsm.version());
        let cut_ns = t0.elapsed().as_nanos() as f64;
        let (windows, live_ns, btree_sum) = scan_sweep(&btree);
        let (_, _, lsm_sum) = scan_sweep(&lsm);
        let (_, _, snap_sum) = scan_sweep(&snapshot);
        assert_eq!(btree_sum, lsm_sum, "lsm scan diverged at {n} logins");
        assert_eq!(btree_sum, snap_sum, "snapshot scan diverged at {n} logins");
        println!("{n:>9} {windows:>9} {live_ns:>12.0} {cut_ns:>16.0}");
        scan_entries.push(Json::object(vec![
            ("logins", Json::from(n as u64)),
            ("windows", Json::from(windows as u64)),
            ("window_s", Json::Int(WINDOW)),
            ("slide_s", Json::Int(SLIDE)),
            ("live_ns_per_window", Json::Float(live_ns)),
            ("snapshot_cut_ns", Json::Float(cut_ns)),
        ]));
    }

    // ── Cold-interleaved replay: the fleet's grain ───────────────────
    let (replay_stores, replay_days, replay_rounds) =
        if smoke { (400, 4, 2) } else { (10_000, 8, 3) };
    let events = interleaved_events(replay_stores, replay_days);
    println!(
        "\nCold-interleaved replay ({replay_stores} stores, {replay_days} days, seed 7: {} events \
         hour by hour across the fleet, a trim pass after each logout; best of {replay_rounds})",
        events.len()
    );
    let (btree_event_ns, btree_drop_ns, btree_tuples) =
        cold_replay(&events, replay_stores, replay_rounds, StorageBackend::BTree);
    let (lsm_event_ns, lsm_drop_ns, lsm_tuples) =
        cold_replay(&events, replay_stores, replay_rounds, StorageBackend::Lsm);
    assert_eq!(btree_tuples, lsm_tuples, "backends diverged in the replay");
    println!(
        "{:>9} {:>12} {:>18}",
        "backend", "ns/event", "ns/store dropped"
    );
    println!(
        "{:>9} {btree_event_ns:>12.0} {btree_drop_ns:>18.0}",
        "btree"
    );
    println!("{:>9} {lsm_event_ns:>12.0} {lsm_drop_ns:>18.0}", "lsm");
    let replay_cell = |event_ns: f64, drop_ns: f64| {
        Json::object(vec![
            ("ns_per_event", Json::Float(event_ns)),
            ("ns_per_store_dropped", Json::Float(drop_ns)),
        ])
    };
    let cold_replay_entry = Json::object(vec![
        ("stores", Json::from(replay_stores as u64)),
        ("days", Json::Int(replay_days)),
        ("seed", Json::Int(7)),
        ("events", Json::from(events.len() as u64)),
        (
            "tuples_per_store",
            Json::Float(lsm_tuples as f64 / replay_stores as f64),
        ),
        ("btree", replay_cell(btree_event_ns, btree_drop_ns)),
        ("lsm", replay_cell(lsm_event_ns, lsm_drop_ns)),
    ]);

    if let Some(path) = json_path {
        let mode_label = if smoke { "smoke" } else { "full" };
        let value = Json::object(vec![
            ("mode", Json::Str(mode_label.into())),
            ("meta", run_meta(mode_label)),
            (
                "equality_gate",
                Json::object(vec![
                    ("databases", Json::from(gate_dbs as u64)),
                    ("days", Json::Int(gate_days)),
                    (
                        "shard_counts",
                        Json::Array(shard_counts.iter().map(|&s| Json::from(s as u64)).collect()),
                    ),
                    ("backends_identical", Json::Bool(true)),
                ]),
            ),
            ("write_amplification", Json::Array(amp_entries)),
            ("trim_cost", Json::Array(trim_entries)),
            ("window_scan", Json::Array(scan_entries)),
            ("cold_replay", cold_replay_entry),
        ]);
        write_json(&path, &value);
    }
}
