//! Storage-backend conformance: a history table that keeps its mutation
//! log (`StorageBackend::Lsm`) must be observationally indistinguishable
//! from one that does not (`StorageBackend::BTree`) — on a single store,
//! across a whole simulated fleet, and in the recorded observability
//! stream.
//!
//! Four layers:
//!
//! * a single-store interleaving property — arbitrary Algorithm 2/3
//!   op sequences applied through `&mut dyn HistoryStore` to both
//!   tables must agree on every read (with the log-off table as the
//!   model), every seqno of the log must `snapshot()` back to exactly
//!   the state the model held at that point, and a snapshot frozen
//!   mid-stream must keep reading its tuples after later trims;
//! * a fleet differential — generated fleets under generated fault
//!   plans produce bit-identical reports (KPIs, per-database engine
//!   counters, incidents, batches, history storage statistics) on
//!   either backend;
//! * LSM shard invariance — a pinned faulty scenario on the log-keeping
//!   backend
//!   reports identically at 1, 2, and 8 shards, including the history
//!   storage statistics;
//! * observability equality and time travel — the JSONL span trace of a
//!   pinned scenario is byte-identical across backends (checkpoints
//!   serialise events, not pages), and replaying a recorded database's
//!   Login spans through `prorp_obs::timetravel` at a recorded Predict
//!   instant reproduces the predictor run from a snapshot of the log.

use proptest::prelude::*;
use prorp_forecast::ProbabilisticPredictor;
use prorp_obs::span::SpanKind;
use prorp_obs::{timetravel, trace_jsonl, ObsConfig, PredictOutcome};
use prorp_sim::{CompactionMode, SimPolicy, SimReport, StorageBackend};
use prorp_storage::{HistoryRead, HistoryStore, HistoryTable};
use prorp_types::{ActivityEvent, EventKind, PolicyConfig, Seconds, Timestamp};
use testkit::oracles::{assert_reports_equal, builder, run, DAY};
use testkit::strategies::{fault_plan, fleet_spec, FaultPlan, FleetSpec};

// ── Layer 1: single-store interleavings ──────────────────────────────

/// One Algorithm 2 or Algorithm 3 call.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `sys.InsertHistory(@time, @type)`.
    Insert { at: i64, login: bool },
    /// `sys.DeleteOldHistory(@h, now)`.
    Trim { now: i64, h_days: i64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0i64..40 * DAY, any::<bool>())
            .prop_map(|(at, login)| Op::Insert { at, login }),
        1 => (0i64..40 * DAY, 1i64..6)
            .prop_map(|(now, h_days)| Op::Trim { now, h_days }),
    ]
}

fn apply(store: &mut dyn HistoryStore, op: Op) {
    match op {
        Op::Insert { at, login } => {
            let kind = if login {
                EventKind::Start
            } else {
                EventKind::End
            };
            store.insert_history(Timestamp(at), kind);
        }
        Op::Trim { now, h_days } => {
            store.delete_old_history(Seconds::days(h_days), Timestamp(now));
        }
    }
    store.check_invariants();
}

/// Every read the engines and predictors perform, compared pairwise.
fn assert_reads_equal(model: &dyn HistoryRead, lsm: &dyn HistoryRead, context: &str) {
    assert_eq!(model.len(), lsm.len(), "{context}: len");
    assert_eq!(model.version(), lsm.version(), "{context}: version");
    assert_eq!(model.min_timestamp(), lsm.min_timestamp(), "{context}: min");
    assert_eq!(model.max_timestamp(), lsm.max_timestamp(), "{context}: max");
    assert!(
        model.view().logins().eq(lsm.view().logins()),
        "{context}: logins"
    );
    assert_eq!(model.events(), lsm.events(), "{context}: events");
    assert_eq!(
        model.stats().tuples,
        lsm.stats().tuples,
        "{context}: logical stats"
    );
    // Algorithm 4 style probes across the whole keyspan.
    for lo in (0..40 * DAY).step_by(6 * 3_600) {
        let (lo, hi) = (Timestamp(lo), Timestamp(lo + 7 * 3_600));
        assert_eq!(
            model.login_window_stats(lo, hi),
            lsm.login_window_stats(lo, hi),
            "{context}: window stats at {lo}"
        );
        assert_eq!(
            model.any_event_in(lo, hi),
            lsm.any_event_in(lo, hi),
            "{context}: any_event_in at {lo}"
        );
    }
}

/// The mutation log of a table built to keep one.
fn log(table: &HistoryTable) -> &prorp_storage::MutationLog {
    table.log().expect("built with its log")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary insert/trim interleavings: the table keeping its log
    /// must agree with the log-off table after every op, and every seqno
    /// from 0 to the last must snapshot back to the exact event set the
    /// model held then — including seqnos whose tuples later trims
    /// deleted.
    #[test]
    fn interleavings_agree_and_snapshots_rebuild(ops in prop::collection::vec(op(), 1..60)) {
        let mut model = HistoryTable::default();
        let mut lsm = HistoryTable::new(StorageBackend::Lsm);
        // `visible[s]`: the events the model held at seqno `s`.
        let mut visible: Vec<Vec<ActivityEvent>> = vec![Vec::new()];
        // `(snapshot, events the model held at freeze time)` pairs.
        let mut frozen: Vec<(HistoryTable, Vec<ActivityEvent>)> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            apply(&mut model, op);
            apply(&mut lsm, op);
            assert_reads_equal(&model, &lsm, &format!("after op {i} ({op:?})"));
            if lsm.version() as usize == visible.len() {
                visible.push(model.events());
            }
            prop_assert_eq!(lsm.version() as usize + 1, visible.len());
            if i % 5 == 0 {
                frozen.push((log(&lsm).snapshot(lsm.version()), model.events()));
            }
        }
        // Time travel back through every seqno: the snapshot must equal
        // the state rebuilt from the op prefix (held by the model at
        // that point), not just the final state.
        for (seqno, expected) in visible.iter().enumerate() {
            let snap = log(&lsm).snapshot(seqno as u64);
            prop_assert_eq!(snap.version(), seqno as u64);
            prop_assert_eq!(&snap.events(), expected, "snapshot at seqno {}", seqno);
        }
        // Every tuple the model held at freeze time still reads back from
        // a snapshot frozen then, whatever the store did afterwards.
        for (snap, expected) in &frozen {
            prop_assert_eq!(snap.len(), expected.len(), "frozen len at seqno {}", snap.version());
            for ev in expected {
                prop_assert_eq!(
                    snap.view().get(ev.ts.as_secs()),
                    Some(i64::from(ev.kind == EventKind::Start)),
                    "frozen read of {} at seqno {}", ev.ts, snap.version()
                );
            }
        }
    }
}

// ── Layers 2–4: fleet-level oracles ──────────────────────────────────

fn run_backend(
    spec: &FleetSpec,
    plan: &FaultPlan,
    shards: usize,
    backend: StorageBackend,
    observe: bool,
) -> SimReport {
    run_mode(
        spec,
        plan,
        shards,
        backend,
        observe,
        CompactionMode::default(),
    )
}

fn run_mode(
    spec: &FleetSpec,
    plan: &FaultPlan,
    shards: usize,
    backend: StorageBackend,
    observe: bool,
    mode: CompactionMode,
) -> SimReport {
    let mut b = plan
        .apply(builder(SimPolicy::Proactive(PolicyConfig::default())))
        .shards(shards)
        .storage_backend(backend)
        .compaction_mode(mode);
    if observe {
        b = b.observe(ObsConfig::on());
    }
    run(b.build().expect("backend configs validate"), spec.traces())
}

/// The pinned scenario for the deterministic (non-proptest) layers.
fn pinned() -> (FleetSpec, FaultPlan) {
    let spec = FleetSpec {
        region: prorp_workload::RegionName::all()[1],
        size: 10,
        seed: 20_240_607,
    };
    let plan = FaultPlan {
        stage_failure: 0.1,
        warm_cache_extra: 0.1,
        seed: 7,
        ..FaultPlan::quiescent()
    };
    (spec, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The storage backend is invisible: generated fleets under
    /// generated fault plans report identical KPIs, engine counters,
    /// incidents, resume batches and history storage statistics on
    /// either backend (both report the logical figure of the one view
    /// they share).
    #[test]
    fn fleet_behaviour_is_backend_independent(
        spec in fleet_spec(),
        plan in fault_plan(),
    ) {
        let btree = run_backend(&spec, &plan, 2, StorageBackend::BTree, false);
        let lsm = run_backend(&spec, &plan, 2, StorageBackend::Lsm, false);
        assert_reports_equal(&btree, &lsm, &format!("{spec:?} under {plan:?}"));
    }
}

/// Shard invariance holds with the log kept exactly as without it:
/// 1, 2, and 8 shards produce bit-identical reports, including the
/// merged history storage statistics.  Both `CompactionMode` values are
/// run, which proves the selector the benchmark sets cannot change a
/// report.
#[test]
fn lsm_reports_are_shard_invariant() {
    let (spec, plan) = pinned();
    let single = run_backend(&spec, &plan, 1, StorageBackend::Lsm, false);
    for mode in [CompactionMode::Deterministic, CompactionMode::Background] {
        for shards in [2, 8] {
            let sharded = run_mode(&spec, &plan, shards, StorageBackend::Lsm, false, mode);
            assert_reports_equal(
                &single,
                &sharded,
                &format!("lsm at {shards} shards ({mode:?} compaction)"),
            );
        }
    }
}

/// A whole simulated fleet reports bit-identically under either
/// `CompactionMode`: nothing reads the selector the benchmark sets, so
/// it may not move a byte of the report.
#[test]
fn fleet_reports_are_compaction_mode_independent() {
    let (spec, plan) = pinned();
    let det = run_backend(&spec, &plan, 2, StorageBackend::Lsm, false);
    let bg = run_mode(
        &spec,
        &plan,
        2,
        StorageBackend::Lsm,
        false,
        CompactionMode::Background,
    );
    assert_reports_equal(&det, &bg, "deterministic vs background compaction");
}

/// The recorded observability stream is a backend-independent artefact:
/// checkpoint/recover spans carry the size of the serialised *event*
/// stream, not of backend pages, so the JSONL traces match byte for
/// byte.
#[test]
fn span_traces_are_byte_identical_across_backends() {
    let (spec, plan) = pinned();
    let btree = run_backend(&spec, &plan, 2, StorageBackend::BTree, true);
    let lsm = run_backend(&spec, &plan, 2, StorageBackend::Lsm, true);
    let jsonl = |r: &SimReport| trace_jsonl(&r.obs.as_ref().expect("observed").trace);
    assert_eq!(
        jsonl(&btree),
        jsonl(&lsm),
        "span traces diverged between backends"
    );
}

/// End-to-end time travel: pick a recorded Predict instant from a real
/// simulated trace, replay that database's Login spans up to `T`, and
/// re-run Algorithm 4 at `T`.  The result must equal a prediction
/// computed over a directly rebuilt history.
#[test]
fn time_travel_reproduces_a_recorded_prediction() {
    let (spec, plan) = pinned();
    let report = run_backend(&spec, &plan, 2, StorageBackend::Lsm, true);
    let records = &report.obs.as_ref().expect("observed").trace;
    // Chosen (db, T): the last successful predictor run in the trace,
    // so plenty of history precedes it.
    let (db, at) = records
        .iter()
        .filter_map(|r| match r.kind {
            SpanKind::Predict {
                outcome: PredictOutcome::Predicted,
            } => Some((r.db, r.start)),
            _ => None,
        })
        .next_back()
        .expect("a 35-day proactive run records predictor runs");

    let replay = timetravel::replay_as_of(records, db, at, PolicyConfig::default())
        .expect("replay succeeds");
    assert!(
        replay.reproduces_recorded_run(),
        "replay instant must hit the recorded run"
    );
    assert!(replay.logins_replayed > 0, "the database logged in");
    assert!(replay.snapshot_len > 0, "history precedes the predict run");

    // Direct route: rebuild the pre-T history in a table and predict
    // over it.
    let mut table = HistoryTable::default();
    for r in records.iter().filter(|r| r.db == db && r.start <= at) {
        if matches!(r.kind, SpanKind::Login { .. }) {
            table.insert_history(r.start, EventKind::Start);
        }
    }
    let expected = ProbabilisticPredictor::new(PolicyConfig::default())
        .expect("Table 1 defaults validate")
        .predict_at(&table, at);
    assert_eq!(
        replay.prediction, expected,
        "snapshot replay diverged from the direct rebuild"
    );
}
