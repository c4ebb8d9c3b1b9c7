//! Durability and move-safety (§3.3): the history must survive
//! backup/restore byte-for-byte, corrupted streams must fail cleanly,
//! and a moved database must keep predicting exactly as before the move.

use prorp_forecast::ProbabilisticPredictor;
use prorp_sim::{SimConfig, SimPolicy, Simulation};
use prorp_storage::backup::{BACKUP_MAGIC, BACKUP_VERSION};
use prorp_storage::page::{encode_page, Record};
use prorp_storage::{
    backup_history, restore_backend, restore_history, HistoryRead, HistoryStore, HistoryTable,
    StorageBackend,
};
use prorp_telemetry::TelemetryKind;
use prorp_types::{EventKind, PolicyConfig, Seconds, Timestamp};
use prorp_workload::{RegionName, RegionProfile};

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

fn daily_history(days: i64) -> HistoryTable {
    let mut h = HistoryTable::default();
    for d in 0..days {
        h.insert_history(Timestamp(d * DAY + 9 * HOUR), EventKind::Start);
        h.insert_history(Timestamp(d * DAY + 10 * HOUR), EventKind::End);
    }
    h
}

#[test]
fn predictions_survive_a_move() {
    let history = daily_history(28);
    let predictor = ProbabilisticPredictor::new(PolicyConfig::default()).unwrap();
    let now = Timestamp(28 * DAY);
    let before = predictor.predict_at(&history, now);

    // Ship the history to "another node" and predict there.
    let stream = backup_history(&history).expect("backup");
    let restored = restore_history(&stream).expect("restore");
    let after = predictor.predict_at(&restored, now);

    assert_eq!(before, after, "the move must not change the prediction");
    assert!(before.is_some(), "the pattern must be detected at all");
    // Contents and every size figure identical: stats come from the
    // visible set alone.
    assert_eq!(history.events(), restored.events());
    assert_eq!(history.stats(), restored.stats());
}

#[test]
fn corrupt_streams_fail_without_partial_state() {
    let history = daily_history(10);
    let mut stream = backup_history(&history).expect("backup");
    // Flip one bit in the page body.
    let n = stream.len();
    stream[n / 2] ^= 0x40;
    let err = restore_history(&stream).expect_err("corruption must be detected");
    assert_eq!(err.category(), "storage");

    // A checksum-valid stream can still carry keys in any order; every
    // read assumes sortedness, so both backends must refuse it.
    let records: Vec<Record> = [300, 100, 200]
        .iter()
        .map(|&key| Record { key, value: 1 })
        .collect();
    let mut stream = Vec::new();
    stream.extend_from_slice(&BACKUP_MAGIC.to_le_bytes());
    stream.extend_from_slice(&BACKUP_VERSION.to_le_bytes());
    stream.extend_from_slice(&1u64.to_le_bytes());
    stream.extend_from_slice(&encode_page(&records).expect("three records fit a page"));
    for backend in [StorageBackend::BTree, StorageBackend::Lsm] {
        let err = restore_backend(&stream, backend).expect_err("unsorted keys must be refused");
        assert_eq!(err.category(), "storage", "{}", backend.label());
    }
}

#[test]
fn backup_is_deterministic() {
    let a = backup_history(&daily_history(15)).unwrap();
    let b = backup_history(&daily_history(15)).unwrap();
    assert_eq!(a, b, "same history, same bytes");
}

#[test]
fn simulated_moves_do_not_degrade_the_proactive_policy() {
    let traces = RegionProfile::for_region(RegionName::Eu1).generate_fleet(
        40,
        Timestamp(0),
        Timestamp(32 * DAY),
        77,
    );
    let base = SimConfig::builder(
        SimPolicy::Proactive(PolicyConfig::default()),
        Timestamp(0),
        Timestamp(32 * DAY),
        Timestamp(28 * DAY),
    )
    .build()
    .unwrap();
    // Without moves.
    let still = Simulation::new(base.clone(), traces.clone())
        .unwrap()
        .run()
        .unwrap();
    // With aggressive load balancing (history shipped on every move).
    let mut moving = base;
    moving.nodes = 3;
    moving.node_capacity = 25;
    moving.rebalance_period = Some(Seconds::hours(2));
    moving.rebalance_threshold = 1;
    let moved = Simulation::new(moving, traces).unwrap().run().unwrap();

    let move_count = moved.telemetry_summary.count(TelemetryKind::Move.label());
    assert!(
        move_count > 0,
        "load balancing must actually move databases"
    );
    // §3.3's requirement: proactive capability is uninterrupted — QoS on
    // the moving cluster stays within noise of the still cluster.
    assert!(
        (moved.kpi.qos_pct() - still.kpi.qos_pct()).abs() < 5.0,
        "moves changed QoS too much: {:.1}% vs {:.1}%",
        moved.kpi.qos_pct(),
        still.kpi.qos_pct()
    );
}
