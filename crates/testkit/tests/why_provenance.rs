//! The live `why` answer is the trace's newest decision.
//!
//! A shard keeps each decision once, as its `Decision` span; what
//! `db_last_decision` (and `GET /v1/databases/:id/why` on it) answers is
//! that span, read back through the position the shard noted when it
//! recorded it.  Here both drivers — the DES's [`Shards`] and the
//! server's [`LiveDriver`] — are stopped at several watermarks, at 1 and
//! 2 shards, and every database's answer must be the newest `Decision`
//! record the finished run's trace holds for it below that watermark:
//! `None` for a database that has not decided yet, or never will.

use prorp_obs::{DecisionExplain, SpanKind, TraceRecord};
use prorp_server::{IngestOutcome, LiveDriver, LiveEvent, LiveEventKind};
use prorp_sim::{ObsConfig, Shards, SimConfig, SimPolicy};
use prorp_types::{DatabaseId, PolicyConfig, Seconds, Timestamp};
use prorp_workload::{RegionName, RegionProfile, Trace};
use std::collections::HashMap;

const DAY: i64 = 86_400;
const END: Timestamp = Timestamp(8 * DAY);

/// One database's answer: when it decided, and on what.
type Answer = Option<(Timestamp, DecisionExplain)>;

/// The instants the drivers stop at: the start (nothing decided), inside
/// the first morning (a few decided), later days, and the end.
fn watermarks() -> [Timestamp; 6] {
    [0, 9 * 3_600, DAY, 3 * DAY + 1, 6 * DAY, 8 * DAY].map(Timestamp)
}

fn config(shards: usize) -> SimConfig {
    let policy = SimPolicy::Proactive(PolicyConfig::default());
    SimConfig::builder(policy, Timestamp(0), END, Timestamp(0))
        .shards(shards)
        .seed(42)
        .observe(ObsConfig::on().with_explain())
        .build()
        .unwrap()
}

/// A small fleet plus one database that never logs in.
fn fleet() -> Vec<Trace> {
    let mut traces =
        RegionProfile::for_region(RegionName::Eu1).generate_fleet(60, Timestamp(0), END, 42);
    let idle = DatabaseId(traces.iter().map(|t| t.db.raw()).max().unwrap() + 1);
    traces.push(Trace::new(idle, "idle", Vec::new()).unwrap());
    traces
}

/// Check every answer read at each watermark against the newest
/// `Decision` record for its database that starts below the watermark
/// (the run processed exactly the events before it).
fn assert_answers_are_the_trace(
    trace: &[TraceRecord],
    ids: &[DatabaseId],
    answers: &[(Timestamp, Vec<Answer>)],
    context: &str,
) {
    let (mut decided, mut undecided) = (0, 0);
    for (watermark, answers) in answers {
        // Canonical order is `(start, db, seq)`: the last record seen
        // for a database is its newest.
        let mut newest: HashMap<DatabaseId, (Timestamp, DecisionExplain)> = HashMap::new();
        for r in trace.iter().filter(|r| r.start < *watermark) {
            if let SpanKind::Decision { explain } = r.kind {
                newest.insert(r.db, (r.start, explain));
            }
        }
        for (id, answer) in ids.iter().zip(answers) {
            assert_eq!(
                *answer,
                newest.get(id).copied(),
                "{context}: {id} at {watermark}"
            );
            if answer.is_some() {
                decided += 1;
            } else {
                undecided += 1;
            }
        }
    }
    assert!(
        decided > 0 && undecided > 0,
        "{context}: {decided} / {undecided}"
    );
}

/// The DES's shards, stepped watermark by watermark.
#[test]
fn a_shards_last_decision_is_its_newest_decision_record() {
    let traces = fleet();
    let ids: Vec<DatabaseId> = traces.iter().map(|t| t.db).collect();
    for shards in [1, 2] {
        let cfg = config(shards);
        let mut run = Shards::new(&cfg, ids.clone()).unwrap();
        run.each(|shard| {
            for t in &traces {
                if shard.owns(t.db) {
                    shard.register(t)?;
                }
            }
            shard.start();
            Ok(())
        })
        .unwrap();
        let mut answers = Vec::new();
        for watermark in watermarks() {
            run.each(|shard| shard.step_until(watermark)).unwrap();
            let read = ids.iter().map(|&id| run.shard(id).db_last_decision(id));
            answers.push((watermark, read.collect()));
        }
        let unknown = DatabaseId(u64::MAX);
        assert_eq!(run.shard(unknown).db_last_decision(unknown), None);
        let report = run.finish().unwrap();
        let trace = &report.obs.as_ref().unwrap().trace;
        assert_answers_are_the_trace(trace, &ids, &answers, &format!("DES, {shards} shards"));
    }
}

/// The server's live driver, fed each window's events and advanced past
/// it, hourly; read at the same watermarks.
#[test]
fn a_live_drivers_last_decision_is_its_newest_decision_record() {
    let traces = fleet();
    let ids: Vec<DatabaseId> = traces.iter().map(|t| t.db).collect();
    let mut events: Vec<LiveEvent> = traces
        .iter()
        .flat_map(|t| {
            t.sessions.iter().flat_map(move |s| {
                [
                    (s.start, LiveEventKind::Login),
                    (s.end, LiveEventKind::Logout),
                ]
                .map(|(at, kind)| LiveEvent { db: t.db, at, kind })
            })
        })
        .filter(|e| e.at < END)
        .collect();
    events.sort_by_key(|e| e.at);
    for shards in [1, 2] {
        let cfg = config(shards);
        let mut driver = LiveDriver::new(&cfg, &ids).unwrap();
        let mut answers = Vec::new();
        let mut pending = events.iter().peekable();
        let mut now = Timestamp(0);
        for watermark in watermarks() {
            while now < watermark {
                let to = (now + Seconds::hours(1)).min(watermark);
                while let Some(ev) = pending.next_if(|e| e.at < to) {
                    assert_eq!(driver.ingest(*ev), IngestOutcome::Accepted, "{ev:?}");
                }
                driver.advance_to(to).unwrap();
                now = to;
            }
            let read = ids.iter().map(|&id| driver.db_last_decision(id));
            answers.push((watermark, read.collect()));
        }
        assert_eq!(driver.db_last_decision(DatabaseId(u64::MAX)), None);
        let report = driver.finish().unwrap();
        let trace = &report.obs.as_ref().unwrap().trace;
        assert_answers_are_the_trace(trace, &ids, &answers, &format!("live, {shards} shards"));
    }
}
