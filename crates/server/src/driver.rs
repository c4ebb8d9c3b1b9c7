//! The wall-clock driver: [`LiveDriver`] feeds externally ingested
//! events into the same [`Shards`] the DES runs.
//!
//! # The watermark protocol
//!
//! The DES loads every event up front, so its queue's FIFO sequence
//! numbers encode registration order and ties at one `(timestamp,
//! priority)` resolve deterministically.  A live driver receives events
//! incrementally — possibly out of order, possibly duplicated — so it
//! reconstructs the same total order with a three-step protocol:
//!
//! 1. **Buffer**: [`LiveDriver::ingest`] accepts an event only if its
//!    timestamp is at or past the current watermark (older ones are
//!    [`IngestOutcome::Late`]), before the run's end (later ones are
//!    [`IngestOutcome::AfterEnd`]: no window ever commits them) and it
//!    is not already buffered ([`IngestOutcome::Duplicate`]).  Accepted
//!    events sit in the buffer, one ordered map keyed `(timestamp, queue
//!    tie-priority, registration order)`; nothing reaches an engine yet.
//!    The key is one-to-one with `(database, timestamp, kind)` —
//!    registration order is one-to-one with the database, and a login
//!    and a logout have different tie priorities — so the map is both
//!    the dedup index and the commit order.
//! 2. **Commit**: [`LiveDriver::advance_to`]`(w)` splits off every
//!    buffered event with timestamp `< w`, in key order, and pushes each
//!    into its shard's queue.  Because an event older than the watermark
//!    can never be accepted afterwards, all events at one timestamp are
//!    committed in a single batch — the key fully determines their
//!    relative order, exactly as the DES's push order did.
//! 3. **Step**: every shard then drains its queue strictly below `w`
//!    (`ShardDriver::step_until`), in the DES's fork-join
//!    ([`Shards::each`]), and the watermark becomes `w`.
//!
//! Within one watermark window ingest is therefore **idempotent and
//! reorder-tolerant by construction**: arrival order and duplicates
//! cannot influence commit order.  The testkit's `live_differential`
//! suite pins this with a proptest oracle over shuffled, duplicated
//! streams.
//!
//! # Reads
//!
//! The driver is the one record of every database: [`LiveDriver::db_state`],
//! [`db_prediction`](LiveDriver::db_prediction) and
//! [`db_counters`](LiveDriver::db_counters) read its engine as of the
//! watermark, and [`LiveDriver::take_fresh_incidents`] hands out the
//! incidents raised since the last call — what the advance raised, not
//! what the fleet holds.  Fleet-wide reads (`/metrics`, the SLO rollup,
//! incidents) are [`Shards`]' merges, the same at any shard count.
//!
//! The offline-optimal policy is rejected at construction: its oracle
//! engine reads each database's full future trace at registration,
//! which a live driver by definition does not have.

use crate::json::{Json, Reader};
use prorp_core::EngineCounters;
use prorp_obs::{evaluate_alerts, Alert, DecisionExplain, SloSeries};
use prorp_sim::events::SimEvent;
use prorp_sim::{Shards, SimConfig, SimPolicy, SimReport};
use prorp_telemetry::IncidentEntry;
use prorp_types::{DatabaseId, DbState, Prediction, ProrpError, Timestamp};
use prorp_workload::Trace;
use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// What happened to one ingested event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IngestOutcome {
    /// Buffered; it will commit when the watermark passes it.
    Accepted,
    /// Already buffered at the same `(database, timestamp, kind)` —
    /// dropped, making redelivery a no-op.
    Duplicate,
    /// Timestamp below the watermark: the window it belonged to has
    /// already committed, so accepting it would reorder history.
    Late,
    /// The database was never registered with this driver.
    Unknown,
    /// Timestamp at or past the run's end: no window will ever commit
    /// it, so it is dropped.
    AfterEnd,
}

impl IngestOutcome {
    /// Every outcome, in declaration order: `ALL[o as usize] == o`.
    pub const ALL: [IngestOutcome; 5] = [
        IngestOutcome::Accepted,
        IngestOutcome::Duplicate,
        IngestOutcome::Late,
        IngestOutcome::Unknown,
        IngestOutcome::AfterEnd,
    ];

    /// Stable lowercase label for API responses.
    pub fn label(&self) -> &'static str {
        match self {
            IngestOutcome::Accepted => "accepted",
            IngestOutcome::Duplicate => "duplicate",
            IngestOutcome::Late => "late",
            IngestOutcome::Unknown => "unknown",
            IngestOutcome::AfterEnd => "after_end",
        }
    }
}

/// The two customer-activity event kinds the ingest API accepts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LiveEventKind {
    /// A customer login (session start).
    Login,
    /// A customer logout (session end).
    Logout,
}

impl LiveEventKind {
    /// Stable lowercase label (the JSON wire form).
    pub fn label(&self) -> &'static str {
        match self {
            LiveEventKind::Login => "login",
            LiveEventKind::Logout => "logout",
        }
    }

    /// Parse the JSON wire form.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "login" => Some(LiveEventKind::Login),
            "logout" => Some(LiveEventKind::Logout),
            _ => None,
        }
    }

    /// The queue tie-priority this kind commits with — the same number
    /// the DES queue uses, so one sort key covers both drivers.
    fn tie_priority(&self, db: DatabaseId) -> u8 {
        match self {
            LiveEventKind::Login => SimEvent::ActivityStart(db).tie_priority(),
            LiveEventKind::Logout => SimEvent::ActivityEnd(db).tie_priority(),
        }
    }
}

/// One customer-activity event on the ingest wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LiveEvent {
    /// The database the session belongs to.
    pub db: DatabaseId,
    /// When the event happened (event time, not arrival time).
    pub at: Timestamp,
    /// Login or logout.
    pub kind: LiveEventKind,
}

/// Why a well-formed event is not one: a missing or mistyped member.
const EVENT_NEEDS_FIELDS: &str = "event needs db, at, kind(login|logout)";
/// Why a well-formed event is not one: a negative or fractional id.
const DB_NOT_UNSIGNED: &str = "database id must be an unsigned integer";

impl LiveEvent {
    /// Read the wire form `{"db":N,"at":T,"kind":"login"|"logout"}` at
    /// `r`'s position, building no [`Json`] tree.
    ///
    /// A member's first occurrence is the one read, as [`Json::get`]
    /// finds it; later duplicates and unknown members are skipped, but
    /// still validated.  The value is consumed whole even when it is
    /// not an event, so a caller can read on and let a syntax error
    /// later in the document take precedence, as it does for [`parse`]
    /// followed by a lookup.
    ///
    /// # Errors
    ///
    /// The outer error is a syntax error (the reader is spent).  The
    /// inner one names what is wrong with a well-formed value: a
    /// missing or mistyped member, or a `db` that is not an unsigned
    /// integer (ids use all 64 bits; negative and fractional ones are
    /// rejected).
    ///
    /// [`parse`]: crate::json::parse
    pub fn read(r: &mut Reader<'_>) -> Result<Result<LiveEvent, &'static str>, String> {
        if r.peek() != Some(b'{') {
            r.skip_value()?;
            return Ok(Err(EVENT_NEEDS_FIELDS));
        }
        // Each member's first occurrence; `Some(None)` is one present
        // with the wrong type.
        let (mut db, mut at, mut kind) = (None, None, None);
        r.object(|r, key| {
            match &*key {
                "db" if db.is_none() => db = Some(number(r)?.and_then(|n| n.as_u64())),
                "at" if at.is_none() => at = Some(number(r)?.and_then(|n| n.as_int())),
                "kind" if kind.is_none() => {
                    kind = Some(string(r)?.as_deref().and_then(LiveEventKind::parse));
                }
                _ => r.skip_value()?,
            }
            Ok(())
        })?;
        let (Some(db), Some(Some(at)), Some(Some(kind))) = (db, at, kind) else {
            return Ok(Err(EVENT_NEEDS_FIELDS));
        };
        let Some(db) = db else {
            return Ok(Err(DB_NOT_UNSIGNED));
        };
        Ok(Ok(LiveEvent {
            db: DatabaseId(db),
            at: Timestamp(at),
            kind,
        }))
    }

    /// The tree-walking reading of the wire form: what [`read`](Self::read)
    /// must agree with, kept as its oracle.
    #[cfg(test)]
    pub(crate) fn from_json(v: &Json) -> Result<LiveEvent, &'static str> {
        let (Some(db), Some(at), Some(kind)) = (
            v.get("db"),
            v.get("at").and_then(Json::as_int),
            v.get("kind")
                .and_then(Json::as_str)
                .and_then(LiveEventKind::parse),
        ) else {
            return Err(EVENT_NEEDS_FIELDS);
        };
        let db = db.as_u64().ok_or(DB_NOT_UNSIGNED)?;
        Ok(LiveEvent {
            db: DatabaseId(db),
            at: Timestamp(at),
            kind,
        })
    }

    /// The wire form [`read`](Self::read) reads.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("db", Json::from(self.db.raw())),
            ("at", Json::Int(self.at.as_secs())),
            ("kind", Json::Str(self.kind.label().into())),
        ])
    }
}

/// The number at `r`, or `None` after skipping a value of any other
/// type.
fn number(r: &mut Reader<'_>) -> Result<Option<Json>, String> {
    match r.peek() {
        Some(b'-' | b'0'..=b'9') => r.number().map(Some),
        _ => r.skip_value().map(|()| None),
    }
}

/// The string at `r`, or `None` after skipping a value of any other
/// type.
fn string<'a>(r: &mut Reader<'a>) -> Result<Option<Cow<'a, str>>, String> {
    match r.peek() {
        Some(b'"') => r.string().map(Some),
        _ => r.skip_value().map(|()| None),
    }
}

/// The wall-clock driver: the run's [`Shards`] plus the watermark
/// protocol.
///
/// See the [module docs](self) for the commit-order argument.
pub struct LiveDriver {
    /// The fleet, in the DES's form: sizing, routing, the fork-join, the
    /// merged reads and the final merge.  Its registration order is the
    /// commit order's final tie-break and the merged report's row order.
    shards: Shards,
    /// Events accepted but not yet committed (all at `ts >= watermark`),
    /// keyed `(ts, tie-priority, registration index)`: commit order, and
    /// one entry per `(database, ts, kind)`.
    buffer: BTreeMap<(Timestamp, u8, usize), LiveEvent>,
    watermark: Timestamp,
    /// How many entries of the merged incident log
    /// [`take_fresh_incidents`](Self::take_fresh_incidents) has handed out.
    incidents_taken: usize,
}

impl LiveDriver {
    /// Build a driver over `cfg` and register `dbs` (in this order —
    /// it fixes both the commit tie-break and the report's row order).
    ///
    /// Registration goes through the exact path the DES uses, with
    /// empty traces: engines built, cluster placement, `sys.databases`
    /// seeding, and maintenance staggering are identical, so the two
    /// drivers' queues start in the same state.
    ///
    /// # Errors
    ///
    /// Rejects invalid configs, duplicate ids, and
    /// [`SimPolicy::Optimal`] (the offline oracle needs each database's
    /// full future trace, which live mode does not have).
    pub fn new(cfg: &SimConfig, dbs: &[DatabaseId]) -> Result<Self, ProrpError> {
        cfg.check()?;
        if matches!(cfg.policy, SimPolicy::Optimal) {
            return Err(ProrpError::InvalidConfig(
                "the offline-optimal oracle cannot run live: it requires the full future trace"
                    .into(),
            ));
        }
        let mut shards = Shards::new(cfg, dbs.to_vec())?;
        shards.each(|shard| {
            for &id in dbs {
                if shard.owns(id) {
                    shard.register(&Trace::new(id, "live", Vec::new())?)?;
                }
            }
            shard.start();
            Ok(())
        })?;
        Ok(LiveDriver {
            watermark: cfg.start,
            shards,
            buffer: BTreeMap::new(),
            incidents_taken: 0,
        })
    }

    /// The driver's config.
    pub fn config(&self) -> &SimConfig {
        self.shards.config()
    }

    /// The current watermark: every event strictly before it has been
    /// committed and processed.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Databases registered, in registration order.
    pub fn databases(&self) -> Vec<DatabaseId> {
        self.shards.ids().to_vec()
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: DatabaseId) -> bool {
        self.shards.position(id).is_some()
    }

    /// `id`'s current lifecycle state.
    pub fn db_state(&self, id: DatabaseId) -> Option<DbState> {
        self.shards.shard(id).db_state(id)
    }

    /// `id`'s currently published prediction.
    pub fn db_prediction(&self, id: DatabaseId) -> Option<Prediction> {
        self.shards.shard(id).db_prediction(id)
    }

    /// `id`'s engine counters.
    pub fn db_counters(&self, id: DatabaseId) -> Option<EngineCounters> {
        self.shards.shard(id).db_counters(id)
    }

    /// The incidents raised since the previous call, in the canonical
    /// `(time, database, kind)` order.  Successive calls yield
    /// [`incidents`](Self::incidents) piece by piece: an incident is
    /// stamped with the instant that raised it, and an advance processes
    /// only instants at or past the previous watermark, so what it
    /// raises sorts after everything handed out before.
    pub fn take_fresh_incidents(&mut self) -> Vec<IncidentEntry> {
        let all = self.shards.incidents();
        let fresh = all.entries()[self.incidents_taken..].to_vec();
        self.incidents_taken = all.len();
        fresh
    }

    /// All incidents raised so far, in the canonical `(time, database,
    /// kind)` order.
    pub fn incidents(&self) -> Vec<IncidentEntry> {
        self.shards.incidents().entries().to_vec()
    }

    /// A live Prometheus exposition of the fleet's metrics at the
    /// watermark: one merged snapshot, the same at any shard count save
    /// the volatile `sim_self_*` readings; `None` when observability is
    /// disabled.
    pub fn prometheus_text(&self) -> Option<String> {
        let snap = self.shards.metrics_snapshot(self.watermark)?;
        Some(prorp_obs::prometheus_text(&snap))
    }

    /// The fleet SLO rollup so far, merged with the same elementwise
    /// integer sums the DES report merge uses, so the live surface
    /// agrees bit for bit with an offline replay.  `None` when rollups
    /// are disabled in the config.
    pub fn slo_series(&self) -> Option<SloSeries> {
        self.shards.slo_series()
    }

    /// The deterministic burn-rate alert log derived from the merged
    /// rollup at the current watermark.
    pub fn alerts(&self) -> Vec<Alert> {
        self.slo_series()
            .as_ref()
            .map(evaluate_alerts)
            .unwrap_or_default()
    }

    /// The latest decision-provenance record for `id`; `None` when `id`
    /// is unknown, `ObsConfig::explain` is off, or no decision has been
    /// made yet.
    pub fn db_last_decision(&self, id: DatabaseId) -> Option<(Timestamp, DecisionExplain)> {
        self.shards.shard(id).db_last_decision(id)
    }

    /// Ingest one customer-activity event.  Never touches an engine —
    /// only [`advance_to`](Self::advance_to) does.
    pub fn ingest(&mut self, ev: LiveEvent) -> IngestOutcome {
        let Some(registered) = self.shards.position(ev.db) else {
            return IngestOutcome::Unknown;
        };
        if ev.at < self.watermark {
            return IngestOutcome::Late;
        }
        if ev.at >= self.config().end {
            return IngestOutcome::AfterEnd;
        }
        match self
            .buffer
            .entry((ev.at, ev.kind.tie_priority(ev.db), registered))
        {
            Entry::Occupied(_) => IngestOutcome::Duplicate,
            Entry::Vacant(slot) => {
                slot.insert(ev);
                IngestOutcome::Accepted
            }
        }
    }

    /// Schedule an operator-forced resume for `id` at the watermark
    /// (delivered through the Algorithm 5 pre-warm path on the next
    /// advance).  Returns `false` when `id` is unknown or the window
    /// has closed.
    pub fn force_resume(&mut self, id: DatabaseId) -> bool {
        let at = self.watermark;
        self.contains(id) && self.shards.shard_mut(id).inject_forced_resume(at, id)
    }

    /// Schedule an operator-forced physical pause for `id` at the
    /// watermark (the engine refuses it while the database is serving).
    pub fn force_pause(&mut self, id: DatabaseId) -> bool {
        let at = self.watermark;
        self.contains(id) && self.shards.shard_mut(id).inject_forced_pause(at, id)
    }

    /// Advance the watermark to `to`: commit every buffered event below
    /// it (in the DES's total order) and step every shard up to it.
    ///
    /// # Errors
    ///
    /// Rejects a watermark moving backwards ([`ProrpError::InvalidEvent`])
    /// and propagates engine invariant violations.
    pub fn advance_to(&mut self, to: Timestamp) -> Result<(), ProrpError> {
        if to < self.watermark {
            return Err(ProrpError::InvalidEvent(format!(
                "watermark may not move backwards ({} -> {to})",
                self.watermark
            )));
        }
        self.commit_below(to)?;
        self.watermark = to;
        Ok(())
    }

    /// Commit everything still buffered, drain every shard to the
    /// configured end of time, and merge the shard outcomes into the
    /// same [`SimReport`] the DES produces.
    ///
    /// # Errors
    ///
    /// Propagates engine invariant violations and merge failures.
    pub fn finish(mut self) -> Result<SimReport, ProrpError> {
        self.commit_below(self.config().end)?;
        self.shards.finish()
    }

    /// Commit buffered events with `ts < to` and step the shards to `to`,
    /// in parallel when there are several, as the DES runs them.
    fn commit_below(&mut self, to: Timestamp) -> Result<(), ProrpError> {
        // The DES queue's order is (ts, priority, FIFO seq), and its
        // seq order for customer activity is registration order — the
        // trace loop pushes sessions as databases register — so the
        // buffer's key order is the commit order.
        let later = self.buffer.split_off(&(to, 0, 0));
        let batch = std::mem::replace(&mut self.buffer, later);
        for ev in batch.into_values() {
            let shard = self.shards.shard_mut(ev.db);
            // `ingest` buffers only `[watermark, end)`, and every shard
            // last stepped to the watermark, so the inject path, which
            // refuses what lies behind a shard's horizon, drops none.
            let _ = match ev.kind {
                LiveEventKind::Login => shard.inject_login(ev.at, ev.db),
                LiveEventKind::Logout => shard.inject_logout(ev.at, ev.db),
            };
        }
        self.shards.each(|shard| shard.step_until(to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prorp_types::Seconds;

    fn cfg(shards: usize) -> SimConfig {
        SimConfig::builder(
            SimPolicy::Reactive,
            Timestamp(0),
            Timestamp(Seconds::days(2).as_secs()),
            Timestamp(0),
        )
        .shards(shards)
        .build()
        .expect("test config validates")
    }

    fn ids(n: u64) -> Vec<DatabaseId> {
        (0..n).map(DatabaseId).collect()
    }

    #[test]
    fn rejects_optimal_policy() {
        let cfg = SimConfig::builder(
            SimPolicy::Optimal,
            Timestamp(0),
            Timestamp(1000),
            Timestamp(0),
        )
        .build()
        .unwrap();
        assert!(LiveDriver::new(&cfg, &ids(1)).is_err());
    }

    #[test]
    fn rejects_duplicate_registration() {
        let err = match LiveDriver::new(&cfg(1), &[DatabaseId(7), DatabaseId(7)]) {
            Ok(_) => panic!("duplicate registration must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("registered twice"));
    }

    #[test]
    fn ingest_classifies_unknown_late_duplicate() {
        let mut d = LiveDriver::new(&cfg(1), &ids(2)).unwrap();
        let ev = LiveEvent {
            db: DatabaseId(0),
            at: Timestamp(100),
            kind: LiveEventKind::Login,
        };
        assert_eq!(
            d.ingest(LiveEvent {
                db: DatabaseId(99),
                ..ev
            }),
            IngestOutcome::Unknown
        );
        assert_eq!(d.ingest(ev), IngestOutcome::Accepted);
        assert_eq!(d.ingest(ev), IngestOutcome::Duplicate);
        d.advance_to(Timestamp(200)).unwrap();
        assert_eq!(d.ingest(ev), IngestOutcome::Late);
        // A different kind at the same instant is not a duplicate.
        assert_eq!(
            d.ingest(LiveEvent {
                db: DatabaseId(0),
                at: Timestamp(200),
                kind: LiveEventKind::Logout,
            }),
            IngestOutcome::Accepted
        );
    }

    #[test]
    fn watermark_must_not_move_backwards() {
        let mut d = LiveDriver::new(&cfg(1), &ids(1)).unwrap();
        d.advance_to(Timestamp(500)).unwrap();
        assert!(d.advance_to(Timestamp(499)).is_err());
        d.advance_to(Timestamp(500)).unwrap(); // staying put is fine
    }

    #[test]
    fn login_resumes_and_forced_pause_reclaims() {
        let mut d = LiveDriver::new(&cfg(1), &ids(1)).unwrap();
        let db = DatabaseId(0);
        assert_eq!(d.db_state(db), Some(DbState::Resumed));
        d.ingest(LiveEvent {
            db,
            at: Timestamp(100),
            kind: LiveEventKind::Login,
        });
        d.ingest(LiveEvent {
            db,
            at: Timestamp(200),
            kind: LiveEventKind::Logout,
        });
        d.advance_to(Timestamp(300)).unwrap();
        // Reactive policy: logout lands in logical pause.
        assert_eq!(d.db_state(db), Some(DbState::LogicallyPaused));
        assert!(d.force_pause(db));
        d.advance_to(Timestamp(301)).unwrap();
        assert_eq!(d.db_state(db), Some(DbState::PhysicallyPaused));
        let report = d.finish().unwrap();
        assert_eq!(report.counters[0].logins_available, 1);
        assert_eq!(report.counters[0].physical_pauses, 1);
    }

    #[test]
    fn forced_pause_refused_while_serving() {
        let mut d = LiveDriver::new(&cfg(1), &ids(1)).unwrap();
        let db = DatabaseId(0);
        d.ingest(LiveEvent {
            db,
            at: Timestamp(100),
            kind: LiveEventKind::Login,
        });
        d.advance_to(Timestamp(150)).unwrap();
        assert_eq!(d.db_state(db), Some(DbState::Resumed));
        assert!(d.force_pause(db)); // scheduled…
        d.advance_to(Timestamp(151)).unwrap();
        // …but the engine refuses it while the database is serving.
        assert_eq!(d.db_state(db), Some(DbState::Resumed));
    }
}
