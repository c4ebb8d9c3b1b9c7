//! The wall-clock driver: [`LiveDriver`] feeds externally ingested
//! events into the same per-shard engine stack the DES runs.
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
//!    via [`ShardDriver::step_until`] and the watermark becomes `w`.
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
//! what the fleet holds.
//!
//! The offline-optimal policy is rejected at construction: its oracle
//! engine reads each database's full future trace at registration,
//! which a live driver by definition does not have.

use crate::json::Json;
use prorp_core::EngineCounters;
use prorp_obs::{evaluate_alerts, Alert, DecisionExplain, SloSeries};
use prorp_sim::events::SimEvent;
use prorp_sim::{merge_outcomes, ShardDriver, SimConfig, SimPolicy, SimReport};
use prorp_telemetry::{IncidentEntry, IncidentLog};
use prorp_types::{DatabaseId, DbState, Prediction, ProrpError, Timestamp};
use prorp_workload::Trace;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};

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

impl LiveEvent {
    /// Read the wire form `{"db":N,"at":T,"kind":"login"|"logout"}`.
    ///
    /// # Errors
    ///
    /// Names what is wrong: a missing or mistyped field, or a `db` that
    /// is not an unsigned integer (ids use all 64 bits; negative and
    /// fractional ones are rejected).
    pub fn from_json(v: &Json) -> Result<LiveEvent, &'static str> {
        let (Some(db), Some(at), Some(kind)) = (
            v.get("db"),
            v.get("at").and_then(Json::as_int),
            v.get("kind")
                .and_then(Json::as_str)
                .and_then(LiveEventKind::parse),
        ) else {
            return Err("event needs db, at, kind(login|logout)");
        };
        let db = db
            .as_u64()
            .ok_or("database id must be an unsigned integer")?;
        Ok(LiveEvent {
            db: DatabaseId(db),
            at: Timestamp(at),
            kind,
        })
    }

    /// The wire form [`from_json`](Self::from_json) reads.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("db", Json::from(self.db.raw())),
            ("at", Json::Int(self.at.as_secs())),
            ("kind", Json::Str(self.kind.label().into())),
        ])
    }
}

/// The wall-clock driver: shard drivers plus the watermark protocol.
///
/// See the [module docs](self) for the commit-order argument.
pub struct LiveDriver {
    cfg: SimConfig,
    shards: Vec<ShardDriver>,
    /// Global registration order — the commit order's final tie-break,
    /// and the output order of the merged report.
    order: HashMap<DatabaseId, usize>,
    /// The registered ids, in that order (`order` inverted).
    ids: Vec<DatabaseId>,
    /// Events accepted but not yet committed (all at `ts >= watermark`),
    /// keyed `(ts, tie-priority, registration index)`: commit order, and
    /// one entry per `(database, ts, kind)`.
    buffer: BTreeMap<(Timestamp, u8, usize), LiveEvent>,
    watermark: Timestamp,
    /// Per shard, how many entries of its append-only incident log
    /// [`take_fresh_incidents`](Self::take_fresh_incidents) has handed out.
    incidents_taken: Vec<usize>,
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
        let mut sizes = vec![0usize; cfg.shards];
        for id in dbs {
            sizes[id.shard_of(cfg.shards)] += 1;
        }
        let mut shards = (0..cfg.shards)
            .map(|s| ShardDriver::new(cfg, s, sizes[s]))
            .collect::<Result<Vec<_>, _>>()?;
        let mut order = HashMap::with_capacity(dbs.len());
        for (i, &id) in dbs.iter().enumerate() {
            if order.insert(id, i).is_some() {
                return Err(ProrpError::Simulation(format!(
                    "database {id} registered twice"
                )));
            }
            let trace = Trace::new(id, "live", Vec::new())?;
            shards[id.shard_of(cfg.shards)].register(&trace)?;
        }
        for s in &mut shards {
            s.start();
        }
        Ok(LiveDriver {
            watermark: cfg.start,
            cfg: cfg.clone(),
            incidents_taken: vec![0; shards.len()],
            shards,
            order,
            ids: dbs.to_vec(),
            buffer: BTreeMap::new(),
        })
    }

    /// The driver's config.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The current watermark: every event strictly before it has been
    /// committed and processed.
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// Databases registered, in registration order.
    pub fn databases(&self) -> Vec<DatabaseId> {
        self.ids.clone()
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: DatabaseId) -> bool {
        self.order.contains_key(&id)
    }

    /// `id`'s current lifecycle state.
    pub fn db_state(&self, id: DatabaseId) -> Option<DbState> {
        self.shard_of(id).db_state(id)
    }

    /// `id`'s currently published prediction.
    pub fn db_prediction(&self, id: DatabaseId) -> Option<Prediction> {
        self.shard_of(id).db_prediction(id)
    }

    /// `id`'s engine counters.
    pub fn db_counters(&self, id: DatabaseId) -> Option<EngineCounters> {
        self.shard_of(id).db_counters(id)
    }

    /// The incidents raised since the previous call, in the canonical
    /// `(time, database, kind)` order.  Successive calls yield
    /// [`incidents`](Self::incidents) piece by piece: a later advance
    /// raises only later incidents.
    pub fn take_fresh_incidents(&mut self) -> Vec<IncidentEntry> {
        let mut fresh = Vec::new();
        for (s, taken) in self.shards.iter().zip(&mut self.incidents_taken) {
            let entries = s.incident_log().entries();
            fresh.extend_from_slice(&entries[*taken..]);
            *taken = entries.len();
        }
        fresh.sort_unstable();
        fresh
    }

    /// All incidents raised so far, in the canonical `(time, database,
    /// kind)` order.
    pub fn incidents(&self) -> Vec<IncidentEntry> {
        IncidentLog::merge(
            self.shards
                .iter()
                .map(|s| s.incident_log().clone())
                .collect(),
        )
        .entries()
        .to_vec()
    }

    /// A live Prometheus snapshot at the watermark, shard-local texts
    /// concatenated with a `shard` label comment per block; `None` when
    /// observability is disabled.
    pub fn prometheus_text(&self) -> Option<String> {
        let mut out = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            let snap = s.metrics_snapshot(self.watermark)?;
            if self.shards.len() > 1 {
                out.push_str(&format!("# shard {i}\n"));
            }
            out.push_str(&prorp_obs::prometheus_text(&snap));
        }
        Some(out)
    }

    /// The fleet SLO rollup so far: the shard-local series merged with
    /// the same elementwise integer sums the DES report merge uses, so
    /// the live surface agrees bit for bit with an offline replay.
    /// `None` when rollups are disabled in the config.
    pub fn slo_series(&self) -> Option<SloSeries> {
        let parts: Vec<SloSeries> = self
            .shards
            .iter()
            .filter_map(|s| s.slo_series().cloned())
            .collect();
        // Every shard shares one config, so the merge cannot fail.
        SloSeries::merge(parts).ok().flatten()
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
        self.shard_of(id).db_last_decision(id)
    }

    /// Ingest one customer-activity event.  Never touches an engine —
    /// only [`advance_to`](Self::advance_to) does.
    pub fn ingest(&mut self, ev: LiveEvent) -> IngestOutcome {
        let Some(&registered) = self.order.get(&ev.db) else {
            return IngestOutcome::Unknown;
        };
        if ev.at < self.watermark {
            return IngestOutcome::Late;
        }
        if ev.at >= self.cfg.end {
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
        self.contains(id) && self.shard_of_mut(id).inject_forced_resume(at, id)
    }

    /// Schedule an operator-forced physical pause for `id` at the
    /// watermark (the engine refuses it while the database is serving).
    pub fn force_pause(&mut self, id: DatabaseId) -> bool {
        let at = self.watermark;
        self.contains(id) && self.shard_of_mut(id).inject_forced_pause(at, id)
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
        self.commit_below(self.cfg.end)?;
        let mut outcomes = Vec::with_capacity(self.shards.len());
        for mut s in self.shards {
            s.run_to_end()?;
            outcomes.push(s.finish()?);
        }
        merge_outcomes(&self.cfg, &self.order, self.order.len(), outcomes)
    }

    /// Commit buffered events with `ts < to` and step shards to `to`.
    fn commit_below(&mut self, to: Timestamp) -> Result<(), ProrpError> {
        // The DES queue's order is (ts, priority, FIFO seq), and its
        // seq order for customer activity is registration order — the
        // trace loop pushes sessions as databases register — so the
        // buffer's key order is the commit order.
        let later = self.buffer.split_off(&(to, 0, 0));
        let batch = std::mem::replace(&mut self.buffer, later);
        for ev in batch.into_values() {
            let shard = &mut self.shards[ev.db.shard_of(self.cfg.shards)];
            // `ingest` buffers only `[watermark, end)`, inside the
            // `[start, end)` the inject path clips to, so none is dropped.
            let _ = match ev.kind {
                LiveEventKind::Login => shard.inject_login(ev.at, ev.db),
                LiveEventKind::Logout => shard.inject_logout(ev.at, ev.db),
            };
        }
        for s in &mut self.shards {
            s.step_until(to)?;
        }
        Ok(())
    }

    /// The shard `id` hashes to — where it lives if it is registered;
    /// the shard itself answers `None` for an id it does not hold.
    fn shard_of(&self, id: DatabaseId) -> &ShardDriver {
        &self.shards[id.shard_of(self.cfg.shards)]
    }

    fn shard_of_mut(&mut self, id: DatabaseId) -> &mut ShardDriver {
        &mut self.shards[id.shard_of(self.cfg.shards)]
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
